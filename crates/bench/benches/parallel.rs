//! Sequential vs parallel `train_all` on a 32-type synthetic catalog.
//!
//! The per-type fan-out is embarrassingly parallel (each type's rng
//! stream derives only from the master seed and its symptom index), so
//! the interesting numbers are the scaling factor and the overhead of
//! the worker pool at `--threads 1`. In sampling mode (`cargo bench`)
//! the measured comparison is additionally written to `BENCH_train.json`
//! at the workspace root: the sequential baseline plus a per-thread-count
//! series. The parallel arm always runs at least 2 workers — on a
//! single-core host `available_parallelism` is 1, and comparing the pool
//! at 1 thread against the sequential path would silently record pool
//! overhead as a bogus "speedup" (this file once reported `"threads":1`
//! with `speedup: 0.712` that way).
//!
//! The `observed` series prices observation: the same `train_all` at 1
//! and 2 threads with no observer, with the telemetry observer, and with
//! the telemetry observer fanned out to a diagnostics recorder (what
//! `report --diagnostics-out` attaches), each with its ratio to the
//! unobserved time. The ratios are recorded, not gated.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use recovery_core::error_type::ErrorTypeRanking;
use recovery_core::evaluate::evaluate_parallel;
use recovery_core::parallel::WorkerPool;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::policy::UserStatePolicy;
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_diagnostics::DiagnosticsRecorder;
use recovery_simlog::{ActionRecord, MachineId, RecoveryProcess, RepairAction, SimTime, SymptomId};
use recovery_telemetry::{ObserverHandle, Telemetry};

/// Types in the synthetic catalog (the paper trains the top 40; 32 keeps
/// the bench brisk while saturating any realistic core count).
const TYPES: u32 = 32;
/// Training processes per type.
const PER_TYPE: u64 = 24;

/// A hand-crafted catalog: `TYPES` error types (distinct initial
/// symptoms), each with `PER_TYPE` processes whose required action and
/// action costs vary deterministically — no generator randomness, so the
/// workload is identical on every run.
fn synthetic_catalog() -> Vec<RecoveryProcess> {
    let cures = [
        RepairAction::TryNop,
        RepairAction::Reboot,
        RepairAction::Reimage,
        RepairAction::Rma,
    ];
    let mut processes = Vec::new();
    for ty in 0..TYPES {
        let cure = cures[(ty % 4) as usize];
        for j in 0..PER_TYPE {
            let start = u64::from(ty) * 1_000_000 + j * 10_000;
            let symptom = SymptomId::new(ty);
            let symptoms = vec![
                (SimTime::from_secs(start), symptom),
                (SimTime::from_secs(start + 60 + j * 7), symptom),
            ];
            // Cost spread per sample: the jitter keeps Q-values from
            // collapsing to a single repeated backup while staying
            // deterministic.
            let cure_delay = 600 + 90 * j + u64::from(ty % 5) * 30;
            let mut actions = Vec::new();
            if cure != RepairAction::TryNop {
                // Every third process records a failed weaker attempt
                // first, exercising multi-step recoveries.
                if j % 3 == 0 && cure != RepairAction::Reboot {
                    actions.push(ActionRecord {
                        time: SimTime::from_secs(start + 300),
                        action: RepairAction::Reboot,
                    });
                }
                actions.push(ActionRecord {
                    time: SimTime::from_secs(start + cure_delay),
                    action: cure,
                });
            }
            let success = start + cure_delay + 120 + j * 11;
            processes.push(RecoveryProcess::new(
                MachineId::new(ty * 1_000 + j as u32),
                symptoms,
                actions,
                SimTime::from_secs(success),
            ));
        }
    }
    processes
}

fn capped_config() -> TrainerConfig {
    let mut config = TrainerConfig::fast();
    config.learning.max_episodes = 4_000;
    config
}

fn train_with(train: &[RecoveryProcess], threads: usize) -> usize {
    train_observed(train, threads, ObserverHandle::none())
}

fn train_observed(train: &[RecoveryProcess], threads: usize, observer: ObserverHandle) -> usize {
    let trainer = OfflineTrainer::new(train, capped_config())
        .with_threads(threads)
        .with_observer(observer);
    let (_, stats) = trainer.train_all();
    stats.len()
}

/// Rounds of the `observed` series; each arm keeps its best.
const OBSERVED_ROUNDS: u32 = 9;

/// The observers the `observed` series times, by name.
fn observer_arms() -> [(&'static str, ObserverHandle); 3] {
    let telemetry = Telemetry::new().observer_handle();
    let diagnostics = telemetry.fanout(&DiagnosticsRecorder::new().handle());
    [
        ("none", ObserverHandle::none()),
        ("telemetry", telemetry),
        ("diagnostics", diagnostics),
    ]
}

fn bench_parallel_training(c: &mut Criterion) {
    let train = synthetic_catalog();
    let available = WorkerPool::available().threads();
    let mut group = c.benchmark_group("parallel_train");
    group.sample_size(10);

    group.bench_function("train_all_sequential", |b| {
        b.iter(|| std::hint::black_box(train_with(&train, 1)))
    });
    if available > 1 {
        group.bench_function(&format!("train_all_{available}_threads"), |b| {
            b.iter(|| std::hint::black_box(train_with(&train, available)))
        });
    }
    // Oversubscribed row: on a single-core host this measures the pure
    // scheduling overhead of the worker pool; on a multi-core host it
    // shows the cost of more workers than items is bounded by the pool's
    // `min(threads, items)` clamp.
    group.bench_function("train_all_4_workers", |b| {
        b.iter(|| std::hint::black_box(train_with(&train, 4)))
    });

    group.finish();
}

criterion_group!(benches, bench_parallel_training);

/// Times `f` a few times and returns the best wall-clock in milliseconds.
fn best_of_ms(reps: u32, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    benches();
    // `cargo test` runs bench binaries without `--bench`; only the real
    // bench invocation measures and records the comparison file.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let train = synthetic_catalog();
    let available = WorkerPool::available().threads();
    // The parallel arm must actually fan out: never fewer than 2 workers.
    let pool_threads = available.max(2);
    assert!(
        pool_threads >= 2,
        "parallel arm degenerated to {pool_threads} thread(s); \
         refusing to record a 1-vs-1 comparison"
    );
    let types_trained = train_with(&train, 1);
    let sequential_ms = best_of_ms(3, || {
        std::hint::black_box(train_with(&train, 1));
    });
    let mut counts = vec![2, 4, pool_threads];
    counts.sort_unstable();
    counts.dedup();
    let series: Vec<(usize, f64)> = counts
        .into_iter()
        .map(|n| {
            let ms = best_of_ms(3, || {
                std::hint::black_box(train_with(&train, n));
            });
            (n, ms)
        })
        .collect();
    let (_, parallel_ms) = *series
        .iter()
        .find(|(n, _)| *n == pool_threads)
        .expect("pool_threads is in the series");
    // Replay throughput: full-policy evaluation over the catalog through
    // the cached replay hot path, in replays (processes) per second. The
    // sequential row doubles as the before/after anchor for the
    // allocation-free replay work (BENCH_ingest.json has the per-attempt
    // numbers).
    let types = {
        let ranking = ErrorTypeRanking::from_processes(&train);
        ranking.top_k(TYPES as usize)
    };
    let platform = SimulationPlatform::from_processes(&train, CostEstimation::AverageOnly);
    let user = UserStatePolicy::default();
    let mut replay_counts = vec![1, 2, 4, pool_threads];
    replay_counts.sort_unstable();
    replay_counts.dedup();
    let replay_series: Vec<(usize, f64)> = replay_counts
        .into_iter()
        .map(|n| {
            let pool = WorkerPool::new(n);
            let ms = best_of_ms(3, || {
                std::hint::black_box(evaluate_parallel(
                    &user, &platform, &train, &types, 20, &pool,
                ));
            });
            (n, train.len() as f64 / (ms / 1e3))
        })
        .collect();

    let series_json = series
        .iter()
        .map(|(n, ms)| {
            format!(
                "{{\"threads\":{n},\"ms\":{ms:.3},\"speedup\":{:.3}}}",
                sequential_ms / ms
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    // Rounds alternate the arms, so drift on a shared host moves all
    // three alike; each arm keeps its best round.
    let observed_json = [1, 2]
        .map(|threads| {
            let arms = observer_arms();
            let mut best = [f64::INFINITY; 3];
            for _round in 0..OBSERVED_ROUNDS {
                for (slot, (_, observer)) in best.iter_mut().zip(&arms) {
                    let ms = best_of_ms(1, || {
                        std::hint::black_box(train_observed(&train, threads, observer.clone()));
                    });
                    *slot = slot.min(ms);
                }
            }
            let mut row = format!("{{\"threads\":{threads},\"none_ms\":{:.3}", best[0]);
            for ((name, _), ms) in arms.iter().zip(best).skip(1) {
                row.push_str(&format!(
                    ",\"{name}_ms\":{ms:.3},\"{name}_ratio\":{:.3}",
                    ms / best[0]
                ));
            }
            row.push('}');
            row
        })
        .join(",");
    let replay_json = replay_series
        .iter()
        .map(|(n, per_s)| format!("{{\"threads\":{n},\"replays_per_s\":{per_s:.1}}}"))
        .collect::<Vec<_>>()
        .join(",");
    let section = format!(
        "{{\"types\":{types_trained},\
         \"host_cores\":{available},\"threads\":{pool_threads},\
         \"sequential_ms\":{sequential_ms:.3},\"parallel_ms\":{parallel_ms:.3},\
         \"speedup\":{:.3},\"series\":[{series_json}],\
         \"replay_series\":[{replay_json}],\"observed\":[{observed_json}]}}",
        sequential_ms / parallel_ms,
        types_trained = types_trained
    );
    // Bench binaries run with the package directory as CWD; anchor the
    // result file at the workspace root instead. The file is shared with
    // `benches/training.rs` (the `episode_loop` section): each bench
    // merges its own section and leaves the other's in place.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    match recovery_bench::write_bench_section(out, "train_all", &section) {
        Ok(merged) => print!("wrote BENCH_train.json: {merged}"),
        Err(e) => eprintln!("could not write BENCH_train.json: {e}"),
    }
}
