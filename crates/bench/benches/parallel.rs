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
//! Every type trains exactly `SWEEPS` sweeps (the convergence check is
//! inert), so a sample does the same work whatever the thread count and
//! one sequential sample takes about 200 ms on a 2-core host: long
//! enough that timer and scheduler noise stay small against it. Samples
//! come in `ROUNDS` rounds that each time every arm once, in a fixed
//! order, so a slow spell of a shared host hits every arm alike. Each
//! row records the median wall time with its interquartile range and
//! sample count, and beside it the median CPU time of the whole process
//! (user + system, from `/proc/self/stat`): a row whose wall time moved
//! while its CPU time did not met host noise, and CPU ÷ wall shows how
//! many cores a parallel row really used. A speedup is the median of
//! the per-round ratios, with their interquartile range.
//!
//! The `observed` rows price observation: the same `train_all` at 1 and
//! 2 threads with no observer, with the telemetry observer, and with the
//! telemetry observer fanned out to a diagnostics recorder (what
//! `report --diagnostics-out` attaches), each with the ratio of its
//! median to the unobserved median. The replay rows time `REPLAY_PASSES`
//! full-policy evaluations of the catalog per sample.
//!
//! Only invariants are asserted — every type trained, each for exactly
//! `SWEEPS` sweeps, with the same statistics at every thread count and
//! under every observer — never a time.

use criterion::{criterion_group, Criterion};
use recovery_bench::ledger::{median_ms, quartiles, row_fields, sample, Sample};
use recovery_core::error_type::ErrorTypeRanking;
use recovery_core::evaluate::evaluate_parallel;
use recovery_core::parallel::WorkerPool;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::policy::UserStatePolicy;
use recovery_core::trainer::{OfflineTrainer, TrainerConfig, TypeTrainingStats};
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

/// Sweeps every type trains. With the convergence check inert, this
/// fixes each sample's work at `TYPES × SWEEPS` sweeps.
const SWEEPS: u64 = 48_000;
/// Timed rounds; each round times every arm once.
const ROUNDS: usize = 11;
/// Full-catalog evaluations per replay sample.
const REPLAY_PASSES: usize = 400;

fn fixed_config() -> TrainerConfig {
    let mut config = TrainerConfig::fast();
    config.learning.max_episodes = SWEEPS;
    config.learning.convergence_window = u64::MAX;
    config
}

fn train_with(train: &[RecoveryProcess], threads: usize) -> Vec<TypeTrainingStats> {
    train_observed(train, threads, ObserverHandle::none())
}

fn train_observed(
    train: &[RecoveryProcess],
    threads: usize,
    observer: ObserverHandle,
) -> Vec<TypeTrainingStats> {
    let trainer = OfflineTrainer::new(train, fixed_config())
        .with_threads(threads)
        .with_observer(observer);
    trainer.train_all().1
}

/// The observers the `observed` rows time, by name; `none` first.
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
    let mut counts = vec![1, 2, 4, pool_threads];
    counts.sort_unstable();
    counts.dedup();

    // Training arms: `(threads, observer)`. Every count runs unobserved;
    // 1 and 2 threads also run under each observer.
    let mut arms: Vec<(usize, usize)> = Vec::new();
    for &threads in &counts {
        let observers = if threads <= 2 { 0..3 } else { 0..1 };
        arms.extend(observers.map(|observer| (threads, observer)));
    }
    let observers = observer_arms();
    let run_arm = |(threads, observer): (usize, usize)| {
        train_observed(&train, threads, observers[observer].1.clone())
    };
    let reference = train_with(&train, 1);
    assert_eq!(reference.len(), TYPES as usize, "every type trains");
    assert!(
        reference.iter().all(|s| s.sweeps == SWEEPS),
        "every type runs the full sweep cap"
    );
    for &arm in &arms {
        assert_eq!(
            run_arm(arm),
            reference,
            "arm {arm:?} changed the training stats"
        );
    }
    let mut train_samples = vec![Vec::with_capacity(ROUNDS); arms.len()];
    for _round in 0..ROUNDS {
        for (slot, &arm) in train_samples.iter_mut().zip(&arms) {
            slot.push(sample(|| {
                std::hint::black_box(run_arm(arm));
            }));
        }
    }
    let samples_of = |threads: usize, observer: usize| -> &[Sample] {
        let at = arms.iter().position(|&arm| arm == (threads, observer));
        &train_samples[at.expect("every count has an unobserved arm")]
    };

    // Replay throughput: full-policy evaluation over the catalog through
    // the cached replay hot path, in replays (processes) per second. The
    // sequential row doubles as the before/after anchor for the
    // allocation-free replay work (BENCH_ingest.json has the per-attempt
    // numbers).
    let types = ErrorTypeRanking::from_processes(&train).top_k(TYPES as usize);
    let platform = SimulationPlatform::from_processes(&train, CostEstimation::AverageOnly);
    let user = UserStatePolicy::default();
    let pools: Vec<WorkerPool> = counts.iter().map(|&n| WorkerPool::new(n)).collect();
    let mut replay_samples = vec![Vec::with_capacity(ROUNDS); pools.len()];
    for _round in 0..ROUNDS {
        for (slot, pool) in replay_samples.iter_mut().zip(&pools) {
            slot.push(sample(|| {
                for _ in 0..REPLAY_PASSES {
                    std::hint::black_box(evaluate_parallel(
                        &user, &platform, &train, &types, 20, pool,
                    ));
                }
            }));
        }
    }

    let sequential = samples_of(1, 0);
    let series_json = counts
        .iter()
        .filter(|&&n| n > 1)
        .map(|&n| {
            let parallel = samples_of(n, 0);
            let ratios = sequential
                .iter()
                .zip(parallel)
                .map(|(s, p)| s.wall_ms / p.wall_ms);
            let [q1, speedup, q3] = quartiles(ratios);
            format!(
                "{{\"threads\":{n},{},\"speedup\":{speedup:.3},\"speedup_iqr\":[{q1:.3},{q3:.3}]}}",
                row_fields(parallel)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let observed_json = [1, 2]
        .map(|threads| {
            let unobserved = median_ms(samples_of(threads, 0));
            let mut row = format!("{{\"threads\":{threads}");
            for (observer, (name, _)) in observers.iter().enumerate() {
                let samples = samples_of(threads, observer);
                row.push_str(&format!(",\"{name}\":{{{}", row_fields(samples)));
                if observer > 0 {
                    row.push_str(&format!(
                        ",\"ratio\":{:.3}",
                        median_ms(samples) / unobserved
                    ));
                }
                row.push('}');
            }
            row.push('}');
            row
        })
        .join(",");
    let replay_json = counts
        .iter()
        .zip(&replay_samples)
        .map(|(n, samples)| {
            let replays = (REPLAY_PASSES * train.len()) as f64;
            format!(
                "{{\"threads\":{n},{},\"replays_per_s\":{:.1}}}",
                row_fields(samples),
                replays / (median_ms(samples) / 1e3)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let section = format!(
        "{{\"types\":{TYPES},\"sweeps_per_type\":{SWEEPS},\
         \"host_cores\":{available},\"threads\":{pool_threads},\"rounds\":{ROUNDS},\
         \"sequential\":{{{}}},\"series\":[{series_json}],\
         \"replay_passes\":{REPLAY_PASSES},\"replay_series\":[{replay_json}],\
         \"observed\":[{observed_json}]}}",
        row_fields(sequential)
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
