//! Benchmarks of the training pipelines: standard tabular Q-learning
//! (improved and paper-faithful), the selection-tree accelerator, and the
//! linear-approximation extension — the ablation data for the design
//! choices called out in `DESIGN.md`.
//!
//! In sampling mode (`cargo bench --bench training -- --bench`) the
//! Q-learning *episode loop* is additionally measured and recorded into
//! the `episode_loop` section of `BENCH_train.json` at the workspace root
//! (the `train_all` section is owned by `benches/parallel.rs`). The
//! measured arm drives `QLearning::train` over the packed replay
//! environment with early convergence disabled, so each run is exactly
//! `max_episodes` sweeps long:
//!
//! * **Throughput** — sweeps per second, with the host's core count.
//! * **Steady-state allocations** — a counting global allocator (same
//!   pattern as `benches/ingest.rs`) measures heap allocations for a
//!   short and a long run; the difference is purely per-episode work,
//!   and it must be exactly zero.
//! * **Table size** — the bytes one per-type `DenseQTable` allocates at
//!   the paper's N = 20, which must stay at most 1 MiB. This guard also
//!   runs without `--bench`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recovery_core::approx::{train_linear, LinearConfig};
use recovery_core::error_type::{ErrorType, ErrorTypeRanking};
use recovery_core::evaluate::time_ordered_split;
use recovery_core::experiment::ExperimentContext;
use recovery_core::parallel::WorkerPool;
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_mdp::{DenseQTable, Environment, QLearning, QLearningConfig};
use recovery_simlog::{
    ActionRecord, GeneratorConfig, LogGenerator, MachineId, RecoveryProcess, RepairAction, SimTime,
    SymptomId,
};

/// Counts heap allocations and their bytes, so the episode-loop arm can
/// certify that the loop's steady state performs none per sweep and the
/// table guard can weigh a per-type table.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // Delegate instead of inheriting the trait defaults: the default
    // `alloc_zeroed` is `alloc` + an eager memset, which would charge the
    // table's zeroed slabs an up-front page-touching cost the
    // system allocator's calloc path (lazily zeroed fresh pages) never
    // pays; the default `realloc` is alloc + copy + dealloc, which would
    // slow `Vec` growth. Both still count as one allocation.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Workload {
    train: Vec<RecoveryProcess>,
    top_type: ErrorType,
}

fn workload() -> Workload {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    let processes = generated.log.split_processes();
    let ctx = ExperimentContext::prepare(processes, 0.1, 8);
    let (train, _) = time_ordered_split(&ctx.clean, 0.4);
    Workload {
        train: train.to_vec(),
        top_type: ctx.types[0],
    }
}

fn capped(mut config: TrainerConfig, sweeps: u64) -> TrainerConfig {
    config.learning.max_episodes = sweeps;
    config
}

fn bench_training(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("training");
    group.sample_size(10);

    group.bench_function("tabular_2k_sweeps", |b| {
        let trainer = OfflineTrainer::new(&w.train, capped(TrainerConfig::fast(), 2_000));
        b.iter(|| std::hint::black_box(trainer.train_type(w.top_type).unwrap().1.sweeps))
    });

    // Ablation: the paper-faithful learner (forward updates, no pruning)
    // runs the same sweep budget; the interesting difference is policy
    // quality per sweep, measured by the fig13 binary — here we measure
    // raw sweep throughput.
    group.bench_function("ablation_paper_faithful_2k_sweeps", |b| {
        let trainer = OfflineTrainer::new(&w.train, capped(TrainerConfig::paper_faithful(), 2_000));
        b.iter(|| std::hint::black_box(trainer.train_type(w.top_type).unwrap().1.sweeps))
    });

    group.bench_function("selection_tree", |b| {
        let trainer = OfflineTrainer::new(&w.train, TrainerConfig::fast());
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        b.iter(|| std::hint::black_box(tree.train_type(w.top_type).unwrap().stats.sweeps))
    });

    group.bench_function("linear_approximation_2k_episodes", |b| {
        let trainer = OfflineTrainer::new(&w.train, TrainerConfig::fast());
        let config = LinearConfig {
            episodes: 2_000,
            ..LinearConfig::default()
        };
        b.iter(|| std::hint::black_box(train_linear(&trainer, w.top_type, &config).is_some()))
    });

    group.finish();
}

criterion_group!(benches, bench_training);

/// Sweeps of the short calibration run (also the warm-up horizon: all
/// scratch buffers reach steady capacity well before this).
const SHORT_SWEEPS: u64 = 2_000;
/// Sweeps of the long run; the `LONG - SHORT` tail is the steady state.
const LONG_SWEEPS: u64 = 12_000;
/// Fixed seed for the learner rng, so the short and long runs replay the
/// identical episode prefix.
const LOOP_SEED: u64 = 0x0E91_50DE;

/// Learner config for the measured loop: exactly `sweeps` sweeps, with
/// the convergence window pushed past the cap so no run stops early and
/// two run lengths can be differenced for steady-state allocations.
fn loop_config(sweeps: u64) -> QLearningConfig {
    let mut learning = TrainerConfig::default().learning;
    learning.max_episodes = sweeps;
    learning.convergence_window = sweeps + 1;
    learning
}

/// The measured episode-loop workload: one synthetic error type with 24
/// deterministic multi-step recoveries — a failed `Reboot` every third
/// process, `Rma` as the cure, and per-process cost jitter so Q-values
/// keep moving. Multi-step replays are the representative case: table
/// work scales with the decisions per episode, while a single-step type
/// mostly measures the replay cost. No generator randomness — the
/// workload is identical on every run.
fn loop_workload() -> Vec<RecoveryProcess> {
    let mut processes = Vec::new();
    for j in 0..24u64 {
        let start = j * 10_000;
        let symptom = SymptomId::new(0);
        let symptoms = vec![
            (SimTime::from_secs(start), symptom),
            (SimTime::from_secs(start + 60 + j * 7), symptom),
        ];
        let cure_delay = 600 + 90 * j;
        let mut actions = Vec::new();
        if j % 3 == 0 {
            actions.push(ActionRecord {
                time: SimTime::from_secs(start + 300),
                action: RepairAction::Reboot,
            });
        }
        actions.push(ActionRecord {
            time: SimTime::from_secs(start + cure_delay),
            action: RepairAction::Rma,
        });
        let success = start + cure_delay + 120 + j * 11;
        processes.push(RecoveryProcess::new(
            MachineId::new(j as u32),
            symptoms,
            actions,
            SimTime::from_secs(success),
        ));
    }
    processes
}

/// The most one per-type table may allocate at N = 20. The table over
/// the C(24, 4) = 10,626 reachable states takes about 0.7 MB; the
/// mixed-radix cube it replaced took about 13 MB.
const MAX_TABLE_BYTES: u64 = 1 << 20;

/// Heap bytes one per-type `DenseQTable` allocates for `et`'s replay
/// environment.
fn table_bytes(trainer: &OfflineTrainer, et: ErrorType) -> u64 {
    let env = trainer.replay_env(et).expect("type has processes");
    let before = BYTES.load(Ordering::Relaxed);
    let table = DenseQTable::new(env.num_states(), env.num_actions());
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(table);
    bytes
}

/// One full training run of `sweeps` sweeps; returns the loop's heap
/// allocations (env and table construction excluded).
fn loop_allocs(trainer: &OfflineTrainer, et: ErrorType, sweeps: u64) -> u64 {
    let driver = QLearning::new(loop_config(sweeps));
    let mut env = trainer.replay_env(et).expect("type has processes");
    let table = DenseQTable::new(env.num_states(), env.num_actions());
    let mut rng = StdRng::seed_from_u64(LOOP_SEED);
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = driver.train(&mut env, &mut rng, table);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.episodes, sweeps, "run stopped early");
    allocs
}

fn main() {
    benches();
    let synth = loop_workload();
    let et = ErrorTypeRanking::from_processes(&synth).top_k(1)[0];
    let trainer = OfflineTrainer::new(&synth, TrainerConfig::fast());
    assert_eq!(trainer.config().max_attempts, 20, "the guard is for N = 20");
    let table = table_bytes(&trainer, et);
    assert!(
        table <= MAX_TABLE_BYTES,
        "a per-type table at N = 20 allocates {table} bytes, over {MAX_TABLE_BYTES}"
    );
    // `cargo test` runs bench binaries without `--bench`; only the real
    // bench invocation measures and records the comparison file.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }

    // Throughput: best-of-three wall clock for the long run, sweeps per
    // second. The clock covers the sweeps only: the environment, the
    // table and the rng are built before it starts, and dropped after.
    let driver = QLearning::new(loop_config(LONG_SWEEPS));
    let ms = (0..3)
        .map(|_| {
            let mut env = trainer.replay_env(et).expect("type has processes");
            let table = DenseQTable::new(env.num_states(), env.num_actions());
            let mut rng = StdRng::seed_from_u64(LOOP_SEED);
            let start = Instant::now();
            let result = driver.train(&mut env, &mut rng, table);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(result.episodes);
            ms
        })
        .fold(f64::INFINITY, f64::min);
    let per_s = LONG_SWEEPS as f64 / (ms / 1e3);

    // Steady-state allocations: the short run covers all one-time scratch
    // growth (both runs replay the identical episode prefix from the
    // fixed seed), so the long-minus-short difference is attributable
    // purely to the extra sweeps.
    let allocs = {
        let short = loop_allocs(&trainer, et, SHORT_SWEEPS);
        let long = loop_allocs(&trainer, et, LONG_SWEEPS);
        (long as f64 - short as f64) / (LONG_SWEEPS - SHORT_SWEEPS) as f64
    };
    assert_eq!(
        allocs, 0.0,
        "episode loop must be allocation-free in steady state"
    );

    let host_cores = WorkerPool::available().threads();
    let section = format!(
        "{{\"sweeps\":{LONG_SWEEPS},\"calibration_sweeps\":{SHORT_SWEEPS},\
         \"host_cores\":{host_cores},\"ms\":{ms:.3},\"episodes_per_s\":{per_s:.0},\
         \"allocs_per_episode\":{allocs:.2},\"table_bytes\":{table}}}"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
    match recovery_bench::write_bench_section(out, "episode_loop", &section) {
        Ok(merged) => print!("wrote BENCH_train.json: {merged}"),
        Err(e) => eprintln!("could not write BENCH_train.json: {e}"),
    }
}
