//! Simulation, ingestion — the log-line codec and the split into
//! processes — and the allocation-free replay hot path.
//!
//! In sampling mode (`cargo bench -- --bench`) the rows below are
//! measured on a `paper_scale(--scale)` log and written to
//! `BENCH_ingest.json` at the workspace root, to the measurement standard
//! of [`recovery_bench::ledger`]: each sample repeats its call until it
//! takes at least `SAMPLE_MS`, `ROUNDS` rounds time every row once, and
//! each row records its median, interquartile range, sample count and
//! median process CPU time, with the host's core count beside them:
//!
//! * **`simulate`** — `ClusterSim::run` of the log's cluster under the
//!   production ladder, per log entry and per recovery process.
//! * **`parse`** and **`render`** — `RecoveryLog::from_text` and
//!   `RecoveryLog::to_text`, per line.
//! * **`split`** — `recovery_core::ingest::split_processes`, one
//!   sequential pass then the `(start, machine)` sort, per process.
//! * **`replay`** — `SimulationPlatform::attempt_cached` and
//!   `SimulationPlatform::attempt`, per attempt, beside the heap
//!   allocations a counting global allocator sees per attempt.
//!
//! Only invariants are asserted, never a time: the simulated log comes
//! back in its own stable `(time, machine)` order and a second run gives
//! the same bytes, parsing then rendering the text gives it back, the
//! split equals `RecoveryLog::split_processes`, and the cached replay
//! path allocates nothing. Setting `INGEST_DUMP=<path>` additionally
//! writes a deterministic rendering of the processes
//! `recovery_core::ingest::ingest` extracts with the requested worker
//! count (`RECOVERY_THREADS`), so CI can diff runs at different counts:
//! ingestion must not depend on the pool.

use criterion::{criterion_group, Criterion};
use recovery_bench::ledger::{median_ms, row_fields, sample, Sample};
use recovery_bench::{scale_from_args, threads_from_args};
use recovery_core::ingest;
use recovery_core::parallel::WorkerPool;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_simlog::{
    ClusterSim, GeneratorConfig, LogGenerator, RecoveryLog, RecoveryProcess, RepairAction,
    UserDefinedPolicy,
};
use recovery_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations so the replay microbenchmark can certify that
/// the cached hot path performs none per attempt.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sample_text(scale: f64) -> String {
    LogGenerator::new(GeneratorConfig::paper_scale(scale))
        .generate()
        .log
        .to_text()
}

fn sequential_ingest(text: &str) -> (RecoveryLog, Vec<RecoveryProcess>) {
    let mut log = RecoveryLog::from_text(text).expect("bench log parses");
    let processes = log.split_processes();
    (log, processes)
}

fn pooled_ingest(text: &str, threads: usize) -> (RecoveryLog, Vec<RecoveryProcess>) {
    let pool = WorkerPool::new(threads);
    ingest::ingest(text, &pool, &Telemetry::disabled()).expect("bench log ingests")
}

/// The split step alone, over an already parsed log.
fn split(log: &mut RecoveryLog) -> Vec<RecoveryProcess> {
    ingest::split_processes(log, &WorkerPool::new(1), &Telemetry::disabled())
}

/// One line per process with every field resolved: any ingestion
/// divergence between thread counts shows up as a byte difference.
fn dump_processes(log: &RecoveryLog, processes: &[RecoveryProcess]) -> String {
    let mut out = String::new();
    for p in processes {
        out.push_str(&format!(
            "{}\t{}\t{}",
            p.machine().index(),
            p.start(),
            p.success_time()
        ));
        for &(t, s) in p.symptoms() {
            out.push_str(&format!("\t{t}:{}", log.symptoms().name(s).unwrap_or("?")));
        }
        for a in p.actions() {
            out.push_str(&format!("\t{}:{}", a.time, a.action));
        }
        out.push('\n');
    }
    out
}

fn bench_ingest(c: &mut Criterion) {
    // A small fixed scale keeps the sampling-mode group brisk; the
    // recorded JSON uses the full `--scale` workload.
    let text = sample_text(0.05);
    let mut log = RecoveryLog::from_text(&text).expect("bench log parses");
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| std::hint::black_box(sequential_ingest(&text)))
    });
    group.bench_function("split", |b| {
        b.iter(|| std::hint::black_box(split(&mut log)))
    });
    group.finish();
}

criterion_group!(benches, bench_ingest);

/// Shortest sample: each timed call repeats until it takes this long.
const SAMPLE_MS: f64 = 100.0;
/// Timed rounds; each round times every row once.
const ROUNDS: usize = 11;
/// Cluster history of the `simulate` row.
const SIM_SEED: u64 = 7;

/// One ledger row: the work it times, the calls one sample makes, and
/// the samples taken.
struct Row<'a> {
    run: Box<dyn FnMut() + 'a>,
    reps: usize,
    samples: Vec<Sample>,
}

impl<'a> Row<'a> {
    /// A row repeating `run` as often as one sample of `SAMPLE_MS` needs:
    /// after a warm-up call, the repetitions grow until a sample takes
    /// that long, then are set half again past it, so that a sample
    /// slowed by the host during calibration leaves no later one short.
    fn new(mut run: impl FnMut() + 'a) -> Self {
        run();
        let mut reps = 1;
        loop {
            let ms = sample(|| (0..reps).for_each(|_| run())).wall_ms;
            let aim = (reps as f64 * 1.5 * SAMPLE_MS / ms.max(1e-3)).ceil() as usize;
            if ms >= SAMPLE_MS {
                reps = reps.max(aim);
                break;
            }
            reps = aim.max(reps * 2);
        }
        Row {
            run: Box::new(run),
            reps,
            samples: Vec::with_capacity(ROUNDS),
        }
    }

    fn time(&mut self) {
        let (run, reps) = (&mut self.run, self.reps);
        self.samples.push(sample(|| (0..reps).for_each(|_| run())));
    }

    /// The row's JSON object, with nanoseconds per unit for each
    /// `(name, units per call)`.
    fn json(&self, per: &[(&str, f64)]) -> String {
        let ns_per_call = median_ms(&self.samples) * 1e6 / self.reps as f64;
        let mut out = format!("{{{},\"reps\":{}", row_fields(&self.samples), self.reps);
        for (unit, count) in per {
            out.push_str(&format!(",\"ns_per_{unit}\":{:.1}", ns_per_call / count));
        }
        out.push('}');
        out
    }
}

/// Heap allocations per attempt of one pass of `schedule` over
/// `attempts` attempts.
fn allocs_per_attempt(attempts: usize, schedule: &mut dyn FnMut() -> f64) -> f64 {
    std::hint::black_box(schedule());
    let before = ALLOCS.load(Ordering::Relaxed);
    std::hint::black_box(schedule());
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / attempts as f64
}

fn main() {
    benches();
    // `cargo test` runs bench binaries without `--bench`; only the real
    // bench invocation measures and records the comparison file.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let scale = scale_from_args(0.25);
    let generated = LogGenerator::new(GeneratorConfig::paper_scale(scale)).generate();
    let cluster = GeneratorConfig::paper_scale(scale).cluster;
    let text = generated.log.clone().to_text();
    let available = WorkerPool::available().threads();
    let simulate = || {
        let sim = ClusterSim::new(
            &generated.catalog,
            UserDefinedPolicy::default(),
            cluster.clone(),
            SIM_SEED,
        );
        sim.run().0
    };

    // Correctness before speed. The simulator hands its log back in the
    // order the log's stable sort gives, and repeats itself exactly.
    let mut simulated = simulate();
    let in_order = simulated.entries().to_vec();
    let mut sorted = in_order.clone();
    sorted.sort_by_key(|e| (e.time, e.machine));
    assert!(in_order == sorted, "the simulated log is out of order");
    assert!(
        simulate().to_text() == simulated.to_text(),
        "a second simulation gave other bytes"
    );
    let (sim_entries, sim_processes) = (simulated.len(), simulated.split_processes().len());
    // The codec reads back exactly what it wrote, and the split equals
    // the log's own.
    let mut parsed = RecoveryLog::from_text(&text).expect("bench log parses");
    assert!(
        parsed.to_text() == text,
        "parse then render changed the log text"
    );
    let (log, processes) = sequential_ingest(&text);
    assert!(
        split(&mut parsed) == processes,
        "ingest::split_processes diverged from RecoveryLog::split_processes"
    );
    if let Ok(path) = std::env::var("INGEST_DUMP") {
        // Dump the pooled pipeline's output at the requested worker
        // count (`--threads` / RECOVERY_THREADS), so dumps from runs at
        // different counts can be diffed for byte identity.
        let requested = threads_from_args();
        let (dump_log, dumped) = pooled_ingest(&text, requested);
        let dump = dump_processes(&dump_log, &dumped);
        match std::fs::write(&path, &dump) {
            Ok(()) => eprintln!(
                "# wrote {path} ({} processes, {requested} threads)",
                dumped.len()
            ),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }

    // The replay schedule: every process × action × occurrences 0..3,
    // over 64 processes, cached and uncached.
    let platform = SimulationPlatform::from_processes(&processes, CostEstimation::PreferActual);
    let truth: Vec<&RecoveryProcess> = processes.iter().take(64).collect();
    let cache = platform.replay_cache(&truth);
    let attempts = truth.len() * RepairAction::COUNT * 3;
    let mut cached = || {
        let mut acc = 0.0;
        for process in 0..cache.len() {
            for action in RepairAction::ALL {
                for occurrence in 0..3 {
                    acc += platform
                        .attempt_cached(&cache, process, action, occurrence)
                        .cost;
                }
            }
        }
        std::hint::black_box(acc)
    };
    let mut uncached = || {
        let mut acc = 0.0;
        for p in &truth {
            for action in RepairAction::ALL {
                for occurrence in 0..3 {
                    acc += platform.attempt(p, action, occurrence).cost;
                }
            }
        }
        std::hint::black_box(acc)
    };
    let cached_allocs = allocs_per_attempt(attempts, &mut cached);
    let uncached_allocs = allocs_per_attempt(attempts, &mut uncached);
    assert!(
        cached_allocs == 0.0,
        "cached replay hot path allocated {cached_allocs} times per attempt"
    );

    let mut render_log = parsed.clone();
    let mut rows = [
        Row::new(|| drop(std::hint::black_box(simulate()))),
        Row::new(|| {
            std::hint::black_box(RecoveryLog::from_text(&text).expect("bench log parses"));
        }),
        Row::new(|| drop(std::hint::black_box(render_log.to_text()))),
        Row::new(|| drop(std::hint::black_box(split(&mut parsed)))),
        Row::new(move || {
            cached();
        }),
        Row::new(move || {
            uncached();
        }),
    ];
    for _round in 0..ROUNDS {
        for row in &mut rows {
            row.time();
        }
    }
    let lines = text.lines().count() as f64;
    let [simulate_row, parse, render, split_row, cached_row, uncached_row] = &rows;
    let attempts = attempts as f64;
    let json = format!(
        "{{\"bench\":\"ingest\",\"scale\":{scale},\"host_cores\":{available},\
         \"rounds\":{ROUNDS},\"sample_ms\":{SAMPLE_MS},\"entries\":{},\"processes\":{},\
         \"simulate\":{},\"parse\":{},\"render\":{},\"split\":{},\
         \"replay\":{{\"attempts\":{attempts},\
         \"cached_allocs_per_attempt\":{cached_allocs:.4},\
         \"uncached_allocs_per_attempt\":{uncached_allocs:.4},\
         \"cached\":{},\"uncached\":{}}}}}\n",
        log.len(),
        processes.len(),
        simulate_row.json(&[
            ("entry", sim_entries as f64),
            ("process", sim_processes as f64)
        ]),
        parse.json(&[("line", lines)]),
        render.json(&[("line", lines)]),
        split_row.json(&[("process", processes.len() as f64)]),
        cached_row.json(&[("attempt", attempts)]),
        uncached_row.json(&[("attempt", attempts)]),
    );
    // Bench binaries run with the package directory as CWD; anchor the
    // result file at the workspace root instead.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    match std::fs::write(out, &json) {
        Ok(()) => print!("wrote BENCH_ingest.json: {json}"),
        Err(e) => eprintln!("could not write BENCH_ingest.json: {e}"),
    }
}
