//! Ingestion — the log-line codec and the split into processes — plus
//! the allocation-free replay hot path.
//!
//! Three measurements back the perf claims of the ingestion work:
//!
//! * **Codec speed.** After asserting that parsing the text and
//!   rendering it back gives the same bytes, the sequential parse
//!   (`RecoveryLog::from_text`) and the render (`RecoveryLog::to_text`)
//!   are timed per line, as `parse_ns_per_line` and
//!   `render_ns_per_line`.
//! * **Split speed.** `recovery_core::ingest::split_processes` — one
//!   sequential pass over the entries, then the `(start, machine)` sort —
//!   is asserted equal to `RecoveryLog::split_processes` and timed per
//!   extracted process, as `split_ns_per_process`.
//! * **Replay allocations.** A counting global allocator measures heap
//!   allocations per replayed attempt for the cached
//!   (`SimulationPlatform::attempt_cached`) and uncached
//!   (`SimulationPlatform::attempt`) paths; the cached path must perform
//!   none.
//!
//! In sampling mode (`cargo bench -- --bench`) the numbers are written
//! to `BENCH_ingest.json` at the workspace root. Setting
//! `INGEST_DUMP=<path>` additionally writes a deterministic rendering of
//! the processes `recovery_core::ingest::ingest` extracts with the
//! requested worker count (`RECOVERY_THREADS`), so CI can diff runs at
//! different counts: ingestion must not depend on the pool.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use recovery_bench::{scale_from_args, threads_from_args};
use recovery_core::ingest;
use recovery_core::parallel::WorkerPool;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_simlog::{GeneratorConfig, LogGenerator, RecoveryLog, RecoveryProcess, RepairAction};
use recovery_telemetry::Telemetry;

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

/// Measures allocations and wall-clock per attempt over one replay
/// schedule (every process × action × occurrences 0..3).
struct ReplayMeasure {
    attempts: u64,
    allocs_per_attempt: f64,
    ns_per_attempt: f64,
}

fn measure_replay(
    rounds: u64,
    caches_len: u64,
    mut schedule: impl FnMut() -> f64,
) -> ReplayMeasure {
    // Warm-up pass outside the counted window.
    std::hint::black_box(schedule());
    let attempts = rounds * caches_len * RepairAction::COUNT as u64 * 3;
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let mut acc = 0.0;
    for _ in 0..rounds {
        acc += schedule();
    }
    let elapsed = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    std::hint::black_box(acc);
    ReplayMeasure {
        attempts,
        allocs_per_attempt: allocs as f64 / attempts as f64,
        ns_per_attempt: elapsed.as_nanos() as f64 / attempts as f64,
    }
}

fn replay_microbench(processes: &[RecoveryProcess]) -> (ReplayMeasure, ReplayMeasure) {
    let platform = SimulationPlatform::from_processes(processes, CostEstimation::PreferActual);
    let truth: Vec<&RecoveryProcess> = processes.iter().take(64).collect();
    let cache = platform.replay_cache(&truth);
    const ROUNDS: u64 = 200;

    let cached = measure_replay(ROUNDS, cache.len() as u64, || {
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
        acc
    });
    let uncached = measure_replay(ROUNDS, truth.len() as u64, || {
        let mut acc = 0.0;
        for p in &truth {
            for action in RepairAction::ALL {
                for occurrence in 0..3 {
                    acc += platform.attempt(p, action, occurrence).cost;
                }
            }
        }
        acc
    });
    (cached, uncached)
}

fn main() {
    benches();
    // `cargo test` runs bench binaries without `--bench`; only the real
    // bench invocation measures and records the comparison file.
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let scale = scale_from_args(0.25);
    let text = sample_text(scale);
    let available = WorkerPool::available().threads();

    // Correctness before speed: the codec reads back exactly what it
    // wrote, and the split equals the log's own.
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

    let split_ns_per_process = best_of_ms(5, || {
        std::hint::black_box(split(&mut parsed));
    }) * 1e6
        / processes.len() as f64;
    let lines = text.lines().count() as f64;
    let parse_ns_per_line = best_of_ms(5, || {
        std::hint::black_box(RecoveryLog::from_text(&text).expect("bench log parses"));
    }) * 1e6
        / lines;
    let render_ns_per_line = best_of_ms(5, || {
        std::hint::black_box(parsed.to_text());
    }) * 1e6
        / lines;

    let (cached, uncached) = replay_microbench(&processes);
    assert!(
        cached.allocs_per_attempt == 0.0,
        "cached replay hot path allocated {} times per attempt",
        cached.allocs_per_attempt
    );

    let json = format!(
        "{{\"bench\":\"ingest\",\"scale\":{scale},\"entries\":{},\
         \"processes\":{},\"host_cores\":{available},\
         \"split_ns_per_process\":{split_ns_per_process:.1},\
         \"parse_ns_per_line\":{parse_ns_per_line:.1},\
         \"render_ns_per_line\":{render_ns_per_line:.1},\
         \"replay\":{{\"attempts\":{},\
         \"cached_allocs_per_attempt\":{:.4},\
         \"uncached_allocs_per_attempt\":{:.4},\
         \"cached_ns_per_attempt\":{:.1},\
         \"uncached_ns_per_attempt\":{:.1}}}}}\n",
        log.len(),
        processes.len(),
        cached.attempts,
        cached.allocs_per_attempt,
        uncached.allocs_per_attempt,
        cached.ns_per_attempt,
        uncached.ns_per_attempt,
    );
    // Bench binaries run with the package directory as CWD; anchor the
    // result file at the workspace root instead.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    match std::fs::write(out, &json) {
        Ok(()) => print!("wrote BENCH_ingest.json: {json}"),
        Err(e) => eprintln!("could not write BENCH_ingest.json: {e}"),
    }
}
