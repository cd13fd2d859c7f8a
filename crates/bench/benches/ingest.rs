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
//!   sequential pass that places each process as it opens, per process.
//! * **`replay`** — `SimulationPlatform::attempt_cached` and
//!   `SimulationPlatform::attempt`, per attempt, beside the heap
//!   allocations a counting global allocator sees per attempt.
//! * **`durable_record`** — what persisting one continuous-loop window
//!   costs, for a `paper_scale(0.1)` window simulated under the ladder:
//!   `render` (the window log's text), `checksum` (FNV-1a over it),
//!   `append_write` (opening the journal and writing the record) and
//!   `append_fsync` (the `sync_all` after it), each timed alone in the
//!   same emptied-journal append, and
//!   `checkpoint_write` (policy and checkpoint text, checksum, and the
//!   atomic write with its fsyncs and rename), per call and per byte of
//!   window text.
//!
//! Only invariants are asserted, never a time: the simulated log comes
//! back in its own stable `(time, machine)` order and a second run gives
//! the same bytes, parsing then rendering the text gives it back, the
//! split equals `RecoveryLog::split_processes`, the cached replay path
//! allocates nothing, and a journal append writes exactly
//! `journal_record_bytes`, which `scan_journal` reads back. Setting `INGEST_DUMP=<path>` additionally
//! writes a deterministic rendering of the processes
//! `recovery_core::ingest::ingest` extracts with the requested worker
//! count (`RECOVERY_THREADS`), so CI can diff runs at different counts:
//! ingestion must not depend on the pool.

use criterion::{criterion_group, Criterion};
use recovery_bench::ledger::{median_ms, row_fields, sample, Sample};
use recovery_bench::{scale_from_args, threads_from_args};
use recovery_core::durable::{
    fnv1a64, journal_record_bytes, scan_journal, write_atomic, write_journal_record, Checkpoint,
    DurableLoop, JOURNAL_FILE,
};
use recovery_core::ingest;
use recovery_core::parallel::WorkerPool;
use recovery_core::persist::policy_to_text;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_simlog::{
    ClusterSim, GeneratorConfig, LogGenerator, RecoveryLog, RecoveryProcess, RepairAction,
    UserDefinedPolicy,
};
use recovery_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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
/// the samples taken. A call returns the time of the part it times, or
/// `None` to be timed whole.
struct Row<'a> {
    run: Box<dyn FnMut() -> Option<Duration> + 'a>,
    reps: usize,
    samples: Vec<Sample>,
}

impl<'a> Row<'a> {
    /// A row timing every call of `run` whole.
    fn new(mut run: impl FnMut() + 'a) -> Self {
        Self::timing(move || {
            run();
            None
        })
    }

    /// A row timing the part of each call of `run` that `run` times
    /// itself, for work that needs untimed preparation every call. Its
    /// CPU time covers the whole calls.
    fn part(mut run: impl FnMut() -> Duration + 'a) -> Self {
        Self::timing(move || Some(run()))
    }

    /// A row repeating `run` as often as one sample of `SAMPLE_MS` needs:
    /// after a warm-up call, the repetitions grow until a sample takes
    /// that long, then are set half again past it, so that a sample
    /// slowed by the host during calibration leaves no later one short.
    fn timing(run: impl FnMut() -> Option<Duration> + 'a) -> Self {
        let mut row = Row {
            run: Box::new(run),
            reps: 1,
            samples: Vec::with_capacity(ROUNDS),
        };
        (row.run)();
        loop {
            let ms = row.sample().wall_ms;
            let aim = (row.reps as f64 * 1.5 * SAMPLE_MS / ms.max(1e-3)).ceil() as usize;
            if ms >= SAMPLE_MS {
                row.reps = row.reps.max(aim);
                return row;
            }
            row.reps = aim.max(row.reps * 2);
        }
    }

    /// One sample of `reps` calls.
    fn sample(&mut self) -> Sample {
        let (run, reps) = (&mut self.run, self.reps);
        let mut part: Option<Duration> = None;
        let mut whole = sample(|| {
            for _ in 0..reps {
                if let Some(timed) = run() {
                    *part.get_or_insert(Duration::ZERO) += timed;
                }
            }
        });
        if let Some(part) = part {
            whole.wall_ms = part.as_secs_f64() * 1e3;
        }
        whole
    }

    fn time(&mut self) {
        let sample = self.sample();
        self.samples.push(sample);
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

/// Scale of the `durable_record` rows' window.
const DURABLE_SCALE: f64 = 0.1;

/// Empties the journal at `path`, then appends one window record to it
/// as the loop does — open, write, fsync — and returns how long the
/// open and write took and how long the fsync took.
fn append(path: &Path, window_text: &str) -> (Duration, Duration) {
    File::create(path).expect("empty the journal");
    let started = Instant::now();
    let mut journal = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open the journal");
    write_journal_record(&mut journal, 0, window_text).expect("write the record");
    let written = Instant::now();
    journal.sync_all().expect("fsync the journal");
    (written - started, written.elapsed())
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

    // One loop window's durable record: its log text, the policy of
    // its retraining, and a journal append checked byte for byte.
    let window_cluster = GeneratorConfig::paper_scale(DURABLE_SCALE).cluster;
    let mut window_log = ClusterSim::new(
        &generated.catalog,
        UserDefinedPolicy::default(),
        window_cluster,
        SIM_SEED,
    )
    .run()
    .0;
    let window_processes = window_log.split_processes();
    let window = window_log.sorted();
    let window_text = window.to_text();
    let trainer = OfflineTrainer::new(&window_processes, TrainerConfig::fast());
    let (policy, _) = trainer.train(&trainer.ranking().top_k(40));
    let dir =
        std::env::temp_dir().join(format!("autorecover-bench-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable = DurableLoop::open(&dir).expect("open bench state dir");
    durable
        .append_journal(0, &window_text)
        .expect("append the window record");
    let journal_path = dir.join(JOURNAL_FILE);
    let appended = std::fs::read(&journal_path).expect("read the journal");
    assert!(
        appended == journal_record_bytes(0, &window_text),
        "the appended record is not journal_record_bytes"
    );
    let scan = scan_journal(&appended);
    assert!(
        scan.tail_error.is_none()
            && scan.records.len() == 1
            && scan.records[0].payload == window_text,
        "scan_journal did not read the appended record back"
    );
    let checkpoint = |policy_text: String| Checkpoint {
        seq: 1,
        next_window: 1,
        windows: 2,
        seed: SIM_SEED,
        journal_records: 1,
        counters: Default::default(),
        outcomes: Vec::new(),
        policy_text: Some(policy_text),
    };

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
        Row::new(|| drop(std::hint::black_box(window.to_text()))),
        Row::new(|| {
            std::hint::black_box(fnv1a64(window_text.as_bytes()));
        }),
        Row::part(|| append(&journal_path, &window_text).0),
        Row::part(|| append(&journal_path, &window_text).1),
        Row::new(|| {
            let text = checkpoint(policy_to_text(&policy, generated.catalog.symptoms())).to_text();
            write_atomic(&dir, "checkpoint-00000001.ckpt", text.as_bytes())
                .expect("write the checkpoint");
        }),
    ];
    for _round in 0..ROUNDS {
        for row in &mut rows {
            row.time();
        }
    }
    let lines = text.lines().count() as f64;
    let [simulate_row, parse, render, split_row, cached_row, uncached_row, record_render, checksum, append_write, append_fsync, checkpoint_write] =
        &rows;
    let record_bytes = window_text.len() as f64;
    let per_record = [("call", 1.0), ("byte", record_bytes)];
    let attempts = attempts as f64;
    let json = format!(
        "{{\"bench\":\"ingest\",\"scale\":{scale},\"host_cores\":{available},\
         \"rounds\":{ROUNDS},\"sample_ms\":{SAMPLE_MS},\"entries\":{},\"processes\":{},\
         \"simulate\":{},\"parse\":{},\"render\":{},\"split\":{},\
         \"replay\":{{\"attempts\":{attempts},\
         \"cached_allocs_per_attempt\":{cached_allocs:.4},\
         \"uncached_allocs_per_attempt\":{uncached_allocs:.4},\
         \"cached\":{},\"uncached\":{}}},\
         \"durable_record\":{{\"scale\":{DURABLE_SCALE},\"window_bytes\":{},\
         \"render\":{},\"checksum\":{},\"append_write\":{},\"append_fsync\":{},\
         \"checkpoint_write\":{}}}}}\n",
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
        window_text.len(),
        record_render.json(&per_record),
        checksum.json(&per_record),
        append_write.json(&per_record),
        append_fsync.json(&per_record),
        checkpoint_write.json(&per_record),
    );
    drop(rows);
    let _ = std::fs::remove_dir_all(&dir);
    // Bench binaries run with the package directory as CWD; anchor the
    // result file at the workspace root instead.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    match std::fs::write(out, &json) {
        Ok(()) => print!("wrote BENCH_ingest.json: {json}"),
        Err(e) => eprintln!("could not write BENCH_ingest.json: {e}"),
    }
}
