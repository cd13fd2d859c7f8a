//! Ingestion regression tests: the parse + sharded split pipeline of
//! `recovery_core::ingest` must reproduce the sequential bytes for
//! every thread count, and a committed fixture pins the processes
//! extracted from the golden log.
//!
//! Any intentional change to parsing, symptom interning, or process
//! extraction must regenerate the snapshot:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p recovery-core --test ingest
//! ```

use std::fs;
use std::path::PathBuf;

use recovery_core::ingest;
use recovery_core::parallel::WorkerPool;
use recovery_simlog::{
    GeneratorConfig, LogGenerator, RecoveryLog, RecoveryProcess, SymptomCatalog,
};
use recovery_telemetry::Telemetry;

fn fixture(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; fixtures live at the workspace
    // root next to the integration tests.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Renders processes with symptom names resolved, one block per process.
/// Any divergence in entry order, interning order, process order, or
/// field values shows up as a byte difference.
fn render(processes: &[RecoveryProcess], symptoms: &SymptomCatalog) -> String {
    let mut out = String::new();
    for p in processes {
        out.push_str(&format!(
            "machine {} start {} success {} downtime {}\n",
            p.machine().index(),
            p.start(),
            p.success_time(),
            p.downtime()
        ));
        for &(t, s) in p.symptoms() {
            out.push_str(&format!(
                "  symptom {t} {}\n",
                symptoms.name(s).unwrap_or("?")
            ));
        }
        for a in p.actions() {
            out.push_str(&format!("  action {} {}\n", a.time, a.action));
        }
    }
    out
}

fn sequential_rendering(text: &str) -> String {
    let mut log = RecoveryLog::from_text(text).expect("log parses sequentially");
    let processes = log.split_processes();
    let rendered = render(&processes, log.symptoms());
    assert!(!rendered.is_empty(), "sequential split found no processes");
    rendered
}

/// The determinism matrix: full sharded ingestion at 1/2/4/8 threads is
/// byte-identical to the sequential `from_text` + `split_processes` path.
#[test]
fn ingestion_matrix_is_byte_identical() {
    let text = LogGenerator::new(GeneratorConfig::small())
        .generate()
        .log
        .to_text();
    let expected = sequential_rendering(&text);
    for threads in [1, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        let (log, processes) =
            ingest::ingest(&text, &pool, &Telemetry::disabled()).expect("sharded ingest");
        assert_eq!(
            render(&processes, log.symptoms()),
            expected,
            "{threads} threads drifted from the sequential ingestion"
        );
    }
}

/// The matrix again across several generator seeds: shard boundaries move
/// with the log's size and machine mix, so one log only exercises one
/// boundary layout.
#[test]
fn ingestion_matrix_holds_across_seeds() {
    for seed in [1u64, 0xBEEF, 0x2007_D50A] {
        let config = GeneratorConfig::small().with_seed(seed);
        let text = LogGenerator::new(config).generate().log.to_text();
        let expected = sequential_rendering(&text);
        for threads in [2, 8] {
            let pool = WorkerPool::new(threads);
            let (log, processes) =
                ingest::ingest(&text, &pool, &Telemetry::disabled()).expect("sharded ingest");
            assert_eq!(
                render(&processes, log.symptoms()),
                expected,
                "seed {seed:#x}, {threads} threads"
            );
        }
    }
}

/// Golden-process snapshot: the committed `golden.log` fixture, ingested
/// through the *parallel* path, must render exactly the committed
/// `golden.processes` bytes. This pins the actual values the matrix
/// tests only compare relatively.
#[test]
fn golden_log_processes_match_committed_snapshot() {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    // Two threads on purpose: the snapshot certifies the sharded path.
    let pool = WorkerPool::new(2);
    let (log, processes) =
        ingest::ingest(&text, &pool, &Telemetry::disabled()).expect("fixture log ingests");
    let actual = render(&processes, log.symptoms());
    let snapshot_path = fixture("golden.processes");

    if std::env::var_os("REGEN_GOLDEN").is_some() {
        fs::write(&snapshot_path, &actual).expect("write regenerated snapshot");
        eprintln!("regenerated {}", snapshot_path.display());
        return;
    }

    let expected = fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed snapshot {}: {e}\n\
             regenerate it with: REGEN_GOLDEN=1 cargo test -p recovery-core --test ingest",
            snapshot_path.display()
        )
    });
    if actual != expected {
        let first_diff = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or("line counts differ".to_owned(), |i| {
                format!(
                    "first differing line {}:\n  expected: {}\n  actual:   {}",
                    i + 1,
                    expected.lines().nth(i).unwrap_or(""),
                    actual.lines().nth(i).unwrap_or("")
                )
            });
        panic!(
            "GOLDEN INGESTION DRIFT — sharded ingestion of tests/fixtures/golden.log \
             no longer matches tests/fixtures/golden.processes \
             ({} expected lines, {} actual).\n{first_diff}\n\
             If this change is intentional, regenerate the snapshot and commit it:\n\
             \n    REGEN_GOLDEN=1 cargo test -p recovery-core --test ingest\n",
            expected.lines().count(),
            actual.lines().count(),
        );
    }
}

/// The telemetry spans of the ingestion phases — the one parse and the
/// sharded split — must appear in the metrics snapshot, so
/// `--metrics-out` captures ingestion like training.
#[test]
fn ingestion_phases_report_telemetry_spans() {
    let text = LogGenerator::new(GeneratorConfig::small())
        .generate()
        .log
        .to_text();
    let telemetry = Telemetry::new();
    let pool = WorkerPool::new(4);
    let _ = ingest::ingest(&text, &pool, &telemetry).expect("sharded ingest");
    let snapshot = telemetry.snapshot().expect("enabled telemetry snapshots");
    for phase in ["parse", "split_shards", "merge_processes"] {
        assert_eq!(
            snapshot.counters.get(&format!("span.{phase}.calls")),
            Some(&1),
            "ingestion phase {phase:?} should record exactly one span; counters: {:?}",
            snapshot.counters.keys().collect::<Vec<_>>()
        );
        assert!(
            snapshot
                .histograms
                .contains_key(&format!("span.{phase}.ms")),
            "missing span histogram for ingestion phase {phase:?}"
        );
    }
}
