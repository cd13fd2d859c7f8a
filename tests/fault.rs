//! Fault-injection tests: the robustness layer exercised end to end.
//!
//! Every fault here is injected deterministically, by seed through
//! `recovery_core::fault` (faultline) or at fixed indices, so the
//! assertions can demand the strongest property the workspace offers —
//! byte-identical recovery for every thread count:
//!
//! * corrupted and truncated logs are quarantined with the correct
//!   per-kind counters, and the surviving log is identical at 1/2/4
//!   threads;
//! * strict mode stays byte-identical to the pre-fault-tolerance
//!   parser, pinned against the committed golden fixture;
//! * a panicking worker-pool item reaches the caller as the lowest
//!   panicking index's own payload, at every thread count;
//! * scripted window failures degrade the continuous loop (`FellBack`
//!   rows) without aborting it, and later windows still train.
//!
//! The CI `fault-matrix` job reruns this file under `RECOVERY_THREADS=1`
//! and `=4` and byte-compares the `FAULT_DUMP` emitted by
//! [`fault_dump_is_thread_count_invariant`].

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use recovery_core::fault::{corrupt_lines, truncate_text, CorruptionMode, LoopFaultPlan};
use recovery_core::ingest::{self, ParseErrorPolicy};
use recovery_core::parallel::WorkerPool;
use recovery_core::pipeline::{
    run_continuous_loop_controlled, ContinuousLoopConfig, FallbackReason, LoopControls,
    WindowOutcome, WindowStatus,
};
use recovery_core::trainer::TrainerConfig;
use recovery_simlog::{
    CatalogConfig, ClusterConfig, FaultCatalog, GeneratorConfig, LogGenerator, ParseLogErrorKind,
    RecoveryProcess, SimDuration, SymptomCatalog,
};
use recovery_telemetry::{ObserverHandle, Telemetry};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn sample_text() -> String {
    LogGenerator::new(GeneratorConfig::small())
        .generate()
        .log
        .to_text()
}

/// Same rendering as tests/ingest.rs: any drift in surviving entries,
/// interning, or process extraction shows up as a byte difference.
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

fn small_loop_config(windows: usize, faults: LoopFaultPlan) -> ContinuousLoopConfig {
    ContinuousLoopConfig {
        windows,
        top_k: 8,
        trainer: TrainerConfig::fast(),
        faults,
        ..ContinuousLoopConfig::new(ClusterConfig {
            machines: 60,
            horizon: SimDuration::from_days(30),
            mean_fault_interarrival: SimDuration::from_days(3),
            ..ClusterConfig::default()
        })
    }
}

/// A plain in-memory loop run: no telemetry, observers, publication or
/// durability.
fn run_loop(catalog: &FaultCatalog, config: &ContinuousLoopConfig) -> Vec<WindowOutcome> {
    run_continuous_loop_controlled(
        catalog,
        config,
        &Telemetry::disabled(),
        &mut |_| ObserverHandle::none(),
        &mut |_| {},
        &mut LoopControls::default(),
    )
    .expect("a loop without durability controls cannot fail")
    .outcomes
}

/// Strict mode is byte-identical to the pre-fault-tolerance parser:
/// `--on-parse-error fail` over the committed golden log renders exactly
/// the committed golden.processes bytes.
#[test]
fn strict_policy_reproduces_the_golden_fixture_bytes() {
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let expected = fs::read_to_string(fixture("golden.processes")).expect("committed snapshot");
    for threads in [1, 2, 4] {
        let pool = WorkerPool::new(threads);
        let outcome = ingest::ingest_with_policy(
            &text,
            ParseErrorPolicy::Fail,
            &pool,
            &Telemetry::disabled(),
        )
        .expect("golden log parses strictly");
        assert!(outcome.quarantine.is_clean());
        assert_eq!(
            render(&outcome.processes, outcome.log.symptoms()),
            expected,
            "{threads} threads drifted from the committed strict bytes"
        );
    }
}

/// Each corruption mode lands in its own per-kind quarantine counter,
/// and the surviving log is byte-identical for every thread count.
#[test]
fn corruption_modes_quarantine_with_the_right_kind() {
    let text = sample_text();
    for mode in [
        CorruptionMode::Timestamp,
        CorruptionMode::Machine,
        CorruptionMode::Structure,
        CorruptionMode::Symptom,
    ] {
        let corrupted = corrupt_lines(&text, 0xFA017, 3, mode);
        assert_eq!(corrupted.lines.len(), 3, "{mode:?}");
        let mut baseline: Option<String> = None;
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let outcome = ingest::ingest_with_policy(
                &corrupted.text,
                ParseErrorPolicy::Quarantine,
                &pool,
                &Telemetry::disabled(),
            )
            .expect("lenient ingestion never fails on bad lines");
            assert_eq!(
                outcome.quarantine.skipped(),
                3,
                "{mode:?}, {threads} threads"
            );
            assert_eq!(
                outcome.quarantine.count(mode.expected_kind()),
                3,
                "{mode:?}, {threads} threads"
            );
            let quarantined: Vec<usize> =
                outcome.quarantine.lines().iter().map(|l| l.line).collect();
            assert_eq!(quarantined, corrupted.lines, "{mode:?}, {threads} threads");
            let rendered = render(&outcome.processes, outcome.log.symptoms());
            match &baseline {
                None => baseline = Some(rendered),
                Some(expected) => {
                    assert_eq!(&rendered, expected, "{mode:?}, {threads} threads")
                }
            }
        }
    }
}

/// Skip and quarantine keep exactly the same surviving entries — the
/// only difference is whether offending lines are retained.
#[test]
fn skip_and_quarantine_agree_on_survivors() {
    let text = sample_text();
    let corrupted = corrupt_lines(&text, 7, 5, CorruptionMode::Machine);
    let pool = WorkerPool::new(2);
    let skip = ingest::ingest_with_policy(
        &corrupted.text,
        ParseErrorPolicy::Skip,
        &pool,
        &Telemetry::disabled(),
    )
    .unwrap();
    let quarantine = ingest::ingest_with_policy(
        &corrupted.text,
        ParseErrorPolicy::Quarantine,
        &pool,
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(skip.log, quarantine.log);
    assert_eq!(skip.processes, quarantine.processes);
    assert_eq!(skip.quarantine.skipped(), quarantine.quarantine.skipped());
    assert!(skip.quarantine.lines().is_empty());
    assert_eq!(quarantine.quarantine.lines().len(), 5);
}

/// A torn (truncated mid-line) log fails strict parsing but survives
/// quarantine mode, losing exactly the torn line.
#[test]
fn truncated_input_survives_quarantine_mode() {
    let text = sample_text();
    let torn = truncate_text(&text, 0x7047);
    assert_eq!(torn.lines.len(), 1);
    let pool = WorkerPool::new(2);
    let strict = ingest::ingest_with_policy(
        &torn.text,
        ParseErrorPolicy::Fail,
        &pool,
        &Telemetry::disabled(),
    );
    let err = strict.expect_err("a torn line must fail strict parsing");
    assert_eq!(err.kind(), ParseLogErrorKind::Timestamp);
    assert_eq!(err.line(), Some(torn.lines[0]));

    let lenient = ingest::ingest_with_policy(
        &torn.text,
        ParseErrorPolicy::Quarantine,
        &pool,
        &Telemetry::disabled(),
    )
    .expect("quarantine mode survives torn input");
    assert_eq!(lenient.quarantine.skipped(), 1);
    assert_eq!(
        lenient.quarantine.count(ParseLogErrorKind::Timestamp),
        1,
        "the torn tail is a broken timestamp"
    );
    assert_eq!(lenient.quarantine.lines()[0].line, torn.lines[0]);
}

/// Lines of `golden.log` corrupted for `golden.quarantine`, on top of
/// every [`QUARANTINE_STRIDE`]th line. Each of these carries the first
/// appearance of a symptom, so the fixture pins which `SymptomId` a
/// symptom gets when the line that introduces it is skipped.
const FIRST_APPEARANCE_CORRUPTIONS: [(usize, CorruptionMode); 5] = [
    (2, CorruptionMode::Timestamp),
    (108, CorruptionMode::Timestamp),
    (137, CorruptionMode::Machine),
    (140, CorruptionMode::Structure),
    (173, CorruptionMode::Symptom),
];

/// Every this-many-th line of `golden.log` is corrupted too, cycling
/// through the four modes: more lines than the quarantine buffer holds,
/// so the fixture pins `dropped` as well.
const QUARANTINE_STRIDE: usize = 50;

/// `golden.log` with the fixed corruptions of `golden.quarantine`.
fn corrupted_golden_log() -> String {
    const MODES: [CorruptionMode; 4] = [
        CorruptionMode::Timestamp,
        CorruptionMode::Machine,
        CorruptionMode::Structure,
        CorruptionMode::Symptom,
    ];
    let text = fs::read_to_string(fixture("golden.log")).expect("committed log fixture");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let strided = (QUARANTINE_STRIDE..=lines.len())
        .step_by(QUARANTINE_STRIDE)
        .map(|n| (n, MODES[(n / QUARANTINE_STRIDE) % MODES.len()]));
    for (n, mode) in FIRST_APPEARANCE_CORRUPTIONS.into_iter().chain(strided) {
        // A one-line text has exactly one eligible line to corrupt.
        lines[n - 1] = corrupt_lines(&lines[n - 1], 0, 1, mode).text;
    }
    lines.join("\n") + "\n"
}

/// Renders one lenient ingestion of the corrupted golden log: the
/// symptom catalog in id order, the quarantine report, and every
/// process with its symptoms as ids, so a shifted `SymptomId` shows up
/// as a byte difference.
fn render_quarantine(policy: ParseErrorPolicy, outcome: &ingest::IngestOutcome) -> String {
    let report = &outcome.quarantine;
    let mut out = format!(
        "policy {policy}\ncatalog {}\n",
        outcome.log.symptoms().len()
    );
    for (id, name) in outcome.log.symptoms().iter() {
        out.push_str(&format!("symptom {id} {name}\n"));
    }
    out.push_str(&format!("skipped {}\n", report.skipped()));
    for kind in ParseLogErrorKind::ALL {
        out.push_str(&format!("kind {} {}\n", kind.label(), report.count(kind)));
    }
    out.push_str(&format!("retained {}\n", report.lines().len()));
    for line in report.lines() {
        out.push_str(&format!(
            "line {} {} {:?}\n",
            line.line,
            line.kind.label(),
            line.text
        ));
    }
    out.push_str(&format!(
        "dropped {}\nprocesses {}\n",
        report.dropped(),
        outcome.processes.len()
    ));
    for p in &outcome.processes {
        let symptoms: Vec<String> = p
            .symptoms()
            .iter()
            .map(|(t, s)| format!("{s}@{t}"))
            .collect();
        let actions: Vec<String> = p
            .actions()
            .iter()
            .map(|a| format!("{}@{}", a.action, a.time))
            .collect();
        out.push_str(&format!(
            "machine {} success {} symptoms {} actions {}\n",
            p.machine().index(),
            p.success_time(),
            symptoms.join(", "),
            actions.join(", ")
        ));
    }
    out
}

/// Lenient ingestion of a corrupted golden log matches the committed
/// `golden.quarantine` bytes under both lenient policies, at 1 and 2
/// threads: surviving entries, quarantine counters and retained lines,
/// and every `SymptomId` — including the ids of symptoms whose first
/// appearance sits on a skipped line.
///
/// Any intentional change to lenient parsing must regenerate it:
///
/// ```text
/// REGEN_GOLDEN=1 cargo test -p recovery-core --test fault golden_quarantine
/// ```
#[test]
fn lenient_ingestion_matches_the_golden_quarantine_fixture() {
    let text = corrupted_golden_log();
    let path = fixture("golden.quarantine");
    for threads in [1, 2] {
        let pool = WorkerPool::new(threads);
        let mut actual = String::new();
        for policy in [ParseErrorPolicy::Skip, ParseErrorPolicy::Quarantine] {
            let outcome = ingest::ingest_with_policy(&text, policy, &pool, &Telemetry::disabled())
                .expect("lenient ingestion never fails on bad lines");
            actual.push_str(&render_quarantine(policy, &outcome));
        }
        if std::env::var_os("REGEN_GOLDEN").is_some() {
            fs::write(&path, &actual).expect("write regenerated snapshot");
            continue;
        }
        let expected = fs::read_to_string(&path).expect("committed golden.quarantine");
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
                "GOLDEN QUARANTINE DRIFT at {threads} threads — lenient ingestion no \
                 longer matches tests/fixtures/golden.quarantine.\n{first_diff}"
            );
        }
    }
}

/// A retraining panic degrades its window to `FellBack` while the loop
/// keeps running — and the *next* retraining succeeds, so later windows
/// train again.
#[test]
fn retrain_panic_degrades_one_window_and_the_loop_recovers() {
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let config = small_loop_config(4, LoopFaultPlan::none().with_retrain_panic(1));
    let outcomes = run_loop(&catalog, &config);
    assert_eq!(outcomes.len(), 4, "the loop must not abort");
    assert_eq!(outcomes[0].status, WindowStatus::Trained);
    assert_eq!(
        outcomes[1].status,
        WindowStatus::FellBack {
            reason: FallbackReason::TrainingPanicked
        }
    );
    // Window 2 runs under the last good policy (from window 0's
    // retraining) and its own retraining succeeds again.
    assert!(outcomes[2].learned_policy);
    assert_eq!(outcomes[2].status, WindowStatus::Trained);
    assert!(outcomes[3].learned_policy);
    assert!(outcomes[3].policy_entries > 0);
}

/// A simulation panic yields an empty, `FellBack` window; the loop
/// continues and keeps driving the last good policy.
#[test]
fn simulation_panic_degrades_one_window_without_aborting() {
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let config = small_loop_config(3, LoopFaultPlan::none().with_simulation_panic(1));
    let outcomes = run_loop(&catalog, &config);
    assert_eq!(outcomes.len(), 3);
    assert_eq!(
        outcomes[1].status,
        WindowStatus::FellBack {
            reason: FallbackReason::SimulationPanicked
        }
    );
    assert_eq!(outcomes[1].processes, 0);
    assert!(
        outcomes[1].learned_policy,
        "the window-0 policy stays deployed"
    );
    assert_eq!(outcomes[2].status, WindowStatus::Trained);
    assert!(outcomes[2].learned_policy);
}

/// Degraded loops are as deterministic as healthy ones: the same faulted
/// configuration yields identical outcome rows for every thread count.
#[test]
fn faulted_loop_outcomes_are_thread_count_invariant() {
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let faults = LoopFaultPlan::none()
        .with_empty_window(0)
        .with_retrain_panic(1);
    let mut baseline = None;
    for threads in [1, 2, 4] {
        let config = ContinuousLoopConfig {
            threads,
            ..small_loop_config(3, faults.clone())
        };
        let outcomes = run_loop(&catalog, &config);
        match &baseline {
            None => baseline = Some(outcomes),
            Some(expected) => assert_eq!(&outcomes, expected, "{threads} threads"),
        }
    }
}

/// Quarantine and fallback events land in the telemetry metrics and the
/// JSONL stream; the event lines are identical across thread counts.
#[test]
fn degraded_operation_is_observable_and_deterministic() {
    let text = sample_text();
    let corrupted = corrupt_lines(&text, 3, 2, CorruptionMode::Symptom);
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    type EventsAndCounters = (Vec<String>, Vec<(String, u64)>);
    let mut baseline: Option<EventsAndCounters> = None;
    for threads in [1, 4] {
        let dump = std::env::temp_dir().join(format!(
            "autorecover-fault-events-{}-{threads}.jsonl",
            std::process::id()
        ));
        let sink = recovery_telemetry::JsonlSink::to_file(&dump).unwrap();
        let telemetry = Telemetry::with_sink(sink);
        let pool = WorkerPool::new(threads);
        let outcome = ingest::ingest_with_policy(
            &corrupted.text,
            ParseErrorPolicy::Quarantine,
            &pool,
            &telemetry,
        )
        .unwrap();
        assert_eq!(outcome.quarantine.skipped(), 2);
        let config = ContinuousLoopConfig {
            threads,
            ..small_loop_config(2, LoopFaultPlan::none().with_empty_window(0))
        };
        let _ = run_continuous_loop_controlled(
            &catalog,
            &config,
            &telemetry,
            &mut |_| ObserverHandle::none(),
            &mut |_| {},
            &mut LoopControls::default(),
        );

        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counters["ingest.lines_skipped"], 2);
        assert_eq!(snap.counters["ingest.parse_error.symptom"], 2);
        assert_eq!(snap.counters["ingest.quarantined"], 2);
        assert!(snap.counters["loop.fallbacks"] >= 1);
        assert!(snap.counters.contains_key("loop.fallback.empty_window"));
        let deterministic_counters: Vec<(String, u64)> = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("ingest.") || k.starts_with("loop."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();

        telemetry.finish();
        let jsonl = fs::read_to_string(&dump).unwrap();
        fs::remove_file(&dump).ok();
        // Span events carry wall-clock durations; the fault events are
        // pure data and must be byte-stable across thread counts.
        let fault_events: Vec<String> = jsonl
            .lines()
            .filter(|l| {
                l.starts_with("{\"type\":\"quarantine\"")
                    || l.starts_with("{\"type\":\"quarantine_summary\"")
                    || l.starts_with("{\"type\":\"window\"")
            })
            .map(str::to_owned)
            .collect();
        assert!(
            fault_events.iter().any(|l| l.contains("\"quarantine\"")),
            "missing quarantine events: {fault_events:?}"
        );
        assert!(
            fault_events.iter().any(|l| l.contains("\"empty_window\"")),
            "missing fallback window event: {fault_events:?}"
        );
        match &baseline {
            None => baseline = Some((fault_events, deterministic_counters)),
            Some((expected_events, expected_counters)) => {
                assert_eq!(&fault_events, expected_events, "{threads} threads");
                assert_eq!(
                    &deterministic_counters, expected_counters,
                    "{threads} threads"
                );
            }
        }
    }
}

/// The CI fault-matrix hook: runs a fixed fault scenario at
/// `RECOVERY_THREADS` workers and, when `FAULT_DUMP` is set, writes the
/// quarantine counters and window outcomes as stable text. CI runs this
/// at 1 and 4 threads and byte-compares the dumps.
#[test]
fn fault_dump_is_thread_count_invariant() {
    let threads: usize = std::env::var("RECOVERY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let pool = WorkerPool::new(threads);
    let mut dump = String::new();

    // Scenario 1: every corruption mode through quarantine ingestion.
    let text = sample_text();
    for mode in [
        CorruptionMode::Timestamp,
        CorruptionMode::Machine,
        CorruptionMode::Structure,
        CorruptionMode::Symptom,
    ] {
        let corrupted = corrupt_lines(&text, 0xC1, 4, mode);
        let outcome = ingest::ingest_with_policy(
            &corrupted.text,
            ParseErrorPolicy::Quarantine,
            &pool,
            &Telemetry::disabled(),
        )
        .unwrap();
        dump.push_str(&format!(
            "corrupt {:?} skipped {} kind_count {} survivors {} lines {:?}\n",
            mode,
            outcome.quarantine.skipped(),
            outcome.quarantine.count(mode.expected_kind()),
            outcome.processes.len(),
            corrupted.lines
        ));
    }

    // Scenario 2: torn input.
    let torn = truncate_text(&text, 0xC2);
    let outcome = ingest::ingest_with_policy(
        &torn.text,
        ParseErrorPolicy::Quarantine,
        &pool,
        &Telemetry::disabled(),
    )
    .unwrap();
    dump.push_str(&format!(
        "truncate skipped {} timestamp_count {} survivors {}\n",
        outcome.quarantine.skipped(),
        outcome.quarantine.count(ParseLogErrorKind::Timestamp),
        outcome.processes.len()
    ));

    // Scenario 3: worker panics at indices 3, 10 and 17; the caller
    // catches index 3's payload at every thread count.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        pool.map_indexed(20, |i| {
            if i % 7 == 3 {
                panic!("faultline: worker panic at index {i}");
            }
            i * 13
        })
    }))
    .expect_err("a panicking item reaches the caller");
    dump.push_str(&format!(
        "pool panic {}\n",
        caught
            .downcast_ref::<String>()
            .map_or("non-string payload", String::as_str)
    ));

    // Scenario 4: a degraded loop.
    let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
    let config = ContinuousLoopConfig {
        threads,
        ..small_loop_config(3, LoopFaultPlan::none().with_retrain_panic(0))
    };
    for w in run_loop(&catalog, &config) {
        dump.push_str(&format!(
            "window {} processes {} mttr {} learned {} status {}\n",
            w.window,
            w.processes,
            w.mttr.as_secs(),
            w.learned_policy,
            w.status.label()
        ));
    }

    // Minimal self-checks so the test asserts even without a dump file.
    assert!(dump.contains("corrupt Timestamp skipped 4 kind_count 4"));
    assert!(dump.contains("status training_panicked"));
    assert!(dump.contains("pool panic faultline: worker panic at index 3\n"));
    if let Some(path) = std::env::var_os("FAULT_DUMP") {
        fs::write(&path, &dump).expect("write fault dump");
        eprintln!("wrote fault dump ({threads} threads) to {path:?}");
    }
}
