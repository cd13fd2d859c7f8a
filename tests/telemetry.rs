//! Integration tests of the observability layer: a full observed
//! experiment records training and replay metrics, observation never
//! changes trained policies, and the per-type training records report
//! what the paper's training loop actually does.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use recovery_core::experiment::{ExperimentContext, TestRun, TestRunConfig};
use recovery_core::persist::policy_to_text;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_diagnostics::DiagnosticsRecorder;
use recovery_simlog::{GeneratorConfig, LogGenerator, RepairAction};
use recovery_telemetry::flatjson::{get, parse_line, Field};
use recovery_telemetry::{
    Event, EventBus, JsonlSink, ObserverHandle, Telemetry, TrainingObserver, TrainingRecord,
};

fn small_context() -> ExperimentContext {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    ExperimentContext::prepare(generated.log.split_processes(), 0.1, 6)
}

fn small_config() -> TestRunConfig {
    let mut trainer = TrainerConfig::fast();
    trainer.learning.max_episodes = 2_000;
    TestRunConfig {
        top_k: 6,
        ..TestRunConfig::new(0.4)
    }
    .with_trainer(trainer)
}

#[test]
fn observed_test_run_records_training_and_replay_metrics() {
    let ctx = small_context();
    let telemetry = Telemetry::new();
    let run = TestRun::execute_in_context_observed(&small_config(), &ctx, &telemetry);
    assert!(run.train_count > 0 && run.test_count > 0);

    let snapshot = telemetry.snapshot().expect("telemetry is enabled");
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    // Sweep-level training activity was recorded.
    assert!(counter("train.sweeps") > 0, "no sweeps recorded");
    assert!(counter("train.episodes") > 0, "no episodes recorded");
    assert_eq!(counter("train.sweeps"), counter("train.episodes"));
    assert!(counter("train.types_started") as usize >= run.stats.len());
    // Per-error-type sweep counters match the run's own statistics.
    for s in &run.stats {
        let name = format!("train.sweeps.type{}", s.error_type.symptom().index());
        assert_eq!(
            counter(&name),
            s.sweeps,
            "per-type counter {name} disagrees with TypeTrainingStats"
        );
    }
    // Platform replay activity (cost-cache hits during training, misses
    // during average-only evaluation) was recorded.
    assert!(counter("platform.attempts") > 0);
    assert_eq!(
        counter("platform.attempts"),
        counter("platform.cured") + counter("platform.failed")
    );
    assert_eq!(
        counter("platform.attempts"),
        counter("platform.cost_cache.hit") + counter("platform.cost_cache.miss")
    );
    assert!(
        counter("platform.replays") > 0,
        "evaluation replays missing"
    );
    // Stage spans were timed.
    for span in ["span.train.ms", "span.evaluate.ms"] {
        let h = snapshot.histograms.get(span).unwrap_or_else(|| {
            panic!(
                "missing span histogram {span}; have {:?}",
                snapshot.histograms.keys().collect::<Vec<_>>()
            )
        });
        assert!(h.count > 0, "{span} never recorded");
    }
}

#[test]
fn observation_does_not_change_trained_policies() {
    let ctx = small_context();
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let symptoms = {
        let generated = LogGenerator::new(GeneratorConfig::small()).generate();
        generated.log.symptoms().clone()
    };

    let train_policy = |observer: ObserverHandle| {
        let trainer = OfflineTrainer::new(train, TrainerConfig::fast()).with_observer(observer);
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let (policy, stats) = tree.train(&ctx.types);
        (policy_to_text(&policy, &symptoms), stats)
    };
    let (unobserved, stats_a) = train_policy(Telemetry::disabled().observer_handle());
    let (observed, stats_b) = train_policy(Telemetry::new().observer_handle());
    // Diagnostics ride the same seam, fanned out next to telemetry — the
    // purity contract covers the composed handle too.
    let recorder = DiagnosticsRecorder::new();
    let telemetry = Telemetry::new();
    let (diagnosed, stats_c) = train_policy(telemetry.observer_handle().fanout(&recorder.handle()));
    assert_eq!(
        unobserved, observed,
        "attaching an observer changed the trained policy bytes"
    );
    assert_eq!(
        unobserved, diagnosed,
        "attaching a diagnostics recorder changed the trained policy bytes"
    );
    assert!(
        !recorder.traces().is_empty(),
        "the recorder saw no training while the policy was produced"
    );
    assert_eq!(stats_a.len(), stats_b.len());
    assert_eq!(stats_a.len(), stats_c.len());
    for (a, b) in stats_a.iter().zip(&stats_b) {
        assert_eq!(a.sweeps, b.sweeps);
        assert_eq!(a.converged, b.converged);
    }
}

/// The bus side of the purity contract: a deliberately stalled
/// subscriber (queue capacity 1, never drained) forces the bus onto its
/// drop path during training, and the trained policy must still be
/// byte-identical to an unobserved run — at 1 worker thread and at 4.
#[test]
fn a_stalled_bus_subscriber_drops_events_without_perturbing_training() {
    let ctx = small_context();
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let symptoms = {
        let generated = LogGenerator::new(GeneratorConfig::small()).generate();
        generated.log.symptoms().clone()
    };
    let train_with = |telemetry: &Telemetry, threads: usize| {
        let trainer = OfflineTrainer::new(train, TrainerConfig::fast())
            .with_observer(telemetry.observer_handle())
            .with_threads(threads);
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let (policy, _) = tree.train(&ctx.types);
        policy_to_text(&policy, &symptoms)
    };
    let baseline = train_with(&Telemetry::disabled(), 1);
    for threads in [1, 4] {
        let bus = EventBus::default();
        let stalled = bus.subscribe_with_capacity(1);
        let healthy = bus.subscribe();
        let telemetry = Telemetry::with_parts(None, Some(bus.clone()));
        let text = train_with(&telemetry, threads);
        telemetry.finish();
        assert_eq!(
            text, baseline,
            "a bus with a stalled subscriber changed the policy at {threads} threads"
        );
        assert!(bus.published() > 0, "training published no events");
        assert_eq!(
            stalled.lag(),
            1,
            "the stalled queue holds exactly its capacity"
        );
        assert!(
            stalled.dropped() > 0,
            "the stalled subscriber never overflowed ({} published)",
            bus.published()
        );
        assert_eq!(stalled.dropped(), bus.published() - 1);
        assert_eq!(bus.dropped(), stalled.dropped());
        // The healthy subscriber saw the whole stream, drops and all.
        assert_eq!(healthy.dropped(), 0);
        assert_eq!(healthy.drain().len() as u64, bus.published());
    }
}

/// A run that panics mid-flight must still leave complete JSONL lines:
/// unwinding drops the telemetry handle, and the sink flushes on drop.
#[test]
fn a_panicking_run_still_leaves_complete_jsonl_lines() {
    let path = std::env::temp_dir().join(format!(
        "autorecover-panic-flush-{}.jsonl",
        std::process::id()
    ));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let telemetry = Telemetry::with_sink(JsonlSink::to_file(path.to_str().unwrap()).unwrap());
        for i in 0..100u64 {
            telemetry.emit(&Event::new("tick").with("i", i));
        }
        // No finish(), no explicit flush: the lines above are sitting in
        // the BufWriter when the panic unwinds.
        panic!("injected mid-run abort");
    }));
    assert!(result.is_err(), "the run must actually panic");
    let text = std::fs::read_to_string(&path).expect("sink file exists");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 100, "every emitted line survived the panic");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with("{\"type\":\"tick\"") && line.ends_with('}'),
            "line {i} is incomplete: {line:?}"
        );
    }
}

/// Captures every `platform_replay` hook verbatim.
#[derive(Default)]
struct ReplayCapture {
    seen: Mutex<Vec<(bool, f64, bool)>>,
}

impl TrainingObserver for ReplayCapture {
    fn platform_replay(&self, cured: bool, actual_cost: f64, from_log: bool) {
        self.seen
            .lock()
            .unwrap()
            .push((cured, actual_cost, from_log));
    }
}

#[test]
fn platform_replay_forwards_the_charged_cost() {
    let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
    let processes = generated.log.split_processes();
    assert!(!processes.is_empty());

    for estimation in [CostEstimation::PreferActual, CostEstimation::AverageOnly] {
        let capture = Arc::new(ReplayCapture::default());
        let platform = SimulationPlatform::from_processes(&processes, estimation)
            .with_observer(ObserverHandle::attached(capture.clone()));
        let mut outcomes = Vec::new();
        for truth in processes.iter().take(20) {
            for action in [
                RepairAction::TryNop,
                RepairAction::Reboot,
                RepairAction::Rma,
            ] {
                outcomes.push(platform.attempt(truth, action, 0));
            }
        }
        let seen = capture.seen.lock().unwrap();
        assert_eq!(seen.len(), outcomes.len());
        for ((cured, cost, from_log), outcome) in seen.iter().zip(&outcomes) {
            assert_eq!(*cured, outcome.cured);
            assert_eq!(
                *cost, outcome.cost,
                "hook cost must be the exact charged cost"
            );
            assert!(cost.is_finite() && *cost > 0.0);
            if estimation == CostEstimation::AverageOnly {
                assert!(!from_log, "average-only mode never reads the log cost");
            }
        }
        if estimation == CostEstimation::PreferActual {
            assert!(
                seen.iter().any(|(_, _, from_log)| *from_log),
                "prefer-actual replays of logged processes must hit the log"
            );
        }
    }
}

/// Captures every finished record, with curves fine enough to keep
/// every sweep.
#[derive(Default)]
struct CapturingObserver {
    records: Mutex<Vec<TrainingRecord>>,
}

impl TrainingObserver for CapturingObserver {
    fn training_started(&self, record: &mut TrainingRecord) {
        record.keep_curves(1 << 20);
    }

    fn training_finished(&self, record: &TrainingRecord) {
        self.records.lock().unwrap().push(record.clone());
    }
}

#[test]
fn temperature_anneals_monotonically_and_sweeps_match() {
    let ctx = small_context();
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    let capture = Arc::new(CapturingObserver::default());
    let trainer = OfflineTrainer::new(train, TrainerConfig::fast())
        .with_observer(ObserverHandle::attached(capture.clone()));
    let et = ctx.types[0];
    let (_, stats) = trainer.train_type(et).expect("top type has data");

    let records = capture.records.lock().unwrap();
    assert_eq!(records.len(), 1, "one record per trained type");
    let record = &records[0];
    let temps: Vec<f64> = record
        .curves
        .as_ref()
        .expect("requested")
        .temperature
        .points()
        .iter()
        .map(|&(_, t)| t)
        .collect();
    assert_eq!(
        temps.len() as u64,
        stats.sweeps,
        "one temperature per sweep"
    );
    assert!(
        temps.windows(2).all(|w| w[1] <= w[0]),
        "the annealed temperature must be non-increasing"
    );
    assert_eq!(record.sweeps, stats.sweeps);
    assert_eq!(record.final_temperature, temps[temps.len() - 1]);
}

/// One `sweep` event without its wall clock: type, sweep, and the bits
/// of its temperature and max Q-delta.
type SweepEvent = (String, u64, u64, u64);

/// Trains the small context's types with plain Q-learning at `threads`
/// workers under a live bus, returning every `sweep` event and each
/// type's `training_finished` sweep count.
fn sweep_events(threads: usize) -> (Vec<SweepEvent>, BTreeMap<String, u64>) {
    let ctx = small_context();
    let (train, _) = recovery_core::evaluate::time_ordered_split(&ctx.clean, 0.4);
    // No type may converge before its first sampled sweep.
    let mut config = TrainerConfig::fast();
    config.learning.convergence_window = 1_200;
    let bus = EventBus::default();
    let sub = bus.subscribe();
    let telemetry = Telemetry::with_parts(None, Some(bus));
    let trainer = OfflineTrainer::new(train, config)
        .with_observer(telemetry.observer_handle())
        .with_threads(threads);
    let (_, stats) = trainer.train(&ctx.types);
    assert_eq!(stats.len(), ctx.types.len());
    let mut sweeps = Vec::new();
    let mut finished = BTreeMap::new();
    for line in sub.drain() {
        let fields = parse_line(&line).expect("events parse");
        let text = |key| {
            get(&fields, key)
                .and_then(Field::as_str)
                .unwrap()
                .to_string()
        };
        let num = |key| get(&fields, key).and_then(Field::as_f64).unwrap();
        match text("type").as_str() {
            "sweep" => sweeps.push((
                text("error_type"),
                num("sweep") as u64,
                num("temperature").to_bits(),
                num("max_q_delta").to_bits(),
            )),
            "training_finished" => {
                finished.insert(text("error_type"), num("sweeps") as u64);
            }
            _ => {}
        }
    }
    assert_eq!(sub.dropped(), 0, "the subscriber kept up");
    (sweeps, finished)
}

#[test]
fn parallel_sweep_events_stay_with_their_type() {
    let (sequential, finished) = sweep_events(1);
    let (parallel, finished_parallel) = sweep_events(4);
    assert_eq!(finished, finished_parallel);
    for events in [&sequential, &parallel] {
        let mut by_type: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for (label, sweep, _, _) in events {
            by_type.entry(label).or_default().push(*sweep);
        }
        assert_eq!(
            by_type.keys().copied().collect::<Vec<_>>(),
            finished.keys().map(String::as_str).collect::<Vec<_>>(),
            "every type emits sweep events"
        );
        for (label, axis) in &by_type {
            let expected: Vec<u64> = (1..=axis.len() as u64).map(|k| k * 1_000).collect();
            assert_eq!(axis, &expected, "{label}: sweeps out of sequence");
            assert!(
                axis.last().unwrap() <= &finished[*label],
                "{label}: a sweep past the type's last one"
            );
        }
    }
    let set = |events: &[SweepEvent]| {
        let mut events = events.to_vec();
        events.sort();
        events
    };
    assert_eq!(
        set(&sequential),
        set(&parallel),
        "the thread count changed the sweep events"
    );
}

/// Satellite of the tracing layer: `flatjson` must round-trip the exact
/// event shapes the bus now emits — `trace` trees, `access` logs with
/// hostile strings, `convergence` summaries — recovering every flat
/// field and skimming (not silently stringifying) nested values.
#[test]
fn flatjson_round_trips_the_bus_event_shapes() {
    // A finished span emits `span` then `trace`; capture the real bytes
    // off a live bus rather than hand-writing the shapes.
    let bus = EventBus::default();
    let sub = bus.subscribe();
    let telemetry = Telemetry::with_parts(None, Some(bus));
    drop(telemetry.span("stage"));
    let lines = sub.drain();
    let trace_line = lines
        .iter()
        .find(|l| l.starts_with("{\"type\":\"trace\""))
        .expect("a trace event");
    let fields = parse_line(trace_line).expect("trace event parses");
    assert_eq!(get(&fields, "type").and_then(Field::as_str), Some("trace"));
    assert_eq!(get(&fields, "trace").and_then(Field::as_f64), Some(1.0));
    assert_eq!(get(&fields, "root").and_then(Field::as_str), Some("stage"));
    assert_eq!(get(&fields, "spans").and_then(Field::as_f64), Some(1.0));
    assert!(get(&fields, "ms").and_then(Field::as_f64).is_some());

    // An access log whose strings carry every escape the emitter knows:
    // quotes, backslashes, newlines, tabs, and a control byte.
    let hostile = "/trace/a\"}{\"\\x\n\tb\u{1}";
    let access = Event::new("access")
        .with("id", "req-9")
        .with("method", "GET")
        .with("path", hostile)
        .with("route", "trace")
        .with("ms", 0.25)
        .to_json();
    let fields = parse_line(&access).expect("access event parses");
    assert_eq!(get(&fields, "type").and_then(Field::as_str), Some("access"));
    assert_eq!(get(&fields, "id").and_then(Field::as_str), Some("req-9"));
    assert_eq!(
        get(&fields, "path").and_then(Field::as_str),
        Some(hostile),
        "hostile escapes must survive the emit → parse round trip"
    );
    assert_eq!(get(&fields, "ms").and_then(Field::as_f64), Some(0.25));

    // A convergence summary: numbers (including a tiny float) and a
    // boolean round-trip exactly.
    let convergence = Event::new("convergence")
        .with("window", 2u64)
        .with("error_type", "type11")
        .with("verdict", "converged")
        .with("sweeps", 512u64)
        .with("converged", true)
        .with("final_q_delta", 0.015625)
        .to_json();
    let fields = parse_line(&convergence).expect("convergence event parses");
    assert_eq!(
        get(&fields, "error_type").and_then(Field::as_str),
        Some("type11")
    );
    assert_eq!(get(&fields, "sweeps").and_then(Field::as_f64), Some(512.0));
    assert_eq!(
        get(&fields, "converged").and_then(Field::as_bool),
        Some(true)
    );
    assert_eq!(
        get(&fields, "final_q_delta").and_then(Field::as_f64),
        Some(0.015625)
    );

    // A full trace tree (`GET /trace/<id>` body) is a *nested* document:
    // the flat parser skims the subtree as an opaque Object — every
    // typed accessor refuses it — instead of misreading its bytes.
    drop(telemetry.span("outer"));
    let tree = telemetry.last_trace().expect("a finished trace");
    let fields = parse_line(&tree.to_json()).expect("tree JSON is one object");
    let root = get(&fields, "root").expect("root field");
    assert!(matches!(root, Field::Object), "{root:?}");
    assert_eq!(root.as_str(), None);
    assert_eq!(root.as_f64(), None);
    assert_eq!(root.as_bool(), None);

    // Truncated or trailing-garbage lines (a torn tail mid-write) are
    // rejected outright, not half-parsed.
    assert!(parse_line(&access[..access.len() - 2]).is_none());
    assert!(parse_line(&format!("{access}x")).is_none());
}

/// Fuzzing of the two parsers on the live endpoints that read outside
/// bytes: the HTTP request reader both servers share, and the flat JSON
/// line parser behind `watch` and the daemon's request bodies.
mod outside_bytes {
    use std::io::Cursor;

    use proptest::prelude::*;
    use recovery_telemetry::flatjson::{parse_line, Field};
    use recovery_telemetry::serve::{read_request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
    use recovery_telemetry::{Event, HttpRequest, Value};

    /// Feeds `bytes` to the request reader; returns what it read and how
    /// many bytes it consumed.
    fn read(bytes: &[u8]) -> (Option<HttpRequest>, usize) {
        let mut cursor = Cursor::new(bytes);
        let request = read_request(&mut cursor).ok().flatten();
        (request, cursor.position() as usize)
    }

    /// A run of one byte that is never a newline.
    fn run(len: usize, byte: u8) -> Vec<u8> {
        vec![if byte == b'\n' { b' ' } else { byte }; len]
    }

    /// Request-head pieces mixed with arbitrary bytes and long runs
    /// without a newline.
    fn request_soup() -> impl Strategy<Value = Vec<u8>> {
        let piece = prop_oneof![
            Just(b"GET /metrics HTTP/1.0\r\n".to_vec()),
            Just(b"POST /advise?x=1 HTTP/1.1\r\n".to_vec()),
            Just(b"\r\n".to_vec()),
            Just(b"\n".to_vec()),
            (0usize..64).prop_map(|n| format!("Content-Length: {n}\r\n").into_bytes()),
            (0usize..2 * MAX_BODY_BYTES)
                .prop_map(|n| format!("content-length:{n}\r\n").into_bytes()),
            proptest::collection::vec(0u8..=255, 0..32),
            (1usize..4 * MAX_HEADER_BYTES, 0u8..=255).prop_map(|(len, byte)| run(len, byte)),
        ];
        proptest::collection::vec(piece, 0..8).prop_map(|pieces| pieces.concat())
    }

    fn any_char() -> impl Strategy<Value = char> {
        prop_oneof![0u32..0x80, 0x80u32..0xD800, 0xE000u32..0x11_0000]
            .prop_map(|c| char::from_u32(c).expect("a scalar value"))
    }

    fn any_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(any_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
    }

    /// An event field value and the field the parser must return for it.
    fn any_value() -> impl Strategy<Value = (Value, Field)> {
        prop_oneof![
            (0u64..=u64::MAX).prop_map(|v| (Value::U64(v), Field::Num(v as f64))),
            (i64::MIN..=i64::MAX).prop_map(|v| (Value::I64(v), Field::Num(v as f64))),
            (0u64..=u64::MAX).prop_map(|bits| {
                let v = f64::from_bits(bits);
                let field = if v.is_finite() {
                    Field::Num(v)
                } else {
                    Field::Null
                };
                (Value::F64(v), field)
            }),
            (0u8..2).prop_map(|b| (Value::Bool(b == 1), Field::Bool(b == 1))),
            any_string().prop_map(|s| (Value::Str(s.clone()), Field::Str(s))),
        ]
    }

    /// JSON-significant fragments mixed with arbitrary characters.
    fn json_soup() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            prop_oneof![
                Just("{"),
                Just("}"),
                Just("["),
                Just("]"),
                Just("\""),
                Just("\\"),
                Just(":"),
                Just(","),
                Just("\\u"),
                Just("\\ud83d"),
                Just("\\ude00"),
                Just("true"),
                Just("nul"),
                Just("-"),
                Just("0"),
                Just("1e"),
                Just("."),
                Just(" "),
            ]
            .prop_map(str::to_owned),
            any_char().prop_map(String::from),
        ];
        proptest::collection::vec(piece, 0..48).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On arbitrary bytes the reader never panics and never reads
        /// more than the head cap plus the largest body it accepts —
        /// plus nothing beyond the body of a request it returns.
        #[test]
        fn read_request_is_panic_free_and_bounded(bytes in request_soup()) {
            let (request, consumed) = read(&bytes);
            prop_assert!(consumed <= MAX_HEADER_BYTES + MAX_BODY_BYTES, "consumed {consumed}");
            if let Some(request) = request {
                prop_assert!(
                    consumed <= MAX_HEADER_BYTES + request.body.len(),
                    "consumed {consumed} for a {}-byte body",
                    request.body.len()
                );
            }
        }

        /// A line with no newline is read only up to the head cap, and a
        /// head that reaches the cap is dropped.
        #[test]
        fn read_request_caps_a_line_without_newline(
            prefix in prop_oneof![
                Just(""),
                Just("GET /metrics HTTP/1.0\r\n"),
                Just("GET /metrics HTTP/1.0\r\nHost: x\r\n"),
            ],
            len in 0usize..3 * MAX_HEADER_BYTES,
            byte in 0u8..=255,
        ) {
            let bytes = [prefix.as_bytes(), &run(len, byte)].concat();
            let (request, consumed) = read(&bytes);
            prop_assert!(consumed <= MAX_HEADER_BYTES, "consumed {consumed} of {}", bytes.len());
            if bytes.len() >= MAX_HEADER_BYTES {
                prop_assert!(request.is_none(), "a head of {} bytes was accepted", bytes.len());
            }
        }

        /// A well-formed request is read up to its head plus its declared
        /// body and no further; an over-long head or body is dropped.
        #[test]
        fn read_request_reads_the_head_and_the_declared_body_only(
            pads in 0usize..12,
            pad in 0usize..1000,
            declared in prop_oneof![0usize..200, MAX_BODY_BYTES - 1..MAX_BODY_BYTES + 2],
            delta in 0usize..3,
        ) {
            let mut head = format!("POST /advise HTTP/1.0\r\nContent-Length: {declared}\r\n");
            for _ in 0..pads {
                head.push_str(&format!("X-Pad: {}\r\n", "p".repeat(pad)));
            }
            head.push_str("\r\n");
            // One byte short of the declared body, exactly it, or one more.
            let sent = (declared + delta).saturating_sub(1);
            let body: Vec<u8> = (0..sent).map(|i| i as u8).collect();
            let (request, consumed) = read(&[head.as_bytes(), &body].concat());
            if head.len() > MAX_HEADER_BYTES {
                prop_assert!(request.is_none());
                prop_assert!(consumed <= MAX_HEADER_BYTES, "consumed {consumed}");
            } else if declared > MAX_BODY_BYTES {
                prop_assert!(request.is_none());
                prop_assert!(consumed <= head.len(), "consumed {consumed}");
            } else if sent < declared {
                prop_assert!(request.is_none());
                prop_assert!(consumed <= head.len() + declared, "consumed {consumed}");
            } else {
                let request = request.expect("a well-formed request");
                prop_assert_eq!(request.method.as_str(), "POST");
                prop_assert_eq!(request.path.as_str(), "/advise");
                prop_assert_eq!(&request.body[..], &body[..declared]);
                prop_assert_eq!(consumed, head.len() + declared);
            }
        }

        /// The flat JSON parser never panics on arbitrary text, and on
        /// a rendered event cut or spliced anywhere.
        #[test]
        fn flatjson_parse_line_is_panic_free(
            text in json_soup(),
            (kind, value) in (any_string(), any_value()),
            cut in 0usize..200,
            splice in json_soup(),
        ) {
            let _ = parse_line(&text);
            let rendered = Event::new(&kind).with("v", value.0).to_json();
            let mut at = cut.min(rendered.len());
            while !rendered.is_char_boundary(at) {
                at -= 1;
            }
            let _ = parse_line(&rendered[..at]);
            let _ = parse_line(&format!("{}{splice}{}", &rendered[..at], &rendered[at..]));
        }

        /// Every line an `Event` renders parses back to exactly its
        /// fields: the kind as `type`, then each field in order.
        #[test]
        fn flatjson_returns_exactly_the_fields_of_a_rendered_event(
            kind in any_string(),
            fields in proptest::collection::vec((any_string(), any_value()), 0..6),
        ) {
            let mut event = Event::new(&kind);
            let mut expected = vec![("type".to_owned(), Field::Str(kind.clone()))];
            for (key, (value, field)) in fields {
                event = event.with(&key, value);
                expected.push((key, field));
            }
            let line = event.to_json();
            prop_assert_eq!(parse_line(&line), Some(expected), "{}", line);
        }
    }
}
