//! Integration tests of the live observability plane: the continuous
//! loop with an attached event bus + exposition server produces
//! byte-identical outcomes and policies, `/metrics` emits valid
//! Prometheus text, `/healthz` tracks the loop, and `/events` streams
//! the per-window summaries live.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use recovery_core::fault::LoopFaultPlan;
use recovery_core::persist::policy_to_text;
use recovery_core::pipeline::{
    run_continuous_loop_controlled, ContinuousLoopConfig, LoopControls, LoopRun,
};
use recovery_core::trainer::TrainerConfig;
use recovery_diagnostics::DiagnosticsRecorder;
use recovery_simlog::{CatalogConfig, ClusterConfig, FaultCatalog, SimDuration};
use recovery_telemetry::{flatjson, Event, EventBus, HttpServer, ObserverHandle, Telemetry};

fn small_cluster() -> ClusterConfig {
    ClusterConfig {
        machines: 60,
        horizon: SimDuration::from_days(30),
        mean_fault_interarrival: SimDuration::from_days(3),
        ..ClusterConfig::default()
    }
}

fn small_catalog() -> FaultCatalog {
    CatalogConfig::default().with_fault_types(8).generate(5)
}

fn loop_config(windows: usize, threads: usize) -> ContinuousLoopConfig {
    ContinuousLoopConfig {
        windows,
        top_k: 8,
        threads,
        trainer: TrainerConfig::fast(),
        seed: 0x0B5E,
        ..ContinuousLoopConfig::new(small_cluster())
    }
}

/// The loop with telemetry and no other seam.
fn run_loop(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    telemetry: &Telemetry,
) -> LoopRun {
    run_continuous_loop_controlled(
        catalog,
        config,
        telemetry,
        &mut |_| ObserverHandle::none(),
        &mut |_| {},
        &mut LoopControls::default(),
    )
    .expect("an in-memory loop cannot fail")
}

/// Plain blocking HTTP GET, returning (head, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    (head.to_string(), body.to_string())
}

/// The whole live plane attached — bus with a stalled subscriber, bound
/// exposition server — must not move a single byte of the loop's
/// outcomes or trained policy, at 1 worker thread and at 4.
#[test]
fn live_observability_does_not_change_loop_outcomes_or_policy() {
    let catalog = small_catalog();
    let baseline = run_loop(&catalog, &loop_config(3, 1), &Telemetry::disabled());
    let baseline_policy = baseline
        .policy
        .as_ref()
        .map(|p| policy_to_text(p, catalog.symptoms()))
        .expect("the baseline loop trains a policy");

    for threads in [1, 4] {
        let bus = EventBus::default();
        let stalled = bus.subscribe_with_capacity(1);
        let healthy = bus.subscribe();
        let telemetry = Telemetry::with_parts(None, Some(bus.clone()));
        let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
        let observed = run_loop(&catalog, &loop_config(3, threads), &telemetry);
        drop(server);

        assert_eq!(
            observed.outcomes, baseline.outcomes,
            "observed outcomes drifted at {threads} threads"
        );
        let observed_policy = observed
            .policy
            .as_ref()
            .map(|p| policy_to_text(p, catalog.symptoms()))
            .expect("the observed loop trains a policy");
        assert_eq!(
            observed_policy, baseline_policy,
            "the live plane changed policy bytes at {threads} threads"
        );
        // The plane really was live: window events flowed, the stalled
        // subscriber was forced onto the drop path, and health tracked
        // the loop to completion.
        let window_events: Vec<String> = healthy
            .drain()
            .into_iter()
            .filter(|l| l.starts_with("{\"type\":\"window\""))
            .collect();
        assert_eq!(window_events.len(), 3, "one event per window");
        for line in &window_events {
            let fields = flatjson::parse_line(line).expect("window events are flat JSON");
            let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "type",
                    "window",
                    "processes",
                    "mttr_s",
                    "learned_policy",
                    "policy_entries",
                    "status",
                    "fallback_reason",
                    "q_delta_tail",
                    "fallbacks",
                ],
                "{line}"
            );
        }
        assert!(stalled.dropped() > 0, "stalled subscriber never dropped");
        let health = telemetry.health().expect("enabled").snapshot();
        assert_eq!(health.phase, "completed");
        assert_eq!(health.last_window, Some(2));
        assert_eq!(health.fallbacks, 0);
    }
}

/// Window events must be byte-identical across thread counts — the
/// enriched fields (Q-delta tail, cumulative fallback counter) carry
/// no wall-clock and no thread-dependent state.
#[test]
fn enriched_window_events_are_byte_identical_across_thread_counts() {
    let catalog = small_catalog();
    let events_at = |threads: usize| {
        let bus = EventBus::default();
        let sub = bus.subscribe_with_capacity(4096);
        let telemetry = Telemetry::with_parts(None, Some(bus));
        let _ = run_loop(&catalog, &loop_config(3, threads), &telemetry);
        sub.drain()
            .into_iter()
            .filter(|l| l.starts_with("{\"type\":\"window\""))
            .collect::<Vec<_>>()
    };
    let one = events_at(1);
    let four = events_at(4);
    assert!(!one.is_empty());
    assert_eq!(one, four, "window event bytes depend on the thread count");
}

/// Strict line-level validation of the Prometheus text format 0.0.4:
/// `# TYPE` headers, sane metric names, parsable values, cumulative
/// histogram buckets ending in `+Inf` that equal `_count`.
fn assert_valid_prometheus(body: &str) {
    assert!(!body.trim().is_empty(), "empty /metrics body");
    let name_ok = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit())
    };
    let mut bucket_cumulative: Option<(String, u64)> = None;
    let mut last_inf: std::collections::BTreeMap<String, u64> = Default::default();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("type header has a name");
            let kind = parts.next().expect("type header has a kind");
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind {kind:?}"
            );
            assert_eq!(parts.next(), None, "trailing junk in {line:?}");
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (series, value) = line
            .rsplit_once(' ')
            .expect("sample lines are `name value`");
        let parses = value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf");
        assert!(parses, "unparsable sample value {value:?} in {line:?}");
        if let Some((name, labels)) = series.split_once('{') {
            // Only histogram buckets carry labels in our exposition.
            assert!(name.ends_with("_bucket"), "unexpected labels on {name:?}");
            assert!(name_ok(name.trim_end_matches("_bucket")));
            let le = labels
                .strip_prefix("le=\"")
                .and_then(|l| l.strip_suffix("\"}"))
                .unwrap_or_else(|| panic!("malformed bucket labels {labels:?}"));
            assert!(le.parse::<f64>().is_ok() || le == "+Inf", "bad le {le:?}");
            let count: u64 = value.parse().expect("bucket counts are integers");
            let base = name.trim_end_matches("_bucket").to_string();
            match &mut bucket_cumulative {
                Some((prev, cum)) if *prev == base => {
                    assert!(count >= *cum, "non-cumulative buckets in {line:?}");
                    *cum = count;
                }
                _ => bucket_cumulative = Some((base.clone(), count)),
            }
            if le == "+Inf" {
                last_inf.insert(base, count);
            }
        } else {
            assert!(name_ok(series), "bad series name {series:?}");
            if let Some(base) = series.strip_suffix("_count") {
                let count: u64 = value.parse().expect("_count is an integer");
                assert_eq!(
                    last_inf.get(base),
                    Some(&count),
                    "+Inf bucket disagrees with _count for {base}"
                );
            }
        }
    }
}

/// `/metrics`, `/snapshot`, and `/healthz` expose one degraded loop run:
/// valid Prometheus text with the loop histogram and fallback counters,
/// the JSON snapshot, and the last window's fallback reason.
#[test]
fn exposition_endpoints_reflect_a_degraded_loop() {
    let catalog = small_catalog();
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
    let config = ContinuousLoopConfig {
        faults: LoopFaultPlan::none().with_empty_window(2),
        ..loop_config(3, 2)
    };
    let run = run_loop(&catalog, &config, &telemetry);
    assert!(!run.outcomes[2].status.is_trained(), "window 2 fell back");

    let (head, body) = http_get(server.local_addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "wrong content type: {head}"
    );
    assert_valid_prometheus(&body);
    assert!(body.contains("autorecover_loop_fallbacks 1\n"), "{body}");
    assert!(
        body.contains("autorecover_loop_fallback_empty_window 1\n"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE autorecover_loop_window_ms histogram\n"),
        "{body}"
    );
    assert!(
        body.contains("autorecover_loop_window_ms_count 3\n"),
        "{body}"
    );

    let (_, snapshot) = http_get(server.local_addr(), "/snapshot");
    assert!(snapshot.starts_with("{\"type\":\"snapshot\""), "{snapshot}");
    assert!(snapshot.contains("\"loop.fallbacks\":1"), "{snapshot}");

    let (_, health) = http_get(server.local_addr(), "/healthz");
    assert!(health.contains("\"ok\":false"), "{health}");
    assert!(health.contains("\"phase\":\"completed\""), "{health}");
    assert!(health.contains("\"last_window\":2"), "{health}");
    assert!(
        health.contains("\"last_fallback_reason\":\"empty_window\""),
        "{health}"
    );
    assert!(health.contains("\"fallbacks\":1"), "{health}");
}

/// `/events` subscribers connected while the loop runs receive the
/// per-window summaries as they happen, then a clean end-of-stream once
/// the bus closes.
#[test]
fn events_endpoint_streams_window_summaries_live() {
    let catalog = small_catalog();
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
    let addr = server.local_addr();

    let reader = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        write!(stream, "GET /events HTTP/1.1\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("stream to EOF");
        body
    });
    // Don't start the loop until the subscriber is attached, so the
    // stream provably carries events published *after* connect.
    let bus = telemetry.bus().unwrap().clone();
    while !bus.has_subscribers() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let run = run_loop(&catalog, &loop_config(3, 2), &telemetry);
    telemetry.finish();
    bus.close();

    let body = reader.join().expect("reader thread");
    let lines: Vec<&str> = body.lines().filter(|l| l.starts_with('{')).collect();
    assert!(
        lines[0].starts_with("{\"type\":\"health\""),
        "the stream greets with health: {lines:?}"
    );
    let windows: Vec<&&str> = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"window\""))
        .collect();
    assert_eq!(windows.len(), run.outcomes.len(), "{lines:?}");
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("{\"type\":\"snapshot\"")),
        "finish() publishes the final snapshot to the bus: {lines:?}"
    );
}

/// The published-policy version a serving plane records via
/// `HealthState::set_policy_version` must survive `begin_loop` and keep
/// naming the last-good policy while a window falls back — that is what
/// lets an operator pair a degraded `/healthz` with the snapshot still
/// being served — and must advance in place when a later publish
/// recovers.
#[test]
fn healthz_keeps_last_good_policy_version_through_degraded_windows() {
    let catalog = small_catalog();
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
    let health = telemetry.health().expect("enabled");

    // Before anything was published the field is absent entirely.
    let (_, body) = http_get(server.local_addr(), "/healthz");
    assert!(!body.contains("policy_version"), "{body}");

    health.set_policy_version(3);
    let config = ContinuousLoopConfig {
        faults: LoopFaultPlan::none().with_empty_window(2),
        ..loop_config(3, 2)
    };
    let run = run_loop(&catalog, &config, &telemetry);
    assert!(!run.outcomes[2].status.is_trained(), "window 2 fell back");

    // The degraded loop reports its fallback and still names the
    // last-good version recorded before it started.
    let (_, body) = http_get(server.local_addr(), "/healthz");
    assert!(body.contains("\"ok\":false"), "{body}");
    assert!(
        body.contains("\"last_fallback_reason\":\"empty_window\""),
        "{body}"
    );
    assert!(body.contains("\"policy_version\":3"), "{body}");

    // A later publish recovers cleanly: the version advances in place.
    health.set_policy_version(4);
    let (_, body) = http_get(server.local_addr(), "/healthz");
    assert!(body.contains("\"policy_version\":4"), "{body}");
}

/// Mirror of the CLI's convergence streaming: one deterministic
/// `convergence` event per error type from a finished window's
/// recorder, every field wall-clock-free.
fn emit_convergence(telemetry: &Telemetry, window: usize, recorder: &DiagnosticsRecorder) {
    for (label, traces) in recorder.traces() {
        for trace in &traces {
            telemetry.emit(
                &Event::new("convergence")
                    .with("window", window as u64)
                    .with("error_type", label.as_str())
                    .with("verdict", trace.verdict())
                    .with("sweeps", trace.sweeps)
                    .with("converged", trace.converged)
                    .with("final_q_delta", trace.final_q_delta)
                    .with("last_calm_sweeps", trace.last_calm_sweeps)
                    .with("episodes", trace.episode_costs.episodes)
                    .with("episode_steps", trace.episode_steps)
                    .with("max_episode_steps", trace.max_episode_steps)
                    .with("processes", trace.processes)
                    .with("replay_attempts", trace.replay_attempts)
                    .with("replay_cured", trace.replay_cured)
                    .with("replay_from_log", trace.replay_from_log),
            );
        }
    }
}

/// Runs the loop with the full instrumentation the CLI attaches: a fresh
/// per-window `DiagnosticsRecorder` whose traces stream as `convergence`
/// events when each window publishes.
fn run_traced_loop(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    telemetry: &Telemetry,
) -> LoopRun {
    let slot: RefCell<Option<Arc<DiagnosticsRecorder>>> = RefCell::new(None);
    run_continuous_loop_controlled(
        catalog,
        config,
        telemetry,
        &mut |_window| {
            let recorder = DiagnosticsRecorder::new();
            let handle = recorder.handle();
            *slot.borrow_mut() = Some(recorder);
            handle
        },
        &mut |publication| {
            if let Some(recorder) = slot.borrow_mut().take() {
                emit_convergence(telemetry, publication.window, &recorder);
            }
        },
        &mut LoopControls::default(),
    )
    .expect("an in-memory loop cannot fail")
}

/// The determinism contract of the trace layer itself: the skeletons of
/// every finished span tree (names and nesting, no ids, no wall clock)
/// are byte-identical whether the loop ran on 1 worker thread or 4 —
/// worker spans carry explicit ranks, so trees are collected in rank
/// order, not arrival order.
#[test]
fn trace_tree_skeletons_are_byte_identical_across_thread_counts() {
    let catalog = small_catalog();
    let skeletons_at = |threads: usize| {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        let _ = run_loop(&catalog, &loop_config(3, threads), &telemetry);
        telemetry
            .trace_trees()
            .iter()
            .map(recovery_telemetry::TraceTree::skeleton)
            .collect::<Vec<_>>()
    };
    let one = skeletons_at(1);
    let four = skeletons_at(4);
    assert!(!one.is_empty(), "the loop finished no traces");
    assert_eq!(one, four, "trace trees depend on the thread count");
    // Process splitting is one sequential pass: its span nests nothing.
    // Retraining is cross-thread: it nests one ranked worker span per
    // error type.
    let split = one
        .iter()
        .find(|s| s.starts_with("#1 split_shards"))
        .expect("a split_shards trace");
    assert_eq!(split.lines().count(), 1, "{split}");
    let retrain = one
        .iter()
        .find(|s| s.starts_with("#1 retrain"))
        .expect("a retrain trace");
    assert!(
        retrain
            .lines()
            .any(|l| l.starts_with("  ") && l.contains("type")),
        "retrain trace has no nested per-type worker spans: {retrain}"
    );
}

/// The headline acceptance bar: a loop with the works attached — trace
/// recording, per-window diagnostics recorders, convergence events, an
/// exposition server with a live `/convergence` streamer — trains a
/// policy byte-identical to a fully disabled run, and the convergence
/// stream itself is byte-identical across thread counts.
#[test]
fn traced_streamed_loop_trains_byte_identical_policies() {
    let catalog = small_catalog();
    let baseline = run_loop(&catalog, &loop_config(3, 2), &Telemetry::disabled());
    let baseline_policy = baseline
        .policy
        .as_ref()
        .map(|p| policy_to_text(p, catalog.symptoms()))
        .expect("the baseline loop trains a policy");

    let mut convergence_streams: Vec<Vec<String>> = Vec::new();
    for threads in [1, 4] {
        let bus = EventBus::default();
        let sub = bus.subscribe_with_capacity(4096);
        let telemetry = Telemetry::with_parts(None, Some(bus.clone()));
        let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = server.local_addr();
        // A live NDJSON subscriber on /convergence for the whole run.
        let streamer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            write!(stream, "GET /convergence HTTP/1.1\r\n\r\n").unwrap();
            let mut body = String::new();
            stream.read_to_string(&mut body).expect("stream to EOF");
            body
        });
        while !bus.has_subscribers() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let run = run_traced_loop(&catalog, &loop_config(3, threads), &telemetry);
        telemetry.finish();
        bus.close();
        let observed_policy = run
            .policy
            .as_ref()
            .map(|p| policy_to_text(p, catalog.symptoms()))
            .expect("the traced loop trains a policy");
        assert_eq!(
            observed_policy, baseline_policy,
            "tracing + convergence streaming changed policy bytes at {threads} threads"
        );
        assert_eq!(run.outcomes, baseline.outcomes);

        let streamed = streamer.join().expect("streamer thread");
        let streamed_lines: Vec<&str> = streamed.lines().filter(|l| l.starts_with('{')).collect();
        assert!(!streamed_lines.is_empty(), "nothing streamed");
        assert!(
            streamed_lines
                .iter()
                .all(|l| l.starts_with("{\"type\":\"convergence\"")),
            "/convergence leaked non-convergence events: {streamed_lines:?}"
        );
        convergence_streams.push(
            sub.drain()
                .into_iter()
                .filter(|l| l.starts_with("{\"type\":\"convergence\""))
                .collect(),
        );
    }
    assert!(!convergence_streams[0].is_empty());
    assert_eq!(
        convergence_streams[0], convergence_streams[1],
        "convergence event bytes depend on the thread count"
    );
    // One event per (retraining window, error type), carrying a verdict.
    assert!(
        convergence_streams[0]
            .iter()
            .all(|l| l.contains("\"verdict\":")),
        "{:?}",
        convergence_streams[0]
    );
}

/// `/traces`, `/trace/<id>`, and `/trace/<id>/profile` expose the loop's
/// finished span trees over the exposition server, and the JSON really
/// nests (children arrays inside children arrays).
#[test]
fn trace_endpoints_expose_nested_span_trees_from_a_live_loop() {
    let catalog = small_catalog();
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
    let _ = run_loop(&catalog, &loop_config(2, 2), &telemetry);

    let (head, listing) = http_get(server.local_addr(), "/traces");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(listing.starts_with("{\"type\":\"traces\""), "{listing}");

    let (head, last) = http_get(server.local_addr(), "/trace/last");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(last.starts_with("{\"type\":\"trace_tree\""), "{last}");
    let trace_id: u64 = last
        .split_once("\"trace\":")
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("trace id in /trace/last");

    let (head, by_id) = http_get(server.local_addr(), &format!("/trace/{trace_id}"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(by_id, last, "/trace/<id> disagrees with /trace/last");
    // Find a tree with real nesting: the retrain trace has per-type
    // children, so some tree must contain a non-empty children array.
    let nested = telemetry
        .trace_trees()
        .iter()
        .map(|t| {
            let (_, body) = http_get(server.local_addr(), &format!("/trace/{}", t.trace));
            body
        })
        .find(|body| body.contains("\"children\":[{"))
        .expect("no endpoint-served tree has nested children");
    assert_eq!(
        nested.matches('{').count(),
        nested.matches('}').count(),
        "unbalanced JSON: {nested}"
    );

    let (head, profile) = http_get(server.local_addr(), &format!("/trace/{trace_id}/profile"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    assert!(profile.starts_with("trace "), "{profile}");
    assert!(profile.contains("ms"), "{profile}");

    let (head, missing) = http_get(server.local_addr(), "/trace/999999");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(missing.contains("unknown_trace"), "{missing}");
}

/// `/convergence/sse` frames the same stream as server-sent events.
#[test]
fn convergence_sse_frames_lines_as_data_events() {
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
    let addr = server.local_addr();
    let bus = telemetry.bus().unwrap().clone();
    let streamer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        write!(stream, "GET /convergence/sse HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read header line");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let mut data = String::new();
        reader.read_line(&mut data).expect("read data frame");
        (head, data)
    });
    while !bus.has_subscribers() {
        std::thread::sleep(Duration::from_millis(5));
    }
    telemetry.emit(&Event::new("window").with("window", 0u64));
    telemetry.emit(
        &Event::new("convergence")
            .with("window", 0u64)
            .with("verdict", "converged"),
    );
    bus.close();
    let (head, data) = streamer.join().expect("streamer thread");
    assert!(head.contains("text/event-stream"), "{head}");
    assert!(
        data.starts_with("data: {\"type\":\"convergence\""),
        "window event leaked into the SSE convergence stream or frame is malformed: {data}"
    );
}
