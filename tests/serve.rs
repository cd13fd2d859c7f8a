//! Chaos and concurrency suite of the policy-serving plane: many
//! clients hammer `/advise` while a faulted continuous loop hot-swaps
//! the served policy underneath them. The invariants under test:
//!
//! - every response is 200, a typed 404, or a typed 503 — a client can
//!   never observe an untyped failure, a torn snapshot, or an abort;
//! - the policy versions one client observes never go backwards;
//! - a 200 `/advise` body is byte-identical to the offline
//!   `explain_policy` rendering of the same state at the same version;
//! - served snapshots are byte-identical across worker thread counts;
//! - `serve.requests == serve.served + serve.shed` at every quiescent
//!   point, under arbitrary load and shedding schedules (proptest);
//! - an interleaved publisher/reader schedule never yields a
//!   (version, hash) pair that was not published (proptest).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use recovery_core::fault::LoopFaultPlan;
use recovery_core::pipeline::{
    run_continuous_loop_controlled, ContinuousLoopConfig, LoopControls, LoopRun, WindowPublication,
};
use recovery_core::trainer::TrainerConfig;
use recovery_core::{ActionMultiset, ErrorType, RecoveryState, TrainedPolicy};
use recovery_serve::{publish_snapshot, PolicySnapshot, PolicyStore, ServeConfig, ServeDaemon};
use recovery_simlog::{
    CatalogConfig, ClusterConfig, FaultCatalog, RepairAction, SimDuration, SymptomCatalog,
};
use recovery_telemetry::{EventBus, ObserverHandle, Telemetry, DURATION_MS_BOUNDS};

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

/// The loop with telemetry and a per-window publication callback.
fn run_published(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    telemetry: &Telemetry,
    publish: &mut dyn FnMut(WindowPublication<'_>),
) -> LoopRun {
    run_continuous_loop_controlled(
        catalog,
        config,
        telemetry,
        &mut |_| ObserverHandle::none(),
        publish,
        &mut LoopControls::default(),
    )
    .expect("an in-memory loop cannot fail")
}

/// Plain blocking HTTP exchange, returning (head, body).
fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    (head.to_string(), body.to_string())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"))
}

/// Extracts the `"version":N` field from a flat JSON body, if present.
fn version_of(body: &str) -> Option<u64> {
    let rest = body.split_once("\"version\":")?.1;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// One recorded client observation during the chaos run.
struct Observation {
    symptom: Option<String>,
    head: String,
    body: String,
}

/// The tentpole chaos test: six clients hammer `/advise` and
/// `GET /policy` non-stop while a continuous loop with an injected
/// retraining panic runs beside the daemon, hot-swapping a snapshot
/// after every successfully retrained window. No client may ever see an
/// untyped error, a version rollback, or advise bytes that differ from
/// the offline explanation at the answering version.
#[test]
fn chaos_clients_survive_hot_reload_and_faulted_windows() {
    let catalog = small_catalog();
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let store = PolicyStore::new();
    let daemon = ServeDaemon::bind(
        "127.0.0.1:0",
        store.clone(),
        telemetry.clone(),
        ServeConfig::default().with_max_inflight(128),
    )
    .expect("bind daemon");
    let addr = daemon.local_addr();

    let symptoms: Vec<String> = catalog
        .symptoms()
        .iter()
        .map(|(_, name)| name.to_string())
        .take(4)
        .collect();
    assert!(!symptoms.is_empty(), "catalog has symptoms");

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..6)
        .map(|i| {
            let stop = stop.clone();
            let symptom = symptoms[i % symptoms.len()].clone();
            std::thread::spawn(move || {
                let mut observations = Vec::new();
                let mut tick = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let (symptom_sent, (head, body)) = if tick % 3 == 2 {
                        (None, get(addr, "/policy"))
                    } else {
                        (
                            Some(symptom.clone()),
                            post(addr, "/advise", &format!("{{\"symptom\":\"{symptom}\"}}")),
                        )
                    };
                    observations.push(Observation {
                        symptom: symptom_sent,
                        head,
                        body,
                    });
                    tick += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                observations
            })
        })
        .collect();

    // The loop runs in the foreground with a contained retraining panic
    // in window 1. Only non-final windows retrain, so of the four
    // windows 0 and 2 publish while window 1 keeps last-good.
    let published: Arc<Mutex<HashMap<u64, Arc<PolicySnapshot>>>> = Arc::default();
    let config = ContinuousLoopConfig {
        faults: LoopFaultPlan::none().with_retrain_panic(1),
        ..loop_config(4, 2)
    };
    let run = run_published(&catalog, &config, &telemetry, &mut |publication| {
        if let Some(policy) = publication.policy {
            let snapshot = PolicySnapshot::build(policy, catalog.symptoms(), "chaos", None);
            let arc = publish_snapshot(&store, &telemetry, snapshot);
            published.lock().unwrap().insert(arc.version(), arc);
        }
    });
    // Let the clients observe the final policy for a moment, then stop.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    let all: Vec<Vec<Observation>> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    drop(daemon);

    assert!(!run.outcomes[1].status.is_trained(), "window 1 fell back");
    let published = published.lock().unwrap();
    assert_eq!(
        published.len(),
        2,
        "windows 0 and 2 published, window 1 kept last-good"
    );

    let mut advise_hits = 0usize;
    for observations in &all {
        let mut last_version = 0u64;
        for observation in observations {
            let status = observation
                .head
                .split_whitespace()
                .nth(1)
                .expect("status code");
            match status {
                "200" | "404" => {}
                "503" => {
                    // The only allowed 5xx, and it must be typed: either
                    // overload shedding or pre-first-publish.
                    assert!(
                        observation.body.contains("\"type\":\"shed\"")
                            || observation.body.contains("\"type\":\"unavailable\""),
                        "untyped 503: {}",
                        observation.body
                    );
                }
                other => panic!("unexpected status {other}: {}", observation.body),
            }
            if let Some(version) = version_of(&observation.body) {
                assert!(
                    version >= last_version,
                    "version rolled back {last_version} -> {version}"
                );
                last_version = version;
            }
            // A successful advise must be byte-identical to the offline
            // explanation at the version it names.
            if status == "200" {
                if let Some(symptom) = &observation.symptom {
                    advise_hits += 1;
                    let version = version_of(&observation.body).expect("advise names a version");
                    let snapshot = published
                        .get(&version)
                        .unwrap_or_else(|| panic!("answered from unpublished version {version}"));
                    let state = snapshot
                        .advice(symptom, ActionMultiset::EMPTY)
                        .expect("advised state exists at this version");
                    let expected = format!(
                        "{{\"type\":\"advise\",\"version\":{},\"hash\":\"{}\",\"state\":{}}}",
                        snapshot.version(),
                        snapshot.hash(),
                        state
                    );
                    assert_eq!(observation.body, expected, "advise bytes drifted");
                }
            }
        }
    }
    assert!(advise_hits > 0, "no client ever got a successful advise");
    // The shedding ledger balances after the storm.
    let registry = telemetry.registry().unwrap();
    assert_eq!(
        registry.counter("serve.requests").get(),
        registry.counter("serve.served").get() + registry.counter("serve.shed").get()
    );
    assert_eq!(registry.counter("serve.reload").get(), 2);
}

/// Publishing from the loop must be deterministic in the worker thread
/// count: the snapshot text, hash, and every advised state's rendered
/// advice are byte-identical at 1 and 3 threads.
#[test]
fn published_snapshots_are_byte_identical_across_thread_counts() {
    let catalog = small_catalog();
    let snapshots_at = |threads: usize| {
        let store = PolicyStore::new();
        let telemetry = Telemetry::disabled();
        type Captured = (usize, u64, String, String, Vec<Option<String>>);
        let mut captured: Vec<Captured> = Vec::new();
        let _ = run_published(
            &catalog,
            &loop_config(3, threads),
            &telemetry,
            &mut |publication| {
                if let Some(policy) = publication.policy {
                    let snapshot = PolicySnapshot::build(policy, catalog.symptoms(), "test", None);
                    let arc = publish_snapshot(&store, &telemetry, snapshot);
                    let advice = catalog
                        .symptoms()
                        .iter()
                        .map(|(_, name)| arc.advice(name, ActionMultiset::EMPTY).map(str::to_owned))
                        .collect();
                    captured.push((
                        publication.window,
                        arc.version(),
                        arc.hash().to_string(),
                        arc.text().to_string(),
                        advice,
                    ));
                }
            },
        );
        captured
    };
    let one = snapshots_at(1);
    let three = snapshots_at(3);
    assert!(!one.is_empty(), "the loop published at least one snapshot");
    assert_eq!(one, three, "published bytes depend on the thread count");
}

/// During a degraded window the daemon keeps answering from the
/// last-good snapshot and `/healthz` names both the fallback reason and
/// the policy version still being served.
#[test]
fn degraded_windows_keep_last_good_policy_serving() {
    let catalog = small_catalog();
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let store = PolicyStore::new();
    let daemon = ServeDaemon::bind(
        "127.0.0.1:0",
        store.clone(),
        telemetry.clone(),
        ServeConfig::default(),
    )
    .expect("bind daemon");
    let addr = daemon.local_addr();

    // Window 2's retraining panics (windows 0 and 1 publish v1 and v2
    // first; the final window never retrains): the loop must end with
    // the window-1 policy still published and health naming the
    // fallback.
    let config = ContinuousLoopConfig {
        faults: LoopFaultPlan::none().with_retrain_panic(2),
        ..loop_config(4, 2)
    };
    let mut probed_during_fallback = false;
    let run = run_published(&catalog, &config, &telemetry, &mut |publication| {
        if let Some(policy) = publication.policy {
            let snapshot = PolicySnapshot::build(policy, catalog.symptoms(), "test", None);
            publish_snapshot(&store, &telemetry, snapshot);
        } else if publication.status.fallback_reason().is_some() {
            // Probe the live endpoints mid-run, while the loop sits in
            // its degraded window.
            let (_, health) = get(addr, "/healthz");
            assert!(health.contains("\"ok\":false"), "{health}");
            assert!(
                health.contains("\"last_fallback_reason\":\"training_panicked\""),
                "{health}"
            );
            assert!(health.contains("\"policy_version\":2"), "{health}");
            let (head, body) = get(addr, "/policy");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(body.contains("\"version\":2"), "last-good: {body}");
            probed_during_fallback = true;
        }
    });
    assert!(probed_during_fallback, "the fallback window was probed");
    assert!(!run.outcomes[2].status.is_trained());
    assert_eq!(store.version(), 2, "the degraded window kept last-good");
    // After the run the health record still names the served version and
    // the completed loop.
    let (_, health) = get(addr, "/healthz");
    assert!(health.contains("\"phase\":\"completed\""), "{health}");
    assert!(health.contains("\"policy_version\":2"), "{health}");
    assert!(health.contains("\"fallbacks\":1"), "{health}");
}

/// Request identity under concurrency: a burst of parallel clients over
/// mixed routes gets globally unique `X-Request-Id`s, each resolvable at
/// `GET /trace/<id>` to a span tree rooted at `request` with the route's
/// span nested inside, and the per-route latency histograms exactly
/// partition the aggregate `serve.request.ms` count.
#[test]
fn request_ids_are_unique_and_route_histograms_partition_the_aggregate() {
    let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
    let mut symptoms = SymptomCatalog::default();
    symptoms.intern("error:Prop");
    let store = PolicyStore::new();
    store.publish(tiny_snapshot(&symptoms, 0));
    let daemon = ServeDaemon::bind(
        "127.0.0.1:0",
        store,
        telemetry.clone(),
        ServeConfig::default().with_max_inflight(64),
    )
    .expect("bind daemon");
    let addr = daemon.local_addr();

    let request_id = |head: &str| {
        head.lines()
            .find_map(|line| line.strip_prefix("X-Request-Id: "))
            .unwrap_or_else(|| panic!("no X-Request-Id in {head}"))
            .trim()
            .to_string()
    };
    let handles: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || match i % 3 {
                0 => get(addr, "/policy"),
                1 => post(addr, "/advise", "not json"),
                _ => get(addr, "/healthz"),
            })
        })
        .collect();
    let ids: Vec<String> = handles
        .into_iter()
        .map(|h| request_id(&h.join().expect("client").0))
        .collect();
    let distinct: std::collections::BTreeSet<&String> = ids.iter().collect();
    assert_eq!(distinct.len(), ids.len(), "duplicate request ids: {ids:?}");

    // Quiesce, then balance: the three route histograms partition the
    // aggregate, and everything agrees with the serve counters.
    let registry = telemetry.registry().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while registry.counter("serve.served").get() < 12 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let route_count = |route: &str| {
        registry
            .histogram(&format!("serve.route.{route}.ms"), &DURATION_MS_BOUNDS)
            .count()
    };
    assert_eq!(route_count("policy"), 4);
    assert_eq!(route_count("advise"), 4);
    assert_eq!(route_count("healthz"), 4);
    assert_eq!(
        registry
            .histogram("serve.request.ms", &DURATION_MS_BOUNDS)
            .count(),
        12,
        "per-route histograms must partition the aggregate"
    );
    assert_eq!(registry.counter("serve.requests").get(), 12);

    // Every id resolves to the finished request's own trace, with the
    // route span nested under the request span.
    for (i, id) in ids.iter().enumerate() {
        let (head, body) = get(addr, &format!("/trace/{id}"));
        assert!(head.starts_with("HTTP/1.1 200"), "{id}: {head}");
        assert!(body.contains("\"name\":\"request\""), "{body}");
        let route = match i % 3 {
            0 => "policy",
            1 => "advise",
            _ => "healthz",
        };
        assert!(
            body.contains(&format!("\"name\":\"{route}\"")),
            "{id} missing nested {route} span: {body}"
        );
    }
}

/// A tiny distinct snapshot per publish: one Q entry whose value (and
/// therefore the rendered text and hash) encodes `index`.
fn tiny_snapshot(symptoms: &SymptomCatalog, index: usize) -> PolicySnapshot {
    let mut policy = TrainedPolicy::default();
    let symptom = symptoms.iter().next().expect("interned symptom").0;
    policy.q_mut().set(
        RecoveryState::initial(ErrorType::new(symptom)),
        RepairAction::Reboot,
        1.0 + index as f64,
    );
    PolicySnapshot::build(&policy, symptoms, "prop", None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaved publishes and reads never yield a torn snapshot: every
    /// (version, hash) pair any reader observes is exactly one that was
    /// published, and versions observed by one reader never go backwards.
    #[test]
    fn interleaved_publish_and_read_is_never_torn(
        publishes in 2usize..8,
        readers in 1usize..4,
        reads_per_reader in 10usize..60,
    ) {
        let mut symptoms = SymptomCatalog::default();
        symptoms.intern("error:Prop");
        let store = PolicyStore::new();
        let published: Arc<Mutex<HashMap<u64, String>>> = Arc::default();

        let writer = {
            let store = store.clone();
            let published = published.clone();
            let symptoms = symptoms.clone();
            std::thread::spawn(move || {
                for i in 0..publishes {
                    let arc = store.publish(tiny_snapshot(&symptoms, i));
                    published.lock().unwrap().insert(arc.version(), arc.hash().to_string());
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        let reader_handles: Vec<_> = (0..readers)
            .map(|_| {
                let store = store.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..reads_per_reader {
                        if let Some(current) = store.current() {
                            seen.push((current.version(), current.hash().to_string()));
                        }
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    seen
                })
            })
            .collect();
        writer.join().expect("writer");
        let published = published.lock().unwrap();
        prop_assert_eq!(published.len(), publishes);
        for handle in reader_handles {
            let seen = handle.join().expect("reader");
            let mut last = 0u64;
            for (version, hash) in seen {
                prop_assert!(version >= last, "rollback {} -> {}", last, version);
                last = version;
                let expected = published.get(&version);
                prop_assert_eq!(
                    expected, Some(&hash),
                    "torn read: version {} paired with hash {}", version, hash
                );
            }
        }
        // Distinct publishes really had distinct hashes, so the pairing
        // assertion above had teeth.
        let distinct: std::collections::BTreeSet<&String> = published.values().collect();
        prop_assert_eq!(distinct.len(), publishes);
    }

    /// The shedding ledger balances under arbitrary load: with a slow
    /// handler and a small in-flight bound, every well-formed connection
    /// is counted exactly once as served or shed, and the typed-503 count
    /// the clients saw equals `serve.shed`.
    #[test]
    fn shed_accounting_balances_under_random_load(
        clients in 2usize..10,
        max_inflight in 1usize..4,
        delay_ms in 5u64..25,
    ) {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        let mut symptoms = SymptomCatalog::default();
        symptoms.intern("error:Prop");
        let store = PolicyStore::new();
        store.publish(tiny_snapshot(&symptoms, 0));
        let daemon = ServeDaemon::bind(
            "127.0.0.1:0",
            store,
            telemetry.clone(),
            ServeConfig::default()
                .with_max_inflight(max_inflight)
                .with_handler_delay(Duration::from_millis(delay_ms)),
        )
        .expect("bind daemon");
        let addr = daemon.local_addr();

        let handles: Vec<_> = (0..clients)
            .map(|_| std::thread::spawn(move || get(addr, "/policy")))
            .collect();
        let mut ok = 0u64;
        let mut shed = 0u64;
        for handle in handles {
            let (head, body) = handle.join().expect("client");
            if head.starts_with("HTTP/1.1 200") {
                ok += 1;
            } else {
                prop_assert!(head.starts_with("HTTP/1.1 503"), "{}", head);
                prop_assert!(body.contains("\"type\":\"shed\""), "{}", body);
                shed += 1;
            }
        }
        prop_assert_eq!(ok + shed, clients as u64);
        // Handlers decrement in-flight after the client sees the bytes;
        // wait for the ledger to go quiescent before balancing it.
        let registry = telemetry.registry().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let requests = registry.counter("serve.requests").get();
            let settled = registry.counter("serve.served").get()
                + registry.counter("serve.shed").get();
            if (requests == settled && requests == clients as u64)
                || std::time::Instant::now() > deadline
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        prop_assert_eq!(registry.counter("serve.requests").get(), clients as u64);
        prop_assert_eq!(registry.counter("serve.shed").get(), shed);
        prop_assert_eq!(
            registry.counter("serve.served").get() + registry.counter("serve.shed").get(),
            clients as u64
        );
    }
}
