//! What `advise` and `serve_reload` share: the set-up that trains a policy
//! and publishes it behind a daemon, the registry of deployed snapshots
//! that responses are checked against, and the closed- and open-loop
//! clients. Load comes from this one process: at most [`CLIENTS`]
//! threads, each with at most one connection open.
//!
//! The traffic is assumed, not measured: the repository holds no trace of
//! a recovery controller's requests, and neither the paper nor the related
//! work gives one. [`CLIENTS`], [`OPEN_RATE`], [`SIMULATE_ONE_IN`] and the
//! one-connection-per-request pattern of [`post`] are those assumptions,
//! kept as named constants until traffic data replaces them.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use recovery_core::evaluate::{evaluate_parallel, time_ordered_split};
use recovery_core::experiment::ExperimentContext;
use recovery_core::ingest;
use recovery_core::parallel::WorkerPool;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::policy::{HybridPolicy, TrainedPolicy, UserStatePolicy};
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_core::ActionMultiset;
use recovery_diagnostics::Json;
use recovery_serve::{publish_snapshot, PolicySnapshot, PolicyStore, ServeConfig, ServeDaemon};
use recovery_simlog::{RepairAction, SymptomCatalog};
use recovery_telemetry::Telemetry;

use super::{generate_log, ms_since, Ctx, Rng, MAX_ATTEMPTS, MINP, THREADS, TOP_K, TRAIN_FRACTION};
use crate::alloc;
use crate::metrics::Outcome;
use crate::stats;

/// Closed-loop clients, and open-loop connections at a time. An
/// assumption: one controller per core of the 2-core host the baseline
/// was measured on, each waiting for advice before it acts.
const CLIENTS: usize = 2;

/// Open-loop arrival rate, requests per second. An assumption: below the
/// ≈79 req/s the closed loop reaches, so the open loop measures latency
/// at a sustainable rate rather than a growing backlog.
const OPEN_RATE: f64 = 50.0;

/// One request in this many is a `/simulate` what-if replay; the rest
/// are `/advise`. An assumption: a controller mostly asks what to do next
/// and only sometimes what a plan would cost.
const SIMULATE_ONE_IN: usize = 10;

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    Json::from(s).render()
}

/// One state a deployed snapshot advises on, ready to request.
#[derive(Debug)]
struct AdviceState {
    symptom: String,
    tried: ActionMultiset,
}

/// A published snapshot with the states it advises on.
#[derive(Debug)]
pub(super) struct Deployed {
    snapshot: Arc<PolicySnapshot>,
    states: Vec<AdviceState>,
}

impl Deployed {
    /// Lists the advised states of `snapshot`, the published form of
    /// `policy`, in the policy's deterministic state order.
    pub(super) fn new(
        snapshot: Arc<PolicySnapshot>,
        policy: &TrainedPolicy,
        symptoms: &SymptomCatalog,
    ) -> Deployed {
        let states = policy
            .q()
            .by_state()
            .into_keys()
            .filter_map(|state| {
                let symptom = symptoms.name(state.error_type().symptom())?;
                snapshot.advice(symptom, state.tried())?;
                Some(AdviceState {
                    symptom: symptom.to_string(),
                    tried: state.tried(),
                })
            })
            .collect();
        Deployed { snapshot, states }
    }

    fn version(&self) -> u64 {
        self.snapshot.version()
    }
}

/// Deployed snapshots still answerable (newest last).
const HISTORY: usize = 16;

/// The deployed snapshots by version, plus what the serving metrics need
/// to know about publication: when each version's publish began and when
/// a response first named it.
#[derive(Debug)]
pub(super) struct Registry {
    inner: Mutex<RegistryInner>,
    /// Highest version any response has named so far.
    seen: AtomicU64,
}

#[derive(Debug)]
struct RegistryInner {
    deployed: VecDeque<Arc<Deployed>>,
    /// (version, publish-callback entry) of versions being published.
    publishing: Vec<(u64, Instant)>,
    /// (phase tag, ms) from publish-callback entry to the first response
    /// naming the new version.
    lags: Vec<(u32, f64)>,
}

impl Registry {
    pub(super) fn new(first: Deployed) -> Registry {
        let seen = AtomicU64::new(first.version());
        Registry {
            inner: Mutex::new(RegistryInner {
                deployed: VecDeque::from([Arc::new(first)]),
                publishing: Vec::new(),
                lags: Vec::new(),
            }),
            seen,
        }
    }

    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner
            .lock()
            .expect("registry lock poisoned by a panicking client")
    }

    /// Notes that the publish of `version` begins now.
    pub(super) fn publishing(&self, version: u64) {
        self.lock().publishing.push((version, Instant::now()));
    }

    /// Makes a published snapshot answerable.
    pub(super) fn deploy(&self, deployed: Deployed) {
        let mut inner = self.lock();
        inner.deployed.push_back(Arc::new(deployed));
        if inner.deployed.len() > HISTORY {
            inner.deployed.pop_front();
        }
    }

    /// The newest deployed snapshot.
    pub(super) fn current(&self) -> Arc<Deployed> {
        self.lock()
            .deployed
            .back()
            .cloned()
            .expect("the registry starts with one snapshot")
    }

    /// The snapshot of `version`. A response can name a version the
    /// daemon already serves before the publish callback registered it,
    /// so a version newer than every registered one is waited for.
    fn find(&self, version: u64) -> Option<Arc<Deployed>> {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            {
                let inner = self.lock();
                if let Some(d) = inner.deployed.iter().find(|d| d.version() == version) {
                    return Some(d.clone());
                }
                let newest = inner.deployed.back().map_or(0, |d| d.version());
                if version < newest || Instant::now() > deadline {
                    return None;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Records that a correct response named `version`; the first one to
    /// name a newly published version fixes its policy lag.
    fn observed(&self, version: u64, tag: u32) {
        let previous = self.seen.fetch_max(version, Ordering::SeqCst);
        if version > previous {
            let now = Instant::now();
            let mut inner = self.lock();
            if let Some(&(_, entered)) = inner.publishing.iter().find(|(v, _)| *v == version) {
                let ms = now.duration_since(entered).as_secs_f64() * 1e3;
                inner.lags.push((tag, ms));
            }
        }
    }

    /// Policy lags observed while the phase tag satisfied `keep`.
    pub(super) fn lags(&self, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.lock()
            .lags
            .iter()
            .filter(|(tag, _)| keep(*tag))
            .map(|&(_, ms)| ms)
            .collect()
    }
}

/// A trained policy published behind a daemon: the set-up of `advise`
/// and `serve_reload`.
#[derive(Debug)]
pub(super) struct Serving {
    pub(super) store: PolicyStore,
    pub(super) registry: Registry,
    pub(super) daemon: ServeDaemon,
    /// Held-out relative cost of the served policy (hybrid with the
    /// user ladder).
    pub(super) cost_ratio: f64,
    pub(super) generate_ms: f64,
    pub(super) build_ms: f64,
    pub(super) publish_ms: f64,
    pub(super) policy_bytes: usize,
    pub(super) hash: String,
}

/// Generates a `paper_scale(advise_scale)` log, trains a selection-tree
/// policy on its first 40% of clean processes, publishes it with a replay
/// plane, and binds an untraced daemon with the default config.
pub(super) fn setup(ctx: &Ctx) -> Result<Serving, String> {
    let started = Instant::now();
    let mut log = generate_log(ctx.sizes.advise_scale, ctx.seed);
    let generate_ms = ms_since(started);
    let pool = WorkerPool::new(THREADS);
    let processes = ingest::split_processes(&mut log, &pool, &Telemetry::disabled());
    let prepared = ExperimentContext::prepare(processes, MINP, TOP_K);
    let (train, test) = time_ordered_split(&prepared.clean, TRAIN_FRACTION);
    let trainer = OfflineTrainer::new(train, TrainerConfig::default()).with_threads(THREADS);
    let (policy, _) =
        SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default()).train(&prepared.types);
    let platform = SimulationPlatform::from_processes(train, CostEstimation::AverageOnly);
    let hybrid = HybridPolicy::new(policy.clone(), UserStatePolicy::default());
    let cost_ratio = evaluate_parallel(
        &hybrid,
        &platform,
        test,
        &prepared.types,
        MAX_ATTEMPTS,
        &pool,
    )
    .overall_relative_cost();

    let t = Instant::now();
    let snapshot = PolicySnapshot::build(&policy, log.symptoms(), "setup", Some(train));
    let build_ms = ms_since(t);
    let store = PolicyStore::new();
    let t = Instant::now();
    let published = publish_snapshot(&store, &Telemetry::disabled(), snapshot);
    let publish_ms = ms_since(t);
    let policy_bytes = published.text().len();
    let hash = published.hash().to_string();
    let deployed = Deployed::new(published, &policy, log.symptoms());
    if deployed.states.is_empty() {
        return Err("the served policy advises no state".into());
    }
    let daemon = bind(&store, Telemetry::disabled())?;
    Ok(Serving {
        store,
        registry: Registry::new(deployed),
        daemon,
        cost_ratio,
        generate_ms,
        build_ms,
        publish_ms,
        policy_bytes,
        hash,
    })
}

/// A daemon over `store` on an ephemeral local port, default config.
pub(super) fn bind(store: &PolicyStore, telemetry: Telemetry) -> Result<ServeDaemon, String> {
    ServeDaemon::bind(
        "127.0.0.1:0",
        store.clone(),
        telemetry,
        ServeConfig::default(),
    )
    .map_err(|e| format!("binding a daemon: {e}"))
}

/// Records the untraced closed loop's latencies (ms) and reply rate. The
/// p99 is reported only when at least ten samples lie beyond it.
pub(super) fn report_clients(out: &mut Outcome, latencies: &[f64], rps: f64) {
    let n = latencies.len();
    out.set_median("client.advise_p50_ms", latencies, 1.0);
    if stats::tail_percentile(n) >= Some(99.0) {
        if let Some(p99) = stats::percentile(latencies, 99.0) {
            out.set("client.advise_p99_ms", p99, n);
        }
    }
    out.set("client.advise_rps", rps, n);
}

/// Records what a traced daemon's registry says about the requests it
/// served — handler time, the accept wait its clients saw on top of it
/// (`client_ms` are their latencies), requests and shed — and returns the
/// handler's mean time in ms.
pub(super) fn report_daemon(
    out: &mut Outcome,
    telemetry: &Telemetry,
    client_ms: &[f64],
) -> Option<f64> {
    let snapshot = telemetry.snapshot()?;
    for name in ["serve.requests", "serve.shed"] {
        let value = snapshot.counters.get(name).copied().unwrap_or(0);
        out.set(name, value as f64, 1);
    }
    let handler = snapshot.histograms.get("serve.request.ms")?;
    let count = handler.count as usize;
    out.set("serve.handler_ms_mean", handler.mean(), count);
    if let Some(client) = stats::mean(client_ms) {
        out.set("serve.accept_wait_ms", client - handler.mean(), count);
    }
    Some(handler.mean())
}

/// The request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Advise,
    Simulate,
}

/// One planned request, drawn from a deployed snapshot's states.
#[derive(Debug)]
struct Planned {
    kind: Kind,
    state: usize,
    actions: Vec<RepairAction>,
    body: String,
}

fn plan(rng: &mut Rng, deployed: &Deployed) -> Planned {
    let state = rng.below(deployed.states.len());
    let s = &deployed.states[state];
    let list = |actions: &[RepairAction]| {
        actions
            .iter()
            .map(|a| quote(a.as_str()))
            .collect::<Vec<_>>()
            .join(",")
    };
    if rng.below(SIMULATE_ONE_IN) == 0 {
        let n = 1 + rng.below(3);
        let actions: Vec<RepairAction> = (0..n)
            .map(|_| RepairAction::ALL[rng.below(RepairAction::ALL.len())])
            .collect();
        let body = format!(
            "{{\"symptom\":{},\"actions\":[{}]}}",
            quote(&s.symptom),
            list(&actions)
        );
        Planned {
            kind: Kind::Simulate,
            state,
            actions,
            body,
        }
    } else {
        let tried: Vec<RepairAction> = s.tried.iter().collect();
        let body = format!(
            "{{\"symptom\":{},\"tried\":[{}]}}",
            quote(&s.symptom),
            list(&tried)
        );
        Planned {
            kind: Kind::Advise,
            state,
            actions: Vec::new(),
            body,
        }
    }
}

/// An HTTP response: status code and body.
#[derive(Debug)]
struct Response {
    status: u16,
    body: String,
}

/// Per-request socket timeout: a stuck request fails instead of hanging.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One POST on a connection of its own, closed after the reply. An
/// assumption about the controller, and the only pattern the daemon
/// serves: it answers one request per connection.
fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let invalid = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(invalid)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(invalid)?;
    Ok(Response {
        status,
        body: body.to_string(),
    })
}

/// The unsigned integer after `"key":` in a flat JSON body.
fn field_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The response oracle. A response must name a version no older than
/// the client's last one and carry exactly what that version's snapshot
/// answers: for `/advise`, the pre-rendered `snapshot.advice(..)` state
/// byte for byte; for `/simulate`, a replay under the same hash. A typed
/// 404 is correct only when a snapshot published after the request was
/// planned no longer covers the state.
fn check(
    response: &Response,
    planned: &Planned,
    origin: &Deployed,
    registry: &Registry,
    last_version: &mut u64,
    tag: u32,
) -> bool {
    let Some(version) = field_u64(&response.body, "version") else {
        return false;
    };
    if version < *last_version {
        return false;
    }
    *last_version = version;
    let Some(deployed) = registry.find(version) else {
        return false;
    };
    let snapshot = &deployed.snapshot;
    let state = &origin.states[planned.state];
    let hash = format!("\"hash\":\"{}\"", snapshot.hash());
    let newer = version > origin.version();
    let ok = match planned.kind {
        Kind::Advise => match snapshot.advice(&state.symptom, state.tried) {
            Some(advice) => {
                response.status == 200
                    && response.body.starts_with("{\"type\":\"advise\"")
                    && response.body.contains(&hash)
                    && response.body.contains(&format!("\"state\":{advice}"))
            }
            None => {
                newer
                    && response.status == 404
                    && response.body.contains("\"reason\":\"unadvised_state\"")
            }
        },
        Kind::Simulate => {
            let replay = snapshot
                .replay()
                .and_then(|plane| plane.simulate(&state.symptom, &planned.actions));
            match replay {
                Some(_) => {
                    response.status == 200
                        && response.body.starts_with("{\"type\":\"simulate\"")
                        && response.body.contains(&hash)
                        && response
                            .body
                            .contains(&format!("\"symptom\":{}", quote(&state.symptom)))
                }
                None => newer && response.status == 404,
            }
        }
    };
    if ok {
        registry.observed(version, tag);
    }
    ok
}

/// Sends `planned` and checks the answer.
fn exchange(
    addr: SocketAddr,
    planned: &Planned,
    origin: &Deployed,
    registry: &Registry,
    last_version: &mut u64,
    tag: u32,
) -> bool {
    let path = match planned.kind {
        Kind::Advise => "/advise",
        Kind::Simulate => "/simulate",
    };
    match post(addr, path, &planned.body) {
        Ok(response) => check(&response, planned, origin, registry, last_version, tag),
        Err(_) => false,
    }
}

/// Where closed-loop clients send, switchable between phases: the daemon
/// index and a tag recorded with every sample.
#[derive(Debug)]
pub(super) struct Target {
    addrs: Vec<SocketAddr>,
    daemon: AtomicUsize,
    tag: AtomicU32,
    /// Correct responses so far, across clients.
    completed: AtomicU64,
}

impl Target {
    pub(super) fn new(addrs: Vec<SocketAddr>) -> Target {
        Target {
            addrs,
            daemon: AtomicUsize::new(0),
            tag: AtomicU32::new(0),
            completed: AtomicU64::new(0),
        }
    }

    /// Sends later requests to daemon `daemon` and tags them `tag`.
    pub(super) fn switch(&self, daemon: usize, tag: u32) {
        self.daemon.store(daemon, Ordering::SeqCst);
        self.tag.store(tag, Ordering::SeqCst);
    }

    pub(super) fn completed(&self) -> u64 {
        self.completed.load(Ordering::SeqCst)
    }
}

/// One correct request's latency and the phase tag it was sent under.
#[derive(Debug, Clone, Copy)]
pub(super) struct Sample {
    pub(super) tag: u32,
    pub(super) ms: f64,
}

/// What the closed-loop clients of one session recorded.
#[derive(Debug, Default)]
pub(super) struct Clients {
    pub(super) samples: Vec<Sample>,
    pub(super) attempted: u64,
    pub(super) failed: u64,
    /// Allocations made on the client threads themselves.
    pub(super) allocs: u64,
}

impl Clients {
    /// Latencies (ms) of samples whose tag satisfies `keep`.
    pub(super) fn latencies(&self, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s.tag))
            .map(|s| s.ms)
            .collect()
    }
}

/// Runs [`CLIENTS`] closed-loop clients — each sends its next request
/// only after the previous reply — while `main` runs on this thread;
/// stops and joins them when `main` returns.
pub(super) fn with_clients<R>(
    target: &Target,
    registry: &Registry,
    seed: u64,
    main: impl FnOnce() -> R,
) -> (Clients, R) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || closed_client(target, registry, seed ^ (c << 56), stop))
            })
            .collect();
        let result = main();
        stop.store(true, Ordering::SeqCst);
        let mut merged = Clients::default();
        for handle in handles {
            let log = handle.join().expect("a closed-loop client panicked");
            merged.samples.extend(log.samples);
            merged.attempted += log.attempted;
            merged.failed += log.failed;
            merged.allocs += log.allocs;
        }
        (merged, result)
    })
}

fn closed_client(target: &Target, registry: &Registry, seed: u64, stop: &AtomicBool) -> Clients {
    let allocs_before = alloc::this_thread();
    let mut rng = Rng::new(seed);
    let mut last_version = 0;
    let mut log = Clients::default();
    while !stop.load(Ordering::SeqCst) {
        let tag = target.tag.load(Ordering::SeqCst);
        let addr = target.addrs[target.daemon.load(Ordering::SeqCst)];
        let origin = registry.current();
        let planned = plan(&mut rng, &origin);
        let started = Instant::now();
        let ok = exchange(addr, &planned, &origin, registry, &mut last_version, tag);
        let ms = ms_since(started);
        log.attempted += 1;
        if ok {
            log.samples.push(Sample { tag, ms });
            target.completed.fetch_add(1, Ordering::SeqCst);
        } else {
            log.failed += 1;
        }
    }
    log.allocs = alloc::this_thread() - allocs_before;
    log
}

/// Keeps closed-loop clients running until `budget` has passed and at
/// least `min_samples` correct responses arrived (bounded at three times
/// the budget plus a minute).
pub(super) fn closed_phase(
    target: &Target,
    registry: &Registry,
    seed: u64,
    budget: Duration,
    min_samples: u64,
) -> (Clients, Duration) {
    let before = target.completed();
    with_clients(target, registry, seed, || {
        let started = Instant::now();
        let cap = budget * 3 + Duration::from_secs(60);
        while (started.elapsed() < budget || target.completed() - before < min_samples)
            && started.elapsed() < cap
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        started.elapsed()
    })
}

/// What an open-loop run recorded.
#[derive(Debug, Default)]
pub(super) struct Open {
    /// Correct requests' latency from the time each was due, ms.
    pub(super) latencies_ms: Vec<f64>,
    /// How late each request was sent after its due time, ms.
    pub(super) late_ms: Vec<f64>,
    pub(super) attempted: u64,
    pub(super) failed: u64,
}

/// Sends requests on a fixed schedule of [`OPEN_RATE`] per second for
/// `duration`, over [`CLIENTS`] connections at a time. Request `i` is due
/// at `i / OPEN_RATE` and is drawn from a generator seeded by `seed` and
/// `i`, so the stream does not depend on thread scheduling.
pub(super) fn open_loop(
    addr: SocketAddr,
    registry: &Registry,
    duration: Duration,
    seed: u64,
) -> Open {
    let total = (OPEN_RATE * duration.as_secs_f64()).round() as usize;
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut log = Open::default();
                    let mut last_version = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= total {
                            return log;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let origin = registry.current();
                        let mut rng =
                            Rng::new(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                        let planned = plan(&mut rng, &origin);
                        let ok = exchange(addr, &planned, &origin, registry, &mut last_version, 0);
                        log.attempted += 1;
                        if ok {
                            log.latencies_ms
                                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                            log.late_ms
                                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                        } else {
                            log.failed += 1;
                        }
                    }
                })
            })
            .collect();
        let mut merged = Open::default();
        for handle in handles {
            let log = handle.join().expect("an open-loop sender panicked");
            merged.latencies_ms.extend(log.latencies_ms);
            merged.late_ms.extend(log.late_ms);
            merged.attempted += log.attempted;
            merged.failed += log.failed;
        }
        merged
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_field_is_read_from_flat_bodies() {
        let body = r#"{"type":"advise","version":12,"hash":"ab","state":{"version":3}}"#;
        assert_eq!(field_u64(body, "version"), Some(12));
        assert_eq!(field_u64(body, "missing"), None);
        assert_eq!(field_u64(r#"{"version":"x"}"#, "version"), None);
    }
}
