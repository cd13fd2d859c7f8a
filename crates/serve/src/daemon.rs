//! The serving daemon: the policy routes over a [`PolicyStore`],
//! mounted on the workspace's one HTTP server
//! (`recovery_telemetry::serve::HttpServer`), which owns the listener,
//! admission, the per-connection thread and the drain.
//!
//! Routing, on top of the shared plumbing in `recovery_telemetry::serve`:
//!
//! | route              | body                                             |
//! |--------------------|--------------------------------------------------|
//! | `POST /advise`     | ranked actions for a symptom state, with version |
//! | `POST /simulate`   | what-if replay of an action sequence             |
//! | `GET /policy`      | version / hash / source metadata                 |
//! | `GET /policy/text` | the canonical `policy_to_text` rendering         |
//! | `GET /metrics` …   | the shared telemetry routes, including           |
//! |                    | `/trace/<id>` span trees and the `/convergence`  |
//! |                    | stream (see `recovery_telemetry::serve`)         |
//!
//! **Request identity**: every handled request runs inside a `request`
//! span, which roots a trace in the telemetry handle's trace ring. The
//! request id is `req-<trace id>` (or a daemon-local counter when
//! telemetry is disabled); it is echoed on every response as
//! `X-Request-Id`, resolvable at `GET /trace/req-<id>` once the request
//! finished, and carried by the per-request `access` event on the bus.
//! Latency lands in the aggregate `serve.request.ms` histogram and the
//! per-route `serve.route.<route>.ms` one.
//!
//! **Shedding contract**: each accepted connection either (a) is shed
//! by the server *before* any work with a typed `503 {"type":"shed"}`
//! body when [`ServeConfig::max_inflight`] handlers are already running,
//! (b) is rejected with a typed `503 {"type":"draining"}` body while the
//! daemon is draining for shutdown, or (c) gets exactly one response
//! from its handler. All paths increment `serve.requests`; paths (a)
//! and (b) increment `serve.shed`, path (c) increments `serve.served` —
//! so `serve.requests == serve.served + serve.shed` holds once a client
//! has read its response: the handler records a request before it
//! closes the connection, so end-of-file arrives after the accounting.
//! Unparsable connections (garbage bytes, oversized bodies, requests not
//! complete within `REQUEST_TIMEOUT` of the accept) are dropped without
//! counting: they never became requests.
//!
//! **Graceful shutdown**: [`ServeDaemon::drain`] quiesces the daemon —
//! new connections get the typed draining 503, long-lived streams see
//! the quiesce flag and finish, and the call returns once every
//! in-flight handler completed (or the timeout passed), incrementing
//! `serve.drained`. Dropping the daemon still works (it hard-stops),
//! but a drained shutdown never cuts a response mid-flight.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use recovery_core::ActionMultiset;
use recovery_diagnostics::Json;
use recovery_simlog::RepairAction;
use recovery_telemetry::flatjson::{self, Field};
use recovery_telemetry::serve::{respond_telemetry, write_response_with, MAX_INFLIGHT};
use recovery_telemetry::{Event, HttpRequest, HttpServer, Mount, Telemetry, DURATION_MS_BOUNDS};

use crate::snapshot::PolicySnapshot;
use crate::store::PolicyStore;

/// Tunables of one [`ServeDaemon`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrently running connection handlers; connections
    /// beyond this are shed with a typed 503 instead of queueing.
    pub max_inflight: usize,
    /// Artificial per-request handler delay, a test-only pacing knob
    /// that makes shedding reproducible under load. Zero in production.
    pub handler_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_inflight: MAX_INFLIGHT,
            handler_delay: Duration::ZERO,
        }
    }
}

impl ServeConfig {
    /// The default config with a different in-flight bound.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// The config with an artificial handler delay (tests only).
    pub fn with_handler_delay(mut self, delay: Duration) -> Self {
        self.handler_delay = delay;
        self
    }
}

/// A running policy-serving daemon bound to one local address.
///
/// Dropping the daemon signals shutdown and joins the accept thread;
/// in-flight handlers finish on their own (the long-lived `/events`
/// stream re-checks the shutdown flag a few times per second).
#[derive(Debug)]
pub struct ServeDaemon {
    server: HttpServer,
    telemetry: Telemetry,
}

impl ServeDaemon {
    /// Binds `addr` (port `0` for ephemeral) and starts serving `store`
    /// and the telemetry views of `telemetry`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be
    /// bound.
    pub fn bind(
        addr: &str,
        store: PolicyStore,
        telemetry: Telemetry,
        config: ServeConfig,
    ) -> io::Result<ServeDaemon> {
        let routes = PolicyRoutes {
            store,
            telemetry: telemetry.clone(),
            delay: config.handler_delay,
            fallback_ids: AtomicU64::new(0),
        };
        Ok(ServeDaemon {
            server: HttpServer::bind_mount(addr, config.max_inflight, routes)?,
            telemetry,
        })
    }

    /// The actually bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Connection handlers currently running.
    pub fn inflight(&self) -> usize {
        self.server.inflight()
    }

    /// [`HttpServer::drain`], counted in `serve.drained` exactly once per
    /// call.
    pub fn drain(&self, timeout: Duration) -> bool {
        let drained = self.server.drain(timeout);
        counter_inc(&self.telemetry, "serve.drained");
        drained
    }
}

fn counter_inc(telemetry: &Telemetry, name: &str) {
    if let Some(registry) = telemetry.registry() {
        registry.counter(name).inc();
    }
}

/// The daemon's mount: the policy routes beside the telemetry views,
/// each request with its span, id, ledger entry, latency and `access`
/// event.
struct PolicyRoutes {
    store: PolicyStore,
    telemetry: Telemetry,
    delay: Duration,
    /// Request ids for a telemetry-disabled daemon (with telemetry on,
    /// ids come from the trace ids, which are already unique per
    /// handle).
    fallback_ids: AtomicU64,
}

impl Mount for PolicyRoutes {
    fn rejected(&self) {
        counter_inc(&self.telemetry, "serve.requests");
        counter_inc(&self.telemetry, "serve.shed");
    }

    fn respond(
        &self,
        request: &HttpRequest,
        stream: TcpStream,
        quiesce: &AtomicBool,
    ) -> io::Result<()> {
        let telemetry = &self.telemetry;
        counter_inc(telemetry, "serve.requests");
        let started = Instant::now();
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let label = route_label(request);
        // The request span roots this request's trace: the id it
        // allocates IS the request id, so `X-Request-Id: req-<n>` and
        // `GET /trace/req-<n>` (after the response) name the same tree.
        let span = telemetry.span("request");
        let rid = match span.trace_id() {
            Some(trace) => format!("req-{trace}"),
            None => format!(
                "req-{}",
                self.fallback_ids.fetch_add(1, Ordering::Relaxed) + 1
            ),
        };
        // `route` writes on a clone: this handle keeps the connection
        // open until the accounting below is recorded.
        let result = route(
            request,
            stream.try_clone()?,
            &self.store,
            telemetry,
            quiesce,
            label,
            &rid,
        );
        drop(span);
        counter_inc(telemetry, "serve.served");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if let Some(registry) = telemetry.registry() {
            // The aggregate histogram stays (dashboard continuity); the
            // per-route one splits it.
            registry
                .histogram("serve.request.ms", &DURATION_MS_BOUNDS)
                .record(ms);
            registry
                .histogram(&format!("serve.route.{label}.ms"), &DURATION_MS_BOUNDS)
                .record(ms);
        }
        telemetry.emit(
            &Event::new("access")
                .with("id", rid.as_str())
                .with("method", request.method.as_str())
                .with("path", request.path.as_str())
                .with("route", label)
                .with("ms", ms),
        );
        result
    }
}

/// The stable label a request is accounted under: the per-route latency
/// histogram is `serve.route.<label>.ms` and the `access` event carries
/// the same label. Parameterized paths collapse (`/trace/<id>` and
/// `/trace/<id>/profile` are all `trace`) so the metric namespace stays
/// bounded no matter what ids clients ask for.
fn route_label(request: &HttpRequest) -> &'static str {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/advise") => "advise",
        ("POST", "/simulate") => "simulate",
        ("GET", "/policy") => "policy",
        ("GET", "/policy/text") => "policy_text",
        ("GET", "/metrics") => "metrics",
        ("GET", "/snapshot") => "snapshot",
        ("GET", "/healthz") => "healthz",
        ("GET", "/events") => "events",
        ("GET", "/convergence") | ("GET", "/convergence/sse") => "convergence",
        ("GET", "/traces") => "traces",
        ("GET", path) if path.starts_with("/trace/") => "trace",
        _ => "unknown",
    }
}

#[allow(clippy::too_many_arguments)]
fn route(
    request: &HttpRequest,
    mut stream: TcpStream,
    store: &PolicyStore,
    telemetry: &Telemetry,
    stop: &AtomicBool,
    label: &str,
    rid: &str,
) -> io::Result<()> {
    // Each handler runs inside a child span named by the route label, so
    // the request's trace tree reads `request` → `<route>`.
    let _route_span = telemetry.span(label);
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/advise") => advise(request, &mut stream, store, rid),
        ("POST", "/simulate") => simulate(request, &mut stream, store, rid),
        ("GET", "/policy") => policy_meta(&mut stream, store, rid),
        ("GET", "/policy/text") => policy_text(&mut stream, store, rid),
        _ => match respond_telemetry(request, stream.try_clone()?, telemetry, stop, Some(rid)) {
            Some(result) => result,
            None => typed_error(&mut stream, "404 Not Found", "unknown_route", None, rid),
        },
    }
}

/// One typed JSON error response: `{"type":"error","reason":...}` plus
/// the answering policy version when one is published.
fn typed_error(
    stream: &mut TcpStream,
    status: &str,
    reason: &str,
    snapshot: Option<&PolicySnapshot>,
    rid: &str,
) -> io::Result<()> {
    let mut doc = Json::obj().field("type", "error").field("reason", reason);
    if let Some(snapshot) = snapshot {
        doc = doc.field("version", snapshot.version());
    }
    write_response_with(
        stream,
        status,
        "application/json",
        &doc.render(),
        &[("X-Request-Id", rid)],
    )
}

/// A typed `503 {"type":"unavailable"}` — the daemon is up but cannot
/// answer this request yet (distinct from overload shedding).
fn unavailable(stream: &mut TcpStream, reason: &str, rid: &str) -> io::Result<()> {
    write_response_with(
        stream,
        "503 Service Unavailable",
        "application/json",
        &Json::obj()
            .field("type", "unavailable")
            .field("reason", reason)
            .render(),
        &[("X-Request-Id", rid)],
    )
}

fn bad_request(stream: &mut TcpStream, rid: &str) -> io::Result<()> {
    typed_error(stream, "400 Bad Request", "bad_request", None, rid)
}

/// Parses an optional JSON list of action tokens (`["REBOOT", ...]`).
fn parse_actions(field: Option<&Field>) -> Result<Vec<RepairAction>, ()> {
    match field {
        None => Ok(Vec::new()),
        Some(Field::List(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .ok_or(())
                    .and_then(|s| RepairAction::from_str(s).map_err(|_| ()))
            })
            .collect(),
        Some(_) => Err(()),
    }
}

fn advise(
    request: &HttpRequest,
    stream: &mut TcpStream,
    store: &PolicyStore,
    rid: &str,
) -> io::Result<()> {
    let Some(current) = store.current() else {
        return unavailable(stream, "no_policy", rid);
    };
    let parsed = request
        .body_text()
        .and_then(|body| flatjson::parse_line(body.trim()));
    let Some(fields) = parsed else {
        return bad_request(stream, rid);
    };
    let Some(symptom) = flatjson::get(&fields, "symptom").and_then(Field::as_str) else {
        return bad_request(stream, rid);
    };
    let Ok(tried) = parse_actions(flatjson::get(&fields, "tried")) else {
        return bad_request(stream, rid);
    };
    let tried = ActionMultiset::from_actions(tried);
    if !current.knows_symptom(symptom) {
        return typed_error(
            stream,
            "404 Not Found",
            "unknown_symptom",
            Some(&current),
            rid,
        );
    }
    match current.advice(symptom, tried) {
        Some(state_json) => {
            // The `state` subtree is the pre-rendered offline explanation,
            // spliced in verbatim: byte-identity with `explain_policy` is
            // structural, not re-derived per request.
            let body = format!(
                "{{\"type\":\"advise\",\"version\":{},\"hash\":\"{}\",\"state\":{}}}",
                current.version(),
                current.hash(),
                state_json
            );
            write_response_with(
                stream,
                "200 OK",
                "application/json",
                &body,
                &[("X-Request-Id", rid)],
            )
        }
        None => typed_error(
            stream,
            "404 Not Found",
            "unadvised_state",
            Some(&current),
            rid,
        ),
    }
}

fn simulate(
    request: &HttpRequest,
    stream: &mut TcpStream,
    store: &PolicyStore,
    rid: &str,
) -> io::Result<()> {
    let Some(current) = store.current() else {
        return unavailable(stream, "no_policy", rid);
    };
    let parsed = request
        .body_text()
        .and_then(|body| flatjson::parse_line(body.trim()));
    let Some(fields) = parsed else {
        return bad_request(stream, rid);
    };
    let Some(symptom) = flatjson::get(&fields, "symptom").and_then(Field::as_str) else {
        return bad_request(stream, rid);
    };
    let actions = match flatjson::get(&fields, "actions") {
        Some(field) => match parse_actions(Some(field)) {
            Ok(actions) if !actions.is_empty() => actions,
            _ => return bad_request(stream, rid),
        },
        None => return bad_request(stream, rid),
    };
    let Some(plane) = current.replay() else {
        return unavailable(stream, "replay_unavailable", rid);
    };
    if !current.knows_symptom(symptom) {
        return typed_error(
            stream,
            "404 Not Found",
            "unknown_symptom",
            Some(&current),
            rid,
        );
    }
    let Some(run) = plane.simulate(symptom, &actions) else {
        return typed_error(
            stream,
            "404 Not Found",
            "unsimulated_symptom",
            Some(&current),
            rid,
        );
    };
    let doc = Json::obj()
        .field("type", "simulate")
        .field("version", current.version())
        .field("hash", current.hash())
        .field("symptom", symptom)
        .field("detection_lead_s", run.detection_lead_s)
        .field(
            "steps",
            Json::Arr(
                run.steps
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .field("action", s.action.as_str())
                            .field("cured", s.cured)
                            .field("cost_s", s.cost_s)
                    })
                    .collect(),
            ),
        )
        .field("cured", run.cured)
        .field("total_cost_s", run.total_cost_s);
    write_response_with(
        stream,
        "200 OK",
        "application/json",
        &doc.render(),
        &[("X-Request-Id", rid)],
    )
}

fn policy_meta(stream: &mut TcpStream, store: &PolicyStore, rid: &str) -> io::Result<()> {
    let Some(current) = store.current() else {
        return unavailable(stream, "no_policy", rid);
    };
    let doc = Json::obj()
        .field("type", "policy")
        .field("version", current.version())
        .field("hash", current.hash())
        .field("source", current.source())
        .field("entries", current.entries())
        .field("advised_states", current.advised_states())
        .field("replay", current.replay().is_some());
    write_response_with(
        stream,
        "200 OK",
        "application/json",
        &doc.render(),
        &[("X-Request-Id", rid)],
    )
}

fn policy_text(stream: &mut TcpStream, store: &PolicyStore, rid: &str) -> io::Result<()> {
    let Some(current) = store.current() else {
        return unavailable(stream, "no_policy", rid);
    };
    write_response_with(
        stream,
        "200 OK",
        "text/plain; charset=utf-8",
        current.text(),
        &[("X-Request-Id", rid)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_telemetry::EventBus;
    use std::io::{Read, Write};

    fn http(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header block");
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

    #[test]
    fn empty_store_sheds_with_no_policy() {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        let daemon = ServeDaemon::bind(
            "127.0.0.1:0",
            PolicyStore::new(),
            telemetry.clone(),
            ServeConfig::default(),
        )
        .expect("bind");
        let (head, body) = post(daemon.local_addr(), "/advise", "{\"symptom\":\"x\"}");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert_eq!(body, "{\"type\":\"unavailable\",\"reason\":\"no_policy\"}");
        let (head, _) = get(daemon.local_addr(), "/policy");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        // The telemetry routes still answer beside the policy routes.
        let (head, _) = get(daemon.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let (head, body) = get(daemon.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(body.contains("unknown_route"), "{body}");
        let registry = telemetry.registry().unwrap();
        assert_eq!(registry.counter("serve.requests").get(), 4);
        assert_eq!(registry.counter("serve.served").get(), 4);
        assert_eq!(registry.counter("serve.shed").get(), 0);
    }

    #[test]
    fn malformed_bodies_get_typed_400s_and_are_still_counted() {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        let mut symptoms = recovery_simlog::SymptomCatalog::default();
        symptoms.intern("error:X");
        let store = PolicyStore::new();
        store.publish(PolicySnapshot::build(
            &recovery_core::TrainedPolicy::default(),
            &symptoms,
            "test",
            None,
        ));
        let daemon = ServeDaemon::bind(
            "127.0.0.1:0",
            store,
            telemetry.clone(),
            ServeConfig::default(),
        )
        .expect("bind");
        for body in ["", "not json", "{\"tried\":[]}", "{\"symptom\":3}"] {
            let (head, response) = post(daemon.local_addr(), "/advise", body);
            assert!(head.starts_with("HTTP/1.1 400"), "{body:?}: {head}");
            assert!(response.contains("bad_request"), "{response}");
        }
        // Unknown symptom and unadvised state are typed 404s that name
        // the answering version.
        let (head, response) = post(daemon.local_addr(), "/advise", "{\"symptom\":\"nope\"}");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(response.contains("unknown_symptom"), "{response}");
        assert!(response.contains("\"version\":1"), "{response}");
        let (head, response) = post(daemon.local_addr(), "/advise", "{\"symptom\":\"error:X\"}");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(response.contains("unadvised_state"), "{response}");
        let (head, response) = post(
            daemon.local_addr(),
            "/simulate",
            "{\"symptom\":\"error:X\",\"actions\":[\"REBOOT\"]}",
        );
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(response.contains("replay_unavailable"), "{response}");
        let registry = telemetry.registry().unwrap();
        assert_eq!(
            registry.counter("serve.requests").get(),
            registry.counter("serve.served").get() + registry.counter("serve.shed").get()
        );
    }

    #[test]
    fn drain_rejects_new_work_then_stops_cleanly() {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        let daemon = ServeDaemon::bind(
            "127.0.0.1:0",
            PolicyStore::new(),
            telemetry.clone(),
            ServeConfig::default(),
        )
        .expect("bind");
        // A request before the drain is served normally.
        let (head, _) = get(daemon.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(daemon.drain(Duration::from_secs(5)), "drain timed out");
        assert_eq!(daemon.inflight(), 0);
        // Connections racing the drain (accepted before the accept loop
        // observed `stop`) get the typed draining 503, never a hang or a
        // cut socket.
        for _ in 0..3 {
            match TcpStream::connect(daemon.local_addr()) {
                Ok(mut stream) => {
                    let _ = stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
                    let mut response = String::new();
                    let _ = stream.read_to_string(&mut response);
                    if let Some((head, body)) = response.split_once("\r\n\r\n") {
                        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
                        assert!(body.contains("draining"), "{body}");
                    }
                }
                Err(_) => break, // accept loop already exited
            }
        }
        let registry = telemetry.registry().unwrap();
        assert_eq!(registry.counter("serve.drained").get(), 1);
        assert_eq!(
            registry.counter("serve.requests").get(),
            registry.counter("serve.served").get() + registry.counter("serve.shed").get()
        );
    }

    fn request_id(head: &str) -> String {
        head.lines()
            .find_map(|line| line.strip_prefix("X-Request-Id: "))
            .expect("X-Request-Id header")
            .trim()
            .to_string()
    }

    #[test]
    fn every_response_carries_a_resolvable_request_id() {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        let daemon = ServeDaemon::bind(
            "127.0.0.1:0",
            PolicyStore::new(),
            telemetry.clone(),
            ServeConfig::default(),
        )
        .expect("bind");
        // A policy route (503 here), a telemetry route, and a 404 all
        // stamp the id; ids are distinct per request.
        let (advise_head, _) = post(daemon.local_addr(), "/advise", "{\"symptom\":\"x\"}");
        let (metrics_head, _) = get(daemon.local_addr(), "/metrics");
        let (missing_head, _) = get(daemon.local_addr(), "/nope");
        let ids: Vec<String> = [&advise_head, &metrics_head, &missing_head]
            .into_iter()
            .map(|head| request_id(head))
            .collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|id| id.starts_with("req-")), "{ids:?}");
        assert_eq!(
            ids.iter().collect::<std::collections::BTreeSet<_>>().len(),
            3,
            "ids must be unique: {ids:?}"
        );
        // The id resolves to the finished request's span tree.
        let (head, body) = get(daemon.local_addr(), &format!("/trace/{}", ids[0]));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.starts_with("{\"type\":\"trace_tree\""), "{body}");
        assert!(body.contains("\"name\":\"request\""), "{body}");
        assert!(body.contains("\"name\":\"advise\""), "{body}");
    }

    #[test]
    fn latency_lands_in_both_aggregate_and_per_route_histograms() {
        let bus = EventBus::default();
        let subscription = bus.subscribe();
        let telemetry = Telemetry::with_parts(None, Some(bus));
        let daemon = ServeDaemon::bind(
            "127.0.0.1:0",
            PolicyStore::new(),
            telemetry.clone(),
            ServeConfig::default(),
        )
        .expect("bind");
        let _ = get(daemon.local_addr(), "/healthz");
        let _ = get(daemon.local_addr(), "/healthz");
        let _ = post(daemon.local_addr(), "/advise", "{\"symptom\":\"x\"}");
        let _ = get(daemon.local_addr(), "/trace/req-1");
        let registry = telemetry.registry().unwrap();
        let route_count = |route: &str| {
            registry
                .histogram(&format!("serve.route.{route}.ms"), &DURATION_MS_BOUNDS)
                .count()
        };
        assert_eq!(route_count("healthz"), 2);
        assert_eq!(route_count("advise"), 1);
        assert_eq!(route_count("trace"), 1);
        assert_eq!(
            registry
                .histogram("serve.request.ms", &DURATION_MS_BOUNDS)
                .count(),
            4,
            "aggregate histogram must keep counting"
        );
        // Each request also leaves an access event on the bus carrying
        // the same route label.
        let access: Vec<String> = subscription
            .drain()
            .into_iter()
            .filter(|line| line.starts_with("{\"type\":\"access\""))
            .collect();
        assert_eq!(access.len(), 4, "{access:?}");
        assert!(access[0].contains("\"route\":\"healthz\""), "{}", access[0]);
        assert!(access[2].contains("\"route\":\"advise\""), "{}", access[2]);
        assert!(access[2].contains("\"method\":\"POST\""), "{}", access[2]);
        assert!(access[3].contains("\"route\":\"trace\""), "{}", access[3]);
    }

    #[test]
    fn request_ids_survive_disabled_telemetry() {
        let daemon = ServeDaemon::bind(
            "127.0.0.1:0",
            PolicyStore::new(),
            Telemetry::disabled(),
            ServeConfig::default(),
        )
        .expect("bind");
        let (head, _) = get(daemon.local_addr(), "/policy");
        let first = request_id(&head);
        let (head, _) = get(daemon.local_addr(), "/policy");
        let second = request_id(&head);
        assert!(first.starts_with("req-"), "{first}");
        assert_ne!(first, second);
    }
}
