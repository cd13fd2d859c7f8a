//! The one HTTP server of the workspace: a minimal std-only
//! blocking-TCP [`HttpServer`] that owns the listener, the accept loop,
//! admission, the per-connection thread and shutdown, and hands each
//! parsed request to a [`Mount`] — the set of routes it serves.
//!
//! Two mounts exist. [`HttpServer::bind`] mounts the read-only telemetry
//! views of one [`Telemetry`] handle, behind the CLI's global
//! `--metrics-listen ADDR` flag:
//!
//! | route               | body                                                   |
//! |---------------------|--------------------------------------------------------|
//! | `/metrics`          | Prometheus text format of the metrics snapshot         |
//! | `/snapshot`         | the JSONL sink's `snapshot` object, as one JSON body   |
//! | `/healthz`          | loop status: phase, last window, fallback reason       |
//! | `/events`           | NDJSON stream of live telemetry events (off the bus)   |
//! | `/traces`           | summaries of the retained finished trace trees         |
//! | `/trace/<id>`       | one finished trace tree as nested JSON                 |
//! | `/trace/<id>/profile` | the same tree as a flamegraph-style text profile     |
//! | `/trace/last`       | the most recently finished trace tree                  |
//! | `/convergence`      | NDJSON stream of live `convergence` events only        |
//! | `/convergence/sse`  | the same stream with Server-Sent-Events framing        |
//!
//! These requests get no request span, no request id and no `serve.*`
//! counter, so scrapers never reach the loop's trace ring or counters.
//! The `recovery-serve` policy daemon mounts its `/advise`, `/simulate`
//! and `/policy` routes beside the same views ([`respond_telemetry`])
//! through [`HttpServer::bind_mount`], and keeps its own request ids,
//! ledger and latency histograms.
//!
//! The server is deliberately primitive — one accept thread polling a
//! non-blocking listener, one short-lived thread per connection, HTTP/1.0
//! semantics with `Connection: close` — because it must never compete
//! with the pipeline it observes: every telemetry handler only *reads*
//! snapshots or subscribes to the bounded
//! [`EventBus`](crate::bus::EventBus), whose backpressure rule (drop,
//! never block) already guarantees a stuck scraper cannot perturb
//! training. Byte-identity of trained policies with the server on or off
//! is enforced by `tests/observe.rs`.
//!
//! **Admission**: an accepted connection is answered by the server
//! itself with a typed `503 {"type":"shed"}` when the mount's in-flight
//! bound of handlers is already running, or `503 {"type":"draining"}`
//! once [`HttpServer::drain`] began; the mount hears of each through
//! [`Mount::rejected`]. Every other connection gets a handler thread,
//! which drops a request that is unparsable, over-sized, or not complete
//! within [`REQUEST_TIMEOUT`] of the accept.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::event::snapshot_to_json;
use crate::prometheus::render_prometheus;
use crate::Telemetry;

/// How long the accept loop sleeps between polls of the non-blocking
/// listener (also bounds shutdown latency).
pub const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// How long a client has, from the accept, to deliver its whole request
/// (head and body).
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// The in-flight bound of the telemetry-only mount, and the policy
/// daemon's default one.
pub const MAX_INFLIGHT: usize = 64;

/// How long an `/events` stream waits for the next bus line before
/// re-checking the shutdown flag.
const EVENT_POLL: Duration = Duration::from_millis(200);

/// Maximum accepted request head (request line plus header block,
/// blank line included), bytes. Requests above this are dropped after
/// reading at most this many head bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Maximum accepted request body size, bytes. Requests above this are
/// dropped rather than buffered (the policy daemon's `/advise` and
/// `/simulate` bodies are a few hundred bytes at most).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed HTTP request: the method, the path (query stripped), and
/// the raw body bytes (empty unless a `Content-Length` was sent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Upper-cased request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any `?query` stripped.
    pub path: String,
    /// Raw request body (bounded by [`MAX_BODY_BYTES`]).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The body as UTF-8 text, if valid.
    pub fn body_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// The routes one [`HttpServer`] serves.
pub trait Mount: Send + Sync + 'static {
    /// Answers one parsed request on `stream`; writing nothing drops the
    /// connection. `quiesce` is raised when the server drains or shuts
    /// down, and long-lived streams end on it.
    ///
    /// # Errors
    ///
    /// Returns the socket error that cut the response short.
    fn respond(
        &self,
        request: &HttpRequest,
        stream: TcpStream,
        quiesce: &AtomicBool,
    ) -> io::Result<()>;

    /// Called once for each connection the server answered itself with
    /// a typed `shed` or `draining` 503, or could not hand to a handler
    /// thread. The default does nothing.
    fn rejected(&self) {}
}

/// A running HTTP server bound to one local address.
///
/// Dropping the server signals shutdown and joins the accept thread;
/// in-flight connection handlers finish on their own (event streams
/// re-check the quiesce flag a few times per second).
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    gate: Arc<Gate>,
    accept_thread: Option<JoinHandle<()>>,
}

/// What a server shares with its accept and connection threads.
#[derive(Debug, Default)]
struct Gate {
    /// Ends the accept loop.
    stop: AtomicBool,
    /// Refuses new work with the typed draining 503 and ends streams.
    quiesce: AtomicBool,
    /// Connection handlers currently running.
    inflight: AtomicUsize,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9187`, port `0` for an ephemeral
    /// port) and serves the telemetry views of `telemetry`, with at most
    /// [`MAX_INFLIGHT`] handlers running.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be
    /// bound.
    pub fn bind(addr: &str, telemetry: Telemetry) -> io::Result<HttpServer> {
        HttpServer::bind_mount(addr, MAX_INFLIGHT, TelemetryRoutes(telemetry))
    }

    /// Binds `addr` and serves `mount`, shedding connections that arrive
    /// while `max_inflight` handlers are already running.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be
    /// bound.
    pub fn bind_mount(
        addr: &str,
        max_inflight: usize,
        mount: impl Mount,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let gate = Arc::new(Gate::default());
        let accept_gate = gate.clone();
        let mount: Arc<dyn Mount> = Arc::new(mount);
        let accept_thread = std::thread::Builder::new()
            .name("http-serve".to_string())
            .spawn(move || accept_loop(listener, mount, max_inflight, accept_gate))?;
        Ok(HttpServer {
            addr: local,
            gate,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actually bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection handlers currently running.
    pub fn inflight(&self) -> usize {
        self.gate.inflight.load(Ordering::SeqCst)
    }

    /// Signals the accept loop to stop taking new connections and every
    /// long-lived stream to finish. In-flight handlers still complete on
    /// their own; use [`HttpServer::drain`] to wait for them.
    pub fn shutdown(&self) {
        self.gate.quiesce.store(true, Ordering::SeqCst);
        self.gate.stop.store(true, Ordering::SeqCst);
    }

    /// Gracefully drains the server: stop accepting work (new
    /// connections get a typed `503 {"type":"draining"}`), let every
    /// in-flight handler finish, then stop the accept loop. Returns
    /// `true` when all handlers completed within `timeout`, `false` when
    /// the deadline cut the wait short (the server is stopped either
    /// way).
    pub fn drain(&self, timeout: Duration) -> bool {
        self.gate.quiesce.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        while self.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let drained = self.inflight() == 0;
        self.gate.stop.store(true, Ordering::SeqCst);
        drained
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, mount: Arc<dyn Mount>, max_inflight: usize, gate: Arc<Gate>) {
    while !gate.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => admit(stream, &mount, max_inflight, &gate),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

/// Admits one accepted connection to a handler thread, or answers it
/// with a typed 503. The shed decision is taken here, before any request
/// work: claim a slot, and give it back immediately when the server is
/// saturated.
fn admit(stream: TcpStream, mount: &Arc<dyn Mount>, max_inflight: usize, gate: &Arc<Gate>) {
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    // A draining server takes no new work: the typed draining 503 lets
    // clients tell shutdown from overload.
    if gate.quiesce.load(Ordering::SeqCst) {
        mount.rejected();
        reject(stream, deadline, "draining", "shutting down");
        return;
    }
    if gate.inflight.fetch_add(1, Ordering::SeqCst) >= max_inflight {
        gate.inflight.fetch_sub(1, Ordering::SeqCst);
        mount.rejected();
        reject(stream, deadline, "shed", "overloaded");
        return;
    }
    let handler_mount = mount.clone();
    let handler_gate = gate.clone();
    // Handlers are short-lived (one response) or self-terminating
    // (streams watch `quiesce`); they are deliberately detached.
    let spawned = std::thread::Builder::new()
        .name("http-conn".to_string())
        .spawn(move || {
            let _ = serve_connection(stream, deadline, &*handler_mount, &handler_gate.quiesce);
            handler_gate.inflight.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        // The slot was claimed but no handler will run or respond.
        gate.inflight.fetch_sub(1, Ordering::SeqCst);
        mount.rejected();
    }
}

/// Reads one request under the whole-request `deadline` and hands it to
/// `mount`; an unparsable, over-sized or late request is dropped without
/// a response.
fn serve_connection(
    stream: TcpStream,
    deadline: Instant,
    mount: &dyn Mount,
    quiesce: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let request = read_request(&mut BufReader::new(Deadline {
        stream: &stream,
        at: deadline,
    }))?;
    match request {
        Some(request) => mount.respond(&request, stream, quiesce),
        None => Ok(()),
    }
}

/// Answers an accepted connection with a typed 503 off the accept
/// thread: the socket still holds the client's unread request bytes, and
/// closing over them raises a RST that can destroy the 503 in flight.
/// Half-close and drain to EOF (or the `deadline`) instead.
fn reject(stream: TcpStream, deadline: Instant, kind: &'static str, reason: &'static str) {
    let _ = std::thread::Builder::new()
        .name("http-reject".to_string())
        .spawn(move || {
            let mut stream = stream;
            stream.set_nodelay(true).ok();
            let _ = write_response(
                &mut stream,
                "503 Service Unavailable",
                "application/json",
                &format!("{{\"type\":\"{kind}\",\"reason\":\"{reason}\"}}"),
            );
            let _ = stream.shutdown(Shutdown::Write);
            let mut unread = Deadline {
                stream: &stream,
                at: deadline,
            };
            let mut sink = [0u8; 1024];
            while matches!(unread.read(&mut sink), Ok(n) if n > 0) {}
        });
}

/// A socket read that fails with `TimedOut` once `at` has passed: each
/// read waits at most for what is left until then, so a client trickling
/// bytes cannot hold a handler past the deadline.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// The telemetry-only mount behind `--metrics-listen`: strictly
/// read-only GET views, and no request identity or `serve.*` ledger.
struct TelemetryRoutes(Telemetry);

impl Mount for TelemetryRoutes {
    fn respond(
        &self,
        request: &HttpRequest,
        mut stream: TcpStream,
        quiesce: &AtomicBool,
    ) -> io::Result<()> {
        if request.method != "GET" {
            return Ok(());
        }
        match respond_telemetry(request, stream.try_clone()?, &self.0, quiesce, None) {
            Some(result) => result,
            None => write_response(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found: /metrics /snapshot /healthz /events /traces /trace/<id> /convergence\n",
            ),
        }
    }
}

/// Serves the shared telemetry routes (`GET /metrics`, `/snapshot`,
/// `/healthz`, `/events`, `/traces`, `/trace/...`, `/convergence[/sse]`)
/// for `request`, or returns `None` when the request doesn't match one —
/// the caller then applies its own routing. `stop` lets long-lived
/// streams notice server shutdown. When the caller assigned the request
/// an id (the policy daemon does), `request_id` is echoed back on every
/// response as an `X-Request-Id` header.
pub fn respond_telemetry(
    request: &HttpRequest,
    stream: TcpStream,
    telemetry: &Telemetry,
    stop: &AtomicBool,
    request_id: Option<&str>,
) -> Option<io::Result<()>> {
    if request.method != "GET" {
        return None;
    }
    let rid_header: Vec<(&str, &str)> = match request_id {
        Some(rid) => vec![("X-Request-Id", rid)],
        None => Vec::new(),
    };
    let mut stream = stream;
    match request.path.as_str() {
        "/metrics" => {
            let body = telemetry
                .snapshot()
                .map(|snap| render_prometheus(&snap))
                .unwrap_or_default();
            Some(write_response_with(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
                &rid_header,
            ))
        }
        "/snapshot" => {
            let body = telemetry
                .snapshot()
                .map(|snap| snapshot_to_json(&snap))
                .unwrap_or_else(|| "{\"type\":\"snapshot\"}".to_string());
            Some(write_response_with(
                &mut stream,
                "200 OK",
                "application/json",
                &body,
                &rid_header,
            ))
        }
        "/healthz" => {
            let body = telemetry
                .health()
                .map(|h| h.snapshot())
                .unwrap_or_default()
                .to_json();
            Some(write_response_with(
                &mut stream,
                "200 OK",
                "application/json",
                &body,
                &rid_header,
            ))
        }
        "/events" => Some(stream_bus(stream, telemetry, stop, None, false)),
        "/convergence" => Some(stream_bus(
            stream,
            telemetry,
            stop,
            Some(CONVERGENCE_PREFIX),
            false,
        )),
        "/convergence/sse" => Some(stream_bus(
            stream,
            telemetry,
            stop,
            Some(CONVERGENCE_PREFIX),
            true,
        )),
        "/traces" => {
            let mut body = String::from("{\"type\":\"traces\",\"traces\":[");
            for (i, tree) in telemetry.trace_trees().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                use std::fmt::Write as _;
                let _ = write!(body, "{{\"trace\":{},\"root\":", tree.trace);
                crate::event::write_json_str(&mut body, &tree.root.name);
                let _ = write!(
                    body,
                    ",\"spans\":{},\"ms\":{:?}}}",
                    tree.span_count(),
                    tree.root.ms
                );
            }
            body.push_str("]}");
            Some(write_response_with(
                &mut stream,
                "200 OK",
                "application/json",
                &body,
                &rid_header,
            ))
        }
        "/trace/last" => Some(match telemetry.last_trace() {
            Some(tree) => write_response_with(
                &mut stream,
                "200 OK",
                "application/json",
                &tree.to_json(),
                &rid_header,
            ),
            None => write_response_with(
                &mut stream,
                "404 Not Found",
                "application/json",
                "{\"type\":\"error\",\"reason\":\"no_traces\"}",
                &rid_header,
            ),
        }),
        path => {
            let spec = path.strip_prefix("/trace/")?;
            let (id_part, profile) = match spec.strip_suffix("/profile") {
                Some(id_part) => (id_part, true),
                None => (spec, false),
            };
            // Request ids are `req-<trace>`; accept both spellings.
            let id = id_part
                .strip_prefix("req-")
                .unwrap_or(id_part)
                .parse::<u64>()
                .ok()?;
            Some(match telemetry.trace_tree(id) {
                Some(tree) if profile => write_response_with(
                    &mut stream,
                    "200 OK",
                    "text/plain; charset=utf-8",
                    &tree.profile_text(),
                    &rid_header,
                ),
                Some(tree) => write_response_with(
                    &mut stream,
                    "200 OK",
                    "application/json",
                    &tree.to_json(),
                    &rid_header,
                ),
                None => write_response_with(
                    &mut stream,
                    "404 Not Found",
                    "application/json",
                    "{\"type\":\"error\",\"reason\":\"unknown_trace\"}",
                    &rid_header,
                ),
            })
        }
    }
}

/// Reads one request — request line, headers, and a `Content-Length`
/// body — and returns it, or `None` for anything unparsable or
/// over-sized. Each head line is read through [`Read::take`], capped at
/// what is left of [`MAX_HEADER_BYTES`], so a line without a newline is
/// never buffered past the cap; the body is bounded by
/// [`MAX_BODY_BYTES`]. A head line that reaches the cap, or a head block
/// that does not end within it, yields `None`.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<HttpRequest>> {
    let mut left = MAX_HEADER_BYTES;
    let mut request_line = String::new();
    match read_head_line(reader, &mut left, &mut request_line)? {
        None | Some(0) => return Ok(None),
        Some(_) => {}
    }
    // Drain the header block so the client never sees a reset while the
    // request is still in flight, scanning for Content-Length.
    let mut content_length = 0usize;
    let mut header = String::new();
    loop {
        match read_head_line(reader, &mut left, &mut header)? {
            None => return Ok(None),
            Some(0) => break,
            Some(_) if header == "\r\n" || header == "\n" => break,
            Some(_) => {}
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse::<usize>() {
                    Ok(n) if n <= MAX_BODY_BYTES => n,
                    _ => return Ok(None),
                };
            }
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return Ok(None),
    };
    let path = target.split('?').next().unwrap_or(target);
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Ok(None);
    }
    Ok(Some(HttpRequest {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
    }))
}

/// Reads one head line into `line`, reading at most the `left` bytes
/// still allowed and charging them. Returns the bytes read (0 at end of
/// input), or `None` when the line reached the cap without its newline.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    left: &mut usize,
    line: &mut String,
) -> io::Result<Option<usize>> {
    line.clear();
    let n = reader.by_ref().take(*left as u64).read_line(line)?;
    *left -= n;
    Ok((*left > 0 || line.ends_with('\n')).then_some(n))
}

/// Writes one `Connection: close` HTTP response.
///
/// # Errors
///
/// Propagates the underlying socket write error (callers treat a failed
/// write as a disconnected client).
pub fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write_response_with(stream, status, content_type, body, &[])
}

/// [`write_response`] with extra response headers (name, value) — the
/// policy daemon uses this to stamp `X-Request-Id` on every response.
///
/// # Errors
///
/// Propagates the underlying socket write error.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        use std::fmt::Write as _;
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Serialized-line prefix of `convergence` events — [`crate::Event`]
/// writes `"type"` first, so a stream can filter without parsing.
const CONVERGENCE_PREFIX: &str = "{\"type\":\"convergence\"";

/// Streams events off the bus until the bus closes, the client
/// disconnects, or the server shuts down.
///
/// With `filter: None` this is the `/events` NDJSON stream: every bus
/// line, preceded by a health-record hello so late subscribers know
/// where the loop stands. With a filter prefix only matching lines are
/// forwarded (no hello — the stream then carries exactly one event
/// shape, e.g. `/convergence`). With `sse: true`, lines are framed as
/// Server-Sent Events (`data: <line>\n\n`, `text/event-stream`).
fn stream_bus(
    mut stream: TcpStream,
    telemetry: &Telemetry,
    stop: &AtomicBool,
    filter: Option<&str>,
    sse: bool,
) -> io::Result<()> {
    let Some(bus) = telemetry.bus() else {
        return write_response(
            &mut stream,
            "503 Service Unavailable",
            "text/plain; charset=utf-8",
            "no event bus attached (is --metrics-listen set?)\n",
        );
    };
    let subscription = bus.subscribe();
    let content_type = if sse {
        "text/event-stream"
    } else {
        "application/x-ndjson"
    };
    stream.write_all(
        format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    )?;
    if filter.is_none() && !sse {
        if let Some(health) = telemetry.health() {
            stream.write_all(health.snapshot().to_json().as_bytes())?;
            stream.write_all(b"\n")?;
        }
    }
    stream.flush()?;
    loop {
        match subscription.recv_timeout(EVENT_POLL) {
            Some(line) => {
                if let Some(prefix) = filter {
                    if !line.starts_with(prefix) {
                        continue;
                    }
                }
                if sse {
                    stream.write_all(b"data: ")?;
                }
                stream.write_all(line.as_bytes())?;
                stream.write_all(if sse {
                    b"\n\n".as_slice()
                } else {
                    b"\n".as_slice()
                })?;
                stream.flush()?;
            }
            None => {
                if stop.load(Ordering::SeqCst)
                    || (subscription.is_closed() && subscription.lag() == 0)
                {
                    return Ok(());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventBus, JsonlSink};

    /// Blocking one-shot HTTP GET against the test server.
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header block");
        (head.to_string(), body.to_string())
    }

    fn test_telemetry() -> Telemetry {
        let telemetry = Telemetry::with_parts(None, Some(EventBus::default()));
        telemetry
            .registry()
            .unwrap()
            .counter("loop.fallbacks")
            .add(2);
        telemetry
            .registry()
            .unwrap()
            .gauge("train.temperature")
            .set(1.5);
        telemetry
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let telemetry = test_telemetry();
        let server = HttpServer::bind("127.0.0.1:0", telemetry).expect("bind");
        let (head, body) = http_get(server.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("autorecover_loop_fallbacks 2\n"), "{body}");
        assert!(
            body.contains("autorecover_train_temperature 1.5\n"),
            "{body}"
        );
    }

    #[test]
    fn snapshot_and_healthz_serve_json() {
        let telemetry = test_telemetry();
        telemetry.health().unwrap().begin_loop(3);
        telemetry
            .health()
            .unwrap()
            .record_window(1, "trained", None);
        let server = HttpServer::bind("127.0.0.1:0", telemetry).expect("bind");
        let (head, body) = http_get(server.local_addr(), "/snapshot");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with("{\"type\":\"snapshot\""), "{body}");
        assert!(body.contains("\"loop.fallbacks\":2"), "{body}");
        let (_, body) = http_get(server.local_addr(), "/healthz");
        assert!(body.contains("\"phase\":\"running\""), "{body}");
        assert!(body.contains("\"last_window\":1"), "{body}");
    }

    #[test]
    fn unknown_routes_get_404_and_post_is_dropped() {
        let server = HttpServer::bind("127.0.0.1:0", test_telemetry()).expect("bind");
        let (head, _) = http_get(server.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.is_empty(), "non-GET must be dropped, got {out:?}");
    }

    #[test]
    fn read_request_parses_method_path_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST /advise?x=1 HTTP/1.1\r\nHost: test\r\nContent-Length: 9\r\n\r\n{{\"a\":\"b\"}}"
            )
            .unwrap();
            stream.flush().unwrap();
            // Keep the socket open until the server side has read.
            let mut buf = [0u8; 1];
            let _ = stream.read(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = read_request(&mut reader).unwrap().expect("parsable");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/advise", "query must be stripped");
        assert_eq!(request.body_text(), Some("{\"a\":\"b\"}"));
        // The reader holds a clone of the socket; both halves must drop
        // before the client sees EOF.
        drop(reader);
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn read_request_rejects_oversized_bodies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST /advise HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .unwrap();
            stream.flush().unwrap();
            let mut buf = [0u8; 1];
            let _ = stream.read(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_request(&mut reader).unwrap(), None);
        drop(reader);
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn events_stream_delivers_published_lines_until_close() {
        let telemetry = test_telemetry();
        let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = server.local_addr();
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /events HTTP/1.1\r\n\r\n").unwrap();
            let mut lines = Vec::new();
            // Read until EOF (server closes once the bus drains); skip
            // the blank line separating headers from the body.
            for line in BufReader::new(stream).lines() {
                match line {
                    Ok(l) => {
                        if !l.is_empty() {
                            lines.push(l);
                        }
                    }
                    Err(_) => break,
                }
            }
            lines
        });
        // Give the subscriber a moment to attach, then publish and close.
        let bus = telemetry.bus().unwrap().clone();
        while !bus.has_subscribers() {
            std::thread::sleep(Duration::from_millis(5));
        }
        telemetry.emit(&crate::Event::new("window").with("window", 0u64));
        bus.close();
        let lines = reader.join().unwrap();
        // Headers, then the health hello, then the published event.
        let body_start = lines
            .iter()
            .position(|l| l.starts_with('{'))
            .expect("json lines present");
        assert!(
            lines[body_start].starts_with("{\"type\":\"health\""),
            "{lines:?}"
        );
        assert!(
            lines[body_start + 1..]
                .iter()
                .any(|l| l.starts_with("{\"type\":\"window\"")),
            "{lines:?}"
        );
    }

    #[test]
    fn trace_endpoints_serve_finished_trees_and_typed_404s() {
        let telemetry = test_telemetry();
        {
            let _root = telemetry.span("request");
            let _child = telemetry.span("advise");
        }
        let trace = telemetry.last_trace().expect("finished").trace;
        let server = HttpServer::bind("127.0.0.1:0", telemetry).expect("bind");
        let addr = server.local_addr();
        let (head, body) = http_get(addr, &format!("/trace/{trace}"));
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(
            body.starts_with(&format!(
                "{{\"type\":\"trace_tree\",\"trace\":{trace},\"spans\":2,"
            )),
            "{body}"
        );
        assert!(body.contains("\"name\":\"advise\""), "{body}");
        // The req- prefixed spelling (what X-Request-Id carries) works.
        let (head, _) = http_get(addr, &format!("/trace/req-{trace}"));
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let (head, body) = http_get(addr, &format!("/trace/{trace}/profile"));
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("request"), "{body}");
        assert!(body.contains("advise"), "{body}");
        let (_, body) = http_get(addr, "/trace/last");
        assert!(
            body.contains("\"root\":{\"id\":1,\"name\":\"request\""),
            "{body}"
        );
        let (_, body) = http_get(addr, "/traces");
        assert!(body.starts_with("{\"type\":\"traces\""), "{body}");
        assert!(body.contains("\"root\":\"request\""), "{body}");
        let (head, body) = http_get(addr, "/trace/999999");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(body, "{\"type\":\"error\",\"reason\":\"unknown_trace\"}");
        // Garbage ids fall through to the generic 404.
        let (head, _) = http_get(addr, "/trace/not-a-number");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn convergence_stream_filters_to_convergence_events_only() {
        let telemetry = test_telemetry();
        let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = server.local_addr();
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /convergence HTTP/1.1\r\n\r\n").unwrap();
            let mut lines = Vec::new();
            for line in BufReader::new(stream).lines() {
                match line {
                    Ok(l) if !l.is_empty() => lines.push(l),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            lines
        });
        let bus = telemetry.bus().unwrap().clone();
        while !bus.has_subscribers() {
            std::thread::sleep(Duration::from_millis(5));
        }
        telemetry.emit(&crate::Event::new("window").with("window", 0u64));
        telemetry.emit(
            &crate::Event::new("convergence")
                .with("window", 0u64)
                .with("error_type", "type3")
                .with("verdict", "converged"),
        );
        bus.close();
        let lines = reader.join().unwrap();
        let body: Vec<&String> = lines.iter().filter(|l| l.starts_with('{')).collect();
        assert_eq!(body.len(), 1, "only the convergence event: {lines:?}");
        assert!(
            body[0].starts_with("{\"type\":\"convergence\",\"window\":0"),
            "{lines:?}"
        );
    }

    #[test]
    fn sse_stream_frames_convergence_lines_as_events() {
        let telemetry = test_telemetry();
        let server = HttpServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
        let addr = server.local_addr();
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /convergence/sse HTTP/1.1\r\n\r\n").unwrap();
            let mut out = String::new();
            let _ = stream.read_to_string(&mut out);
            out
        });
        let bus = telemetry.bus().unwrap().clone();
        while !bus.has_subscribers() {
            std::thread::sleep(Duration::from_millis(5));
        }
        telemetry.emit(&crate::Event::new("convergence").with("window", 1u64));
        bus.close();
        let out = reader.join().unwrap();
        assert!(out.contains("Content-Type: text/event-stream"), "{out}");
        assert!(
            out.contains("data: {\"type\":\"convergence\",\"window\":1}\n\n"),
            "{out}"
        );
    }

    #[test]
    fn responses_echo_an_assigned_request_id() {
        let telemetry = test_telemetry();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let mut out = String::new();
            stream.read_to_string(&mut out).unwrap();
            out
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let request = read_request(&mut reader).unwrap().expect("parsable");
        let stop = AtomicBool::new(false);
        respond_telemetry(&request, stream, &telemetry, &stop, Some("req-7"))
            .expect("telemetry route")
            .expect("write ok");
        // Both socket clones must drop before the client sees EOF.
        drop(reader);
        let out = client.join().unwrap();
        assert!(out.contains("X-Request-Id: req-7\r\n"), "{out}");
    }

    #[test]
    fn events_without_a_bus_get_503() {
        let telemetry =
            Telemetry::with_parts(Some(JsonlSink::from_writer(Box::new(io::sink()))), None);
        let server = HttpServer::bind("127.0.0.1:0", telemetry).expect("bind");
        let (head, body) = http_get(server.local_addr(), "/events");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("no event bus"), "{body}");
    }

    #[test]
    fn a_trickled_request_is_cut_off_at_the_whole_request_deadline() {
        let server = HttpServer::bind("127.0.0.1:0", test_telemetry()).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let started = Instant::now();
        let mut reader = stream.try_clone().unwrap();
        // One byte of a never-ending header line every 100 ms: each read
        // arrives well within REQUEST_TIMEOUT, the request never does.
        let trickle = std::thread::spawn(move || {
            let head = b"GET /metrics HTTP/1.1\r\nX-Slow: ";
            for &byte in head.iter().chain(std::iter::repeat(&b'a')) {
                if stream.write_all(&[byte]).is_err() || started.elapsed() > 3 * REQUEST_TIMEOUT {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let limit = REQUEST_TIMEOUT + Duration::from_secs(1);
        reader.set_read_timeout(Some(limit)).unwrap();
        let cut = reader.read(&mut [0u8; 64]);
        let elapsed = started.elapsed();
        // EOF or a reset, never a response and never our own timeout.
        match &cut {
            Ok(n) => assert_eq!(*n, 0, "the trickled request got a response"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "not cut off within {limit:?}: {e}"
            ),
        }
        assert!(elapsed <= limit, "cut off after {elapsed:?}");
        let settle = Instant::now() + Duration::from_secs(1);
        while server.inflight() > 0 && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.inflight(), 0);
        trickle.join().unwrap();
    }

    #[test]
    fn drain_ends_open_streams_and_answers_later_connections_draining() {
        let server = HttpServer::bind("127.0.0.1:0", test_telemetry()).expect("bind");
        let addr = server.local_addr();
        // An /events stream, open once its health hello arrived.
        let mut events = BufReader::new(TcpStream::connect(addr).unwrap());
        write!(events.get_mut(), "GET /events HTTP/1.1\r\n\r\n").unwrap();
        let mut line = String::new();
        while !line.starts_with("{\"type\":\"health\"") {
            line.clear();
            assert!(events.read_line(&mut line).unwrap() > 0, "stream closed");
        }
        // A request still arriving keeps the drain waiting, so the server
        // is provably draining, not stopped, when the last client comes.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        while server.inflight() < 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::scope(|scope| {
            let drain = scope.spawn(|| server.drain(Duration::from_secs(10)));
            let mut rest = String::new();
            events.read_to_string(&mut rest).expect("the stream ends");
            let (head, body) = http_get(addr, "/metrics");
            assert!(head.starts_with("HTTP/1.1 503"), "{head}");
            assert_eq!(body, "{\"type\":\"draining\",\"reason\":\"shutting down\"}");
            slow.write_all(b"\r\n").unwrap();
            let mut response = String::new();
            slow.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(drain.join().unwrap(), "drain timed out");
        });
        assert_eq!(server.inflight(), 0);
    }
}
