//! The live exposition server: a minimal std-only blocking-TCP HTTP
//! endpoint behind the CLI's global `--metrics-listen ADDR` flag.
//!
//! All routes are read-only views of one [`Telemetry`] handle:
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
//! The server is deliberately primitive — one accept thread polling a
//! non-blocking listener, one short-lived thread per connection, HTTP/1.0
//! semantics with `Connection: close` — because it must never compete
//! with the pipeline it observes: every handler only *reads* snapshots
//! or subscribes to the bounded [`EventBus`], whose backpressure rule
//! (drop, never block) already guarantees a stuck scraper cannot perturb
//! training. Byte-identity of trained policies with the server on or off
//! is enforced by `tests/observe.rs`.
//!
//! The request/response plumbing ([`HttpRequest`], [`read_request`],
//! [`write_response`], [`respond_telemetry`]) is shared with the
//! `recovery-serve` policy daemon, which mounts the same four telemetry
//! routes beside its own `/advise`, `/simulate`, and `/policy` handlers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::snapshot_to_json;
use crate::prometheus::render_prometheus;
use crate::Telemetry;

/// How long the accept loop sleeps between polls of the non-blocking
/// listener (also bounds shutdown latency).
pub const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Read timeout for one incoming request head.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

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

/// A running exposition server bound to one local address.
///
/// Dropping the server signals shutdown and joins the accept thread;
/// in-flight connection handlers finish on their own (event streams
/// re-check the shutdown flag a few times per second).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9187`, port `0` for an ephemeral
    /// port) and starts serving views of `telemetry`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be
    /// bound.
    pub fn bind(addr: &str, telemetry: Telemetry) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("metrics-serve".to_string())
            .spawn(move || accept_loop(listener, telemetry, accept_stop))?;
        Ok(MetricsServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The actually bound address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept loop to stop taking new connections.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, telemetry: Telemetry, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let telemetry = telemetry.clone();
                let stop = stop.clone();
                // Handlers are short-lived (snapshot renders) or
                // self-terminating (event streams watch `stop`); they are
                // deliberately detached.
                let _ = std::thread::Builder::new()
                    .name("metrics-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(stream, &telemetry, &stop);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    telemetry: &Telemetry,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match read_request(&mut reader)? {
        Some(request) => request,
        None => return Ok(()),
    };
    // The metrics server is strictly read-only: non-GET is dropped.
    if request.method != "GET" {
        return Ok(());
    }
    let mut stream = stream;
    match respond_telemetry(&request, stream.try_clone()?, telemetry, stop, None) {
        Some(result) => result,
        None => write_response(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found: /metrics /snapshot /healthz /events /traces /trace/<id> /convergence\n",
        ),
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
        let server = MetricsServer::bind("127.0.0.1:0", telemetry).expect("bind");
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
        let server = MetricsServer::bind("127.0.0.1:0", telemetry).expect("bind");
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
        let server = MetricsServer::bind("127.0.0.1:0", test_telemetry()).expect("bind");
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
        let server = MetricsServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
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
        let server = MetricsServer::bind("127.0.0.1:0", telemetry).expect("bind");
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
        let server = MetricsServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
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
        let server = MetricsServer::bind("127.0.0.1:0", telemetry.clone()).expect("bind");
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
        let server = MetricsServer::bind("127.0.0.1:0", telemetry).expect("bind");
        let (head, body) = http_get(server.local_addr(), "/events");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("no event bus"), "{body}");
    }
}
