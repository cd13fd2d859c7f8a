//! Cross-command CLI session state: telemetry (from `--metrics-out`),
//! the live exposition server (from `--metrics-listen`), and the
//! progress logger (`--log-format`, `-v`).

use std::time::Duration;

use recovery_telemetry::{Event, EventBus, HttpServer, JsonlSink, Telemetry};

use crate::args::Args;

/// How progress and diagnostic lines are rendered on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Plain human-readable lines (the default).
    Text,
    /// One JSON object per line, `{"type":"log","level":...,"msg":...}`.
    Json,
}

/// The per-invocation session: built once from the global flags, passed
/// to every subcommand.
#[derive(Debug)]
pub struct Session {
    /// Telemetry handle; enabled when `--metrics-out` or
    /// `--metrics-listen` was given.
    pub telemetry: Telemetry,
    /// The live exposition server, when `--metrics-listen` was given.
    server: Option<HttpServer>,
    /// How long [`Session::finish`] keeps the server up after the
    /// command completes (`--serve-linger SECS`), so scrapers can fetch
    /// the final state of short-lived runs.
    linger: Duration,
    format: LogFormat,
    verbosity: u8,
}

impl Session {
    /// Builds the session from the parsed global flags: `--metrics-out
    /// <path>` (JSONL events + final snapshot), `--metrics-listen <addr>`
    /// (live `/metrics`, `/snapshot`, `/healthz`, `/events` endpoints),
    /// `--serve-linger <secs>`, `--log-format text|json`, and `-v`/`-vv`
    /// verbosity.
    ///
    /// # Errors
    ///
    /// Returns a message for an unwritable metrics path, an unbindable
    /// listen address, or an unknown log format.
    pub fn from_args(args: &Args) -> Result<Session, String> {
        let sink = match args.flag("metrics-out") {
            Some(path) => {
                Some(JsonlSink::to_file(path).map_err(|e| format!("--metrics-out {path}: {e}"))?)
            }
            None => None,
        };
        let listen = args.flag("metrics-listen");
        let telemetry = match (sink, listen) {
            (None, None) => Telemetry::disabled(),
            (sink, listen) => {
                // A live listener always gets a bus so `/events` streams.
                Telemetry::with_parts(sink, listen.map(|_| EventBus::default()))
            }
        };
        let server = match listen {
            Some(addr) => Some(
                HttpServer::bind(addr, telemetry.clone())
                    .map_err(|e| format!("--metrics-listen {addr}: {e}"))?,
            ),
            None => None,
        };
        let linger_secs: f64 = args.flag_or("serve-linger", 0.0f64)?;
        if !(linger_secs >= 0.0 && linger_secs.is_finite()) {
            return Err(format!("--serve-linger must be >= 0, got {linger_secs}"));
        }
        let format = match args.flag("log-format").unwrap_or("text") {
            "text" => LogFormat::Text,
            "json" => LogFormat::Json,
            other => return Err(format!("unknown --log-format {other:?} (text, json)")),
        };
        let session = Session {
            telemetry,
            server,
            linger: Duration::from_secs_f64(linger_secs),
            format,
            verbosity: args.verbosity(),
        };
        if let Some(addr) = session.serve_addr() {
            session.info(&format!(
                "serving live metrics on http://{addr}/ (/metrics /snapshot /healthz /events)"
            ));
        }
        Ok(session)
    }

    /// The bound address of the live exposition server, if one is up.
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(HttpServer::local_addr)
    }

    /// Logs a progress line (always shown) on stderr.
    pub fn info(&self, msg: &str) {
        self.log("info", msg);
    }

    /// Logs a diagnostic line, shown only at `-v` or higher.
    pub fn debug(&self, msg: &str) {
        if self.verbosity >= 1 {
            self.log("debug", msg);
        }
    }

    fn log(&self, level: &str, msg: &str) {
        match self.format {
            LogFormat::Text => eprintln!("{msg}"),
            LogFormat::Json => eprintln!(
                "{}",
                Event::new("log")
                    .with("level", level)
                    .with("msg", msg)
                    .to_json()
            ),
        }
    }

    /// Writes the final metrics snapshot, flushes the sink, and — when a
    /// live server is up — keeps it reachable for `--serve-linger`, then
    /// closes the bus so `/events` streams terminate cleanly. Called
    /// once after the subcommand returns.
    pub fn finish(&self) {
        self.telemetry.finish();
        if let Some(server) = &self.server {
            if !self.linger.is_zero() {
                std::thread::sleep(self.linger);
            }
            if let Some(bus) = self.telemetry.bus() {
                bus.close();
            }
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Args {
        Args::parse(parts.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn defaults_are_disabled_text() {
        let s = Session::from_args(&parse(&[])).unwrap();
        assert!(!s.telemetry.is_enabled());
        assert_eq!(s.format, LogFormat::Text);
        assert_eq!(s.verbosity, 0);
    }

    #[test]
    fn json_format_and_verbosity_parse() {
        let s = Session::from_args(&parse(&["--log-format", "json", "-vv"])).unwrap();
        assert_eq!(s.format, LogFormat::Json);
        assert_eq!(s.verbosity, 2);
    }

    #[test]
    fn unknown_format_is_rejected() {
        assert!(Session::from_args(&parse(&["--log-format", "xml"])).is_err());
    }

    #[test]
    fn metrics_listen_enables_telemetry_bus_and_server() {
        let s = Session::from_args(&parse(&["--metrics-listen", "127.0.0.1:0"])).unwrap();
        assert!(s.telemetry.is_enabled());
        assert!(s.telemetry.bus().is_some(), "listener implies a bus");
        let addr = s.serve_addr().expect("server bound");
        assert_ne!(addr.port(), 0, "port 0 resolves to an ephemeral port");
        s.finish();
        assert!(s.telemetry.bus().unwrap().is_closed());
    }

    #[test]
    fn bad_listen_address_is_a_clean_error() {
        let err = Session::from_args(&parse(&["--metrics-listen", "256.0.0.1:99999"]))
            .expect_err("unbindable address");
        assert!(err.contains("--metrics-listen"), "{err}");
    }

    #[test]
    fn metrics_out_enables_telemetry() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "autorecover-session-test-{}.jsonl",
            std::process::id()
        ));
        let s = Session::from_args(&parse(&["--metrics-out", path.to_str().unwrap()])).unwrap();
        assert!(s.telemetry.is_enabled());
        s.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"type\":\"snapshot\""), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
