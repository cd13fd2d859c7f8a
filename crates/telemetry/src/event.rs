//! Structured events and the JSONL sink.
//!
//! Events are flat key/value records serialized as one JSON object per
//! line — hand-rolled (std-only), with deterministic field order (fields
//! appear in insertion order).

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A scalar field value of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured telemetry record: a kind plus ordered key/value
/// fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: String,
    fields: Vec<(String, Value)>,
}

impl Event {
    /// A new event of the given kind (serialized as the `"type"` field).
    pub fn new(kind: &str) -> Self {
        Event {
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// The event kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Serializes the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"type\":");
        write_json_str(&mut out, &self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            write_json_str(&mut out, key);
            out.push(':');
            write_json_value(&mut out, value);
        }
        out.push('}');
        out
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v:?}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        Value::Str(s) => write_json_str(out, s),
    }
}

/// Serializes a [`crate::MetricsSnapshot`] as a single-line JSON object
/// of kind `"snapshot"`.
pub fn snapshot_to_json(snapshot: &crate::MetricsSnapshot) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"type\":\"snapshot\",\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(&mut out, name);
        out.push(':');
        write_json_value(&mut out, &Value::F64(*value));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(&mut out, name);
        let _ = write!(out, ":{{\"count\":{},", h.count);
        out.push_str("\"sum\":");
        write_json_value(&mut out, &Value::F64(h.sum));
        out.push_str(",\"bounds\":[");
        for (j, b) in h.bounds.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_json_value(&mut out, &Value::F64(*b));
        }
        out.push_str("],\"buckets\":[");
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

/// A line-buffered JSONL event writer, safe to share across threads.
///
/// I/O failures never propagate into the observed pipeline: writes keep
/// succeeding from the caller's point of view, and the first underlying
/// error is parked where [`JsonlSink::last_error_kind`] can surface it
/// (the CLI reports it after the run instead of aborting mid-training).
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
    error: Mutex<Option<io::Error>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) the file at `path` as the sink target.
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer.
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(BufWriter::new(writer)),
            error: Mutex::new(None),
        }
    }

    /// Writes one event as one line. I/O errors are deliberately not
    /// returned: telemetry must never fail the pipeline it observes. The
    /// first error is retained for [`JsonlSink::last_error_kind`].
    pub fn write(&self, event: &Event) {
        self.write_line(&event.to_json());
    }

    /// Writes one pre-serialized JSON line.
    pub fn write_line(&self, json: &str) {
        if let Ok(mut out) = self.out.lock() {
            let result = out
                .write_all(json.as_bytes())
                .and_then(|()| out.write_all(b"\n"));
            if let Err(e) = result {
                self.park_error(e);
            }
        }
    }

    /// Flushes buffered lines to the underlying writer.
    pub fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            if let Err(e) = out.flush() {
                self.park_error(e);
            }
        }
    }

    /// The kind of the first I/O error this sink ran into, if any.
    /// Writes after a failure still buffer normally; this only reports
    /// that at least one line may be missing from the output.
    pub fn last_error_kind(&self) -> Option<io::ErrorKind> {
        self.error
            .lock()
            .ok()
            .and_then(|slot| slot.as_ref().map(io::Error::kind))
    }

    fn park_error(&self, e: io::Error) {
        if let Ok(mut slot) = self.error.lock() {
            slot.get_or_insert(e);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_ordered_fields_and_escapes() {
        let e = Event::new("span")
            .with("name", "train/type\"7\"")
            .with("ms", 1.5)
            .with("n", 3u64)
            .with("ok", true);
        assert_eq!(
            e.to_json(),
            r#"{"type":"span","name":"train/type\"7\"","ms":1.5,"n":3,"ok":true}"#
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new("x").with("v", f64::NAN).with("w", f64::INFINITY);
        assert_eq!(e.to_json(), r#"{"type":"x","v":null,"w":null}"#);
    }

    #[test]
    fn control_chars_are_escaped() {
        let e = Event::new("x").with("s", "a\nb\u{1}c");
        assert_eq!(e.to_json(), "{\"type\":\"x\",\"s\":\"a\\nb\\u0001c\"}");
    }

    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Records whether it was flushed and how many bytes were written.
    struct ProbeWriter {
        flushed: Arc<AtomicBool>,
        written: Arc<AtomicUsize>,
    }

    impl Write for ProbeWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.written.fetch_add(data.len(), Ordering::SeqCst);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushed.store(true, Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn dropping_the_sink_flushes_buffered_lines() {
        let flushed = Arc::new(AtomicBool::new(false));
        let written = Arc::new(AtomicUsize::new(0));
        let sink = JsonlSink::from_writer(Box::new(ProbeWriter {
            flushed: flushed.clone(),
            written: written.clone(),
        }));
        sink.write(&Event::new("x").with("k", 1u64));
        // One short line sits in the BufWriter; nothing reached the
        // underlying writer yet.
        assert_eq!(written.load(Ordering::SeqCst), 0);
        assert!(!flushed.load(Ordering::SeqCst));
        drop(sink);
        assert!(flushed.load(Ordering::SeqCst), "drop must flush");
        assert_eq!(
            written.load(Ordering::SeqCst),
            "{\"type\":\"x\",\"k\":1}\n".len()
        );
    }

    /// Fails every write and flush with the given kind.
    struct FailingWriter(io::ErrorKind);

    impl Write for FailingWriter {
        fn write(&mut self, _data: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(self.0, "injected"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::new(self.0, "injected"))
        }
    }

    #[test]
    fn write_errors_are_parked_not_raised() {
        let sink = JsonlSink::from_writer(Box::new(FailingWriter(io::ErrorKind::StorageFull)));
        assert_eq!(sink.last_error_kind(), None);
        // Writing and flushing never panic and never return an error to
        // the observed pipeline...
        sink.write(&Event::new("x"));
        sink.flush();
        // ...but the first failure is queryable afterwards.
        assert_eq!(sink.last_error_kind(), Some(io::ErrorKind::StorageFull));
        // Later writes keep the first error, not the latest.
        sink.write_line("{}");
        sink.flush();
        assert_eq!(sink.last_error_kind(), Some(io::ErrorKind::StorageFull));
    }

    #[test]
    fn large_writes_park_errors_without_flush() {
        // A line larger than the BufWriter's buffer bypasses buffering
        // and hits the failing writer inside write_line itself.
        let sink = JsonlSink::from_writer(Box::new(FailingWriter(io::ErrorKind::BrokenPipe)));
        let big = "x".repeat(64 * 1024);
        sink.write_line(&big);
        assert_eq!(sink.last_error_kind(), Some(io::ErrorKind::BrokenPipe));
    }
}
