//! Observability layer for the `autorecover` workspace: metrics, span
//! timers, training-observer hooks, and JSONL export.
//!
//! The paper's contribution (Zhu & Yuan, DSN 2007) hinges on convergence
//! behavior — temperature anneal, Q-delta stabilization, the selection
//! tree's stopping rule — so this crate gives every pipeline stage a way
//! to report what it did without changing what it computes:
//!
//! - [`MetricsRegistry`]: named counters, gauges, and fixed-bucket
//!   histograms backed by atomics (lock-free on the hot path);
//! - [`Telemetry`] + [`Span`]: RAII wall-clock timers for pipeline
//!   stages (log parsing, m-pattern mining, platform construction,
//!   per-type training, selection-tree scan, evaluation);
//! - [`TrainingObserver`] + [`TrainingRecord`]: the worker training an
//!   error type fills that type's record with plain writes and hands it
//!   to the observers once, at `training_finished`; evaluation replays
//!   report per attempt (`platform_replay`, `replay_end`);
//! - [`Event`] / [`JsonlSink`]: structured JSONL export of events and
//!   final metric snapshots;
//! - [`EventBus`] + [`HttpServer`]: the live observability plane —
//!   bounded drop-on-full fan-out of the same event lines, exposed over
//!   HTTP as `/metrics` (Prometheus text), `/snapshot`, `/healthz`, and
//!   `/events` (NDJSON). The same server carries the policy daemon's
//!   routes as another [`Mount`].
//!
//! Everything is std-only. Attaching telemetry never consumes random
//! numbers or alters control flow, so a seeded run produces
//! byte-identical policies with observation on or off.
//!
//! # Example
//!
//! ```
//! use recovery_telemetry::{SweepSample, Telemetry, TrainingObserver};
//!
//! let telemetry = Telemetry::new();
//! {
//!     let _stage = telemetry.span("train");
//!     let observer = telemetry.observer_handle();
//!     let mut record = observer.record("type0".into(), 12).unwrap();
//!     record.episode(3, 120.0);
//!     let sample = SweepSample { sweep: 1, temperature: 300_000.0, max_q_delta: 4.5 };
//!     record.sweep(sample, 0, false);
//!     observer.training_finished(&record);
//! }
//! let snapshot = telemetry.snapshot().unwrap();
//! assert_eq!(snapshot.counters["train.sweeps"], 1);
//! assert_eq!(snapshot.counters["train.sweeps.type0"], 1);
//! assert_eq!(snapshot.histograms["span.train.ms"].count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bus;
mod event;
pub mod flatjson;
mod health;
mod metrics;
mod observer;
mod prometheus;
mod record;
pub mod serve;
mod trace;

pub use bus::{EventBus, PublishOutcome, Subscription, DEFAULT_SUBSCRIBER_CAPACITY};
pub use event::{snapshot_to_json, write_json_str, Event, JsonlSink, Value};
pub use health::{HealthSnapshot, HealthState};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    DURATION_MS_BOUNDS,
};
pub use observer::{ObserverHandle, TrainingObserver};
pub use prometheus::{render_prometheus, render_prometheus_namespaced, NAMESPACE};
pub use record::{
    Downsampler, ReplayTally, SweepSample, TrainingCurves, TrainingRecord, SWEEP_SAMPLE_EVERY,
};
pub use serve::{HttpRequest, HttpServer, Mount};
pub use trace::{TraceContext, TraceNode, TraceTree, TRACE_RING_CAPACITY};

use std::sync::Arc;
use std::time::Instant;

struct Inner {
    registry: MetricsRegistry,
    sink: Option<JsonlSink>,
    /// Live fan-out of the same serialized lines the sink persists
    /// (`/events` endpoint, `watch` subcommand, tests). Bounded and
    /// drop-on-full, so consumers can never block `emit`.
    bus: Option<EventBus>,
    /// Last-value-wins loop status served by `/healthz`.
    health: HealthState,
    /// The trace-tree recorder: per-thread span stacks, active traces,
    /// and the bounded ring of finished [`TraceTree`]s. Worker threads
    /// join the driver's trace via [`Telemetry::worker_span`] with a
    /// propagated [`TraceContext`]; poisoned locks are recovered, not
    /// propagated, so a panicking observed stage can't take the whole
    /// tracing plane down with it.
    tracer: trace::TraceRecorder,
    epoch: Instant,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("sink", &self.sink.is_some())
            .field("bus", &self.bus.is_some())
            .finish_non_exhaustive()
    }
}

/// The shared handle tying together a [`MetricsRegistry`], an optional
/// [`JsonlSink`], and the span stack.
///
/// Cloning is cheap (an `Arc` clone). The [`Telemetry::disabled`] handle
/// holds nothing and makes every operation a no-op, so pipeline code can
/// accept `&Telemetry` unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled handle with a fresh registry and no event sink.
    pub fn new() -> Self {
        Self::with_parts(None, None)
    }

    /// An enabled handle that also streams events to `sink`.
    pub fn with_sink(sink: JsonlSink) -> Self {
        Self::with_parts(Some(sink), None)
    }

    /// An enabled handle with any combination of a JSONL `sink` and a
    /// live [`EventBus`]; [`Telemetry::emit`] serializes each event once
    /// and fans the line into both.
    pub fn with_parts(sink: Option<JsonlSink>, bus: Option<EventBus>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                sink,
                bus,
                health: HealthState::new(),
                tracer: trace::TraceRecorder::default(),
                epoch: Instant::now(),
            })),
        }
    }

    /// A disabled handle: every operation is a no-op and
    /// [`Telemetry::snapshot`] returns `None`.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The underlying registry, if enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|inner| &inner.registry)
    }

    /// The attached live event bus, if any.
    pub fn bus(&self) -> Option<&EventBus> {
        self.inner.as_deref().and_then(|inner| inner.bus.as_ref())
    }

    /// The live health record, if enabled.
    pub fn health(&self) -> Option<HealthState> {
        self.inner.as_deref().map(|inner| inner.health.clone())
    }

    /// A deterministic snapshot of all metrics, if enabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.registry().map(MetricsRegistry::snapshot)
    }

    /// Emits one structured event: serialized once, then fanned to the
    /// JSONL sink and the live bus (no-op when neither is attached).
    pub fn emit(&self, event: &Event) {
        if let Some(inner) = self.inner.as_deref() {
            if inner.sink.is_none() && inner.bus.is_none() {
                return;
            }
            let line = event.to_json();
            if let Some(sink) = &inner.sink {
                sink.write_line(&line);
            }
            if let Some(bus) = &inner.bus {
                bus.publish(&line);
            }
        }
    }

    /// Starts a named wall-clock span; the returned guard records its
    /// duration (histogram `span.<path>.ms`, counter `span.<path>.calls`,
    /// and a `span` event) when dropped. Nested spans build `a/b` paths.
    ///
    /// Spans also record into the trace-tree plane: a span opened with
    /// no enclosing span roots a new trace, nested spans become its
    /// children, and when the root closes the finished [`TraceTree`] is
    /// retained (see [`Telemetry::trace_tree`]) and announced with a
    /// `trace` event.
    pub fn span(&self, name: &str) -> Span<'_> {
        let ticket = self
            .inner
            .as_deref()
            .map(|inner| inner.tracer.begin_span(name, None, None, false));
        Span {
            telemetry: self,
            ticket,
            start: Instant::now(),
        }
    }

    /// Starts a span as a child of a captured [`TraceContext`], with an
    /// explicit sibling `rank` (the work-item index). This is how
    /// worker-pool threads join the driver thread's trace: the driver
    /// captures [`Telemetry::trace_context`] before the fan-out, each
    /// worker opens its span against it, and because siblings are
    /// ordered by rank at collection the finished tree is independent
    /// of worker scheduling. With `ctx: None` this behaves like
    /// [`Telemetry::span`] but still pins the sibling rank.
    pub fn worker_span(&self, ctx: Option<&TraceContext>, name: &str, rank: u64) -> Span<'_> {
        let ticket = self.inner.as_deref().map(|inner| {
            inner
                .tracer
                .begin_span(name, ctx.copied(), Some(rank), false)
        });
        Span {
            telemetry: self,
            ticket,
            start: Instant::now(),
        }
    }

    /// Reserves the place [`Telemetry::span`] would give a span named
    /// `name` here — the next sibling under this thread's innermost open
    /// span, or a trace of its own, listed by [`Telemetry::trace_trees`]
    /// where it opened — for work another thread does: hand the slot
    /// over and [`SpanSlot::open`] it there. The span never becomes this
    /// thread's current span, so spans opened here meanwhile are its
    /// siblings, not its children.
    pub fn reserve_span(&self, name: &str) -> SpanSlot<'_> {
        let ticket = self
            .inner
            .as_deref()
            .map(|inner| inner.tracer.begin_span(name, None, None, true));
        SpanSlot {
            span: Span {
                telemetry: self,
                ticket,
                start: Instant::now(),
            },
        }
    }

    /// Records a span that took `ms` milliseconds, at the place a
    /// [`Telemetry::span`] opened and closed here now would take: for
    /// work timed on another thread whose span belongs where its result
    /// is used. Work whose result is thrown away is never recorded.
    pub fn record_span(&self, name: &str, ms: f64) {
        self.span(name).close(ms);
    }

    /// The calling thread's innermost open span as a capturable
    /// [`TraceContext`], for propagation into worker threads. `None`
    /// when disabled or when no span is open on this thread.
    pub fn trace_context(&self) -> Option<TraceContext> {
        self.inner
            .as_deref()
            .and_then(|inner| inner.tracer.current_context())
    }

    /// The finished trace tree with the given id, if still retained in
    /// the ring of the last [`TRACE_RING_CAPACITY`] traces.
    pub fn trace_tree(&self, trace: u64) -> Option<TraceTree> {
        self.inner
            .as_deref()
            .and_then(|inner| inner.tracer.tree(trace))
    }

    /// The most recently finished trace tree, if any.
    pub fn last_trace(&self) -> Option<TraceTree> {
        self.inner
            .as_deref()
            .and_then(|inner| inner.tracer.last_tree())
    }

    /// All retained finished trace trees, oldest first.
    pub fn trace_trees(&self) -> Vec<TraceTree> {
        self.inner
            .as_deref()
            .map(|inner| inner.tracer.trees())
            .unwrap_or_default()
    }

    /// An observer that funnels training hooks into this handle's
    /// registry (and sampled events into its sink). For a disabled
    /// handle the observer is inert.
    pub fn observer(&self) -> MetricsObserver {
        MetricsObserver::new(self.clone())
    }

    /// An [`ObserverHandle`] wrapping [`Telemetry::observer`]; detached
    /// when this handle is disabled, so downstream hook calls cost one
    /// `Option` check.
    pub fn observer_handle(&self) -> ObserverHandle {
        if self.is_enabled() {
            ObserverHandle::attached(Arc::new(self.observer()))
        } else {
            ObserverHandle::none()
        }
    }

    /// Writes a final metrics snapshot to the sink (flushed) and the
    /// live bus; a no-op when neither is attached.
    pub fn finish(&self) {
        if let Some(inner) = self.inner.as_deref() {
            if inner.sink.is_none() && inner.bus.is_none() {
                return;
            }
            let line = snapshot_to_json(&inner.registry.snapshot());
            if let Some(sink) = &inner.sink {
                sink.write_line(&line);
                sink.flush();
            }
            if let Some(bus) = &inner.bus {
                bus.publish(&line);
            }
        }
    }

    /// Milliseconds elapsed since this handle was created.
    fn elapsed_ms(&self) -> f64 {
        self.inner
            .as_deref()
            .map(|inner| inner.epoch.elapsed().as_secs_f64() * 1e3)
            .unwrap_or(0.0)
    }
}

/// A span's place in the trace, reserved by [`Telemetry::reserve_span`]
/// on one thread for work done on another. Dropped unopened, it records
/// the time since it was reserved.
#[derive(Debug)]
pub struct SpanSlot<'a> {
    span: Span<'a>,
}

impl<'a> SpanSlot<'a> {
    /// Opens the reserved span, timed from now. Open no other span on
    /// this thread while it runs: with no span of this thread's own open,
    /// such a span would root a trace of its own.
    pub fn open(self) -> Span<'a> {
        let mut span = self.span;
        span.start = Instant::now();
        span
    }
}

/// An RAII wall-clock timer created by [`Telemetry::span`] or
/// [`Telemetry::worker_span`], also recording one node of the enclosing
/// trace tree.
#[derive(Debug)]
pub struct Span<'a> {
    telemetry: &'a Telemetry,
    /// The recorder's handle on the open span (`None` when disabled).
    ticket: Option<trace::SpanTicket>,
    start: Instant,
}

impl Span<'_> {
    /// The full nested path of this span (`None` when disabled).
    pub fn path(&self) -> Option<&str> {
        self.ticket.as_ref().map(|t| t.path.as_str())
    }

    /// The id of the trace this span belongs to (`None` when disabled).
    pub fn trace_id(&self) -> Option<u64> {
        self.ticket.as_ref().map(|t| t.trace)
    }

    /// Records the span as having taken `ms` milliseconds.
    fn close(&mut self, ms: f64) {
        let Some(ticket) = self.ticket.take() else {
            return;
        };
        let Some(inner) = self.telemetry.inner.as_deref() else {
            return;
        };
        let path = &ticket.path;
        inner
            .registry
            .histogram(&format!("span.{path}.ms"), &DURATION_MS_BOUNDS)
            .record(ms);
        inner.registry.counter(&format!("span.{path}.calls")).inc();
        self.telemetry.emit(
            &Event::new("span")
                .with("name", path.as_str())
                .with("ms", ms)
                .with("at_ms", self.telemetry.elapsed_ms())
                .with("trace", ticket.trace),
        );
        if let Some(tree) = inner.tracer.end_span(&ticket, ms) {
            // The root closed: announce the finished tree on the bus so
            // `/trace/<id>` consumers learn which id to fetch.
            self.telemetry.emit(
                &Event::new("trace")
                    .with("trace", tree.trace)
                    .with("root", tree.root.name.as_str())
                    .with("spans", tree.span_count())
                    .with("ms", tree.root.ms)
                    .with("at_ms", self.telemetry.elapsed_ms()),
            );
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.ticket.is_some() {
            self.close(self.start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// A [`TrainingObserver`] that adds each finished [`TrainingRecord`]
/// into a [`Telemetry`] handle's registry and emits its events.
///
/// Training counters and the two training gauges advance once per type,
/// when its record arrives; only evaluation replays count as they run.
#[derive(Debug)]
pub struct MetricsObserver {
    telemetry: Telemetry,
    sweeps: Counter,
    episodes: Counter,
    episode_steps: Counter,
    convergence_checks: Counter,
    temperature: Gauge,
    max_q_delta: Gauge,
    replay_attempts: Counter,
    replay_cured: Counter,
    replay_failed: Counter,
    cost_cache_hits: Counter,
    cost_cache_misses: Counter,
    replays: Counter,
    replays_handled: Counter,
}

impl MetricsObserver {
    fn new(telemetry: Telemetry) -> Self {
        // With a disabled handle, registry() is None and the default
        // (unregistered, never-read) handles below are inert.
        let registry = telemetry.registry();
        let counter = |name: &str| registry.map(|r| r.counter(name)).unwrap_or_default();
        let gauge = |name: &str| registry.map(|r| r.gauge(name)).unwrap_or_default();
        MetricsObserver {
            sweeps: counter("train.sweeps"),
            episodes: counter("train.episodes"),
            episode_steps: counter("train.episode_steps"),
            convergence_checks: counter("train.convergence_checks"),
            temperature: gauge("train.temperature"),
            max_q_delta: gauge("train.max_q_delta"),
            replay_attempts: counter("platform.attempts"),
            replay_cured: counter("platform.cured"),
            replay_failed: counter("platform.failed"),
            cost_cache_hits: counter("platform.cost_cache.hit"),
            cost_cache_misses: counter("platform.cost_cache.miss"),
            replays: counter("platform.replays"),
            replays_handled: counter("platform.replays_handled"),
            telemetry,
        }
    }

    /// Counts `attempts` replay attempts by outcome and cost source,
    /// touching only the counters that move.
    fn count_attempts(&self, attempts: u64, cured: u64, from_log: u64) {
        for (counter, n) in [
            (&self.replay_attempts, attempts),
            (&self.replay_cured, cured),
            (&self.replay_failed, attempts - cured),
            (&self.cost_cache_hits, from_log),
            (&self.cost_cache_misses, attempts - from_log),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

impl TrainingObserver for MetricsObserver {
    fn training_started(&self, record: &mut TrainingRecord) {
        if let Some(registry) = self.telemetry.registry() {
            registry.counter("train.types_started").inc();
        }
        self.telemetry.emit(
            &Event::new("training_started")
                .with("error_type", record.label.as_str())
                .with("processes", record.processes)
                .with("at_ms", self.telemetry.elapsed_ms()),
        );
    }

    fn training_finished(&self, record: &TrainingRecord) {
        let label = record.label.as_str();
        self.sweeps.add(record.sweeps);
        self.episodes.add(record.episodes);
        self.episode_steps.add(record.episode_steps);
        self.convergence_checks.add(record.convergence_checks);
        let replays = record.replays;
        self.count_attempts(replays.attempts, replays.cured, replays.from_log);
        if record.episodes > 0 {
            self.temperature.set(record.final_temperature);
            self.max_q_delta.set(record.final_q_delta);
        }
        for sample in &record.sweep_samples {
            self.telemetry.emit(
                &Event::new("sweep")
                    .with("error_type", label)
                    .with("sweep", sample.sweep)
                    .with("temperature", sample.temperature)
                    .with("max_q_delta", sample.max_q_delta)
                    .with("at_ms", self.telemetry.elapsed_ms()),
            );
        }
        if let Some(registry) = self.telemetry.registry() {
            if record.window_converged {
                registry
                    .gauge("train.last_calm_sweeps")
                    .set(record.last_calm_sweeps as f64);
            }
            registry
                .counter(&format!("train.sweeps.{label}"))
                .add(record.sweeps);
            if record.converged {
                registry.counter("train.types_converged").inc();
                registry
                    .counter(&format!("train.convergence_sweeps.{label}"))
                    .add(record.sweeps);
            }
        }
        self.telemetry.emit(
            &Event::new("training_finished")
                .with("error_type", label)
                .with("sweeps", record.sweeps)
                .with("converged", record.converged)
                .with("at_ms", self.telemetry.elapsed_ms()),
        );
    }

    fn platform_replay(&self, cured: bool, actual_cost: f64, from_log: bool) {
        let _ = actual_cost;
        self.count_attempts(1, u64::from(cured), u64::from(from_log));
    }

    fn replay_end(&self, handled: bool, attempts: usize, total_cost: f64) {
        let _ = (attempts, total_cost);
        self.replays.inc();
        if handled {
            self.replays_handled.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.snapshot().is_none());
        {
            let span = t.span("anything");
            assert!(span.path().is_none());
        }
        let obs = t.observer();
        let mut record = TrainingRecord::new("type0".into(), 1);
        obs.training_started(&mut record);
        let sample = SweepSample {
            sweep: 1,
            temperature: 1.0,
            max_q_delta: 0.5,
        };
        record.sweep(sample, 0, false);
        obs.training_finished(&record);
        obs.platform_replay(true, 10.0, false);
        assert!(t.snapshot().is_none());
        assert!(t.observer_handle().record("type0".into(), 1).is_none());
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let t = Telemetry::new();
        {
            let outer = t.span("pipeline");
            assert_eq!(outer.path(), Some("pipeline"));
            {
                let inner = t.span("train");
                assert_eq!(inner.path(), Some("pipeline/train"));
            }
            // Sibling after the nested span closed: depth is restored.
            let sibling = t.span("evaluate");
            assert_eq!(sibling.path(), Some("pipeline/evaluate"));
        }
        let after = t.span("next");
        assert_eq!(after.path(), Some("next"));
        drop(after);
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.counters["span.pipeline/train.calls"], 1);
        assert_eq!(snap.histograms["span.pipeline.ms"].count, 1);
    }

    #[test]
    fn observer_hooks_land_in_the_registry() {
        let t = Telemetry::new();
        let obs = t.observer_handle();
        let mut record = obs.record("type3".into(), 25).expect("enabled");
        for sweep in 1..=5u64 {
            record.episode(3, 120.0);
            let sample = SweepSample {
                sweep,
                temperature: 300_000.0 / sweep as f64,
                max_q_delta: 10.0 / sweep as f64,
            };
            record.sweep(sample, sweep, false);
            // One training attempt per sweep, tallied in the record.
            record.replays.attempt(sweep % 2 == 0, sweep == 1);
        }
        record.converged = true;
        // Nothing reaches the registry before the flush.
        assert_eq!(t.snapshot().unwrap().counters["train.sweeps"], 0);
        obs.training_finished(&record);
        obs.platform_replay(true, 120.0, true);
        obs.platform_replay(false, 30.0, false);
        obs.replay_end(true, 2, 99.0);
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.counters["train.sweeps"], 5);
        assert_eq!(snap.counters["train.episodes"], 5);
        assert_eq!(snap.counters["train.episode_steps"], 15);
        assert_eq!(snap.counters["train.sweeps.type3"], 5);
        assert_eq!(snap.counters["train.types_converged"], 1);
        assert_eq!(snap.counters["train.convergence_checks"], 5);
        assert_eq!(snap.counters["train.types_started"], 1);
        // Five training attempts from the record plus two evaluation
        // replays through the hook.
        assert_eq!(snap.counters["platform.attempts"], 7);
        assert_eq!(snap.counters["platform.cost_cache.hit"], 2);
        assert_eq!(snap.counters["platform.cost_cache.miss"], 5);
        assert_eq!(snap.counters["platform.cured"], 3);
        assert_eq!(snap.counters["platform.failed"], 4);
        assert_eq!(snap.counters["platform.replays"], 1);
        assert_eq!(snap.gauges["train.temperature"], 60_000.0);
        assert_eq!(snap.gauges["train.max_q_delta"], 2.0);
        assert!(
            !snap.gauges.contains_key("train.last_calm_sweeps"),
            "the window never fired"
        );
    }

    #[test]
    fn events_stream_to_the_sink_as_jsonl() {
        use std::sync::{Mutex, OnceLock};
        static BUF: OnceLock<Arc<Mutex<Vec<u8>>>> = OnceLock::new();
        let buf = BUF.get_or_init(|| Arc::new(Mutex::new(Vec::new()))).clone();

        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let t = Telemetry::with_sink(JsonlSink::from_writer(Box::new(SharedBuf(buf.clone()))));
        drop(t.span("stage"));
        t.finish();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "span event + trace event + snapshot: {text}"
        );
        assert!(lines[0].starts_with("{\"type\":\"span\",\"name\":\"stage\""));
        assert!(lines[0].contains("\"trace\":1"), "{}", lines[0]);
        assert!(
            lines[1].starts_with("{\"type\":\"trace\",\"trace\":1,\"root\":\"stage\",\"spans\":1"),
            "{}",
            lines[1]
        );
        assert!(lines[2].starts_with("{\"type\":\"snapshot\""));
        assert!(lines[2].contains("\"span.stage.calls\":1"));
    }

    #[test]
    fn worker_spans_from_pool_threads_build_one_deterministic_tree() {
        let t = Telemetry::new();
        {
            let root = t.span("ingest");
            assert_eq!(root.trace_id(), Some(1));
            let ctx = t.trace_context().expect("root span is open");
            let handles: Vec<_> = (0..4u64)
                .map(|rank| {
                    let t = t.clone();
                    std::thread::spawn(move || {
                        let span = t.worker_span(Some(&ctx), "shard", rank);
                        assert_eq!(span.path(), Some("ingest/shard"));
                        assert_eq!(span.trace_id(), Some(1));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        let tree = t.trace_tree(1).expect("finished root is retained");
        assert_eq!(tree.skeleton(), t.last_trace().unwrap().skeleton());
        assert_eq!(tree.span_count(), 5);
        assert_eq!(tree.root.name, "ingest");
        assert_eq!(tree.root.children.len(), 4);
        // Histograms record under the nested path even from workers.
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters["span.ingest/shard.calls"], 4);
    }

    #[test]
    fn a_poisoned_tracing_plane_recovers_instead_of_cascading() {
        let t = Telemetry::new();
        // Poison the recorder's mutex by panicking mid-span on another
        // thread (the unwind drops the span guard while the lock is not
        // held, so we panic while *holding* it via a scoped hook: the
        // simplest reliable poisoning is to panic inside the thread with
        // an open span — its Drop runs during the unwind and the trace
        // plane must absorb whatever state that leaves behind).
        let clone = t.clone();
        let _ = std::thread::spawn(move || {
            let _span = clone.span("doomed");
            panic!("injected: observed stage dies mid-span");
        })
        .join();
        // The driver keeps tracing: spans still open, close, and finish
        // whole trees without panicking on a poisoned lock.
        {
            let root = t.span("after");
            assert_eq!(root.path(), Some("after"));
        }
        assert_eq!(t.last_trace().unwrap().root.name, "after");
    }
}
