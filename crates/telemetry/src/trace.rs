//! Request-scoped trace trees: every root [`crate::Span`] opens a trace,
//! nested spans — including spans recorded on worker-pool threads with a
//! propagated [`TraceContext`] — become its children, and the finished
//! tree is collected in a bounded ring where `GET /trace/<id>` and the
//! `trace` bus event can find it.
//!
//! # Determinism contract
//!
//! Span *arrival order* is nondeterministic when workers record
//! concurrently, so nothing structural may depend on it. Instead every
//! span carries a **rank**: sibling spans created on the owning thread
//! rank by creation sequence (single-threaded, deterministic), and
//! worker spans carry their work-item index as an explicit rank — the
//! same rank-order idea the trainer uses to merge per-type Q-fragments.
//! At collection time children are sorted by `(rank, name)` and span ids
//! are renumbered depth-first, so two runs of the same seeded pipeline
//! produce byte-identical [`TraceTree::skeleton`]s at any thread count.
//! Wall-clock durations live only in the `ms` fields, which the skeleton
//! deliberately omits.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How many finished trace trees the recorder retains (oldest evicted).
pub const TRACE_RING_CAPACITY: usize = 64;

/// Recovers from mutex poisoning instead of propagating the panic: the
/// recorder's state is a bag of monotonic bookkeeping that is never left
/// half-updated across an unwind boundary, so the inner value stays
/// valid.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A capturable reference to the current span, for handing trace
/// identity across threads: the driver captures it next to a worker-pool
/// fan-out and each worker opens its span as a child of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub(crate) trace: u64,
    pub(crate) slot: usize,
}

/// One span being recorded inside an unfinished trace.
#[derive(Debug)]
struct ActiveSpan {
    name: String,
    parent: Option<usize>,
    /// Deterministic sibling-ordering key: the creation sequence for
    /// same-thread children, the work-item index for worker spans.
    rank: u64,
    /// Number of children handed out so far (the next implicit rank).
    child_seq: u64,
    /// Full `a/b/c` path, for the span's histogram/counter names.
    path: String,
    ms: f64,
}

#[derive(Debug)]
struct ActiveTrace {
    spans: Vec<ActiveSpan>,
}

#[derive(Debug, Default)]
struct TraceState {
    active: HashMap<u64, ActiveTrace>,
    finished: VecDeque<TraceTree>,
    next_trace: u64,
}

thread_local! {
    /// The calling thread's open spans, innermost last, as
    /// `(recorder, trace, slot)`: each thread's "current span" under
    /// every recorder, kept by the thread itself.
    static OPEN_SPANS: RefCell<Vec<(u64, u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Source of [`TraceRecorder`] ids.
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

/// The trace-tree recorder owned by an enabled `Telemetry` handle.
#[derive(Debug)]
pub(crate) struct TraceRecorder {
    /// Tells this recorder's entries in [`OPEN_SPANS`] from others'.
    id: u64,
    state: Mutex<TraceState>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            state: Mutex::default(),
        }
    }
}

/// What [`TraceRecorder::begin_span`] hands back to the span guard.
#[derive(Debug, Clone)]
pub(crate) struct SpanTicket {
    pub(crate) trace: u64,
    pub(crate) slot: usize,
    pub(crate) path: String,
}

impl TraceRecorder {
    /// Opens a span. With an explicit `ctx` (worker spans) the parent is
    /// the captured span and `rank` must be the work-item index;
    /// otherwise the parent is the current thread's innermost open span,
    /// and a thread with no open span roots a fresh trace. The span
    /// becomes the calling thread's innermost open span unless it is
    /// `handed_off` to be closed on another thread.
    pub(crate) fn begin_span(
        &self,
        name: &str,
        ctx: Option<TraceContext>,
        rank: Option<u64>,
        handed_off: bool,
    ) -> SpanTicket {
        let parent = match ctx {
            Some(ctx) => Some((ctx.trace, ctx.slot)),
            None => self.innermost(),
        };
        let mut state = lock_clean(&self.state);
        let ticket = match parent {
            Some((trace, parent_slot)) if state.active.contains_key(&trace) => {
                let spans = &mut state.active.get_mut(&trace).expect("checked above").spans;
                let rank = rank.unwrap_or_else(|| {
                    let next = spans[parent_slot].child_seq;
                    spans[parent_slot].child_seq += 1;
                    next
                });
                let path = format!("{}/{name}", spans[parent_slot].path);
                spans.push(ActiveSpan {
                    name: name.to_string(),
                    parent: Some(parent_slot),
                    rank,
                    child_seq: 0,
                    path: path.clone(),
                    ms: 0.0,
                });
                SpanTicket {
                    trace,
                    slot: spans.len() - 1,
                    path,
                }
            }
            _ => {
                state.next_trace += 1;
                let trace = state.next_trace;
                state.active.insert(
                    trace,
                    ActiveTrace {
                        spans: vec![ActiveSpan {
                            name: name.to_string(),
                            parent: None,
                            rank: 0,
                            child_seq: 0,
                            path: name.to_string(),
                            ms: 0.0,
                        }],
                    },
                );
                SpanTicket {
                    trace,
                    slot: 0,
                    path: name.to_string(),
                }
            }
        };
        drop(state);
        if !handed_off {
            OPEN_SPANS.with(|open| open.borrow_mut().push((self.id, ticket.trace, ticket.slot)));
        }
        ticket
    }

    /// The calling thread's innermost open span under this recorder.
    fn innermost(&self) -> Option<(u64, usize)> {
        OPEN_SPANS.with(|open| {
            open.borrow()
                .iter()
                .rev()
                .find(|&&(recorder, _, _)| recorder == self.id)
                .map(|&(_, trace, slot)| (trace, slot))
        })
    }

    /// Records the current `(trace, slot)` of the calling thread, if any.
    pub(crate) fn current_context(&self) -> Option<TraceContext> {
        self.innermost()
            .map(|(trace, slot)| TraceContext { trace, slot })
    }

    /// Closes a span. Returns the finished tree when this was the root:
    /// the tree is also retained in the ring for `/trace/<id>` lookups.
    pub(crate) fn end_span(&self, ticket: &SpanTicket, ms: f64) -> Option<TraceTree> {
        // `try_with`: a span dropped while the thread's locals are torn
        // down has no stack left to leave.
        let _ = OPEN_SPANS.try_with(|open| {
            let mut open = open.borrow_mut();
            let entry = (self.id, ticket.trace, ticket.slot);
            if let Some(pos) = open.iter().rposition(|&e| e == entry) {
                open.remove(pos);
            }
        });
        let mut state = lock_clean(&self.state);
        let Some(active) = state.active.get_mut(&ticket.trace) else {
            return None; // trace already finished (e.g. a leaked child)
        };
        active.spans[ticket.slot].ms = ms;
        if ticket.slot != 0 {
            return None;
        }
        // The root closed: with RAII guards every child has closed first
        // (worker spans close before the fan-out returns), so collect.
        let active = state
            .active
            .remove(&ticket.trace)
            .expect("present: just mutated");
        // Trees are kept in trace-id order, the order their roots opened
        // in: a root closed on another thread than the one that opened it
        // still lands where it would have had it closed in place.
        let tree = build_tree(ticket.trace, &active.spans);
        let at = state.finished.partition_point(|t| t.trace < tree.trace);
        state.finished.insert(at, tree.clone());
        while state.finished.len() > TRACE_RING_CAPACITY {
            state.finished.pop_front();
        }
        Some(tree)
    }

    /// The finished tree with this trace id, if still retained.
    pub(crate) fn tree(&self, trace: u64) -> Option<TraceTree> {
        let state = lock_clean(&self.state);
        state.finished.iter().find(|t| t.trace == trace).cloned()
    }

    /// The retained finished tree with the highest trace id, if any.
    pub(crate) fn last_tree(&self) -> Option<TraceTree> {
        let state = lock_clean(&self.state);
        state.finished.back().cloned()
    }

    /// All retained finished trees, in trace-id order.
    pub(crate) fn trees(&self) -> Vec<TraceTree> {
        let state = lock_clean(&self.state);
        state.finished.iter().cloned().collect()
    }
}

/// Collects the flat span slots of one finished trace into the
/// deterministic tree: children sorted by `(rank, name)`, ids renumbered
/// depth-first from 1 so they never depend on arrival order.
fn build_tree(trace: u64, spans: &[ActiveSpan]) -> TraceTree {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (slot, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(slot);
        }
    }
    for kids in &mut children {
        kids.sort_by(|&a, &b| {
            (spans[a].rank, spans[a].name.as_str()).cmp(&(spans[b].rank, spans[b].name.as_str()))
        });
    }
    let mut next_id = 0u64;
    let root = materialize(0, spans, &children, &mut next_id);
    TraceTree { trace, root }
}

fn materialize(
    slot: usize,
    spans: &[ActiveSpan],
    children: &[Vec<usize>],
    next_id: &mut u64,
) -> TraceNode {
    *next_id += 1;
    let id = *next_id;
    let kids = children[slot]
        .iter()
        .map(|&child| materialize(child, spans, children, next_id))
        .collect();
    TraceNode {
        id,
        name: spans[slot].name.clone(),
        ms: spans[slot].ms,
        children: kids,
    }
}

/// One span of a finished [`TraceTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// Depth-first span id within the tree (root = 1), assigned at
    /// collection so it is independent of arrival order.
    pub id: u64,
    /// The span name as passed to `Telemetry::span`/`worker_span`.
    pub name: String,
    /// Wall-clock duration in milliseconds.
    pub ms: f64,
    /// Child spans, in deterministic `(rank, name)` order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    fn count(&self) -> u64 {
        1 + self.children.iter().map(TraceNode::count).sum::<u64>()
    }

    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"id\":{},\"name\":", self.id);
        crate::event::write_json_str(out, &self.name);
        let _ = write!(out, ",\"ms\":{:?},\"children\":[", finite(self.ms));
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.write_json(out);
        }
        out.push_str("]}");
    }

    fn write_profile(&self, depth: usize, total_ms: f64, out: &mut String) {
        use std::fmt::Write as _;
        let label = format!("{}{}", "  ".repeat(depth), self.name);
        let share = if total_ms > 0.0 {
            100.0 * self.ms / total_ms
        } else {
            0.0
        };
        let _ = writeln!(out, "{label:<40} {:>10.3}ms {share:>5.1}%", self.ms);
        for child in &self.children {
            child.write_profile(depth + 1, total_ms, out);
        }
    }

    fn write_skeleton(&self, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(out, "{}#{} {}", "  ".repeat(depth), self.id, self.name);
        for child in &self.children {
            child.write_skeleton(depth + 1, out);
        }
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One finished, deterministically collected trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// The trace id (allocation order of root spans on this handle).
    pub trace: u64,
    /// The root span with its nested children.
    pub root: TraceNode,
}

impl TraceTree {
    /// Total number of spans in the tree.
    pub fn span_count(&self) -> u64 {
        self.root.count()
    }

    /// The tree as one nested JSON object (`/trace/<id>` body).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"type\":\"trace_tree\",\"trace\":{},\"spans\":{},\"root\":",
            self.trace,
            self.span_count()
        );
        self.root.write_json(&mut out);
        out.push('}');
        out
    }

    /// A flamegraph-style indented text profile with durations and the
    /// share of the root span's wall time (`/trace/<id>/profile` body).
    pub fn profile_text(&self) -> String {
        let mut out = format!(
            "trace {} · {} · {} spans · {:.3}ms\n",
            self.trace,
            self.root.name,
            self.span_count(),
            self.root.ms
        );
        self.root.write_profile(0, self.root.ms, &mut out);
        out
    }

    /// The wall-clock-free structural rendering — indented `#id name`
    /// lines — that is byte-identical across thread counts for the same
    /// seeded run. This is the determinism contract's comparison key.
    pub fn skeleton(&self) -> String {
        let mut out = String::new();
        self.root.write_skeleton(0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_children_collect_in_rank_order_not_arrival_order() {
        let recorder = TraceRecorder::default();
        let root = recorder.begin_span("fanout", None, None, false);
        let ctx = recorder.current_context();
        // Simulate workers finishing out of order: ranks 2, 0, 1.
        for rank in [2u64, 0, 1] {
            let ticket = recorder.begin_span("shard", ctx, Some(rank), false);
            assert_eq!(ticket.path, "fanout/shard");
            recorder.end_span(&ticket, rank as f64);
        }
        let tree = recorder
            .end_span(&root, 9.0)
            .expect("root closes the trace");
        assert_eq!(tree.span_count(), 4);
        let ranks: Vec<f64> = tree.root.children.iter().map(|c| c.ms).collect();
        assert_eq!(ranks, vec![0.0, 1.0, 2.0], "children must sort by rank");
        let ids: Vec<u64> = tree.root.children.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![2, 3, 4], "depth-first renumbering from the root");
    }

    #[test]
    fn cross_thread_worker_spans_join_the_driver_trace() {
        let recorder = std::sync::Arc::new(TraceRecorder::default());
        let root = recorder.begin_span("pool", None, None, false);
        let ctx = recorder.current_context();
        let handles: Vec<_> = (0..4u64)
            .map(|rank| {
                let recorder = recorder.clone();
                std::thread::spawn(move || {
                    let ticket = recorder.begin_span("item", ctx, Some(rank), false);
                    // Worker-local nesting stays on the worker's stack.
                    let inner = recorder.begin_span("step", None, None, false);
                    assert_eq!(inner.path, "pool/item/step");
                    recorder.end_span(&inner, 0.0);
                    recorder.end_span(&ticket, 0.0);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let tree = recorder.end_span(&root, 1.0).expect("root finishes");
        assert_eq!(tree.span_count(), 9);
        assert_eq!(tree.root.children.len(), 4);
        for child in &tree.root.children {
            assert_eq!(child.name, "item");
            assert_eq!(child.children.len(), 1);
            assert_eq!(child.children[0].name, "step");
        }
        // The driver thread's stack is clean again: a new span roots a
        // fresh trace.
        let next = recorder.begin_span("next", None, None, false);
        assert_eq!(next.path, "next");
        recorder.end_span(&next, 0.0);
    }

    #[test]
    fn skeleton_is_wall_clock_free_and_json_nests() {
        let recorder = TraceRecorder::default();
        let root = recorder.begin_span("a", None, None, false);
        let child = recorder.begin_span("b", None, None, false);
        recorder.end_span(&child, 123.456);
        let tree = recorder.end_span(&root, 200.0).unwrap();
        assert_eq!(tree.skeleton(), "#1 a\n  #2 b\n");
        let json = tree.to_json();
        assert!(json.starts_with("{\"type\":\"trace_tree\",\"trace\":1,\"spans\":2,"));
        assert!(json.contains("\"name\":\"b\""), "{json}");
        assert!(tree.profile_text().contains("trace 1 · a · 2 spans"));
        assert!(recorder.tree(1).is_some());
        assert_eq!(recorder.last_tree().unwrap().trace, 1);
    }

    #[test]
    fn handed_off_spans_keep_their_slot_and_their_place_in_the_ring() {
        let recorder = std::sync::Arc::new(TraceRecorder::default());
        // Under a parent: the handed-off span takes the next rank but
        // does not become the parent of the spans opened after it.
        let root = recorder.begin_span("loop", None, None, false);
        let moved = recorder.begin_span("moved", None, None, true);
        let after = recorder.begin_span("after", None, None, false);
        assert_eq!(after.path, "loop/after");
        recorder.end_span(&after, 0.0);
        let remote = recorder.clone();
        std::thread::spawn(move || remote.end_span(&moved, 0.0))
            .join()
            .unwrap();
        let tree = recorder.end_span(&root, 1.0).expect("root closes");
        assert_eq!(tree.skeleton(), "#1 loop\n  #2 moved\n  #3 after\n");
        // As a root: it finishes last but is listed where it opened.
        let moved = recorder.begin_span("moved", None, None, true);
        let next = recorder.begin_span("next", None, None, false);
        assert_eq!(next.path, "next", "a handed-off root is no parent");
        recorder.end_span(&next, 0.0);
        let remote = recorder.clone();
        std::thread::spawn(move || remote.end_span(&moved, 0.0))
            .join()
            .unwrap();
        let names: Vec<String> = recorder.trees().into_iter().map(|t| t.root.name).collect();
        assert_eq!(names, ["loop", "moved", "next"]);
    }

    #[test]
    fn ring_evicts_oldest_traces() {
        let recorder = TraceRecorder::default();
        for _ in 0..(TRACE_RING_CAPACITY + 5) {
            let t = recorder.begin_span("x", None, None, false);
            recorder.end_span(&t, 0.0);
        }
        assert_eq!(recorder.trees().len(), TRACE_RING_CAPACITY);
        assert!(recorder.tree(1).is_none(), "oldest must be evicted");
        assert!(recorder.tree(5).is_none());
        assert!(recorder.tree(6).is_some());
    }
}
