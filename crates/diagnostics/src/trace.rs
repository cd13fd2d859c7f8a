//! Per-error-type convergence traces, built from the
//! [`TrainingRecord`] each trained type hands its observers.
//!
//! The worker training a type fills that type's record and hands it over
//! once, at `training_finished`, so a trace never depends on which
//! thread trained which type: because a type's record is a pure function
//! of the master seed, the finished traces are byte-identical for any
//! `--threads` count. Finished traces are stored keyed by type label (a
//! `BTreeMap`, so iteration order is deterministic too); consumers that
//! need the paper's frequency-rank order pull labels in rank order,
//! mirroring how Q-table fragments are merged.
//!
//! Replay hooks — test-set evaluation through `evaluate[_parallel]`;
//! training attempts are tallied in the records — are folded into global
//! integer counters: exact sums, so they too are thread-count
//! independent. No wall-clock quantity is ever recorded: unlike
//! telemetry events (which carry `at_ms`), everything here must be
//! reproducible bit for bit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use recovery_telemetry::{ObserverHandle, TrainingObserver, TrainingRecord};

use crate::json::Json;

/// Default maximum number of kept points per downsampled curve.
pub const DEFAULT_CURVE_POINTS: usize = 64;

/// Exact quantiles of the per-episode downtime costs of one type's
/// training run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostQuantiles {
    /// Number of episodes observed.
    pub episodes: u64,
    /// Smallest episode cost.
    pub min: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest episode cost.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl CostQuantiles {
    fn from_costs(costs: &[f64]) -> CostQuantiles {
        if costs.is_empty() {
            return CostQuantiles::default();
        }
        let mut sorted = costs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("episode costs are finite"));
        let q = |p: f64| {
            let i = ((sorted.len() - 1) as f64 * p).floor() as usize;
            sorted[i]
        };
        // Summing in episode order keeps the mean identical to what a
        // sequential run computes.
        let sum: f64 = costs.iter().sum();
        CostQuantiles {
            episodes: costs.len() as u64,
            min: sorted[0],
            p10: q(0.10),
            p50: q(0.50),
            p90: q(0.90),
            max: sorted[sorted.len() - 1],
            mean: sum / costs.len() as f64,
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .field("episodes", self.episodes)
            .field("min", self.min)
            .field("p10", self.p10)
            .field("p50", self.p50)
            .field("p90", self.p90)
            .field("max", self.max)
            .field("mean", self.mean)
    }
}

/// The finished convergence record of one error type's training run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// The type label (`type<N>`, see `OfflineTrainer::type_label`).
    pub label: String,
    /// Training processes the type was trained on.
    pub processes: usize,
    /// Total sweeps run.
    pub sweeps: u64,
    /// Whether the convergence window fired before the sweep cap.
    pub converged: bool,
    /// Max Q-delta of the final sweep.
    pub final_q_delta: f64,
    /// Length of the calm streak at the last convergence check.
    pub last_calm_sweeps: u64,
    /// Downsampled `(sweep, max Q-delta)` curve.
    pub q_delta_curve: Vec<(u64, f64)>,
    /// Downsampled `(sweep, temperature)` schedule.
    pub temperature_curve: Vec<(u64, f64)>,
    /// Exact quantiles of per-episode downtime costs.
    pub episode_costs: CostQuantiles,
    /// Total episode steps taken.
    pub episode_steps: u64,
    /// Longest episode, in steps.
    pub max_episode_steps: u64,
    /// Simulated repair attempts replayed while training this type.
    pub replay_attempts: u64,
    /// How many of those attempts cured the fault.
    pub replay_cured: u64,
    /// Attempts whose cost came from the logged occurrence (cache hit).
    pub replay_from_log: u64,
}

impl ConvergenceTrace {
    /// `"converged"` when the convergence window fired, `"capped"` when
    /// training stopped at the sweep cap.
    pub fn verdict(&self) -> &'static str {
        if self.converged {
            "converged"
        } else {
            "capped"
        }
    }

    /// The trace as a JSON subtree of the run report.
    pub fn to_json(&self) -> Json {
        let curve = |points: &[(u64, f64)]| {
            Json::Arr(
                points
                    .iter()
                    .map(|&(sweep, v)| Json::Arr(vec![Json::U64(sweep), Json::F64(v)]))
                    .collect(),
            )
        };
        Json::obj()
            .field("label", self.label.as_str())
            .field("processes", self.processes)
            .field("sweeps", self.sweeps)
            .field("verdict", self.verdict())
            .field("final_q_delta", self.final_q_delta)
            .field("last_calm_sweeps", self.last_calm_sweeps)
            .field("q_delta_curve", curve(&self.q_delta_curve))
            .field("temperature_curve", curve(&self.temperature_curve))
            .field("episode_costs", self.episode_costs.to_json())
            .field(
                "episode_steps",
                Json::obj()
                    .field("total", self.episode_steps)
                    .field("max", self.max_episode_steps),
            )
            .field(
                "replay",
                Json::obj()
                    .field("attempts", self.replay_attempts)
                    .field("cured", self.replay_cured)
                    .field("from_log", self.replay_from_log),
            )
    }
}

impl ConvergenceTrace {
    /// The trace of one finished training record.
    pub fn from_record(record: &TrainingRecord) -> ConvergenceTrace {
        let curves = record.curves.as_ref();
        ConvergenceTrace {
            label: record.label.clone(),
            processes: record.processes,
            sweeps: record.sweeps,
            converged: record.converged,
            final_q_delta: record.final_q_delta,
            last_calm_sweeps: record.last_calm_sweeps,
            q_delta_curve: curves.map_or(Vec::new(), |c| c.q_delta.points().to_vec()),
            temperature_curve: curves.map_or(Vec::new(), |c| c.temperature.points().to_vec()),
            episode_costs: CostQuantiles::from_costs(curves.map_or(&[], |c| &c.episode_costs)),
            episode_steps: record.episode_steps,
            max_episode_steps: record.max_episode_steps,
            replay_attempts: record.replays.attempts,
            replay_cured: record.replays.cured,
            replay_from_log: record.replays.from_log,
        }
    }
}

/// Deterministic totals of evaluation replay activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Simulated repair attempts.
    pub attempts: u64,
    /// Attempts that cured the fault.
    pub cured: u64,
    /// Attempts charged a logged (rather than averaged) cost.
    pub from_log: u64,
    /// Full policy replays.
    pub replays: u64,
    /// Replays handled within the attempt cap.
    pub handled: u64,
}

impl ReplaySummary {
    /// The summary as a JSON subtree.
    pub fn to_json(self) -> Json {
        Json::obj()
            .field("attempts", self.attempts)
            .field("cured", self.cured)
            .field("from_log", self.from_log)
            .field("replays", self.replays)
            .field("handled", self.handled)
    }
}

/// A [`TrainingObserver`] that turns each finished [`TrainingRecord`]
/// into a [`ConvergenceTrace`] and counts evaluation replays.
///
/// Purely observational: it never touches the RNG and the pipeline's
/// results are byte-identical with or without it attached (locked by
/// `tests/telemetry.rs`). Attach it alongside the telemetry observer via
/// [`ObserverHandle::fanout`].
#[derive(Debug, Default)]
pub struct DiagnosticsRecorder {
    curve_points: usize,
    finished: Mutex<BTreeMap<String, Vec<ConvergenceTrace>>>,
    eval_attempts: AtomicU64,
    eval_cured: AtomicU64,
    eval_from_log: AtomicU64,
    replays: AtomicU64,
    replays_handled: AtomicU64,
}

impl DiagnosticsRecorder {
    /// A recorder with the default curve resolution, ready to share.
    pub fn new() -> Arc<Self> {
        Self::with_curve_points(DEFAULT_CURVE_POINTS)
    }

    /// A recorder keeping at most `points` samples per curve.
    pub fn with_curve_points(points: usize) -> Arc<Self> {
        Arc::new(DiagnosticsRecorder {
            curve_points: points,
            ..DiagnosticsRecorder::default()
        })
    }

    /// An [`ObserverHandle`] forwarding to this recorder.
    pub fn handle(self: &Arc<Self>) -> ObserverHandle {
        ObserverHandle::attached(self.clone())
    }

    /// The first finished trace recorded under `label`, if any. (The
    /// sweep-comparison experiment trains a type twice — standard then
    /// tree — in which case the label holds both traces in that order;
    /// see [`DiagnosticsRecorder::traces`].)
    pub fn trace(&self, label: &str) -> Option<ConvergenceTrace> {
        self.finished
            .lock()
            .expect("trace store poisoned")
            .get(label)
            .and_then(|v| v.first())
            .cloned()
    }

    /// All finished traces, keyed by type label, in label order.
    pub fn traces(&self) -> BTreeMap<String, Vec<ConvergenceTrace>> {
        self.finished.lock().expect("trace store poisoned").clone()
    }

    /// Totals of the replay hooks, i.e. test-set evaluation activity.
    pub fn replay_summary(&self) -> ReplaySummary {
        ReplaySummary {
            attempts: self.eval_attempts.load(Ordering::Relaxed),
            cured: self.eval_cured.load(Ordering::Relaxed),
            from_log: self.eval_from_log.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            handled: self.replays_handled.load(Ordering::Relaxed),
        }
    }
}

impl TrainingObserver for DiagnosticsRecorder {
    fn training_started(&self, record: &mut TrainingRecord) {
        record.keep_curves(self.curve_points);
    }

    fn training_finished(&self, record: &TrainingRecord) {
        let trace = ConvergenceTrace::from_record(record);
        self.finished
            .lock()
            .expect("trace store poisoned")
            .entry(trace.label.clone())
            .or_default()
            .push(trace);
    }

    fn platform_replay(&self, cured: bool, actual_cost: f64, from_log: bool) {
        let _ = actual_cost;
        self.eval_attempts.fetch_add(1, Ordering::Relaxed);
        if cured {
            self.eval_cured.fetch_add(1, Ordering::Relaxed);
        }
        if from_log {
            self.eval_from_log.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn replay_end(&self, handled: bool, attempts: usize, total_cost: f64) {
        let _ = (attempts, total_cost);
        self.replays.fetch_add(1, Ordering::Relaxed);
        if handled {
            self.replays_handled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_telemetry::{Downsampler, SweepSample};

    /// Starts a record for `label` the way a trainer does: announced
    /// through the recorder's handle, which asks for curves.
    fn start(recorder: &Arc<DiagnosticsRecorder>, label: &str, processes: usize) -> TrainingRecord {
        recorder
            .handle()
            .record(label.to_string(), processes)
            .expect("attached")
    }

    #[test]
    fn downsampler_is_deterministic_and_bounded() {
        let mut d = Downsampler::new(8);
        for i in 1..=1_000u64 {
            d.push(i, i as f64);
        }
        let curve = d.points().to_vec();
        assert!(curve.len() < 16, "kept {} points", curve.len());
        // First sample always survives; indices stay strictly increasing.
        assert_eq!(curve[0], (1, 1.0));
        assert!(curve.windows(2).all(|w| w[0].0 < w[1].0));
        // Replaying the same stream reproduces the same curve.
        let mut d2 = Downsampler::new(8);
        for i in 1..=1_000u64 {
            d2.push(i, i as f64);
        }
        assert_eq!(d2.points(), curve.as_slice());
    }

    #[test]
    fn quantiles_of_known_sequence() {
        let costs: Vec<f64> = (1..=100).map(f64::from).collect();
        let q = CostQuantiles::from_costs(&costs);
        assert_eq!(q.episodes, 100);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.max, 100.0);
        assert_eq!(q.p50, 50.0);
        assert_eq!(q.p10, 10.0);
        assert_eq!(q.p90, 90.0);
        assert!((q.mean - 50.5).abs() < 1e-12);
        assert_eq!(CostQuantiles::from_costs(&[]), CostQuantiles::default());
    }

    #[test]
    fn bracketed_hooks_build_a_trace() {
        let recorder = DiagnosticsRecorder::new();
        let mut record = start(&recorder, "type3", 25);
        for sweep in 1..=5u64 {
            record.episode(3, 120.0 * sweep as f64);
            let sample = SweepSample {
                sweep,
                temperature: 300_000.0 / sweep as f64,
                max_q_delta: 10.0 / sweep as f64,
            };
            record.sweep(sample, sweep, false);
        }
        record.replays.attempt(true, true);
        record.converged = true;
        recorder.handle().training_finished(&record);

        let trace = recorder.trace("type3").expect("trace recorded");
        assert_eq!(trace.processes, 25);
        assert_eq!(trace.sweeps, 5);
        assert_eq!(trace.verdict(), "converged");
        assert_eq!(trace.final_q_delta, 2.0);
        assert_eq!(trace.last_calm_sweeps, 5);
        assert_eq!(trace.episode_steps, 15);
        assert_eq!(trace.max_episode_steps, 3);
        assert_eq!(trace.episode_costs.episodes, 5);
        assert_eq!(trace.replay_attempts, 1);
        assert_eq!(trace.replay_from_log, 1);
        assert_eq!(trace.q_delta_curve.len(), 5);
        assert_eq!(trace.temperature_curve[0], (1, 300_000.0));
        // Training attempts live in the trace, not the evaluation totals.
        assert_eq!(recorder.replay_summary(), ReplaySummary::default());
    }

    #[test]
    fn unbracketed_replays_count_as_evaluation() {
        let recorder = DiagnosticsRecorder::new();
        let obs = recorder.handle();
        obs.platform_replay(true, 50.0, false);
        obs.platform_replay(false, 10.0, true);
        obs.replay_end(true, 2, 60.0);
        let summary = recorder.replay_summary();
        assert_eq!(summary.attempts, 2);
        assert_eq!(summary.cured, 1);
        assert_eq!(summary.from_log, 1);
        assert_eq!(summary.replays, 1);
        assert_eq!(summary.handled, 1);
        assert!(recorder.traces().is_empty());
    }

    #[test]
    fn chunked_restarts_keep_one_monotone_sweep_axis() {
        // The selection-tree accelerator calls the driver in chunks, each
        // counting its own sweeps from 1; the one record of the type
        // counts on across them.
        let recorder = DiagnosticsRecorder::new();
        let mut record = start(&recorder, "type0", 4);
        for _chunk in 0..3 {
            for sweep in 1..=2u64 {
                let sample = SweepSample {
                    sweep,
                    temperature: 1e9,
                    max_q_delta: 0.5,
                };
                record.sweep(sample, 0, false);
            }
        }
        recorder.handle().training_finished(&record);
        let trace = recorder.trace("type0").expect("trace recorded");
        assert_eq!(trace.sweeps, 6);
        assert_eq!(trace.verdict(), "capped");
        let axis: Vec<u64> = trace.q_delta_curve.iter().map(|&(s, _)| s).collect();
        assert_eq!(axis, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn concurrent_types_attribute_to_their_own_thread() {
        // Each worker owns its type's record, so concurrent types cannot
        // mix their numbers whichever thread trains them.
        let recorder = DiagnosticsRecorder::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let recorder = recorder.clone();
                scope.spawn(move || {
                    let mut record = start(&recorder, &format!("type{t}"), t as usize + 1);
                    for sweep in 1..=u64::from(t) + 1 {
                        let sample = SweepSample {
                            sweep,
                            temperature: 100.0,
                            max_q_delta: f64::from(t),
                        };
                        record.sweep(sample, 0, false);
                    }
                    record.converged = true;
                    recorder.handle().training_finished(&record);
                });
            }
        });
        let traces = recorder.traces();
        assert_eq!(traces.len(), 4);
        for t in 0..4u64 {
            let trace = &traces[&format!("type{t}")][0];
            assert_eq!(trace.sweeps, t + 1, "type{t}");
            assert_eq!(trace.final_q_delta, t as f64, "type{t}");
        }
    }

    #[test]
    fn double_training_of_one_label_keeps_both_traces_in_order() {
        let recorder = DiagnosticsRecorder::new();
        for sweeps in [3u64, 1] {
            let mut record = start(&recorder, "type7", 9);
            for sweep in 1..=sweeps {
                let sample = SweepSample {
                    sweep,
                    temperature: 1.0,
                    max_q_delta: 0.0,
                };
                record.sweep(sample, 0, false);
            }
            recorder.handle().training_finished(&record);
        }
        let traces = recorder.traces();
        assert_eq!(traces["type7"].len(), 2);
        assert_eq!(traces["type7"][0].sweeps, 3);
        assert_eq!(traces["type7"][1].sweeps, 1);
        assert_eq!(recorder.trace("type7").unwrap().sweeps, 3);
    }
}
