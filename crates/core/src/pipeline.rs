//! The closed recovery loop of the paper's Figure 1, as an API.
//!
//! The paper's framework is cyclic: event monitoring feeds a recovery
//! log, offline policy generation learns from the log, the generated
//! policy drives error recovery, and its outcomes land back in the log.
//! [`run_continuous_loop_controlled`] runs that cycle over consecutive
//! observation windows of a (simulated) cluster:
//!
//! * **window 0** runs under the production cheapest-first policy and
//!   seeds the log;
//! * before each later window the policy is **retrained from everything
//!   accumulated so far** (noise-filtered, selection-tree accelerated)
//!   and deployed as the live controller, hybridized with the user
//!   ladder;
//! * each window reports its realized MTTR, so the improvement — and the
//!   adaptation to any drift between windows — is directly observable.
//!
//! The accumulated corpus is kept across windows: each window's sorted
//! processes are merged into it and their symptom sets pushed into one
//! symptom database, so adding a window never re-sorts, copies or
//! re-indexes the windows before it, and retraining borrows the clean
//! processes instead of copying them.
//!
//! # Pipelined windows
//!
//! Each window forks twice with [`WorkerPool::join`](crate::parallel::WorkerPool::join):
//! its journal append (render, checksum, write, fsync) runs beside its
//! split → accumulate → retrain, and once retraining has produced the
//! next policy, the next window's simulation runs beside this window's
//! health record, `window` event, publication and checkpoint. The disk
//! still sees journal w → checkpoint w → journal w+1, so every crash
//! point leaves the state it always did, and spans keep their places:
//! `journal_text` takes its slot before the split starts, and a
//! simulation's `simulate_window` span is recorded when its window uses
//! the log. A one-thread pool runs both sides of each fork in turn.
//!
//! # Degraded mode
//!
//! A continuous loop that dies on one bad window is not continuous. Each
//! window therefore records a [`WindowStatus`]: `Trained` when the full
//! simulate → ingest → retrain cycle succeeded, or
//! [`WindowStatus::FellBack`] with a typed [`FallbackReason`] when part
//! of it failed — an empty window, nothing trainable after filtering, or
//! a panic inside simulation or retraining (contained with
//! `catch_unwind`). On any fallback the loop keeps driving the **last
//! good policy** and simply tries again next window; it never aborts.
//! Fallbacks are observable through the per-window `window` event
//! (`status`/`reason` fields) and the `loop.fallbacks` /
//! `loop.fallback.<reason>` counters. Fault tests script failures into
//! the loop with [`ContinuousLoopConfig::faults`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use recovery_mpattern::TransactionDb;
use recovery_simlog::{
    stats, ClusterConfig, ClusterSim, FaultCatalog, MachineId, RecoveryLog, RecoveryProcess,
    SimDuration, SimTime, SymptomId, UserDefinedPolicy,
};
use recovery_telemetry::{Event, HealthState, ObserverHandle, Telemetry, DURATION_MS_BOUNDS};

use crate::error_type::NoiseFilter;
use crate::fault::LoopFaultPlan;
use crate::policy::{DecisionTable, HybridPolicy, LivePolicy, TrainedPolicy, UserStatePolicy};
use crate::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use crate::trainer::{OfflineTrainer, TrainerConfig};

/// Configuration of a continuous recovery loop.
#[derive(Debug, Clone)]
pub struct ContinuousLoopConfig {
    /// Number of observation windows to run (≥ 2 for any retraining to
    /// take effect).
    pub windows: usize,
    /// Cluster parameters of each window.
    pub cluster: ClusterConfig,
    /// Trainer configuration for the retraining steps.
    pub trainer: TrainerConfig,
    /// Selection-tree configuration for the retraining steps.
    pub tree: SelectionTreeConfig,
    /// Noise-filter threshold applied to the accumulated log.
    pub minp: f64,
    /// How many most-frequent error types to (re)train.
    pub top_k: usize,
    /// Master seed; each window derives its own stream.
    pub seed: u64,
    /// Worker threads for retraining within each window. With two or
    /// more, each window's journal append also runs beside its split and
    /// retraining, and the next window's simulation beside its
    /// publication and checkpoint; with one, the loop starts no thread
    /// and runs every step in turn. Policies, journals, checkpoints,
    /// events and trace skeletons are byte-identical for every value.
    pub threads: usize,
    /// Scripted faults for robustness tests ([`LoopFaultPlan::none`] in
    /// production: injects nothing, costs nothing).
    pub faults: LoopFaultPlan,
}

impl ContinuousLoopConfig {
    /// A default loop: four windows with the default trainer.
    pub fn new(cluster: ClusterConfig) -> Self {
        ContinuousLoopConfig {
            windows: 4,
            cluster,
            trainer: TrainerConfig::default(),
            tree: SelectionTreeConfig::default(),
            minp: 0.1,
            top_k: 40,
            seed: 0x100B,
            threads: crate::parallel::WorkerPool::available().threads(),
            faults: LoopFaultPlan::none(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two windows are requested (nothing would ever
    /// be retrained) or `minp` is out of range.
    pub fn validate(&self) {
        assert!(self.windows >= 2, "a loop needs at least two windows");
        assert!(
            self.minp > 0.0 && self.minp <= 1.0,
            "minp must be in (0, 1], got {}",
            self.minp
        );
        assert!(self.threads >= 1, "a loop needs at least one thread");
        self.cluster.validate();
    }
}

/// Why a window fell back to the last good policy instead of completing
/// its retraining cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The window produced no complete recovery processes.
    EmptyWindow,
    /// Noise filtering left no error types to train on.
    NoTrainableTypes,
    /// The retraining step panicked (contained by `catch_unwind`).
    TrainingPanicked,
    /// The window's simulation panicked (contained by `catch_unwind`).
    SimulationPanicked,
}

impl FallbackReason {
    /// A stable lower-case label for metric names and structured events.
    pub fn label(self) -> &'static str {
        match self {
            FallbackReason::EmptyWindow => "empty_window",
            FallbackReason::NoTrainableTypes => "no_trainable_types",
            FallbackReason::TrainingPanicked => "training_panicked",
            FallbackReason::SimulationPanicked => "simulation_panicked",
        }
    }

    /// Parses a [`FallbackReason::label`] back into the reason.
    pub fn from_label(label: &str) -> Option<FallbackReason> {
        [
            FallbackReason::EmptyWindow,
            FallbackReason::NoTrainableTypes,
            FallbackReason::TrainingPanicked,
            FallbackReason::SimulationPanicked,
        ]
        .into_iter()
        .find(|r| r.label() == label)
    }
}

/// Whether a window's simulate → ingest → retrain cycle completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowStatus {
    /// The full cycle succeeded (for the final window: simulation and
    /// ingestion succeeded; it has no retraining step).
    Trained,
    /// Part of the cycle failed; the loop kept the last good policy and
    /// moved on.
    FellBack {
        /// What failed.
        reason: FallbackReason,
    },
}

impl WindowStatus {
    /// Whether this window completed its full cycle.
    pub fn is_trained(self) -> bool {
        self == WindowStatus::Trained
    }

    /// The fallback reason, if the window fell back.
    pub fn fallback_reason(self) -> Option<FallbackReason> {
        match self {
            WindowStatus::Trained => None,
            WindowStatus::FellBack { reason } => Some(reason),
        }
    }

    /// A stable label: `trained`, or the fallback reason's label.
    pub fn label(self) -> &'static str {
        match self {
            WindowStatus::Trained => "trained",
            WindowStatus::FellBack { reason } => reason.label(),
        }
    }

    /// Parses a [`WindowStatus::label`] back into the status — the
    /// inverse the durable checkpoint reader needs.
    pub fn from_label(label: &str) -> Option<WindowStatus> {
        if label == "trained" {
            return Some(WindowStatus::Trained);
        }
        FallbackReason::from_label(label).map(|reason| WindowStatus::FellBack { reason })
    }
}

/// The outcome of one observation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowOutcome {
    /// 0-based window index.
    pub window: usize,
    /// Recovery processes completed in the window.
    pub processes: usize,
    /// Realized mean time to repair in the window.
    pub mttr: SimDuration,
    /// Whether a learned policy was driving this window (false only for
    /// window 0 and windows after a failed first retraining).
    pub learned_policy: bool,
    /// Number of state-action entries in the deployed policy (0 for
    /// window 0).
    pub policy_entries: usize,
    /// Whether the window's cycle completed or fell back.
    pub status: WindowStatus,
}

/// The full result of a continuous loop run: the per-window rows plus
/// the last successfully trained policy (the one that would stay
/// deployed if the loop kept running).
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// One row per observation window, in order.
    pub outcomes: Vec<WindowOutcome>,
    /// The most recent successfully retrained policy, if any window
    /// completed a retraining step.
    pub policy: Option<TrainedPolicy>,
    /// Whether the loop stopped early at a window boundary because a
    /// [`LoopControls::stop`] flag was raised (graceful shutdown). An
    /// interrupted durable run resumes exactly where it left off.
    pub interrupted: bool,
}

/// Everything the loop knows about a window the moment it completes,
/// handed to the publication callback of
/// [`run_continuous_loop_controlled`]. Borrows stay inside the callback:
/// a serving plane is expected to copy what it needs into its own
/// immutable snapshot.
#[derive(Debug)]
pub struct WindowPublication<'a> {
    /// 0-based index of the window that just completed.
    pub window: usize,
    /// The window's final status (fallbacks already resolved).
    pub status: WindowStatus,
    /// The policy retrained at the end of this window — `Some` only when
    /// *this* window's retraining step succeeded. On a `FellBack` window
    /// this is `None` even though the loop still holds an older policy:
    /// publication is strictly "new snapshot per trained window", so a
    /// degraded window never republishes (the serving plane keeps
    /// answering from its last-good snapshot).
    pub policy: Option<&'a TrainedPolicy>,
    /// Every recovery process accumulated so far — the corpus the policy
    /// was retrained on, in deterministic `(start, machine)` order.
    pub accumulated: &'a [RecoveryProcess],
}

/// External control inputs for [`run_continuous_loop_controlled`]: a
/// cooperative stop flag (graceful shutdown checks it at every window
/// boundary) and an optional durable state handle (journal + checkpoint
/// per window, resume on entry). The default is a plain in-memory run.
#[derive(Debug, Default)]
pub struct LoopControls<'a> {
    /// When set and raised, the loop finishes the in-flight window,
    /// persists it (if durable), and returns with
    /// [`LoopRun::interrupted`] true instead of starting the next window.
    pub stop: Option<&'a std::sync::atomic::AtomicBool>,
    /// When set, the loop resumes from the newest valid checkpoint in
    /// the state directory (skipping already-completed windows without
    /// re-simulating or re-training them) and persists every window it
    /// completes.
    pub durable: Option<&'a mut crate::durable::DurableLoop>,
}

/// Runs the closed loop against `catalog`, one row per window, with
/// every seam attached: the entry point behind `autorecover loop` and
/// `autorecover serve`. Each seam is purely additive — outcomes, events,
/// and policies are byte-identical to a run with none attached.
///
/// ```no_run
/// use recovery_core::pipeline::{run_continuous_loop_controlled, ContinuousLoopConfig, LoopControls};
/// use recovery_simlog::{CatalogConfig, ClusterConfig};
/// use recovery_telemetry::{ObserverHandle, Telemetry};
///
/// let catalog = CatalogConfig::default().with_fault_types(10).generate(7);
/// let config = ContinuousLoopConfig::new(ClusterConfig::default());
/// let run = run_continuous_loop_controlled(
///     &catalog,
///     &config,
///     &Telemetry::disabled(),
///     &mut |_| ObserverHandle::none(),
///     &mut |_| {},
///     &mut LoopControls::default(),
/// )
/// .expect("a loop without durability controls cannot fail");
/// // Window 0 runs the production ladder; later windows run the
/// // retrained policy and should realize a lower MTTR.
/// assert!(!run.outcomes[0].learned_policy);
/// assert!(run.outcomes[1].learned_policy);
/// ```
///
/// - `telemetry`: each window's simulation and retraining phases are
///   recorded as spans, retraining hands each type's training record to
///   the handle's observer, the [`HealthState`]
///   tracks the loop phase and last window, every window lands in the
///   `loop.window.ms` wall-time histogram, and a `window` event carries
///   the enriched summary (status, fallback reason, Q-delta tail of the
///   retraining step, cumulative loop fallback counter). The event's
///   fields are wall-clock-free and thread-count invariant, so event
///   streams are byte-identical across `--threads` values.
/// - `window_observer` is called with the window index before each
///   retraining step, and the handle it returns rides along with the
///   telemetry observer for that retraining only. This is how the CLI
///   attaches a fresh per-window `DiagnosticsRecorder` (the diagnostics
///   crate sits above this one) and streams its convergence traces live.
/// - `publish` runs after each window's status, health record, and
///   `window` event are final, and sees a freshly retrained policy only
///   for `Trained` windows: the seam a policy-serving daemon hooks to
///   hot-swap snapshots. It always runs on the calling thread; with two
///   or more threads the next window's simulation may run meanwhile.
/// - `controls` carries the stop flag and the durable state handle. A
///   stop raised while the next window's simulation runs discards it.
///
/// With a durable handle, the loop first resumes: journal records are
/// replayed into the accumulated corpus (the same split and the same
/// add-a-window step, the same symptom interning — see
/// [`crate::durable`]), the last-good policy and
/// counter values are restored from the checkpoint, and execution
/// continues from the first uncovered window. Completed windows then
/// journal their observation log and write the next checkpoint
/// atomically. The resulting final policy and outcomes are
/// byte-identical to an uninterrupted run for any `--threads` value.
///
/// # Errors
///
/// Returns a message when resume preflight fails (seed/window mismatch,
/// unreadable state) or a persistence write fails; in-memory runs never
/// error.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn run_continuous_loop_controlled(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    telemetry: &Telemetry,
    window_observer: &mut dyn FnMut(usize) -> ObserverHandle,
    publish: &mut dyn FnMut(WindowPublication<'_>),
    controls: &mut LoopControls<'_>,
) -> Result<LoopRun, String> {
    config.validate();
    let health = telemetry.health();
    if let Some(health) = &health {
        health.begin_loop(config.windows as u64);
    }
    let pool = crate::parallel::WorkerPool::new(config.threads);
    let mut outcomes = Vec::with_capacity(config.windows);
    let mut corpus = Corpus::default();
    let mut current: Option<TrainedPolicy> = None;
    let mut start_window = 0usize;
    let mut interrupted = false;

    if let Some(durable) = controls.durable.as_deref_mut() {
        if let Some(resumed) =
            durable.resume(catalog.symptoms(), config.seed, config.windows, &pool)?
        {
            start_window = resumed.next_window;
            outcomes = resumed.outcomes;
            corpus = resumed.corpus;
            current = resumed.policy;
            if let Some(registry) = telemetry.registry() {
                // The checkpoint's counters are restored wholesale so
                // summaries match an uninterrupted run; the resume-only
                // counters ride on top (and are excluded from the
                // deterministic run report).
                for (name, value) in &resumed.counters {
                    registry.counter(name).add(*value);
                }
                registry.counter("loop.resume").inc();
                registry.counter("durable.checkpoint.loaded").inc();
                registry
                    .counter("durable.windows.skipped")
                    .add(start_window as u64);
            }
            if telemetry.is_enabled() {
                telemetry.emit(
                    &Event::new("resume")
                        .with("checkpoint_seq", resumed.seq)
                        .with("next_window", start_window)
                        .with("windows_skipped", start_window),
                );
            }
        }
    }

    let stop = controls.stop;
    let stopped = || stop.is_some_and(|s| s.load(std::sync::atomic::Ordering::Acquire));
    // The next window's simulation, started beside this window's tail.
    let mut early: Option<Simulated> = None;
    for window in start_window..config.windows {
        if stopped() {
            interrupted = true;
            break;
        }
        let window_started = Instant::now();
        let learned_policy = current.is_some();
        let policy_entries = current.as_ref().map_or(0, |p| p.q().len());
        let mut status = WindowStatus::Trained;
        let mut q_delta_tail = 0.0_f64;
        let mut retrained_this_window = false;

        // Its span is recorded here, where the log is used, so a
        // simulation whose result a stop discards leaves none.
        let simulated = early
            .take()
            .unwrap_or_else(|| simulate_window(catalog, config, window, current.as_ref()));
        telemetry.record_span("simulate_window", simulated.ms);
        let mut log = simulated.log.unwrap_or_else(|| {
            status = WindowStatus::FellBack {
                reason: FallbackReason::SimulationPanicked,
            };
            RecoveryLog::new()
        });

        // The journal append (render, checksum, write, fsync) runs beside
        // split → accumulate → retrain; both read the one sorted log, so
        // the journal payload is exactly the entry sequence the split
        // saw, as resume will re-parse it.
        let sorted = log.sorted();
        let journal = controls
            .durable
            .as_deref_mut()
            .map(|durable| (durable, telemetry.reserve_span("journal_text")));
        let ((processes_len, mttr), journaled) = pool.join(
            || {
                let processes = crate::ingest::split_sorted(sorted, telemetry);
                if status.is_trained() && processes.is_empty() {
                    status = WindowStatus::FellBack {
                        reason: FallbackReason::EmptyWindow,
                    };
                }
                let counts = (processes.len(), stats::mttr(&processes));
                // Feed the window's log back and retrain for the next
                // window — unless the window already fell back (nothing
                // new to learn from): the last good policy simply stays
                // deployed.
                {
                    let _span = telemetry.span("accumulate");
                    corpus.add_window(processes);
                }
                if window + 1 < config.windows && status.is_trained() {
                    let _span = telemetry.span("retrain");
                    let extra_observer = window_observer(window);
                    match retrain(config, &corpus, window, telemetry, &extra_observer) {
                        Ok((policy, tail)) => {
                            current = Some(policy);
                            q_delta_tail = tail;
                            retrained_this_window = true;
                        }
                        Err(reason) => status = WindowStatus::FellBack { reason },
                    }
                }
                counts
            },
            move || {
                journal.map(|(durable, journal_text)| {
                    let text = {
                        let _span = journal_text.open();
                        sorted.to_text()
                    };
                    durable.append_journal(window, &text)
                })
            },
        );
        drop(log);

        // The window's tail — health record, `window` event, publication
        // and checkpoint — runs beside the next window's simulation,
        // which needs only the policy just retrained.
        let outcome = WindowOutcome {
            window,
            processes: processes_len,
            mttr,
            learned_policy,
            policy_entries,
            status,
        };
        let next = window + 1;
        let policy = current.as_ref();
        let (persisted, simulated_next) = pool.join(
            || {
                finish_window(
                    &outcome,
                    q_delta_tail,
                    window_started,
                    telemetry,
                    health.as_ref(),
                );
                publish(WindowPublication {
                    window,
                    status,
                    policy: policy.filter(|_| retrained_this_window),
                    accumulated: corpus.processes(),
                });
                outcomes.push(outcome);
                match (controls.durable.as_deref_mut(), journaled) {
                    (Some(durable), Some(journaled)) => journaled
                        .and_then(|()| {
                            durable.write_checkpoint(
                                window,
                                config.windows,
                                config.seed,
                                &outcomes,
                                policy,
                                catalog.symptoms(),
                                telemetry,
                            )
                        })
                        .map_err(|e| format!("persisting window {window}: {e}")),
                    _ => Ok(()),
                }
            },
            || {
                (next < config.windows && !stopped())
                    .then(|| simulate_window(catalog, config, next, policy))
            },
        );
        persisted?;
        early = simulated_next;
    }
    if let Some(health) = &health {
        health.set_phase(if interrupted {
            "interrupted"
        } else {
            "completed"
        });
    }
    Ok(LoopRun {
        outcomes,
        policy: current,
        interrupted,
    })
}

/// A window's simulated log — `None` when the simulation panicked —
/// and how long the simulation took, in ms.
struct Simulated {
    log: Option<RecoveryLog>,
    ms: f64,
}

/// Simulates window `window` under `policy` (the production ladder when
/// there is none yet). Panics, injected or real, are contained, so a bad
/// window degrades instead of killing the loop.
fn simulate_window(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    window: usize,
    policy: Option<&TrainedPolicy>,
) -> Simulated {
    let started = Instant::now();
    let window_seed = config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(window as u64);
    let log = catch_unwind(AssertUnwindSafe(|| {
        if config.faults.trips_simulation(window) {
            panic!("faultline: injected simulation panic in window {window}");
        }
        if config.faults.empties_window(window) {
            return RecoveryLog::new();
        }
        match policy {
            None => {
                let sim = ClusterSim::new(
                    catalog,
                    UserDefinedPolicy::default(),
                    config.cluster.clone(),
                    window_seed,
                );
                sim.run().0
            }
            Some(policy) => {
                let live = LivePolicy::new(HybridPolicy::new(
                    DecisionTable::new(policy),
                    UserStatePolicy::default(),
                ));
                let sim = ClusterSim::new(catalog, live, config.cluster.clone(), window_seed);
                sim.run().0
            }
        }
    }))
    .ok();
    Simulated {
        log,
        ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// Records a finished window: the fallback counters, the health record,
/// the `loop.window.ms` histogram and the `window` event.
fn finish_window(
    outcome: &WindowOutcome,
    q_delta_tail: f64,
    started: Instant,
    telemetry: &Telemetry,
    health: Option<&HealthState>,
) {
    let status = outcome.status;
    if let Some(reason) = status.fallback_reason() {
        if let Some(registry) = telemetry.registry() {
            registry.counter("loop.fallbacks").inc();
            registry
                .counter(&format!("loop.fallback.{}", reason.label()))
                .inc();
        }
    }
    if let Some(health) = health {
        health.record_window(
            outcome.window as u64,
            status.label(),
            status.fallback_reason().map(FallbackReason::label),
        );
    }
    if let Some(registry) = telemetry.registry() {
        // Wall time lives only in the histogram: `window` events must
        // stay byte-identical across runs and thread counts.
        registry
            .histogram("loop.window.ms", &DURATION_MS_BOUNDS)
            .record(started.elapsed().as_secs_f64() * 1e3);
    }
    if telemetry.is_enabled() {
        let fallbacks = telemetry
            .registry()
            .map_or(0, |registry| registry.counter("loop.fallbacks").get());
        telemetry.emit(
            &Event::new("window")
                .with("window", outcome.window)
                .with("processes", outcome.processes)
                .with("mttr_s", outcome.mttr.as_secs_f64())
                .with("learned_policy", outcome.learned_policy)
                .with("policy_entries", outcome.policy_entries)
                .with("status", status.label())
                .with(
                    "fallback_reason",
                    status.fallback_reason().map_or("", FallbackReason::label),
                )
                .with("q_delta_tail", q_delta_tail)
                .with("fallbacks", fallbacks),
        );
    }
}

/// The key the corpus is ordered by.
type CorpusKey = (SimTime, MachineId);

/// Everything the loop has accumulated: the processes of every window so
/// far in `(start, machine)` order, each with its sort key and the id of
/// its symptom set in one symptom database kept across windows.
///
/// [`Corpus::add_window`] pushes only the window's processes into the
/// database and merges the (already sorted) window into the corpus by the
/// stored keys, so no window clones, re-sorts or re-indexes what came
/// before. Verdicts are judged afresh from the database at every
/// retraining: supports grow as windows arrive, so a set that is
/// cohesive now may not be later, and a verdict depends only on the
/// counts, never on the order the sets were pushed in.
#[derive(Debug, Default)]
pub(crate) struct Corpus {
    processes: Vec<RecoveryProcess>,
    /// Per process, in corpus order: its key and its symptom set's id
    /// in `db`.
    index: Vec<(CorpusKey, usize)>,
    db: TransactionDb<SymptomId>,
}

impl Corpus {
    /// Adds one window's processes, sorted by `(start, machine)` as
    /// [`crate::ingest::split_processes`] returns them. On equal keys the
    /// earlier window's process comes first, as a stable sort of the
    /// concatenated windows orders it.
    pub(crate) fn add_window(&mut self, window: Vec<RecoveryProcess>) {
        let incoming: Vec<(CorpusKey, usize)> = window
            .iter()
            .map(|p| {
                self.db.push(p.symptoms().iter().map(|&(_, s)| s));
                let set = *self.db.itemset_ids().last().expect("a set was just pushed");
                ((p.start(), p.machine()), set)
            })
            .collect();
        debug_assert!(incoming.windows(2).all(|w| w[0].0 <= w[1].0));
        let Some(&(first, _)) = incoming.first() else {
            return;
        };
        // Every process keyed at or before the window's first stays put;
        // the rest is merged with the window behind it.
        let split = self.index.partition_point(|&(key, _)| key <= first);
        let mut old = self
            .processes
            .split_off(split)
            .into_iter()
            .zip(self.index.split_off(split))
            .peekable();
        let mut new = window.into_iter().zip(incoming).peekable();
        while let Some(((_, (old_key, _)), (_, (new_key, _)))) = old.peek().zip(new.peek()) {
            let (process, entry) = if old_key <= new_key {
                old.next()
            } else {
                new.next()
            }
            .expect("peeked");
            self.processes.push(process);
            self.index.push(entry);
        }
        for (process, entry) in old.chain(new) {
            self.processes.push(process);
            self.index.push(entry);
        }
    }

    /// Every accumulated process, in `(start, machine)` order.
    pub(crate) fn processes(&self) -> &[RecoveryProcess] {
        &self.processes
    }

    /// The processes whose symptom sets `filter` judges cohesive, in
    /// corpus order: [`NoiseFilter::partition`]'s clean list of the whole
    /// corpus, without copying a process.
    pub(crate) fn clean(&self, filter: &NoiseFilter) -> Vec<&RecoveryProcess> {
        let cohesive = filter.cohesive_sets(&self.db);
        self.processes
            .iter()
            .zip(&self.index)
            .filter(|(_, &(_, set))| cohesive[set])
            .map(|(p, _)| p)
            .collect()
    }
}

/// One retraining step over everything accumulated so far, returning the
/// trained policy plus its **Q-delta tail**: the largest final
/// max-Q-delta any trained error type ended on — how unsettled the
/// slowest-to-converge Q-table still was when its training stopped. The
/// max over types is order-independent, so the tail is the same for any
/// thread count. Failures — injected panics, filter blackouts, or
/// genuinely nothing trainable — come back as a typed [`FallbackReason`]
/// so the caller keeps the last good policy.
fn retrain(
    config: &ContinuousLoopConfig,
    corpus: &Corpus,
    window: usize,
    telemetry: &Telemetry,
    extra_observer: &ObserverHandle,
) -> Result<(TrainedPolicy, f64), FallbackReason> {
    let trained = catch_unwind(AssertUnwindSafe(|| {
        if config.faults.trips_retrain(window) {
            panic!("faultline: injected retrain panic after window {window}");
        }
        let clean = {
            let _span = telemetry.span("noise_filter");
            corpus.clean(&NoiseFilter::new(config.minp))
        };
        let clean = if config.faults.blacks_out_filter(window) {
            Vec::new()
        } else {
            clean
        };
        let trainer = OfflineTrainer::from_refs(clean.iter().copied(), config.trainer.clone())
            .with_threads(config.threads)
            .with_observer(telemetry.observer_handle().fanout(extra_observer))
            .with_telemetry(telemetry.clone());
        let types = trainer.ranking().top_k(config.top_k);
        if types.is_empty() {
            return Err(FallbackReason::NoTrainableTypes);
        }
        let tree = SelectionTreeTrainer::new(&trainer, config.tree.clone());
        let (policy, stats) = tree.train(&types);
        let tail = stats.iter().map(|s| s.final_q_delta).fold(0.0, f64::max);
        Ok((policy, tail))
    }));
    match trained {
        Ok(result) => result,
        Err(_) => Err(FallbackReason::TrainingPanicked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recovery_simlog::CatalogConfig;

    /// A plain in-memory run: no telemetry, observers, publication or
    /// durability.
    fn run_loop(catalog: &FaultCatalog, config: &ContinuousLoopConfig) -> Vec<WindowOutcome> {
        run_continuous_loop_controlled(
            catalog,
            config,
            &Telemetry::disabled(),
            &mut |_| ObserverHandle::none(),
            &mut |_| {},
            &mut LoopControls::default(),
        )
        .expect("a loop without durability controls cannot fail")
        .outcomes
    }

    fn small_cluster() -> ClusterConfig {
        ClusterConfig {
            machines: 60,
            horizon: SimDuration::from_days(30),
            mean_fault_interarrival: SimDuration::from_days(3),
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn loop_retrains_and_reduces_mttr() {
        let catalog = CatalogConfig::default().with_fault_types(12).generate(21);
        let config = ContinuousLoopConfig {
            windows: 3,
            top_k: 12,
            trainer: TrainerConfig::fast(),
            ..ContinuousLoopConfig::new(small_cluster())
        };
        let outcomes = run_loop(&catalog, &config);
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].learned_policy);
        assert!(outcomes[1].learned_policy && outcomes[2].learned_policy);
        assert!(outcomes[1].policy_entries > 0);
        // Learned windows must realize lower MTTR than the baseline
        // window (the catalog's deceptive head type guarantees headroom).
        let baseline = outcomes[0].mttr.as_secs_f64();
        for w in &outcomes[1..] {
            assert!(
                w.mttr.as_secs_f64() < baseline,
                "window {} MTTR {} should beat baseline {}",
                w.window,
                w.mttr,
                outcomes[0].mttr
            );
        }
    }

    #[test]
    fn loop_is_deterministic() {
        let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
        let config = ContinuousLoopConfig {
            windows: 2,
            top_k: 8,
            trainer: TrainerConfig::fast(),
            ..ContinuousLoopConfig::new(small_cluster())
        };
        let a = run_loop(&catalog, &config);
        let b = run_loop(&catalog, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn trained_windows_report_trained_status() {
        let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
        let config = ContinuousLoopConfig {
            windows: 2,
            top_k: 8,
            trainer: TrainerConfig::fast(),
            ..ContinuousLoopConfig::new(small_cluster())
        };
        let outcomes = run_loop(&catalog, &config);
        for w in &outcomes {
            assert_eq!(w.status, WindowStatus::Trained, "window {}", w.window);
            assert!(w.status.is_trained());
            assert_eq!(w.status.fallback_reason(), None);
        }
    }

    #[test]
    fn empty_window_falls_back_and_loop_completes() {
        // The minimum two-window loop with window 0 producing nothing:
        // no data, no retraining — yet the loop must finish.
        let catalog = CatalogConfig::default().with_fault_types(4).generate(3);
        let config = ContinuousLoopConfig {
            windows: 2,
            top_k: 4,
            trainer: TrainerConfig::fast(),
            faults: crate::fault::LoopFaultPlan::none()
                .with_empty_window(0)
                .with_empty_window(1),
            ..ContinuousLoopConfig::new(small_cluster())
        };
        let outcomes = run_loop(&catalog, &config);
        assert_eq!(outcomes.len(), 2);
        for w in &outcomes {
            assert_eq!(
                w.status.fallback_reason(),
                Some(FallbackReason::EmptyWindow),
                "window {}",
                w.window
            );
            assert_eq!(w.processes, 0);
            assert_eq!(w.mttr, SimDuration::ZERO);
            assert!(!w.learned_policy, "no policy was ever trained");
        }
    }

    #[test]
    fn filtered_out_window_falls_back_with_no_trainable_types() {
        // Every accumulated process is rejected by the (blacked-out)
        // noise filter: the retraining step finds nothing to train.
        let catalog = CatalogConfig::default().with_fault_types(4).generate(3);
        let config = ContinuousLoopConfig {
            windows: 2,
            top_k: 4,
            trainer: TrainerConfig::fast(),
            faults: crate::fault::LoopFaultPlan::none().with_filter_blackout(0),
            ..ContinuousLoopConfig::new(small_cluster())
        };
        let outcomes = run_loop(&catalog, &config);
        assert_eq!(
            outcomes[0].status.fallback_reason(),
            Some(FallbackReason::NoTrainableTypes)
        );
        assert!(outcomes[0].processes > 0, "the window itself had data");
        // Window 1 runs under the user policy (nothing was trained) but
        // completes its own cycle normally.
        assert!(!outcomes[1].learned_policy);
        assert_eq!(outcomes[1].status, WindowStatus::Trained);
    }

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(WindowStatus::Trained.label(), "trained");
        for (reason, label) in [
            (FallbackReason::EmptyWindow, "empty_window"),
            (FallbackReason::NoTrainableTypes, "no_trainable_types"),
            (FallbackReason::TrainingPanicked, "training_panicked"),
            (FallbackReason::SimulationPanicked, "simulation_panicked"),
        ] {
            assert_eq!(reason.label(), label);
            assert_eq!(WindowStatus::FellBack { reason }.label(), label);
        }
    }

    #[test]
    #[should_panic(expected = "at least two windows")]
    fn rejects_single_window() {
        let catalog = CatalogConfig::default().with_fault_types(4).generate(1);
        let config = ContinuousLoopConfig {
            windows: 1,
            ..ContinuousLoopConfig::new(small_cluster())
        };
        let _ = run_loop(&catalog, &config);
    }

    /// A durable, traced four-window run whose publication of window 1
    /// raises the stop flag: its outcome, final policy text, the bytes
    /// of every file in its state dir, and its `simulate_window` count.
    fn run_stopped_after_window_one(
        catalog: &FaultCatalog,
        threads: usize,
    ) -> (LoopRun, String, Vec<(String, Vec<u8>)>, u64) {
        let dir = std::env::temp_dir().join(format!(
            "autorecover-pipeline-stop-t{threads}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = crate::durable::DurableLoop::open(&dir).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let telemetry = Telemetry::new();
        let config = ContinuousLoopConfig {
            windows: 4,
            top_k: 8,
            threads,
            trainer: TrainerConfig::fast(),
            ..ContinuousLoopConfig::new(small_cluster())
        };
        let run = run_continuous_loop_controlled(
            catalog,
            &config,
            &telemetry,
            &mut |_| ObserverHandle::none(),
            &mut |publication| {
                if publication.window == 1 {
                    // With a second thread, window 2's simulation started
                    // before this callback; give it time to get going.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    stop.store(true, std::sync::atomic::Ordering::Release);
                }
            },
            &mut LoopControls {
                stop: Some(&stop),
                durable: Some(&mut durable),
            },
        )
        .unwrap();
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        let policy = run
            .policy
            .as_ref()
            .map(|p| crate::persist::policy_to_text(p, catalog.symptoms()))
            .unwrap_or_default();
        let simulations = telemetry.snapshot().unwrap().counters["span.simulate_window.calls"];
        (run, policy, files, simulations)
    }

    #[test]
    fn a_stop_raised_by_publish_discards_the_next_simulation() {
        let catalog = CatalogConfig::default().with_fault_types(8).generate(5);
        let (reference, policy, files, simulations) = run_stopped_after_window_one(&catalog, 1);
        assert!(reference.interrupted);
        assert_eq!(reference.outcomes.len(), 2);
        assert!(!policy.is_empty(), "window 1 retrained a policy");
        assert_eq!(simulations, 2, "windows 0 and 1 only");
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "FORMAT",
                "checkpoint-00000001.ckpt",
                "checkpoint-00000002.ckpt",
                "journal.log"
            ]
        );
        for threads in [2, 4] {
            let (run, run_policy, run_files, run_simulations) =
                run_stopped_after_window_one(&catalog, threads);
            assert!(run.interrupted, "threads {threads}");
            assert_eq!(run.outcomes, reference.outcomes, "threads {threads}");
            assert_eq!(run_policy, policy, "threads {threads}");
            assert!(run_files == files, "threads {threads}: state dir differs");
            assert_eq!(
                run_simulations, 2,
                "threads {threads}: the discarded simulation left a span"
            );
        }
    }

    /// A process on `machine` starting at `start`, showing `symptoms`
    /// one a second.
    fn process(machine: u32, start: u64, symptoms: &[u32]) -> RecoveryProcess {
        RecoveryProcess::new(
            MachineId::new(machine),
            symptoms
                .iter()
                .enumerate()
                .map(|(i, &s)| (SimTime::from_secs(start + i as u64), SymptomId::new(s)))
                .collect(),
            Vec::new(),
            SimTime::from_secs(start + 100),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The kept corpus is the rebuilt one: after every window its
        /// processes are all windows so far, extended and stable-sorted
        /// by `(start, machine)`, and its clean list is the noise
        /// filter's partition of exactly that, in the same order. Few
        /// machines and start times make keys tie across windows; few
        /// symptoms in small sets make verdicts flip as supports grow.
        #[test]
        fn kept_corpus_matches_the_rebuilt_one(
            windows in proptest::collection::vec(
                proptest::collection::vec(
                    (0u32..3, 0u64..4, proptest::collection::vec(0u32..5, 1..4)),
                    0..12,
                ),
                1..6,
            ),
            minp in prop_oneof![Just(0.3), Just(0.5), Just(0.8)],
        ) {
            let filter = NoiseFilter::new(minp);
            let mut corpus = Corpus::default();
            let mut rebuilt: Vec<RecoveryProcess> = Vec::new();
            for (w, drawn) in windows.iter().enumerate() {
                let mut window: Vec<RecoveryProcess> = drawn
                    .iter()
                    .map(|(machine, start, symptoms)| process(*machine, *start, symptoms))
                    .collect();
                window.sort_by_key(|p| (p.start(), p.machine()));
                rebuilt.extend(window.iter().cloned());
                rebuilt.sort_by_key(|p| (p.start(), p.machine()));
                corpus.add_window(window);
                prop_assert_eq!(
                    corpus.processes(),
                    rebuilt.as_slice(),
                    "corpus order after window {}",
                    w
                );
                let clean: Vec<RecoveryProcess> =
                    corpus.clean(&filter).into_iter().cloned().collect();
                prop_assert_eq!(
                    clean,
                    filter.partition(rebuilt.clone()).clean,
                    "clean list after window {} at minp {}",
                    w,
                    minp
                );
            }
        }
    }
}
