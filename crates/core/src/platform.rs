//! The simulation platform (paper §3.3, §4.2).
//!
//! Given a *ground-truth* recovery process from the log and a proposed
//! repair action, the platform decides the outcome and charges a time
//! cost, under the paper's replay hypotheses:
//!
//! * **H1** — the last action of a successful process (plus any stronger
//!   action in it) is a *correct* repair action for that error;
//! * **H2** — a stronger action can replace a weaker one, so any proposed
//!   action at least as strong as the process's required action succeeds;
//! * **H3** — recovery processes are independent, so each process can be
//!   replayed in isolation.
//!
//! The charged cost is "one of the following values … : actual time cost
//! in the recovery process, average success time cost, or average failing
//! time cost" (§3.3). [`CostEstimation::PreferActual`] uses the actual
//! cost whenever the proposed attempt matches an attempt recorded in the
//! process (training mode); [`CostEstimation::AverageOnly`] always uses
//! per-(type, action, outcome) training averages (evaluation mode, where
//! using test-process actuals would leak information the platform is
//! supposed to estimate).

use std::collections::HashMap;
use std::sync::Arc;

use recovery_simlog::{RecoveryProcess, RepairAction};
use recovery_telemetry::{ObserverHandle, TrainingObserver};

use crate::error_type::ErrorType;
use crate::policy::DecidePolicy;
use crate::state::RecoveryState;

/// How the platform charges time for a replayed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostEstimation {
    /// Use the actual logged cost when the replayed attempt (same action,
    /// same outcome, same occurrence index) exists in the ground-truth
    /// process; fall back to averages otherwise. Used during training.
    #[default]
    PreferActual,
    /// Always use per-(error type, action, outcome) averages from the
    /// training log. Used during evaluation.
    AverageOnly,
}

/// The outcome of replaying one repair attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptOutcome {
    /// Whether the attempt repaired the error (H1/H2 verdict).
    pub cured: bool,
    /// Charged time cost, in seconds.
    pub cost: f64,
    /// Whether the cost is the logged occurrence's (a cost-cache hit)
    /// rather than the per-type average.
    pub from_log: bool,
}

/// Aggregate success/failure cost statistics for one `(type, action)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PairStats {
    success_sum: f64,
    success_n: usize,
    failure_sum: f64,
    failure_n: usize,
}

impl PairStats {
    fn record(&mut self, cured: bool, cost: f64) {
        if cured {
            self.success_sum += cost;
            self.success_n += 1;
        } else {
            self.failure_sum += cost;
            self.failure_n += 1;
        }
    }

    fn mean(&self, cured: bool) -> Option<f64> {
        if cured {
            (self.success_n > 0).then(|| self.success_sum / self.success_n as f64)
        } else {
            (self.failure_n > 0).then(|| self.failure_sum / self.failure_n as f64)
        }
    }
}

/// How a replayed recovery ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEnd {
    /// The policy repaired the error.
    Cured,
    /// The policy had no decision for the state reached after the given
    /// number of attempts (a *not handled* case, paper §5.1).
    Unhandled {
        /// Attempts made before the unknown state was reached.
        attempts: usize,
    },
}

/// The result of replaying a full policy against one ground-truth process.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// How the replay ended.
    pub end: ReplayEnd,
    /// The attempts made: `(action, outcome)` in order.
    pub attempts: Vec<(RepairAction, AttemptOutcome)>,
    /// Detection lead time charged before the first action, seconds.
    pub detection_lead: f64,
}

impl Replay {
    /// Total charged downtime: detection lead plus all attempt costs.
    pub fn total_cost(&self) -> f64 {
        self.detection_lead + self.attempts.iter().map(|(_, o)| o.cost).sum::<f64>()
    }

    /// Whether the policy handled (repaired) the process.
    pub fn handled(&self) -> bool {
        self.end == ReplayEnd::Cured
    }
}

/// The immutable, dense cost model shared by every view of a platform.
///
/// Types are indexed by first-seen order over the training processes
/// (stats therefore accumulate in exactly the sequential order, keeping
/// float sums bit-identical to the historical `HashMap` layout), and each
/// type owns one `RepairAction::COUNT`-wide stats row — a replayed attempt
/// costs one `HashMap` probe for the type slot and array indexing from
/// there, or zero probes through a [`ReplayCache`].
#[derive(Debug, Default)]
struct CostModel {
    type_slot: HashMap<ErrorType, u32>,
    per_type: Vec<[PairStats; RepairAction::COUNT]>,
    detection_by_type: Vec<(f64, usize)>,
    global: [PairStats; RepairAction::COUNT],
    detection_global: (f64, usize),
}

impl CostModel {
    /// The per-type stats row of `et`, if the type was seen in training.
    fn row(&self, et: ErrorType) -> Option<usize> {
        self.type_slot.get(&et).map(|&s| s as usize)
    }
}

/// The replay data of a set of processes, flat: per process its H1/H2
/// verdict mask, the average fallback cost of each action, both
/// detection leads and the offsets of its logged costs in one `actual`
/// buffer that the whole set shares.
///
/// Built once per set by [`SimulationPlatform::replay_cache`] in two
/// allocations, however many processes the set holds; after that,
/// [`SimulationPlatform::attempt_cached`] answers each replayed attempt
/// against a process of the set, named by its index, with array lookups
/// only — no re-deriving `ErrorType::of` or `required_action`, no
/// hashing, no allocation. The cached answers are bit-identical to
/// [`SimulationPlatform::attempt`].
#[derive(Debug, Clone)]
pub struct ReplayCache {
    processes: Vec<CachedProcess>,
    /// `actual[offsets[a]..offsets[a + 1]]` of a process are the logged
    /// costs of action `a`'s replay-matching attempts, in occurrence
    /// order.
    actual: Vec<f64>,
}

/// One process of a [`ReplayCache`].
#[derive(Debug, Clone, Copy)]
struct CachedProcess {
    /// Bit `a` is the H1/H2 verdict of action index `a` (fixed for a
    /// fixed process).
    cured: u8,
    offsets: [u32; RepairAction::COUNT + 1],
    /// `average_cost(et, action, cured[action])` per action index.
    average: [f64; RepairAction::COUNT],
    detection_actual: f64,
    detection_average: f64,
}

impl CachedProcess {
    /// The replay data of `truth`, a process of the type `type_costs`
    /// describes, with its logged costs appended to `actual`.
    fn new(truth: &RecoveryProcess, type_costs: &TypeCosts, actual: &mut Vec<f64>) -> Self {
        let required = truth.required_action();
        let mut cached = CachedProcess {
            cured: 0,
            offsets: [0; RepairAction::COUNT + 1],
            average: [0.0; RepairAction::COUNT],
            detection_actual: truth.detection_lead().as_secs_f64(),
            detection_average: type_costs.detection_average,
        };
        for a in RepairAction::ALL {
            let i = a.index();
            let cured = a.at_least_as_strong_as(required);
            cached.cured |= u8::from(cured) << i;
            cached.average[i] = type_costs.average[i][usize::from(cured)];
            cached.offsets[i] = offset(actual.len());
            // A logged attempt matches replay only when its outcome equals
            // the replay verdict for the action (the `last == cured`
            // condition of `RecoveryProcess::nth_action_cost`); the
            // chronological order of `action_costs` is occurrence order.
            actual.extend(
                truth
                    .action_costs()
                    .filter(|c| c.action == a && c.cured == cured)
                    .map(|c| c.cost.as_secs_f64()),
            );
        }
        cached.offsets[RepairAction::COUNT] = offset(actual.len());
        cached
    }

    fn detection_lead(&self, estimation: CostEstimation) -> f64 {
        match estimation {
            CostEstimation::PreferActual => self.detection_actual,
            CostEstimation::AverageOnly => self.detection_average,
        }
    }
}

impl ReplayCache {
    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether the set holds no process.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }
}

/// The per-type half of a process's replay data: the type's average cost
/// of each action by outcome and its average detection lead, the same
/// for every process of the type.
#[derive(Debug, Clone, Copy)]
struct TypeCosts {
    error_type: ErrorType,
    /// `average_cost(et, action, cured)` at `[action][cured as usize]`.
    average: [[f64; 2]; RepairAction::COUNT],
    detection_average: f64,
}

/// The log-replay simulation platform.
///
/// ```
/// use recovery_core::platform::{CostEstimation, SimulationPlatform};
/// use recovery_core::policy::UserStatePolicy;
/// use recovery_simlog::{GeneratorConfig, LogGenerator};
///
/// let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
/// let processes = generated.log.split_processes();
/// let platform = SimulationPlatform::from_processes(&processes, CostEstimation::PreferActual);
///
/// // Replaying the generating ladder reconstructs each process exactly.
/// let replay = platform.replay(&processes[0], &UserStatePolicy::default(), 20);
/// assert!(replay.handled());
/// assert_eq!(replay.total_cost(), processes[0].downtime().as_secs_f64());
/// ```
#[derive(Debug, Clone)]
pub struct SimulationPlatform {
    model: Arc<CostModel>,
    estimation: CostEstimation,
    observer: ObserverHandle,
}

impl SimulationPlatform {
    /// Builds the platform's cost model from training processes.
    pub fn from_processes(processes: &[RecoveryProcess], estimation: CostEstimation) -> Self {
        Self::from_refs(processes, estimation)
    }

    /// [`SimulationPlatform::from_processes`] over borrowed processes,
    /// taken in iteration order.
    pub(crate) fn from_refs<'p>(
        processes: impl IntoIterator<Item = &'p RecoveryProcess>,
        estimation: CostEstimation,
    ) -> Self {
        let mut model = CostModel::default();
        for p in processes {
            let et = ErrorType::of(p);
            let slot = match model.row(et) {
                Some(slot) => slot,
                None => {
                    let slot = model.per_type.len();
                    model.type_slot.insert(et, slot as u32);
                    model
                        .per_type
                        .push([PairStats::default(); RepairAction::COUNT]);
                    model.detection_by_type.push((0.0, 0));
                    slot
                }
            };
            for ac in p.action_costs() {
                let cost = ac.cost.as_secs_f64();
                model.per_type[slot][ac.action.index()].record(ac.cured, cost);
                model.global[ac.action.index()].record(ac.cured, cost);
            }
            let lead = p.detection_lead().as_secs_f64();
            model.detection_by_type[slot].0 += lead;
            model.detection_by_type[slot].1 += 1;
            model.detection_global.0 += lead;
            model.detection_global.1 += 1;
        }
        SimulationPlatform {
            model: Arc::new(model),
            estimation,
            observer: ObserverHandle::none(),
        }
    }

    /// Returns a view of the platform with a different cost-estimation
    /// mode. The immutable cost model is shared (`Arc`), never copied:
    /// switching modes on a field-scale platform costs a refcount bump.
    pub fn with_estimation(&self, estimation: CostEstimation) -> Self {
        SimulationPlatform {
            model: Arc::clone(&self.model),
            estimation,
            observer: self.observer.clone(),
        }
    }

    /// Whether two platform views share one cost-model allocation.
    /// [`SimulationPlatform::with_estimation`] and `clone` always do —
    /// the stats tables are behind an `Arc` and never deep-copied.
    pub fn shares_cost_model(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.model, &other.model)
    }

    /// Attaches an observer: every replayed attempt reports its H1/H2
    /// verdict and cost-source (actual-vs-average) through the
    /// [`TrainingObserver::platform_replay`] hook, and every full policy
    /// replay reports through [`TrainingObserver::replay_end`].
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// The attached observer handle (detached by default).
    pub fn observer(&self) -> &ObserverHandle {
        &self.observer
    }

    /// The active cost-estimation mode.
    pub fn estimation(&self) -> CostEstimation {
        self.estimation
    }

    /// Average success cost of `(error type, action)`, with fallback to
    /// the cross-type average and finally the action's baseline duration.
    pub fn average_cost(&self, et: ErrorType, action: RepairAction, cured: bool) -> f64 {
        self.model
            .row(et)
            .and_then(|slot| self.model.per_type[slot][action.index()].mean(cured))
            .or_else(|| self.model.global[action.index()].mean(cured))
            .unwrap_or_else(|| {
                let base = action.baseline_duration().as_secs_f64();
                if cured {
                    base
                } else {
                    base * 1.5
                }
            })
    }

    /// Average detection lead for the type (fallback: global average).
    pub fn average_detection_lead(&self, et: ErrorType) -> f64 {
        if let Some(slot) = self.model.row(et) {
            let (sum, n) = self.model.detection_by_type[slot];
            if n > 0 {
                return sum / n as f64;
            }
        }
        if self.model.detection_global.1 > 0 {
            self.model.detection_global.0 / self.model.detection_global.1 as f64
        } else {
            0.0
        }
    }

    /// The average costs every process of type `et` replays with: each
    /// action's average by outcome, and the average detection lead.
    fn type_costs(&self, et: ErrorType) -> TypeCosts {
        TypeCosts {
            error_type: et,
            average: RepairAction::ALL.map(|a| {
                [
                    self.average_cost(et, a, false),
                    self.average_cost(et, a, true),
                ]
            }),
            detection_average: self.average_detection_lead(et),
        }
    }

    /// Precomputes everything [`SimulationPlatform::attempt`] would
    /// re-derive per attempt against each of `truths`: the H1/H2 verdict
    /// and average fallback per action, the occurrence-indexed actual
    /// costs, and both detection leads. Build it once per set of
    /// processes, then replay attempts allocation-free with
    /// [`SimulationPlatform::attempt_cached`], naming a process by its
    /// index in `truths`. A type's averages are looked up once per run
    /// of processes of that type.
    pub fn replay_cache(&self, truths: &[&RecoveryProcess]) -> ReplayCache {
        let mut processes = Vec::with_capacity(truths.len());
        let mut actual = Vec::with_capacity(truths.iter().map(|p| p.actions().len()).sum());
        let mut costs: Option<TypeCosts> = None;
        for truth in truths {
            let et = ErrorType::of(truth);
            let type_costs = match costs {
                Some(c) if c.error_type == et => c,
                _ => *costs.insert(self.type_costs(et)),
            };
            processes.push(CachedProcess::new(truth, &type_costs, &mut actual));
        }
        ReplayCache { processes, actual }
    }

    /// The cached form of [`SimulationPlatform::attempt`] against process
    /// `process` of `cache`: array lookups only — no hashing, no
    /// scanning, no allocation. Bit-identical outcomes, identical
    /// observer reporting.
    #[inline]
    pub fn attempt_cached(
        &self,
        cache: &ReplayCache,
        process: usize,
        action: RepairAction,
        occurrence: usize,
    ) -> AttemptOutcome {
        self.attempt_of(&cache.processes[process], &cache.actual, action, occurrence)
    }

    /// [`SimulationPlatform::attempt_cached`] against one process's
    /// replay data, whose logged costs are in `actual`.
    fn attempt_of(
        &self,
        truth: &CachedProcess,
        actual: &[f64],
        action: RepairAction,
        occurrence: usize,
    ) -> AttemptOutcome {
        let i = action.index();
        let cured = truth.cured & (1 << i) != 0;
        let (cost, from_log) = match self.estimation {
            CostEstimation::PreferActual => {
                let slot = truth.offsets[i] as usize + occurrence;
                if slot < truth.offsets[i + 1] as usize {
                    (actual[slot], true)
                } else {
                    (truth.average[i], false)
                }
            }
            CostEstimation::AverageOnly => (truth.average[i], false),
        };
        self.observer.platform_replay(cured, cost, from_log);
        AttemptOutcome {
            cured,
            cost,
            from_log,
        }
    }

    /// The detection lead of process `process` of `cache`, by estimation
    /// mode — the cached form of
    /// [`SimulationPlatform::replay_detection_lead`].
    pub fn detection_lead_cached(&self, cache: &ReplayCache, process: usize) -> f64 {
        cache.processes[process].detection_lead(self.estimation)
    }

    /// Replays one repair attempt against a ground-truth process.
    ///
    /// `occurrence` is how many times `action` has already been attempted
    /// in this replay (so repeated attempts can match repeated log
    /// entries in [`CostEstimation::PreferActual`] mode).
    ///
    /// The H1/H2 verdict: the attempt cures iff `action` is at least as
    /// strong as the process's required action.
    pub fn attempt(
        &self,
        truth: &RecoveryProcess,
        action: RepairAction,
        occurrence: usize,
    ) -> AttemptOutcome {
        let cured = action.at_least_as_strong_as(truth.required_action());
        let et = ErrorType::of(truth);
        // `from_log` doubles as the replay-cost "cache hit" signal: the
        // charged cost came straight from the logged occurrence rather
        // than the per-(type, action, outcome) average model.
        let (cost, from_log) = match self.estimation {
            CostEstimation::PreferActual => {
                match truth.nth_action_cost(action, cured, occurrence) {
                    Some(c) => (c.as_secs_f64(), true),
                    None => (self.average_cost(et, action, cured), false),
                }
            }
            CostEstimation::AverageOnly => (self.average_cost(et, action, cured), false),
        };
        self.observer.platform_replay(cured, cost, from_log);
        AttemptOutcome {
            cured,
            cost,
            from_log,
        }
    }

    /// The detection lead charged for a replay of `truth`: the actual
    /// logged lead in [`CostEstimation::PreferActual`] mode, the per-type
    /// average otherwise.
    pub fn replay_detection_lead(&self, truth: &RecoveryProcess) -> f64 {
        match self.estimation {
            CostEstimation::PreferActual => truth.detection_lead().as_secs_f64(),
            CostEstimation::AverageOnly => self.average_detection_lead(ErrorType::of(truth)),
        }
    }

    /// Replays an entire policy against one ground-truth process.
    ///
    /// At each failure state the policy is consulted; after
    /// `max_attempts - 1` failed attempts the platform forces `RMA`
    /// (manual repair), the paper's N-cap. If the policy returns no
    /// decision for a state the replay ends [`ReplayEnd::Unhandled`].
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn replay<P: DecidePolicy + ?Sized>(
        &self,
        truth: &RecoveryProcess,
        policy: &P,
        max_attempts: usize,
    ) -> Replay {
        assert!(max_attempts > 0, "need at least one attempt");
        // One process needs no set: its replay data stays on the stack,
        // and only its logged costs allocate.
        let mut actual = Vec::with_capacity(truth.actions().len());
        let cached = CachedProcess::new(truth, &self.type_costs(ErrorType::of(truth)), &mut actual);
        let mut state = RecoveryState::initial(ErrorType::of(truth));
        let mut attempts: Vec<(RepairAction, AttemptOutcome)> =
            Vec::with_capacity(max_attempts.min(32));
        // Occurrence counting used to rescan the whole attempt list per
        // attempt (quadratic in the N = 20 cap); a per-action counter is
        // equivalent because occurrence only keys on the action.
        let mut tried = [0u32; RepairAction::COUNT];
        let detection_lead = cached.detection_lead(self.estimation);
        loop {
            let action = if attempts.len() + 1 >= max_attempts {
                RepairAction::Rma
            } else {
                match policy.decide(&state) {
                    Some(a) => a,
                    None => {
                        return self.finish_replay(Replay {
                            end: ReplayEnd::Unhandled {
                                attempts: attempts.len(),
                            },
                            attempts,
                            detection_lead,
                        })
                    }
                }
            };
            let occurrence = tried[action.index()] as usize;
            tried[action.index()] += 1;
            let outcome = self.attempt_of(&cached, &actual, action, occurrence);
            attempts.push((action, outcome));
            if outcome.cured {
                return self.finish_replay(Replay {
                    end: ReplayEnd::Cured,
                    attempts,
                    detection_lead,
                });
            }
            state = state.after(action);
        }
    }

    /// Reports a completed replay to the observer and passes it through.
    fn finish_replay(&self, replay: Replay) -> Replay {
        if self.observer.is_attached() {
            self.observer
                .replay_end(replay.handled(), replay.attempts.len(), replay.total_cost());
        }
        replay
    }
}

/// An offset into a [`ReplayCache`]'s `actual` buffer.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a replay set holds fewer than 2^32 logged attempts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_simlog::{ActionRecord, MachineId, SimTime, SymptomId};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// symptom@0, TRYNOP@100 (fails, 600 s), REBOOT@700 (cures, 1300 s),
    /// Success@2000. Required action: REBOOT.
    fn reboot_process() -> RecoveryProcess {
        RecoveryProcess::new(
            MachineId::new(1),
            vec![(t(0), SymptomId::new(5))],
            vec![
                ActionRecord {
                    time: t(100),
                    action: RepairAction::TryNop,
                },
                ActionRecord {
                    time: t(700),
                    action: RepairAction::Reboot,
                },
            ],
            t(2000),
        )
    }

    /// A second process of the same type cured directly by REBOOT.
    fn reboot_process_2() -> RecoveryProcess {
        RecoveryProcess::new(
            MachineId::new(2),
            vec![(t(10_000), SymptomId::new(5))],
            vec![ActionRecord {
                time: t(10_200),
                action: RepairAction::Reboot,
            }],
            t(11_200),
        )
    }

    /// A process of a type the platform was not built from, cured by
    /// REIMAGE after a failed TRYNOP.
    fn other_type_process() -> RecoveryProcess {
        RecoveryProcess::new(
            MachineId::new(3),
            vec![(t(20_000), SymptomId::new(8))],
            vec![
                ActionRecord {
                    time: t(20_100),
                    action: RepairAction::TryNop,
                },
                ActionRecord {
                    time: t(20_700),
                    action: RepairAction::Reimage,
                },
            ],
            t(30_000),
        )
    }

    fn platform(estimation: CostEstimation) -> SimulationPlatform {
        SimulationPlatform::from_processes(&[reboot_process(), reboot_process_2()], estimation)
    }

    /// A policy that always answers with a fixed action.
    #[derive(Debug)]
    struct Always(RepairAction);
    impl DecidePolicy for Always {
        fn decide(&self, _s: &RecoveryState) -> Option<RepairAction> {
            Some(self.0)
        }
        fn name(&self) -> &str {
            "always"
        }
    }

    /// A policy that knows nothing.
    #[derive(Debug)]
    struct Clueless;
    impl DecidePolicy for Clueless {
        fn decide(&self, _s: &RecoveryState) -> Option<RepairAction> {
            None
        }
        fn name(&self) -> &str {
            "clueless"
        }
    }

    #[test]
    fn h1_h2_verdicts() {
        let p = platform(CostEstimation::PreferActual);
        let truth = reboot_process();
        assert!(!p.attempt(&truth, RepairAction::TryNop, 0).cured);
        assert!(p.attempt(&truth, RepairAction::Reboot, 0).cured);
        assert!(
            p.attempt(&truth, RepairAction::Reimage, 0).cured,
            "H2: stronger replaces weaker"
        );
        assert!(p.attempt(&truth, RepairAction::Rma, 0).cured);
    }

    #[test]
    fn prefer_actual_charges_logged_costs() {
        let p = platform(CostEstimation::PreferActual);
        let truth = reboot_process();
        // TRYNOP failed in the log, 600 s.
        assert_eq!(p.attempt(&truth, RepairAction::TryNop, 0).cost, 600.0);
        // REBOOT cured in the log, 1300 s.
        assert_eq!(p.attempt(&truth, RepairAction::Reboot, 0).cost, 1300.0);
        // A second TRYNOP attempt has no matching log entry → average.
        let avg = p.average_cost(
            ErrorType::new(SymptomId::new(5)),
            RepairAction::TryNop,
            false,
        );
        assert_eq!(p.attempt(&truth, RepairAction::TryNop, 1).cost, avg);
    }

    #[test]
    fn average_only_ignores_actuals() {
        let p = platform(CostEstimation::AverageOnly);
        let truth = reboot_process();
        // Average success cost of REBOOT over the two processes:
        // (1300 + 1000) / 2 = 1150.
        assert_eq!(p.attempt(&truth, RepairAction::Reboot, 0).cost, 1150.0);
    }

    #[test]
    fn averages_fall_back_to_global_then_baseline() {
        let p = platform(CostEstimation::AverageOnly);
        let other_type = ErrorType::new(SymptomId::new(99));
        // REBOOT success was seen globally → global average.
        assert_eq!(
            p.average_cost(other_type, RepairAction::Reboot, true),
            1150.0
        );
        // REIMAGE was never seen anywhere → baseline duration.
        assert_eq!(
            p.average_cost(other_type, RepairAction::Reimage, true),
            RepairAction::Reimage.baseline_duration().as_secs_f64()
        );
    }

    #[test]
    fn detection_lead_modes() {
        let truth = reboot_process();
        let actual = platform(CostEstimation::PreferActual);
        assert_eq!(actual.replay_detection_lead(&truth), 100.0);
        let avg = platform(CostEstimation::AverageOnly);
        // Leads: 100 and 200 → average 150.
        assert_eq!(avg.replay_detection_lead(&truth), 150.0);
    }

    #[test]
    fn replay_of_adequate_policy_cures() {
        let p = platform(CostEstimation::PreferActual);
        let truth = reboot_process();
        let replay = p.replay(&truth, &Always(RepairAction::Reboot), 20);
        assert!(replay.handled());
        assert_eq!(replay.attempts.len(), 1);
        // Detection 100 + actual REBOOT success 1300.
        assert_eq!(replay.total_cost(), 1400.0);
    }

    #[test]
    fn replay_reproduces_the_logged_sequence_cost_exactly() {
        // Replaying the logged sequence (TRYNOP then REBOOT) in
        // PreferActual mode recovers the process's true downtime.
        #[derive(Debug)]
        struct Ladder;
        impl DecidePolicy for Ladder {
            fn decide(&self, s: &RecoveryState) -> Option<RepairAction> {
                Some(if s.tried().is_empty() {
                    RepairAction::TryNop
                } else {
                    RepairAction::Reboot
                })
            }
            fn name(&self) -> &str {
                "ladder"
            }
        }
        let p = platform(CostEstimation::PreferActual);
        let truth = reboot_process();
        let replay = p.replay(&truth, &Ladder, 20);
        assert!(replay.handled());
        assert_eq!(replay.total_cost(), truth.downtime().as_secs_f64());
    }

    #[test]
    fn weak_policy_hits_the_cap_and_is_rescued_by_forced_rma() {
        let p = platform(CostEstimation::PreferActual);
        let truth = reboot_process();
        let replay = p.replay(&truth, &Always(RepairAction::TryNop), 5);
        assert!(replay.handled(), "forced RMA at the cap always cures");
        assert_eq!(replay.attempts.len(), 5);
        assert_eq!(replay.attempts[4].0, RepairAction::Rma);
        assert!(replay.attempts[..4]
            .iter()
            .all(|(a, o)| *a == RepairAction::TryNop && !o.cured));
    }

    #[test]
    fn clueless_policy_is_unhandled_immediately() {
        let p = platform(CostEstimation::PreferActual);
        let truth = reboot_process();
        let replay = p.replay(&truth, &Clueless, 20);
        assert_eq!(replay.end, ReplayEnd::Unhandled { attempts: 0 });
        assert!(!replay.handled());
        assert!(replay.attempts.is_empty());
    }

    #[test]
    fn with_estimation_switches_mode() {
        let p = platform(CostEstimation::PreferActual);
        let q = p.with_estimation(CostEstimation::AverageOnly);
        assert_eq!(q.estimation(), CostEstimation::AverageOnly);
        assert_eq!(p.estimation(), CostEstimation::PreferActual);
    }

    #[test]
    fn with_estimation_shares_the_cost_model() {
        // The mode switch must never deep-clone the stats tables: both
        // views point at the same Arc'd allocation, as does a plain clone.
        let p = platform(CostEstimation::PreferActual);
        let q = p.with_estimation(CostEstimation::AverageOnly);
        assert!(p.shares_cost_model(&q));
        assert!(p.shares_cost_model(&p.clone()));
        // Distinct builds naturally do not share.
        assert!(!p.shares_cost_model(&platform(CostEstimation::PreferActual)));
    }

    #[test]
    fn cached_attempts_match_uncached_for_all_actions_and_occurrences() {
        let truths = [reboot_process(), reboot_process_2(), other_type_process()];
        let refs: Vec<&RecoveryProcess> = truths.iter().collect();
        for estimation in [CostEstimation::PreferActual, CostEstimation::AverageOnly] {
            let p = platform(estimation);
            // One set over every process, mixed types included.
            let cache = p.replay_cache(&refs);
            assert_eq!(cache.len(), truths.len());
            for (i, truth) in truths.iter().enumerate() {
                for action in RepairAction::ALL {
                    for occurrence in 0..4 {
                        assert_eq!(
                            p.attempt_cached(&cache, i, action, occurrence),
                            p.attempt(truth, action, occurrence),
                            "{estimation:?} process {i} {action:?} occurrence {occurrence}"
                        );
                    }
                }
                assert_eq!(
                    p.detection_lead_cached(&cache, i),
                    p.replay_detection_lead(truth)
                );
            }
        }
    }

    #[test]
    fn twenty_attempt_replay_charges_identical_costs() {
        // Regression for the O(n²) occurrence scan: a 20-attempt replay
        // must charge exactly what per-attempt occurrence reconstruction
        // (the old list-rescan definition) says, attempt by attempt.
        let p = platform(CostEstimation::PreferActual);
        let truth = reboot_process();
        let replay = p.replay(&truth, &Always(RepairAction::TryNop), 20);
        assert!(replay.handled());
        assert_eq!(replay.attempts.len(), 20);
        for (i, (action, outcome)) in replay.attempts.iter().enumerate() {
            let occurrence = replay.attempts[..i]
                .iter()
                .filter(|(a, _)| a == action)
                .count();
            assert_eq!(
                *outcome,
                p.attempt(&truth, *action, occurrence),
                "attempt {i}"
            );
        }
        // The logged TRYNOP failure is charged once; repeats fall back to
        // the average, so attempts 2..19 all cost the same.
        assert_eq!(replay.attempts[0].1.cost, 600.0);
        let repeat = replay.attempts[1].1.cost;
        assert!(replay.attempts[1..19].iter().all(|(_, o)| o.cost == repeat));
        assert_eq!(replay.attempts[19].0, RepairAction::Rma);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn replay_rejects_zero_cap() {
        let p = platform(CostEstimation::PreferActual);
        let _ = p.replay(&reboot_process(), &Clueless, 0);
    }
}
