//! Evaluation harness: time-ordered splits and the relative-cost /
//! coverage metrics of the paper's §5.
//!
//! The paper divides the log chronologically, trains on the early
//! fraction, and replays every *test* process under the candidate policy
//! through the simulation platform (built from training data only, in
//! average-cost mode so no test-process information leaks into the
//! estimates). Reported metrics:
//!
//! * **relative time cost** per error type: estimated replay cost of the
//!   policy over the processes it handles, divided by the actual logged
//!   downtime of those same processes (Figures 7, 8, 11, 14);
//! * **total time cost** across types (Figures 9, 12);
//! * **coverage**: the fraction of processes the policy can handle
//!   (Figure 10) — a process is *unhandled* when the policy reaches a
//!   state it has no decision for.

use std::collections::HashMap;

use recovery_simlog::RecoveryProcess;

use crate::error_type::ErrorType;
use crate::parallel::WorkerPool;
use crate::platform::SimulationPlatform;
use crate::policy::DecidePolicy;

/// Splits processes chronologically: the first `fraction` (by count, in
/// start-time order) for training, the rest for testing.
///
/// # Panics
///
/// Panics if `fraction` is not strictly between 0 and 1, or if the
/// processes are not sorted by start time (as
/// [`recovery_simlog::RecoveryLog::split_processes`] returns them).
pub fn time_ordered_split(
    processes: &[RecoveryProcess],
    fraction: f64,
) -> (&[RecoveryProcess], &[RecoveryProcess]) {
    assert!(
        fraction > 0.0 && fraction < 1.0,
        "training fraction must be in (0, 1), got {fraction}"
    );
    assert!(
        processes.windows(2).all(|w| w[0].start() <= w[1].start()),
        "processes must be in chronological start order"
    );
    let cut = ((processes.len() as f64) * fraction).round() as usize;
    let cut = cut.clamp(0, processes.len());
    processes.split_at(cut)
}

/// Per-error-type evaluation of one policy on the test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeEvaluation {
    /// The error type evaluated.
    pub error_type: ErrorType,
    /// The type's index in the reference ranking passed to [`evaluate`]
    /// (0-based; the paper's figures use this + 1).
    pub rank: usize,
    /// Test processes of this type.
    pub processes: usize,
    /// Test processes the policy handled (repaired without hitting an
    /// unknown state).
    pub handled: usize,
    /// Actual logged downtime summed over the *handled* processes,
    /// seconds.
    pub actual_cost: f64,
    /// Estimated replay downtime summed over the handled processes,
    /// seconds.
    pub estimated_cost: f64,
    /// Actual logged downtime summed over *all* processes of the type.
    pub actual_cost_all: f64,
}

impl TypeEvaluation {
    /// Estimated / actual cost over the handled processes — the paper's
    /// "relative time cost". Returns 1.0 when nothing was handled (no
    /// evidence either way).
    pub fn relative_cost(&self) -> f64 {
        if self.actual_cost > 0.0 {
            self.estimated_cost / self.actual_cost
        } else {
            1.0
        }
    }

    /// Fraction of the type's test processes the policy handled — the
    /// paper's "coverage rate".
    pub fn coverage(&self) -> f64 {
        if self.processes == 0 {
            1.0
        } else {
            self.handled as f64 / self.processes as f64
        }
    }
}

/// The evaluation of one policy over a test set.
///
/// ```
/// use recovery_core::evaluate::{evaluate, time_ordered_split};
/// use recovery_core::experiment::ExperimentContext;
/// use recovery_core::platform::{CostEstimation, SimulationPlatform};
/// use recovery_core::policy::UserStatePolicy;
/// use recovery_simlog::{GeneratorConfig, LogGenerator};
///
/// let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
/// let ctx = ExperimentContext::prepare(generated.log.split_processes(), 0.1, 5);
/// let (train, test) = time_ordered_split(&ctx.clean, 0.4);
/// let platform = SimulationPlatform::from_processes(train, CostEstimation::AverageOnly);
/// let report = evaluate(&UserStatePolicy::default(), &platform, test, &ctx.types, 20);
/// // The user policy handles everything it meets.
/// assert_eq!(report.overall_coverage(), 1.0);
/// assert!(report.evaluated_processes() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// Name of the evaluated policy.
    pub policy_name: String,
    /// Per-type rows, ordered by the reference ranking.
    pub per_type: Vec<TypeEvaluation>,
}

impl EvaluationReport {
    /// Total actual downtime over handled processes, seconds.
    pub fn total_actual(&self) -> f64 {
        self.per_type.iter().map(|t| t.actual_cost).sum()
    }

    /// Total estimated downtime over handled processes, seconds.
    pub fn total_estimated(&self) -> f64 {
        self.per_type.iter().map(|t| t.estimated_cost).sum()
    }

    /// Total number of test processes evaluated (handled or not). Check
    /// this before reading the ratios: an empty evaluation (e.g. an
    /// extreme training fraction left no test data) reports the neutral
    /// 1.0, which means "no evidence", not "no improvement".
    pub fn evaluated_processes(&self) -> usize {
        self.per_type.iter().map(|t| t.processes).sum()
    }

    /// Overall estimated / actual ratio over handled processes — e.g. the
    /// paper's headline "89.02% of the original downtime". Returns the
    /// neutral 1.0 when nothing was handled; see
    /// [`EvaluationReport::evaluated_processes`].
    pub fn overall_relative_cost(&self) -> f64 {
        let actual = self.total_actual();
        if actual > 0.0 {
            self.total_estimated() / actual
        } else {
            1.0
        }
    }

    /// Overall coverage across all evaluated processes.
    pub fn overall_coverage(&self) -> f64 {
        let total: usize = self.per_type.iter().map(|t| t.processes).sum();
        if total == 0 {
            return 1.0;
        }
        let handled: usize = self.per_type.iter().map(|t| t.handled).sum();
        handled as f64 / total as f64
    }

    /// The row for one error type, if it was evaluated.
    pub fn for_type(&self, et: ErrorType) -> Option<&TypeEvaluation> {
        self.per_type.iter().find(|t| t.error_type == et)
    }
}

/// Replays `policy` over every test process whose error type appears in
/// `types` (the reference ranking order, e.g. the 40 most frequent types
/// of the full log), and aggregates the paper's metrics.
///
/// `platform` must be built from *training* data; use
/// [`crate::platform::CostEstimation::AverageOnly`] so test-process
/// actual costs never leak into estimates.
///
/// # Panics
///
/// Panics if `max_attempts` is zero.
pub fn evaluate<P: DecidePolicy + ?Sized>(
    policy: &P,
    platform: &SimulationPlatform,
    test: &[RecoveryProcess],
    types: &[ErrorType],
    max_attempts: usize,
) -> EvaluationReport {
    assert!(max_attempts > 0, "need at least one attempt");
    let rank_of = rank_index(types);
    let outcomes = test
        .iter()
        .map(|p| replay_outcome(policy, platform, p, &rank_of, max_attempts));
    aggregate(policy.name(), types, outcomes)
}

/// [`evaluate`] with the replays fanned out over `pool`, one contiguous
/// range of the test set per worker.
///
/// The per-process results are concatenated in test-set order and folded
/// by the same sequential accumulation as [`evaluate`], so the report —
/// floating-point sums included — is bit-identical to the sequential one
/// for any thread count. (Summing per-worker partials instead would
/// regroup the additions and drift in the last bits.)
///
/// # Panics
///
/// Panics if `max_attempts` is zero.
pub fn evaluate_parallel<P: DecidePolicy + Sync + ?Sized>(
    policy: &P,
    platform: &SimulationPlatform,
    test: &[RecoveryProcess],
    types: &[ErrorType],
    max_attempts: usize,
    pool: &WorkerPool,
) -> EvaluationReport {
    assert!(max_attempts > 0, "need at least one attempt");
    let rank_of = rank_index(types);
    let ranges: Vec<&[RecoveryProcess]> = test
        .chunks(test.len().div_ceil(pool.threads()).max(1))
        .collect();
    let outcomes = pool.map_indexed(ranges.len(), |i| {
        ranges[i]
            .iter()
            .map(|p| replay_outcome(policy, platform, p, &rank_of, max_attempts))
            .collect::<Vec<_>>()
    });
    aggregate(policy.name(), types, outcomes.into_iter().flatten())
}

/// The result of replaying one test process, reduced to what aggregation
/// needs. `None` when the process's error type is outside the ranking.
#[derive(Debug, Clone, Copy)]
struct ProcessOutcome {
    rank: usize,
    actual: f64,
    handled: bool,
    estimated: f64,
}

fn rank_index(types: &[ErrorType]) -> HashMap<ErrorType, usize> {
    types.iter().enumerate().map(|(i, &t)| (t, i)).collect()
}

fn replay_outcome<P: DecidePolicy + ?Sized>(
    policy: &P,
    platform: &SimulationPlatform,
    p: &RecoveryProcess,
    rank_of: &HashMap<ErrorType, usize>,
    max_attempts: usize,
) -> Option<ProcessOutcome> {
    let &rank = rank_of.get(&ErrorType::of(p))?;
    let replay = platform.replay(p, policy, max_attempts);
    Some(ProcessOutcome {
        rank,
        actual: p.downtime().as_secs_f64(),
        handled: replay.handled(),
        estimated: replay.total_cost(),
    })
}

/// Folds per-process outcomes, *in test-set order*, into the per-type
/// rows. Kept sequential on purpose: both [`evaluate`] and
/// [`evaluate_parallel`] funnel through this one accumulation so their
/// floating-point sums are performed in the identical order.
fn aggregate(
    policy_name: &str,
    types: &[ErrorType],
    outcomes: impl IntoIterator<Item = Option<ProcessOutcome>>,
) -> EvaluationReport {
    let mut rows: Vec<TypeEvaluation> = types
        .iter()
        .enumerate()
        .map(|(rank, &error_type)| TypeEvaluation {
            error_type,
            rank,
            processes: 0,
            handled: 0,
            actual_cost: 0.0,
            estimated_cost: 0.0,
            actual_cost_all: 0.0,
        })
        .collect();
    for outcome in outcomes.into_iter().flatten() {
        let row = &mut rows[outcome.rank];
        row.processes += 1;
        row.actual_cost_all += outcome.actual;
        if outcome.handled {
            row.handled += 1;
            row.actual_cost += outcome.actual;
            row.estimated_cost += outcome.estimated;
        }
    }
    EvaluationReport {
        policy_name: policy_name.to_owned(),
        per_type: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CostEstimation;
    use crate::policy::UserStatePolicy;
    use recovery_simlog::{ActionRecord, MachineId, RepairAction, SimTime, SymptomId};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn proc(machine: u32, start: u64, sym: u32, req: RepairAction) -> RecoveryProcess {
        RecoveryProcess::new(
            MachineId::new(machine),
            vec![(t(start), SymptomId::new(sym))],
            vec![ActionRecord {
                time: t(start + 60),
                action: req,
            }],
            t(start + 60 + 900),
        )
    }

    #[test]
    fn split_respects_fraction_and_order() {
        let processes: Vec<_> = (0..10)
            .map(|i| proc(i, i as u64 * 1000, 1, RepairAction::Reboot))
            .collect();
        let (train, test) = time_ordered_split(&processes, 0.4);
        assert_eq!(train.len(), 4);
        assert_eq!(test.len(), 6);
        assert!(train.last().unwrap().start() <= test.first().unwrap().start());
    }

    #[test]
    #[should_panic(expected = "training fraction")]
    fn split_rejects_full_fraction() {
        let processes = vec![proc(0, 0, 1, RepairAction::Reboot)];
        let _ = time_ordered_split(&processes, 1.0);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn split_rejects_unordered_input() {
        let processes = vec![
            proc(0, 1000, 1, RepairAction::Reboot),
            proc(1, 0, 1, RepairAction::Reboot),
        ];
        let _ = time_ordered_split(&processes, 0.5);
    }

    #[test]
    fn user_policy_evaluates_near_unity() {
        // Train and test processes share the same shape, so replaying the
        // generating policy in average mode lands near relative cost 1.
        let train: Vec<_> = (0..20)
            .map(|i| {
                // The ladder: TRYNOP fails then REBOOT cures.
                RecoveryProcess::new(
                    MachineId::new(i),
                    vec![(t(i as u64 * 10_000), SymptomId::new(1))],
                    vec![
                        ActionRecord {
                            time: t(i as u64 * 10_000 + 60),
                            action: RepairAction::TryNop,
                        },
                        ActionRecord {
                            time: t(i as u64 * 10_000 + 660),
                            action: RepairAction::Reboot,
                        },
                    ],
                    t(i as u64 * 10_000 + 2460),
                )
            })
            .collect();
        let test = train.clone();
        let platform = SimulationPlatform::from_processes(&train, CostEstimation::AverageOnly);
        let types = [ErrorType::new(SymptomId::new(1))];
        let report = evaluate(&UserStatePolicy::default(), &platform, &test, &types, 20);
        let row = &report.per_type[0];
        assert_eq!(row.processes, 20);
        assert_eq!(row.handled, 20);
        assert!(
            (row.relative_cost() - 1.0).abs() < 1e-9,
            "{}",
            row.relative_cost()
        );
        assert_eq!(report.overall_coverage(), 1.0);
    }

    #[test]
    fn parallel_ranges_report_the_sequential_bits() {
        // Uneven costs across types, and more workers than processes at
        // the top, so range boundaries and empty tails both occur.
        let actions = [
            RepairAction::TryNop,
            RepairAction::Reboot,
            RepairAction::Reimage,
        ];
        let test: Vec<_> = (0..7u32)
            .map(|i| proc(i, u64::from(i) * 1_000, i % 3, actions[(i % 3) as usize]))
            .collect();
        let platform = SimulationPlatform::from_processes(&test, CostEstimation::AverageOnly);
        let types: Vec<_> = (0..3).map(|s| ErrorType::new(SymptomId::new(s))).collect();
        let policy = UserStatePolicy::default();
        let sequential = evaluate(&policy, &platform, &test, &types, 20);
        for threads in [1, 2, 3, 4, 16] {
            let pool = WorkerPool::new(threads);
            let parallel = evaluate_parallel(&policy, &platform, &test, &types, 20, &pool);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
        let pool = WorkerPool::new(2);
        let empty = evaluate_parallel(&policy, &platform, &[], &types, 20, &pool);
        assert_eq!(empty, evaluate(&policy, &platform, &[], &types, 20));
    }

    #[test]
    fn unknown_types_are_excluded() {
        let test = vec![proc(0, 0, 9, RepairAction::Reboot)];
        let platform = SimulationPlatform::from_processes(&test, CostEstimation::AverageOnly);
        let types = [ErrorType::new(SymptomId::new(1))];
        let report = evaluate(&UserStatePolicy::default(), &platform, &test, &types, 20);
        assert_eq!(report.per_type[0].processes, 0);
        assert_eq!(report.per_type[0].coverage(), 1.0);
        assert_eq!(report.overall_relative_cost(), 1.0);
    }

    #[test]
    fn partial_policy_shows_reduced_coverage() {
        #[derive(Debug)]
        struct Nothing;
        impl DecidePolicy for Nothing {
            fn decide(&self, _s: &crate::state::RecoveryState) -> Option<RepairAction> {
                None
            }
            fn name(&self) -> &str {
                "nothing"
            }
        }
        let test: Vec<_> = (0..4)
            .map(|i| proc(i, i as u64 * 1000, 1, RepairAction::Reboot))
            .collect();
        let platform = SimulationPlatform::from_processes(&test, CostEstimation::AverageOnly);
        let types = [ErrorType::new(SymptomId::new(1))];
        let report = evaluate(&Nothing, &platform, &test, &types, 20);
        assert_eq!(report.evaluated_processes(), 4);
        assert_eq!(report.per_type[0].handled, 0);
        assert_eq!(report.per_type[0].coverage(), 0.0);
        assert_eq!(report.overall_coverage(), 0.0);
        // Unhandled cases contribute no cost (paper §5.1).
        assert_eq!(report.total_estimated(), 0.0);
    }

    #[test]
    fn report_lookup_by_type() {
        let test = vec![proc(0, 0, 1, RepairAction::Reboot)];
        let platform = SimulationPlatform::from_processes(&test, CostEstimation::AverageOnly);
        let t1 = ErrorType::new(SymptomId::new(1));
        let report = evaluate(&UserStatePolicy::default(), &platform, &test, &[t1], 20);
        assert!(report.for_type(t1).is_some());
        assert!(report.for_type(ErrorType::new(SymptomId::new(2))).is_none());
    }
}
