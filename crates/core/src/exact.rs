//! Exact dynamic programming over the *empirical* per-type replay model.
//!
//! Under hypotheses H1/H2, replaying a process reveals exactly one fact
//! per failed attempt: the required action is stronger than everything
//! tried so far. The empirical model of one error type is therefore fully
//! described by the distribution of *required actions* over its training
//! processes plus average attempt costs, and the optimal replay policy can
//! be computed exactly by dynamic programming over a grid of
//! (strongest action failed so far, attempts made) cells.
//!
//! Every exact value here is made of one step: trying action `a` with
//! cure probability `p` from a state whose failure successor is worth
//! `V′` costs `p·S(a) + (1−p)·(F(a) + V′)`, summed in that order. The
//! solver takes the minimum of the step over a cell's actions, row by row
//! from the last attempt back; [`EmpiricalTypeModel::chain`] applies the
//! same step backward along one policy's path, so a chain of the solved
//! policy reproduces the solver's values bit for bit.
//!
//! This module is used two ways:
//!
//! * as the *scan* step of the paper's selection-tree accelerator (§5.3):
//!   candidate actions proposed by a coarse Q-table are evaluated exactly
//!   instead of waiting for Q-learning to disambiguate near-ties by
//!   sampling;
//! * as a test oracle: Q-learning's converged policy must match the DP
//!   optimum on the same training data.

use recovery_simlog::{RecoveryProcess, RepairAction};

use crate::error_type::ErrorType;
use crate::platform::SimulationPlatform;
use crate::policy::DecidePolicy;
use crate::state::{ActionMultiset, RecoveryState};

/// The grid's columns: the strongest action failed so far, `None` first.
/// `RMA` always cures, so it is never the strongest failure.
const STRONGEST: [Option<RepairAction>; 4] = [
    None,
    Some(RepairAction::TryNop),
    Some(RepairAction::Reboot),
    Some(RepairAction::Reimage),
];

/// The grid column of a strongest failure, its index in `STRONGEST`;
/// `RMA` falls past the last column.
fn column(strongest: Option<RepairAction>) -> usize {
    strongest.map_or(0, |a| a.index() + 1)
}

/// The grid cell of a state: `attempts × 4 + column`, reading attempts
/// past the last of `rows` as the last row (where `RMA` is forced
/// anyway). A strongest failure of `RMA` has no cell: its column would
/// alias the next row.
fn cell(strongest: Option<RepairAction>, attempts: usize, rows: usize) -> Option<usize> {
    let col = column(strongest);
    (col < STRONGEST.len()).then(|| attempts.min(rows - 1) * STRONGEST.len() + col)
}

/// The empirical replay model of one error type.
///
/// ```
/// use recovery_core::error_type::ErrorType;
/// use recovery_core::exact::EmpiricalTypeModel;
/// use recovery_core::platform::{CostEstimation, SimulationPlatform};
/// use recovery_core::policy::UserStatePolicy;
/// use recovery_simlog::{GeneratorConfig, LogGenerator};
///
/// let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
/// let processes = generated.log.split_processes();
/// let et = ErrorType::of(&processes[0]);
/// let of_type: Vec<_> = processes.iter().filter(|p| ErrorType::of(p) == et).collect();
/// let platform = SimulationPlatform::from_processes(&processes, CostEstimation::AverageOnly);
/// let model = EmpiricalTypeModel::new(et, &of_type, &platform);
///
/// // The DP optimum never loses to the production ladder.
/// let optimal = model.optimal(20);
/// let ladder = model.policy_cost(&UserStatePolicy::default(), 20).unwrap();
/// assert!(optimal.expected_cost <= ladder + 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalTypeModel {
    error_type: ErrorType,
    /// `required_counts[a]` = training processes whose required action is
    /// exactly `a`.
    required_counts: [usize; RepairAction::COUNT],
    total: usize,
    avg_success: [f64; RepairAction::COUNT],
    avg_failure: [f64; RepairAction::COUNT],
}

impl EmpiricalTypeModel {
    /// Builds the model for `error_type` from its training processes,
    /// taking average costs from `platform` (so cost fallbacks agree with
    /// replay exactly).
    ///
    /// # Panics
    ///
    /// Panics if `processes` is empty or contains a process of a
    /// different error type.
    pub fn new(
        error_type: ErrorType,
        processes: &[&RecoveryProcess],
        platform: &SimulationPlatform,
    ) -> Self {
        assert!(!processes.is_empty(), "need at least one training process");
        let mut required_counts = [0usize; RepairAction::COUNT];
        for p in processes {
            assert_eq!(
                ErrorType::of(p),
                error_type,
                "process of a different error type passed to the model"
            );
            required_counts[p.required_action().index()] += 1;
        }
        let avg_success = RepairAction::ALL.map(|a| platform.average_cost(error_type, a, true));
        let avg_failure = RepairAction::ALL.map(|a| platform.average_cost(error_type, a, false));
        EmpiricalTypeModel {
            error_type,
            required_counts,
            total: processes.len(),
            avg_success,
            avg_failure,
        }
    }

    /// The modeled error type.
    pub fn error_type(&self) -> ErrorType {
        self.error_type
    }

    /// Processes with required action at most `a`.
    fn cum(&self, a: Option<RepairAction>) -> usize {
        match a {
            None => 0,
            Some(a) => self.required_counts[..=a.index()].iter().sum(),
        }
    }

    /// The probability that `action` cures, given that every action up to
    /// strength `strongest_failed` has already failed.
    ///
    /// `RMA` always cures (it is manual repair). Actions no stronger than
    /// the strongest failure cannot cure (H2). States where everything
    /// weaker than `RMA` has provably failed give probability 0 to the
    /// remaining automated actions.
    pub fn success_prob(
        &self,
        strongest_failed: Option<RepairAction>,
        action: RepairAction,
    ) -> f64 {
        if action == RepairAction::Rma {
            return 1.0;
        }
        if let Some(m) = strongest_failed {
            if !action.at_least_as_strong_as(m) || action == m {
                return 0.0;
            }
        }
        let excluded = self.cum(strongest_failed);
        let remaining = self.total - excluded;
        if remaining == 0 {
            return 0.0;
        }
        let covered = self.cum(Some(action)).saturating_sub(excluded);
        covered as f64 / remaining as f64
    }

    /// Average cost of attempting `action` with the given outcome.
    pub fn average_cost(&self, action: RepairAction, cured: bool) -> f64 {
        if cured {
            self.avg_success[action.index()]
        } else {
            self.avg_failure[action.index()]
        }
    }

    /// The one step every exact value is made of: the expected cost of
    /// trying `action` with cure probability `p` when a failure leads on
    /// to a state worth `next()`. A certain cure never reads `next`.
    fn step(&self, p: f64, action: RepairAction, next: impl FnOnce() -> f64) -> f64 {
        let mut v = p * self.average_cost(action, true);
        if p < 1.0 {
            v += (1.0 - p) * (self.average_cost(action, false) + next());
        }
        v
    }

    /// Solves for the optimal replay policy by exact DP, with the forced
    /// `RMA` at attempt `max_attempts - 1`. Returns the solution including
    /// the expected *repair* cost from the initial state (excluding the
    /// detection lead, which no policy can influence).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn optimal(&self, max_attempts: usize) -> ExactSolution {
        self.constrained_optimal(max_attempts, [])
    }

    /// Solves the same DP but restricted to candidate actions — the
    /// selection-tree scan. Each `(tried, action)` pair allows `action`
    /// in the grid cell of the tried multiset; a cell allows the union of
    /// its states' candidates, and a cell with none falls back to all
    /// actions. Pairs whose tried multiset holds `RMA` have no cell and
    /// are ignored. Each cell scans its allowed actions in
    /// [`RepairAction::ALL`] order and keeps the first cheapest, so the
    /// solution does not depend on the order of the pairs.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn constrained_optimal(
        &self,
        max_attempts: usize,
        candidates: impl IntoIterator<Item = (ActionMultiset, RepairAction)>,
    ) -> ExactSolution {
        assert!(max_attempts > 0, "need at least one attempt");
        // One bitmask of allowed actions per cell, by action index.
        let mut allowed = vec![0u8; max_attempts * STRONGEST.len()];
        for (tried, action) in candidates {
            if let Some(c) = cell(tried.strongest(), tried.total(), max_attempts) {
                allowed[c] |= 1 << action.index();
            }
        }
        let mut choice = vec![RepairAction::Rma; allowed.len()];
        // Backward induction on attempts; `next` is row `attempts + 1`.
        let mut next = [0.0; STRONGEST.len()];
        for attempts in (0..max_attempts).rev() {
            let mut row = [0.0; STRONGEST.len()];
            for (col, strongest) in STRONGEST.into_iter().enumerate() {
                let c = attempts * STRONGEST.len() + col;
                let mask = match allowed[c] {
                    _ if attempts + 1 >= max_attempts => 1 << RepairAction::Rma.index(),
                    0 => u8::MAX,
                    mask => mask,
                };
                let mut best = f64::INFINITY;
                for a in RepairAction::ALL {
                    if mask & 1 << a.index() == 0 {
                        continue;
                    }
                    // `RMA` cures for certain, so its (missing) column is
                    // never read.
                    let v = self.step(self.success_prob(strongest, a), a, || {
                        next[column(strongest.max(Some(a)))]
                    });
                    if v < best {
                        best = v;
                        choice[c] = a;
                    }
                }
                row[col] = best;
            }
            next = row;
        }
        ExactSolution {
            error_type: self.error_type,
            expected_cost: next[0],
            choice,
        }
    }

    /// The exact expected repair cost of an arbitrary [`DecidePolicy`]
    /// under this model (excluding detection lead), or `None` if the
    /// policy is unhandled on some reachable state: the first value of
    /// its [`EmpiricalTypeModel::chain`] from the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn policy_cost<P: DecidePolicy + ?Sized>(
        &self,
        policy: &P,
        max_attempts: usize,
    ) -> Option<f64> {
        let initial = RecoveryState::initial(self.error_type);
        self.chain(policy, &initial, max_attempts)
            .map(|chain| chain[0].2)
    }

    /// The states `policy` passes through from `start` (conditioning on
    /// its failures having happened) until a cure is certain, each with
    /// the action taken there and its expected cost-to-go, filled
    /// backward by the solver's step. The action is forced to `RMA` at
    /// attempt `max_attempts - 1`. Returns `None` if the policy is
    /// unhandled on some state of the chain.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn chain<P: DecidePolicy + ?Sized>(
        &self,
        policy: &P,
        start: &RecoveryState,
        max_attempts: usize,
    ) -> Option<Vec<(RecoveryState, RepairAction, f64)>> {
        assert!(max_attempts > 0, "need at least one attempt");
        // Forward: the path, holding each state's cure probability in its
        // value slot until the backward fill.
        let mut chain = Vec::new();
        let mut state = *start;
        loop {
            let action = if state.attempts() + 1 >= max_attempts {
                RepairAction::Rma
            } else {
                policy.decide(&state)?
            };
            let p = self.success_prob(state.tried().strongest(), action);
            chain.push((state, action, p));
            if p >= 1.0 {
                break;
            }
            state = state.after(action);
        }
        let mut next = 0.0;
        for (_, action, value) in chain.iter_mut().rev() {
            *value = self.step(*value, *action, || next);
            next = *value;
        }
        Some(chain)
    }
}

/// The DP solution: the optimal action in every (strongest failed,
/// attempts) cell and the optimal expected repair cost from the initial
/// state.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    error_type: ErrorType,
    /// Expected repair cost (seconds) of the optimal policy from the
    /// initial state, excluding detection lead.
    pub expected_cost: f64,
    /// The optimal action of each grid cell, `attempts × 4 + column`.
    choice: Vec<RepairAction>,
}

impl ExactSolution {
    /// The error type this solution is for.
    pub fn error_type(&self) -> ErrorType {
        self.error_type
    }

    /// The optimal first action.
    pub fn first_action(&self) -> RepairAction {
        self.choice[0]
    }

    /// The optimal action in the given abstract state; attempts past the
    /// cap read the last attempt's (forced `RMA`).
    ///
    /// # Panics
    ///
    /// Panics if `strongest_failed` is `RMA`, which never fails.
    pub fn action_at(
        &self,
        strongest_failed: Option<RepairAction>,
        attempts: usize,
    ) -> RepairAction {
        let c = self.cell_of(strongest_failed, attempts);
        self.choice[c.expect("RMA never fails, so it is never the strongest failure")]
    }

    /// The cell of a state, or `None` if `RMA` failed in it.
    fn cell_of(&self, strongest_failed: Option<RepairAction>, attempts: usize) -> Option<usize> {
        cell(
            strongest_failed,
            attempts,
            self.choice.len() / STRONGEST.len(),
        )
    }
}

impl DecidePolicy for ExactSolution {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        if state.error_type() != self.error_type {
            return None;
        }
        let c = self.cell_of(state.tried().strongest(), state.attempts())?;
        Some(self.choice[c])
    }

    fn name(&self) -> &str {
        "exact-dp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CostEstimation;
    use crate::state::StateCodec;
    use recovery_simlog::{ActionRecord, MachineId, SimTime, SymptomId};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// Builds a process of type 5 whose required action is `req`, with a
    /// simple timing layout so averages are easy to reason about.
    fn process(start: u64, req: RepairAction) -> RecoveryProcess {
        RecoveryProcess::new(
            MachineId::new(0),
            vec![(t(start), SymptomId::new(5))],
            vec![ActionRecord {
                time: t(start + 100),
                action: req,
            }],
            t(start + 100 + 1000 * (req.index() as u64 + 1)),
        )
    }

    fn model(reqs: &[RepairAction]) -> EmpiricalTypeModel {
        model_of(
            reqs.iter()
                .enumerate()
                .map(|(i, &r)| process(i as u64 * 100_000, r))
                .collect(),
        )
    }

    fn model_of(processes: Vec<RecoveryProcess>) -> EmpiricalTypeModel {
        let refs: Vec<&RecoveryProcess> = processes.iter().collect();
        let platform = SimulationPlatform::from_processes(&processes, CostEstimation::AverageOnly);
        EmpiricalTypeModel::new(ErrorType::new(SymptomId::new(5)), &refs, &platform)
    }

    #[test]
    fn success_probs_are_bayesian_over_required_strength() {
        // 2 cured by TRYNOP, 1 by REBOOT, 1 by REIMAGE.
        let m = model(&[
            RepairAction::TryNop,
            RepairAction::TryNop,
            RepairAction::Reboot,
            RepairAction::Reimage,
        ]);
        assert!((m.success_prob(None, RepairAction::TryNop) - 0.5).abs() < 1e-12);
        assert!((m.success_prob(None, RepairAction::Reboot) - 0.75).abs() < 1e-12);
        assert_eq!(m.success_prob(None, RepairAction::Rma), 1.0);
        // After TRYNOP failed: 2 of 4 eliminated; REBOOT cures 1 of 2.
        let after_nop = Some(RepairAction::TryNop);
        assert!((m.success_prob(after_nop, RepairAction::Reboot) - 0.5).abs() < 1e-12);
        // Retrying the failed action cannot work.
        assert_eq!(m.success_prob(after_nop, RepairAction::TryNop), 0.0);
        // A weaker action than an already-failed stronger one cannot work.
        assert_eq!(
            m.success_prob(Some(RepairAction::Reboot), RepairAction::TryNop),
            0.0
        );
    }

    #[test]
    fn all_required_rma_makes_automated_actions_hopeless() {
        let m = model(&[RepairAction::Rma, RepairAction::Rma]);
        assert_eq!(m.success_prob(None, RepairAction::Reimage), 0.0);
        assert_eq!(m.success_prob(None, RepairAction::Rma), 1.0);
        let opt = m.optimal(20);
        assert_eq!(opt.first_action(), RepairAction::Rma);
    }

    #[test]
    fn optimal_skips_hopeless_cheap_actions() {
        // Every process needs REIMAGE: a deceptive type. The optimal
        // policy must start with REIMAGE, not the ladder.
        let m = model(&[RepairAction::Reimage; 10]);
        let opt = m.optimal(20);
        assert_eq!(opt.first_action(), RepairAction::Reimage);
        // And its cost beats the user ladder's.
        let ladder_cost = m
            .policy_cost(&crate::policy::UserStatePolicy::default(), 20)
            .unwrap();
        assert!(
            opt.expected_cost < ladder_cost,
            "optimal {} vs ladder {ladder_cost}",
            opt.expected_cost
        );
    }

    #[test]
    fn optimal_keeps_cheap_action_when_it_usually_works() {
        // 9 of 10 processes cured by TRYNOP (cheap): trying it first wins.
        let mut reqs = vec![RepairAction::TryNop; 9];
        reqs.push(RepairAction::Reimage);
        let m = model(&reqs);
        let opt = m.optimal(20);
        assert_eq!(opt.first_action(), RepairAction::TryNop);
    }

    #[test]
    fn policy_cost_matches_optimal_for_the_dp_policy() {
        let m = model(&[
            RepairAction::TryNop,
            RepairAction::Reboot,
            RepairAction::Reboot,
            RepairAction::Reimage,
        ]);
        let opt = m.optimal(20);
        // The chain applies the solver's own step, so the values agree
        // to the bit.
        assert_eq!(m.policy_cost(&opt, 20), Some(opt.expected_cost));
    }

    #[test]
    fn policy_cost_is_none_for_partial_policies() {
        #[derive(Debug)]
        struct OnlyFirst;
        impl DecidePolicy for OnlyFirst {
            fn decide(&self, s: &RecoveryState) -> Option<RepairAction> {
                s.tried().is_empty().then_some(RepairAction::TryNop)
            }
            fn name(&self) -> &str {
                "only-first"
            }
        }
        let m = model(&[RepairAction::TryNop, RepairAction::Reimage]);
        assert_eq!(m.policy_cost(&OnlyFirst, 20), None);
    }

    #[test]
    fn constrained_optimal_respects_candidates() {
        let m = model(&[RepairAction::Reimage; 5]);
        // Forbid REIMAGE everywhere: the solver must fall back to RMA as
        // the best of the rest.
        let codec = StateCodec::new(20);
        let sol = m.constrained_optimal(
            20,
            (0..codec.num_states()).flat_map(|i| {
                [
                    RepairAction::TryNop,
                    RepairAction::Reboot,
                    RepairAction::Rma,
                ]
                .map(|a| (codec.decode(i), a))
            }),
        );
        assert_ne!(sol.first_action(), RepairAction::Reimage);
        let unconstrained = m.optimal(20);
        assert!(sol.expected_cost >= unconstrained.expected_cost);
    }

    #[test]
    fn exact_ties_do_not_depend_on_candidate_order() {
        // Every process climbs the ladder to REIMAGE, and TRYNOP and
        // REBOOT each fail in 1000 s: once REBOOT has failed, neither can
        // cure and both lead to the same state at the same cost.
        let m = model_of(
            (0..4u64)
                .map(|i| {
                    let start = i * 100_000;
                    let ladder = [
                        RepairAction::TryNop,
                        RepairAction::Reboot,
                        RepairAction::Reimage,
                    ];
                    RecoveryProcess::new(
                        MachineId::new(0),
                        vec![(t(start), SymptomId::new(5))],
                        (0..3u64)
                            .map(|k| ActionRecord {
                                time: t(start + 100 + 1000 * k),
                                action: ladder[k as usize],
                            })
                            .collect(),
                        t(start + 3100),
                    )
                })
                .collect(),
        );
        let failed = Some(RepairAction::Reboot);
        for a in [RepairAction::TryNop, RepairAction::Reboot] {
            assert_eq!(m.success_prob(failed, a), 0.0);
            assert_eq!(m.average_cost(a, false), 1000.0);
        }
        let tried = ActionMultiset::from_actions([RepairAction::Reboot]);
        let solve = |order: [RepairAction; 2]| m.constrained_optimal(20, order.map(|a| (tried, a)));
        let forward = solve([RepairAction::TryNop, RepairAction::Reboot]);
        assert_eq!(forward, solve([RepairAction::Reboot, RepairAction::TryNop]));
        // The tie goes to the first in `RepairAction::ALL` order.
        assert_eq!(forward.action_at(failed, 1), RepairAction::TryNop);
    }

    #[test]
    fn decide_has_no_answer_after_a_failed_rma() {
        let m = model(&[RepairAction::Reboot; 4]);
        let opt = m.optimal(20);
        let et = ErrorType::new(SymptomId::new(5));
        // RMA never fails in the model, so no grid cell holds this state;
        // indexing it as column 4 would read the next row's first cell.
        let after_rma = RecoveryState::initial(et).after(RepairAction::Rma);
        assert_eq!(opt.decide(&after_rma), None);
        assert_eq!(opt.decide(&after_rma.after(RepairAction::TryNop)), None);
    }

    #[test]
    fn decide_maps_states_to_abstract_dp_states() {
        let m = model(&[RepairAction::Reboot; 4]);
        let opt = m.optimal(20);
        let et = ErrorType::new(SymptomId::new(5));
        let s0 = RecoveryState::initial(et);
        assert_eq!(opt.decide(&s0), Some(opt.first_action()));
        // Foreign type → None.
        let foreign = RecoveryState::initial(ErrorType::new(SymptomId::new(6)));
        assert_eq!(opt.decide(&foreign), None);
    }

    #[test]
    fn forced_rma_bounds_the_horizon() {
        let m = model(&[RepairAction::Rma; 3]);
        // With max_attempts = 1 the only action is the forced RMA.
        let sol = m.optimal(1);
        assert_eq!(sol.first_action(), RepairAction::Rma);
        assert!((sol.expected_cost - m.average_cost(RepairAction::Rma, true)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "different error type")]
    fn rejects_mixed_types() {
        let a = process(0, RepairAction::TryNop);
        let mut b = process(100_000, RepairAction::TryNop);
        b = RecoveryProcess::new(
            b.machine(),
            vec![(t(100_000), SymptomId::new(6))],
            b.actions().to_vec(),
            b.success_time(),
        );
        let platform = SimulationPlatform::from_processes(
            std::slice::from_ref(&a),
            CostEstimation::AverageOnly,
        );
        let _ = EmpiricalTypeModel::new(ErrorType::new(SymptomId::new(5)), &[&a, &b], &platform);
    }
}
