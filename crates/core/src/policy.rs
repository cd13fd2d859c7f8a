//! Recovery policies over MDP states: trained, user-defined, and hybrid.

use std::collections::{HashMap, HashSet};
use std::fmt;

use recovery_mdp::QTable;
use recovery_simlog::{PolicyContext, RecoveryPolicy, RepairAction};

use crate::error_type::ErrorType;
use crate::state::{ActionMultiset, RecoveryState};

/// A policy over MDP states.
///
/// Unlike [`recovery_simlog::RecoveryPolicy`] (which always answers),
/// `decide` may return `None` for states the policy does not cover —
/// the *unhandled* cases of the paper's §5.1, which the hybrid policy
/// repairs by falling back to the user-defined policy.
pub trait DecidePolicy {
    /// The chosen action for `state`, or `None` if the state is not
    /// covered.
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;
}

impl<P: DecidePolicy + ?Sized> DecidePolicy for &P {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        (**self).decide(state)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<P: DecidePolicy + ?Sized> DecidePolicy for Box<P> {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        (**self).decide(state)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The RL-trained greedy policy: in each state, the action minimizing the
/// learned Q-value. States absent from the table yield `None`.
#[derive(Debug, Clone, Default)]
pub struct TrainedPolicy {
    q: QTable<RecoveryState, RepairAction>,
}

impl TrainedPolicy {
    /// Wraps a learned Q-table.
    pub fn new(q: QTable<RecoveryState, RepairAction>) -> Self {
        TrainedPolicy { q }
    }

    /// The underlying Q-table.
    pub fn q(&self) -> &QTable<RecoveryState, RepairAction> {
        &self.q
    }

    /// Mutable access to the Q-table (merging per-type training results).
    pub fn q_mut(&mut self) -> &mut QTable<RecoveryState, RepairAction> {
        &mut self.q
    }

    /// The expected cost-to-go of the greedy action in `state`, if known.
    pub fn expected_cost(&self, state: &RecoveryState) -> Option<f64> {
        self.q.min_value(state, &RepairAction::ALL)
    }

    /// The error types this policy has any knowledge of.
    pub fn known_types(&self) -> Vec<ErrorType> {
        let set: HashSet<ErrorType> = self.q.iter().map(|((s, _), _, _)| s.error_type()).collect();
        let mut v: Vec<ErrorType> = set.into_iter().collect();
        v.sort();
        v
    }

    /// Whether this policy can decide the *initial* state of `et` — the
    /// minimum requirement to attempt recovery of that type at all.
    pub fn covers_type(&self, et: ErrorType) -> bool {
        self.q
            .knows_state(&RecoveryState::initial(et), &RepairAction::ALL)
    }
}

impl DecidePolicy for TrainedPolicy {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        self.q
            .best_action(state, &RepairAction::ALL)
            .map(|(a, _)| a)
    }

    fn name(&self) -> &str {
        "trained"
    }
}

/// A [`TrainedPolicy`] compiled for deployment: every state of its table
/// mapped to the action it chooses there, computed once by the same
/// [`QTable::best_action`] over [`RepairAction::ALL`], so ties break as
/// in the trained policy and a decision is one lookup, not one per
/// action.
#[derive(Debug, Clone, Default)]
pub struct DecisionTable {
    actions: HashMap<RecoveryState, RepairAction>,
}

impl DecisionTable {
    /// Compiles `policy`'s greedy choices.
    pub fn new(policy: &TrainedPolicy) -> Self {
        let mut actions = HashMap::new();
        for ((state, _), _, _) in policy.q.iter() {
            actions.entry(*state).or_insert_with(|| {
                policy
                    .q
                    .best_action(state, &RepairAction::ALL)
                    .map(|(action, _)| action)
                    .expect("a state of the table has a value")
            });
        }
        DecisionTable { actions }
    }
}

impl DecidePolicy for DecisionTable {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        self.actions.get(state).copied()
    }

    fn name(&self) -> &str {
        "trained"
    }
}

/// The user-defined cheapest-first policy expressed over MDP states: the
/// same escalation ladder as [`recovery_simlog::UserDefinedPolicy`], keyed
/// on the tried-action multiset. It always answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserStatePolicy {
    budgets: [usize; 3],
}

impl Default for UserStatePolicy {
    /// One try per automated rung, then `RMA` — matching
    /// [`recovery_simlog::UserDefinedPolicy::default`].
    fn default() -> Self {
        UserStatePolicy { budgets: [1, 1, 1] }
    }
}

impl UserStatePolicy {
    /// Creates the ladder with per-rung budgets for `TRYNOP`, `REBOOT`,
    /// `REIMAGE` (then unlimited `RMA`).
    ///
    /// # Panics
    ///
    /// Panics if every budget is zero.
    pub fn new(budgets: [usize; 3]) -> Self {
        assert!(
            budgets.iter().any(|&b| b > 0),
            "at least one automated action needs a non-zero budget"
        );
        UserStatePolicy { budgets }
    }

    /// The per-rung budgets.
    pub fn budgets(&self) -> [usize; 3] {
        self.budgets
    }
}

impl DecidePolicy for UserStatePolicy {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        let tried = state.tried();
        for (i, &budget) in self.budgets.iter().enumerate() {
            let action = RepairAction::from_index(i).expect("ladder index in range");
            if (tried.count(action) as usize) < budget {
                return Some(action);
            }
        }
        Some(RepairAction::Rma)
    }

    fn name(&self) -> &str {
        "user-defined"
    }
}

/// The paper's hybrid policy (§3.4): consult the trained policy first and
/// automatically revert to the user-defined policy for any state the
/// trained table cannot handle. It therefore covers every state the user
/// policy covers (all of them) while keeping the trained policy's
/// improvements wherever it has knowledge.
#[derive(Debug, Clone)]
pub struct HybridPolicy<T = TrainedPolicy, U = UserStatePolicy> {
    trained: T,
    fallback: U,
}

impl<T: DecidePolicy, U: DecidePolicy> HybridPolicy<T, U> {
    /// Combines a trained policy with a fallback.
    pub fn new(trained: T, fallback: U) -> Self {
        HybridPolicy { trained, fallback }
    }

    /// The trained component.
    pub fn trained(&self) -> &T {
        &self.trained
    }

    /// The fallback component.
    pub fn fallback(&self) -> &U {
        &self.fallback
    }
}

impl<T: DecidePolicy, U: DecidePolicy> DecidePolicy for HybridPolicy<T, U> {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        self.trained
            .decide(state)
            .or_else(|| self.fallback.decide(state))
    }

    fn name(&self) -> &str {
        "hybrid"
    }
}

/// Adapts a [`DecidePolicy`] into a live [`RecoveryPolicy`] that can drive
/// the cluster simulator: the MDP state is reconstructed from the policy
/// context (error type = initial symptom, multiset = tried actions), and
/// any residual `None` falls back to the default user ladder so the
/// controller always has an action.
pub struct LivePolicy<P> {
    policy: P,
    safety_net: UserStatePolicy,
    name: String,
}

impl<P: DecidePolicy> LivePolicy<P> {
    /// Wraps `policy` for live deployment.
    pub fn new(policy: P) -> Self {
        let name = format!("live[{}]", policy.name());
        LivePolicy {
            policy,
            safety_net: UserStatePolicy::default(),
            name,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.policy
    }
}

impl<P: DecidePolicy> RecoveryPolicy for LivePolicy<P> {
    fn decide(&self, ctx: &PolicyContext<'_>) -> RepairAction {
        let state = RecoveryState::new(
            ErrorType::new(ctx.initial_symptom),
            ActionMultiset::from_actions(ctx.tried_actions.iter().copied()),
        );
        self.policy
            .decide(&state)
            .or_else(|| self.safety_net.decide(&state))
            .expect("user ladder always answers")
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<P: fmt::Debug> fmt::Debug for LivePolicy<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LivePolicy")
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_simlog::SymptomId;

    fn et(n: u32) -> ErrorType {
        ErrorType::new(SymptomId::new(n))
    }

    fn trained_for_type_0() -> TrainedPolicy {
        let mut q: QTable<RecoveryState, RepairAction> = QTable::new();
        let s0 = RecoveryState::initial(et(0));
        q.set(s0, RepairAction::TryNop, 500.0);
        q.set(s0, RepairAction::Reimage, 100.0);
        q.set(s0.after(RepairAction::Reimage), RepairAction::Rma, 900.0);
        TrainedPolicy::new(q)
    }

    #[test]
    fn trained_policy_is_greedy_over_costs() {
        let p = trained_for_type_0();
        let s0 = RecoveryState::initial(et(0));
        assert_eq!(p.decide(&s0), Some(RepairAction::Reimage));
        assert_eq!(p.expected_cost(&s0), Some(100.0));
    }

    #[test]
    fn trained_policy_returns_none_off_table() {
        let p = trained_for_type_0();
        assert_eq!(p.decide(&RecoveryState::initial(et(7))), None);
        // Known type but unknown multiset.
        let deep = RecoveryState::initial(et(0)).after(RepairAction::TryNop);
        assert_eq!(p.decide(&deep), None);
    }

    #[test]
    fn coverage_queries() {
        let p = trained_for_type_0();
        assert!(p.covers_type(et(0)));
        assert!(!p.covers_type(et(7)));
        assert_eq!(p.known_types(), vec![et(0)]);
    }

    #[test]
    fn decision_table_decides_as_the_trained_policy() {
        let mut trained = trained_for_type_0();
        // A tie: the earlier action in `RepairAction::ALL` wins.
        let s1 = RecoveryState::initial(et(1));
        trained.q_mut().set(s1, RepairAction::Rma, 300.0);
        trained.q_mut().set(s1, RepairAction::Reboot, 300.0);
        let table = DecisionTable::new(&trained);
        assert_eq!(table.decide(&s1), Some(RepairAction::Reboot));
        for ty in 0..3 {
            let mut s = RecoveryState::initial(et(ty));
            for a in RepairAction::ALL {
                assert_eq!(table.decide(&s), trained.decide(&s), "state {s}");
                s = s.after(a);
            }
        }
    }

    #[test]
    fn user_state_policy_walks_the_ladder() {
        let p = UserStatePolicy::default();
        let s = RecoveryState::initial(et(0));
        assert_eq!(p.decide(&s), Some(RepairAction::TryNop));
        let s = s.after(RepairAction::TryNop);
        assert_eq!(p.decide(&s), Some(RepairAction::Reboot));
        let s = s.after(RepairAction::Reboot);
        assert_eq!(p.decide(&s), Some(RepairAction::Reimage));
        let s = s.after(RepairAction::Reimage);
        assert_eq!(p.decide(&s), Some(RepairAction::Rma));
    }

    #[test]
    fn hybrid_prefers_trained_and_falls_back() {
        let hybrid = HybridPolicy::new(trained_for_type_0(), UserStatePolicy::default());
        // Covered state → trained decision (REIMAGE, not the ladder's TRYNOP).
        let s0 = RecoveryState::initial(et(0));
        assert_eq!(hybrid.decide(&s0), Some(RepairAction::Reimage));
        // Uncovered state → user ladder.
        let s_other = RecoveryState::initial(et(7));
        assert_eq!(hybrid.decide(&s_other), Some(RepairAction::TryNop));
        assert_eq!(hybrid.name(), "hybrid");
    }

    #[test]
    fn hybrid_covers_everything_the_user_policy_covers() {
        let hybrid = HybridPolicy::new(trained_for_type_0(), UserStatePolicy::default());
        for ty in 0..20u32 {
            let mut s = RecoveryState::initial(et(ty));
            for _ in 0..25 {
                let a = hybrid.decide(&s);
                assert!(a.is_some(), "hybrid must always answer, state {s}");
                s = s.after(a.unwrap());
            }
        }
    }

    #[test]
    fn live_policy_reconstructs_state_from_context() {
        let live = LivePolicy::new(trained_for_type_0());
        let ctx = PolicyContext {
            initial_symptom: SymptomId::new(0),
            observed_symptoms: &[SymptomId::new(0)],
            tried_actions: &[],
        };
        assert_eq!(RecoveryPolicy::decide(&live, &ctx), RepairAction::Reimage);
        // Unknown type → safety-net ladder.
        let ctx2 = PolicyContext {
            initial_symptom: SymptomId::new(42),
            observed_symptoms: &[SymptomId::new(42)],
            tried_actions: &[],
        };
        assert_eq!(RecoveryPolicy::decide(&live, &ctx2), RepairAction::TryNop);
    }

    #[test]
    #[should_panic(expected = "non-zero budget")]
    fn user_policy_rejects_empty_ladder() {
        let _ = UserStatePolicy::new([0, 0, 0]);
    }
}
