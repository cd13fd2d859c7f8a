//! Policy explainability: per-state action rankings, confidence flags,
//! and structured diffs between two trained policies.
//!
//! Everything here reads the final Q-table only — no training internals
//! — so it works equally on a freshly trained [`TrainedPolicy`] and on
//! one rebuilt from a persisted `# autorecover policy v2` file, which
//! round-trips visit counts. Legacy v1 files store values only; a
//! table loaded from one reports `visits_available = false` and
//! low-visit flagging is suppressed rather than flagging every state.

use recovery_core::{ErrorType, RecoveryState, TrainedPolicy};
use recovery_simlog::{RepairAction, SymptomCatalog};

use crate::json::Json;

/// Thresholds for the confidence flags of [`explain_policy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainOptions {
    /// Flag a state when its best action received fewer than this many
    /// Eq. 6 updates.
    pub min_visits: u64,
    /// Flag a state as a near-tie when the runner-up is within this
    /// fraction of the best action's cost (floored at an absolute gap of
    /// the same magnitude for costs below 1).
    pub near_tie_fraction: f64,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            min_visits: 5,
            near_tie_fraction: 0.05,
        }
    }
}

/// One action of a state's ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionRank {
    /// The action.
    pub action: RepairAction,
    /// Its learned expected cost.
    pub q: f64,
    /// Eq. 6 updates it received (0 for tables loaded from text).
    pub visits: u64,
}

/// Why a policy picks what it picks in one state.
#[derive(Debug, Clone, PartialEq)]
pub struct StateExplanation {
    /// The type label (`type<N>`).
    pub label: String,
    /// Human-readable state key: `symptom-name | {tried-multiset}`.
    pub state_key: String,
    /// Actions tried so far in this state.
    pub attempts: usize,
    /// Known actions, best (cheapest) first.
    pub ranking: Vec<ActionRank>,
    /// Cost gap between best and runner-up (`None` with one action).
    pub q_gap: Option<f64>,
    /// The runner-up is within the near-tie threshold of the best.
    pub near_tie: bool,
    /// The best action was decided from fewer than `min_visits` updates.
    pub low_visits: bool,
}

impl StateExplanation {
    /// The chosen (cheapest) action.
    pub fn decision(&self) -> Option<ActionRank> {
        self.ranking.first().copied()
    }

    /// The explanation as a JSON subtree.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("label", self.label.as_str())
            .field("state", self.state_key.as_str())
            .field("attempts", self.attempts)
            .field(
                "ranking",
                Json::Arr(
                    self.ranking
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .field("action", r.action.to_string())
                                .field("q", r.q)
                                .field("visits", r.visits)
                        })
                        .collect(),
                ),
            )
            .field("q_gap", self.q_gap.map_or(Json::Null, Json::F64))
            .field("near_tie", self.near_tie)
            .field("low_visits", self.low_visits)
    }
}

/// The full explanation of a trained policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyExplanation {
    /// Every known state, ordered by (type, attempts, tried multiset).
    pub states: Vec<StateExplanation>,
    /// Whether visit counts were available (false for loaded policies).
    pub visits_available: bool,
    /// The thresholds the flags were computed with.
    pub options: ExplainOptions,
}

impl PolicyExplanation {
    /// Number of flagged near-ties.
    pub fn near_ties(&self) -> usize {
        self.states.iter().filter(|s| s.near_tie).count()
    }

    /// Number of low-visit decisions.
    pub fn low_visit_states(&self) -> usize {
        self.states.iter().filter(|s| s.low_visits).count()
    }

    /// The explanation as a JSON subtree.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("visits_available", self.visits_available)
            .field("min_visits", self.options.min_visits)
            .field("near_tie_fraction", self.options.near_tie_fraction)
            .field("near_ties", self.near_ties())
            .field("low_visit_states", self.low_visit_states())
            .field(
                "states",
                Json::Arr(self.states.iter().map(StateExplanation::to_json).collect()),
            )
    }

    /// A plain-text rendering for the `explain` subcommand.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} states, {} near-ties, {} low-visit decisions",
            self.states.len(),
            self.near_ties(),
            self.low_visit_states(),
        ));
        if !self.visits_available {
            out.push_str(" (visit counts unavailable: policy loaded from text)");
        }
        out.push('\n');
        for s in &self.states {
            let flags = match (s.near_tie, s.low_visits) {
                (true, true) => "  [near-tie, low-visits]",
                (true, false) => "  [near-tie]",
                (false, true) => "  [low-visits]",
                (false, false) => "",
            };
            let ranking = s
                .ranking
                .iter()
                .map(|r| {
                    if self.visits_available {
                        format!("{}={:.1} (n={})", r.action, r.q, r.visits)
                    } else {
                        format!("{}={:.1}", r.action, r.q)
                    }
                })
                .collect::<Vec<_>>()
                .join("  ");
            let gap = s
                .q_gap
                .map_or_else(|| "-".to_string(), |g| format!("{g:.1}"));
            out.push_str(&format!("{} | gap {gap} | {ranking}{flags}\n", s.state_key));
        }
        out
    }
}

fn symptom_name(symptoms: &SymptomCatalog, et: ErrorType) -> String {
    symptoms
        .name(et.symptom())
        .unwrap_or("<unknown>")
        .to_string()
}

fn state_key(symptoms: &SymptomCatalog, s: &RecoveryState) -> String {
    format!("{} | {}", symptom_name(symptoms, s.error_type()), s.tried())
}

/// Explains every state of `policy`: action rankings with Q-gaps plus
/// near-tie and low-visit flags. Output order is deterministic:
/// [`QTable::by_state`](recovery_mdp::QTable::by_state) iterates in
/// `RecoveryState`'s canonical order (symptom index, then attempt depth,
/// then the tried multiset).
pub fn explain_policy(
    policy: &TrainedPolicy,
    symptoms: &SymptomCatalog,
    options: ExplainOptions,
) -> PolicyExplanation {
    let visits_available = policy.q().total_visits() > 0;
    let keyed: Vec<(RecoveryState, Vec<ActionRank>)> = policy
        .q()
        .by_state()
        .into_keys()
        .map(|s| {
            let ranking = policy
                .q()
                .ranked_entries(&s, &RepairAction::ALL)
                .into_iter()
                .map(|(action, q, visits)| ActionRank { action, q, visits })
                .collect();
            (s, ranking)
        })
        .collect();

    let states = keyed
        .into_iter()
        .map(|(s, ranking)| {
            let q_gap = (ranking.len() >= 2).then(|| ranking[1].q - ranking[0].q);
            let near_tie = q_gap
                .is_some_and(|gap| gap <= options.near_tie_fraction * ranking[0].q.abs().max(1.0));
            let low_visits = visits_available
                && ranking
                    .first()
                    .is_some_and(|r| r.visits < options.min_visits);
            StateExplanation {
                label: format!("type{}", s.error_type().symptom().index()),
                state_key: state_key(symptoms, &s),
                attempts: s.attempts(),
                ranking,
                q_gap,
                near_tie,
                low_visits,
            }
        })
        .collect();

    PolicyExplanation {
        states,
        visits_available,
        options,
    }
}

/// Schema tag of the policy-diff JSON; bump when the shape changes.
pub const POLICY_DIFF_SCHEMA: &str = "autorecover.policy-diff.v1";

/// One side of an added/removed state in a [`PolicyDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionChange {
    /// Human-readable state key.
    pub state_key: String,
    /// The decision in the policy that knows the state.
    pub action: RepairAction,
    /// Its learned cost.
    pub q: f64,
}

/// A state whose chosen action differs between two policies.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionFlip {
    /// Human-readable state key.
    pub state_key: String,
    /// Decision and cost in the old policy.
    pub old_action: RepairAction,
    /// Old expected cost.
    pub old_q: f64,
    /// Decision and cost in the new policy.
    pub new_action: RepairAction,
    /// New expected cost.
    pub new_q: f64,
}

/// A structured diff between two trained policies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyDiff {
    /// States only the new policy knows.
    pub added: Vec<DecisionChange>,
    /// States only the old policy knows.
    pub removed: Vec<DecisionChange>,
    /// States where the chosen action changed.
    pub flipped: Vec<ActionFlip>,
    /// States with the same decision in both policies.
    pub unchanged: usize,
    /// Largest |Q(new) - Q(old)| among same-decision states.
    pub max_value_drift: f64,
}

impl PolicyDiff {
    /// Whether the two policies decide identically everywhere.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.flipped.is_empty()
    }

    /// The diff as a JSON document.
    pub fn to_json(&self) -> Json {
        let change = |c: &DecisionChange| {
            Json::obj()
                .field("state", c.state_key.as_str())
                .field("action", c.action.to_string())
                .field("q", c.q)
        };
        Json::obj()
            .field("schema", POLICY_DIFF_SCHEMA)
            .field("added", Json::Arr(self.added.iter().map(change).collect()))
            .field(
                "removed",
                Json::Arr(self.removed.iter().map(change).collect()),
            )
            .field(
                "flipped",
                Json::Arr(
                    self.flipped
                        .iter()
                        .map(|f| {
                            Json::obj()
                                .field("state", f.state_key.as_str())
                                .field("old_action", f.old_action.to_string())
                                .field("old_q", f.old_q)
                                .field("new_action", f.new_action.to_string())
                                .field("new_q", f.new_q)
                        })
                        .collect(),
                ),
            )
            .field("unchanged", self.unchanged)
            .field("max_value_drift", self.max_value_drift)
    }

    /// A plain-text rendering for the `diff-policy` subcommand.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{} added, {} removed, {} flipped, {} unchanged (max value drift {:.1})\n",
            self.added.len(),
            self.removed.len(),
            self.flipped.len(),
            self.unchanged,
            self.max_value_drift,
        );
        for c in &self.removed {
            out.push_str(&format!("- {} -> {} ({:.1})\n", c.state_key, c.action, c.q));
        }
        for c in &self.added {
            out.push_str(&format!("+ {} -> {} ({:.1})\n", c.state_key, c.action, c.q));
        }
        for f in &self.flipped {
            out.push_str(&format!(
                "~ {} : {} ({:.1}) -> {} ({:.1})\n",
                f.state_key, f.old_action, f.old_q, f.new_action, f.new_q
            ));
        }
        out
    }
}

/// Diffs two policies state by state: which states appeared, vanished,
/// or flipped their decision. Both policies must be expressed against
/// the same [`SymptomCatalog`] (the CLI interns both files into one).
pub fn diff_policies(
    old: &TrainedPolicy,
    new: &TrainedPolicy,
    symptoms: &SymptomCatalog,
) -> PolicyDiff {
    // The union iterates in the states' canonical order: both `by_state`
    // maps are ordered, and the set dedups states known to both tables.
    let states: std::collections::BTreeSet<RecoveryState> = old
        .q()
        .by_state()
        .into_keys()
        .chain(new.q().by_state().into_keys())
        .collect();

    let mut diff = PolicyDiff::default();
    for s in states {
        let key = state_key(symptoms, &s);
        let old_best = old.q().best_action(&s, &RepairAction::ALL);
        let new_best = new.q().best_action(&s, &RepairAction::ALL);
        match (old_best, new_best) {
            (None, Some((action, q))) => diff.added.push(DecisionChange {
                state_key: key,
                action,
                q,
            }),
            (Some((action, q)), None) => diff.removed.push(DecisionChange {
                state_key: key,
                action,
                q,
            }),
            (Some((old_action, old_q)), Some((new_action, new_q))) => {
                if old_action == new_action {
                    diff.unchanged += 1;
                    diff.max_value_drift = diff.max_value_drift.max((new_q - old_q).abs());
                } else {
                    diff.flipped.push(ActionFlip {
                        state_key: key,
                        old_action,
                        old_q,
                        new_action,
                        new_q,
                    });
                }
            }
            (None, None) => unreachable!("state came from one of the two tables"),
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use recovery_core::ErrorType;
    use recovery_simlog::SymptomId;

    fn catalog() -> SymptomCatalog {
        let mut symptoms = SymptomCatalog::default();
        symptoms.intern("disk-fault");
        symptoms.intern("net-flap");
        symptoms
    }

    fn et(n: u32) -> ErrorType {
        ErrorType::new(SymptomId::new(n))
    }

    fn policy(entries: &[(u32, &[RepairAction], RepairAction, f64, u64)]) -> TrainedPolicy {
        // (symptom, tried, action, q, visits)
        let mut p = TrainedPolicy::default();
        for &(sym, tried, action, q, visits) in entries {
            let s = RecoveryState::new(et(sym), tried.iter().copied().collect());
            for _ in 0..visits {
                p.q_mut().update(s, action, q);
            }
            if visits == 0 {
                p.q_mut().set(s, action, q);
            }
        }
        p
    }

    #[test]
    fn rankings_gaps_and_flags() {
        use RepairAction::{Reboot, TryNop};
        let p = policy(&[
            // Initial disk-fault state: clear winner, well visited.
            (0, &[], Reboot, 100.0, 10),
            (0, &[], TryNop, 500.0, 10),
            // After a failed reboot: near-tie, barely visited.
            (0, &[Reboot], TryNop, 200.0, 2),
            (0, &[Reboot], Reboot, 201.0, 2),
        ]);
        let ex = explain_policy(&p, &catalog(), ExplainOptions::default());
        assert!(ex.visits_available);
        assert_eq!(ex.states.len(), 2);

        let initial = &ex.states[0];
        assert_eq!(initial.state_key, "disk-fault | {}");
        assert_eq!(initial.decision().unwrap().action, Reboot);
        assert_eq!(initial.q_gap, Some(400.0));
        assert!(!initial.near_tie);
        assert!(!initial.low_visits);

        let after = &ex.states[1];
        assert_eq!(after.attempts, 1);
        assert_eq!(after.decision().unwrap().action, TryNop);
        assert!(after.near_tie, "gap 1.0 within 5% of 200");
        assert!(after.low_visits, "2 visits < 5");
        assert_eq!(ex.near_ties(), 1);
        assert_eq!(ex.low_visit_states(), 1);
    }

    #[test]
    fn loaded_policies_suppress_visit_flags() {
        use RepairAction::Reboot;
        let p = policy(&[(0, &[], Reboot, 100.0, 0)]);
        let ex = explain_policy(&p, &catalog(), ExplainOptions::default());
        assert!(!ex.visits_available);
        assert!(!ex.states[0].low_visits);
        assert!(ex.to_text().contains("visit counts unavailable"));
    }

    #[test]
    fn explanation_order_is_by_type_then_depth() {
        use RepairAction::Reboot;
        let p = policy(&[
            (1, &[], Reboot, 1.0, 1),
            (0, &[Reboot], Reboot, 1.0, 1),
            (0, &[], Reboot, 1.0, 1),
        ]);
        let ex = explain_policy(&p, &catalog(), ExplainOptions::default());
        let keys: Vec<&str> = ex.states.iter().map(|s| s.state_key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "disk-fault | {}",
                "disk-fault | {REBOOTx1}",
                "net-flap | {}"
            ]
        );
    }

    #[test]
    fn diff_finds_added_removed_and_flips() {
        use RepairAction::{Reboot, Reimage, TryNop};
        let old = policy(&[
            (0, &[], Reboot, 100.0, 3),
            (0, &[], TryNop, 50.0, 3),   // old decision: TryNop
            (1, &[], Reimage, 300.0, 3), // removed in new
        ]);
        let new = policy(&[
            (0, &[], Reboot, 40.0, 3), // new decision: Reboot (flip)
            (0, &[], TryNop, 50.0, 3),
            (0, &[TryNop], Reboot, 80.0, 3), // added
        ]);
        let diff = diff_policies(&old, &new, &catalog());
        assert!(!diff.is_empty());
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.added[0].state_key, "disk-fault | {TRYNOPx1}");
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.removed[0].action, Reimage);
        assert_eq!(diff.flipped.len(), 1);
        assert_eq!(diff.flipped[0].old_action, TryNop);
        assert_eq!(diff.flipped[0].new_action, Reboot);
        assert_eq!(diff.unchanged, 0);
    }

    #[test]
    fn identical_policies_diff_empty_with_value_drift() {
        use RepairAction::Reboot;
        let old = policy(&[(0, &[], Reboot, 100.0, 1)]);
        let new = policy(&[(0, &[], Reboot, 110.0, 1)]);
        let diff = diff_policies(&old, &new, &catalog());
        assert!(diff.is_empty());
        assert_eq!(diff.unchanged, 1);
        assert!((diff.max_value_drift - 10.0).abs() < 1e-12);
        let json = diff.to_json().render();
        assert!(json.contains("\"unchanged\":1"), "{json}");
    }
}
