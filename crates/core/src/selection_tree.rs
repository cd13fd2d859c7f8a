//! The selection-tree training accelerator (paper §5.3).
//!
//! Standard Q-learning must disambiguate near-tied actions by *sampling*,
//! which can take tens of thousands of extra sweeps (and may still miss
//! the optimum at the sweep cap — the paper's Figure 14 shows exactly
//! that). The selection tree shortcuts this:
//!
//! 1. run Q-learning only until, at every visited state, the identity of
//!    the **best two** actions (the second kept only when its expected
//!    cost is within a threshold of the best) is stable across checks;
//! 2. build the tree of candidate actions — each state contributes its
//!    best action, plus the runner-up when close — and *scan* it: evaluate
//!    the candidates exactly against the empirical replay model and keep
//!    the cheapest choice per state.
//!
//! The scan replaces sampling with arithmetic, so the whole procedure
//! converges in far fewer sweeps (the paper reports ≤ 40k vs up to 160k
//! without the tree).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use recovery_mdp::{DenseQTable, QLearning, QLearningConfig, QTable, TemperatureSchedule};
use recovery_simlog::RepairAction;

use crate::error_type::ErrorType;
use crate::exact::EmpiricalTypeModel;
use crate::policy::TrainedPolicy;
use crate::state::{RecoveryState, StateCodec};
use crate::trainer::{OfflineTrainer, TypeTrainingStats};

/// A candidate snapshot: each state of the selection tree mapped to its
/// candidate actions, best first.
type Candidates = HashMap<RecoveryState, Vec<RepairAction>>;

/// Configuration of the selection-tree trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionTreeConfig {
    /// Sweeps per Q-learning chunk between stability checks.
    pub chunk_sweeps: u64,
    /// Consecutive identical candidate snapshots required to stop.
    pub stable_checks: usize,
    /// Hard sweep cap for the coarse phase.
    pub max_sweeps: u64,
    /// Relative closeness for keeping the second-best action as a
    /// candidate: keep it when `q2 - q1 <= threshold * max(q1, 1)`.
    pub threshold: f64,
    /// Exploration temperature for the coarse phase. The coarse phase
    /// only needs every action's value *estimated* (the exact scan does
    /// the optimizing), so the default is effectively infinite — uniform
    /// exploration — which is the fastest way to feed the running
    /// averages; Q-learning is off-policy, so any exploratory behavior
    /// policy estimates the same values.
    pub temperature: f64,
}

impl Default for SelectionTreeConfig {
    fn default() -> Self {
        SelectionTreeConfig {
            chunk_sweeps: 400,
            stable_checks: 3,
            max_sweeps: 40_000,
            threshold: 0.25,
            temperature: 1e9,
        }
    }
}

impl SelectionTreeConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero chunk size, zero checks, zero cap, a negative
    /// threshold, or a non-positive temperature.
    pub fn validate(&self) {
        assert!(self.chunk_sweeps > 0, "chunk size must be positive");
        assert!(self.stable_checks > 0, "need at least one stability check");
        assert!(self.max_sweeps > 0, "sweep cap must be positive");
        assert!(self.threshold >= 0.0, "threshold must be non-negative");
        assert!(self.temperature > 0.0, "temperature must be positive");
    }
}

/// The per-type output of selection-tree training.
#[derive(Debug, Clone)]
pub struct SelectionTreeOutcome {
    /// Q-table fragment for the final (scanned) policy: the chain of
    /// states the policy can actually reach, each with its chosen action
    /// and exact expected cost-to-go.
    pub q: QTable<RecoveryState, RepairAction>,
    /// Training statistics; `sweeps` counts only the coarse Q-learning
    /// phase (the scan is a dynamic program, not a sweep).
    pub stats: TypeTrainingStats,
}

/// Trains per-type policies with the selection-tree accelerator, reusing
/// an [`OfflineTrainer`]'s platform and process grouping.
///
/// ```
/// use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
/// use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
/// use recovery_simlog::{GeneratorConfig, LogGenerator};
///
/// let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
/// let processes = generated.log.split_processes();
/// let trainer = OfflineTrainer::new(&processes, TrainerConfig::fast());
/// let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
/// let et = trainer.ranking().top_k(1)[0];
/// let outcome = tree.train_type(et).expect("the top type has data");
/// assert!(outcome.stats.converged);
/// assert!(outcome.stats.sweeps <= SelectionTreeConfig::default().max_sweeps);
/// ```
#[derive(Debug)]
pub struct SelectionTreeTrainer<'t, 'a> {
    trainer: &'t OfflineTrainer<'a>,
    config: SelectionTreeConfig,
}

impl<'t, 'a> SelectionTreeTrainer<'t, 'a> {
    /// Creates the accelerated trainer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(trainer: &'t OfflineTrainer<'a>, config: SelectionTreeConfig) -> Self {
        config.validate();
        SelectionTreeTrainer { trainer, config }
    }

    /// Trains one error type. Returns `None` if the type has no training
    /// processes.
    pub fn train_type(&self, et: ErrorType) -> Option<SelectionTreeOutcome> {
        let processes = self.trainer.processes_of(et);
        if processes.is_empty() {
            return None;
        }
        // Every coarse chunk below continues the one record of the type.
        let mut record = self.trainer.record(et);

        // The paper's N, shared with the replay env the coarse phase
        // trains on, so the DP horizon below can never disagree with it.
        let max_attempts = self.trainer.config().max_attempts;

        // --- Phase 1: coarse Q-learning until candidate stability. ---
        let learning = QLearningConfig {
            max_episodes: self.config.chunk_sweeps,
            max_steps: max_attempts,
            schedule: TemperatureSchedule::Constant(self.config.temperature),
            // Chunks are bounded by max_episodes; make the driver's own
            // convergence detection inert.
            convergence_tol: 1e-12,
            convergence_window: u64::MAX,
            default_q: 0.0,
            exploration_fraction: 0.0,
            backward_updates: true,
            explored_backup: true,
        };
        let driver = QLearning::new(learning);
        let mut rng = StdRng::seed_from_u64(
            0x005E_1EC7 ^ u64::from(et.symptom().index()).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut env = self.trainer.replay_env(et).expect("non-empty type");
        let codec = *env.codec();
        let mut q = DenseQTable::new(codec.num_states(), RepairAction::COUNT);
        let mut sweeps = 0u64;
        let mut previous: Option<Candidates> = None;
        let mut stable = 0usize;
        let mut converged = false;
        let mut final_q_delta = 0.0;
        while sweeps < self.config.max_sweeps {
            let result = driver.train_observed(&mut env, &mut rng, q, record.as_mut());
            q = result.q;
            sweeps += result.episodes;
            final_q_delta = result.final_q_delta;
            let snapshot = self.candidate_snapshot(et, &q, &codec);
            if previous.as_ref() == Some(&snapshot) {
                stable += 1;
                if stable >= self.config.stable_checks {
                    converged = true;
                    break;
                }
            } else {
                stable = 0;
            }
            previous = Some(snapshot);
        }

        // --- Phase 2: scan the candidate tree exactly. ---
        // `previous` holds the final table's snapshot: a stable stop
        // breaks on a snapshot equal to it.
        let model = EmpiricalTypeModel::new(et, processes, self.trainer.platform());
        let candidates = abstract_candidates(previous.expect("the sweep cap admits one chunk"));
        let solution = model.constrained_optimal(max_attempts, |m, attempts| {
            candidates
                .get(&(m.map_or(0, |a| a.index() + 1), attempts))
                .cloned()
                .unwrap_or_default()
        });

        // --- Materialize the solved chain as a Q-table fragment. ---
        // Stop at states the training data says are unreachable (the
        // chosen action never failed in training): the model has *no
        // evidence* about what to do beyond them, and claiming a decision
        // there would preempt the hybrid policy's user fallback exactly
        // where the paper wants it (test-set patterns absent from the
        // training set, its §5.2 error-type-23 discussion).
        let mut out: QTable<RecoveryState, RepairAction> = QTable::new();
        let mut state = RecoveryState::initial(et);
        for attempts in 0..max_attempts {
            let strongest = state.tried().strongest();
            let Some(action) = solution.action_at(strongest, attempts) else {
                break;
            };
            let value = solution.value_at(strongest, attempts).unwrap_or(0.0);
            out.set(state, action, value);
            if action == RepairAction::Rma || model.success_prob(strongest, action) >= 1.0 {
                break; // nothing beyond this state is evidenced (or reachable)
            }
            state = state.after(action);
        }

        self.trainer.flush(record, &env, sweeps, converged);
        Some(SelectionTreeOutcome {
            q: out,
            stats: TypeTrainingStats {
                error_type: et,
                sample_count: processes.len(),
                sweeps,
                converged,
                final_q_delta,
            },
        })
    }

    /// Trains all requested types and merges the fragments. Like
    /// [`OfflineTrainer::train`], the per-type runs are fanned out over
    /// the underlying trainer's worker pool and merged in the order of
    /// `types`, so the result does not depend on the thread count.
    pub fn train(&self, types: &[ErrorType]) -> (TrainedPolicy, Vec<TypeTrainingStats>) {
        // Same per-type worker spans as `OfflineTrainer::train`: label
        // by type, rank by position, so the trace tree is invariant.
        let telemetry = self.trainer.telemetry();
        let ctx = telemetry.trace_context();
        let outcomes = self.trainer.pool().map_indexed(types.len(), |i| {
            let _span = telemetry.worker_span(
                ctx.as_ref(),
                &OfflineTrainer::type_label(types[i]),
                i as u64,
            );
            self.train_type(types[i])
        });
        let mut policy = TrainedPolicy::default();
        let mut stats = Vec::new();
        for outcome in outcomes.into_iter().flatten() {
            policy.q_mut().merge_from(outcome.q);
            stats.push(outcome.stats);
        }
        (policy, stats)
    }

    /// Builds the paper's *selection tree* from the phase-1 table:
    /// starting from the initial state, each node contributes its best
    /// action — plus the runner-up when within the closeness threshold —
    /// and each non-`RMA` candidate spawns a child at the state reached
    /// when it fails. Only states reachable through candidate actions
    /// matter; deep states visited only by exploration noise are
    /// excluded, which is what makes the stability check converge
    /// quickly.
    fn candidate_snapshot(&self, et: ErrorType, q: &DenseQTable, codec: &StateCodec) -> Candidates {
        let max_attempts = self.trainer.config().max_attempts;
        // Action indexes in `RepairAction::ALL` order, so rankings tie
        // toward the weaker action.
        let all = RepairAction::ALL.map(RepairAction::index);
        let mut out = Candidates::new();
        let mut frontier = vec![RecoveryState::initial(et)];
        while let Some(s) = frontier.pop() {
            if out.contains_key(&s) || s.attempts() + 1 >= max_attempts {
                continue;
            }
            let ranked = q.ranked_actions(codec.encode(&s.tried()), &all);
            let Some(&(best, best_v)) = ranked.first() else {
                continue;
            };
            let mut cands = vec![RepairAction::ALL[best]];
            if let Some(&(second, second_v)) = ranked.get(1) {
                if second_v - best_v <= self.config.threshold * best_v.max(1.0) {
                    cands.push(RepairAction::ALL[second]);
                }
            }
            for &c in &cands {
                if c != RepairAction::Rma {
                    frontier.push(s.after(c));
                }
            }
            out.insert(s, cands);
        }
        out
    }
}

/// Projects concrete-state candidates onto the abstract DP states
/// `(strongest-failed index, attempts)`, unioning candidates of all
/// concrete states sharing an abstraction.
fn abstract_candidates(snapshot: Candidates) -> HashMap<(usize, usize), Vec<RepairAction>> {
    let mut out: HashMap<(usize, usize), Vec<RepairAction>> = HashMap::new();
    for (s, cands) in snapshot {
        let key = (
            s.tried().strongest().map_or(0, |a| a.index() + 1),
            s.attempts(),
        );
        let entry = out.entry(key).or_default();
        for c in cands {
            if !entry.contains(&c) {
                entry.push(c);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DecidePolicy, UserStatePolicy};
    use crate::trainer::TrainerConfig;
    use recovery_simlog::{ActionRecord, MachineId, RecoveryProcess, SimTime, SymptomId};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn ladder_process(machine: u32, start: u64, sym: u32, req: RepairAction) -> RecoveryProcess {
        let ladder = [
            RepairAction::TryNop,
            RepairAction::Reboot,
            RepairAction::Reimage,
            RepairAction::Rma,
        ];
        let mut actions = Vec::new();
        let mut now = start + 120;
        for &a in &ladder {
            actions.push(ActionRecord {
                time: t(now),
                action: a,
            });
            now += match a {
                RepairAction::TryNop => 600,
                RepairAction::Reboot => 1800,
                RepairAction::Reimage => 10_000,
                RepairAction::Rma => 200_000,
            };
            if a.at_least_as_strong_as(req) {
                break;
            }
        }
        RecoveryProcess::new(
            MachineId::new(machine),
            vec![(t(start), SymptomId::new(sym))],
            actions,
            t(now),
        )
    }

    fn deceptive_set(sym: u32, n: usize) -> Vec<RecoveryProcess> {
        (0..n)
            .map(|i| ladder_process(i as u32, i as u64 * 1_000_000, sym, RepairAction::Reimage))
            .collect()
    }

    #[test]
    fn tree_finds_the_optimal_policy_in_fewer_sweeps() {
        let train = deceptive_set(1, 25);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(1));

        // Standard training, for the sweep comparison.
        let (_, standard_stats) = trainer.train_type(et).unwrap();
        // Selection-tree training.
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let outcome = tree.train_type(et).unwrap();

        let policy = TrainedPolicy::new(outcome.q);
        assert_eq!(
            policy.decide(&RecoveryState::initial(et)),
            Some(RepairAction::Reimage),
            "tree-trained policy must find the curing action"
        );
        // On this *deterministic-cost* fixture standard Q-learning is
        // quick too, so only sanity-bound the tree's sweep count here;
        // the genuine sweep contrast on noisy data is asserted by
        // `experiment::tests::sweep_comparison_tree_is_cheaper`.
        assert!(outcome.stats.converged, "candidate tree must stabilize");
        assert!(
            outcome.stats.sweeps <= SelectionTreeConfig::default().max_sweeps,
            "tree {} sweeps exceeded its cap (standard took {})",
            outcome.stats.sweeps,
            standard_stats.sweeps
        );
    }

    #[test]
    fn scanned_policy_matches_exact_optimum() {
        let mut train = Vec::new();
        for i in 0..40 {
            let req = match i % 10 {
                0..=6 => RepairAction::TryNop,
                7 | 8 => RepairAction::Reboot,
                _ => RepairAction::Reimage,
            };
            train.push(ladder_process(i, i as u64 * 1_000_000, 2, req));
        }
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(2));
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let outcome = tree.train_type(et).unwrap();
        let policy = TrainedPolicy::new(outcome.q);

        let refs: Vec<&RecoveryProcess> = train.iter().collect();
        let model = EmpiricalTypeModel::new(et, &refs, trainer.platform());
        let exact = model.optimal(20);
        let cost = model
            .policy_cost(&policy, 20)
            .expect("the scanned chain is self-covering");
        assert!(
            (cost - exact.expected_cost).abs() <= exact.expected_cost * 0.02 + 1.0,
            "scanned policy cost {cost} vs exact optimum {}",
            exact.expected_cost
        );
    }

    #[test]
    fn chain_is_self_covering_under_replay() {
        let train = deceptive_set(3, 20);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(3));
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let outcome = tree.train_type(et).unwrap();
        let policy = TrainedPolicy::new(outcome.q);
        // Every replay against every training process must be handled.
        for p in &train {
            let replay = trainer.platform().replay(p, &policy, 20);
            assert!(replay.handled(), "replay unhandled for a training process");
        }
    }

    #[test]
    fn beats_the_user_ladder_on_deceptive_types() {
        let train = deceptive_set(4, 20);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(4));
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        let outcome = tree.train_type(et).unwrap();
        let policy = TrainedPolicy::new(outcome.q);
        let refs: Vec<&RecoveryProcess> = train.iter().collect();
        let model = EmpiricalTypeModel::new(et, &refs, trainer.platform());
        let tree_cost = model.policy_cost(&policy, 20).unwrap();
        let user_cost = model.policy_cost(&UserStatePolicy::default(), 20).unwrap();
        assert!(tree_cost < user_cost, "{tree_cost} vs {user_cost}");
    }

    #[test]
    fn missing_type_returns_none() {
        let train = deceptive_set(5, 5);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let tree = SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default());
        assert!(tree
            .train_type(ErrorType::new(SymptomId::new(99)))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "chunk size")]
    fn rejects_zero_chunk() {
        let train = deceptive_set(5, 5);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let config = SelectionTreeConfig {
            chunk_sweeps: 0,
            ..SelectionTreeConfig::default()
        };
        let _ = SelectionTreeTrainer::new(&trainer, config);
    }
}
