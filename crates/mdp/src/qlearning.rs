//! The Q-learning training loop (paper Fig. 2).
//!
//! One *sweep* is one episode: reset the environment, walk it with
//! Boltzmann-explored actions until termination (or the step cap), then
//! apply the Eq. 6 table update to every recorded `(s, a, cost, s')`
//! quadruple — the procedure of the paper's Figure 2, with two standard
//! implementation choices that share Eq. 6's fixed point but reach it in
//! far fewer sweeps:
//!
//! * updates run **backward** along the episode, so the terminal cost
//!   propagates through the whole visited path in a single sweep;
//! * the backup `min` ranges over **explored** next-state actions only
//!   (unexplored pairs would contribute a phantom `default_q`, and the
//!   `α = 1/(1+n)` running average never forgets such early bias).
//!
//! Convergence is declared after a window of consecutive sweeps whose
//! largest Q change stays below a tolerance; the sweep count at
//! convergence is the metric of the paper's Figure 13.

use rand::Rng;
use recovery_telemetry::{SweepSample, TrainingRecord};

use crate::boltzmann::{BoltzmannSelector, TemperatureCourse, TemperatureSchedule};
use crate::dense::DenseQTable;
use crate::env::{Environment, Step};

/// Configuration of a Q-learning run.
#[derive(Debug, Clone, PartialEq)]
pub struct QLearningConfig {
    /// Sweep (episode) cap. The paper's standard-RL experiments cap at
    /// 160,000 sweeps.
    pub max_episodes: u64,
    /// Per-episode step cap — the paper's N = 20 repair-action limit,
    /// which makes every explored policy proper.
    pub max_steps: usize,
    /// Exploration temperature schedule.
    pub schedule: TemperatureSchedule,
    /// Convergence tolerance on the largest per-sweep Q change.
    pub convergence_tol: f64,
    /// Number of consecutive sweeps that must stay under the tolerance.
    pub convergence_window: u64,
    /// Q-value assumed for unexplored `(s, a)` pairs during action
    /// selection and backup. Zero is optimistic for costs and drives
    /// exploration toward untried actions.
    pub default_q: f64,
    /// Fraction of the sweep budget spent in the *exploration* phase of
    /// the paper's two-phase learning course (§3.3). At the phase
    /// boundary every entry's visit count is reset to 1, so the search
    /// phase re-averages targets from the explored values instead of
    /// carrying the (biased) bootstrap history of early exploration.
    /// `0.0` disables the phase boundary.
    pub exploration_fraction: f64,
    /// Apply the per-episode updates backward (terminal transition first)
    /// so the final cost propagates through the whole visited path in one
    /// sweep. Disabling reproduces the paper's literal Figure 2 listing
    /// ("for every two successive states s, s'"), which converges far
    /// more slowly.
    pub backward_updates: bool,
    /// Back up `min` over *explored* next-state actions only. Disabling
    /// lets unexplored pairs contribute `default_q` to the backup — the
    /// straightforward reading of a zero-initialized table — whose early
    /// bias the `α = 1/(1+n)` running average never forgets.
    pub explored_backup: bool,
}

impl Default for QLearningConfig {
    fn default() -> Self {
        QLearningConfig {
            max_episodes: 160_000,
            max_steps: 20,
            schedule: TemperatureSchedule::default(),
            convergence_tol: 1.0,
            convergence_window: 200,
            default_q: 0.0,
            exploration_fraction: 0.0,
            backward_updates: true,
            explored_backup: true,
        }
    }
}

impl QLearningConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the caps or tolerance are zero/non-positive.
    pub fn validate(&self) {
        assert!(self.max_episodes > 0, "need at least one episode");
        assert!(self.max_steps > 0, "need at least one step per episode");
        assert!(self.convergence_tol > 0.0, "tolerance must be positive");
        assert!(self.convergence_window > 0, "window must be positive");
        assert!(
            (0.0..1.0).contains(&self.exploration_fraction),
            "exploration fraction must be in [0, 1)"
        );
    }
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// The learned Q-table.
    pub q: DenseQTable,
    /// Sweeps actually run.
    pub episodes: u64,
    /// Whether convergence was detected before the sweep cap; the sweep
    /// count at convergence (the paper's Figure 13 metric) is then
    /// `episodes`.
    pub converged: bool,
    /// The largest Q-value change of the final sweep (0 when no sweep
    /// ran).
    pub final_q_delta: f64,
}

/// Tabular Q-learning driver.
#[derive(Debug, Clone)]
pub struct QLearning {
    config: QLearningConfig,
    selector: BoltzmannSelector,
}

impl QLearning {
    /// Creates a driver with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: QLearningConfig) -> Self {
        config.validate();
        QLearning {
            config,
            selector: BoltzmannSelector::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &QLearningConfig {
        &self.config
    }

    /// Trains starting from `q` — an empty [`DenseQTable`] sized to the
    /// environment, or one seeded from a prior policy (the paper's
    /// "designing initial policies" extension).
    pub fn train<E, R>(&self, env: &mut E, rng: &mut R, q: DenseQTable) -> TrainResult
    where
        E: Environment,
        R: Rng + ?Sized,
    {
        self.train_observed(env, rng, q, None)
    }

    /// [`QLearning::train`] that also writes every episode and sweep
    /// (temperature, episode walk, max Q-delta, convergence window) into
    /// `observed`, when given. Repeated calls on one record continue its
    /// sweep axis.
    ///
    /// Recording is passive — plain writes of scalar copies that never
    /// touch the RNG — so for equal seeds this produces a Q-table
    /// byte-identical to the unrecorded run's. The trajectory, action,
    /// cost, and softmax-weight buffers are allocated once per call and
    /// reused across every episode.
    pub fn train_observed<E, R>(
        &self,
        env: &mut E,
        rng: &mut R,
        mut q: DenseQTable,
        mut observed: Option<&mut TrainingRecord>,
    ) -> TrainResult
    where
        E: Environment,
        R: Rng + ?Sized,
    {
        let mut calm_streak = 0u64;
        let mut episodes = 0u64;
        let mut converged = false;
        let mut final_q_delta = 0.0f64;
        let phase_boundary = if self.config.exploration_fraction > 0.0 {
            Some((self.config.max_episodes as f64 * self.config.exploration_fraction) as u64)
        } else {
            None
        };

        // Per-run scratch, reused across all episodes: the hot path
        // performs zero heap allocations per episode in steady state
        // (locked by the allocation-counting bench arm).
        let mut actions: Vec<usize> = Vec::new();
        let mut backup_actions: Vec<usize> = Vec::new();
        let mut costs: Vec<f64> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut record: Vec<(usize, usize, f64, Option<usize>)> = Vec::new();

        let course = TemperatureCourse::new(self.config.schedule);
        while episodes < self.config.max_episodes {
            if phase_boundary == Some(episodes) {
                // Exploration → search: keep values, forget their weight.
                q.reset_visits(1);
                calm_streak = 0;
            }
            let temperature = course.at(episodes);
            episodes += 1;

            // --- Walk one episode, recording the trajectory. ---
            let mut state = env.reset();
            record.clear();
            for _ in 0..self.config.max_steps {
                env.actions_into(state, &mut actions);
                debug_assert!(!actions.is_empty(), "reachable states must offer actions");
                costs.clear();
                costs.extend(
                    actions
                        .iter()
                        .map(|&a| q.value_or(state, a, self.config.default_q)),
                );
                let choice = self
                    .selector
                    .select_with(&costs, temperature, rng, &mut weights);
                let action = actions[choice];
                let Step { cost, next } = env.step(state, action);
                let done = next.is_none();
                record.push((state, action, cost, next));
                if let Some(s) = next {
                    state = s
                }
                if done {
                    break;
                }
            }

            if let Some(observed) = observed.as_deref_mut() {
                observed.episode(
                    record.len(),
                    record.iter().map(|(_, _, cost, _)| cost).sum(),
                );
            }

            // --- Apply Eq. 6 updates along the record (paper Fig. 2);
            // backward by default so the terminal cost reaches the whole
            // visited path in one sweep. ---
            let mut max_delta = 0.0f64;
            if self.config.backward_updates {
                record.reverse();
            }
            for &(s, a, cost, next) in record.iter() {
                let future = match next {
                    Some(s2) => {
                        env.actions_into(s2, &mut backup_actions);
                        if self.config.explored_backup {
                            // Back up from explored actions only; a
                            // phantom default for untried actions would
                            // bias the running average permanently.
                            let explored = backup_actions
                                .iter()
                                .filter_map(|&a2| q.value(s2, a2))
                                .fold(f64::INFINITY, f64::min);
                            if explored.is_finite() {
                                explored
                            } else {
                                self.config.default_q
                            }
                        } else {
                            backup_actions
                                .iter()
                                .map(|&a2| q.value_or(s2, a2, self.config.default_q))
                                .fold(f64::INFINITY, f64::min)
                        }
                    }
                    None => 0.0,
                };
                let target = cost + future;
                max_delta = max_delta.max(q.update(s, a, target));
            }

            final_q_delta = max_delta;

            // --- Convergence window. ---
            if max_delta < self.config.convergence_tol {
                calm_streak += 1;
                if calm_streak >= self.config.convergence_window {
                    converged = true;
                }
            } else {
                calm_streak = 0;
            }
            if let Some(observed) = observed.as_deref_mut() {
                let sample = SweepSample {
                    sweep: episodes,
                    temperature,
                    max_q_delta: max_delta,
                };
                observed.sweep(sample, calm_streak, converged);
            }
            if converged {
                break;
            }
        }

        TrainResult {
            q,
            episodes,
            converged,
            final_q_delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SampledMdp;
    use crate::tabular::{value_iteration, TabularMdp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain() -> TabularMdp {
        let mut mdp = TabularMdp::new(3, 2);
        mdp.set_cost(0, 0, 10.0);
        mdp.add_transition(0, 0, 1.0, 2);
        mdp.set_cost(0, 1, 3.0);
        mdp.add_transition(0, 1, 1.0, 1);
        mdp.set_cost(1, 0, 3.0);
        mdp.add_transition(1, 0, 1.0, 2);
        mdp.set_cost(1, 1, 8.0);
        mdp.add_transition(1, 1, 1.0, 2);
        mdp.set_terminal(2);
        mdp
    }

    fn fast_config() -> QLearningConfig {
        QLearningConfig {
            max_episodes: 20_000,
            schedule: TemperatureSchedule::Geometric {
                t0: 50.0,
                decay: 0.995,
                floor: 0.01,
            },
            convergence_tol: 0.01,
            convergence_window: 100,
            ..QLearningConfig::default()
        }
    }

    fn empty(mdp: &TabularMdp) -> DenseQTable {
        DenseQTable::new(mdp.n_states(), mdp.n_actions())
    }

    #[test]
    fn learns_the_optimal_chain_policy() {
        let mdp = chain();
        let exact = value_iteration(&mdp, 1.0, 1e-12, 1000);
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(1), vec![0]);
        let result = QLearning::new(fast_config()).train(
            &mut env,
            &mut StdRng::seed_from_u64(2),
            empty(&mdp),
        );
        assert!(result.converged, "should converge within the cap");
        for s in 0..2usize {
            let (best, v) = result.q.ranked_actions(s, &[0, 1])[0];
            assert_eq!(Some(best), exact.policy[s], "state {s}");
            assert!(
                (v - exact.values[s]).abs() < 0.5,
                "state {s}: learned {v} vs exact {}",
                exact.values[s]
            );
        }
    }

    #[test]
    fn matches_value_iteration_on_random_mdps() {
        for seed in 0..5u64 {
            let mut model_rng = StdRng::seed_from_u64(1000 + seed);
            let mdp = TabularMdp::random_episodic(5, 3, &mut model_rng);
            let exact = value_iteration(&mdp, 1.0, 1e-12, 10_000);
            let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(seed), vec![0]);
            let config = QLearningConfig {
                max_episodes: 60_000,
                schedule: TemperatureSchedule::Geometric {
                    t0: 100.0,
                    decay: 0.9995,
                    floor: 0.05,
                },
                convergence_tol: 0.05,
                convergence_window: 300,
                ..QLearningConfig::default()
            };
            let result = QLearning::new(config).train(
                &mut env,
                &mut StdRng::seed_from_u64(77 + seed),
                empty(&mdp),
            );
            let (_, v0) = result.q.ranked_actions(0, &[0, 1, 2])[0];
            let rel = (v0 - exact.values[0]).abs() / exact.values[0].max(1.0);
            assert!(
                rel < 0.1,
                "seed {seed}: learned start value {v0} vs exact {} (rel {rel})",
                exact.values[0]
            );
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let mdp = chain();
        let run = |s1, s2| {
            let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(s1), vec![0]);
            let r = QLearning::new(fast_config()).train(
                &mut env,
                &mut StdRng::seed_from_u64(s2),
                empty(&mdp),
            );
            (r.episodes, r.q.value(0, 1))
        };
        assert_eq!(run(4, 5), run(4, 5));
    }

    #[test]
    fn episode_cap_is_respected() {
        let mdp = chain();
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(1), vec![0]);
        let config = QLearningConfig {
            max_episodes: 50,
            convergence_tol: 1e-12, // effectively unreachable
            convergence_window: 1_000,
            ..fast_config()
        };
        let result =
            QLearning::new(config).train(&mut env, &mut StdRng::seed_from_u64(2), empty(&mdp));
        assert_eq!(result.episodes, 50);
        assert!(!result.converged);
    }

    #[test]
    fn train_from_seeded_table_still_improves() {
        let mdp = chain();
        let mut seed_q = empty(&mdp);
        // Seed with the *wrong* preference at state 0.
        seed_q.set(0, 0, 1.0);
        seed_q.set(0, 1, 100.0);
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(3), vec![0]);
        let result =
            QLearning::new(fast_config()).train(&mut env, &mut StdRng::seed_from_u64(4), seed_q);
        let (best, _) = result.q.ranked_actions(0, &[0, 1])[0];
        assert_eq!(best, 1, "training overcomes a bad seed");
    }

    #[test]
    #[should_panic(expected = "at least one episode")]
    fn rejects_zero_episodes() {
        let config = QLearningConfig {
            max_episodes: 0,
            ..QLearningConfig::default()
        };
        let _ = QLearning::new(config);
    }
}
