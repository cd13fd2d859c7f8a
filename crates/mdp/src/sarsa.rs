//! SARSA: on-policy TD control for cost minimization.
//!
//! Where Q-learning backs up the *greedy* next action (off-policy), SARSA
//! backs up the action the behavior policy *actually takes*:
//!
//! ```text
//! Q(s, a) ← Eq. 6 update toward  cost + Q(s', a')
//! ```
//!
//! with `a'` drawn by the same Boltzmann exploration that drives the
//! episode. As the temperature anneals toward greedy, SARSA's fixed point
//! approaches the optimal Q-function; at any fixed temperature it learns
//! the value of the *exploring* policy — which is the honest number to
//! report for a controller that will keep exploring in production. The
//! workspace ships it as a baseline for the RL toolkit; the paper itself
//! uses Q-learning.

use rand::Rng;

use crate::boltzmann::{BoltzmannSelector, TemperatureCourse};
use crate::dense::DenseQTable;
use crate::env::{Environment, Step};
use crate::qlearning::{QLearningConfig, TrainResult};

/// SARSA driver; configured by the same [`QLearningConfig`] as the plain
/// Q-learning driver. `backward_updates` does not apply (SARSA's target
/// needs the *next selected action*, so updates run in step order);
/// `explored_backup` does not apply (the backup uses the taken action's
/// own estimate).
#[derive(Debug, Clone)]
pub struct Sarsa {
    config: QLearningConfig,
    selector: BoltzmannSelector,
}

impl Sarsa {
    /// Creates a driver.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: QLearningConfig) -> Self {
        config.validate();
        Sarsa {
            config,
            selector: BoltzmannSelector::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &QLearningConfig {
        &self.config
    }

    /// Trains from an empty table sized to the environment. All
    /// buffers are allocated once per call and reused across episodes.
    pub fn train<E, R>(&self, env: &mut E, rng: &mut R) -> TrainResult
    where
        E: Environment,
        R: Rng + ?Sized,
    {
        let mut q = DenseQTable::new(env.num_states(), env.num_actions());
        let mut calm_streak = 0u64;
        let mut episodes = 0u64;
        let mut converged = false;
        let mut final_q_delta = 0.0f64;
        let mut actions: Vec<usize> = Vec::new();
        let mut costs: Vec<f64> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();

        // The on-policy action choice, inlined so the buffers live once.
        macro_rules! select {
            ($state:expr, $temperature:expr) => {{
                env.actions_into($state, &mut actions);
                debug_assert!(!actions.is_empty(), "reachable states must offer actions");
                costs.clear();
                costs.extend(
                    actions
                        .iter()
                        .map(|&a| q.value_or($state, a, self.config.default_q)),
                );
                actions[self
                    .selector
                    .select_with(&costs, $temperature, rng, &mut weights)]
            }};
        }

        let course = TemperatureCourse::new(self.config.schedule);
        while episodes < self.config.max_episodes {
            let temperature = course.at(episodes);
            episodes += 1;

            let mut state = env.reset();
            let mut action = select!(state, temperature);
            let mut max_delta = 0.0f64;
            for _ in 0..self.config.max_steps {
                let Step { cost, next } = env.step(state, action);
                match next {
                    None => {
                        max_delta = max_delta.max(q.update(state, action, cost));
                        break;
                    }
                    Some(s2) => {
                        let a2 = select!(s2, temperature);
                        let target = cost + q.value_or(s2, a2, self.config.default_q);
                        max_delta = max_delta.max(q.update(state, action, target));
                        state = s2;
                        action = a2;
                    }
                }
            }

            final_q_delta = max_delta;
            if max_delta < self.config.convergence_tol {
                calm_streak += 1;
                if calm_streak >= self.config.convergence_window {
                    converged = true;
                    break;
                }
            } else {
                calm_streak = 0;
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
    use crate::TemperatureSchedule;
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

    fn config() -> QLearningConfig {
        QLearningConfig {
            max_episodes: 40_000,
            schedule: TemperatureSchedule::Geometric {
                t0: 50.0,
                decay: 0.9995,
                floor: 0.01,
            },
            convergence_tol: 0.01,
            convergence_window: 200,
            ..QLearningConfig::default()
        }
    }

    #[test]
    fn annealed_sarsa_reaches_the_optimal_policy() {
        let mdp = chain();
        let exact = value_iteration(&mdp, 1.0, 1e-12, 1000);
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(1), vec![0]);
        let result = Sarsa::new(config()).train(&mut env, &mut StdRng::seed_from_u64(2));
        for s in 0..2usize {
            let (best, v) = result.q.ranked_actions(s, &[0, 1])[0];
            assert_eq!(Some(best), exact.policy[s], "state {s}");
            // The Eq. 6 running average never forgets the hot exploration
            // phase, so the on-policy value sits between the greedy
            // optimum and a loose multiple of it — the *ranking* is what
            // anneals to optimal.
            assert!(
                v >= exact.values[s] - 0.5 && v < exact.values[s] * 2.0,
                "state {s}: learned {v} vs exact {}",
                exact.values[s]
            );
        }
    }

    #[test]
    fn hot_sarsa_values_the_exploring_policy_not_the_greedy_one() {
        // At a permanently hot temperature, SARSA's value of state 0 must
        // exceed the optimal (greedy) cost: the behavior policy keeps
        // paying for exploration.
        let mdp = chain();
        let exact = value_iteration(&mdp, 1.0, 1e-12, 1000);
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(3), vec![0]);
        let cfg = QLearningConfig {
            max_episodes: 20_000,
            schedule: TemperatureSchedule::Constant(5.0),
            convergence_tol: 0.01,
            convergence_window: 200,
            ..QLearningConfig::default()
        };
        let result = Sarsa::new(cfg).train(&mut env, &mut StdRng::seed_from_u64(4));
        let (_, v0) = result.q.ranked_actions(0, &[0, 1])[0];
        assert!(
            v0 > exact.values[0] + 0.3,
            "on-policy value {v0} should exceed the greedy optimum {}",
            exact.values[0]
        );
    }

    #[test]
    fn deterministic_given_seeds() {
        let mdp = chain();
        let run = || {
            let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(9), vec![0]);
            let r = Sarsa::new(config()).train(&mut env, &mut StdRng::seed_from_u64(10));
            (r.episodes, r.q.value(0, 1))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn respects_the_episode_cap() {
        let mdp = chain();
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(1), vec![0]);
        let cfg = QLearningConfig {
            max_episodes: 30,
            convergence_tol: 1e-12,
            convergence_window: 1_000,
            ..config()
        };
        let result = Sarsa::new(cfg).train(&mut env, &mut StdRng::seed_from_u64(2));
        assert_eq!(result.episodes, 30);
        assert!(!result.converged);
    }
}
