//! Double Q-learning (van Hasselt, 2010) for cost minimization.
//!
//! Plain Q-learning's backup takes `min` over noisy estimates, which is
//! biased *low* for costs (the optimizer's curse): a lucky under-sampled
//! pair looks cheap and attracts the backup. Building this reproduction
//! surfaced exactly that failure mode in the paper-faithful learner (see
//! `DESIGN.md` §8.3), so the workspace ships double Q-learning as a
//! principled mitigation and ablation arm: two tables, each updated
//! toward the other's evaluation of its own greedy action, cancel the
//! selection/evaluation correlation that causes the bias.
//!
//! The update for table A (B is symmetric, chosen by a coin flip per
//! transition):
//!
//! ```text
//! a* = argmin_a Q_A(s', a)                 (selection by A)
//! target = cost + Q_B(s', a*)              (evaluation by B)
//! Q_A(s, a) ← Eq. 6 update toward target
//! ```

use rand::Rng;

use crate::boltzmann::{BoltzmannSelector, TemperatureCourse};
use crate::dense::DenseQTable;
use crate::env::{Environment, Step};
use crate::qlearning::{QLearningConfig, TrainResult};

/// Double Q-learning driver; configured by the same [`QLearningConfig`]
/// as the plain driver (the `backward_updates` and `explored_backup`
/// flags apply here too).
///
/// ```
/// use recovery_mdp::{DoubleQLearning, QLearningConfig, SampledMdp, TabularMdp};
/// use rand::SeedableRng;
///
/// let mut mdp = TabularMdp::new(2, 1);
/// mdp.set_cost(0, 0, 5.0);
/// mdp.add_transition(0, 0, 1.0, 1);
/// mdp.set_terminal(1);
/// let mut env = SampledMdp::new(&mdp, rand::rngs::StdRng::seed_from_u64(1), vec![0]);
/// let config = QLearningConfig { max_episodes: 500, ..QLearningConfig::default() };
/// let result = DoubleQLearning::new(config)
///     .train(&mut env, &mut rand::rngs::StdRng::seed_from_u64(2));
/// let value = result.q.value(0, 0).unwrap();
/// assert!((value - 5.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct DoubleQLearning {
    config: QLearningConfig,
    selector: BoltzmannSelector,
}

impl DoubleQLearning {
    /// Creates a driver.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: QLearningConfig) -> Self {
        config.validate();
        DoubleQLearning {
            config,
            selector: BoltzmannSelector::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &QLearningConfig {
        &self.config
    }

    /// Trains both tables and returns their *average* as the learned
    /// Q-function (the standard way to read out a double-Q learner),
    /// along with sweep statistics. Both tables are flat arrays sized to
    /// the environment and all buffers are reused across episodes.
    pub fn train<E, R>(&self, env: &mut E, rng: &mut R) -> TrainResult
    where
        E: Environment,
        R: Rng + ?Sized,
    {
        let mut qa = DenseQTable::new(env.num_states(), env.num_actions());
        let mut qb = DenseQTable::new(env.num_states(), env.num_actions());
        let mut calm_streak = 0u64;
        let mut episodes = 0u64;
        let mut converged = false;
        let mut final_q_delta = 0.0f64;
        let mut actions: Vec<usize> = Vec::new();
        let mut backup_actions: Vec<usize> = Vec::new();
        let mut costs: Vec<f64> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        let mut record: Vec<(usize, usize, f64, Option<usize>)> = Vec::new();

        let course = TemperatureCourse::new(self.config.schedule);
        while episodes < self.config.max_episodes {
            let temperature = course.at(episodes);
            episodes += 1;

            // Walk one episode, selecting actions by the averaged tables.
            let mut state = env.reset();
            record.clear();
            for _ in 0..self.config.max_steps {
                env.actions_into(state, &mut actions);
                debug_assert!(!actions.is_empty(), "reachable states must offer actions");
                costs.clear();
                costs.extend(actions.iter().map(|&a| {
                    let va = qa.value_or(state, a, self.config.default_q);
                    let vb = qb.value_or(state, a, self.config.default_q);
                    (va + vb) / 2.0
                }));
                let action =
                    actions[self
                        .selector
                        .select_with(&costs, temperature, rng, &mut weights)];
                let Step { cost, next } = env.step(state, action);
                let done = next.is_none();
                record.push((state, action, cost, next));
                if let Some(s) = next {
                    state = s;
                }
                if done {
                    break;
                }
            }

            if self.config.backward_updates {
                record.reverse();
            }
            let mut max_delta = 0.0f64;
            for &(s, a, cost, next) in record.iter() {
                // Coin flip: which table learns this transition.
                let a_learns = rng.gen_bool(0.5);
                let (learner, evaluator) = if a_learns {
                    (&mut qa, &qb)
                } else {
                    (&mut qb, &qa)
                };
                let future = match next {
                    Some(s2) => {
                        env.actions_into(s2, &mut backup_actions);
                        // Selection by the learner's own estimates …
                        let chosen = backup_actions
                            .iter()
                            .copied()
                            .filter(|&a2| {
                                !self.config.explored_backup || learner.value(s2, a2).is_some()
                            })
                            .min_by(|&x, &y| {
                                let vx = learner.value_or(s2, x, self.config.default_q);
                                let vy = learner.value_or(s2, y, self.config.default_q);
                                vx.partial_cmp(&vy).expect("finite Q values")
                            });
                        match chosen {
                            // … evaluation by the other table.
                            Some(a2) => evaluator.value_or(
                                s2,
                                a2,
                                learner.value_or(s2, a2, self.config.default_q),
                            ),
                            None => self.config.default_q,
                        }
                    }
                    None => 0.0,
                };
                let target = cost + future;
                max_delta = max_delta.max(learner.update(s, a, target));
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

        // Read out the average of the two tables (values only: `set`
        // leaves every visit count zero).
        let mut q = DenseQTable::new(qa.num_states(), qa.num_actions());
        for (s, a, va, _) in qa.entries() {
            let avg = match qb.value(s, a) {
                Some(vb) => (va + vb) / 2.0,
                None => va,
            };
            q.set(s, a, avg);
        }
        for (s, a, vb, _) in qb.entries() {
            if q.value(s, a).is_none() {
                q.set(s, a, vb);
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
            max_episodes: 30_000,
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
    fn learns_the_optimal_chain_policy() {
        let mdp = chain();
        let exact = value_iteration(&mdp, 1.0, 1e-12, 1000);
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(1), vec![0]);
        let result = DoubleQLearning::new(config()).train(&mut env, &mut StdRng::seed_from_u64(2));
        for s in 0..2usize {
            let (best, v) = result.q.ranked_actions(s, &[0, 1])[0];
            assert_eq!(Some(best), exact.policy[s], "state {s}");
            assert!(
                (v - exact.values[s]).abs() < 0.6,
                "state {s}: learned {v} vs exact {}",
                exact.values[s]
            );
        }
    }

    #[test]
    fn matches_value_iteration_on_random_mdps() {
        for seed in 0..4u64 {
            let mut model_rng = StdRng::seed_from_u64(3_000 + seed);
            let mdp = TabularMdp::random_episodic(5, 3, &mut model_rng);
            let exact = value_iteration(&mdp, 1.0, 1e-12, 10_000);
            let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(seed), vec![0]);
            let cfg = QLearningConfig {
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
            let result =
                DoubleQLearning::new(cfg).train(&mut env, &mut StdRng::seed_from_u64(99 + seed));
            let (_, v0) = result.q.ranked_actions(0, &[0, 1, 2])[0];
            let rel = (v0 - exact.values[0]).abs() / exact.values[0].max(1.0);
            assert!(
                rel < 0.12,
                "seed {seed}: {v0} vs {} (rel {rel})",
                exact.values[0]
            );
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let mdp = chain();
        let run = || {
            let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(7), vec![0]);
            let r = DoubleQLearning::new(config()).train(&mut env, &mut StdRng::seed_from_u64(8));
            (r.episodes, r.q.value(0, 1))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn respects_the_episode_cap() {
        let mdp = chain();
        let mut env = SampledMdp::new(&mdp, StdRng::seed_from_u64(1), vec![0]);
        let cfg = QLearningConfig {
            max_episodes: 25,
            convergence_tol: 1e-12,
            convergence_window: 1_000,
            ..config()
        };
        let result = DoubleQLearning::new(cfg).train(&mut env, &mut StdRng::seed_from_u64(2));
        assert_eq!(result.episodes, 25);
        assert!(!result.converged);
    }
}
