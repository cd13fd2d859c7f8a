//! # recovery-mdp
//!
//! A small, generic toolkit for finite Markov decision processes and
//! tabular Q-learning, written for the `autorecover` workspace but free of
//! any recovery-specific types.
//!
//! The reproduced paper (Zhu & Yuan, DSN 2007) casts error recovery as a
//! *cost-minimizing* MDP — the "reward" is repair time and the objective is
//! to minimize expected cumulative cost with discount γ = 1 (§2.1–2.2).
//! This crate therefore speaks in **costs everywhere**: smaller Q is
//! better, greedy selection takes the minimum, and Boltzmann exploration
//! weights actions by `exp(-Q/T)` (the paper's Eq. 5).
//!
//! Pieces:
//!
//! * [`DenseQTable`] — the flat-array Q-function every learner trains on,
//!   with per-pair visit counts and the paper's Eq. 6 update rule
//!   `α = 1 / (1 + visits(s, a))`;
//! * [`QTable`] — the same function keyed by arbitrary hashable states
//!   and actions: the artifact form a trained table is converted to
//!   ([`DenseQTable::to_qtable`]) for persistence, diagnostics and merges;
//! * [`BoltzmannSelector`] + [`TemperatureSchedule`] — annealed softmax
//!   exploration;
//! * [`Environment`] — the episodic sampling interface over packed
//!   integer states and actions that the learners drive;
//! * [`QLearning`] — the training loop with sweep-based convergence
//!   detection (used for the paper's Figure 13 sweep counts);
//! * [`DoubleQLearning`] — the double-estimator variant that cancels the
//!   min-backup's optimizer's-curse bias (an ablation arm motivated by
//!   this reproduction's own convergence analysis);
//! * [`Sarsa`] — the on-policy baseline;
//! * [`TabularMdp`] + [`value_iteration`] — an explicit finite MDP and an
//!   exact dynamic-programming solver, used to certify that the learners
//!   converge to the optimal policy on known models.
//!
//! ```
//! use recovery_mdp::{
//!     value_iteration, DenseQTable, QLearning, QLearningConfig, SampledMdp, TabularMdp,
//! };
//! use rand::SeedableRng;
//!
//! // A 2-state chain: action 0 is cheap but loops, action 1 is dear but
//! // reaches the terminal state.
//! let mut mdp = TabularMdp::new(2, 2);
//! mdp.set_cost(0, 0, 1.0);
//! mdp.add_transition(0, 0, 1.0, 0);
//! mdp.set_cost(0, 1, 3.0);
//! mdp.add_transition(0, 1, 1.0, 1);
//! mdp.set_terminal(1);
//!
//! let exact = value_iteration(&mdp, 0.95, 1e-9, 10_000);
//! let mut env = SampledMdp::new(&mdp, rand::rngs::StdRng::seed_from_u64(7), vec![0]);
//! let trained = QLearning::new(QLearningConfig::default()).train(
//!     &mut env,
//!     &mut rand::rngs::StdRng::seed_from_u64(8),
//!     DenseQTable::new(mdp.n_states(), mdp.n_actions()),
//! );
//! let (q_best, _) = trained.q.ranked_actions(0, &[0, 1])[0];
//! assert_eq!(q_best, exact.policy[0].unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod boltzmann;
mod dense;
mod double_q;
mod env;
mod qlearning;
mod qtable;
mod sarsa;
mod tabular;

pub use boltzmann::{BoltzmannSelector, TemperatureCourse, TemperatureSchedule};
pub use dense::DenseQTable;
pub use double_q::DoubleQLearning;
pub use env::{Environment, SampledMdp, Step};
pub use qlearning::{QLearning, QLearningConfig, TrainResult};
pub use qtable::QTable;
pub use sarsa::Sarsa;
pub use tabular::{value_iteration, TabularMdp, ValueIterationResult};

#[cfg(test)]
mod thread_bounds {
    //! The trainer fans per-type Q-learning out across scoped threads;
    //! these assertions pin the `Send`/`Sync` bounds that fan-out relies
    //! on, so a future non-thread-safe field (an `Rc`, a raw pointer)
    //! fails here instead of deep inside `recovery-core`.
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn learning_internals_are_send_and_sync() {
        assert_send_sync::<QTable<u64, u8>>();
        assert_send_sync::<QLearning>();
        assert_send_sync::<DoubleQLearning>();
        assert_send_sync::<QLearningConfig>();
        assert_send_sync::<TrainResult>();
        assert_send_sync::<BoltzmannSelector>();
        assert_send_sync::<TemperatureSchedule>();
        assert_send_sync::<DenseQTable>();
        assert_send_sync::<Step>();
    }
}
