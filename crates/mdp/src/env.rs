//! The episodic environment interface the learners drive.

use rand::Rng;

use crate::tabular::TabularMdp;

/// The result of taking one action: an immediate cost and either the
/// packed next-state index or episode termination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Immediate cost incurred by the action.
    pub cost: f64,
    /// The successor state index, or `None` if the episode terminated.
    pub next: Option<usize>,
}

/// An episodic, cost-emitting environment over packed integer states and
/// actions, so the learners index a [`DenseQTable`](crate::DenseQTable)
/// directly and allocate nothing per episode.
///
/// Implementations own whatever randomness they need (typically a seeded
/// generator), keeping the trainer deterministic given seeded parts. The
/// order in which [`Environment::actions_into`] lists actions is part of
/// the contract: it drives both Boltzmann sampling and backup folds.
pub trait Environment {
    /// Exclusive upper bound on state indexes returned by
    /// [`Environment::reset`] and [`Environment::step`].
    fn num_states(&self) -> usize;

    /// Exclusive upper bound on action indexes.
    fn num_actions(&self) -> usize;

    /// Starts a new episode, returning its initial state index.
    fn reset(&mut self) -> usize;

    /// Writes the actions available in `state` into `out` (clearing it
    /// first). Must be non-empty for any state reachable from
    /// [`Environment::reset`].
    fn actions_into(&self, state: usize, out: &mut Vec<usize>);

    /// Executes `action` in `state`.
    fn step(&mut self, state: usize, action: usize) -> Step;
}

/// Adapts an explicit [`TabularMdp`] into a sampling [`Environment`],
/// drawing start states uniformly from `starts` and transitions from the
/// model — used to certify the learners against value iteration.
#[derive(Debug)]
pub struct SampledMdp<'a, R> {
    mdp: &'a TabularMdp,
    rng: R,
    starts: Vec<usize>,
}

impl<'a, R: Rng> SampledMdp<'a, R> {
    /// Creates the adapter.
    ///
    /// # Panics
    ///
    /// Panics if `starts` is empty or names an out-of-range or terminal
    /// state.
    pub fn new(mdp: &'a TabularMdp, rng: R, starts: Vec<usize>) -> Self {
        assert!(!starts.is_empty(), "need at least one start state");
        for &s in &starts {
            assert!(s < mdp.n_states(), "start state {s} out of range");
            assert!(!mdp.is_terminal(s), "start state {s} is terminal");
        }
        SampledMdp { mdp, rng, starts }
    }
}

impl<R: Rng> Environment for SampledMdp<'_, R> {
    fn num_states(&self) -> usize {
        self.mdp.n_states()
    }

    fn num_actions(&self) -> usize {
        self.mdp.n_actions()
    }

    fn reset(&mut self) -> usize {
        self.starts[self.rng.gen_range(0..self.starts.len())]
    }

    fn actions_into(&self, _state: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..self.mdp.n_actions());
    }

    fn step(&mut self, state: usize, action: usize) -> Step {
        let cost = self.mdp.cost(state, action);
        let next = self.mdp.sample_next(state, action, &mut self.rng);
        Step {
            cost,
            next: if self.mdp.is_terminal(next) {
                None
            } else {
                Some(next)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mdp() -> TabularMdp {
        let mut m = TabularMdp::new(2, 1);
        m.set_cost(0, 0, 5.0);
        m.add_transition(0, 0, 1.0, 1);
        m.set_terminal(1);
        m
    }

    #[test]
    fn sampled_mdp_walks_to_termination() {
        let m = mdp();
        let mut env = SampledMdp::new(&m, StdRng::seed_from_u64(1), vec![0]);
        assert_eq!((env.num_states(), env.num_actions()), (2, 1));
        let s = env.reset();
        assert_eq!(s, 0);
        let mut actions = Vec::new();
        env.actions_into(s, &mut actions);
        assert_eq!(actions, vec![0]);
        let step = env.step(s, 0);
        assert_eq!(step.cost, 5.0);
        assert_eq!(step.next, None, "terminal states end the episode");
    }

    #[test]
    #[should_panic(expected = "terminal")]
    fn rejects_terminal_start() {
        let m = mdp();
        let _ = SampledMdp::new(&m, StdRng::seed_from_u64(1), vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn rejects_empty_starts() {
        let m = mdp();
        let _ = SampledMdp::new(&m, StdRng::seed_from_u64(1), vec![]);
    }
}
