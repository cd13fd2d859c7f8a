//! Linear Q-function approximation — the paper's §7 extension
//! ("using generalization functions to approximate the Q-learning
//! values").
//!
//! Instead of a lookup table, the Q-function of one error type is a linear
//! model per action over state features (attempt counts, strongest failed
//! action, total attempts). The approximation *generalizes*: it can score
//! states never visited during training, so a policy backed by it covers
//! 100% of its type's states — at the price of approximation error where
//! the true Q surface is not linear in the features.
//!
//! Training uses the same Boltzmann-explored replay episodes as the
//! tabular trainer (the [`crate::trainer::ReplayEnv`]), decoding each
//! packed state to a [`RecoveryState`] for its features, with
//! semi-gradient TD(0) updates. Costs are scaled to hours internally so
//! learning rates are well-conditioned across second-scale and day-scale
//! actions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use recovery_mdp::{BoltzmannSelector, Environment, Step, TemperatureSchedule};
use recovery_simlog::RepairAction;

use crate::error_type::ErrorType;
use crate::policy::DecidePolicy;
use crate::state::RecoveryState;
use crate::trainer::OfflineTrainer;

/// Number of state-action features.
pub const FEATURE_COUNT: usize = 8;

/// Seconds per internal cost unit (costs are learned in hours).
const COST_SCALE: f64 = 3600.0;

/// The feature map φ(state, action): bias, per-action attempt counts
/// (scaled), strongest-failed strength (scaled), total attempts (scaled),
/// and a *dominated* indicator — 1 when the candidate action is no
/// stronger than an already-failed action, i.e. provably useless under
/// hypothesis H2. Without that interaction term a linear model cannot
/// represent the sharp cliff between escalation and futile retries, and
/// its generalization turns pathological.
pub fn features(state: &RecoveryState, action: RepairAction) -> [f64; FEATURE_COUNT] {
    let tried = state.tried();
    let dominated = tried
        .strongest()
        .is_some_and(|strongest| action.strength() <= strongest.strength());
    [
        1.0,
        f64::from(tried.count(RepairAction::TryNop)) / 4.0,
        f64::from(tried.count(RepairAction::Reboot)) / 4.0,
        f64::from(tried.count(RepairAction::Reimage)) / 4.0,
        f64::from(tried.count(RepairAction::Rma)) / 4.0,
        tried.strongest().map_or(0.0, |a| f64::from(a.strength())) / 3.0,
        state.attempts() as f64 / 20.0,
        if dominated { 1.0 } else { 0.0 },
    ]
}

/// A linear Q-function for one error type: one weight vector per action.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearQ {
    error_type: ErrorType,
    weights: [[f64; FEATURE_COUNT]; RepairAction::COUNT],
}

impl LinearQ {
    /// A zero-initialized model for `error_type`.
    pub fn new(error_type: ErrorType) -> Self {
        LinearQ {
            error_type,
            weights: [[0.0; FEATURE_COUNT]; RepairAction::COUNT],
        }
    }

    /// The modeled error type.
    pub fn error_type(&self) -> ErrorType {
        self.error_type
    }

    /// The predicted cost (seconds) of `action` in `state`.
    pub fn predict(&self, state: &RecoveryState, action: RepairAction) -> f64 {
        let phi = features(state, action);
        let w = &self.weights[action.index()];
        let scaled: f64 = phi.iter().zip(w).map(|(x, wi)| x * wi).sum();
        scaled * COST_SCALE
    }

    /// One semi-gradient TD step toward `target` (seconds) for `(state,
    /// action)` with learning rate `lr`.
    pub fn update(&mut self, state: &RecoveryState, action: RepairAction, target: f64, lr: f64) {
        let phi = features(state, action);
        let scaled_target = target / COST_SCALE;
        let prediction: f64 = phi
            .iter()
            .zip(&self.weights[action.index()])
            .map(|(x, w)| x * w)
            .sum();
        let error = scaled_target - prediction;
        for (w, x) in self.weights[action.index()].iter_mut().zip(phi) {
            *w += lr * error * x;
        }
    }

    /// The greedy (cost-minimizing) action in `state`, restricted to
    /// actions that can still work under hypothesis H2 (strictly stronger
    /// than the strongest failed action; `RMA` always qualifies). The
    /// training episodes are pruned the same way, so the model has no
    /// evidence about dominated actions and must not rank them.
    pub fn best_action(&self, state: &RecoveryState) -> (RepairAction, f64) {
        let strongest = state.tried().strongest();
        RepairAction::ALL
            .into_iter()
            .filter(|a| match strongest {
                Some(m) => a.strength() > m.strength() || *a == RepairAction::Rma,
                None => true,
            })
            .map(|a| (a, self.predict(state, a)))
            .min_by(|x, y| x.1.partial_cmp(&y.1).expect("predictions are finite"))
            .expect("RMA is always available")
    }
}

/// Training configuration for the linear approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearConfig {
    /// Episodes to run.
    pub episodes: u64,
    /// Learning rate of the semi-gradient step.
    pub learning_rate: f64,
    /// Exploration temperature schedule.
    pub schedule: TemperatureSchedule,
}

impl Default for LinearConfig {
    fn default() -> Self {
        LinearConfig {
            episodes: 6_000,
            learning_rate: 0.05,
            schedule: TemperatureSchedule::Geometric {
                t0: 10_000.0,
                decay: 0.998,
                floor: 1.0,
            },
        }
    }
}

/// Trains a [`LinearQ`] for one error type over the trainer's replay
/// environment, with episodes capped at the trainer's N. Returns `None`
/// if the type has no training processes.
///
/// # Panics
///
/// Panics if the configuration has zero episodes or a non-positive
/// learning rate.
pub fn train_linear(
    trainer: &OfflineTrainer<'_>,
    et: ErrorType,
    config: &LinearConfig,
) -> Option<LinearQ> {
    assert!(config.episodes > 0, "need at least one episode");
    assert!(config.learning_rate > 0.0, "learning rate must be positive");
    let mut env = trainer.replay_env(et)?;
    let mut model = LinearQ::new(et);
    let selector = BoltzmannSelector::new();
    let mut rng = StdRng::seed_from_u64(
        0x0001_1EA2 ^ u64::from(et.symptom().index()).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let course = recovery_mdp::TemperatureCourse::new(config.schedule);
    let mut actions = Vec::new();
    for episode in 0..config.episodes {
        let temperature = course.at(episode);
        let mut index = env.reset();
        let mut state = env.state(index);
        for _ in 0..trainer.config().max_attempts {
            env.actions_into(index, &mut actions);
            let costs: Vec<f64> = actions
                .iter()
                .map(|&a| model.predict(&state, RepairAction::ALL[a]))
                .collect();
            let action = RepairAction::ALL[actions[selector.select(&costs, temperature, &mut rng)]];
            let Step { cost, next } = env.step(index, action.index());
            let Some(next) = next else {
                model.update(&state, action, cost, config.learning_rate);
                break;
            };
            let next_state = env.state(next);
            env.actions_into(next, &mut actions);
            let future = actions
                .iter()
                .map(|&a| model.predict(&next_state, RepairAction::ALL[a]))
                .fold(f64::INFINITY, f64::min);
            model.update(&state, action, cost + future.max(0.0), config.learning_rate);
            (index, state) = (next, next_state);
        }
    }
    Some(model)
}

/// A policy backed by a set of per-type linear models. Unlike the tabular
/// [`crate::policy::TrainedPolicy`], it generalizes to unseen states of
/// its known types (full per-type coverage).
#[derive(Debug, Clone, Default)]
pub struct LinearPolicy {
    models: Vec<LinearQ>,
}

impl LinearPolicy {
    /// An empty policy.
    pub fn new() -> Self {
        LinearPolicy { models: Vec::new() }
    }

    /// Adds one per-type model (replacing any existing model of the same
    /// type).
    pub fn insert(&mut self, model: LinearQ) {
        self.models.retain(|m| m.error_type() != model.error_type());
        self.models.push(model);
    }

    /// The model for `et`, if present.
    pub fn model(&self, et: ErrorType) -> Option<&LinearQ> {
        self.models.iter().find(|m| m.error_type() == et)
    }

    /// Number of per-type models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the policy has no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

impl DecidePolicy for LinearPolicy {
    fn decide(&self, state: &RecoveryState) -> Option<RepairAction> {
        self.model(state.error_type())
            .map(|m| m.best_action(state).0)
    }

    fn name(&self) -> &str {
        "linear-approx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn features_reflect_state() {
        let et = ErrorType::new(SymptomId::new(0));
        let s0 = RecoveryState::initial(et);
        let phi0 = features(&s0, RepairAction::TryNop);
        assert_eq!(phi0[0], 1.0);
        assert!(phi0[1..].iter().all(|&x| x == 0.0));
        let s2 = s0.after(RepairAction::Reboot).after(RepairAction::Reboot);
        let phi2 = features(&s2, RepairAction::Reimage);
        assert!((phi2[2] - 0.5).abs() < 1e-12, "two reboots scaled by 4");
        assert!((phi2[6] - 0.1).abs() < 1e-12, "two attempts of 20");
        assert_eq!(phi2[7], 0.0, "escalation is not dominated");
        let phi_retry = features(&s2, RepairAction::Reboot);
        assert_eq!(phi_retry[7], 1.0, "retrying a failed action is dominated");
        let phi_weaker = features(&s2, RepairAction::TryNop);
        assert_eq!(
            phi_weaker[7], 1.0,
            "weaker than a failed action is dominated"
        );
    }

    #[test]
    fn update_moves_prediction_toward_target() {
        let et = ErrorType::new(SymptomId::new(0));
        let mut m = LinearQ::new(et);
        let s = RecoveryState::initial(et);
        let before = m.predict(&s, RepairAction::Reboot);
        for _ in 0..200 {
            m.update(&s, RepairAction::Reboot, 7200.0, 0.1);
        }
        let after = m.predict(&s, RepairAction::Reboot);
        assert!((before - 0.0).abs() < 1e-9);
        assert!(
            (after - 7200.0).abs() < 100.0,
            "prediction {after} should approach 7200"
        );
    }

    #[test]
    fn linear_policy_learns_to_skip_hopeless_cheap_actions() {
        let train: Vec<RecoveryProcess> = (0..30)
            .map(|i| ladder_process(i, i as u64 * 1_000_000, 3, RepairAction::Reimage))
            .collect();
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(3));
        let model = train_linear(&trainer, et, &LinearConfig::default()).unwrap();
        let mut policy = LinearPolicy::new();
        policy.insert(model);
        let first = policy.decide(&RecoveryState::initial(et)).unwrap();
        assert!(
            first.at_least_as_strong_as(RepairAction::Reimage),
            "linear policy should start strong on a deceptive type, chose {first}"
        );
    }

    #[test]
    fn linear_policy_generalizes_to_unseen_states() {
        let train: Vec<RecoveryProcess> = (0..10)
            .map(|i| ladder_process(i, i as u64 * 1_000_000, 5, RepairAction::TryNop))
            .collect();
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(5));
        let mut policy = LinearPolicy::new();
        policy.insert(train_linear(&trainer, et, &LinearConfig::default()).unwrap());
        // A deep, never-visited state still gets a decision.
        let mut deep = RecoveryState::initial(et);
        for _ in 0..7 {
            deep = deep.after(RepairAction::Reboot);
        }
        assert!(policy.decide(&deep).is_some());
        // But a foreign type does not.
        assert!(policy
            .decide(&RecoveryState::initial(ErrorType::new(SymptomId::new(9))))
            .is_none());
    }

    #[test]
    fn insert_replaces_same_type_model() {
        let et = ErrorType::new(SymptomId::new(1));
        let mut policy = LinearPolicy::new();
        policy.insert(LinearQ::new(et));
        policy.insert(LinearQ::new(et));
        assert_eq!(policy.len(), 1);
        assert!(!policy.is_empty());
    }

    #[test]
    fn missing_type_returns_none() {
        let train: Vec<RecoveryProcess> = (0..5)
            .map(|i| ladder_process(i, i as u64 * 1_000_000, 2, RepairAction::TryNop))
            .collect();
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        assert!(train_linear(
            &trainer,
            ErrorType::new(SymptomId::new(66)),
            &LinearConfig::default()
        )
        .is_none());
    }
}
