//! Offline per-error-type Q-learning (paper Fig. 2, §3.3).
//!
//! For each inferred error type, the trainer repeatedly: selects one of
//! its logged recovery processes, replays counterfactual action sequences
//! against it through the [`SimulationPlatform`], and applies the Eq. 6
//! table update to the recorded transitions — the procedure of the paper's
//! Figure 2. Actions are explored with Boltzmann selection under an
//! annealed temperature; after `max_attempts - 1` failed attempts the only
//! available action is `RMA`, which makes every policy proper and
//! guarantees convergence (§3.2).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recovery_mdp::{
    DenseQTable, DoubleQLearning, Environment, QLearning, QLearningConfig, QTable, Step,
    TemperatureSchedule, TrainResult,
};
use recovery_simlog::{RecoveryProcess, RepairAction};
use recovery_telemetry::{
    Event, ObserverHandle, ReplayTally, Telemetry, TrainingObserver, TrainingRecord,
};

use crate::error_type::{ErrorType, ErrorTypeRanking};
use crate::parallel::WorkerPool;
use crate::platform::{CostEstimation, ReplayCache, SimulationPlatform};
use crate::policy::TrainedPolicy;
use crate::state::{RecoveryState, StateCodec};

/// The deterministic per-type seed derivation: every random stream of one
/// error type's training is a function of the master seed, the type's
/// symptom index, and a per-purpose salt — never of execution order.
/// This is what makes per-type training embarrassingly parallel with
/// byte-identical results for any thread count.
///
/// For a fixed `(master_seed, salt)` the map is injective over symptom
/// indices: both multiplications are by odd constants (bijections on
/// `u64`), the XOR is a bijection, and distinct `u32` indices produce
/// distinct sums before the second multiplication.
pub fn type_seed(master_seed: u64, symptom_index: u32, salt: u64) -> u64 {
    master_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(symptom_index))
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ salt
}

/// Configuration of the offline trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// The Q-learning loop configuration. `max_steps` is overridden with
    /// `max_attempts`.
    pub learning: QLearningConfig,
    /// The paper's N: total attempt budget per episode (N = 20), with the
    /// final attempt forced to `RMA`.
    pub max_attempts: usize,
    /// Prune provably useless actions during exploration: under the
    /// replay hypotheses H1/H2, an action no stronger than an
    /// already-failed one *cannot* cure, so offering it to the learner
    /// only spends sweeps re-discovering the hypothesis. Disabling this
    /// reproduces the unpruned exploration whose slow, noisy convergence
    /// the paper reports for standard RL (and which the selection tree
    /// was invented to shortcut); see the `ablation_pruning` bench.
    pub prune_dominated: bool,
    /// Master seed; each error type derives its own stream.
    pub seed: u64,
}

impl Default for TrainerConfig {
    /// Paper-flavoured defaults: N = 20, a 160k sweep cap, and a
    /// temperature anneal scaled to repair-time costs (seconds).
    fn default() -> Self {
        TrainerConfig {
            learning: QLearningConfig {
                max_episodes: 160_000,
                max_steps: 20,
                // The temperature must start comparable to the *largest*
                // episode costs (a manual repair runs to days, ~3e5 s) or
                // a single unlucky early sample of a good action locks it
                // out of Boltzmann selection for the rest of training.
                schedule: TemperatureSchedule::Geometric {
                    t0: 300_000.0,
                    decay: 0.99988,
                    floor: 5.0,
                },
                convergence_tol: 50.0,
                convergence_window: 400,
                default_q: 0.0,
                exploration_fraction: 0.25,
                backward_updates: true,
                explored_backup: true,
            },
            max_attempts: 20,
            prune_dominated: true,
            seed: 0x0D5E_2007,
        }
    }
}

impl TrainerConfig {
    /// A faster configuration for tests and examples: fewer sweeps, a
    /// quicker anneal.
    pub fn fast() -> Self {
        TrainerConfig {
            learning: QLearningConfig {
                max_episodes: 8_000,
                max_steps: 20,
                schedule: TemperatureSchedule::Geometric {
                    t0: 150_000.0,
                    decay: 0.9988,
                    floor: 5.0,
                },
                convergence_tol: 60.0,
                convergence_window: 150,
                default_q: 0.0,
                exploration_fraction: 0.25,
                backward_updates: true,
                explored_backup: true,
            },
            max_attempts: 20,
            prune_dominated: true,
            seed: 0x0D5E_2007,
        }
    }

    /// The *paper-faithful* standard-RL configuration: forward updates
    /// exactly as listed in the paper's Figure 2, zero-initialized
    /// backups, no action pruning, and the paper's 160k sweep cap. This
    /// is the slow, sometimes non-convergent method whose sweep counts
    /// the paper's Figure 13 reports for "without selection tree" — kept
    /// for that comparison and for the pruning/backup ablation benches.
    pub fn paper_faithful() -> Self {
        let mut config = TrainerConfig::default();
        config.learning.backward_updates = false;
        config.learning.explored_backup = false;
        config.learning.exploration_fraction = 0.0;
        config.prune_dominated = false;
        config
    }

    /// Replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A compact description of the temperature schedule, e.g.
    /// `geometric(t0=300000, decay=0.99988, floor=5)`.
    pub fn schedule_summary(&self) -> String {
        match self.learning.schedule {
            TemperatureSchedule::Geometric { t0, decay, floor } => {
                format!("geometric(t0={t0}, decay={decay}, floor={floor})")
            }
            TemperatureSchedule::Harmonic { t0, floor } => {
                format!("harmonic(t0={t0}, floor={floor})")
            }
            TemperatureSchedule::Constant(t) => format!("constant({t})"),
        }
    }

    /// The configuration as a structured telemetry [`Event`] (kind
    /// `trainer_config`), for JSONL logging without any serde dependency.
    pub fn to_event(&self) -> Event {
        Event::new("trainer_config")
            .with("max_episodes", self.learning.max_episodes)
            .with("max_attempts", self.max_attempts)
            .with("schedule", self.schedule_summary())
            .with("convergence_tol", self.learning.convergence_tol)
            .with("convergence_window", self.learning.convergence_window)
            .with("exploration_fraction", self.learning.exploration_fraction)
            .with("backward_updates", self.learning.backward_updates)
            .with("explored_backup", self.learning.explored_backup)
            .with("prune_dominated", self.prune_dominated)
            .with("seed", self.seed)
    }
}

impl std::fmt::Display for TrainerConfig {
    /// A compact single-line rendering for log output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweeps<={} attempts={} schedule={} tol={} window={} explore={} \
             backward={} explored_backup={} prune={} seed={:#x}",
            self.learning.max_episodes,
            self.max_attempts,
            self.schedule_summary(),
            self.learning.convergence_tol,
            self.learning.convergence_window,
            self.learning.exploration_fraction,
            self.learning.backward_updates,
            self.learning.explored_backup,
            self.prune_dominated,
            self.seed,
        )
    }
}

/// Per-type training statistics (the raw data of the paper's Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeTrainingStats {
    /// The trained error type.
    pub error_type: ErrorType,
    /// Number of training processes available for the type.
    pub sample_count: usize,
    /// Sweeps (episodes) run.
    pub sweeps: u64,
    /// Whether value convergence was reached before the sweep cap.
    pub converged: bool,
    /// The largest Q-value change of the final sweep.
    pub final_q_delta: f64,
}

/// The episodic replay environment for one error type: each episode picks
/// one logged process of the type and replays the learner's actions
/// against it through the platform. States are [`StateCodec`] indices of
/// the tried-action multiset, so the learners index flat arrays instead
/// of hashing.
///
/// Obtained from [`OfflineTrainer::replay_env`]; exposed so alternative
/// training loops (the selection-tree accelerator, the linear
/// approximation of [`crate::approx`], or user experiments) can drive the
/// same episodes.
pub struct ReplayEnv<'a> {
    platform: &'a SimulationPlatform,
    /// The replay data of the type's processes: episodes replay
    /// thousands of attempts per process, so the hot path answers from
    /// precomputed tables instead of re-deriving the error type, required
    /// action, and occurrence costs per attempt.
    cache: ReplayCache,
    error_type: ErrorType,
    codec: StateCodec,
    max_attempts: usize,
    prune_dominated: bool,
    rng: StdRng,
    current: usize,
    /// Every attempt replayed so far, for the type's training record.
    replays: ReplayTally,
    /// Lazily memoized action menu per packed state, as a bitmask over
    /// action indices (`0` = not yet computed; an empty menu is
    /// unreachable, so the sentinel never aliases a real menu). A state's
    /// menu depends only on its tried-action digits, never on the drawn
    /// process, so the first decode of a state serves every later visit —
    /// the training loop queries menus three times per step (selection,
    /// transition, backup) and the decode is the single hottest part of
    /// the env. `Cell` slots instead of a `RefCell` around the vector:
    /// the hot path reads one byte with no borrow-flag traffic.
    menus: Vec<std::cell::Cell<u8>>,
}

impl ReplayEnv<'_> {
    /// The codec mapping packed indices to tried-action multisets.
    pub fn codec(&self) -> &StateCodec {
        &self.codec
    }

    /// The error type this environment replays.
    pub fn error_type(&self) -> ErrorType {
        self.error_type
    }

    /// The [`RecoveryState`] a packed index stands for.
    pub(crate) fn state(&self, index: usize) -> RecoveryState {
        RecoveryState::new(self.error_type, self.codec.decode(index))
    }

    /// Computes the action-menu bitmask of `state` from its digits, in
    /// ascending action-index order.
    fn menu_mask(&self, state: usize) -> u8 {
        let (counts, total) = self.codec.counts(state);
        if total + 1 >= self.max_attempts {
            // N-1 automated attempts failed: manual repair only.
            return 1 << RepairAction::Rma.index();
        }
        // `ActionMultiset::strongest` scans strongest-first.
        let strongest = RepairAction::ALL
            .into_iter()
            .rev()
            .find(|a| counts[a.index()] > 0);
        match strongest {
            // By H2, actions no stronger than a failed one cannot cure;
            // offer only genuine escalations (plus RMA, always stronger).
            Some(strongest) if self.prune_dominated => RepairAction::ALL
                .into_iter()
                .filter(|a| a.strength() > strongest.strength())
                .fold(0u8, |mask, a| mask | (1 << a.index())),
            _ => RepairAction::ALL
                .into_iter()
                .fold(0u8, |mask, a| mask | (1 << a.index())),
        }
    }
}

impl std::fmt::Debug for ReplayEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayEnv")
            .field("error_type", &self.error_type)
            .field("processes", &self.cache.len())
            .finish()
    }
}

impl Environment for ReplayEnv<'_> {
    fn num_states(&self) -> usize {
        self.codec.num_states()
    }

    fn num_actions(&self) -> usize {
        RepairAction::COUNT
    }

    fn reset(&mut self) -> usize {
        // The paper's SelectProcess step: draw one recovery process.
        self.current = self.rng.gen_range(0..self.cache.len());
        StateCodec::INITIAL
    }

    fn actions_into(&self, state: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut mask = self.menus[state].get();
        if mask == 0 {
            mask = self.menu_mask(state);
            self.menus[state].set(mask);
        }
        // Bits unpack in ascending action-index order: `RepairAction::ALL`
        // order, which Boltzmann sampling and backup folds depend on.
        for action in RepairAction::ALL {
            if mask & (1 << action.index()) != 0 {
                out.push(action.index());
            }
        }
    }

    fn step(&mut self, state: usize, action: usize) -> Step {
        let action = RepairAction::ALL[action];
        let occurrence = self.codec.count_of(state, action);
        // The trainer's platform has no observer: training attempts are
        // tallied here, for the type's record.
        let outcome = self
            .platform
            .attempt_cached(&self.cache, self.current, action, occurrence);
        self.replays.attempt(outcome.cured, outcome.from_log);
        Step {
            cost: outcome.cost,
            next: (!outcome.cured).then(|| self.codec.after(state, action)),
        }
    }
}

/// The offline trainer: groups training processes by inferred error type
/// and runs per-type Q-learning over the replay platform.
///
/// ```no_run
/// use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
/// use recovery_simlog::{GeneratorConfig, LogGenerator};
///
/// let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
/// let processes = generated.log.split_processes();
/// let trainer = OfflineTrainer::new(&processes, TrainerConfig::fast());
/// let types = trainer.ranking().top_k(5);
/// let (policy, stats) = trainer.train(&types);
/// assert_eq!(stats.len(), types.len());
/// assert!(policy.covers_type(types[0]));
/// ```
#[derive(Debug)]
pub struct OfflineTrainer<'a> {
    platform: SimulationPlatform,
    by_type: HashMap<ErrorType, Vec<&'a RecoveryProcess>>,
    ranking: ErrorTypeRanking,
    config: TrainerConfig,
    observer: ObserverHandle,
    pool: WorkerPool,
    telemetry: Telemetry,
}

impl<'a> OfflineTrainer<'a> {
    /// Builds the trainer from the training portion of the log. The
    /// platform is constructed in [`CostEstimation::PreferActual`] mode —
    /// training charges actual logged costs where available (§3.3).
    pub fn new(train: &'a [RecoveryProcess], config: TrainerConfig) -> Self {
        Self::from_refs(train.iter(), config)
    }

    /// [`OfflineTrainer::new`] over borrowed processes, taken in
    /// iteration order: the continuous loop trains on the clean part of
    /// its corpus without copying a process.
    pub(crate) fn from_refs<I>(train: I, config: TrainerConfig) -> Self
    where
        I: Iterator<Item = &'a RecoveryProcess> + Clone,
    {
        let platform = SimulationPlatform::from_refs(train.clone(), CostEstimation::PreferActual);
        let mut by_type: HashMap<ErrorType, Vec<&'a RecoveryProcess>> = HashMap::new();
        for p in train {
            by_type.entry(ErrorType::of(p)).or_default().push(p);
        }
        let ranking = ErrorTypeRanking::from_counts(by_type.iter().map(|(&t, ps)| (t, ps.len())));
        OfflineTrainer {
            platform,
            by_type,
            ranking,
            config,
            observer: ObserverHandle::none(),
            pool: WorkerPool::available(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the number of worker threads [`OfflineTrainer::train`] fans
    /// per-type training out over. The default is the machine's available
    /// parallelism; `threads = 1` is the legacy sequential path. The
    /// trained tables are byte-identical for every choice.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkerPool::new(threads);
        self
    }

    /// The worker pool used by [`OfflineTrainer::train`].
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Attaches a [`Telemetry`] handle so per-type training fan-outs
    /// record worker spans (one per type, named by its label) into the
    /// enclosing trace tree. Purely observational — the trained tables
    /// are byte-identical with or without it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a training observer. Every subsequent `train_*` call
    /// hands it one [`TrainingRecord`] per type. Purely observational:
    /// attaching an observer never changes the trained tables.
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The platform built from the training data.
    pub fn platform(&self) -> &SimulationPlatform {
        &self.platform
    }

    /// The frequency ranking of error types in the training data.
    pub fn ranking(&self) -> &ErrorTypeRanking {
        &self.ranking
    }

    /// The training processes of one error type.
    pub fn processes_of(&self, et: ErrorType) -> &[&'a RecoveryProcess] {
        self.by_type.get(&et).map_or(&[], Vec::as_slice)
    }

    /// An episodic replay environment for `et`, or `None` if the type has
    /// no training processes. Every call draws the same process sequence:
    /// the environment's random stream derives from the master seed and
    /// the type alone.
    pub fn replay_env(&self, et: ErrorType) -> Option<ReplayEnv<'_>> {
        let processes = self.by_type.get(&et)?;
        let codec = StateCodec::new(self.config.max_attempts);
        Some(ReplayEnv {
            platform: &self.platform,
            cache: self.platform.replay_cache(processes),
            error_type: et,
            codec,
            max_attempts: self.config.max_attempts,
            prune_dominated: self.config.prune_dominated,
            rng: StdRng::seed_from_u64(self.type_seed(et, 0x000_5EEDE)),
            current: 0,
            replays: ReplayTally::default(),
            menus: vec![std::cell::Cell::new(0u8); codec.num_states()],
        })
    }

    /// Trains one error type, returning its Q-table fragment and stats.
    /// Returns `None` if the type has no training processes.
    pub fn train_type(
        &self,
        et: ErrorType,
    ) -> Option<(QTable<RecoveryState, RepairAction>, TypeTrainingStats)> {
        self.train_type_from(et, QTable::new())
    }

    /// Trains one error type starting from a Q-table *seeded with the
    /// user-defined policy's value estimates* — the paper's §7
    /// "designing initial policies that can be improved" extension. The
    /// seed pre-fills, along the ladder's own trajectory, each state's
    /// ladder action with its expected cost under the empirical averages,
    /// so early sweeps refine a sensible baseline instead of a blank
    /// table.
    pub fn train_type_seeded(
        &self,
        et: ErrorType,
    ) -> Option<(QTable<RecoveryState, RepairAction>, TypeTrainingStats)> {
        let seed = self.user_policy_seed(et)?;
        self.train_type_from(et, seed)
    }

    /// Trains one error type from an explicit initial Q-table.
    pub fn train_type_from(
        &self,
        et: ErrorType,
        initial: QTable<RecoveryState, RepairAction>,
    ) -> Option<(QTable<RecoveryState, RepairAction>, TypeTrainingStats)> {
        let processes = self.by_type.get(&et)?;
        let mut record = self.record(et);
        let driver = QLearning::new(self.learning());
        let mut rng = StdRng::seed_from_u64(self.type_seed(et, 0x000_AC710));
        let mut env = self.replay_env(et).expect("type has processes");
        let codec = *env.codec();
        let mut table = DenseQTable::new(codec.num_states(), RepairAction::COUNT);
        table.absorb_qtable(&initial, |s| codec.encode(&s.tried()), |a| a.index());
        let result = driver.train_observed(&mut env, &mut rng, table, record.as_mut());
        Some(self.finish_type(&env, processes.len(), result, record))
    }

    /// Trains one error type with **double Q-learning** (two estimators,
    /// selection and evaluation decoupled) instead of the plain driver —
    /// the ablation arm that addresses the min-backup's optimizer's-curse
    /// bias observed with the paper-faithful learner (DESIGN.md §8.3).
    /// Returns `None` if the type has no training processes.
    pub fn train_type_double(
        &self,
        et: ErrorType,
    ) -> Option<(QTable<RecoveryState, RepairAction>, TypeTrainingStats)> {
        let processes = self.by_type.get(&et)?;
        let record = self.record(et);
        let driver = DoubleQLearning::new(self.learning());
        let mut rng = StdRng::seed_from_u64(self.type_seed(et, 0x00D_0B1E));
        let mut env = self.replay_env(et).expect("type has processes");
        let result = driver.train(&mut env, &mut rng);
        Some(self.finish_type(&env, processes.len(), result, record))
    }

    /// The learner configuration, with the episode step cap set to the
    /// paper's N.
    fn learning(&self) -> QLearningConfig {
        QLearningConfig {
            max_steps: self.config.max_attempts,
            ..self.config.learning.clone()
        }
    }

    /// The observer's fresh record for training `et` (`None` when no
    /// observer is attached).
    pub(crate) fn record(&self, et: ErrorType) -> Option<TrainingRecord> {
        self.observer
            .record(Self::type_label(et), self.processes_of(et).len())
    }

    /// Hands a type's finished `record` to the observer, with the
    /// attempts `env` replayed and the trainer's totals. (The double
    /// learner records no sweeps as it runs; the others counted the same
    /// `sweeps`.)
    pub(crate) fn flush(
        &self,
        record: Option<TrainingRecord>,
        env: &ReplayEnv<'_>,
        sweeps: u64,
        converged: bool,
    ) {
        if let Some(mut record) = record {
            record.sweeps = sweeps;
            record.replays = env.replays;
            record.converged = converged;
            self.observer.training_finished(&record);
        }
    }

    /// Converts a finished per-type run to its artifact-form Q-table and
    /// stats, handing the type's record to the observer.
    fn finish_type(
        &self,
        env: &ReplayEnv<'_>,
        sample_count: usize,
        result: TrainResult,
        record: Option<TrainingRecord>,
    ) -> (QTable<RecoveryState, RepairAction>, TypeTrainingStats) {
        let et = env.error_type();
        self.flush(record, env, result.episodes, result.converged);
        let q = result
            .q
            .to_qtable(|i| env.state(i), |a| RepairAction::ALL[a]);
        let stats = TypeTrainingStats {
            error_type: et,
            sample_count,
            sweeps: result.episodes,
            converged: result.converged,
            final_q_delta: result.final_q_delta,
        };
        (q, stats)
    }

    /// Builds the user-ladder seed table for one type: walking the
    /// default ladder from the initial state, each visited state's ladder
    /// action is pre-set to its expected cost-to-go under the platform's
    /// empirical averages and required-action distribution.
    pub fn user_policy_seed(&self, et: ErrorType) -> Option<QTable<RecoveryState, RepairAction>> {
        let processes = self.by_type.get(&et)?;
        let model = crate::exact::EmpiricalTypeModel::new(et, processes, &self.platform);
        let ladder = crate::policy::UserStatePolicy::default();
        let mut q = QTable::new();
        let mut state = RecoveryState::initial(et);
        for _ in 0..self.config.max_attempts {
            let action = crate::policy::DecidePolicy::decide(&ladder, &state)
                .expect("the ladder always answers");
            // Expected cost-to-go of *continuing with the ladder* from here.
            let Some(value) = model.policy_cost_from(&ladder, &state, self.config.max_attempts)
            else {
                break;
            };
            q.set(state, action, value);
            if action == RepairAction::Rma {
                break;
            }
            state = state.after(action);
        }
        Some(q)
    }

    /// Trains every requested type and merges the per-type tables into one
    /// [`TrainedPolicy`]. Types without training data are skipped (they
    /// surface as unhandled cases downstream, exactly as in the paper).
    ///
    /// Per-type training is fanned out over the trainer's [`WorkerPool`]
    /// (see [`OfflineTrainer::with_threads`]). Each type's random streams
    /// derive from [`type_seed`] alone, and the fragments are merged in
    /// the order of `types` — states of different types are disjoint — so
    /// the result is byte-identical for any thread count.
    pub fn train(&self, types: &[ErrorType]) -> (TrainedPolicy, Vec<TypeTrainingStats>) {
        // Each worker records a span named by its type label, ranked by
        // position in `types`, so the trace tree shows per-type training
        // in ranking order for any thread count.
        let ctx = self.telemetry.trace_context();
        let fragments = self.pool.map_indexed(types.len(), |i| {
            let _span =
                self.telemetry
                    .worker_span(ctx.as_ref(), &Self::type_label(types[i]), i as u64);
            self.train_type(types[i])
        });
        let mut policy = TrainedPolicy::default();
        let mut all_stats = Vec::new();
        for (q, stats) in fragments.into_iter().flatten() {
            policy.q_mut().merge_from(q);
            all_stats.push(stats);
        }
        (policy, all_stats)
    }

    /// Trains every type seen in the training data, most frequent first.
    pub fn train_all(&self) -> (TrainedPolicy, Vec<TypeTrainingStats>) {
        let types = self.ranking.top_k(self.ranking.len());
        self.train(&types)
    }

    /// The observer-facing label of an error type, e.g. `type3`. This is
    /// the label of the type's [`TrainingRecord`], under which telemetry
    /// events and the diagnostics traces identify a type.
    pub fn type_label(et: ErrorType) -> String {
        format!("type{}", et.symptom().index())
    }

    /// A deterministic per-type seed derived from the master seed.
    fn type_seed(&self, et: ErrorType, salt: u64) -> u64 {
        type_seed(self.config.seed, et.symptom().index(), salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::EmpiricalTypeModel;
    use crate::policy::{DecidePolicy, UserStatePolicy};
    use recovery_simlog::{ActionRecord, MachineId, SimTime, SymptomId};

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A process of symptom `sym` that escalated through the user ladder
    /// until `req` cured it, with per-rung durations derived from the
    /// ladder (TRYNOP 600 s fail, REBOOT 1800 s fail, …).
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
            let dur = match a {
                RepairAction::TryNop => 600,
                RepairAction::Reboot => 1800,
                RepairAction::Reimage => 10_000,
                RepairAction::Rma => 200_000,
            };
            now += dur;
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

    /// A deceptive type: TRYNOP/REBOOT never cure; REIMAGE always does.
    fn deceptive_training_set(sym: u32, n: usize) -> Vec<RecoveryProcess> {
        (0..n)
            .map(|i| ladder_process(i as u32, i as u64 * 1_000_000, sym, RepairAction::Reimage))
            .collect()
    }

    #[test]
    fn learns_to_skip_hopeless_cheap_actions() {
        let train = deceptive_training_set(3, 30);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(3));
        let (q, stats) = trainer.train_type(et).unwrap();
        assert!(stats.sweeps > 0);
        let policy = TrainedPolicy::new(q);
        assert_eq!(
            policy.decide(&RecoveryState::initial(et)),
            Some(RepairAction::Reimage),
            "the trained policy should jump straight to the curing action"
        );
    }

    #[test]
    fn trained_policy_matches_exact_dp_optimum() {
        // A mixed type: 70% cured by TRYNOP, 30% by REBOOT.
        let mut train = Vec::new();
        for i in 0..30 {
            let req = if i % 10 < 7 {
                RepairAction::TryNop
            } else {
                RepairAction::Reboot
            };
            train.push(ladder_process(i, i as u64 * 1_000_000, 4, req));
        }
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(4));
        let refs: Vec<&RecoveryProcess> = train.iter().collect();
        let model = EmpiricalTypeModel::new(et, &refs, trainer.platform());
        let exact = model.optimal(20);

        // Every per-type entry point must reach the DP optimum: plain,
        // ladder-seeded, and double Q-learning.
        for name in ["train_type", "train_type_seeded", "train_type_double"] {
            let (q, _) = match name {
                "train_type" => trainer.train_type(et),
                "train_type_seeded" => trainer.train_type_seeded(et),
                _ => trainer.train_type_double(et),
            }
            .unwrap();
            let policy = TrainedPolicy::new(q);
            assert_eq!(
                policy.decide(&RecoveryState::initial(et)),
                Some(exact.first_action()),
                "{name}: greedy first action must match the DP optimum"
            );
            // And the full trained policy's exact cost should be near optimal.
            if let Some(cost) = model.policy_cost(&policy, 20) {
                assert!(
                    cost <= exact.expected_cost * 1.05 + 1.0,
                    "{name}: trained policy cost {cost} vs optimal {}",
                    exact.expected_cost
                );
            }
        }
    }

    #[test]
    fn trained_policy_beats_user_ladder_on_deceptive_type() {
        let train = deceptive_training_set(9, 25);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(9));
        let (q, _) = trainer.train_type(et).unwrap();
        let policy = TrainedPolicy::new(q);
        let refs: Vec<&RecoveryProcess> = train.iter().collect();
        let model = EmpiricalTypeModel::new(et, &refs, trainer.platform());
        let trained_cost = model
            .policy_cost(&policy, 20)
            .expect("policy covers its chain");
        let user_cost = model.policy_cost(&UserStatePolicy::default(), 20).unwrap();
        // The ladder wastes its TRYNOP and REBOOT rungs (600 + 1800 s)
        // before the curing REIMAGE; the trained policy skips straight to
        // REIMAGE, saving those ~2400 s of the ~12400 s total.
        assert!(
            trained_cost < user_cost * 0.9,
            "trained {trained_cost} should clearly beat user {user_cost}"
        );
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let train = deceptive_training_set(2, 10);
        let run = |seed| {
            let trainer = OfflineTrainer::new(&train, TrainerConfig::fast().with_seed(seed));
            let et = ErrorType::new(SymptomId::new(2));
            let (q, stats) = trainer.train_type(et).unwrap();
            (
                stats.sweeps,
                q.value(&RecoveryState::initial(et), RepairAction::Reimage),
            )
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn unknown_type_returns_none() {
        let train = deceptive_training_set(2, 5);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        assert!(trainer
            .train_type(ErrorType::new(SymptomId::new(77)))
            .is_none());
    }

    #[test]
    fn train_merges_multiple_types() {
        let mut train = deceptive_training_set(1, 15);
        for i in 0..15 {
            train.push(ladder_process(
                50 + i,
                77_000_000 + i as u64 * 1_000_000,
                6,
                RepairAction::TryNop,
            ));
        }
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let types = [
            ErrorType::new(SymptomId::new(1)),
            ErrorType::new(SymptomId::new(6)),
        ];
        let (policy, stats) = trainer.train(&types);
        assert_eq!(stats.len(), 2);
        assert!(policy.covers_type(types[0]));
        assert!(policy.covers_type(types[1]));
        // The easy type keeps the cheap action; the deceptive one skips it.
        assert_eq!(
            policy.decide(&RecoveryState::initial(types[1])),
            Some(RepairAction::TryNop)
        );
        assert_eq!(
            policy.decide(&RecoveryState::initial(types[0])),
            Some(RepairAction::Reimage)
        );
    }

    #[test]
    fn seeded_training_starts_from_the_ladder_and_still_improves() {
        // Deceptive type: the ladder seed is a *bad* prior here, yet
        // training must still find the jump-to-REIMAGE policy.
        let train = deceptive_training_set(7, 25);
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        let et = ErrorType::new(SymptomId::new(7));
        let seed = trainer.user_policy_seed(et).unwrap();
        // The seed values the ladder's first action at the ladder's own
        // expected cost-to-go.
        let s0 = RecoveryState::initial(et);
        let seeded_first = seed.value(&s0, RepairAction::TryNop);
        assert!(
            seeded_first.is_some(),
            "seed covers the ladder's trajectory"
        );
        let (q, stats) = trainer.train_type_seeded(et).unwrap();
        assert!(stats.sweeps > 0);
        let policy = TrainedPolicy::new(q);
        assert_eq!(
            policy.decide(&s0),
            Some(RepairAction::Reimage),
            "training must overcome the ladder prior on a deceptive type"
        );
    }

    #[test]
    fn ranking_reflects_training_data() {
        let mut train = deceptive_training_set(1, 8);
        train.extend(deceptive_training_set(2, 3));
        let trainer = OfflineTrainer::new(&train, TrainerConfig::fast());
        assert_eq!(trainer.ranking().len(), 2);
        assert_eq!(
            trainer.ranking().get(0).unwrap().0,
            ErrorType::new(SymptomId::new(1))
        );
        assert_eq!(
            trainer
                .processes_of(ErrorType::new(SymptomId::new(2)))
                .len(),
            3
        );
    }
}
