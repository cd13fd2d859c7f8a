//! # recovery-core
//!
//! The primary contribution of Zhu & Yuan, *A Reinforcement Learning
//! Approach to Automatic Error Recovery* (DSN 2007): offline generation of
//! error-recovery policies from a recovery log, by tabular Q-learning over
//! a log-replay simulation platform.
//!
//! The pipeline, end to end:
//!
//! 1. **Error-type inference** ([`error_type`]) — the initial symptom of a
//!    recovery process approximates the underlying fault; m-pattern mining
//!    validates symptom cohesion and filters noisy multi-fault processes.
//! 2. **MDP states** ([`state`]) — a state is the error type plus the
//!    multiset of repair actions already tried.
//! 3. **Simulation platform** ([`platform`]) — replays logged processes
//!    under counterfactual action sequences, deciding success from the
//!    paper's hypotheses H1/H2 and charging actual or average costs.
//! 4. **Offline Q-learning** ([`trainer`]) — per error type, Boltzmann
//!    exploration with an annealed temperature, table updates with
//!    `α = 1/(1 + visits)`, and the N = 20 attempt cap that makes every
//!    policy proper.
//! 5. **Policies** ([`policy`]) — the trained greedy policy, the
//!    user-defined cheapest-first baseline, and the hybrid policy that
//!    falls back to the user policy on states the table does not know.
//! 6. **Selection tree** ([`selection_tree`]) — the paper's §5.3 training
//!    accelerator: stop Q-learning as soon as the best-two candidate
//!    actions stabilize, then scan an exactly-evaluated candidate tree.
//! 7. **Evaluation** ([`evaluate`]) — time-ordered train/test splits and
//!    the relative-cost / coverage metrics behind Figures 7–12.
//! 8. **Experiments** ([`experiment`]) — one typed runner per paper table
//!    and figure, shared by the benchmark binaries and the CLI.
//!
//! ```no_run
//! use recovery_core::experiment::{TestRun, TestRunConfig};
//! use recovery_simlog::{GeneratorConfig, LogGenerator};
//!
//! // Generate a synthetic cluster log, train on 40% of it, evaluate on
//! // the remaining 60% — the paper's "test 2".
//! let mut generated = LogGenerator::new(GeneratorConfig::small()).generate();
//! let processes = generated.log.split_processes();
//! let run = TestRun::execute(&TestRunConfig::new(0.4), &processes);
//! println!(
//!     "trained policy downtime: {:.2}% of user-defined",
//!     100.0 * run.trained_report.overall_relative_cost()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod approx;
pub mod durable;
pub mod error_type;
pub mod evaluate;
pub mod exact;
pub mod experiment;
pub mod fault;
pub mod ingest;
pub mod parallel;
pub mod persist;
pub mod pipeline;
pub mod platform;
pub mod policy;
pub mod selection_tree;
pub mod state;
pub mod trainer;

pub use durable::{fsck, DurableLoop, FsckReport};
pub use error_type::{ErrorType, ErrorTypeRanking, NoiseFilter};
pub use evaluate::{time_ordered_split, EvaluationReport, TypeEvaluation};
pub use fault::{CorruptionMode, CrashPlan, CrashPoint, LoopFaultPlan};
pub use ingest::{ParseErrorPolicy, QuarantineReport};
pub use parallel::WorkerPool;
pub use platform::{AttemptOutcome, CostEstimation, ReplayCache, SimulationPlatform};
pub use policy::{DecidePolicy, DecisionTable, HybridPolicy, TrainedPolicy, UserStatePolicy};
pub use state::{ActionMultiset, RecoveryState};
pub use trainer::{OfflineTrainer, TrainerConfig, TypeTrainingStats};
