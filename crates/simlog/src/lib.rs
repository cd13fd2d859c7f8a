//! # recovery-simlog
//!
//! A seeded, discrete-event **cluster fault-injection simulator** and the
//! recovery-log data model used throughout the `autorecover` workspace.
//!
//! The paper this workspace reproduces (Zhu & Yuan, *A Reinforcement Learning
//! Approach to Automatic Error Recovery*, DSN 2007) trains and evaluates on a
//! proprietary recovery log collected from a production cluster with
//! thousands of servers. That log is not available, so this crate generates a
//! synthetic log with the same *statistical shape*:
//!
//! * entries of the form `<time, machine, description>` where the description
//!   is an error symptom, a repair action (`TRYNOP`, `REBOOT`, `REIMAGE`,
//!   `RMA`), or a `Success` report (see the paper's Table 1);
//! * the log divides into *recovery processes*: first symptom → repair
//!   actions → `Success`;
//! * error-type frequencies follow a Zipf-like law (a few dozen frequent
//!   types cover ≈98.7% of processes);
//! * symptoms co-occur in cohesive sets with few intersections, plus a small
//!   noise floor of overlapping multi-fault processes;
//! * repair durations are heavy tailed, and the generating policy is the
//!   production-style *cheapest-action-first* escalation policy.
//!
//! # Quick example
//!
//! ```
//! use recovery_simlog::{LogGenerator, GeneratorConfig};
//!
//! let config = GeneratorConfig::small(); // a laptop-sized workload
//! let mut generated = LogGenerator::new(config).generate();
//! let processes = generated.log.split_processes();
//! assert!(!processes.is_empty());
//! // Every complete recovery process has positive downtime.
//! for p in &processes {
//!     assert!(p.downtime().as_secs() > 0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod availability;
pub mod catalog;
pub mod cluster;
mod codec;
pub mod dist;
pub mod error;
pub mod event;
pub mod fault;
pub mod generator;
pub mod log;
pub mod machine;
pub mod policy;
pub mod process;
pub mod stats;
pub mod symptom;
pub mod time;

pub use action::RepairAction;
pub use availability::{availability, availability_by_machine, AvailabilityReport};
pub use catalog::{CatalogConfig, FaultCatalog};
pub use cluster::{ClusterConfig, ClusterSim, GroundTruth, ProcessTruth};
pub use error::{ParseLogError, ParseLogErrorKind};
pub use event::{LogEntry, LogEvent};
pub use fault::{FaultId, FaultSpec};
pub use generator::{GeneratedLog, GeneratorConfig, LogGenerator};
pub use log::{
    drop_unfinished, extract_processes, process_slots, LogAudit, RecoveryLog, SortedLog,
};
pub use machine::MachineId;
pub use policy::{PolicyContext, RecoveryPolicy, UserDefinedPolicy};
pub use process::{ActionRecord, RecoveryProcess};
pub use symptom::{SymptomCatalog, SymptomId};
pub use time::{SimDuration, SimTime};
