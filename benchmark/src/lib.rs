//! # recovery-benchmark
//!
//! The end-to-end benchmark of the autorecover system of the paper's
//! Figure 1: from a recovery log to a deployed policy, around the
//! continuous retraining loop, and out to a recovery controller asking
//! the serving daemon for advice.
//!
//! Four workloads stress different layers ([`workloads::Workload`]). An
//! untraced run reports the end-to-end metrics of
//! [`metrics::END_TO_END`]; a traced run ([`recovery_telemetry::Telemetry::new`]
//! in place of the disabled handle) reports the per-layer metrics of
//! [`metrics::PER_LAYER`]. Layers are measured only from outside: by
//! timing the benchmark's own calls into each layer's public functions,
//! and by reading the spans and histograms the program already records.
//! Every run also checks that the program's answers are correct.

pub mod alloc;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod suite;
pub mod workloads;
