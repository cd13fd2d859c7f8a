//! Training diagnostics for the autorecover workspace.
//!
//! Where `recovery-telemetry` answers *"what is the pipeline doing right
//! now"* (streaming events, wall-clock spans, live counters), this crate
//! answers *"what did this run learn, and can I trust it"* — after the
//! fact, deterministically, from artifacts:
//!
//! - [`DiagnosticsRecorder`] is a [`TrainingObserver`] that turns each
//!   error type's finished training record into one [`ConvergenceTrace`]:
//!   a downsampled Q-delta curve, the temperature schedule, episode-cost
//!   quantiles, and a converged-vs-capped verdict. Recording is pure —
//!   attaching it never touches training RNG, so policies are
//!   byte-identical with or without diagnostics (locked by
//!   `tests/telemetry.rs`).
//! - [`explain_policy`] ranks every state's actions by Q-value, exposing
//!   the winner's margin, near-ties, and decisions backed by few visits;
//!   [`diff_policies`] structurally compares two trained policies
//!   (states added/removed, decisions flipped).
//! - [`assemble`] bundles config, traces, evaluation, and (optionally)
//!   telemetry counters into a versioned [`RunReport`] that renders as
//!   JSON, Markdown, or a self-contained HTML page. Reports carry no
//!   wall-clock data and are byte-identical across thread counts for a
//!   fixed seed (locked by `tests/diagnostics.rs`).
//!
//! [`TrainingObserver`]: recovery_telemetry::TrainingObserver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod explain;
mod json;
mod report;
mod trace;

pub use explain::{
    diff_policies, explain_policy, ActionFlip, ActionRank, DecisionChange, ExplainOptions,
    PolicyDiff, PolicyExplanation, StateExplanation, POLICY_DIFF_SCHEMA,
};
pub use json::Json;
pub use report::{
    assemble, PolicySummary, RunReport, RunReportInputs, TypeReport, RUN_REPORT_SCHEMA,
};
pub use trace::{
    ConvergenceTrace, CostQuantiles, DiagnosticsRecorder, ReplaySummary, DEFAULT_CURVE_POINTS,
};
