//! The versioned run report: one deterministic JSON document (plus a
//! Markdown/HTML rendering) bundling everything a training run produced.
//!
//! A report contains only reproducible quantities: trainer config,
//! per-type convergence traces (recorded per worker item, assembled here
//! in frequency-rank order exactly like Q-table fragments are merged),
//! state-visit histograms derived from the final policy, the evaluation
//! summary, and — optionally — the telemetry *counter* snapshot.
//! Telemetry gauges and histograms are deliberately excluded: gauges are
//! last-write-wins across worker threads and span histograms carry
//! wall-clock durations, both of which would break the byte-identical
//! guarantee that `tests/diagnostics.rs` locks (same seed, 1 vs N
//! threads, same bytes). Counters are exact integer sums and survive any
//! interleaving.

use std::collections::BTreeMap;

use recovery_core::trainer::OfflineTrainer;
use recovery_core::{ErrorType, EvaluationReport, TrainedPolicy, TrainerConfig, TypeTrainingStats};
use recovery_simlog::SymptomCatalog;

use crate::explain::{explain_policy, ExplainOptions, PolicyExplanation};
use crate::json::Json;
use crate::trace::{ConvergenceTrace, DiagnosticsRecorder, ReplaySummary};

/// Schema tag of the report JSON; bump when the document shape changes.
pub const RUN_REPORT_SCHEMA: &str = "autorecover.run-report.v1";

/// Everything the assembler needs, borrowed from one finished run.
pub struct RunReportInputs<'a> {
    /// The trainer configuration the run used.
    pub config: &'a TrainerConfig,
    /// Time-ordered training fraction of the run.
    pub train_fraction: f64,
    /// Per-type training stats, in frequency-rank order (as returned by
    /// `OfflineTrainer::train`) — this is what fixes the report's type
    /// order regardless of which worker finished first.
    pub stats: &'a [TypeTrainingStats],
    /// The trained policy (with live visit counts).
    pub policy: &'a TrainedPolicy,
    /// Symptom names for human-readable state keys.
    pub symptoms: &'a SymptomCatalog,
    /// The recorder that observed the run.
    pub recorder: &'a DiagnosticsRecorder,
    /// Evaluation of the trained policy on the test fraction.
    pub trained: &'a EvaluationReport,
    /// Evaluation of the hybrid (trained + user fallback) policy.
    pub hybrid: &'a EvaluationReport,
    /// Evaluation of the user baseline policy.
    pub user: &'a EvaluationReport,
    /// Telemetry counters to embed, if telemetry was enabled.
    pub counters: Option<&'a BTreeMap<String, u64>>,
}

/// One error type's section of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeReport {
    /// 1-based frequency rank.
    pub rank: usize,
    /// Type label (`type<N>`).
    pub label: String,
    /// Human-readable symptom name.
    pub name: String,
    /// Training sample count.
    pub samples: usize,
    /// The convergence trace, when one was recorded for this type.
    pub trace: Option<ConvergenceTrace>,
    /// Distinct states the policy knows for this type.
    pub states: usize,
    /// `(state, action)` entries for this type.
    pub entries: usize,
    /// Power-of-two histogram of per-entry visit counts:
    /// `(inclusive upper bound, entries)` pairs, ascending.
    pub visit_histogram: Vec<(u64, u64)>,
    /// Test-set relative cost, when the test split contained the type.
    pub relative_cost: Option<f64>,
    /// Test-set coverage, when the test split contained the type.
    pub coverage: Option<f64>,
}

/// One policy's evaluation summary row.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySummary {
    /// Policy name (`trained`, `hybrid`, `user`).
    pub policy: String,
    /// Downtime relative to what the log actually recorded.
    pub relative_cost: f64,
    /// Fraction of test processes handled within the attempt cap.
    pub coverage: f64,
    /// Processes evaluated.
    pub processes: usize,
}

/// The assembled, versioned run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Compact one-line trainer configuration.
    pub config_summary: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Training fraction.
    pub train_fraction: f64,
    /// Per-type sections, in frequency-rank order.
    pub types: Vec<TypeReport>,
    /// Evaluation rows for trained/hybrid/user.
    pub evaluation: Vec<PolicySummary>,
    /// Test-set replay totals seen by the recorder.
    pub replay: ReplaySummary,
    /// Full per-state explanation of the trained policy.
    pub explanation: PolicyExplanation,
    /// Telemetry counters, when telemetry was enabled.
    pub telemetry_counters: Option<BTreeMap<String, u64>>,
    config_json: Json,
}

/// Builds the power-of-two visit histogram of one type's entries.
fn visit_histogram(policy: &TrainedPolicy, et: ErrorType) -> (usize, usize, Vec<(u64, u64)>) {
    let mut states = std::collections::HashSet::new();
    let mut entries = 0usize;
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for (&(s, _a), _value, visits) in policy.q().iter() {
        if s.error_type() != et {
            continue;
        }
        states.insert(s);
        entries += 1;
        let bound = visits.max(1).next_power_of_two();
        *buckets.entry(bound).or_default() += 1;
    }
    (states.len(), entries, buckets.into_iter().collect())
}

/// Assembles the report from one run's artifacts. Deterministic: two
/// runs with the same seed and data produce byte-identical
/// [`RunReport::to_json`] output for any thread count.
pub fn assemble(inputs: &RunReportInputs<'_>) -> RunReport {
    let types = inputs
        .stats
        .iter()
        .enumerate()
        .map(|(i, stats)| {
            let et = stats.error_type;
            let label = OfflineTrainer::type_label(et);
            let (states, entries, histogram) = visit_histogram(inputs.policy, et);
            let eval = inputs.trained.for_type(et);
            TypeReport {
                rank: i + 1,
                label: label.clone(),
                name: inputs
                    .symptoms
                    .name(et.symptom())
                    .unwrap_or("<unknown>")
                    .to_string(),
                samples: stats.sample_count,
                trace: inputs.recorder.trace(&label),
                states,
                entries,
                visit_histogram: histogram,
                relative_cost: eval.map(|e| e.relative_cost()),
                coverage: eval.map(|e| e.coverage()),
            }
        })
        .collect();

    let evaluation = [inputs.trained, inputs.hybrid, inputs.user]
        .iter()
        .map(|report| PolicySummary {
            policy: report.policy_name.clone(),
            relative_cost: report.overall_relative_cost(),
            coverage: report.overall_coverage(),
            processes: report.evaluated_processes(),
        })
        .collect();

    RunReport {
        config_summary: inputs.config.to_string(),
        seed: inputs.config.seed,
        train_fraction: inputs.train_fraction,
        types,
        evaluation,
        replay: inputs.recorder.replay_summary(),
        explanation: explain_policy(inputs.policy, inputs.symptoms, ExplainOptions::default()),
        telemetry_counters: inputs.counters.cloned(),
        config_json: config_to_json(inputs.config),
    }
}

fn config_to_json(config: &TrainerConfig) -> Json {
    Json::obj()
        .field("max_episodes", config.learning.max_episodes)
        .field("max_attempts", config.max_attempts)
        .field("schedule", config.schedule_summary())
        .field("convergence_tol", config.learning.convergence_tol)
        .field("convergence_window", config.learning.convergence_window)
        .field("exploration_fraction", config.learning.exploration_fraction)
        .field("backward_updates", config.learning.backward_updates)
        .field("explored_backup", config.learning.explored_backup)
        .field("prune_dominated", config.prune_dominated)
        .field("seed", config.seed)
}

impl RunReport {
    /// How many types stopped at the sweep cap instead of converging.
    pub fn capped_types(&self) -> usize {
        self.types
            .iter()
            .filter(|t| t.trace.as_ref().is_some_and(|tr| !tr.converged))
            .count()
    }

    /// The report as one versioned, deterministic JSON document.
    pub fn to_json(&self) -> String {
        let mut doc = Json::obj()
            .field("schema", RUN_REPORT_SCHEMA)
            .field("trainer", self.config_json.clone())
            .field("train_fraction", self.train_fraction)
            .field(
                "types",
                Json::Arr(
                    self.types
                        .iter()
                        .map(|t| {
                            Json::obj()
                                .field("rank", t.rank)
                                .field("label", t.label.as_str())
                                .field("name", t.name.as_str())
                                .field("samples", t.samples)
                                .field(
                                    "trace",
                                    t.trace
                                        .as_ref()
                                        .map_or(Json::Null, ConvergenceTrace::to_json),
                                )
                                .field(
                                    "policy",
                                    Json::obj()
                                        .field("states", t.states)
                                        .field("entries", t.entries)
                                        .field(
                                            "visit_histogram",
                                            Json::Arr(
                                                t.visit_histogram
                                                    .iter()
                                                    .map(|&(bound, n)| {
                                                        Json::Arr(vec![
                                                            Json::U64(bound),
                                                            Json::U64(n),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                )
                                .field(
                                    "relative_cost",
                                    t.relative_cost.map_or(Json::Null, Json::F64),
                                )
                                .field("coverage", t.coverage.map_or(Json::Null, Json::F64))
                        })
                        .collect(),
                ),
            )
            .field(
                "evaluation",
                Json::Arr(
                    self.evaluation
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .field("policy", p.policy.as_str())
                                .field("relative_cost", p.relative_cost)
                                .field("coverage", p.coverage)
                                .field("processes", p.processes)
                        })
                        .collect(),
                ),
            )
            .field("replay", self.replay.to_json())
            .field("explain", self.explanation.to_json());
        if let Some(counters) = &self.telemetry_counters {
            let mut obj = Json::obj();
            for (name, value) in counters {
                obj = obj.field(name, *value);
            }
            doc = doc.field("telemetry_counters", obj);
        }
        let mut out = doc.render();
        out.push('\n');
        out
    }

    /// A self-contained Markdown rendering of the report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Training run report\n\n");
        out.push_str(&format!("- schema: `{RUN_REPORT_SCHEMA}`\n"));
        out.push_str(&format!("- config: `{}`\n", self.config_summary));
        out.push_str(&format!("- train fraction: {}\n", self.train_fraction));
        out.push_str(&format!(
            "- types: {} trained, {} capped\n\n",
            self.types.len(),
            self.capped_types()
        ));

        out.push_str("## Evaluation\n\n");
        out.push_str("| policy | relative cost | coverage | processes |\n");
        out.push_str("|---|---|---|---|\n");
        for p in &self.evaluation {
            out.push_str(&format!(
                "| {} | {:.4} | {:.4} | {} |\n",
                p.policy, p.relative_cost, p.coverage, p.processes
            ));
        }
        out.push('\n');

        out.push_str("## Per-type convergence\n\n");
        out.push_str(
            "| rank | type | samples | sweeps | verdict | final ΔQ | median episode cost | states |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for t in &self.types {
            let (sweeps, verdict, delta, p50) = t.trace.as_ref().map_or(
                ("-".to_string(), "-", "-".to_string(), "-".to_string()),
                |tr| {
                    (
                        tr.sweeps.to_string(),
                        tr.verdict(),
                        format!("{:.4}", tr.final_q_delta),
                        format!("{:.1}", tr.episode_costs.p50),
                    )
                },
            );
            out.push_str(&format!(
                "| {} | {} ({}) | {} | {} | {} | {} | {} | {} |\n",
                t.rank, t.label, t.name, t.samples, sweeps, verdict, delta, p50, t.states
            ));
        }
        out.push('\n');

        out.push_str("## Policy decisions\n\n");
        out.push_str(&format!(
            "{} states, {} near-ties, {} low-visit decisions.\n\n",
            self.explanation.states.len(),
            self.explanation.near_ties(),
            self.explanation.low_visit_states()
        ));
        let flagged: Vec<_> = self
            .explanation
            .states
            .iter()
            .filter(|s| s.near_tie || s.low_visits)
            .collect();
        if !flagged.is_empty() {
            out.push_str("| state | decision | Q | gap | flags |\n");
            out.push_str("|---|---|---|---|---|\n");
            for s in &flagged {
                let decision = s.decision().expect("flagged states have a decision");
                let mut flags = Vec::new();
                if s.near_tie {
                    flags.push("near-tie");
                }
                if s.low_visits {
                    flags.push("low-visits");
                }
                out.push_str(&format!(
                    "| {} | {} | {:.1} | {} | {} |\n",
                    s.state_key,
                    decision.action,
                    decision.q,
                    s.q_gap
                        .map_or_else(|| "-".to_string(), |g| format!("{g:.1}")),
                    flags.join(", ")
                ));
            }
            out.push('\n');
        }

        out.push_str("## Test-set replay\n\n");
        out.push_str(&format!(
            "{} replays ({} handled), {} attempts ({} cured, {} costed from log).\n",
            self.replay.replays,
            self.replay.handled,
            self.replay.attempts,
            self.replay.cured,
            self.replay.from_log
        ));
        out
    }

    /// A minimal self-contained HTML page wrapping the Markdown
    /// rendering — viewable without any tooling, e.g. as a CI artifact.
    pub fn to_html(&self) -> String {
        let mut body = String::new();
        for c in self.to_markdown().chars() {
            match c {
                '&' => body.push_str("&amp;"),
                '<' => body.push_str("&lt;"),
                '>' => body.push_str("&gt;"),
                c => body.push(c),
            }
        }
        format!(
            "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
             <title>autorecover run report</title></head>\n\
             <body><pre>\n{body}\n</pre></body></html>\n"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DiagnosticsRecorder;
    use recovery_core::{RecoveryState, TypeEvaluation};
    use recovery_simlog::RepairAction;

    use recovery_telemetry::{SweepSample, TrainingObserver};

    fn fixture() -> (
        TrainerConfig,
        Vec<TypeTrainingStats>,
        TrainedPolicy,
        SymptomCatalog,
        std::sync::Arc<DiagnosticsRecorder>,
        EvaluationReport,
    ) {
        let mut symptoms = SymptomCatalog::default();
        let sid = symptoms.intern("disk-fault");
        let et = ErrorType::new(sid);

        let mut policy = TrainedPolicy::default();
        let s0 = RecoveryState::initial(et);
        for _ in 0..8 {
            policy.q_mut().update(s0, RepairAction::Reboot, 100.0);
        }
        policy.q_mut().update(s0, RepairAction::TryNop, 400.0);

        let stats = vec![TypeTrainingStats {
            error_type: et,
            sample_count: 12,
            sweeps: 40,
            converged: true,
            final_q_delta: 1.0 / 40.0,
        }];

        let recorder = DiagnosticsRecorder::new();
        let obs = recorder.handle();
        let mut record = obs.record("type0".into(), 12).expect("attached");
        for sweep in 1..=40u64 {
            record.episode(2, 150.0);
            let sample = SweepSample {
                sweep,
                temperature: 300_000.0,
                max_q_delta: 1.0 / sweep as f64,
            };
            record.sweep(sample, 0, false);
        }
        record.converged = true;
        obs.training_finished(&record);

        let report = EvaluationReport {
            policy_name: "trained".to_string(),
            per_type: vec![TypeEvaluation {
                error_type: et,
                rank: 1,
                processes: 5,
                handled: 5,
                actual_cost: 500.0,
                estimated_cost: 480.0,
                actual_cost_all: 1_000.0,
            }],
        };

        (
            TrainerConfig::fast(),
            stats,
            policy,
            symptoms,
            recorder,
            report,
        )
    }

    #[test]
    fn assembled_report_joins_traces_stats_and_evaluation() {
        let (config, stats, policy, symptoms, recorder, eval) = fixture();
        let report = assemble(&RunReportInputs {
            config: &config,
            train_fraction: 0.4,
            stats: &stats,
            policy: &policy,
            symptoms: &symptoms,
            recorder: &recorder,
            trained: &eval,
            hybrid: &eval,
            user: &eval,
            counters: None,
        });
        assert_eq!(report.types.len(), 1);
        let t = &report.types[0];
        assert_eq!(t.rank, 1);
        assert_eq!(t.label, "type0");
        assert_eq!(t.name, "disk-fault");
        assert_eq!(t.states, 1);
        assert_eq!(t.entries, 2);
        // 8 visits → bucket 8; 1 visit → bucket 1.
        assert_eq!(t.visit_histogram, vec![(1, 1), (8, 1)]);
        assert_eq!(t.trace.as_ref().unwrap().sweeps, 40);
        assert_eq!(report.capped_types(), 0);
        // estimated 480 over actual 500.
        assert_eq!(t.relative_cost, Some(0.96));
        assert_eq!(report.evaluation.len(), 3);
        assert_eq!(report.explanation.states.len(), 1);
    }

    #[test]
    fn report_json_is_versioned_and_repeatable() {
        let (config, stats, policy, symptoms, recorder, eval) = fixture();
        let inputs = RunReportInputs {
            config: &config,
            train_fraction: 0.4,
            stats: &stats,
            policy: &policy,
            symptoms: &symptoms,
            recorder: &recorder,
            trained: &eval,
            hybrid: &eval,
            user: &eval,
            counters: None,
        };
        let a = assemble(&inputs).to_json();
        let b = assemble(&inputs).to_json();
        assert_eq!(a, b, "assembly must be deterministic");
        assert!(a.starts_with(&format!("{{\"schema\":\"{RUN_REPORT_SCHEMA}\"")));
        assert!(a.contains("\"q_delta_curve\""), "{a}");
        assert!(a.contains("\"visit_histogram\":[[1,1],[8,1]]"), "{a}");
        assert!(!a.contains("at_ms"), "no wall-clock data in reports");
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn markdown_and_html_render_the_key_tables() {
        let (config, stats, policy, symptoms, recorder, eval) = fixture();
        let report = assemble(&RunReportInputs {
            config: &config,
            train_fraction: 0.4,
            stats: &stats,
            policy: &policy,
            symptoms: &symptoms,
            recorder: &recorder,
            trained: &eval,
            hybrid: &eval,
            user: &eval,
            counters: None,
        });
        let md = report.to_markdown();
        assert!(md.contains("# Training run report"));
        assert!(md.contains("| trained |"));
        assert!(md.contains("type0 (disk-fault)"));
        assert!(md.contains("converged"));
        let html = report.to_html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("type0"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn telemetry_counters_embed_when_present() {
        let (config, stats, policy, symptoms, recorder, eval) = fixture();
        let mut counters = BTreeMap::new();
        counters.insert("train.sweeps".to_string(), 40u64);
        let report = assemble(&RunReportInputs {
            config: &config,
            train_fraction: 0.2,
            stats: &stats,
            policy: &policy,
            symptoms: &symptoms,
            recorder: &recorder,
            trained: &eval,
            hybrid: &eval,
            user: &eval,
            counters: Some(&counters),
        });
        let json = report.to_json();
        assert!(
            json.contains("\"telemetry_counters\":{\"train.sweeps\":40}"),
            "{json}"
        );
    }
}
