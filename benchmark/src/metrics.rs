//! The metric catalog and the result of one measured run.
//!
//! Every workload reports every metric of the catalog: the end-to-end
//! metrics in an untraced run, the per-layer metrics in a traced one. A
//! layer a workload never calls reads 0 there.

use std::collections::BTreeMap;

use recovery_diagnostics::Json;

use crate::stats;

/// One metric: its name and unit, as `BENCHMARK.json` declares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, reported by every workload.
pub const END_TO_END: [MetricDef; 5] = [
    // Median of several set-ups: input generation, set-up training,
    // daemon bind.
    def("setup_s", "s"),
    // Median wall time of one timed operation: an offline pass, a loop
    // run, an /advise request, a loop run under request load.
    def("run_s", "s"),
    // Work completed per second: log entries taken to a snapshot at the
    // median offline pass, windows at the median loop run, closed-loop
    // requests (advise), requests answered while the loop retrains
    // (serve_reload).
    def("throughput_per_s", "1/s"),
    // Cost of the policy the workload deploys, relative to the user
    // ladder: held-out relative cost (offline, advise) or the learned
    // windows' mean MTTR over window 0's (loop, serve_reload).
    def("cost_ratio", "ratio"),
    // Most bytes live on the heap at once in the workload's process. (Its
    // VmHWM is not steady: glibc's per-thread arenas make it vary by a
    // third between runs of one seed.)
    def("peak_heap_mb", "MB"),
];

/// Metrics of single layers, reported by a traced run.
pub const PER_LAYER: [MetricDef; 35] = [
    def("simlog.generate_ms", "ms"),
    def("simlog.simulate_ms", "ms"),
    def("ingest.parse_ms", "ms"),
    def("ingest.parse_entries_per_s", "1/s"),
    def("ingest.split_ms", "ms"),
    def("error_type.prepare_ms", "ms"),
    def("trainer.platform_build_ms", "ms"),
    def("trainer.train_ms", "ms"),
    def("trainer.sweeps_per_s", "1/s"),
    def("trainer.train_allocs", "count"),
    def("selection_tree.retrain_ms", "ms"),
    def("pool.speedup", "ratio"),
    def("evaluate.replay_ms", "ms"),
    def("evaluate.processes_per_s", "1/s"),
    def("persist.policy_text_ms", "ms"),
    def("persist.policy_bytes", "bytes"),
    def("loop.window_ms", "ms"),
    def("durable.record_ms", "ms"),
    def("durable.bytes_written", "bytes"),
    def("durable.checkpoints", "count"),
    def("serve.snapshot_build_ms", "ms"),
    def("serve.publish_ms", "ms"),
    def("serve.policy_lag_ms", "ms"),
    def("serve.handler_ms_mean", "ms"),
    def("serve.accept_wait_ms", "ms"),
    def("serve.allocs_per_request", "count"),
    def("serve.requests", "count"),
    def("serve.shed", "count"),
    def("client.advise_p50_ms", "ms"),
    def("client.advise_p99_ms", "ms"),
    def("client.advise_rps", "1/s"),
    def("client.open_tail_ms", "ms"),
    def("client.open_late_ms", "ms"),
    def("telemetry.overhead_frac", "ratio"),
    def("attribution.covered_frac", "ratio"),
];

/// The catalog a run of the given kind reports.
fn catalog(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .copied()
        .find(|d| d.name == name)
}

/// One reported value and how many samples it summarises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub samples: usize,
}

/// Everything one measured run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, runs, requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Determinism or durability violations: a policy hash that drifted,
    /// a state directory that failed `fsck`, a tail without the samples
    /// to support it. Any one makes the run exit non-zero.
    pub violations: Vec<String>,
    readings: BTreeMap<&'static str, Reading>,
}

impl Outcome {
    /// Records `name` (which must be in the catalog).
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalog: a typo in this program.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.readings.insert(def.name, Reading { value, samples });
    }

    /// Records the median of `values` under `name`, scaled by `scale`
    /// (e.g. `1e3` for seconds measured, milliseconds reported). Nothing
    /// is recorded for no values.
    pub fn set_median(&mut self, name: &str, values: &[f64], scale: f64) {
        if let Some(m) = stats::median(values) {
            self.set(name, m * scale, values.len());
        }
    }

    /// Counts one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a batch of operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds a violation unless `holds`.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// The reading of `name`, if recorded.
    fn get(&self, name: &str) -> Option<Reading> {
        self.readings.get(name).copied()
    }

    /// Whether every operation succeeded and nothing was violated.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// The catalog's metrics in order, with readings. Per-layer metrics a
    /// workload never recorded read 0 from 0 samples.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the workload failed to record.
    pub fn readings(&self, trace: bool) -> Result<Vec<(MetricDef, Reading)>, String> {
        catalog(trace)
            .iter()
            .map(|&def| match self.get(def.name) {
                Some(reading) => Ok((def, reading)),
                None if trace => Ok((
                    def,
                    Reading {
                        value: 0.0,
                        samples: 0,
                    },
                )),
                None => Err(format!("end-to-end metric {} was not measured", def.name)),
            })
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`
    /// (`{"name": {"value": v, "unit": u}}`).
    ///
    /// # Errors
    ///
    /// As [`Outcome::readings`].
    pub fn result_json(&self, trace: bool) -> Result<Json, String> {
        let mut metrics = Json::obj();
        for (def, reading) in self.readings(trace)? {
            metrics = metrics.field(
                def.name,
                Json::obj()
                    .field("value", reading.value)
                    .field("unit", def.unit),
            );
        }
        Ok(Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics))
    }

    /// Sample counts and violations: the detail line printed before the
    /// result line.
    ///
    /// # Errors
    ///
    /// As [`Outcome::readings`].
    pub fn detail_json(&self, trace: bool) -> Result<Json, String> {
        let mut samples = Json::obj();
        for (def, reading) in self.readings(trace)? {
            samples = samples.field(def.name, reading.samples);
        }
        Ok(Json::obj()
            .field("samples", samples)
            .field("violations", self.violations.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} declared twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut outcome = Outcome::default();
        outcome.record(true);
        for def in END_TO_END {
            outcome.set(def.name, 1.5, 3);
        }
        let line = json::parse(&outcome.result_json(false).unwrap().render()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(1.0));
        // A traced run fills layers it never touched with 0.
        let traced = json::parse(&outcome.result_json(true).unwrap().render()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_is_an_error() {
        let outcome = Outcome::default();
        assert!(outcome.result_json(false).is_err());
        assert!(!outcome.correct(), "nothing attempted is not a correct run");
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_names_are_rejected() {
        Outcome::default().set("no_such_metric", 1.0, 1);
    }
}
