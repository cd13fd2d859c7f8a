//! Smoke test: every workload, at a tiny size, untraced and traced,
//! reports every metric `BENCHMARK.json` declares — with the declared unit
//! — and its outputs check out. Run it optimised, it takes a few seconds:
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::path::PathBuf;

use recovery_benchmark::json::{self, Value};
use recovery_benchmark::suite::RUN_SECONDS;
use recovery_benchmark::workloads::{self, Ctx, Sizes, Workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of each metric of a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs `workload` untraced and traced and checks both result lines.
fn reports_every_declared_metric(workload: Workload) {
    let name = workload.name();
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for trace in [false, true] {
        let profile = scratch.join(format!("{name}.folded"));
        let ctx = Ctx {
            seed: 7,
            seconds: 0.2,
            trace,
            sizes: Sizes::tiny(),
            work_dir: scratch.join(format!("{name}-{trace}")),
            profile_out: Some(profile.clone()),
        };
        let outcome = workloads::measure(workload, &ctx).expect("the workload runs");
        assert!(
            outcome.correct(),
            "{name} (trace {trace}): {} of {} failed, violations {:?}",
            outcome.failed,
            outcome.attempted,
            outcome.violations
        );
        let rendered = outcome.result_json(trace).expect("every metric measured");
        let line = json::parse(&rendered.render()).expect("the result line parses");
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap();
        let declared = declared(if trace { "per_layer" } else { "end_to_end" });
        assert_eq!(metrics.as_object().unwrap().len(), declared.len());
        for (metric, unit) in declared {
            let reading = metrics
                .get(&metric)
                .unwrap_or_else(|| panic!("{name} does not report {metric}"));
            assert_eq!(
                reading.get("unit").and_then(Value::as_str),
                Some(unit.as_str())
            );
            let value = reading.get("value").and_then(Value::as_f64).unwrap();
            assert!(value.is_finite(), "{name} {metric} = {value}");
            if !trace {
                assert!(value > 0.0, "{name} {metric} must never read 0");
            }
        }
        if trace && workload == Workload::Loop {
            let folded = std::fs::read_to_string(&profile).expect("a folded profile");
            assert!(folded.starts_with("loop_run"), "{folded}");
        }
        assert!(!ctx.work_dir.exists(), "the work directory is removed");
    }
}

#[test]
fn run_times_workloads_for_the_declared_run_seconds() {
    let declared = benchmark_json().get("run_seconds").and_then(Value::as_f64);
    assert_eq!(declared, Some(RUN_SECONDS as f64));
}

// One test per workload, so the test harness runs them side by side.

#[test]
fn offline_reports_every_declared_metric() {
    reports_every_declared_metric(Workload::Offline);
}

#[test]
fn loop_reports_every_declared_metric() {
    reports_every_declared_metric(Workload::Loop);
}

#[test]
fn advise_reports_every_declared_metric() {
    reports_every_declared_metric(Workload::Advise);
}

#[test]
fn serve_reload_reports_every_declared_metric() {
    reports_every_declared_metric(Workload::ServeReload);
}
