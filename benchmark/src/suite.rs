//! The `run` and `compare` commands: every workload measured in a child
//! process of its own (so its heap peak is its own), and two sets of runs
//! judged against each other under the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use recovery_diagnostics::Json;

use crate::json::{self, Value};
use crate::stats::{self, Better};
use crate::workloads::Workload;

/// Seconds `run` times each workload for: `BENCHMARK.json`'s
/// `run_seconds`, so `run` measures what the benchmark's own runs do.
pub const RUN_SECONDS: u64 = 20;

/// What `run` measures and where it writes.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed passed to every child.
    pub seed: u64,
    /// Traced runs (per-layer metrics) instead of untraced ones.
    pub traced: bool,
    /// Runs per workload.
    pub repeat: usize,
    /// The JSON file written.
    pub out: PathBuf,
}

/// The result line and detail line one child printed.
#[derive(Debug)]
struct Child {
    workload: Workload,
    repeat: usize,
    exited_ok: bool,
    result: Option<Value>,
    detail: Option<Value>,
}

fn measure_child(
    workload: Workload,
    repeat: usize,
    opts: &RunOptions,
    profile: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("measure")
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(path) = profile {
        command.arg("--profile-out").arg(path);
    }
    // `output` waits for the child to exit.
    let output = command
        .output()
        .map_err(|e| format!("running the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    let parse = |line: Option<&&str>| line.and_then(|l| json::parse(l).ok());
    Ok(Child {
        workload,
        repeat,
        exited_ok: output.status.success(),
        result: parse(lines.last()),
        detail: parse(lines.len().checked_sub(2).and_then(|i| lines.get(i))),
    })
}

/// This checkout's commit, when it is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Logical cores available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs every workload `repeat` times for [`RUN_SECONDS`] each, each run
/// in its own child process;
/// prints one `workload metric value unit` row per metric and writes
/// all results to `opts.out`. A traced run also writes the loop's folded
/// self-time profile next to it. Returns whether every child exited 0
/// with correct outputs.
///
/// # Errors
///
/// Returns a message when a child cannot be started or a file cannot be
/// written.
pub fn run(opts: &RunOptions) -> Result<bool, String> {
    let dir = opts.out.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let profile = opts
        .traced
        .then(|| dir.unwrap_or(Path::new(".")).join("profile.folded"));
    let mut children = Vec::new();
    for repeat in 0..opts.repeat {
        for workload in Workload::ALL {
            let profile = profile
                .as_deref()
                .filter(|_| workload == Workload::Loop && repeat == 0);
            children.push(measure_child(workload, repeat, opts, profile)?);
        }
    }

    let mut all_ok = true;
    let mut runs = Vec::new();
    for child in &children {
        let name = child.workload.name();
        let Some(result) = &child.result else {
            eprintln!("{name}: the child printed no result");
            all_ok = false;
            continue;
        };
        let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
        all_ok &= child.exited_ok && correct;
        let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let (attempted, failed) = (count("attempted"), count("failed"));
        let samples = child.detail.as_ref().and_then(|d| d.get("samples"));
        let mut metrics = Json::obj();
        for (metric, reading) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            let value = reading.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = reading.get("unit").and_then(Value::as_str).unwrap_or("");
            let n = samples
                .and_then(|s| s.get(metric))
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64;
            // Layers a workload never calls read 0 from 0 samples: they
            // stay in the file but not in the table.
            if n > 0 {
                println!("{name:<13} {metric:<28} {value:>18} {unit:<6} n={n}");
            }
            metrics = metrics.field(
                metric,
                Json::obj()
                    .field("value", value)
                    .field("unit", unit)
                    .field("samples", n),
            );
        }
        println!(
            "{name:<13} {:<28} {:>18} {:<6} n={attempted}",
            "failed_frac",
            stats::ratio(failed as f64, attempted as f64),
            "ratio"
        );
        runs.push(
            Json::obj()
                .field("workload", name)
                .field("repeat", child.repeat)
                .field("exited_ok", child.exited_ok)
                .field("correct", correct)
                .field("attempted", attempted)
                .field("failed", failed)
                .field("metrics", metrics),
        );
    }
    let doc = Json::obj()
        .field("seed", opts.seed)
        .field("seconds", RUN_SECONDS)
        .field("traced", opts.traced)
        .field("nproc", nproc())
        .field("commit", commit())
        .field("runs", runs);
    std::fs::write(&opts.out, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", opts.out.display()))?;
    eprintln!("wrote {}", opts.out.display());
    if let Some(path) = profile {
        eprintln!("wrote {}", path.display());
    }
    Ok(all_ok)
}

/// An end-to-end metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Bound {
    name: String,
    better: Better,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .and_then(Better::parse);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// Values of every (workload, metric) across the runs of a result file.
fn values(doc: &Value) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in doc
        .get("runs")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("");
        for (metric, reading) in run
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            if let Some(v) = reading.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// Compares two `run` result files metric by metric and workload by
/// workload under the bounds of `benchmark`; prints one row each. Returns
/// whether nothing regressed.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn compare(base: &Path, new: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = bounds(&read_json(benchmark)?)?;
    let base = values(&read_json(base)?);
    let new = values(&read_json(new)?);
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        for b in &bounds {
            let key = (workload.name().to_string(), b.name.clone());
            let (Some(xs), Some(ys)) = (base.get(&key), new.get(&key)) else {
                println!("{:<13} {:<18} missing from a side", workload.name(), b.name);
                continue;
            };
            let verdict = stats::verdict(xs, ys, b.better, b.bound);
            regressed |= verdict == stats::Verdict::Regressed;
            let (mb, mn) = (
                stats::median(xs).unwrap_or(0.0),
                stats::median(ys).unwrap_or(0.0),
            );
            println!(
                "{:<13} {:<18} {:>14.6} {:>14.6} {:>+7.2}% {:>6.2}% {:>5.0}%  {}",
                workload.name(),
                b.name,
                mb,
                mn,
                100.0 * stats::worse_by(mb, mn, b.better),
                100.0 * stats::spread(xs).max(stats::spread(ys)),
                100.0 * b.bound,
                verdict.label()
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_group_by_workload_and_metric() {
        let doc = json::parse(
            r#"{"runs":[
                {"workload":"loop","metrics":{"run_s":{"value":2.0,"unit":"s"}}},
                {"workload":"loop","metrics":{"run_s":{"value":2.2,"unit":"s"}}},
                {"workload":"advise","metrics":{"run_s":{"value":0.025,"unit":"s"}}}
            ]}"#,
        )
        .unwrap();
        let v = values(&doc);
        assert_eq!(v[&("loop".into(), "run_s".into())], vec![2.0, 2.2]);
        assert_eq!(v[&("advise".into(), "run_s".into())], vec![0.025]);
    }

    #[test]
    fn bounds_come_from_the_end_to_end_list() {
        let doc = json::parse(
            r#"{"end_to_end":[{"name":"run_s","unit":"s","better":"lower","bound":0.1},
                              {"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.2}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[1].better, Better::Higher);
        assert_eq!(b[1].bound, 0.2);
        assert!(bounds(&json::parse(r#"{"end_to_end":[{"name":"x"}]}"#).unwrap()).is_err());
    }
}
