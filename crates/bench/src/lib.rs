//! Shared support for the figure-regeneration binaries and Criterion
//! benches of the `autorecover` workspace.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (Zhu & Yuan, DSN 2007) on a synthetic cluster log; this crate
//! centralizes workload preparation and the plain-text table rendering so
//! all binaries agree on parameters.
//!
//! Scale: binaries accept `--scale <f>` (or the `RECOVERY_SCALE`
//! environment variable) multiplying the simulated cluster size;
//! `--scale 1` is 2,000 machines over ~6 months (hundreds of thousands of
//! log entries, comparable to the paper's >2M-entry log when combined
//! with its per-process entry count). The default of 0.25 reproduces
//! every qualitative shape in minutes on a laptop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use recovery_core::experiment::{ExperimentContext, TestRun, TestRunConfig};
use recovery_core::parallel::WorkerPool;
use recovery_core::trainer::TrainerConfig;
use recovery_diagnostics::{assemble, DiagnosticsRecorder, RunReportInputs};
use recovery_simlog::{GeneratedLog, GeneratorConfig, LogGenerator, SymptomCatalog};
use recovery_telemetry::{JsonlSink, Span, Telemetry};

/// The paper's four training fractions (tests 1–4).
pub const TEST_FRACTIONS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// The paper's top-K error-type selection.
pub const TOP_K: usize = 40;

/// The paper's noise-filter threshold.
pub const MINP: f64 = 0.1;

/// Parses `--scale <f>` from the process arguments, falling back to the
/// `RECOVERY_SCALE` environment variable and then to `default_scale`.
///
/// # Panics
///
/// Panics (with a usage message) if the argument is present but not a
/// positive number.
pub fn scale_from_args(default_scale: f64) -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            let v = args
                .next()
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|v| *v > 0.0)
                .unwrap_or_else(|| panic!("usage: --scale <positive number>"));
            return v;
        }
        if let Some(v) = a.strip_prefix("--scale=") {
            return v
                .parse::<f64>()
                .ok()
                .filter(|v| *v > 0.0)
                .unwrap_or_else(|| panic!("usage: --scale <positive number>"));
        }
    }
    std::env::var("RECOVERY_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(default_scale)
}

/// Parses `--threads <n>` from the process arguments, falling back to
/// the `RECOVERY_THREADS` environment variable and then to the machine's
/// available parallelism. `1` selects the legacy sequential path; trained
/// policies are byte-identical for every thread count.
///
/// # Panics
///
/// Panics (with a usage message) if the argument is present but not a
/// positive integer.
pub fn threads_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args
                .next()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|v| *v > 0)
                .unwrap_or_else(|| panic!("usage: --threads <positive integer>"));
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return v
                .parse::<usize>()
                .ok()
                .filter(|v| *v > 0)
                .unwrap_or_else(|| panic!("usage: --threads <positive integer>"));
        }
    }
    std::env::var("RECOVERY_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|v| *v > 0)
        .unwrap_or_else(|| WorkerPool::available().threads())
}

/// Generates the synthetic log at the given scale.
pub fn generate(scale: f64) -> GeneratedLog {
    eprintln!("# generating synthetic cluster log (scale {scale}) ...");
    LogGenerator::new(GeneratorConfig::paper_scale(scale)).generate()
}

/// Generates and prepares the experiment context (noise filter + ranking)
/// in one step, reporting summary statistics on stderr.
pub fn prepare(scale: f64) -> ExperimentContext {
    prepare_with_symptoms(scale).0
}

/// [`prepare`], also returning the log's symptom catalog — needed by
/// binaries that render human-readable diagnostics (state keys carry
/// symptom names).
pub fn prepare_with_symptoms(scale: f64) -> (ExperimentContext, SymptomCatalog) {
    let mut generated = generate(scale);
    let entries = generated.log.len();
    let processes = generated.log.split_processes();
    eprintln!(
        "# log: {entries} entries, {} complete recovery processes",
        processes.len()
    );
    let symptoms = generated.log.symptoms().clone();
    let ctx = ExperimentContext::prepare(processes, MINP, TOP_K);
    eprintln!(
        "# noise filter (minp = {MINP}): kept {:.2}% ({} clusters); top-{TOP_K} types cover {:.2}% of processes",
        100.0 * ctx.kept_fraction(),
        ctx.cluster_count,
        100.0 * ctx.ranking.top_k_coverage(TOP_K),
    );
    (ctx, symptoms)
}

/// Parses `--diagnostics-out <dir>` from the process arguments, falling
/// back to the `RECOVERY_DIAGNOSTICS_OUT` environment variable. When set,
/// the `TestRun`-based figure binaries attach a diagnostics recorder and
/// write one run report per training fraction into the directory.
pub fn diagnostics_out_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--diagnostics-out" {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("usage: --diagnostics-out <dir>")),
            );
        }
        if let Some(v) = a.strip_prefix("--diagnostics-out=") {
            return Some(v.to_owned());
        }
    }
    std::env::var("RECOVERY_DIAGNOSTICS_OUT").ok()
}

/// Runs one figure `TestRun`, attaching a [`DiagnosticsRecorder`] and
/// writing `run-report-f<NN>.{json,md}` into `diagnostics_out` when it is
/// set. With `None` this is exactly `TestRun::execute_in_context` —
/// diagnostics never change the figures.
pub fn figure_test_run(
    config: &TestRunConfig,
    ctx: &ExperimentContext,
    symptoms: &SymptomCatalog,
    diagnostics_out: Option<&str>,
) -> TestRun {
    let Some(dir) = diagnostics_out else {
        return TestRun::execute_in_context(config, ctx);
    };
    let recorder = DiagnosticsRecorder::new();
    let (run, policy) = TestRun::execute_in_context_instrumented(
        config,
        ctx,
        &Telemetry::disabled(),
        &recorder.handle(),
    );
    let report = assemble(&RunReportInputs {
        config: &config.trainer,
        train_fraction: config.train_fraction,
        stats: &run.stats,
        policy: &policy,
        symptoms,
        recorder: &recorder,
        trained: &run.trained_report,
        hybrid: &run.hybrid_report,
        user: &run.user_report,
        counters: None,
    });
    let stem = format!(
        "run-report-f{:02}",
        (config.train_fraction * 100.0).round() as u32
    );
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("# --diagnostics-out {dir}: {e}");
        return run;
    }
    for (ext, content) in [("json", report.to_json()), ("md", report.to_markdown())] {
        let path = std::path::Path::new(dir).join(format!("{stem}.{ext}"));
        match std::fs::write(&path, content) {
            Ok(()) => eprintln!("# wrote {}", path.display()),
            Err(e) => eprintln!("# could not write {}: {e}", path.display()),
        }
    }
    run
}

/// The trainer configuration used by the figure binaries: the paper's
/// N = 20 and Eq. 6 learning, with a 40k sweep cap per type (the paper's
/// selection-tree experiments show 40k suffices; the full 160k cap is
/// exercised explicitly by the Figure 13 binary).
pub fn figure_trainer() -> TrainerConfig {
    let mut config = TrainerConfig::default();
    config.learning.max_episodes = 40_000;
    config
}

/// The [`TestRunConfig`] used by the figure binaries for one fraction.
pub fn figure_test_config(fraction: f64) -> TestRunConfig {
    TestRunConfig {
        top_k: TOP_K,
        minp: MINP,
        ..TestRunConfig::new(fraction)
    }
    .with_trainer(figure_trainer())
}

/// Per-phase wall-clock timing for the figure binaries.
///
/// Wraps a [`Telemetry`] handle: each [`PhaseTimings::phase`] call opens
/// a span, and [`PhaseTimings::report`] prints the aggregated per-phase
/// table on stderr (plus a JSONL snapshot when a sink was configured).
///
/// ```
/// let timings = recovery_bench::PhaseTimings::new();
/// {
///     let _phase = timings.phase("generate");
///     // ... work ...
/// }
/// timings.report();
/// ```
#[derive(Debug)]
pub struct PhaseTimings {
    telemetry: Telemetry,
}

impl PhaseTimings {
    /// A timer recording in memory only.
    pub fn new() -> Self {
        PhaseTimings {
            telemetry: Telemetry::new(),
        }
    }

    /// A timer that honours `--metrics-out <path>` (or the
    /// `RECOVERY_METRICS_OUT` environment variable): span events and the
    /// final snapshot are additionally written there as JSON lines.
    pub fn from_args() -> Self {
        let mut path = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--metrics-out" {
                path = args.next();
            } else if let Some(v) = a.strip_prefix("--metrics-out=") {
                path = Some(v.to_owned());
            }
        }
        let path = path.or_else(|| std::env::var("RECOVERY_METRICS_OUT").ok());
        let telemetry = match path.as_deref().and_then(|p| JsonlSink::to_file(p).ok()) {
            Some(sink) => Telemetry::with_sink(sink),
            None => Telemetry::new(),
        };
        PhaseTimings { telemetry }
    }

    /// The wrapped telemetry handle, for passing to `*_observed` drivers.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Starts a named phase; timing stops when the returned guard drops.
    pub fn phase(&self, name: &str) -> Span<'_> {
        self.telemetry.span(name)
    }

    /// Prints the per-phase timing table on stderr and flushes the JSONL
    /// sink (writing the final metrics snapshot) when one is configured.
    pub fn report(&self) {
        let Some(snapshot) = self.telemetry.snapshot() else {
            return;
        };
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (name, h) in &snapshot.histograms {
            let Some(phase) = name
                .strip_prefix("span.")
                .and_then(|n| n.strip_suffix(".ms"))
            else {
                continue;
            };
            rows.push(vec![
                phase.to_owned(),
                h.count.to_string(),
                format!("{:.1}", h.sum),
                format!("{:.1}", h.mean()),
            ]);
        }
        if !rows.is_empty() {
            eprintln!("# per-phase timings:");
            for row in &rows {
                eprintln!(
                    "#   {:<40} calls {:>4}  total {:>10} ms  mean {:>10} ms",
                    row[0], row[1], row[2], row[3]
                );
            }
        }
        self.telemetry.finish();
    }
}

impl Default for PhaseTimings {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits a multi-section bench file — one JSON object whose values are
/// objects, `{"a":{...},"b":{...}}` — into `(key, value-json)` pairs.
/// Returns `None` for anything else (missing braces, non-object values,
/// legacy single-section files), which callers treat as "start fresh".
fn split_bench_sections(text: &str) -> Option<Vec<(String, String)>> {
    let inner = text.trim().strip_prefix('{')?.strip_suffix('}')?;
    let bytes = inner.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < bytes.len() {
        while i < bytes.len() && (bytes[i].is_ascii_whitespace() || bytes[i] == b',') {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        if bytes[i] != b'"' {
            return None;
        }
        let key_start = i + 1;
        let key_end = key_start + inner[key_start..].find('"')?;
        let key = inner[key_start..key_end].to_owned();
        i = key_end + 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b':' {
            return None;
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'{' {
            return None;
        }
        let value_start = i;
        let mut depth = 0i32;
        let mut in_string = false;
        while i < bytes.len() {
            let c = bytes[i];
            if in_string {
                if c == b'\\' {
                    i += 1;
                } else if c == b'"' {
                    in_string = false;
                }
            } else {
                match c {
                    b'"' => in_string = true,
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        if depth != 0 {
            return None;
        }
        out.push((key, inner[value_start..i].to_owned()));
    }
    Some(out)
}

/// Merges `section` (a JSON object) under `key` into a multi-section
/// bench document, replacing any previous section of that key. Sections
/// render in sorted key order, so the merged bytes are deterministic
/// regardless of which bench wrote last. Unparseable or legacy existing
/// content is discarded.
pub fn merge_bench_sections(existing: Option<&str>, key: &str, section: &str) -> String {
    let mut sections = existing.and_then(split_bench_sections).unwrap_or_default();
    sections.retain(|(k, _)| k != key);
    sections.push((key.to_owned(), section.trim().to_owned()));
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let body = sections
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}\n")
}

/// Reads the bench file at `path` (if any), merges `section` under
/// `key`, writes the document back, and returns it. Several bench
/// binaries share one result file this way — each owns a section
/// instead of clobbering the whole file.
pub fn write_bench_section(path: &str, key: &str, section: &str) -> std::io::Result<String> {
    let existing = std::fs::read_to_string(path).ok();
    let merged = merge_bench_sections(existing.as_deref(), key, section);
    std::fs::write(path, &merged)?;
    Ok(merged)
}

/// Prints one aligned data table: a header line then `rows`, each a
/// vector of already-formatted cells.
pub fn print_table(title: &str, columns: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header: Vec<String> = columns
        .iter()
        .enumerate()
        .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
        .collect();
    println!("{}", header.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
    println!();
}

/// Timed rows of the BENCH ledgers, to one measurement standard: samples
/// long enough that timer and scheduler noise stay small against them,
/// taken in rounds that time every arm once so that a slow spell of a
/// shared host hits every arm alike, and reported as the median wall
/// time with its interquartile range and sample count, beside the median
/// CPU time of the whole process. A row whose wall time moved while its
/// CPU time did not met host noise, and CPU ÷ wall shows how many cores
/// a parallel row really used.
pub mod ledger {
    use std::time::Instant;

    /// CPU time of the whole process so far (user + system, all threads),
    /// in milliseconds. `/proc/self/stat` counts it in ticks of Linux's
    /// fixed user-space clock, 100 per second; off Linux this reads 0.
    pub fn process_cpu_ms() -> f64 {
        let ticks = || -> Option<u64> {
            let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
            // Fields 14 (utime) and 15 (stime), counted from field 3, the
            // first after the parenthesized command name.
            let mut fields = stat
                .get(stat.rfind(')')? + 1..)?
                .split_whitespace()
                .skip(11);
            Some(fields.next()?.parse::<u64>().ok()? + fields.next()?.parse::<u64>().ok()?)
        };
        ticks().map_or(0.0, |t| t as f64 * 10.0)
    }

    /// One timed call: wall and process CPU time, in milliseconds.
    #[derive(Debug, Clone, Copy)]
    pub struct Sample {
        /// Wall-clock time.
        pub wall_ms: f64,
        /// CPU time of the whole process.
        pub cpu_ms: f64,
    }

    /// Times one call of `f`.
    pub fn sample(f: impl FnOnce()) -> Sample {
        let cpu = process_cpu_ms();
        let start = Instant::now();
        f();
        Sample {
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            cpu_ms: process_cpu_ms() - cpu,
        }
    }

    /// First quartile, median and third quartile of `values`, interpolated
    /// linearly between order statistics.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn quartiles(values: impl IntoIterator<Item = f64>) -> [f64; 3] {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        sorted.sort_by(f64::total_cmp);
        [0.25, 0.5, 0.75].map(|q| {
            let at = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        })
    }

    /// The JSON fields of one timed row: sample count, median wall time
    /// and its interquartile range, and median process CPU time.
    pub fn row_fields(samples: &[Sample]) -> String {
        let [q1, median, q3] = quartiles(samples.iter().map(|s| s.wall_ms));
        let [_, cpu, _] = quartiles(samples.iter().map(|s| s.cpu_ms));
        format!(
            "\"n\":{},\"ms\":{median:.3},\"ms_iqr\":[{q1:.3},{q3:.3}],\"cpu_ms\":{cpu:.1}",
            samples.len()
        )
    }

    /// The median wall time of `samples`.
    pub fn median_ms(samples: &[Sample]) -> f64 {
        quartiles(samples.iter().map(|s| s.wall_ms))[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_prepares_a_context() {
        let ctx = prepare(0.004);
        assert!(!ctx.clean.is_empty());
        assert!(!ctx.types.is_empty());
    }

    #[test]
    fn figure_config_uses_paper_parameters() {
        let c = figure_test_config(0.4);
        assert_eq!(c.top_k, TOP_K);
        assert_eq!(c.max_attempts, 20);
        assert_eq!(c.trainer.learning.max_episodes, 40_000);
    }

    #[test]
    fn scale_default_applies() {
        // No --scale argument in the test harness invocation.
        let s = scale_from_args(0.33);
        assert!(s > 0.0);
    }

    #[test]
    fn threads_default_is_positive() {
        // No --threads argument in the test harness invocation; the
        // fallback is the machine's available parallelism (or
        // RECOVERY_THREADS when set), always at least one.
        assert!(threads_from_args() >= 1);
    }

    #[test]
    fn bench_sections_merge_and_replace() {
        let first = merge_bench_sections(None, "train_all", r#"{"ms":1.5}"#);
        assert_eq!(first, "{\"train_all\":{\"ms\":1.5}}\n");
        let second = merge_bench_sections(Some(&first), "episode_loop", r#"{"x":{"y":2}}"#);
        assert_eq!(
            second,
            "{\"episode_loop\":{\"x\":{\"y\":2}},\"train_all\":{\"ms\":1.5}}\n"
        );
        let replaced = merge_bench_sections(Some(&second), "train_all", r#"{"ms":9.0}"#);
        assert_eq!(
            replaced,
            "{\"episode_loop\":{\"x\":{\"y\":2}},\"train_all\":{\"ms\":9.0}}\n"
        );
    }

    #[test]
    fn legacy_single_section_files_are_discarded() {
        let legacy = r#"{"bench":"train_all","sequential_ms":3.3}"#;
        let merged = merge_bench_sections(Some(legacy), "episode_loop", r#"{"a":1}"#);
        assert_eq!(merged, "{\"episode_loop\":{\"a\":1}}\n");
    }

    #[test]
    fn phase_timings_record_spans() {
        let timings = PhaseTimings::new();
        {
            let _p = timings.phase("work");
        }
        let snapshot = timings
            .telemetry()
            .snapshot()
            .expect("enabled telemetry has a snapshot");
        let h = snapshot
            .histograms
            .get("span.work.ms")
            .expect("span recorded");
        assert_eq!(h.count, 1);
        timings.report();
    }
}
