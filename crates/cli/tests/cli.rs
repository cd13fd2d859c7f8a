//! Integration tests of the `autorecover` binary: every subcommand run
//! end-to-end against a temporary directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use recovery_core::durable::Checkpoint;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autorecover"))
}

fn tmp(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("autorecover-test-{}-{name}", std::process::id()));
    dir
}

fn generate_log(path: &Path) {
    let out = bin()
        .args([
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--scale",
            "0.01",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn unknown_command_is_an_error() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_succeeds() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("autorecover"));
}

#[test]
fn generate_then_inspect_and_mine() {
    let log = tmp("gim.log");
    generate_log(&log);

    let out = bin()
        .args(["inspect", log.to_str().unwrap(), "--top", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("processes:"), "{text}");
    assert!(text.contains("MTTR:"), "{text}");

    let out = bin()
        .args(["mine", log.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("symptom cohesion"), "{text}");
    assert!(text.contains("noise filter"), "{text}");

    std::fs::remove_file(&log).ok();
}

#[test]
fn train_evaluate_round_trip() {
    let log = tmp("ter.log");
    let policy = tmp("ter.policy");
    generate_log(&log);

    let out = bin()
        .args([
            "train",
            log.to_str().unwrap(),
            "--out",
            policy.to_str().unwrap(),
            "--method",
            "tree",
            "--top",
            "6",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let policy_text = std::fs::read_to_string(&policy).unwrap();
    assert!(
        policy_text.starts_with("# autorecover policy v2"),
        "{policy_text}"
    );

    let out = bin()
        .args([
            "evaluate",
            log.to_str().unwrap(),
            "--policy",
            policy.to_str().unwrap(),
            "--top",
            "6",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("overall: relative cost"), "{text}");

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&policy).ok();
}

#[test]
fn missing_files_produce_errors_not_panics() {
    let out = bin()
        .args(["inspect", "/nonexistent/path.log"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    let out = bin()
        .args([
            "evaluate",
            "/nonexistent.log",
            "--policy",
            "/nonexistent.policy",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn continuous_loop_reports_windows() {
    let out = bin()
        .args(["loop", "--windows", "2", "--scale", "0.005"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("window"), "{text}");
    assert!(text.contains("learned"), "{text}");
    assert!(text.contains("baseline window"), "{text}");

    let out = bin().args(["loop", "--windows", "1"]).output().unwrap();
    assert!(!out.status.success(), "a single window must be rejected");
}

#[test]
fn out_of_range_fraction_is_an_error_not_a_panic() {
    let log = tmp("frac.log");
    generate_log(&log);
    for frac in ["1.0", "0", "-0.3"] {
        let out = bin()
            .args([
                "train",
                log.to_str().unwrap(),
                "--out",
                "/tmp/frac.policy",
                "--fraction",
                frac,
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "fraction {frac} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--fraction"), "fraction {frac}: {err}");
        assert!(!err.contains("panicked"), "fraction {frac} panicked: {err}");
    }
    std::fs::remove_file(&log).ok();
}

/// A minimal structural JSON-object check for one JSONL line: braces
/// balance outside strings, quotes pair up, and the object spans the
/// whole line.
fn assert_json_object(line: &str) {
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' if !in_string => depth += 1,
            '}' if !in_string => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced braces: {line}");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces: {line}");
    assert!(!in_string, "unterminated string: {line}");
}

#[test]
fn metrics_out_writes_jsonl_with_phase_spans() {
    let log = tmp("metrics.log");
    let policy = tmp("metrics.policy");
    let metrics = tmp("metrics.jsonl");
    generate_log(&log);

    let out = bin()
        .args([
            "train",
            log.to_str().unwrap(),
            "--out",
            policy.to_str().unwrap(),
            "--top",
            "4",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(!text.trim().is_empty(), "metrics file is empty");
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        assert_json_object(line);
        assert!(line.contains("\"type\":\""), "{line}");
    }
    // Phase spans of the train pipeline were recorded, the one
    // sequential log parse included.
    for phase in ["parse", "prepare", "platform_build", "train"] {
        assert!(
            text.contains(&format!("\"name\":\"{phase}\"")),
            "missing span {phase} in:\n{text}"
        );
    }
    // The trainer config and per-type training progress were logged.
    assert!(text.contains("\"type\":\"trainer_config\""), "{text}");
    assert!(text.contains("\"type\":\"training_finished\""), "{text}");
    // The final snapshot carries the sweep counters.
    let snapshot = text
        .lines()
        .find(|l| l.contains("\"type\":\"snapshot\""))
        .expect("snapshot line present");
    assert!(snapshot.contains("train.sweeps"), "{snapshot}");
    assert!(snapshot.contains("platform.attempts"), "{snapshot}");

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&policy).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn log_format_json_renders_progress_as_jsonl() {
    let log = tmp("jsonlog.log");
    let out = bin()
        .args([
            "generate",
            "--out",
            log.to_str().unwrap(),
            "--scale",
            "0.01",
            "--log-format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let mut log_lines = 0;
    for line in stderr.lines().filter(|l| !l.trim().is_empty()) {
        assert_json_object(line);
        assert!(line.contains("\"type\":\"log\""), "{line}");
        log_lines += 1;
    }
    assert!(
        log_lines > 0,
        "expected JSON progress lines, got:\n{stderr}"
    );

    let out = bin()
        .args(["generate", "--out", "/dev/null", "--log-format", "yaml"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown log format must be rejected");

    std::fs::remove_file(&log).ok();
}

#[test]
fn help_documents_threads_flag() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("--threads N"), "{text}");
    assert!(text.contains("sequential path"), "{text}");
}

#[test]
fn threads_zero_or_garbage_is_rejected() {
    let log = tmp("threads0.log");
    generate_log(&log);
    for bad in ["0", "abc", "-2"] {
        let out = bin()
            .args([
                "train",
                log.to_str().unwrap(),
                "--out",
                "/tmp/threads0.policy",
                "--threads",
                bad,
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--threads {bad} must be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--threads"), "--threads {bad}: {err}");
        assert!(!err.contains("panicked"), "--threads {bad} panicked: {err}");
    }
    std::fs::remove_file(&log).ok();
}

#[test]
fn threads_one_and_many_train_byte_identical_policies() {
    let log = tmp("threads.log");
    let sequential = tmp("threads-seq.policy");
    let parallel = tmp("threads-par.policy");
    generate_log(&log);

    for (threads, path) in [("1", &sequential), ("3", &parallel)] {
        let out = bin()
            .args([
                "train",
                log.to_str().unwrap(),
                "--out",
                path.to_str().unwrap(),
                "--top",
                "4",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let seq_text = std::fs::read_to_string(&sequential).unwrap();
    let par_text = std::fs::read_to_string(&parallel).unwrap();
    assert!(
        seq_text == par_text,
        "policies trained with --threads 1 and --threads 3 must be byte-identical"
    );
    assert!(
        seq_text.starts_with("# autorecover policy v2"),
        "{seq_text}"
    );

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&sequential).ok();
    std::fs::remove_file(&parallel).ok();
}

#[test]
fn train_rejects_unknown_method() {
    let log = tmp("method.log");
    generate_log(&log);
    let out = bin()
        .args([
            "train",
            log.to_str().unwrap(),
            "--out",
            "/tmp/x.policy",
            "--method",
            "magic",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --method"));
    std::fs::remove_file(&log).ok();
}

#[test]
fn explain_and_diff_policy_commands() {
    let log = tmp("exp.log");
    let policy = tmp("exp.policy");
    generate_log(&log);
    let out = bin()
        .args([
            "train",
            log.to_str().unwrap(),
            "--out",
            policy.to_str().unwrap(),
            "--top",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["explain", policy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("states,"), "{text}");
    // v2 policy files round-trip visit counts, so explain on a reloaded
    // policy has real confidence data (shown as per-action n=K).
    assert!(!text.contains("visit counts unavailable"), "{text}");
    assert!(text.contains("(n="), "{text}");

    let out = bin()
        .args(["explain", policy.to_str().unwrap(), "--json", "true"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout).to_string();
    assert_json_object(json.trim());
    assert!(json.starts_with("{\"visits_available\":true"), "{json}");

    // A policy diffed against itself is empty.
    let out = bin()
        .args([
            "diff-policy",
            policy.to_str().unwrap(),
            policy.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.starts_with("0 added, 0 removed, 0 flipped"), "{text}");

    let out = bin()
        .args([
            "diff-policy",
            policy.to_str().unwrap(),
            policy.to_str().unwrap(),
            "--json",
            "true",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout).to_string();
    assert_json_object(json.trim());
    assert!(
        json.contains("\"schema\":\"autorecover.policy-diff.v1\""),
        "{json}"
    );

    std::fs::remove_file(&log).ok();
    std::fs::remove_file(&policy).ok();
}

#[test]
fn report_diagnostics_out_writes_run_reports() {
    let log = tmp("diag.log");
    let dir = tmp("diag-out");
    generate_log(&log);
    let out = bin()
        .args([
            "report",
            log.to_str().unwrap(),
            "--fast",
            "true",
            "--top",
            "4",
            "--threads",
            "2",
            "--diagnostics-out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // One report per training fraction, in three renderings each.
    for fraction in ["20", "40", "60", "80"] {
        for ext in ["json", "md", "html"] {
            let path = dir.join(format!("run-report-f{fraction}.{ext}"));
            assert!(path.is_file(), "missing {}", path.display());
        }
    }
    let json = std::fs::read_to_string(dir.join("run-report-f40.json")).unwrap();
    assert_json_object(json.trim());
    assert!(
        json.starts_with("{\"schema\":\"autorecover.run-report.v1\""),
        "{json}"
    );
    assert!(json.contains("\"q_delta_curve\""), "{json}");
    let md = std::fs::read_to_string(dir.join("run-report-f40.md")).unwrap();
    assert!(md.contains("# Training run report"), "{md}");
    assert!(md.contains("| trained |"), "{md}");

    std::fs::remove_file(&log).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn on_parse_error_selects_the_ingestion_policy() {
    let log = tmp("ope.log");
    generate_log(&log);
    // Corrupt one content line in place.
    let text = std::fs::read_to_string(&log).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let victim = lines.len() / 2;
    lines[victim] = "this line is not a log entry".into();
    std::fs::write(&log, lines.join("\n")).unwrap();

    // Default (strict) mode fails with the parse error.
    let out = bin()
        .args(["inspect", log.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "strict mode must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("parsing"), "{err}");

    // skip and quarantine both survive the corrupted line.
    for mode in ["skip", "quarantine"] {
        let out = bin()
            .args(["inspect", log.to_str().unwrap(), "--on-parse-error", mode])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{mode}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("skipped 1 malformed"), "{mode}: {err}");
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("processes:"), "{mode}: {text}");
    }

    // Unknown modes are rejected up front.
    let out = bin()
        .args([
            "inspect",
            log.to_str().unwrap(),
            "--on-parse-error",
            "lenient",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown parse-error policy"), "{err}");

    std::fs::remove_file(&log).ok();
}

#[test]
fn help_documents_on_parse_error_flag() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--on-parse-error"), "{text}");
    assert!(text.contains("quarantine"), "{text}");
}

#[test]
fn loop_table_reports_window_status() {
    let out = bin()
        .args(["loop", "--windows", "2", "--scale", "0.005"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("status"), "{text}");
    assert!(text.contains("trained"), "{text}");
}

#[test]
fn loop_summary_includes_fallback_counters() {
    let out = bin()
        .args(["loop", "--windows", "2", "--scale", "0.005"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("\nloop: 0 fallbacks\n"), "{text}");
    assert!(!text.contains("pool:"), "{text}");
}

/// State dirs written before the worker pool's counters were retired
/// carry `counter pool.* 0` lines in every checkpoint. Resuming from
/// such a checkpoint must still end in the policy and run report of an
/// uninterrupted run.
#[test]
fn loop_resumes_from_a_checkpoint_with_legacy_pool_counters() {
    let run = |dir: &Path, extra: &[&str]| {
        bin()
            .args(["loop", "--windows", "3", "--scale", "0.01", "--seed", "7"])
            .arg("--state-dir")
            .arg(dir)
            .arg("--policy-out")
            .arg(dir.join("final.policy"))
            .args(extra)
            .output()
            .expect("binary runs")
    };
    let reference = tmp("legacy-ckpt-reference");
    let resumed = tmp("legacy-ckpt-resumed");
    for dir in [&reference, &resumed] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let out = run(&reference, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let crashed = run(&resumed, &["--crash-at", "after-checkpoint:1"]);
    assert!(!crashed.status.success(), "the crash run exited cleanly");

    let newest = std::fs::read_dir(&resumed)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            name.starts_with("checkpoint-") && name.ends_with(".ckpt")
        })
        .max()
        .expect("the crashed run wrote a checkpoint");
    let text = std::fs::read_to_string(&newest).unwrap();
    let mut checkpoint = Checkpoint::from_text(&text).unwrap();
    for legacy in ["pool.exhausted", "pool.panics", "pool.retries"] {
        checkpoint.counters.insert(legacy.to_owned(), 0);
    }
    let legacy_text = checkpoint.to_text();
    assert!(
        legacy_text.contains("\ncounter pool.panics 0\n"),
        "{legacy_text}"
    );
    std::fs::write(&newest, &legacy_text).unwrap();

    let out = run(&resumed, &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resumed 1 (skipped 2 windows)"), "{stdout}");
    for artifact in ["final.policy", "run-report.json"] {
        assert_eq!(
            std::fs::read(resumed.join(artifact)).unwrap(),
            std::fs::read(reference.join(artifact)).unwrap(),
            "{artifact} differs from the uninterrupted run's"
        );
    }
    for dir in [&reference, &resumed] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The CLI-level purity check of the live observability plane: a loop
/// run with the exposition server up (`--metrics-listen`) must write a
/// byte-identical final policy to the same run without it.
#[test]
fn loop_with_metrics_listen_writes_byte_identical_policy() {
    let plain = tmp("listen-off.policy");
    let listened = tmp("listen-on.policy");

    let out = bin()
        .args([
            "loop",
            "--windows",
            "2",
            "--scale",
            "0.005",
            "--policy-out",
            plain.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args([
            "loop",
            "--windows",
            "2",
            "--scale",
            "0.005",
            "--policy-out",
            listened.to_str().unwrap(),
            "--metrics-listen",
            "127.0.0.1:0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("serving live metrics on http://127.0.0.1:"),
        "{stderr}"
    );

    let plain_text = std::fs::read_to_string(&plain).unwrap();
    let listened_text = std::fs::read_to_string(&listened).unwrap();
    assert!(
        plain_text.starts_with("# autorecover policy v2"),
        "{plain_text}"
    );
    assert!(
        plain_text == listened_text,
        "--metrics-listen changed the loop's final policy bytes"
    );

    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&listened).ok();
}

#[test]
fn watch_renders_window_rows_from_a_metrics_file() {
    let metrics = tmp("watch.jsonl");
    let out = bin()
        .args([
            "loop",
            "--windows",
            "2",
            "--scale",
            "0.005",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["watch", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // The column header, one row per window, and the rolled-up footer.
    assert!(text.contains("window  processes"), "{text}");
    assert!(text.contains("status"), "{text}");
    assert!(text.contains("windows: 2 | fallbacks:"), "{text}");
    assert!(text.contains("converged types:"), "{text}");

    std::fs::remove_file(&metrics).ok();
}

#[test]
fn watch_rejects_missing_sources_cleanly() {
    let out = bin()
        .args(["watch", "/nonexistent/metrics.jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    let out = bin().args(["watch"]).output().unwrap();
    assert!(!out.status.success(), "watch without a source must fail");
}

#[test]
fn help_documents_the_observability_plane() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("--metrics-listen ADDR"), "{text}");
    assert!(text.contains("--serve-linger SECS"), "{text}");
    assert!(text.contains("/metrics"), "{text}");
    assert!(text.contains("/healthz"), "{text}");
    assert!(text.contains("watch SOURCE"), "{text}");
}
