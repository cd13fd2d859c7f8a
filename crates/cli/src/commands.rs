//! Implementations of the `autorecover` subcommands.

use std::cell::RefCell;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use recovery_core::durable::{self, DurableLoop};
use recovery_core::error_type::NoiseFilter;
use recovery_core::evaluate::{evaluate_parallel, time_ordered_split};
use recovery_core::experiment::{
    fig3_cohesion_curve_of, ExperimentContext, TestRun, TestRunConfig,
};
use recovery_core::fault::{CrashPlan, LoopFaultPlan};
use recovery_core::ingest::{self, ParseErrorPolicy};
use recovery_core::parallel::WorkerPool;
use recovery_core::persist::{policy_from_text, policy_to_text};
use recovery_core::pipeline::{
    run_continuous_loop_controlled, ContinuousLoopConfig, LoopControls, LoopRun, WindowPublication,
};
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::policy::{
    DecisionTable, HybridPolicy, LivePolicy, TrainedPolicy, UserStatePolicy,
};
use recovery_core::selection_tree::{SelectionTreeConfig, SelectionTreeTrainer};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_diagnostics::{
    assemble, diff_policies, explain_policy, DiagnosticsRecorder, ExplainOptions, RunReportInputs,
};
use recovery_serve::{publish_snapshot, PolicySnapshot, PolicyStore, ServeConfig, ServeDaemon};
use recovery_simlog::{
    availability, stats, ClusterSim, FaultCatalog, GeneratorConfig, LogGenerator, RecoveryLog,
    SymptomCatalog, UserDefinedPolicy,
};
use recovery_telemetry::{Event, EventBus, ObserverHandle, Telemetry};

use crate::args::Args;
use crate::session::Session;

/// `autorecover generate` — simulate and write a recovery log.
pub fn generate(args: &Args, session: &Session) -> Result<(), String> {
    let out = args.flag("out").ok_or("generate needs --out <file>")?;
    let scale: f64 = args.flag_or("scale", 0.05)?;
    if scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    let seed: u64 = args.flag_or("seed", 0x2007_D50Au64)?;
    session.info(&format!(
        "generating synthetic cluster log (scale {scale}, seed {seed}) ..."
    ));
    let config = GeneratorConfig::paper_scale(scale).with_seed(seed);
    let mut generated = {
        let _span = session.telemetry.span("generate");
        LogGenerator::new(config).generate()
    };
    let text = generated.log.to_text();
    fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    let processes = generated.log.split_processes();
    println!(
        "wrote {out}: {} entries, {} complete recovery processes, {} distinct symptoms",
        generated.log.len(),
        processes.len(),
        generated.log.symptoms().len()
    );
    Ok(())
}

/// Parses `--on-parse-error`: absent means the strict `fail` policy.
fn parse_error_policy(args: &Args) -> Result<ParseErrorPolicy, String> {
    match args.flag("on-parse-error") {
        None => Ok(ParseErrorPolicy::Fail),
        Some(v) => v
            .parse()
            .map_err(|e: String| format!("--on-parse-error: {e}")),
    }
}

/// Reads and parses the positional log argument, honoring
/// `--on-parse-error`. Returns a pool of `--threads` workers next to the
/// log for the caller's parallel steps.
fn load_log(args: &Args, session: &Session) -> Result<(RecoveryLog, WorkerPool), String> {
    let pool = WorkerPool::new(parse_threads(args)?);
    let policy = parse_error_policy(args)?;
    let path = args.positional(0).ok_or("expected a log file argument")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (log, quarantine) = ingest::parse_log_with_policy(&text, policy, &session.telemetry)
        .map_err(|e| format!("parsing {path}: {e}"))?;
    if !quarantine.is_clean() {
        session.info(&format!(
            "{path}: skipped {} malformed line(s) under --on-parse-error {policy} ({} quarantined, {} dropped past the buffer)",
            quarantine.skipped(),
            quarantine.lines().len(),
            quarantine.dropped()
        ));
        for line in quarantine.lines().iter().take(5) {
            session.debug(&format!(
                "quarantined line {} [{}]: {}",
                line.line,
                line.kind.label(),
                line.text
            ));
        }
    }
    session.debug(&format!(
        "parsed {path}: {} entries ({} threads)",
        log.len(),
        pool.threads()
    ));
    Ok((log, pool))
}

/// `autorecover inspect` — log statistics and the type ranking.
pub fn inspect(args: &Args, session: &Session) -> Result<(), String> {
    let (mut log, pool) = load_log(args, session)?;
    let top: usize = args.flag_or("top", 20usize)?;
    let audit = log.audit();
    let processes = ingest::split_processes(&mut log, &pool, &session.telemetry);
    let span = log.time_span();
    println!("entries:   {}", log.len());
    println!("symptoms:  {} distinct descriptions", log.symptoms().len());
    println!("processes: {} complete recoveries", processes.len());
    if let Some((a, b)) = span {
        println!("span:      {a} .. {b}");
    }
    if !audit.is_clean() {
        println!(
            "audit:     {} stray actions, {} stray successes, {} unfinished processes (dropped)",
            audit.stray_actions, audit.stray_successes, audit.unfinished_processes
        );
    }
    println!("MTTR:      {}", stats::mttr(&processes));
    println!("downtime:  {}", stats::total_downtime(&processes));
    if let Some((a, b)) = span {
        let report = availability(&processes, a, b);
        println!(
            "depend.:   availability {:.5} ({} nines), MTBF {} across {} machines",
            report.availability,
            report.nines(),
            report.mtbf,
            report.machines
        );
    }
    println!();
    println!(
        "{:>4}  {:>7}  {:>12}  {:>10}  error type (initial symptom)",
        "rank", "count", "downtime_s", "mttr"
    );
    for (i, s) in stats::by_initial_symptom(&processes)
        .iter()
        .take(top)
        .enumerate()
    {
        println!(
            "{:>4}  {:>7}  {:>12}  {:>10}  {}",
            i + 1,
            s.count,
            s.total_downtime.as_secs(),
            s.mttr().to_string(),
            log.symptoms().name(s.symptom).unwrap_or("?")
        );
    }
    Ok(())
}

/// `autorecover mine` — m-pattern cohesion analysis and clusters.
pub fn mine(args: &Args, session: &Session) -> Result<(), String> {
    let (mut log, pool) = load_log(args, session)?;
    let minp: f64 = args.flag_or("minp", 0.1f64)?;
    if !(minp > 0.0 && minp <= 1.0) {
        return Err("--minp must be in (0, 1]".into());
    }
    let processes = ingest::split_processes(&mut log, &pool, &session.telemetry);
    let _span = session.telemetry.span("mine");
    let filter = NoiseFilter::new(minp);
    let outcome = filter.partition(processes);
    println!("symptom cohesion (fraction of processes with one mutually dependent set):");
    for (m, f) in fig3_cohesion_curve_of(&outcome.db) {
        println!("  minp {m:.1}: {f:.4}");
    }
    let clusters = filter.clusters(&outcome.db);
    println!("\n{} symptom clusters at minp {minp}:", clusters.len());
    for (i, cluster) in clusters.iter().enumerate().take(50) {
        let names: Vec<&str> = cluster
            .iter()
            .map(|&s| log.symptoms().name(s).unwrap_or("?"))
            .collect();
        println!("  {:>3}: {}", i + 1, names.join(", "));
    }
    if clusters.len() > 50 {
        println!("  ... and {} more", clusters.len() - 50);
    }
    println!(
        "\nnoise filter: kept {:.2}% ({} clean, {} noisy)",
        100.0 * outcome.kept_fraction(),
        outcome.clean.len(),
        outcome.noisy.len()
    );
    Ok(())
}

fn check_fraction(fraction: f64) -> Result<(), String> {
    if fraction > 0.0 && fraction < 1.0 {
        Ok(())
    } else {
        Err(format!(
            "--fraction must be strictly between 0 and 1, got {fraction}"
        ))
    }
}

/// Parses `--threads`: absent means the machine's available parallelism,
/// `1` forces the legacy sequential path, `0` is rejected. Trained
/// policies are byte-identical for every accepted value.
fn parse_threads(args: &Args) -> Result<usize, String> {
    match args.flag("threads") {
        None => Ok(WorkerPool::available().threads()),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => Err("--threads must be at least 1 (use 1 for the sequential path)".into()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("--threads: cannot parse {v:?}")),
        },
    }
}

/// Parses the shared fault-injection flags (`--fault-empty`,
/// `--fault-sim-panic`, `--fault-retrain-panic`, `--fault-blackout`):
/// each is a comma-separated list of 0-based window indices. Shared by
/// `loop` and `serve` so a faulted serving run can be reproduced
/// byte-for-byte by an unobserved `loop` with the same flags.
fn parse_fault_plan(args: &Args) -> Result<LoopFaultPlan, String> {
    fn windows(args: &Args, flag: &str) -> Result<Vec<usize>, String> {
        match args.flag(flag) {
            None => Ok(Vec::new()),
            Some(list) => list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| format!("--{flag}: cannot parse window index {s:?}"))
                })
                .collect(),
        }
    }
    let mut plan = LoopFaultPlan::none();
    for w in windows(args, "fault-empty")? {
        plan = plan.with_empty_window(w);
    }
    for w in windows(args, "fault-sim-panic")? {
        plan = plan.with_simulation_panic(w);
    }
    for w in windows(args, "fault-retrain-panic")? {
        plan = plan.with_retrain_panic(w);
    }
    for w in windows(args, "fault-blackout")? {
        plan = plan.with_filter_blackout(w);
    }
    Ok(plan)
}

fn trainer_config(method: &str) -> Result<TrainerConfig, String> {
    match method {
        "standard" | "tree" => Ok(TrainerConfig::default()),
        "faithful" => Ok(TrainerConfig::paper_faithful()),
        other => Err(format!(
            "unknown --method {other:?} (standard, tree, faithful)"
        )),
    }
}

/// `autorecover train` — offline policy generation.
pub fn train(args: &Args, session: &Session) -> Result<(), String> {
    let out = args.flag("out").ok_or("train needs --out <policy file>")?;
    let (mut log, pool) = load_log(args, session)?;
    let fraction: f64 = args.flag_or("fraction", 0.4f64)?;
    check_fraction(fraction)?;
    let minp: f64 = args.flag_or("minp", 0.1f64)?;
    let top_k: usize = args.flag_or("top", 40usize)?;
    let threads = pool.threads();
    let method = args.flag("method").unwrap_or("standard").to_owned();

    let ctx = {
        let _span = session.telemetry.span("prepare");
        ExperimentContext::prepare_from_log(&mut log, minp, top_k, &pool, &session.telemetry)
    };
    let (train_set, _) = time_ordered_split(&ctx.clean, fraction);
    session.info(&format!(
        "training on {} processes ({} error types, method {method}, {threads} threads) ...",
        train_set.len(),
        ctx.types.len()
    ));
    let config = trainer_config(&method)?;
    session.debug(&format!("trainer config: {config}"));
    if session.telemetry.is_enabled() {
        session.telemetry.emit(&config.to_event());
    }
    let trainer = {
        let _span = session.telemetry.span("platform_build");
        OfflineTrainer::new(train_set, config)
            .with_observer(session.telemetry.observer_handle())
            .with_threads(threads)
    };
    let (policy, train_stats) = {
        let _span = session.telemetry.span("train");
        if method == "tree" {
            SelectionTreeTrainer::new(&trainer, SelectionTreeConfig::default()).train(&ctx.types)
        } else {
            trainer.train(&ctx.types)
        }
    };
    for s in &train_stats {
        session.debug(&format!(
            "type rank {:?}: {} samples, {} sweeps, converged={}",
            s.error_type, s.sample_count, s.sweeps, s.converged
        ));
    }
    let total_sweeps: u64 = train_stats.iter().map(|s| s.sweeps).sum();
    let converged = train_stats.iter().filter(|s| s.converged).count();
    let text = policy_to_text(&policy, log.symptoms());
    fs::write(out, &text).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} state-action entries for {} types ({total_sweeps} sweeps, {converged}/{} converged)",
        policy.q().len(),
        train_stats.len(),
        train_stats.len()
    );
    Ok(())
}

/// `autorecover evaluate` — replay a policy against the held-out log.
pub fn evaluate(args: &Args, session: &Session) -> Result<(), String> {
    let policy_path = args
        .flag("policy")
        .ok_or("evaluate needs --policy <file>")?;
    let (mut log, pool) = load_log(args, session)?;
    let fraction: f64 = args.flag_or("fraction", 0.4f64)?;
    check_fraction(fraction)?;
    let hybrid: bool = args.flag_or("hybrid", true)?;
    let minp: f64 = args.flag_or("minp", 0.1f64)?;
    let top_k: usize = args.flag_or("top", 40usize)?;

    let policy_text =
        fs::read_to_string(policy_path).map_err(|e| format!("reading {policy_path}: {e}"))?;
    // Intern against the log's catalog so names resolve to the same ids.
    let trained = {
        let symptoms = log.symptoms_mut();
        policy_from_text(&policy_text, symptoms).map_err(|e| e.to_string())?
    };

    let ctx = {
        let _span = session.telemetry.span("prepare");
        ExperimentContext::prepare_from_log(&mut log, minp, top_k, &pool, &session.telemetry)
    };
    let (train_set, test_set) = time_ordered_split(&ctx.clean, fraction);
    let platform = SimulationPlatform::from_processes(train_set, CostEstimation::AverageOnly)
        .with_observer(session.telemetry.observer_handle());

    let _span = session.telemetry.span("evaluate");
    let report = if hybrid {
        let policy = HybridPolicy::new(trained, UserStatePolicy::default());
        evaluate_parallel(&policy, &platform, test_set, &ctx.types, 20, &pool)
    } else {
        evaluate_parallel(&trained, &platform, test_set, &ctx.types, 20, &pool)
    };
    println!(
        "policy: {} | test processes: {} | training fraction {fraction}",
        report.policy_name,
        test_set.len()
    );
    println!(
        "{:>4}  {:>5}  {:>8}  {:>8}  error type",
        "rank", "n", "relative", "coverage"
    );
    for t in &report.per_type {
        println!(
            "{:>4}  {:>5}  {:>8.3}  {:>8.3}  {}",
            t.rank + 1,
            t.processes,
            t.relative_cost(),
            t.coverage(),
            log.symptoms().name(t.error_type.symptom()).unwrap_or("?")
        );
    }
    println!(
        "\noverall: relative cost {:.4} ({:.2}% of the user policy's downtime), coverage {:.4}",
        report.overall_relative_cost(),
        100.0 * report.overall_relative_cost(),
        report.overall_coverage()
    );
    Ok(())
}

/// `autorecover simulate` — run a live cluster under the trained policy.
pub fn simulate(args: &Args, session: &Session) -> Result<(), String> {
    let policy_path = args
        .positional(0)
        .ok_or("expected a policy file argument")?;
    let scale: f64 = args.flag_or("scale", 0.02f64)?;
    // The seed selects the *fault catalog*: pass the same --seed that
    // generated the training log, or the policy's symptom names will
    // resolve to a different fault population.
    let seed: u64 = args.flag_or("seed", 0x2007_D50Au64)?;
    let baseline: bool = args.flag_or("baseline", true)?;

    let policy_text =
        fs::read_to_string(policy_path).map_err(|e| format!("reading {policy_path}: {e}"))?;

    // The live cluster shares the catalog of the generator preset, so the
    // policy's symptom names resolve against the same fault population.
    let config = GeneratorConfig::paper_scale(scale).with_seed(seed);
    let catalog_seed = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0CA7_A106;
    let catalog = config.catalog.generate(catalog_seed);
    let mut symptoms = catalog.symptoms().clone();
    let trained = policy_from_text(&policy_text, &mut symptoms).map_err(|e| e.to_string())?;

    let cluster = config.cluster.clone();

    let live = LivePolicy::new(HybridPolicy::new(
        DecisionTable::new(&trained),
        UserStatePolicy::default(),
    ));
    session.info(&format!(
        "simulating {} machines under the trained policy ...",
        cluster.machines
    ));
    let (mut log, _) = {
        let _span = session.telemetry.span("simulate_trained");
        ClusterSim::new(&catalog, live, cluster.clone(), seed ^ 0x11).run()
    };
    let procs = log.split_processes();
    let trained_mttr = stats::mttr(&procs);
    println!(
        "trained policy: {} processes, MTTR {} ({} s)",
        procs.len(),
        trained_mttr,
        trained_mttr.as_secs()
    );

    if baseline {
        session.info("simulating the same cluster under the user-defined policy ...");
        let _span = session.telemetry.span("simulate_baseline");
        let (mut base_log, _) =
            ClusterSim::new(&catalog, UserDefinedPolicy::default(), cluster, seed ^ 0x11).run();
        let base = base_log.split_processes();
        let base_mttr = stats::mttr(&base);
        println!(
            "user policy:    {} processes, MTTR {} ({} s)",
            base.len(),
            base_mttr,
            base_mttr.as_secs()
        );
        if base_mttr.as_secs() > 0 {
            println!(
                "MTTR ratio trained/user: {:.4}",
                trained_mttr.as_secs_f64() / base_mttr.as_secs_f64()
            );
        }
    }
    Ok(())
}

/// `autorecover report` — the full four-split paper evaluation.
pub fn report(args: &Args, session: &Session) -> Result<(), String> {
    let (mut log, pool) = load_log(args, session)?;
    let method = args.flag("method").unwrap_or("standard").to_owned();
    let minp: f64 = args.flag_or("minp", 0.1f64)?;
    let top_k: usize = args.flag_or("top", 40usize)?;
    let threads = pool.threads();
    let fast: bool = args.flag_or("fast", false)?;
    let diagnostics_out = args.flag("diagnostics-out").map(str::to_owned);
    if let Some(dir) = &diagnostics_out {
        fs::create_dir_all(dir).map_err(|e| format!("--diagnostics-out {dir}: {e}"))?;
    }
    let ctx = {
        let _span = session.telemetry.span("prepare");
        ExperimentContext::prepare_from_log(&mut log, minp, top_k, &pool, &session.telemetry)
    };
    println!(
        "clean processes: {} ({} filtered as noisy); {} types selected",
        ctx.clean.len(),
        ctx.noisy_count,
        ctx.types.len()
    );
    println!(
        "{:>5}  {:>8}  {:>12}  {:>12}  {:>9}  {:>8}",
        "test", "fraction", "trained/user", "hybrid/user", "coverage", "sweeps"
    );
    for (i, fraction) in [0.2, 0.4, 0.6, 0.8].into_iter().enumerate() {
        let trainer = if fast {
            TrainerConfig::fast()
        } else {
            trainer_config(&method)?
        };
        let config = TestRunConfig {
            minp,
            top_k,
            threads,
            ..TestRunConfig::new(fraction)
        }
        .with_trainer(trainer);
        session.info(&format!("training at fraction {fraction} ..."));
        let recorder = diagnostics_out.as_ref().map(|_| DiagnosticsRecorder::new());
        let extra = recorder
            .as_ref()
            .map_or_else(recovery_telemetry::ObserverHandle::none, |r| r.handle());
        let (run, policy) = {
            let _span = session.telemetry.span("test_run");
            TestRun::execute_in_context_instrumented(&config, &ctx, &session.telemetry, &extra)
        };
        if let (Some(dir), Some(recorder)) = (&diagnostics_out, &recorder) {
            write_diagnostics(
                dir,
                &config,
                &run,
                &policy,
                log.symptoms(),
                recorder,
                session,
            )?;
        }
        let trained = run.trained_report.overall_relative_cost();
        let hybrid = run.hybrid_report.overall_relative_cost();
        let sweeps: u64 = run.stats.iter().map(|s| s.sweeps).sum();
        println!(
            "{:>5}  {:>8.1}  {:>11.2}%  {:>11.2}%  {:>9.4}  {:>8}",
            i + 1,
            fraction,
            100.0 * trained,
            100.0 * hybrid,
            run.trained_report.overall_coverage(),
            sweeps
        );
    }
    Ok(())
}

/// Writes one training fraction's diagnostics bundle: the versioned run
/// report as JSON plus Markdown and HTML renderings. File names carry the
/// fraction (`run-report-f40.*` for 0.4) so the four splits coexist.
fn write_diagnostics(
    dir: &str,
    config: &TestRunConfig,
    run: &TestRun,
    policy: &TrainedPolicy,
    symptoms: &SymptomCatalog,
    recorder: &DiagnosticsRecorder,
    session: &Session,
) -> Result<(), String> {
    // Gauges and histograms carry wall-clock data; only the exact
    // counter sums keep the report deterministic, so only they embed.
    let counters = session.telemetry.snapshot().map(|s| s.counters);
    let report = assemble(&RunReportInputs {
        config: &config.trainer,
        train_fraction: config.train_fraction,
        stats: &run.stats,
        policy,
        symptoms,
        recorder,
        trained: &run.trained_report,
        hybrid: &run.hybrid_report,
        user: &run.user_report,
        counters: counters.as_ref(),
    });
    let stem = format!(
        "run-report-f{:02}",
        (config.train_fraction * 100.0).round() as u32
    );
    for (ext, content) in [
        ("json", report.to_json()),
        ("md", report.to_markdown()),
        ("html", report.to_html()),
    ] {
        let path = Path::new(dir).join(format!("{stem}.{ext}"));
        fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    session.info(&format!("wrote {dir}/{stem}.{{json,md,html}}"));
    Ok(())
}

/// `autorecover explain` — per-state action rankings of a policy file,
/// with near-tie and low-visit confidence flags.
pub fn explain(args: &Args, session: &Session) -> Result<(), String> {
    let policy_path = args
        .positional(0)
        .ok_or("expected a policy file argument")?;
    let options = ExplainOptions {
        min_visits: args.flag_or("min-visits", ExplainOptions::default().min_visits)?,
        near_tie_fraction: args.flag_or("tie", ExplainOptions::default().near_tie_fraction)?,
    };
    let json: bool = args.flag_or("json", false)?;
    let text =
        fs::read_to_string(policy_path).map_err(|e| format!("reading {policy_path}: {e}"))?;
    let mut symptoms = SymptomCatalog::default();
    let trained: TrainedPolicy =
        policy_from_text(&text, &mut symptoms).map_err(|e| e.to_string())?;
    session.debug(&format!(
        "loaded {policy_path}: {} state-action entries",
        trained.q().len()
    ));
    let explanation = explain_policy(&trained, &symptoms, options);
    if json {
        println!("{}", explanation.to_json().render());
    } else {
        print!("{}", explanation.to_text());
    }
    Ok(())
}

/// `autorecover diff-policy` — structured comparison of two policy files:
/// states added/removed and decisions flipped.
pub fn diff_policy(args: &Args, session: &Session) -> Result<(), String> {
    let old_path = args
        .positional(0)
        .ok_or("expected OLD and NEW policy file arguments")?;
    let new_path = args
        .positional(1)
        .ok_or("expected OLD and NEW policy file arguments")?;
    let json: bool = args.flag_or("json", false)?;
    // One shared catalog so identical symptom names in both files resolve
    // to the same ids and states line up.
    let mut symptoms = SymptomCatalog::default();
    let old_text = fs::read_to_string(old_path).map_err(|e| format!("reading {old_path}: {e}"))?;
    let old = policy_from_text(&old_text, &mut symptoms).map_err(|e| e.to_string())?;
    let new_text = fs::read_to_string(new_path).map_err(|e| format!("reading {new_path}: {e}"))?;
    let new = policy_from_text(&new_text, &mut symptoms).map_err(|e| e.to_string())?;
    session.debug(&format!(
        "comparing {} old vs {} new entries",
        old.q().len(),
        new.q().len()
    ));
    let diff = diff_policies(&old, &new, &symptoms);
    if json {
        println!("{}", diff.to_json().render());
    } else {
        print!("{}", diff.to_text());
    }
    Ok(())
}

/// Streams one `convergence` event per error type from a finished
/// window's [`DiagnosticsRecorder`]. Every field is wall-clock-free and
/// thread-count invariant (sweep counts, Q-delta tails, exact episode
/// tallies), and `traces()` hands the types back in `BTreeMap` label
/// order, so the convergence stream is byte-identical across `--threads`
/// values — the same contract the `window` events honor.
fn emit_convergence_events(
    telemetry: &Telemetry,
    window: usize,
    recorder: &recovery_diagnostics::DiagnosticsRecorder,
) {
    for (label, traces) in recorder.traces() {
        for trace in &traces {
            telemetry.emit(
                &Event::new("convergence")
                    .with("window", window as u64)
                    .with("error_type", label.as_str())
                    .with("verdict", trace.verdict())
                    .with("sweeps", trace.sweeps)
                    .with("converged", trace.converged)
                    .with("final_q_delta", trace.final_q_delta)
                    .with("last_calm_sweeps", trace.last_calm_sweeps)
                    .with("episodes", trace.episode_costs.episodes)
                    .with("episode_steps", trace.episode_steps)
                    .with("max_episode_steps", trace.max_episode_steps)
                    .with("processes", trace.processes)
                    .with("replay_attempts", trace.replay_attempts)
                    .with("replay_cured", trace.replay_cured)
                    .with("replay_from_log", trace.replay_from_log),
            );
        }
    }
}

/// Shared driver for `loop` and `serve`: runs the instrumented
/// continuous loop, attaching a fresh [`DiagnosticsRecorder`] to each
/// window's retraining step so its convergence traces stream to the bus
/// as the window publishes (live `/convergence` fodder). Recording is
/// purely observational — policies and window outcomes are
/// byte-identical to an unobserved run, and the recorder is skipped
/// entirely when telemetry is disabled.
fn run_loop_with_convergence(
    catalog: &FaultCatalog,
    config: &ContinuousLoopConfig,
    telemetry: &Telemetry,
    publish: &mut dyn FnMut(WindowPublication<'_>),
    controls: &mut LoopControls<'_>,
) -> Result<LoopRun, String> {
    let slot: RefCell<Option<Arc<DiagnosticsRecorder>>> = RefCell::new(None);
    let mut window_observer = |_window: usize| {
        if !telemetry.is_enabled() {
            return ObserverHandle::none();
        }
        let recorder = DiagnosticsRecorder::new();
        let handle = recorder.handle();
        *slot.borrow_mut() = Some(recorder);
        handle
    };
    let mut publish_inner = |publication: WindowPublication<'_>| {
        if let Some(recorder) = slot.borrow_mut().take() {
            emit_convergence_events(telemetry, publication.window, &recorder);
        }
        publish(publication);
    };
    run_continuous_loop_controlled(
        catalog,
        config,
        telemetry,
        &mut window_observer,
        &mut publish_inner,
        controls,
    )
}

/// Builds the `LoopControls` for a possibly-durable run: the signal
/// shim's stop flag always (so SIGTERM/SIGINT finish the in-flight
/// window instead of cutting it), plus a [`DurableLoop`] when
/// `--state-dir` was passed (with any `--crash-at` plan installed).
fn open_loop_controls(args: &Args) -> Result<(Option<DurableLoop>, CrashPlan), String> {
    let crash = match args.flag("crash-at") {
        None => CrashPlan::none(),
        Some(spec) => CrashPlan::parse(spec).map_err(|e| format!("--crash-at: {e}"))?,
    };
    let durable = match args.flag("state-dir") {
        None => {
            if !crash.is_empty() {
                return Err("--crash-at requires --state-dir".into());
            }
            None
        }
        Some(dir) => Some(
            DurableLoop::open(Path::new(dir))
                .map_err(|e| format!("--state-dir: {e}"))?
                .with_crash_plan(crash.clone()),
        ),
    };
    Ok((durable, crash))
}

/// Counters that appear in the deterministic `run-report.json`: a fixed
/// whitelist so the report is byte-identical for resumed vs
/// uninterrupted runs and for every `--threads` value (resume-only
/// counters like `loop.resume`/`durable.*` are deliberately excluded).
const REPORT_COUNTERS: [&str; 5] = [
    "loop.fallbacks",
    "loop.fallback.empty_window",
    "loop.fallback.no_trainable_types",
    "loop.fallback.simulation_panicked",
    "loop.fallback.training_panicked",
];

/// Renders the deterministic run report of a completed durable loop:
/// per-window outcomes, the whitelisted counters, and the final policy's
/// fingerprint. Every field is wall-clock-free and thread-invariant.
fn render_run_report(
    run: &LoopRun,
    config: &ContinuousLoopConfig,
    catalog: &FaultCatalog,
    telemetry: &Telemetry,
) -> String {
    let counter = |name: &str| {
        telemetry
            .registry()
            .map_or(0, |registry| registry.counter(name).get())
    };
    let windows = recovery_diagnostics::Json::Arr(
        run.outcomes
            .iter()
            .map(|w| {
                recovery_diagnostics::Json::obj()
                    .field("window", w.window)
                    .field("processes", w.processes)
                    .field("mttr_s", w.mttr.as_secs())
                    .field("learned_policy", w.learned_policy)
                    .field("policy_entries", w.policy_entries)
                    .field("status", w.status.label())
            })
            .collect(),
    );
    let mut counters = recovery_diagnostics::Json::obj();
    for name in REPORT_COUNTERS {
        counters = counters.field(name, counter(name));
    }
    let policy_hash = run
        .policy
        .as_ref()
        .map(|p| durable::fingerprint(policy_to_text(p, catalog.symptoms()).as_bytes()))
        .unwrap_or_default();
    let doc = recovery_diagnostics::Json::obj()
        .field("report", "loop-run")
        .field("version", 1u64)
        .field("seed", config.seed)
        .field("windows", windows)
        .field("counters", counters)
        .field("policy_hash", policy_hash.as_str());
    let mut text = doc.render();
    text.push('\n');
    text
}

/// `autorecover loop` — the paper's Figure 1 as a running system:
/// alternate observation windows and retraining, reporting the realized
/// MTTR per window.
pub fn continuous_loop(args: &Args, session: &Session) -> Result<(), String> {
    let windows: usize = args.flag_or("windows", 4usize)?;
    let scale: f64 = args.flag_or("scale", 0.02f64)?;
    let seed: u64 = args.flag_or("seed", 0x2007_D50Au64)?;
    let threads = parse_threads(args)?;
    let policy_out = args.flag("policy-out").map(str::to_owned);
    if windows < 2 {
        return Err("--windows must be at least 2".into());
    }
    let generator = GeneratorConfig::paper_scale(scale).with_seed(seed);
    let catalog_seed = generator.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0CA7_A106;
    let catalog = generator.catalog.generate(catalog_seed);
    let config = ContinuousLoopConfig {
        windows,
        seed,
        threads,
        faults: parse_fault_plan(args)?,
        ..ContinuousLoopConfig::new(generator.cluster)
    };
    session.info(&format!(
        "running {windows} observation windows of {} machines ...",
        config.cluster.machines
    ));
    // The summary table surfaces the fallback counter even without
    // --metrics-out: fall back to a local registry-only handle.
    // Observation is purely passive, so outcomes are identical either way.
    let local_telemetry = if session.telemetry.is_enabled() {
        None
    } else {
        Some(recovery_telemetry::Telemetry::new())
    };
    let telemetry = local_telemetry.as_ref().unwrap_or(&session.telemetry);
    let (mut durable, _) = open_loop_controls(args)?;
    crate::signal::install();
    let mut controls = LoopControls {
        stop: Some(crate::signal::stop_flag()),
        durable: durable.as_mut(),
    };
    let run = run_loop_with_convergence(&catalog, &config, telemetry, &mut |_| {}, &mut controls)?;
    let outcomes = &run.outcomes;
    if outcomes.is_empty() {
        println!("interrupted before any window completed");
        return Ok(());
    }
    println!(
        "{:>6}  {:>9}  {:>10}  {:>8}  {:>9}  status",
        "window", "processes", "mttr", "policy", "entries"
    );
    let baseline = outcomes[0].mttr.as_secs_f64();
    for w in outcomes {
        println!(
            "{:>6}  {:>9}  {:>10}  {:>8}  {:>9}  {}",
            w.window,
            w.processes,
            w.mttr.to_string(),
            if w.learned_policy { "learned" } else { "user" },
            w.policy_entries,
            w.status.label()
        );
    }
    let counter = |name: &str| {
        telemetry
            .registry()
            .map_or(0, |registry| registry.counter(name).get())
    };
    println!("\nloop: {} fallbacks", counter("loop.fallbacks"));
    if let Some(durable) = &durable {
        // The durable summary is what the crash harness asserts on:
        // `resumed` > 0 proves warm-start (skipped windows were never
        // re-trained), `checkpoints` counts this process's writes.
        println!(
            "durable: {} | resumed {} (skipped {} windows) | checkpoints written {}",
            durable.dir().display(),
            counter("loop.resume"),
            counter("durable.windows.skipped"),
            counter("durable.checkpoint.written"),
        );
    }
    if let Some(last) = outcomes.last() {
        if baseline > 0.0 {
            println!(
                "final window MTTR is {:.1}% of the baseline window",
                100.0 * last.mttr.as_secs_f64() / baseline
            );
        }
    }
    if run.interrupted {
        println!(
            "interrupted by signal after window {} — resume with the same flags to continue",
            outcomes.last().map_or(0, |w| w.window)
        );
    } else if let Some(durable) = &durable {
        // Only a run that actually reached the final window reports: a
        // resumed completion writes bytes identical to an uninterrupted
        // run (wall-clock and resume-only counters are excluded).
        let report = render_run_report(&run, &config, &catalog, telemetry);
        durable::write_atomic(durable.dir(), "run-report.json", report.as_bytes())
            .map_err(|e| format!("writing run-report.json: {e}"))?;
        println!("wrote {}", durable.dir().join("run-report.json").display());
    }
    if let Some(out) = policy_out {
        if run.interrupted && run.policy.is_none() {
            println!("--policy-out skipped: interrupted before any retraining step");
            return Ok(());
        }
        let policy = run
            .policy
            .as_ref()
            .ok_or("--policy-out: no window completed a retraining step, nothing to write")?;
        let text = policy_to_text(policy, catalog.symptoms());
        fs::write(&out, &text).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}: {} state-action entries", policy.q().len());
    }
    Ok(())
}

/// Blocks the main thread while the daemon serves: for the given number
/// of seconds when `--serve-for` was passed, until a termination signal
/// otherwise. Both paths poll the signal shim so SIGTERM/SIGINT end the
/// linger early and hand control back for a graceful drain.
fn linger(serve_for: Option<f64>) {
    const POLL: Duration = Duration::from_millis(100);
    match serve_for {
        Some(secs) => {
            let deadline = std::time::Instant::now() + Duration::from_secs_f64(secs);
            while std::time::Instant::now() < deadline && !crate::signal::stop_requested() {
                std::thread::sleep(POLL);
            }
        }
        None => {
            while !crate::signal::stop_requested() {
                std::thread::sleep(POLL);
            }
        }
    }
}

/// `autorecover serve` — the policy-serving daemon: expose a trained
/// policy over HTTP (`/advise`, `/simulate`, `/policy`, plus the shared
/// telemetry routes) while hot-reloading it from a live continuous loop
/// or pinning one loaded from a file.
pub fn serve(args: &Args, session: &Session) -> Result<(), String> {
    let listen = args.flag("listen").unwrap_or("127.0.0.1:0").to_owned();
    let serve_for: Option<f64> = match args.flag("serve-for") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("--serve-for: cannot parse seconds {v:?}"))?,
        ),
    };
    if serve_for.is_some_and(|s| s < 0.0) {
        return Err("--serve-for must be non-negative".into());
    }
    let max_inflight: usize = args.flag_or("max-inflight", ServeConfig::default().max_inflight)?;
    if max_inflight == 0 {
        return Err("--max-inflight must be at least 1".into());
    }
    // Serving is observability-first: even without --metrics-out the
    // daemon's /metrics, /healthz, and /events routes should be live, so
    // fall back to a local registry+bus handle rather than a disabled one.
    let telemetry = if session.telemetry.is_enabled() {
        session.telemetry.clone()
    } else {
        Telemetry::with_parts(None, Some(EventBus::default()))
    };
    let store = PolicyStore::new();
    let daemon = ServeDaemon::bind(
        &listen,
        store.clone(),
        telemetry.clone(),
        ServeConfig::default().with_max_inflight(max_inflight),
    )
    .map_err(|e| format!("binding {listen}: {e}"))?;
    println!("serving policy API on http://{}", daemon.local_addr());
    crate::signal::install();

    if let Some(policy_path) = args.flag("policy") {
        // File mode: pin one policy for the daemon's whole lifetime.
        let policy_text =
            fs::read_to_string(policy_path).map_err(|e| format!("reading {policy_path}: {e}"))?;
        let source = format!("file:{policy_path}");
        let snapshot = if let Some(log_path) = args.flag("log") {
            // A training log gives /simulate its replay plane. Parse it
            // first so policy symptoms resolve to the log's catalog ids.
            let pool = WorkerPool::new(parse_threads(args)?);
            let log_text =
                fs::read_to_string(log_path).map_err(|e| format!("reading {log_path}: {e}"))?;
            let (mut log, quarantine) =
                ingest::parse_log_with_policy(&log_text, parse_error_policy(args)?, &telemetry)
                    .map_err(|e| e.to_string())?;
            if quarantine.skipped() > 0 {
                session.info(&format!(
                    "quarantined {} malformed log lines",
                    quarantine.skipped()
                ));
            }
            let trained: TrainedPolicy =
                policy_from_text(&policy_text, log.symptoms_mut()).map_err(|e| e.to_string())?;
            let processes = ingest::split_processes(&mut log, &pool, &telemetry);
            PolicySnapshot::build(&trained, log.symptoms(), &source, Some(&processes))
        } else {
            let mut symptoms = SymptomCatalog::default();
            let trained: TrainedPolicy =
                policy_from_text(&policy_text, &mut symptoms).map_err(|e| e.to_string())?;
            PolicySnapshot::build(&trained, &symptoms, &source, None)
        };
        let published = publish_snapshot(&store, &telemetry, snapshot);
        println!(
            "published policy v{} ({}): {} entries, {} advised states",
            published.version(),
            published.hash(),
            published.entries(),
            published.advised_states()
        );
        if let Some(health) = telemetry.health() {
            health.set_phase("serving");
        }
        linger(serve_for);
        drain_daemon(&daemon, session);
        return Ok(());
    }

    // Loop mode: run the continuous loop beside the daemon and hot-swap
    // a fresh snapshot after every successfully retrained window. Knobs,
    // seeding, and fault flags match `autorecover loop` exactly, so an
    // unobserved loop with the same flags reproduces the served policy
    // byte for byte.
    let windows: usize = args.flag_or("windows", 4usize)?;
    let scale: f64 = args.flag_or("scale", 0.02f64)?;
    let seed: u64 = args.flag_or("seed", 0x2007_D50Au64)?;
    let threads = parse_threads(args)?;
    let policy_out = args.flag("policy-out").map(str::to_owned);
    if windows < 2 {
        return Err("--windows must be at least 2".into());
    }
    let generator = GeneratorConfig::paper_scale(scale).with_seed(seed);
    let catalog_seed = generator.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0CA7_A106;
    let catalog = generator.catalog.generate(catalog_seed);
    let config = ContinuousLoopConfig {
        windows,
        seed,
        threads,
        faults: parse_fault_plan(args)?,
        ..ContinuousLoopConfig::new(generator.cluster)
    };
    session.info(&format!(
        "running {windows} observation windows of {} machines beside the daemon ...",
        config.cluster.machines
    ));
    let (mut durable, _) = open_loop_controls(args)?;
    if let Some(durable) = &durable {
        // A restarted durable server answers from its last trained state
        // before the first window of this run completes: republish the
        // newest checkpoint's policy immediately.
        if let Some(checkpoint) = durable.best_checkpoint() {
            let mut symptoms = catalog.symptoms().clone();
            match checkpoint.policy(&mut symptoms) {
                Ok(Some(policy)) => {
                    let snapshot = PolicySnapshot::build(
                        &policy,
                        &symptoms,
                        &format!("checkpoint:{}", checkpoint.seq),
                        None,
                    );
                    let published = publish_snapshot(&store, &telemetry, snapshot);
                    println!(
                        "restored policy v{} ({}) from checkpoint {}",
                        published.version(),
                        published.hash(),
                        checkpoint.seq
                    );
                }
                Ok(None) => {}
                Err(e) => return Err(format!("checkpoint {}: {e}", checkpoint.seq)),
            }
        }
    }
    let mut controls = LoopControls {
        stop: Some(crate::signal::stop_flag()),
        durable: durable.as_mut(),
    };
    let run = run_loop_with_convergence(
        &catalog,
        &config,
        &telemetry,
        &mut |publication| {
            if let Some(policy) = publication.policy {
                let snapshot = PolicySnapshot::build(
                    policy,
                    catalog.symptoms(),
                    &format!("window:{}", publication.window),
                    Some(publication.accumulated),
                );
                let published = publish_snapshot(&store, &telemetry, snapshot);
                session.info(&format!(
                    "window {}: published policy v{} ({})",
                    publication.window,
                    published.version(),
                    published.hash()
                ));
            } else {
                session.info(&format!(
                    "window {}: {} — keeping last-good policy v{}",
                    publication.window,
                    publication.status.label(),
                    store.version()
                ));
            }
        },
        &mut controls,
    )?;
    println!(
        "loop complete: {} windows, serving policy v{}",
        run.outcomes.len(),
        store.version()
    );
    if !run.interrupted {
        if let Some(durable) = &durable {
            let report = render_run_report(&run, &config, &catalog, &telemetry);
            durable::write_atomic(durable.dir(), "run-report.json", report.as_bytes())
                .map_err(|e| format!("writing run-report.json: {e}"))?;
        }
    }
    if let Some(out) = policy_out {
        if run.interrupted && run.policy.is_none() {
            println!("--policy-out skipped: interrupted before any retraining step");
        } else {
            let policy = run
                .policy
                .as_ref()
                .ok_or("--policy-out: no window completed a retraining step, nothing to write")?;
            let text = policy_to_text(policy, catalog.symptoms());
            fs::write(&out, &text).map_err(|e| format!("writing {out}: {e}"))?;
            println!("wrote {out}: {} state-action entries", policy.q().len());
        }
    }
    // The phase flip is the external signal that the loop (and any
    // --policy-out write) is done and only serving remains.
    if let Some(health) = telemetry.health() {
        health.set_phase("serving");
    }
    if !run.interrupted {
        linger(serve_for);
    }
    drain_daemon(&daemon, session);
    Ok(())
}

/// Drains the daemon for shutdown: quiesce, wait for in-flight handlers
/// (bounded), stop. The bound keeps a wedged client from pinning the
/// process forever; a clean drain is the overwhelmingly common case.
fn drain_daemon(daemon: &ServeDaemon, session: &Session) {
    let drained = daemon.drain(Duration::from_secs(10));
    if drained {
        session.info("daemon drained cleanly");
    } else {
        session.info(&format!(
            "drain timed out with {} handlers still in flight",
            daemon.inflight()
        ));
    }
}

/// `autorecover fsck` — offline validation of a `loop --state-dir`
/// directory: checkpoint checksums and monotonicity, journal continuity,
/// and checkpoint/journal agreement.
pub fn fsck(args: &Args, _session: &Session) -> Result<(), String> {
    let dir = args
        .positional(0)
        .ok_or("fsck needs a STATE_DIR argument")?;
    let report = durable::fsck(Path::new(dir))?;
    for verdict in &report.checkpoints {
        match &verdict.result {
            Ok(summary) => println!(
                "{}: ok (seq {}, next window {}, {} journal records, policy {})",
                verdict.file,
                summary.seq,
                summary.next_window,
                summary.journal_records,
                if summary.has_policy { "yes" } else { "no" }
            ),
            Err(e) => println!("{}: CORRUPT — {e}", verdict.file),
        }
    }
    match &report.journal_tail_error {
        None => println!("journal: {} records, clean tail", report.journal_records),
        Some(tail) => println!(
            "journal: {} valid records, TORN TAIL — {tail}",
            report.journal_records
        ),
    }
    if report.ok() {
        println!("state dir is healthy");
        Ok(())
    } else {
        for issue in &report.issues {
            eprintln!("issue: {issue}");
        }
        Err(format!(
            "{} issue(s) found — resume will fall back to the last valid checkpoint",
            report.issues.len()
        ))
    }
}
