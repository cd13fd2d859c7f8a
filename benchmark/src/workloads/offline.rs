//! `offline`: the paper's batch path (Figs 8–12), from recovery-log text
//! to a deployable policy snapshot. Most of its time goes to ingestion,
//! the m-pattern noise filter and training; it never simulates, serves
//! HTTP or writes durable state, so a serving or durability change should
//! leave it unchanged.

use std::time::Instant;

use recovery_core::evaluate::{evaluate_parallel, time_ordered_split};
use recovery_core::experiment::ExperimentContext;
use recovery_core::ingest;
use recovery_core::parallel::WorkerPool;
use recovery_core::persist::policy_to_text;
use recovery_core::platform::{CostEstimation, SimulationPlatform};
use recovery_core::policy::{HybridPolicy, UserStatePolicy};
use recovery_core::trainer::{OfflineTrainer, TrainerConfig};
use recovery_serve::{fingerprint, PolicySnapshot};
use recovery_telemetry::Telemetry;

use super::{
    generate_log, ms_since, repeat_for, repeat_setup, set_overhead, Ctx, MAX_ATTEMPTS, MINP,
    THREADS, TOP_K, TRAIN_FRACTION,
};
use crate::alloc;
use crate::metrics::Outcome;
use crate::stats::ratio;

/// The timings and results of one pass, each layer timed by the call
/// into it.
struct Pass {
    total_ms: f64,
    parse_ms: f64,
    split_ms: f64,
    prepare_ms: f64,
    platform_build_ms: f64,
    train_ms: f64,
    replay_ms: f64,
    policy_text_ms: f64,
    snapshot_ms: f64,
    entries: usize,
    sweeps: u64,
    train_allocs: u64,
    test_processes: usize,
    relative_cost: f64,
    policy_bytes: usize,
    hash: String,
    ok: bool,
}

/// One reading taken from each pass.
type Field = fn(&Pass) -> f64;

impl Pass {
    fn layers_ms(&self) -> f64 {
        self.parse_ms
            + self.split_ms
            + self.prepare_ms
            + self.platform_build_ms
            + self.train_ms
            + self.replay_ms
            + self.policy_text_ms
            + self.snapshot_ms
    }
}

fn pass(text: &str, pool: &WorkerPool, telemetry: &Telemetry) -> Result<Pass, String> {
    let started = Instant::now();
    let t = Instant::now();
    let mut log = ingest::parse_log(text, pool, telemetry).map_err(|e| e.to_string())?;
    let parse_ms = ms_since(t);
    let t = Instant::now();
    let processes = ingest::split_processes(&mut log, pool, telemetry);
    let split_ms = ms_since(t);
    let t = Instant::now();
    let ctx = ExperimentContext::prepare(processes, MINP, TOP_K);
    let prepare_ms = ms_since(t);
    let (train, test) = time_ordered_split(&ctx.clean, TRAIN_FRACTION);
    let t = Instant::now();
    let trainer = OfflineTrainer::new(train, TrainerConfig::default())
        .with_threads(pool.threads())
        .with_observer(telemetry.observer_handle())
        .with_telemetry(telemetry.clone());
    let platform_build_ms = ms_since(t);
    let t = Instant::now();
    let allocs_before = alloc::total();
    let (policy, stats) = trainer.train(&ctx.types);
    let train_allocs = alloc::total() - allocs_before;
    let train_ms = ms_since(t);
    let t = Instant::now();
    let platform = SimulationPlatform::from_processes(train, CostEstimation::AverageOnly);
    let hybrid = HybridPolicy::new(policy.clone(), UserStatePolicy::default());
    let report = evaluate_parallel(&hybrid, &platform, test, &ctx.types, MAX_ATTEMPTS, pool);
    let replay_ms = ms_since(t);
    let t = Instant::now();
    let policy_text = policy_to_text(&policy, log.symptoms());
    let policy_text_ms = ms_since(t);
    let t = Instant::now();
    let snapshot = PolicySnapshot::build(&policy, log.symptoms(), "offline", None);
    let snapshot_ms = ms_since(t);
    let total_ms = ms_since(started);

    let hash = fingerprint(policy_text.as_bytes());
    let ok = !ctx.types.is_empty()
        && !policy.q().is_empty()
        && report.evaluated_processes() > 0
        && snapshot.hash() == hash
        && snapshot.advised_states() > 0;
    Ok(Pass {
        total_ms,
        parse_ms,
        split_ms,
        prepare_ms,
        platform_build_ms,
        train_ms,
        replay_ms,
        policy_text_ms,
        snapshot_ms,
        entries: log.len(),
        sweeps: stats.iter().map(|s| s.sweeps).sum(),
        train_allocs,
        test_processes: test.len(),
        relative_cost: report.overall_relative_cost(),
        policy_bytes: policy_text.len(),
        hash,
        ok,
    })
}

pub(super) fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, text) = repeat_setup(ctx, || {
        Ok(generate_log(ctx.sizes.offline_scale, ctx.seed).to_text())
    })?;
    out.set_median("setup_s", &setup_s, 1.0);
    out.set_median("simlog.generate_ms", &setup_s, 1e3);

    let pool = WorkerPool::new(THREADS);
    let warm = pass(&text, &pool, &Telemetry::disabled())?;
    out.record(warm.ok);
    let reference = warm.hash;

    // A traced run alternates untraced and traced passes so the tracing
    // overhead is measured under the same conditions.
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let min = ctx.sizes.min_ops * if ctx.trace { 2 } else { 1 };
    repeat_for(ctx.budget(), min, |i| {
        let with_trace = ctx.trace && i % 2 == 1;
        let telemetry = if with_trace {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let p = pass(&text, &pool, &telemetry)?;
        out.record(p.ok);
        if p.hash != reference {
            out.violations.push(format!(
                "offline pass {i}: policy hash {} drifted from {reference}",
                p.hash
            ));
        }
        if with_trace {
            traced.push(p);
        } else {
            untraced.push(p);
        }
        Ok(())
    })?;

    let column = |passes: &[Pass], f: Field| -> Vec<f64> { passes.iter().map(f).collect() };
    let totals = column(&untraced, |p| p.total_ms);
    out.set_median("run_s", &totals, 1e-3);
    // Log entries taken to a deployed snapshot per second, at the median
    // pass: the same median as `run_s`, in the unit an operator sizes by.
    out.set_median(
        "throughput_per_s",
        &column(&untraced, |p| ratio(p.entries as f64, p.total_ms / 1e3)),
        1.0,
    );
    out.set_median("cost_ratio", &column(&untraced, |p| p.relative_cost), 1.0);

    if ctx.trace {
        let layers: [(&str, Field); 14] = [
            ("ingest.parse_ms", |p| p.parse_ms),
            ("ingest.parse_entries_per_s", |p| {
                ratio(p.entries as f64, p.parse_ms / 1e3)
            }),
            ("ingest.split_ms", |p| p.split_ms),
            ("error_type.prepare_ms", |p| p.prepare_ms),
            ("trainer.platform_build_ms", |p| p.platform_build_ms),
            ("trainer.train_ms", |p| p.train_ms),
            ("trainer.sweeps_per_s", |p| {
                ratio(p.sweeps as f64, p.train_ms / 1e3)
            }),
            ("trainer.train_allocs", |p| p.train_allocs as f64),
            ("evaluate.replay_ms", |p| p.replay_ms),
            ("evaluate.processes_per_s", |p| {
                ratio(p.test_processes as f64, p.replay_ms / 1e3)
            }),
            ("persist.policy_text_ms", |p| p.policy_text_ms),
            ("persist.policy_bytes", |p| p.policy_bytes as f64),
            ("serve.snapshot_build_ms", |p| p.snapshot_ms),
            ("attribution.covered_frac", |p| {
                ratio(p.layers_ms(), p.total_ms)
            }),
        ];
        // Every layer here is timed by the benchmark's own call into it,
        // so the untraced passes give layer times that add up to `run_s`;
        // the traced passes only price the tracing.
        for (name, f) in layers {
            out.set_median(name, &column(&untraced, f), 1.0);
        }
        set_overhead(&mut out, &column(&traced, |p| p.total_ms), &totals);
    }
    Ok(out)
}
