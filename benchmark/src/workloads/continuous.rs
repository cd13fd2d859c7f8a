//! `loop`: the Figure-1 cycle as `autorecover loop --state-dir` runs it —
//! simulate a window, ingest it, retrain with the selection tree, journal
//! and checkpoint, publish a snapshot. Most of its time goes to
//! retraining over the growing corpus, cluster simulation and the
//! durable layer's fsyncs; it never parses log text or serves HTTP.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use recovery_core::durable::{fsck, DurableLoop};
use recovery_core::persist::policy_to_text;
use recovery_core::pipeline::{
    run_continuous_loop_controlled, ContinuousLoopConfig, LoopControls, WindowPublication,
};
use recovery_core::policy::TrainedPolicy;
use recovery_serve::{fingerprint, publish_snapshot, PolicySnapshot, PolicyStore};
use recovery_simlog::{FaultCatalog, GeneratorConfig, SymptomCatalog};
use recovery_telemetry::{ObserverHandle, Telemetry, TraceNode, TraceTree};

use super::serving::{Deployed, Registry};
use super::{fault_catalog, ms_since, repeat_for, repeat_setup, set_overhead, Ctx, THREADS};
use crate::metrics::Outcome;
use crate::stats::{self, ratio};

/// The inputs of a loop run: the fault catalog and the `loop` command's
/// configuration.
pub(super) struct LoopSetup {
    catalog: FaultCatalog,
    config: ContinuousLoopConfig,
}

/// Builds the catalog and configuration as `autorecover loop --scale S
/// --windows W --threads T` does, with `--seed` seeding the windows'
/// cluster histories.
pub(super) fn setup(ctx: &Ctx) -> LoopSetup {
    let config = ContinuousLoopConfig {
        windows: ctx.sizes.windows,
        seed: ctx.seed,
        threads: THREADS,
        ..ContinuousLoopConfig::new(GeneratorConfig::paper_scale(ctx.sizes.loop_scale).cluster)
    };
    LoopSetup {
        catalog: fault_catalog(),
        config,
    }
}

/// What a loop run tells the serving side about each publication.
pub(super) trait Deploy {
    /// The publish of `version` begins.
    fn publishing(&self, _version: u64) {}
    /// `snapshot` (of `policy`) is now served.
    fn published(
        &self,
        _snapshot: &Arc<PolicySnapshot>,
        _policy: &TrainedPolicy,
        _symptoms: &SymptomCatalog,
    ) {
    }
}

impl Deploy for () {}

impl Deploy for Registry {
    fn publishing(&self, version: u64) {
        Registry::publishing(self, version);
    }

    fn published(
        &self,
        snapshot: &Arc<PolicySnapshot>,
        policy: &TrainedPolicy,
        symptoms: &SymptomCatalog,
    ) {
        self.deploy(Deployed::new(snapshot.clone(), policy, symptoms));
    }
}

/// One loop run, timed from outside.
pub(super) struct LoopRun {
    pub(super) wall_ms: f64,
    /// Time inside the publish callback (snapshot build + publish).
    pub(super) callback_ms: f64,
    pub(super) build_ms: Vec<f64>,
    pub(super) publish_ms: Vec<f64>,
    /// Σ of the `loop.window.ms` histogram over this run (traced only).
    pub(super) window_ms: f64,
    /// The run's trace tree, rooted at the benchmark's `loop_run` span
    /// (traced only).
    pub(super) tree: Option<TraceTree>,
    pub(super) hash: String,
    pub(super) policy_bytes: usize,
    pub(super) mttr_ratio: f64,
    /// Every window trained, none fell back, and a policy came out.
    pub(super) ok: bool,
}

impl LoopRun {
    /// Σ of the run's direct `loop_run` children named in `names`, ms.
    pub(super) fn span_ms(&self, names: &[&str]) -> f64 {
        self.tree.as_ref().map_or(0.0, |tree| {
            tree.root
                .children
                .iter()
                .filter(|c| names.contains(&c.name.as_str()))
                .map(|c| c.ms)
                .sum()
        })
    }
}

/// Σ of the loop's `loop.window.ms` histogram so far (0 untraced).
fn window_ms_total(telemetry: &Telemetry) -> f64 {
    telemetry
        .snapshot()
        .and_then(|s| s.histograms.get("loop.window.ms").map(|h| h.sum))
        .unwrap_or(0.0)
}

/// Runs the loop once, publishing every trained window's snapshot (with
/// its replay plane) into `store`.
pub(super) fn run_loop(
    setup: &LoopSetup,
    threads: usize,
    telemetry: &Telemetry,
    store: &PolicyStore,
    deploy: &dyn Deploy,
    durable: Option<&mut DurableLoop>,
) -> Result<LoopRun, String> {
    let config = ContinuousLoopConfig {
        threads,
        ..setup.config.clone()
    };
    let symptoms = setup.catalog.symptoms();
    let mut build_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut callback_ms = 0.0;
    let mut publish = |publication: WindowPublication<'_>| {
        let entered = Instant::now();
        if let Some(policy) = publication.policy {
            deploy.publishing(store.version() + 1);
            let t = Instant::now();
            let snapshot = PolicySnapshot::build(
                policy,
                symptoms,
                &format!("window:{}", publication.window),
                Some(publication.accumulated),
            );
            build_ms.push(ms_since(t));
            let t = Instant::now();
            let published = publish_snapshot(store, telemetry, snapshot);
            publish_ms.push(ms_since(t));
            deploy.published(&published, policy, symptoms);
        }
        callback_ms += ms_since(entered);
    };
    let windows_before = window_ms_total(telemetry);
    let mut controls = LoopControls {
        stop: None,
        durable,
    };
    let started = Instant::now();
    let root = telemetry.span("loop_run");
    let trace = root.trace_id();
    let run = run_continuous_loop_controlled(
        &setup.catalog,
        &config,
        telemetry,
        &mut |_| ObserverHandle::none(),
        &mut publish,
        &mut controls,
    )?;
    drop(root);
    let wall_ms = ms_since(started);
    let tree = trace.and_then(|id| telemetry.trace_tree(id));
    let window_ms = window_ms_total(telemetry) - windows_before;

    let text = run
        .policy
        .as_ref()
        .map(|p| policy_to_text(p, symptoms))
        .unwrap_or_default();
    // Window 0 runs the production ladder; every later window runs a
    // learned policy. Their mean MTTR over window 0's is steadier across
    // seeds than the last window's alone.
    let mttr: Vec<f64> = run.outcomes.iter().map(|w| w.mttr.as_secs_f64()).collect();
    let baseline = mttr.first().copied().unwrap_or(0.0);
    let learned = stats::mean(mttr.get(1..).unwrap_or_default()).unwrap_or(0.0);
    let ok = !run.interrupted
        && run.policy.is_some()
        && run.outcomes.len() == config.windows
        && run.outcomes.iter().all(|w| w.status.is_trained());
    Ok(LoopRun {
        wall_ms,
        callback_ms,
        build_ms,
        publish_ms,
        window_ms,
        tree,
        hash: fingerprint(text.as_bytes()),
        policy_bytes: text.len(),
        mttr_ratio: ratio(learned, baseline),
        ok,
    })
}

/// Adds each node's self time (its duration minus its children's,
/// floored at 0 where parallel children overlap) under its `;`-joined
/// stack, in microseconds: the folded format flame-graph tools read.
pub(super) fn fold(node: &TraceNode, stack: &str, folded: &mut BTreeMap<String, f64>) {
    let path = if stack.is_empty() {
        node.name.clone()
    } else {
        format!("{stack};{}", node.name)
    };
    let children: f64 = node.children.iter().map(|c| c.ms).sum();
    *folded.entry(path.clone()).or_default() += (node.ms - children).max(0.0) * 1e3;
    for child in &node.children {
        fold(child, &path, folded);
    }
}

/// Renders a folded profile, one `stack micros` line per stack.
pub(super) fn folded_text(folded: &BTreeMap<String, f64>) -> String {
    folded
        .iter()
        .map(|(stack, us)| format!("{stack} {}\n", us.round() as u64))
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A durable run in a fresh state directory, checked with `fsck`.
struct DurableRun {
    run: LoopRun,
    bytes_written: u64,
    checkpoints: u64,
    fsck_ok: bool,
}

fn durable_run(
    ctx: &Ctx,
    setup: &LoopSetup,
    index: usize,
    threads: usize,
    telemetry: &Telemetry,
    store: &PolicyStore,
) -> Result<DurableRun, String> {
    let dir = ctx.work_dir.join(format!("state-{index}-t{threads}"));
    let mut durable = DurableLoop::open(&dir)?;
    let run = run_loop(setup, threads, telemetry, store, &(), Some(&mut durable))?;
    let fsck_ok = fsck(&dir)?.ok();
    let bytes_written = dir_bytes(&dir);
    let checkpoints = telemetry
        .registry()
        .map_or(0, |r| r.counter("durable.checkpoint.written").get());
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(DurableRun {
        run,
        bytes_written,
        checkpoints,
        fsck_ok,
    })
}

pub(super) fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, setup) = repeat_setup(ctx, || Ok(setup(ctx)))?;
    out.set_median("setup_s", &setup_s, 1.0);
    out.set_median("simlog.generate_ms", &setup_s, 1e3);

    let threads = THREADS;
    let store = PolicyStore::new();
    let warm = durable_run(ctx, &setup, 0, threads, &Telemetry::disabled(), &store)?;
    out.record(warm.run.ok && warm.fsck_ok);
    let reference = warm.run.hash.clone();
    let check = |out: &mut Outcome, r: &DurableRun, what: &str| {
        out.record(r.run.ok);
        out.require(r.fsck_ok, || format!("{what}: fsck found issues"));
        out.require(r.run.hash == reference, || {
            format!(
                "{what}: policy hash {} drifted from {reference}",
                r.run.hash
            )
        });
    };

    // A traced run alternates untraced and traced runs, then spends the
    // rest of its budget on a threads-1 arm for the pool speedup.
    let main_budget = if ctx.trace {
        ctx.budget().mul_f64(0.6)
    } else {
        ctx.budget()
    };
    let mut untraced: Vec<DurableRun> = Vec::new();
    let mut traced: Vec<DurableRun> = Vec::new();
    let min = ctx.sizes.min_ops * if ctx.trace { 2 } else { 1 };
    repeat_for(main_budget, min, |i| {
        let with_trace = ctx.trace && i % 2 == 1;
        let telemetry = if with_trace {
            Telemetry::new()
        } else {
            Telemetry::disabled()
        };
        let r = durable_run(ctx, &setup, i + 1, threads, &telemetry, &store)?;
        check(&mut out, &r, &format!("loop run {i}"));
        if with_trace {
            traced.push(r);
        } else {
            untraced.push(r);
        }
        Ok(())
    })?;

    let walls: Vec<f64> = untraced.iter().map(|r| r.run.wall_ms).collect();
    out.set_median("run_s", &walls, 1e-3);
    // Observation windows completed per second, at the median run.
    let windows = setup.config.windows as f64;
    let rates: Vec<f64> = walls.iter().map(|ms| ratio(windows, ms / 1e3)).collect();
    out.set_median("throughput_per_s", &rates, 1.0);
    let ratios: Vec<f64> = untraced.iter().map(|r| r.run.mttr_ratio).collect();
    out.set_median("cost_ratio", &ratios, 1.0);

    if ctx.trace {
        let mut single: Vec<f64> = Vec::new();
        repeat_for(ctx.budget().mul_f64(0.4), ctx.sizes.min_ops, |i| {
            let r = durable_run(ctx, &setup, 1000 + i, 1, &Telemetry::disabled(), &store)?;
            check(&mut out, &r, &format!("threads-1 loop run {i}"));
            single.push(r.run.wall_ms);
            Ok(())
        })?;
        if let (Some(t1), Some(t2)) = (stats::median(&single), stats::median(&walls)) {
            out.set("pool.speedup", ratio(t1, t2), single.len());
        }
        let runs: Vec<&LoopRun> = traced.iter().map(|r| &r.run).collect();
        report_loop_layers(&mut out, &runs, &walls);
        let column = |f: fn(&DurableRun) -> f64| -> Vec<f64> { traced.iter().map(f).collect() };
        out.set_median(
            "durable.record_ms",
            &column(|r| r.run.wall_ms - r.run.window_ms - r.run.callback_ms),
            1.0,
        );
        out.set_median(
            "durable.bytes_written",
            &column(|r| r.bytes_written as f64),
            1.0,
        );
        out.set_median(
            "durable.checkpoints",
            &column(|r| r.checkpoints as f64),
            1.0,
        );
        if let Some(path) = &ctx.profile_out {
            let mut folded = BTreeMap::new();
            for tree in runs.iter().filter_map(|r| r.tree.as_ref()) {
                fold(&tree.root, "", &mut folded);
            }
            std::fs::write(path, folded_text(&folded))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok(out)
}

/// The per-layer metrics of traced loop runs, read from their spans, the
/// `loop.window.ms` histogram and the timed publish callback; the tracing
/// overhead is their median wall time over `untraced_walls`'.
pub(super) fn report_loop_layers(out: &mut Outcome, traced: &[&LoopRun], untraced_walls: &[f64]) {
    let column =
        |f: &dyn Fn(&LoopRun) -> f64| -> Vec<f64> { traced.iter().map(|r| f(r)).collect() };
    let spans = |names: &'static [&'static str]| column(&move |r| r.span_ms(names));
    out.set_median("simlog.simulate_ms", &spans(&["simulate_window"]), 1.0);
    out.set_median(
        "ingest.split_ms",
        &spans(&["split_shards", "merge_processes"]),
        1.0,
    );
    out.set_median("selection_tree.retrain_ms", &spans(&["retrain"]), 1.0);
    out.set_median("loop.window_ms", &column(&|r| r.window_ms), 1.0);
    out.set_median(
        "persist.policy_bytes",
        &column(&|r| r.policy_bytes as f64),
        1.0,
    );
    let builds: Vec<f64> = traced.iter().flat_map(|r| r.build_ms.clone()).collect();
    out.set_median("serve.snapshot_build_ms", &builds, 1.0);
    let publishes: Vec<f64> = traced.iter().flat_map(|r| r.publish_ms.clone()).collect();
    out.set_median("serve.publish_ms", &publishes, 1.0);
    let named = [
        "simulate_window",
        "split_shards",
        "merge_processes",
        "retrain",
    ];
    let covered = column(&|r| ratio(r.span_ms(&named) + r.callback_ms, r.wall_ms));
    out.set_median("attribution.covered_frac", &covered, 1.0);
    set_overhead(out, &column(&|r| r.wall_ms), untraced_walls);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, ms: f64, children: Vec<TraceNode>) -> TraceNode {
        TraceNode {
            id: 0,
            name: name.into(),
            ms,
            children,
        }
    }

    #[test]
    fn folding_charges_self_time_to_each_stack() {
        let tree = node(
            "loop_run",
            10.0,
            vec![
                node("simulate_window", 3.0, vec![]),
                node(
                    "retrain",
                    5.0,
                    vec![node("type1", 4.0, vec![]), node("type2", 3.0, vec![])],
                ),
            ],
        );
        let mut folded = BTreeMap::new();
        fold(&tree, "", &mut folded);
        assert_eq!(
            folded_text(&folded),
            "loop_run 2000\nloop_run;retrain 0\nloop_run;retrain;type1 4000\n\
             loop_run;retrain;type2 3000\nloop_run;simulate_window 3000\n"
        );
    }
}
