//! `serve_reload`: the `advise` daemon and snapshot with writes beside the
//! reads. The `loop` configuration (without a state directory) runs back
//! to back and publishes every trained window into the daemon's store
//! while closed-loop clients keep asking for advice on the states of
//! whatever snapshot is current. A serving change that takes CPU from
//! training shows here and not in `advise`; so does a training change
//! that starves the request handlers.

use std::time::{Duration, Instant};

use recovery_telemetry::Telemetry;

use super::continuous::{self, run_loop, LoopRun};
use super::serving::{self, with_clients, Target};
use super::{repeat_for, repeat_setup, Ctx, THREADS};
use crate::metrics::Outcome;
use crate::stats::ratio;

/// Phase tags of client samples and policy lags.
const WARM: u32 = 0;
const UNTRACED: u32 = 1;
const TRACED: u32 = 2;
const DONE: u32 = 3;

/// One timed loop run under load.
struct Timed {
    run: LoopRun,
    traced: bool,
}

pub(super) fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut hashes = Vec::new();
    let (setup_s, (serving, loop_setup)) = repeat_setup(ctx, || {
        let s = serving::setup(ctx)?;
        hashes.push(s.hash.clone());
        Ok((s, continuous::setup(ctx)))
    })?;
    out.require(hashes.windows(2).all(|w| w[0] == w[1]), || {
        format!("serve_reload set-ups trained different policies: {hashes:?}")
    });
    out.set_median("setup_s", &setup_s, 1.0);
    out.set("simlog.generate_ms", serving.generate_ms, 1);

    // A traced run sends the traced loop runs' requests to a second,
    // traced daemon over the same store.
    let telemetry = Telemetry::new();
    let traced_daemon = if ctx.trace {
        Some(serving::bind(&serving.store, telemetry.clone())?)
    } else {
        None
    };
    let mut addrs = vec![serving.daemon.local_addr()];
    addrs.extend(traced_daemon.as_ref().map(|d| d.local_addr()));
    let target = Target::new(addrs);
    let registry = &serving.registry;

    let mut phase_s = [0.0_f64; 4];
    let (clients, runs) = with_clients(&target, registry, ctx.seed, || {
        let disabled = Telemetry::disabled();
        target.switch(0, WARM);
        let warm = run_loop(
            &loop_setup,
            THREADS,
            &disabled,
            &serving.store,
            registry,
            None,
        )?;
        let mut timed = Vec::new();
        let min = ctx.sizes.min_ops * if ctx.trace { 2 } else { 1 };
        repeat_for(ctx.budget(), min, |i| {
            let traced = ctx.trace && i % 2 == 1;
            let tag = if traced { TRACED } else { UNTRACED };
            let started = Instant::now();
            target.switch(usize::from(traced), tag);
            let handle = if traced { &telemetry } else { &disabled };
            let run = run_loop(&loop_setup, THREADS, handle, &serving.store, registry, None)?;
            phase_s[tag as usize] += started.elapsed().as_secs_f64();
            timed.push(Timed { run, traced });
            Ok(())
        })?;
        target.switch(0, DONE);
        Ok::<_, String>((warm, timed))
    });
    let (warm, timed) = runs?;
    if let Some(daemon) = &traced_daemon {
        daemon.drain(Duration::from_secs(5));
    }
    serving.daemon.drain(Duration::from_secs(5));

    out.tally(clients.attempted, clients.failed);
    out.record(warm.ok);
    for (i, t) in timed.iter().enumerate() {
        out.record(t.run.ok);
        out.require(t.run.hash == warm.hash, || {
            format!(
                "serve_reload run {i}: policy hash {} drifted from {}",
                t.run.hash, warm.hash
            )
        });
    }
    let untraced: Vec<&LoopRun> = timed.iter().filter(|t| !t.traced).map(|t| &t.run).collect();
    let traced: Vec<&LoopRun> = timed.iter().filter(|t| t.traced).map(|t| &t.run).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_ms).collect();
    out.set_median("run_s", &walls, 1e-3);
    let latencies = clients.latencies(|tag| tag == UNTRACED);
    let rps = ratio(latencies.len() as f64, phase_s[UNTRACED as usize]);
    out.set("throughput_per_s", rps, latencies.len());
    let ratios: Vec<f64> = untraced.iter().map(|r| r.mttr_ratio).collect();
    out.set_median("cost_ratio", &ratios, 1.0);

    if ctx.trace {
        serving::report_clients(&mut out, &latencies, rps);
        let lags = registry.lags(|tag| tag == UNTRACED);
        out.set_median("serve.policy_lag_ms", &lags, 1.0);
        continuous::report_loop_layers(&mut out, &traced, &walls);
        serving::report_daemon(
            &mut out,
            &telemetry,
            &clients.latencies(|tag| tag == TRACED),
        );
    }
    Ok(out)
}
