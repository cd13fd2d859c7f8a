//! `advise`: the serving read path. A recovery controller waits for
//! advice before it acts, so the main phase is a closed loop: each client
//! sends its next request only after the previous reply. All of its time
//! is in the daemon's accept, handler and store-read path; it trains
//! nothing after set-up.

use std::time::Duration;

use super::serving::{self, closed_phase, open_loop, Target};
use super::{repeat_setup, Ctx};
use crate::alloc;
use crate::metrics::Outcome;
use crate::stats::{self, ratio};

/// Closed-loop samples a p99 needs: ten beyond the 99th percentile.
const P99_SAMPLES: u64 = 100 * stats::BEYOND as u64;
/// Closed-loop warm-up before anything is timed.
const WARM_UP: Duration = Duration::from_secs(1);

pub(super) fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut hashes = Vec::new();
    let (setup_s, serving) = repeat_setup(ctx, || {
        let s = serving::setup(ctx)?;
        hashes.push(s.hash.clone());
        Ok(s)
    })?;
    out.require(hashes.windows(2).all(|w| w[0] == w[1]), || {
        format!("advise set-ups trained different policies: {hashes:?}")
    });
    out.set_median("setup_s", &setup_s, 1.0);
    out.set("simlog.generate_ms", serving.generate_ms, 1);
    out.set("cost_ratio", serving.cost_ratio, 1);
    out.set("serve.snapshot_build_ms", serving.build_ms, 1);
    out.set("serve.publish_ms", serving.publish_ms, 1);
    out.set("persist.policy_bytes", serving.policy_bytes as f64, 1);

    let registry = &serving.registry;
    let target = Target::new(vec![serving.daemon.local_addr()]);
    let (warm, _) = closed_phase(&target, registry, ctx.seed, WARM_UP.min(ctx.budget()), 0);
    out.tally(warm.attempted, warm.failed);

    // Phase A: closed loop against the untraced daemon. Allocations not
    // made by the client threads or this one are the daemon's. A traced
    // run keeps two fifths of its budget for phases T and B.
    let min_samples = if ctx.sizes.require_p99 {
        P99_SAMPLES
    } else {
        0
    };
    let budget = ctx.budget().mul_f64(if ctx.trace { 0.6 } else { 1.0 });
    let process_before = alloc::total();
    let main_before = alloc::this_thread();
    let (closed, elapsed) = closed_phase(
        &target,
        registry,
        ctx.seed.wrapping_add(1),
        budget,
        min_samples,
    );
    let daemon_allocs =
        alloc::total() - process_before - closed.allocs - (alloc::this_thread() - main_before);
    out.tally(closed.attempted, closed.failed);
    let latencies = closed.latencies(|_| true);
    let n = latencies.len();
    let rps = n as f64 / elapsed.as_secs_f64();
    out.set_median("run_s", &latencies, 1e-3);
    out.set("throughput_per_s", rps, n);
    if ctx.sizes.require_p99 {
        out.require(stats::tail_percentile(n) >= Some(99.0), || {
            format!("advise p99 needs {P99_SAMPLES} closed-loop samples, got {n}")
        });
    }

    if ctx.trace {
        serving::report_clients(&mut out, &latencies, rps);
        out.set(
            "serve.allocs_per_request",
            ratio(daemon_allocs as f64, n as f64),
            n,
        );

        // Phase T: the same closed loop against a traced daemon over the
        // same store, for the handler's own latency and the tracing cost.
        let telemetry = recovery_telemetry::Telemetry::new();
        let traced_daemon = serving::bind(&serving.store, telemetry.clone())?;
        let traced_target = Target::new(vec![traced_daemon.local_addr()]);
        let (traced, traced_elapsed) = closed_phase(
            &traced_target,
            registry,
            ctx.seed.wrapping_add(2),
            ctx.budget().mul_f64(0.2),
            0,
        );
        traced_daemon.drain(Duration::from_secs(5));
        out.tally(traced.attempted, traced.failed);
        let traced_latencies = traced.latencies(|_| true);
        let handler = serving::report_daemon(&mut out, &telemetry, &traced_latencies);
        if let (Some(handler), Some(client)) = (handler, stats::mean(&traced_latencies)) {
            let n = traced_latencies.len();
            out.set("attribution.covered_frac", ratio(handler, client), n);
        }
        let traced_rps = traced_latencies.len() as f64 / traced_elapsed.as_secs_f64();
        out.set(
            "telemetry.overhead_frac",
            ratio(rps, traced_rps) - 1.0,
            traced_latencies.len(),
        );

        // Phase B: open loop at a fixed rate, timed from each due time.
        let open = open_loop(
            serving.daemon.local_addr(),
            registry,
            ctx.budget().mul_f64(0.2),
            ctx.seed.wrapping_add(3),
        );
        out.tally(open.attempted, open.failed);
        if let Some(tail) = stats::tail(&open.latencies_ms) {
            out.set("client.open_tail_ms", tail.value, open.latencies_ms.len());
        }
        if let Some(late) = stats::mean(&open.late_ms) {
            out.set("client.open_late_ms", late, open.late_ms.len());
        }
    }
    serving.daemon.drain(Duration::from_secs(5));
    Ok(out)
}
