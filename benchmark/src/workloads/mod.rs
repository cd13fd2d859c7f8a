//! The four workloads and what they share: sizes, the timing loop, the
//! seeded generator and process-level readings.

mod advise;
mod continuous;
mod offline;
mod serve_reload;
mod serving;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use recovery_simlog::{ClusterSim, FaultCatalog, GeneratorConfig, RecoveryLog};

use crate::metrics::Outcome;
use crate::stats;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's batch path: log text to a deployable policy snapshot.
    Offline,
    /// The Figure-1 cycle with durable state and snapshot publication.
    Loop,
    /// The serving read path against a fixed snapshot.
    Advise,
    /// The serving read path while the loop retrains and hot-swaps.
    ServeReload,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Offline,
        Workload::Loop,
        Workload::Advise,
        Workload::ServeReload,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Offline => "offline",
            Workload::Loop => "loop",
            Workload::Advise => "advise",
            Workload::ServeReload => "serve_reload",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] runs every code path in well under a second.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `GeneratorConfig::paper_scale` of the offline log.
    pub offline_scale: f64,
    /// `paper_scale` of the log the served policy is trained on.
    pub advise_scale: f64,
    /// `paper_scale` of the loop's simulated cluster.
    pub loop_scale: f64,
    /// Observation windows per loop run.
    pub windows: usize,
    /// Fewest timed operations per measured arm, however long they take.
    pub min_ops: usize,
    /// Fewest set-ups a run repeats to report their median.
    pub min_setups: usize,
    /// Whether the closed loop must gather enough samples for a p99.
    pub require_p99: bool,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            offline_scale: 1.0,
            advise_scale: 0.25,
            loop_scale: 0.1,
            windows: 6,
            min_ops: 3,
            min_setups: 7,
            require_p99: true,
        }
    }

    /// Minimal sizes for the smoke test.
    pub fn tiny() -> Sizes {
        Sizes {
            offline_scale: 0.01,
            advise_scale: 0.01,
            loop_scale: 0.01,
            windows: 2,
            min_ops: 1,
            min_setups: 2,
            require_p99: false,
        }
    }
}

/// What one measured run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed part runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Scratch directory for durable state; removed afterwards.
    pub work_dir: PathBuf,
    /// Where a traced loop run writes its folded self-time profile.
    pub profile_out: Option<PathBuf>,
}

impl Ctx {
    fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Measures one workload.
///
/// # Errors
///
/// Returns a message when the workload cannot run at all (a bind or I/O
/// failure); wrong answers are counted in the [`Outcome`] instead.
pub fn measure(workload: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.work_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.work_dir.display()))?;
    let _cleanup = RemoveOnDrop(&ctx.work_dir);
    let mut outcome = match workload {
        Workload::Offline => offline::measure(ctx),
        Workload::Loop => continuous::measure(ctx),
        Workload::Advise => advise::measure(ctx),
        Workload::ServeReload => serve_reload::measure(ctx),
    }?;
    if !ctx.trace {
        let mb = crate::alloc::peak_bytes() as f64 / (1024.0 * 1024.0);
        outcome.set("peak_heap_mb", mb, 1);
    }
    Ok(outcome)
}

/// Removes a run's work directory, and its parent once no other run's
/// directory is left in it.
struct RemoveOnDrop<'a>(&'a Path);

impl Drop for RemoveOnDrop<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while the parent is not empty.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Seed of the fault catalog: the population `autorecover generate`
/// draws from by default.
const CATALOG_SEED: u64 = 0x2007_D50A;

/// The fault catalog of every workload. `--seed` picks the cluster's
/// history — which faults strike which machine when — but not the fault
/// population, so every seed exercises the same system at the same size
/// and a timing's spread across seeds is noise, not input size.
fn fault_catalog() -> FaultCatalog {
    let seed = CATALOG_SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0CA7_A106;
    GeneratorConfig::paper_scale(1.0).catalog.generate(seed)
}

/// The recovery log of a `paper_scale(scale)` cluster over the fault
/// catalog, run under the production ladder with history `seed`.
fn generate_log(scale: f64, seed: u64) -> RecoveryLog {
    let config = GeneratorConfig::paper_scale(scale);
    ClusterSim::new(&fault_catalog(), config.policy, config.cluster, seed)
        .run()
        .0
}

/// Worker threads of ingestion, training and the loop: one per core of
/// the 2-core host the baseline was measured on.
const THREADS: usize = 2;

/// Noise-filter threshold and trained error types: the paper's settings.
const MINP: f64 = 0.1;
const TOP_K: usize = 40;
/// Chronological share of clean processes a policy is trained on.
const TRAIN_FRACTION: f64 = 0.4;
/// Attempt budget of a replayed recovery (the paper's N).
const MAX_ATTEMPTS: usize = 20;

/// A run repeats its set-up at least `Sizes::min_setups` times to report
/// the median, and keeps repeating a cheap one until this share of the
/// run's budget (1 s of a 20 s run) was spent on it. The host's speed
/// changes for seconds at a time, so a median over a second of set-ups
/// is steadier than one over a short burst.
const SETUP_SPEND_PER_BUDGET: u32 = 20;
/// Most set-ups a run repeats.
const MAX_SETUPS: usize = 10_000;

/// Runs `setup` at least `ctx.sizes.min_setups` times, and more while less than a
/// [`SETUP_SPEND_PER_BUDGET`]th of the run's budget has been spent;
/// returns each duration in seconds and the last result.
fn repeat_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let spend = ctx.budget() / SETUP_SPEND_PER_BUDGET;
    let mut times: Vec<f64> = Vec::new();
    let mut spent = Duration::ZERO;
    let mut last = None;
    while times.len() < ctx.sizes.min_setups || (spent < spend && times.len() < MAX_SETUPS) {
        // The previous set-up (a bound daemon, a generated log) is
        // released before the next one starts, so the heap never holds
        // two, and outside the timed region.
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        let took = started.elapsed();
        spent += took;
        times.push(took.as_secs_f64());
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Calls `op(i)` for i = 0, 1, … until `budget` has passed and at least
/// `min` calls were made, but starts no call after `3 × budget + 60 s`
/// so a slow host still finishes. Returns the calls made.
fn repeat_for(
    budget: Duration,
    min: usize,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let started = Instant::now();
    let cap = budget * 3 + Duration::from_secs(60);
    let mut i = 0;
    while (started.elapsed() < budget || i < min) && started.elapsed() < cap {
        op(i)?;
        i += 1;
    }
    Ok(i)
}

/// Records the tracing overhead: the median traced time over the median
/// untraced one, minus 1.
fn set_overhead(out: &mut Outcome, traced: &[f64], untraced: &[f64]) {
    if let (Some(t), Some(u)) = (stats::median(traced), stats::median(untraced)) {
        out.set(
            "telemetry.overhead_frac",
            stats::ratio(t, u) - 1.0,
            traced.len(),
        );
    }
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// SplitMix64: a tiny seeded generator for request streams, so the
/// benchmark's inputs depend on `--seed` alone.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        assert!((0..100).all(|_| Rng::new(3).below(5) < 5));
    }

    #[test]
    fn repeat_setup_holds_one_set_up_at_a_time() {
        struct Live<'a>(&'a std::cell::Cell<usize>);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            trace: false,
            sizes: Sizes::tiny(),
            work_dir: PathBuf::new(),
            profile_out: None,
        };
        let live = std::cell::Cell::new(0);
        let mut most_live = 0;
        let (times, last) = repeat_setup(&ctx, || {
            live.set(live.get() + 1);
            most_live = most_live.max(live.get());
            Ok(Live(&live))
        })
        .unwrap();
        drop(last);
        assert_eq!(times.len(), ctx.sizes.min_setups);
        assert_eq!(most_live, 1, "a set-up overlapped the previous one");
        assert_eq!(live.get(), 0);
    }

    #[test]
    fn repeat_for_honours_the_minimum() {
        let calls = repeat_for(Duration::ZERO, 3, |_| Ok(())).unwrap();
        assert_eq!(calls, 3);
        let calls = repeat_for(Duration::from_millis(20), 1, |_| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(())
        })
        .unwrap();
        assert!(calls >= 3, "{calls}");
    }
}
