//! [`TrainingRecord`]: everything one error type's training run shows
//! its observers. The worker training the type owns it and fills it with
//! plain writes, so nothing on the per-sweep path is shared between
//! workers and a record is a pure function of the seeded run whatever
//! the thread count.

/// Every how many sweeps of a learner run a record keeps the
/// [`SweepSample`] (the `sweep` events of the metrics observer).
pub const SWEEP_SAMPLE_EVERY: u64 = 1_000;

/// Deterministic stride-doubling downsampler: keeps every `stride`-th
/// sample and doubles the stride whenever the kept set reaches twice the
/// target, thinning to the even-indexed half. The kept set depends only
/// on the input sequence — no randomness, no timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Downsampler {
    target: usize,
    stride: u64,
    seen: u64,
    kept: Vec<(u64, f64)>,
}

impl Downsampler {
    /// A downsampler keeping between `target` and `2 * target` points.
    pub fn new(target: usize) -> Self {
        Downsampler {
            target: target.max(2),
            stride: 1,
            seen: 0,
            kept: Vec::new(),
        }
    }

    /// Records the next sample; `index` is its 1-based position label.
    pub fn push(&mut self, index: u64, value: f64) {
        if self.seen.is_multiple_of(self.stride) {
            self.kept.push((index, value));
            if self.kept.len() >= 2 * self.target {
                let mut i = 0usize;
                self.kept.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// The kept `(index, value)` points, in push order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.kept
    }
}

/// The per-sweep detail a record keeps only when an observer asks for it
/// ([`TrainingRecord::keep_curves`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCurves {
    /// Downsampled `(sweep, max Q-delta)` curve.
    pub q_delta: Downsampler,
    /// Downsampled `(sweep, temperature)` schedule.
    pub temperature: Downsampler,
    /// Every episode's downtime cost, in episode order.
    pub episode_costs: Vec<f64>,
}

/// One sweep as its learner run saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSample {
    /// The sweep's 1-based index in its learner run. Each chunk of a
    /// selection-tree run counts from 1 again.
    pub sweep: u64,
    /// The Boltzmann temperature the sweep explored at.
    pub temperature: f64,
    /// The largest absolute Q-value change the sweep applied.
    pub max_q_delta: f64,
}

/// Replayed repair attempts, tallied by the replay environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayTally {
    /// Simulated repair attempts.
    pub attempts: u64,
    /// Attempts that cured the fault (the H1/H2 verdict).
    pub cured: u64,
    /// Attempts charged their logged cost rather than the type average.
    pub from_log: u64,
}

impl ReplayTally {
    /// Counts one attempt.
    #[inline]
    pub fn attempt(&mut self, cured: bool, from_log: bool) {
        self.attempts += 1;
        self.cured += u64::from(cured);
        self.from_log += u64::from(from_log);
    }
}

/// One error type's training run as its observers see it.
///
/// Created for the worker by [`ObserverHandle::record`](crate::ObserverHandle::record)
/// (which announces it through `training_started`), filled across every
/// learner run of the type — all chunks of a selection-tree run feed one
/// record, on one monotone sweep axis — and handed to the observers by
/// `training_finished`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingRecord {
    /// The type label (`type<N>`).
    pub label: String,
    /// Training processes the type trains on.
    pub processes: usize,
    /// Sweeps run: counted by the learner as it goes, and set to the
    /// trainer's total when the record is handed over.
    pub sweeps: u64,
    /// Episodes walked (one per sweep).
    pub episodes: u64,
    /// Actions taken over all episodes.
    pub episode_steps: u64,
    /// The longest episode, in actions.
    pub max_episode_steps: u64,
    /// Convergence-window checks run.
    pub convergence_checks: u64,
    /// The calm streak at the last convergence check.
    pub last_calm_sweeps: u64,
    /// Whether the learner's convergence window fired. A selection-tree
    /// run stops on candidate stability instead, so there this stays
    /// false even when [`TrainingRecord::converged`] is true.
    pub window_converged: bool,
    /// The trainer's verdict: converged before the sweep cap.
    pub converged: bool,
    /// The temperature of the last sweep.
    pub final_temperature: f64,
    /// The largest Q change of the last sweep.
    pub final_q_delta: f64,
    /// Every [`SWEEP_SAMPLE_EVERY`]-th sweep of each learner run.
    pub sweep_samples: Vec<SweepSample>,
    /// The replayed attempts.
    pub replays: ReplayTally,
    /// Curves and episode costs, when an observer asked for them.
    pub curves: Option<TrainingCurves>,
}

impl TrainingRecord {
    /// An empty record for `label` over `processes` training processes.
    pub fn new(label: String, processes: usize) -> Self {
        TrainingRecord {
            label,
            processes,
            ..TrainingRecord::default()
        }
    }

    /// Keeps downsampled curves of at most about `points` points each,
    /// plus every episode's cost, from here on.
    pub fn keep_curves(&mut self, points: usize) {
        self.curves = Some(TrainingCurves {
            q_delta: Downsampler::new(points),
            temperature: Downsampler::new(points),
            episode_costs: Vec::new(),
        });
    }

    /// One episode ended after `steps` actions costing `cost` in total.
    #[inline]
    pub fn episode(&mut self, steps: usize, cost: f64) {
        self.episodes += 1;
        self.episode_steps += steps as u64;
        self.max_episode_steps = self.max_episode_steps.max(steps as u64);
        if let Some(curves) = &mut self.curves {
            curves.episode_costs.push(cost);
        }
    }

    /// One sweep finished as `sample` describes it, leaving the calm
    /// streak at `calm_sweeps`; `converged` is the convergence window's
    /// verdict. The curves count sweeps on the record's own axis, which
    /// runs on across learner runs.
    #[inline]
    pub fn sweep(&mut self, sample: SweepSample, calm_sweeps: u64, converged: bool) {
        self.sweeps += 1;
        self.convergence_checks += 1;
        self.last_calm_sweeps = calm_sweeps;
        self.window_converged |= converged;
        self.final_temperature = sample.temperature;
        self.final_q_delta = sample.max_q_delta;
        if sample.sweep.is_multiple_of(SWEEP_SAMPLE_EVERY) {
            self.sweep_samples.push(sample);
        }
        if let Some(curves) = &mut self.curves {
            curves.temperature.push(self.sweeps, sample.temperature);
            curves.q_delta.push(self.sweeps, sample.max_q_delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_follow_each_learner_run_and_curves_only_on_request() {
        let mut bare = TrainingRecord::new("type1".into(), 3);
        let mut detailed = bare.clone();
        detailed.keep_curves(4);
        for record in [&mut bare, &mut detailed] {
            // Two learner runs, as a chunked selection-tree run makes.
            for _run in 0..2 {
                for sweep in 1..=1_500u64 {
                    record.episode(2, 10.0);
                    let temperature = 1.0 / sweep as f64;
                    let max_q_delta = 0.5;
                    record.sweep(
                        SweepSample {
                            sweep,
                            temperature,
                            max_q_delta,
                        },
                        sweep,
                        false,
                    );
                }
            }
        }
        assert!(bare.curves.is_none());
        assert_eq!(bare.sweeps, 3_000);
        let axis: Vec<u64> = bare.sweep_samples.iter().map(|s| s.sweep).collect();
        assert_eq!(axis, vec![1_000, 1_000]);
        assert_eq!(bare.sweep_samples[1].temperature, 1.0 / 1_000.0);
        assert_eq!(detailed.sweep_samples, bare.sweep_samples);
        let curves = detailed.curves.expect("requested");
        assert_eq!(curves.episode_costs.len(), 3_000);
        assert!(curves.q_delta.points().len() < 8);
        // The curves run on one axis across the runs.
        assert!(curves.q_delta.points().last().unwrap().0 > 1_500);
    }
}
