//! The [`TrainingObserver`] trait: hook points the training and replay
//! pipeline calls into.
//!
//! Training reports per type, not per sweep: the worker training a type
//! fills its own [`TrainingRecord`] and hands it over once, at
//! `training_finished`, so nothing an observer shares is touched on the
//! per-sweep path. Only evaluation replays still fire a hook per
//! attempt. Every hook has a no-op default body and takes `&self`
//! (implementations use interior atomics).

use crate::record::TrainingRecord;

/// Hook points fired once per trained error type and per evaluation
/// replay.
///
/// Implementations must be cheap and must not panic. All hooks are
/// observational only — they receive copies of scalar state or a
/// finished record and cannot influence training (in particular they
/// never touch the RNG, so attaching an observer cannot change a seeded
/// run's output).
pub trait TrainingObserver: Send + Sync {
    /// Training for one error type is starting; `record` is the worker's
    /// fresh record for it. An observer that wants the per-sweep curves
    /// asks for them here ([`TrainingRecord::keep_curves`]).
    fn training_started(&self, record: &mut TrainingRecord) {
        let _ = record;
    }

    /// Training for one error type finished; `record` holds everything
    /// the worker saw.
    fn training_finished(&self, record: &TrainingRecord) {
        let _ = record;
    }

    /// One evaluation replay attempt ran. `cured` is the H1/H2 verdict,
    /// `actual_cost` the downtime cost the platform charged for the
    /// attempt, and `from_log` tells whether that cost came from the
    /// logged occurrence (cache hit) or fell back to the per-type
    /// average (cache miss). Training attempts are tallied in the
    /// type's record instead.
    fn platform_replay(&self, cured: bool, actual_cost: f64, from_log: bool) {
        let _ = (cured, actual_cost, from_log);
    }

    /// A full policy replay of one process ended: `handled` within the
    /// attempt cap, taking `attempts` attempts and `total_cost` downtime.
    fn replay_end(&self, handled: bool, attempts: usize, total_cost: f64) {
        let _ = (handled, attempts, total_cost);
    }
}

/// A cheap, cloneable, optionally-attached observer handle.
///
/// Pipeline structs store one of these instead of a generic parameter;
/// it implements [`TrainingObserver`] itself by forwarding every hook to
/// the attached observer (or doing nothing when detached), so call sites
/// fire hooks unconditionally.
#[derive(Clone, Default)]
pub struct ObserverHandle(Option<std::sync::Arc<dyn TrainingObserver>>);

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ObserverHandle")
            .field(&if self.0.is_some() { "attached" } else { "none" })
            .finish()
    }
}

impl ObserverHandle {
    /// A handle forwarding to `observer`.
    pub fn attached(observer: std::sync::Arc<dyn TrainingObserver>) -> Self {
        ObserverHandle(Some(observer))
    }

    /// A detached handle; every hook is a no-op.
    pub fn none() -> Self {
        ObserverHandle(None)
    }

    /// Whether an observer is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// A fresh record for training `label` over `processes` processes,
    /// announced through `training_started`; `None` when detached, so an
    /// unobserved worker records nothing.
    pub fn record(&self, label: String, processes: usize) -> Option<TrainingRecord> {
        let observer = self.0.as_ref()?;
        let mut record = TrainingRecord::new(label, processes);
        observer.training_started(&mut record);
        Some(record)
    }

    /// A handle forwarding every hook to both `self` and `other`.
    ///
    /// Detached sides are elided, so fanning out with a detached handle
    /// returns the other side unchanged. This is how the diagnostics
    /// recorder rides along with the metrics observer on one trainer.
    pub fn fanout(&self, other: &ObserverHandle) -> ObserverHandle {
        match (self.is_attached(), other.is_attached()) {
            (false, _) => other.clone(),
            (_, false) => self.clone(),
            (true, true) => ObserverHandle::attached(std::sync::Arc::new(FanoutObserver {
                first: self.clone(),
                second: other.clone(),
            })),
        }
    }
}

/// Forwards every hook to two downstream handles, in order.
struct FanoutObserver {
    first: ObserverHandle,
    second: ObserverHandle,
}

impl TrainingObserver for FanoutObserver {
    fn training_started(&self, record: &mut TrainingRecord) {
        self.first.training_started(record);
        self.second.training_started(record);
    }

    fn training_finished(&self, record: &TrainingRecord) {
        self.first.training_finished(record);
        self.second.training_finished(record);
    }

    fn platform_replay(&self, cured: bool, actual_cost: f64, from_log: bool) {
        self.first.platform_replay(cured, actual_cost, from_log);
        self.second.platform_replay(cured, actual_cost, from_log);
    }

    fn replay_end(&self, handled: bool, attempts: usize, total_cost: f64) {
        self.first.replay_end(handled, attempts, total_cost);
        self.second.replay_end(handled, attempts, total_cost);
    }
}

impl TrainingObserver for ObserverHandle {
    fn training_started(&self, record: &mut TrainingRecord) {
        if let Some(observer) = &self.0 {
            observer.training_started(record);
        }
    }

    fn training_finished(&self, record: &TrainingRecord) {
        if let Some(observer) = &self.0 {
            observer.training_finished(record);
        }
    }

    fn platform_replay(&self, cured: bool, actual_cost: f64, from_log: bool) {
        if let Some(observer) = &self.0 {
            observer.platform_replay(cured, actual_cost, from_log);
        }
    }

    fn replay_end(&self, handled: bool, attempts: usize, total_cost: f64) {
        if let Some(observer) = &self.0 {
            observer.replay_end(handled, attempts, total_cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SweepSample;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Counts hooks; asks every record for curves.
    #[derive(Default)]
    struct CountingObserver {
        hooks: AtomicU64,
        last_cost_millis: AtomicU64,
        finished_sweeps: AtomicU64,
    }

    impl TrainingObserver for CountingObserver {
        fn training_started(&self, record: &mut TrainingRecord) {
            self.hooks.fetch_add(1, Ordering::Relaxed);
            record.keep_curves(8);
        }

        fn training_finished(&self, record: &TrainingRecord) {
            self.hooks.fetch_add(1, Ordering::Relaxed);
            self.finished_sweeps
                .fetch_add(record.sweeps, Ordering::Relaxed);
        }

        fn platform_replay(&self, _cured: bool, actual_cost: f64, _from_log: bool) {
            self.hooks.fetch_add(1, Ordering::Relaxed);
            self.last_cost_millis
                .store((actual_cost * 1e3) as u64, Ordering::Relaxed);
        }
    }

    #[test]
    fn default_hooks_are_callable_noops() {
        struct Silent;
        impl TrainingObserver for Silent {}
        let obs = ObserverHandle::attached(Arc::new(Silent));
        let mut record = obs.record("type0".into(), 10).expect("attached");
        assert!(record.curves.is_none(), "nobody asked for curves");
        let sample = SweepSample {
            sweep: 1,
            temperature: 300_000.0,
            max_q_delta: 0.5,
        };
        record.sweep(sample, 1, false);
        obs.training_finished(&record);
        obs.platform_replay(true, 42.0, true);
        obs.replay_end(true, 2, 99.0);
        assert!(ObserverHandle::none().record("type0".into(), 10).is_none());
    }

    #[test]
    fn fanout_forwards_to_both_sides() {
        let a = Arc::new(CountingObserver::default());
        let b = Arc::new(CountingObserver::default());
        let handle =
            ObserverHandle::attached(a.clone()).fanout(&ObserverHandle::attached(b.clone()));
        let mut record = handle.record("type1".into(), 4).expect("attached");
        assert!(record.curves.is_some(), "either side may ask for curves");
        let sample = SweepSample {
            sweep: 1,
            temperature: 1.0,
            max_q_delta: 0.5,
        };
        record.sweep(sample, 0, false);
        handle.training_finished(&record);
        handle.platform_replay(true, 1.5, false);
        assert_eq!(a.hooks.load(Ordering::Relaxed), 3);
        assert_eq!(b.hooks.load(Ordering::Relaxed), 3);
        // The finished record and the replayed cost reach each side
        // unchanged.
        assert_eq!(a.finished_sweeps.load(Ordering::Relaxed), 1);
        assert_eq!(b.finished_sweeps.load(Ordering::Relaxed), 1);
        assert_eq!(a.last_cost_millis.load(Ordering::Relaxed), 1500);
        assert_eq!(b.last_cost_millis.load(Ordering::Relaxed), 1500);
    }

    #[test]
    fn fanout_with_detached_side_elides_the_wrapper() {
        let a = Arc::new(CountingObserver::default());
        let attached = ObserverHandle::attached(a.clone());
        assert!(attached.fanout(&ObserverHandle::none()).is_attached());
        assert!(ObserverHandle::none().fanout(&attached).is_attached());
        assert!(!ObserverHandle::none()
            .fanout(&ObserverHandle::none())
            .is_attached());
        ObserverHandle::none()
            .fanout(&attached)
            .platform_replay(true, 7.0, true);
        assert_eq!(a.hooks.load(Ordering::Relaxed), 1);
    }
}
