//! A std-only deterministic worker pool for per-type fan-out.
//!
//! The paper trains one independent Q-learner per error type, and every
//! per-type random stream is derived from the master seed alone (see
//! [`crate::trainer::type_seed`]) — so the work is embarrassingly
//! parallel *and* its results are a pure function of the input, not of
//! scheduling. [`WorkerPool::map_indexed`] exploits that: workers pull
//! item indices from a shared queue, each result is stored into the slot
//! of its index, and the caller receives the results in item order. The
//! output is therefore byte-identical for any thread count, including
//! the sequential `threads = 1` path.
//!
//! The pool is built on [`std::thread::scope`]: no unsafe code, no
//! channels, no dependency beyond std.
//!
//! # Panic safety
//!
//! Every claimed index runs inside [`std::panic::catch_unwind`], so a
//! panicking item can never poison the pool's internal locks (no user
//! code ever runs while a pool lock is held) or silently strand the
//! other workers:
//!
//! * [`WorkerPool::map_indexed`] — the infallible API — re-raises the
//!   payload of the lowest panicking index after the queue drains, so
//!   the historical "worker panics propagate to the caller" contract is
//!   preserved, but *which* panic propagates is now deterministic.
//! * [`WorkerPool::try_map_indexed`] and
//!   [`WorkerPool::try_map_indexed_observed`] — the fault-tolerant APIs —
//!   requeue a panicked index so another worker retries it, up to a
//!   bounded per-index retry budget. Exhausting the budget yields a
//!   typed [`PoolError`] instead of a panic. Because results are keyed
//!   by index, a run in which every retry eventually succeeds is
//!   byte-identical to a run with no panics at all.
//!
//! The closure is re-invoked after a caught panic (the pool asserts
//! unwind safety on the caller's behalf), so closures used with the
//! fault-tolerant APIs must leave any shared interior-mutable state
//! consistent when they unwind. Closures that are pure functions of the
//! index — the only kind the workspace's training paths use — satisfy
//! this trivially.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use recovery_telemetry::{Event, Telemetry};

/// Default per-index retry budget of the fault-tolerant mapping APIs: a
/// panicked index is re-attempted at most this many times (so at most
/// `1 + DEFAULT_RETRY_BUDGET` attempts in total) before the run fails
/// with a typed [`PoolError`].
pub const DEFAULT_RETRY_BUDGET: usize = 2;

/// Typed failure of a fault-tolerant pool run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// An item panicked on its first attempt and on every retry within
    /// the budget. When several indices exhaust their budget in one run,
    /// the lowest index is reported, so the error is deterministic for
    /// any thread count.
    RetriesExhausted {
        /// The item index that kept panicking.
        index: usize,
        /// Total attempts made (first try plus retries).
        attempts: usize,
        /// The panic payload rendered as text, where it was a string.
        message: String,
    },
    /// An item's result slot was never filled even though the run
    /// reported success — an internal invariant breach that previous
    /// versions surfaced as a poisoned-mutex panic.
    MissingResult {
        /// The index whose slot was empty.
        index: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::RetriesExhausted {
                index,
                attempts,
                message,
            } => write!(
                f,
                "item {index} panicked in all {attempts} attempts: {message}"
            ),
            PoolError::MissingResult { index } => {
                write!(f, "item {index} was never computed (pool invariant breach)")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Renders a caught panic payload for [`PoolError::RetriesExhausted`].
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// What one finished run observed. `recovered` lists `(index, attempts)`
/// for items that succeeded only after at least one retry, in ascending
/// index order — a deterministic record for telemetry.
struct RunStats {
    panics: u64,
    retries: u64,
    recovered: Vec<(usize, usize)>,
}

/// An exhausted item: `(index, attempts, last panic payload)`.
type FailureRecord = (usize, usize, Box<dyn Any + Send>);

/// A failed run: the typed error plus, where a single panic should be
/// re-raised verbatim (`map_indexed`), the original payload of the
/// reported index.
struct RunFailure {
    error: PoolError,
    payload: Option<Box<dyn Any + Send>>,
}

/// A fixed-width pool of scoped worker threads.
///
/// ```
/// use recovery_core::parallel::WorkerPool;
///
/// let squares = WorkerPool::new(4).map_indexed(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // Same result on the sequential path.
/// assert_eq!(squares, WorkerPool::sequential().map_indexed(8, |i| i * i));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: NonZeroUsize,
}

impl WorkerPool {
    /// A pool of `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero — callers that accept a user-supplied
    /// count (the CLI's `--threads`) must validate it first.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: NonZeroUsize::new(threads).expect("worker pool needs at least one thread"),
        }
    }

    /// The single-threaded pool: `map_indexed` runs the closure in the
    /// calling thread, in index order, spawning nothing.
    pub fn sequential() -> Self {
        WorkerPool::new(1)
    }

    /// A pool sized to the machine's available parallelism (falling back
    /// to 1 when that cannot be determined).
    pub fn available() -> Self {
        WorkerPool::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Applies `f` to every index in `0..n` and returns the results in
    /// index order, regardless of which worker computed what.
    ///
    /// With one thread (or at most one item) this is a plain sequential
    /// loop — the legacy path. Otherwise `min(threads, n)` scoped workers
    /// claim indices from a shared atomic counter and write each result
    /// into the slot of its index, so the returned `Vec` is independent
    /// of thread interleaving.
    ///
    /// # Panics
    ///
    /// A panicking closure propagates to the caller: the payload of the
    /// lowest panicking index is re-raised after the queue drains. There
    /// are no retries on this path; see [`WorkerPool::try_map_indexed`]
    /// for the fault-tolerant variant.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.run(n, 0, f) {
            (Ok(results), _) => results,
            (Err(failure), _) => match failure.payload {
                Some(payload) => resume_unwind(payload),
                None => panic!("{}", failure.error),
            },
        }
    }

    /// Fault-tolerant [`WorkerPool::map_indexed`]: a panicked index is
    /// requeued and retried (on another worker, when one is free) up to
    /// [`DEFAULT_RETRY_BUDGET`] times before the run fails.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::RetriesExhausted`] for the lowest index that
    /// panicked on every attempt.
    pub fn try_map_indexed<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_map_indexed_observed(n, DEFAULT_RETRY_BUDGET, &Telemetry::disabled(), f)
    }

    /// [`WorkerPool::try_map_indexed`] with an explicit retry budget and
    /// telemetry: caught panics and retries are counted (`pool.panics`,
    /// `pool.retries`), and each index that succeeded only after a retry
    /// is emitted as a `pool_retry` event. Events are emitted after the
    /// run completes, in ascending index order, so the JSONL stream is
    /// deterministic for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::RetriesExhausted`] for the lowest index that
    /// panicked on every one of its `1 + budget` attempts (also counted
    /// as `pool.exhausted`).
    pub fn try_map_indexed_observed<T, F>(
        &self,
        n: usize,
        budget: usize,
        telemetry: &Telemetry,
        f: F,
    ) -> Result<Vec<T>, PoolError>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let (result, stats) = self.run(n, budget, f);
        if let Some(registry) = telemetry.registry() {
            if stats.panics > 0 {
                registry.counter("pool.panics").add(stats.panics);
                registry.counter("pool.retries").add(stats.retries);
            }
            for &(index, attempts) in &stats.recovered {
                telemetry.emit(
                    &Event::new("pool_retry")
                        .with("index", index)
                        .with("attempts", attempts),
                );
            }
        }
        match result {
            Ok(results) => Ok(results),
            Err(failure) => {
                if let Some(registry) = telemetry.registry() {
                    registry.counter("pool.exhausted").inc();
                }
                if let PoolError::RetriesExhausted {
                    index,
                    attempts,
                    ref message,
                } = failure.error
                {
                    telemetry.emit(
                        &Event::new("pool_exhausted")
                            .with("index", index)
                            .with("attempts", attempts)
                            .with("message", message.as_str()),
                    );
                }
                Err(failure.error)
            }
        }
    }

    /// The shared engine behind both mapping APIs. Results are stored as
    /// `(value, attempts)` per slot; the run fails only when some index
    /// exhausts `1 + budget` attempts (the lowest such index wins).
    fn run<T, F>(&self, n: usize, budget: usize, f: F) -> (Result<Vec<T>, RunFailure>, RunStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.get().min(n.max(1));
        if workers <= 1 {
            return run_sequential(n, budget, f);
        }

        let next = AtomicUsize::new(0);
        // Items not yet either stored or given up on; workers may only
        // exit once this reaches zero, because an in-flight item can
        // still panic and requeue itself for someone else to retry.
        let outstanding = AtomicUsize::new(n);
        let slots: Vec<Mutex<Option<(T, usize)>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let retry_queue: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let failures: Mutex<Vec<FailureRecord>> = Mutex::new(Vec::new());
        let panics = AtomicU64::new(0);
        let retries = AtomicU64::new(0);

        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if outstanding.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    let claim = {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i < n {
                            Some((i, 0))
                        } else {
                            lock_clean(&retry_queue).pop()
                        }
                    };
                    let Some((i, prior_attempts)) = claim else {
                        // Nothing claimable right now, but an in-flight
                        // item on another worker may still fail and
                        // requeue itself.
                        thread::yield_now();
                        continue;
                    };
                    let attempts = prior_attempts + 1;
                    // The pool guarantees no lock is held across `f`, so
                    // a panic here can never poison shared state; see
                    // the module docs for the caller-side contract.
                    match catch_unwind(AssertUnwindSafe(|| f(i))) {
                        Ok(value) => {
                            *lock_clean(&slots[i]) = Some((value, attempts));
                            outstanding.fetch_sub(1, Ordering::Release);
                        }
                        Err(payload) => {
                            panics.fetch_add(1, Ordering::Relaxed);
                            if attempts <= budget {
                                retries.fetch_add(1, Ordering::Relaxed);
                                lock_clean(&retry_queue).push((i, attempts));
                            } else {
                                lock_clean(&failures).push((i, attempts, payload));
                                outstanding.fetch_sub(1, Ordering::Release);
                            }
                        }
                    }
                });
            }
        });

        let mut failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut stats = RunStats {
            panics: panics.into_inner(),
            retries: retries.into_inner(),
            recovered: Vec::new(),
        };
        if !failures.is_empty() {
            failures.sort_by_key(|&(i, _, _)| i);
            let (index, attempts, payload) = failures.swap_remove(0);
            let error = PoolError::RetriesExhausted {
                index,
                attempts,
                message: panic_message(payload.as_ref()),
            };
            return (
                Err(RunFailure {
                    error,
                    payload: Some(payload),
                }),
                stats,
            );
        }
        let mut results = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                Some((value, attempts)) => {
                    if attempts > 1 {
                        stats.recovered.push((i, attempts));
                    }
                    results.push(value);
                }
                None => {
                    return (
                        Err(RunFailure {
                            error: PoolError::MissingResult { index: i },
                            payload: None,
                        }),
                        stats,
                    );
                }
            }
        }
        (Ok(results), stats)
    }
}

/// The `workers <= 1` engine: same claim/retry semantics as the threaded
/// path, run inline on the calling thread (retries happen immediately —
/// there is no other worker to hand the index to).
fn run_sequential<T, F>(n: usize, budget: usize, f: F) -> (Result<Vec<T>, RunFailure>, RunStats)
where
    F: Fn(usize) -> T,
{
    let mut results = Vec::with_capacity(n);
    let mut stats = RunStats {
        panics: 0,
        retries: 0,
        recovered: Vec::new(),
    };
    for i in 0..n {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(value) => {
                    if attempts > 1 {
                        stats.recovered.push((i, attempts));
                    }
                    results.push(value);
                    break;
                }
                Err(payload) => {
                    stats.panics += 1;
                    if attempts <= budget {
                        stats.retries += 1;
                    } else {
                        let error = PoolError::RetriesExhausted {
                            index: i,
                            attempts,
                            message: panic_message(payload.as_ref()),
                        };
                        return (
                            Err(RunFailure {
                                error,
                                payload: Some(payload),
                            }),
                            stats,
                        );
                    }
                }
            }
        }
    }
    (Ok(results), stats)
}

/// Locks a pool-internal mutex. These mutexes are never held while user
/// code runs, so they cannot be poisoned by a panicking closure; should
/// the impossible happen anyway, the data is still consistent (each
/// critical section is a single push/pop/store), so the poison marker is
/// cleared instead of panicking — the error-propagation contract of this
/// module does not allow `expect` on lock results.
fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Default for WorkerPool {
    /// Defaults to [`WorkerPool::available`].
    fn default() -> Self {
        WorkerPool::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.map_indexed(37, |i| i * 3);
            assert_eq!(
                out,
                (0..37).map(|i| i * 3).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map_indexed(1, |i| i + 10), vec![10]);
        assert_eq!(pool.try_map_indexed(0, |i| i), Ok(Vec::new()));
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = WorkerPool::new(16).map_indexed(3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn sequential_pool_never_spawns() {
        // The closure is !Send-observable only indirectly: assert the
        // sequential pool visits indices strictly in order.
        let order = Mutex::new(Vec::new());
        WorkerPool::sequential().map_indexed(5, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn transient_panics_are_retried_to_the_clean_result() {
        for threads in [1, 2, 4] {
            // Indices 3 and 7 panic on their first attempt only.
            let first_tries = [const { AtomicUsize::new(0) }; 12];
            let out = WorkerPool::new(threads)
                .try_map_indexed(12, |i| {
                    if (i == 3 || i == 7) && first_tries[i].fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("transient fault at {i}");
                    }
                    i * 2
                })
                .expect("retries absorb the transient faults");
            assert_eq!(
                out,
                (0..12).map(|i| i * 2).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn exhausted_budget_is_a_typed_error_for_the_lowest_index() {
        for threads in [1, 4] {
            let err = WorkerPool::new(threads)
                .try_map_indexed(10, |i| {
                    if i == 2 || i == 6 {
                        panic!("persistent fault at {i}");
                    }
                    i
                })
                .expect_err("persistent faults must exhaust the budget");
            match err {
                PoolError::RetriesExhausted {
                    index,
                    attempts,
                    message,
                } => {
                    assert_eq!(index, 2, "{threads} threads: lowest failing index wins");
                    assert_eq!(attempts, 1 + DEFAULT_RETRY_BUDGET);
                    assert!(message.contains("persistent fault"), "{message}");
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn map_indexed_still_propagates_panics() {
        for threads in [1, 3] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(threads).map_indexed(6, |i| {
                    if i == 4 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
            .expect_err("the panic must propagate");
            assert!(panic_message(caught.as_ref()).contains("boom at 4"));
        }
    }

    #[test]
    fn observed_runs_count_panics_and_retries_deterministically() {
        for threads in [1, 2, 8] {
            let telemetry = Telemetry::new();
            let first_tries = [const { AtomicUsize::new(0) }; 9];
            let out = WorkerPool::new(threads)
                .try_map_indexed_observed(9, DEFAULT_RETRY_BUDGET, &telemetry, |i| {
                    if i % 4 == 1 && first_tries[i].fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("flaky {i}");
                    }
                    i
                })
                .expect("flaky items recover");
            assert_eq!(out, (0..9).collect::<Vec<_>>());
            let snap = telemetry.snapshot().expect("enabled");
            assert_eq!(snap.counters["pool.panics"], 2, "{threads} threads");
            assert_eq!(snap.counters["pool.retries"], 2, "{threads} threads");
            assert!(!snap.counters.contains_key("pool.exhausted"));
        }
    }

    #[test]
    fn available_pool_has_at_least_one_thread() {
        assert!(WorkerPool::available().threads() >= 1);
    }
}
