//! A std-only deterministic worker pool for per-type fan-out.
//!
//! The paper trains one independent Q-learner per error type, and every
//! per-type random stream is derived from the master seed alone (see
//! [`crate::trainer::type_seed`]) — so the work is embarrassingly
//! parallel *and* its results are a pure function of the input, not of
//! scheduling. [`WorkerPool::map_indexed`] exploits that: workers claim
//! item indices from one atomic counter, each keeps its own
//! `(index, result)` pairs, and the caller receives the results put back
//! into index order. The output is therefore byte-identical for any
//! thread count, including the sequential `threads = 1` path.
//!
//! [`WorkerPool::join`] is the pool's one fork-join: two different jobs
//! at once, the caller's on the calling thread.
//!
//! The pool is built on [`std::thread::scope`]: no unsafe code, no
//! locks, no channels, no dependency beyond std.
//!
//! # Panics
//!
//! Every claimed index runs inside [`std::panic::catch_unwind`], so a
//! panicking item neither strands the other workers nor decides by its
//! timing which panic reaches the caller: once every index has run, the
//! payload of the lowest panicking index is re-raised, the same one the
//! sequential path raises. Nothing is retried. The continuous loop
//! contains panics itself, around each window's simulation and
//! retraining ([`crate::pipeline`]).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

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
    /// loop. Otherwise `min(threads, n)` scoped workers claim indices
    /// from a shared atomic counter until it passes `n`, and the results
    /// are scattered back into index order, so the returned `Vec` is
    /// independent of thread interleaving.
    ///
    /// # Panics
    ///
    /// A panicking closure propagates to the caller: after every index
    /// has run, the payload of the lowest panicking index is re-raised.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.get().min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                // The counter only hands out indices; results reach the
                // caller through `join`, which synchronizes on its own.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, catch_unwind(AssertUnwindSafe(|| f(i)))));
            }
        };
        let mut slots: Vec<Option<thread::Result<T>>> = (0..n).map(|_| None).collect();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
            for handle in handles {
                for (i, result) in handle.join().expect("workers catch every item's panic") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("the counter hands out every index once"))
            .map(|result| result.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }

    /// Runs `here` on the calling thread and `beside` on a second one,
    /// and returns both results once both have finished. A one-thread
    /// pool spawns nothing: it runs `here`, then `beside`.
    ///
    /// Only `beside` crosses threads, so `here` may hold what must stay
    /// on the caller: its open spans, callbacks that are not `Send`.
    ///
    /// # Panics
    ///
    /// A panic in either closure reaches the caller once both are done;
    /// `here`'s wins when both panic. On a one-thread pool a panic in
    /// `here` means `beside` never runs.
    pub fn join<A, B, RA, RB>(&self, here: A, beside: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        if self.threads.get() == 1 {
            let a = here();
            return (a, beside());
        }
        thread::scope(|scope| {
            let handle = scope.spawn(beside);
            let a = catch_unwind(AssertUnwindSafe(here));
            let b = handle.join();
            match (a, b) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(payload), _) | (_, Err(payload)) => resume_unwind(payload),
            }
        })
    }
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
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

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
    fn map_indexed_still_propagates_panics() {
        for threads in [1, 2, 4] {
            // With workers, index 2 holds its panic until index 6 has
            // raised, so the later index always panics first.
            let six_raised = AtomicBool::new(false);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                WorkerPool::new(threads).map_indexed(10, |i| {
                    if i == 6 {
                        six_raised.store(true, Ordering::SeqCst);
                        panic!("boom at {i}");
                    }
                    if i == 2 {
                        while threads > 1 && !six_raised.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
            .expect_err("the panic must propagate");
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("boom at 2"),
                "{threads} threads: the lowest panicking index wins"
            );
        }
    }

    #[test]
    fn join_runs_both_closures_and_one_thread_runs_them_in_order() {
        let caller = thread::current().id();
        for threads in [1, 2, 4] {
            let order = Mutex::new(Vec::new());
            let (a, (b, beside_thread)) = WorkerPool::new(threads).join(
                || {
                    order.lock().unwrap().push("here");
                    assert_eq!(thread::current().id(), caller, "here stays put");
                    1
                },
                || {
                    order.lock().unwrap().push("beside");
                    (2, thread::current().id())
                },
            );
            assert_eq!((a, b), (1, 2));
            assert_eq!(order.lock().unwrap().len(), 2);
            if threads == 1 {
                assert_eq!(*order.lock().unwrap(), vec!["here", "beside"]);
                assert_eq!(beside_thread, caller, "one thread spawns nothing");
            } else {
                assert_ne!(beside_thread, caller);
            }
        }
    }

    #[test]
    fn join_propagates_a_panic_from_either_side() {
        for threads in [1, 2] {
            let pool = WorkerPool::new(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.join(|| 1, || -> i32 { panic!("beside failed") })
            }))
            .expect_err("the helper's panic must propagate");
            assert_eq!(caught.downcast_ref::<&str>(), Some(&"beside failed"));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.join(|| -> i32 { panic!("here failed") }, || 2)
            }))
            .expect_err("the caller's panic must propagate");
            assert_eq!(caught.downcast_ref::<&str>(), Some(&"here failed"));
        }
    }

    #[test]
    fn available_pool_has_at_least_one_thread() {
        assert!(WorkerPool::available().threads() >= 1);
    }
}
