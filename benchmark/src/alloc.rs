//! A counting global allocator. It keeps one process-wide allocation
//! count and one per thread, so a workload can subtract its own client
//! threads' allocations from the total and attribute the rest to the
//! layer it measures, and it tracks the bytes live on the heap and their
//! high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Delegates every call to [`System`] and counts allocations (`alloc`,
/// `alloc_zeroed` and `realloc` each count as one).
#[derive(Debug)]
pub struct CountingAlloc;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static TOTAL: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised with no destructor: touching it never allocates,
    // which a global allocator requires.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    // `try_with` because the slot is gone while a thread is torn down.
    let _ = THREAD.try_with(|c| c.set(c.get() + 1));
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters neither allocate nor
// touch the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`. Forwarded rather than left to the trait
        // default, which would memset large zeroed slabs a second time.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`, as the caller guarantees.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by every thread of the process so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn this_thread() -> u64 {
    THREAD.with(Cell::get)
}

/// The most bytes that were ever live on the heap at once.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
