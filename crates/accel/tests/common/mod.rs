//! A counting allocator for the test binaries that use allocation counts
//! as a machine-independent proxy for load-path cost. Counters are
//! per-thread, so tests running side by side do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

/// What one thread has asked of the allocator.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `alloc` and `realloc` calls.
    pub allocs: u64,
    /// `dealloc` calls.
    pub frees: u64,
    /// Bytes currently held.
    pub live: u64,
    /// The most bytes ever held at once.
    pub peak: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, frees: 0, live: 0, peak: 0 })
    };
}

fn update(f: impl FnOnce(&mut Counts)) {
    // `try_with`: the allocator is still called while a thread tears down.
    let _ = COUNTS.try_with(|c| {
        let mut counts = c.get();
        f(&mut counts);
        counts.peak = counts.peak.max(counts.live);
        c.set(counts);
    });
}

// SAFETY: every call is forwarded unchanged to `System`, so its guarantees
// carry over; the counters never influence the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        update(|c| {
            c.allocs += 1;
            c.live += layout.size() as u64;
        });
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|c| {
            c.frees += 1;
            c.live = c.live.saturating_sub(layout.size() as u64);
        });
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        update(|c| {
            c.allocs += 1;
            c.live = c.live.saturating_sub(layout.size() as u64) + new_size as u64;
        });
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns what this thread asked of the allocator meanwhile:
/// calls as differences, `peak` as the most bytes held above the level at
/// entry.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(Cell::get);
    COUNTS.with(|c| {
        c.set(Counts {
            peak: before.live,
            ..before
        })
    });
    let out = f();
    let after = COUNTS.with(Cell::get);
    let delta = Counts {
        allocs: after.allocs - before.allocs,
        frees: after.frees - before.frees,
        live: after.live.saturating_sub(before.live),
        peak: after.peak - before.live,
    };
    (out, delta)
}
