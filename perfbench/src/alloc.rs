//! A counting global allocator: live bytes, their high-water mark and the
//! allocation count, tracked only while counting is switched on so the
//! untraced request path pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The bench binary's global allocator.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grow(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            shrink(layout.size());
        }
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            shrink(layout.size());
            grow(new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
}

fn shrink(size: usize) {
    // Blocks allocated before counting started may be freed while it is
    // on; saturate instead of wrapping.
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |l| Some(l.saturating_sub(size)));
}

/// Heap use of one closure: bytes at peak above the level at entry, and
/// the number of allocations it made. Meant for single-threaded calls.
pub struct HeapUse {
    pub peak_bytes: u64,
    pub allocs: u64,
}

/// Runs `f` with counting on and reports its own heap high-water mark.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    let allocs0 = ALLOCS.load(Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let use_ = HeapUse {
        peak_bytes: PEAK.load(Relaxed) as u64,
        allocs: ALLOCS.load(Relaxed) - allocs0,
    };
    (out, use_)
}
