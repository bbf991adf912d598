//! The counting global allocator of the memory-budget tests
//! (`engine_memory`, `net_memory`). An integration test is its own
//! binary, so each of them installs it with
//! `#[global_allocator] static ALLOCATOR: Counting = Counting;` and reads
//! the live heap around the code it budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The system allocator, counting live bytes and their high-water mark.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Held by a measurement from its first allocation to its last free: the
/// harness runs the tests of one binary on parallel threads, and they
/// share the counters.
static MEASURING: Mutex<()> = Mutex::new(());

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are only statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `System` through this allocator, with
        // this layout.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            // A grown block counts once: large ones are remapped, not
            // copied.
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

/// One measurement: the live heap since it began, and its peak.
pub struct Measuring {
    baseline: usize,
    _alone: MutexGuard<'static, ()>,
}

impl Measuring {
    /// Starts counting from the heap as it stands. The lock guards no
    /// data, so a test that failed while measuring does not fail the
    /// next one.
    pub fn begin() -> Self {
        let alone = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
        let baseline = LIVE.load(Relaxed);
        PEAK.store(baseline, Relaxed);
        Measuring {
            baseline,
            _alone: alone,
        }
    }

    /// Bytes live now beyond those live at [`Measuring::begin`].
    #[allow(dead_code)] // each test binary reads one of the two
    pub fn live(&self) -> usize {
        LIVE.load(Relaxed).saturating_sub(self.baseline)
    }

    /// The most [`Measuring::live`] has been.
    #[allow(dead_code)]
    pub fn peak(&self) -> usize {
        PEAK.load(Relaxed) - self.baseline
    }
}
