//! The process allocator: the system allocator, with the product's
//! `CountingAlloc` switched in for the traced run only.
//!
//! Bytes-per-edge rows need a counting allocator, and a counting
//! allocator costs two contended atomic updates per allocation — which
//! would tax every end-to-end number, `wire-closed` most. So counting is
//! off unless the traced run's process turns it on, once, before its
//! first allocation; off, an allocation pays one uncontended load.

use crate::api::{CountingAlloc, OnceLock};
use std::alloc::{GlobalAlloc, Layout, System};

/// [`System`], or [`CountingAlloc`] over it once counting is on.
pub struct SwitchedAlloc {
    counting: CountingAlloc,
    /// Set when counting is on. A `OnceLock` because the switch goes one
    /// way, and because it is the shim's one `const`-constructible cell.
    on: OnceLock<()>,
}

impl SwitchedAlloc {
    /// Counting off.
    pub const fn new() -> SwitchedAlloc {
        SwitchedAlloc { counting: CountingAlloc::new(), on: OnceLock::new() }
    }

    /// Counts every allocation from now on. Call before anything that
    /// will be freed later is allocated: `CountingAlloc` subtracts what
    /// is freed, and its live count must not go below zero.
    pub fn count_from_now(&self) {
        let _ = self.on.set(());
    }

    /// Live heap bytes allocated since counting began.
    pub fn live_bytes(&self) -> usize {
        self.counting.live_bytes()
    }

    fn counts(&self) -> bool {
        self.on.get().is_some()
    }
}

// SAFETY: every operation goes unchanged to `System`, directly or through
// `CountingAlloc` (which itself only delegates to `System`), so a block
// is always returned to the allocator it came from whichever state the
// switch is in. `OnceLock::{get, set}` do not allocate.
unsafe impl GlobalAlloc for SwitchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        unsafe {
            if self.counts() {
                self.counting.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        unsafe {
            if self.counts() {
                self.counting.alloc_zeroed(layout)
            } else {
                System.alloc_zeroed(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe {
            if self.counts() {
                self.counting.dealloc(ptr, layout)
            } else {
                System.dealloc(ptr, layout)
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        unsafe {
            if self.counts() {
                self.counting.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }
}
