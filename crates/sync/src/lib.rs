//! Synchronisation shim for the kgreach workspace.
//!
//! Every concurrent structure in the workspace (the `ScckCache` slots,
//! the engine's state swap, the serve batcher, the metrics registry…)
//! imports its primitives from this crate instead of `std::sync`
//! — a rule enforced statically by `check_sync_lints`. The shim compiles two
//! ways:
//!
//! * **Normally** it re-exports the plain `std` types: zero overhead, no
//!   behaviour change.
//! * **Under `RUSTFLAGS="--cfg kg_loom"`** it re-exports the vendored
//!   `loom` model-checked types, so the `model_check` test suite can
//!   exhaustively explore thread interleavings and weak-memory behaviours
//!   of the production code paths — the same source, recompiled.
//!
//! The atomics are thin newtype wrappers (identical method surface in both
//! modes) rather than raw re-exports, because `std` and `loom` disagree on
//! the exclusive-access API: `std` has `get_mut`, loom has `with_mut`. The
//! wrapper exposes [`atomic::AtomicU32::set_mut`] (and friends) over both.
//!
//! `Arc` is always `std::sync::Arc` (loom's is too, in our vendored
//! stand-in): reference counting is not part of the modelled state space.
//!
//! What is *not* wrapped: `std::thread::scope` (used by the parallel
//! local-index build; scoped spawns are outside the model's vocabulary — do
//! not build an index with `build_threads > 1` inside a model) and
//! `std::time` (model tests make
//! timing irrelevant instead: the loom condvar may fire any timed wait at
//! any scheduling point).

#![warn(missing_docs)]

#[cfg(not(kg_loom))]
pub use std::sync::{
    Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

#[cfg(kg_loom)]
pub use loom::sync::{
    Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

#[doc(no_inline)]
pub use std::sync::{Arc, LockResult, PoisonError, Weak};

/// Multi-producer single-consumer channel: `std::sync::mpsc` normally, the
/// modelled channel under `kg_loom`.
pub mod mpsc {
    #[cfg(not(kg_loom))]
    #[doc(no_inline)]
    pub use std::sync::mpsc::{
        channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    #[cfg(kg_loom)]
    pub use loom::sync::mpsc::{
        channel, Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };
}

/// Thread spawn/join: `std::thread` normally, modelled threads under
/// `kg_loom` (where `Builder::name` is accepted but not surfaced).
pub mod thread {
    #[cfg(not(kg_loom))]
    #[doc(no_inline)]
    pub use std::thread::{spawn, yield_now, Builder, JoinHandle};

    #[cfg(kg_loom)]
    pub use loom::thread::{spawn, yield_now, Builder, JoinHandle};
}

/// A counting global allocator for memory-budget tests.
///
/// The scale test suite commits to a bytes-per-edge budget for graph and
/// index construction; this wrapper around the system allocator is how
/// the budget is measured — install it with `#[global_allocator]` in a
/// test binary and read [`CountingAlloc::live_bytes`](alloc::CountingAlloc::live_bytes) /
/// [`CountingAlloc::peak_bytes`](alloc::CountingAlloc::peak_bytes) around the region of interest.
/// The allocation budget suite reads
/// [`CountingAlloc::allocations`](alloc::CountingAlloc::allocations) the same way.
///
/// This module deliberately uses `std::sync::atomic` directly rather
/// than the loom shim above: a `#[global_allocator]` static needs `const`
/// construction (the shim's dual-mode `new` is not `const`), and
/// allocator counters are bookkeeping outside any modelled state space.
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A [`GlobalAlloc`] that delegates to [`System`] and tracks live and
    /// peak heap bytes and the number of allocations.
    ///
    /// ```
    /// use kgreach_sync::alloc::CountingAlloc;
    ///
    /// // In a test binary:
    /// // #[global_allocator]
    /// // static ALLOC: CountingAlloc = CountingAlloc::new();
    /// static ALLOC: CountingAlloc = CountingAlloc::new();
    /// assert_eq!(ALLOC.live_bytes(), 0);
    /// ```
    #[derive(Debug)]
    pub struct CountingAlloc {
        live: AtomicUsize,
        peak: AtomicUsize,
        allocations: AtomicUsize,
    }

    impl CountingAlloc {
        /// A counter at zero — `const`, so it can back a
        /// `#[global_allocator]` static.
        pub const fn new() -> CountingAlloc {
            CountingAlloc {
                live: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                allocations: AtomicUsize::new(0),
            }
        }

        /// Heap bytes currently allocated through this allocator.
        pub fn live_bytes(&self) -> usize {
            // relaxed: a statistical counter; readers need no ordering
            // with the allocations themselves.
            self.live.load(Ordering::Relaxed)
        }

        /// High-water mark of [`live_bytes`](Self::live_bytes) since
        /// construction or the last [`reset_peak`](Self::reset_peak).
        pub fn peak_bytes(&self) -> usize {
            // relaxed: a statistical counter; readers need no ordering
            // with the allocations themselves.
            self.peak.load(Ordering::Relaxed)
        }

        /// Restarts peak tracking from the current live count, so a test
        /// can measure the peak of one region in isolation.
        pub fn reset_peak(&self) {
            // relaxed: a statistical counter; a racing allocation may
            // re-raise the peak immediately, which is the correct result.
            self.peak.store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
        }

        /// Calls to `alloc`, `alloc_zeroed` and `realloc` since
        /// construction — every time the program asked for heap memory,
        /// growing a buffer included. Read it before and after a region:
        /// the difference is that region's allocation count.
        pub fn allocations(&self) -> usize {
            // relaxed: a statistical counter; readers need no ordering
            // with the allocations themselves.
            self.allocations.load(Ordering::Relaxed)
        }

        fn count(&self) {
            // relaxed: a counter only — it orders nothing.
            self.allocations.fetch_add(1, Ordering::Relaxed);
        }

        fn add(&self, n: usize) {
            // relaxed: counters only — they order nothing; the peak is a
            // monotone high-water mark, so the update race with another
            // thread's add/sub only ever under-reports a transient peak.
            let live = self.live.fetch_add(n, Ordering::Relaxed) + n;
            self.peak.fetch_max(live, Ordering::Relaxed);
        }

        fn sub(&self, n: usize) {
            // relaxed: counters only — they order nothing.
            self.live.fetch_sub(n, Ordering::Relaxed);
        }
    }

    impl Default for CountingAlloc {
        fn default() -> Self {
            CountingAlloc::new()
        }
    }

    // SAFETY: delegates every operation unchanged to `System`; the
    // counters never influence the returned pointers.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                self.count();
                self.add(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.alloc_zeroed(layout) };
            if !p.is_null() {
                self.count();
                self.add(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: same contract as the caller's.
            unsafe { System.dealloc(ptr, layout) };
            self.sub(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: same contract as the caller's.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                self.count();
                if new_size >= layout.size() {
                    self.add(new_size - layout.size());
                } else {
                    self.sub(layout.size() - new_size);
                }
            }
            p
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn counts_alloc_dealloc_and_peak() {
            let a = CountingAlloc::new();
            let layout = Layout::from_size_align(4096, 8).unwrap();
            // SAFETY: layout is valid; every pointer is freed with the
            // layout it was allocated with.
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                assert_eq!(a.live_bytes(), 4096);
                assert_eq!(a.peak_bytes(), 4096);
                let q = a.alloc_zeroed(layout);
                assert!(!q.is_null());
                assert_eq!(a.live_bytes(), 8192);
                a.dealloc(q, layout);
                assert_eq!(a.live_bytes(), 4096);
                assert_eq!(a.peak_bytes(), 8192, "peak survives the free");
                a.reset_peak();
                assert_eq!(a.peak_bytes(), 4096);
                let p = a.realloc(p, layout, 8192);
                assert!(!p.is_null());
                assert_eq!(a.live_bytes(), 8192);
                let grown = Layout::from_size_align(8192, 8).unwrap();
                let p = a.realloc(p, grown, 1024);
                assert!(!p.is_null());
                assert_eq!(a.live_bytes(), 1024);
                let shrunk = Layout::from_size_align(1024, 8).unwrap();
                a.dealloc(p, shrunk);
                assert_eq!(a.live_bytes(), 0);
                assert_eq!(a.peak_bytes(), 8192);
                assert_eq!(a.allocations(), 4, "alloc, alloc_zeroed and two reallocs");
            }
        }
    }
}

/// Atomics with a mode-independent method surface.
pub mod atomic {
    #[doc(no_inline)]
    pub use std::sync::atomic::Ordering;

    macro_rules! shim_atomic {
        ($(#[$doc:meta])* $name:ident, $ty:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                #[cfg(not(kg_loom))]
                inner: std::sync::atomic::$name,
                #[cfg(kg_loom)]
                inner: loom::sync::atomic::$name,
            }

            impl $name {
                /// Creates an atomic with the given initial value.
                pub fn new(v: $ty) -> Self {
                    $name {
                        #[cfg(not(kg_loom))]
                        inner: std::sync::atomic::$name::new(v),
                        #[cfg(kg_loom)]
                        inner: loom::sync::atomic::$name::new(v),
                    }
                }

                /// Atomic load.
                #[inline]
                pub fn load(&self, ord: Ordering) -> $ty {
                    self.inner.load(ord)
                }

                /// Atomic store.
                #[inline]
                pub fn store(&self, v: $ty, ord: Ordering) {
                    self.inner.store(v, ord)
                }

                /// Atomic swap; returns the previous value.
                #[inline]
                pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                    self.inner.swap(v, ord)
                }

                /// Atomic wrapping add; returns the previous value.
                #[inline]
                pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                    self.inner.fetch_add(v, ord)
                }

                /// Atomic wrapping subtract; returns the previous value.
                #[inline]
                pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                    self.inner.fetch_sub(v, ord)
                }

                /// Atomic maximum; returns the previous value.
                #[inline]
                pub fn fetch_max(&self, v: $ty, ord: Ordering) -> $ty {
                    self.inner.fetch_max(v, ord)
                }

                /// Plain (non-atomic) store through exclusive access — the
                /// mode-independent spelling of `std`'s `*a.get_mut() = v` /
                /// loom's `a.with_mut(|p| *p = v)`.
                #[inline]
                pub fn set_mut(&mut self, v: $ty) {
                    #[cfg(not(kg_loom))]
                    {
                        *self.inner.get_mut() = v;
                    }
                    #[cfg(kg_loom)]
                    {
                        self.inner.with_mut(|p| *p = v);
                    }
                }
            }
        };
    }

    shim_atomic!(
        /// Dual-mode `AtomicU8`.
        AtomicU8,
        u8
    );
    shim_atomic!(
        /// Dual-mode `AtomicU32`.
        AtomicU32,
        u32
    );
    shim_atomic!(
        /// Dual-mode `AtomicU64`.
        AtomicU64,
        u64
    );
    shim_atomic!(
        /// Dual-mode `AtomicUsize`.
        AtomicUsize,
        usize
    );

    /// Dual-mode `AtomicBool`.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        #[cfg(not(kg_loom))]
        inner: std::sync::atomic::AtomicBool,
        #[cfg(kg_loom)]
        inner: loom::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates an atomic with the given initial value.
        pub fn new(v: bool) -> Self {
            AtomicBool {
                #[cfg(not(kg_loom))]
                inner: std::sync::atomic::AtomicBool::new(v),
                #[cfg(kg_loom)]
                inner: loom::sync::atomic::AtomicBool::new(v),
            }
        }

        /// Atomic load.
        #[inline]
        pub fn load(&self, ord: Ordering) -> bool {
            self.inner.load(ord)
        }

        /// Atomic store.
        #[inline]
        pub fn store(&self, v: bool, ord: Ordering) {
            self.inner.store(v, ord)
        }

        /// Atomic swap; returns the previous value.
        #[inline]
        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            self.inner.swap(v, ord)
        }
    }
}
