//! The `close` surjection `V → {N, T, F}` (paper Definition 3.1).
//!
//! Every LSCR search algorithm in the paper tracks, per vertex `u`:
//!
//! * `N` — `u` has not been explored;
//! * `F` — `s ⇝_L u` has been proved (label-reachable, but no satisfying
//!   vertex on any discovered path);
//! * `T` — `s ⇝_{L,S} u` has been proved (label-reachable through a vertex
//!   satisfying the substructure constraint).
//!
//! [`CloseMap`] is the shared implementation: an epoch-versioned array so
//! thousands of queries reuse one allocation with O(1) reset, plus a
//! touched-slot counter that yields the paper's second evaluation metric —
//! "the average number of the vertices whose states in `close` are not `N`"
//! (§6, *passed-vertex number*).
//!
//! ```
//! use kgreach::{CloseMap, CloseState};
//! use kgreach_graph::VertexId;
//!
//! let mut close = CloseMap::new(4);
//! close.set(VertexId(1), CloseState::T);
//! assert!(close.is_t(VertexId(1)));
//! assert_eq!(close.passed_vertices(), 1);
//! close.reset(); // O(1): every vertex back to N
//! assert!(close.is_n(VertexId(1)));
//! ```

use kgreach_graph::VertexId;

/// A vertex state in the `close` surjection.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CloseState {
    /// Not explored yet.
    N,
    /// `s ⇝_L u` proved (explored, no satisfying vertex upstream).
    F,
    /// `s ⇝_{L,S} u` proved.
    T,
}

/// Epoch-versioned `close` map over the vertices of one graph.
#[derive(Clone, Debug)]
pub struct CloseMap {
    stamps: Vec<u32>,
    states: Vec<u8>, // valid only when stamp matches; 0 = F, 1 = T
    epoch: u32,
    touched: usize,
}

impl CloseMap {
    /// Creates a map over `n` vertices, all `N`.
    pub fn new(n: usize) -> Self {
        CloseMap { stamps: vec![0; n], states: vec![0; n], epoch: 1, touched: 0 }
    }

    /// Grows the map to cover at least `n` vertices (dynamic graphs grow
    /// `|V|` between queries; fresh slots start `N` because their stamp
    /// can never equal the running epoch). Never shrinks.
    pub fn ensure_len(&mut self, n: usize) {
        if n > self.stamps.len() {
            self.stamps.resize(n, 0);
            self.states.resize(n, 0);
        }
    }

    /// Resets every vertex to `N` in O(1).
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.touched = 0;
    }

    /// Current state of `v`.
    #[inline(always)]
    pub fn get(&self, v: VertexId) -> CloseState {
        if self.stamps[v.index()] != self.epoch {
            CloseState::N
        } else if self.states[v.index()] == 1 {
            CloseState::T
        } else {
            CloseState::F
        }
    }

    /// Sets `v` to `F` or `T`.
    ///
    /// Setting back to `N` is not part of the paper's surjection life cycle
    /// and is deliberately unrepresentable — use [`reset`](Self::reset).
    #[inline(always)]
    pub fn set(&mut self, v: VertexId, state: CloseState) {
        debug_assert!(state != CloseState::N, "close states never revert to N");
        if self.stamps[v.index()] != self.epoch {
            self.stamps[v.index()] = self.epoch;
            self.touched += 1;
        }
        self.states[v.index()] = (state == CloseState::T) as u8;
    }

    /// Whether `v` is `T`.
    #[inline(always)]
    pub fn is_t(&self, v: VertexId) -> bool {
        self.get(v) == CloseState::T
    }

    /// Whether `v` is `N`.
    #[inline(always)]
    pub fn is_n(&self, v: VertexId) -> bool {
        self.stamps[v.index()] != self.epoch
    }

    /// The paper's passed-vertex metric: vertices whose state is not `N`.
    #[inline]
    pub fn passed_vertices(&self) -> usize {
        self.touched
    }

    /// Number of vertices covered by the map.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Forces the epoch counter (wraparound regression tests only).
    #[cfg(test)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Whether the map covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

/// UIS's candidate-side map: for each vertex it holds, the `V(S,G)`
/// vertex it was reached from. Epoch-versioned like [`CloseMap`] (the
/// same O(1) reset and wraparound), 8 B per vertex: the stamp and the
/// origin side by side, so a probe touches one cache line. It starts
/// empty and is grown by the search that seeds it, so a session whose
/// queries never seed the candidate sides allocates nothing for them.
#[derive(Clone, Debug)]
pub(crate) struct OriginMap {
    /// `[stamp, origin]`; the origin is valid only when the stamp matches.
    slots: Vec<[u32; 2]>,
    epoch: u32,
    touched: usize,
}

impl OriginMap {
    /// A map over no vertices.
    pub(crate) fn new() -> Self {
        OriginMap { slots: Vec::new(), epoch: 1, touched: 0 }
    }

    /// Grows the map to cover at least `n` vertices; fresh slots hold
    /// nothing. Never shrinks.
    pub(crate) fn ensure_len(&mut self, n: usize) {
        if n > self.slots.len() {
            self.slots.resize(n, [0; 2]);
        }
    }

    /// Forgets every vertex in O(1).
    pub(crate) fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill([0; 2]);
            self.epoch = 1;
        }
        self.touched = 0;
    }

    /// The origin recorded for `v`, if the map holds it.
    #[inline(always)]
    pub(crate) fn get(&self, v: VertexId) -> Option<VertexId> {
        let [stamp, origin] = self.slots[v.index()];
        (stamp == self.epoch).then_some(VertexId(origin))
    }

    /// Records `origin` for `v`.
    #[inline(always)]
    pub(crate) fn set(&mut self, v: VertexId, origin: VertexId) {
        let slot = &mut self.slots[v.index()];
        self.touched += usize::from(slot[0] != self.epoch);
        *slot = [self.epoch, origin.0];
    }

    /// Vertices held.
    pub(crate) fn passed_vertices(&self) -> usize {
        self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_n() {
        let m = CloseMap::new(3);
        for i in 0..3 {
            assert_eq!(m.get(VertexId(i)), CloseState::N);
            assert!(m.is_n(VertexId(i)));
        }
        assert_eq!(m.passed_vertices(), 0);
    }

    #[test]
    fn set_and_get() {
        let mut m = CloseMap::new(3);
        m.set(VertexId(0), CloseState::F);
        m.set(VertexId(1), CloseState::T);
        assert_eq!(m.get(VertexId(0)), CloseState::F);
        assert_eq!(m.get(VertexId(1)), CloseState::T);
        assert!(m.is_t(VertexId(1)));
        assert!(!m.is_t(VertexId(0)));
        assert_eq!(m.passed_vertices(), 2);
    }

    #[test]
    fn upgrade_f_to_t_does_not_double_count() {
        let mut m = CloseMap::new(2);
        m.set(VertexId(0), CloseState::F);
        m.set(VertexId(0), CloseState::T);
        assert_eq!(m.get(VertexId(0)), CloseState::T);
        assert_eq!(m.passed_vertices(), 1);
    }

    #[test]
    fn reset_restores_n_cheaply() {
        let mut m = CloseMap::new(4);
        m.set(VertexId(2), CloseState::T);
        m.reset();
        assert_eq!(m.get(VertexId(2)), CloseState::N);
        assert_eq!(m.passed_vertices(), 0);
        m.set(VertexId(2), CloseState::F);
        assert_eq!(m.passed_vertices(), 1);
    }

    #[test]
    fn many_resets_stay_correct() {
        let mut m = CloseMap::new(1);
        for i in 0..10_000 {
            m.reset();
            assert!(m.is_n(VertexId(0)), "iteration {i}");
            m.set(VertexId(0), CloseState::T);
            assert!(m.is_t(VertexId(0)));
        }
    }

    #[test]
    fn epoch_wraparound_at_u32_max_clears_stale_stamps() {
        // Regression: when the epoch wraps past u32::MAX the reset must
        // clear the stamp array for real — otherwise every slot stamped in
        // some ancient epoch that collides with the restarted counter
        // would resurrect as F/T instead of N.
        let mut m = CloseMap::new(4);
        m.force_epoch(u32::MAX);
        m.set(VertexId(0), CloseState::T);
        m.set(VertexId(3), CloseState::F);
        assert!(m.is_t(VertexId(0)));
        m.reset(); // wraps: u32::MAX + 1 == 0 → full clear, epoch restarts at 1
        for i in 0..4 {
            assert!(m.is_n(VertexId(i)), "slot {i} survived the wraparound reset");
        }
        assert_eq!(m.passed_vertices(), 0);
        m.set(VertexId(0), CloseState::F);
        assert_eq!(m.get(VertexId(0)), CloseState::F);
        assert_eq!(m.passed_vertices(), 1);
    }

    #[test]
    fn origin_map_records_and_resets() {
        let mut m = OriginMap::new();
        m.ensure_len(3);
        assert_eq!(m.get(VertexId(1)), None);
        m.set(VertexId(1), VertexId(2));
        m.set(VertexId(2), VertexId(2));
        assert_eq!(m.get(VertexId(1)), Some(VertexId(2)));
        assert_eq!(m.passed_vertices(), 2);
        m.ensure_len(5);
        assert_eq!(m.get(VertexId(4)), None);
        m.reset();
        assert_eq!(m.get(VertexId(1)), None);
        assert_eq!(m.passed_vertices(), 0);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(CloseMap::new(7).len(), 7);
        assert!(!CloseMap::new(7).is_empty());
        assert!(CloseMap::new(0).is_empty());
    }
}
