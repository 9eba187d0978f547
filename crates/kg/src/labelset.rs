//! Label sets and collections of minimal sufficient label sets (CMS).
//!
//! The paper's label-constraint machinery is built on two objects:
//!
//! * **`L(p)`** — the set of labels on a path, and the label constraint `L`
//!   of a query; both are subsets of the graph's label alphabet `𝓛` and are
//!   represented here as a [`LabelSet`] bitset over at most [`MAX_LABELS`]
//!   labels.
//! * **CMS** (Definition 2.3 / 5.1) — the collection of *minimal* sufficient
//!   path label sets between two vertices: an antichain under `⊆`.
//!   [`Cms`] maintains that antichain with exactly the paper's `Insert`
//!   semantics (Algorithm 3, lines 16–24).
//!
//! The exponential `2^|𝓛|` factors in the paper's complexity analyses are
//! inherent to CMS-style indexing, which is why label alphabets stay small
//! (LUBM has ~32 predicates). A `u64` bitset covers every workload in the
//! evaluation; graphs with more labels are rejected at construction time.
//!
//! ```
//! use kgreach_graph::{LabelId, LabelSet};
//!
//! let mut l = LabelSet::EMPTY;
//! l.insert(LabelId(3));
//! let broad = LabelSet::all(8);
//! assert!(l.is_subset_of(broad));
//! assert_eq!(l.intersection(broad), l);
//! assert_eq!(broad.len(), 8);
//! ```

use crate::ids::LabelId;
use std::fmt;

/// Maximum number of distinct edge labels supported by [`LabelSet`].
pub const MAX_LABELS: usize = 64;

/// A set of edge labels, stored as a 64-bit bitset.
///
/// Supports the subset/superset tests and unions that dominate LSCR query
/// processing, each in a handful of instructions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct LabelSet(u64);

impl LabelSet {
    /// The empty label set `{}`.
    pub const EMPTY: LabelSet = LabelSet(0);

    /// Creates a set containing every label id in `0..n`.
    ///
    /// # Panics
    /// Panics if `n > MAX_LABELS`.
    pub fn all(n: usize) -> Self {
        assert!(n <= MAX_LABELS, "at most {MAX_LABELS} labels supported");
        if n == MAX_LABELS {
            LabelSet(u64::MAX)
        } else {
            LabelSet((1u64 << n) - 1)
        }
    }

    /// Creates a singleton set `{l}`.
    #[inline(always)]
    pub fn singleton(l: LabelId) -> Self {
        debug_assert!(l.index() < MAX_LABELS);
        LabelSet(1u64 << l.index())
    }

    /// Builds a set from raw bits (test/serialization helper).
    #[inline(always)]
    pub const fn from_bits(bits: u64) -> Self {
        LabelSet(bits)
    }

    /// Returns the raw bits (serialization helper).
    #[inline(always)]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Whether this set contains label `l`.
    #[inline(always)]
    pub fn contains(self, l: LabelId) -> bool {
        debug_assert!(l.index() < MAX_LABELS);
        self.0 & (1u64 << l.index()) != 0
    }

    /// Returns `self ∪ {l}`.
    #[inline(always)]
    #[must_use]
    pub fn with(self, l: LabelId) -> Self {
        debug_assert!(l.index() < MAX_LABELS);
        LabelSet(self.0 | (1u64 << l.index()))
    }

    /// Inserts label `l` in place.
    #[inline(always)]
    pub fn insert(&mut self, l: LabelId) {
        debug_assert!(l.index() < MAX_LABELS);
        self.0 |= 1u64 << l.index();
    }

    /// Removes label `l` in place.
    #[inline(always)]
    pub fn remove(&mut self, l: LabelId) {
        debug_assert!(l.index() < MAX_LABELS);
        self.0 &= !(1u64 << l.index());
    }

    /// Returns `self ∪ other`.
    #[inline(always)]
    #[must_use]
    pub fn union(self, other: LabelSet) -> Self {
        LabelSet(self.0 | other.0)
    }

    /// Returns `self ∩ other`.
    #[inline(always)]
    #[must_use]
    pub fn intersection(self, other: LabelSet) -> Self {
        LabelSet(self.0 & other.0)
    }

    /// Returns `self \ other`.
    #[inline(always)]
    #[must_use]
    pub fn difference(self, other: LabelSet) -> Self {
        LabelSet(self.0 & !other.0)
    }

    /// Whether `self ⊆ other` — the test at the heart of every label
    /// constraint check (`L(p) ⊆ L`).
    #[inline(always)]
    pub fn is_subset_of(self, other: LabelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether `self ⊂ other` (proper subset).
    #[inline(always)]
    pub fn is_proper_subset_of(self, other: LabelSet) -> bool {
        self.0 != other.0 && self.is_subset_of(other)
    }

    /// Whether the set is empty.
    #[inline(always)]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of labels in the set.
    #[inline(always)]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the labels in ascending id order.
    pub fn iter(self) -> LabelSetIter {
        LabelSetIter(self.0)
    }
}

impl FromIterator<LabelId> for LabelSet {
    fn from_iter<I: IntoIterator<Item = LabelId>>(iter: I) -> Self {
        let mut s = LabelSet::EMPTY;
        for l in iter {
            s.insert(l);
        }
        s
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for l in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", l.0)?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// Iterator over the labels of a [`LabelSet`].
pub struct LabelSetIter(u64);

impl Iterator for LabelSetIter {
    type Item = LabelId;

    #[inline]
    fn next(&mut self) -> Option<LabelId> {
        if self.0 == 0 {
            None
        } else {
            let tz = self.0.trailing_zeros();
            self.0 &= self.0 - 1; // clear lowest set bit
            Some(LabelId(tz as u16))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for LabelSetIter {}

/// A collection of minimal sufficient label sets — the paper's CMS
/// (`M(s,t)`, Definition 2.3) and the values of local-index entries
/// (`II[u]`, `EI[u]`).
///
/// Invariant: the stored sets form an **antichain** under `⊆` — no stored
/// set is a subset of another. [`Cms::insert`] maintains this with the
/// paper's `Insert` semantics (Algorithm 3, lines 16–24): an incoming set is
/// rejected if some stored set is a subset of it; otherwise every stored
/// superset is evicted and the new set is added.
///
/// Sets are kept sorted by `(len, bits)` so that `covers` scans small sets
/// first (they are the most likely to be subsets of a query constraint).
/// A collection of one set — most local-index entries on LUBM — holds it
/// inline, with no allocation of its own.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cms {
    sets: Sets,
}

/// The stored sets: inline when there is exactly one, so each collection
/// has one representation and the derived equality holds.
#[derive(Clone, PartialEq, Eq)]
enum Sets {
    One(LabelSet),
    /// Zero, or two or more.
    Many(Vec<LabelSet>),
}

impl Default for Sets {
    fn default() -> Self {
        Sets::Many(Vec::new())
    }
}

impl Sets {
    fn from_vec(mut sets: Vec<LabelSet>) -> Sets {
        match sets.len() {
            1 => Sets::One(sets.pop().expect("one set")),
            _ => Sets::Many(sets),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[LabelSet] {
        match self {
            Sets::One(set) => std::slice::from_ref(set),
            Sets::Many(sets) => sets,
        }
    }
}

impl Cms {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Cms::default()
    }

    /// Reassembles a collection from its canonical serialized order —
    /// ascending `(len, bits)`, exactly what [`iter`](Self::iter) yields —
    /// without paying per-set [`insert`](Self::insert) scans (snapshot
    /// decoding). Returns `None` unless the sets are canonically ordered
    /// and form an antichain, so corrupt data cannot smuggle in a
    /// non-minimal collection.
    pub fn from_canonical_sets(sets: &[LabelSet]) -> Option<Cms> {
        let ordered =
            sets.windows(2).all(|w| (w[0].len(), w[0].bits()) < (w[1].len(), w[1].bits()));
        if !ordered {
            return None;
        }
        let cms = Cms { sets: Sets::from_vec(sets.to_vec()) };
        cms.is_antichain().then_some(cms)
    }

    /// The paper's `Insert(v, L, index[u])` label-set update: returns `true`
    /// iff the collection changed (i.e. `L` was *not* already covered).
    ///
    /// * if some stored `L' ⊆ L`, the collection is unchanged → `false`;
    /// * otherwise every stored `L'' ⊃ L` is removed, `L` is added → `true`.
    pub fn insert(&mut self, set: LabelSet) -> bool {
        if self.covers(set) {
            return false;
        }
        // No stored subset: evict strict supersets, then add.
        match &mut self.sets {
            Sets::Many(sets) if sets.is_empty() => self.sets = Sets::One(set),
            Sets::One(only) if set.is_proper_subset_of(*only) => *only = set,
            _ => {
                let mut sets = match std::mem::take(&mut self.sets) {
                    Sets::One(only) => vec![only],
                    Sets::Many(sets) => sets,
                };
                sets.retain(|s| !set.is_proper_subset_of(*s));
                let pos = sets.partition_point(|s| (s.len(), s.bits()) < (set.len(), set.bits()));
                sets.insert(pos, set);
                self.sets = Sets::from_vec(sets);
            }
        }
        true
    }

    /// Whether `L` would be rejected by [`insert`](Self::insert) — i.e.
    /// some stored minimal set is a subset of `L`. This is the query-time
    /// test of Theorem 5.1 / function `Check`: if `covers(L)` on `M(u,v)`,
    /// then `u ⇝ v` under constraint `L`.
    #[inline]
    pub fn covers(&self, constraint: LabelSet) -> bool {
        self.sets.as_slice().iter().any(|s| s.is_subset_of(constraint))
    }

    /// Merges another collection into this one; returns `true` if anything
    /// changed.
    pub fn merge(&mut self, other: &Cms) -> bool {
        let mut changed = false;
        for s in other.iter() {
            changed |= self.insert(s);
        }
        changed
    }

    /// Number of minimal sets stored.
    pub fn len(&self) -> usize {
        self.sets.as_slice().len()
    }

    /// Whether the collection is empty (vertex pair unreachable).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the minimal sets (sorted by size, then bits).
    pub fn iter(&self) -> impl Iterator<Item = LabelSet> + '_ {
        self.sets.as_slice().iter().copied()
    }

    /// Approximate heap footprint in bytes (for index-size reporting).
    pub fn heap_bytes(&self) -> usize {
        match &self.sets {
            Sets::One(_) => 0,
            Sets::Many(sets) => sets.capacity() * std::mem::size_of::<LabelSet>(),
        }
    }

    /// Checks the antichain invariant (test / debug helper).
    pub fn is_antichain(&self) -> bool {
        let sets = self.sets.as_slice();
        for (i, &a) in sets.iter().enumerate() {
            for &b in &sets[i + 1..] {
                if a.is_subset_of(b) || b.is_subset_of(a) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for Cms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<LabelSet> for Cms {
    fn from_iter<I: IntoIterator<Item = LabelSet>>(iter: I) -> Self {
        let mut c = Cms::new();
        for s in iter {
            c.insert(s);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ls(ids: &[u16]) -> LabelSet {
        ids.iter().map(|&i| LabelId(i)).collect()
    }

    #[test]
    fn empty_and_all() {
        assert!(LabelSet::EMPTY.is_empty());
        assert_eq!(LabelSet::all(0), LabelSet::EMPTY);
        assert_eq!(LabelSet::all(3).len(), 3);
        assert_eq!(LabelSet::all(64).len(), 64);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn all_rejects_too_many() {
        let _ = LabelSet::all(65);
    }

    #[test]
    fn set_operations() {
        let a = ls(&[0, 2, 5]);
        let b = ls(&[2, 5, 9]);
        assert_eq!(a.union(b), ls(&[0, 2, 5, 9]));
        assert_eq!(a.intersection(b), ls(&[2, 5]));
        assert_eq!(a.difference(b), ls(&[0]));
        assert!(ls(&[2]).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert!(a.is_subset_of(a));
        assert!(!a.is_proper_subset_of(a));
        assert!(ls(&[2, 5]).is_proper_subset_of(a));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = LabelSet::EMPTY;
        s.insert(LabelId(4));
        assert!(s.contains(LabelId(4)));
        assert!(!s.contains(LabelId(5)));
        s.remove(LabelId(4));
        assert!(s.is_empty());
        assert_eq!(LabelSet::singleton(LabelId(63)).len(), 1);
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = ls(&[9, 0, 33, 2]);
        let v: Vec<u16> = s.iter().map(|l| l.0).collect();
        assert_eq!(v, vec![0, 2, 9, 33]);
        assert_eq!(s.iter().len(), 4);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", ls(&[1, 3])), "{1,3}");
        assert_eq!(format!("{:?}", LabelSet::EMPTY), "{}");
    }

    #[test]
    fn cms_insert_rejects_supersets_of_existing() {
        let mut c = Cms::new();
        assert!(c.insert(ls(&[1, 2])));
        assert!(!c.insert(ls(&[1, 2, 3]))); // superset rejected
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cms_insert_evicts_strict_supersets() {
        let mut c = Cms::new();
        assert!(c.insert(ls(&[1, 2, 3])));
        assert!(c.insert(ls(&[1, 2, 4])));
        assert!(c.insert(ls(&[1, 2]))); // evicts both supersets
        assert_eq!(c.len(), 1);
        assert!(c.covers(ls(&[1, 2])));
        assert!(c.is_antichain());
    }

    #[test]
    fn cms_insert_duplicate_is_noop() {
        let mut c = Cms::new();
        assert!(c.insert(ls(&[1])));
        assert!(!c.insert(ls(&[1])));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cms_empty_set_dominates_everything() {
        let mut c = Cms::new();
        c.insert(ls(&[1, 2]));
        c.insert(ls(&[3]));
        assert!(c.insert(LabelSet::EMPTY));
        assert_eq!(c.len(), 1);
        assert!(c.covers(LabelSet::EMPTY));
        assert!(c.covers(ls(&[9])));
    }

    #[test]
    fn cms_covers_semantics() {
        let c: Cms = [ls(&[1, 2]), ls(&[3])].into_iter().collect();
        assert!(c.covers(ls(&[1, 2, 5])));
        assert!(c.covers(ls(&[3])));
        assert!(!c.covers(ls(&[1, 5])));
        assert!(!Cms::new().covers(LabelSet::all(64)));
    }

    #[test]
    fn cms_merge() {
        let mut a: Cms = [ls(&[1, 2]), ls(&[4, 5])].into_iter().collect();
        let b: Cms = [ls(&[1]), ls(&[4, 5, 6])].into_iter().collect();
        assert!(a.merge(&b)); // {1} evicts {1,2}; {4,5,6} rejected
        assert_eq!(a.len(), 2);
        assert!(a.covers(ls(&[1])));
        assert!(a.covers(ls(&[4, 5])));
        assert!(a.is_antichain());
        assert!(!a.merge(&b)); // second merge is a no-op
    }

    #[test]
    fn cms_incomparable_sets_coexist() {
        let mut c = Cms::new();
        c.insert(ls(&[1, 2]));
        c.insert(ls(&[2, 3]));
        c.insert(ls(&[1, 3]));
        assert_eq!(c.len(), 3);
        assert!(c.is_antichain());
    }

    #[test]
    fn cms_sorted_small_first() {
        let mut c = Cms::new();
        c.insert(ls(&[1, 2, 3]));
        c.insert(ls(&[7]));
        c.insert(ls(&[4, 5]));
        let lens: Vec<usize> = c.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn heap_bytes_nonzero_after_insert() {
        // One set is held inline; a second incomparable one allocates.
        let mut c = Cms::new();
        assert_eq!(c.heap_bytes(), 0);
        c.insert(ls(&[1]));
        assert_eq!(c.heap_bytes(), 0);
        c.insert(ls(&[2]));
        assert!(c.heap_bytes() >= 2 * std::mem::size_of::<LabelSet>());
    }

    #[test]
    fn cms_representations_compare_by_content() {
        // However a collection reached one set — inserted, evicted down to
        // it, or decoded — it is the same value.
        let mut evicted: Cms = [ls(&[1, 2]), ls(&[1, 3])].into_iter().collect();
        evicted.insert(ls(&[1]));
        let inserted: Cms = [ls(&[1])].into_iter().collect();
        let decoded = Cms::from_canonical_sets(&[ls(&[1])]).unwrap();
        assert_eq!(evicted, inserted);
        assert_eq!(decoded, inserted);
        assert_eq!(Cms::from_canonical_sets(&[]).unwrap(), Cms::new());
        assert!(Cms::from_canonical_sets(&[ls(&[1]), ls(&[1, 2])]).is_none());
        assert!(std::mem::size_of::<Cms>() <= 24, "the inline set rides in the Vec's niche");
    }
}
