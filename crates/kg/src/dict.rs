//! String interning dictionaries mapping IRIs/literals to dense ids.
//!
//! KGs are stored as RDF triples of strings; every algorithm in this
//! repository works on dense integer ids. `Dict` provides the two-way
//! mapping with O(1) amortized interning and O(1) reverse lookup.
//!
//! Each layer keeps its names in **one string**, with the end offset of
//! every name beside it and an open-addressing table of ids keyed by the
//! names' hash — three allocations however many names there are, so a
//! snapshot load copies the dictionary section into place instead of
//! allocating once per name, and a name costs its bytes plus 4 B of
//! offset and at most 16 B of table.
//!
//! Internally a dictionary is **layered**: a frozen base (shared behind an
//! `Arc` by every clone) plus a small owned tail of names interned since
//! the last [freeze](Dict#freezing). Cloning therefore costs O(tail), not
//! O(total) — the property the dynamic-update path relies on to make the
//! engine's pre-swap graph copy O(delta) (a graph clone between
//! compactions only copies the names the updates themselves added).
//!
//! # Freezing
//!
//! `Graph::from_parts` (the build/compact/snapshot-load funnel) freezes
//! both dictionaries, merging the tail into a fresh shared base, so every
//! compact graph starts with an empty tail. Ids never change across a
//! freeze — the base keeps the prefix, the tail keeps the suffix.
//!
//! ```
//! use kgreach_graph::dict::Dict;
//!
//! let mut d = Dict::new();
//! let id = d.intern("http://example.org/alice");
//! assert_eq!(d.intern("http://example.org/alice"), id); // idempotent
//! assert_eq!(d.name(id), "http://example.org/alice");
//! assert_eq!(d.get("missing"), None);
//! ```

use crate::fxhash::FxHasher;
use std::hash::Hasher;
use std::sync::Arc;

/// A free slot of [`Names::slots`].
const EMPTY: u32 = u32::MAX;

fn hash(name: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

/// One layer of a [`Dict`]: layer-local ids `0..len`.
#[derive(Default, Clone, Debug)]
struct Names {
    /// The names, concatenated in id order.
    text: String,
    /// `ends[i]` is where name `i` ends in `text`; it starts where name
    /// `i - 1` ends.
    ends: Vec<u32>,
    /// Linear-probing table of ids, [`EMPTY`] where free; a power of two
    /// at least twice the name count long, or empty while there are none.
    slots: Vec<u32>,
}

impl Names {
    fn with_capacity(names: usize, bytes: usize) -> Self {
        let mut n = Names {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
            slots: Vec::new(),
        };
        n.resize_slots(names);
        n
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn name(&self, id: usize) -> &str {
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.text[start..self.ends[id] as usize]
    }

    /// The table slot a probe for hash `h` starts at: the hash's top bits
    /// (Fx mixes its high bits best).
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    fn find(&self, name: &str, h: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(h);
        loop {
            match self.slots[at] {
                EMPTY => return None,
                id if self.name(id as usize) == name => return Some(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn place(&mut self, id: u32, h: u64) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(h);
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = id;
    }

    /// Re-tables every name for room for `names` of them.
    fn resize_slots(&mut self, names: usize) {
        self.slots = vec![EMPTY; (2 * names).next_power_of_two().max(8)];
        for id in 0..self.len() {
            self.place(id as u32, hash(self.name(id)));
        }
    }

    /// Appends `name`, which this layer does not hold, as the next id.
    fn push(&mut self, name: &str, h: u64) -> u32 {
        let id = self.len() as u32;
        self.text.push_str(name);
        self.ends.push(u32::try_from(self.text.len()).expect("a dictionary holds under 4 GiB"));
        if 2 * self.len() > self.slots.len() {
            self.resize_slots(self.len());
        } else {
            self.place(id, h);
        }
        id
    }

    fn heap_bytes(&self) -> usize {
        self.text.capacity() + 4 * (self.ends.capacity() + self.slots.len())
    }
}

/// A two-way string ↔ dense-id dictionary.
///
/// Ids are assigned in first-seen order starting from 0, so they can be used
/// directly as array indices.
#[derive(Default, Clone, Debug)]
pub struct Dict {
    /// Frozen shared prefix; never mutated once built.
    base: Arc<Names>,
    /// Names interned after the last freeze; `id = base len + tail id`.
    tail: Names,
}

impl Dict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dict::default()
    }

    /// Creates an empty dictionary with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        Dict { base: Arc::default(), tail: Names::with_capacity(cap, 16 * cap) }
    }

    /// Rebuilds a dictionary from its id-ordered names (snapshot
    /// decoding), already frozen. Returns `None` if the list holds
    /// duplicate names — a corrupt snapshot, since interning can never
    /// assign two ids to one name.
    pub(crate) fn from_names(names: &[&str]) -> Option<Dict> {
        let bytes = names.iter().map(|n| n.len()).sum();
        let mut base = Names::with_capacity(names.len(), bytes);
        for name in names {
            let h = hash(name);
            if base.find(name, h).is_some() {
                return None;
            }
            base.push(name, h);
        }
        Some(Dict { base: Arc::new(base), tail: Names::default() })
    }

    /// Merges the tail into a fresh shared base, leaving the tail empty.
    /// Ids are unchanged. O(1) when the tail is already empty; otherwise
    /// O(total) — paid only at build/compact/snapshot-load time, never per
    /// update batch.
    pub(crate) fn freeze(&mut self) {
        if self.tail.len() == 0 {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        let mut merged = if self.base.len() == 0 {
            tail
        } else {
            let shared = std::mem::take(&mut self.base);
            let mut merged = Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone());
            for id in 0..tail.len() {
                let name = tail.name(id);
                merged.push(name, hash(name));
            }
            merged
        };
        merged.text.shrink_to_fit();
        merged.ends.shrink_to_fit();
        self.base = Arc::new(merged);
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> u32 {
        let h = hash(name);
        if let Some(id) = self.base.find(name, h) {
            return id;
        }
        let base = self.base.len() as u32;
        base + self.tail.find(name, h).unwrap_or_else(|| self.tail.push(name, h))
    }

    /// Looks up the id of `name`, if interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        let h = hash(name);
        self.base
            .find(name, h)
            .or_else(|| self.tail.find(name, h).map(|id| self.base.len() as u32 + id))
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    /// Panics if `id` was never assigned.
    pub fn name(&self, id: u32) -> &str {
        self.try_name(id).unwrap_or_else(|| panic!("dictionary id {id} was never assigned"))
    }

    /// Returns the string for `id`, if assigned.
    pub fn try_name(&self, id: u32) -> Option<&str> {
        let id = id as usize;
        match id.checked_sub(self.base.len()) {
            None => Some(self.base.name(id)),
            Some(i) if i < self.tail.len() => Some(self.tail.name(i)),
            Some(_) => None,
        }
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        (0..self.len() as u32).map(|id| (id, self.name(id)))
    }

    /// Heap footprint in bytes (for index-size reporting). The frozen base
    /// is counted in full even though clones share it — the figure models
    /// a standalone graph, not marginal cost.
    pub fn heap_bytes(&self) -> usize {
        self.base.heap_bytes() + self.tail.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids() {
        let mut d = Dict::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("a"), 0); // idempotent
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn reverse_lookup() {
        let mut d = Dict::with_capacity(4);
        let id = d.intern("http://example.org/x");
        assert_eq!(d.name(id), "http://example.org/x");
        assert_eq!(d.try_name(id), Some("http://example.org/x"));
        assert_eq!(d.try_name(id + 1), None);
    }

    #[test]
    fn get_without_interning() {
        let mut d = Dict::new();
        assert_eq!(d.get("missing"), None);
        d.intern("present");
        assert_eq!(d.get("present"), Some(0));
    }

    #[test]
    fn iteration_in_id_order() {
        let mut d = Dict::new();
        d.intern("x");
        d.intern("y");
        d.intern("z");
        let v: Vec<(u32, &str)> = d.iter().collect();
        assert_eq!(v, vec![(0, "x"), (1, "y"), (2, "z")]);
    }

    #[test]
    fn from_names_rebuilds_and_rejects_duplicates() {
        let d = Dict::from_names(&["a", "b", "c"]).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.get("b"), Some(1));
        assert_eq!(d.name(2), "c");
        assert!(Dict::from_names(&["a", "b", "a"]).is_none());
    }

    #[test]
    fn many_names_survive_every_table_growth() {
        let mut d = Dict::new();
        let names: Vec<String> = (0..5_000).map(|i| format!("n{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            assert_eq!(d.intern(n), i as u32);
            if i == 1_234 {
                d.freeze(); // the rest lands in a tail over a base
            }
        }
        d.intern(""); // the empty name is a name too
        for (i, n) in names.iter().enumerate() {
            assert_eq!(d.get(n), Some(i as u32));
            assert_eq!(d.name(i as u32), n);
        }
        assert_eq!(d.get(""), Some(5_000));
        assert_eq!(d.get("n5000"), None);
        d.freeze();
        assert_eq!(d.get("n4999"), Some(4_999));
        assert_eq!(d.try_name(5_001), None);
    }

    #[test]
    fn empty_and_bytes() {
        let d = Dict::new();
        assert!(d.is_empty());
        let mut d = d;
        d.intern("abc");
        assert!(!d.is_empty());
        assert!(d.heap_bytes() >= 3); // the shared copy of "abc"
    }

    #[test]
    fn freeze_preserves_ids_and_lookups() {
        let mut d = Dict::new();
        d.intern("a");
        d.intern("b");
        d.freeze();
        assert_eq!(d.intern("c"), 2); // tail continues the id space
        assert_eq!(d.intern("a"), 0); // base hit after freeze
        d.freeze(); // merge a non-empty tail into a non-empty base
        assert_eq!(d.len(), 3);
        assert_eq!(d.get("c"), Some(2));
        assert_eq!(d.name(2), "c");
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(0, "a"), (1, "b"), (2, "c")]);
        d.freeze(); // idempotent on an empty tail
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn clones_share_the_frozen_base() {
        let mut d = Dict::new();
        d.intern("shared");
        d.freeze();
        let c = d.clone();
        // The base layer is shared: both dictionaries resolve id 0 to the
        // very same string storage.
        assert!(std::ptr::eq(d.name(0).as_ptr(), c.name(0).as_ptr()));
        // Divergent tails stay independent.
        let mut c = c;
        assert_eq!(d.intern("only-d"), 1);
        assert_eq!(c.intern("only-c"), 1);
        assert_eq!(d.get("only-c"), None);
        assert_eq!(c.get("only-d"), None);
    }

    #[test]
    fn layered_lookups_cover_both_layers() {
        let mut d = Dict::new();
        d.intern("base-0");
        d.freeze();
        d.intern("tail-1");
        assert_eq!(d.get("base-0"), Some(0));
        assert_eq!(d.get("tail-1"), Some(1));
        assert_eq!(d.try_name(0), Some("base-0"));
        assert_eq!(d.try_name(1), Some("tail-1"));
        assert_eq!(d.try_name(2), None);
        assert!(d.heap_bytes() >= "base-0".len() + "tail-1".len());
    }
}
