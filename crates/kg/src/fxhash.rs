//! A vendored FxHash-style hasher.
//!
//! The substrate interns millions of IRIs and hashes small integer keys in
//! hot loops (dictionary lookups, SPARQL join bindings). The standard
//! SipHash hasher is DoS-resistant but slow for these workloads; the
//! Firefox/rustc "Fx" multiply-rotate hash is the usual drop-in replacement.
//! We vendor the ~40-line algorithm instead of pulling a dependency: the
//! build is offline, and its only external crates are the stand-ins listed
//! in vendor/README.md.
//!
//! This is **not** a cryptographic hash and must not be used where attacker-
//! controlled keys could trigger collision blowups; all keys here come from
//! trusted generators or local files.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/Firefox "Fx" hasher: a fast, non-cryptographic `Hasher`.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline(always)]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte words, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            self.add_to_hash(word);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = 0u64;
            for (i, &b) in tail.iter().enumerate() {
                word |= (b as u64) << (8 * i);
            }
            // Mix in the tail length so "a" and "a\0" differ.
            self.add_to_hash(word ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Creates an [`FxHashSet`] with at least `cap` capacity.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = FxHasher::default();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&"hello"), hash_of(&"hellp"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        // Tail-length mixing: prefix-related strings must differ.
        assert_ne!(hash_of(&"a"), hash_of(&"a\0"));
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&"abcdefgh\0"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m = FxHashMap::<&str, u32>::default();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get("a"), Some(&1));

        let mut s = fx_set_with_capacity::<u32>(2);
        s.insert(7);
        assert!(s.contains(&7));
        assert!(!s.contains(&8));
    }

    #[test]
    fn long_keys_hash_all_bytes() {
        let a = "x".repeat(100);
        let mut b = a.clone();
        b.replace_range(95..96, "y"); // differ only in the tail
        assert_ne!(hash_of(&a), hash_of(&b));
    }
}
