//! A small, fast, non-cryptographic hasher for the solver's internal
//! tables (the Firefox/rustc "Fx" multiply-rotate construction).
//!
//! The fact store hashes *encoded* tuples — short sequences of `u64`
//! slots — millions of times per solve; SipHash's per-hash setup cost
//! dominates at that grain. Keys are engine-controlled (row encodings,
//! spill values), not attacker-controlled, so HashDoS resistance is not
//! needed here.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher: one multiply-rotate step per written word.
#[derive(Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` with the Fx hasher.
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the Fx hasher.
pub(crate) type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hashes a sequence of encoded value slots (the row-hash used by the
/// columnar store's membership set and indexes).
#[inline]
pub(crate) fn hash_slots(slots: &[u64]) -> u64 {
    hash_words(slots.iter().copied())
}

/// [`hash_slots`] of slots read in place — a stored row's columns, or
/// the key columns of one — instead of gathered into a slice first.
#[inline]
pub(crate) fn hash_words(words: impl ExactSizeIterator<Item = u64>) -> u64 {
    let len = words.len();
    let mut h = FxHasher::default();
    for w in words {
        h.add(w);
    }
    // Length matters: (a) and (a, 0) must not collide trivially.
    h.add(len as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_hashes_differ_by_length_and_content() {
        assert_ne!(hash_slots(&[1]), hash_slots(&[1, 0]));
        assert_ne!(hash_slots(&[1, 2]), hash_slots(&[2, 1]));
        assert_eq!(hash_slots(&[7, 9]), hash_slots(&[7, 9]));
        let cols = [vec![5, 7], vec![6, 9]];
        assert_eq!(
            hash_words(cols.iter().map(|col| col[1])),
            hash_slots(&[7, 9])
        );
    }

    #[test]
    fn byte_writes_cover_tails() {
        let mut a = FxHasher::default();
        a.write(b"hello world!!");
        let mut b = FxHasher::default();
        b.write(b"hello world!?");
        assert_ne!(a.finish(), b.finish());
    }
}
