//! The Fx hasher: a fast multiply-rotate hash for maps keyed by ids the
//! runtimes generate themselves.
//!
//! SipHash's flood resistance buys nothing when no adversary picks the
//! keys, but its cost lands on hot paths: the governor consults a pair
//! map per contended enter, the latency tracker folds every collected
//! event through its interval maps, and the explorer's rollback oracle
//! touches its shadow maps on every logged heap write. Fx (the
//! construction rustc uses) hashes one word in a rotate, a xor and a
//! multiply. It is also unseeded, so iteration order is the same in
//! every process — though nothing here relies on that.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx word-at-a-time hasher.
#[derive(Clone, Debug, Default)]
pub struct FxHasher(u64);

/// A [`HashMap`] keyed through [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`HashSet`] keyed through [`FxHasher`].
pub type FxSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn hashing_is_unseeded_and_separates_nearby_keys() {
        assert_eq!(fx((3u64, 7u64)), fx((3u64, 7u64)));
        assert_ne!(fx((3u64, 7u64)), fx((7u64, 3u64)));
        assert_ne!(fx(1u32), fx(2u32));
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: FxMap<(u64, u64), u32> = FxMap::default();
        for i in 0..1000u64 {
            m.insert((i, i * 31), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(999, 999 * 31)), Some(&999));
        let s: FxSet<u64> = (0..100).chain(0..100).collect();
        assert_eq!(s.len(), 100);
    }
}
