//! A fast, non-cryptographic hasher for the workspace's hot-path maps.
//!
//! The standard library's default SipHash is DoS-resistant but costs tens
//! of nanoseconds per lookup — far too slow for maps probed on every
//! simulated instruction (sparse memory words, exception-kind side
//! tables), every block entry and branch ([`Profile`]), or every
//! instruction of every compile ([`validate`]). These keys are
//! program-controlled addresses, ids and labels, not attacker input, so a
//! multiplicative mixer is both safe and an order of magnitude cheaper.
//! The simulator re-exports this module as `sentinel_sim::hash`.
//!
//! [`Profile`]: crate::profile::Profile
//! [`validate`]: crate::validate()
//!
//! The mixer is splitmix64-style: xor the incoming word into the state,
//! multiply by a large odd constant, then finish with an xor-shift so low
//! bits (which `HashMap` uses for bucket selection) depend on high bits
//! of the key.
//!
//! This is deliberately **not** unified with `sentinel_spec::fnv64`,
//! the workspace's one content hash. The two serve opposite contracts:
//! `fnv64` values are *persisted* — cache keys on disk, spec hashes
//! quoted in failure reports — so its byte-at-a-time definition is
//! pinned by reference vectors and can never change; `FastHasher`
//! values never leave a process (they only pick `HashMap` buckets), so
//! it is free to trade that stability for word-at-a-time speed on the
//! simulator's hot path.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Golden-ratio multiplier (2^64 / φ), the usual Fibonacci-hashing odd
/// constant.
const MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A word-at-a-time multiplicative hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(MULT);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Xor-shift finisher: spreads the (well-mixed) high bits into the
        // low bits HashMap indexes with.
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(MULT);
        h ^= h >> 29;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path (rare for our keys): fold 8-byte chunks, then the
        // length so trailing zeros still perturb the state.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using the fast multiplicative hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` using the fast multiplicative hasher.
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 8, i);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 8)), Some(&i));
        }
        assert_eq!(m.get(&7), None);
    }

    #[test]
    fn sequential_word_keys_spread() {
        // Word-aligned addresses differ only in a few low bits before the
        // mixer; the finisher must still spread them across buckets.
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| {
                let mut h = FastHasher::default();
                h.write_u64(0x1000 + i * 8);
                h.finish()
            })
            .collect();
        let mut low = std::collections::HashSet::new();
        for h in &hashes {
            low.insert(h & 0x3F);
        }
        // 64 keys into 64 buckets: demand a reasonable spread, not
        // perfection.
        assert!(
            low.len() >= 32,
            "only {} distinct low-bit patterns",
            low.len()
        );
    }

    #[test]
    fn generic_write_differs_by_length() {
        let mut a = FastHasher::default();
        a.write(&[0, 0]);
        let mut b = FastHasher::default();
        b.write(&[0, 0, 0]);
        assert_ne!(a.finish(), b.finish());
    }
}
