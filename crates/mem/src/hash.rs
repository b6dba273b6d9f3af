//! A multiplicative hasher for the simulator's integer-keyed maps.
//!
//! The standard map's SipHash resists keys crafted to collide, which the
//! simulator does not need: its keys are page and table numbers the
//! simulation itself generates, never outside input. The lookups sit on
//! the per-row DMA path (a translation per row, a main-memory page per
//! functional access), where SipHash's cost shows.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-generated integers, hashed with
/// [`IntHasher`]. Its iteration order differs from the standard map's,
/// so no output may depend on it.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// An odd 64-bit constant with well-mixed bits (the FxHash multiplier).
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// Folds each integer written into one word by xor and multiplication,
/// then xors the product's well-mixed high half into the low bits the
/// map picks buckets with.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(key: u64) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    /// Distinct slots among 4096 keys hashed into 4096 buckets; a random
    /// function fills about 63% (1 - 1/e) of them.
    fn slots_used(keys: impl Iterator<Item = u64>) -> usize {
        let slots: std::collections::HashSet<u64> = keys.map(|k| hash(k) & 4095).collect();
        slots.len()
    }

    #[test]
    fn consecutive_and_strided_keys_spread_like_a_random_hash() {
        for used in [
            slots_used(0x8_0000..0x8_0000 + 4096),
            slots_used((0..4096).map(|i| i * 4096)),
        ] {
            assert!(used > 2300, "only {used} of 4096 slots used");
        }
    }
}
