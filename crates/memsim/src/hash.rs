//! The one line hash of the simulator: a multiplicative (Fibonacci) hash
//! of a 64-bit key such as a cache-line index, a region number or a
//! prefetcher signature.
//!
//! The hardware tables the simulator models index with a few address bits;
//! a general-purpose `HashMap` with `SipHash` costs tens of nanoseconds per
//! probe on the per-access hot path. [`line_hash`] indexes the MSHR table
//! directly, and [`LineHashBuilder`] plugs the same hash into the
//! prefetchers' `HashMap`s with `u64` keys.
//!
//! **Why swapping the hasher cannot change results:** a `HashMap`'s hasher
//! decides only its internal bucket layout, which is observable solely
//! through iteration order. Every map keyed with [`LineHashBuilder`] is
//! used through keyed lookups, inserts and removals only and is never
//! iterated (MLOP's `counts` and `blocks`, Bingo's `accumulating` and
//! `history`, Pythia's `tracked`);
//! keep it that way, or iterate a side list in insertion order instead.
//! Unlike `SipHash` the line hash is unkeyed, so a trace crafted to collide
//! can slow a run down; it cannot change the run's results.

use std::hash::{BuildHasherDefault, Hasher};

/// The golden-ratio multiplier (2⁶⁴ / φ, odd).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hashes a 64-bit key: the golden-ratio multiply mixes the low key bits
/// into the high product bits, and the rotation brings those well-mixed
/// bits down to where a power-of-two table masks its index from.
///
/// # Example
///
/// ```
/// use mab_memsim::hash::line_hash;
///
/// let mask = 1023;
/// // Neighbouring lines land in different slots of a 1024-slot table.
/// assert_ne!(line_hash(64) & mask, line_hash(65) & mask);
/// ```
#[inline]
pub fn line_hash(key: u64) -> u64 {
    key.wrapping_mul(GOLDEN).rotate_left(32)
}

/// A [`Hasher`] applying [`line_hash`] to one `u64` key. It hashes `u64`
/// keys only: any other input panics.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher {
    hash: u64,
}

impl Hasher for LineHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.hash = line_hash(self.hash ^ key);
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("LineHasher hashes u64 keys only")
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`std::hash::BuildHasher`] for maps keyed by line indices or other
/// `u64` keys: `HashMap<u64, V, LineHashBuilder>`.
pub type LineHashBuilder = BuildHasherDefault<LineHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    #[test]
    fn a_u64_key_hashes_to_line_hash() {
        assert_eq!(
            LineHashBuilder::default().hash_one(12_345u64),
            line_hash(12_345)
        );
    }

    #[test]
    fn strided_keys_spread_over_a_small_table() {
        // Keys that share their low bits (a 4 KB stride in lines) must not
        // pile into one slot of a power-of-two table.
        let slots: std::collections::HashSet<u64> =
            (0..64u64).map(|i| line_hash(i << 6) & 127).collect();
        assert!(slots.len() > 32, "{} distinct slots", slots.len());
    }

    #[test]
    fn maps_with_the_line_hash_behave_like_maps() {
        let mut map: HashMap<u64, u64, LineHashBuilder> = HashMap::default();
        for key in 0..5_000u64 {
            map.insert(key * 64, key);
        }
        for key in (0..5_000u64).step_by(2) {
            map.remove(&(key * 64));
        }
        assert_eq!(map.len(), 2_500);
        assert_eq!(map.get(&(4_999 * 64)), Some(&4_999));
        assert_eq!(map.get(&(4_998 * 64)), None);
    }
}
