//! The read path's map hasher: one folded multiply per word, and one to
//! finish.
//!
//! The maps a read consults (the digest memo, the fid generations, the
//! node buffers' and read caches' fid maps, `ChainSet`'s map, the file
//! table) hash a few words per lookup, where SipHash costs more than the
//! probe. Their offsets and VAs are multiples of 4 KiB to 4 MiB, so a plain
//! multiply(-rotate) hash keeps the low bits `hashbrown` indexes with
//! nearly constant; folding the 128-bit product (high half xored into low)
//! carries every key bit into them. Without the finishing fold, keys 1 MiB
//! apart still fill only a third of the slots.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed by [`FoldHasher`].
pub(crate) type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// Running state of one hash: each word is xored in, then the state is
/// replaced by its [`fold`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldHasher(u64);

/// The 128-bit product of `x` and an odd constant, its high half xored
/// into its low half.
#[inline]
fn fold(x: u64) -> u64 {
    let product = x as u128 * 0x9e37_79b9_7f4a_7c15u128;
    product as u64 ^ (product >> 64) as u64
}

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher(0x243f_6a88_85a3_08d3)
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = fold(self.0 ^ n);
    }

    fn finish(&self) -> u64 {
        fold(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{ClientId, SegKey};
    use std::hash::{BuildHasher, Hash};

    const SLOTS_LOG2: u32 = 14;

    /// Slot occupancy of `keys` in a `2^log2`-slot table indexed by the
    /// hash's low bits, as `hashbrown` indexes: (slots used, fullest slot).
    fn spread<K: Hash>(keys: impl Iterator<Item = K>, log2: u32) -> (usize, usize) {
        let hasher = BuildHasherDefault::<FoldHasher>::default();
        let mut slots = vec![0usize; 1 << log2];
        for key in keys {
            slots[(hasher.hash_one(key) & ((1 << log2) - 1)) as usize] += 1;
        }
        let used = slots.iter().filter(|&&n| n > 0).count();
        (used, slots.into_iter().max().unwrap_or(0))
    }

    /// At least half the slots used, and no slot holding more than 16.
    fn assert_spreads<K: Hash>(what: &str, keys: impl Iterator<Item = K>, log2: u32) {
        let (used, fullest) = spread(keys, log2);
        println!(
            "{what}: {used} of {} slots used, fullest holds {fullest}",
            1 << log2
        );
        assert!(used >= 1 << (log2 - 1), "{what}: only {used} slots used");
        assert!(fullest <= 16, "{what}: one slot holds {fullest} keys");
    }

    /// The key shapes the read path's maps hold spread over the low bits:
    /// segment keys 4 KiB, 1 MiB and 4 MiB apart in one fid, the memo's
    /// descriptors of adjacent 4 MiB windows, and the 2 × 64 clients of a
    /// two-application job.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        let n = 1u64 << SLOTS_LOG2;
        for (what, stride) in [
            ("4 KiB", 4u64 << 10),
            ("1 MiB", 1 << 20),
            ("4 MiB", 4 << 20),
        ] {
            let keys = (0..n).map(|i| SegKey {
                fid: 3,
                offset: i * stride,
            });
            assert_spreads(&format!("SegKeys {what} apart"), keys, SLOTS_LOG2);
        }
        let windows = (0..n).map(|i| (0x5eed_u64, i * (4 << 20), 4u64 << 20));
        assert_spreads("memo descriptors of 4 MiB windows", windows, SLOTS_LOG2);
        let clients = (0..2u32).flat_map(|app| (0..64).map(move |rank| ClientId::new(app, rank)));
        assert_spreads("2 × 64 ClientIds", clients, 7);
    }
}
