//! The Bloom filter implementation.

use crate::sizing;
use nemo_util::hash_u64;

/// A Bloom filter over 64-bit keys with double hashing.
///
/// Probe positions are derived as `h1 + i·h2 (mod m)` (Kirsch–Mitzenmacher),
/// which matches the paper's observation that "each hash function is
/// computed once and the results are shared across all filters in the PBFG"
/// (§5.5): callers can precompute a [`ProbeSet`] once per key and test it
/// against many filters, or a [`ProbeTable`] of the positions themselves
/// when the filters share one size, as those of a PBFG do.
///
/// # Examples
///
/// ```
/// use nemo_bloom::BloomFilter;
///
/// let mut bf = BloomFilter::for_items(100, 0.01);
/// for k in 0..100 {
///     bf.insert(k);
/// }
/// assert!((0..100).all(|k| bf.contains(k)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m_bits: u64,
    k: u32,
    items: u64,
}

/// Precomputed probe pair for one key, shareable across equally-sized
/// filters in a PBFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSet {
    h1: u64,
    h2: u64,
}

impl ProbeSet {
    /// Computes the probe pair for a key.
    pub fn for_key(key: u64) -> Self {
        Self {
            h1: hash_u64(key, 0x5111_71AF),
            h2: hash_u64(key, 0xB10F_0B57) | 1, // odd stride
        }
    }

    #[inline]
    fn position(&self, i: u32, m_bits: u64) -> u64 {
        self.h1.wrapping_add(self.h2.wrapping_mul(i as u64)) % m_bits
    }
}

impl BloomFilter {
    /// Creates a filter sized for `items` keys at the target false-positive
    /// rate, using the optimal bits/key and hash count from [`sizing`].
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `fpr` is not in `(0, 1)`.
    pub fn for_items(items: u64, fpr: f64) -> Self {
        assert!(items > 0, "items must be positive");
        let bpk = sizing::bits_per_key(fpr);
        let m_bits = ((bpk * items as f64).ceil() as u64).max(64);
        let k = sizing::optimal_hashes(bpk);
        Self::with_geometry(m_bits, k)
    }

    /// Creates a filter with an explicit bit count and hash count.
    ///
    /// The bit count is rounded up to a multiple of 64.
    ///
    /// # Panics
    ///
    /// Panics if `m_bits == 0` or `k == 0`.
    pub fn with_geometry(m_bits: u64, k: u32) -> Self {
        assert!(m_bits > 0, "m_bits must be positive");
        assert!(k > 0, "k must be positive");
        let words = m_bits.div_ceil(64) as usize;
        Self {
            bits: vec![0; words],
            m_bits: words as u64 * 64,
            k,
            items: 0,
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let probes = ProbeSet::for_key(key);
        self.insert_probes(&probes);
    }

    /// Inserts using a precomputed probe set.
    pub fn insert_probes(&mut self, probes: &ProbeSet) {
        for i in 0..self.k {
            let pos = probes.position(i, self.m_bits);
            self.bits[(pos / 64) as usize] |= 1u64 << (pos % 64);
        }
        self.items += 1;
    }

    /// Tests a key. False positives are possible; false negatives are not.
    pub fn contains(&self, key: u64) -> bool {
        self.contains_probes(&ProbeSet::for_key(key))
    }

    /// Tests a precomputed probe set.
    #[inline]
    pub fn contains_probes(&self, probes: &ProbeSet) -> bool {
        (0..self.k).all(|i| {
            let pos = probes.position(i, self.m_bits);
            self.bits[(pos / 64) as usize] & (1u64 << (pos % 64)) != 0
        })
    }

    /// Clears all bits (the filter is reused when its SG is evicted).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.items = 0;
    }

    /// Number of keys inserted since creation or the last clear.
    pub fn item_count(&self) -> u64 {
        self.items
    }

    /// Filter size in bits (rounded up to whole words).
    pub fn bit_len(&self) -> u64 {
        self.m_bits
    }

    /// Number of hash probes per key.
    pub fn hash_count(&self) -> u32 {
        self.k
    }

    /// Size of the serialized form in bytes.
    pub fn serialized_len(&self) -> usize {
        self.bits.len() * 8
    }

    /// Serializes the bit array into `out` (little-endian words).
    ///
    /// # Panics
    ///
    /// Panics if `out` is smaller than [`Self::serialized_len`].
    pub fn write_bytes(&self, out: &mut [u8]) {
        assert!(
            out.len() >= self.serialized_len(),
            "output buffer too small"
        );
        for (i, w) in self.bits.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Reconstructs a filter from bytes produced by [`Self::write_bytes`].
    ///
    /// `item_count` is not stored in the serialized form and resets to 0.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a multiple of 8 or `k == 0`.
    pub fn from_bytes(bytes: &[u8], k: u32) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(
            bytes.len() % 8 == 0,
            "serialized filter must be word-aligned"
        );
        let bits: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        let m_bits = bits.len() as u64 * 64;
        Self {
            bits,
            m_bits,
            k,
            items: 0,
        }
    }

    /// Fraction of bits set — a saturation diagnostic.
    pub fn fill_fraction(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.m_bits as f64
    }
}

/// Most probes a [`ProbeTable`] can hold. The sizing math stays far
/// below it (0.1 % needs 10 hashes, one in a billion 30).
pub const MAX_PROBES: u32 = 64;

/// One key's probe positions for serialized filters of one size: what
/// the filters of a PBFG share (§5.5, "each hash function is computed
/// once and the results are shared across all filters in the PBFG").
///
/// Every filter of a PBFG has the same bit count, so position `i` of a
/// key is the same bit in each of them. The table computes a position
/// the first time a probe needs it — most filters reject a key on probe
/// 0 or 1 — and never again, and tests serialized filters
/// ([`BloomFilter::write_bytes`]) in place: one at a time
/// ([`Self::contains_in`]) or a packed run of them
/// ([`Self::matches_in`]), which is how Nemo walks the still-building
/// index group and the PBFG pages fetched from the index pool.
///
/// # Examples
///
/// ```
/// use nemo_bloom::{BloomFilter, ProbeTable};
///
/// let mut bf = BloomFilter::for_items(40, 0.001);
/// bf.insert(7);
/// let mut buf = vec![0u8; bf.serialized_len()];
/// bf.write_bytes(&mut buf);
/// let mut probes = ProbeTable::new(7, buf.len(), bf.hash_count());
/// assert!(probes.contains_in(&buf));
/// ```
#[derive(Debug, Clone)]
pub struct ProbeTable {
    probes: ProbeSet,
    filter_bytes: usize,
    k: u32,
    computed: u32,
    /// Bit positions `0..computed`, each below `filter_bytes * 8`.
    bit: [u32; MAX_PROBES as usize],
}

impl ProbeTable {
    /// Starts the table of `key` for filters of `filter_bytes` bytes
    /// probed `k` times. Nothing is computed yet but the key's hash pair.
    ///
    /// # Panics
    ///
    /// Panics if `filter_bytes` is zero, not word-aligned or beyond
    /// 512 MB, or `k` is zero or above [`MAX_PROBES`].
    pub fn new(key: u64, filter_bytes: usize, k: u32) -> Self {
        assert!(
            filter_bytes > 0 && filter_bytes % 8 == 0 && filter_bytes <= (u32::MAX / 8) as usize,
            "bad filter size"
        );
        assert!((1..=MAX_PROBES).contains(&k), "bad probe count");
        Self {
            probes: ProbeSet::for_key(key),
            filter_bytes,
            k,
            computed: 0,
            bit: [0; MAX_PROBES as usize],
        }
    }

    /// The key's hash pair, for filters of any other size
    /// ([`BloomFilter::contains_probes`]).
    pub fn probe_set(&self) -> &ProbeSet {
        &self.probes
    }

    /// How many positions have been computed so far.
    pub fn computed(&self) -> u32 {
        self.computed
    }

    /// Byte offset and bit mask of probe `i` inside a filter.
    #[inline]
    fn at(&mut self, i: u32) -> (usize, u8) {
        while self.computed <= i {
            let m_bits = self.filter_bytes as u64 * 8;
            self.bit[self.computed as usize] = self.probes.position(self.computed, m_bits) as u32;
            self.computed += 1;
        }
        let bit = self.bit[i as usize];
        ((bit / 8) as usize, 1u8 << (bit % 8))
    }

    /// Whether probes `from..k` all find their bit set in `filter`.
    #[inline]
    fn rest_set_in(&mut self, filter: &[u8], from: u32) -> bool {
        (from..self.k).all(|i| {
            let (byte, mask) = self.at(i);
            filter[byte] & mask != 0
        })
    }

    /// Tests the key against one serialized filter, stopping at the
    /// first clear bit.
    ///
    /// # Panics
    ///
    /// Panics if `filter` is not `filter_bytes` long.
    pub fn contains_in(&mut self, filter: &[u8]) -> bool {
        assert_eq!(filter.len(), self.filter_bytes, "bad filter slice");
        self.rest_set_in(filter, 0)
    }

    /// Tests the key against the first `slots` filters packed back to
    /// back in `region` and calls `on_match` with the index of each one
    /// that contains it, in ascending order.
    ///
    /// The first two probes are tested on every filter without a branch
    /// (at the 30 to 50 % fill of a set-level filter the early exit is a
    /// coin flip the predictor loses) into a bitmask of 64 filters at a
    /// time; only the survivors, a tenth to a quarter, see the
    /// remaining probes.
    ///
    /// # Panics
    ///
    /// Panics if `region` is shorter than `slots` filters.
    pub fn matches_in(&mut self, region: &[u8], slots: usize, mut on_match: impl FnMut(usize)) {
        let fb = self.filter_bytes;
        let region = &region[..slots * fb];
        let first = self.k.min(2);
        let (byte0, mask0) = self.at(0);
        let (byte1, mask1) = self.at(first - 1);
        for (chunk, filters) in region.chunks(64 * fb).enumerate() {
            let mut survivors = 0u64;
            for (j, filter) in filters.chunks_exact(fb).enumerate() {
                let both = (filter[byte0] & mask0 != 0) & (filter[byte1] & mask1 != 0);
                survivors |= u64::from(both) << j;
            }
            while survivors != 0 {
                let j = survivors.trailing_zeros() as usize;
                survivors &= survivors - 1;
                if self.rest_set_in(&filters[j * fb..(j + 1) * fb], first) {
                    on_match(chunk * 64 + j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_util::Xoshiro256StarStar;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::for_items(500, 0.01);
        for k in 0..500u64 {
            bf.insert(k * 7919);
        }
        for k in 0..500u64 {
            assert!(bf.contains(k * 7919));
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let n = 2000u64;
        let mut bf = BloomFilter::for_items(n, 0.01);
        for k in 0..n {
            bf.insert(k);
        }
        let trials = 200_000u64;
        let fps = (n..n + trials).filter(|&k| bf.contains(k)).count();
        let rate = fps as f64 / trials as f64;
        assert!(rate < 0.02, "FPR {rate} too far above 1% target");
        assert!(rate > 0.001, "FPR {rate} suspiciously low — sizing bug?");
    }

    #[test]
    fn very_low_fpr_filter() {
        let n = 40u64;
        let mut bf = BloomFilter::for_items(n, 0.001);
        for k in 0..n {
            bf.insert(k);
        }
        let trials = 500_000u64;
        let fps = (n..n + trials).filter(|&k| bf.contains(k)).count();
        let rate = fps as f64 / trials as f64;
        assert!(rate < 0.003, "FPR {rate} too far above 0.1% target");
    }

    #[test]
    fn clear_resets() {
        let mut bf = BloomFilter::for_items(10, 0.01);
        bf.insert(1);
        assert!(bf.contains(1));
        bf.clear();
        assert!(!bf.contains(1));
        assert_eq!(bf.item_count(), 0);
        assert_eq!(bf.fill_fraction(), 0.0);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut bf = BloomFilter::for_items(40, 0.001);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let keys: Vec<u64> = (0..40).map(|_| rng.next_u64()).collect();
        for &k in &keys {
            bf.insert(k);
        }
        let mut buf = vec![0u8; bf.serialized_len()];
        bf.write_bytes(&mut buf);
        let back = BloomFilter::from_bytes(&buf, bf.hash_count());
        for &k in &keys {
            assert!(back.contains(k));
        }
        assert_eq!(back.bit_len(), bf.bit_len());
    }

    #[test]
    fn probe_sharing_matches_direct_queries() {
        let mut filters: Vec<BloomFilter> =
            (0..8).map(|_| BloomFilter::for_items(40, 0.001)).collect();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        for (i, f) in filters.iter_mut().enumerate() {
            for _ in 0..40 {
                f.insert(rng.next_u64() ^ (i as u64) << 56);
            }
        }
        let bytes: Vec<Vec<u8>> = filters
            .iter()
            .map(|f| {
                let mut buf = vec![0u8; f.serialized_len()];
                f.write_bytes(&mut buf);
                buf
            })
            .collect();
        for _ in 0..1000 {
            let key = rng.next_u64();
            // One table per key, shared by all eight filters.
            let mut probes = ProbeTable::new(key, bytes[0].len(), filters[0].hash_count());
            for (f, buf) in filters.iter().zip(&bytes) {
                assert_eq!(f.contains(key), f.contains_probes(probes.probe_set()));
                assert_eq!(f.contains(key), probes.contains_in(buf));
            }
        }
    }

    #[test]
    fn paper_filter_size() {
        // 40 objects at 0.1%: ceil(40*14.4)=576 bits -> 9 words -> 72 B.
        let bf = BloomFilter::for_items(40, 0.001);
        assert_eq!(bf.serialized_len(), 72);
        assert_eq!(bf.hash_count(), 10);
    }

    #[test]
    #[should_panic(expected = "items must be positive")]
    fn zero_items_panics() {
        BloomFilter::for_items(0, 0.01);
    }

    #[test]
    fn measured_fpr_within_sizing_bound() {
        // The observed false-positive rate must track the analytic
        // prediction for the filter's actual geometry (sizing::expected_fpr),
        // not just the nominal target — this pins the filter and the sizing
        // model to each other.
        for &(n, target) in &[(100u64, 0.01f64), (1000, 0.01), (40, 0.001)] {
            let mut bf = BloomFilter::for_items(n, target);
            for k in 0..n {
                bf.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            let predicted = crate::sizing::expected_fpr(bf.bit_len(), bf.hash_count(), n);
            let trials = 400_000u64;
            let fps = (0..trials)
                .filter(|&t| bf.contains(t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD))
                .count();
            let measured = fps as f64 / trials as f64;
            // Sampling noise and word-rounding both push the measured rate
            // around the prediction; 2.5x + epsilon bounds it comfortably.
            assert!(
                measured <= predicted * 2.5 + 5e-4,
                "n={n}: measured {measured:.5} vs predicted {predicted:.5}"
            );
        }
    }

    /// A filter of `m_bits` holding `n` random keys, and its bytes.
    fn filled(m_bits: u64, k: u32, n: usize, seed: u64) -> (BloomFilter, Vec<u64>, Vec<u8>) {
        let mut bf = BloomFilter::with_geometry(m_bits, k);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        for &key in &keys {
            bf.insert(key);
        }
        let mut buf = vec![0u8; bf.serialized_len()];
        bf.write_bytes(&mut buf);
        (bf, keys, buf)
    }

    #[test]
    fn table_queries_match_filter_queries() {
        // The probe table is the PBFG probe path; it must agree bit for
        // bit with BloomFilter::contains on the same serialized state:
        // one word, a power of two, and the paper's 576 bits.
        for (m_bits, k, n) in [(64u64, 3u32, 8usize), (256, 10, 16), (576, 10, 40)] {
            let (bf, keys, buf) = filled(m_bits, k, n, 21 + m_bits);
            for &key in &keys {
                assert!(ProbeTable::new(key, buf.len(), k).contains_in(&buf));
            }
            let mut rng = Xoshiro256StarStar::seed_from_u64(m_bits);
            let mut positives = 0;
            for _ in 0..100_000 {
                let key = rng.next_u64();
                let got = ProbeTable::new(key, buf.len(), k).contains_in(&buf);
                assert_eq!(bf.contains(key), got, "m_bits {m_bits}, key {key:#x}");
                positives += u32::from(got);
            }
            assert!(
                positives < 5_000,
                "{positives} false positives at {m_bits} bits"
            );
        }
    }

    #[test]
    fn positions_are_computed_once_and_only_when_needed() {
        let (_, keys, buf) = filled(576, 10, 40, 5);
        let empty = vec![0u8; buf.len()];
        let mut probes = ProbeTable::new(keys[0], buf.len(), 10);
        assert_eq!(probes.computed(), 0);
        assert!(!probes.contains_in(&empty));
        assert_eq!(probes.computed(), 1, "rejected on probe 0");
        assert!(probes.contains_in(&buf));
        assert_eq!(probes.computed(), 10);
        // A filter missing only the bit of probe 4 rejects there, from
        // the table: asking again computes nothing.
        let mut holed = buf.clone();
        let (byte, mask) = probes.at(4);
        holed[byte] &= !mask;
        assert!(!probes.contains_in(&holed));
        assert_eq!(probes.computed(), 10);
        // A packed run computes the two probes of its first pass, and the
        // rest only once a filter survives them.
        let mut probes = ProbeTable::new(keys[0], buf.len(), 10);
        probes.matches_in(&empty.repeat(3), 3, |_| panic!("empty filters"));
        assert_eq!(probes.computed(), 2);
        probes.matches_in(&[empty, buf].concat(), 2, |slot| assert_eq!(slot, 1));
        assert_eq!(probes.computed(), 10);
    }

    #[test]
    fn packed_run_matches_filter_by_filter() {
        // 1, 64, 65 and 130 filters: below, at and across the 64-filter
        // chunks of the survivor mask; k = 1 has no second probe.
        for (slots, m_bits, k) in [
            (1usize, 64u64, 1u32),
            (64, 256, 10),
            (65, 64, 2),
            (130, 576, 10),
        ] {
            let filters: Vec<_> = (0..slots)
                .map(|i| filled(m_bits, k, 12, 1000 * m_bits + i as u64))
                .collect();
            let packed: Vec<u8> = filters.iter().flat_map(|f| f.2.iter().copied()).collect();
            let fb = filters[0].2.len();
            let mut rng = Xoshiro256StarStar::seed_from_u64(77);
            let absent = (0..2000).map(|_| rng.next_u64());
            let present = filters.iter().map(|f| f.1[0]);
            for key in present.chain(absent).collect::<Vec<_>>() {
                let want: Vec<usize> = (0..slots).filter(|&i| filters[i].0.contains(key)).collect();
                let mut got = Vec::new();
                ProbeTable::new(key, fb, k).matches_in(&packed, slots, |slot| got.push(slot));
                assert_eq!(got, want, "{slots} slots, key {key:#x}");
            }
        }
    }
}
