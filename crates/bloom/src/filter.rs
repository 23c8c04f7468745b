//! The Bloom filter, and the bit-sliced layout the filters of a PBFG
//! share: [`SlicedLayout`] hashes a key straight into a slot of it, or
//! clears one, and [`ProbeTable`] matches a key against every slot at
//! once, so callers handle a sliced region only as a whole.

use crate::sizing;
use nemo_util::hash_u64;

/// A Bloom filter over 64-bit keys with double hashing.
///
/// Probe positions are derived as `h1 + i·h2 (mod m)` (Kirsch–Mitzenmacher),
/// which matches the paper's observation that "each hash function is
/// computed once and the results are shared across all filters in the PBFG"
/// (§5.5): the filters of a PBFG share one size and one bit-sliced region
/// ([`SlicedLayout`]), and a [`ProbeTable`] of the key's rows tests them
/// all at once.
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
}

/// The probe pair of one key, shared by every probe of it into filters
/// of any size.
#[derive(Debug, Clone, Copy)]
struct ProbeSet {
    h1: u64,
    h2: u64,
}

impl ProbeSet {
    /// Computes the probe pair for a key.
    fn for_key(key: u64) -> Self {
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
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: u64) {
        let probes = ProbeSet::for_key(key);
        for i in 0..self.k {
            let pos = probes.position(i, self.m_bits);
            self.bits[(pos / 64) as usize] |= 1u64 << (pos % 64);
        }
    }

    /// Tests a key. False positives are possible; false negatives are not.
    pub fn contains(&self, key: u64) -> bool {
        let probes = ProbeSet::for_key(key);
        (0..self.k).all(|i| {
            let pos = probes.position(i, self.m_bits);
            self.bits[(pos / 64) as usize] & (1u64 << (pos % 64)) != 0
        })
    }

    /// Clears all bits (the filter is reused when its SG is evicted).
    pub fn clear(&mut self) {
        self.bits.fill(0);
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
        Self { bits, m_bits, k }
    }
}

/// Most probes a [`ProbeTable`] can hold. The sizing math stays far
/// below it (0.1 % needs 10 hashes, one in a billion 30).
pub const MAX_PROBES: u32 = 64;

/// Slots one survivor mask covers: a 64-bit load at any bit offset
/// still holds 57 whole bits of the region.
const CHUNK: usize = 56;

/// How the equally sized filters of one PBFG share a region: bit-sliced,
/// so that one bit position of every filter is one row.
///
/// Bit `p` of the filter in slot `j` is bit `p * slots + j` of the
/// region, and region bit `i` is bit `i % 8` of byte `i / 8`. A row is
/// exactly `slots` bits wide, so the region is `slots * filter_bytes`
/// bytes, the size of the same filters packed back to back, and a probe
/// tests every filter of the group with one load ([`ProbeTable::matches`]).
/// A filter enters its slot as its keys ([`Self::insert`]), so a region
/// starts zeroed and [`Self::clear_slot`] empties one slot again.
///
/// # Examples
///
/// ```
/// use nemo_bloom::SlicedLayout;
///
/// let layout = SlicedLayout::new(50, 72);
/// let mut region = vec![0u8; layout.region_bytes()];
/// layout.insert(&mut region, 3, 7, 10);
/// assert!(region.iter().any(|&b| b != 0));
/// layout.clear_slot(&mut region, 3);
/// assert!(region.iter().all(|&b| b == 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicedLayout {
    slots: u32,
    filter_bytes: u32,
}

impl SlicedLayout {
    /// The layout of `slots` filters of `filter_bytes` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if either is zero, `filter_bytes` is not word-aligned, or
    /// the region holds 2³² bits or more.
    pub fn new(slots: u32, filter_bytes: u32) -> Self {
        assert!(slots > 0, "a group needs a slot");
        assert!(filter_bytes > 0 && filter_bytes % 8 == 0, "bad filter size");
        assert!(
            (slots as u64 * filter_bytes as u64 * 8) <= u32::MAX as u64,
            "region too large"
        );
        Self {
            slots,
            filter_bytes,
        }
    }

    /// Bytes of one region: `slots * filter_bytes`.
    pub fn region_bytes(&self) -> usize {
        self.slots as usize * self.filter_bytes as usize
    }

    fn filter_bits(&self) -> usize {
        self.filter_bytes as usize * 8
    }

    /// Region bit of bit `p` of `slot`.
    #[inline]
    fn at(&self, p: usize, slot: usize) -> usize {
        p * self.slots as usize + slot
    }

    fn check(&self, region: &[u8], slot: usize) {
        assert_eq!(region.len(), self.region_bytes(), "bad region");
        assert!(slot < self.slots as usize, "slot out of range");
    }

    /// Adds `key` to the filter in `slot`, probed `k` times: the bits
    /// [`BloomFilter::insert`] sets, written straight into the region, so
    /// a filter known by its keys needs no [`BloomFilter`] of its own.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not one region or `slot` is out of range.
    pub fn insert(&self, region: &mut [u8], slot: usize, key: u64, k: u32) {
        self.check(region, slot);
        let probes = ProbeSet::for_key(key);
        for i in 0..k {
            let p = probes.position(i, self.filter_bits() as u64);
            let at = self.at(p as usize, slot);
            region[at / 8] |= 1 << (at % 8);
        }
    }

    /// Clears every bit of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not one region or `slot` is out of range.
    pub fn clear_slot(&self, region: &mut [u8], slot: usize) {
        self.check(region, slot);
        for p in 0..self.filter_bits() {
            let at = self.at(p, slot);
            region[at / 8] &= !(1 << (at % 8));
        }
    }
}

/// The 64 region bits from bit `at` on, bit `at` lowest; bits past the
/// region's end read as zero.
#[inline]
fn bits_from(region: &[u8], at: usize) -> u64 {
    let byte = at / 8;
    let word = match region.get(byte..byte + 8) {
        Some(eight) => u64::from_le_bytes(eight.try_into().expect("eight bytes")),
        None => {
            let mut word = [0u8; 8];
            let tail = &region[byte..];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    };
    word >> (at % 8)
}

/// One key's probe rows in the bit-sliced PBFGs of one [`SlicedLayout`]:
/// what the filters of a PBFG share (§5.5, "each hash function is
/// computed once and the results are shared across all filters in the
/// PBFG").
///
/// Every filter of a PBFG has the same bit count, so probe `i` of a key
/// is the same bit in each of them, and in a sliced region that bit of
/// every filter is one row. [`Self::matches`] ANDs the key's rows into a
/// mask of the filters that contain it, one load per probe. The table
/// computes a row the first time a query needs it (most groups reject a
/// key within a few probes) and never again, so a walk over many groups
/// hashes the key once.
///
/// # Examples
///
/// ```
/// use nemo_bloom::{ProbeTable, SlicedLayout};
///
/// let layout = SlicedLayout::new(50, 72);
/// let mut region = vec![0u8; layout.region_bytes()];
/// layout.insert(&mut region, 3, 7, 10);
/// let mut found = Vec::new();
/// ProbeTable::new(7, layout, 10).matches(&region, 50, |slot| found.push(slot));
/// assert_eq!(found, [3]);
/// ```
#[derive(Debug, Clone)]
pub struct ProbeTable {
    probes: ProbeSet,
    layout: SlicedLayout,
    k: u32,
    computed: u32,
    /// First region bit of the rows of probes `0..computed`.
    row: [u32; MAX_PROBES as usize],
}

impl ProbeTable {
    /// Starts the table of `key` for regions of `layout` whose filters
    /// are probed `k` times. Nothing is computed yet but the key's hash
    /// pair.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or above [`MAX_PROBES`].
    pub fn new(key: u64, layout: SlicedLayout, k: u32) -> Self {
        assert!((1..=MAX_PROBES).contains(&k), "bad probe count");
        Self {
            probes: ProbeSet::for_key(key),
            layout,
            k,
            computed: 0,
            row: [0; MAX_PROBES as usize],
        }
    }

    /// How many rows have been computed so far.
    pub fn computed(&self) -> u32 {
        self.computed
    }

    /// First region bit of probe `i`'s row.
    #[inline]
    fn row(&mut self, i: u32) -> usize {
        while self.computed <= i {
            let p = self
                .probes
                .position(self.computed, self.layout.filter_bits() as u64);
            self.row[self.computed as usize] = p as u32 * self.layout.slots;
            self.computed += 1;
        }
        self.row[i as usize] as usize
    }

    /// Tests the key against the filters in the first `slots` slots of
    /// `region` and calls `on_match` with each slot whose filter contains
    /// it, in ascending order.
    ///
    /// Each of the key's rows is one unaligned 64-bit load, ANDed into a
    /// survivor mask of 56 slots; a group wider than that is tested 56
    /// slots at a time. A mask stops taking probes once it is empty.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not one region of the layout or `slots`
    /// exceeds its slot count.
    pub fn matches(&mut self, region: &[u8], slots: usize, mut on_match: impl FnMut(usize)) {
        assert_eq!(region.len(), self.layout.region_bytes(), "bad region");
        assert!(slots <= self.layout.slots as usize, "slot out of range");
        for first in (0..slots).step_by(CHUNK) {
            let mut survivors = u64::MAX >> (64 - (slots - first).min(CHUNK));
            for i in 0..self.k {
                survivors &= bits_from(region, self.row(i) + first);
                if survivors == 0 {
                    break;
                }
            }
            while survivors != 0 {
                let j = survivors.trailing_zeros() as usize;
                survivors &= survivors - 1;
                on_match(first + j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_util::Xoshiro256StarStar;
    use proptest::prelude::*;

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
        assert!(bf.bits.iter().all(|&w| w == 0));
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

    fn bits(f: &BloomFilter) -> Vec<u8> {
        let mut bytes = vec![0u8; f.serialized_len()];
        f.write_bytes(&mut bytes);
        bytes
    }

    /// The bytes of `filters` as one sliced region, built bit by bit
    /// from their serialized form: the reference for the layout.
    fn sliced(filters: &[&BloomFilter]) -> (SlicedLayout, Vec<u8>) {
        let fb = filters[0].serialized_len();
        let layout = SlicedLayout::new(filters.len() as u32, fb as u32);
        let mut region = vec![0u8; layout.region_bytes()];
        for (slot, f) in filters.iter().enumerate() {
            let bytes = bits(f);
            for p in (0..fb * 8).filter(|p| bytes[p / 8] >> (p % 8) & 1 != 0) {
                let at = p * filters.len() + slot;
                region[at / 8] |= 1 << (at % 8);
            }
        }
        (layout, region)
    }

    /// The bytes of the filter in `slot` of `region`, read bit by bit:
    /// the inverse of `sliced`.
    fn slot_bits(layout: SlicedLayout, region: &[u8], slot: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; layout.filter_bytes as usize];
        for p in 0..layout.filter_bits() {
            let at = layout.at(p, slot);
            if region[at / 8] >> (at % 8) & 1 != 0 {
                bytes[p / 8] |= 1 << (p % 8);
            }
        }
        bytes
    }

    /// The first `slots` slots of `region` whose filter contains `key`.
    fn matching(layout: SlicedLayout, region: &[u8], slots: usize, k: u32, key: u64) -> Vec<usize> {
        let mut got = Vec::new();
        ProbeTable::new(key, layout, k).matches(region, slots, |slot| got.push(slot));
        got
    }

    #[test]
    fn probe_sharing_matches_direct_queries() {
        let mut filters: Vec<BloomFilter> =
            (0..8).map(|_| BloomFilter::for_items(40, 0.001)).collect();
        let k = filters[0].hash_count();
        let layout = SlicedLayout::new(8, filters[0].serialized_len() as u32);
        let mut region = vec![0u8; layout.region_bytes()];
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        for (i, f) in filters.iter_mut().enumerate() {
            for _ in 0..40 {
                let key = rng.next_u64() ^ (i as u64) << 56;
                f.insert(key);
                layout.insert(&mut region, i, key, k);
            }
        }
        assert_eq!(region, sliced(&filters.iter().collect::<Vec<_>>()).1);
        for _ in 0..1000 {
            let key = rng.next_u64();
            // One table per key, shared by all eight filters.
            let want: Vec<usize> = (0..8).filter(|&i| filters[i].contains(key)).collect();
            assert_eq!(matching(layout, &region, 8, k, key), want);
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
        // bit with BloomFilter::contains on the same state: one word, a
        // power of two, and the paper's 576 bits. A one-slot region is
        // the filter's own serialized bytes.
        for (m_bits, k, n) in [(64u64, 3u32, 8usize), (256, 10, 16), (576, 10, 40)] {
            let (bf, keys, buf) = filled(m_bits, k, n, 21 + m_bits);
            let layout = SlicedLayout::new(1, m_bits as u32 / 8);
            let mut region = vec![0u8; layout.region_bytes()];
            keys.iter()
                .for_each(|&key| layout.insert(&mut region, 0, key, k));
            assert_eq!(region, buf);
            for &key in &keys {
                assert_eq!(matching(layout, &region, 1, k, key), [0]);
            }
            let mut rng = Xoshiro256StarStar::seed_from_u64(m_bits);
            let mut positives = 0;
            for _ in 0..100_000 {
                let key = rng.next_u64();
                let got = !matching(layout, &region, 1, k, key).is_empty();
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
        let (bf, keys, _) = filled(576, 10, 40, 5);
        let empty = BloomFilter::with_geometry(576, 10);
        let (layout, region) = sliced(&[&empty, &bf]);
        let mut probes = ProbeTable::new(keys[0], layout, 10);
        assert_eq!(probes.computed(), 0);
        // The empty slot alone: rejected on probe 0.
        probes.matches(&region, 1, |_| panic!("empty filter"));
        assert_eq!(probes.computed(), 1, "rejected on probe 0");
        probes.matches(&region, 2, |slot| assert_eq!(slot, 1));
        assert_eq!(probes.computed(), 10);
        // A filter missing only the bit of probe 4 rejects there, from
        // the table: asking again computes nothing.
        let mut holed = region.clone();
        let at = probes.row(4) + 1;
        holed[at / 8] &= !(1 << (at % 8));
        probes.matches(&holed, 2, |_| panic!("probe 4 is clear"));
        assert_eq!(probes.computed(), 10);
    }

    #[test]
    fn slots_write_clear_and_read_back() {
        // Slots written from their keys hold the bits of the filters of
        // those keys, and clearing one leaves its neighbours alone.
        let (a, a_keys, _) = filled(576, 10, 40, 1);
        let (b, b_keys, _) = filled(576, 10, 40, 2);
        let (layout, want) = sliced(&[&a, &b, &a]);
        let mut region = vec![0u8; layout.region_bytes()];
        for (slot, keys) in [&a_keys, &b_keys, &a_keys].into_iter().enumerate() {
            keys.iter()
                .for_each(|&key| layout.insert(&mut region, slot, key, 10));
        }
        assert_eq!(region, want);
        assert_eq!(slot_bits(layout, &region, 1), bits(&b));
        layout.clear_slot(&mut region, 1);
        let empty = BloomFilter::with_geometry(576, 10);
        assert_eq!(region, sliced(&[&a, &empty, &a]).1);
        assert_eq!(slot_bits(layout, &region, 1), bits(&empty));
        assert_eq!(slot_bits(layout, &region, 2), bits(&a));
    }

    /// Filters at random fills (empty to saturated) in a region of
    /// `width` slots, each slot written from its filter's keys and some
    /// cleared again; every slot holds its filter's bits, and every query
    /// of present and absent keys, over all slots or a prefix, answers as
    /// the filters do.
    fn sliced_matches_contains(width: usize, seed: u64) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let m_bits = [64u64, 256, 576][rng.next_below(3) as usize];
        let k = [1u32, 2, 5, 10][rng.next_below(4) as usize];
        let mut filters: Vec<(BloomFilter, Vec<u64>)> = (0..width)
            .map(|_| {
                let n = rng.next_below(m_bits / 2 + 2) as usize;
                let (bf, keys, _) = filled(m_bits, k, n, rng.next_u64());
                (bf, keys)
            })
            .collect();
        let layout = SlicedLayout::new(width as u32, m_bits as u32 / 8);
        let mut region = vec![0u8; layout.region_bytes()];
        for (slot, (_, keys)) in filters.iter().enumerate() {
            keys.iter()
                .for_each(|&key| layout.insert(&mut region, slot, key, k));
        }
        for _ in 0..rng.next_below(width as u64 / 4 + 2) {
            let slot = rng.next_below(width as u64) as usize;
            layout.clear_slot(&mut region, slot);
            filters[slot].0.clear();
        }
        for (slot, (f, _)) in filters.iter().enumerate() {
            assert_eq!(slot_bits(layout, &region, slot), bits(f), "slot {slot}");
        }
        let present = filters.iter().filter_map(|(_, keys)| keys.first().copied());
        let absent: Vec<u64> = (0..200).map(|_| rng.next_u64()).collect();
        for key in present.chain(absent).collect::<Vec<_>>() {
            let slots = if rng.chance(0.5) {
                width
            } else {
                rng.next_below(width as u64 + 1) as usize
            };
            let want: Vec<usize> = (0..slots).filter(|&i| filters[i].0.contains(key)).collect();
            let mut got = Vec::new();
            ProbeTable::new(key, layout, k).matches(&region, slots, |slot| got.push(slot));
            assert_eq!(got, want, "width {width}, {slots} slots, key {key:#x}");
        }
    }

    /// Below, at and across the 56-slot chunks of the survivor mask and
    /// the 64-bit load.
    const WIDTHS: [usize; 8] = [1, 8, 50, 56, 57, 64, 65, 128];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sliced_match_equals_contains_at_every_width(
            width in 0usize..WIDTHS.len(),
            seed in any::<u64>(),
        ) {
            sliced_matches_contains(WIDTHS[width], seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5_000))]

        /// Deep variant of the sweep above. Run explicitly with
        /// `cargo test -- --ignored`.
        #[test]
        #[ignore = "deep generative sweep; run via the scheduled CI job"]
        fn sliced_match_equals_contains_at_every_width_deep(
            width in 0usize..WIDTHS.len(),
            seed in any::<u64>(),
        ) {
            sliced_matches_contains(WIDTHS[width], seed);
        }
    }
}
