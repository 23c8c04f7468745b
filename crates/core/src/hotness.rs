//! Hybrid hotness tracking (paper §4.4, challenge C3).
//!
//! One bit per object slot, kept **only** for SGs in the oldest fraction
//! of the FIFO pool (an object's "later-life stage"), which is when the
//! eviction decision needs it. Slots are key-hash addressed, so no
//! per-object identity is stored — collisions cause the "free-riding" the
//! paper accepts in §6. Cooling clears the bits of sets whose PBFG is no
//! longer cached, so only recency-backed hotness survives (Fig. 11).

use nemo_util::hash_u64;
use std::collections::HashMap;

/// Hash-addressed 1-bit-per-object hotness bitmaps, one per tracked SG.
///
/// # Examples
///
/// ```
/// use nemo_core::hotness::HotnessTracker;
///
/// let mut t = HotnessTracker::new(4, 16);
/// t.track(7);
/// t.mark(7, 2, 0xABCD);
/// assert!(t.is_hot(7, 2, 0xABCD));
/// assert!(!t.is_hot(7, 3, 0xABCD));
/// ```
#[derive(Debug, Clone)]
pub struct HotnessTracker {
    sets_per_sg: u32,
    slots_per_set: u32,
    /// SG sequence number -> one mask word per set.
    maps: HashMap<u64, Vec<u64>>,
}

impl HotnessTracker {
    /// Creates a tracker with `slots_per_set` hash slots per set
    /// (the paper's single-bit access counters; 16 slots ≈ one bit per
    /// expected 250 B object in a 4 KB set).
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_set` is 0 or exceeds 64, or `sets_per_sg` is 0.
    pub fn new(sets_per_sg: u32, slots_per_set: u32) -> Self {
        assert!(sets_per_sg > 0, "sets_per_sg must be positive");
        assert!(
            (1..=64).contains(&slots_per_set),
            "slots_per_set must be in 1..=64"
        );
        Self {
            sets_per_sg,
            slots_per_set,
            maps: HashMap::new(),
        }
    }

    fn slot_mask(&self, key: u64) -> u64 {
        1u64 << (hash_u64(key, 0x0080_7B17) % self.slots_per_set as u64)
    }

    /// Starts tracking an SG (idempotent). Called when the SG enters the
    /// oldest `hotness_window` fraction of the pool.
    pub fn track(&mut self, seq: u64) {
        self.maps
            .entry(seq)
            .or_insert_with(|| vec![0u64; self.sets_per_sg as usize]);
    }

    /// Whether the SG is currently tracked.
    pub fn is_tracked(&self, seq: u64) -> bool {
        self.maps.contains_key(&seq)
    }

    /// Stops tracking (on eviction), freeing the bitmap.
    pub fn untrack(&mut self, seq: u64) {
        self.maps.remove(&seq);
    }

    /// Records an access to `key` in `(seq, set)` if the SG is tracked.
    pub fn mark(&mut self, seq: u64, set: u32, key: u64) {
        let mask = self.slot_mask(key);
        if let Some(words) = self.maps.get_mut(&seq) {
            words[set as usize] |= mask;
        }
    }

    /// Whether `key`'s slot bit is set (false if the SG is untracked).
    pub fn is_hot(&self, seq: u64, set: u32, key: u64) -> bool {
        let mask = self.slot_mask(key);
        self.maps
            .get(&seq)
            .is_some_and(|words| words[set as usize] & mask != 0)
    }

    /// Raw mask of a set (0 if untracked) — used to skip write-back reads
    /// for sets with no hot objects.
    pub fn set_mask(&self, seq: u64, set: u32) -> u64 {
        self.maps.get(&seq).map_or(0, |words| words[set as usize])
    }

    /// Cooling pass: clears the bits of every `(seq, set)` for which
    /// `retain` returns `false` (i.e. whose PBFG is no longer cached —
    /// Fig. 11's "decay" with "retain hotness" for cached sets).
    pub fn cool_with(&mut self, mut retain: impl FnMut(u64, u32) -> bool) {
        for (&seq, words) in self.maps.iter_mut() {
            for (set, w) in words.iter_mut().enumerate() {
                if *w != 0 && !retain(seq, set as u32) {
                    *w = 0;
                }
            }
        }
    }

    /// Number of tracked SGs.
    pub fn tracked_count(&self) -> usize {
        self.maps.len()
    }

    /// Resident bytes of all bitmaps.
    pub fn memory_bytes(&self) -> u64 {
        self.maps.len() as u64 * self.sets_per_sg as u64 * 8
    }

    /// Sets per SG each bitmap covers.
    pub(crate) fn sets_per_sg(&self) -> u32 {
        self.sets_per_sg
    }

    /// Sequence numbers of every tracked SG — for recovery invariant
    /// checks.
    pub(crate) fn tracked_seqs(&self) -> Vec<u64> {
        self.maps.keys().copied().collect()
    }

    /// Serializes every tracked bitmap (sorted by SG sequence so the
    /// encoding is deterministic despite the hash map).
    pub(crate) fn checkpoint_encode(&self, w: &mut crate::checkpoint::Writer) {
        w.u32(self.sets_per_sg);
        w.u32(self.slots_per_set);
        let mut seqs: Vec<u64> = self.maps.keys().copied().collect();
        seqs.sort_unstable();
        w.u32(seqs.len() as u32);
        for seq in seqs {
            w.u64(seq);
            for &word in &self.maps[&seq] {
                w.u64(word);
            }
        }
    }

    /// Rebuilds a tracker from [`HotnessTracker::checkpoint_encode`] bytes.
    pub(crate) fn checkpoint_decode(r: &mut crate::checkpoint::Reader<'_>) -> Result<Self, String> {
        let sets_per_sg = r.u32()?;
        let slots_per_set = r.u32()?;
        if sets_per_sg == 0 || !(1..=64).contains(&slots_per_set) {
            return Err(format!(
                "checkpoint corrupt: hotness geometry {sets_per_sg}x{slots_per_set}"
            ));
        }
        let mut t = Self::new(sets_per_sg, slots_per_set);
        let tracked = r.len(8 + 8 * sets_per_sg as usize)?;
        for _ in 0..tracked {
            let seq = r.u64()?;
            let mut words = Vec::with_capacity(sets_per_sg as usize);
            for _ in 0..sets_per_sg {
                words.push(r.u64()?);
            }
            if t.maps.insert(seq, words).is_some() {
                return Err(format!("checkpoint corrupt: duplicate hotness SG {seq}"));
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_sg_ignores_marks() {
        let mut t = HotnessTracker::new(4, 16);
        t.mark(1, 0, 99);
        assert!(!t.is_hot(1, 0, 99));
        assert_eq!(t.set_mask(1, 0), 0);
    }

    #[test]
    fn track_mark_untrack_lifecycle() {
        let mut t = HotnessTracker::new(4, 16);
        t.track(5);
        assert!(t.is_tracked(5));
        t.mark(5, 1, 42);
        assert!(t.is_hot(5, 1, 42));
        assert_ne!(t.set_mask(5, 1), 0);
        t.untrack(5);
        assert!(!t.is_hot(5, 1, 42));
        assert_eq!(t.memory_bytes(), 0);
    }

    #[test]
    fn cooling_clears_uncached_sets_only() {
        let mut t = HotnessTracker::new(4, 16);
        t.track(1);
        t.mark(1, 0, 10);
        t.mark(1, 2, 11);
        // Retain only set 2.
        t.cool_with(|_, set| set == 2);
        assert!(!t.is_hot(1, 0, 10));
        assert!(t.is_hot(1, 2, 11));
    }

    #[test]
    fn collisions_free_ride() {
        // Two keys with the same slot hash share a bit (paper §6).
        let mut t = HotnessTracker::new(1, 1); // one slot: everything collides
        t.track(0);
        t.mark(0, 0, 1);
        assert!(t.is_hot(0, 0, 2), "slot collision implies free-riding");
    }

    #[test]
    fn memory_is_one_word_per_set() {
        let mut t = HotnessTracker::new(256, 16);
        t.track(0);
        t.track(1);
        assert_eq!(t.memory_bytes(), 2 * 256 * 8);
    }

    #[test]
    #[should_panic(expected = "slots_per_set")]
    fn oversized_slots_panic() {
        HotnessTracker::new(4, 65);
    }
}
