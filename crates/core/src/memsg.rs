//! In-memory Set-Groups: the mutable aggregation stage of Nemo's write
//! path (paper §4.1–4.2).
//!
//! A buffered SG is its set buffers and nothing else. Its PBFG filters
//! are built when it flushes, from the keys its pages hold, the same way
//! a zone scan rebuilds them, so an object sacrificed or replaced before
//! the flush leaves no bit behind.

use nemo_engine::codec::PAGE_HEADER;

/// One set's staging buffer inside an in-memory SG.
///
/// Capacity mirrors the on-flash page exactly (entries plus the 2-byte
/// page header), so a full `SetBuffer` serializes to a 100 %-filled page.
#[derive(Debug, Clone)]
pub struct SetBuffer {
    entries: Vec<(u64, u32)>,
    used: usize,
    capacity: usize,
}

impl SetBuffer {
    /// Creates an empty buffer for a page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        Self {
            entries: Vec::new(),
            used: PAGE_HEADER,
            capacity: page_size,
        }
    }

    /// Whether an object of `size` bytes fits.
    pub fn has_room(&self, size: u32) -> bool {
        self.used + size as usize <= self.capacity
    }

    /// Inserts or replaces `key`. Returns `false` (and changes nothing) if
    /// it does not fit.
    pub fn insert(&mut self, key: u64, size: u32) -> bool {
        let freed = match self.entries.iter().position(|&(k, _)| k == key) {
            Some(pos) => self.entries[pos].1 as usize,
            None => 0,
        };
        if self.used - freed + size as usize > self.capacity {
            return false;
        }
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
            self.used -= freed;
        }
        self.entries.push((key, size));
        self.used += size as usize;
        true
    }

    /// Removes `key` if present, returning its size.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        let (_, size) = self.entries.remove(pos);
        self.used -= size as usize;
        Some(size)
    }

    /// Evicts the oldest entry (FIFO), returning it.
    pub fn evict_oldest(&mut self) -> Option<(u64, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        let (k, s) = self.entries.remove(0);
        self.used -= s as usize;
        Some((k, s))
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.iter().any(|&(k, _)| k == key)
    }

    /// Entries in insertion order.
    pub fn entries(&self) -> &[(u64, u32)] {
        &self.entries
    }

    /// Bytes used (page header included).
    pub fn used(&self) -> usize {
        self.used
    }

    /// Fill fraction of the backing page.
    pub fn fill_rate(&self) -> f64 {
        self.used as f64 / self.capacity as f64
    }

    /// Number of buffered objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A mutable in-memory Set-Group.
///
/// Usable standalone for the hash-skew study (Fig. 8): insert objects
/// until any set fills, then inspect [`MemSg::set_fill_rates`].
///
/// # Examples
///
/// ```
/// use nemo_core::MemSg;
///
/// let mut sg = MemSg::new(16, 4096);
/// let set = MemSg::set_index_of(12345, 16);
/// assert!(sg.insert(12345, 250));
/// assert!(sg.set(set).contains(12345));
/// ```
#[derive(Debug, Clone)]
pub struct MemSg {
    sets: Vec<SetBuffer>,
    objects: u64,
    bytes: u64,
}

impl MemSg {
    /// Creates an SG with `sets_per_sg` sets of `page_size` bytes each.
    /// Large SGs (up to the paper's 4 GB, for the Fig. 8 fill study)
    /// cost only their set buffers.
    ///
    /// # Panics
    ///
    /// Panics if `sets_per_sg` is zero.
    pub fn new(sets_per_sg: u32, page_size: u32) -> Self {
        assert!(sets_per_sg > 0, "sets_per_sg must be positive");
        Self {
            sets: (0..sets_per_sg)
                .map(|_| SetBuffer::new(page_size as usize))
                .collect(),
            objects: 0,
            bytes: 0,
        }
    }

    /// The intra-SG set offset for a key (derived from the hashed key,
    /// paper §4.1).
    pub fn set_index_of(key: u64, sets_per_sg: u32) -> u32 {
        (nemo_util::hash_u64(key, 0x0005_E71D) % sets_per_sg as u64) as u32
    }

    /// Number of sets.
    pub fn set_count(&self) -> u32 {
        self.sets.len() as u32
    }

    /// Bytes of the page each set fills.
    pub(crate) fn page_size(&self) -> u32 {
        self.sets[0].capacity as u32
    }

    /// Inserts `key` into its hashed set; returns `false` if that set has
    /// no room.
    pub fn insert(&mut self, key: u64, size: u32) -> bool {
        let idx = Self::set_index_of(key, self.set_count());
        self.insert_at(idx, key, size)
    }

    /// Inserts into an explicit set offset (used by write-back, where the
    /// offset is identical across SGs because the hash space is shared).
    pub fn insert_at(&mut self, set: u32, key: u64, size: u32) -> bool {
        let buf = &mut self.sets[set as usize];
        let replaced = buf.contains(key);
        let old_size = if replaced {
            buf.entries()
                .iter()
                .find(|&&(k, _)| k == key)
                .map(|&(_, s)| s as u64)
                .unwrap_or(0)
        } else {
            0
        };
        if !buf.insert(key, size) {
            return false;
        }
        if replaced {
            self.bytes -= old_size;
        } else {
            self.objects += 1;
        }
        self.bytes += size as u64;
        true
    }

    /// Removes `key` from set `set` if present.
    pub fn remove_at(&mut self, set: u32, key: u64) -> Option<u32> {
        let size = self.sets[set as usize].remove(key)?;
        self.objects -= 1;
        self.bytes -= size as u64;
        Some(size)
    }

    /// Evicts the oldest object from set `set` (probabilistic-flushing
    /// sacrifice), returning it.
    pub fn sacrifice_at(&mut self, set: u32) -> Option<(u64, u32)> {
        let (k, s) = self.sets[set as usize].evict_oldest()?;
        self.objects -= 1;
        self.bytes -= s as u64;
        Some((k, s))
    }

    /// Immutable access to one set.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set(&self, set: u32) -> &SetBuffer {
        &self.sets[set as usize]
    }

    /// Live objects in the SG.
    pub fn object_count(&self) -> u64 {
        self.objects
    }

    /// Live object bytes (page headers excluded).
    pub fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// Aggregate fill rate: used bytes over total page capacity — the
    /// `E(FR_SG)` whose reciprocal is Nemo's WA (Eq. 9).
    pub fn fill_rate(&self) -> f64 {
        let used: usize = self.sets.iter().map(|s| s.used()).sum();
        let cap: usize = self.sets.iter().map(|s| s.capacity).sum();
        used as f64 / cap as f64
    }

    /// Per-set fill rates (for the Fig. 8 skew CDFs).
    pub fn set_fill_rates(&self) -> Vec<f64> {
        self.sets.iter().map(|s| s.fill_rate()).collect()
    }

    /// Serializes the SG (its shape, then the entry lists in insertion
    /// order) for a warm-restart checkpoint.
    pub(crate) fn checkpoint_encode(&self, w: &mut crate::checkpoint::Writer) {
        w.u32(self.set_count());
        w.u32(self.page_size());
        for s in &self.sets {
            w.u32(s.entries.len() as u32);
            for &(key, size) in &s.entries {
                w.u64(key);
                w.u32(size);
            }
        }
    }

    /// Rebuilds an SG from [`MemSg::checkpoint_encode`] bytes. Entries are
    /// replayed through [`MemSg::insert_at`], so FIFO order and byte
    /// accounting are exact. The shape is the image's; the caller checks
    /// it against the configuration.
    pub(crate) fn checkpoint_decode(r: &mut crate::checkpoint::Reader<'_>) -> Result<Self, String> {
        let sets = r.len(4)? as u32;
        let page_size = r.u32()?;
        if sets == 0 || page_size as usize <= PAGE_HEADER {
            return Err(format!(
                "checkpoint corrupt: SG with {sets} sets of {page_size} bytes"
            ));
        }
        let mut sg = Self::new(sets, page_size);
        for set in 0..sets {
            let n = r.len(12)?;
            for _ in 0..n {
                let key = r.u64()?;
                let size = r.u32()?;
                if !sg.insert_at(set, key, size) {
                    return Err(format!("checkpoint corrupt: set {set} overflows its page"));
                }
            }
        }
        Ok(sg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_trace::SyntheticInsertTrace;

    #[test]
    fn insert_respects_capacity() {
        let mut buf = SetBuffer::new(1000);
        assert!(buf.insert(1, 400));
        assert!(buf.insert(2, 400));
        assert!(!buf.insert(3, 400), "998+400 > 1000");
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.used(), 2 + 800);
    }

    #[test]
    fn replace_same_key_frees_old_bytes() {
        let mut buf = SetBuffer::new(1000);
        assert!(buf.insert(1, 900));
        assert!(buf.insert(1, 950), "replacement should fit");
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.used(), 2 + 950);
    }

    #[test]
    fn evict_oldest_is_fifo() {
        let mut buf = SetBuffer::new(1000);
        buf.insert(1, 100);
        buf.insert(2, 100);
        assert_eq!(buf.evict_oldest(), Some((1, 100)));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn sg_insert_and_bookkeeping() {
        let mut sg = MemSg::new(8, 512);
        assert!(sg.insert(10, 100));
        assert!(sg.insert(11, 100));
        assert_eq!(sg.object_count(), 2);
        assert_eq!(sg.byte_count(), 200);
        // Replacement does not change the object count.
        assert!(sg.insert(10, 120));
        assert_eq!(sg.object_count(), 2);
        assert_eq!(sg.byte_count(), 220);
    }

    #[test]
    fn sacrifice_updates_counts() {
        let mut sg = MemSg::new(4, 512);
        let set = MemSg::set_index_of(5, 4);
        sg.insert(5, 100);
        let (k, s) = sg.sacrifice_at(set).expect("entry to evict");
        assert_eq!((k, s), (5, 100));
        assert_eq!(sg.object_count(), 0);
        assert_eq!(sg.byte_count(), 0);
    }

    #[test]
    fn fill_rate_reaches_one_when_all_sets_full() {
        let mut sg = MemSg::new(2, 514);
        // Each set takes exactly 512 B of objects (2 B header + 512 = 514).
        for set in 0..2 {
            // Find keys hashing to `set`.
            let mut found = 0;
            for k in 0..10_000u64 {
                if MemSg::set_index_of(k, 2) == set && found < 4 {
                    sg.insert_at(set, k, 128);
                    found += 1;
                }
            }
            assert_eq!(found, 4);
        }
        assert!((sg.fill_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn short_term_skew_exists_like_fig8() {
        // Insert unique objects until the first set fills; the mean fill
        // of the other sets must be far below 100% (the paper's C1).
        let mut sg = MemSg::new(256, 4096);
        let mut trace = SyntheticInsertTrace::paper_synthetic(77);
        loop {
            let r = trace.next().expect("infinite trace");
            if !sg.insert(r.key, r.size) {
                break;
            }
        }
        let rates = sg.set_fill_rates();
        let mean: f64 = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            mean < 0.5,
            "when the first set fills, most sets should be far from full \
             (paper Fig. 8): mean fill {mean}"
        );
    }

    #[test]
    fn set_overflow_leaves_counters_untouched() {
        // A refused insert (set overflow) must not perturb object/byte
        // accounting — the flush-fill study depends on these counters.
        let mut sg = MemSg::new(1, 300);
        assert!(sg.insert_at(0, 1, 200));
        let (objs, bytes) = (sg.object_count(), sg.byte_count());
        assert!(!sg.insert_at(0, 2, 200), "2 + 200 + 200 > 300 must refuse");
        assert_eq!(sg.object_count(), objs);
        assert_eq!(sg.byte_count(), bytes);
        assert!(!sg.set(0).contains(2));
        // A replacement that no longer fits must also refuse cleanly.
        assert!(!sg.insert_at(0, 1, 299), "2 + 299 > 300 must refuse");
        assert_eq!(sg.byte_count(), bytes);
        assert!(sg.set(0).contains(1), "old entry survives failed replace");
    }

    #[test]
    fn flush_fill_accounting_counts_headers_once_per_set() {
        // fill_rate is E(FR_SG) from Eq. 9: (headers + object bytes) over
        // page capacity, headers counted once per set regardless of count.
        let mut sg = MemSg::new(4, 1000);
        sg.insert_at(0, 1, 400);
        sg.insert_at(0, 2, 300);
        sg.insert_at(1, 3, 500);
        let used = (PAGE_HEADER * 4 + 400 + 300 + 500) as f64;
        assert!((sg.fill_rate() - used / 4000.0).abs() < 1e-12);
        assert_eq!(sg.byte_count(), 1200, "byte_count excludes headers");
        // Per-set rates agree with the aggregate.
        let rates = sg.set_fill_rates();
        let mean_used: f64 = rates.iter().map(|r| r * 1000.0).sum::<f64>();
        assert!((mean_used - used).abs() < 1e-9);
    }

    #[test]
    fn sacrifice_then_refill_round_trips_accounting() {
        // Probabilistic flushing sacrifices the oldest entry; the freed
        // room must be reusable and the counters must round-trip.
        let mut sg = MemSg::new(1, 300);
        assert!(sg.insert_at(0, 1, 140));
        assert!(sg.insert_at(0, 2, 140));
        assert!(!sg.insert_at(0, 3, 140), "full set refuses");
        assert_eq!(sg.sacrifice_at(0), Some((1, 140)), "FIFO victim");
        assert!(sg.insert_at(0, 3, 140), "freed room is reusable");
        assert_eq!(sg.object_count(), 2);
        assert_eq!(sg.byte_count(), 280);
        // Draining the set brings every counter back to zero.
        while sg.sacrifice_at(0).is_some() {}
        assert_eq!(sg.object_count(), 0);
        assert_eq!(sg.byte_count(), 0);
        assert!((sg.fill_rate() - PAGE_HEADER as f64 / 300.0).abs() < 1e-12);
    }
}
