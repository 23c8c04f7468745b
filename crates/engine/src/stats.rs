//! Shared counters and memory accounting.

use nemo_flash::DeviceStats;

/// Counters common to all engines.
///
/// Conventions (paper §5.2):
/// * `logical_bytes` — bytes of objects newly written by the user,
///   including objects sacrificed by Nemo's probabilistic flushing;
///   re-copied bytes (write-back, migration, GC) are *not* logical.
/// * `flash_bytes_written` — application-level bytes sent to the device.
///   It and `flash_bytes_read` count only device calls that succeeded
///   (see [`device`](crate::device)).
/// * `nand_bytes_written` — bytes programmed on NAND. Equal to
///   `flash_bytes_written` on zoned devices (DLWA = 1); larger on the
///   conventional device behind the set-associative baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Lookup operations.
    pub gets: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Insert operations (user puts + miss fills).
    pub puts: u64,
    /// User bytes admitted (ALWA denominator).
    pub logical_bytes: u64,
    /// Application-level bytes written to flash.
    pub flash_bytes_written: u64,
    /// NAND bytes programmed (includes device GC).
    pub nand_bytes_written: u64,
    /// Bytes read from flash (objects + index + write-back reads).
    pub flash_bytes_read: u64,
    /// Data pages read on the lookup path (candidate sets / object
    /// pages; index-structure reads excluded). Per-get this is the
    /// "candidate set-reads" cost Nemo's newest-first get walk bounds.
    pub candidate_reads: u64,
    /// Objects evicted (dropped from the cache).
    pub evicted_objects: u64,
    /// Objects currently resident on flash (approximate for approximate
    /// indexes).
    pub objects_on_flash: u64,
    /// Device operations retried after a transient error (bounded
    /// retry-with-backoff; each retry attempt counts once).
    pub device_retries: u64,
    /// Zones quarantined after a permanent device error. A quarantined
    /// zone's objects are dropped from the index and never reused.
    pub quarantined_zones: u64,
    /// Lookups answered as misses purely because a device fault (after
    /// retries) or a quarantine made the object unreachable.
    pub fault_induced_misses: u64,
    /// Raw device counters.
    pub device: DeviceStats,
}

impl EngineStats {
    /// Application-level write amplification.
    pub fn alwa(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.flash_bytes_written as f64 / self.logical_bytes as f64
        }
    }

    /// Total write amplification including device-level GC.
    pub fn total_wa(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.nand_bytes_written as f64 / self.logical_bytes as f64
        }
    }

    /// Fraction of gets that missed.
    pub fn miss_ratio(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            1.0 - self.hits as f64 / self.gets as f64
        }
    }

    /// Flash bytes read per get (read amplification proxy, §5.5).
    pub fn read_bytes_per_get(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.flash_bytes_read as f64 / self.gets as f64
        }
    }

    /// Mean candidate data-page reads per get — the per-lookup set-read
    /// cost (what drove Nemo's late-run drift in Fig. 15 while a get
    /// read every candidate).
    pub fn candidate_reads_per_get(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.candidate_reads as f64 / self.gets as f64
        }
    }

    /// Counter-wise sum `self + other`.
    ///
    /// Merging the stats of independent engines (e.g. one per shard
    /// behind `nemo-service`'s front-end) yields the aggregate view the
    /// derived ratios ([`Self::alwa`], [`Self::miss_ratio`], …) expect:
    /// numerators and denominators are summed *before* dividing, so the
    /// merged ALWA is the byte-weighted aggregate, not a mean of ratios.
    /// `EngineStats::default()` is the identity; merge is commutative and
    /// associative.
    pub fn merge(&self, other: &EngineStats) -> EngineStats {
        EngineStats {
            gets: self.gets + other.gets,
            hits: self.hits + other.hits,
            puts: self.puts + other.puts,
            logical_bytes: self.logical_bytes + other.logical_bytes,
            flash_bytes_written: self.flash_bytes_written + other.flash_bytes_written,
            nand_bytes_written: self.nand_bytes_written + other.nand_bytes_written,
            flash_bytes_read: self.flash_bytes_read + other.flash_bytes_read,
            candidate_reads: self.candidate_reads + other.candidate_reads,
            evicted_objects: self.evicted_objects + other.evicted_objects,
            objects_on_flash: self.objects_on_flash + other.objects_on_flash,
            device_retries: self.device_retries + other.device_retries,
            quarantined_zones: self.quarantined_zones + other.quarantined_zones,
            fault_induced_misses: self.fault_induced_misses + other.fault_induced_misses,
            device: self.device.merge(&other.device),
        }
    }

    /// Merges an iterator of stats into one aggregate.
    pub fn merge_all<'a>(stats: impl IntoIterator<Item = &'a EngineStats>) -> EngineStats {
        stats
            .into_iter()
            .fold(EngineStats::default(), |acc, s| acc.merge(s))
    }
}

/// One metadata memory component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryComponent {
    /// Component label (e.g. "index cache", "hotness bitmap").
    pub name: String,
    /// Resident bytes.
    pub bytes: u64,
}

/// Metadata memory report, convertible to the paper's bits/object metric
/// (Table 6).
///
/// # Examples
///
/// ```
/// use nemo_engine::MemoryBreakdown;
/// let mut m = MemoryBreakdown::new(1000);
/// m.push("index", 1000);  // 8 bits/obj
/// m.push("hotness", 125); // 1 bit/obj
/// assert!((m.bits_per_object() - 9.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryBreakdown {
    /// Components in display order.
    pub components: Vec<MemoryComponent>,
    /// Objects covered by the metadata (on-flash object count).
    pub objects: u64,
}

impl MemoryBreakdown {
    /// Creates an empty breakdown for `objects` resident objects.
    pub fn new(objects: u64) -> Self {
        Self {
            components: Vec::new(),
            objects,
        }
    }

    /// Adds a component.
    pub fn push(&mut self, name: &str, bytes: u64) {
        self.components.push(MemoryComponent {
            name: name.to_string(),
            bytes,
        });
    }

    /// Total metadata bytes.
    pub fn total_bytes(&self) -> u64 {
        self.components.iter().map(|c| c.bytes).sum()
    }

    /// Metadata bits per on-flash object (Table 6's unit).
    pub fn bits_per_object(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.total_bytes() as f64 * 8.0 / self.objects as f64
        }
    }

    /// Merges two breakdowns, summing `objects` and combining components
    /// *by name* (bytes of same-named components add; ordering follows
    /// first appearance). Shards of the same engine type report identical
    /// component names, so the merged breakdown keeps the per-component
    /// resolution of Table 6 while [`Self::bits_per_object`] becomes the
    /// object-weighted aggregate.
    pub fn merge(&self, other: &MemoryBreakdown) -> MemoryBreakdown {
        let mut merged = MemoryBreakdown::new(self.objects + other.objects);
        for c in self.components.iter().chain(&other.components) {
            match merged.components.iter_mut().find(|m| m.name == c.name) {
                Some(m) => m.bytes += c.bytes,
                None => merged.push(&c.name, c.bytes),
            }
        }
        merged
    }

    /// Merges an iterator of breakdowns into one aggregate.
    pub fn merge_all<'a>(all: impl IntoIterator<Item = &'a MemoryBreakdown>) -> MemoryBreakdown {
        all.into_iter()
            .fold(MemoryBreakdown::default(), |acc, m| acc.merge(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wa_ratios() {
        let s = EngineStats {
            logical_bytes: 100,
            flash_bytes_written: 156,
            nand_bytes_written: 312,
            ..Default::default()
        };
        assert!((s.alwa() - 1.56).abs() < 1e-9);
        assert!((s.total_wa() - 3.12).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = EngineStats::default();
        assert_eq!(s.alwa(), 1.0);
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.read_bytes_per_get(), 0.0);
    }

    #[test]
    fn miss_ratio() {
        let s = EngineStats {
            gets: 10,
            hits: 7,
            ..Default::default()
        };
        assert!((s.miss_ratio() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn breakdown_totals() {
        let mut m = MemoryBreakdown::new(200_000);
        m.push("bloom filters", 180_000); // 7.2 bits/obj
        m.push("hotness", 7_500); // 0.3
        m.push("index group buffer", 20_000); // 0.8
        assert_eq!(m.total_bytes(), 207_500);
        assert!((m.bits_per_object() - 8.3).abs() < 0.01);
    }

    #[test]
    fn zero_objects_breakdown() {
        let m = MemoryBreakdown::new(0);
        assert_eq!(m.bits_per_object(), 0.0);
    }

    #[test]
    fn stats_merge_sums_counters_and_weights_ratios() {
        let a = EngineStats {
            gets: 10,
            hits: 5,
            puts: 4,
            logical_bytes: 100,
            flash_bytes_written: 150,
            nand_bytes_written: 150,
            flash_bytes_read: 80,
            candidate_reads: 12,
            evicted_objects: 2,
            objects_on_flash: 7,
            ..Default::default()
        };
        let b = EngineStats {
            gets: 30,
            hits: 27,
            puts: 6,
            logical_bytes: 300,
            flash_bytes_written: 330,
            nand_bytes_written: 660,
            flash_bytes_read: 40,
            candidate_reads: 28,
            evicted_objects: 1,
            objects_on_flash: 11,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.gets, 40);
        assert_eq!(m.hits, 32);
        assert_eq!(m.objects_on_flash, 18);
        assert_eq!(m.candidate_reads, 40);
        assert!((m.candidate_reads_per_get() - 1.0).abs() < 1e-12);
        // Byte-weighted ALWA: (150 + 330) / (100 + 300), not the mean of
        // the two per-shard ratios (which would be (1.5 + 1.1) / 2).
        assert!((m.alwa() - 1.2).abs() < 1e-12);
        assert!((m.total_wa() - 810.0 / 400.0).abs() < 1e-12);
        assert!((m.miss_ratio() - 0.2).abs() < 1e-12);
        // Identity and commutativity.
        assert_eq!(a.merge(&EngineStats::default()), a);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn stats_merge_all_folds() {
        let parts: Vec<EngineStats> = (1..=4)
            .map(|i| EngineStats {
                gets: i,
                logical_bytes: 10 * i,
                ..Default::default()
            })
            .collect();
        let m = EngineStats::merge_all(&parts);
        assert_eq!(m.gets, 10);
        assert_eq!(m.logical_bytes, 100);
    }

    #[test]
    fn breakdown_merge_combines_by_name() {
        let mut a = MemoryBreakdown::new(100);
        a.push("index", 1000);
        a.push("hotness", 50);
        let mut b = MemoryBreakdown::new(300);
        b.push("index", 3000);
        b.push("buffer", 10);
        let m = a.merge(&b);
        assert_eq!(m.objects, 400);
        assert_eq!(m.components.len(), 3);
        assert_eq!(m.components[0].name, "index");
        assert_eq!(m.components[0].bytes, 4000);
        assert_eq!(m.total_bytes(), 4060);
        // Object-weighted bits/obj, not a mean of per-shard bits/obj.
        assert!((m.bits_per_object() - 4060.0 * 8.0 / 400.0).abs() < 1e-12);
        assert_eq!(
            a.merge(&MemoryBreakdown::default()).components,
            a.components
        );
    }
}
