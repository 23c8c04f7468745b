//! The set-associative baseline ("Set" in Fig. 12a) — CacheLib's small
//! object cache, as described in §2.3: each key hashes to one 4 KB set,
//! every insert is a read-modify-write of the whole set, and Meta runs it
//! with 50 % over-provisioning to tame device-level GC.

use crate::SET_SALT;
use nemo_bloom::BloomFilter;
use nemo_engine::codec::{self, PageBuf, MIN_OBJECT_SIZE};
use nemo_engine::{device, CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::{ConventionalSsd, Geometry, LatencyModel, Nanos, SimFlash, ZonedFlash};
use nemo_util::hash_u64;

/// Configuration of [`SetCache`].
#[derive(Debug, Clone)]
pub struct SetCacheConfig {
    /// Raw device geometry.
    pub geometry: Geometry,
    /// Device latency model.
    pub latency: LatencyModel,
    /// Over-provisioning ratio of the conventional SSD (paper: 0.5).
    pub op_ratio: f64,
    /// Bits per expected object in each per-set Bloom filter (paper
    /// ballpark: 4 bits/obj).
    pub bloom_bits_per_object: f64,
}

impl SetCacheConfig {
    /// A small default for tests.
    pub fn small() -> Self {
        Self {
            geometry: Geometry::new(4096, 64, 32, 8),
            latency: LatencyModel::default(),
            op_ratio: 0.5,
            bloom_bits_per_object: 4.0,
        }
    }

    /// A shard factory for `nemo-service`: builds one independent engine
    /// per shard from this configuration (shard index ignored).
    pub fn factory(self) -> impl Fn(usize) -> SetCache + Send + Sync + Clone {
        move |_shard| SetCache::new(self.clone())
    }

    /// A shard factory over a caller-chosen device backend; see
    /// `NemoConfig::factory_on` for the calling convention. The zoned
    /// device is wrapped in the FTL this engine runs on.
    pub fn factory_on<D, G>(self, mut make_dev: G) -> impl FnMut(usize) -> SetCache<D> + Send
    where
        D: ZonedFlash,
        G: FnMut(usize, Geometry, LatencyModel) -> D + Send,
    {
        move |shard| {
            let dev = make_dev(shard, self.geometry, self.latency);
            SetCache::with_device(self.clone(), dev)
        }
    }
}

/// Set-associative flash cache over a conventional SSD.
///
/// Negative lookups are filtered by a per-set Bloom filter rebuilt on every
/// set write (CacheLib does the same); positive lookups read the set page
/// and search it. Within a set, eviction is FIFO: the oldest entries are
/// dropped to make room.
///
/// # Examples
///
/// ```
/// use nemo_baselines::{SetCache, SetCacheConfig};
/// use nemo_engine::CacheEngine;
/// use nemo_flash::Nanos;
///
/// let mut cache = SetCache::new(SetCacheConfig::small());
/// cache.put(9, 250, Nanos::ZERO);
/// assert!(cache.get(9, Nanos::ZERO).hit);
/// // One 250 B object cost a whole-page rewrite:
/// assert!(cache.stats().alwa() > 10.0);
/// ```
#[derive(Debug)]
pub struct SetCache<D: ZonedFlash = SimFlash> {
    dev: ConventionalSsd<D>,
    filters: Vec<BloomFilter>,
    bloom_geom: (u64, u32),
    n_sets: u64,
    stats: EngineStats,
    objects: u64,
    /// Reused one-page read buffer: set scans on the get and
    /// read-modify-write paths stay allocation-free.
    page_buf: Vec<u8>,
}

impl SetCache {
    /// Creates the cache and its simulated device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration leaves no usable sets.
    pub fn new(cfg: SetCacheConfig) -> Self {
        let zoned = SimFlash::with_latency(cfg.geometry, cfg.latency);
        Self::with_device(cfg, zoned)
    }
}

impl<D: ZonedFlash> SetCache<D> {
    /// Creates the cache over an existing zoned device, wrapping it in
    /// the page-mapped FTL.
    ///
    /// # Panics
    ///
    /// Panics if the configuration leaves no usable sets or the device's
    /// geometry differs from the configuration's.
    pub fn with_device(cfg: SetCacheConfig, zoned: D) -> Self {
        assert_eq!(
            zoned.geometry(),
            cfg.geometry,
            "device geometry must match the configuration"
        );
        let dev = ConventionalSsd::with_device(zoned, cfg.op_ratio);
        let n_sets = dev.user_page_count();
        assert!(n_sets > 0, "no sets available");
        // Expected objects per set drives the filter size.
        let objs_per_set = (cfg.geometry.page_size() as f64 / 250.0).ceil().max(1.0) as u64;
        let m_bits = ((cfg.bloom_bits_per_object * objs_per_set as f64).ceil() as u64).max(64);
        let k = 2;
        let filters = (0..n_sets)
            .map(|_| BloomFilter::with_geometry(m_bits, k))
            .collect();
        Self {
            dev,
            filters,
            bloom_geom: (m_bits, k),
            n_sets,
            stats: EngineStats::default(),
            objects: 0,
            page_buf: vec![0u8; cfg.geometry.page_size() as usize],
        }
    }

    fn set_of(&self, key: u64) -> u64 {
        hash_u64(key, SET_SALT) % self.n_sets
    }

    /// Access to the device for DLWA reporting.
    pub fn device(&self) -> &ConventionalSsd<D> {
        &self.dev
    }
}

impl<D: ZonedFlash + Send> CacheEngine for SetCache<D> {
    fn name(&self) -> &'static str {
        "set"
    }

    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        self.stats.gets += 1;
        let set = self.set_of(key);
        if !self.filters[set as usize].contains(key) {
            return Ok(GetOutcome::memory_miss(now));
        }
        let (dev, buf) = (&mut self.dev, &mut self.page_buf);
        let done = match device::retry(&mut self.stats, now, |t| dev.read_page_into(set, buf, t)) {
            Ok(done) => done,
            Err(e) => {
                if !e.is_transient() {
                    // Permanently unreadable set: drop it from the filter so
                    // later lookups miss in memory instead of re-reading a
                    // dead page. Exhausted transient retries only cost this
                    // lookup; the set stays resident.
                    let (m_bits, k_hashes) = self.bloom_geom;
                    self.filters[set as usize] = BloomFilter::with_geometry(m_bits, k_hashes);
                }
                self.stats.fault_induced_misses += 1;
                return Ok(GetOutcome::memory_miss(now));
            }
        };
        self.stats.flash_bytes_read += self.page_buf.len() as u64;
        self.stats.candidate_reads += 1;
        if codec::find_payload(&self.page_buf, key).is_some() {
            self.stats.hits += 1;
            Ok(GetOutcome {
                hit: true,
                done_at: done,
                flash_reads: 1,
                set_reads: 1,
            })
        } else {
            // Bloom false positive: one wasted flash read.
            Ok(GetOutcome {
                hit: false,
                done_at: done,
                flash_reads: 1,
                set_reads: 1,
            })
        }
    }

    fn try_put(&mut self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        let size = size.max(MIN_OBJECT_SIZE);
        self.stats.puts += 1;
        self.stats.logical_bytes += size as u64;
        let set = self.set_of(key);
        let page_size = self.dev.geometry().page_size() as usize;

        // Read-modify-write: read the set, drop the old version of this
        // key, FIFO-evict until the new object fits, rewrite.
        let (dev, buf) = (&mut self.dev, &mut self.page_buf);
        match device::retry(&mut self.stats, now, |t| dev.read_page_into(set, buf, t)) {
            Ok(_) => self.stats.flash_bytes_read += self.page_buf.len() as u64,
            // The old contents are gone; rebuild the set from scratch with
            // just the new object (the rewrite relocates it physically).
            Err(_) => self.page_buf.fill(0),
        }
        let had_key = codec::parse_entries(&self.page_buf).any(|(k, _)| k == key);
        let mut entries: Vec<(u64, u32)> = codec::parse_entries(&self.page_buf)
            .filter(|&(k, _)| k != key)
            .collect();
        let mut used: usize =
            codec::PAGE_HEADER + entries.iter().map(|&(_, s)| s as usize).sum::<usize>();
        let mut evicted = 0u64;
        while used + size as usize > page_size && !entries.is_empty() {
            let (_, s) = entries.remove(0);
            used -= s as usize;
            evicted += 1;
        }
        self.stats.evicted_objects += evicted;
        // Net object delta: +1 new, -evicted, -1 if an old version existed.
        self.objects += 1;
        self.objects = self.objects.saturating_sub(evicted + u64::from(had_key));

        let mut page = PageBuf::new(page_size);
        for &(k, s) in &entries {
            let pushed = page.try_push(k, s);
            debug_assert!(pushed, "retained entries must fit");
        }
        let pushed = page.try_push(key, size);
        debug_assert!(pushed, "new object must fit after eviction");
        let bytes = page.finish();
        let dev = &mut self.dev;
        let done = device::retry(&mut self.stats, now, |t| dev.write_page(set, &bytes, t))
            .map_err(|e| EngineError::device("rewriting a set", e))?;
        self.stats.flash_bytes_written += bytes.len() as u64;

        // Rebuild the set's filter from the surviving entries.
        let (m_bits, k_hashes) = self.bloom_geom;
        let mut bf = BloomFilter::with_geometry(m_bits, k_hashes);
        for &(k, _) in &entries {
            bf.insert(k);
        }
        bf.insert(key);
        self.filters[set as usize] = bf;
        Ok(done)
    }

    fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        let ftl = self.dev.ftl_stats();
        s.nand_bytes_written = ftl.nand_pages_written * self.dev.geometry().page_size() as u64;
        s.objects_on_flash = self.objects;
        s.device = self.dev.device_stats();
        s
    }

    fn memory(&self) -> MemoryBreakdown {
        let mut m = MemoryBreakdown::new(self.objects.max(1));
        let bloom_bytes: u64 = self.filters.iter().map(|f| f.serialized_len() as u64).sum();
        m.push("per-set bloom filters", bloom_bytes);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_flash::{FaultKind, FaultOp, FaultPlan, FaultRule, FaultyFlash};
    use nemo_trace::SyntheticInsertTrace;

    fn config() -> SetCacheConfig {
        SetCacheConfig {
            geometry: Geometry::new(4096, 16, 16, 4),
            latency: LatencyModel::zero(),
            op_ratio: 0.5,
            bloom_bits_per_object: 4.0,
        }
    }

    fn engine() -> SetCache {
        SetCache::new(config())
    }

    #[test]
    fn put_get_roundtrip() {
        let mut c = engine();
        c.put(1, 300, Nanos::ZERO);
        let out = c.get(1, Nanos::ZERO);
        assert!(out.hit);
        assert_eq!(out.flash_reads, 1);
    }

    #[test]
    fn a_read_that_failed_charges_no_bytes() {
        let cfg = config();
        let plan =
            FaultPlan::new(1).rule(FaultRule::every(FaultOp::Read, FaultKind::TransientError));
        let dev = FaultyFlash::new(SimFlash::with_latency(cfg.geometry, cfg.latency), plan);
        let mut c = SetCache::with_device(cfg, dev);
        // The first put finds its set unmapped: the FTL answers with a
        // zero page and the device is not read.
        c.put(42, 100, Nanos::ZERO);
        let charged = c.stats().flash_bytes_read;
        // The second put's read-modify-write read fails on every attempt
        // and the set is rebuilt from scratch; nothing was read.
        c.put(42, 100, Nanos::ZERO);
        let s = c.stats();
        assert_eq!(s.device.read_errors, 4, "one attempt and three retries");
        assert_eq!(s.device.bytes_read, 0);
        assert_eq!(s.flash_bytes_read, charged);
    }

    #[test]
    fn bloom_filter_screens_misses() {
        let mut c = engine();
        c.put(1, 300, Nanos::ZERO);
        let mut flashless_misses = 0;
        for k in 1000..2000u64 {
            let out = c.get(k, Nanos::ZERO);
            assert!(!out.hit);
            if out.flash_reads == 0 {
                flashless_misses += 1;
            }
        }
        assert!(
            flashless_misses > 900,
            "most misses must be filtered in memory, got {flashless_misses}"
        );
    }

    #[test]
    fn alwa_matches_page_over_object_ratio() {
        let mut c = engine();
        for r in SyntheticInsertTrace::paper_synthetic(1).take(3000) {
            c.put(r.key, r.size, Nanos::ZERO);
        }
        let wa = c.stats().alwa();
        // ~4096/265 ≈ 15.5 (mean size slightly above 250 due to clamping).
        assert!((12.0..20.0).contains(&wa), "set WA {wa}");
    }

    #[test]
    fn within_set_eviction_keeps_newest() {
        let mut c = engine();
        // Find keys that collide into one set.
        let target = c.set_of(1);
        let colliding: Vec<u64> = (0..200_000u64)
            .filter(|&k| c.set_of(k) == target)
            .take(30)
            .collect();
        assert!(colliding.len() >= 20, "need colliding keys for the test");
        for &k in &colliding {
            c.put(k, 400, Nanos::ZERO);
        }
        // 4 KB / 400 B ≈ 10 objects fit; the last inserted must be present.
        let last = *colliding.last().expect("nonempty");
        assert!(c.get(last, Nanos::ZERO).hit);
        let first = colliding[0];
        assert!(!c.get(first, Nanos::ZERO).hit, "oldest must be evicted");
        assert!(c.stats().evicted_objects > 0);
    }

    #[test]
    fn update_replaces_in_place() {
        let mut c = engine();
        c.put(5, 200, Nanos::ZERO);
        c.put(5, 220, Nanos::ZERO);
        assert!(c.get(5, Nanos::ZERO).hit);
        let s = c.stats();
        assert_eq!(s.evicted_objects, 0);
    }

    #[test]
    fn dlwa_grows_under_churn() {
        let mut c = engine();
        for r in SyntheticInsertTrace::paper_synthetic(2).take(20_000) {
            c.put(r.key, r.size, Nanos::ZERO);
        }
        let s = c.stats();
        assert!(
            s.nand_bytes_written >= s.flash_bytes_written,
            "NAND writes include GC traffic"
        );
        let dlwa = c.device().ftl_stats().dlwa();
        assert!((1.0..2.0).contains(&dlwa), "50% OP keeps DLWA low: {dlwa}");
    }

    #[test]
    fn memory_is_a_few_bits_per_object() {
        let mut c = engine();
        for r in SyntheticInsertTrace::paper_synthetic(3).take(5000) {
            c.put(r.key, r.size, Nanos::ZERO);
        }
        let bits = c.memory().bits_per_object();
        assert!(bits < 40.0, "set cache metadata should be small: {bits}");
    }
}
