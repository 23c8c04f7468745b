//! Kangaroo (McAllister et al., SOSP '21) — the hierarchical baseline with
//! *independent* garbage collection (the paper's Case 3.1): log-to-set
//! migration batches objects per set, but when set zones run out, valid
//! sets are relocated verbatim, so GC write amplification multiplies with
//! the migration write amplification (§5.2: WA ≈ 55 at 5 % OP).

use crate::hlog::HierLog;
use crate::hset::{HsetRegion, SetWriteKind};
use crate::SET_SALT;
use nemo_bloom::BloomFilter;
use nemo_engine::codec::{self, PageBuf, MIN_OBJECT_SIZE};
use nemo_engine::{device, CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::{Geometry, LatencyModel, Nanos, SimFlash, ZonedFlash};
use nemo_metrics::DiscreteCdf;
use nemo_util::hash_u64;

/// Configuration of [`Kangaroo`].
#[derive(Debug, Clone)]
pub struct KangarooConfig {
    /// Device geometry.
    pub geometry: Geometry,
    /// Device latency model.
    pub latency: LatencyModel,
    /// Fraction of flash devoted to the log tier (Table 4: 5 %).
    pub log_fraction: f64,
    /// Over-provisioning ratio of the set tier (Table 4: 5 %).
    pub op_ratio: f64,
}

impl KangarooConfig {
    /// A small default for tests: 64 MB device, 1 MB zones.
    pub fn small() -> Self {
        Self {
            geometry: Geometry::new(4096, 256, 64, 8),
            latency: LatencyModel::default(),
            log_fraction: 0.05,
            op_ratio: 0.05,
        }
    }

    /// A shard factory for `nemo-service`: builds one independent engine
    /// per shard from this configuration (shard index ignored).
    pub fn factory(self) -> impl Fn(usize) -> Kangaroo + Send + Sync + Clone {
        move |_shard| Kangaroo::new(self.clone())
    }

    /// A shard factory over a caller-chosen device backend; see
    /// `NemoConfig::factory_on` for the calling convention.
    pub fn factory_on<D, G>(self, mut make_dev: G) -> impl FnMut(usize) -> Kangaroo<D> + Send
    where
        D: ZonedFlash,
        G: FnMut(usize, Geometry, LatencyModel) -> D + Send,
    {
        move |shard| {
            let dev = make_dev(shard, self.geometry, self.latency);
            Kangaroo::with_device(self.clone(), dev)
        }
    }
}

/// The Kangaroo cache engine.
///
/// # Examples
///
/// ```
/// use nemo_baselines::{Kangaroo, KangarooConfig};
/// use nemo_engine::CacheEngine;
/// use nemo_flash::Nanos;
///
/// let mut kg = Kangaroo::new(KangarooConfig::small());
/// kg.put(1, 250, Nanos::ZERO);
/// assert!(kg.get(1, Nanos::ZERO).hit);
/// ```
#[derive(Debug)]
pub struct Kangaroo<D: ZonedFlash = SimFlash> {
    dev: D,
    log: HierLog,
    hset: HsetRegion,
    filters: Vec<BloomFilter>,
    bloom_geom: (u64, u32),
    stats: EngineStats,
    objects_in_sets: u64,
    /// Newly written objects per set write (Fig. 4-style CDF).
    migration_cdf: DiscreteCdf,
    /// GC relocations (pure copies, no new objects).
    pub_relocations: u64,
    rmw_count: u64,
    /// Reused one-page read buffer: set scans, log reads and GC
    /// relocations stay allocation-free.
    read_buf: Vec<u8>,
}

impl Kangaroo {
    /// Creates the engine and its simulated device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is too small to hold both tiers.
    pub fn new(cfg: KangarooConfig) -> Self {
        let dev = SimFlash::with_latency(cfg.geometry, cfg.latency);
        Self::with_device(cfg, dev)
    }
}

impl<D: ZonedFlash> Kangaroo<D> {
    /// Creates the engine over an existing device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is too small to hold both tiers or the
    /// device's geometry differs from the configuration's.
    pub fn with_device(cfg: KangarooConfig, dev: D) -> Self {
        assert_eq!(
            dev.geometry(),
            cfg.geometry,
            "device geometry must match the configuration"
        );
        let zones = cfg.geometry.zone_count();
        let log_zones = ((zones as f64 * cfg.log_fraction).round() as u32).max(1);
        assert!(
            zones > log_zones + 3,
            "geometry too small: {zones} zones for {log_zones} log zones"
        );
        let log_ids: Vec<u32> = (0..log_zones).collect();
        let set_ids: Vec<u32> = (log_zones..zones).collect();
        let set_pages = set_ids.len() as u64 * cfg.geometry.pages_per_zone() as u64;
        // N'_set = (1 - X) * N_set; Kangaroo has no hot/cold split, so the
        // full range is hashed into (twice FairyWREN's, per §5.2).
        let n_sets = ((set_pages as f64) * (1.0 - cfg.op_ratio)).floor() as u64;
        // Independent GC needs real slack: one spare frontier zone plus
        // room for invalid pages to accumulate. With OP worth less than
        // a zone beyond the frontier, every remaining zone can end up
        // fully valid and GC livelocks mid-run — fail fast instead.
        let op_pages = set_pages - n_sets;
        assert!(
            op_pages > cfg.geometry.pages_per_zone() as u64,
            "set-region OP too small for GC: {op_pages} spare pages is no more than \
             one zone ({} pages); use a larger device or a higher op_ratio",
            cfg.geometry.pages_per_zone()
        );
        let hset = HsetRegion::new(set_ids, n_sets);
        // Per-set bloom filters (Kangaroo §4: a few bits per object).
        let objs_per_set = (cfg.geometry.page_size() as f64 / 250.0).ceil() as u64;
        let m_bits = (3 * objs_per_set).max(64);
        let filters = (0..n_sets)
            .map(|_| BloomFilter::with_geometry(m_bits, 2))
            .collect();
        Self {
            log: HierLog::new(log_ids, cfg.geometry.page_size() as usize),
            dev,
            hset,
            filters,
            bloom_geom: (m_bits, 2),
            stats: EngineStats::default(),
            objects_in_sets: 0,
            migration_cdf: DiscreteCdf::new(10),
            pub_relocations: 0,
            rmw_count: 0,
            read_buf: vec![0u8; cfg.geometry.page_size() as usize],
        }
    }

    fn set_of(&self, key: u64) -> u64 {
        hash_u64(key, SET_SALT) % self.hset.n_sets()
    }

    /// CDF of newly written objects per set write (for the Fig. 4/5-style
    /// analysis).
    pub fn migration_cdf(&self) -> &DiscreteCdf {
        &self.migration_cdf
    }

    /// Pages relocated by independent GC so far.
    pub fn gc_relocations(&self) -> u64 {
        self.pub_relocations
    }

    /// Mean valid fraction of full set zones (paper: 50–80 % for KG).
    pub fn set_zone_valid_fraction(&self) -> f64 {
        self.hset.mean_valid_fraction(&self.dev)
    }

    /// Runs independent GC (Case 3.1) until space is healthy.
    fn gc_if_needed(&mut self, now: Nanos) -> Result<(), EngineError> {
        while self.hset.needs_gc(&self.dev) {
            // No collectible zone under GC pressure: let the next append
            // surface the exhaustion as a fatal error.
            let Some(victim) = self.hset.victim(&self.dev) else {
                break;
            };
            assert!(
                self.hset.valid_count(victim) < self.dev.geometry().pages_per_zone(),
                "set region overcommitted: every zone fully valid"
            );
            // The buffer is taken rather than borrowed: `append_set`
            // needs the device mutably while the page contents are read.
            let mut bytes = std::mem::take(&mut self.read_buf);
            let mut victim_unreadable = false;
            for set in self.hset.sets_in_zone(&self.dev, victim) {
                let addr = self.hset.location(set).expect("valid set");
                if device::read(&mut self.dev, &mut self.stats, addr, &mut bytes, now).is_err() {
                    // The victim zone cannot be read back: its valid sets
                    // are lost, retire it instead of relocating.
                    victim_unreadable = true;
                    break;
                }
                let appended =
                    self.hset
                        .append_set(&mut self.dev, &mut self.stats, set, &bytes, now);
                if let Err(e) = appended {
                    self.read_buf = bytes;
                    return Err(EngineError::device("relocating a set during GC", e));
                }
                self.pub_relocations += 1;
            }
            self.read_buf = bytes;
            if victim_unreadable {
                self.hset.retire_zone(&self.dev, &mut self.stats, victim);
            } else {
                self.hset
                    .release_zone(&mut self.dev, &mut self.stats, victim, now);
            }
        }
        Ok(())
    }

    /// Merges `objs` (from the log) into `set` with a read-modify-write.
    fn rmw_set(
        &mut self,
        set: u64,
        objs: &[(u64, u32)],
        _kind: SetWriteKind,
        now: Nanos,
    ) -> Result<(), EngineError> {
        self.gc_if_needed(now)?;
        let page_size = self.dev.geometry().page_size() as usize;
        let mut entries: Vec<(u64, u32)> = match self.hset.location(set) {
            Some(addr) => {
                let buf = &mut self.read_buf;
                if device::read(&mut self.dev, &mut self.stats, addr, buf, now).is_ok() {
                    codec::parse_entries(&self.read_buf).collect()
                } else {
                    // Old copy unreadable: retire its zone and rebuild the
                    // set from the incoming objects alone.
                    self.hset.retire_zone(&self.dev, &mut self.stats, addr.zone);
                    Vec::new()
                }
            }
            None => Vec::new(),
        };
        let old_count = entries.len() as u64;
        // Drop stale versions of incoming keys, then append the new ones.
        entries.retain(|&(k, _)| !objs.iter().any(|&(nk, _)| nk == k));
        entries.extend_from_slice(objs);
        // FIFO within the set: evict from the front until everything fits.
        let mut used: usize =
            codec::PAGE_HEADER + entries.iter().map(|&(_, s)| s as usize).sum::<usize>();
        while used > page_size {
            let (_, s) = entries.remove(0);
            used -= s as usize;
            self.stats.evicted_objects += 1;
        }
        let mut page = PageBuf::new(page_size);
        for &(k, s) in &entries {
            let pushed = page.try_push(k, s);
            debug_assert!(pushed);
        }
        let bytes = page.finish();
        self.hset
            .append_set(&mut self.dev, &mut self.stats, set, &bytes, now)
            .map_err(|e| EngineError::device("rewriting a set", e))?;
        self.objects_in_sets = self.objects_in_sets + entries.len() as u64 - old_count;
        self.rmw_count += 1;
        self.migration_cdf.record(objs.len() as u64);
        // Rebuild the per-set filter.
        let (m, k) = self.bloom_geom;
        let mut bf = BloomFilter::with_geometry(m, k);
        for &(key, _) in &entries {
            bf.insert(key);
        }
        self.filters[set as usize] = bf;
        Ok(())
    }

    /// Passive migration: reclaim the oldest log zone (paper Case 2).
    fn migrate_log_zone(&mut self, now: Nanos) -> Result<(), EngineError> {
        let Some(victim) = self.log.oldest_full_zone(&self.dev) else {
            return Ok(());
        };
        for set in self.log.sets_touching(victim) {
            let objs: Vec<(u64, u32)> = self
                .log
                .drain_set(set)
                .iter()
                .map(|o| (o.key, o.size))
                .collect();
            if objs.is_empty() {
                continue;
            }
            self.rmw_set(set, &objs, SetWriteKind::Passive, now)?;
        }
        self.log
            .release_zone(&mut self.dev, &mut self.stats, victim, now)
            .map_err(|e| EngineError::device("resetting a log zone", e))?;
        Ok(())
    }
}

impl<D: ZonedFlash + Send> CacheEngine for Kangaroo<D> {
    fn name(&self) -> &'static str {
        "kangaroo"
    }

    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        self.stats.gets += 1;
        let set = self.set_of(key);
        // 1. Log tier (buffer or log flash page).
        if let Some(obj) = self.log.lookup(set, key) {
            return match obj.addr {
                None => {
                    self.stats.hits += 1;
                    Ok(GetOutcome::memory_hit(now))
                }
                Some(addr) => {
                    let buf = &mut self.read_buf;
                    let Ok(done) = device::read(&mut self.dev, &mut self.stats, addr, buf, now)
                    else {
                        self.stats.fault_induced_misses += 1;
                        return Ok(GetOutcome::memory_miss(now));
                    };
                    self.stats.hits += 1;
                    self.stats.candidate_reads += 1;
                    Ok(GetOutcome {
                        hit: true,
                        done_at: done,
                        flash_reads: 1,
                        set_reads: 1,
                    })
                }
            };
        }
        // 2. Set tier behind the per-set bloom filter.
        if !self.filters[set as usize].contains(key) {
            return Ok(GetOutcome::memory_miss(now));
        }
        let Some(addr) = self.hset.location(set) else {
            return Ok(GetOutcome::memory_miss(now));
        };
        let buf = &mut self.read_buf;
        let done = match device::read(&mut self.dev, &mut self.stats, addr, buf, now) {
            Ok(done) => done,
            Err(e) => {
                // Degrade to a miss; only a permanently unreadable set
                // zone is retired (a transient burst keeps the capacity).
                if !e.is_transient() {
                    self.hset.retire_zone(&self.dev, &mut self.stats, addr.zone);
                }
                self.stats.fault_induced_misses += 1;
                return Ok(GetOutcome::memory_miss(now));
            }
        };
        self.stats.candidate_reads += 1;
        if codec::find_payload(&self.read_buf, key).is_some() {
            self.stats.hits += 1;
            Ok(GetOutcome {
                hit: true,
                done_at: done,
                flash_reads: 1,
                set_reads: 1,
            })
        } else {
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
        while self.log.must_reclaim_before(&self.dev, size) {
            self.migrate_log_zone(now)?;
        }
        let ins = self
            .log
            .insert(&mut self.dev, &mut self.stats, set, key, size, now)
            .map_err(|e| EngineError::device("appending to the hierarchical log", e))?;
        Ok(ins.done_at)
    }

    fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.nand_bytes_written = s.flash_bytes_written; // zoned device: DLWA = 1
        s.objects_on_flash = self.objects_in_sets + self.log.object_count();
        s.device = self.dev.stats();
        s
    }

    fn memory(&self) -> MemoryBreakdown {
        let objects = (self.objects_in_sets + self.log.object_count()).max(1);
        let mut m = MemoryBreakdown::new(objects);
        m.push("log index (48 b/obj model)", self.log.modeled_index_bytes());
        m.push(
            "per-set bloom filters",
            self.filters.iter().map(|f| f.serialized_len() as u64).sum(),
        );
        m.push("set mapping table", self.hset.modeled_mapping_bytes());
        m
    }

    fn drain(&mut self, now: Nanos) {
        if let Err(e) = self.log.flush(&mut self.dev, &mut self.stats, now) {
            panic!("engine failed fatally on drain: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_trace::SyntheticInsertTrace;

    fn small() -> Kangaroo {
        Kangaroo::new(KangarooConfig {
            geometry: Geometry::new(4096, 64, 32, 4),
            latency: LatencyModel::zero(),
            log_fraction: 0.06,
            op_ratio: 0.05,
        })
    }

    #[test]
    fn put_get_through_log() {
        let mut kg = small();
        kg.put(1, 250, Nanos::ZERO);
        let out = kg.get(1, Nanos::ZERO);
        assert!(out.hit);
        assert_eq!(out.flash_reads, 0, "buffered in log");
    }

    #[test]
    fn objects_survive_migration_to_sets() {
        let mut kg = small();
        // Insert enough to cycle the log several times.
        let reqs: Vec<_> = SyntheticInsertTrace::paper_synthetic(8)
            .take(30_000)
            .collect();
        for r in &reqs {
            kg.put(r.key, r.size, Nanos::ZERO);
        }
        // Some recently inserted objects must be findable (log or set).
        let hits = reqs
            .iter()
            .rev()
            .take(500)
            .filter(|r| kg.get(r.key, Nanos::ZERO).hit)
            .count();
        assert!(hits > 400, "recent objects should hit: {hits}/500");
        assert!(kg.migration_cdf().count() > 0, "migration must have run");
    }

    #[test]
    fn wa_is_high_like_the_paper_says() {
        let mut kg = small();
        for r in SyntheticInsertTrace::paper_synthetic(9).take(60_000) {
            kg.put(r.key, r.size, Nanos::ZERO);
        }
        let wa = kg.stats().alwa();
        // §5.2: KG exceeds 15x once GC compounds. At this small scale we
        // only require clearly hierarchical-level amplification.
        assert!(wa > 5.0, "kangaroo WA {wa} suspiciously low");
        assert!(kg.gc_relocations() > 0, "independent GC must have run");
    }

    #[test]
    fn migration_batches_are_small() {
        let mut kg = small();
        for r in SyntheticInsertTrace::paper_synthetic(10).take(40_000) {
            kg.put(r.key, r.size, Nanos::ZERO);
        }
        let mean = kg.migration_cdf().mean();
        // Large hash range => few new objects per set write (Observation 1).
        assert!(mean < 8.0, "expected a low per-set batch size, got {mean}");
    }

    #[test]
    fn memory_stays_near_ten_bits() {
        let mut kg = small();
        for r in SyntheticInsertTrace::paper_synthetic(11).take(40_000) {
            kg.put(r.key, r.size, Nanos::ZERO);
        }
        let bits = kg.memory().bits_per_object();
        assert!(bits < 30.0, "hierarchical memory should be small: {bits}");
    }
}
