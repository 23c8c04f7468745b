//! The log-structured baseline ("Log" in Fig. 12a).

use nemo_engine::codec::{PageBuf, MIN_OBJECT_SIZE};
use nemo_engine::{device, CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::{
    FlashError, Geometry, LatencyModel, Nanos, PageAddr, SimFlash, ZoneId, ZonedFlash,
};
use std::collections::HashMap;

/// Configuration of [`LogCache`].
#[derive(Debug, Clone)]
pub struct LogCacheConfig {
    /// Device geometry (the whole device is the log).
    pub geometry: Geometry,
    /// Device latency model.
    pub latency: LatencyModel,
}

impl LogCacheConfig {
    /// A small default for tests: 4 KB pages, 4 MB zones, 64 MB device.
    pub fn small() -> Self {
        Self {
            geometry: Geometry::new(4096, 1024, 16, 8),
            latency: LatencyModel::default(),
        }
    }

    /// A shard factory for `nemo-service`: builds one independent engine
    /// per shard from this configuration (shard index ignored).
    pub fn factory(self) -> impl Fn(usize) -> LogCache + Send + Sync + Clone {
        move |_shard| LogCache::new(self.clone())
    }

    /// A shard factory over a caller-chosen device backend; see
    /// `NemoConfig::factory_on` for the calling convention.
    pub fn factory_on<D, G>(self, mut make_dev: G) -> impl FnMut(usize) -> LogCache<D> + Send
    where
        D: ZonedFlash,
        G: FnMut(usize, Geometry, LatencyModel) -> D + Send,
    {
        move |shard| {
            let dev = make_dev(shard, self.geometry, self.latency);
            LogCache::with_device(self.clone(), dev)
        }
    }
}

/// Per-object index entry. The paper prices this class of design at
/// ~15 B/object (flash offset + tag + chain pointer, §2.3); we model the
/// same cost in [`CacheEngine::memory`].
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    addr: PageAddr,
    /// Object size; retained so `stats().objects_on_flash` can be
    /// extended to byte-granular reporting.
    #[allow(dead_code)]
    size: u32,
}

/// Log-structured flash cache: an append-only ring of zones with an exact
/// in-memory index and FIFO zone eviction.
///
/// # Examples
///
/// ```
/// use nemo_baselines::{LogCache, LogCacheConfig};
/// use nemo_engine::CacheEngine;
/// use nemo_flash::Nanos;
///
/// let mut cache = LogCache::new(LogCacheConfig::small());
/// cache.put(1, 200, Nanos::ZERO);
/// assert!(cache.get(1, Nanos::ZERO).hit);
/// assert!(cache.stats().alwa() < 1.2);
/// ```
#[derive(Debug)]
pub struct LogCache<D: ZonedFlash = SimFlash> {
    dev: D,
    index: HashMap<u64, IndexEntry>,
    /// Keys in the page currently being built (flushed together).
    pending: Vec<(u64, u32)>,
    page: PageBuf,
    /// Keys ever written to each zone (for O(zone) eviction).
    zone_keys: Vec<Vec<u64>>,
    /// Zone currently being appended to.
    open_zone: u32,
    /// Zones withdrawn from the ring after a permanent device error.
    quarantined: Vec<bool>,
    stats: EngineStats,
    /// Reused one-page read buffer: indexed lookups stay allocation-free.
    read_buf: Vec<u8>,
}

impl LogCache {
    /// Creates the cache and its simulated device.
    pub fn new(cfg: LogCacheConfig) -> Self {
        let dev = SimFlash::with_latency(cfg.geometry, cfg.latency);
        Self::with_device(cfg, dev)
    }
}

impl<D: ZonedFlash> LogCache<D> {
    /// Creates the cache over an existing device.
    ///
    /// # Panics
    ///
    /// Panics if the device's geometry differs from the configuration's.
    pub fn with_device(cfg: LogCacheConfig, dev: D) -> Self {
        assert_eq!(
            dev.geometry(),
            cfg.geometry,
            "device geometry must match the configuration"
        );
        let zone_keys = (0..cfg.geometry.zone_count()).map(|_| Vec::new()).collect();
        Self {
            dev,
            index: HashMap::new(),
            pending: Vec::new(),
            page: PageBuf::new(cfg.geometry.page_size() as usize),
            zone_keys,
            open_zone: 0,
            quarantined: vec![false; cfg.geometry.zone_count() as usize],
            stats: EngineStats::default(),
            read_buf: vec![0u8; cfg.geometry.page_size() as usize],
        }
    }

    /// Flushes the in-progress page to the log, evicting the next zone if
    /// the ring has wrapped. Zones that fail permanently (reset or
    /// append) are quarantined and the ring moves on.
    fn flush_page(&mut self, now: Nanos) -> Result<Nanos, EngineError> {
        if self.page.is_empty() {
            return Ok(now);
        }
        let geom = self.dev.geometry();
        let page = std::mem::replace(&mut self.page, PageBuf::new(geom.page_size() as usize));
        let bytes = page.finish();
        // A zone may fail as we go; every zone gets at most one chance
        // per flush before the log declares the device unusable.
        for _ in 0..=geom.zone_count() {
            // Advance to a writable zone, evicting if the ring wrapped.
            if self.quarantined[self.open_zone as usize]
                || self.dev.write_pointer(ZoneId(self.open_zone)) >= geom.pages_per_zone()
            {
                let Some(next) = self.next_usable_zone(now) else {
                    return Err(EngineError::device(
                        "appending to the log",
                        FlashError::io_permanent("no usable log zones remain"),
                    ));
                };
                self.open_zone = next;
            }
            let zone = self.open_zone;
            match device::append(&mut self.dev, &mut self.stats, ZoneId(zone), &bytes, now) {
                Ok((addr, done)) => {
                    for &(key, size) in &self.pending {
                        self.index.insert(key, IndexEntry { addr, size });
                        self.zone_keys[addr.zone as usize].push(key);
                    }
                    self.pending.clear();
                    return Ok(done);
                }
                Err(_) => self.quarantine(zone),
            }
        }
        Err(EngineError::device(
            "appending to the log",
            FlashError::io_permanent("every log zone failed an append"),
        ))
    }

    /// Advances the ring to the next non-quarantined zone, evicting a
    /// wrapped zone's objects on the way. Returns `None` when every zone
    /// is quarantined.
    fn next_usable_zone(&mut self, now: Nanos) -> Option<u32> {
        let geom = self.dev.geometry();
        let mut zone = self.open_zone;
        for _ in 0..geom.zone_count() {
            zone = (zone + 1) % geom.zone_count();
            if self.quarantined[zone as usize] {
                continue;
            }
            if self.dev.zone_state(ZoneId(zone)) != nemo_flash::ZoneState::Empty
                && !self.evict_zone(zone, now)
            {
                continue; // reset failed permanently; zone quarantined
            }
            return Some(zone);
        }
        None
    }

    /// Drops all live objects whose current copy is in `zone`, then resets
    /// it (FIFO eviction). Returns whether the zone is writable again; a
    /// permanently failing reset quarantines it instead.
    fn evict_zone(&mut self, zone: u32, now: Nanos) -> bool {
        let keys = std::mem::take(&mut self.zone_keys[zone as usize]);
        for key in keys {
            if let Some(entry) = self.index.get(&key) {
                if entry.addr.zone == zone {
                    self.index.remove(&key);
                    self.stats.evicted_objects += 1;
                }
            }
        }
        match device::reset(&mut self.dev, &mut self.stats, ZoneId(zone), now) {
            Ok(_) => true,
            Err(_) => {
                self.quarantine(zone);
                false
            }
        }
    }

    /// Takes a zone out of the ring after a permanent device error,
    /// dropping any objects still indexed there.
    fn quarantine(&mut self, zone: u32) {
        if !self.quarantined[zone as usize] {
            self.quarantined[zone as usize] = true;
            self.stats.quarantined_zones += 1;
        }
        let keys = std::mem::take(&mut self.zone_keys[zone as usize]);
        for key in keys {
            if let Some(entry) = self.index.get(&key) {
                if entry.addr.zone == zone {
                    self.index.remove(&key);
                    self.stats.evicted_objects += 1;
                }
            }
        }
    }

    /// Test/experiment hook: direct read access to device statistics.
    pub fn device(&self) -> &D {
        &self.dev
    }
}

impl<D: ZonedFlash + Send> CacheEngine for LogCache<D> {
    fn name(&self) -> &'static str {
        "log"
    }

    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        self.stats.gets += 1;
        // Objects still in the write buffer are served from memory.
        if self.pending.iter().any(|&(k, _)| k == key) {
            self.stats.hits += 1;
            return Ok(GetOutcome::memory_hit(now));
        }
        let Some(&entry) = self.index.get(&key) else {
            return Ok(GetOutcome::memory_miss(now));
        };
        let buf = &mut self.read_buf;
        let done = match device::read(&mut self.dev, &mut self.stats, entry.addr, buf, now) {
            Ok(done) => done,
            Err(e) => {
                // Degrade the lookup to a miss. Only a permanent failure
                // condemns the zone (dropping its objects); an exhausted
                // transient burst keeps the capacity for when it passes.
                if !e.is_transient() {
                    self.quarantine(entry.addr.zone);
                }
                self.stats.fault_induced_misses += 1;
                return Ok(GetOutcome::memory_miss(now));
            }
        };
        self.stats.candidate_reads += 1;
        debug_assert!(
            nemo_engine::codec::find_payload(&self.read_buf, key).is_some(),
            "exact index pointed at a page without the object"
        );
        self.stats.hits += 1;
        Ok(GetOutcome {
            hit: true,
            done_at: done,
            flash_reads: 1,
            set_reads: 1,
        })
    }

    fn try_put(&mut self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        let size = size.max(MIN_OBJECT_SIZE);
        self.stats.puts += 1;
        self.stats.logical_bytes += size as u64;
        let mut done = now;
        if !self.page.try_push(key, size) {
            done = self.flush_page(now)?;
            assert!(
                self.page.try_push(key, size),
                "object of {size} B must fit in an empty page"
            );
        }
        self.pending.push((key, size));
        Ok(done)
    }

    fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.nand_bytes_written = s.flash_bytes_written; // zoned: DLWA = 1
        s.objects_on_flash = self.index.len() as u64;
        s.device = self.dev.stats();
        s
    }

    fn memory(&self) -> MemoryBreakdown {
        let objects = self.index.len() as u64;
        let mut m = MemoryBreakdown::new(objects);
        // Paper's costing (§2.3): offset ~29 b + tag ~29 b + next pointer
        // 64 b ≈ 15.25 B/entry. We charge 16 B/entry.
        m.push("exact object index (16 B/entry)", objects * 16);
        m
    }

    fn drain(&mut self, now: Nanos) {
        if let Err(e) = self.flush_page(now) {
            panic!("engine failed fatally on drain: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_trace::SyntheticInsertTrace;

    fn engine() -> LogCache {
        let cfg = LogCacheConfig {
            geometry: Geometry::new(4096, 16, 8, 4),
            latency: LatencyModel::zero(),
        };
        LogCache::new(cfg)
    }

    #[test]
    fn put_then_get_hits_from_buffer() {
        let mut c = engine();
        c.put(7, 100, Nanos::ZERO);
        let out = c.get(7, Nanos::ZERO);
        assert!(out.hit);
        assert_eq!(out.flash_reads, 0, "buffered object needs no flash read");
    }

    #[test]
    fn get_after_flush_reads_flash() {
        let mut c = engine();
        c.put(7, 100, Nanos::ZERO);
        c.drain(Nanos::ZERO);
        let out = c.get(7, Nanos::ZERO);
        assert!(out.hit);
        assert_eq!(out.flash_reads, 1);
    }

    #[test]
    fn missing_key_misses_without_io() {
        let mut c = engine();
        let out = c.get(99, Nanos::ZERO);
        assert!(!out.hit);
        assert_eq!(out.flash_reads, 0);
        assert_eq!(c.stats().flash_bytes_read, 0);
    }

    #[test]
    fn wa_is_near_one_for_tiny_objects() {
        let mut c = engine();
        let trace = SyntheticInsertTrace::paper_synthetic(5);
        for r in trace.take(20_000) {
            c.put(r.key, r.size, Nanos::ZERO);
        }
        c.drain(Nanos::ZERO);
        let wa = c.stats().alwa();
        assert!(
            (1.0..1.15).contains(&wa),
            "log WA should be ~1.03-1.08, got {wa}"
        );
    }

    #[test]
    fn fifo_eviction_drops_oldest() {
        let mut c = engine();
        // Device: 8 zones x 16 pages; fill far beyond capacity.
        let trace = SyntheticInsertTrace::paper_synthetic(6);
        let reqs: Vec<_> = trace.take(10_000).collect();
        for r in &reqs {
            c.put(r.key, r.size, Nanos::ZERO);
        }
        c.drain(Nanos::ZERO);
        let s = c.stats();
        assert!(s.evicted_objects > 0, "ring must have wrapped");
        // The most recent objects must still be present.
        let mut c2 = c;
        for r in reqs.iter().rev().take(100) {
            assert!(c2.get(r.key, Nanos::ZERO).hit, "recent object evicted");
        }
        // The oldest objects must be gone.
        assert!(
            !c2.get(reqs[0].key, Nanos::ZERO).hit,
            "oldest object should have been evicted"
        );
    }

    #[test]
    fn update_moves_object_to_new_location() {
        let mut c = engine();
        c.put(1, 100, Nanos::ZERO);
        c.drain(Nanos::ZERO);
        c.put(1, 120, Nanos::ZERO);
        c.drain(Nanos::ZERO);
        let out = c.get(1, Nanos::ZERO);
        assert!(out.hit);
        assert_eq!(c.stats().objects_on_flash, 1, "one live version");
    }

    #[test]
    fn memory_cost_matches_log_model() {
        let mut c = engine();
        for k in 0..100u64 {
            c.put(k, 100, Nanos::ZERO);
        }
        c.drain(Nanos::ZERO);
        let m = c.memory();
        // 16 B/obj = 128 bits/obj: the paper's ">100 bits" complaint.
        assert!(m.bits_per_object() > 100.0);
    }

    #[test]
    fn stats_name_and_counts() {
        let mut c = engine();
        assert_eq!(c.name(), "log");
        c.put(1, 50, Nanos::ZERO);
        c.get(1, Nanos::ZERO);
        c.get(2, Nanos::ZERO);
        let s = c.stats();
        assert_eq!((s.puts, s.gets, s.hits), (1, 2, 1));
        assert!((s.miss_ratio() - 0.5).abs() < 1e-9);
    }
}
