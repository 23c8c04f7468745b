//! FairyWREN (McAllister et al., OSDI '24) — the paper's SOTA baseline
//! (§3): a hierarchical cache whose garbage collection is folded into
//! log-to-set migration.
//!
//! Behaviourally faithful to the paper's §3 model:
//!
//! * **Hot/cold set division.** Only half the usable sets are fed by the
//!   log, so the log's hash range is `½·N'_set` (Eq. 5). The other half
//!   ("hot" sets) absorb recently-accessed objects displaced from cold
//!   sets, keeping them cached instead of dropping them.
//! * **Passive migration (Case 2).** When the log ring wraps, every set
//!   with objects in the oldest log zone is read, merged with its *entire*
//!   pending chain and appended at the set-region frontier.
//! * **Active migration (Case 3.2).** When set zones run out, the victim
//!   zone's valid sets are rewritten *merged with their pending log
//!   objects* — GC and migration become one write (the paper's dark-blue
//!   arrow in Fig. 3).
//!
//! Instrumented for the motivation study: per-set-write new-object CDFs
//! split passive/active (Figs. 4, 5) and the passive fraction `p`
//! (Fig. 6).

use crate::hlog::HierLog;
use crate::hset::{HsetRegion, SetWriteKind};
use crate::SET_SALT;
use nemo_bloom::BloomFilter;
use nemo_engine::codec::{self, PageBuf, MIN_OBJECT_SIZE};
use nemo_engine::{device, CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::{Geometry, LatencyModel, Nanos, SimFlash, ZonedFlash};
use nemo_metrics::DiscreteCdf;
use nemo_util::hash_u64;
use std::collections::HashMap;

/// Configuration of [`FairyWren`].
#[derive(Debug, Clone)]
pub struct FairyWrenConfig {
    /// Device geometry.
    pub geometry: Geometry,
    /// Device latency model.
    pub latency: LatencyModel,
    /// Fraction of flash devoted to the log tier (Table 4: 5 %).
    pub log_fraction: f64,
    /// Over-provisioning ratio of the set tier (Table 4: 5 %).
    pub op_ratio: f64,
}

impl FairyWrenConfig {
    /// A small default for tests: 64 MB device, 1 MB zones.
    pub fn small() -> Self {
        Self {
            geometry: Geometry::new(4096, 256, 64, 8),
            latency: LatencyModel::default(),
            log_fraction: 0.05,
            op_ratio: 0.05,
        }
    }

    /// Paper shorthand ("Log5-OP5", "Log20-OP5", "Log5-OP50", ...):
    /// log percentage and OP percentage on the given geometry.
    pub fn log_op(geometry: Geometry, log_pct: u32, op_pct: u32) -> Self {
        Self {
            geometry,
            latency: LatencyModel::default(),
            log_fraction: log_pct as f64 / 100.0,
            op_ratio: op_pct as f64 / 100.0,
        }
    }

    /// A shard factory for `nemo-service`: builds one independent engine
    /// per shard from this configuration (shard index ignored).
    pub fn factory(self) -> impl Fn(usize) -> FairyWren + Send + Sync + Clone {
        move |_shard| FairyWren::new(self.clone())
    }

    /// A shard factory over a caller-chosen device backend; see
    /// `NemoConfig::factory_on` for the calling convention.
    pub fn factory_on<D, G>(self, mut make_dev: G) -> impl FnMut(usize) -> FairyWren<D> + Send
    where
        D: ZonedFlash,
        G: FnMut(usize, Geometry, LatencyModel) -> D + Send,
    {
        move |shard| {
            let dev = make_dev(shard, self.geometry, self.latency);
            FairyWren::with_device(self.clone(), dev)
        }
    }
}

/// The FairyWREN cache engine.
///
/// # Examples
///
/// ```
/// use nemo_baselines::{FairyWren, FairyWrenConfig};
/// use nemo_engine::CacheEngine;
/// use nemo_flash::Nanos;
///
/// let mut fw = FairyWren::new(FairyWrenConfig::small());
/// fw.put(1, 250, Nanos::ZERO);
/// assert!(fw.get(1, Nanos::ZERO).hit);
/// ```
#[derive(Debug)]
pub struct FairyWren<D: ZonedFlash = SimFlash> {
    dev: D,
    log: HierLog,
    hset: HsetRegion,
    /// Cold sets are `0..n_cold`; the hot partner of cold set `c` is
    /// `n_cold + c`.
    n_cold: u64,
    filters: Vec<BloomFilter>,
    bloom_geom: (u64, u32),
    /// Hot-object displacements staged per hot set, flushed when a page's
    /// worth accumulates (keeps hot-set writes rare, as in FairyWREN).
    hot_staging: HashMap<u64, Vec<(u64, u32)>>,
    hot_staged_bytes: HashMap<u64, usize>,
    /// 1-bit recency per key-hash slot (the paper budgets ~3 b/obj of set
    /// metadata for FW; a shared bitmap is the cheapest faithful stand-in).
    hot_bits: Vec<u64>,
    stats: EngineStats,
    objects_in_sets: u64,
    passive_cdf: DiscreteCdf,
    active_cdf: DiscreteCdf,
    passive_rmws: u64,
    active_rmws: u64,
    writes_since_cooling: u64,
    cooling_period_bytes: u64,
    /// Re-entrancy guard: GC must not nest (hot-set staging flushes are
    /// deferred until the pass completes).
    in_gc: bool,
    /// Reused one-page read buffer: set probes, log reads and RMW scans
    /// stay allocation-free.
    read_buf: Vec<u8>,
}

impl FairyWren {
    /// Creates the engine and its simulated device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot hold both tiers.
    pub fn new(cfg: FairyWrenConfig) -> Self {
        let dev = SimFlash::with_latency(cfg.geometry, cfg.latency);
        Self::with_device(cfg, dev)
    }
}

impl<D: ZonedFlash> FairyWren<D> {
    /// Creates the engine over an existing device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot hold both tiers or the device's
    /// geometry differs from the configuration's.
    pub fn with_device(cfg: FairyWrenConfig, dev: D) -> Self {
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
        let n_usable = ((set_pages as f64) * (1.0 - cfg.op_ratio)).floor() as u64;
        // Hot/cold division: log feeds only the cold half (Eq. 5).
        let n_cold = (n_usable / 2).max(1);
        let n_sets = n_cold * 2;
        let hset = HsetRegion::new(set_ids, n_sets);
        let objs_per_set = (cfg.geometry.page_size() as f64 / 250.0).ceil() as u64;
        let m_bits = (3 * objs_per_set).max(64);
        let filters = (0..n_sets)
            .map(|_| BloomFilter::with_geometry(m_bits, 2))
            .collect();
        // One hotness bit per expected resident object.
        let capacity_objects = (set_pages * cfg.geometry.page_size() as u64) / 250;
        let hot_bits = vec![0u64; (capacity_objects as usize).div_ceil(64).max(1)];
        let cooling_period_bytes = (cfg.geometry.total_bytes() as f64 * 0.10) as u64;
        Self {
            log: HierLog::new(log_ids, cfg.geometry.page_size() as usize),
            dev,
            hset,
            n_cold,
            filters,
            bloom_geom: (m_bits, 2),
            hot_staging: HashMap::new(),
            hot_staged_bytes: HashMap::new(),
            hot_bits,
            stats: EngineStats::default(),
            objects_in_sets: 0,
            passive_cdf: DiscreteCdf::new(10),
            active_cdf: DiscreteCdf::new(10),
            passive_rmws: 0,
            active_rmws: 0,
            writes_since_cooling: 0,
            cooling_period_bytes,
            in_gc: false,
            read_buf: vec![0u8; cfg.geometry.page_size() as usize],
        }
    }

    fn cold_set_of(&self, key: u64) -> u64 {
        hash_u64(key, SET_SALT) % self.n_cold
    }

    fn hot_partner(&self, cold_set: u64) -> u64 {
        self.n_cold + cold_set
    }

    // --- hotness bitmap -------------------------------------------------

    fn hot_slot(&self, key: u64) -> (usize, u64) {
        let bit = hash_u64(key, 0x40B1_7E55) % (self.hot_bits.len() as u64 * 64);
        ((bit / 64) as usize, 1u64 << (bit % 64))
    }

    fn mark_hot(&mut self, key: u64) {
        let (w, m) = self.hot_slot(key);
        self.hot_bits[w] |= m;
    }

    fn is_hot(&self, key: u64) -> bool {
        let (w, m) = self.hot_slot(key);
        self.hot_bits[w] & m != 0
    }

    fn maybe_cool(&mut self, just_written: u64) {
        self.writes_since_cooling += just_written;
        if self.writes_since_cooling >= self.cooling_period_bytes {
            self.hot_bits.fill(0);
            self.writes_since_cooling = 0;
        }
    }

    // --- instrumentation ------------------------------------------------

    /// CDF of newly written objects per *passive* set write (Fig. 4).
    pub fn passive_cdf(&self) -> &DiscreteCdf {
        &self.passive_cdf
    }

    /// CDF of newly written objects per *active* set write (Fig. 5).
    pub fn active_cdf(&self) -> &DiscreteCdf {
        &self.active_cdf
    }

    /// Resets both CDFs (to separate "early" from "steady", Fig. 4).
    pub fn reset_migration_cdfs(&mut self) {
        self.passive_cdf = DiscreteCdf::new(10);
        self.active_cdf = DiscreteCdf::new(10);
    }

    /// Fraction of RMWs that were passive — the paper's `p` (Fig. 6).
    pub fn passive_fraction(&self) -> f64 {
        let total = self.passive_rmws + self.active_rmws;
        if total == 0 {
            1.0
        } else {
            self.passive_rmws as f64 / total as f64
        }
    }

    /// (passive, active) RMW counts.
    pub fn rmw_counts(&self) -> (u64, u64) {
        (self.passive_rmws, self.active_rmws)
    }

    /// Mean live log chain length, `E(L_i)` in §3.2.
    pub fn mean_chain_len(&self) -> f64 {
        self.log.mean_chain_len()
    }

    /// Number of cold (log-fed) sets — the log's hash range.
    pub fn cold_set_count(&self) -> u64 {
        self.n_cold
    }

    // --- core mechanics ---------------------------------------------------

    /// Rewrites `set` merged with `incoming` objects; displaced hot objects
    /// from cold sets move to the hot partner's staging.
    fn rmw_set(
        &mut self,
        set: u64,
        incoming: &[(u64, u32)],
        kind: SetWriteKind,
        now: Nanos,
    ) -> Result<(), EngineError> {
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
        entries.retain(|&(k, _)| !incoming.iter().any(|&(nk, _)| nk == k));
        entries.extend_from_slice(incoming);
        let mut used: usize =
            codec::PAGE_HEADER + entries.iter().map(|&(_, s)| s as usize).sum::<usize>();
        let mut displaced = Vec::new();
        while used > page_size {
            let (k, s) = entries.remove(0);
            used -= s as usize;
            displaced.push((k, s));
        }
        let is_cold_set = set < self.n_cold;
        for (k, s) in displaced {
            if is_cold_set && self.is_hot(k) {
                // Keep hot objects: stage them for the hot partner set.
                let hot = self.hot_partner(set);
                self.hot_staging.entry(hot).or_default().push((k, s));
                *self.hot_staged_bytes.entry(hot).or_insert(0) += s as usize;
            } else {
                self.stats.evicted_objects += 1;
            }
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
        self.maybe_cool(bytes.len() as u64);
        self.objects_in_sets = self.objects_in_sets + entries.len() as u64 - old_count;
        match kind {
            SetWriteKind::Passive => {
                self.passive_rmws += 1;
                self.passive_cdf.record(incoming.len() as u64);
            }
            SetWriteKind::Active => {
                self.active_rmws += 1;
                self.active_cdf.record(incoming.len() as u64);
            }
            SetWriteKind::Relocation => {}
        }
        let (m, k) = self.bloom_geom;
        let mut bf = BloomFilter::with_geometry(m, k);
        for &(key, _) in &entries {
            bf.insert(key);
        }
        self.filters[set as usize] = bf;
        Ok(())
    }

    /// Rewrites hot sets whose staging buffer reached page capacity.
    /// Must not run inside a GC pass (it allocates frontier space).
    fn flush_ready_hot_sets(&mut self, now: Nanos) -> Result<(), EngineError> {
        debug_assert!(!self.in_gc, "hot-set flush inside GC");
        let page_size = self.dev.geometry().page_size() as usize;
        let mut ready: Vec<u64> = self
            .hot_staged_bytes
            .iter()
            .filter(|&(_, &b)| b >= page_size / 2)
            .map(|(&s, _)| s)
            .collect();
        // Rewritten in set order, not the map's per-process order.
        ready.sort_unstable();
        for hot in ready {
            let staged = self.hot_staging.remove(&hot).unwrap_or_default();
            self.hot_staged_bytes.remove(&hot);
            if staged.is_empty() {
                continue;
            }
            self.gc_if_needed(now)?;
            self.rmw_set(hot, &staged, SetWriteKind::Relocation, now)?;
        }
        Ok(())
    }

    /// Folded GC (Case 3.2): rewrite each valid set in the victim zone
    /// merged with its pending log chain. Re-entrant calls are no-ops.
    fn gc_if_needed(&mut self, now: Nanos) -> Result<(), EngineError> {
        if self.in_gc {
            return Ok(());
        }
        self.in_gc = true;
        let result = self.gc_pass(now);
        self.in_gc = false;
        result
        // Hot-set staging accumulated during the pass is flushed by the
        // next `put` (the only non-re-entrant call site).
    }

    fn gc_pass(&mut self, now: Nanos) -> Result<(), EngineError> {
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
            for set in self.hset.sets_in_zone(&self.dev, victim) {
                let incoming: Vec<(u64, u32)> = if set < self.n_cold {
                    self.log
                        .drain_set(set)
                        .iter()
                        .map(|o| (o.key, o.size))
                        .collect()
                } else {
                    // Hot sets merge their staging on relocation.
                    let staged = self.hot_staging.remove(&set).unwrap_or_default();
                    self.hot_staged_bytes.remove(&set);
                    staged
                };
                self.rmw_set(set, &incoming, SetWriteKind::Active, now)?;
            }
            self.hset
                .release_zone(&mut self.dev, &mut self.stats, victim, now);
        }
        Ok(())
    }

    /// Passive migration (Case 2): reclaim the oldest log zone.
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
            self.gc_if_needed(now)?;
            self.rmw_set(set, &objs, SetWriteKind::Passive, now)?;
        }
        self.log
            .release_zone(&mut self.dev, &mut self.stats, victim, now)
            .map_err(|e| EngineError::device("resetting a log zone", e))?;
        Ok(())
    }

    /// Probes one set page; read failures flag `faulted` and report
    /// "not found" so the caller can fall through, and a *permanently*
    /// unreadable zone is retired (transient bursts keep the capacity).
    fn probe_set(
        &mut self,
        set: u64,
        key: u64,
        now: Nanos,
        faulted: &mut bool,
    ) -> Option<GetOutcome> {
        if !self.filters[set as usize].contains(key) {
            return None;
        }
        let addr = self.hset.location(set)?;
        let buf = &mut self.read_buf;
        let done = match device::read(&mut self.dev, &mut self.stats, addr, buf, now) {
            Ok(done) => done,
            Err(e) => {
                if !e.is_transient() {
                    self.hset.retire_zone(&self.dev, &mut self.stats, addr.zone);
                }
                *faulted = true;
                return None;
            }
        };
        self.stats.candidate_reads += 1;
        if codec::find_payload(&self.read_buf, key).is_some() {
            Some(GetOutcome {
                hit: true,
                done_at: done,
                flash_reads: 1,
                set_reads: 1,
            })
        } else {
            Some(GetOutcome {
                hit: false,
                done_at: done,
                flash_reads: 1,
                set_reads: 1,
            })
        }
    }
}

impl<D: ZonedFlash + Send> CacheEngine for FairyWren<D> {
    fn name(&self) -> &'static str {
        "fairywren"
    }

    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        self.stats.gets += 1;
        let cold = self.cold_set_of(key);
        // 1. Log tier.
        if let Some(obj) = self.log.lookup(cold, key) {
            return match obj.addr {
                None => {
                    self.stats.hits += 1;
                    self.mark_hot(key);
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
                    self.mark_hot(key);
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
        // 2. Hot staging (memory).
        let hot = self.hot_partner(cold);
        if self
            .hot_staging
            .get(&hot)
            .is_some_and(|v| v.iter().any(|&(k, _)| k == key))
        {
            self.stats.hits += 1;
            self.mark_hot(key);
            return Ok(GetOutcome::memory_hit(now));
        }
        // 3. Cold set, then hot partner set.
        let mut reads = 0;
        let mut latest = now;
        let mut faulted = false;
        for set in [cold, hot] {
            if let Some(out) = self.probe_set(set, key, now, &mut faulted) {
                reads += out.flash_reads;
                latest = latest.max(out.done_at);
                if out.hit {
                    self.stats.hits += 1;
                    self.mark_hot(key);
                    return Ok(GetOutcome {
                        hit: true,
                        done_at: latest,
                        flash_reads: reads,
                        set_reads: reads,
                    });
                }
            }
        }
        if faulted {
            self.stats.fault_induced_misses += 1;
        }
        Ok(GetOutcome {
            hit: false,
            done_at: latest,
            flash_reads: reads,
            set_reads: reads,
        })
    }

    fn try_put(&mut self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        let size = size.max(MIN_OBJECT_SIZE);
        self.stats.puts += 1;
        self.stats.logical_bytes += size as u64;
        let cold = self.cold_set_of(key);
        while self.log.must_reclaim_before(&self.dev, size) {
            self.migrate_log_zone(now)?;
        }
        let ins = self
            .log
            .insert(&mut self.dev, &mut self.stats, cold, key, size, now)
            .map_err(|e| EngineError::device("appending to the hierarchical log", e))?;
        self.maybe_cool(ins.flushed_bytes);
        self.flush_ready_hot_sets(now)?;
        Ok(ins.done_at)
    }

    fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.nand_bytes_written = s.flash_bytes_written;
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
        m.push("hotness bitmap", self.hot_bits.len() as u64 * 8);
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
    use nemo_trace::{TraceConfig, TraceGenerator};

    fn small() -> FairyWren {
        FairyWren::new(FairyWrenConfig {
            geometry: Geometry::new(4096, 64, 32, 4),
            latency: LatencyModel::zero(),
            log_fraction: 0.06,
            op_ratio: 0.05,
        })
    }

    fn churn(fw: &mut FairyWren, ops: usize) {
        let mut gen = TraceGenerator::new(TraceConfig::twitter_merged(0.0004));
        for _ in 0..ops {
            let r = gen.next_request();
            if !fw.get(r.key, Nanos::ZERO).hit {
                fw.put(r.key, r.size, Nanos::ZERO);
            }
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let mut fw = small();
        fw.put(1, 250, Nanos::ZERO);
        assert!(fw.get(1, Nanos::ZERO).hit);
    }

    #[test]
    fn passive_migration_preserves_objects() {
        let mut fw = small();
        let reqs: Vec<_> = nemo_trace::SyntheticInsertTrace::paper_synthetic(3)
            .take(20_000)
            .collect();
        for r in &reqs {
            fw.put(r.key, r.size, Nanos::ZERO);
        }
        assert!(fw.passive_rmws > 0, "log must have wrapped");
        let hits = reqs
            .iter()
            .rev()
            .take(500)
            .filter(|r| fw.get(r.key, Nanos::ZERO).hit)
            .count();
        assert!(hits > 400, "recent objects should survive: {hits}/500");
    }

    #[test]
    fn active_migration_engages_after_fill() {
        let mut fw = small();
        churn(&mut fw, 120_000);
        let (p, a) = fw.rmw_counts();
        assert!(p > 0, "passive migrations expected");
        assert!(a > 0, "active (GC-folded) migrations expected");
        let frac = fw.passive_fraction();
        assert!(
            (0.05..0.95).contains(&frac),
            "p should be strictly between 0 and 1 at 5% OP: {frac}"
        );
    }

    #[test]
    fn wa_is_hierarchical_scale() {
        let mut fw = small();
        churn(&mut fw, 120_000);
        let wa = fw.stats().alwa();
        assert!(
            wa > 3.0,
            "FW WA should be clearly above log-structured: {wa}"
        );
        assert!(
            wa < 60.0,
            "FW WA should stay below Kangaroo-like blowup: {wa}"
        );
    }

    #[test]
    fn passive_batches_are_small_like_observation_1() {
        let mut fw = small();
        churn(&mut fw, 80_000);
        let mean = fw.passive_cdf().mean();
        assert!(
            (0.5..8.0).contains(&mean),
            "expected few objects per passive set write: {mean}"
        );
    }

    #[test]
    fn hot_objects_survive_displacement_more_than_cold() {
        let mut fw = small();
        // A small popular working set that we keep touching.
        let hot_keys: Vec<u64> = (0..200u64).map(|k| k.wrapping_mul(0x9E37)).collect();
        let mut gen = TraceGenerator::new(TraceConfig::twitter_merged(0.0004));
        for i in 0..150_000usize {
            let r = gen.next_request();
            if !fw.get(r.key, Nanos::ZERO).hit {
                fw.put(r.key, r.size, Nanos::ZERO);
            }
            if i % 10 == 0 {
                let hk = hot_keys[(i / 10) % hot_keys.len()];
                if !fw.get(hk, Nanos::ZERO).hit {
                    fw.put(hk, 200, Nanos::ZERO);
                }
            }
        }
        let alive = hot_keys
            .iter()
            .filter(|&&k| fw.get(k, Nanos::ZERO).hit)
            .count();
        assert!(
            alive > hot_keys.len() / 2,
            "popular objects should mostly stay cached: {alive}/200"
        );
    }

    #[test]
    fn memory_near_ten_bits_per_object() {
        let mut fw = small();
        churn(&mut fw, 60_000);
        let bits = fw.memory().bits_per_object();
        assert!(
            (2.0..30.0).contains(&bits),
            "FW metadata should be ~10 b/obj at scale: {bits}"
        );
    }

    #[test]
    fn cold_hash_range_is_half_of_usable_sets() {
        let fw = small();
        assert_eq!(fw.cold_set_count(), fw.hset.n_sets() / 2);
    }
}
