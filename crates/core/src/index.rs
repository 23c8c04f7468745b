//! The PBFG approximate index (paper §4.3, challenge C2).
//!
//! Every flushed SG contributes one Bloom filter per set. Filters sharing
//! an intra-SG set offset form a *set-level PBFG*; the PBFGs of up to 50
//! SGs form an *index group*, laid out on flash so one PBFG is exactly one
//! page (Fig. 10's "packed" layout). The full index lives in an on-flash
//! index pool; an in-memory FIFO cache keeps the configured fraction of
//! PBFG pages resident, and the youngest (still-building) group's filters
//! stay in memory until the group is sealed.

use nemo_bloom::{contains_in_slice, BloomFilter, ProbeSet};
use nemo_flash::{FlashError, Nanos, PageAddr, ZoneId, ZoneState, ZonedFlash};
use std::collections::{HashMap, VecDeque};

pub(crate) use nemo_engine::retry::{backoff, retry_transient};

/// A candidate location returned by a PBFG query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgCandidate {
    /// Flush sequence number (higher = newer).
    pub seq: u64,
    /// Zone holding the SG's data.
    pub zone: u32,
}

/// Outcome of a candidate query, including its I/O cost.
#[derive(Debug, Clone)]
pub struct CandidateQuery {
    /// Candidate SGs, newest first. With the supersede filter enabled,
    /// groups older than one that re-admitted the key contribute
    /// nothing (their copies are stale); the list is further truncated
    /// to the configured candidate cap.
    pub candidates: Vec<SgCandidate>,
    /// PBFG pages fetched from flash to answer the query.
    pub flash_reads: u32,
    /// Bytes read from flash.
    pub bytes_read: u64,
    /// Completion time of the index fetches.
    pub done_at: Nanos,
    /// Candidates dropped by the newest-first cap on this query.
    pub capped: u32,
}

/// Index-cache and pool counters (Fig. 19b, §5.5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// PBFG queries answered from the in-memory cache or the building
    /// group.
    pub cache_hits: u64,
    /// PBFG queries that had to fetch a page from the index pool.
    pub cache_misses: u64,
    /// Pages written to the on-flash index pool.
    pub pool_pages_written: u64,
    /// Queries whose group walk stopped early because a newer group's
    /// supersede filter (plus a same-group PBFG match) marked the key
    /// as rewritten — older groups were never probed.
    pub superseded_cutoffs: u64,
    /// Queries truncated by the newest-first candidate cap.
    pub capped_queries: u64,
}

impl IndexStats {
    /// Fraction of PBFG accesses served from flash (the paper's "PBFG
    /// miss ratio", Fig. 19b).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_misses as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct BufferedSlot {
    seq: u64,
    zone: u32,
    filters: Vec<BloomFilter>,
}

#[derive(Debug)]
struct PersistedGroup {
    id: u64,
    /// First page of the group in the index pool; page `s` of the group
    /// (the PBFG for set offset `s`) lives at `base.page + s`.
    base: PageAddr,
    /// Slot -> live SG, `None` once evicted.
    slots: Vec<Option<SgCandidate>>,
    live: u32,
    /// Supersede filter: every key the group's SGs admitted. `None`
    /// when stale-version filtering is disabled.
    supersede: Option<BloomFilter>,
}

#[derive(Debug, Default)]
struct IndexCache {
    capacity: usize,
    map: HashMap<(u64, u32), Vec<u8>>,
    fifo: VecDeque<(u64, u32)>,
}

impl IndexCache {
    fn contains(&self, group: u64, set: u32) -> bool {
        self.map.contains_key(&(group, set))
    }

    fn get(&self, group: u64, set: u32) -> Option<&Vec<u8>> {
        self.map.get(&(group, set))
    }

    fn insert(&mut self, group: u64, set: u32, page: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert((group, set), page).is_none() {
            self.fifo.push_back((group, set));
        }
        while self.map.len() > self.capacity {
            match self.fifo.pop_front() {
                Some(key) => {
                    self.map.remove(&key);
                }
                None => break,
            }
        }
    }

    fn purge_group(&mut self, group: u64) {
        let keys: Vec<(u64, u32)> = self
            .map
            .keys()
            .filter(|&&(g, _)| g == group)
            .copied()
            .collect();
        for k in keys {
            self.map.remove(&k);
        }
        // Stale fifo entries are skipped lazily during eviction.
    }

    fn resident_bytes(&self) -> u64 {
        self.map.values().map(|p| p.len() as u64).sum()
    }
}

/// The complete PBFG index: building group, persisted groups, on-flash
/// pool and the FIFO PBFG cache.
#[derive(Debug)]
pub struct PbfgIndex {
    filter_bytes: u32,
    hashes: u32,
    sgs_per_group: u32,
    sets_per_sg: u32,
    page_size: u32,
    building: Vec<Option<BufferedSlot>>,
    next_group_id: u64,
    groups: VecDeque<PersistedGroup>,
    sg_group: HashMap<u64, u64>,
    cache: IndexCache,
    pool_zones: Vec<u32>,
    pool_open: usize,
    /// zone -> group ids with pages there (for ring recycling).
    zone_groups: HashMap<u32, Vec<u64>>,
    retired: HashMap<u64, bool>,
    /// `(keys_per_group, fpr)` sizing of the supersede filters; `None`
    /// disables stale-version filtering.
    supersede_sizing: Option<(u64, f64)>,
    /// Supersede filter of the still-building group.
    building_supersede: Option<BloomFilter>,
    /// Newest-first candidate cap per query (0 = unlimited).
    max_candidates: u32,
    /// Transient-retry count since the engine last drained it (not
    /// checkpointed here; the engine folds it into [`EngineStats`]).
    device_retries: u64,
    stats: IndexStats,
}

impl PbfgIndex {
    /// Creates an index over the given pool zones.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or a group does not fit the ring.
    pub fn new(
        pool_zones: Vec<u32>,
        sets_per_sg: u32,
        page_size: u32,
        filter_bytes: u32,
        hashes: u32,
        sgs_per_group: u32,
    ) -> Self {
        assert!(!pool_zones.is_empty(), "index pool needs zones");
        assert!(sets_per_sg > 0 && page_size > 0 && filter_bytes > 0 && hashes > 0);
        assert!(sgs_per_group > 0, "group must cover at least one SG");
        assert!(
            sgs_per_group * filter_bytes <= page_size,
            "a PBFG must fit in one page"
        );
        Self {
            filter_bytes,
            hashes,
            sgs_per_group,
            sets_per_sg,
            page_size,
            building: Vec::new(),
            next_group_id: 0,
            groups: VecDeque::new(),
            sg_group: HashMap::new(),
            cache: IndexCache::default(),
            pool_zones,
            pool_open: 0,
            zone_groups: HashMap::new(),
            retired: HashMap::new(),
            supersede_sizing: None,
            building_supersede: None,
            max_candidates: 0,
            device_retries: 0,
            stats: IndexStats::default(),
        }
    }

    /// Drains the transient-retry count accumulated by index-pool I/O
    /// since the last call (the engine folds it into its own stats).
    pub fn take_device_retries(&mut self) -> u64 {
        std::mem::take(&mut self.device_retries)
    }

    /// Enables stale-version filtering: each group keeps an in-memory
    /// Bloom filter sized for `keys_per_group` admitted keys at `fpr`,
    /// and [`Self::candidates`] stops its newest-first group walk at the
    /// first group that both re-admitted the key (supersede filter) and
    /// produced a PBFG candidate for it — everything older is stale.
    ///
    /// # Panics
    ///
    /// Panics if `keys_per_group` is zero or `fpr` is not in `(0,1)`.
    pub fn enable_supersede(&mut self, keys_per_group: u64, fpr: f64) {
        assert!(keys_per_group > 0, "keys_per_group must be positive");
        assert!(fpr > 0.0 && fpr < 1.0, "supersede fpr must be in (0,1)");
        self.supersede_sizing = Some((keys_per_group, fpr));
    }

    /// Caps the candidates a query may return, newest first
    /// (0 = unlimited).
    pub fn set_max_candidates(&mut self, cap: u32) {
        self.max_candidates = cap;
    }

    /// Index counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Pages of persisted, live index groups.
    pub fn persisted_pages(&self) -> u64 {
        self.groups.len() as u64 * self.sets_per_sg as u64
    }

    /// Sets the PBFG cache capacity in pages.
    pub fn set_cache_capacity(&mut self, pages: usize) {
        self.cache.capacity = pages;
        while self.cache.map.len() > pages {
            match self.cache.fifo.pop_front() {
                Some(key) => {
                    self.cache.map.remove(&key);
                }
                None => break,
            }
        }
    }

    /// Whether the PBFG covering `(seq, set)` is currently in memory —
    /// the recency signal of the hybrid hotness tracker (§4.4).
    pub fn is_recently_active(&self, seq: u64, set: u32) -> bool {
        match self.sg_group.get(&seq) {
            Some(&g) => self.cache.contains(g, set),
            // Still in the building group: filters are in memory.
            None => self.building.iter().flatten().any(|b| b.seq == seq),
        }
    }

    /// Adds a flushed SG's filters; seals and persists the group when it
    /// reaches `sgs_per_group`. `keys` are the SG's admitted keys,
    /// recorded in the group's supersede filter when stale-version
    /// filtering is enabled (pass `&[]` to skip). Returns flash bytes
    /// written (0 until a group seals) and the completion time.
    ///
    /// # Errors
    ///
    /// Returns the device error if persisting a sealed group fails
    /// permanently (transient errors are retried internally). The
    /// building group keeps the new SG either way; only the pool append
    /// is lost, and the index cannot serve without its pool.
    pub fn add_sg<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        seq: u64,
        zone: u32,
        filters: Vec<BloomFilter>,
        keys: &[u64],
        now: Nanos,
    ) -> Result<(u64, Nanos), FlashError> {
        assert_eq!(
            filters.len(),
            self.sets_per_sg as usize,
            "one filter per set"
        );
        if let Some((keys_per_group, fpr)) = self.supersede_sizing {
            let filter = self
                .building_supersede
                .get_or_insert_with(|| BloomFilter::for_items(keys_per_group, fpr));
            for &k in keys {
                filter.insert(k);
            }
        }
        self.building
            .push(Some(BufferedSlot { seq, zone, filters }));
        if self.building.len() as u32 >= self.sgs_per_group {
            self.persist_building(dev, now)
        } else {
            Ok((0, now))
        }
    }

    /// Serializes the building group into packed PBFG pages and appends
    /// them to the index pool.
    fn persist_building<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        now: Nanos,
    ) -> Result<(u64, Nanos), FlashError> {
        let group_id = self.next_group_id;
        self.next_group_id += 1;
        let psz = self.page_size as usize;
        let fb = self.filter_bytes as usize;
        let mut bytes = vec![0u8; self.sets_per_sg as usize * psz];
        let mut slots: Vec<Option<SgCandidate>> = Vec::new();
        let mut live = 0;
        for (slot_idx, slot) in self.building.iter().enumerate() {
            match slot {
                Some(b) => {
                    for set in 0..self.sets_per_sg as usize {
                        let off = set * psz + slot_idx * fb;
                        b.filters[set].write_bytes(&mut bytes[off..off + fb]);
                    }
                    slots.push(Some(SgCandidate {
                        seq: b.seq,
                        zone: b.zone,
                    }));
                    self.sg_group.insert(b.seq, group_id);
                    live += 1;
                }
                None => slots.push(None),
            }
        }
        self.building.clear();
        let zone = self.pool_zone_with_room(dev, now)?;
        let (base, done) = retry_transient(&mut self.device_retries, |attempt| {
            dev.append(ZoneId(zone), &bytes, backoff(now, attempt))
        })?;
        self.stats.pool_pages_written += self.sets_per_sg as u64;
        self.zone_groups.entry(zone).or_default().push(group_id);
        self.retired.insert(group_id, live == 0);
        self.groups.push_back(PersistedGroup {
            id: group_id,
            base,
            slots,
            live,
            supersede: self.building_supersede.take(),
        });
        Ok((bytes.len() as u64, done))
    }

    /// Finds (recycling if needed) a pool zone with room for one group.
    fn pool_zone_with_room<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        now: Nanos,
    ) -> Result<u32, FlashError> {
        let ppz = dev.geometry().pages_per_zone();
        for _ in 0..=self.pool_zones.len() {
            let zone = self.pool_zones[self.pool_open];
            let room = ppz - dev.write_pointer(ZoneId(zone));
            if room >= self.sets_per_sg {
                return Ok(zone);
            }
            // Advance the ring; recycle the next zone if all its groups
            // have retired.
            self.pool_open = (self.pool_open + 1) % self.pool_zones.len();
            let next = self.pool_zones[self.pool_open];
            if dev.zone_state(ZoneId(next)) != ZoneState::Empty {
                let groups = self.zone_groups.remove(&next).unwrap_or_default();
                assert!(
                    groups
                        .iter()
                        .all(|g| self.retired.get(g).copied().unwrap_or(true)),
                    "index pool undersized: recycling a zone with live groups"
                );
                for g in groups {
                    self.retired.remove(&g);
                }
                retry_transient(&mut self.device_retries, |attempt| {
                    dev.reset_zone(ZoneId(next), backoff(now, attempt))
                })?;
            }
        }
        unreachable!("index pool ring exhausted");
    }

    /// Marks an SG dead after its data SG was evicted; retires its group
    /// when the last member dies.
    pub fn on_evict(&mut self, seq: u64) {
        if let Some(group_id) = self.sg_group.remove(&seq) {
            if let Some(g) = self.groups.iter_mut().find(|g| g.id == group_id) {
                for slot in g.slots.iter_mut() {
                    if slot.is_some_and(|c| c.seq == seq) {
                        *slot = None;
                        g.live -= 1;
                    }
                }
                if g.live == 0 {
                    let id = g.id;
                    self.groups.retain(|g| g.id != id);
                    self.cache.purge_group(id);
                    if let Some(r) = self.retired.get_mut(&id) {
                        *r = true;
                    }
                }
            }
            return;
        }
        // Rare: evicting an SG whose group is still building.
        for slot in self.building.iter_mut() {
            if slot.as_ref().is_some_and(|b| b.seq == seq) {
                *slot = None;
            }
        }
    }

    /// Queries live PBFGs for `key` at set offset `set`, fetching
    /// uncached PBFG pages from the index pool.
    ///
    /// The walk runs newest-first (building group, then persisted groups
    /// in reverse flush order) and, with stale-version filtering
    /// enabled, stops at the first group that both re-admitted the key
    /// (supersede filter hit) and produced a PBFG candidate for it:
    /// every older copy of the key is stale, so older groups are
    /// neither probed nor fetched. The surviving list is truncated to
    /// the newest [`Self::set_max_candidates`] entries.
    ///
    /// # Errors
    ///
    /// Returns the device error if an index-pool page read fails
    /// permanently (transient errors are retried internally). The index
    /// is left consistent; the query simply could not be answered.
    pub fn candidates<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        set: u32,
        key: u64,
        now: Nanos,
    ) -> Result<CandidateQuery, FlashError> {
        let probes = ProbeSet::for_key(key);
        let mut out = Vec::new();
        // Building group (newest): filters are in memory — one
        // in-memory PBFG access for the whole group.
        let mut any_building = false;
        let mut building_matched = false;
        for b in self.building.iter().flatten() {
            any_building = true;
            if b.filters[set as usize].contains_probes(&probes) {
                building_matched = true;
                out.push(SgCandidate {
                    seq: b.seq,
                    zone: b.zone,
                });
            }
        }
        if any_building {
            self.stats.cache_hits += 1;
        }
        // Stale cutoff after the building group: a supersede hit alone
        // could be a false positive of the coarse filter, so it must be
        // corroborated by an actual candidate before older groups are
        // declared stale.
        let mut superseded = building_matched
            && self
                .building_supersede
                .as_ref()
                .is_some_and(|f| f.contains_probes(&probes));
        let mut flash_reads = 0u32;
        let mut bytes_read = 0u64;
        let mut done = now;
        let fb = self.filter_bytes as usize;
        for gi in (0..self.groups.len()).rev() {
            if superseded {
                self.stats.superseded_cutoffs += 1;
                break;
            }
            let (gid, addr) = {
                let g = &self.groups[gi];
                (g.id, PageAddr::new(g.base.zone, g.base.page + set))
            };
            let fetched: Option<Vec<u8>> = if self.cache.contains(gid, set) {
                self.stats.cache_hits += 1;
                None
            } else {
                self.stats.cache_misses += 1;
                let (mut page, t) = retry_transient(&mut self.device_retries, |attempt| {
                    dev.read_pages(addr, 1, backoff(now, attempt))
                })?;
                flash_reads += 1;
                bytes_read += page.len() as u64;
                done = done.max(t);
                // Keep only the filter region in memory; the page tail is
                // padding when groups are smaller than the packing limit.
                page.truncate(self.sgs_per_group as usize * fb);
                Some(page)
            };
            let g = &self.groups[gi];
            let page: &[u8] = match &fetched {
                Some(p) => p,
                None => self.cache.get(gid, set).expect("checked above"),
            };
            let mut group_matched = false;
            for (slot_idx, slot) in g.slots.iter().enumerate() {
                let Some(cand) = slot else { continue };
                let off = slot_idx * fb;
                if contains_in_slice(&page[off..off + fb], self.hashes, &probes) {
                    group_matched = true;
                    out.push(*cand);
                }
            }
            superseded = group_matched
                && g.supersede
                    .as_ref()
                    .is_some_and(|f| f.contains_probes(&probes));
            if let Some(p) = fetched {
                self.cache.insert(gid, set, p);
            }
        }
        out.sort_by_key(|c| std::cmp::Reverse(c.seq));
        let mut capped = 0u32;
        if self.max_candidates > 0 && out.len() > self.max_candidates as usize {
            capped = (out.len() - self.max_candidates as usize) as u32;
            out.truncate(self.max_candidates as usize);
            self.stats.capped_queries += 1;
        }
        Ok(CandidateQuery {
            candidates: out,
            flash_reads,
            bytes_read,
            done_at: done,
            capped,
        })
    }

    /// Resident bytes of the PBFG cache.
    pub fn cache_bytes(&self) -> u64 {
        self.cache.resident_bytes()
    }

    /// Modelled bytes of the building group's in-memory filters.
    pub fn buffer_bytes(&self) -> u64 {
        self.building.iter().flatten().count() as u64
            * self.sets_per_sg as u64
            * self.filter_bytes as u64
    }

    /// Resident bytes of the supersede filters (building + per group).
    pub fn supersede_bytes(&self) -> u64 {
        let building = self
            .building_supersede
            .as_ref()
            .map_or(0, |f| f.serialized_len() as u64);
        building
            + self
                .groups
                .iter()
                .filter_map(|g| g.supersede.as_ref())
                .map(|f| f.serialized_len() as u64)
                .sum::<u64>()
    }

    /// Number of live persisted groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Sequence numbers of every SG the index still references (persisted
    /// groups plus the building group) — for recovery invariant checks.
    pub(crate) fn live_seqs(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self.sg_group.keys().copied().collect();
        seqs.extend(self.building.iter().flatten().map(|b| b.seq));
        seqs
    }

    /// Serializes the full index state (building group, persisted group
    /// directory, supersede filters, pool-ring position and counters) for
    /// a warm-restart checkpoint. The PBFG *cache* is deliberately not
    /// checkpointed: it restarts cold and refills from the on-flash pool,
    /// which only costs reads. Hash maps are emitted in sorted order so
    /// the encoding is deterministic.
    pub(crate) fn checkpoint_encode(&self, w: &mut crate::checkpoint::Writer) {
        w.u64(self.next_group_id);
        w.u32(self.pool_open as u32);
        w.u32(self.max_candidates);
        match self.supersede_sizing {
            Some((keys, fpr)) => {
                w.u8(1);
                w.u64(keys);
                w.f64(fpr);
            }
            None => w.u8(0),
        }
        w.u64(self.stats.cache_hits);
        w.u64(self.stats.cache_misses);
        w.u64(self.stats.pool_pages_written);
        w.u64(self.stats.superseded_cutoffs);
        w.u64(self.stats.capped_queries);
        w.u32(self.building.len() as u32);
        for slot in &self.building {
            match slot {
                Some(b) => {
                    w.u8(1);
                    w.u64(b.seq);
                    w.u32(b.zone);
                    for f in &b.filters {
                        w.filter_opt(Some(f));
                    }
                }
                None => w.u8(0),
            }
        }
        w.filter_opt(self.building_supersede.as_ref());
        w.u32(self.groups.len() as u32);
        for g in &self.groups {
            w.u64(g.id);
            w.u32(g.base.zone);
            w.u32(g.base.page);
            w.u32(g.slots.len() as u32);
            for slot in &g.slots {
                match slot {
                    Some(c) => {
                        w.u8(1);
                        w.u64(c.seq);
                        w.u32(c.zone);
                    }
                    None => w.u8(0),
                }
            }
            w.filter_opt(g.supersede.as_ref());
        }
        let mut zones: Vec<u32> = self.zone_groups.keys().copied().collect();
        zones.sort_unstable();
        w.u32(zones.len() as u32);
        for z in zones {
            w.u32(z);
            let ids = &self.zone_groups[&z];
            w.u32(ids.len() as u32);
            for &id in ids {
                w.u64(id);
            }
        }
        let mut ids: Vec<u64> = self.retired.keys().copied().collect();
        ids.sort_unstable();
        w.u32(ids.len() as u32);
        for id in ids {
            w.u64(id);
            w.u8(u8::from(self.retired[&id]));
        }
    }

    /// Rebuilds an index from [`PbfgIndex::checkpoint_encode`] bytes. The
    /// structural parameters come from the (fingerprint-checked) config,
    /// not the checkpoint; `sg_group` and per-group live counts are
    /// recomputed from the slot directory. The cache starts empty — the
    /// caller re-applies its capacity.
    pub(crate) fn checkpoint_decode(
        r: &mut crate::checkpoint::Reader<'_>,
        pool_zones: Vec<u32>,
        sets_per_sg: u32,
        page_size: u32,
        filter_bytes: u32,
        hashes: u32,
        sgs_per_group: u32,
    ) -> Result<Self, String> {
        let mut idx = Self::new(
            pool_zones,
            sets_per_sg,
            page_size,
            filter_bytes,
            hashes,
            sgs_per_group,
        );
        idx.next_group_id = r.u64()?;
        let pool_open = r.u32()? as usize;
        if pool_open >= idx.pool_zones.len() {
            return Err(format!("checkpoint corrupt: pool_open {pool_open}"));
        }
        idx.pool_open = pool_open;
        idx.max_candidates = r.u32()?;
        if r.u8()? != 0 {
            idx.supersede_sizing = Some((r.u64()?, r.f64()?));
        }
        idx.stats = IndexStats {
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            pool_pages_written: r.u64()?,
            superseded_cutoffs: r.u64()?,
            capped_queries: r.u64()?,
        };
        let building = r.len(1)?;
        if building > sgs_per_group as usize {
            return Err(format!("checkpoint corrupt: building group of {building}"));
        }
        for _ in 0..building {
            if r.u8()? != 0 {
                let seq = r.u64()?;
                let zone = r.u32()?;
                let mut filters = Vec::with_capacity(sets_per_sg as usize);
                for _ in 0..sets_per_sg {
                    filters
                        .push(r.filter_opt()?.ok_or_else(|| {
                            "checkpoint corrupt: missing PBFG filter".to_string()
                        })?);
                }
                idx.building.push(Some(BufferedSlot { seq, zone, filters }));
            } else {
                idx.building.push(None);
            }
        }
        idx.building_supersede = r.filter_opt()?;
        let groups = r.len(1)?;
        for _ in 0..groups {
            let id = r.u64()?;
            let zone = r.u32()?;
            let page = r.u32()?;
            let base = PageAddr::new(zone, page);
            let nslots = r.len(1)?;
            if nslots > sgs_per_group as usize {
                return Err(format!("checkpoint corrupt: group with {nslots} slots"));
            }
            let mut slots = Vec::with_capacity(nslots);
            let mut live = 0;
            for _ in 0..nslots {
                if r.u8()? != 0 {
                    let seq = r.u64()?;
                    let zone = r.u32()?;
                    if idx.sg_group.insert(seq, id).is_some() {
                        return Err(format!("checkpoint corrupt: SG {seq} in two groups"));
                    }
                    slots.push(Some(SgCandidate { seq, zone }));
                    live += 1;
                } else {
                    slots.push(None);
                }
            }
            let supersede = r.filter_opt()?;
            idx.groups.push_back(PersistedGroup {
                id,
                base,
                slots,
                live,
                supersede,
            });
        }
        let nz = r.len(8)?;
        for _ in 0..nz {
            let zone = r.u32()?;
            let n = r.len(8)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(r.u64()?);
            }
            idx.zone_groups.insert(zone, ids);
        }
        let nr = r.len(9)?;
        for _ in 0..nr {
            let id = r.u64()?;
            let retired = r.u8()? != 0;
            idx.retired.insert(id, retired);
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_flash::{Geometry, LatencyModel, SimFlash};

    const SETS: u32 = 8;

    fn dev() -> SimFlash {
        // 16 zones x 8 pages; zones 0..4 are the index pool.
        SimFlash::with_latency(Geometry::new(512, 8, 16, 2), LatencyModel::zero())
    }

    fn index() -> PbfgIndex {
        // 64-byte filters, 4 per 512 B page -> groups of 3 SGs.
        PbfgIndex::new(vec![0, 1, 2, 3], SETS, 512, 64, 5, 3)
    }

    fn filters_with_keys(keys: &[u64]) -> Vec<BloomFilter> {
        let mut fs: Vec<BloomFilter> = (0..SETS)
            .map(|_| BloomFilter::with_geometry(512, 5))
            .collect();
        for &k in keys {
            let set = (k % SETS as u64) as usize;
            fs[set].insert(k);
        }
        fs
    }

    #[test]
    fn building_group_answers_from_memory() {
        let mut d = dev();
        let mut idx = index();
        idx.add_sg(&mut d, 1, 10, filters_with_keys(&[8, 16]), &[], Nanos::ZERO)
            .unwrap();
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        assert_eq!(q.candidates, vec![SgCandidate { seq: 1, zone: 10 }]);
        assert_eq!(q.flash_reads, 0);
    }

    #[test]
    fn group_persists_after_filling() {
        let mut d = dev();
        let mut idx = index();
        let mut wrote = 0;
        for seq in 0..3u64 {
            let (b, _) = idx
                .add_sg(
                    &mut d,
                    seq,
                    10 + seq as u32,
                    filters_with_keys(&[seq * SETS as u64]),
                    &[],
                    Nanos::ZERO,
                )
                .unwrap();
            wrote += b;
        }
        assert_eq!(wrote, SETS as u64 * 512, "one page per set offset");
        assert_eq!(idx.group_count(), 1);
        assert_eq!(idx.persisted_pages(), SETS as u64);
    }

    #[test]
    fn persisted_group_found_via_flash_fetch() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(64);
        for seq in 0..3u64 {
            idx.add_sg(
                &mut d,
                seq,
                10 + seq as u32,
                filters_with_keys(&[seq + 8]), // keys 8,9,10 -> sets 0,1,2
                &[],
                Nanos::ZERO,
            )
            .unwrap();
        }
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        assert!(q.candidates.contains(&SgCandidate { seq: 0, zone: 10 }));
        assert_eq!(q.flash_reads, 1, "first access fetches the PBFG page");
        // Second access: cached.
        let q2 = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        assert_eq!(q2.flash_reads, 0);
        assert!(idx.stats().cache_hits > 0);
    }

    #[test]
    fn zero_capacity_cache_always_fetches() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(0);
        for seq in 0..3u64 {
            idx.add_sg(&mut d, seq, 10, filters_with_keys(&[1]), &[], Nanos::ZERO)
                .unwrap();
        }
        let q1 = idx.candidates(&mut d, 1, 1, Nanos::ZERO).unwrap();
        let q2 = idx.candidates(&mut d, 1, 1, Nanos::ZERO).unwrap();
        assert_eq!(q1.flash_reads, 1);
        assert_eq!(q2.flash_reads, 1, "nothing can be cached");
        assert!((idx.stats().miss_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_kills_candidates_and_retires_groups() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(64);
        for seq in 0..3u64 {
            idx.add_sg(
                &mut d,
                seq,
                10 + seq as u32,
                filters_with_keys(&[8]),
                &[],
                Nanos::ZERO,
            )
            .unwrap();
        }
        for seq in 0..3u64 {
            idx.on_evict(seq);
        }
        assert_eq!(idx.group_count(), 0, "group retires with its SGs");
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        assert!(q.candidates.is_empty());
    }

    #[test]
    fn candidates_sorted_newest_first() {
        let mut d = dev();
        let mut idx = index();
        // Key 8 in every SG of the building group.
        for seq in [4u64, 9, 7] {
            idx.add_sg(
                &mut d,
                seq,
                seq as u32,
                filters_with_keys(&[8]),
                &[],
                Nanos::ZERO,
            )
            .unwrap();
        }
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        let seqs: Vec<u64> = q.candidates.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![9, 7, 4]);
    }

    #[test]
    fn pool_ring_recycles_retired_zones() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(16);
        // Each group takes one full zone (8 pages); the pool has 4 zones.
        // Push 8 groups, evicting old SGs as we go.
        let mut seq = 0u64;
        for _ in 0..8 {
            for _ in 0..3 {
                idx.add_sg(&mut d, seq, 10, filters_with_keys(&[1]), &[], Nanos::ZERO)
                    .unwrap();
                seq += 1;
            }
            // Retire everything except the newest group.
            for s in 0..seq.saturating_sub(3) {
                idx.on_evict(s);
            }
        }
        assert!(idx.group_count() <= 2);
    }

    #[test]
    fn supersede_cutoff_skips_older_groups() {
        let mut d = dev();
        let mut idx = index();
        idx.enable_supersede(12, 0.02);
        // Older group (seqs 0..3) admits key 8 in seq 0; newer group
        // (seqs 3..6) re-admits key 8 in seq 5.
        for seq in 0..3u64 {
            let keys: &[u64] = if seq == 0 { &[8] } else { &[seq + 16] };
            idx.add_sg(&mut d, seq, 10, filters_with_keys(keys), keys, Nanos::ZERO)
                .unwrap();
        }
        for seq in 3..6u64 {
            let keys: &[u64] = if seq == 5 { &[8] } else { &[seq + 32] };
            idx.add_sg(&mut d, seq, 10, filters_with_keys(keys), keys, Nanos::ZERO)
                .unwrap();
        }
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        let seqs: Vec<u64> = q.candidates.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![5], "older group's stale copy must be dropped");
        assert_eq!(
            q.flash_reads, 1,
            "the superseded older group must not even be fetched"
        );
        assert_eq!(idx.stats().superseded_cutoffs, 1);
    }

    #[test]
    fn supersede_needs_candidate_corroboration() {
        let mut d = dev();
        let mut idx = index();
        idx.enable_supersede(12, 0.02);
        // Key 8 lives only in the OLDER group; the newer group admits
        // other keys. Its supersede filter alone (even if it false-
        // positived) may not veto the older copy without a same-group
        // PBFG candidate.
        for seq in 0..3u64 {
            let keys: &[u64] = if seq == 0 { &[8] } else { &[seq + 16] };
            idx.add_sg(&mut d, seq, 10, filters_with_keys(keys), keys, Nanos::ZERO)
                .unwrap();
        }
        for seq in 3..6u64 {
            let keys: &[u64] = &[seq + 32];
            idx.add_sg(&mut d, seq, 10, filters_with_keys(keys), keys, Nanos::ZERO)
                .unwrap();
        }
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        assert_eq!(
            q.candidates,
            vec![SgCandidate { seq: 0, zone: 10 }],
            "the live old copy must survive"
        );
        assert_eq!(idx.stats().superseded_cutoffs, 0);
        assert!(idx.supersede_bytes() > 0, "filters must be accounted");
    }

    #[test]
    fn building_supersede_cuts_off_persisted_groups() {
        let mut d = dev();
        let mut idx = index();
        idx.enable_supersede(12, 0.02);
        // Persisted group holds key 8; the building group re-admits it.
        for seq in 0..3u64 {
            idx.add_sg(&mut d, seq, 10, filters_with_keys(&[8]), &[8], Nanos::ZERO)
                .unwrap();
        }
        idx.add_sg(&mut d, 3, 11, filters_with_keys(&[8]), &[8], Nanos::ZERO)
            .unwrap();
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        let seqs: Vec<u64> = q.candidates.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![3], "persisted stale copies skipped entirely");
        assert_eq!(q.flash_reads, 0, "no index-pool fetch needed");
        assert_eq!(idx.stats().superseded_cutoffs, 1);
    }

    #[test]
    fn candidate_cap_keeps_newest() {
        let mut d = dev();
        let mut idx = index();
        idx.set_max_candidates(2);
        for seq in [4u64, 9, 7] {
            idx.add_sg(
                &mut d,
                seq,
                seq as u32,
                filters_with_keys(&[8]),
                &[],
                Nanos::ZERO,
            )
            .unwrap();
        }
        let q = idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        let seqs: Vec<u64> = q.candidates.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, vec![9, 7], "cap keeps the newest candidates");
        assert_eq!(q.capped, 1);
        assert_eq!(idx.stats().capped_queries, 1);
    }

    #[test]
    fn recently_active_reflects_cache_and_buffer() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(64);
        idx.add_sg(&mut d, 0, 10, filters_with_keys(&[8]), &[], Nanos::ZERO)
            .unwrap();
        // Building: always "recently active".
        assert!(idx.is_recently_active(0, 0));
        for seq in 1..3u64 {
            idx.add_sg(&mut d, seq, 10, filters_with_keys(&[8]), &[], Nanos::ZERO)
                .unwrap();
        }
        // Persisted but not yet cached.
        assert!(!idx.is_recently_active(0, 0));
        idx.candidates(&mut d, 0, 8, Nanos::ZERO).unwrap();
        assert!(idx.is_recently_active(0, 0), "fetch populates the cache");
    }
}
