//! The PBFG approximate index (paper §4.3, challenge C2).
//!
//! Every flushed SG contributes one Bloom filter per set, built from the
//! keys that set's page holds ([`PbfgIndex::add_sg`]): a flush and a
//! zone scan index an SG the same way, so a rebuilt index is the index
//! the flushes wrote. Filters sharing an intra-SG set offset form a
//! *set-level PBFG*; the PBFGs of up to 50
//! SGs form an *index group*, laid out on flash so one PBFG is exactly one
//! page (Fig. 10's "packed" layout). The full index lives in an on-flash
//! index pool; an in-memory FIFO cache keeps the configured fraction of
//! PBFG pages resident, and the youngest (still-building) group's filters
//! stay in memory until the group is sealed.
//!
//! A PBFG is one region of `sgs_per_group * filter_bytes` bytes holding
//! the group's filters bit-sliced ([`SlicedLayout`]), and this module
//! only ever handles whole regions: the building group keeps one per set
//! in a set-major buffer, region for region the filter area of the pages
//! a seal appends, so the PBFG of a set is one contiguous region whether
//! it is still building, cached or just fetched. The key's probe rows are
//! computed once per query ([`ProbeTable`]) and one routine
//! ([`ProbeTable::matches`]) tests every slot of a group with one load
//! per probe; a slot directory per group masks the stale bits of evicted
//! SGs. Each persisted group owns its share of the PBFG cache as a table
//! indexed by set offset, so finding a cached page is an index, not a
//! hash; a fetched page lands in the buffer the last eviction freed, and
//! the candidates in a buffer the caller owns. A query whose pages are
//! cached allocates nothing.
//!
//! A query is a *walk* ([`GroupWalk`]): groups are visited newest first,
//! one [`PbfgIndex::next_group`] step per group that has a candidate, and
//! the caller stops stepping at the first copy of the key, which is the
//! live one: the groups behind it are neither probed nor fetched.

use nemo_bloom::{ProbeTable, SlicedLayout};
use nemo_engine::{device, EngineStats};
use nemo_flash::{FlashError, Nanos, PageAddr, ZoneId, ZoneState, ZonedFlash};
use std::collections::{HashMap, VecDeque};

/// A candidate location returned by a PBFG query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgCandidate {
    /// Flush sequence number (higher = newer).
    pub seq: u64,
    /// Zone holding the SG's data.
    pub zone: u32,
}

/// One query's place in the newest-first walk over the index groups
/// ([`PbfgIndex::walk`], [`PbfgIndex::next_group`]).
///
/// The cursor is an id bound, not a position: the building group counts
/// as the id its seal will give it, and a group that retires between two
/// steps (a zone quarantined in the middle of a get) is neither skipped
/// over nor visited twice.
#[derive(Debug, Clone)]
pub struct GroupWalk {
    set: u32,
    probes: ProbeTable,
    /// Every live group with an id at or above this has been visited.
    visited_from: u64,
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
    /// Walks that stopped before the oldest live group: the key was
    /// found (or the caller gave up), so older groups were never probed.
    pub superseded_cutoffs: u64,
    /// Walks the caller stopped because its read budget ran out.
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
struct PersistedGroup {
    id: u64,
    /// First page of the group in the index pool; page `s` of the group
    /// (the PBFG for set offset `s`) lives at `base.page + s`.
    base: PageAddr,
    /// Slot -> live SG, `None` once evicted.
    slots: Vec<Option<SgCandidate>>,
    live: u32,
    /// The group's share of the PBFG cache: `cached[s]` holds the filter
    /// region of page `s` while it is resident. The table itself (one
    /// pointer pair per set offset) is not part of the modelled index
    /// memory; it is under half a percent of the pages it can point to.
    cached: Vec<Option<Box<[u8]>>>,
}

/// The complete PBFG index: building group, persisted groups, on-flash
/// pool and the FIFO PBFG cache.
#[derive(Debug)]
pub struct PbfgIndex {
    /// How a PBFG's filters share its region.
    layout: SlicedLayout,
    filter_bytes: u32,
    hashes: u32,
    sgs_per_group: u32,
    sets_per_sg: u32,
    page_size: u32,
    /// Slot directory of the still-building group: slot -> live SG,
    /// `None` once evicted.
    building: Vec<Option<SgCandidate>>,
    building_live: u32,
    /// The building group's PBFGs, one region per set: what a seal
    /// appends, less the page padding. A seal zeroes it, so the slots
    /// from `building.len()` on are clear; a dead slot is cleared.
    building_bits: Vec<u8>,
    next_group_id: u64,
    /// Live persisted groups, ascending by id.
    groups: VecDeque<PersistedGroup>,
    sg_group: HashMap<u64, u64>,
    /// PBFG cache capacity in pages.
    cache_capacity: usize,
    /// The resident PBFG pages as `(group id, set)`, oldest first; the
    /// bytes are in the group's `cached` table.
    cache_fifo: VecDeque<(u64, u32)>,
    /// The buffer the last cache eviction freed, for the next fetch.
    cache_spare: Option<Box<[u8]>>,
    /// The filter region of the last index-pool fetch: a fetch copies
    /// the PBFG out of the page the device lends, not the page.
    page_buf: Vec<u8>,
    pool_zones: Vec<u32>,
    pool_open: usize,
    /// zone -> group ids with pages there (for ring recycling).
    zone_groups: HashMap<u32, Vec<u64>>,
    retired: HashMap<u64, bool>,
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
        let layout = SlicedLayout::new(sgs_per_group, filter_bytes);
        Self {
            layout,
            filter_bytes,
            hashes,
            sgs_per_group,
            sets_per_sg,
            page_size,
            building: Vec::new(),
            building_live: 0,
            building_bits: vec![0; sets_per_sg as usize * layout.region_bytes()],
            next_group_id: 0,
            groups: VecDeque::new(),
            sg_group: HashMap::new(),
            cache_capacity: 0,
            cache_fifo: VecDeque::new(),
            cache_spare: None,
            page_buf: vec![0; layout.region_bytes()],
            pool_zones,
            pool_open: 0,
            zone_groups: HashMap::new(),
            retired: HashMap::new(),
            stats: IndexStats::default(),
        }
    }

    /// Bytes of one PBFG: the filter region of a pool page, and one
    /// region of the building buffer.
    fn row_bytes(&self) -> usize {
        self.layout.region_bytes()
    }

    /// The building group's PBFG for `set`.
    fn building_row(&mut self, set: usize) -> &mut [u8] {
        let row = self.row_bytes();
        &mut self.building_bits[set * row..][..row]
    }

    /// Position in `groups` of the live group `id`.
    fn group_index(&self, id: u64) -> Option<usize> {
        self.groups.binary_search_by_key(&id, |g| g.id).ok()
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
        self.cache_capacity = pages;
        self.evict_to_capacity();
    }

    /// Drops the oldest resident PBFG pages until the cache fits its
    /// capacity, keeping the last freed buffer for the next fetch.
    fn evict_to_capacity(&mut self) {
        while self.cache_fifo.len() > self.cache_capacity {
            let (id, set) = self.cache_fifo.pop_front().expect("longer than capacity");
            let gi = self
                .group_index(id)
                .expect("resident pages are of live groups");
            self.cache_spare = self.groups[gi].cached[set as usize].take();
        }
    }

    /// Makes the PBFG just fetched into `page_buf` (set offset `set` of
    /// group `gi`) resident, evicting in FIFO order.
    fn cache_fetched(&mut self, gi: usize, set: u32) {
        if self.cache_capacity == 0 {
            return;
        }
        let row = self.row_bytes();
        let mut page = self
            .cache_spare
            .take()
            .unwrap_or_else(|| vec![0; row].into_boxed_slice());
        page.copy_from_slice(&self.page_buf);
        let g = &mut self.groups[gi];
        g.cached[set as usize] = Some(page);
        self.cache_fifo.push_back((g.id, set));
        self.evict_to_capacity();
    }

    /// Whether the PBFG covering `(seq, set)` is currently in memory —
    /// the recency signal of the hybrid hotness tracker (§4.4).
    pub fn is_recently_active(&self, seq: u64, set: u32) -> bool {
        match self.sg_group.get(&seq) {
            Some(&id) => self
                .group_index(id)
                .is_some_and(|gi| self.groups[gi].cached[set as usize].is_some()),
            // Still in the building group: filters are in memory.
            None => self.building.iter().flatten().any(|c| c.seq == seq),
        }
    }

    /// Adds a flushed SG by its keys: the filter of set `s` holds
    /// `keys(s)`, hashed straight into the SG's slot of the set's region.
    /// Seals and persists the group when it reaches `sgs_per_group`,
    /// charging the pool I/O to `stats`. Returns flash bytes written (0
    /// until a group seals) and the completion time.
    ///
    /// # Errors
    ///
    /// Returns the device error if persisting a sealed group fails
    /// permanently (transient errors are retried internally). The
    /// building group keeps the new SG either way; only the pool append
    /// is lost, and the group stays in memory, full and queryable. The
    /// next call retries the seal first, and while that keeps failing
    /// takes no further SG: the index cannot grow without its pool.
    pub fn add_sg<D: ZonedFlash, I: IntoIterator<Item = u64>>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        seq: u64,
        zone: u32,
        mut keys: impl FnMut(usize) -> I,
        now: Nanos,
    ) -> Result<(u64, Nanos), FlashError> {
        let (mut wrote, mut done) = (0, now);
        if self.building.len() as u32 >= self.sgs_per_group {
            (wrote, done) = self.persist_building(dev, stats, now)?;
        }
        let slot = self.building.len();
        let (layout, hashes) = (self.layout, self.hashes);
        for set in 0..self.sets_per_sg as usize {
            let region = self.building_row(set);
            for key in keys(set) {
                layout.insert(region, slot, key, hashes);
            }
        }
        self.building.push(Some(SgCandidate { seq, zone }));
        self.building_live += 1;
        if self.building.len() as u32 >= self.sgs_per_group {
            let (bytes, t) = self.persist_building(dev, stats, now)?;
            wrote += bytes;
            done = t;
        }
        Ok((wrote, done))
    }

    /// Appends the building group's PBFGs, one per page, to the index
    /// pool; only once they are on flash does the group leave the
    /// buffer, which is then zeroed for the next group, so a failed seal
    /// loses nothing.
    fn persist_building<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        now: Nanos,
    ) -> Result<(u64, Nanos), FlashError> {
        let psz = self.page_size as usize;
        let row = self.row_bytes();
        let mut bytes = vec![0u8; self.sets_per_sg as usize * psz];
        for (page, pbfg) in bytes
            .chunks_exact_mut(psz)
            .zip(self.building_bits.chunks_exact(row))
        {
            page[..row].copy_from_slice(pbfg);
        }
        let zone = self.pool_zone_with_room(dev, stats, now)?;
        let (base, done) = device::append(dev, stats, ZoneId(zone), &bytes, now)?;
        let id = self.next_group_id;
        self.next_group_id += 1;
        let slots = std::mem::take(&mut self.building);
        let live = std::mem::take(&mut self.building_live);
        self.building_bits.fill(0);
        for c in slots.iter().flatten() {
            self.sg_group.insert(c.seq, id);
        }
        self.stats.pool_pages_written += self.sets_per_sg as u64;
        self.zone_groups.entry(zone).or_default().push(id);
        self.retired.insert(id, live == 0);
        self.groups.push_back(PersistedGroup {
            id,
            base,
            slots,
            live,
            cached: vec![None; self.sets_per_sg as usize],
        });
        Ok((bytes.len() as u64, done))
    }

    /// Finds (recycling if needed) a pool zone with room for one group.
    fn pool_zone_with_room<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
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
                device::reset(dev, stats, ZoneId(next), now)?;
            }
        }
        unreachable!("index pool ring exhausted");
    }

    /// Marks an SG dead after its data SG was evicted; retires its group
    /// when the last member dies.
    pub fn on_evict(&mut self, seq: u64) {
        if let Some(id) = self.sg_group.remove(&seq) {
            let Some(gi) = self.group_index(id) else {
                return;
            };
            let g = &mut self.groups[gi];
            for slot in g.slots.iter_mut() {
                if slot.is_some_and(|c| c.seq == seq) {
                    *slot = None;
                    g.live -= 1;
                }
            }
            if g.live == 0 {
                // The group's cached pages go with it.
                self.groups.remove(gi);
                self.cache_fifo.retain(|&(g, _)| g != id);
                if let Some(r) = self.retired.get_mut(&id) {
                    *r = true;
                }
            }
            return;
        }
        // Rare: evicting an SG whose group is still building. A seal
        // appends the buffer as it stands, and a dead slot persists as
        // zeros.
        let dead = |slot: &Option<SgCandidate>| slot.is_some_and(|c| c.seq == seq);
        if let Some(slot) = self.building.iter().position(dead) {
            self.building[slot] = None;
            self.building_live -= 1;
            let layout = self.layout;
            for set in 0..self.sets_per_sg as usize {
                layout.clear_slot(self.building_row(set), slot);
            }
        }
    }

    /// Starts a newest-first walk for `key` at set offset `set`. Nothing
    /// is probed until the first [`Self::next_group`].
    pub fn walk(&self, set: u32, key: u64) -> GroupWalk {
        GroupWalk {
            set,
            probes: ProbeTable::new(key, self.layout, self.hashes),
            visited_from: u64::MAX,
        }
    }

    /// Advances `walk` to the next group that has a candidate for its key
    /// and leaves that group's candidates in `out`, newest first: the
    /// building group, then the persisted groups in reverse flush order.
    /// `out` comes back empty once every live group has been visited.
    /// Returns the PBFG pages fetched from the index pool, whose I/O is
    /// charged to `stats`, and the completion time of the last fetch
    /// (`now` if there was none).
    ///
    /// An uncached PBFG page is fetched from the index pool at `now` —
    /// the completion time of whatever the caller did last — and each
    /// further fetch of the same step when the one before it completes:
    /// a fetch is only issued once the walk knows it needs it.
    ///
    /// # Errors
    ///
    /// Returns the device error if an index-pool page read fails
    /// permanently (transient errors are retried internally). The index
    /// is left consistent and the walk where it was; the query simply
    /// could not be answered.
    pub fn next_group<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        walk: &mut GroupWalk,
        out: &mut Vec<SgCandidate>,
        now: Nanos,
    ) -> Result<(u32, Nanos), FlashError> {
        let row = self.row_bytes();
        let set = walk.set;
        let (mut fetched, mut done) = (0, now);
        out.clear();
        // Building group (newest): filters are in memory — one
        // in-memory PBFG access for the whole group.
        if walk.visited_from > self.next_group_id {
            walk.visited_from = self.next_group_id;
            if self.building_live > 0 {
                self.stats.cache_hits += 1;
                let pbfg = &self.building_bits[set as usize * row..][..row];
                let slots = &self.building;
                walk.probes
                    .matches(pbfg, slots.len(), |slot| out.extend(slots[slot]));
            }
        }
        // Found by id once per step: groups retire between steps (a
        // quarantine), never inside one.
        let mut gi = self.groups.partition_point(|g| g.id < walk.visited_from);
        while out.is_empty() && gi > 0 {
            gi -= 1;
            let g = &self.groups[gi];
            let fetch = g.cached[set as usize].is_none();
            if fetch {
                self.stats.cache_misses += 1;
                let addr = PageAddr::new(g.base.zone, g.base.page + set);
                // Only the filter region: the page tail is padding when
                // groups are smaller than the packing limit.
                let buf = &mut self.page_buf;
                done = device::read_page(dev, stats, addr, done, |page| {
                    buf.copy_from_slice(&page[..row]);
                })?;
                fetched += 1;
            } else {
                self.stats.cache_hits += 1;
            }
            walk.visited_from = g.id;
            let pbfg: &[u8] = g.cached[set as usize].as_deref().unwrap_or(&self.page_buf);
            // The page still carries the bits of evicted SGs; the slot
            // directory masks them.
            walk.probes
                .matches(pbfg, g.slots.len(), |slot| out.extend(g.slots[slot]));
            if fetch {
                self.cache_fetched(gi, set);
            }
        }
        // One seq per SG, so the unstable sort has one possible outcome
        // (and, unlike the stable one, never allocates).
        out.sort_unstable_by_key(|c| std::cmp::Reverse(c.seq));
        Ok((fetched, done))
    }

    /// Counts a walk the caller is done with: as cut off if it stopped
    /// before the oldest live group, and as capped if what stopped it
    /// was the caller's read budget (`capped`), not a hit.
    pub fn finish_walk(&mut self, walk: &GroupWalk, capped: bool) {
        if self
            .groups
            .front()
            .is_some_and(|oldest| oldest.id < walk.visited_from)
        {
            self.stats.superseded_cutoffs += 1;
        }
        self.stats.capped_queries += u64::from(capped);
    }

    /// Resident bytes of the PBFG cache.
    pub fn cache_bytes(&self) -> u64 {
        (self.cache_fifo.len() * self.row_bytes()) as u64
    }

    /// Modelled bytes of the building group's in-memory filters.
    pub fn buffer_bytes(&self) -> u64 {
        self.building_live as u64 * self.sets_per_sg as u64 * self.filter_bytes as u64
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
    /// directory, pool-ring position and counters) for
    /// a warm-restart checkpoint. The PBFG *cache* is deliberately not
    /// checkpointed: it restarts cold and refills from the on-flash pool,
    /// which only costs reads. Hash maps are emitted in sorted order so
    /// the encoding is deterministic.
    pub(crate) fn checkpoint_encode(&self, w: &mut crate::checkpoint::Writer) {
        w.u64(self.next_group_id);
        w.u32(self.pool_open as u32);
        w.u64(self.stats.cache_hits);
        w.u64(self.stats.cache_misses);
        w.u64(self.stats.pool_pages_written);
        w.u64(self.stats.superseded_cutoffs);
        w.u64(self.stats.capped_queries);
        w.u32(self.building.len() as u32);
        for sg in &self.building {
            match sg {
                Some(c) => {
                    w.u8(1);
                    w.u64(c.seq);
                    w.u32(c.zone);
                }
                None => w.u8(0),
            }
        }
        // The building group's regions, raw, whenever it has a slot.
        if !self.building.is_empty() {
            w.bytes(&self.building_bits);
        }
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
                idx.building.push(Some(SgCandidate { seq, zone }));
                idx.building_live += 1;
            } else {
                idx.building.push(None);
            }
        }
        if building > 0 {
            let rows = r.take(idx.building_bits.len())?;
            idx.building_bits.copy_from_slice(rows);
        }
        let groups = r.len(1)?;
        for _ in 0..groups {
            let id = r.u64()?;
            if idx.groups.back().is_some_and(|newest| newest.id >= id) {
                return Err(format!("checkpoint corrupt: group {id} out of order"));
            }
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
            idx.groups.push_back(PersistedGroup {
                id,
                base,
                slots,
                live,
                cached: vec![None; sets_per_sg as usize],
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
    use nemo_bloom::BloomFilter;
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

    /// The keys of set `set` among `keys`: these tests place key `k` in
    /// set `k % SETS`.
    fn of_set(keys: &[u64]) -> impl FnMut(usize) -> Vec<u64> + '_ {
        |set| {
            let set = set as u64;
            keys.iter()
                .copied()
                .filter(|k| k % SETS as u64 == set)
                .collect()
        }
    }

    /// The reference filters of one SG holding `keys`, one per set, of
    /// the geometry `index()` gives its filters.
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

    /// The PBFGs of a group of `group_sgs` slots as the reference builds
    /// them: one region per set at the start of each `stride` bytes, bit
    /// `p` of slot `j`'s filter at region bit `p * group_sgs + j`,
    /// transposed bit by bit from the filter's bytes; a dead (`None`) or
    /// unfilled slot stays zero.
    fn sliced_regions<'a>(
        slots: impl IntoIterator<Item = Option<&'a [BloomFilter]>>,
        sets: usize,
        group_sgs: usize,
        stride: usize,
    ) -> Vec<u8> {
        let mut out = vec![0u8; sets * stride];
        for (slot, filters) in slots.into_iter().enumerate() {
            let Some(filters) = filters else { continue };
            for (region, f) in out.chunks_exact_mut(stride).zip(filters) {
                let mut bytes = vec![0u8; f.serialized_len()];
                f.write_bytes(&mut bytes);
                for p in (0..bytes.len() * 8).filter(|p| bytes[p / 8] >> (p % 8) & 1 != 0) {
                    let at = p * group_sgs + slot;
                    region[at / 8] |= 1 << (at % 8);
                }
            }
        }
        out
    }

    /// [`PbfgIndex::add_sg`] at time zero, its I/O charged nowhere.
    fn add<D: ZonedFlash, I: IntoIterator<Item = u64>>(
        idx: &mut PbfgIndex,
        d: &mut D,
        seq: u64,
        zone: u32,
        keys: impl FnMut(usize) -> I,
    ) -> Result<(u64, Nanos), FlashError> {
        idx.add_sg(d, &mut EngineStats::default(), seq, zone, keys, Nanos::ZERO)
    }

    /// [`PbfgIndex::next_group`] at time zero, its I/O charged nowhere.
    fn next<D: ZonedFlash>(
        idx: &mut PbfgIndex,
        d: &mut D,
        walk: &mut GroupWalk,
        out: &mut Vec<SgCandidate>,
    ) -> Result<(u32, Nanos), FlashError> {
        idx.next_group(d, &mut EngineStats::default(), walk, out, Nanos::ZERO)
    }

    /// Walks to exhaustion: every candidate, newest first, and the pool
    /// pages fetched on the way.
    fn drain<D: ZonedFlash>(
        idx: &mut PbfgIndex,
        d: &mut D,
        set: u32,
        key: u64,
    ) -> (Vec<SgCandidate>, u32) {
        let mut walk = idx.walk(set, key);
        let (mut all, mut group, mut fetched) = (Vec::new(), Vec::new(), 0);
        loop {
            let step = next(idx, d, &mut walk, &mut group);
            fetched += step.unwrap().0;
            if group.is_empty() {
                return (all, fetched);
            }
            all.append(&mut group);
        }
    }

    /// One step of a walk: the seqs it yields and the pool pages it
    /// fetches.
    fn step(idx: &mut PbfgIndex, d: &mut SimFlash, walk: &mut GroupWalk) -> (Vec<u64>, u32) {
        let mut group = Vec::new();
        let (fetched, _) = next(idx, d, walk, &mut group).unwrap();
        (group.iter().map(|c| c.seq).collect(), fetched)
    }

    #[test]
    fn building_group_answers_from_memory() {
        let mut d = dev();
        let mut idx = index();
        add(&mut idx, &mut d, 1, 10, of_set(&[8, 16])).unwrap();
        let (found, fetched) = drain(&mut idx, &mut d, 0, 8);
        assert_eq!(found, vec![SgCandidate { seq: 1, zone: 10 }]);
        assert_eq!(fetched, 0);
    }

    #[test]
    fn an_sg_added_by_its_keys_is_the_sg_added_by_its_filters() {
        // The sealed pages and the building buffer hold, bit for bit, the
        // reference filters of the keys each SG was added with.
        let mut d = dev();
        let mut idx = index();
        let mut filters = Vec::new();
        // Seals a group of three and starts the next.
        for seq in 0..4u64 {
            let keys: Vec<u64> = (0..20).map(|i| seq * 1000 + i).collect();
            add(&mut idx, &mut d, seq, 10, of_set(&keys)).unwrap();
            filters.push(filters_with_keys(&keys));
        }
        let want = |sgs: &[Vec<BloomFilter>], stride| {
            sliced_regions(sgs.iter().map(|f| Some(&f[..])), SETS as usize, 3, stride)
        };
        let sealed = d.read_pages(PageAddr::new(0, 0), SETS, Nanos::ZERO);
        assert!(
            sealed.unwrap().0 == want(&filters[..3], 512),
            "sealed pages differ"
        );
        assert!(idx.building_bits.iter().any(|&b| b != 0));
        assert_eq!(idx.building_bits, want(&filters[3..], idx.row_bytes()));
    }

    #[test]
    fn group_persists_after_filling() {
        let mut d = dev();
        let mut idx = index();
        let mut wrote = 0;
        for seq in 0..3u64 {
            let keys = [seq * SETS as u64];
            let (b, _) = add(&mut idx, &mut d, seq, 10 + seq as u32, of_set(&keys)).unwrap();
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
            // keys 8,9,10 -> sets 0,1,2
            let keys = [seq + 8];
            add(&mut idx, &mut d, seq, 10 + seq as u32, of_set(&keys)).unwrap();
        }
        let (found, fetched) = drain(&mut idx, &mut d, 0, 8);
        assert!(found.contains(&SgCandidate { seq: 0, zone: 10 }));
        assert_eq!(fetched, 1, "first access fetches the PBFG page");
        // Second access: cached.
        assert_eq!(drain(&mut idx, &mut d, 0, 8).1, 0);
        assert!(idx.stats().cache_hits > 0);
    }

    #[test]
    fn zero_capacity_cache_always_fetches() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(0);
        for seq in 0..3u64 {
            add(&mut idx, &mut d, seq, 10, of_set(&[1])).unwrap();
        }
        assert_eq!(drain(&mut idx, &mut d, 1, 1).1, 1);
        assert_eq!(drain(&mut idx, &mut d, 1, 1).1, 1, "nothing can be cached");
        assert!((idx.stats().miss_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_kills_candidates_and_retires_groups() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(64);
        for seq in 0..3u64 {
            add(&mut idx, &mut d, seq, 10 + seq as u32, of_set(&[8])).unwrap();
        }
        for seq in 0..3u64 {
            idx.on_evict(seq);
        }
        assert_eq!(idx.group_count(), 0, "group retires with its SGs");
        assert!(drain(&mut idx, &mut d, 0, 8).0.is_empty());
    }

    #[test]
    fn candidates_sorted_newest_first() {
        let mut d = dev();
        let mut idx = index();
        // Key 8 in every SG of the building group.
        for seq in [4u64, 9, 7] {
            add(&mut idx, &mut d, seq, seq as u32, of_set(&[8])).unwrap();
        }
        let mut walk = idx.walk(0, 8);
        assert_eq!(step(&mut idx, &mut d, &mut walk).0, vec![9, 7, 4]);
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
                add(&mut idx, &mut d, seq, 10, of_set(&[1])).unwrap();
                seq += 1;
            }
            // Retire everything except the newest group.
            for s in 0..seq.saturating_sub(3) {
                idx.on_evict(s);
            }
        }
        assert!(idx.group_count() <= 2);
    }

    /// Two sealed groups (seqs 0..3 and 3..6) and one building SG
    /// (seq 6), each SG holding the keys `keys(seq)` gives it.
    fn three_generations(d: &mut SimFlash, keys: impl Fn(u64) -> Vec<u64>) -> PbfgIndex {
        let mut idx = index();
        for seq in 0..7u64 {
            add(&mut idx, d, seq, 10, of_set(&keys(seq))).unwrap();
        }
        assert_eq!(idx.group_count(), 2);
        idx
    }

    #[test]
    fn a_walk_stopped_at_the_newest_copy_fetches_nothing_older() {
        let mut d = dev();
        // Key 8 admitted by seq 0 (oldest group) and again by seq 5.
        let mut idx = three_generations(&mut d, |seq| match seq {
            0 | 5 => vec![8],
            _ => vec![seq + 16],
        });
        let mut walk = idx.walk(0, 8);
        // The building group is in memory; the older group is not fetched.
        assert_eq!(step(&mut idx, &mut d, &mut walk), (vec![5], 1));
        // The caller found the key in seq 5 and stops here.
        idx.finish_walk(&walk, false);
        let stats = idx.stats();
        assert_eq!((stats.superseded_cutoffs, stats.cache_misses), (1, 1));
        // Had it gone on, the stale copy would have come next.
        assert_eq!(step(&mut idx, &mut d, &mut walk), (vec![0], 1));
        assert_eq!(step(&mut idx, &mut d, &mut walk), (vec![], 0));
        idx.finish_walk(&walk, false);
        assert_eq!(
            idx.stats().superseded_cutoffs,
            1,
            "a drained walk cut nothing"
        );
    }

    #[test]
    fn a_step_passes_over_groups_without_a_candidate() {
        // Key 8 lives only in the oldest group: one step walks through
        // the building group and the newer group to reach it.
        let only_oldest = |seq| if seq == 0 { vec![8] } else { vec![seq + 32] };
        let mut d = dev();
        let mut idx = three_generations(&mut d, only_oldest);
        let mut walk = idx.walk(0, 8);
        assert_eq!(step(&mut idx, &mut d, &mut walk), (vec![0], 2));
        idx.finish_walk(&walk, false);
        assert_eq!(idx.stats().superseded_cutoffs, 0);

        // On a device with latencies, the second fetch is issued when
        // the first completes, not beside it.
        let geometry = Geometry::new(512, 8, 16, 2);
        let mut d = SimFlash::with_latency(geometry, LatencyModel::default());
        let mut idx = three_generations(&mut d, only_oldest);
        let mut walk = idx.walk(0, 8);
        let (_, done) = next(&mut idx, &mut d, &mut walk, &mut Vec::new()).unwrap();
        let idle = Nanos(done.0 * 10);
        let one = d
            .read_pages_into(PageAddr::new(0, 0), 1, &mut [0u8; 512], idle)
            .unwrap();
        assert!(one > idle && done.0 >= 2 * (one.0 - idle.0));
    }

    #[test]
    fn a_hit_in_the_building_group_touches_no_flash() {
        let mut d = dev();
        // Every generation holds key 8; the building SG has the live one.
        let mut idx = three_generations(&mut d, |_| vec![8]);
        let mut walk = idx.walk(0, 8);
        assert_eq!(step(&mut idx, &mut d, &mut walk), (vec![6], 0));
        idx.finish_walk(&walk, true);
        let stats = idx.stats();
        assert_eq!((stats.superseded_cutoffs, stats.capped_queries), (1, 1));
    }

    #[test]
    fn candidate_cap_keeps_newest() {
        // The index has no cap of its own: a caller that stops after n
        // candidates has seen the n newest, whatever the group borders.
        let mut d = dev();
        let mut idx = three_generations(&mut d, |_| vec![8]);
        let mut walk = idx.walk(0, 8);
        let mut first_four = Vec::new();
        while first_four.len() < 4 {
            first_four.extend(step(&mut idx, &mut d, &mut walk).0);
        }
        assert_eq!(first_four, vec![6, 5, 4, 3]);
    }

    #[test]
    fn a_group_retired_mid_walk_is_neither_skipped_nor_revisited() {
        // The newer sealed group (seqs 3..6) retires under the walk, as
        // a quarantine retires it: once just after the walk visited it,
        // once just before.
        for (retire_after, want) in [(2, vec![6, 5, 4, 3, 2, 1, 0]), (1, vec![6, 2, 1, 0])] {
            let mut d = dev();
            let mut idx = three_generations(&mut d, |_| vec![8]);
            let mut walk = idx.walk(0, 8);
            let mut seen = Vec::new();
            for steps in 1..=4 {
                seen.extend(step(&mut idx, &mut d, &mut walk).0);
                if steps == retire_after {
                    (3..6).for_each(|seq| idx.on_evict(seq));
                    assert_eq!(idx.group_count(), 1);
                }
            }
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn recently_active_reflects_cache_and_buffer() {
        let mut d = dev();
        let mut idx = index();
        idx.set_cache_capacity(64);
        add(&mut idx, &mut d, 0, 10, of_set(&[8])).unwrap();
        // Building: always "recently active".
        assert!(idx.is_recently_active(0, 0));
        for seq in 1..3u64 {
            add(&mut idx, &mut d, seq, 10, of_set(&[8])).unwrap();
        }
        // Persisted but not yet cached.
        assert!(!idx.is_recently_active(0, 0));
        drain(&mut idx, &mut d, 0, 8);
        assert!(idx.is_recently_active(0, 0), "fetch populates the cache");
    }

    #[test]
    fn failed_seal_keeps_the_group_in_memory() {
        use nemo_flash::{FaultOp, FaultPlan, FaultyFlash};
        // The group's seal (4 attempts) and the retry before the next SG
        // (4 more) exhaust their transient budgets; the third seal lands.
        let plan = FaultPlan::new(7).fail_next(FaultOp::Write, 8);
        let mut d = FaultyFlash::new(dev(), plan);
        let mut idx = index();
        idx.set_cache_capacity(64);
        let add_one = |idx: &mut PbfgIndex, d: &mut FaultyFlash<SimFlash>, seq: u64| {
            add(idx, d, seq, 10, of_set(&[seq + 8]))
        };
        let finds = |idx: &mut PbfgIndex, d: &mut FaultyFlash<SimFlash>, seq: u64| {
            drain(idx, d, seq as u32 % SETS, seq + 8).0 == vec![SgCandidate { seq, zone: 10 }]
        };
        add_one(&mut idx, &mut d, 0).unwrap();
        add_one(&mut idx, &mut d, 1).unwrap();
        assert!(add_one(&mut idx, &mut d, 2).is_err(), "the seal fails");
        assert_eq!(idx.group_count(), 0);
        assert_eq!(idx.buffer_bytes(), 3 * SETS as u64 * 64);
        for seq in 0..3 {
            assert!(finds(&mut idx, &mut d, seq), "SG {seq} lost with the seal");
            assert!(idx.is_recently_active(seq, 0));
        }
        // Still full: the next SG cannot enter before the seal lands.
        assert!(
            add_one(&mut idx, &mut d, 3).is_err(),
            "the retried seal fails"
        );
        assert!(!idx.live_seqs().contains(&3));
        assert!((0..3).all(|seq| finds(&mut idx, &mut d, seq)));
        let (wrote, _) = add_one(&mut idx, &mut d, 4).unwrap();
        assert_eq!(wrote, SETS as u64 * 512, "the retried seal lands");
        assert_eq!(idx.group_count(), 1);
        assert_eq!(idx.buffer_bytes(), SETS as u64 * 64);
        assert!([0, 1, 2, 4]
            .into_iter()
            .all(|seq| finds(&mut idx, &mut d, seq)));
        // A dead pool zone fails every seal; the SGs stay reachable and
        // evictable all the same.
        let plan = FaultPlan::new(7).kill_zone(ZoneId(0), 0);
        let mut d = FaultyFlash::new(dev(), plan);
        let mut idx = index();
        for seq in 0..3 {
            assert_eq!(add_one(&mut idx, &mut d, seq).is_err(), seq == 2);
        }
        assert!((0..3).all(|seq| finds(&mut idx, &mut d, seq)));
        idx.on_evict(1);
        assert!(!finds(&mut idx, &mut d, 1));
        assert_eq!(idx.live_seqs(), vec![0, 2]);
    }

    /// The walk against a reference that keeps one `BloomFilter` per
    /// (SG, set) of the keys the index was given, answers with
    /// `BloomFilter::contains` and models the PBFG cache as a set of page
    /// names.
    mod differential {
        use super::super::*;
        use super::{add, next, sliced_regions};
        use crate::checkpoint::{Reader, Writer};
        use nemo_bloom::BloomFilter;
        use nemo_flash::{Geometry, LatencyModel, SimFlash};
        use nemo_util::Xoshiro256StarStar;
        use proptest::prelude::*;
        use std::collections::HashSet;

        const SETS: u32 = 4;
        const PAGE: u32 = 4096;
        const POOL_ZONES: u32 = 8;
        const GROUP_SIZES: [u32; 6] = [1, 8, 50, 64, 65, 128];
        const KEYS: u64 = 160;

        #[derive(Default)]
        struct RefGroup {
            /// Seals before this one, as the index numbers its groups.
            id: u64,
            /// Slot -> live SG and its filters, one per set.
            slots: Vec<Option<(SgCandidate, Vec<BloomFilter>)>>,
        }

        impl RefGroup {
            fn live(&self) -> impl Iterator<Item = &(SgCandidate, Vec<BloomFilter>)> {
                self.slots.iter().flatten()
            }

            /// Appends the group's candidates for `key`, newest first;
            /// whether it had any.
            fn query(&self, set: u32, key: u64, out: &mut Vec<SgCandidate>) -> bool {
                let mut found: Vec<SgCandidate> = self
                    .live()
                    .filter(|(_, f)| f[set as usize].contains(key))
                    .map(|(c, _)| *c)
                    .collect();
                found.sort_by_key(|c| std::cmp::Reverse(c.seq));
                out.extend_from_slice(&found);
                !found.is_empty()
            }
        }

        #[derive(Default)]
        struct Reference {
            group_sgs: usize,
            building: RefGroup,
            groups: Vec<RefGroup>,
            /// The PBFG cache as the parent kept it: names of resident
            /// pages, and a FIFO whose entries may outlive their group.
            resident: HashSet<(u64, u32)>,
            fifo: VecDeque<(u64, u32)>,
            capacity: usize,
            stats: IndexStats,
        }

        impl Reference {
            /// Buffers the SG; when that seals the group, the pool pages
            /// it must have appended: bit-sliced, bit `p` of slot `j` at
            /// page bit `p * group_sgs + j`, a dead slot as zeros.
            fn add_sg(&mut self, sg: SgCandidate, filters: Vec<BloomFilter>) -> Option<Vec<u8>> {
                self.building.slots.push(Some((sg, filters)));
                if self.building.slots.len() < self.group_sgs {
                    return None;
                }
                let slots = self.building.slots.iter();
                let slots = slots.map(|sg| sg.as_ref().map(|(_, f)| f.as_slice()));
                let pages = sliced_regions(slots, SETS as usize, self.group_sgs, PAGE as usize);
                self.building.id = self.stats.pool_pages_written / SETS as u64;
                self.groups.push(std::mem::take(&mut self.building));
                self.stats.pool_pages_written += SETS as u64;
                Some(pages)
            }

            fn on_evict(&mut self, seq: u64) {
                let groups = self.groups.iter_mut().chain([&mut self.building]);
                for g in groups {
                    for slot in g.slots.iter_mut() {
                        if slot.as_ref().is_some_and(|(c, _)| c.seq == seq) {
                            *slot = None;
                        }
                    }
                }
                let resident = &mut self.resident;
                self.groups.retain(|g| {
                    let live = g.live().next().is_some();
                    if !live {
                        resident.retain(|&(id, _)| id != g.id);
                    }
                    live
                });
            }

            fn set_cache_capacity(&mut self, pages: usize) {
                self.capacity = pages;
                while self.resident.len() > self.capacity {
                    let Some(page) = self.fifo.pop_front() else {
                        break;
                    };
                    self.resident.remove(&page);
                }
            }

            /// The walk, left once `stop_after` groups have yielded
            /// candidates: those, newest first, and the index-pool pages
            /// fetched.
            fn walk(&mut self, set: u32, key: u64, stop_after: usize) -> (Vec<SgCandidate>, u32) {
                let mut out = Vec::new();
                let mut yielded = 0;
                if self.building.live().next().is_some() {
                    self.stats.cache_hits += 1;
                    yielded += usize::from(self.building.query(set, key, &mut out));
                }
                let mut fetched = 0;
                let mut unvisited = self.groups.len();
                for g in self.groups.iter().rev() {
                    if yielded >= stop_after {
                        break;
                    }
                    unvisited -= 1;
                    let page = (g.id, set);
                    if self.resident.contains(&page) {
                        self.stats.cache_hits += 1;
                    } else {
                        self.stats.cache_misses += 1;
                        fetched += 1;
                        if self.capacity > 0 {
                            self.resident.insert(page);
                            self.fifo.push_back(page);
                        }
                    }
                    yielded += usize::from(g.query(set, key, &mut out));
                    // (Eviction after the probe, as the index does it;
                    // the order cannot matter to a model without bytes.)
                    while self.resident.len() > self.capacity {
                        let Some(old) = self.fifo.pop_front() else {
                            break;
                        };
                        self.resident.remove(&old);
                    }
                }
                self.stats.superseded_cutoffs += u64::from(unvisited > 0);
                (out, fetched)
            }

            fn live_seqs(&self) -> Vec<u64> {
                let groups = self.groups.iter().chain([&self.building]);
                groups.flat_map(|g| g.live().map(|(c, _)| c.seq)).collect()
            }
        }

        /// One random interleaving of `add_sg`, `on_evict`,
        /// `set_cache_capacity` and walks (drained, or left after a few
        /// groups) on both sides, with a checkpoint round trip of the
        /// index at op `checkpoint_at`.
        fn run(group_sgs: u32, seed: u64, checkpoint_at: Option<u64>) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            // A filter size the group fits a page with, and a hash
            // count from none-to-spare (k = 1 has no second probe).
            let sizes: Vec<u32> = [8, 32, 72]
                .into_iter()
                .filter(|fb| fb * group_sgs <= PAGE)
                .collect();
            let fb = sizes[rng.next_below(sizes.len() as u64) as usize];
            let hashes = [1, 2, 5, 10][rng.next_below(4) as usize];
            let mut dev = SimFlash::with_latency(
                Geometry::new(PAGE, 2 * SETS, POOL_ZONES, 2),
                LatencyModel::zero(),
            );
            let pool: Vec<u32> = (0..POOL_ZONES).collect();
            let mut idx = PbfgIndex::new(pool.clone(), SETS, PAGE, fb, hashes, group_sgs);
            let mut reference = Reference {
                group_sgs: group_sgs as usize,
                ..Reference::default()
            };
            // SGs live at most `max_live` flushes: at most seven live
            // groups in a pool of sixteen.
            let max_live = (group_sgs as usize * 5).max(8);
            let ops = 6 * group_sgs as u64 + 200;
            let mut live: VecDeque<u64> = VecDeque::new();
            let mut next_seq = 0u64;
            for op in 0..ops {
                if checkpoint_at == Some(op) {
                    let mut w = Writer::new();
                    idx.checkpoint_encode(&mut w);
                    let image = w.finish();
                    let mut r = Reader::parse(&image).unwrap();
                    idx = PbfgIndex::checkpoint_decode(
                        &mut r,
                        pool.clone(),
                        SETS,
                        PAGE,
                        fb,
                        hashes,
                        group_sgs,
                    )
                    .unwrap();
                    r.done().unwrap();
                    // The cache restarts cold.
                    idx.set_cache_capacity(reference.capacity);
                    reference.resident.clear();
                    reference.fifo.clear();
                }
                let dice = rng.next_f64();
                let overdue = live.len() >= max_live
                    || live
                        .front()
                        .is_some_and(|&seq| seq + max_live as u64 <= next_seq);
                if dice < 0.40 && !overdue {
                    let sg = SgCandidate {
                        seq: next_seq,
                        zone: rng.next_below(64) as u32,
                    };
                    next_seq += 1;
                    let mut filters: Vec<BloomFilter> = (0..SETS)
                        .map(|_| BloomFilter::with_geometry(fb as u64 * 8, hashes))
                        .collect();
                    // From sparse to saturated filters.
                    let n = rng.next_below(4 * fb as u64 / 8 + 2);
                    let keys: Vec<u64> = (0..n).map(|_| rng.next_below(KEYS)).collect();
                    for &k in &keys {
                        filters[(k % SETS as u64) as usize].insert(k);
                    }
                    let of_set = |set: usize| {
                        let keys = keys.iter().copied();
                        keys.filter(move |k| k % SETS as u64 == set as u64)
                    };
                    let (wrote, _) = add(&mut idx, &mut dev, sg.seq, sg.zone, of_set).unwrap();
                    let sealed = reference.add_sg(sg, filters);
                    assert_eq!(wrote, sealed.as_ref().map_or(0, |pages| pages.len() as u64));
                    if let Some(want) = sealed {
                        let base = idx.groups.back().expect("just sealed").base;
                        let (on_flash, _) = dev.read_pages(base, SETS, Nanos::ZERO).unwrap();
                        assert!(on_flash == want, "op {op}: sealed pages differ");
                    }
                    live.push_back(sg.seq);
                } else if dice < 0.55 || overdue {
                    // Mostly the oldest SG, as the engine evicts.
                    if !live.is_empty() {
                        let any = !overdue && rng.chance(0.3);
                        let at = if any {
                            rng.next_below(live.len() as u64)
                        } else {
                            0
                        };
                        let seq = live.remove(at as usize).unwrap();
                        idx.on_evict(seq);
                        reference.on_evict(seq);
                    }
                } else if dice < 0.60 {
                    let pages = rng.next_below(idx.persisted_pages() + 2) as usize;
                    idx.set_cache_capacity(pages);
                    reference.set_cache_capacity(pages);
                } else {
                    let set = rng.next_below(SETS as u64) as u32;
                    let key = rng.next_below(KEYS + KEYS / 4);
                    // Drained to exhaustion, or left as a get leaves it.
                    let stop_after = if rng.chance(0.5) {
                        usize::MAX
                    } else {
                        1 + rng.next_below(3) as usize
                    };
                    let capped = rng.chance(0.1);
                    let mut walk = idx.walk(set, key);
                    let (mut got, mut group, mut got_fetched) = (Vec::new(), Vec::new(), 0);
                    for _ in 0..stop_after {
                        let step = next(&mut idx, &mut dev, &mut walk, &mut group);
                        got_fetched += step.unwrap().0;
                        if group.is_empty() {
                            break;
                        }
                        got.extend_from_slice(&group);
                    }
                    idx.finish_walk(&walk, capped);
                    let (want, fetched) = reference.walk(set, key, stop_after);
                    reference.stats.capped_queries += u64::from(capped);
                    assert_eq!(got, want, "op {op}: set {set}, key {key}");
                    assert_eq!(got_fetched, fetched, "op {op}");
                }
                assert_eq!(idx.stats(), reference.stats, "op {op}");
                assert_eq!(idx.group_count(), reference.groups.len());
                let resident = reference.resident.len() as u64;
                assert_eq!(idx.cache_bytes(), resident * (group_sgs * fb) as u64);
                let buffered = reference.building.live().count() as u64;
                assert_eq!(idx.buffer_bytes(), buffered * (SETS * fb) as u64);
                if let Some(&seq) = live.get(rng.next_below(live.len().max(1) as u64) as usize) {
                    let set = rng.next_below(SETS as u64) as u32;
                    let group = reference
                        .groups
                        .iter()
                        .find(|g| g.live().any(|(c, _)| c.seq == seq));
                    let want = group.is_none_or(|g| reference.resident.contains(&(g.id, set)));
                    assert_eq!(idx.is_recently_active(seq, set), want);
                }
            }
            let (mut got, mut want) = (idx.live_seqs(), reference.live_seqs());
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }

        #[test]
        fn every_group_size() {
            for (i, &group_sgs) in GROUP_SIZES.iter().enumerate() {
                for seed in 0..12u64 {
                    run(group_sgs, seed * 100 + i as u64, None);
                }
            }
        }

        #[test]
        fn checkpoint_mid_group_answers_the_same() {
            for (i, &group_sgs) in GROUP_SIZES.iter().enumerate() {
                // Late enough that groups have sealed and another is
                // part built.
                let at = 2 * group_sgs as u64 + 60 + i as u64;
                run(group_sgs, 40 + i as u64, Some(at));
                run(group_sgs, 50 + i as u64, Some(at / 2));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn random_interleavings_match_the_reference(
                group in 0usize..GROUP_SIZES.len(),
                seed in any::<u64>(),
                checkpoint_at in 0u64..1000,
            ) {
                // Past the run's last op means no checkpoint.
                run(GROUP_SIZES[group], seed, Some(checkpoint_at));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(20_000))]

            /// Deep variant of the sweep above. Run explicitly with
            /// `cargo test -- --ignored`.
            #[test]
            #[ignore = "deep generative sweep; run via the scheduled CI job"]
            fn random_interleavings_match_the_reference_deep(
                group in 0usize..GROUP_SIZES.len(),
                seed in any::<u64>(),
                checkpoint_at in 0u64..1000,
            ) {
                run(GROUP_SIZES[group], seed, Some(checkpoint_at));
            }
        }
    }
}
