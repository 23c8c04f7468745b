//! The hierarchical back-tier set region (HSet) shared by Kangaroo and
//! FairyWREN.
//!
//! Set pages are log-structured over a pool of zones (host-FTL style, as
//! FairyWREN manages its wren interface): writing a set appends a fresh
//! page at the frontier and invalidates the old copy. When free zones run
//! out, the engine garbage-collects a victim zone — what it does with the
//! victim's valid sets is the defining difference between Kangaroo
//! (relocation, Case 3.1) and FairyWREN (merge with pending log objects,
//! Case 3.2), so GC policy lives in the engines and this type only provides
//! the mechanics.

use nemo_engine::{device, EngineStats};
use nemo_flash::{FlashError, Nanos, PageAddr, ZoneId, ZonedFlash};
use std::collections::{HashMap, VecDeque};

/// Why a set page was written — drives the paper's Fig. 4/5 accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetWriteKind {
    /// Log-full migration (paper Case 2).
    Passive,
    /// GC-driven migration (paper Case 3.2) or writeback.
    Active,
    /// Pure GC relocation with no new objects (Kangaroo, Case 3.1).
    Relocation,
}

/// The set region: zones, the set→page mapping and valid-page accounting.
#[derive(Debug)]
pub struct HsetRegion {
    zone_ids: Vec<u32>,
    n_sets: u64,
    set_loc: Vec<Option<PageAddr>>,
    /// flat page index -> owning set (valid pages only).
    page_set: HashMap<u64, u64>,
    /// zone id -> valid page count.
    zone_valid: HashMap<u32, u32>,
    free: VecDeque<u32>,
    open: Option<u32>,
}

impl HsetRegion {
    /// Creates a region over `zone_ids` exposing `n_sets` usable sets.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than three zones (frontier + GC headroom)
    /// or no sets.
    pub fn new(zone_ids: Vec<u32>, n_sets: u64) -> Self {
        assert!(zone_ids.len() >= 3, "set region needs >= 3 zones");
        assert!(n_sets > 0, "set region needs sets");
        let zone_valid = zone_ids.iter().map(|&z| (z, 0)).collect();
        Self {
            free: zone_ids.iter().copied().collect(),
            zone_ids,
            n_sets,
            set_loc: vec![None; n_sets as usize],
            page_set: HashMap::new(),
            zone_valid,
            open: None,
        }
    }

    /// Number of usable sets.
    pub fn n_sets(&self) -> u64 {
        self.n_sets
    }

    /// Total pages across the region's zones.
    pub fn total_pages<D: ZonedFlash>(&self, dev: &D) -> u64 {
        self.zone_ids.len() as u64 * dev.geometry().pages_per_zone() as u64
    }

    /// Current flash location of a set, if it has ever been written.
    pub fn location(&self, set: u64) -> Option<PageAddr> {
        self.set_loc[set as usize]
    }

    /// Whether a GC pass should run now (keeps one spare zone beyond the
    /// open frontier).
    pub fn needs_gc<D: ZonedFlash>(&self, dev: &D) -> bool {
        let frontier_room = self
            .open
            .is_some_and(|z| dev.write_pointer(ZoneId(z)) < dev.geometry().pages_per_zone());
        let free_needed = if frontier_room { 1 } else { 2 };
        self.free.len() < free_needed
    }

    /// Appends `bytes` (one page) as the new copy of `set`, invalidating
    /// the previous copy.
    ///
    /// The append goes through [`device::append`], charged to `stats`; a
    /// frontier zone that fails permanently is retired (its valid sets
    /// are dropped) and the append moves to the next free zone.
    ///
    /// # Errors
    ///
    /// Returns a permanent device error once no usable set zone remains.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range. Callers must still run
    /// [`Self::needs_gc`] / collection before appending; exhausting the
    /// free list without device failures is a GC-invariant violation and
    /// also surfaces as the `Err` above.
    pub fn append_set<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        set: u64,
        bytes: &[u8],
        now: Nanos,
    ) -> Result<(PageAddr, Nanos), FlashError> {
        assert!(set < self.n_sets, "set out of range");
        loop {
            let Some(zone) = self.frontier(dev) else {
                return Err(FlashError::io_permanent("no usable set zones remain"));
            };
            match device::append(dev, stats, ZoneId(zone), bytes, now) {
                Ok((addr, done)) => {
                    if dev.write_pointer(ZoneId(zone)) == dev.geometry().pages_per_zone() {
                        self.open = None;
                    }
                    let geom = dev.geometry();
                    if let Some(old) = self.set_loc[set as usize] {
                        self.page_set.remove(&geom.flat_index(old));
                        *self.zone_valid.get_mut(&old.zone).expect("tracked zone") -= 1;
                    }
                    self.set_loc[set as usize] = Some(addr);
                    self.page_set.insert(geom.flat_index(addr), set);
                    *self.zone_valid.get_mut(&addr.zone).expect("tracked zone") += 1;
                    return Ok((addr, done));
                }
                Err(_) => self.retire_zone(dev, stats, zone),
            }
        }
    }

    fn frontier<D: ZonedFlash>(&mut self, dev: &D) -> Option<u32> {
        if let Some(z) = self.open {
            if dev.write_pointer(ZoneId(z)) < dev.geometry().pages_per_zone() {
                return Some(z);
            }
        }
        let z = self.free.pop_front()?;
        self.open = Some(z);
        Some(z)
    }

    /// Permanently removes `zone` from the region after a device failure,
    /// dropping any valid sets it still held (their next lookup misses),
    /// and counts it in `stats.quarantined_zones`.
    pub fn retire_zone<D: ZonedFlash>(&mut self, dev: &D, stats: &mut EngineStats, zone: u32) {
        if !self.zone_ids.contains(&zone) {
            return;
        }
        self.zone_ids.retain(|&z| z != zone);
        self.free.retain(|&z| z != zone);
        if self.open == Some(zone) {
            self.open = None;
        }
        let geom = dev.geometry();
        for p in 0..geom.pages_per_zone() {
            if let Some(set) = self
                .page_set
                .remove(&geom.flat_index(PageAddr::new(zone, p)))
            {
                self.set_loc[set as usize] = None;
            }
        }
        self.zone_valid.remove(&zone);
        stats.quarantined_zones += 1;
    }

    /// Greedy GC victim: the full zone with the fewest valid pages
    /// (never the frontier). `None` if no zone is collectible.
    pub fn victim<D: ZonedFlash>(&self, dev: &D) -> Option<u32> {
        let ppz = dev.geometry().pages_per_zone();
        self.zone_ids
            .iter()
            .copied()
            .filter(|&z| Some(z) != self.open)
            .filter(|&z| dev.write_pointer(ZoneId(z)) == ppz)
            .min_by_key(|&z| self.zone_valid[&z])
    }

    /// Valid sets remaining in `zone`, in page order.
    pub fn sets_in_zone<D: ZonedFlash>(&self, dev: &D, zone: u32) -> Vec<u64> {
        let geom = dev.geometry();
        (0..geom.pages_per_zone())
            .filter_map(|p| {
                self.page_set
                    .get(&geom.flat_index(PageAddr::new(zone, p)))
                    .copied()
            })
            .collect()
    }

    /// Resets a fully collected zone and returns it to the free list.
    /// A zone whose reset fails permanently is retired instead of being
    /// reused (the reset goes through [`device::reset`], charged to
    /// `stats`).
    ///
    /// # Panics
    ///
    /// Panics if the zone still has valid pages.
    pub fn release_zone<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        zone: u32,
        now: Nanos,
    ) -> Nanos {
        assert_eq!(
            self.zone_valid[&zone], 0,
            "releasing zone {zone} with valid sets"
        );
        match device::reset(dev, stats, ZoneId(zone), now) {
            Ok(done) => {
                self.free.push_back(zone);
                done
            }
            Err(_) => {
                self.retire_zone(dev, stats, zone);
                now
            }
        }
    }

    /// Number of free (empty, unassigned) zones.
    pub fn free_zones(&self) -> usize {
        self.free.len()
    }

    /// Valid pages currently in `zone`.
    pub fn valid_count(&self, zone: u32) -> u32 {
        self.zone_valid[&zone]
    }

    /// Fraction of valid pages across full zones — the paper's "valid sets
    /// in each erased unit is about 50% to 80%" diagnostic for Kangaroo.
    pub fn mean_valid_fraction<D: ZonedFlash>(&self, dev: &D) -> f64 {
        let ppz = dev.geometry().pages_per_zone();
        let full: Vec<u32> = self
            .zone_ids
            .iter()
            .copied()
            .filter(|&z| dev.write_pointer(ZoneId(z)) == ppz)
            .collect();
        if full.is_empty() {
            return 0.0;
        }
        let valid: u64 = full.iter().map(|z| self.zone_valid[z] as u64).sum();
        valid as f64 / (full.len() as u64 * ppz as u64) as f64
    }

    /// Bytes of the host mapping table (set→page, 4 B per set — the paper
    /// prices a flash offset at ~29 bits).
    pub fn modeled_mapping_bytes(&self) -> u64 {
        self.n_sets * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_engine::codec::PageBuf;
    use nemo_flash::{Geometry, LatencyModel, SimFlash};

    fn dev() -> SimFlash {
        SimFlash::with_latency(Geometry::new(512, 4, 8, 2), LatencyModel::zero())
    }

    fn page_with(key: u64) -> Vec<u8> {
        let mut p = PageBuf::new(512);
        p.try_push(key, 100);
        p.finish()
    }

    #[test]
    fn append_tracks_location_and_validity() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut r = HsetRegion::new(vec![0, 1, 2, 3], 16);
        let (addr, _) = r
            .append_set(&mut d, &mut io, 7, &page_with(7), Nanos::ZERO)
            .unwrap();
        assert_eq!(r.location(7), Some(addr));
        assert_eq!(r.zone_valid[&addr.zone], 1);
    }

    #[test]
    fn rewrite_invalidates_old_copy() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut r = HsetRegion::new(vec![0, 1, 2, 3], 16);
        let (a1, _) = r
            .append_set(&mut d, &mut io, 7, &page_with(7), Nanos::ZERO)
            .unwrap();
        let (a2, _) = r
            .append_set(&mut d, &mut io, 7, &page_with(7), Nanos::ZERO)
            .unwrap();
        assert_ne!(a1, a2);
        assert_eq!(r.location(7), Some(a2));
        // Old page no longer valid.
        assert!(!r.page_set.contains_key(&d.geometry().flat_index(a1)));
    }

    #[test]
    fn gc_cycle_reclaims_space() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut r = HsetRegion::new(vec![0, 1, 2, 3], 4);
        // Hammer 4 sets until GC is needed (4 zones x 4 pages = 16 pages).
        let mut writes = 0;
        while !r.needs_gc(&d) {
            r.append_set(&mut d, &mut io, writes % 4, &page_with(writes), Nanos::ZERO)
                .unwrap();
            writes += 1;
            assert!(writes < 64, "needs_gc never fired");
        }
        let victim = r.victim(&d).expect("collectible zone");
        let sets = r.sets_in_zone(&d, victim);
        // Relocate valid sets (Kangaroo-style).
        for s in sets {
            let addr = r.location(s).expect("valid set has a location");
            let (bytes, _) = d.read_pages(addr, 1, Nanos::ZERO).expect("read");
            r.append_set(&mut d, &mut io, s, &bytes, Nanos::ZERO)
                .unwrap();
        }
        r.release_zone(&mut d, &mut io, victim, Nanos::ZERO);
        assert!(r.free_zones() >= 1);
    }

    #[test]
    fn victim_prefers_fewest_valid() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut r = HsetRegion::new(vec![0, 1, 2], 8);
        // Fill zone 0 with sets 0-3, then rewrite 3 of them so zone 0
        // holds mostly garbage.
        for s in 0..4u64 {
            r.append_set(&mut d, &mut io, s, &page_with(s), Nanos::ZERO)
                .unwrap();
        }
        for s in 0..3u64 {
            r.append_set(&mut d, &mut io, s, &page_with(s), Nanos::ZERO)
                .unwrap();
        }
        // Zones 0 and 1 are now full; zone 0 has 1 valid, zone 1 has 3.
        assert_eq!(r.victim(&d), Some(0));
    }

    #[test]
    fn mean_valid_fraction_sane() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut r = HsetRegion::new(vec![0, 1, 2], 8);
        for s in 0..4u64 {
            r.append_set(&mut d, &mut io, s, &page_with(s), Nanos::ZERO)
                .unwrap();
        }
        let f = r.mean_valid_fraction(&d);
        assert!((0.99..=1.0).contains(&f), "one full, fully-valid zone: {f}");
    }

    #[test]
    #[should_panic(expected = "valid sets")]
    fn release_with_valid_pages_panics() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut r = HsetRegion::new(vec![0, 1, 2], 8);
        for s in 0..4u64 {
            r.append_set(&mut d, &mut io, s, &page_with(s), Nanos::ZERO)
                .unwrap();
        }
        r.release_zone(&mut d, &mut io, 0, Nanos::ZERO);
    }
}
