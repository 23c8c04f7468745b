//! The hierarchical front-tier log (HLog) shared by Kangaroo and FairyWREN.
//!
//! A small ring of zones buffers incoming tiny objects. An in-memory hash
//! table with one chain per back-tier set records every live log object, so
//! migration can gather *all* objects bound for a set in one batch — the
//! `E(L_i)` of the paper's §3.2 model.

use nemo_engine::codec::PageBuf;
use nemo_engine::{device, EngineStats};
use nemo_flash::{FlashError, Nanos, PageAddr, ZoneId, ZoneState, ZonedFlash};
use std::collections::{HashMap, HashSet};

/// One object living in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogObj {
    /// Object key.
    pub key: u64,
    /// Object size in bytes.
    pub size: u32,
    /// On-flash location; `None` while still in the write buffer.
    pub addr: Option<PageAddr>,
}

/// Result of a log insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogInsert {
    /// Completion time of any flash write this insert triggered.
    pub done_at: Nanos,
    /// Bytes appended to flash by this insert (0 if only buffered).
    pub flushed_bytes: u64,
}

/// The hierarchical log tier.
///
/// Callers must check [`HierLog::must_reclaim_before`] and migrate the
/// [`HierLog::oldest_full_zone`] before inserting when it returns `true`;
/// the log never drops objects on its own.
#[derive(Debug)]
pub struct HierLog {
    zone_ids: Vec<u32>,
    open_idx: usize,
    page: PageBuf,
    /// `(set, key)` of objects in the write buffer.
    pending: Vec<(u64, u64)>,
    /// set id -> live objects bound for that set (insertion order).
    per_set: HashMap<u64, Vec<LogObj>>,
    /// zone id -> sets that have (or had) objects in that zone.
    zone_sets: HashMap<u32, HashSet<u64>>,
    page_size: usize,
    objects: u64,
    bytes: u64,
}

impl HierLog {
    /// Creates a log over the given zones (must be non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `zone_ids` is empty.
    pub fn new(zone_ids: Vec<u32>, page_size: usize) -> Self {
        assert!(!zone_ids.is_empty(), "log needs at least one zone");
        Self {
            zone_ids,
            open_idx: 0,
            page: PageBuf::new(page_size),
            pending: Vec::new(),
            per_set: HashMap::new(),
            zone_sets: HashMap::new(),
            page_size,
            objects: 0,
            bytes: 0,
        }
    }

    /// Number of zones in the log ring.
    pub fn zone_count(&self) -> usize {
        self.zone_ids.len()
    }

    /// Live objects in the log (buffer included).
    pub fn object_count(&self) -> u64 {
        self.objects
    }

    /// Live bytes in the log (buffer included).
    pub fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// Mean chain length over non-empty sets — `E(L_i)` in §3.2.
    pub fn mean_chain_len(&self) -> f64 {
        if self.per_set.is_empty() {
            0.0
        } else {
            self.objects as f64 / self.per_set.len() as f64
        }
    }

    /// Looks up a key bound for `set`; returns its location if live.
    pub fn lookup(&self, set: u64, key: u64) -> Option<LogObj> {
        self.per_set
            .get(&set)?
            .iter()
            .rev() // newest version wins
            .find(|o| o.key == key)
            .copied()
    }

    /// Whether an insert of `size` bytes would require reclaiming a log
    /// zone first.
    pub fn must_reclaim_before<D: ZonedFlash>(&self, dev: &D, size: u32) -> bool {
        if (size as usize) <= self.page.remaining() {
            return false;
        }
        let open = ZoneId(self.zone_ids[self.open_idx]);
        if dev.write_pointer(open) < dev.geometry().pages_per_zone() {
            return false;
        }
        let next = self.zone_ids[(self.open_idx + 1) % self.zone_ids.len()];
        dev.zone_state(ZoneId(next)) != ZoneState::Empty
    }

    /// The zone that must be migrated next (ring order), if any is full.
    pub fn oldest_full_zone<D: ZonedFlash>(&self, dev: &D) -> Option<u32> {
        let next = self.zone_ids[(self.open_idx + 1) % self.zone_ids.len()];
        (dev.zone_state(ZoneId(next)) == ZoneState::Full).then_some(next)
    }

    /// Inserts an object bound for `set`.
    ///
    /// A buffer flush goes through [`device::append`], charged to
    /// `stats`; a permanent append failure is fatal for the log ring and
    /// is returned to the caller.
    ///
    /// # Errors
    ///
    /// Returns the device error when a buffer flush fails permanently.
    ///
    /// # Panics
    ///
    /// Panics if the log is out of space — call
    /// [`Self::must_reclaim_before`] first.
    pub fn insert<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        set: u64,
        key: u64,
        size: u32,
        now: Nanos,
    ) -> Result<LogInsert, FlashError> {
        let mut result = LogInsert {
            done_at: now,
            flushed_bytes: 0,
        };
        if (size as usize) > self.page.remaining() {
            let flushed = self.flush(dev, stats, now)?;
            result.done_at = flushed.done_at;
            result.flushed_bytes = flushed.flushed_bytes;
        }
        let pushed = self.page.try_push(key, size);
        assert!(pushed, "object must fit in an empty log page");
        self.pending.push((set, key));
        // Replace any older version of this key in the chain.
        let chain = self.per_set.entry(set).or_default();
        if let Some(pos) = chain.iter().position(|o| o.key == key) {
            let old = chain.remove(pos);
            self.bytes -= old.size as u64;
            self.objects -= 1;
        }
        chain.push(LogObj {
            key,
            size,
            addr: None,
        });
        self.objects += 1;
        self.bytes += size as u64;
        Ok(result)
    }

    /// Flushes the write buffer to flash (no-op when empty).
    ///
    /// # Errors
    ///
    /// Returns the device error when the append fails permanently; the
    /// buffered objects are lost and the log ring can no longer accept
    /// writes (callers treat this as a fatal engine error).
    pub fn flush<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        now: Nanos,
    ) -> Result<LogInsert, FlashError> {
        if self.page.is_empty() {
            return Ok(LogInsert {
                done_at: now,
                flushed_bytes: 0,
            });
        }
        let ppz = dev.geometry().pages_per_zone();
        if dev.write_pointer(ZoneId(self.zone_ids[self.open_idx])) >= ppz {
            self.open_idx = (self.open_idx + 1) % self.zone_ids.len();
            assert_eq!(
                dev.zone_state(ZoneId(self.zone_ids[self.open_idx])),
                ZoneState::Empty,
                "caller must reclaim the next log zone before it is reused"
            );
        }
        let zone = self.zone_ids[self.open_idx];
        let page = std::mem::replace(&mut self.page, PageBuf::new(self.page_size));
        let bytes = page.finish();
        let (addr, done) = device::append(dev, stats, ZoneId(zone), &bytes, now)?;
        // Bind buffered objects that are still live to their flash address
        // and remember which sets now have data in this zone.
        let zone_set = self.zone_sets.entry(zone).or_default();
        for (set, key) in self.pending.drain(..) {
            let Some(chain) = self.per_set.get_mut(&set) else {
                continue; // drained while buffered
            };
            if let Some(obj) = chain.iter_mut().find(|o| o.key == key && o.addr.is_none()) {
                obj.addr = Some(addr);
                zone_set.insert(set);
            }
        }
        Ok(LogInsert {
            done_at: done,
            flushed_bytes: bytes.len() as u64,
        })
    }

    /// Sets that may still have live objects in `zone`, ascending: a GC
    /// victim's sets migrate in this order, which must not be the hash
    /// set's per-process one.
    pub fn sets_touching(&self, zone: u32) -> Vec<u64> {
        let mut sets: Vec<u64> = self
            .zone_sets
            .get(&zone)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        sets.sort_unstable();
        sets
    }

    /// Removes and returns every live object bound for `set` (the whole
    /// chain — passive and active migration both drain full chains).
    pub fn drain_set(&mut self, set: u64) -> Vec<LogObj> {
        match self.per_set.remove(&set) {
            Some(chain) => {
                for o in &chain {
                    self.bytes -= o.size as u64;
                    self.objects -= 1;
                }
                chain
            }
            None => Vec::new(),
        }
    }

    /// Resets a fully migrated zone and forgets its bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns the device error when the reset fails permanently; the
    /// zone can never be reused, so the ring is wedged (callers treat
    /// this as a fatal engine error).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if live objects still point into the zone.
    pub fn release_zone<D: ZonedFlash>(
        &mut self,
        dev: &mut D,
        stats: &mut EngineStats,
        zone: u32,
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        debug_assert!(
            !self
                .per_set
                .values()
                .flatten()
                .any(|o| o.addr.is_some_and(|a| a.zone == zone)),
            "releasing a log zone with live objects"
        );
        self.zone_sets.remove(&zone);
        device::reset(dev, stats, ZoneId(zone), now)
    }

    /// Modelled metadata bytes of the log index (paper §2.3 prices a
    /// compressed hierarchical-log entry at 48 bits ≈ 6 B per object).
    pub fn modeled_index_bytes(&self) -> u64 {
        self.objects * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_flash::{Geometry, LatencyModel, SimFlash};

    fn dev() -> SimFlash {
        SimFlash::with_latency(Geometry::new(512, 4, 8, 2), LatencyModel::zero())
    }

    fn log() -> HierLog {
        HierLog::new(vec![0, 1, 2], 512)
    }

    #[test]
    fn insert_and_lookup_buffered() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut l = log();
        l.insert(&mut d, &mut io, 5, 100, 64, Nanos::ZERO).unwrap();
        let obj = l.lookup(5, 100).expect("present");
        assert_eq!(obj.addr, None);
        assert_eq!(l.object_count(), 1);
    }

    #[test]
    fn flush_binds_addresses() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut l = log();
        l.insert(&mut d, &mut io, 5, 100, 64, Nanos::ZERO).unwrap();
        l.flush(&mut d, &mut io, Nanos::ZERO).unwrap();
        let obj = l.lookup(5, 100).expect("present");
        assert_eq!(obj.addr, Some(PageAddr::new(0, 0)));
        assert_eq!(l.sets_touching(0), vec![5]);
    }

    #[test]
    fn duplicate_key_replaces_older_version() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut l = log();
        l.insert(&mut d, &mut io, 5, 100, 64, Nanos::ZERO).unwrap();
        l.insert(&mut d, &mut io, 5, 100, 80, Nanos::ZERO).unwrap();
        assert_eq!(l.object_count(), 1);
        assert_eq!(l.lookup(5, 100).expect("live").size, 80);
    }

    #[test]
    fn drain_set_empties_chain() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut l = log();
        for k in 0..5u64 {
            l.insert(&mut d, &mut io, 9, k, 64, Nanos::ZERO).unwrap();
        }
        let objs = l.drain_set(9);
        assert_eq!(objs.len(), 5);
        assert_eq!(l.object_count(), 0);
        assert!(l.lookup(9, 0).is_none());
        assert!(l.drain_set(9).is_empty());
    }

    #[test]
    fn reclaim_protocol() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut l = log();
        // 3 zones x 4 pages x 512B; each insert of 400 B fills most of a
        // page. Fill until a reclaim is demanded.
        let mut k = 0u64;
        while !l.must_reclaim_before(&d, 400) {
            l.insert(&mut d, &mut io, k % 7, k, 400, Nanos::ZERO)
                .unwrap();
            k += 1;
            assert!(k < 100, "reclaim never triggered");
        }
        let victim = l.oldest_full_zone(&d).expect("full zone");
        for set in l.sets_touching(victim) {
            l.drain_set(set);
        }
        l.release_zone(&mut d, &mut io, victim, Nanos::ZERO)
            .unwrap();
        assert!(!l.must_reclaim_before(&d, 400));
        // Ring continues working after reclaim.
        l.insert(&mut d, &mut io, 1, 10_000, 400, Nanos::ZERO)
            .unwrap();
    }

    #[test]
    fn mean_chain_len_tracks_objects() {
        let mut d = dev();
        let mut io = EngineStats::default();
        let mut l = log();
        for k in 0..6u64 {
            l.insert(&mut d, &mut io, k % 2, k, 64, Nanos::ZERO)
                .unwrap();
        }
        assert!((l.mean_chain_len() - 3.0).abs() < 1e-9);
    }
}
