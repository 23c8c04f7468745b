//! Nemo configuration (paper Table 3, scaled to simulation geometry).

use nemo_bloom::{sizing, PackedLayout};
use nemo_flash::{Geometry, LatencyModel, ZonedFlash};

/// Configuration of the [`crate::Nemo`] engine.
///
/// Defaults mirror Table 3: set size = flash page, SG = one erase unit,
/// two in-memory SGs, count-based flushing threshold 4096, 0.1 % PBFG
/// false-positive rate, 50 % cached PBFGs, hotness tracked over the last
/// 30 % of the cache, cooling every 10 % of cache written.
///
/// Thirteen fields the engine reads: geometry and latency model, six
/// sizing values, the three Fig. 17 technique toggles, and the hotness
/// window and cooling period. A fourteenth, `background_eviction`, is
/// read by nothing. How flash is *read* is not configurable: a get reads
/// candidate set pages one at a time, newest first, until it finds the
/// key (or has read four); every set-page read is one submitted batch
/// whose queue depth is its own length. Neither is how eviction runs: a
/// [`crate::Nemo::background_slice`] reads one victim page, and a flush
/// that finds no free zone reads the rest of the victim as one batch.
#[derive(Debug, Clone)]
pub struct NemoConfig {
    /// Device geometry. One SG occupies exactly one zone.
    pub geometry: Geometry,
    /// Device latency model.
    pub latency: LatencyModel,
    /// Buffered in-memory SGs (Table 3: 2). With
    /// `enable_buffered_sgs = false`, forced to 1.
    pub in_memory_sgs: u32,
    /// Count-based flushing threshold `p_th` (Table 3: 4096): how many
    /// set-level evictions are tolerated before the front SG is flushed.
    pub flush_threshold: u32,
    /// Target false-positive rate of set-level Bloom filters (0.001).
    pub bloom_fpr: f64,
    /// Expected objects per set, used to size the filters (paper: 40).
    pub expected_objects_per_set: u32,
    /// SGs per index group; 0 = auto (as many filters as fit in one page,
    /// capped at 50 like Table 3). Scaled-down pools should use a group
    /// size well below the pool size so the index actually persists.
    pub index_group_sgs: u32,
    /// Fraction of PBFG pages kept in the in-memory index cache (0.5).
    pub cached_pbfg_ratio: f64,
    /// Fraction of the pool (oldest first) with hotness tracking (0.3).
    pub hotness_window: f64,
    /// Cooling period as a fraction of flash capacity written (0.10).
    pub cooling_period: f64,
    /// Technique B: buffered in-memory SGs (Fig. 17 ablation).
    pub enable_buffered_sgs: bool,
    /// Technique P: probabilistic (count-based) flushing.
    pub enable_p_flushing: bool,
    /// Technique W: hotness-aware writeback on eviction.
    pub enable_writeback: bool,
    /// Unused: nothing reads it, and any value behaves the same.
    ///
    /// Eviction has one path. The scan of the oldest SG starts when a
    /// flush consumes the last free zone; a driver that calls
    /// [`crate::Nemo::background_slice`] paces it one victim page at a
    /// time, and otherwise the next flush finishes it in one batch. The
    /// field stays only for callers that still assign it.
    pub background_eviction: bool,
}

impl NemoConfig {
    /// Full-featured configuration over the given geometry.
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            latency: LatencyModel::default(),
            in_memory_sgs: 2,
            flush_threshold: 4096,
            bloom_fpr: 0.001,
            expected_objects_per_set: 40,
            index_group_sgs: 0,
            cached_pbfg_ratio: 0.5,
            hotness_window: 0.3,
            cooling_period: 0.10,
            enable_buffered_sgs: true,
            enable_p_flushing: true,
            enable_writeback: true,
            background_eviction: false,
        }
    }

    /// A small default for tests: 64 MB device, 1 MB zones (256-set SGs),
    /// with the flushing threshold and index-group size scaled down in
    /// proportion to the SG size (the paper's 4096 threshold assumes
    /// 275 712-set SGs).
    pub fn small() -> Self {
        let mut cfg = Self::new(Geometry::new(4096, 256, 64, 8));
        cfg.flush_threshold = 64;
        cfg.index_group_sgs = 8;
        cfg
    }

    /// The naïve configuration from the Fig. 17 ablation: one in-memory
    /// SG, no delayed flushing, no writeback.
    pub fn naive(geometry: Geometry) -> Self {
        Self {
            enable_buffered_sgs: false,
            enable_p_flushing: false,
            enable_writeback: false,
            ..Self::new(geometry)
        }
    }

    /// A shard factory for `nemo-service`: builds one independent Nemo
    /// (with its own simulated device) per shard from this configuration.
    /// The shard index argument is ignored — shards are homogeneous;
    /// write a custom closure for heterogeneous fleets.
    pub fn factory(self) -> impl Fn(usize) -> crate::Nemo + Send + Sync + Clone {
        move |_shard| crate::Nemo::new(self.clone())
    }

    /// A shard factory over a caller-chosen device backend: `make_dev`
    /// receives `(shard, geometry, latency)` and returns the shard's
    /// device (e.g. a `RealFlash` over a per-shard file, or an `AnyFlash`
    /// from `nemo_service::DeviceBackend`). This is the generic
    /// counterpart of [`Self::factory`] behind runtime backend selection.
    pub fn factory_on<D, G>(self, mut make_dev: G) -> impl FnMut(usize) -> crate::Nemo<D> + Send
    where
        D: ZonedFlash,
        G: FnMut(usize, Geometry, LatencyModel) -> D + Send,
    {
        move |shard| {
            let dev = make_dev(shard, self.geometry, self.latency);
            crate::Nemo::with_device(self.clone(), dev)
        }
    }

    /// Sets per SG — one set per page of the SG's zone.
    pub fn sets_per_sg(&self) -> u32 {
        self.geometry.pages_per_zone()
    }

    /// Serialized bytes of one set-level Bloom filter.
    pub fn filter_bytes(&self) -> u32 {
        let bpk = sizing::bits_per_key(self.bloom_fpr);
        let m_bits = ((bpk * self.expected_objects_per_set as f64).ceil() as u64).max(64);
        (m_bits.div_ceil(64) * 8) as u32
    }

    /// Bloom probe count.
    pub fn filter_hashes(&self) -> u32 {
        sizing::optimal_hashes(sizing::bits_per_key(self.bloom_fpr))
    }

    /// SGs covered by one index group — as many set-level filters as fit
    /// in one flash page, capped at 50 as in the paper (Table 3: 50 : 1),
    /// or the explicit [`Self::index_group_sgs`] override.
    pub fn sgs_per_index_group(&self) -> u32 {
        let packing =
            PackedLayout::new(self.geometry.page_size(), self.filter_bytes()).filters_per_page();
        if self.index_group_sgs == 0 {
            packing.min(50)
        } else {
            packing.min(self.index_group_sgs)
        }
    }

    /// Zones reserved for the on-flash index pool.
    ///
    /// Each index group occupies `sets_per_sg` pages (one PBFG page per
    /// set offset); the pool must hold every live group plus rotation
    /// slack.
    pub fn index_zones(&self) -> u32 {
        let data_zone_guess = self.geometry.zone_count();
        let max_groups = data_zone_guess.div_ceil(self.sgs_per_index_group()) + 2;
        let pages = max_groups as u64 * self.sets_per_sg() as u64;
        (pages.div_ceil(self.geometry.pages_per_zone() as u64) as u32 + 1)
            .min(self.geometry.zone_count() / 4)
    }

    /// Zones available for data SGs.
    pub fn data_zones(&self) -> u32 {
        self.geometry.zone_count() - self.index_zones()
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent settings.
    pub fn validate(&self) {
        assert!(self.in_memory_sgs >= 1, "need at least one in-memory SG");
        assert!(
            self.bloom_fpr > 0.0 && self.bloom_fpr < 1.0,
            "bloom_fpr must be in (0,1)"
        );
        assert!(
            (0.0..=1.0).contains(&self.cached_pbfg_ratio),
            "cached_pbfg_ratio in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.hotness_window),
            "hotness_window in [0,1]"
        );
        assert!(self.cooling_period > 0.0, "cooling_period must be positive");
        assert!(
            self.filter_bytes() <= self.geometry.page_size(),
            "a set-level filter must fit in a page"
        );
        assert!(self.data_zones() >= 4, "too few data zones");
    }

    /// Effective number of buffered in-memory SGs after ablation toggles.
    pub fn effective_queue_len(&self) -> u32 {
        if self.enable_buffered_sgs {
            self.in_memory_sgs.max(2)
        } else {
            1
        }
    }

    /// Effective flush threshold after ablation toggles.
    pub fn effective_flush_threshold(&self) -> u32 {
        if self.enable_p_flushing {
            self.flush_threshold
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_filter_sizing() {
        let cfg = NemoConfig::new(Geometry::new(4096, 256, 64, 8));
        // 40 objects at 0.1% -> 576 bits = 72 B (paper §5.1).
        assert_eq!(cfg.filter_bytes(), 72);
        assert_eq!(cfg.filter_hashes(), 10);
        // 4096/72 = 56, capped at 50 per Table 3 (auto mode).
        assert_eq!(cfg.sgs_per_index_group(), 50);
        // Explicit override wins when smaller.
        let mut small = cfg.clone();
        small.index_group_sgs = 8;
        assert_eq!(small.sgs_per_index_group(), 8);
    }

    #[test]
    fn zone_partitioning_adds_up() {
        let cfg = NemoConfig::small();
        cfg.validate();
        assert_eq!(
            cfg.index_zones() + cfg.data_zones(),
            cfg.geometry.zone_count()
        );
        assert!(cfg.index_zones() >= 1);
    }

    #[test]
    fn ablation_toggles() {
        let g = Geometry::new(4096, 256, 64, 8);
        let naive = NemoConfig::naive(g);
        assert_eq!(naive.effective_queue_len(), 1);
        assert_eq!(naive.effective_flush_threshold(), 0);
        let full = NemoConfig::new(g);
        assert_eq!(full.effective_queue_len(), 2);
        assert_eq!(full.effective_flush_threshold(), 4096);
    }

    #[test]
    #[should_panic(expected = "bloom_fpr")]
    fn bad_fpr_rejected() {
        let mut cfg = NemoConfig::small();
        cfg.bloom_fpr = 0.0;
        cfg.validate();
    }
}
