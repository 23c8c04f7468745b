//! Warm restart of a shard fleet.
//!
//! A fleet on a persistent backend ([`DeviceBackend::ModeledFile`] /
//! [`DeviceBackend::Real`]) can be shut down and reopened without
//! refilling from the backing store: [`checkpoint_fleet`] persists each
//! engine's in-memory state next to its device image, and
//! [`ShardedCacheBuilder::open_existing`] reopens every shard with
//! [`nemo_core::Nemo::recover`] — warm (bit-identical, zero flash reads)
//! when the checkpoint matches the device, degrading per shard to a
//! bounded zone scan when it does not.
//!
//! Shard routing is a pure function of the key and the shard count, so a
//! fleet reopened with the same shard count sees every key land on the
//! shard that owns its objects.

use crate::{DeviceBackend, ShardedCache, ShardedCacheBuilder};
use nemo_core::{Nemo, NemoConfig, RecoveryReport};
use nemo_flash::{AnyFlash, FlashError};

/// Persists one warm-restart checkpoint per engine next to its device
/// image (see [`DeviceBackend::write_checkpoint`]). Call with the
/// engines a drained [`ShardedCache::finish`] hands back — checkpointing
/// an undrained engine is safe but pointless, since the next open would
/// find the device generation moved and rescan.
///
/// # Errors
///
/// Fails for the in-memory backend and on any filesystem error.
pub fn checkpoint_fleet(
    backend: &DeviceBackend,
    tag: &str,
    engines: &[Nemo<AnyFlash>],
) -> Result<(), FlashError> {
    for (shard, engine) in engines.iter().enumerate() {
        backend.write_checkpoint(tag, shard, &engine.checkpoint_bytes())?;
    }
    Ok(())
}

impl ShardedCacheBuilder {
    /// Reopens an existing fleet tagged `tag` on `backend` instead of
    /// creating fresh devices: every shard's image is reopened without
    /// truncation, its persisted checkpoint (if any) is read, and the
    /// engine is rebuilt with [`Nemo::recover`] on the calling thread
    /// before the fleet is assembled. Returns the fleet plus one
    /// [`RecoveryReport`] per shard, indexed by shard id.
    ///
    /// Recovery problems short of a missing image are not errors: a
    /// corrupt, stale or absent checkpoint degrades that shard to a
    /// partial or cold zone scan, visible in its report.
    ///
    /// # Errors
    ///
    /// Fails if the backend cannot be reopened at all — the in-memory
    /// [`DeviceBackend::Modeled`] backend, a missing or truncated image,
    /// or a geometry mismatch against `cfg`.
    ///
    /// # Examples
    ///
    /// ```
    /// use nemo_core::{NemoConfig, RecoveryMode};
    /// use nemo_flash::Nanos;
    /// use nemo_service::{checkpoint_fleet, DeviceBackend, ShardedCacheBuilder};
    ///
    /// let dir = std::env::temp_dir().join("nemo_restart_doc");
    /// let backend = DeviceBackend::modeled_file(&dir);
    /// let cfg = NemoConfig::small();
    ///
    /// // First life: fill, drain, checkpoint.
    /// let cache = ShardedCacheBuilder::new(2)
    ///     .spawn(cfg.clone().factory_on(backend.device_factory("doc")));
    /// cache.try_put(7, 250, Nanos::ZERO).unwrap();
    /// let report = cache.finish(Nanos::ZERO);
    /// checkpoint_fleet(&backend, "doc", &report.engines).unwrap();
    ///
    /// // Second life: warm reopen, nothing rescanned.
    /// let (cache, recoveries) = ShardedCacheBuilder::new(2)
    ///     .open_existing(&cfg, &backend, "doc")
    ///     .unwrap();
    /// assert!(recoveries.iter().all(|r| r.mode == RecoveryMode::Warm));
    /// assert!(cache.try_get(7, Nanos::ZERO).unwrap().hit);
    /// ```
    pub fn open_existing(
        self,
        cfg: &NemoConfig,
        backend: &DeviceBackend,
        tag: &str,
    ) -> Result<(ShardedCache<Nemo<AnyFlash>>, Vec<RecoveryReport>), FlashError> {
        let shards = self.shards();
        let mut engines = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for shard in 0..shards {
            let dev = backend.reopen(tag, shard, cfg.geometry, cfg.latency)?;
            let checkpoint = backend.read_checkpoint(tag, shard);
            let (engine, report) = Nemo::recover(cfg.clone(), dev, checkpoint.as_deref());
            engines.push(Some(engine));
            reports.push(report);
        }
        let cache = self.spawn(move |shard| engines[shard].take().expect("one engine per shard"));
        Ok((cache, reports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_core::RecoveryMode;
    use nemo_engine::CacheEngine as _;
    use nemo_flash::{Geometry, Nanos};
    use std::path::PathBuf;

    fn small_cfg() -> NemoConfig {
        let mut cfg = NemoConfig::small();
        cfg.geometry = Geometry::new(4096, 64, 32, 4);
        cfg.flush_threshold = 16;
        cfg.index_group_sgs = 6;
        cfg.expected_objects_per_set = 16;
        cfg
    }

    fn tmp(sub: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("nemo_service_restart_test")
            .join(sub);
        // A fresh directory per test run so stale images never leak in.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Demand-fill churn: `ops` lookups over `keys` distinct keys.
    fn churn(cache: &mut ShardedCache<Nemo<AnyFlash>>, keys: u64, ops: u64) {
        for i in 0..ops {
            let key = i % keys;
            if !cache.get(key, Nanos::ZERO).hit {
                cache.put(key, 200, Nanos::ZERO);
            }
        }
    }

    #[test]
    fn fleet_reopens_warm_with_identical_stats() {
        let backend = DeviceBackend::modeled_file(tmp("warm"));
        let cfg = small_cfg();
        let mut cache = ShardedCacheBuilder::new(2)
            .spawn(cfg.clone().factory_on(backend.device_factory("warm")));
        churn(&mut cache, 3_000, 30_000);
        let report = cache.finish(Nanos::ZERO);
        assert!(report.stats.flash_bytes_written > 0, "nothing hit flash");
        checkpoint_fleet(&backend, "warm", &report.engines).unwrap();

        let (mut cache, recoveries) = ShardedCacheBuilder::new(2)
            .open_existing(&cfg, &backend, "warm")
            .unwrap();
        assert_eq!(recoveries.len(), 2);
        for (shard, rec) in recoveries.iter().enumerate() {
            assert_eq!(rec.mode, RecoveryMode::Warm, "shard {shard}: {rec:?}");
            assert_eq!(rec.zones_scanned, 0, "shard {shard} rescanned zones");
            assert_eq!(rec.pages_read, 0, "shard {shard} read flash");
        }
        // Warm restore is bit-identical in every engine counter. Device
        // counters are per-instance I/O tallies — a reopened device
        // starts at zero — so they are excluded from the parity check.
        let mut live = cache.stats();
        let mut expect = report.stats;
        live.device = Default::default();
        expect.device = Default::default();
        assert_eq!(live, expect);
        // And the reopened fleet keeps serving the working set.
        let hits = (0..3_000u64)
            .filter(|&k| cache.get(k, Nanos::ZERO).hit)
            .count();
        assert!(hits > 2_700, "only {hits}/3000 keys survived the restart");
    }

    #[test]
    fn reopen_without_checkpoints_cold_scans() {
        let backend = DeviceBackend::modeled_file(tmp("cold"));
        let cfg = small_cfg();
        let mut cache = ShardedCacheBuilder::new(2)
            .spawn(cfg.clone().factory_on(backend.device_factory("cold")));
        churn(&mut cache, 3_000, 30_000);
        let before = cache.finish(Nanos::ZERO);
        assert!(before.stats.flash_bytes_written > 0, "nothing hit flash");
        // No checkpoint_fleet call: every shard must rebuild by scanning.

        let (mut cache, recoveries) = ShardedCacheBuilder::new(2)
            .open_existing(&cfg, &backend, "cold")
            .unwrap();
        let mut recovered = 0;
        for (shard, rec) in recoveries.iter().enumerate() {
            assert_eq!(rec.mode, RecoveryMode::Cold, "shard {shard}: {rec:?}");
            assert!(rec.checkpoint_error.is_none(), "absent is not an error");
            recovered += rec.objects_recovered;
        }
        assert!(recovered > 0, "cold scan re-indexed nothing");
        // On-flash objects survive; only the in-memory SG tail is lost.
        let hits = (0..3_000u64)
            .filter(|&k| cache.get(k, Nanos::ZERO).hit)
            .count();
        assert!(hits > 2_000, "only {hits}/3000 keys survived the cold scan");
    }

    #[test]
    fn modeled_backend_cannot_reopen() {
        let err = ShardedCacheBuilder::new(1)
            .open_existing(&small_cfg(), &DeviceBackend::Modeled, "x")
            .unwrap_err();
        assert!(err.to_string().contains("persists nothing"), "{err}");
    }
}
