//! Property-based tests of the substrates the engines stand on: the FTL
//! must never lose or corrupt data regardless of the write pattern, and
//! engines must be bit-for-bit deterministic across runs.

use nemo_repro::engine::CacheEngine;
use nemo_repro::flash::{ConventionalSsd, Geometry, LatencyModel, Nanos};
use nemo_repro::util::Xoshiro256StarStar;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The conventional-SSD FTL preserves the latest version of every
    /// logical page under arbitrary overwrite patterns that trigger GC.
    #[test]
    fn ftl_never_loses_latest_version(
        writes in prop::collection::vec((0u64..48, 0u8..255), 50..400)
    ) {
        let geom = Geometry::new(512, 8, 16, 4);
        let mut ssd = ConventionalSsd::new(geom, LatencyModel::zero(), 0.5);
        prop_assume!(ssd.user_page_count() >= 48);
        let mut latest = std::collections::HashMap::new();
        for (lpn, fill) in writes {
            let page = vec![fill; 512];
            ssd.write_page(lpn, &page, Nanos::ZERO).expect("write");
            latest.insert(lpn, fill);
        }
        for (lpn, fill) in latest {
            let (back, _) = ssd.read_page(lpn, Nanos::ZERO).expect("read");
            prop_assert!(back.iter().all(|&b| b == fill),
                "lpn {lpn} corrupted (wanted {fill})");
        }
        // NAND writes include host writes, never less.
        let f = ssd.ftl_stats();
        prop_assert!(f.nand_pages_written >= f.host_pages_written);
        prop_assert!(f.dlwa() >= 1.0);
    }

    /// Engines are deterministic: identical op sequences produce identical
    /// statistics (the whole experiment methodology rests on this).
    #[test]
    fn engines_are_deterministic(seed in any::<u64>()) {
        use nemo_repro::core::{Nemo, NemoConfig};
        let run = || {
            let mut cfg = NemoConfig::new(Geometry::new(4096, 64, 16, 4));
            cfg.flush_threshold = 4;
            cfg.expected_objects_per_set = 16;
            cfg.index_group_sgs = 4;
            let mut nemo = Nemo::new(cfg);
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            for _ in 0..4000 {
                let key = rng.next_below(3000);
                let size = 24 + rng.next_below(300) as u32;
                if !nemo.get(key, Nanos::ZERO).hit {
                    nemo.put(key, size, Nanos::ZERO);
                }
            }
            nemo.stats()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b);
    }

    /// Miss-then-fill keeps an engine's hit accounting consistent with an
    /// exact reference model (for the exact-index log cache).
    #[test]
    fn log_cache_agrees_with_reference_model(
        ops in prop::collection::vec((0u64..500, 24u32..400), 100..600)
    ) {
        use nemo_repro::baselines::{LogCache, LogCacheConfig};
        // Device large enough that nothing is evicted: every get after a
        // put must hit, exactly like a HashMap.
        let mut cache = LogCache::new(LogCacheConfig {
            geometry: Geometry::new(4096, 64, 16, 4),
            latency: LatencyModel::zero(),
        });
        let mut reference = std::collections::HashSet::new();
        for (key, size) in ops {
            let hit = cache.get(key, Nanos::ZERO).hit;
            prop_assert_eq!(hit, reference.contains(&key),
                "log cache and reference disagree on key {}", key);
            if !hit {
                cache.put(key, size, Nanos::ZERO);
                reference.insert(key);
            }
        }
    }
}

#[test]
fn file_backed_device_matches_memory_device() {
    use nemo_repro::flash::{SimFlash, ZoneId, ZonedFlash};
    let geom = Geometry::new(512, 8, 4, 2);
    let dir = std::env::temp_dir().join("nemo_repro_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("parity.img");
    let mut mem = SimFlash::with_latency(geom, LatencyModel::zero());
    let mut file = SimFlash::file_backed(geom, LatencyModel::zero(), &path).expect("file dev");
    let mut rng = Xoshiro256StarStar::seed_from_u64(17);
    for i in 0..24u32 {
        let zone = ZoneId(i % 4);
        let page: Vec<u8> = (0..512).map(|_| rng.next_u64() as u8).collect();
        let a = mem.append(zone, &page, Nanos::ZERO);
        let b = file.append(zone, &page, Nanos::ZERO);
        assert_eq!(a.is_ok(), b.is_ok(), "append parity at op {i}");
        if let (Ok((addr_a, _)), Ok((addr_b, _))) = (a, b) {
            assert_eq!(addr_a, addr_b);
            let (da, _) = mem.read_pages(addr_a, 1, Nanos::ZERO).expect("mem read");
            let (db, _) = file.read_pages(addr_b, 1, Nanos::ZERO).expect("file read");
            assert_eq!(da, db, "data parity at {addr_a}");
        }
    }
    assert_eq!(mem.stats().pages_written, file.stats().pages_written);
    drop(file);
    std::fs::remove_file(&path).ok();
}

#[test]
fn fairywren_and_kangaroo_share_migration_mechanics_but_differ_in_gc() {
    use nemo_repro::baselines::{FairyWren, FairyWrenConfig, Kangaroo, KangarooConfig};
    use nemo_repro::flash::standard_geometry;
    use nemo_repro::trace::{RequestKind, TraceConfig, TraceGenerator};
    let geometry = standard_geometry(24);
    let mut fw = FairyWren::new(FairyWrenConfig::log_op(geometry, 5, 5));
    let mut kg = Kangaroo::new(KangarooConfig {
        geometry,
        latency: LatencyModel::default(),
        log_fraction: 0.05,
        op_ratio: 0.05,
    });
    let mut gen = TraceGenerator::new(TraceConfig::twitter_merged(24.0 * 6.0 / 337_848.0));
    for _ in 0..500_000u64 {
        let r = gen.next_request();
        match r.kind {
            RequestKind::Get => {
                for e in [&mut fw as &mut dyn CacheEngine, &mut kg] {
                    if !e.get(r.key, Nanos::ZERO).hit {
                        e.put(r.key, r.size, Nanos::ZERO);
                    }
                }
            }
            RequestKind::Put => {
                fw.put(r.key, r.size, Nanos::ZERO);
                kg.put(r.key, r.size, Nanos::ZERO);
            }
        }
    }
    // Kangaroo's pure relocations must exist; FairyWREN folds GC into
    // migration so its "relocation" class is only hot-set writeback.
    assert!(kg.gc_relocations() > 0, "kangaroo must relocate (Case 3.1)");
    let (p, a) = fw.rmw_counts();
    assert!(
        p > 0 && a > 0,
        "fw needs both passive and active migrations"
    );
    // The multiplicative GC cost makes Kangaroo strictly worse (§5.2).
    assert!(
        kg.stats().alwa() > fw.stats().alwa(),
        "KG {} must exceed FW {}",
        kg.stats().alwa(),
        fw.stats().alwa()
    );
}
