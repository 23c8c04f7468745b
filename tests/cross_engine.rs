//! Cross-crate integration tests: all five engines driven by the same
//! workload through the shared trait, checking the paper's qualitative
//! claims hold end to end.

use nemo_repro::baselines::{
    FairyWren, FairyWrenConfig, Kangaroo, KangarooConfig, LogCache, LogCacheConfig, SetCache,
    SetCacheConfig,
};
use nemo_repro::core::{Nemo, NemoConfig};
use nemo_repro::engine::CacheEngine;
use nemo_repro::flash::{standard_geometry, LatencyModel, Nanos};
use nemo_repro::trace::{RequestKind, TraceConfig, TraceGenerator};

const FLASH_MB: u32 = 24;
const OPS: u64 = 400_000;

fn trace() -> TraceGenerator {
    TraceGenerator::new(TraceConfig::twitter_merged(
        FLASH_MB as f64 * 6.0 / 337_848.0,
    ))
}

fn engines() -> Vec<Box<dyn CacheEngine>> {
    let geometry = standard_geometry(FLASH_MB);
    let mut nemo_cfg = NemoConfig::new(geometry);
    nemo_cfg.flush_threshold = 4;
    nemo_cfg.expected_objects_per_set = 16;
    nemo_cfg.index_group_sgs = 8;
    vec![
        Box::new(Nemo::new(nemo_cfg)),
        Box::new(LogCache::new(LogCacheConfig {
            geometry,
            latency: LatencyModel::default(),
        })),
        Box::new(SetCache::new(SetCacheConfig {
            geometry,
            latency: LatencyModel::default(),
            op_ratio: 0.5,
            bloom_bits_per_object: 4.0,
        })),
        Box::new(FairyWren::new(FairyWrenConfig::log_op(geometry, 5, 5))),
        Box::new(Kangaroo::new(KangarooConfig {
            geometry,
            latency: LatencyModel::default(),
            log_fraction: 0.05,
            op_ratio: 0.05,
        })),
    ]
}

fn drive(engine: &mut dyn CacheEngine, ops: u64) {
    let mut gen = trace();
    for _ in 0..ops {
        let r = gen.next_request();
        match r.kind {
            RequestKind::Get => {
                if !engine.get(r.key, Nanos::ZERO).hit {
                    engine.put(r.key, r.size, Nanos::ZERO);
                }
            }
            RequestKind::Put => {
                engine.put(r.key, r.size, Nanos::ZERO);
            }
        }
    }
}

#[test]
fn all_engines_complete_the_workload() {
    for mut engine in engines() {
        drive(engine.as_mut(), OPS);
        let s = engine.stats();
        assert!(s.gets > 0, "{} processed no gets", engine.name());
        assert!(s.puts > 0, "{} processed no puts", engine.name());
        assert!(s.hits <= s.gets, "{} hit accounting broken", engine.name());
        assert!(
            s.flash_bytes_written > 0,
            "{} never wrote flash",
            engine.name()
        );
        // Every byte a zoned engine charges is one its device moved. (The
        // FTL under SetCache also moves GC pages the engine never sees.)
        engine.drain(Nanos::ZERO);
        let s = engine.stats();
        if engine.name() != "set" {
            let device = (s.device.bytes_read, s.device.bytes_written);
            let charged = (s.flash_bytes_read, s.flash_bytes_written);
            assert_eq!(charged, device, "{} (read, written)", engine.name());
        }
    }
}

#[test]
fn two_runs_in_one_process_give_equal_stats() {
    // Every `HashMap` in a process hashes with keys of its own, so two
    // engines built here iterate theirs in different orders. Kangaroo
    // and FairyWREN once migrated a GC victim's sets in that order.
    for (first, second) in engines().into_iter().zip(engines()) {
        let stats = [first, second].map(|mut engine| {
            drive(engine.as_mut(), OPS);
            engine.drain(Nanos::ZERO);
            (engine.name(), engine.stats())
        });
        assert_eq!(stats[0], stats[1]);
    }
}

#[test]
fn wa_ordering_matches_figure_12a() {
    let mut results = std::collections::HashMap::new();
    for mut engine in engines() {
        drive(engine.as_mut(), OPS);
        results.insert(engine.name().to_string(), engine.stats().total_wa());
    }
    let log = results["log"];
    let nemo = results["nemo"];
    let fw = results["fairywren"];
    let set = results["set"];
    let kg = results["kangaroo"];
    // Fig. 12a's ordering: Log ~ Nemo << FW ~ Set << KG.
    assert!(log < 1.3, "log WA {log}");
    assert!(nemo < 2.5, "nemo WA {nemo}");
    assert!(fw > 3.0 * nemo, "fw {fw} vs nemo {nemo}");
    assert!(set > 3.0 * nemo, "set {set} vs nemo {nemo}");
    assert!(kg > fw, "kg {kg} must exceed fw {fw}");
}

#[test]
fn memory_ordering_matches_table_6() {
    let mut results = std::collections::HashMap::new();
    for mut engine in engines() {
        drive(engine.as_mut(), OPS);
        results.insert(engine.name().to_string(), engine.memory().bits_per_object());
    }
    // Log's exact index dwarfs everything (>100 bits); Nemo and the
    // hierarchical designs stay within a few tens of bits.
    assert!(results["log"] > 100.0, "log {}", results["log"]);
    assert!(results["nemo"] < 25.0, "nemo {}", results["nemo"]);
    assert!(results["fairywren"] < 40.0, "fw {}", results["fairywren"]);
    assert!(
        results["nemo"] < results["log"] / 4.0,
        "nemo must be far cheaper than log"
    );
}

#[test]
fn hot_objects_stay_cached_in_every_engine() {
    // A handful of keys re-touched constantly must survive in any sane
    // cache under moderate churn.
    let hot: Vec<u64> = (0..50u64)
        .map(|k| k.wrapping_mul(0x00AB_CD12_3456_789B))
        .collect();
    for mut engine in engines() {
        let mut gen = trace();
        for i in 0..OPS {
            let r = gen.next_request();
            if !engine.get(r.key, Nanos::ZERO).hit {
                engine.put(r.key, r.size, Nanos::ZERO);
            }
            if i % 8 == 0 {
                let hk = hot[(i / 8) as usize % hot.len()];
                if !engine.get(hk, Nanos::ZERO).hit {
                    engine.put(hk, 200, Nanos::ZERO);
                }
            }
        }
        let alive = hot
            .iter()
            .filter(|&&k| engine.get(k, Nanos::ZERO).hit)
            .count();
        assert!(
            alive >= 40,
            "{}: only {alive}/50 hot objects survived",
            engine.name()
        );
    }
}

#[test]
fn device_accounting_is_consistent() {
    for mut engine in engines() {
        drive(engine.as_mut(), OPS / 2);
        let s = engine.stats();
        // Engine-level flash writes can never exceed device-level bytes
        // written (device counts GC traffic too for conventional SSDs).
        assert!(
            s.device.bytes_written >= s.flash_bytes_written,
            "{}: device {} < engine {}",
            engine.name(),
            s.device.bytes_written,
            s.flash_bytes_written
        );
        assert!(s.nand_bytes_written >= s.flash_bytes_written);
    }
}
