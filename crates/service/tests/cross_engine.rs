//! All five engines behind the sharded front-end: the service layer must
//! be engine-agnostic, and sharding must not distort the paper's
//! qualitative orderings.

use nemo_baselines::{FairyWrenConfig, KangarooConfig, LogCacheConfig, SetCacheConfig};
use nemo_core::NemoConfig;
use nemo_engine::{CacheEngine, EngineStats, MemoryBreakdown};
use nemo_flash::{Geometry, LatencyModel, Nanos};
use nemo_service::{Completion, CompletionKind, ShardedCache, ShardedCacheBuilder};
use nemo_trace::{RequestKind, TraceConfig, TraceGenerator};
use std::sync::mpsc::channel;

/// Per-shard device size. Each shard owns a full-size independent device
/// (the examples and Appendix A partition the same way); tiny per-shard
/// devices starve the set-heavy engines — Kangaroo needs OP slack worth
/// at least a few zones to garbage-collect at all.
const SHARD_FLASH_MB: u32 = 24;
const SHARDS: usize = 4;
/// Enough requests for ~the same per-shard churn as the single-engine
/// cross-engine suite (400 k ops on one 24 MB device).
const OPS: u64 = 1_600_000;

fn geometry() -> Geometry {
    Geometry::new(4096, 256, SHARD_FLASH_MB, 8)
}

fn trace() -> TraceGenerator {
    // Catalog ~6x the fleet's aggregate capacity, as in the seed tests.
    TraceGenerator::new(TraceConfig::twitter_merged(
        (SHARDS as u32 * SHARD_FLASH_MB) as f64 * 6.0 / 337_848.0,
    ))
}

/// One engine's row of the comparison: name, drained counters, memory.
type Row = (String, EngineStats, MemoryBreakdown);

/// Demand-fills `ops` trace requests through `cache` without waiting on
/// any of them (`determinism.rs::waiting_per_op_equals_collecting_at_the_end`
/// is the licence: the counters cannot tell), then drains and reads it.
fn drive<E: CacheEngine + 'static>(cache: ShardedCache<E>, ops: u64) -> Row {
    let mut gen = trace();
    let (tx, rx) = channel();
    let mut answered = 0;
    let mut check = |c: Completion| {
        let refused = matches!(c.kind, CompletionKind::Unavailable { .. });
        assert!(!refused, "{}: op {} was refused", cache.name(), c.seq);
        answered += 1;
    };
    for op in 0..ops {
        let r = gen.next_request();
        match r.kind {
            RequestKind::Get => cache.dispatch_get(r.key, r.size, Nanos::ZERO, op, &tx),
            RequestKind::Put => cache.dispatch_put(r.key, r.size, Nanos::ZERO, op, &tx),
        }
        // Pick up what has been answered so far, so the reply channel
        // never holds more than the shard queues' worth.
        rx.try_iter().for_each(&mut check);
    }
    drop(tx);
    rx.iter().for_each(&mut check);
    assert_eq!(answered, ops, "every op is answered");
    cache.drain(Nanos::ZERO);
    (cache.name().to_string(), cache.stats(), cache.memory())
}

/// The five engines, each sharded behind the front-end and driven with
/// the same trace.
fn sharded_fleet(ops: u64) -> Vec<Row> {
    let geometry = geometry();
    let mut nemo_cfg = NemoConfig::new(geometry);
    nemo_cfg.flush_threshold = 4;
    nemo_cfg.expected_objects_per_set = 16;
    nemo_cfg.index_group_sgs = 8;
    let fleet = ShardedCacheBuilder::new(SHARDS);
    vec![
        drive(fleet.clone().spawn(nemo_cfg.factory()), ops),
        drive(
            fleet.clone().spawn(
                LogCacheConfig {
                    geometry,
                    latency: LatencyModel::default(),
                }
                .factory(),
            ),
            ops,
        ),
        drive(
            fleet.clone().spawn(
                SetCacheConfig {
                    geometry,
                    latency: LatencyModel::default(),
                    op_ratio: 0.5,
                    bloom_bits_per_object: 4.0,
                }
                .factory(),
            ),
            ops,
        ),
        drive(
            fleet
                .clone()
                .spawn(FairyWrenConfig::log_op(geometry, 5, 5).factory()),
            ops,
        ),
        drive(
            fleet.spawn(
                KangarooConfig {
                    geometry,
                    latency: LatencyModel::default(),
                    log_fraction: 0.05,
                    op_ratio: 0.05,
                }
                .factory(),
            ),
            ops,
        ),
    ]
}

#[test]
fn all_five_engines_run_sharded() {
    let results = sharded_fleet(OPS);
    let names: Vec<&str> = results.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(names, ["nemo", "log", "set", "fairywren", "kangaroo"]);
    for (name, stats, memory) in &results {
        assert!(stats.gets > 0, "{name} processed no gets");
        assert!(stats.puts > 0, "{name} processed no puts");
        assert!(stats.hits <= stats.gets, "{name} hit accounting broken");
        assert!(stats.flash_bytes_written > 0, "{name} never wrote flash");
        assert!(
            memory.objects > 0 && memory.total_bytes() > 0,
            "{name} reported no metadata memory"
        );
    }
    // Sharding must preserve the paper's WA ordering (Fig. 12a):
    // log ≲ nemo << fairywren ≈ set < kangaroo.
    let wa: std::collections::HashMap<&str, f64> = results
        .iter()
        .map(|(n, s, _)| (n.as_str(), s.total_wa()))
        .collect();
    assert!(wa["log"] < 1.5, "log WA {}", wa["log"]);
    assert!(wa["nemo"] < 3.0, "nemo WA {}", wa["nemo"]);
    assert!(
        wa["fairywren"] > 2.0 * wa["nemo"],
        "fairywren {} vs nemo {}",
        wa["fairywren"],
        wa["nemo"]
    );
    assert!(
        wa["set"] > 2.0 * wa["nemo"],
        "set {} vs nemo {}",
        wa["set"],
        wa["nemo"]
    );
}

#[test]
fn sharded_shards_split_the_load() {
    let mut nemo_cfg = NemoConfig::new(geometry());
    nemo_cfg.flush_threshold = 4;
    nemo_cfg.expected_objects_per_set = 16;
    nemo_cfg.index_group_sgs = 8;
    let cache = ShardedCacheBuilder::new(SHARDS).spawn(nemo_cfg.factory());
    let mut gen = trace();
    // Balance shows up long before steady state; keep this test quick.
    let (tx, _completions) = channel();
    for op in 0..300_000 {
        let r = gen.next_request();
        cache.dispatch_get(r.key, r.size, Nanos::ZERO, op, &tx);
    }
    let report = cache.finish(Nanos::ZERO);
    let total_gets: u64 = report.per_shard.iter().map(|s| s.gets).sum();
    assert_eq!(total_gets, report.stats.gets);
    let mean = total_gets as f64 / SHARDS as f64;
    for (shard, s) in report.per_shard.iter().enumerate() {
        let rel = s.gets as f64 / mean;
        assert!(
            (0.7..1.3).contains(&rel),
            "shard {shard} saw {rel:.2}x the mean get load"
        );
    }
}
