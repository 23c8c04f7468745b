//! The determinism contract: same trace + same shard count ⇒ identical
//! aggregate results, regardless of thread interleaving — plus the
//! drain-before-final-stats regression test.

use nemo_core::{Nemo, NemoConfig};
use nemo_engine::EngineStats;
use nemo_flash::{Geometry, Nanos};
use nemo_metrics::LatencyWindow;
use nemo_service::{shard_of, OpenLoopConfig, OpenLoopReplay, ShardedCache, ShardedCacheBuilder};
use nemo_trace::{RequestKind, TraceConfig, TraceGenerator};

const FLASH_MB: u32 = 24;
const OPS: u64 = 200_000;

fn nemo_config() -> NemoConfig {
    let mut cfg = NemoConfig::new(Geometry::new(4096, 256, FLASH_MB, 8));
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    cfg.index_group_sgs = 8;
    cfg
}

fn trace() -> TraceGenerator {
    TraceGenerator::new(TraceConfig::twitter_merged(
        FLASH_MB as f64 * 6.0 / 337_848.0,
    ))
}

/// Demand-fill replay through the sharded front-end, using the batched
/// fire-and-forget put path for fills.
fn drive_sharded(cache: &ShardedCache<Nemo>, ops: u64) {
    let mut gen = trace();
    for _ in 0..ops {
        let r = gen.next_request();
        match r.kind {
            RequestKind::Get => {
                if !cache.get(r.key, Nanos::ZERO).hit {
                    cache.put_and_forget(r.key, r.size, Nanos::ZERO);
                }
            }
            RequestKind::Put => {
                cache.put_and_forget(r.key, r.size, Nanos::ZERO);
            }
        }
    }
}

#[test]
fn sharded_runs_are_bit_identical() {
    // Perturb everything scheduling-related that is allowed to vary —
    // queue depth and batch capacity change how often workers block and
    // how requests clump — and require byte-identical aggregates.
    let mut reference: Option<EngineStats> = None;
    for (queue_depth, batch) in [(256usize, 64usize), (2, 1), (1024, 500)] {
        let cache = ShardedCacheBuilder::new(4)
            .queue_depth(queue_depth)
            .batch_capacity(batch)
            .spawn(nemo_config().factory());
        drive_sharded(&cache, OPS);
        let report = cache.finish(Nanos::ZERO);
        match &reference {
            None => reference = Some(report.stats),
            Some(expect) => {
                assert_eq!(
                    &report.stats, expect,
                    "aggregate counters diverged at queue_depth={queue_depth}, batch={batch}"
                );
                // The acceptance-criteria metrics, explicitly bit-equal.
                assert_eq!(report.stats.alwa().to_bits(), expect.alwa().to_bits());
                assert_eq!(
                    report.stats.miss_ratio().to_bits(),
                    expect.miss_ratio().to_bits()
                );
            }
        }
    }
}

#[test]
fn sharded_equals_sequential_per_shard_replay() {
    // Strongest form of interleaving-independence: the concurrent run
    // must equal replaying each shard's subtrace on a lone engine, one
    // shard at a time, on this thread.
    const SHARDS: usize = 4;
    let cache = ShardedCacheBuilder::new(SHARDS).spawn(nemo_config().factory());
    drive_sharded(&cache, OPS);
    let concurrent = cache.finish(Nanos::ZERO);

    let mut engines: Vec<Nemo> = (0..SHARDS).map(nemo_config().factory()).collect();
    let mut gen = trace();
    for _ in 0..OPS {
        let r = gen.next_request();
        let engine = &mut engines[shard_of(r.key, SHARDS)];
        use nemo_engine::CacheEngine;
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
    let sequential: Vec<EngineStats> = engines
        .iter_mut()
        .map(|e| {
            use nemo_engine::CacheEngine;
            e.drain(Nanos::ZERO);
            e.stats()
        })
        .collect();

    assert_eq!(
        concurrent.per_shard, sequential,
        "per-shard counters diverged"
    );
    assert_eq!(concurrent.stats, EngineStats::merge_all(&sequential));
}

#[test]
fn openloop_runs_are_bit_identical() {
    // The open-loop driver adds arrival timing, per-shard in-flight
    // admission, in-worker demand fills, deferred background eviction
    // slices and a completion reactor — none of which may let wall-clock
    // interleaving leak into the results. Same trace + rate + shard
    // count must give identical op counts, hit ratios, and window
    // aggregates; the queue depth only changes wall-clock backpressure.
    let run = |queue_depth: usize| -> (EngineStats, Vec<LatencyWindow>, [u64; 3]) {
        let mut cfg = OpenLoopConfig::new(120_000, 50_000.0);
        cfg.shards = 4;
        cfg.inflight = 8;
        cfg.queue_depth = queue_depth;
        cfg.sample_every = 20_000;
        cfg.warmup_ops = 30_000;
        let mut bg = nemo_config();
        bg.background_eviction = true;
        let r = OpenLoopReplay::new(cfg).run(bg.factory(), &mut trace());
        (
            r.report.stats,
            r.windows,
            [r.latency.p9999(), r.queueing.p9999(), r.service.p9999()],
        )
    };
    let (stats, windows, tails) = run(256);
    for depth in [2usize, 1024] {
        let (s, w, t) = run(depth);
        assert_eq!(s, stats, "op counts/hit counters diverged at depth {depth}");
        assert_eq!(
            s.miss_ratio().to_bits(),
            stats.miss_ratio().to_bits(),
            "hit ratio diverged at depth {depth}"
        );
        assert_eq!(w, windows, "window aggregates diverged at depth {depth}");
        assert_eq!(t, tails, "tail percentiles diverged at depth {depth}");
    }
}

#[test]
fn pipeline_depth_leaves_aggregates_bit_identical() {
    // The worker `pipeline` knob batches command intake for wall-clock
    // throughput; on the modeled backend it may not change any result.
    let run = |pipeline: usize| -> (EngineStats, Vec<LatencyWindow>, [u64; 3]) {
        let mut cfg = OpenLoopConfig::new(60_000, 50_000.0);
        cfg.shards = 4;
        cfg.inflight = 8;
        cfg.pipeline = pipeline;
        cfg.sample_every = 10_000;
        cfg.warmup_ops = 15_000;
        let mut ecfg = nemo_config();
        ecfg.background_eviction = true;
        let r = OpenLoopReplay::new(cfg).run(ecfg.factory(), &mut trace());
        (
            r.report.stats,
            r.windows,
            [r.latency.p9999(), r.queueing.p9999(), r.service.p9999()],
        )
    };
    let (stats, windows, tails) = run(16);
    for pipeline in [1usize, 64] {
        let (s, w, t) = run(pipeline);
        assert_eq!(s, stats, "aggregates diverged at pipeline={pipeline}");
        assert_eq!(w, windows, "windows diverged at pipeline={pipeline}");
        assert_eq!(t, tails, "tails diverged at pipeline={pipeline}");
    }
}

#[test]
fn finish_drains_before_final_stats() {
    // Regression for the old `concurrent_frontend` example, which read
    // per-shard WA straight off live engines: work still buffered in
    // Nemo's in-memory SGs never hit the flash counters, under-reporting
    // flash writes. `finish()` must drain first.
    let cache = ShardedCacheBuilder::new(2).spawn(nemo_config().factory());
    // Distinct keys only: enough to spill a few SGs to flash but leave
    // the current in-memory SGs partially filled on every shard.
    for key in 0..40_000u64 {
        cache.put_and_forget(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), 250, Nanos::ZERO);
    }
    let live = cache.stats();
    let report = cache.finish(Nanos::ZERO);
    assert!(
        report.stats.flash_bytes_written > live.flash_bytes_written,
        "finish() reported no more flash traffic than the undrained engines \
         ({} vs {}) — the final stats were read without draining",
        report.stats.flash_bytes_written,
        live.flash_bytes_written
    );
    // The returned engines are the drained ones: re-reading their stats
    // reproduces the report exactly.
    let reread: Vec<EngineStats> = report
        .engines
        .iter()
        .map(|e| {
            use nemo_engine::CacheEngine;
            e.stats()
        })
        .collect();
    assert_eq!(report.per_shard, reread);
    assert_eq!(report.stats, EngineStats::merge_all(&reread));
}
