//! The determinism contract: same trace + same shard count ⇒ identical
//! results, regardless of thread interleaving and of whether the caller
//! waits for each operation or collects completions later — plus the
//! drain-before-final-stats regression test.

use nemo_baselines::LogCacheConfig;
use nemo_core::{Nemo, NemoConfig};
use nemo_engine::{CacheEngine, EngineStats};
use nemo_flash::{Geometry, Nanos};
use nemo_metrics::LatencyWindow;
use nemo_service::{
    shard_of, CompletionKind, OpenLoopConfig, OpenLoopReplay, ShardedCache, ShardedCacheBuilder,
};
use nemo_trace::{RequestKind, TraceConfig, TraceGenerator};
use std::sync::mpsc::channel;

const FLASH_MB: u32 = 24;
const OPS: u64 = 200_000;
const SHARDS: usize = 4;

fn geometry() -> Geometry {
    Geometry::new(4096, 256, FLASH_MB, 8)
}

fn nemo_config() -> NemoConfig {
    let mut cfg = NemoConfig::new(geometry());
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    cfg.index_group_sgs = 8;
    cfg
}

fn nemo_fleet() -> ShardedCache<Nemo> {
    ShardedCacheBuilder::new(SHARDS).spawn(nemo_config().factory())
}

fn trace() -> TraceGenerator {
    TraceGenerator::new(TraceConfig::twitter_merged(
        FLASH_MB as f64 * 6.0 / 337_848.0,
    ))
}

/// What one demand-fill replay of [`trace`] produced: drained counters
/// per shard, and `(hit, set_reads, flash_reads)` of every get in trace
/// order.
type Observed = (Vec<EngineStats>, Vec<(bool, u32, u32)>);

/// Counters with the one time-derived field zeroed: `submit_lat_total`
/// sums read latencies, and two replays that place their fills at
/// different virtual instants legitimately disagree on it. (Two runs of
/// one replay do not: [`sharded_runs_are_bit_identical`] compares it.)
fn untimed(mut per_shard: Vec<EngineStats>) -> Vec<EngineStats> {
    for s in &mut per_shard {
        s.device.submit_lat_total = Nanos::ZERO;
    }
    per_shard
}

/// The replay with the caller waiting for every operation: a lookup,
/// then on a miss the fill at the lookup's completion time.
fn drive_waiting<E: CacheEngine + 'static>(cache: ShardedCache<E>) -> Observed {
    let mut gen = trace();
    let mut gets = Vec::new();
    for _ in 0..OPS {
        let r = gen.next_request();
        let mut fill_at = Some(Nanos::ZERO);
        if r.kind == RequestKind::Get {
            let out = cache.try_get(r.key, Nanos::ZERO).expect("fault-free");
            gets.push((out.hit, out.set_reads, out.flash_reads));
            fill_at = (!out.hit).then_some(out.done_at);
        }
        if let Some(now) = fill_at {
            cache.try_put(r.key, r.size, now).expect("fault-free");
        }
    }
    (cache.finish(Nanos::ZERO).per_shard, gets)
}

/// The same replay dispatched without waiting (misses fill inside the
/// worker), completions collected once everything is sent.
fn drive_collected<E: CacheEngine + 'static>(cache: ShardedCache<E>) -> Observed {
    let mut gen = trace();
    let (tx, rx) = channel();
    for op in 0..OPS {
        let r = gen.next_request();
        match r.kind {
            RequestKind::Get => cache.dispatch_get(r.key, r.size, Nanos::ZERO, op, &tx),
            RequestKind::Put => cache.dispatch_put(r.key, r.size, Nanos::ZERO, op, &tx),
        }
    }
    drop(tx);
    let mut gets: Vec<(u64, (bool, u32, u32))> = rx
        .iter()
        .filter_map(|c| match c.kind {
            CompletionKind::Get {
                hit,
                set_reads,
                flash_reads,
            } => Some((c.seq, (hit, set_reads, flash_reads))),
            CompletionKind::Put => None,
            CompletionKind::Unavailable { shard } => panic!("shard {shard} died"),
        })
        .collect();
    gets.sort_unstable_by_key(|&(seq, _)| seq);
    let per_shard = cache.finish(Nanos::ZERO).per_shard;
    (per_shard, gets.into_iter().map(|(_, g)| g).collect())
}

#[test]
fn waiting_per_op_equals_collecting_at_the_end() {
    // The licence for having one request path: whether the caller waits
    // on each operation or lets thousands queue per shard changes
    // neither any engine transition nor any per-get outcome.
    fn check<E: CacheEngine + 'static>(name: &str, fleet: impl Fn() -> ShardedCache<E>) {
        let (waiting_stats, waiting_gets) = drive_waiting(fleet());
        let (collected_stats, collected_gets) = drive_collected(fleet());
        assert_eq!(
            untimed(waiting_stats),
            untimed(collected_stats),
            "{name}: per-shard counters"
        );
        assert_eq!(
            waiting_gets.len(),
            collected_gets.len(),
            "{name}: get count"
        );
        for (i, pair) in waiting_gets.iter().zip(&collected_gets).enumerate() {
            assert_eq!(pair.0, pair.1, "{name}: outcome of get #{i}");
        }
    }
    check("nemo", nemo_fleet);
    check("log", || {
        let cfg = LogCacheConfig {
            geometry: geometry(),
            latency: Default::default(),
        };
        ShardedCacheBuilder::new(SHARDS).spawn(cfg.factory())
    });
}

#[test]
fn sharded_runs_are_bit_identical() {
    // Nothing scheduling-related — how often workers block, how requests
    // clump into batches — may reach a counter: three runs, byte-identical
    // aggregates.
    let run = || EngineStats::merge_all(&drive_collected(nemo_fleet()).0);
    let expect = run();
    for _ in 0..2 {
        let stats = run();
        assert_eq!(stats, expect, "aggregate counters diverged between runs");
        // The acceptance-criteria metrics, explicitly bit-equal.
        assert_eq!(stats.alwa().to_bits(), expect.alwa().to_bits());
        assert_eq!(stats.miss_ratio().to_bits(), expect.miss_ratio().to_bits());
    }
}

#[test]
fn sharded_equals_sequential_per_shard_replay() {
    // Strongest form of interleaving-independence: the concurrent run
    // must equal replaying each shard's subtrace on a lone engine, one
    // shard at a time, on this thread.
    let (concurrent, _) = drive_collected(nemo_fleet());

    let mut engines: Vec<Nemo> = (0..SHARDS).map(nemo_config().factory()).collect();
    let mut gen = trace();
    for _ in 0..OPS {
        let r = gen.next_request();
        let engine = &mut engines[shard_of(r.key, SHARDS)];
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
            e.drain(Nanos::ZERO);
            e.stats()
        })
        .collect();

    // The lone engines serve everything at time zero; the fleet's
    // admission window moves its requests later.
    assert_eq!(
        untimed(concurrent),
        untimed(sequential),
        "per-shard counters diverged"
    );
}

#[test]
fn openloop_runs_are_bit_identical() {
    // The open-loop driver adds arrival timing, per-shard in-flight
    // admission, in-worker demand fills, deferred background eviction
    // slices and completions folded in whatever order they arrive —
    // none of which may let wall-clock interleaving leak into the
    // results. Same trace + rate + shard count must give identical op
    // counts, hit ratios, and window aggregates.
    let run = || -> (EngineStats, Vec<LatencyWindow>, [u64; 3]) {
        let mut cfg = OpenLoopConfig::new(120_000, 50_000.0);
        cfg.shards = 4;
        cfg.inflight = 8;
        cfg.sample_every = 20_000;
        cfg.warmup_ops = 30_000;
        let r = OpenLoopReplay::new(cfg).run(nemo_config().factory(), &mut trace());
        (
            r.report.stats,
            r.windows,
            [r.latency.p9999(), r.queueing.p9999(), r.service.p9999()],
        )
    };
    let (stats, windows, tails) = run();
    for rerun in 1..=2 {
        let (s, w, t) = run();
        assert_eq!(s, stats, "op counts/hit counters diverged in rerun {rerun}");
        assert_eq!(
            s.miss_ratio().to_bits(),
            stats.miss_ratio().to_bits(),
            "hit ratio diverged in rerun {rerun}"
        );
        assert_eq!(w, windows, "window aggregates diverged in rerun {rerun}");
        assert_eq!(t, tails, "tail percentiles diverged in rerun {rerun}");
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
    let (tx, _completions) = channel();
    for i in 0..40_000u64 {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        cache.dispatch_put(key, 250, Nanos::ZERO, i, &tx);
    }
    // A stats round trip queues behind every dispatched put.
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
    let reread: Vec<EngineStats> = report.engines.iter().map(|e| e.stats()).collect();
    assert_eq!(report.per_shard, reread);
    assert_eq!(report.stats, EngineStats::merge_all(&reread));
}
