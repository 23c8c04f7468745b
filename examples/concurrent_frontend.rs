//! Serving Nemo behind the sharded concurrent front-end.
//!
//! The paper's implementation runs requests on the caller's thread and
//! background tasks (SG flushing, write-back) on dedicated threads
//! inside CacheLib. The simulator engines are deliberately
//! single-threaded and deterministic, so `nemo-service` puts one engine
//! per shard behind a lock of its own and routes requests by key *hash*
//! — the same shard-per-core pattern CacheLib deploys. The fleet starts
//! no thread: this example drives four shards from one thread with a
//! demand-fill replay. Every request runs on the calling thread under
//! its shard's lock (a miss fills there too) and is answered with one
//! completion on the reply channel before the dispatch returns, counted
//! here at once. More callers on more threads would serve different
//! shards in parallel. It then drains every shard before reading the
//! final numbers (an undrained Nemo under-reports WA: its in-memory SGs
//! haven't hit flash yet).
//!
//! `try_get`/`try_put` run the same routine and return the completion
//! instead of sending it. For latency measurement under offered load —
//! arrival clock, queueing vs service split — see `twitter_replay` and
//! `nemo_service::OpenLoopReplay`, which drive this same path.
//!
//! ```text
//! cargo run --release --example concurrent_frontend [--smoke]
//! ```
//!
//! `--smoke` (or `NEMO_SMOKE=1`) shrinks the run for CI smoke tests.

use nemo_repro::core::NemoConfig;
use nemo_repro::engine::CacheEngine as _;
use nemo_repro::flash::{Geometry, Nanos};
use nemo_repro::service::{CompletionKind, ShardedCacheBuilder};
use nemo_repro::trace::{TraceConfig, TraceGenerator};

const SHARDS: usize = 4;

fn smoke() -> bool {
    std::env::var_os("NEMO_SMOKE").is_some_and(|v| v != "0")
        || std::env::args().any(|a| a == "--smoke")
}

fn main() {
    let ops: u64 = if smoke() { 40_000 } else { 400_000 };

    // One independent Nemo instance (and simulated device) per shard —
    // exactly the partitioning Appendix A recommends for large devices.
    let mut cfg = NemoConfig::new(Geometry::new(4096, 256, 32, 8));
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    let cache = ShardedCacheBuilder::new(SHARDS).spawn(cfg.factory());

    let mut gen = TraceGenerator::new(TraceConfig::twitter_merged(0.0005));
    let (tx, rx) = std::sync::mpsc::channel();
    let mut hits = 0u64;
    let mut count = |kind| hits += matches!(kind, CompletionKind::Get { hit: true, .. }) as u64;
    for op in 0..ops {
        let r = gen.next_request();
        cache.dispatch_get(r.key, r.size, Nanos::ZERO, op, &tx);
        rx.try_iter().for_each(|c| count(c.kind));
    }
    println!("{hits} of {ops} completions were hits");

    // finish() drains every shard first, so the WA below includes the
    // objects still buffered in each shard's in-memory SGs.
    let report = cache.finish(Nanos::ZERO);
    println!(
        "processed {} ops across {SHARDS} shards, hit ratio {:.1}%, aggregate WA {:.2}",
        report.stats.gets,
        100.0 * (1.0 - report.stats.miss_ratio()),
        report.stats.alwa(),
    );
    for (i, (stats, engine)) in report.per_shard.iter().zip(&report.engines).enumerate() {
        println!(
            "  shard {i}: {:>6} gets, WA {:.2}, {} SGs on flash, {:.1} bits/obj",
            stats.gets,
            stats.alwa(),
            engine.pool_len(),
            engine.memory().bits_per_object()
        );
    }
    println!(
        "aggregate metadata: {:.1} bits/obj over {} objects",
        report.memory.bits_per_object(),
        report.memory.objects
    );
}
