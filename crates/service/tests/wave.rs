//! The licence for the batched request: a [`Wave`] is its requests sent
//! back to back. However a sequence is cut into waves, every request
//! completes with the same outcome at the same virtual instants, and
//! the engines end in the same state, as when each is dispatched alone.

use nemo_core::{Nemo, NemoConfig};
use nemo_engine::EngineStats;
use nemo_flash::{Geometry, Nanos};
use nemo_service::{Completion, CompletionKind, ShardedCache, ShardedCacheBuilder, Wave};
use nemo_trace::{Request, RequestKind, TraceConfig, TraceGenerator};
use std::sync::mpsc::channel;

const FLASH_MB: u32 = 24;
const OPS: u64 = 120_000;
const SHARDS: usize = 4;
/// 2 M req/s of virtual time: fast enough that requests queue behind
/// the in-flight window, so `start` is not just the arrival echoed.
const GAP_NS: u64 = 500;

fn fleet() -> ShardedCache<Nemo> {
    let mut cfg = NemoConfig::new(Geometry::new(4096, 256, FLASH_MB, 8));
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    cfg.index_group_sgs = 8;
    ShardedCacheBuilder::new(SHARDS)
        .inflight(4)
        .spawn(cfg.factory())
}

/// The Twitter mix, demand-filled, each request with its arrival time.
fn requests() -> impl Iterator<Item = (Request, Nanos)> {
    let mut gen = TraceGenerator::new(TraceConfig::twitter_merged(
        FLASH_MB as f64 * 6.0 / 337_848.0,
    ));
    (1..=OPS).map(move |op| (gen.next_request(), Nanos(op * GAP_NS)))
}

/// `(kind, start, done)` of every request in trace order, and the
/// drained per-shard counters.
type Observed = (Vec<(CompletionKind, Nanos, Nanos)>, Vec<EngineStats>);

fn observe(done: impl IntoIterator<Item = Completion>, cache: ShardedCache<Nemo>) -> Observed {
    let per_op = done
        .into_iter()
        .map(|c| (c.kind, c.start, c.done))
        .collect();
    (per_op, cache.finish(Nanos(OPS * GAP_NS)).per_shard)
}

fn one_at_a_time() -> Observed {
    let cache = fleet();
    let (tx, rx) = channel();
    for (seq, (r, arrival)) in (0..).zip(requests()) {
        match r.kind {
            RequestKind::Get => cache.dispatch_get(r.key, r.size, arrival, seq, &tx),
            RequestKind::Put => cache.dispatch_put(r.key, r.size, arrival, seq, &tx),
        }
    }
    drop(tx);
    let mut done: Vec<Completion> = rx.iter().collect();
    done.sort_unstable_by_key(|c| c.seq);
    observe(done, cache)
}

fn in_waves_of(len: usize) -> Observed {
    let cache = fleet();
    let dispatcher = cache.dispatcher();
    let (tx, rx) = channel();
    let mut waves: Vec<Option<Box<Wave>>> = (0..SHARDS).map(|_| Some(Box::default())).collect();
    let mut done = Vec::with_capacity(OPS as usize);
    let mut requests = requests().peekable();
    while requests.peek().is_some() {
        // Where each request of this round went: (shard, index in wave).
        let mut slots = Vec::with_capacity(len);
        for (r, arrival) in requests.by_ref().take(len) {
            let shard = dispatcher.shard_of(r.key);
            let wave = waves[shard].as_mut().expect("all waves are home");
            slots.push((shard, wave.len()));
            match r.kind {
                RequestKind::Get => wave.push_get(r.key, r.size, arrival),
                RequestKind::Put => wave.push_put(r.key, r.size, arrival),
            }
        }
        let mut sent = 0;
        for (shard, slot) in waves.iter_mut().enumerate() {
            match slot.take() {
                Some(wave) if !wave.is_empty() => {
                    dispatcher.dispatch_wave(shard, wave, &tx);
                    sent += 1;
                }
                idle => *slot = idle,
            }
        }
        for _ in 0..sent {
            let wave = rx.recv().expect("every wave is answered");
            let shard = wave.shard();
            waves[shard] = Some(wave);
        }
        for (shard, idx) in slots {
            let wave = waves[shard].as_ref().expect("all waves are home");
            assert_eq!(wave.done().len(), wave.len());
            assert_eq!(wave.done()[idx].seq, idx as u64);
            done.push(wave.done()[idx]);
        }
        for wave in waves.iter_mut().flatten() {
            wave.clear();
        }
    }
    // The workers run until every dispatcher clone is gone.
    drop(dispatcher);
    observe(done, cache)
}

#[test]
fn however_a_sequence_is_cut_into_waves_every_op_completes_the_same() {
    let (expect_ops, expect_stats) = one_at_a_time();
    // Not vacuous: hits and misses, flash traffic, admission waits.
    let total = EngineStats::merge_all(&expect_stats);
    assert!(total.hits > 0 && total.hits < total.gets);
    assert!(total.flash_bytes_written > 0 && total.device.pages_read > 0);
    assert!(expect_ops.iter().any(|&(_, start, done)| done > start));
    let arrivals = requests().map(|(_, arrival)| arrival);
    assert!(expect_ops
        .iter()
        .zip(arrivals)
        .any(|(&(_, start, _), arrival)| start > arrival));

    for len in [1, 16, 500] {
        let (ops, stats) = in_waves_of(len);
        assert_eq!(ops.len(), expect_ops.len(), "waves of {len}: op count");
        for (i, pair) in ops.iter().zip(&expect_ops).enumerate() {
            assert_eq!(pair.0, pair.1, "waves of {len}: completion of op #{i}");
        }
        assert_eq!(stats, expect_stats, "waves of {len}: per-shard counters");
    }
}
