//! The licence for the batched request: a [`Wave`] run inline on the
//! calling thread is its requests dispatched one at a time. However a
//! sequence is cut into waves, every request completes with the same
//! outcome at the same virtual instants, and the engines end in the
//! same state, as when each is dispatched alone.

use nemo_baselines::LogCacheConfig;
use nemo_core::{Nemo, NemoConfig};
use nemo_engine::EngineStats;
use nemo_flash::{Geometry, Nanos};
use nemo_service::{Completion, CompletionKind, ShardedCache, ShardedCacheBuilder, Wave};
use nemo_trace::{Request, RequestKind, TraceConfig, TraceGenerator};
use std::sync::mpsc::channel;
use std::time::Duration;

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
    let mut waves: Vec<Wave> = (0..SHARDS).map(|_| Wave::default()).collect();
    let mut done = Vec::with_capacity(OPS as usize);
    let mut requests = requests().peekable();
    while requests.peek().is_some() {
        // Where each request of this round went: (shard, index in wave).
        let mut slots = Vec::with_capacity(len);
        for (r, arrival) in requests.by_ref().take(len) {
            let shard = dispatcher.shard_of(r.key);
            let wave = &mut waves[shard];
            slots.push((shard, wave.len()));
            match r.kind {
                RequestKind::Get => wave.push_get(r.key, r.size, arrival),
                RequestKind::Put => wave.push_put(r.key, r.size, arrival),
            }
        }
        for (shard, wave) in waves.iter_mut().enumerate() {
            if !wave.is_empty() {
                dispatcher.run_wave(shard, wave);
            }
        }
        for (shard, idx) in slots {
            let wave = &waves[shard];
            assert_eq!(wave.done().len(), wave.len());
            assert_eq!(wave.done()[idx].seq, idx as u64);
            done.push(wave.done()[idx]);
        }
        for wave in &mut waves {
            wave.clear();
        }
    }
    // `finish` takes the engines back once no clone shares them.
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

#[test]
fn threads_running_waves_and_a_dispatching_thread_share_the_shards() {
    const WAVE_THREADS: u64 = 4;
    const ROUNDS: u64 = 400;
    const WAVE: u64 = 16;
    const QUEUED: u64 = 4_000;
    let cache = ShardedCacheBuilder::new(2).spawn(LogCacheConfig::small().factory());
    let dispatcher = cache.dispatcher();
    let shards = dispatcher.shards();
    // Each thread reports its per-shard put count, or is found stuck.
    let (report, reports) = channel();
    let mut threads = Vec::new();
    for t in 0..WAVE_THREADS {
        let (d, report) = (dispatcher.clone(), report.clone());
        threads.push(std::thread::spawn(move || {
            let mut waves: Vec<Wave> = (0..shards).map(|_| Wave::default()).collect();
            let mut puts = vec![0u64; shards];
            for round in 0..ROUNDS {
                // Puts and lookups over both shards, from keys of this
                // thread's own.
                for i in 0..WAVE {
                    let key = (t << 32) | (round * WAVE + i);
                    let wave = &mut waves[d.shard_of(key)];
                    wave.push_put(key, 100, Nanos(round));
                    wave.push_lookup(key, Nanos(round));
                }
                for (shard, wave) in waves.iter_mut().enumerate() {
                    if wave.is_empty() {
                        continue;
                    }
                    d.run_wave(shard, wave);
                    assert_eq!(wave.done().len(), wave.len(), "every op answered");
                    for c in wave.done() {
                        match c.kind {
                            CompletionKind::Put => puts[shard] += 1,
                            CompletionKind::Get { .. } => {}
                            CompletionKind::Unavailable { .. } => panic!("refused"),
                        }
                    }
                    wave.clear();
                }
            }
            report.send(puts).expect("test alive");
        }));
    }
    // The fifth thread dispatches one request at a time meanwhile.
    {
        let (d, report) = (dispatcher.clone(), report.clone());
        threads.push(std::thread::spawn(move || {
            let (tx, rx) = channel();
            let mut puts = vec![0u64; shards];
            for i in 0..QUEUED {
                let key = (WAVE_THREADS << 32) | i;
                d.dispatch_put(key, 100, Nanos(i), i, &tx);
                puts[d.shard_of(key)] += 1;
            }
            for _ in 0..QUEUED {
                let c = rx.recv_timeout(Duration::from_secs(20)).expect("answered");
                assert_eq!(c.kind, CompletionKind::Put);
            }
            report.send(puts).expect("test alive");
        }));
    }
    drop((report, dispatcher));
    let mut expect = vec![0u64; shards];
    for _ in 0..=WAVE_THREADS {
        // A deadlock, or a thread that panicked, shows up here.
        let puts = reports
            .recv_timeout(Duration::from_secs(60))
            .expect("a thread got stuck or panicked");
        for (sum, n) in expect.iter_mut().zip(puts) {
            *sum += n;
        }
    }
    for thread in threads {
        thread.join().expect("a thread that reported has finished");
    }
    assert_eq!(
        expect.iter().sum::<u64>(),
        WAVE_THREADS * ROUNDS * WAVE + QUEUED
    );
    let report = cache.finish(Nanos::ZERO);
    let served: Vec<u64> = report.per_shard.iter().map(|s| s.puts).collect();
    assert_eq!(served, expect, "per-shard puts");
    assert!(served.iter().all(|&n| n > 0), "both shards took puts");
}
