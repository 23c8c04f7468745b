//! Open-loop replay over the sharded front-end: the one timed driver.
//!
//! A driver that blocks on every get throttles the offered load with its
//! own waiting: the engine is never asked to absorb more than one
//! request at a time and overload can only show up as a longer run,
//! never as queueing. Production cache fleets — and the evaluations of
//! Flashield and the FDP flash-cache study — are measured *open loop*
//! instead: requests arrive on a clock regardless of how the system is
//! coping, and latency under load includes the time spent waiting for
//! admission.
//!
//! [`OpenLoopReplay`] reproduces that methodology in virtual time.
//! Requests are admitted at [`OpenLoopConfig::arrival_rate`] whatever
//! the shards' virtual backlog: each request arrives at its scheduled
//! instant, and each shard bounds its outstanding work with an
//! in-flight window ([`OpenLoopConfig::inflight`]), so a backlog shows
//! up as admission wait rather than as a later arrival. Each shard runs
//! one bounded background slice after each request (so engine
//! maintenance like Nemo's write-back scan interleaves with service
//! instead of bursting) and reports every operation's [`Completion`] on
//! a reply channel. The one thread that dispatches also serves each
//! request and folds its completion into per-window and aggregate
//! histograms, plus per-window hit and refusal counts (a dead shard's
//! `Unavailable` answers), keeping **queueing delay** (admission wait,
//! `start - arrival`) separate from **service time** (`done - start`):
//! percentiles of a sum are not sums of percentiles, so both are
//! recorded independently alongside the total. A run is one thread.
//!
//! Determinism: arrivals, admission, service, and demand fills are all
//! functions of the request sequence and virtual time only, so for a
//! fixed trace, rate, and shard count the result is identical from run
//! to run.
//!
//! # Examples
//!
//! ```
//! use nemo_baselines::LogCacheConfig;
//! use nemo_service::{OpenLoopConfig, OpenLoopReplay};
//! use nemo_trace::{TraceConfig, TraceGenerator};
//!
//! let mut cfg = OpenLoopConfig::new(5_000, 100_000.0);
//! cfg.shards = 2;
//! cfg.sample_every = 1_000;
//! let mut trace = TraceGenerator::new(TraceConfig::twitter_merged(0.0002));
//! let result = OpenLoopReplay::new(cfg).run(LogCacheConfig::small().factory(), &mut trace);
//! assert_eq!(result.windows.len(), 5);
//! assert!(result.report.stats.gets + result.report.stats.puts >= 5_000);
//! ```

use crate::sharded::{Completion, CompletionKind, ShardedCacheBuilder, ShardedReport};
use nemo_engine::CacheEngine;
use nemo_flash::Nanos;
use nemo_metrics::{LatencyHistogram, LatencyWindow};
use nemo_trace::{RequestKind, TraceGenerator};
use std::sync::mpsc::channel;

/// Parameters of an open-loop replay.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Total requests to replay.
    pub ops: u64,
    /// Open-loop arrival rate in requests/second of virtual time,
    /// aggregate across all shards.
    pub arrival_rate: f64,
    /// Shards (one engine and one simulated device each).
    pub shards: usize,
    /// Per-shard in-flight window ([`ShardedCacheBuilder::inflight`]).
    pub inflight: usize,
    /// Interval (in ops) between latency trend windows.
    pub sample_every: u64,
    /// Requests excluded from the aggregate histograms (cache warm-up).
    /// Trend windows still cover the full run.
    pub warmup_ops: u64,
}

impl OpenLoopConfig {
    /// A configuration with sensible defaults: one shard, in-flight
    /// window 16, 24 trend windows, first quarter of the run treated as
    /// warm-up. (The experiment presets tune these per figure — Fig. 15
    /// runs a 64-deep window.)
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0` or `arrival_rate` is not positive.
    pub fn new(ops: u64, arrival_rate: f64) -> Self {
        assert!(ops > 0, "ops must be positive");
        assert!(arrival_rate > 0.0, "arrival rate must be positive");
        Self {
            ops,
            arrival_rate,
            shards: 1,
            inflight: 16,
            sample_every: (ops / 24).max(1),
            warmup_ops: ops / 4,
        }
    }
}

/// Everything an open-loop replay produces.
#[derive(Debug)]
pub struct OpenLoopResult<E> {
    /// Final drained state of the shard fleet
    /// ([`crate::ShardedCache::finish`]).
    pub report: ShardedReport<E>,
    /// Total read latency (queueing + service) over the post-warm-up run.
    pub latency: LatencyHistogram,
    /// Queueing delay (admission wait) over the post-warm-up run.
    pub queueing: LatencyHistogram,
    /// Service time over the post-warm-up run.
    pub service: LatencyHistogram,
    /// Windowed read-latency percentiles, total and split.
    pub windows: Vec<LatencyWindow>,
    /// Latest virtual completion time observed.
    pub sim_end: Nanos,
}

/// The open-loop replay driver. Get misses demand-fill on the owning
/// shard under the same take of its lock
/// ([`crate::Dispatcher::dispatch_get`]).
#[derive(Debug, Clone)]
pub struct OpenLoopReplay {
    cfg: OpenLoopConfig,
}

impl OpenLoopReplay {
    /// Creates a driver.
    pub fn new(cfg: OpenLoopConfig) -> Self {
        Self { cfg }
    }

    /// Replays `trace` against a fresh fleet built from `factory`
    /// (`factory(shard)` builds shard `shard`'s engine).
    ///
    /// # Panics
    ///
    /// Panics if the configuration was mutated into an invalid state
    /// (`ops`, `arrival_rate` or `sample_every` not positive).
    pub fn run<E, F>(&self, factory: F, trace: &mut TraceGenerator) -> OpenLoopResult<E>
    where
        E: CacheEngine + 'static,
        F: FnMut(usize) -> E,
    {
        let cfg = &self.cfg;
        // The fields are public (the documented way to tune a config
        // after `new`), so re-check what the fold divides by.
        assert!(cfg.ops > 0, "ops must be positive");
        assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");
        assert!(cfg.sample_every > 0, "sample_every must be positive");
        let gap = (1e9 / cfg.arrival_rate) as u64;
        // Sub-nanosecond gaps would collapse every arrival to t=0 (and
        // rates like INFINITY pass the sign check above).
        assert!(gap >= 1, "arrival rate above 1e9 req/s is not modelable");
        let cache = ShardedCacheBuilder::new(cfg.shards)
            .inflight(cfg.inflight)
            .spawn(factory);
        let (tx, rx) = channel::<Completion>();
        let mut fold = Fold::new(cfg, gap);
        for op in 1..=cfg.ops {
            let arrival = Nanos(gap * op);
            let r = trace.next_request();
            match r.kind {
                RequestKind::Get => cache.dispatch_get(r.key, r.size, arrival, op, &tx),
                RequestKind::Put => cache.dispatch_put(r.key, r.size, arrival, op, &tx),
            }
            // The dispatch sent its completion before it returned.
            rx.try_iter().for_each(|c| fold.record(c));
        }
        let report = cache.finish(fold.sim_end);
        OpenLoopResult {
            report,
            latency: fold.total,
            queueing: fold.queue,
            service: fold.service,
            windows: fold.windows,
            sim_end: fold.sim_end,
        }
    }
}

/// One trend window's live accumulators. Latency histograms record gets
/// only (like the paper's read latency plots).
#[derive(Default)]
struct WindowAccum {
    total: LatencyHistogram,
    queue: LatencyHistogram,
    service: LatencyHistogram,
    get_ops: u64,
    hits: u64,
    refused: u64,
    set_reads: u64,
}

impl WindowAccum {
    fn finalize(&self, end_op: u64, gap: u64) -> LatencyWindow {
        LatencyWindow {
            ops: end_op,
            at: Nanos(gap * end_op),
            p50: self.total.p50(),
            p99: self.total.p99(),
            p9999: self.total.p9999(),
            queue_p50: self.queue.p50(),
            queue_p99: self.queue.p99(),
            queue_p9999: self.queue.p9999(),
            service_p50: self.service.p50(),
            service_p99: self.service.p99(),
            service_p9999: self.service.p9999(),
            get_ops: self.get_ops,
            hits: self.hits,
            refused: self.refused,
            set_reads: self.set_reads,
        }
    }
}

/// Folds completions into per-window and aggregate histograms. Every
/// dispatch sends its completion before it returns, so completions
/// arrive in sequence order and one running window suffices: it closes
/// on the last op of its window.
struct Fold<'a> {
    cfg: &'a OpenLoopConfig,
    gap: u64,
    window: WindowAccum,
    windows: Vec<LatencyWindow>,
    total: LatencyHistogram,
    queue: LatencyHistogram,
    service: LatencyHistogram,
    sim_end: Nanos,
}

impl<'a> Fold<'a> {
    fn new(cfg: &'a OpenLoopConfig, gap: u64) -> Self {
        Self {
            cfg,
            gap,
            window: WindowAccum::default(),
            windows: Vec::with_capacity(cfg.ops.div_ceil(cfg.sample_every) as usize),
            total: LatencyHistogram::new(),
            queue: LatencyHistogram::new(),
            service: LatencyHistogram::new(),
            sim_end: Nanos::ZERO,
        }
    }

    fn record(&mut self, c: Completion) {
        self.sim_end = self.sim_end.max(c.done);
        let acc = &mut self.window;
        match c.kind {
            CompletionKind::Get { hit, set_reads, .. } => {
                let (q, s) = (c.queueing(), c.service());
                acc.total.record(q + s);
                acc.queue.record(q);
                acc.service.record(s);
                acc.get_ops += 1;
                acc.hits += u64::from(hit);
                acc.set_reads += set_reads as u64;
                if c.seq > self.cfg.warmup_ops {
                    self.total.record(q + s);
                    self.queue.record(q);
                    self.service.record(s);
                }
            }
            CompletionKind::Put => {}
            CompletionKind::Unavailable { .. } => acc.refused += 1,
        }
        if c.seq % self.cfg.sample_every == 0 || c.seq == self.cfg.ops {
            let window = std::mem::take(&mut self.window);
            self.windows.push(window.finalize(c.seq, self.gap));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_baselines::{LogCacheConfig, SetCacheConfig};
    use nemo_flash::{standard_geometry, Geometry, LatencyModel};
    use nemo_trace::TraceConfig;

    fn trace() -> TraceGenerator {
        TraceGenerator::new(TraceConfig::twitter_merged(0.0002))
    }

    #[test]
    fn openloop_collects_windows_and_split() {
        let mut cfg = OpenLoopConfig::new(20_000, 200_000.0);
        cfg.shards = 2;
        cfg.sample_every = 5_000;
        cfg.warmup_ops = 0;
        let r = OpenLoopReplay::new(cfg).run(LogCacheConfig::small().factory(), &mut trace());
        assert_eq!(r.windows.len(), 4);
        assert!(r.latency.count() > 0);
        assert_eq!(r.latency.count(), r.queueing.count());
        assert_eq!(r.latency.count(), r.service.count());
        assert!(r.sim_end > Nanos::ZERO);
        for w in &r.windows {
            assert!(w.p99 >= w.service_p99.max(w.queue_p99) || w.p99 == 0);
        }
        // Every dispatched op reached an engine.
        assert!(r.report.stats.gets + r.report.stats.puts >= 20_000);
    }

    #[test]
    fn overload_shows_up_as_queueing_not_lost_ops() {
        // One die and a ruinous arrival rate: the device cannot keep up,
        // so queueing delay must dominate total latency while every
        // request is still serviced.
        let lcfg = LogCacheConfig {
            geometry: Geometry::new(4096, 64, 8, 1),
            latency: LatencyModel::default(),
        };
        let mut cfg = OpenLoopConfig::new(30_000, 1_000_000.0);
        cfg.inflight = 4;
        cfg.warmup_ops = 0;
        let r = OpenLoopReplay::new(cfg).run(lcfg.factory(), &mut trace());
        assert!(r.report.stats.gets + r.report.stats.puts >= 30_000);
        assert!(
            r.queueing.p99() > r.service.p99(),
            "overload must surface as queueing ({} ns) above service ({} ns)",
            r.queueing.p99(),
            r.service.p99()
        );
    }

    /// The closed-loop harness's quick preset: 50k req/s, no warm-up cut.
    fn quick(ops: u64) -> OpenLoopReplay {
        let mut cfg = OpenLoopConfig::new(ops, 50_000.0);
        cfg.warmup_ops = 0;
        OpenLoopReplay::new(cfg)
    }

    #[test]
    fn miss_ratio_decreases_as_cache_warms() {
        let lcfg = LogCacheConfig {
            geometry: standard_geometry(32),
            latency: LatencyModel::zero(),
        };
        // (gets, hits) after the first `ops` requests of one trace.
        let upto = |ops: u64| {
            let mut t = TraceGenerator::new(TraceConfig::twitter_merged(0.0001));
            let s = quick(ops).run(lcfg.clone().factory(), &mut t).report.stats;
            (s.gets, s.hits)
        };
        let miss = |(gets, hits): (u64, u64)| 1.0 - hits as f64 / gets as f64;
        let (head, before_tail, all) = (upto(3_000), upto(57_000), upto(60_000));
        let early = miss(head);
        let late = miss((all.0 - before_tail.0, all.1 - before_tail.1));
        assert!(
            late < early,
            "cache should warm up: early {early}, late {late}"
        );
    }

    #[test]
    fn set_cache_wa_exceeds_log_cache_wa() {
        let geometry = standard_geometry(16);
        let log = LogCacheConfig {
            geometry,
            latency: LatencyModel::zero(),
        };
        let set = SetCacheConfig {
            geometry,
            latency: LatencyModel::zero(),
            op_ratio: 0.5,
            bloom_bits_per_object: 4.0,
        };
        let rl = quick(30_000).run(log.factory(), &mut trace());
        let rs = quick(30_000).run(set.factory(), &mut trace());
        let (log_wa, set_wa) = (rl.report.stats.alwa(), rs.report.stats.alwa());
        assert!(
            set_wa > 5.0 * log_wa,
            "set ({set_wa}) must dwarf log ({log_wa})"
        );
    }

    #[test]
    fn latency_is_nonzero_under_real_model() {
        let lcfg = LogCacheConfig {
            geometry: standard_geometry(16),
            latency: LatencyModel::default(),
        };
        let r = quick(30_000).run(lcfg.factory(), &mut trace());
        // Flash-hit reads take ≥ 70 µs; the aggregate histogram must show
        // flash-scale latencies somewhere past the median.
        assert!(r.latency.percentile(0.99) >= 70_000);
    }

    #[test]
    fn warmup_trims_aggregate_but_not_windows() {
        let mut cfg = OpenLoopConfig::new(10_000, 100_000.0);
        cfg.sample_every = 2_500;
        cfg.warmup_ops = 5_000;
        let r = OpenLoopReplay::new(cfg).run(LogCacheConfig::small().factory(), &mut trace());
        assert_eq!(r.windows.len(), 4);
        let gets = r.report.stats.gets;
        assert!(r.latency.count() < gets, "warm-up must be excluded");
    }
}
