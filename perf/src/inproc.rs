//! `inproc_twitter` and `inproc_flat_write`: one dispatcher thread
//! drives the 2-shard fleet open loop in virtual time at 64 000 req/s,
//! inflight 32, with demand fill inside the worker. No sockets.

use crate::common::{
    fleet, mean, median, rss_mb, Args, Report, Samples, Slices, GAP_NS, SETUPS, SHARDS, SIM_ZONES,
    SLICES,
};
use nemo_core::Nemo;
use nemo_flash::Nanos;
use nemo_service::{Completion, CompletionKind, ShardedCache, ShardedReport};
use nemo_trace::{RequestKind, TraceConfig, TraceGenerator};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

/// What the completion collector counted. Latencies cover gets whose
/// sequence number is past the warm-up.
#[derive(Debug, Default)]
pub struct Tally {
    pub completions: u64,
    pub unavailable: u64,
    pub gets: u64,
    pub hits: u64,
    pub latency: Samples,
    /// Gets that waited for admission behind the in-flight window.
    pub queued: u64,
    pub sim_end: u64,
    /// Gets numbered above this are measured.
    warm: u64,
}

/// The trace and the nominal ops per second of a workload.
pub fn shape(args: &Args) -> (TraceConfig, u64) {
    let trace = args.mix(0, (SHARDS as u32 * SIM_ZONES) as f64);
    let rate = if trace.write_fraction > 0.1 {
        520_000
    } else {
        800_000
    };
    (trace, rate)
}

/// The fleet and its one driver thread, which dispatches and, between
/// dispatches, collects the completions.
pub struct Fleet {
    pub cache: ShardedCache<Nemo>,
    trace: TraceGenerator,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    /// Number of the next op; op `n` arrives at virtual time `n * GAP_NS`.
    next: u64,
    tally: Tally,
}

impl Tally {
    fn record(&mut self, c: Completion) {
        self.completions += 1;
        self.sim_end = self.sim_end.max(c.done.0);
        match c.kind {
            CompletionKind::Get { hit, .. } if c.seq > self.warm => {
                self.gets += 1;
                self.hits += hit as u64;
                self.latency.push(c.queueing() + c.service());
                self.queued += (c.queueing() > 0) as u64;
            }
            CompletionKind::Unavailable { .. } => self.unavailable += 1,
            _ => {}
        }
    }
}

impl Fleet {
    /// Builds the fleet. Gets numbered above `warm` are measured.
    pub fn start(trace: &TraceConfig, warm: u64) -> Self {
        let (tx, rx) = channel();
        Self {
            cache: fleet(),
            trace: TraceGenerator::new(trace.clone()),
            tx,
            rx,
            next: 1,
            tally: Tally {
                warm,
                ..Tally::default()
            },
        }
    }

    fn send(&mut self) -> u64 {
        let op = self.next;
        self.next += 1;
        let arrival = Nanos(GAP_NS * op);
        let r = self.trace.next_request();
        match r.kind {
            RequestKind::Get => self
                .cache
                .dispatch_get(r.key, r.size, arrival, op, &self.tx),
            RequestKind::Put => self
                .cache
                .dispatch_put(r.key, r.size, arrival, op, &self.tx),
        }
        op
    }

    /// Dispatches the next `ops` ops without waiting for them, collecting
    /// whatever has completed every 32 ops.
    pub fn dispatch(&mut self, ops: u64) {
        for _ in 0..ops {
            if self.send().is_multiple_of(32) {
                self.collect();
            }
        }
    }

    /// Collects the completions that have arrived.
    pub fn collect(&mut self) {
        for c in self.rx.try_iter() {
            self.tally.record(c);
        }
    }

    /// Sends the next `ops` ops one at a time and times each get from
    /// dispatch to completion: the wall latency an in-process caller
    /// sees, the worker's wake-up and its own included. (With two or more
    /// in flight some gets find their worker awake, and the median then
    /// sits between a 10 us and a 40 us mode and jumps from run to run.)
    /// Waits first for whatever is in flight.
    pub fn one_by_one(&mut self, ops: u64, wall: &mut Samples) {
        // A stats round trip queues behind every dispatched op.
        self.cache.stats();
        self.collect();
        for _ in 0..ops {
            let t0 = Instant::now();
            self.send();
            let c = self.rx.recv().expect("shard worker alive");
            if matches!(c.kind, CompletionKind::Get { .. }) {
                wall.push(t0.elapsed().as_nanos() as u64);
            }
            self.tally.record(c);
        }
    }

    /// Waits for every completion, drains the fleet and joins it.
    pub fn finish(mut self) -> (Tally, ShardedReport<Nemo>) {
        // Every queued command holds a sender: the channel closes when the
        // workers have answered them all.
        drop(self.tx);
        for c in self.rx.iter() {
            self.tally.record(c);
        }
        let report = self.cache.finish(Nanos(self.tally.sim_end));
        (self.tally, report)
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let (trace, rate) = shape(args);
    let part = args.ops(rate) / SLICES;
    let (measured, warm) = (part * SLICES, part * SLICES / 4);
    let single = args.ops(5_000) / SLICES;
    let set_up = || {
        let t0 = Instant::now();
        let mut fleet = Fleet::start(&trace, warm);
        fleet.dispatch(warm);
        (fleet, t0.elapsed().as_secs_f64())
    };
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        let (fleet, secs) = set_up();
        fleet.finish();
        setups.push(secs);
    }
    let (mut fleet, secs) = set_up();
    setups.push(secs);
    let (mut slices, mut bits, mut get_wall) = (Slices::new(), Vec::new(), Samples::default());
    for _ in 0..SLICES {
        slices.begin();
        fleet.dispatch(part);
        // A stats round trip queues behind every dispatched op: a barrier
        // that leaves the engines as they are.
        fleet.cache.stats();
        slices.end(part);
        bits.push(fleet.cache.memory().bits_per_object());
        fleet.one_by_one(single, &mut get_wall);
    }
    let (mut tally, report) = fleet.finish();

    let ops = warm + measured + single * SLICES;
    rep.attempted = ops;
    rep.failed = tally.unavailable + ops.saturating_sub(tally.completions);
    rep.check(tally.completions == ops, || {
        format!("{} completions for {ops} ops", tally.completions)
    });
    rep.put("setup_s", median(setups), format!("n={SETUPS}"));
    slices.report(rep, "");
    rep.put_ns("get_mean_us", &mut tally.latency, 1e3, None);
    rep.put_ns("wall_get_p50_us", &mut get_wall, 1e3, Some(0.5));
    rep.put_ns("wall_get_p90_us", &mut get_wall, 1e3, Some(0.9));
    rep.put_counts(tally.hits, tally.gets, &report.stats);
    rep.put(
        "index_bits_per_object",
        mean(&bits),
        format!("n={}", bits.len()),
    );
    rep.put("rss_mb", rss_mb(), "n=1");
}
