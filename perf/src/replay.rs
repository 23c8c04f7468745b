//! A single-threaded replay that owns the per-shard engines itself:
//! `real_direct`'s driver, and the traced runs' view of `core` and
//! `flash`. Requests route with `shard_of`; a miss is demand-filled;
//! one background slice follows each op, as a shard worker runs it.

use crate::common::Samples;
use crate::spans::Spans;
use nemo_core::Nemo;
use nemo_engine::CacheEngine;
use nemo_flash::{Nanos, ZonedFlash};
use nemo_service::shard_of;
use nemo_trace::{RequestKind, TraceConfig, TraceGenerator};
use std::time::Instant;

/// What a replay saw. Timings are wall ns around the calls and stay
/// empty while the replay runs without spans.
#[derive(Debug, Default)]
pub struct Seen {
    pub ops: u64,
    pub gets: u64,
    pub hits: u64,
    pub errors: u64,
    /// `try_get` by outcome: memory hit, flash hit, miss.
    pub get_ns: [Samples; 3],
    /// `try_put`: direct writes and demand fills.
    pub put_ns: Samples,
    pub puts: u64,
    /// `background_slice`: ns and count of the timed ones, and all.
    pub bg_ns: u64,
    pub bg_timed: u64,
    pub bg_slices: u64,
    pub wall_s: f64,
}

impl Seen {
    pub fn all_gets(&self) -> Samples {
        let mut all = self.get_ns[0].clone();
        all.extend(&self.get_ns[1]);
        all.extend(&self.get_ns[2]);
        all
    }
}

/// One request in `TIMED` is timed, which keeps the clock reads under a
/// twentieth of the replay's time; spans keep one timed request in 16.
const TIMED: u64 = 4;

const GET_SPANS: [&str; 3] = ["core.get_mem", "core.get_flash", "core.get_miss"];

/// The engines, the trace they replay, and what was seen so far.
pub struct Replay<D: ZonedFlash + Send> {
    pub engines: Vec<Nemo<D>>,
    trace: TraceGenerator,
    /// Number of the next op; op `n` arrives at virtual time `n * gap_ns`.
    next: u64,
    gap_ns: u64,
    pub seen: Seen,
}

impl<D: ZonedFlash + Send> Replay<D> {
    /// `gap_ns` is 0 on a measuring device, whose completion time then is
    /// the measured latency.
    pub fn new(engines: Vec<Nemo<D>>, trace: &TraceConfig, gap_ns: u64) -> Self {
        Self {
            engines,
            trace: TraceGenerator::new(trace.clone()),
            next: 1,
            gap_ns,
            seen: Seen::default(),
        }
    }

    /// Virtual time of the next op.
    pub fn now(&self) -> Nanos {
        Nanos(self.gap_ns * self.next)
    }

    /// Replays the next `ops` requests. With `spans`, the calls of one
    /// request in four are timed, and one request in 64 is kept.
    pub fn run(&mut self, ops: u64, mut spans: Option<&mut Spans>) {
        let seen = &mut self.seen;
        seen.ops += ops;
        let wall = Instant::now();
        for op in self.next..self.next + ops {
            let req = self.trace.next_request();
            let shard = shard_of(req.key, self.engines.len());
            let eng = &mut self.engines[shard];
            let mut now = Nanos(self.gap_ns * op);
            let keep = Spans::sampled(op);
            let mut spans = spans.as_deref_mut().filter(|_| op.is_multiple_of(TIMED));
            let begun = spans.as_deref_mut().map(Spans::mark);
            let mut fill = req.kind == RequestKind::Put;
            if !fill {
                seen.gets += 1;
                match eng.try_get(req.key, now) {
                    Ok(out) => {
                        seen.hits += out.hit as u64;
                        fill = !out.hit;
                        now = out.done_at;
                        let class = match (out.hit, out.flash_reads) {
                            (true, 0) => 0,
                            (true, _) => 1,
                            _ => 2,
                        };
                        if let Some(s) = spans.as_deref_mut() {
                            seen.get_ns[class].push(s.stage(GET_SPANS[class], "request", op, keep));
                        }
                    }
                    Err(_) => seen.errors += 1,
                }
            }
            if fill {
                seen.puts += 1;
                match eng.try_put(req.key, req.size, now) {
                    Ok(done) => now = done,
                    Err(_) => seen.errors += 1,
                }
                if let Some(s) = spans.as_deref_mut() {
                    seen.put_ns.push(s.stage("core.put", "request", op, keep));
                }
            }
            if eng.background_pending() {
                eng.background_slice(now);
                seen.bg_slices += 1;
                if let Some(s) = spans.as_deref_mut() {
                    seen.bg_ns += s.stage("core.bg_slice", "request", op, keep);
                    seen.bg_timed += 1;
                }
            }
            if let (Some(s), Some(begun)) = (spans, begun) {
                s.root("request", op, begun, keep);
            }
        }
        self.next += ops;
        seen.wall_s += wall.elapsed().as_secs_f64();
    }
}
