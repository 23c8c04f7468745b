//! Regression coverage for the Fig. 15 path: the open-loop driver, whose
//! shards pace Nemo's eviction scan one slice per request, must
//! hold flash-scale read latency at arrival rates *above* the old
//! closed-loop pacing cap.
//!
//! The pre-open-loop `fig15` paced arrivals at 8k req/s with a comment
//! admitting the workaround: any faster and foreground reads queued
//! behind the write-back read bursts inside `flush_front`, so the
//! "latency trend" silently depended on the driver never offering real
//! load. With the scan paced in bounded background slices (PR 3) *and*
//! a get that stops at the first copy of its key (so aged-pool gets
//! cost ~1 set read instead of one per stale copy), a rate 2.5x
//! that cap must show no divergence — queueing near zero, p50 pinned at
//! one flash read, candidate reads bounded, and no window drifting
//! upward over the run.

use nemo_bench::RunScale;
use nemo_service::{OpenLoopConfig, OpenLoopReplay};
use nemo_trace::TraceGenerator;

/// The arrival-pacing cap the old closed-loop Fig. 15 hid behind.
const OLD_PACING_CAP: f64 = 8_000.0;

#[test]
fn fig15_path_holds_above_old_pacing_cap() {
    let scale = RunScale {
        flash_mb: 16,
        ops_mult: 1.0,
        dies: 32,
    };
    // Well past pool-full, into steady-state eviction.
    let ops = scale.ops_for_fills(3.0);
    // 2.5x the old cap: the 1.5x the deferred-eviction PR held, plus
    // the extra read headroom stale-version filtering buys (Fig. 15's
    // default rate rose from 16k to 24k on the 64-die geometry for the
    // same reason).
    let mut cfg = OpenLoopConfig::new(ops, 2.5 * OLD_PACING_CAP);
    cfg.inflight = 32;
    cfg.sample_every = (ops / 12).max(1);
    cfg.warmup_ops = ops / 4;
    let mut trace = TraceGenerator::new(scale.trace_config());
    let r = OpenLoopReplay::new(cfg).run(scale.nemo_config().factory(), &mut trace);

    // Sanity: the run actually exercised steady-state eviction with the
    // paced scan, never the synchronous burst fallback.
    let nemo = &r.report.engines[0];
    let report = nemo.report();
    assert!(report.scan_slices > 0, "deferred scan never ran");
    // The final drain flushes the (two) in-memory SGs back to back with
    // no request slices in between, so shutdown may legitimately force
    // at most one in-progress scan per drained SG. Steady-state
    // starvation would force one per flush — dozens over this run.
    assert!(
        report.forced_scan_finishes <= 2,
        "{} flushes starved for zones and fell back to the read burst",
        report.forced_scan_finishes
    );
    assert!(
        r.report.stats.evicted_objects > 0,
        "pool never wrapped — the run is too short to test the fix"
    );

    // No divergence: p50 stays at one flash read, queueing stays far
    // below the old failure mode (which sat at hundreds of ms).
    let p50_us = r.latency.p50() / 1000;
    assert!(p50_us < 150, "aggregate p50 {p50_us} us — latency diverged");
    let q99_us = r.queueing.p99() / 1000;
    assert!(
        q99_us < 5_000,
        "queueing p99 {q99_us} us — device overloaded"
    );

    // And the trend must not drift upward: every post-warm-up window's
    // median stays flash-scale to the end of the run, and its per-get
    // candidate read cost stays near one set read (the staged path's
    // invariant — before stale-version filtering this drifted toward
    // one read per accumulated stale copy).
    for w in r.windows.iter().filter(|w| w.ops > ops / 4) {
        assert!(
            w.p50 < 1_000_000,
            "window at op {} has p50 {} ns — open-loop queueing is diverging",
            w.ops,
            w.p50
        );
        assert!(
            w.set_reads_per_get() <= 2.0,
            "window at op {} reads {:.2} candidate sets/get — stale filtering regressed",
            w.ops,
            w.set_reads_per_get()
        );
    }
    assert!(
        r.report.stats.candidate_reads_per_get() <= 2.0,
        "aggregate candidate reads/get {:.2} exceed the staged-path bound",
        r.report.stats.candidate_reads_per_get()
    );
}
