//! Steady-state regression for the get path: on the 96 MB Fig. 15
//! geometry, stale copies of updated hot keys accumulate across pooled
//! SGs, and a get that read every candidate grew from ~1 set read on a
//! young pool to ~6+ once eviction reached steady state (the late-run
//! p99 drift in Fig. 15). Walking newest first and stopping at the first
//! copy, the aged-pool cost must stay at or below 2 set reads per get.

use nemo_bench::common::drive;
use nemo_bench::RunScale;
use nemo_core::Nemo;
use nemo_engine::CacheEngine;

/// Candidate reads per get over the interval between two cumulative
/// `(candidate_reads, gets)` samples.
fn per_get(from: (u64, u64), to: (u64, u64)) -> f64 {
    let gets = to.1 - from.1;
    if gets == 0 {
        0.0
    } else {
        (to.0 - from.0) as f64 / gets as f64
    }
}

#[test]
fn aged_pool_candidate_reads_stay_bounded_on_fig15_geometry() {
    let scale = RunScale {
        flash_mb: 96,
        ops_mult: 1.0,
        dies: 8,
    };
    // 1.75 turnovers: the pool wraps well before the half-way mark, so
    // the last quarter measures genuine steady-state eviction churn.
    let ops = scale.ops_for_fills(1.75);
    let mut nemo = Nemo::new(scale.nemo_config());
    // Cumulative samples at each quarter of the run.
    let mut marks = Vec::new();
    drive(
        &mut nemo,
        &mut scale.merged_trace(),
        ops,
        (ops / 4).max(1),
        |e, _| {
            let s = e.stats();
            marks.push((s.candidate_reads, s.gets));
        },
    );
    let stats = nemo.stats();
    assert!(
        stats.evicted_objects > 0,
        "pool never wrapped — run too short to age the pool"
    );

    // Young pool (first quarter): roughly one candidate read per get.
    let young = per_get((0, 0), marks[0]);
    assert!(
        young < 1.5,
        "young-pool candidate reads/get {young:.2} already degenerate"
    );
    // Aged pool (fourth quarter, marks[2] -> marks[3]). `drive` appends
    // one extra sample at `op == ops` when `ops` is not divisible by 4,
    // so index from the front — the trailing partial interval can span
    // as little as one op. Reading every candidate, this quarter
    // measured ~6-12 on this geometry.
    assert!(marks.len() >= 4, "expected quarterly samples");
    let aged = per_get(marks[2], marks[3]);
    assert!(
        aged <= 2.0,
        "aged-pool candidate set-reads/get {aged:.2} exceed the 2-read bound"
    );
    // Whole-run mean too, for good measure.
    assert!(
        stats.candidate_reads_per_get() <= 2.0,
        "mean candidate reads/get {:.2} exceed the bound",
        stats.candidate_reads_per_get()
    );
    assert_eq!(nemo.report().stale_version_reads, 0);
    // Zoned devices have DLWA = 1 by construction (device writes ==
    // application writes).
    assert_eq!(stats.nand_bytes_written, stats.flash_bytes_written);
}
