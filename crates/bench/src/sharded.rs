//! Service-layer replay: the §5.2-style comparison run through
//! `nemo-service`'s sharded concurrent front-end instead of a lone
//! engine.
//!
//! Every shard owns a full `RunScale`-sized device, so a fleet of `N`
//! shards models an `N`× larger deployment; the trace catalog is scaled
//! to keep the same ~6× cache pressure over the *aggregate* capacity.
//! Every shard runs one background slice after every request, so
//! Nemo's eviction scan is paced here; only the final drain's back-to-back
//! flushes may finish one in a batch, as every flush does in the
//! lone-engine figure loops.

use crate::common::{f2, print_table, write_csv, RunScale, MERGED_WSS_MB};
use nemo_engine::CacheEngine;
use nemo_service::{OpenLoopConfig, OpenLoopReplay};
use nemo_trace::{TraceConfig, TraceGenerator};

/// The fleet's trace: catalog ~6x the *aggregate* flash of `shards`
/// full-size devices.
pub(crate) fn fleet_trace_config(scale: &RunScale, shards: usize) -> TraceConfig {
    TraceConfig::twitter_merged(scale.flash_mb as f64 * shards as f64 * 6.0 / MERGED_WSS_MB)
}

/// Arrival rate per shard for [`fleet_comparison`]. Every column of its
/// table is counter-derived, so any rate would print the same rows.
const FLEET_RATE_PER_SHARD: f64 = 8_000.0;

/// Demand-fill replay of `cfg.ops` requests through a fresh fleet built
/// from `factory`; returns the one-line summary row of the drained
/// fleet.
fn run_fleet<E, F>(
    label: &str,
    cfg: &OpenLoopConfig,
    factory: F,
    trace_cfg: &TraceConfig,
) -> Vec<String>
where
    E: CacheEngine + 'static,
    F: FnMut(usize) -> E,
{
    let mut trace = TraceGenerator::new(trace_cfg.clone());
    let report = OpenLoopReplay::new(cfg.clone())
        .run(factory, &mut trace)
        .report;
    let mean_gets = report.stats.gets as f64 / report.per_shard.len().max(1) as f64;
    let max_rel = report
        .per_shard
        .iter()
        .map(|s| s.gets as f64 / mean_gets.max(1.0))
        .fold(0.0, f64::max);
    vec![
        label.to_string(),
        f2(report.stats.alwa()),
        f2(report.stats.total_wa()),
        f2(report.stats.miss_ratio() * 100.0),
        f2(report.memory.bits_per_object()),
        f2(max_rel),
    ]
}

/// The five systems behind the sharded front-end: aggregate WA, miss
/// ratio and memory, plus the hottest shard's load relative to the mean
/// (hash routing keeps this near 1.0 even under Zipfian keys).
pub fn fleet_comparison(scale: RunScale, shards: usize) {
    println!("\n### Sharded service layer — five systems, {shards} shards each");
    println!(
        "per-shard device {} MB; aggregate {} MB",
        scale.flash_mb,
        scale.flash_mb * shards as u32
    );
    let trace_cfg = fleet_trace_config(&scale, shards);
    let ops = scale.ops_for_fills(3.0) * shards as u64;
    let mut cfg = OpenLoopConfig::new(ops, FLEET_RATE_PER_SHARD * shards as f64);
    cfg.shards = shards;
    let mut rows = vec![
        run_fleet("Nemo", &cfg, scale.nemo_config().factory(), &trace_cfg),
        run_fleet("Log", &cfg, scale.log_config().factory(), &trace_cfg),
        run_fleet(
            "FW",
            &cfg,
            scale.fairywren_config(5, 5).factory(),
            &trace_cfg,
        ),
        run_fleet("Set", &cfg, scale.set_config().factory(), &trace_cfg),
    ];
    // Kangaroo's 5 % set-region OP must exceed one zone of slack or its
    // independent GC has nothing to reclaim (its constructor enforces
    // this); with 1 MB zones that means ≥ ~24 MB per shard.
    if scale.flash_mb >= 24 {
        rows.push(run_fleet(
            "KG",
            &cfg,
            scale.kangaroo_config().factory(),
            &trace_cfg,
        ));
    } else {
        println!("   (skipping KG: per-shard device below Kangaroo's ~24 MB GC-slack minimum)");
    }
    let headers = [
        "system",
        "ALWA",
        "total WA",
        "miss %",
        "bits/obj",
        "max shard load",
    ];
    print_table(&format!("Sharded x{shards}"), &headers, &rows);
    write_csv("sharded_fleet", &headers, &rows);
}

/// One open-loop run, type-erased into a table row: total / queueing /
/// service percentiles in µs plus the post-drain miss ratio.
fn run_openloop<E, F>(
    label: &str,
    cfg: &OpenLoopConfig,
    factory: F,
    trace_cfg: &TraceConfig,
) -> Vec<String>
where
    E: CacheEngine + 'static,
    F: FnMut(usize) -> E,
{
    let us = |v: u64| f2(v as f64 / 1000.0);
    let mut trace = TraceGenerator::new(trace_cfg.clone());
    let r = OpenLoopReplay::new(cfg.clone()).run(factory, &mut trace);
    vec![
        label.to_string(),
        us(r.latency.p50()),
        us(r.latency.p99()),
        us(r.latency.p9999()),
        us(r.queueing.p50()),
        us(r.queueing.p99()),
        us(r.queueing.p9999()),
        us(r.service.p50()),
        us(r.service.p99()),
        us(r.service.p9999()),
        f2(r.report.stats.miss_ratio() * 100.0),
    ]
}

/// Open-loop latency of all five systems behind the sharded front-end:
/// requests arrive at `rate` req/s of virtual time (aggregate across
/// `shards`), at most `inflight` operations outstanding per shard, and
/// read latency is reported split into queueing delay (admission wait)
/// and service time. The shards pace Nemo's write-back scan in
/// background slices between requests — what replaces the old
/// arrival-pacing workaround; the baselines do their maintenance inline,
/// which is exactly the tail-latency difference Fig. 15 is about.
pub fn openloop_comparison(scale: RunScale, shards: usize, rate: f64, inflight: usize) {
    // Latency experiments use enterprise-class die parallelism, like
    // Fig. 15 (WA experiments keep 8 dies; see `RunScale::dies`).
    let scale = RunScale { dies: 64, ..scale };
    println!("\n### Open-loop latency — five systems, {shards} shard(s)");
    println!(
        "rate {rate:.0} req/s aggregate, in-flight {inflight}/shard, per-shard device {} MB x64 dies",
        scale.flash_mb
    );
    let ops = scale.ops_for_fills(2.0) * shards as u64;
    let trace_cfg = fleet_trace_config(&scale, shards);
    let mk_cfg = || {
        let mut c = OpenLoopConfig::new(ops, rate);
        c.shards = shards;
        c.inflight = inflight;
        c
    };
    let mut rows = vec![
        run_openloop("Nemo", &mk_cfg(), scale.nemo_config().factory(), &trace_cfg),
        run_openloop("Log", &mk_cfg(), scale.log_config().factory(), &trace_cfg),
        run_openloop(
            "FW",
            &mk_cfg(),
            scale.fairywren_config(5, 5).factory(),
            &trace_cfg,
        ),
        run_openloop("Set", &mk_cfg(), scale.set_config().factory(), &trace_cfg),
    ];
    if scale.flash_mb >= 24 {
        rows.push(run_openloop(
            "KG",
            &mk_cfg(),
            scale.kangaroo_config().factory(),
            &trace_cfg,
        ));
    } else {
        println!("   (skipping KG: per-shard device below Kangaroo's ~24 MB GC-slack minimum)");
    }
    let headers = [
        "system",
        "p50",
        "p99",
        "p9999",
        "queue p50",
        "queue p99",
        "queue p9999",
        "svc p50",
        "svc p99",
        "svc p9999",
        "miss %",
    ];
    print_table(
        &format!("Open loop x{shards} (latency in us)"),
        &headers,
        &rows,
    );
    write_csv("openloop", &headers, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_run_aggregates_across_shards() {
        let scale = RunScale {
            flash_mb: 16,
            ops_mult: 1.0,
            dies: 8,
        };
        let trace_cfg = fleet_trace_config(&scale, 2);
        let mut cfg = OpenLoopConfig::new(20_000, 16_000.0);
        cfg.shards = 2;
        let row = run_fleet("log", &cfg, scale.log_config().factory(), &trace_cfg);
        assert_eq!(row.len(), 6);
        let alwa: f64 = row[1].parse().expect("numeric ALWA");
        assert!(alwa >= 1.0, "ALWA {alwa}");
        let max_rel: f64 = row[5].parse().expect("numeric load");
        assert!((0.5..2.0).contains(&max_rel), "imbalance {max_rel}");
    }

    #[test]
    fn fleet_trace_scales_with_shards() {
        let scale = RunScale::default();
        let one = fleet_trace_config(&scale, 1);
        let four = fleet_trace_config(&scale, 4);
        let w1 = TraceGenerator::new(one).wss_bytes();
        let w4 = TraceGenerator::new(four).wss_bytes();
        assert!(
            w4 > 3 * w1,
            "fleet catalog must grow with shard count: {w1} vs {w4}"
        );
    }
}
