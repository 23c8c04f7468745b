//! Replays the merged Twitter-like workload (paper §5.1, Table 5)
//! *open loop* against Nemo and FairyWREN side by side, printing the
//! paper's headline comparison: write amplification, miss ratio, and
//! read latency split into queueing delay and service time — plus the
//! same Nemo capacity as a four-shard fleet behind the `nemo-service`
//! front-end, driven by the same open-loop engine.
//!
//! Requests arrive at a fixed virtual-time rate whether or not the
//! system keeps up (`nemo_service::OpenLoopReplay`), so a system that
//! falls behind shows *queueing delay*, not a conveniently longer run.
//! The open-loop driver's shards pace Nemo's write-back scan in
//! bounded slices between requests, the role the paper's dedicated
//! background threads play, instead of leaving it to the flush.
//!
//! ```text
//! cargo run --release --example twitter_replay [flash_mb] [ops] [--smoke]
//! ```
//!
//! `--smoke` (or `NEMO_SMOKE=1`) shrinks the run for CI smoke tests.

use nemo_repro::baselines::FairyWrenConfig;
use nemo_repro::core::NemoConfig;
use nemo_repro::engine::CacheEngine;
use nemo_repro::flash::Geometry;
use nemo_repro::service::{OpenLoopConfig, OpenLoopReplay};
use nemo_repro::trace::{TraceConfig, TraceGenerator};

const SHARDS: usize = 4;
/// Open-loop arrival rate (req/s of virtual time): 2.5x the 8k cap the
/// old closed-loop replay had to pace arrivals under. The bound now is
/// honest device capacity, not the write-back burst workaround.
const RATE: f64 = 20_000.0;

fn smoke() -> bool {
    std::env::var_os("NEMO_SMOKE").is_some_and(|v| v != "0")
        || std::env::args().any(|a| a == "--smoke")
}

/// The single-device rows use enterprise-class die parallelism (64
/// dies, the §5.2 latency setup); the sharded row splits the same flash
/// budget into four 16-die devices, so aggregate parallelism matches
/// and the comparison isolates the front-end.
fn latency_geometry(flash_mb: u32) -> Geometry {
    Geometry::new(4096, 256, flash_mb, 64)
}

fn nemo_cfg(geometry: Geometry) -> NemoConfig {
    let mut cfg = NemoConfig::new(geometry);
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    cfg
}

fn run_row<E, F>(label: &str, cfg: OpenLoopConfig, factory: F, trace_cfg: &TraceConfig)
where
    E: CacheEngine + 'static,
    F: FnMut(usize) -> E,
{
    let mut trace = TraceGenerator::new(trace_cfg.clone());
    let r = OpenLoopReplay::new(cfg).run(factory, &mut trace);
    println!(
        "{:<10} {:>8.2} {:>10.2} {:>10.1} {:>10.1} {:>10.1} {:>12.2}",
        label,
        r.report.stats.alwa(),
        r.report.stats.miss_ratio() * 100.0,
        r.latency.p50() as f64 / 1000.0,
        r.latency.p99() as f64 / 1000.0,
        r.queueing.p99() as f64 / 1000.0,
        r.report.memory.bits_per_object(),
    );
}

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| a != "--smoke");
    let flash_mb: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(48);
    let default_ops = if smoke() { 150_000 } else { 1_500_000 };
    let ops: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(default_ops);
    // Catalog ~6x flash so steady-state eviction engages.
    let trace_cfg = TraceConfig::twitter_merged(flash_mb as f64 * 6.0 / 337_848.0);
    let cfg = |shards: usize| {
        let mut c = OpenLoopConfig::new(ops, RATE);
        c.shards = shards;
        c.inflight = 32;
        c
    };

    println!(
        "open-loop replay: {ops} ops of the merged Twitter-like trace, {RATE:.0} req/s, \
         {flash_mb} MB flash\n"
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "system", "WA", "miss %", "p50 us", "p99 us", "q99 us", "bits/obj"
    );

    run_row(
        "nemo",
        cfg(1),
        nemo_cfg(latency_geometry(flash_mb)).factory(),
        &trace_cfg,
    );

    // The same flash budget partitioned into a shard-per-core fleet:
    // four quarter-size 16-die Nemos behind the hash-routing front-end
    // (4 x 16 = the monolith's 64 dies), under the identical aggregate
    // arrival rate.
    let mut shard_cfg = nemo_cfg(Geometry::new(
        4096,
        256,
        (flash_mb / SHARDS as u32).max(1),
        16,
    ));
    shard_cfg.index_group_sgs = 8;
    let label = format!("nemo x{SHARDS}");
    run_row(&label, cfg(SHARDS), shard_cfg.factory(), &trace_cfg);

    run_row(
        "fairywren",
        cfg(1),
        FairyWrenConfig::log_op(latency_geometry(flash_mb), 5, 5).factory(),
        &trace_cfg,
    );
}
