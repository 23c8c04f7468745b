//! End-to-end device validation: the same trace replayed on the modeled
//! and real-I/O backends, side by side.
//!
//! # Why this experiment exists
//!
//! Every latency figure the reproduction emits (Fig. 15, the open-loop
//! p99 work) is computed from `SimFlash`'s *modeled* per-die timeline —
//! so, on its own, the reproduction validates Nemo's latency claims only
//! against its own model. This experiment closes that loop with the
//! `RealFlash` backend: identical cache logic, identical trace, but the
//! device issues actual `pread`/`pwrite` syscalls and reports *measured*
//! wall-clock completion times. Three things come out of it:
//!
//! 1. **Behavioural parity** (asserted, not just printed): hit ratio,
//!    ALWA, DLWA and every device op count must be identical across
//!    backends — the backend may change *time*, never *behaviour*. Any
//!    divergence is a bug in a backend, and this experiment is the
//!    harness that would catch it.
//! 2. **Side-by-side latency CDFs**: modeled virtual time next to
//!    measured wall time at p50/p90/p99/p99.9/p99.99, for reads. On a
//!    tmpfs- or page-cache-backed file the measured numbers are
//!    dominated by syscall + memcpy cost (microseconds); on a raw block
//!    device they include the medium. Either way they expose the shape
//!    the model cannot: syscall floors, write-buffer cliffs, fsync
//!    barriers at zone resets.
//! 3. **WA**: byte-for-byte equal across backends, reported for
//!    completeness (WA is an accounting property, not a timing one).
//!
//! The real device lives in `$TMPDIR` (tmpfs in the CI smoke job) or a
//! caller-supplied directory — point it at a file on a real SSD, or at a
//! raw block device, to measure actual hardware.

use crate::common::{drive, f2, f3, print_table, write_csv, RunScale};
use nemo_core::{Nemo, RecoveryMode};
use nemo_flash::{AnyFlash, Nanos, ZonedFlash};
use nemo_metrics::LatencyHistogram;
use nemo_service::{
    checkpoint_fleet, DeviceBackend, OpenLoopConfig, OpenLoopReplay, ShardedCache,
    ShardedCacheBuilder,
};
use nemo_trace::TraceGenerator;
use std::path::PathBuf;
use std::time::Duration;

/// One backend's replay outcome.
struct BackendRun {
    label: &'static str,
    measured: bool,
    stats: nemo_engine::EngineStats,
    latency: LatencyHistogram,
    device: nemo_flash::DeviceStats,
}

fn replay_on(backend: &DeviceBackend, scale: &RunScale, ops: u64) -> BackendRun {
    let factory = scale
        .nemo_config()
        .factory_on(backend.device_factory("devval"));
    let mut cfg = OpenLoopConfig::new(ops, 50_000.0);
    cfg.warmup_ops = ops / 10;
    let r = OpenLoopReplay::new(cfg).run(factory, &mut scale.merged_trace());
    BackendRun {
        label: backend.label(),
        measured: backend.is_measured(),
        stats: r.report.stats,
        latency: r.latency,
        device: r.report.engines[0].device().stats(),
    }
}

/// Directory for the real / file-backed device images: `NEMO_DEV_DIR`
/// if set, else the system temp dir (tmpfs in the CI job).
pub fn device_dir() -> PathBuf {
    std::env::var_os("NEMO_DEV_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("nemo_device_validation"))
}

/// Replays the merged trace on the modeled (in-memory), modeled
/// (file-backed) and real-I/O backends and reports behavioural parity,
/// side-by-side read-latency CDFs and WA, then runs a scattered-read
/// microbench on the real backend that checks overlapped submission
/// actually narrows the modeled-vs-measured p99 gap.
///
/// # Panics
///
/// Panics if the backends diverge behaviourally, if device files cannot
/// be created, or if the microbench's depth-4 p99 is not below its
/// depth-1 p99.
pub fn device_validation(scale: RunScale) {
    println!("\n### Device validation — modeled vs real I/O, same trace");
    println!("latency model reference: 70us page read, 14us page append, 2ms zone reset");
    let dir = device_dir();
    println!("device images: {}", dir.display());
    let ops = scale.ops_for_fills(1.5);
    let backends = [
        DeviceBackend::Modeled,
        DeviceBackend::modeled_file(dir.clone()),
        DeviceBackend::real(dir.clone()),
    ];
    let runs: Vec<BackendRun> = backends.iter().map(|b| replay_on(b, &scale, ops)).collect();

    // --- behavioural parity (the acceptance contract) ------------------
    let base = &runs[0];
    for run in &runs[1..] {
        assert_eq!(
            (base.stats.gets, base.stats.hits),
            (run.stats.gets, run.stats.hits),
            "hit ratio must be identical across backends ({} vs {})",
            base.label,
            run.label
        );
        assert_eq!(
            (
                base.stats.logical_bytes,
                base.stats.flash_bytes_written,
                base.stats.nand_bytes_written
            ),
            (
                run.stats.logical_bytes,
                run.stats.flash_bytes_written,
                run.stats.nand_bytes_written
            ),
            "ALWA/DLWA bytes must be identical across backends ({} vs {})",
            base.label,
            run.label
        );
        assert_eq!(
            (
                base.device.pages_written,
                base.device.pages_read,
                base.device.zone_resets,
                base.device.append_ops,
                base.device.read_ops
            ),
            (
                run.device.pages_written,
                run.device.pages_read,
                run.device.zone_resets,
                run.device.append_ops,
                run.device.read_ops
            ),
            "device op counts must be identical across backends ({} vs {})",
            base.label,
            run.label
        );
    }
    println!(
        "parity: PASS — {} gets, hit ratio {:.4}, ALWA {:.3} identical on all {} backends",
        base.stats.gets,
        1.0 - base.stats.miss_ratio(),
        base.stats.alwa(),
        runs.len()
    );

    // --- side-by-side read-latency CDFs --------------------------------
    let quantiles = [0.50, 0.90, 0.99, 0.999, 0.9999];
    let mut rows = Vec::new();
    for &q in &quantiles {
        let mut row = vec![format!("p{}", q * 100.0)];
        for run in &runs {
            row.push(f2(run.latency.percentile(q) as f64 / 1000.0));
        }
        rows.push(row);
    }
    let mut headers = vec!["percentile".to_string()];
    for run in &runs {
        headers.push(format!(
            "{} ({}) us",
            run.label,
            if run.measured { "measured" } else { "modeled" }
        ));
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table("read latency CDF", &header_refs, &rows);
    write_csv("device_validation_cdf", &header_refs, &rows);

    // --- WA + throughput summary ---------------------------------------
    let wa_headers = [
        "backend",
        "clock",
        "ALWA",
        "DLWA",
        "hit ratio",
        "read p50 (us)",
        "read p99 (us)",
        "device busy (ms)",
    ];
    let wa_rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            vec![
                run.label.to_string(),
                if run.measured { "wall" } else { "virtual" }.to_string(),
                f3(run.stats.alwa()),
                f3(run.stats.total_wa() / run.stats.alwa()),
                f3(1.0 - run.stats.miss_ratio()),
                f2(run.latency.p50() as f64 / 1000.0),
                f2(run.latency.p99() as f64 / 1000.0),
                f2(run.device.busy_time.0 as f64 / 1e6),
            ]
        })
        .collect();
    print_table("backends", &wa_headers, &wa_rows);
    write_csv("device_validation", &wa_headers, &wa_rows);

    let modeled_p99 = runs[0].latency.p99() as f64 / 1000.0;
    let real_p99 = runs[2].latency.p99() as f64 / 1000.0;
    println!(
        "\n   modeled p99 {modeled_p99:.1}us vs measured p99 {real_p99:.1}us — the gap is the \
         device model: page-cache-backed files answer in syscall time, a raw NAND device \
         would not. Point NEMO_DEV_DIR at a real SSD mount to measure hardware."
    );

    overlap_microbench(&dir);
}

/// Scattered-batch microbench on `RealFlash`: the same 32-page batches
/// submitted at depth 1 and at depth [`OVERLAP_DEPTH`] on one device,
/// next to the modeled completion for the identical batches on
/// `SimFlash`.
///
/// The device model overlaps a scattered batch across dies — its
/// completion is a *max* over the pages. A depth-1 submission chains
/// its reads — a *sum*. Overlapped submission is what moves the
/// measured batch completion back toward the model's shape, and this
/// bench asserts that it does. Every read carries the model's 70 µs of
/// emulated NAND time, slept off-CPU: on a page-cache image a bare
/// `pread` is a microsecond of memcpy with nothing to overlap, and the
/// sleep is what lets depth pay even on a single core.
fn overlap_microbench(dir: &std::path::Path) {
    use nemo_flash::{
        Geometry, LatencyModel, PageAddr, ReadBatch, RealFlash, RealFlashOptions, SimFlash, ZoneId,
    };
    const BATCH: usize = 32;
    const ROUNDS: usize = 100;
    const OVERLAP_DEPTH: usize = 4;
    let geom = Geometry::new(4096, 64, 8, 8);
    let psz = geom.page_size() as usize;
    let path = dir.join("overlap.img");
    let opts = RealFlashOptions {
        emulated_read_latency: Some(Duration::from_nanos(LatencyModel::default().page_read.0)),
        ..RealFlashOptions::default()
    };
    let mut real = RealFlash::create(geom, &path, opts).expect("real device");
    let mut model = SimFlash::with_latency(geom, LatencyModel::default());
    for z in 0..geom.zone_count() {
        let data = vec![z as u8; geom.pages_per_zone() as usize * psz];
        for dev in [&mut real as &mut dyn ZonedFlash, &mut model] {
            dev.append(ZoneId(z), &data, Nanos::ZERO).expect("fill");
        }
    }
    // Deterministic scattered addresses (split-mix style).
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |m: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % u64::from(m)) as u32
    };
    let mut out = vec![0u8; BATCH * psz];
    let mut batch = ReadBatch::new();
    let mut completions = Vec::new();
    // Submits one batch at `now`; returns when its last page completed.
    let mut submit = |dev: &mut dyn ZonedFlash, addrs: &[PageAddr], now: Nanos, depth: usize| {
        dev.submit_read_batch(&mut batch, addrs, &mut out, now, depth)
            .expect("submit");
        completions.clear();
        while !dev
            .poll_completions(&mut batch, &mut completions)
            .expect("poll")
        {}
        completions.iter().fold(now, |t, c| t.max(c.done))
    };
    let (mut modeled, mut chained, mut overlapped) = (
        LatencyHistogram::new(),
        LatencyHistogram::new(),
        LatencyHistogram::new(),
    );
    // The model's dies stay busy until a batch completes, so each
    // modeled batch is issued when the previous one finished.
    let mut model_now = Nanos::ZERO;
    for _ in 0..ROUNDS {
        let addrs: Vec<PageAddr> = (0..BATCH)
            .map(|_| PageAddr::new(next(geom.zone_count()), next(geom.pages_per_zone())))
            .collect();
        let done = submit(&mut model, &addrs, model_now, BATCH);
        modeled.record((done - model_now).0);
        model_now = done;
        chained.record(submit(&mut real, &addrs, Nanos::ZERO, 1).0);
        overlapped.record(submit(&mut real, &addrs, Nanos::ZERO, OVERLAP_DEPTH).0);
    }
    let (m99, c99, o99) = (
        modeled.p99() as f64 / 1000.0,
        chained.p99() as f64 / 1000.0,
        overlapped.p99() as f64 / 1000.0,
    );
    println!(
        "\n   overlap microbench ({BATCH}-page scattered batches, {ROUNDS} rounds, 70us emulated \
         read): modeled p99 {m99:.1}us (parallel max) | measured qd1 p99 {c99:.1}us \
         (chained sum) | measured qd{OVERLAP_DEPTH} p99 {o99:.1}us"
    );
    println!(
        "   overlap factor {0:.2}x — overlapped submission pulls the measured batch \
         completion toward the model's parallel shape",
        c99 / o99.max(1e-9)
    );
    std::fs::remove_file(&path).ok();
    assert!(
        o99 < c99,
        "depth-{OVERLAP_DEPTH} batch p99 ({o99:.1}us) must beat the depth-1 chain ({c99:.1}us)"
    );
}

/// One gets-only probe window's outcome.
struct ProbeRun {
    hit_ratio: f64,
    flash_bytes_written: u64,
    flash_bytes_read: u64,
}

/// Replays `ops` lookups from `trace` without demand fill, so the probe
/// reads the cache's recovered contents but never writes to it.
fn probe(cache: &ShardedCache<Nemo<AnyFlash>>, trace: &mut TraceGenerator, ops: u64) -> ProbeRun {
    let before = cache.stats();
    let mut hits = 0u64;
    for _ in 0..ops {
        let r = trace.next_request();
        let out = cache.try_get(r.key, Nanos::ZERO);
        hits += out.expect("fault-free device").hit as u64;
    }
    let after = cache.stats();
    ProbeRun {
        hit_ratio: hits as f64 / ops.max(1) as f64,
        flash_bytes_written: after.flash_bytes_written - before.flash_bytes_written,
        flash_bytes_read: after.flash_bytes_read - before.flash_bytes_read,
    }
}

/// Warm-restart validation: a shard fleet on the file-backed modeled
/// backend is filled to steady state, checkpointed, and reopened twice —
/// once warm from the checkpoints (the restart path this repo's warm
/// restart exists for) and once cold after the checkpoints are deleted
/// (the zone-scan fallback). Both reopened fleets serve a gets-only
/// probe window from the same trace; the warm reopen must reach at
/// least 95 % of the first life's steady-state hit ratio with *zero*
/// foreground flash writes, instead of refilling from the backing
/// store.
///
/// # Panics
///
/// Panics if any shard fails to recover in the expected tier, if the
/// warm probe writes to flash, or if the warm hit ratio falls below
/// 95 % of the steady-state hit ratio.
pub fn restart_validation(scale: RunScale) {
    println!("\n### Restart validation — warm checkpoint reopen vs cold zone scan");
    let dir = device_dir();
    println!("device images: {}", dir.display());
    let backend = DeviceBackend::modeled_file(dir);
    let cfg = scale.nemo_config();
    let shards = 2usize;
    let tag = "restart";
    let ops = scale.ops_for_fills(1.5);
    let probe_ops = (ops / 10).max(1_000);

    // --- first life: fill to steady state, measure the steady window ---
    let mut trace = scale.merged_trace();
    let mut fleet =
        ShardedCacheBuilder::new(shards).spawn(cfg.clone().factory_on(backend.device_factory(tag)));
    let sample_every = (ops / 10).max(1);
    let steady_from = 8 * sample_every;
    let mut steady_base = None;
    drive(&mut fleet, &mut trace, ops, sample_every, |e, op| {
        if op >= steady_from && steady_base.is_none() {
            steady_base = Some(e.stats());
        }
    });
    let report = fleet.finish(Nanos::ZERO);
    let base = steady_base.expect("steady window sampled");
    let steady_hit =
        (report.stats.hits - base.hits) as f64 / (report.stats.gets - base.gets).max(1) as f64;
    checkpoint_fleet(&backend, tag, &report.engines).expect("persist fleet checkpoints");

    // --- warm reopen: recovered from checkpoints, gets-only probe ------
    let (warm, recoveries) = ShardedCacheBuilder::new(shards)
        .open_existing(&cfg, &backend, tag)
        .expect("warm reopen");
    assert!(
        recoveries.iter().all(|r| r.mode == RecoveryMode::Warm),
        "checkpointed reopen must be warm on every shard: {recoveries:?}"
    );
    let warm_probe = probe(&warm, &mut trace, probe_ops);
    // Drop without draining so the images stay exactly as checkpointed
    // for the cold reopen below (the probe never wrote to them).
    drop(warm);

    // --- cold reopen: checkpoints deleted, zone-scan rebuild -----------
    for shard in 0..shards {
        let path = backend.checkpoint_path(tag, shard).expect("file backend");
        std::fs::remove_file(path).expect("remove checkpoint");
    }
    let (cold, recoveries) = ShardedCacheBuilder::new(shards)
        .open_existing(&cfg, &backend, tag)
        .expect("cold reopen");
    assert!(
        recoveries.iter().all(|r| r.mode == RecoveryMode::Cold),
        "checkpoint-less reopen must cold-scan on every shard: {recoveries:?}"
    );
    let zones_scanned: u32 = recoveries.iter().map(|r| r.zones_scanned).sum();
    let pages_read: u64 = recoveries.iter().map(|r| r.pages_read).sum();
    let objects_recovered: u64 = recoveries.iter().map(|r| r.objects_recovered).sum();
    let cold_probe = probe(&cold, &mut trace, probe_ops);
    drop(cold);

    // --- report + acceptance -------------------------------------------
    let headers = [
        "phase",
        "recovery",
        "zones scanned",
        "recovery pages read",
        "probe hit ratio",
        "probe flash writes (B)",
        "probe flash reads (B)",
    ];
    let rows = vec![
        vec![
            "first life (steady)".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            f3(steady_hit),
            "-".to_string(),
            "-".to_string(),
        ],
        vec![
            "warm reopen".to_string(),
            "warm".to_string(),
            "0".to_string(),
            "0".to_string(),
            f3(warm_probe.hit_ratio),
            warm_probe.flash_bytes_written.to_string(),
            warm_probe.flash_bytes_read.to_string(),
        ],
        vec![
            "scan reopen".to_string(),
            "cold".to_string(),
            zones_scanned.to_string(),
            pages_read.to_string(),
            f3(cold_probe.hit_ratio),
            cold_probe.flash_bytes_written.to_string(),
            cold_probe.flash_bytes_read.to_string(),
        ],
    ];
    print_table("restart", &headers, &rows);
    write_csv("restart_validation", &headers, &rows);
    println!(
        "   cold scan re-indexed {objects_recovered} objects from {zones_scanned} zones \
         ({pages_read} pages); the warm reopen read nothing"
    );

    assert_eq!(
        warm_probe.flash_bytes_written, 0,
        "a warm reopen must serve reads without foreground flash writes"
    );
    assert!(
        warm_probe.hit_ratio >= 0.95 * steady_hit,
        "warm reopen hit ratio {:.4} fell below 95% of steady state {steady_hit:.4}",
        warm_probe.hit_ratio
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_parity_holds() {
        // The experiment asserts parity and the overlap microbench
        // internally; a tiny scale keeps this a unit test.
        let scale = RunScale {
            flash_mb: 8,
            ops_mult: 0.05,
            dies: 8,
        };
        device_validation(scale);
    }

    #[test]
    fn restart_smoke_recovers_warm_and_cold() {
        // Asserts internally: warm reopen on every shard, zero probe
        // flash writes, >= 95% of the steady-state hit ratio.
        let scale = RunScale {
            flash_mb: 8,
            ops_mult: 0.05,
            dies: 8,
        };
        restart_validation(scale);
    }
}
