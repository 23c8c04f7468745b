//! `real_direct`: one `Nemo<RealFlash>` on a 48-zone image, driven by
//! one thread closed loop on the Twitter trace. Aged at raw page-cache
//! speed, then measured with a slept 70 us per page read, so device time
//! is real wall time. Ends with a checkpoint and a warm and a cold
//! reopen.

use crate::common::{
    cpu_seconds, dev_dir, mean, median, nemo_config, rss_mb, Args, Report, REAL_ZONES, SETUPS,
    SLICES,
};
use crate::replay::{Replay, Seen};
use crate::spans::Spans;
use nemo_core::{Nemo, RecoveryMode, RecoveryReport};
use nemo_engine::{CacheEngine, EngineStats};
use nemo_flash::{Nanos, RealFlash, RealFlashOptions};
use nemo_trace::TraceConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Emulated NAND time per page read in the measured phase.
pub const READ_US: u64 = 70;

/// A device image that is removed when the run ends, however it ends.
pub struct Image(pub PathBuf);

impl Image {
    pub fn new(tag: &str) -> Self {
        let dir = dev_dir();
        std::fs::create_dir_all(&dir).expect("create the device directory");
        Self(dir.join(format!("{tag}-{}.img", std::process::id())))
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub fn trace_config(args: &Args) -> TraceConfig {
    args.mix(0, REAL_ZONES as f64)
}

/// Creates the image and ages a fresh engine on it.
pub fn aged(image: &Image, trace: &TraceConfig, ops: u64) -> Replay<RealFlash> {
    let cfg = nemo_config(REAL_ZONES);
    let dev = RealFlash::create(cfg.geometry, &image.0, RealFlashOptions::default())
        .expect("create the device image");
    let mut replay = Replay::new(vec![Nemo::with_device(cfg, dev)], trace, 0);
    replay.run(ops, None);
    replay
}

/// The measured phase: 70 us slept per page read, in `SLICES` parts with
/// `each_part` after each. Returns what the phase alone saw.
pub fn measure(
    replay: &mut Replay<RealFlash>,
    ops: u64,
    spans: &mut Spans,
    mut each_part: impl FnMut(&Nemo<RealFlash>, u64),
) -> Seen {
    let before = std::mem::take(&mut replay.seen);
    let emulate =
        |r: &mut Replay<RealFlash>, us| r.engines[0].device_mut().set_emulated_read_latency(us);
    emulate(replay, Some(Duration::from_micros(READ_US)));
    for _ in 0..SLICES {
        replay.run(ops / SLICES, Some(spans));
        each_part(&replay.engines[0], ops / SLICES);
    }
    emulate(replay, None);
    std::mem::replace(&mut replay.seen, before)
}

/// Timings and reports of the restart sequence.
pub struct Restart {
    pub encode_ms: f64,
    pub checkpoint_bytes: usize,
    pub warm_ms: f64,
    pub warm: RecoveryReport,
    pub probe: Seen,
    pub cold_ms: f64,
    pub cold: RecoveryReport,
    /// Whole-run counters of the warm engine after the probe, drained.
    pub stats: EngineStats,
}

/// Checkpoints the engine, reopens the image warm and probes it, then
/// reopens it cold.
pub fn restart(mut replay: Replay<RealFlash>, image: &Image, probe_ops: u64) -> Restart {
    let cfg = nemo_config(REAL_ZONES);
    let reopen = || {
        RealFlash::open(cfg.geometry, &image.0, RealFlashOptions::default())
            .expect("reopen the device image")
    };
    let engine = replay.engines.pop().expect("one engine");
    let t = Instant::now();
    let checkpoint = engine.checkpoint_bytes();
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(engine);
    let t = Instant::now();
    let (engine, warm) = Nemo::recover(cfg.clone(), reopen(), Some(&checkpoint));
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    replay.engines.push(engine);
    replay.seen = Seen::default();
    replay.run(probe_ops, None);
    let mut engine = replay.engines.pop().expect("one engine");
    engine.drain(Nanos::ZERO);
    let stats = engine.stats();
    drop(engine);
    let t = Instant::now();
    let (_cold_engine, cold) = Nemo::recover(cfg.clone(), reopen(), None);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    Restart {
        encode_ms,
        checkpoint_bytes: checkpoint.len(),
        warm_ms,
        warm,
        probe: replay.seen,
        cold_ms,
        cold,
        stats,
    }
}

/// The restart output checks of the issue.
pub fn check_restart(rep: &mut Report, r: &Restart, hit_ratio_before: f64) {
    rep.check(
        r.warm.mode == RecoveryMode::Warm && r.warm.zones_scanned == 0 && r.warm.pages_read == 0,
        || format!("warm reopen was {:?}", r.warm),
    );
    // Three standard errors of slack: the probe is a sample, and a short
    // one under `--quick`.
    let gets = r.probe.gets.max(1) as f64;
    let probe_ratio = r.probe.hits as f64 / gets;
    let slack = 3.0 * (hit_ratio_before * (1.0 - hit_ratio_before) / gets).sqrt();
    rep.check(probe_ratio >= 0.95 * hit_ratio_before - slack, || {
        format!("probe hit ratio {probe_ratio:.4} after restart, {hit_ratio_before:.4} before")
    });
    rep.check(r.cold.mode == RecoveryMode::Cold, || {
        format!("cold reopen was {:?}", r.cold)
    });
}

pub fn run(args: &Args, rep: &mut Report) {
    let trace = trace_config(args);
    let (age_ops, probe_ops) = (args.ops(120_000), args.ops(5_000));
    let ops = args.ops(10_000) / SLICES * SLICES;
    let image = Image::new("real-direct");
    // CPU per op is taken over ageing, at raw page-cache speed: in the
    // measured phase it is the kernel's timer path for the 70 us sleeps,
    // which swings by a quarter from run to run in this sandbox.
    let (mut setups, mut cpu_us) = (Vec::new(), Vec::new());
    let mut set_up = || {
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let replay = aged(&image, &trace, age_ops);
        setups.push(t0.elapsed().as_secs_f64());
        cpu_us.push((cpu_seconds() - cpu0) * 1e6 / age_ops as f64);
        replay
    };
    (1..SETUPS).for_each(|_| drop(set_up()));
    let mut replay = set_up();
    let (mut rates, mut bits, mut t) = (Vec::new(), Vec::new(), Instant::now());
    let run = measure(&mut replay, ops, &mut Spans::new(args.start), |e, part| {
        rates.push(part as f64 / t.elapsed().as_secs_f64());
        bits.push(e.memory().bits_per_object());
        t = Instant::now();
    });
    let hit_ratio = run.hits as f64 / run.gets as f64;
    let aged_errors = replay.seen.errors;
    let r = restart(replay, &image, probe_ops);
    check_restart(rep, &r, hit_ratio);

    rep.attempted = age_ops + ops + probe_ops;
    rep.failed = aged_errors + run.errors + r.probe.errors;
    let mut wall = run.all_gets();
    rep.put("setup_s", median(setups), format!("n={SETUPS}"));
    rep.put("ops_s", median(rates), format!("n={SLICES} parts"));
    rep.put_ns("get_mean_us", &mut wall, 1e3, None);
    rep.put_ns("wall_get_p50_us", &mut wall, 1e3, Some(0.5));
    rep.put_ns("wall_get_p90_us", &mut wall, 1e3, Some(0.9));
    rep.put_counts(run.hits, run.gets, &r.stats);
    rep.put(
        "index_bits_per_object",
        mean(&bits),
        format!("n={}", bits.len()),
    );
    rep.put(
        "cpu_us_per_op",
        median(cpu_us),
        format!("n={SETUPS} ageings"),
    );
    rep.put("rss_mb", rss_mb(), "n=1");
}
