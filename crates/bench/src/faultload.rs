//! Availability under injected device faults: the `experiments
//! faultload` scenario.
//!
//! A sharded Nemo fleet runs an open-loop demand-fill replay
//! ([`OpenLoopReplay`], like every other fleet experiment) while every
//! shard's simulated device sits behind a seeded
//! [`FaultyFlash`] executing a scripted
//! schedule — a burst of transient read EIOs, the progressive permanent
//! death of a zone, or a latency storm. The driver reports, per trend
//! window, the serviced hit ratio alongside how many requests were
//! refused, and asserts the robustness contract end to end:
//!
//! * **Availability**: every dispatched request is answered — hit, miss
//!   or typed refusal, never a hang — and ≥ 99.9 % of requests are
//!   *serviced* (the fleet quarantines around faults instead of dying).
//! * **Zero shard deaths**: transient errors and a permanently failed
//!   zone are absorbed by retry and quarantine; no request is refused,
//!   which a shard does only once it is
//!   [`nemo_service::ShardHealth::Dead`].
//! * **Recovery**: after a transient fault window closes, the hit ratio
//!   converges back to within two points of a fault-free control run.
//! * **Determinism**: the same seed replays the same faults — a repeat
//!   of the faulted run produces bit-identical aggregate counters.

use crate::common::{f2, print_table, write_csv, RunScale};
use nemo_engine::EngineStats;
use nemo_flash::{FaultPlan, FaultyFlash, Nanos, SimFlash, ZoneId};
use nemo_metrics::LatencyWindow;
use nemo_service::{OpenLoopConfig, OpenLoopReplay};
use nemo_trace::TraceGenerator;

/// Arrival rate of every faultload run (req/s of virtual time): one
/// request per 15 625 ns.
const RATE: f64 = 64_000.0;

/// The scripted fault schedules the scenario sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// No faults — the control run the others are compared against.
    None,
    /// Every device read in the middle third of the op stream fails
    /// with a transient EIO; retries are exhausted, so the engine
    /// degrades those gets to misses until the burst passes.
    BurstEio,
    /// One zone per shard dies permanently a third of the way in; the
    /// engine must quarantine it and serve from the surviving zones
    /// forever after.
    ZoneDeath,
    /// Every device operation in the middle third completes late — no
    /// errors, only stretched virtual completion times.
    LatencyStorm,
}

impl FaultScenario {
    fn label(self) -> &'static str {
        match self {
            FaultScenario::None => "fault-free",
            FaultScenario::BurstEio => "burst-eio",
            FaultScenario::ZoneDeath => "zone-death",
            FaultScenario::LatencyStorm => "latency-storm",
        }
    }

    /// The per-shard fault plan. `window` is in *device*-op indices
    /// (see [`FaultyFlash::ops_observed`]); the driver calibrates it
    /// from a fault-free control run so the schedule lands mid-run on
    /// every shard regardless of how many device ops a request costs.
    fn plan(self, seed: u64, window: (u64, u64), zone_count: u32) -> FaultPlan {
        let plan = FaultPlan::new(seed);
        let (from, until) = window;
        match self {
            FaultScenario::None => plan,
            FaultScenario::BurstEio => plan.transient_read_burst(from, until),
            // A mid-range zone: never the superblock region, always a
            // data zone the engine is actively writing.
            FaultScenario::ZoneDeath => plan.kill_zone(ZoneId(zone_count / 2), from),
            FaultScenario::LatencyStorm => plan.latency_storm(from, until, Nanos::from_micros(500)),
        }
    }
}

/// Everything one faultload run produces.
#[derive(Debug)]
struct FaultRun {
    windows: Vec<LatencyWindow>,
    stats: EngineStats,
    dispatched: u64,
    answered: u64,
    /// Requests completed unavailable. A shard refuses only the request
    /// that killed it and every one after, so 0 means no shard died.
    refused: u64,
    /// Fewest device ops any shard's device observed — the index space
    /// fault windows are calibrated in.
    min_device_ops: u64,
}

impl FaultRun {
    /// Fraction of dispatched requests that received *any* answer.
    fn availability(&self) -> f64 {
        self.answered as f64 / self.dispatched as f64
    }

    /// Fraction of dispatched requests actually serviced (not refused).
    fn serviced(&self) -> f64 {
        (self.answered - self.refused) as f64 / self.dispatched as f64
    }

    /// Hit ratio of the final window — the post-fault recovery point.
    fn final_hit_ratio(&self) -> f64 {
        self.windows.last().map_or(0.0, LatencyWindow::hit_ratio)
    }
}

/// One open-loop demand-fill replay of `ops` requests against a sharded
/// Nemo fleet whose devices execute `scenario`'s fault plan over the
/// device-op `window`.
fn run_scenario(
    scale: &RunScale,
    scenario: FaultScenario,
    shards: usize,
    ops: u64,
    window: (u64, u64),
) -> FaultRun {
    let seed = 0x4E45_4D4F; // fixed: the determinism assertion repeats it
    let cfg = scale.nemo_config();
    let zone_count = cfg.geometry.zone_count();
    let factory = cfg.factory_on(move |shard, geom, latency| {
        let plan = scenario.plan(seed ^ shard as u64, window, zone_count);
        FaultyFlash::new(SimFlash::with_latency(geom, latency), plan)
    });
    let mut replay = OpenLoopConfig::new(ops, RATE);
    replay.shards = shards;
    replay.sample_every = (ops / 12).max(1);
    let mut trace = TraceGenerator::new(scale.trace_config());
    let r = OpenLoopReplay::new(replay).run(factory, &mut trace);
    // The replay returns once every request is answered, so the last
    // window ends at the last request answered.
    let answered = r.windows.last().map_or(0, |w| w.ops);
    let refused = r.windows.iter().map(|w| w.refused).sum();
    let min_device_ops = r
        .report
        .engines
        .iter()
        .map(|e| e.device().ops_observed())
        .min()
        .unwrap_or(0);
    FaultRun {
        windows: r.windows,
        stats: r.report.stats,
        dispatched: ops,
        answered,
        refused,
        min_device_ops,
    }
}

/// The scripted fault window: device ops `[D/3, D/2)` of the control
/// run's least-loaded shard — squarely mid-run on every shard, with the
/// whole second half fault-free for the recovery assertion.
fn calibrated_window(baseline: &FaultRun) -> (u64, u64) {
    let d = baseline.min_device_ops;
    (d / 3, d / 2)
}

/// Runs the faultload scenario sweep and asserts the robustness
/// contract (see the module docs). `smoke` shrinks nothing beyond what
/// the caller's [`RunScale`] already did — it only relaxes the
/// wall-clock-irrelevant repeat used for the determinism assertion.
pub fn faultload(scale: RunScale, shards: usize, smoke: bool) {
    println!("\n### Faultload — sharded Nemo under scripted device faults");
    let ops = scale.ops_for_fills(3.0) * shards as u64;
    let baseline = run_scenario(&scale, FaultScenario::None, shards, ops, (0, 0));
    let window = calibrated_window(&baseline);
    println!(
        "{shards} shard(s), {} MB/shard, {ops} requests; fault window = device ops {}..{} of ~{}",
        scale.flash_mb, window.0, window.1, baseline.min_device_ops
    );
    let scenarios = [
        FaultScenario::BurstEio,
        FaultScenario::ZoneDeath,
        FaultScenario::LatencyStorm,
    ];
    let mut rows = vec![scenario_row(FaultScenario::None, &baseline, &baseline)];
    for &scenario in &scenarios {
        let run = run_scenario(&scale, scenario, shards, ops, window);

        // Availability: every request answered, ≥ 99.9 % serviced.
        assert_eq!(
            run.answered,
            run.dispatched,
            "{}: every request must be answered (hit, miss, or typed error)",
            scenario.label()
        );
        assert!(
            run.serviced() >= 0.999,
            "{}: serviced availability {:.4} below 99.9%",
            scenario.label(),
            run.serviced()
        );
        // Zero shard deaths: retry + quarantine absorb everything the
        // schedules throw, including the permanently failed zone.
        assert_eq!(
            run.refused,
            0,
            "{}: a shard died and refused requests",
            scenario.label()
        );
        // Recovery: once a *transient* window closes, the hit ratio
        // reconverges to the control run. (Zone death retires capacity
        // for good, so it is reported but not held to the bound.)
        if matches!(
            scenario,
            FaultScenario::BurstEio | FaultScenario::LatencyStorm
        ) {
            let gap = (run.final_hit_ratio() - baseline.final_hit_ratio()).abs();
            assert!(
                gap <= 0.02,
                "{}: final-window hit ratio {:.4} vs fault-free {:.4} (gap {gap:.4} > 0.02)",
                scenario.label(),
                run.final_hit_ratio(),
                baseline.final_hit_ratio()
            );
        }

        rows.push(scenario_row(scenario, &run, &baseline));

        // Determinism: the same seed replays the same faults bit for
        // bit. One repeat of one scenario suffices in smoke mode.
        if scenario == FaultScenario::BurstEio || !smoke {
            let again = run_scenario(&scale, scenario, shards, ops, window);
            assert_eq!(
                run.stats,
                again.stats,
                "{}: repeat run diverged — fault injection is not deterministic",
                scenario.label()
            );
            assert_eq!(run.windows, again.windows, "windowed outcomes diverged");
        }
    }

    let headers = [
        "scenario",
        "avail %",
        "serviced %",
        "refused",
        "retries",
        "quarantined",
        "fault misses",
        "hit % (mid)",
        "hit % (final)",
        "d-hit vs base",
    ];
    print_table("Faultload", &headers, &rows);
    write_csv("faultload", &headers, &rows);
    println!("   contract held: answered=dispatched, >=99.9% serviced, no dead shards, recovery within 2 points");
}

/// One scenario's table row.
fn scenario_row(scenario: FaultScenario, run: &FaultRun, baseline: &FaultRun) -> Vec<String> {
    // The window straddling the middle of the run, where every schedule
    // is active.
    let mid = run
        .windows
        .get(run.windows.len() / 2)
        .map_or(0.0, LatencyWindow::hit_ratio);
    vec![
        scenario.label().to_string(),
        f2(run.availability() * 100.0),
        f2(run.serviced() * 100.0),
        run.refused.to_string(),
        run.stats.device_retries.to_string(),
        run.stats.quarantined_zones.to_string(),
        run.stats.fault_induced_misses.to_string(),
        f2(mid * 100.0),
        f2(run.final_hit_ratio() * 100.0),
        f2((run.final_hit_ratio() - baseline.final_hit_ratio()) * 100.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunScale {
        RunScale {
            flash_mb: 16,
            ops_mult: 0.1,
            dies: 8,
        }
    }

    #[test]
    fn burst_eio_degrades_then_recovers() {
        let scale = tiny();
        let ops = scale.ops_for_fills(3.0);
        let base = run_scenario(&scale, FaultScenario::None, 1, ops, (0, 0));
        let window = calibrated_window(&base);
        let run = run_scenario(&scale, FaultScenario::BurstEio, 1, ops, window);
        assert_eq!(run.answered, run.dispatched);
        assert!(run.stats.fault_induced_misses > 0, "burst left no trace");
        assert_eq!(run.refused, 0, "no shard may die");
        let gap = (run.final_hit_ratio() - base.final_hit_ratio()).abs();
        assert!(gap <= 0.02, "no recovery: gap {gap:.4}");
    }

    #[test]
    fn zone_death_quarantines_without_killing_the_shard() {
        let scale = tiny();
        let ops = scale.ops_for_fills(3.0);
        let base = run_scenario(&scale, FaultScenario::None, 1, ops, (0, 0));
        let window = calibrated_window(&base);
        let run = run_scenario(&scale, FaultScenario::ZoneDeath, 1, ops, window);
        assert_eq!(run.answered, run.dispatched);
        assert!(run.stats.quarantined_zones > 0, "zone never quarantined");
        assert_eq!(run.refused, 0, "no shard may die");
    }

    #[test]
    fn repeat_runs_are_bit_identical() {
        let scale = tiny();
        let ops = scale.ops_for_fills(2.0);
        let base = run_scenario(&scale, FaultScenario::None, 2, ops, (0, 0));
        let window = calibrated_window(&base);
        let a = run_scenario(&scale, FaultScenario::BurstEio, 2, ops, window);
        let b = run_scenario(&scale, FaultScenario::BurstEio, 2, ops, window);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.windows, b.windows);
    }
}
