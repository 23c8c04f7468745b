//! Regenerates every table and figure from the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments <id> [--flash-mb N] [--ops-mult F] [--shards N] [--rate R]
//!                  [--inflight K] [--conns N] [--port P]
//!                  [--duration-secs S] [--connect HOST:PORT]
//!                  [--backend modeled|file|real] [--smoke] [--restart]
//!
//! ids: fig4 fig5 fig6 fig8 fig12a fig12b fig13 fig14 fig15 fig16
//!      fig17 fig18 fig19a fig19b table5 table6 motivation breakdown
//!      read_cost sensitivity read_amplification appendix_a
//!      ablation sharded openloop netload serve device_validation
//!      faultload all
//! ```
//!
//! `--smoke` shrinks the device and op counts so an experiment
//! exercises its full code path in seconds (the CI smoke job runs
//! `sharded`, `openloop`, `device_validation` and `faultload` this way
//! on every push).
//!
//! `device_validation` replays the same trace on the modeled (in-memory
//! and file-backed) and real-I/O backends: behavioural parity (hit
//! ratio, ALWA/DLWA, device op counts) is asserted, and measured
//! wall-clock read-latency CDFs print next to the modeled ones. Device
//! images land in `$NEMO_DEV_DIR` (default: the system temp dir). With
//! `--restart` it instead runs the warm-restart scenario: fill a
//! file-backed shard fleet to steady state, checkpoint it, and compare
//! a warm checkpoint reopen (asserted: zero foreground flash writes,
//! ≥95 % of the steady-state hit ratio) against a cold zone-scan reopen
//! with the checkpoints deleted. The plain run ends with a
//! scattered-read microbench on the real backend (70 µs emulated NAND
//! reads) asserting that submit/poll at depth 4 beats depth 1.
//!
//! `faultload` replays the merged trace open loop through a sharded
//! Nemo fleet whose devices execute scripted, seeded fault schedules
//! (transient EIO burst, permanent zone death, latency storm) and
//! asserts the robustness contract: every request answered, ≥ 99.9 %
//! serviced, zero dead shards, hit-ratio recovery within two points of
//! the fault-free control, and bit-identical repeats.
//!
//! `openloop` replays the merged trace open loop through the sharded
//! `nemo-service` front-end for all five systems: `--rate` sets the
//! aggregate virtual-time arrival rate (req/s), `--inflight` the
//! per-shard in-flight window, `--shards` the fleet size; read latency
//! is reported split into queueing delay and service time.
//!
//! `netload` runs the same open-loop methodology over real loopback
//! sockets through the `nemo-proto` memcached-text server: `--conns`
//! sets the connection count, `--rate` the offered wall-clock arrival
//! rate, `--backend` the shard device backend, and `--connect
//! HOST:PORT` targets an external server (started with `serve`) instead
//! of an in-process one. Full (non-`--smoke`) runs assert ≥ 16k req/s
//! sustained over the sockets.
//!
//! `serve` runs the standalone memcached-text server on `--port` for
//! `--duration-secs` (0 = until killed), then drains and reports.

use nemo_bench::{
    breakdown, device_validation, faultload, main_metrics, motivation, netload, overhead,
    sensitivity, sharded, RunScale,
};
use nemo_service::DeviceBackend;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id> [--flash-mb N] [--ops-mult F] [--shards N] [--rate R] [--inflight K]\n\
         \x20                [--conns N] [--port P] [--duration-secs S]\n\
         \x20                [--connect HOST:PORT] [--backend modeled|file|real] [--smoke] [--restart]\n\
         ids: fig4 fig5 fig6 fig8 fig12a fig12b fig13 fig14 fig15 fig16 fig17 fig18\n\
         \x20     fig19a fig19b table5 table6 motivation breakdown read_cost sensitivity\n\
         \x20     read_amplification appendix_a ablation sharded openloop\n\
         \x20     netload serve device_validation faultload all"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let id = args[0].clone();
    let mut scale = RunScale::default();
    let mut shards = 4usize;
    // Aggregate across shards: 16k per shard at the default fleet of 4,
    // above the 16k *total* ceiling the pre-stale-filter read path
    // could sustain on one shard.
    let mut rate = 64_000.0f64;
    let mut inflight = 32usize;
    let mut smoke = false;
    let mut restart = false;
    let mut conns = 4usize;
    let mut port = 11211u16;
    let mut duration_secs = 30u64;
    let mut connect: Option<String> = None;
    let mut backend = DeviceBackend::Modeled;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--rate" => {
                i += 1;
                rate = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&r: &f64| r > 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--inflight" => {
                i += 1;
                inflight = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k > 0)
                    .unwrap_or_else(|| usage());
            }
            "--flash-mb" => {
                i += 1;
                scale.flash_mb = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--ops-mult" => {
                i += 1;
                scale.ops_mult = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage());
            }
            "--conns" => {
                i += 1;
                conns = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&c| c > 0)
                    .unwrap_or_else(|| usage());
            }
            "--port" => {
                i += 1;
                port = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--duration-secs" => {
                i += 1;
                duration_secs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--connect" => {
                i += 1;
                connect = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--backend" => {
                i += 1;
                let dir = nemo_bench::device_validation::device_dir();
                backend = match args.get(i).map(String::as_str) {
                    Some("modeled") => DeviceBackend::Modeled,
                    Some("file") => DeviceBackend::modeled_file(dir),
                    Some("real") => DeviceBackend::real(dir),
                    _ => usage(),
                };
            }
            "--smoke" => smoke = true,
            "--restart" => restart = true,
            _ => usage(),
        }
        i += 1;
    }
    if smoke {
        // Full code paths, toy scale: a 24 MB device and a quarter of
        // the usual op counts keep any single experiment in CI seconds.
        scale.flash_mb = scale.flash_mb.min(24);
        scale.ops_mult *= 0.25;
    }
    println!(
        "# nemo experiments: {id} (flash {} MB, ops multiplier {})",
        scale.flash_mb, scale.ops_mult
    );
    let start = Instant::now();
    match id.as_str() {
        "fig4" => motivation::fig4(scale),
        "fig5" => motivation::fig5(scale),
        "fig6" => motivation::fig6(scale),
        "motivation" => motivation::theory_vs_practice(scale),
        "fig8" => breakdown::fig8(scale),
        "fig12a" => main_metrics::fig12a(scale),
        "fig12b" => main_metrics::fig12b(scale),
        "fig13" => main_metrics::fig13(scale),
        "fig14" => main_metrics::fig14(scale),
        "fig15" => main_metrics::fig15(scale),
        "fig16" => main_metrics::fig16(scale),
        "fig17" => breakdown::fig17(scale),
        "fig18" => breakdown::fig18(scale),
        "ablation" => {
            breakdown::ablation_queue_len(scale);
            breakdown::ablation_hotness(scale);
        }
        "fig19a" => sensitivity::fig19a(scale),
        "fig19b" => sensitivity::fig19b(scale),
        "breakdown" => breakdown::all(scale),
        "read_cost" => breakdown::read_cost(scale),
        "sensitivity" => sensitivity::all(scale),
        "table5" => overhead::table5(scale),
        "table6" => overhead::table6(scale),
        "read_amplification" => overhead::read_amplification(scale),
        "appendix_a" => overhead::appendix_a(scale),
        "sharded" => sharded::fleet_comparison(scale, shards),
        "openloop" => sharded::openloop_comparison(scale, shards, rate, inflight),
        "netload" => netload::netload(
            scale,
            netload::NetloadOpts {
                shards,
                rate,
                conns,
                smoke,
                connect,
                backend,
            },
        ),
        "serve" => netload::serve(scale, shards, port, duration_secs, conns, backend),
        "device_validation" => {
            if restart {
                device_validation::restart_validation(scale)
            } else {
                device_validation::device_validation(scale)
            }
        }
        "faultload" => faultload::faultload(scale, shards, smoke),
        "all" => {
            motivation::all(scale);
            breakdown::all(scale);
            main_metrics::all(scale);
            sensitivity::all(scale);
            overhead::all(scale);
        }
        _ => usage(),
    }
    println!("\n[done in {:.1}s]", start.elapsed().as_secs_f64());
}
