//! The traced run: every layer's numbers, taken from outside on the
//! workload's request mix. It runs each layer stand-alone, then the wire
//! path (served, then stitched stage by stage), the fleet, a replay
//! that owns the engines (spans off, then on) and `RealFlash` with its
//! restart, over a quarter of the untraced run's ops.

use crate::common::{nemo_config, out_dir, Args, Report, Samples, GAP_NS, SHARDS, SIM_ZONES};
use crate::inproc::{shape, Fleet};
use crate::replay::{Replay, Seen};
use crate::spans::Spans;
use crate::{layers, real, wire};
use nemo_core::{Nemo, NemoReport};
use nemo_engine::{CacheEngine, EngineStats};
use nemo_metrics::CountHistogram;
use std::time::Instant;

/// Turns the traced replay and its twin take over the first quarter.
const CHUNKS: u64 = 16;

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// The served run's client and protocol numbers, then the stitched loop.
fn wire_section(args: &Args, rep: &mut Report, spans: &mut Spans) -> f64 {
    let full = wire::plan(args);
    let plan = wire::Plan {
        warm: full.warm / 2,
        pipelined: full.pipelined / 4,
        depth1: full.depth1 / 4,
    };
    let served = wire::serve(args, plan, 1);
    wire::check(rep, &served);
    let (mut rtt, mut wall) = (Samples::default(), Samples::default());
    for c in &served.clients {
        rtt.extend(&c.batch_rtt);
        wall.extend(&c.get_wall);
    }
    rep.put_ns("client.batch_rtt_p50_us", &mut rtt, 1e3, Some(0.5));
    rep.put_ns("client.batch_rtt_p99_us", &mut rtt, 1e3, Some(0.99));
    rep.put_ns("client.wall_get_p99_us", &mut wall, 1e3, Some(0.99));
    rep.put_ns("client.wall_get_p999_us", &mut wall, 1e3, Some(0.999));
    let p = &served.report.proto;
    let ops: u64 = served.clients.iter().map(|c| c.client.ops).sum();
    let n = format!("n={ops}");
    rep.put("proto.bytes_in_per_op", ratio(p.bytes_in, ops), &n);
    rep.put("proto.bytes_out_per_op", ratio(p.bytes_out, ops), &n);
    rep.put("proto.cmds", p.commands as f64, &n);
    rep.put("proto.get_keys", p.get_keys as f64, &n);
    rep.put("proto.set_cmds", p.set_cmds as f64, &n);
    rep.put("proto.noreply_sets", p.noreply_sets as f64, &n);
    rep.put("proto.protocol_errors", p.protocol_errors as f64, &n);
    rep.put("proto.server_errors", p.server_errors as f64, &n);
    rep.put("proto.meta_entries", served.report.meta_entries as f64, &n);

    // The stitched loop: the same stages, one span each. Its share of a
    // served get: the loopback floor plus the server-side stages.
    let ops = args.ops(2_000);
    let mut st = wire::stitched(&wire::conn_trace(args, 0), ops, spans);
    rep.attempted += ops;
    rep.failed += st.failed;
    rep.put("wire.stitched_ops_s", st.ops_s, format!("n={ops}"));
    let server_side: f64 = st.stages[1..5].iter_mut().map(|s| s.q(0.5)).sum();
    let wall_p50 = wall.q(0.5);
    let net = rep.get("net.loopback_rtt_p50_us") * 1e3;
    rep.put(
        "wire.layers_share",
        (net + server_side) / wall_p50,
        format!("n={ops}"),
    );
    wall_p50 / 1e3
}

/// The fleet's own numbers: the admission model, balance, shutdown.
fn fleet_section(args: &Args, rep: &mut Report) {
    let (trace, rate) = shape(args);
    let ops = args.ops(rate) / 4;
    let warm = ops / 4;
    let mut fleet = Fleet::start(&trace, warm);
    fleet.dispatch(ops);
    fleet.cache.stats();
    let t0 = Instant::now();
    let (mut tally, report) = fleet.finish();
    rep.put("service.finish_ms", t0.elapsed().as_secs_f64() * 1e3, "n=1");
    rep.attempted += ops;
    rep.failed += tally.unavailable + ops.saturating_sub(tally.completions);
    let n = format!("n={}", tally.gets);
    rep.put("service.queued_share", ratio(tally.queued, tally.gets), &n);
    rep.put_ns("service.model_get_mean_us", &mut tally.latency, 1e3, None);
    let tail = tally.latency.tail_mean(0.01) / 1e3;
    rep.put(
        "service.model_get_tail_us",
        tail,
        format!("n={}", tally.gets / 100),
    );
    let per: Vec<u64> = report.per_shard.iter().map(|s| s.gets + s.puts).collect();
    let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
    let max = *per.iter().max().expect("at least one shard") as f64;
    rep.put(
        "service.shard_imbalance",
        max / mean,
        format!("n={}", per.len()),
    );
}

/// `core.*` timings from a replay, and `core.*`/`flash.*` counts from
/// the engines it ran on.
fn core_metrics(rep: &mut Report, run: &mut Seen, s: &EngineStats, reports: &[NemoReport]) {
    let [mem, flash, miss] = &mut run.get_ns;
    rep.put_ns("core.get_mem_ns_p50", mem, 1.0, Some(0.5));
    rep.put_ns("core.get_flash_ns_p50", flash, 1.0, Some(0.5));
    rep.put_ns("core.get_miss_ns_p50", miss, 1.0, Some(0.5));
    let timed_gets = (mem.n() + flash.n() + miss.n()) as u64;
    let mem_hits = mem.n() as u64;
    rep.put_ns("core.get_ns_mean", &mut run.all_gets(), 1.0, None);
    rep.put_ns("core.put_ns_p50", &mut run.put_ns, 1.0, Some(0.5));
    rep.put_ns("core.put_ns_p999", &mut run.put_ns, 1.0, Some(0.999));
    rep.put_ns("core.put_ns_mean", &mut run.put_ns, 1.0, None);
    let bg_mean = ratio(run.bg_ns, run.bg_timed);
    rep.put(
        "core.bg_slice_ns_mean",
        bg_mean,
        format!("n={}", run.bg_timed),
    );
    rep.put(
        "core.bg_slices_per_op",
        ratio(run.bg_slices, run.ops),
        format!("n={}", run.bg_slices),
    );
    // Mean times count per call: a quarter of the calls are timed.
    let busy = run.all_gets().mean() * run.gets as f64
        + run.put_ns.mean() * run.puts as f64
        + bg_mean * run.bg_slices as f64;
    rep.put(
        "core.wall_share",
        busy / (run.wall_s * 1e9),
        format!("n={}", run.ops),
    );

    let gets = format!("n={}", run.gets);
    rep.put(
        "core.mem_hit_share",
        ratio(mem_hits, timed_gets),
        format!("n={timed_gets}"),
    );
    let mut cands = CountHistogram::new();
    let (mut fills, mut index) = (Vec::new(), [0u64; 5]);
    let (mut fp, mut stale, mut sacrificed, mut writeback, mut forced) = (0, 0, 0, 0, 0);
    for r in reports {
        cands.merge(&r.candidates_per_get);
        fills.extend_from_slice(&r.fill_rates);
        fp += r.bloom_fp_reads;
        stale += r.stale_version_reads;
        sacrificed += r.sacrificed_objects;
        writeback += r.writeback_objects;
        forced += r.forced_scan_finishes;
        let i = &r.index;
        let add = [
            i.cache_hits,
            i.cache_misses,
            i.pool_pages_written,
            i.superseded_cutoffs,
            i.capped_queries,
        ];
        index.iter_mut().zip(add).for_each(|(a, b)| *a += b);
    }
    let queries = format!("n={}", cands.count());
    rep.put("core.candidates_per_get", cands.mean(), &queries);
    rep.put("core.bloom_fp_reads_per_get", ratio(fp, run.gets), &gets);
    rep.put("core.stale_reads_per_get", ratio(stale, run.gets), &gets);
    rep.put(
        "core.capped_query_share",
        ratio(index[4], cands.count()),
        &queries,
    );
    rep.put(
        "core.superseded_cutoff_share",
        ratio(index[3], cands.count()),
        &queries,
    );
    rep.put(
        "core.pbfg_cache_miss_ratio",
        ratio(index[1], index[0] + index[1]),
        &queries,
    );
    let flushes = format!("n={}", fills.len());
    rep.put("core.flushes", fills.len() as f64, &flushes);
    rep.put(
        "core.sg_fill_rate_mean",
        fills.iter().sum::<f64>() / fills.len().max(1) as f64,
        &flushes,
    );
    let puts = format!("n={}", s.puts);
    rep.put("core.sacrificed_per_put", ratio(sacrificed, s.puts), &puts);
    rep.put("core.writeback_objects", writeback as f64, &flushes);
    rep.put("core.forced_scan_finishes", forced as f64, &flushes);
    rep.put("core.index_pool_pages_written", index[2] as f64, &flushes);

    let d = &s.device;
    rep.put(
        "flash.pages_read_per_get",
        ratio(d.pages_read, s.gets),
        &gets,
    );
    rep.put(
        "flash.pages_written_per_put",
        ratio(d.pages_written, s.puts),
        &puts,
    );
    rep.put("flash.zone_resets", d.zone_resets as f64, &flushes);
    rep.put(
        "flash.dlwa",
        ratio(s.nand_bytes_written, s.flash_bytes_written),
        &puts,
    );
    let die_ns = (GAP_NS * run.ops * 64 * reports.len() as u64) as f64;
    rep.put(
        "flash.busy_share",
        d.busy_time.0 as f64 / die_ns,
        format!("n={}", run.ops),
    );
    rep.put("flash.device_retries", s.device_retries as f64, &gets);
    rep.put("flash.read_errors", d.read_errors as f64, &gets);
    rep.put("flash.write_errors", d.write_errors as f64, &puts);
    rep.put("flash.inflight_hwm", d.inflight_hwm as f64, &gets);
}

/// The replay that owns the engines. Over the first quarter a twin
/// without spans runs beside it, a chunk each in turn, so that the host's
/// drift cancels out of the overhead; the traced one then runs on until
/// eviction is under way.
fn core_section(args: &Args, rep: &mut Report, spans: &mut Spans) {
    let (trace, rate) = shape(args);
    let ops = args.ops(rate) * 5 / 8;
    let fleet = || {
        (0..SHARDS)
            .map(|_| Nemo::new(nemo_config(SIM_ZONES)))
            .collect()
    };
    let mut plain = Replay::new(fleet(), &trace, GAP_NS);
    let mut traced = Replay::new(fleet(), &trace, GAP_NS);
    for _ in 0..CHUNKS {
        plain.run(ops / 4 / CHUNKS, None);
        traced.run(ops / 4 / CHUNKS, Some(spans));
    }
    let n = format!("n={}", traced.seen.ops);
    rep.put(
        "spans.replay_ops_s",
        traced.seen.ops as f64 / traced.seen.wall_s,
        &n,
    );
    rep.put(
        "spans.overhead_share",
        1.0 - plain.seen.wall_s / traced.seen.wall_s,
        &n,
    );
    rep.attempted += ops + plain.seen.ops;
    rep.failed += plain.seen.errors;
    drop(plain);
    traced.run(ops - traced.seen.ops, Some(spans));
    rep.failed += traced.seen.errors;
    let end = traced.now();
    traced.engines.iter_mut().for_each(|e| e.drain(end));
    let stats: Vec<EngineStats> = traced.engines.iter().map(|e| e.stats()).collect();
    let reports: Vec<NemoReport> = traced.engines.iter().map(Nemo::report).collect();
    core_metrics(
        rep,
        &mut traced.seen,
        &EngineStats::merge_all(&stats),
        &reports,
    );
}

/// `RealFlash` under the engine, and the restart timings.
fn real_section(args: &Args, rep: &mut Report, spans: &mut Spans) {
    let (age, probe) = (args.ops(120_000) / 4, args.ops(5_000) / 4);
    let ops = args.ops(10_000) / 4;
    let image = real::Image::new("traced-real");
    let mut replay = real::aged(&image, &real::trace_config(args), age);
    let before = replay.engines[0].stats().device;
    let run = real::measure(&mut replay, ops, spans, |_, _| {});
    let d = replay.engines[0].stats().device.delta(&before);
    // Pages moved times the stand-alone per-page times.
    let est_ns = d.pages_read as f64 * rep.get("flash.real.submit_poll_qd1_us_per_page") * 1e3
        + d.pages_written as f64 * rep.get("flash.real.append_ns_per_page");
    rep.put(
        "flash.real.wall_share",
        est_ns / (run.wall_s * 1e9),
        format!("n={}", d.pages_read),
    );
    let aged_errors = replay.seen.errors;
    let r = real::restart(replay, &image, probe);
    real::check_restart(rep, &r, ratio(run.hits, run.gets));
    rep.attempted += age + ops + probe;
    rep.failed += aged_errors + run.errors + r.probe.errors;
    rep.put("core.checkpoint_encode_ms", r.encode_ms, "n=1");
    rep.put("core.checkpoint_bytes", r.checkpoint_bytes as f64, "n=1");
    rep.put("core.recover_warm_ms", r.warm_ms, "n=1");
    rep.put("core.recover_cold_ms", r.cold_ms, "n=1");
    let zones = format!("n={} zones", r.cold.zones_scanned);
    rep.put(
        "core.recover_cold_pages_read",
        r.cold.pages_read as f64,
        zones,
    );
}

pub fn run(args: &Args, rep: &mut Report) {
    let mut spans = Spans::new(args.start);
    layers::all(args, rep, &shape(args).0);
    let wall_p50_us = wire_section(args, rep, &mut spans);
    fleet_section(args, rep);
    core_section(args, rep, &mut spans);
    real_section(args, rep, &mut spans);

    // What of a depth-1 wire get the stand-alone layers do not account
    // for: the thread wake-ups that no public call exposes.
    let us = |name: &str| rep.get(name) / 1e3;
    let parts = rep.get("net.loopback_rtt_p50_us")
        + us("client.gen_ns_per_req")
        + us("client.resp_parse_ns")
        + us("proto.parse_get_ns")
        + us("proto.map_key_ns")
        + us("service.hop_d1_ns_p50")
        + us("core.get_ns_mean")
        + us("proto.render_hit_ns");
    let n = "n=1";
    rep.put("wire.unattributed_share", 1.0 - parts / wall_p50_us, n);
    rep.put("spans.sampled", spans.len() as f64, n);
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create the out directory");
    let path = dir.join(format!("trace-{}.jsonl", args.workload));
    spans.write(&path).expect("write the span file");
    eprintln!("spans: {} in {}", spans.len(), path.display());
}
