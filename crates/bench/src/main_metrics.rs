//! §5.2 main metrics: Figures 12a, 12b, 13, 14, 15, 16.
//!
//! # Latency methodology (Fig. 15)
//!
//! Fig. 15 plots the *read* latency trend (p50 / p99 / p9999) of Nemo
//! vs FairyWREN under sustained load, and it is the one figure where
//! the measurement loop matters as much as the system:
//!
//! * **Closed loop** — a driver that blocks on every get can never
//!   offer more load than the system absorbs, so overload shows up as
//!   a longer run instead of higher latency. Early reproductions
//!   papered over this by *pacing arrivals below the device's
//!   capacity*, which silently assumed away the write-back read bursts
//!   the paper pays for with dedicated background threads. No such
//!   driver is left in the tree: waiting per operation is now just one
//!   way of calling the open-loop request path.
//! * **Open loop** ([`nemo_service::OpenLoopReplay`], used here)
//!   admits requests at a fixed virtual-time arrival rate with a
//!   bounded in-flight window per shard, the same discipline Flashield
//!   and the FDP flash-cache study evaluate under. Latency then
//!   decomposes into **queueing delay** (admission wait while the
//!   window is full — the symptom of a device falling behind) and
//!   **service time** (issue to completion, including die contention).
//!   Percentiles of a sum are not sums of percentiles, so the two are
//!   recorded and reported separately: a system can have healthy
//!   service time yet terrible queueing (FairyWREN during GC bursts),
//!   and conflating them is how tail regressions hide.
//!
//! The fleet's shards run one background slice after every
//! request, so Nemo's write-back scan is spread over bounded slices
//! between requests, standing in for the paper's dedicated
//! flush/write-back threads — while the baselines do their maintenance
//! inline, which is exactly the fluctuation Fig. 15 exists to show.
//!
//! The *read* side of the tail is governed by Nemo's get walk: index
//! groups are visited newest first and candidate set pages read one at
//! a time until the key is found, so the stale copies that updates
//! leave across pooled SGs are never read and the groups behind the
//! live copy never probed. Reading every candidate instead grows
//! per-get set reads from ~1 on a young pool to ~6+ at steady state —
//! the late-run p99 drift the trend table's `cand/get` column would
//! make visible (the paper's index keeps the candidate set small by
//! construction, §4.3).

use crate::common::{drive, f2, f3, print_table, write_csv, RunScale};
use nemo_engine::CacheEngine;
use nemo_metrics::LatencyWindow;
use nemo_service::{OpenLoopConfig, OpenLoopReplay};
use nemo_trace::{TraceConfig, TraceGenerator};

/// Figure 12a: steady-state WA of the five systems.
pub fn fig12a(scale: RunScale) {
    println!("\n### Figure 12a — steady-state write amplification, five systems");
    println!("paper: Nemo 1.56 | Log 1.08 | FW 15.20 | Set 16.31 | KG 55.59");
    let ops = scale.ops_for_fills(3.0);
    let mut rows = Vec::new();

    let mut nemo = scale.nemo();
    drive(&mut nemo, &mut scale.merged_trace(), ops, ops, |_, _| {});
    rows.push(vec![
        "Nemo".into(),
        f2(nemo.stats().alwa()),
        f2(nemo.stats().total_wa()),
        "1.56".into(),
    ]);

    let mut log = scale.log();
    drive(&mut log, &mut scale.merged_trace(), ops, ops, |_, _| {});
    rows.push(vec![
        "Log".into(),
        f2(log.stats().alwa()),
        f2(log.stats().total_wa()),
        "1.08".into(),
    ]);

    let mut fw = scale.fairywren(5, 5);
    drive(&mut fw, &mut scale.merged_trace(), ops, ops, |_, _| {});
    rows.push(vec![
        "FW".into(),
        f2(fw.stats().alwa()),
        f2(fw.stats().total_wa()),
        "15.20".into(),
    ]);

    let mut set = scale.set();
    drive(&mut set, &mut scale.merged_trace(), ops, ops, |_, _| {});
    rows.push(vec![
        "Set".into(),
        f2(set.stats().alwa()),
        f2(set.stats().total_wa()),
        "16.31".into(),
    ]);

    let mut kg = scale.kangaroo();
    drive(&mut kg, &mut scale.merged_trace(), ops, ops, |_, _| {});
    rows.push(vec![
        "KG".into(),
        f2(kg.stats().alwa()),
        f2(kg.stats().total_wa()),
        "55.59".into(),
    ]);

    let headers = ["system", "ALWA", "total WA", "paper"];
    print_table("Fig. 12a", &headers, &rows);
    write_csv("fig12a", &headers, &rows);
}

/// Figure 12b: Nemo vs FairyWREN variants (OP20, OP50, Log20).
pub fn fig12b(scale: RunScale) {
    println!("\n### Figure 12b — Nemo vs FW variants");
    println!("paper: Nemo 1.56 | FW-OP20 9.29 | FW-OP50 6.56 | FW-Log20 4.12");
    let ops = scale.ops_for_fills(3.0);
    let mut rows = Vec::new();

    let mut nemo = scale.nemo();
    drive(&mut nemo, &mut scale.merged_trace(), ops, ops, |_, _| {});
    rows.push(vec!["Nemo".into(), f2(nemo.stats().alwa()), "1.56".into()]);

    for (log_pct, op_pct, label, paper) in [
        (5u32, 20u32, "FW OP20", "9.29"),
        (5, 50, "FW OP50", "6.56"),
        (20, 5, "FW Log20", "4.12"),
    ] {
        let mut fw = scale.fairywren(log_pct, op_pct);
        drive(&mut fw, &mut scale.merged_trace(), ops, ops, |_, _| {});
        rows.push(vec![label.into(), f2(fw.stats().alwa()), paper.into()]);
    }
    let headers = ["config", "ALWA", "paper"];
    print_table("Fig. 12b", &headers, &rows);
    write_csv("fig12b", &headers, &rows);
}

/// Figure 13: flash writes per (virtual) minute at steady state.
pub fn fig13(scale: RunScale) {
    println!("\n### Figure 13 — flash write pattern (MB per virtual minute)");
    println!("paper: Nemo writes occasionally in large batches; FW/KG write continuously");
    let ops = scale.ops_for_fills(2.5);
    // Requests arrive at 50k/s of virtual time; only the minute axis
    // depends on it, the bytes written per window do not.
    let minute = |op: u64| op as f64 / 50_000.0 / 60.0;
    let mut headers = vec!["minute".to_string()];
    let mut columns: Vec<Vec<(f64, f64)>> = Vec::new();
    for name in ["nemo", "fairywren", "kangaroo"] {
        headers.push(format!("{name} MB/min"));
        let mut engine: Box<dyn CacheEngine> = match name {
            "nemo" => Box::new(scale.nemo()),
            "fairywren" => Box::new(scale.fairywren(5, 5)),
            _ => Box::new(scale.kangaroo()),
        };
        let mut trace = scale.merged_trace();
        let mut series = Vec::new();
        let mut written = 0u64;
        drive(
            engine.as_mut(),
            &mut trace,
            ops,
            (ops / 40).max(1),
            |e, op| {
                let now = e.stats().flash_bytes_written;
                series.push((minute(op), (now - written) as f64 / (1024.0 * 1024.0)));
                written = now;
            },
        );
        columns.push(series);
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let n = columns.iter().map(|c| c.len()).min().unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let mut row = vec![f2(columns[0][i].0)];
            for c in &columns {
                row.push(f2(c[i].1));
            }
            row
        })
        .collect();
    // Burstiness summary: coefficient of variation of the write rate.
    for (name, c) in ["nemo", "fairywren", "kangaroo"].iter().zip(&columns) {
        let vals: Vec<f64> = c.iter().map(|&(_, v)| v).collect();
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len().max(1) as f64;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        println!("   {name}: mean {mean:.2} MB/min, burstiness (CV) {cv:.2}");
    }
    print_table("Fig. 13", &header_refs, &rows);
    write_csv("fig13", &header_refs, &rows);
}

/// Figure 14: WA trend over trace operations for Nemo and FW configs.
pub fn fig14(scale: RunScale) {
    println!("\n### Figure 14 — WA vs number of trace operations");
    println!("paper: Nemo flat at ~1.56; FW ramps when the log wraps, again when GC starts");
    let ops = scale.ops_for_fills(3.0);
    let points = 24u64;
    let mut headers = vec!["ops".to_string()];
    let mut series: Vec<Vec<f64>> = Vec::new();
    let mut axis: Vec<u64> = Vec::new();
    let configs: [(&str, Option<(u32, u32)>); 4] = [
        ("Nemo", None),
        ("Log5-OP5", Some((5, 5))),
        ("Log5-OP50", Some((5, 50))),
        ("Log20-OP5", Some((20, 5))),
    ];
    for (i, (label, fwcfg)) in configs.iter().enumerate() {
        headers.push(label.to_string());
        let mut engine: Box<dyn CacheEngine> = match fwcfg {
            None => Box::new(scale.nemo()),
            Some((l, o)) => Box::new(scale.fairywren(*l, *o)),
        };
        let mut trace = scale.merged_trace();
        let mut samples = Vec::new();
        drive(
            engine.as_mut(),
            &mut trace,
            ops,
            (ops / points).max(1),
            |e, op| {
                samples.push(e.stats().alwa());
                if i == 0 {
                    axis.push(op);
                }
            },
        );
        println!(
            "   {label}: final WA {:.2}",
            samples.last().copied().unwrap_or(1.0)
        );
        series.push(samples);
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = axis
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mut row = vec![op.to_string()];
            for s in &series {
                row.push(f2(s.get(i).copied().unwrap_or(f64::NAN)));
            }
            row
        })
        .collect();
    print_table("Fig. 14", &header_refs, &rows);
    write_csv("fig14", &header_refs, &rows);
}

/// The arrival rate Fig. 15 offers (req/s of virtual time): 3x the old
/// closed-loop pacing cap of 8k, and 1.5x the 16k ceiling the run sat
/// at before stale-version filtering. Two mechanisms buy the headroom:
/// Nemo's write-back runs as paced background slices (PR 3), and the
/// get path reads candidates newest first and stops at the first copy
/// of the key, so per-get set reads stay ~1 instead of growing with
/// the stale copies pooled SGs accumulate. What
/// bounds the rate now is genuine device read capacity — push past it
/// and the queueing columns, not a workaround, report the overload.
pub const FIG15_RATE: f64 = 24_000.0;

/// One Fig. 15 open-loop run, type-erased: the aggregate summary row
/// plus the windowed trend.
fn fig15_run<E, F>(
    name: &str,
    cfg: &OpenLoopConfig,
    factory: F,
    trace_cfg: &TraceConfig,
) -> (Vec<String>, Vec<LatencyWindow>)
where
    E: CacheEngine + 'static,
    F: FnMut(usize) -> E,
{
    let us = |v: u64| format!("{:.1}", v as f64 / 1000.0);
    let mut trace = TraceGenerator::new(trace_cfg.clone());
    let r = OpenLoopReplay::new(cfg.clone()).run(factory, &mut trace);
    let summary = vec![
        name.to_string(),
        us(r.latency.p50()),
        us(r.latency.p99()),
        us(r.latency.p9999()),
        us(r.queueing.p99()),
        us(r.service.p99()),
    ];
    (summary, r.windows)
}

/// Figure 15: p50/p99/p9999 read latency trend, Nemo vs FW, measured
/// open loop (see the module docs for the methodology).
pub fn fig15(scale: RunScale) {
    println!("\n### Figure 15 — read latency (p50 / p99 / p9999), Nemo vs FW, open loop");
    println!("paper: Nemo stable (~90us p50, 131us p99, 523us p9999); FW fluctuates (~350us p99, ~1488us p9999)");
    let scale = RunScale { dies: 64, ..scale };
    let ops = scale.ops_for_fills(2.0);
    let mut cfg = OpenLoopConfig::new(ops, FIG15_RATE);
    cfg.inflight = 64;
    let trace_cfg = scale.trace_config();
    let (nemo_row, nemo_windows) =
        fig15_run("nemo", &cfg, scale.nemo_config().factory(), &trace_cfg);
    let (fw_row, fw_windows) = fig15_run(
        "fairywren",
        &cfg,
        scale.fairywren_config(5, 5).factory(),
        &trace_cfg,
    );
    let headers = [
        "system",
        "p50 (us)",
        "p99 (us)",
        "p9999 (us)",
        "queue p99 (us)",
        "svc p99 (us)",
    ];
    let summary = [nemo_row, fw_row];
    print_table("Fig. 15 (aggregate)", &headers, &summary);
    write_csv("fig15_summary", &headers, &summary);
    // Both systems share `cfg`, and the open-loop reactor emits exactly
    // ops.div_ceil(sample_every) windows, so the lists are equal-length
    // by construction today. The guard replaces the old *silent*
    // truncation: should a future change let the counts drift (say,
    // per-system sampling), the dropped tail is reported, not eaten.
    let windows = [("nemo", nemo_windows), ("fairywren", fw_windows)];
    let n = windows.iter().map(|(_, w)| w.len()).min().unwrap_or(0);
    for (name, w) in &windows {
        if w.len() > n {
            println!(
                "   note: {name} produced {} windows; the trend table pairs the first {n} — \
                 dropped tail windows at ops {:?}",
                w.len(),
                w[n..].iter().map(|x| x.ops).collect::<Vec<_>>()
            );
        }
    }
    let mut rows = Vec::new();
    for (a, b) in windows[0].1[..n].iter().zip(&windows[1].1[..n]) {
        rows.push(vec![
            a.ops.to_string(),
            f2(a.p50 as f64 / 1000.0),
            f2(a.p99 as f64 / 1000.0),
            f2(a.p9999 as f64 / 1000.0),
            f2(a.queue_p99 as f64 / 1000.0),
            f2(a.set_reads_per_get()),
            f2(b.p50 as f64 / 1000.0),
            f2(b.p99 as f64 / 1000.0),
            f2(b.p9999 as f64 / 1000.0),
            f2(b.queue_p99 as f64 / 1000.0),
            f2(b.set_reads_per_get()),
        ]);
    }
    let trend_headers = [
        "ops",
        "nemo p50",
        "nemo p99",
        "nemo p9999",
        "nemo q99",
        "nemo cand/get",
        "fw p50",
        "fw p99",
        "fw p9999",
        "fw q99",
        "fw cand/get",
    ];
    print_table("Fig. 15 (trend, us)", &trend_headers, &rows);
    write_csv("fig15", &trend_headers, &rows);
}

/// Figure 16: miss-ratio trend, Nemo vs FW.
pub fn fig16(scale: RunScale) {
    println!("\n### Figure 16 — miss ratio trend");
    println!("paper: Nemo and FW converge to similar miss ratios");
    let ops = scale.ops_for_fills(3.0);
    let points = 20u64;
    let mut nemo = scale.nemo();
    let mut fw = scale.fairywren(5, 5);
    let mut rows = Vec::new();
    let mut nemo_series = Vec::new();
    let mut axis = Vec::new();
    drive(
        &mut nemo,
        &mut scale.merged_trace(),
        ops,
        (ops / points).max(1),
        |e, op| {
            nemo_series.push(e.stats().miss_ratio());
            axis.push(op);
        },
    );
    let mut fw_series = Vec::new();
    drive(
        &mut fw,
        &mut scale.merged_trace(),
        ops,
        (ops / points).max(1),
        |e, _| fw_series.push(e.stats().miss_ratio()),
    );
    for (i, op) in axis.iter().enumerate() {
        rows.push(vec![
            op.to_string(),
            f3(nemo_series.get(i).copied().unwrap_or(f64::NAN)),
            f3(fw_series.get(i).copied().unwrap_or(f64::NAN)),
        ]);
    }
    println!(
        "   final cumulative miss ratio: nemo {:.3}, fw {:.3}",
        nemo.stats().miss_ratio(),
        fw.stats().miss_ratio()
    );
    let headers = ["ops", "nemo", "fairywren"];
    print_table("Fig. 16", &headers, &rows);
    write_csv("fig16", &headers, &rows);
}

/// Runs the full §5.2 suite.
pub fn all(scale: RunScale) {
    fig12a(scale);
    fig12b(scale);
    fig13(scale);
    fig14(scale);
    fig15(scale);
    fig16(scale);
}
