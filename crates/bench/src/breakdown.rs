//! §5.3 design breakdown (Figure 17) and the probabilistic-flushing sweep
//! (Figure 18), plus Figure 8 from the design section (short-term hash
//! skew — the motivation for all three techniques).

use crate::common::{drive, f2, f3, print_table, write_csv, RunScale};
use nemo_core::MemSg;
use nemo_engine::CacheEngine;
use nemo_metrics::SampleCdf;
use nemo_trace::{SizeModel, SyntheticInsertTrace, TraceGenerator};

/// Figure 8: per-set fill-rate CDF at the moment the first set fills,
/// for SG sizes 64 MB–4 GB and set sizes 4/8 KB, synthetic and
/// Twitter-like workloads.
pub fn fig8(_scale: RunScale) {
    println!("\n### Figure 8 — short-term hashed-key skew (fill rate when the first set fills)");
    println!(
        "paper: with 4 KB sets the remaining sets are mostly <25% full; 8 KB rarely exceeds 40%"
    );
    let mut rows = Vec::new();
    for (workload, label) in [("synthetic", "synth"), ("twitter", "twitter")] {
        for set_kb in [4u32, 8] {
            for sg_mb in [64u64, 256, 1024, 4096] {
                let page = set_kb * 1024;
                let sets = (sg_mb * 1024 * 1024 / page as u64) as u32;
                let mut sg = MemSg::new(sets, page);
                let mut cdf = SampleCdf::new();
                // Safety cap: a set must fill long before 4x capacity.
                let cap = 4 * sg_mb * 1024 * 1024 / 200;
                match workload {
                    "synthetic" => {
                        let mut t = SyntheticInsertTrace::paper_synthetic(sg_mb ^ 0x51);
                        for _ in 0..cap {
                            let r = t.next().expect("infinite");
                            if !sg.insert(r.key, r.size) {
                                break;
                            }
                        }
                    }
                    _ => {
                        // Catalog sized to the SG (2.5x) so the key space
                        // cannot be exhausted before a set fills.
                        let cfg = nemo_trace::TraceConfig::twitter_merged(
                            sg_mb as f64 * 2.5 / crate::common::MERGED_WSS_MB,
                        );
                        let mut t = TraceGenerator::new(cfg);
                        for _ in 0..cap {
                            let r = t.next_request();
                            if !sg.insert(r.key, r.size) {
                                break;
                            }
                        }
                    }
                }
                for fr in sg.set_fill_rates() {
                    cdf.record(fr * 100.0);
                }
                rows.push(vec![
                    format!("{label}-{set_kb}KB-{sg_mb}MB"),
                    f2(cdf.mean()),
                    f2(cdf.quantile(0.25)),
                    f2(cdf.quantile(0.50)),
                    f2(cdf.quantile(0.75)),
                    f2(cdf.quantile(0.95)),
                ]);
            }
        }
    }
    let headers = ["config", "mean %", "q25 %", "median %", "q75 %", "q95 %"];
    print_table("Fig. 8", &headers, &rows);
    write_csv("fig8", &headers, &rows);
}

/// Figure 17: the fill-rate ablation — naïve, B, P, B+P, B+P+W.
pub fn fig17(scale: RunScale) {
    println!("\n### Figure 17 — 'perfect' SG breakdown (mean fill rate per technique)");
    println!("paper: naive 6.78% | B 31.32% | P 36.77% | B+P 64.13% | B+P+W 89.34%");
    let ops = scale.ops_for_fills(2.5);
    let variants: [(&str, bool, bool, bool, &str); 5] = [
        ("naive", false, false, false, "6.78"),
        ("B", true, false, false, "31.32"),
        ("P", false, true, false, "36.77"),
        ("B+P", true, true, false, "64.13"),
        ("B+P+W", true, true, true, "89.34"),
    ];
    let mut rows = Vec::new();
    for (label, b, p, w, paper) in variants {
        let mut cfg = scale.nemo_config();
        cfg.enable_buffered_sgs = b;
        cfg.enable_p_flushing = p;
        cfg.enable_writeback = w;
        let mut nemo = nemo_core::Nemo::new(cfg);
        drive(&mut nemo, &mut scale.merged_trace(), ops, ops, |_, _| {});
        rows.push(vec![
            label.to_string(),
            f2(nemo.mean_fill_rate() * 100.0),
            f2(nemo.stats().alwa()),
            paper.to_string(),
        ]);
    }
    let headers = ["variant", "fill rate %", "ALWA", "paper fill %"];
    print_table("Fig. 17", &headers, &rows);
    write_csv("fig17", &headers, &rows);
}

/// Figure 18: the flushing-threshold sweep — new objects absorbed by the
/// first two SGs and the resulting WA, versus sacrificed objects.
pub fn fig18(scale: RunScale) {
    println!("\n### Figure 18 — probabilistic flushing sweep (p_th)");
    println!(
        "paper: more sacrifices -> more new objects per SG and lower WA, with diminishing returns"
    );
    let ops = scale.ops_for_fills(2.0);
    let mut rows = Vec::new();
    for p_th in [1u32, 4, 16, 64, 256, 1024, 4096] {
        let mut cfg = scale.nemo_config();
        cfg.flush_threshold = p_th;
        let mut nemo = nemo_core::Nemo::new(cfg);
        drive(&mut nemo, &mut scale.merged_trace(), ops, ops, |_, _| {});
        let report = nemo.report();
        let first = report.flush_log.first().copied();
        let second = report.flush_log.get(1).copied();
        rows.push(vec![
            p_th.to_string(),
            first.map_or("-".into(), |f| f.new_objects.to_string()),
            second.map_or("-".into(), |f| f.new_objects.to_string()),
            report.sacrificed_objects.to_string(),
            f2(nemo.stats().alwa()),
            f3(nemo.mean_fill_rate()),
        ]);
    }
    let headers = [
        "p_th",
        "1st SG new objs",
        "2nd SG new objs",
        "sacrificed",
        "WA",
        "mean fill",
    ];
    print_table("Fig. 18", &headers, &rows);
    write_csv("fig18", &headers, &rows);
}

/// Ablation beyond the paper: number of buffered in-memory SGs.
pub fn ablation_queue_len(scale: RunScale) {
    println!("\n### Ablation — buffered in-memory SG count (design choice in §4.2)");
    let ops = scale.ops_for_fills(2.0);
    let mut rows = Vec::new();
    for queue_len in [1u32, 2, 4, 8] {
        let mut cfg = scale.nemo_config();
        cfg.in_memory_sgs = queue_len;
        cfg.enable_buffered_sgs = queue_len > 1;
        let mut nemo = nemo_core::Nemo::new(cfg);
        drive(&mut nemo, &mut scale.merged_trace(), ops, ops, |_, _| {});
        rows.push(vec![
            queue_len.to_string(),
            f2(nemo.mean_fill_rate() * 100.0),
            f2(nemo.stats().alwa()),
            f3(nemo.stats().miss_ratio()),
        ]);
    }
    let headers = ["in-memory SGs", "fill rate %", "WA", "miss ratio"];
    print_table("Ablation: queue length", &headers, &rows);
    write_csv("ablation_queue", &headers, &rows);
}

/// Ablation beyond the paper: hotness-tracking window and cooling period
/// (the design choices Table 3 fixes at 30 % / 10 %).
pub fn ablation_hotness(scale: RunScale) {
    println!("\n### Ablation — hotness window x cooling period (Table 3 defaults: 30% / 10%)");
    let ops = scale.ops_for_fills(2.5);
    let mut rows = Vec::new();
    for (window, cooling) in [
        (0.1, 0.10),
        (0.3, 0.10),
        (0.6, 0.10),
        (0.3, 0.05),
        (0.3, 0.50),
    ] {
        let mut cfg = scale.nemo_config();
        cfg.hotness_window = window;
        cfg.cooling_period = cooling;
        let mut nemo = nemo_core::Nemo::new(cfg);
        drive(&mut nemo, &mut scale.merged_trace(), ops, ops, |_, _| {});
        let r = nemo.report();
        rows.push(vec![
            format!("{:.0}%", window * 100.0),
            format!("{:.0}%", cooling * 100.0),
            r.writeback_objects.to_string(),
            f3(nemo.stats().miss_ratio()),
            f2(nemo.stats().alwa()),
            f2(nemo.memory().bits_per_object()),
        ]);
    }
    let headers = [
        "window",
        "cooling",
        "writebacks",
        "miss ratio",
        "WA",
        "bits/obj",
    ];
    print_table("Ablation: hotness tracking", &headers, &rows);
    write_csv("ablation_hotness", &headers, &rows);
}

/// Read-cost breakdown of the get path: candidate set reads per get on
/// the young pool against the aged pool, where updates have left stale
/// copies behind, and what the reads that found nothing were.
pub fn read_cost(scale: RunScale) {
    println!("\n### Read-cost breakdown — newest-first get walk, young vs aged pool");
    println!(
        "young = first quarter of the run (pool filling); aged = last quarter (steady-state \
         eviction, stale copies accumulated)"
    );
    let ops = scale.ops_for_fills(2.5);
    let quarter = ops / 4;
    let mut nemo = nemo_core::Nemo::new(scale.nemo_config());
    // Cumulative (candidate_reads, gets) at each quarter of the run.
    let mut marks = Vec::new();
    drive(
        &mut nemo,
        &mut scale.merged_trace(),
        ops,
        quarter.max(1),
        |e, _| {
            let s = e.stats();
            marks.push((s.candidate_reads, s.gets));
        },
    );
    let s = nemo.stats();
    let r = nemo.report();
    let per_get = |(c, g): (u64, u64)| if g == 0 { 0.0 } else { c as f64 / g as f64 };
    let young = marks[0];
    let aged = (s.candidate_reads - marks[2].0, s.gets - marks[2].1);
    let rows = vec![vec![
        f2(per_get(young)),
        f2(per_get(aged)),
        r.bloom_fp_reads.to_string(),
        r.index.capped_queries.to_string(),
        r.candidates_per_get.quantile(0.99).to_string(),
        f2((1.0 - s.miss_ratio()) * 100.0),
        f2(s.alwa()),
    ]];
    let headers = [
        "young cand/get",
        "aged cand/get",
        "bloom FP reads",
        "capped gets",
        "cand p99",
        "hit %",
        "ALWA",
    ];
    print_table("Read-cost breakdown", &headers, &rows);
    write_csv("read_cost", &headers, &rows);
}

/// Helper for the Fig. 8 "twitter" label: expose the default trace's size
/// model so tests can check it matches the synthetic spec.
pub fn synthetic_size_model() -> SizeModel {
    SizeModel::paper_synthetic()
}

/// Helper: a twitter-like generator at an explicit scale (used by tests).
pub fn twitter_generator(scale: RunScale) -> TraceGenerator {
    scale.merged_trace()
}

/// Runs the full breakdown suite.
pub fn all(scale: RunScale) {
    fig8(scale);
    fig17(scale);
    fig18(scale);
    read_cost(scale);
    ablation_queue_len(scale);
    ablation_hotness(scale);
}
