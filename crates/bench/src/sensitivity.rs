//! §5.4 sensitivity analysis: Figures 19a and 19b.

use crate::common::{drive, f2, print_table, write_csv, RunScale};
use nemo_core::MemSg;
use nemo_trace::{TraceConfig, TraceGenerator, TwitterCluster};

/// Figure 19a: cumulative request share served by the top-x % hottest
/// intra-SG set offsets, per cluster.
pub fn fig19a(scale: RunScale) {
    println!("\n### Figure 19a — set access distribution (requests served by top-x% sets)");
    println!("paper: ~70% of accesses concentrate in the top 30% of sets");
    let sets = scale.geometry().pages_per_zone();
    let ops = 400_000u64.max(scale.ops_for_fills(0.5));
    let clusters = [
        (TwitterCluster::C14, "14"),
        (TwitterCluster::C29, "29"),
        (TwitterCluster::C34, "34"),
        (TwitterCluster::C52, "52"),
    ];
    let mut rows = Vec::new();
    for (cluster, label) in clusters {
        let cfg = TraceConfig::single_cluster(cluster, scale.flash_mb as f64 / 400_000.0);
        let mut gen = TraceGenerator::new(cfg);
        let mut counts = vec![0u64; sets as usize];
        for _ in 0..ops {
            let r = gen.next_request();
            counts[MemSg::set_index_of(r.key, sets) as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let mut row = vec![format!("cluster_{label}")];
        for top_pct in [20usize, 30, 40, 50, 60] {
            let k = sets as usize * top_pct / 100;
            let served: u64 = counts.iter().take(k).sum();
            row.push(f2(100.0 * served as f64 / total as f64));
        }
        rows.push(row);
    }
    let headers = ["cluster", "top20%", "top30%", "top40%", "top50%", "top60%"];
    print_table("Fig. 19a (requests served %)", &headers, &rows);
    write_csv("fig19a", &headers, &rows);
}

/// Figure 19b: PBFG miss ratio versus the cached PBFG proportion.
pub fn fig19b(scale: RunScale) {
    println!("\n### Figure 19b — PBFG misses vs in-memory PBFG proportion");
    println!("paper: <15% of requests need PBFGs from flash at any ratio; <8% at 50%");
    let ops = scale.ops_for_fills(2.5);
    let mut rows = Vec::new();
    for ratio_pct in [20u32, 30, 40, 50, 60] {
        let mut cfg = scale.nemo_config();
        cfg.cached_pbfg_ratio = ratio_pct as f64 / 100.0;
        // Smaller groups so several persisted groups exist at this scale.
        cfg.index_group_sgs = 10;
        let mut nemo = nemo_core::Nemo::new(cfg);
        drive(&mut nemo, &mut scale.merged_trace(), ops, ops, |_, _| {});
        let idx = nemo.report().index;
        rows.push(vec![
            format!("{ratio_pct}%"),
            f2(idx.miss_ratio() * 100.0),
            idx.cache_misses.to_string(),
            (idx.cache_hits + idx.cache_misses).to_string(),
        ]);
    }
    let headers = ["cached PBFG", "miss %", "flash fetches", "PBFG queries"];
    print_table("Fig. 19b", &headers, &rows);
    write_csv("fig19b", &headers, &rows);
}

/// Runs the sensitivity suite.
pub fn all(scale: RunScale) {
    fig19a(scale);
    fig19b(scale);
}
