//! Ablation of Nemo's three fill-rate techniques (paper Fig. 17) on a
//! small simulated device — a fast, self-contained version of
//! `experiments fig17`.
//!
//! ```text
//! cargo run --release --example ablation [--smoke]
//! ```
//!
//! `--smoke` (or `NEMO_SMOKE=1`) shrinks the run for CI smoke tests.

use nemo_repro::core::{Nemo, NemoConfig};
use nemo_repro::engine::CacheEngine;
use nemo_repro::flash::{standard_geometry, Nanos};
use nemo_repro::trace::{RequestKind, TraceConfig, TraceGenerator};

fn smoke() -> bool {
    std::env::var_os("NEMO_SMOKE").is_some_and(|v| v != "0")
        || std::env::args().any(|a| a == "--smoke")
}

fn run(label: &str, b: bool, p: bool, w: bool) {
    let mut cfg = NemoConfig::new(standard_geometry(32));
    cfg.enable_buffered_sgs = b;
    cfg.enable_p_flushing = p;
    cfg.enable_writeback = w;
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    let mut nemo = Nemo::new(cfg);
    let mut gen = TraceGenerator::new(TraceConfig::twitter_merged(32.0 * 6.0 / 337_848.0));
    let ops: u64 = if smoke() { 150_000 } else { 1_500_000 };
    for _ in 0..ops {
        let r = gen.next_request();
        match r.kind {
            RequestKind::Get => {
                if !nemo.get(r.key, Nanos::ZERO).hit {
                    nemo.put(r.key, r.size, Nanos::ZERO);
                }
            }
            RequestKind::Put => {
                nemo.put(r.key, r.size, Nanos::ZERO);
            }
        }
    }
    println!(
        "{:<8} fill {:>6.2}%   WA {:>5.2}   writebacks {:>8}   sacrificed {:>6}",
        label,
        nemo.mean_fill_rate() * 100.0,
        nemo.stats().alwa(),
        nemo.report().writeback_objects,
        nemo.report().sacrificed_objects,
    );
}

fn main() {
    println!("Fig. 17 ablation (paper: naive 6.78% -> B 31.32% -> P 36.77% -> B+P 64.13% -> B+P+W 89.34%)\n");
    run("naive", false, false, false);
    run("B", true, false, false);
    run("P", false, true, false);
    run("B+P", true, true, false);
    run("B+P+W", true, true, true);
}
