//! Experiment regeneration for every table and figure in the paper's
//! motivation (§3) and evaluation (§5) sections, plus Appendix A.
//!
//! Each `figXX`/`tableX` function runs a scaled-down simulation with
//! paper-identical *ratios* (log : set split, OP, WSS : cache, Zipf α,
//! object sizes) and prints the same rows/series the paper plots, along
//! with the paper's reference values where applicable. CSV copies land in
//! `target/experiments/`.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p nemo-bench --bin experiments -- all
//! ```
//!
//! The latency figures are measured *open loop* over the sharded
//! `nemo-service` front-end (`experiments openloop --rate R --inflight K
//! --shards N`); see [`main_metrics`]'s module docs for the
//! methodology — what Fig. 15 measures and why queueing delay is
//! reported separately from service time.
//!
//! # Examples
//!
//! The shared [`RunScale`] carries every experiment's geometry and trace
//! scaling; [`common::drive`] is the demand-fill loop the WA figures
//! use:
//!
//! ```
//! use nemo_bench::{common::drive, RunScale};
//! use nemo_engine::CacheEngine as _;
//!
//! let scale = RunScale { flash_mb: 16, ops_mult: 1.0, dies: 8 };
//! // The merged trace's catalog is ~6x flash, so steady-state eviction
//! // engages like in the paper's long replays.
//! let wss_mb = scale.merged_trace().wss_bytes() as f64 / (1024.0 * 1024.0);
//! assert!(wss_mb > 4.0 * 16.0);
//! let mut engine = scale.log();
//! let mut samples = 0;
//! drive(&mut engine, &mut scale.merged_trace(), 2_000, 500, |_, _| samples += 1);
//! assert_eq!(samples, 4);
//! assert!(engine.stats().puts > 0);
//! ```

pub mod breakdown;
pub mod common;
pub mod device_validation;
pub mod faultload;
pub mod main_metrics;
pub mod motivation;
pub mod netload;
pub mod overhead;
pub mod sensitivity;
pub mod sharded;

pub use common::RunScale;
