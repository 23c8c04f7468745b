//! # nemo-repro
//!
//! A from-scratch Rust reproduction of **"Nemo: A Low-Write-Amplification
//! Cache for Tiny Objects on Log-Structured Flash Devices"** (ASPLOS '26),
//! including every substrate the paper depends on: a zoned-flash
//! simulator, a conventional-SSD FTL, Bloom-filter indexing, Twitter-like
//! workload generation, the four baseline cache engines (log-structured,
//! set-associative, Kangaroo, FairyWREN) and the replay/measurement
//! harness.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof for the examples and integration tests. Library users can depend
//! on the individual `nemo-*` crates directly.
//!
//! # Quickstart
//!
//! ```
//! use nemo_repro::core::{Nemo, NemoConfig};
//! use nemo_repro::engine::CacheEngine;
//! use nemo_repro::flash::Nanos;
//!
//! let mut cache = Nemo::new(NemoConfig::small());
//! cache.put(0xFEED, 250, Nanos::ZERO);
//! assert!(cache.get(0xFEED, Nanos::ZERO).hit);
//! println!("ALWA so far: {:.2}", cache.stats().alwa());
//! ```

/// Analytic models (paper §3.2, Appendix A, Table 6).
pub use nemo_analytic as analytic;
/// The four baseline engines (Log, Set, Kangaroo, FairyWREN).
pub use nemo_baselines as baselines;
/// Bloom filters and PBFG packing.
pub use nemo_bloom as bloom;
/// The Nemo engine itself.
pub use nemo_core as core;
/// The shared engine trait, stats and on-flash codec.
pub use nemo_engine as engine;
/// Flash devices: modeled simulators and the real-I/O backend.
pub use nemo_flash as flash;
/// Measurement utilities.
pub use nemo_metrics as metrics;
/// The memcached-text wire front-end.
pub use nemo_proto as proto;
/// The sharded concurrent front-end and the replay driver.
pub use nemo_service as service;
/// Workload generation.
pub use nemo_trace as trace;
/// Deterministic PRNG/hash utilities.
pub use nemo_util as util;
