//! **Nemo** — the paper's primary contribution: a flash cache for tiny
//! objects that achieves near-ideal application-level write amplification
//! on log-structured flash devices (ZNS/FDP/conventional), without giving
//! up memory efficiency or miss ratio.
//!
//! The architecture (paper §4, Fig. 7):
//!
//! * Objects hash into sets inside an in-memory **Set-Group** (SG) whose
//!   hash space is deliberately small (one erase unit), so sets fill up
//!   before the SG is flushed ([`MemSg`]).
//! * Three techniques push the flush-time fill rate from ~7 % to ~89 %
//!   (Fig. 17): **b**uffered in-memory SGs, count-based **p**robabilistic
//!   flushing, and hotness-aware **w**riteback during eviction — all
//!   individually toggleable in [`NemoConfig`] for the ablation.
//! * Flushed SGs form a FIFO pool on flash; eviction is SG-granular, so
//!   the device sees only large sequential writes and whole-zone resets
//!   (DLWA = 1).
//! * Lookups use the **PBFG** approximate index ([`index`]): one Bloom
//!   filter per (SG, set), built from the keys the flushed set page
//!   holds and stored bit-sliced so the whole parallel filter
//!   group for a set offset fits in one flash page and one probe tests all
//!   of it; only hot PBFG pages are cached in memory.
//! * Eviction decisions use **hybrid hotness tracking** ([`hotness`]):
//!   a 1-bit-per-object bitmap kept only for the oldest 30 % of the pool,
//!   ANDed with index-cache recency, cooled every 10 % of cache writes.
//!
//! # Examples
//!
//! ```
//! use nemo_core::{Nemo, NemoConfig};
//! use nemo_engine::CacheEngine;
//! use nemo_flash::Nanos;
//!
//! let mut cache = Nemo::new(NemoConfig::small());
//! cache.put(42, 250, Nanos::ZERO);
//! assert!(cache.get(42, Nanos::ZERO).hit);
//! ```

mod checkpoint;
mod config;
mod engine;
pub mod hotness;
pub mod index;
mod memsg;

pub use config::NemoConfig;
pub use engine::{Nemo, NemoReport, RecoveryMode, RecoveryReport, SgFlushInfo};
pub use memsg::{MemSg, SetBuffer};
