//! The cache-engine interface shared by Nemo and all baselines.
//!
//! The paper implements every compared system as a CacheLib engine so they
//! can be driven by one harness; this crate plays CacheLib's role. It
//! defines:
//!
//! * [`CacheEngine`] — the operation interface (`get`/`put`) with virtual
//!   timestamps, so the replay harness measures latency under the device's
//!   die-contention model,
//! * [`EngineStats`] — the common counters every WA/miss-ratio experiment
//!   needs,
//! * [`MemoryBreakdown`] — per-component metadata memory, reported in
//!   bits/object exactly like the paper's Table 6,
//! * [`codec`] — the on-flash page format and page builder shared by all
//!   engines (directory-first pages: an entry count, a `(key, size)`
//!   directory, and the payloads packed from the page end),
//! * [`device`] — every engine's device access: the one transient-error
//!   retry loop with virtual-time backoff, and the byte charges it makes
//!   against [`EngineStats`].
//!
//! # Examples
//!
//! ```
//! use nemo_engine::codec::PageBuf;
//!
//! let mut page = PageBuf::new(4096);
//! assert!(page.try_push(42, 200));
//! let bytes = page.finish();
//! let entries: Vec<_> = nemo_engine::codec::parse_entries(&bytes).collect();
//! assert_eq!(entries, vec![(42, 200)]);
//! ```

pub mod codec;
pub mod device;
mod stats;
mod traits;

pub use stats::{EngineStats, MemoryBreakdown, MemoryComponent};
pub use traits::{CacheEngine, EngineError, GetOutcome};
