//! Flash-device simulators for the Nemo reproduction.
//!
//! The paper evaluates on a Western Digital ZN540 ZNS SSD. This crate
//! provides the substitute substrate: a zoned flash simulator that enforces
//! the same host-visible constraints —
//!
//! * zones are append-only (a write pointer per zone),
//! * a zone must be reset (erased) before its pages can be rewritten,
//! * I/O happens at page (4 KB) granularity,
//! * pages are striped over a fixed number of dies; a die services one
//!   operation at a time, so background writes delay foreground reads
//!   (the mechanism behind the paper's tail-latency results, Fig. 15),
//!
//! — and accounts every host/NAND byte so application-level and
//! device-level write amplification can be measured exactly.
//!
//! Three devices are provided:
//!
//! * [`SimFlash`]: the zoned device (ZNS-style). Host placement decisions are
//!   explicit, so device-level WA is 1.0 by construction, exactly like the
//!   log-structured devices the paper targets. Data can live in memory or in
//!   a backing file ([`SimFlash::file_backed`]) behind a persistent
//!   superblock, so file-backed devices survive process restarts
//!   ([`SimFlash::open_file_backed`]). Completion times come from the
//!   per-die latency *model*.
//! * [`RealFlash`]: the real-I/O zoned device — `pread`/`pwrite` against a
//!   preallocated file or raw block device, software-enforced zone
//!   semantics, fsync barriers on zone finish/reset, and *measured*
//!   wall-clock completion times via a pluggable [`Clock`]. This is the
//!   backend that validates the modeled latency claims end to end.
//! * [`ConventionalSsd`]: a block device built on top of [`SimFlash`] with a
//!   page-mapped FTL, greedy garbage collection and configurable
//!   over-provisioning. Used by the set-associative baseline, which the
//!   paper runs with 50 % OP, and for DLWA studies.
//!
//! Reads go through exactly three entry points of [`ZonedFlash`]:
//! [`ZonedFlash::read_pages_into`], the blocking copy of a contiguous
//! page extent; [`ZonedFlash::read_page_with`], which lends one page to
//! a closure where the device holds it, for a get's lookups; and
//! [`ZonedFlash::submit_read_batch`] / [`ZonedFlash::poll_completions`],
//! the scattered single-page batch whose queue depth decides how much of
//! it overlaps. A lent page and a submitted batch read the bytes, errors
//! and op counts of per-page `read_pages_into` calls on every device;
//! only the copy and the time differ.
//!
//! [`AnyFlash`] wraps the zoned devices in one concrete type for
//! runtime backend selection (engines themselves are generic over
//! [`ZonedFlash`]), and [`FaultyFlash`] wraps any backend to inject
//! deterministic, seeded device faults ([`FaultPlan`]) for robustness
//! testing.
//!
//! # Examples
//!
//! ```
//! use nemo_flash::{Geometry, Nanos, SimFlash, ZoneId, ZonedFlash};
//!
//! let geom = Geometry::new(4096, 64, 8, 4);
//! let mut dev = SimFlash::new(geom);
//! let page = vec![0xAB; 4096];
//! let (addr, done) = dev.append(ZoneId(0), &page, Nanos::ZERO)?;
//! let (data, _) = dev.read_pages(addr, 1, done)?;
//! assert_eq!(data, page);
//! # Ok::<(), nemo_flash::FlashError>(())
//! ```

mod backend;
mod clock;
mod conventional;
mod dies;
mod error;
mod faults;
mod geometry;
mod real;
mod stats;
mod superblock;
mod time;
mod zoned;

pub use backend::AnyFlash;
pub use clock::{Clock, TickClock, WallClock};
pub use conventional::{ConventionalSsd, FtlStats};
pub use dies::{DieTimeline, LatencyModel};
pub use error::{ErrorClass, FlashError};
pub use faults::{FaultKind, FaultOp, FaultPlan, FaultRule, FaultyFlash};
pub use geometry::{standard_geometry, Geometry, PageAddr, ZoneId};
pub use real::{RealFlash, RealFlashOptions};
pub use stats::DeviceStats;
pub use time::Nanos;
pub use zoned::{ReadBatch, ReadCompletion, SimFlash, ZoneState, ZonedFlash};
