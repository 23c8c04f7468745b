//! The engine trait.

use crate::stats::{EngineStats, MemoryBreakdown};
use nemo_flash::{FlashError, Nanos};
use std::fmt;

/// A fatal engine failure — the error a [`CacheEngine::try_get`] /
/// [`CacheEngine::try_put`] surfaces after its internal recovery
/// (bounded retries, zone quarantine, degrading to a miss) has been
/// exhausted. Reaching the caller means the engine can no longer serve;
/// the sharded front-end reacts by taking the owning shard out of
/// rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// An unrecoverable device failure on a structure the engine cannot
    /// serve without (index pool, write frontier).
    Device {
        /// What the engine was doing when the device failed.
        context: &'static str,
        /// The device error that exhausted recovery.
        source: FlashError,
    },
    /// The request was routed to a shard that is no longer serving
    /// (produced by the sharded front-end, not by engines themselves).
    ShardUnavailable {
        /// Index of the dead shard.
        shard: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Device { context, source } => {
                write!(f, "unrecoverable device error while {context}: {source}")
            }
            EngineError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Device { source, .. } => Some(source),
            EngineError::ShardUnavailable { .. } => None,
        }
    }
}

impl EngineError {
    /// Wraps a device error with the operation it interrupted.
    pub fn device(context: &'static str, source: FlashError) -> Self {
        EngineError::Device { context, source }
    }
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetOutcome {
    /// Whether the object was found.
    pub hit: bool,
    /// Virtual completion time of the lookup (≥ the issue time).
    pub done_at: Nanos,
    /// Flash pages read to serve this lookup (object + index + false
    /// positives) — the per-request read amplification.
    pub flash_reads: u32,
    /// Data-page reads among [`Self::flash_reads`]: candidate set /
    /// object pages only, index-structure fetches excluded. For engines
    /// with exact or fully in-memory indexes this equals `flash_reads`;
    /// for Nemo it is the candidate pages its newest-first walk read.
    pub set_reads: u32,
}

impl GetOutcome {
    /// A miss served entirely from memory (no flash touched).
    pub fn memory_miss(now: Nanos) -> Self {
        Self {
            hit: false,
            done_at: now,
            flash_reads: 0,
            set_reads: 0,
        }
    }

    /// A hit served entirely from memory.
    pub fn memory_hit(now: Nanos) -> Self {
        Self {
            hit: true,
            done_at: now,
            flash_reads: 0,
            set_reads: 0,
        }
    }
}

/// A flash cache engine: Nemo or one of the baselines.
///
/// Engines own their simulated device. Operations carry a virtual
/// timestamp `now` and report their completion time so the harness can
/// build latency distributions without wall-clock noise.
///
/// The trait is object-safe: the harness stores engines as
/// `Box<dyn CacheEngine>` to compare systems uniformly.
///
/// `Send` is a supertrait so any engine can sit behind a `Mutex` that
/// threads share (`Mutex<E>` is `Sync` exactly when `E` is `Send`): the
/// sharded front-end in `nemo-service` puts each shard's engine behind
/// one lock and runs every request on the thread that issues it.
/// Engines stay single-threaded internally (no `Sync` requirement).
pub trait CacheEngine: Send {
    /// Short engine name ("nemo", "log", "set", "kangaroo", "fairywren").
    fn name(&self) -> &'static str;

    /// Looks up `key` at virtual time `now`.
    ///
    /// Device faults are absorbed where a cache legitimately can:
    /// transient errors are retried (bounded), permanently failed zones
    /// are quarantined, and an unreachable object degrades to a miss
    /// (counted in [`EngineStats::fault_induced_misses`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] only when the engine can no longer serve
    /// at all (e.g. its index pool is on a dead zone).
    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError>;

    /// Inserts (or updates) an object of `size` bytes; returns the
    /// completion time of the foreground portion of the write.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::try_get`]: recoverable device faults are
    /// absorbed, an error means the engine is dead.
    fn try_put(&mut self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError>;

    /// Infallible [`Self::try_get`] for harnesses on fault-free devices.
    ///
    /// # Panics
    ///
    /// Panics if the engine reports a fatal [`EngineError`].
    fn get(&mut self, key: u64, now: Nanos) -> GetOutcome {
        match self.try_get(key, now) {
            Ok(outcome) => outcome,
            Err(e) => panic!("engine failed fatally on get: {e}"),
        }
    }

    /// Infallible [`Self::try_put`] for harnesses on fault-free devices.
    ///
    /// # Panics
    ///
    /// Panics if the engine reports a fatal [`EngineError`].
    fn put(&mut self, key: u64, size: u32, now: Nanos) -> Nanos {
        match self.try_put(key, size, now) {
            Ok(done) => done,
            Err(e) => panic!("engine failed fatally on put: {e}"),
        }
    }

    /// Common counters.
    fn stats(&self) -> EngineStats;

    /// Metadata memory accounting (Table 6).
    fn memory(&self) -> MemoryBreakdown;

    /// Forces in-memory buffers to flash (used by tests and at the end of
    /// replay; engines without buffers may ignore it).
    fn drain(&mut self, _now: Nanos) {}

    /// Whether the engine holds deferred background work (e.g. a paced
    /// eviction scan) that [`Self::background_slice`] could advance.
    ///
    /// Engines that do all maintenance inline — every baseline today —
    /// keep the default `false` and are never sliced.
    fn background_pending(&self) -> bool {
        false
    }

    /// Advances deferred background work by one *bounded* slice at
    /// virtual time `now` (a handful of device operations at most).
    ///
    /// The sharded front-end in `nemo-service` calls this between
    /// foreground requests so that background flash traffic (Nemo's
    /// hotness-aware write-back reads, zone reclamation) interleaves with
    /// request service instead of landing as one burst that foreground
    /// reads then queue behind — the paper pays for the same pacing with
    /// dedicated background threads. Calling it after each foreground
    /// request is what gives foreground operations die-queue priority:
    /// they are issued first at any given timestamp.
    fn background_slice(&mut self, _now: Nanos) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_constructors() {
        let t = Nanos::from_micros(5);
        let hit = GetOutcome::memory_hit(t);
        assert!(hit.hit);
        assert_eq!(hit.done_at, t);
        assert_eq!(hit.flash_reads, 0);
        assert_eq!(hit.set_reads, 0);
        let miss = GetOutcome::memory_miss(t);
        assert!(!miss.hit);
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check.
        fn _take(_: &dyn CacheEngine) {}
    }
}
