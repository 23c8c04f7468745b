//! Device I/O accounting.

use crate::time::Nanos;

/// Cumulative I/O counters for a device.
///
/// All write-amplification numbers in the reproduction are derived from
/// these counters: application-level WA compares an engine's logical bytes
/// against `bytes_written` here, and device-level WA compares host writes
/// against NAND writes (see [`crate::FtlStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// Pages written (appended) by the host.
    pub pages_written: u64,
    /// Bytes written by the host.
    pub bytes_written: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Zone resets (erases).
    pub zone_resets: u64,
    /// Number of append operations (each may cover many pages).
    pub append_ops: u64,
    /// Number of read operations.
    pub read_ops: u64,
    /// Metadata fsync barriers issued after state-changing superblock
    /// writes (zone finish/reset on backed devices; 0 for in-memory).
    pub superblock_syncs: u64,
    /// Total device-busy time accumulated over all dies.
    pub busy_time: Nanos,
    /// Pages read through submit/poll
    /// ([`crate::ZonedFlash::submit_read_batch`]); a subset of
    /// `pages_read`.
    pub async_reads: u64,
    /// Summed submit-to-completion latency over all submitted page reads
    /// (divide by `async_reads` for the mean). Modeled devices record the
    /// modeled interval, measuring devices the measured one.
    pub submit_lat_total: Nanos,
    /// High-water mark of concurrently in-flight submitted page reads. Not a
    /// counter: [`Self::merge`] takes the maximum across devices (a fleet
    /// is as deep as its deepest shard) and [`Self::delta`] keeps the
    /// later value (the mark is monotone within a run).
    pub inflight_hwm: u64,
    /// Read operations that failed (including every page of a scattered
    /// batch that failed, not just the first error the call surfaced).
    pub read_errors: u64,
    /// Write-path operations (appends, resets) that failed.
    pub write_errors: u64,
}

impl DeviceStats {
    /// Counter-wise difference `self - earlier`, for windowed reporting.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` has larger counters.
    pub fn delta(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            pages_written: self.pages_written - earlier.pages_written,
            bytes_written: self.bytes_written - earlier.bytes_written,
            pages_read: self.pages_read - earlier.pages_read,
            bytes_read: self.bytes_read - earlier.bytes_read,
            zone_resets: self.zone_resets - earlier.zone_resets,
            append_ops: self.append_ops - earlier.append_ops,
            read_ops: self.read_ops - earlier.read_ops,
            superblock_syncs: self.superblock_syncs - earlier.superblock_syncs,
            busy_time: self.busy_time.saturating_sub(earlier.busy_time),
            async_reads: self.async_reads - earlier.async_reads,
            submit_lat_total: self
                .submit_lat_total
                .saturating_sub(earlier.submit_lat_total),
            inflight_hwm: self.inflight_hwm,
            read_errors: self.read_errors - earlier.read_errors,
            write_errors: self.write_errors - earlier.write_errors,
        }
    }

    /// Counter-wise sum `self + other`, for aggregating independent
    /// devices (e.g. one per shard behind a sharded front-end).
    pub fn merge(&self, other: &DeviceStats) -> DeviceStats {
        DeviceStats {
            pages_written: self.pages_written + other.pages_written,
            bytes_written: self.bytes_written + other.bytes_written,
            pages_read: self.pages_read + other.pages_read,
            bytes_read: self.bytes_read + other.bytes_read,
            zone_resets: self.zone_resets + other.zone_resets,
            append_ops: self.append_ops + other.append_ops,
            read_ops: self.read_ops + other.read_ops,
            superblock_syncs: self.superblock_syncs + other.superblock_syncs,
            busy_time: self.busy_time + other.busy_time,
            async_reads: self.async_reads + other.async_reads,
            submit_lat_total: self.submit_lat_total + other.submit_lat_total,
            inflight_hwm: self.inflight_hwm.max(other.inflight_hwm),
            read_errors: self.read_errors + other.read_errors,
            write_errors: self.write_errors + other.write_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counterwise() {
        let a = DeviceStats {
            pages_written: 10,
            bytes_written: 40960,
            pages_read: 3,
            bytes_read: 12288,
            zone_resets: 1,
            append_ops: 2,
            read_ops: 3,
            superblock_syncs: 1,
            busy_time: Nanos(500),
            ..Default::default()
        };
        let b = DeviceStats {
            pages_written: 4,
            bytes_written: 16384,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.pages_written, 6);
        assert_eq!(d.bytes_written, 24576);
        assert_eq!(d.zone_resets, 1);
    }

    #[test]
    fn merge_adds_counterwise_and_inverts_delta() {
        let a = DeviceStats {
            pages_written: 10,
            bytes_written: 40960,
            pages_read: 3,
            bytes_read: 12288,
            zone_resets: 1,
            append_ops: 2,
            read_ops: 3,
            superblock_syncs: 2,
            busy_time: Nanos(500),
            async_reads: 6,
            submit_lat_total: Nanos(300),
            inflight_hwm: 8,
            read_errors: 3,
            write_errors: 1,
        };
        let b = DeviceStats {
            pages_written: 4,
            bytes_written: 16384,
            busy_time: Nanos(40),
            async_reads: 2,
            submit_lat_total: Nanos(90),
            inflight_hwm: 3,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.pages_written, 14);
        assert_eq!(m.bytes_written, 57344);
        assert_eq!(m.busy_time, Nanos(540));
        assert_eq!(m.read_errors, 3);
        assert_eq!(m.write_errors, 1);
        assert_eq!(m.async_reads, 8);
        assert_eq!(m.submit_lat_total, Nanos(390));
        // The high-water mark is not additive: a fleet's depth is its
        // deepest shard's depth.
        assert_eq!(m.inflight_hwm, 8);
        // merge is the inverse of delta and commutes (for the hwm this
        // holds because a's mark dominates b's, as in a real run where
        // the later snapshot's mark is at least the earlier one's).
        assert_eq!(m.delta(&b), a);
        assert_eq!(b.merge(&a), m);
        // Default is the identity.
        assert_eq!(a.merge(&DeviceStats::default()), a);
    }
}
