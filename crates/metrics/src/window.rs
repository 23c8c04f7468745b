//! Windowed latency trend samples produced by the replay driver.

use nemo_flash::Nanos;

/// One latency trend sample (a window's percentiles, in nanoseconds).
///
/// Total read latency decomposes as *queueing delay* (time a request
/// waits behind its shard's in-flight bound before service begins —
/// what `nemo_service::openloop` reports when a device falls behind the
/// arrival rate) plus *service time* (time from service start to
/// completion, including device die contention).
/// Percentiles of a sum are not sums of percentiles, so all three
/// families are recorded independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyWindow {
    /// Ops completed at the end of this window.
    pub ops: u64,
    /// Virtual time at the end of this window.
    pub at: Nanos,
    /// Median total read latency (queueing + service).
    pub p50: u64,
    /// 99th percentile of total read latency.
    pub p99: u64,
    /// 99.99th percentile of total read latency.
    pub p9999: u64,
    /// Median queueing delay.
    pub queue_p50: u64,
    /// 99th percentile of queueing delay.
    pub queue_p99: u64,
    /// 99.99th percentile of queueing delay.
    pub queue_p9999: u64,
    /// Median service time.
    pub service_p50: u64,
    /// 99th percentile of service time.
    pub service_p99: u64,
    /// 99.99th percentile of service time.
    pub service_p9999: u64,
    /// Lookups completed in this window.
    pub get_ops: u64,
    /// Those of the lookups that hit.
    pub hits: u64,
    /// Requests of this window refused instead of served (their shard was
    /// dead); they count in neither `get_ops` nor the percentiles.
    pub refused: u64,
    /// Candidate data-page (set) reads those lookups issued, summed —
    /// divide by [`Self::get_ops`] (or call
    /// [`Self::set_reads_per_get`]) for the per-get read cost Nemo's
    /// newest-first get walk bounds.
    pub set_reads: u64,
}

impl LatencyWindow {
    /// Hit ratio of the window's lookups (0 when it saw none).
    pub fn hit_ratio(&self) -> f64 {
        if self.get_ops == 0 {
            0.0
        } else {
            self.hits as f64 / self.get_ops as f64
        }
    }

    /// Mean candidate set reads per lookup over the window (0 when the
    /// window saw no lookups).
    pub fn set_reads_per_get(&self) -> f64 {
        if self.get_ops == 0 {
            0.0
        } else {
            self.set_reads as f64 / self.get_ops as f64
        }
    }
}
