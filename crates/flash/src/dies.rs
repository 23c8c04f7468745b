//! Per-die service timing: the latency model of the simulated device.

use crate::time::Nanos;

/// Operation latencies of the simulated NAND device.
///
/// Defaults approximate a data-center ZNS SSD (the paper's WD ZN540 class):
/// ~70 µs page reads, ~14 µs page appends (program time amortized over the
/// write buffer), ~2 ms zone resets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Time to read one page from a die.
    pub page_read: Nanos,
    /// Time to program one page on a die.
    pub page_append: Nanos,
    /// Time to reset (erase) a zone.
    pub zone_reset: Nanos,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            page_read: Nanos::from_micros(70),
            page_append: Nanos::from_micros(14),
            zone_reset: Nanos::from_millis(2),
        }
    }
}

impl LatencyModel {
    /// A zero-latency model, useful for pure-accounting experiments where
    /// only write amplification matters and timing is irrelevant.
    pub fn zero() -> Self {
        Self {
            page_read: Nanos::ZERO,
            page_append: Nanos::ZERO,
            zone_reset: Nanos::ZERO,
        }
    }
}

/// Tracks when each die becomes free.
///
/// A die services one operation at a time: an operation issued at `now`
/// starts at `max(now, busy_until[die])` and occupies the die for its
/// duration. This is what couples background writes (SG flushes, GC) to
/// foreground read latency.
#[derive(Debug, Clone)]
pub struct DieTimeline {
    busy_until: Vec<Nanos>,
    total_busy: Nanos,
}

impl DieTimeline {
    /// Creates a timeline for `dies` independent dies.
    ///
    /// # Panics
    ///
    /// Panics if `dies` is zero.
    pub fn new(dies: u32) -> Self {
        assert!(dies > 0, "dies must be positive");
        Self {
            busy_until: vec![Nanos::ZERO; dies as usize],
            total_busy: Nanos::ZERO,
        }
    }

    /// Schedules an operation of `duration` on `die` at `now`; returns its
    /// completion time.
    pub fn service(&mut self, die: u32, now: Nanos, duration: Nanos) -> Nanos {
        let slot = &mut self.busy_until[die as usize];
        let start = now.max(*slot);
        let done = start + duration;
        *slot = done;
        self.total_busy += duration;
        done
    }

    /// Total busy time accumulated across all dies.
    pub fn total_busy(&self) -> Nanos {
        self.total_busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_die_services_immediately() {
        let mut t = DieTimeline::new(2);
        let done = t.service(0, Nanos(100), Nanos(50));
        assert_eq!(done, Nanos(150));
    }

    #[test]
    fn busy_die_queues() {
        let mut t = DieTimeline::new(1);
        let d1 = t.service(0, Nanos(0), Nanos(100));
        assert_eq!(d1, Nanos(100));
        // Issued at t=10 while the die is busy until t=100: starts at 100.
        let d2 = t.service(0, Nanos(10), Nanos(30));
        assert_eq!(d2, Nanos(130));
    }

    #[test]
    fn independent_dies_run_in_parallel() {
        let mut t = DieTimeline::new(2);
        let a = t.service(0, Nanos(0), Nanos(100));
        let b = t.service(1, Nanos(0), Nanos(100));
        assert_eq!(a, Nanos(100));
        assert_eq!(b, Nanos(100));
        assert_eq!(t.total_busy(), Nanos(200));
    }

    #[test]
    fn late_arrival_on_idle_die() {
        let mut t = DieTimeline::new(1);
        t.service(0, Nanos(0), Nanos(10));
        let d = t.service(0, Nanos(1000), Nanos(10));
        assert_eq!(d, Nanos(1010), "idle gap must not carry over");
    }

    #[test]
    fn zero_latency_model() {
        let m = LatencyModel::zero();
        assert_eq!(m.page_read, Nanos::ZERO);
        assert_eq!(m.page_append, Nanos::ZERO);
    }
}
