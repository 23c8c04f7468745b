//! Device access for every engine: the one place that retries transient
//! device errors, backs the retries off in virtual time, and charges
//! device I/O to an [`EngineStats`].
//!
//! [`read`], [`read_page`], [`append`] and [`reset`] are the four
//! [`ZonedFlash`] calls engines make. Each charges `device_retries` for
//! every retry and `flash_bytes_read` / `flash_bytes_written` only when
//! the call returns `Ok`, so every engine's byte counters mean the same
//! thing. [`retry`] is the bare loop, for device work that is not one of
//! those calls (a submit/poll batch, a conventional SSD); its caller
//! charges the bytes.
//! What to do once a call has failed for good (quarantine the zone,
//! degrade the lookup, fail the engine) stays with the caller.

use crate::EngineStats;
use nemo_flash::{FlashError, Nanos, PageAddr, ZoneId, ZonedFlash};

/// Transient device errors are retried this many times before they are
/// treated as permanent.
const RETRY_LIMIT: u32 = 3;

/// Virtual-time exponential backoff for retry attempt `attempt`:
/// attempt 0 issues at `now`, attempt `n` at `now + 50µs · 2^(n-1)`.
fn backoff(now: Nanos, attempt: u32) -> Nanos {
    if attempt == 0 {
        now
    } else {
        now + Nanos::from_micros(50u64 << (attempt - 1))
    }
}

/// Runs `op` through transient device errors with a bounded budget,
/// charging each retry to `stats.device_retries`. `op` is given the
/// virtual time its attempt issues at: `now` first, then backed off.
///
/// # Errors
///
/// Returns the last device error once the budget is exhausted or the
/// error is permanent.
pub fn retry<T>(
    stats: &mut EngineStats,
    now: Nanos,
    mut op: impl FnMut(Nanos) -> Result<T, FlashError>,
) -> Result<T, FlashError> {
    let mut attempt = 0;
    loop {
        match op(backoff(now, attempt)) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < RETRY_LIMIT => {
                attempt += 1;
                stats.device_retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads the `out.len() / page_size` pages starting at `addr` into `out`
/// ([`ZonedFlash::read_pages_into`]), retried, and charges `out.len()`
/// to `stats.flash_bytes_read` once it succeeds.
///
/// # Errors
///
/// The device error that survived the retries.
pub fn read<D: ZonedFlash + ?Sized>(
    dev: &mut D,
    stats: &mut EngineStats,
    addr: PageAddr,
    out: &mut [u8],
    now: Nanos,
) -> Result<Nanos, FlashError> {
    let pages = (out.len() / dev.geometry().page_size() as usize) as u32;
    let done = retry(stats, now, |issue| {
        dev.read_pages_into(addr, pages, out, issue)
    })?;
    stats.flash_bytes_read += out.len() as u64;
    Ok(done)
}

/// Reads the page at `addr` and lends it to `page`
/// ([`ZonedFlash::read_page_with`]), retried, and charges one page to
/// `stats.flash_bytes_read` once it succeeds. `page` runs once, on the
/// attempt that succeeds.
///
/// # Errors
///
/// The device error that survived the retries.
pub fn read_page<D: ZonedFlash + ?Sized>(
    dev: &mut D,
    stats: &mut EngineStats,
    addr: PageAddr,
    now: Nanos,
    mut page: impl FnMut(&[u8]),
) -> Result<Nanos, FlashError> {
    let done = retry(stats, now, |issue| {
        dev.read_page_with(addr, issue, &mut page)
    })?;
    stats.flash_bytes_read += u64::from(dev.geometry().page_size());
    Ok(done)
}

/// Appends `data` to `zone` ([`ZonedFlash::append`]), retried, and
/// charges `data.len()` to `stats.flash_bytes_written` once it succeeds.
///
/// # Errors
///
/// The device error that survived the retries.
pub fn append<D: ZonedFlash + ?Sized>(
    dev: &mut D,
    stats: &mut EngineStats,
    zone: ZoneId,
    data: &[u8],
    now: Nanos,
) -> Result<(PageAddr, Nanos), FlashError> {
    let written = retry(stats, now, |issue| dev.append(zone, data, issue))?;
    stats.flash_bytes_written += data.len() as u64;
    Ok(written)
}

/// Resets `zone` ([`ZonedFlash::reset_zone`]), retried.
///
/// # Errors
///
/// The device error that survived the retries.
pub fn reset<D: ZonedFlash + ?Sized>(
    dev: &mut D,
    stats: &mut EngineStats,
    zone: ZoneId,
    now: Nanos,
) -> Result<Nanos, FlashError> {
    retry(stats, now, |issue| dev.reset_zone(zone, issue))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_flash::{FaultKind, FaultOp, FaultPlan, FaultRule, FaultyFlash, Geometry, SimFlash};

    #[test]
    fn retries_transient_then_succeeds() {
        let mut stats = EngineStats::default();
        let mut fails = 2;
        let out = retry(&mut stats, Nanos::ZERO, |_| {
            if fails > 0 {
                fails -= 1;
                Err(FlashError::io_transient("blip"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(stats.device_retries, 2);
    }

    #[test]
    fn permanent_errors_abort_immediately() {
        let mut stats = EngineStats::default();
        let mut calls = 0;
        let out: Result<(), _> = retry(&mut stats, Nanos::ZERO, |_| {
            calls += 1;
            Err(FlashError::io_permanent("dead"))
        });
        assert!(out.is_err());
        assert_eq!((calls, stats.device_retries), (1, 0));
    }

    #[test]
    fn budget_bounds_transient_retries() {
        let mut stats = EngineStats::default();
        let out: Result<(), _> = retry(&mut stats, Nanos::ZERO, |_| {
            Err(FlashError::io_transient("flaky"))
        });
        assert!(out.is_err());
        assert_eq!(stats.device_retries, RETRY_LIMIT as u64);
    }

    #[test]
    fn backoff_is_monotonic() {
        let t = Nanos::from_micros(10);
        let mut issued = Vec::new();
        let _: Result<(), _> = retry(&mut EngineStats::default(), t, |issue| {
            issued.push(issue);
            Err(FlashError::io_transient("flaky"))
        });
        assert_eq!(issued[0], t);
        assert!(issued.windows(2).all(|w| w[1] > w[0]), "{issued:?}");
    }

    #[test]
    fn bytes_are_charged_only_when_the_call_succeeds() {
        let mut dev = SimFlash::new(Geometry::new(512, 4, 4, 2));
        let mut stats = EngineStats::default();
        let (addr, _) = append(&mut dev, &mut stats, ZoneId(1), &[7; 1024], Nanos::ZERO).unwrap();
        let mut out = [0u8; 1024];
        read(&mut dev, &mut stats, addr, &mut out, Nanos::ZERO).unwrap();
        assert_eq!(out, [7; 1024]);
        assert_eq!(
            (stats.flash_bytes_read, stats.flash_bytes_written),
            (1024, 1024)
        );

        let plan =
            FaultPlan::new(1).rule(FaultRule::every(FaultOp::Read, FaultKind::TransientError));
        let mut dev = FaultyFlash::new(dev, plan);
        assert!(read(&mut dev, &mut stats, addr, &mut out, Nanos::ZERO).is_err());
        reset(&mut dev, &mut stats, ZoneId(1), Nanos::ZERO).unwrap();
        assert_eq!(
            (stats.flash_bytes_read, stats.flash_bytes_written),
            (1024, 1024)
        );
        assert_eq!(stats.device_retries, RETRY_LIMIT as u64);
        assert_eq!(dev.stats().bytes_read, 1024);
    }
}
