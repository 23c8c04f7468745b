//! A runtime-selectable device: modeled or real, one concrete type.
//!
//! Engines are generic over [`ZonedFlash`], which is resolved at compile
//! time; when the backend is chosen at run time (a CLI flag, a service
//! config) the fleet still needs *one* engine type. [`AnyFlash`] is that
//! type: an enum over the in-repo devices that delegates every trait
//! method, so `Nemo<AnyFlash>` (and every baseline) can run on either
//! backend without boxing.

use crate::error::FlashError;
use crate::faults::FaultyFlash;
use crate::geometry::{Geometry, PageAddr, ZoneId};
use crate::real::RealFlash;
use crate::stats::DeviceStats;
use crate::time::Nanos;
use crate::zoned::{ReadBatch, ReadCompletion, SimFlash, ZoneState, ZonedFlash};

/// Either of the in-repo zoned devices, behind one concrete type.
///
/// # Examples
///
/// ```
/// use nemo_flash::{AnyFlash, Geometry, Nanos, SimFlash, ZoneId, ZonedFlash};
///
/// let mut dev = AnyFlash::from(SimFlash::new(Geometry::new(512, 4, 2, 2)));
/// dev.append(ZoneId(0), &[7u8; 512], Nanos::ZERO)?;
/// assert_eq!(dev.write_pointer(ZoneId(0)), 1);
/// # Ok::<(), nemo_flash::FlashError>(())
/// ```
#[derive(Debug)]
pub enum AnyFlash {
    /// The simulator (in-memory or file-backed), modeled completion times.
    Sim(SimFlash),
    /// The real-I/O device, measured completion times.
    Real(RealFlash),
    /// Either device behind a deterministic fault injector (boxed: the
    /// wrapper carries plan state the fault-free variants shouldn't pay
    /// for).
    Faulty(Box<FaultyFlash<AnyFlash>>),
}

impl From<SimFlash> for AnyFlash {
    fn from(dev: SimFlash) -> Self {
        AnyFlash::Sim(dev)
    }
}

impl From<RealFlash> for AnyFlash {
    fn from(dev: RealFlash) -> Self {
        AnyFlash::Real(dev)
    }
}

impl From<FaultyFlash<AnyFlash>> for AnyFlash {
    fn from(dev: FaultyFlash<AnyFlash>) -> Self {
        AnyFlash::Faulty(Box::new(dev))
    }
}

macro_rules! delegate {
    ($self:ident, $dev:ident => $e:expr) => {
        match $self {
            AnyFlash::Sim($dev) => $e,
            AnyFlash::Real($dev) => $e,
            AnyFlash::Faulty($dev) => $e,
        }
    };
}

impl ZonedFlash for AnyFlash {
    fn geometry(&self) -> Geometry {
        delegate!(self, dev => dev.geometry())
    }

    fn zone_state(&self, zone: ZoneId) -> ZoneState {
        delegate!(self, dev => dev.zone_state(zone))
    }

    fn write_pointer(&self, zone: ZoneId) -> u32 {
        delegate!(self, dev => dev.write_pointer(zone))
    }

    fn append(
        &mut self,
        zone: ZoneId,
        data: &[u8],
        now: Nanos,
    ) -> Result<(PageAddr, Nanos), FlashError> {
        delegate!(self, dev => dev.append(zone, data, now))
    }

    fn read_pages_into(
        &mut self,
        addr: PageAddr,
        pages: u32,
        out: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        delegate!(self, dev => dev.read_pages_into(addr, pages, out, now))
    }

    fn read_page_with(
        &mut self,
        addr: PageAddr,
        now: Nanos,
        page: &mut dyn FnMut(&[u8]),
    ) -> Result<Nanos, FlashError> {
        delegate!(self, dev => dev.read_page_with(addr, now, page))
    }

    fn submit_read_batch(
        &mut self,
        batch: &mut ReadBatch,
        addrs: &[PageAddr],
        out: &mut [u8],
        now: Nanos,
        queue_depth: usize,
    ) -> Result<(), FlashError> {
        delegate!(self, dev => dev.submit_read_batch(batch, addrs, out, now, queue_depth))
    }

    fn poll_completions(
        &mut self,
        batch: &mut ReadBatch,
        completions: &mut Vec<ReadCompletion>,
    ) -> Result<bool, FlashError> {
        delegate!(self, dev => dev.poll_completions(batch, completions))
    }

    fn finish_zone(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        delegate!(self, dev => dev.finish_zone(zone))
    }

    fn reset_zone(&mut self, zone: ZoneId, now: Nanos) -> Result<Nanos, FlashError> {
        delegate!(self, dev => dev.reset_zone(zone, now))
    }

    fn stats(&self) -> DeviceStats {
        delegate!(self, dev => dev.stats())
    }

    fn generation(&self) -> u64 {
        delegate!(self, dev => dev.generation())
    }

    fn reset_count(&self, zone: ZoneId) -> u64 {
        delegate!(self, dev => dev.reset_count(zone))
    }

    fn suspect_zones(&self) -> &[ZoneId] {
        delegate!(self, dev => dev.suspect_zones())
    }

    fn tear_zone_record(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        delegate!(self, dev => dev.tear_zone_record(zone))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dies::LatencyModel;
    use crate::real::RealFlashOptions;

    #[test]
    fn sim_and_real_variants_agree_on_contents() {
        let geom = Geometry::new(512, 4, 2, 2);
        let path = std::env::temp_dir().join("nemo_anyflash_test.img");
        let mut devs = [
            AnyFlash::from(SimFlash::with_latency(geom, LatencyModel::zero())),
            AnyFlash::from(RealFlash::create(geom, &path, RealFlashOptions::default()).unwrap()),
        ];
        let page: Vec<u8> = (0..512u32).map(|i| (i * 3 % 256) as u8).collect();
        for dev in &mut devs {
            let (addr, _) = dev.append(ZoneId(1), &page, Nanos::ZERO).unwrap();
            let (back, _) = dev.read_pages(addr, 1, Nanos::ZERO).unwrap();
            assert_eq!(back, page);
            assert_eq!(dev.stats().pages_written, 1);
        }
        std::fs::remove_file(&path).ok();
    }
}
