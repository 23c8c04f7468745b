//! Runtime device-backend selection for shard fleets.
//!
//! Engines are generic over `ZonedFlash`; a service picks the backend at
//! run time (a CLI flag, a deployment config). [`DeviceBackend`] is that
//! switch: it opens one device per shard — modeled in-memory, modeled
//! file-backed, or real-I/O with measured completion times — all behind
//! the single concrete [`AnyFlash`] type, so a whole fleet shares one
//! engine type regardless of backend. Wire it to a config's
//! `factory_on` via [`DeviceBackend::device_factory`]:
//!
//! ```
//! use nemo_core::NemoConfig;
//! use nemo_service::{DeviceBackend, ShardedCacheBuilder};
//! use nemo_flash::Nanos;
//!
//! let backend = DeviceBackend::Modeled; // or ::real(dir) for real I/O
//! let cache = ShardedCacheBuilder::new(2)
//!     .spawn(NemoConfig::small().factory_on(backend.device_factory("doc")));
//! cache.try_put(7, 250, Nanos::ZERO).unwrap();
//! assert!(cache.try_get(7, Nanos::ZERO).unwrap().hit);
//! ```

use nemo_flash::{
    AnyFlash, FlashError, Geometry, LatencyModel, RealFlash, RealFlashOptions, SimFlash,
};
use std::path::PathBuf;

/// Which device every shard of a fleet runs on.
#[derive(Debug, Clone)]
pub enum DeviceBackend {
    /// In-memory [`SimFlash`]: modeled completion times, no files. The
    /// default everywhere.
    Modeled,
    /// File-backed [`SimFlash`] in `dir`: modeled completion times, page
    /// data and zone map persisted per shard.
    ModeledFile {
        /// Directory holding one device image per shard.
        dir: PathBuf,
    },
    /// [`RealFlash`] device files in `dir`: real `pread`/`pwrite` I/O
    /// with *measured* wall-clock completion times.
    Real {
        /// Directory holding one device image per shard.
        dir: PathBuf,
        /// Direct-I/O / fsync tuning.
        options: RealFlashOptions,
    },
}

impl DeviceBackend {
    /// A file-backed modeled backend rooted at `dir`.
    pub fn modeled_file(dir: impl Into<PathBuf>) -> Self {
        DeviceBackend::ModeledFile { dir: dir.into() }
    }

    /// A real-I/O backend rooted at `dir` with default options (buffered
    /// I/O, fsync barriers on zone finish/reset).
    pub fn real(dir: impl Into<PathBuf>) -> Self {
        DeviceBackend::Real {
            dir: dir.into(),
            options: RealFlashOptions::default(),
        }
    }

    /// Short label for experiment output ("modeled", "file", "real").
    pub fn label(&self) -> &'static str {
        match self {
            DeviceBackend::Modeled => "modeled",
            DeviceBackend::ModeledFile { .. } => "file",
            DeviceBackend::Real { .. } => "real",
        }
    }

    /// Whether completion times from this backend are measured wall
    /// clock (as opposed to the simulator's modeled timeline).
    pub fn is_measured(&self) -> bool {
        matches!(self, DeviceBackend::Real { .. })
    }

    /// Path of shard `shard`'s device image for a fleet tagged `tag`, or
    /// `None` for the in-memory [`DeviceBackend::Modeled`] backend, which
    /// persists nothing.
    pub fn image_path(&self, tag: &str, shard: usize) -> Option<PathBuf> {
        let dir = match self {
            DeviceBackend::Modeled => return None,
            DeviceBackend::ModeledFile { dir } | DeviceBackend::Real { dir, .. } => dir,
        };
        Some(dir.join(format!("{tag}-shard{shard}.img")))
    }

    /// Path of the warm-restart checkpoint that rides along shard
    /// `shard`'s image (`<image>.ckpt`), or `None` for the in-memory
    /// backend.
    pub fn checkpoint_path(&self, tag: &str, shard: usize) -> Option<PathBuf> {
        let dir = match self {
            DeviceBackend::Modeled => return None,
            DeviceBackend::ModeledFile { dir } | DeviceBackend::Real { dir, .. } => dir,
        };
        Some(dir.join(format!("{tag}-shard{shard}.img.ckpt")))
    }

    /// Opens shard `shard`'s device for a fleet tagged `tag` (the tag
    /// keeps concurrently running fleets from colliding on image paths).
    /// Backed variants create `dir` and a fresh `"{tag}-shard{N}.img"`
    /// per shard — any prior image is truncated; use
    /// [`DeviceBackend::reopen`] to resume an existing device.
    ///
    /// # Errors
    ///
    /// Fails if the image directory or file cannot be created.
    pub fn open(
        &self,
        tag: &str,
        shard: usize,
        geom: Geometry,
        lat: LatencyModel,
    ) -> Result<AnyFlash, FlashError> {
        match self {
            DeviceBackend::Modeled => Ok(AnyFlash::from(SimFlash::with_latency(geom, lat))),
            DeviceBackend::ModeledFile { dir } => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("{tag}-shard{shard}.img"));
                Ok(AnyFlash::from(SimFlash::file_backed(geom, lat, &path)?))
            }
            DeviceBackend::Real { dir, options } => {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("{tag}-shard{shard}.img"));
                Ok(AnyFlash::from(RealFlash::create(
                    geom,
                    &path,
                    options.clone(),
                )?))
            }
        }
    }

    /// Reopens shard `shard`'s *existing* device image without truncating
    /// it — the restart counterpart of [`DeviceBackend::open`]. The
    /// persisted zone map is read back from the image's superblock;
    /// geometry mismatches and missing/corrupt images are errors.
    ///
    /// # Errors
    ///
    /// Fails for [`DeviceBackend::Modeled`] (nothing persists across a
    /// restart), for a missing image, and for any superblock or geometry
    /// problem [`SimFlash::open_file_backed`] / [`RealFlash::open`]
    /// reports.
    pub fn reopen(
        &self,
        tag: &str,
        shard: usize,
        geom: Geometry,
        lat: LatencyModel,
    ) -> Result<AnyFlash, FlashError> {
        match self {
            DeviceBackend::Modeled => Err(FlashError::io_permanent(
                "the modeled in-memory backend persists nothing to reopen",
            )),
            DeviceBackend::ModeledFile { dir } => {
                let path = dir.join(format!("{tag}-shard{shard}.img"));
                Ok(AnyFlash::from(SimFlash::open_file_backed(
                    geom, lat, &path,
                )?))
            }
            DeviceBackend::Real { dir, options } => {
                let path = dir.join(format!("{tag}-shard{shard}.img"));
                Ok(AnyFlash::from(RealFlash::open(
                    geom,
                    &path,
                    options.clone(),
                )?))
            }
        }
    }

    /// Atomically persists shard `shard`'s warm-restart checkpoint next
    /// to its image: written to a `.tmp` sibling, fsynced, then renamed
    /// over [`DeviceBackend::checkpoint_path`], so a crash mid-write
    /// leaves either the old checkpoint or none — never a torn one (a
    /// torn checkpoint would be caught by its CRC anyway and degrade
    /// recovery to a zone scan).
    ///
    /// # Errors
    ///
    /// Fails for the in-memory backend and on any filesystem error.
    pub fn write_checkpoint(
        &self,
        tag: &str,
        shard: usize,
        bytes: &[u8],
    ) -> Result<(), FlashError> {
        let path = self.checkpoint_path(tag, shard).ok_or_else(|| {
            FlashError::io_permanent("the modeled in-memory backend cannot persist checkpoints")
        })?;
        let tmp = path.with_extension("ckpt.tmp");
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, &path)?;
        if let Some(dir) = path.parent() {
            // Make the rename itself durable.
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Reads shard `shard`'s persisted checkpoint, if any. Absent or
    /// unreadable checkpoints return `None` — recovery treats that as a
    /// cold open rather than a failure.
    pub fn read_checkpoint(&self, tag: &str, shard: usize) -> Option<Vec<u8>> {
        std::fs::read(self.checkpoint_path(tag, shard)?).ok()
    }

    /// A device factory in the shape every config's `factory_on` expects.
    /// Device-creation failures panic — factories run at fleet spawn
    /// time, where an unusable backing directory is unrecoverable.
    pub fn device_factory(
        &self,
        tag: &str,
    ) -> impl FnMut(usize, Geometry, LatencyModel) -> AnyFlash + Send {
        let backend = self.clone();
        let tag = tag.to_string();
        move |shard, geom, lat| {
            backend
                .open(&tag, shard, geom, lat)
                .expect("device backend must open shard devices")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_flash::{Nanos, ZoneId, ZonedFlash};

    fn tmp(sub: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("nemo_service_backend_test")
            .join(sub);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn all_backends_open_and_write() {
        let geom = Geometry::new(512, 4, 2, 2);
        for backend in [
            DeviceBackend::Modeled,
            DeviceBackend::modeled_file(tmp("file")),
            DeviceBackend::real(tmp("real")),
        ] {
            let mut dev = backend
                .open("t", 0, geom, LatencyModel::zero())
                .unwrap_or_else(|e| panic!("{} backend failed: {e}", backend.label()));
            dev.append(ZoneId(0), &[3u8; 512], Nanos::ZERO).unwrap();
            assert_eq!(dev.write_pointer(ZoneId(0)), 1, "{}", backend.label());
        }
    }

    #[test]
    fn reopen_preserves_written_pages() {
        let geom = Geometry::new(512, 4, 2, 2);
        let backend = DeviceBackend::modeled_file(tmp("reopen"));
        let mut dev = backend.open("r", 0, geom, LatencyModel::zero()).unwrap();
        dev.append(ZoneId(1), &[9u8; 512], Nanos::ZERO).unwrap();
        drop(dev);
        let dev = backend.reopen("r", 0, geom, LatencyModel::zero()).unwrap();
        assert_eq!(dev.write_pointer(ZoneId(1)), 1);
        assert!(
            backend.reopen("r", 77, geom, LatencyModel::zero()).is_err(),
            "shard 77 has no image"
        );
        assert!(
            DeviceBackend::Modeled
                .reopen("r", 0, geom, LatencyModel::zero())
                .is_err(),
            "in-memory backend persists nothing"
        );
    }

    #[test]
    fn checkpoint_paths_and_roundtrip() {
        let backend = DeviceBackend::modeled_file(tmp("ckpt"));
        let img = backend.image_path("c", 3).unwrap();
        let ckpt = backend.checkpoint_path("c", 3).unwrap();
        assert!(img.to_str().unwrap().ends_with("c-shard3.img"));
        assert_eq!(ckpt.to_str().unwrap(), format!("{}.ckpt", img.display()));
        assert!(DeviceBackend::Modeled.image_path("c", 0).is_none());
        assert!(DeviceBackend::Modeled.checkpoint_path("c", 0).is_none());

        let _ = std::fs::remove_file(&ckpt); // stale file from a prior run
        assert!(backend.read_checkpoint("c", 3).is_none(), "nothing yet");
        backend.write_checkpoint("c", 3, b"state").unwrap();
        assert_eq!(backend.read_checkpoint("c", 3).unwrap(), b"state");
        backend.write_checkpoint("c", 3, b"newer").unwrap();
        assert_eq!(backend.read_checkpoint("c", 3).unwrap(), b"newer");
        assert!(
            DeviceBackend::Modeled
                .write_checkpoint("c", 0, b"x")
                .is_err(),
            "in-memory backend cannot persist checkpoints"
        );
    }

    #[test]
    fn labels_and_measured_flag() {
        assert_eq!(DeviceBackend::Modeled.label(), "modeled");
        assert!(!DeviceBackend::Modeled.is_measured());
        assert!(DeviceBackend::real("/tmp/x").is_measured());
        assert_eq!(DeviceBackend::modeled_file("/tmp/x").label(), "file");
    }
}
