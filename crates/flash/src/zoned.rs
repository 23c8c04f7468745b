//! The zoned (ZNS-style) flash device interface and its simulator.

use crate::dies::{DieTimeline, LatencyModel};
use crate::error::FlashError;
use crate::geometry::{Geometry, PageAddr, ZoneId};
use crate::stats::DeviceStats;
use crate::superblock::{self, ZoneRecord};
use crate::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::{File, OpenOptions};
use std::path::Path;

/// Host-visible state of a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneState {
    /// Never written since the last reset.
    Empty,
    /// Partially written; the write pointer is inside the zone.
    Open,
    /// Fully written (or explicitly finished); must be reset before reuse.
    Full,
}

/// One completed page read harvested from a [`ReadBatch`].
///
/// `index` identifies the page within the submitted address list (its
/// data sits at `out[index * page_size..]` in the buffer passed to
/// [`ZonedFlash::submit_read_batch`]); `done` is the page's completion
/// time — modeled on the simulators, measured on [`crate::RealFlash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCompletion {
    /// Position of the page in the submitted `addrs` slice.
    pub index: u32,
    /// Completion time of this page (never earlier than the submit
    /// `now`).
    pub done: Nanos,
}

/// Caller-owned state of one asynchronous scattered-read batch.
///
/// Reusable across submissions: [`ZonedFlash::submit_read_batch`] resets
/// it, [`ZonedFlash::poll_completions`] drains it. Keeping the state on
/// the caller's side (instead of inside the device) lets hot paths reuse
/// one batch and one completion vector with zero per-get allocation,
/// mirroring how the engine reuses its wave buffer.
#[derive(Debug, Default)]
pub struct ReadBatch {
    /// Completions in delivery order (sorted by completion time, then
    /// submission index), filled by the device during submission.
    ready: Vec<ReadCompletion>,
    /// How many of `ready` have been handed out by poll.
    delivered: usize,
    /// Pages in the submitted batch.
    total: usize,
    /// Completion times of the reads in flight while the modeled
    /// schedule is being laid out (the queue-depth limiter's min-heap);
    /// lives here so resubmitting allocates nothing.
    outstanding: BinaryHeap<Reverse<Nanos>>,
}

impl ReadBatch {
    /// Creates an empty, reusable batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages in the last submitted batch.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the last submitted batch was empty (or none was).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Clears the batch for a fresh submission of `total` pages.
    pub(crate) fn reset(&mut self, total: usize) {
        self.ready.clear();
        self.delivered = 0;
        self.total = total;
        self.outstanding.clear();
    }

    /// Records one page's completion during submission.
    pub(crate) fn record(&mut self, index: u32, done: Nanos) {
        self.ready.push(ReadCompletion { index, done });
    }

    /// Orders recorded completions by (time, index) — delivery order.
    pub(crate) fn seal(&mut self) {
        self.ready.sort_unstable_by_key(|c| (c.done, c.index));
    }

    /// Appends all not-yet-delivered completions to `completions`;
    /// returns whether the batch is exhausted.
    pub(crate) fn drain_ready(&mut self, completions: &mut Vec<ReadCompletion>) -> bool {
        completions.extend_from_slice(&self.ready[self.delivered..]);
        self.delivered = self.ready.len();
        self.delivered == self.total
    }

    /// Folds the async-path counters for this sealed batch into `stats`:
    /// pages completed, summed submit-to-completion latency, and the
    /// in-flight high-water mark (`min(queue_depth, batch len)` — both
    /// the modeled schedule and the thread-pool gather keep at most that
    /// many pages in flight).
    pub(crate) fn note_async(&self, stats: &mut DeviceStats, now: Nanos, queue_depth: usize) {
        stats.async_reads += self.total as u64;
        for c in &self.ready {
            stats.submit_lat_total += c.done.saturating_sub(now);
        }
        stats.inflight_hwm = stats
            .inflight_hwm
            .max(queue_depth.max(1).min(self.total) as u64);
    }
}

/// The host-facing interface of a zoned flash device.
///
/// Two implementations ship in this crate: [`SimFlash`] (the simulator,
/// whose completion times come from a per-die latency *model*) and
/// [`crate::RealFlash`] (real file/block-device I/O, whose completion
/// times are *measured* against a [`crate::Clock`]). Engines are generic
/// over this trait, so the same cache logic runs on either — the
/// `device_validation` experiment in `nemo-bench` exploits exactly that
/// to compare modeled and measured latency on identical traces.
///
/// Every operation takes the caller's timestamp `now` and returns the
/// operation's completion time: `now` plus the modeled (or measured)
/// duration, never earlier than `now`.
pub trait ZonedFlash {
    /// Device geometry.
    fn geometry(&self) -> Geometry;
    /// Current state of a zone.
    fn zone_state(&self, zone: ZoneId) -> ZoneState;
    /// Write pointer (next page offset) of a zone.
    fn write_pointer(&self, zone: ZoneId) -> u32;
    /// Monotonic device generation: increments on every mutating
    /// operation (append, finish, reset) and, on file-backed devices,
    /// persists in the superblock so a restart can tell whether the
    /// device changed since a given point — engine checkpoints stamp the
    /// generation they saw and compare it on recovery. Devices without
    /// persistent state keep the default 0.
    fn generation(&self) -> u64 {
        0
    }
    /// Times `zone` has been reset (wear indicator); file-backed devices
    /// persist it, and recovery uses it to detect zone reuse behind a
    /// stale checkpoint. Devices without the counter report 0.
    fn reset_count(&self, zone: ZoneId) -> u64 {
        let _ = zone;
        0
    }
    /// Zones whose persisted metadata record was torn when the device was
    /// reopened. Their restored write pointer is a conservative upper
    /// bound (the whole zone, marked finished), so recovery must rescan
    /// their contents before trusting any index entry over them. Empty
    /// except immediately after a reopen that found torn records.
    fn suspect_zones(&self) -> &[ZoneId] {
        &[]
    }
    /// Fault-injection hook: corrupts `zone`'s *persisted* metadata
    /// record in place (leaving live in-memory state untouched), the
    /// exact damage a crash in the middle of an in-place record rewrite
    /// leaves behind. The next reopen fails the record's CRC and reports
    /// the zone through [`Self::suspect_zones`]. Used by
    /// [`crate::FaultyFlash`] and crash tests; never called on the
    /// production path.
    ///
    /// # Errors
    ///
    /// The default (and any backend without persistent zone records)
    /// returns a permanent [`FlashError::Io`].
    fn tear_zone_record(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        let _ = zone;
        Err(FlashError::io_permanent(
            "this backend has no persistent zone records to tear",
        ))
    }
    /// Appends page-aligned data at a zone's write pointer.
    ///
    /// Returns the address of the first page written and the completion
    /// time.
    ///
    /// # Errors
    ///
    /// Fails if the zone does not exist, is full, would overflow, or the
    /// data length is not a positive multiple of the page size.
    fn append(
        &mut self,
        zone: ZoneId,
        data: &[u8],
        now: Nanos,
    ) -> Result<(PageAddr, Nanos), FlashError>;
    /// Reads `pages` consecutive pages starting at `addr` into `out`,
    /// which must be exactly `pages * page_size` bytes — the one
    /// blocking read: log-segment and recovery scans call it with
    /// multi-page extents, and [`Self::submit_read_batch`] is defined
    /// page by page in terms of it.
    ///
    /// # Errors
    ///
    /// Fails if the range leaves the zone, crosses the write pointer, or
    /// `out` has the wrong length.
    fn read_pages_into(
        &mut self,
        addr: PageAddr,
        pages: u32,
        out: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, FlashError>;
    /// Reads the one page at `addr` and lends its bytes to `page`, which
    /// is called exactly once, before an `Ok` return, and never on an
    /// error: the get path's read, which looks a key up where the page
    /// lies instead of copying it out. Outcomes, completion time and
    /// [`DeviceStats`] are those of a one-page [`Self::read_pages_into`];
    /// only the copy is gone. Every device lends memory it already holds
    /// (zone memory, a reused buffer), so a read allocates nothing.
    ///
    /// # Errors
    ///
    /// Fails if `addr` leaves the device or is at or past its zone's
    /// write pointer.
    fn read_page_with(
        &mut self,
        addr: PageAddr,
        now: Nanos,
        page: &mut dyn FnMut(&[u8]),
    ) -> Result<Nanos, FlashError>;
    /// [`Self::read_pages_into`] into a fresh buffer — an allocating
    /// convenience for tests and cold paths; no device overrides it.
    ///
    /// # Errors
    ///
    /// Fails if the range leaves the zone or crosses the write pointer.
    fn read_pages(
        &mut self,
        addr: PageAddr,
        pages: u32,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos), FlashError> {
        let psz = self.geometry().page_size() as usize;
        let mut out = vec![0u8; pages as usize * psz];
        let done = self.read_pages_into(addr, pages, &mut out, now)?;
        Ok((out, done))
    }
    /// Submits a scattered single-page read batch for completion-based
    /// harvesting — the one scattered read, behind Nemo's eviction
    /// scans. Page `i` of `addrs` lands at `out[i * page_size..]`; `out`
    /// must be exactly `addrs.len() * page_size` bytes. At most `queue_depth` pages are
    /// in flight at once (`0` is treated as `1`): the default
    /// implementation models an open submission queue over the die
    /// timeline — each page issues at `now` while the queue has room,
    /// otherwise at the earliest outstanding completion — and
    /// [`crate::RealFlash`] overrides it to genuinely overlap `pread`s
    /// on a bounded thread pool. With `queue_depth >= addrs.len()` the
    /// modeled schedule issues every page at `now`, so the batch
    /// completes at the maximum over its pages (same-die pages still
    /// serialize); at depth 1 it chains them.
    ///
    /// Both in-repo implementations complete all I/O before returning
    /// (the modeled schedule is known at submit time; the thread pool
    /// joins its workers), so [`Self::poll_completions`] drains the
    /// whole batch on its first call. A kernel-ring backend would return
    /// earlier and deliver completions incrementally; callers must not
    /// assume either behaviour — loop on poll until it reports
    /// exhaustion, and treat `out` as undefined until then.
    ///
    /// # Errors
    ///
    /// Fails if `out` has the wrong length or any address is invalid,
    /// with the semantics of a per-page [`Self::read_pages_into`] loop:
    /// pages preceding the first invalid address may already have been
    /// read (and counted in [`DeviceStats`]); the batch is left unusable
    /// and must be re-submitted.
    fn submit_read_batch(
        &mut self,
        batch: &mut ReadBatch,
        addrs: &[PageAddr],
        out: &mut [u8],
        now: Nanos,
        queue_depth: usize,
    ) -> Result<(), FlashError> {
        modeled_submit(self, batch, addrs, out, now, queue_depth)
    }

    /// Harvests completions from a batch submitted with
    /// [`Self::submit_read_batch`]: appends every newly completed page
    /// to `completions` (ordered by completion time, then submission
    /// index) and returns `true` once the whole batch has been
    /// delivered. Polling an empty or never-submitted batch reports
    /// exhaustion immediately.
    ///
    /// # Errors
    ///
    /// The in-repo devices never fail here (submission already
    /// surfaced any error); the `Result` is part of the contract so a
    /// kernel-ring backend can report asynchronous I/O failures.
    fn poll_completions(
        &mut self,
        batch: &mut ReadBatch,
        completions: &mut Vec<ReadCompletion>,
    ) -> Result<bool, FlashError> {
        Ok(batch.drain_ready(completions))
    }

    /// Explicitly transitions a zone to `Full` (ZNS "finish zone").
    ///
    /// The default validates the zone and does nothing else; devices that
    /// track zone state (both in-repo devices do) override it.
    ///
    /// # Errors
    ///
    /// Fails if the zone does not exist.
    fn finish_zone(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        if zone.0 >= self.geometry().zone_count() {
            return Err(FlashError::BadZone(zone));
        }
        Ok(())
    }
    /// Resets (erases) a zone, returning the completion time.
    ///
    /// # Errors
    ///
    /// Fails if the zone does not exist.
    fn reset_zone(&mut self, zone: ZoneId, now: Nanos) -> Result<Nanos, FlashError>;
    /// Cumulative I/O statistics.
    fn stats(&self) -> DeviceStats;
}

/// Queue-depth-bounded submission over a device's own
/// `read_pages_into`: the shared engine behind the trait's default
/// [`ZonedFlash::submit_read_batch`]. Pages issue in index order; page
/// `i` issues at `now` while fewer than `queue_depth` reads are
/// outstanding, otherwise at the earliest outstanding completion (an
/// open submission queue that refills as slots free up). Going through
/// `read_pages_into` per page gives every backend the op counts and
/// error semantics of a per-page loop.
pub(crate) fn modeled_submit<D: ZonedFlash + ?Sized>(
    dev: &mut D,
    batch: &mut ReadBatch,
    addrs: &[PageAddr],
    out: &mut [u8],
    now: Nanos,
    queue_depth: usize,
) -> Result<(), FlashError> {
    let psz = dev.geometry().page_size() as usize;
    if out.len() != addrs.len() * psz {
        return Err(FlashError::UnalignedLength {
            len: out.len(),
            page_size: dev.geometry().page_size(),
        });
    }
    batch.reset(addrs.len());
    let qd = queue_depth.max(1);
    for (i, (chunk, &addr)) in out.chunks_exact_mut(psz).zip(addrs).enumerate() {
        let issue = if batch.outstanding.len() < qd {
            now
        } else {
            let Reverse(freed) = batch.outstanding.pop().expect("queue depth is at least 1");
            now.max(freed)
        };
        let done = dev.read_pages_into(addr, 1, chunk, issue)?;
        batch.outstanding.push(Reverse(done));
        batch.record(i as u32, done);
    }
    batch.seal();
    Ok(())
}

/// Zone state shared by every backend ([`ZoneRecord`] doubles as the
/// on-disk record), mapped to the host-visible [`ZoneState`].
pub(crate) fn state_of(geom: &Geometry, rec: &ZoneRecord) -> ZoneState {
    if rec.finished || rec.write_ptr == geom.pages_per_zone() {
        ZoneState::Full
    } else if rec.write_ptr == 0 {
        ZoneState::Empty
    } else {
        ZoneState::Open
    }
}

/// ZNS append validation shared by every backend: zone bounds, alignment,
/// writability and overflow. Returns the page count of `data`.
pub(crate) fn validate_append(
    geom: &Geometry,
    zone: ZoneId,
    rec: &ZoneRecord,
    data_len: usize,
) -> Result<u32, FlashError> {
    if zone.0 >= geom.zone_count() {
        return Err(FlashError::BadZone(zone));
    }
    let psz = geom.page_size() as usize;
    if data_len == 0 || data_len % psz != 0 {
        return Err(FlashError::UnalignedLength {
            len: data_len,
            page_size: geom.page_size(),
        });
    }
    let pages = (data_len / psz) as u32;
    let ppz = geom.pages_per_zone();
    if rec.finished || rec.write_ptr == ppz {
        return Err(FlashError::ZoneNotWritable(zone));
    }
    if rec.write_ptr + pages > ppz {
        return Err(FlashError::ZoneOverflow {
            zone,
            remaining: ppz - rec.write_ptr,
            requested: pages,
        });
    }
    Ok(pages)
}

/// ZNS read validation shared by every backend: device bounds, zone
/// bounds, the write pointer, and the output-buffer length.
pub(crate) fn validate_read(
    geom: &Geometry,
    addr: PageAddr,
    pages: u32,
    write_ptr: u32,
    out_len: usize,
) -> Result<(), FlashError> {
    if !geom.contains(addr) || pages == 0 {
        return Err(FlashError::BadAddress(addr));
    }
    if addr.page + pages > geom.pages_per_zone() {
        return Err(FlashError::BadAddress(PageAddr::new(
            addr.zone,
            addr.page + pages - 1,
        )));
    }
    if addr.page + pages > write_ptr {
        return Err(FlashError::ReadBeyondWritePointer {
            addr,
            write_pointer: write_ptr,
        });
    }
    if out_len != pages as usize * geom.page_size() as usize {
        return Err(FlashError::UnalignedLength {
            len: out_len,
            page_size: geom.page_size(),
        });
    }
    Ok(())
}

#[derive(Debug)]
enum Backend {
    /// Page data in memory; zone buffers allocated on first write and
    /// kept across resets (a read never reaches past the write pointer,
    /// so the old pages are unreachable until overwritten).
    Mem { zones: Vec<Option<Box<[u8]>>> },
    /// Page data in a sparse backing file behind a persistent superblock
    /// (exercises a real I/O path; zone map survives reopen).
    File { file: File, data_offset: u64 },
}

/// In-memory (or file-backed) zoned flash device.
///
/// Enforces ZNS semantics: appends advance a per-zone write pointer, full
/// zones reject writes until reset, reads past the write pointer fail.
/// Every page operation is scheduled on the die that owns the page
/// ([`Geometry::die_of`]); concurrent pages on distinct dies overlap while
/// pages on one die serialize, which is how background flushes and GC
/// inflate foreground read tail latency (paper Fig. 15).
///
/// # Examples
///
/// ```
/// use nemo_flash::{Geometry, Nanos, SimFlash, ZoneId, ZoneState, ZonedFlash};
///
/// let mut dev = SimFlash::new(Geometry::new(4096, 4, 2, 2));
/// let buf = vec![7u8; 4096 * 4];
/// dev.append(ZoneId(0), &buf, Nanos::ZERO)?;
/// assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Full);
/// dev.reset_zone(ZoneId(0), Nanos::ZERO)?;
/// assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Empty);
/// # Ok::<(), nemo_flash::FlashError>(())
/// ```
#[derive(Debug)]
pub struct SimFlash {
    geom: Geometry,
    lat: LatencyModel,
    dies: DieTimeline,
    zones: Vec<ZoneRecord>,
    backend: Backend,
    stats: DeviceStats,
    /// Mutation counter; persisted in the superblock on file backends.
    generation: u64,
    /// Zones whose superblock record was torn at reopen; see
    /// [`ZonedFlash::suspect_zones`].
    suspect: Vec<ZoneId>,
    /// The page [`ZonedFlash::read_page_with`] lends on the file backend
    /// (and, all zeros, for a zone never written in memory).
    page_buf: Box<[u8]>,
}

impl SimFlash {
    /// Creates an in-memory device with the default latency model.
    pub fn new(geom: Geometry) -> Self {
        Self::with_latency(geom, LatencyModel::default())
    }

    /// Creates an in-memory device with a custom latency model.
    pub fn with_latency(geom: Geometry, lat: LatencyModel) -> Self {
        let zones = vec![ZoneRecord::default(); geom.zone_count() as usize];
        let mem = (0..geom.zone_count()).map(|_| None).collect();
        Self {
            geom,
            lat,
            dies: DieTimeline::new(geom.dies()),
            zones,
            backend: Backend::Mem { zones: mem },
            stats: DeviceStats::default(),
            generation: 0,
            suspect: Vec::new(),
            page_buf: vec![0; geom.page_size() as usize].into_boxed_slice(),
        }
    }

    /// Creates a device whose page data lives in a file at `path` behind
    /// a persistent superblock (any existing file is truncated).
    ///
    /// The file starts with a superblock + zone map that is updated on
    /// every zone-state change, so the device can be reopened with
    /// [`Self::open_file_backed`] and resume exactly where it left off.
    /// Only page payloads and zone metadata hit the file; die timing
    /// stays modeled. Useful to run experiments larger than RAM and to
    /// exercise a real I/O path.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created or sized.
    pub fn file_backed(geom: Geometry, lat: LatencyModel, path: &Path) -> Result<Self, FlashError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(superblock::file_len(&geom))?;
        let zones = vec![ZoneRecord::default(); geom.zone_count() as usize];
        superblock::write_full(&file, &geom, &zones, 0)?;
        Ok(Self {
            geom,
            lat,
            dies: DieTimeline::new(geom.dies()),
            zones,
            backend: Backend::File {
                file,
                data_offset: superblock::data_offset(&geom),
            },
            stats: DeviceStats::default(),
            generation: 0,
            suspect: Vec::new(),
            page_buf: vec![0; geom.page_size() as usize].into_boxed_slice(),
        })
    }

    /// Reopens a file-backed device created by [`Self::file_backed`],
    /// restoring the zone states, write pointers, reset counts and the
    /// device generation from the superblock. `geom` is the geometry the
    /// caller's configuration expects; a CRC-valid superblock that
    /// records a different geometry is rejected, while a *torn* header
    /// (bad CRC) falls back to `geom` with generation 0 so recovery
    /// treats any engine checkpoint as stale. Cumulative [`DeviceStats`]
    /// and the die timeline restart from zero (they describe a *run*,
    /// not the medium).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::GeometryMismatch`] if the recorded geometry
    /// disagrees with `geom`, or [`FlashError::BadSuperblock`] if the
    /// file cannot be opened or is not a device image.
    pub fn open_file_backed(
        geom: Geometry,
        lat: LatencyModel,
        path: &Path,
    ) -> Result<Self, FlashError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let sb = superblock::read(&file, Some(geom))?;
        if !sb.header_trusted {
            // Torn header: repair it in place (with the conservative zone
            // map just restored) so the next reopen is clean.
            superblock::write_full(&file, &sb.geom, &sb.zones, sb.generation)?;
        }
        Ok(Self {
            geom: sb.geom,
            lat,
            dies: DieTimeline::new(sb.geom.dies()),
            zones: sb.zones,
            backend: Backend::File {
                file,
                data_offset: superblock::data_offset(&sb.geom),
            },
            stats: DeviceStats::default(),
            generation: sb.generation,
            suspect: sb.suspect_zones.iter().copied().map(ZoneId).collect(),
            page_buf: vec![0; sb.geom.page_size() as usize].into_boxed_slice(),
        })
    }

    fn check_zone(&self, zone: ZoneId) -> Result<(), FlashError> {
        if zone.0 >= self.geom.zone_count() {
            return Err(FlashError::BadZone(zone));
        }
        Ok(())
    }

    /// Persists one zone's metadata record and the generation-bearing
    /// header (file backend only).
    fn persist_zone(&self, zone: u32) -> Result<(), FlashError> {
        if let Backend::File { file, .. } = &self.backend {
            superblock::write_zone(file, zone, &self.zones[zone as usize])?;
            superblock::write_header(file, &self.geom, self.generation)?;
        }
        Ok(())
    }

    /// Fsync barrier after a state-changing record write (zone finish or
    /// reset), so the on-disk zone map is never older than data the
    /// barrier makes durable (file backend only).
    fn sync_meta(&mut self) -> Result<(), FlashError> {
        if let Backend::File { file, .. } = &self.backend {
            superblock::sync(file)?;
            self.stats.superblock_syncs += 1;
        }
        Ok(())
    }

    fn store(&mut self, addr: PageAddr, data: &[u8]) -> Result<(), FlashError> {
        let psz = self.geom.page_size() as usize;
        match &mut self.backend {
            Backend::Mem { zones } => {
                let buf = zones[addr.zone as usize].get_or_insert_with(|| {
                    vec![0u8; self.geom.zone_bytes() as usize].into_boxed_slice()
                });
                let off = addr.page as usize * psz;
                buf[off..off + psz].copy_from_slice(data);
            }
            Backend::File { file, data_offset } => {
                use std::os::unix::fs::FileExt;
                let off = *data_offset + self.geom.flat_index(addr) * psz as u64;
                file.write_all_at(data, off)?;
            }
        }
        Ok(())
    }

    fn load(&self, addr: PageAddr, out: &mut [u8]) -> Result<(), FlashError> {
        let psz = self.geom.page_size() as usize;
        match &self.backend {
            Backend::Mem { zones } => match &zones[addr.zone as usize] {
                Some(buf) => {
                    let off = addr.page as usize * psz;
                    out.copy_from_slice(&buf[off..off + psz]);
                }
                None => out.fill(0),
            },
            Backend::File { file, data_offset } => {
                use std::os::unix::fs::FileExt;
                let off = *data_offset + self.geom.flat_index(addr) * psz as u64;
                file.read_exact_at(out, off)?;
            }
        }
        Ok(())
    }
}

impl ZonedFlash for SimFlash {
    fn geometry(&self) -> Geometry {
        self.geom
    }

    fn zone_state(&self, zone: ZoneId) -> ZoneState {
        state_of(&self.geom, &self.zones[zone.0 as usize])
    }

    fn write_pointer(&self, zone: ZoneId) -> u32 {
        self.zones[zone.0 as usize].write_ptr
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn reset_count(&self, zone: ZoneId) -> u64 {
        self.zones[zone.0 as usize].resets
    }

    fn suspect_zones(&self) -> &[ZoneId] {
        &self.suspect
    }

    fn tear_zone_record(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        self.check_zone(zone)?;
        match &self.backend {
            Backend::File { file, .. } => {
                superblock::tear_zone(file, zone.0)?;
                Ok(())
            }
            Backend::Mem { .. } => Err(FlashError::io_permanent(
                "in-memory device has no persistent zone records to tear",
            )),
        }
    }

    fn append(
        &mut self,
        zone: ZoneId,
        data: &[u8],
        now: Nanos,
    ) -> Result<(PageAddr, Nanos), FlashError> {
        let rec = self.zones.get(zone.0 as usize).copied().unwrap_or_default();
        let pages = validate_append(&self.geom, zone, &rec, data.len())?;
        let psz = self.geom.page_size() as usize;
        let start_page = rec.write_ptr;
        let mut done = now;
        for i in 0..pages {
            let addr = PageAddr::new(zone.0, start_page + i);
            self.store(addr, &data[i as usize * psz..(i as usize + 1) * psz])?;
            let die = self.geom.die_of(addr);
            let t = self.dies.service(die, now, self.lat.page_append);
            done = done.max(t);
        }
        let z = &mut self.zones[zone.0 as usize];
        z.write_ptr += pages;
        self.generation += 1;
        self.persist_zone(zone.0)?;
        self.stats.pages_written += pages as u64;
        self.stats.bytes_written += data.len() as u64;
        self.stats.append_ops += 1;
        self.stats.busy_time = self.dies.total_busy();
        Ok((PageAddr::new(zone.0, start_page), done))
    }

    fn read_pages_into(
        &mut self,
        addr: PageAddr,
        pages: u32,
        out: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        let wp = self
            .zones
            .get(addr.zone as usize)
            .map_or(0, |z| z.write_ptr);
        validate_read(&self.geom, addr, pages, wp, out.len())?;
        let psz = self.geom.page_size() as usize;
        let mut done = now;
        for i in 0..pages {
            let a = PageAddr::new(addr.zone, addr.page + i);
            self.load(a, &mut out[i as usize * psz..(i as usize + 1) * psz])?;
            let die = self.geom.die_of(a);
            let t = self.dies.service(die, now, self.lat.page_read);
            done = done.max(t);
        }
        self.stats.pages_read += pages as u64;
        self.stats.bytes_read += out.len() as u64;
        self.stats.read_ops += 1;
        self.stats.busy_time = self.dies.total_busy();
        Ok(done)
    }

    fn read_page_with(
        &mut self,
        addr: PageAddr,
        now: Nanos,
        page: &mut dyn FnMut(&[u8]),
    ) -> Result<Nanos, FlashError> {
        let wp = self
            .zones
            .get(addr.zone as usize)
            .map_or(0, |z| z.write_ptr);
        let psz = self.geom.page_size() as usize;
        validate_read(&self.geom, addr, 1, wp, psz)?;
        let bytes: &[u8] = match &self.backend {
            Backend::Mem { zones } => match &zones[addr.zone as usize] {
                Some(buf) => &buf[addr.page as usize * psz..][..psz],
                None => &self.page_buf,
            },
            Backend::File { file, data_offset } => {
                use std::os::unix::fs::FileExt;
                let off = *data_offset + self.geom.flat_index(addr) * psz as u64;
                file.read_exact_at(&mut self.page_buf, off)?;
                &self.page_buf
            }
        };
        let done = self
            .dies
            .service(self.geom.die_of(addr), now, self.lat.page_read);
        self.stats.pages_read += 1;
        self.stats.bytes_read += psz as u64;
        self.stats.read_ops += 1;
        self.stats.busy_time = self.dies.total_busy();
        page(bytes);
        Ok(done)
    }

    fn submit_read_batch(
        &mut self,
        batch: &mut ReadBatch,
        addrs: &[PageAddr],
        out: &mut [u8],
        now: Nanos,
        queue_depth: usize,
    ) -> Result<(), FlashError> {
        modeled_submit(self, batch, addrs, out, now, queue_depth)?;
        batch.note_async(&mut self.stats, now, queue_depth);
        Ok(())
    }

    fn finish_zone(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        self.check_zone(zone)?;
        self.zones[zone.0 as usize].finished = true;
        self.generation += 1;
        self.persist_zone(zone.0)?;
        self.sync_meta()?;
        Ok(())
    }

    fn reset_zone(&mut self, zone: ZoneId, now: Nanos) -> Result<Nanos, FlashError> {
        self.check_zone(zone)?;
        let z = &mut self.zones[zone.0 as usize];
        z.write_ptr = 0;
        z.finished = false;
        z.resets += 1;
        self.generation += 1;
        self.persist_zone(zone.0)?;
        self.sync_meta()?;
        self.stats.zone_resets += 1;
        // An erase occupies the zone's first die; modelling one die keeps
        // resets from unrealistically freezing the whole device.
        let die = self.geom.die_of(PageAddr::new(zone.0, 0));
        let done = self.dies.service(die, now, self.lat.zone_reset);
        self.stats.busy_time = self.dies.total_busy();
        Ok(done)
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SimFlash {
        SimFlash::with_latency(Geometry::new(512, 4, 3, 2), LatencyModel::default())
    }

    /// The reference the submit/poll tests compare against: every page
    /// read on its own at `now`, completion = the maximum.
    fn read_each(
        dev: &mut SimFlash,
        addrs: &[PageAddr],
        out: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, FlashError> {
        let mut done = now;
        for (chunk, &addr) in out.chunks_exact_mut(512).zip(addrs) {
            done = done.max(dev.read_pages_into(addr, 1, chunk, now)?);
        }
        Ok(done)
    }

    #[test]
    fn append_read_roundtrip() {
        let mut dev = small();
        let data: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        let (addr, _) = dev.append(ZoneId(1), &data, Nanos::ZERO).unwrap();
        assert_eq!(addr, PageAddr::new(1, 0));
        let (back, _) = dev.read_pages(addr, 1, Nanos::ZERO).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn multi_page_append_advances_pointer() {
        let mut dev = small();
        let data = vec![9u8; 512 * 3];
        let (addr, _) = dev.append(ZoneId(0), &data, Nanos::ZERO).unwrap();
        assert_eq!(addr.page, 0);
        assert_eq!(dev.write_pointer(ZoneId(0)), 3);
        assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Open);
    }

    #[test]
    fn zone_fills_and_rejects_further_appends() {
        let mut dev = small();
        dev.append(ZoneId(0), &vec![1u8; 512 * 4], Nanos::ZERO)
            .unwrap();
        assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Full);
        let err = dev
            .append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO)
            .unwrap_err();
        assert_eq!(err, FlashError::ZoneNotWritable(ZoneId(0)));
    }

    #[test]
    fn overflow_append_rejected_atomically() {
        let mut dev = small();
        dev.append(ZoneId(0), &vec![1u8; 512 * 3], Nanos::ZERO)
            .unwrap();
        let err = dev
            .append(ZoneId(0), &vec![1u8; 512 * 2], Nanos::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::ZoneOverflow { remaining: 1, .. }));
        // Pointer unchanged.
        assert_eq!(dev.write_pointer(ZoneId(0)), 3);
    }

    #[test]
    fn read_beyond_write_pointer_fails() {
        let mut dev = small();
        dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).unwrap();
        let err = dev
            .read_pages(PageAddr::new(0, 1), 1, Nanos::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::ReadBeyondWritePointer { .. }));
    }

    #[test]
    fn unaligned_append_rejected() {
        let mut dev = small();
        let err = dev.append(ZoneId(0), &[1u8; 100], Nanos::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::UnalignedLength { .. }));
        let err = dev.append(ZoneId(0), &[], Nanos::ZERO).unwrap_err();
        assert!(matches!(err, FlashError::UnalignedLength { .. }));
    }

    #[test]
    fn read_into_wrong_sized_buffer_rejected() {
        let mut dev = small();
        dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).unwrap();
        let mut buf = vec![0u8; 100];
        let err = dev
            .read_pages_into(PageAddr::new(0, 0), 1, &mut buf, Nanos::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::UnalignedLength { .. }));
    }

    #[test]
    fn reset_clears_zone_and_counts() {
        let mut dev = small();
        dev.append(ZoneId(2), &vec![5u8; 512 * 4], Nanos::ZERO)
            .unwrap();
        dev.reset_zone(ZoneId(2), Nanos::ZERO).unwrap();
        assert_eq!(dev.zone_state(ZoneId(2)), ZoneState::Empty);
        assert_eq!(dev.write_pointer(ZoneId(2)), 0);
        assert_eq!(dev.reset_count(ZoneId(2)), 1);
        assert_eq!(dev.stats().zone_resets, 1);
        // Can write again after reset.
        dev.append(ZoneId(2), &vec![6u8; 512], Nanos::ZERO).unwrap();
    }

    #[test]
    fn finish_zone_makes_full() {
        let mut dev = small();
        dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).unwrap();
        dev.finish_zone(ZoneId(0)).unwrap();
        assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Full);
        assert!(dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).is_err());
    }

    #[test]
    fn stats_account_bytes() {
        let mut dev = small();
        dev.append(ZoneId(0), &vec![1u8; 512 * 2], Nanos::ZERO)
            .unwrap();
        dev.read_pages(PageAddr::new(0, 0), 2, Nanos::ZERO).unwrap();
        let s = dev.stats();
        assert_eq!(s.pages_written, 2);
        assert_eq!(s.bytes_written, 1024);
        assert_eq!(s.pages_read, 2);
        assert_eq!(s.bytes_read, 1024);
        assert_eq!(s.append_ops, 1);
        assert_eq!(s.read_ops, 1);
    }

    #[test]
    fn writes_delay_reads_on_same_die() {
        // One die: the read must wait for the append to finish.
        let geom = Geometry::new(512, 4, 1, 1);
        let lat = LatencyModel {
            page_read: Nanos::from_micros(70),
            page_append: Nanos::from_micros(14),
            zone_reset: Nanos::from_millis(2),
        };
        let mut dev = SimFlash::with_latency(geom, lat);
        let (_, wdone) = dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).unwrap();
        assert_eq!(wdone, Nanos::from_micros(14));
        let (_, rdone) = dev.read_pages(PageAddr::new(0, 0), 1, Nanos::ZERO).unwrap();
        assert_eq!(rdone, Nanos::from_micros(84), "read queued behind write");
    }

    #[test]
    fn batch_at_full_depth_matches_per_page_reads() {
        // qd >= batch len: every page issues at `now`, exactly like
        // reading each page on its own — same contents, same modeled
        // times, same op counts.
        let geom = Geometry::new(512, 4, 2, 4);
        let mut sync_dev = SimFlash::with_latency(geom, LatencyModel::default());
        let mut async_dev = SimFlash::with_latency(geom, LatencyModel::default());
        for dev in [&mut sync_dev, &mut async_dev] {
            dev.append(ZoneId(0), &vec![3u8; 512 * 4], Nanos::ZERO)
                .unwrap();
        }
        let addrs = [
            PageAddr::new(0, 0),
            PageAddr::new(0, 1),
            PageAddr::new(0, 2),
        ];
        let now = Nanos::from_millis(1);
        let mut sync_out = vec![0u8; 512 * 3];
        let sync_done = read_each(&mut sync_dev, &addrs, &mut sync_out, now).unwrap();
        // All three pages live on distinct dies -> one read latency total.
        assert_eq!(sync_done, now + Nanos::from_micros(70));

        let mut batch = ReadBatch::new();
        let mut async_out = vec![0u8; 512 * 3];
        async_dev
            .submit_read_batch(&mut batch, &addrs, &mut async_out, now, 16)
            .unwrap();
        let mut comps = Vec::new();
        while !async_dev.poll_completions(&mut batch, &mut comps).unwrap() {}
        assert_eq!(comps.len(), 3);
        assert_eq!(async_out, sync_out);
        let max_done = comps.iter().map(|c| c.done).max().unwrap();
        assert_eq!(max_done, sync_done, "full depth overlaps across dies");
        let (s, a) = (sync_dev.stats(), async_dev.stats());
        assert_eq!((s.pages_read, s.read_ops), (a.pages_read, a.read_ops));
        assert_eq!(a.async_reads, 3);
        assert_eq!(a.inflight_hwm, 3, "hwm clamps to batch length");
        assert!(a.submit_lat_total >= Nanos::from_micros(210));
    }

    #[test]
    fn async_batch_at_depth_one_chains_issue_times() {
        let geom = Geometry::new(512, 4, 2, 4);
        let mut dev = SimFlash::with_latency(geom, LatencyModel::default());
        dev.append(ZoneId(0), &vec![1u8; 512 * 4], Nanos::ZERO)
            .unwrap();
        let addrs = [
            PageAddr::new(0, 0),
            PageAddr::new(0, 1),
            PageAddr::new(0, 2),
        ];
        let mut batch = ReadBatch::new();
        let mut out = vec![0u8; 512 * 3];
        dev.submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, 1)
            .unwrap();
        let mut comps = Vec::new();
        assert!(dev.poll_completions(&mut batch, &mut comps).unwrap());
        // Distinct dies, but a queue of depth 1 serializes submissions:
        // each page issues at the previous completion. (Every die is
        // busy with the append until 14us, so the chain starts there.)
        let (a, r) = (Nanos::from_micros(14), Nanos::from_micros(70));
        assert_eq!(
            comps[0],
            ReadCompletion {
                index: 0,
                done: a + r
            }
        );
        assert_eq!(comps[1].done, a + Nanos(r.0 * 2));
        assert_eq!(comps[2].done, a + Nanos(r.0 * 3));
        assert_eq!(dev.stats().inflight_hwm, 1);
    }

    #[test]
    fn poll_is_incremental_and_idempotent_after_exhaustion() {
        let mut dev = small();
        dev.append(ZoneId(0), &vec![8u8; 512 * 2], Nanos::ZERO)
            .unwrap();
        let addrs = [PageAddr::new(0, 0), PageAddr::new(0, 1)];
        let mut batch = ReadBatch::new();
        let mut out = vec![0u8; 512 * 2];
        dev.submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, 2)
            .unwrap();
        let mut comps = Vec::new();
        assert!(dev.poll_completions(&mut batch, &mut comps).unwrap());
        assert_eq!(comps.len(), 2);
        // Further polls deliver nothing new but stay exhausted.
        assert!(dev.poll_completions(&mut batch, &mut comps).unwrap());
        assert_eq!(comps.len(), 2);
        // A never-submitted batch is trivially exhausted.
        let mut fresh = ReadBatch::new();
        assert!(dev.poll_completions(&mut fresh, &mut comps).unwrap());
        assert!(fresh.is_empty());
    }

    #[test]
    fn submit_error_semantics_match_per_page_reads() {
        // Index 1 is beyond the write pointer: both read (and count)
        // page 0, then fail with the same error kind.
        let mut sync_dev = small();
        let mut async_dev = small();
        for dev in [&mut sync_dev, &mut async_dev] {
            dev.append(ZoneId(0), &vec![2u8; 512], Nanos::ZERO).unwrap();
        }
        let addrs = [PageAddr::new(0, 0), PageAddr::new(0, 3)];
        let mut out = vec![0u8; 512 * 2];
        let sync_err = read_each(&mut sync_dev, &addrs, &mut out, Nanos::ZERO).unwrap_err();
        let mut batch = ReadBatch::new();
        let async_err = async_dev
            .submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, 4)
            .unwrap_err();
        assert!(matches!(
            sync_err,
            FlashError::ReadBeyondWritePointer { .. }
        ));
        assert!(matches!(
            async_err,
            FlashError::ReadBeyondWritePointer { .. }
        ));
        let (s, a) = (sync_dev.stats(), async_dev.stats());
        assert_eq!((s.pages_read, s.read_ops), (a.pages_read, a.read_ops));
        // Wrong-sized buffers are rejected before any I/O.
        let mut short = vec![0u8; 100];
        assert!(matches!(
            async_dev.submit_read_batch(&mut batch, &addrs, &mut short, Nanos::ZERO, 4),
            Err(FlashError::UnalignedLength { .. })
        ));
    }

    #[test]
    fn file_backed_roundtrip() {
        let dir = std::env::temp_dir().join("nemo_flash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.img");
        let geom = Geometry::new(512, 4, 2, 2);
        let mut dev = SimFlash::file_backed(geom, LatencyModel::zero(), &path).unwrap();
        let data: Vec<u8> = (0..512u32).map(|i| (i * 7 % 256) as u8).collect();
        let (addr, _) = dev.append(ZoneId(1), &data, Nanos::ZERO).unwrap();
        let (back, _) = dev.read_pages(addr, 1, Nanos::ZERO).unwrap();
        assert_eq!(back, data);
        drop(dev);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backed_survives_reopen() {
        let dir = std::env::temp_dir().join("nemo_flash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.img");
        let geom = Geometry::new(512, 4, 3, 2);
        let data: Vec<u8> = (0..512u32).map(|i| (i * 13 % 256) as u8).collect();
        {
            let mut dev = SimFlash::file_backed(geom, LatencyModel::zero(), &path).unwrap();
            dev.append(ZoneId(0), &data, Nanos::ZERO).unwrap();
            dev.append(ZoneId(1), &vec![4u8; 512 * 4], Nanos::ZERO)
                .unwrap();
            dev.finish_zone(ZoneId(0)).unwrap();
            dev.reset_zone(ZoneId(2), Nanos::ZERO).unwrap();
        }
        // Reopen: zone states, write pointers, reset counts and page data
        // must all have survived the process "restart".
        let mut dev = SimFlash::open_file_backed(geom, LatencyModel::zero(), &path).unwrap();
        assert_eq!(dev.geometry(), geom);
        assert!(dev.generation() > 0, "generation persists across reopen");
        assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Full, "finished");
        assert_eq!(dev.write_pointer(ZoneId(0)), 1);
        assert_eq!(dev.zone_state(ZoneId(1)), ZoneState::Full, "filled");
        assert_eq!(dev.reset_count(ZoneId(2)), 1);
        let (back, _) = dev.read_pages(PageAddr::new(0, 0), 1, Nanos::ZERO).unwrap();
        assert_eq!(back, data, "page data survives reopen");
        // ZNS semantics persist too: the finished zone rejects appends.
        assert!(dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_of_garbage_file_fails() {
        let dir = std::env::temp_dir().join("nemo_flash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not_a_device.img");
        std::fs::write(&path, b"hello world, definitely not a superblock").unwrap();
        let err =
            SimFlash::open_file_backed(Geometry::new(512, 4, 3, 2), LatencyModel::zero(), &path)
                .unwrap_err();
        assert!(matches!(err, FlashError::BadSuperblock(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_with_wrong_geometry_is_a_descriptive_error() {
        let dir = std::env::temp_dir().join("nemo_flash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong_geom.img");
        let geom = Geometry::new(512, 4, 3, 2);
        drop(SimFlash::file_backed(geom, LatencyModel::zero(), &path).unwrap());
        let other = Geometry::new(512, 8, 3, 2);
        let err = SimFlash::open_file_backed(other, LatencyModel::zero(), &path).unwrap_err();
        assert!(
            matches!(err, FlashError::GeometryMismatch { .. }),
            "want GeometryMismatch, got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_zone_record_surfaces_as_suspect_on_reopen() {
        use std::os::unix::fs::FileExt;
        let dir = std::env::temp_dir().join("nemo_flash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_record.img");
        let geom = Geometry::new(512, 4, 3, 2);
        {
            let mut dev = SimFlash::file_backed(geom, LatencyModel::zero(), &path).unwrap();
            dev.append(ZoneId(1), &vec![7u8; 512 * 2], Nanos::ZERO)
                .unwrap();
        }
        // Flip a byte inside zone 1's metadata record (header is 64 B,
        // records are 20 B each), simulating a torn superblock write.
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut b = [0u8; 1];
        file.read_exact_at(&mut b, 64 + 20 + 2).unwrap();
        file.write_all_at(&[b[0] ^ 0xFF], 64 + 20 + 2).unwrap();
        drop(file);
        let dev = SimFlash::open_file_backed(geom, LatencyModel::zero(), &path).unwrap();
        assert_eq!(dev.suspect_zones(), &[ZoneId(1)]);
        // Conservative restore: the whole zone readable, marked full.
        assert_eq!(dev.write_pointer(ZoneId(1)), geom.pages_per_zone());
        assert_eq!(dev.zone_state(ZoneId(1)), ZoneState::Full);
        // Untouched zones are not suspect.
        assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Empty);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_changing_writes_fsync_the_superblock() {
        // Regression for the unfsynced zone map: finish_zone and
        // reset_zone must barrier the metadata (observable through the
        // superblock_syncs counter), while plain appends stay buffered.
        let dir = std::env::temp_dir().join("nemo_flash_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fsync.img");
        let geom = Geometry::new(512, 4, 3, 2);
        let mut dev = SimFlash::file_backed(geom, LatencyModel::zero(), &path).unwrap();
        dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).unwrap();
        assert_eq!(dev.stats().superblock_syncs, 0, "appends stay buffered");
        dev.finish_zone(ZoneId(0)).unwrap();
        assert_eq!(dev.stats().superblock_syncs, 1, "finish barriers");
        dev.reset_zone(ZoneId(1), Nanos::ZERO).unwrap();
        assert_eq!(dev.stats().superblock_syncs, 2, "reset barriers");
        // The in-memory backend has nothing to sync.
        let mut mem = SimFlash::with_latency(geom, LatencyModel::zero());
        mem.finish_zone(ZoneId(0)).unwrap();
        assert_eq!(mem.stats().superblock_syncs, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generation_counts_mutations_only() {
        let mut dev = small();
        assert_eq!(dev.generation(), 0);
        dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO).unwrap();
        assert_eq!(dev.generation(), 1);
        dev.read_pages(PageAddr::new(0, 0), 1, Nanos::ZERO).unwrap();
        assert_eq!(dev.generation(), 1, "reads do not advance it");
        dev.finish_zone(ZoneId(0)).unwrap();
        dev.reset_zone(ZoneId(0), Nanos::ZERO).unwrap();
        assert_eq!(dev.generation(), 3);
    }

    #[test]
    fn bad_zone_errors() {
        let mut dev = small();
        assert!(dev
            .append(ZoneId(99), &vec![0u8; 512], Nanos::ZERO)
            .is_err());
        assert!(dev.reset_zone(ZoneId(99), Nanos::ZERO).is_err());
        assert!(dev
            .read_pages(PageAddr::new(99, 0), 1, Nanos::ZERO)
            .is_err());
        assert!(dev.finish_zone(ZoneId(99)).is_err());
    }
}
