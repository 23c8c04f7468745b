//! A real-I/O zoned device: `pread`/`pwrite` against a preallocated file
//! (or raw block device) with software-enforced zone semantics and
//! *measured* wall-clock completion times.
//!
//! Where [`crate::SimFlash`] answers "what would this workload cost on
//! the modeled device", [`RealFlash`] answers "what does it cost on this
//! machine": every `append`/`read_pages` issues the actual syscall and
//! reports `now + elapsed` under the device's [`Clock`]. Zone semantics
//! (append-only write pointers, reset-before-reuse, finish) are enforced
//! in software, exactly as a host ZNS driver would over a conventional
//! namespace, and the zone map persists in the same superblock format as
//! file-backed [`crate::SimFlash`] so devices survive process restarts.
//!
//! Durability barriers: `finish_zone` and `reset_zone` issue an fsync
//! (unless [`RealFlashOptions::sync_on_barrier`] is off), mirroring how a
//! zoned translation layer orders zone-state transitions against data
//! writes. Plain appends stay in the page cache — that is the honest
//! behaviour of buffered I/O, and precisely the device-level effect
//! (write buffering, syscall overhead, fsync stalls) the modeled timeline
//! cannot capture.

use crate::clock::{Clock, WallClock};
use crate::error::FlashError;
use crate::geometry::{Geometry, PageAddr, ZoneId};
use crate::stats::DeviceStats;
use crate::superblock::{self, ZoneRecord};
use crate::time::Nanos;
use crate::zoned::{state_of, validate_append, validate_read, ReadBatch, ZoneState, ZonedFlash};
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Alignment of the staging buffer and of every direct-I/O transfer.
const DIRECT_ALIGN: usize = 4096;

/// Upper bound on read-pool workers. The coordinator services one chunk
/// inline, so the effective queue depth caps at `MAX_POOL_WORKERS + 1`.
const MAX_POOL_WORKERS: usize = 15;

/// `try_recv` spins before an idle worker falls back to a blocking
/// `recv`. During a tight submission loop the next job lands inside the
/// spin window, so the handoff costs nanoseconds instead of a futex
/// sleep/wake; an idle pool still parks after the window expires.
const WORKER_SPIN: usize = 4096;

/// The spin window actually used: [`WORKER_SPIN`] on multi-core hosts,
/// zero on a single-CPU host, where the producer cannot run while a
/// worker spins — there the window only steals the core from the very
/// thread that would hand over the next job.
fn worker_spin() -> usize {
    static SPIN: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *SPIN.get_or_init(|| match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => WORKER_SPIN,
        _ => 0,
    })
}

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
const O_DIRECT: i32 = 0x4000;
#[cfg(not(any(target_arch = "x86_64", target_arch = "x86")))]
const O_DIRECT: i32 = 0x10000;

/// Tuning of a [`RealFlash`] device.
#[derive(Debug, Clone)]
pub struct RealFlashOptions {
    /// Open the data path with `O_DIRECT`, bypassing the page cache so
    /// reads hit the medium. Requires a filesystem that supports direct
    /// I/O (tmpfs does **not**) and page sizes that are a multiple of
    /// the device's logical block size. Off by default.
    pub direct_io: bool,
    /// Issue an fsync barrier on `finish_zone` / `reset_zone`, ordering
    /// zone-state transitions behind the zone's data writes. On by
    /// default; turn off only for pure-throughput microbenches.
    pub sync_on_barrier: bool,
    /// Emulated NAND array time added to every page read, slept inside
    /// the measured window (`None`, the default, measures pure syscall
    /// cost). On a page-cache-backed image the medium is free, so there
    /// is no device time for queue-depth overlap to win back; this
    /// injects the per-page read time a real die would take — a
    /// depth-1 submission pays it serially, a deeper one overlaps it
    /// across pool workers, exactly like die parallelism on hardware
    /// (the same trick as `null_blk` completion-latency injection).
    /// Reads only; appends, resets and barriers stay purely measured.
    pub emulated_read_latency: Option<Duration>,
}

impl Default for RealFlashOptions {
    fn default() -> Self {
        Self {
            direct_io: false,
            sync_on_barrier: true,
            emulated_read_latency: None,
        }
    }
}

/// Sleeps out the emulated per-page NAND time (see
/// [`RealFlashOptions::emulated_read_latency`]). Sleeping, not
/// spinning, is the point: a real device read waits off-CPU for the
/// medium, so emulated reads in pool workers overlap each other (and
/// the submitting thread) even on a single-core host, exactly like DMA
/// against real NAND — a busy-wait would serialize on the core and
/// fake the opposite conclusion. Linux timer slack adds some oversleep
/// per page; every queue depth pays it, so comparisons stay fair.
fn emulate_nand_read(latency: Option<Duration>) {
    if let Some(d) = latency {
        std::thread::sleep(d);
    }
}

/// A page-aligned staging buffer for direct I/O: a plain `Vec` with the
/// aligned window tracked by offset, so no unsafe allocation is needed.
#[derive(Debug, Default)]
struct AlignedBuf {
    raw: Vec<u8>,
    off: usize,
    len: usize,
}

impl AlignedBuf {
    /// Ensures the aligned window holds at least `len` bytes.
    fn reserve(&mut self, len: usize) {
        if self.len >= len {
            return;
        }
        let mut raw = vec![0u8; len + DIRECT_ALIGN];
        let off = raw.as_ptr().align_offset(DIRECT_ALIGN);
        debug_assert!(off < DIRECT_ALIGN);
        // Touch so the window is materialized before timing-sensitive use.
        raw[off] = 0;
        self.raw = raw;
        self.off = off;
        self.len = len;
    }

    fn window(&mut self, len: usize) -> &mut [u8] {
        self.reserve(len);
        &mut self.raw[self.off..self.off + len]
    }
}

/// One contiguous slice of a submitted batch, dispatched to a pool
/// worker.
struct ReadJob {
    file: Arc<File>,
    /// Byte offset of each page in this chunk, in submission order.
    offsets: Vec<u64>,
    /// Submission index of the chunk's first page.
    start: u32,
    page_size: usize,
    direct_io: bool,
    emulate: Option<Duration>,
}

/// A worker's answer to one [`ReadJob`].
struct ReadReply {
    start: u32,
    /// Page payloads concatenated in chunk order; valid for the first
    /// `elapsed.len()` pages.
    data: Vec<u8>,
    /// Measured wall-clock duration of each successful page read, in
    /// chunk order.
    elapsed: Vec<Nanos>,
    /// The I/O error that stopped the chunk early, if any.
    err: Option<std::io::Error>,
}

fn run_read_worker(jobs: Receiver<ReadJob>, replies: Sender<ReadReply>) {
    let mut staging = AlignedBuf::default();
    'serve: loop {
        let mut job = None;
        for _ in 0..worker_spin() {
            match jobs.try_recv() {
                Ok(j) => {
                    job = Some(j);
                    break;
                }
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => break 'serve,
            }
        }
        let job = match job {
            Some(j) => j,
            None => match jobs.recv() {
                Ok(j) => j,
                Err(_) => break,
            },
        };
        let mut data = vec![0u8; job.offsets.len() * job.page_size];
        let mut elapsed = Vec::with_capacity(job.offsets.len());
        let mut err = None;
        for (chunk, &off) in data.chunks_exact_mut(job.page_size).zip(&job.offsets) {
            let t0 = Instant::now();
            let res = if job.direct_io {
                let window = staging.window(job.page_size);
                job.file
                    .read_exact_at(window, off)
                    .map(|()| chunk.copy_from_slice(window))
            } else {
                job.file.read_exact_at(chunk, off)
            };
            match res {
                Ok(()) => {
                    emulate_nand_read(job.emulate);
                    elapsed.push(Nanos(t0.elapsed().as_nanos() as u64));
                }
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let reply = ReadReply {
            start: job.start,
            data,
            elapsed,
            err,
        };
        if replies.send(reply).is_err() {
            break;
        }
    }
}

#[derive(Debug)]
struct PoolWorker {
    jobs: Sender<ReadJob>,
    handle: JoinHandle<()>,
}

/// Lazily grown, bounded pool of read workers backing
/// [`ZonedFlash::submit_read_batch`] on [`RealFlash`]. Each worker owns
/// a dedicated job channel (static chunk-to-worker assignment needs no
/// shared queue) and all workers share one reply channel.
#[derive(Debug)]
struct ReadPool {
    workers: Vec<PoolWorker>,
    reply_tx: Sender<ReadReply>,
    replies: Receiver<ReadReply>,
}

impl ReadPool {
    fn new() -> Self {
        let (reply_tx, replies) = mpsc::channel();
        Self {
            workers: Vec::new(),
            reply_tx,
            replies,
        }
    }

    /// Grows the pool to at least `n` workers (clamped to the cap).
    fn ensure_workers(&mut self, n: usize) {
        while self.workers.len() < n.min(MAX_POOL_WORKERS) {
            let (jobs, rx) = mpsc::channel();
            let replies = self.reply_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("nemo-flash-read-{}", self.workers.len()))
                .spawn(move || run_read_worker(rx, replies))
                .expect("spawn flash read worker");
            self.workers.push(PoolWorker { jobs, handle });
        }
    }
}

impl Drop for ReadPool {
    fn drop(&mut self) {
        let mut handles = Vec::with_capacity(self.workers.len());
        // Close every job channel first so all workers wind down in
        // parallel, then join.
        for w in self.workers.drain(..) {
            drop(w.jobs);
            handles.push(w.handle);
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Real-I/O zoned flash device over a preallocated file or block device.
///
/// Completion times are measured, not modeled: `append`/`read_pages`
/// return `now + elapsed` where `elapsed` is the wall-clock duration of
/// the underlying syscalls under the device's [`Clock`]. Substitute a
/// [`crate::TickClock`] to make the measured path deterministic in tests.
///
/// # Examples
///
/// ```
/// use nemo_flash::{Geometry, Nanos, RealFlash, RealFlashOptions, ZoneId, ZonedFlash};
///
/// let path = std::env::temp_dir().join("nemo_realflash_doctest.img");
/// let geom = Geometry::new(512, 4, 2, 2);
/// let mut dev = RealFlash::create(geom, &path, RealFlashOptions::default())?;
/// let page = vec![0xCD; 512];
/// let (addr, done) = dev.append(ZoneId(0), &page, Nanos::ZERO)?;
/// assert!(done >= Nanos::ZERO); // measured, machine-dependent
/// let (back, _) = dev.read_pages(addr, 1, done)?;
/// assert_eq!(back, page);
/// # std::fs::remove_file(&path).ok();
/// # Ok::<(), nemo_flash::FlashError>(())
/// ```
#[derive(Debug)]
pub struct RealFlash<C: Clock = WallClock> {
    geom: Geometry,
    /// Data path; `O_DIRECT` when the options ask for it. Shared with
    /// the read pool (positional reads take `&self`, so workers need no
    /// lock).
    data: Arc<File>,
    /// Metadata path: always buffered (superblock records are not
    /// aligned), fsynced on barriers. Same underlying file as `data`.
    meta: File,
    data_offset: u64,
    zones: Vec<ZoneRecord>,
    opts: RealFlashOptions,
    clock: C,
    staging: AlignedBuf,
    stats: DeviceStats,
    /// Mutation counter, persisted in the superblock header.
    generation: u64,
    /// Zones whose superblock record was torn at reopen; see
    /// [`ZonedFlash::suspect_zones`].
    suspect: Vec<ZoneId>,
    /// Read workers behind `submit_read_batch`; spawned on the first
    /// batch of more than one chunk, so one-page readers never start a
    /// thread.
    pool: Option<ReadPool>,
}

impl RealFlash<WallClock> {
    /// Creates (or truncates) a device file at `path`, preallocates it to
    /// the geometry's size and writes a fresh superblock.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created, sized, or (with
    /// [`RealFlashOptions::direct_io`]) opened for direct I/O.
    pub fn create(geom: Geometry, path: &Path, opts: RealFlashOptions) -> Result<Self, FlashError> {
        Self::create_with_clock(geom, path, opts, WallClock::new())
    }

    /// Reopens a device created by [`Self::create`] (or by file-backed
    /// [`crate::SimFlash`] — same superblock format), restoring zone
    /// states, write pointers and the device generation. `geom` is the
    /// geometry the caller's configuration expects: a CRC-valid
    /// superblock recording a different geometry is rejected with
    /// [`FlashError::GeometryMismatch`], and a torn header (bad CRC)
    /// falls back to `geom` with generation 0, which upstream recovery
    /// treats as "any checkpoint is stale".
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened, is not a device image, or its
    /// recorded geometry disagrees with `geom`.
    pub fn open(geom: Geometry, path: &Path, opts: RealFlashOptions) -> Result<Self, FlashError> {
        Self::open_with_clock(geom, path, opts, WallClock::new())
    }
}

impl<C: Clock> RealFlash<C> {
    /// [`RealFlash::create`] with an explicit time source.
    ///
    /// # Errors
    ///
    /// Same as [`RealFlash::create`].
    pub fn create_with_clock(
        geom: Geometry,
        path: &Path,
        opts: RealFlashOptions,
        clock: C,
    ) -> Result<Self, FlashError> {
        let meta = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        meta.set_len(superblock::file_len(&geom))?;
        let zones = vec![ZoneRecord::default(); geom.zone_count() as usize];
        superblock::write_full(&meta, &geom, &zones, 0)?;
        let data = Arc::new(Self::open_data(path, &opts)?);
        Ok(Self {
            geom,
            data,
            meta,
            data_offset: superblock::data_offset(&geom),
            zones,
            opts,
            clock,
            staging: AlignedBuf::default(),
            stats: DeviceStats::default(),
            generation: 0,
            suspect: Vec::new(),
            pool: None,
        })
    }

    /// [`RealFlash::open`] with an explicit time source.
    ///
    /// # Errors
    ///
    /// Same as [`RealFlash::open`].
    pub fn open_with_clock(
        geom: Geometry,
        path: &Path,
        opts: RealFlashOptions,
        clock: C,
    ) -> Result<Self, FlashError> {
        let meta = OpenOptions::new().read(true).write(true).open(path)?;
        let sb = superblock::read(&meta, Some(geom))?;
        if !sb.header_trusted {
            // Torn header: repair it in place (with the conservative zone
            // map just restored) so the next reopen is clean.
            superblock::write_full(&meta, &sb.geom, &sb.zones, sb.generation)?;
        }
        let data = Arc::new(Self::open_data(path, &opts)?);
        Ok(Self {
            geom: sb.geom,
            data,
            meta,
            data_offset: superblock::data_offset(&sb.geom),
            zones: sb.zones,
            opts,
            clock,
            staging: AlignedBuf::default(),
            stats: DeviceStats::default(),
            generation: sb.generation,
            suspect: sb.suspect_zones.iter().copied().map(ZoneId).collect(),
            pool: None,
        })
    }

    fn open_data(path: &Path, opts: &RealFlashOptions) -> Result<File, FlashError> {
        let mut options = OpenOptions::new();
        options.read(true).write(true);
        if opts.direct_io {
            use std::os::unix::fs::OpenOptionsExt;
            options.custom_flags(O_DIRECT);
        }
        Ok(options.open(path)?)
    }

    /// The options in effect.
    pub fn options(&self) -> &RealFlashOptions {
        &self.opts
    }

    /// Retunes [`RealFlashOptions::emulated_read_latency`] on a live
    /// device. Experiments use this to age a pool at raw page-cache
    /// speed and then measure with device time injected; it changes
    /// read *timing* only, never behaviour or op counts.
    pub fn set_emulated_read_latency(&mut self, latency: Option<Duration>) {
        self.opts.emulated_read_latency = latency;
    }

    fn check_zone(&self, zone: ZoneId) -> Result<(), FlashError> {
        if zone.0 >= self.geom.zone_count() {
            return Err(FlashError::BadZone(zone));
        }
        Ok(())
    }

    fn byte_offset(&self, addr: PageAddr) -> u64 {
        self.data_offset + self.geom.flat_index(addr) * self.geom.page_size() as u64
    }

    fn persist_zone(&self, zone: u32) -> Result<(), FlashError> {
        superblock::write_zone(&self.meta, zone, &self.zones[zone as usize])?;
        superblock::write_header(&self.meta, &self.geom, self.generation)?;
        Ok(())
    }

    /// Fsync barrier (fsync is per file, so the buffered handle covers
    /// writes issued on either handle). Counts in
    /// [`DeviceStats::superblock_syncs`] when it actually syncs.
    fn barrier(&mut self) -> Result<(), FlashError> {
        if self.opts.sync_on_barrier {
            self.meta.sync_all()?;
            self.stats.superblock_syncs += 1;
        }
        Ok(())
    }
}

impl<C: Clock> ZonedFlash for RealFlash<C> {
    fn geometry(&self) -> Geometry {
        self.geom
    }

    fn zone_state(&self, zone: ZoneId) -> ZoneState {
        state_of(&self.geom, &self.zones[zone.0 as usize])
    }

    fn write_pointer(&self, zone: ZoneId) -> u32 {
        self.zones[zone.0 as usize].write_ptr
    }

    fn append(
        &mut self,
        zone: ZoneId,
        data: &[u8],
        now: Nanos,
    ) -> Result<(PageAddr, Nanos), FlashError> {
        let rec = self.zones.get(zone.0 as usize).copied().unwrap_or_default();
        let pages = validate_append(&self.geom, zone, &rec, data.len())?;
        let addr = PageAddr::new(zone.0, rec.write_ptr);
        let off = self.byte_offset(addr);
        let t0 = self.clock.monotonic();
        if self.opts.direct_io {
            let window = self.staging.window(data.len());
            window.copy_from_slice(data);
            self.data.write_all_at(window, off)?;
        } else {
            self.data.write_all_at(data, off)?;
        }
        let elapsed = self.clock.monotonic().saturating_sub(t0);
        // The zone-record update is zone-map bookkeeping of the software
        // ZTL, not part of the append a real zoned device services —
        // keep it outside the measured window.
        self.zones[zone.0 as usize].write_ptr += pages;
        self.generation += 1;
        self.persist_zone(zone.0)?;
        self.stats.pages_written += pages as u64;
        self.stats.bytes_written += data.len() as u64;
        self.stats.append_ops += 1;
        self.stats.busy_time += elapsed;
        Ok((addr, now + elapsed))
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
        let off = self.byte_offset(addr);
        let t0 = self.clock.monotonic();
        if self.opts.direct_io {
            let window = self.staging.window(out.len());
            self.data.read_exact_at(window, off)?;
            out.copy_from_slice(window);
        } else {
            self.data.read_exact_at(out, off)?;
        }
        if let Some(d) = self.opts.emulated_read_latency {
            emulate_nand_read(Some(d * pages));
        }
        let elapsed = self.clock.monotonic().saturating_sub(t0);
        self.stats.pages_read += pages as u64;
        self.stats.bytes_read += out.len() as u64;
        self.stats.read_ops += 1;
        self.stats.busy_time += elapsed;
        Ok(now + elapsed)
    }

    /// Lends the staging buffer, read and timed as
    /// [`Self::read_pages_into`] reads and times one page.
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
        let off = self.byte_offset(addr);
        let t0 = self.clock.monotonic();
        let window = self.staging.window(psz);
        self.data.read_exact_at(window, off)?;
        emulate_nand_read(self.opts.emulated_read_latency);
        let elapsed = self.clock.monotonic().saturating_sub(t0);
        self.stats.pages_read += 1;
        self.stats.bytes_read += psz as u64;
        self.stats.read_ops += 1;
        self.stats.busy_time += elapsed;
        page(window);
        Ok(now + elapsed)
    }

    /// Genuinely overlapped: the batch is cut into
    /// `min(queue_depth, len, 16)` contiguous chunks, one serviced
    /// inline by the caller (so a one-chunk batch is a plain `pread`
    /// loop with zero dispatch overhead) and the rest by a lazily
    /// spawned bounded thread pool issuing concurrent `pread`s.
    /// Per-page completion times are wall-measured with
    /// [`std::time::Instant`] inside each chunk (a page's `done` is
    /// `now` + its chunk's cumulative elapsed), independent of the
    /// device's pluggable [`Clock`], which covers
    /// [`Self::read_pages_into`].
    fn submit_read_batch(
        &mut self,
        batch: &mut ReadBatch,
        addrs: &[PageAddr],
        out: &mut [u8],
        now: Nanos,
        queue_depth: usize,
    ) -> Result<(), FlashError> {
        let psz = self.geom.page_size() as usize;
        if out.len() != addrs.len() * psz {
            return Err(FlashError::UnalignedLength {
                len: out.len(),
                page_size: self.geom.page_size(),
            });
        }
        // Validate everything before dispatching: on the first bad
        // address, read the valid prefix page by page so outcomes and
        // op counts match the modeled submission exactly, then surface
        // the error.
        for (k, &addr) in addrs.iter().enumerate() {
            let wp = self
                .zones
                .get(addr.zone as usize)
                .map_or(0, |z| z.write_ptr);
            if let Err(e) = validate_read(&self.geom, addr, 1, wp, psz) {
                for (chunk, &valid) in out.chunks_exact_mut(psz).zip(&addrs[..k]) {
                    self.read_pages_into(valid, 1, chunk, now)?;
                }
                return Err(e);
            }
        }
        batch.reset(addrs.len());
        if addrs.is_empty() {
            return Ok(());
        }
        let chunks = queue_depth.clamp(1, MAX_POOL_WORKERS + 1).min(addrs.len());
        let base = addrs.len() / chunks;
        let rem = addrs.len() % chunks;
        let inline_len = base + usize::from(rem > 0);
        // Dispatch chunks 1.. to the pool before touching chunk 0, so
        // the workers' reads overlap the inline ones.
        if chunks > 1 {
            let (geom, data_offset) = (self.geom, self.data_offset);
            let (data, direct_io) = (&self.data, self.opts.direct_io);
            let pool = self.pool.get_or_insert_with(ReadPool::new);
            pool.ensure_workers(chunks - 1);
            let mut start = inline_len;
            for c in 1..chunks {
                let size = base + usize::from(c < rem);
                let offsets = addrs[start..start + size]
                    .iter()
                    .map(|&a| data_offset + geom.flat_index(a) * psz as u64)
                    .collect();
                let job = ReadJob {
                    file: Arc::clone(data),
                    offsets,
                    start: start as u32,
                    page_size: psz,
                    direct_io,
                    emulate: self.opts.emulated_read_latency,
                };
                pool.workers[c - 1]
                    .jobs
                    .send(job)
                    .expect("flash read worker alive");
                start += size;
            }
        }
        // Chunk 0, serviced by the submitting thread.
        let mut first_err: Option<FlashError> = None;
        let mut total_busy = Nanos::ZERO;
        let mut completed = 0usize;
        let mut cum = Nanos::ZERO;
        for (i, chunk) in out[..inline_len * psz].chunks_exact_mut(psz).enumerate() {
            let off = self.byte_offset(addrs[i]);
            let t0 = Instant::now();
            let res = if self.opts.direct_io {
                let window = self.staging.window(psz);
                self.data
                    .read_exact_at(window, off)
                    .map(|()| chunk.copy_from_slice(window))
            } else {
                self.data.read_exact_at(chunk, off)
            };
            match res {
                Ok(()) => {
                    emulate_nand_read(self.opts.emulated_read_latency);
                    let e = Nanos(t0.elapsed().as_nanos() as u64);
                    cum += e;
                    total_busy += e;
                    batch.record(i as u32, now + cum);
                    completed += 1;
                }
                Err(e) => {
                    self.stats.read_errors += 1;
                    first_err = Some(e.into());
                    break;
                }
            }
        }
        // Harvest every dispatched chunk (even after an error, to keep
        // the reply channel in sync with future batches).
        if chunks > 1 {
            let pool = self.pool.as_mut().expect("pool exists after dispatch");
            for _ in 1..chunks {
                let reply = pool.replies.recv().expect("flash read worker alive");
                let cstart = reply.start as usize;
                let pages = reply.elapsed.len();
                out[cstart * psz..(cstart + pages) * psz]
                    .copy_from_slice(&reply.data[..pages * psz]);
                let mut cum = Nanos::ZERO;
                for (j, &e) in reply.elapsed.iter().enumerate() {
                    cum += e;
                    total_busy += e;
                    batch.record((cstart + j) as u32, now + cum);
                }
                completed += pages;
                if let Some(e) = reply.err {
                    // Every failed chunk is counted, even though the call
                    // can only surface one error — multi-chunk failures
                    // must not collapse into a single-error statistic.
                    self.stats.read_errors += 1;
                    first_err.get_or_insert(e.into());
                }
            }
        }
        self.stats.pages_read += completed as u64;
        self.stats.bytes_read += (completed * psz) as u64;
        self.stats.read_ops += completed as u64;
        self.stats.busy_time += total_busy;
        if let Some(e) = first_err {
            return Err(e);
        }
        batch.seal();
        batch.note_async(&mut self.stats, now, chunks);
        Ok(())
    }

    fn finish_zone(&mut self, zone: ZoneId) -> Result<(), FlashError> {
        self.check_zone(zone)?;
        self.zones[zone.0 as usize].finished = true;
        self.generation += 1;
        self.persist_zone(zone.0)?;
        self.barrier()?;
        Ok(())
    }

    fn reset_zone(&mut self, zone: ZoneId, now: Nanos) -> Result<Nanos, FlashError> {
        self.check_zone(zone)?;
        let t0 = self.clock.monotonic();
        {
            let z = &mut self.zones[zone.0 as usize];
            z.write_ptr = 0;
            z.finished = false;
            z.resets += 1;
        }
        self.generation += 1;
        self.persist_zone(zone.0)?;
        // The barrier orders the state transition behind the zone's data
        // writes, like a ZTL would before declaring the zone erasable.
        self.barrier()?;
        let elapsed = self.clock.monotonic().saturating_sub(t0);
        self.stats.zone_resets += 1;
        self.stats.busy_time += elapsed;
        Ok(now + elapsed)
    }

    fn stats(&self) -> DeviceStats {
        self.stats
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
        superblock::tear_zone(&self.meta, zone.0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nemo_realflash_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn small(name: &str) -> RealFlash {
        RealFlash::create(
            Geometry::new(512, 4, 3, 2),
            &tmp(name),
            RealFlashOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn append_read_roundtrip_with_measured_time() {
        let mut dev = small("roundtrip.img");
        let data: Vec<u8> = (0..512).map(|i| (i % 249) as u8).collect();
        let now = Nanos::from_micros(100);
        let (addr, wdone) = dev.append(ZoneId(1), &data, now).unwrap();
        assert!(wdone >= now, "completion never precedes issue");
        let (back, rdone) = dev.read_pages(addr, 1, wdone).unwrap();
        assert_eq!(back, data);
        assert!(rdone >= wdone);
        let s = dev.stats();
        assert_eq!((s.pages_written, s.pages_read), (1, 1));
        assert!(s.busy_time > Nanos::ZERO, "measured time accumulates");
    }

    #[test]
    fn zone_semantics_enforced() {
        let mut dev = small("semantics.img");
        dev.append(ZoneId(0), &vec![1u8; 512 * 4], Nanos::ZERO)
            .unwrap();
        assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Full);
        assert!(matches!(
            dev.append(ZoneId(0), &vec![1u8; 512], Nanos::ZERO),
            Err(FlashError::ZoneNotWritable(_))
        ));
        assert!(matches!(
            dev.read_pages(PageAddr::new(1, 0), 1, Nanos::ZERO),
            Err(FlashError::ReadBeyondWritePointer { .. })
        ));
        dev.reset_zone(ZoneId(0), Nanos::ZERO).unwrap();
        assert_eq!(dev.zone_state(ZoneId(0)), ZoneState::Empty);
        dev.append(ZoneId(0), &vec![2u8; 512], Nanos::ZERO).unwrap();
        assert_eq!(dev.reset_count(ZoneId(0)), 1);
    }

    #[test]
    fn tick_clock_makes_latency_deterministic() {
        let tick = Nanos::from_micros(3);
        let mut dev = RealFlash::create_with_clock(
            Geometry::new(512, 4, 2, 2),
            &tmp("tick.img"),
            RealFlashOptions::default(),
            TickClock::new(tick),
        )
        .unwrap();
        let (_, done) = dev
            .append(ZoneId(0), &vec![5u8; 512], Nanos::from_micros(10))
            .unwrap();
        // Exactly one tick elapses between the two clock readings.
        assert_eq!(done, Nanos::from_micros(13));
        let mut buf = vec![0u8; 512];
        let rdone = dev
            .read_pages_into(PageAddr::new(0, 0), 1, &mut buf, Nanos::ZERO)
            .unwrap();
        assert_eq!(rdone, tick);
    }

    #[test]
    fn survives_reopen() {
        let path = tmp("reopen.img");
        let geom = Geometry::new(512, 4, 3, 2);
        let data: Vec<u8> = (0..512u32).map(|i| (i * 31 % 256) as u8).collect();
        {
            let mut dev = RealFlash::create(geom, &path, RealFlashOptions::default()).unwrap();
            dev.append(ZoneId(0), &data, Nanos::ZERO).unwrap();
            dev.finish_zone(ZoneId(1)).unwrap();
            dev.reset_zone(ZoneId(2), Nanos::ZERO).unwrap();
        }
        let mut dev = RealFlash::open(geom, &path, RealFlashOptions::default()).unwrap();
        assert_eq!(dev.geometry(), geom);
        assert_eq!(dev.write_pointer(ZoneId(0)), 1);
        assert_eq!(dev.zone_state(ZoneId(1)), ZoneState::Full);
        assert_eq!(dev.reset_count(ZoneId(2)), 1);
        assert_eq!(dev.generation(), 3, "generation survives reopen");
        let (back, _) = dev.read_pages(PageAddr::new(0, 0), 1, Nanos::ZERO).unwrap();
        assert_eq!(back, data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_with_wrong_geometry_is_a_descriptive_error() {
        let path = tmp("geom_mismatch.img");
        let geom = Geometry::new(512, 4, 3, 2);
        RealFlash::create(geom, &path, RealFlashOptions::default()).unwrap();
        let other = Geometry::new(512, 8, 3, 2);
        let err = RealFlash::open(other, &path, RealFlashOptions::default()).unwrap_err();
        match err {
            FlashError::GeometryMismatch { expected, found } => {
                assert_eq!(expected, other);
                assert_eq!(found, geom);
            }
            e => panic!("expected GeometryMismatch, got {e:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn async_batch_matches_sync_contents_and_counts() {
        let geom = Geometry::new(512, 8, 2, 4);
        let mut sync_dev =
            RealFlash::create(geom, &tmp("async_sync.img"), RealFlashOptions::default()).unwrap();
        let mut async_dev =
            RealFlash::create(geom, &tmp("async_async.img"), RealFlashOptions::default()).unwrap();
        let payload: Vec<u8> = (0..512 * 8u32).map(|i| (i * 13 % 251) as u8).collect();
        for dev in [&mut sync_dev, &mut async_dev] {
            dev.append(ZoneId(0), &payload, Nanos::ZERO).unwrap();
        }
        let addrs: Vec<PageAddr> = [6, 0, 3, 1, 7, 2]
            .iter()
            .map(|&p| PageAddr::new(0, p))
            .collect();
        let mut sync_out = vec![0u8; addrs.len() * 512];
        for (chunk, &addr) in sync_out.chunks_exact_mut(512).zip(&addrs) {
            sync_dev
                .read_pages_into(addr, 1, chunk, Nanos::ZERO)
                .unwrap();
        }

        let now = Nanos::from_micros(5);
        let mut batch = ReadBatch::new();
        let mut async_out = vec![0u8; addrs.len() * 512];
        async_dev
            .submit_read_batch(&mut batch, &addrs, &mut async_out, now, 4)
            .unwrap();
        let mut comps = Vec::new();
        while !async_dev.poll_completions(&mut batch, &mut comps).unwrap() {}
        assert_eq!(async_out, sync_out, "same bytes through either path");
        assert_eq!(comps.len(), addrs.len());
        assert!(comps.iter().all(|c| c.done >= now));
        // Every submission index appears exactly once.
        let mut seen: Vec<u32> = comps.iter().map(|c| c.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        let (s, a) = (sync_dev.stats(), async_dev.stats());
        assert_eq!(
            (s.pages_read, s.bytes_read, s.read_ops),
            (a.pages_read, a.bytes_read, a.read_ops)
        );
        assert_eq!(a.async_reads, 6);
        assert_eq!(a.inflight_hwm, 4);
        assert_eq!(s.async_reads, 0, "blocking reads are not submissions");
    }

    #[test]
    fn async_depth_one_runs_inline_without_pool() {
        let mut dev = small("async_inline.img");
        dev.append(ZoneId(0), &vec![7u8; 512 * 3], Nanos::ZERO)
            .unwrap();
        let addrs = [PageAddr::new(0, 2), PageAddr::new(0, 0)];
        let mut batch = ReadBatch::new();
        let mut out = vec![0u8; 512 * 2];
        dev.submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, 1)
            .unwrap();
        assert!(dev.pool.is_none(), "depth 1 never spawns workers");
        let mut comps = Vec::new();
        assert!(dev.poll_completions(&mut batch, &mut comps).unwrap());
        assert_eq!(comps.len(), 2);
        assert_eq!(dev.stats().inflight_hwm, 1);
        // The pool appears (and is reused) once depth exceeds 1.
        dev.submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, 2)
            .unwrap();
        assert_eq!(dev.pool.as_ref().map(|p| p.workers.len()), Some(1));
        dev.submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, 8)
            .unwrap();
        assert_eq!(
            dev.pool.as_ref().map(|p| p.workers.len()),
            Some(1),
            "chunks clamp to batch length, so no extra workers"
        );
        assert_eq!(dev.stats().async_reads, 6);
    }

    #[test]
    fn async_error_prefix_matches_per_page_reads() {
        let mut sync_dev = small("async_err_sync.img");
        let mut async_dev = small("async_err_async.img");
        for dev in [&mut sync_dev, &mut async_dev] {
            dev.append(ZoneId(0), &vec![4u8; 512], Nanos::ZERO).unwrap();
        }
        let addrs = [PageAddr::new(0, 0), PageAddr::new(0, 2)];
        let mut out = vec![0u8; 512 * 2];
        sync_dev
            .read_pages_into(addrs[0], 1, &mut out[..512], Nanos::ZERO)
            .unwrap();
        let se = sync_dev
            .read_pages_into(addrs[1], 1, &mut out[512..], Nanos::ZERO)
            .unwrap_err();
        let mut batch = ReadBatch::new();
        let ae = async_dev
            .submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, 4)
            .unwrap_err();
        assert!(matches!(se, FlashError::ReadBeyondWritePointer { .. }));
        assert!(matches!(ae, FlashError::ReadBeyondWritePointer { .. }));
        let (s, a) = (sync_dev.stats(), async_dev.stats());
        assert_eq!(
            (s.pages_read, s.read_ops),
            (a.pages_read, a.read_ops),
            "the valid prefix is read and counted either way"
        );
    }

    #[test]
    fn bad_zone_errors() {
        let mut dev = small("badzone.img");
        assert!(dev.append(ZoneId(9), &vec![0u8; 512], Nanos::ZERO).is_err());
        assert!(dev.reset_zone(ZoneId(9), Nanos::ZERO).is_err());
        assert!(dev.finish_zone(ZoneId(9)).is_err());
    }

    #[test]
    fn aligned_buf_window_is_aligned() {
        let mut buf = AlignedBuf::default();
        let w = buf.window(1024);
        assert_eq!(w.as_ptr() as usize % DIRECT_ALIGN, 0);
        assert_eq!(w.len(), 1024);
        // Growing keeps alignment.
        let w = buf.window(8192);
        assert_eq!(w.as_ptr() as usize % DIRECT_ALIGN, 0);
    }
}
