//! The sharded front-end: one engine per shard behind one lock, served
//! by the shard's worker thread and by any thread that runs a wave.
//!
//! Every request is followed by one bounded background slice, whichever
//! thread serves it, so the driver — not an engine option — decides how
//! deferred maintenance runs: in a fleet, Nemo's eviction scan reads its
//! victim one page per request (only a drain's back-to-back flushes may
//! finish one); a loop that owns a lone engine and never slices leaves
//! every scan for the next flush to finish in one batch.

use crate::routing::shard_of;
use nemo_engine::{CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::Nanos;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{Builder as ThreadBuilder, JoinHandle};

/// Bounded per-shard command-queue depth: a dispatcher that runs this
/// far ahead of a shard blocks until the worker catches up. Wall-clock
/// backpressure only; it cannot change a virtual-time result.
const QUEUE_DEPTH: usize = 256;

/// Commands a worker pulls from its queue per wakeup: after the blocking
/// receive, up to `PIPELINE - 1` already-queued commands are drained
/// non-blockingly and serviced in one pass. Commands are applied
/// strictly in queue order either way, so this trades scheduling
/// latency for throughput and nothing else.
const PIPELINE: usize = 16;

/// Health of one shard worker, reported by
/// [`ShardedCache::fleet_health`] / [`Dispatcher::fleet_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally; no device faults absorbed so far.
    Healthy,
    /// Still serving, but the engine has absorbed device faults (retries,
    /// quarantined zones or fault-induced misses are non-zero).
    Degraded,
    /// The engine failed fatally (typed [`EngineError`] or panic). The
    /// worker now refuses requests with typed unavailable replies instead
    /// of servicing them.
    Dead,
}

const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_DEAD: u8 = 2;

impl ShardHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            HEALTH_HEALTHY => ShardHealth::Healthy,
            HEALTH_DEGRADED => ShardHealth::Degraded,
            _ => ShardHealth::Dead,
        }
    }
}

/// What a request was, and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// A lookup; `hit` is the outcome. On a miss of a demand-fill get
    /// ([`Dispatcher::dispatch_get`]) the worker also ran the fill, which
    /// is backing-store work and not part of the client-visible latency.
    Get {
        /// Whether the lookup hit.
        hit: bool,
        /// Candidate data-page reads the lookup issued
        /// ([`GetOutcome::set_reads`]) — the per-get set-read cost the
        /// trend windows aggregate.
        set_reads: u32,
        /// All flash pages the lookup read ([`GetOutcome::flash_reads`]).
        flash_reads: u32,
    },
    /// An insert.
    Put,
    /// The owning shard is dead — it died serving this request, or had
    /// died before — so the request was refused, not serviced. The wire
    /// layer maps this to a memcached `SERVER_ERROR`.
    Unavailable {
        /// Index of the dead shard.
        shard: usize,
    },
}

/// Completion record of one request, sent on the reply channel passed
/// to the `dispatch_*` call that issued it — or, for a request of a
/// [`Wave`], left in [`Wave::done`]. Every dispatched request is
/// answered with exactly one.
///
/// All times are virtual: `arrival ≤ start ≤ done`. Queueing delay is
/// `start - arrival` (admission wait behind the shard's in-flight
/// window), service time is `done - start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller-chosen sequence number (e.g. the global op index); for a
    /// request of a [`Wave`], its index in the wave.
    pub seq: u64,
    /// Arrival time of the request.
    pub arrival: Nanos,
    /// Virtual time service began.
    pub start: Nanos,
    /// Virtual completion time.
    pub done: Nanos,
    /// Operation kind and outcome.
    pub kind: CompletionKind,
}

impl Completion {
    /// Queueing delay in nanoseconds (`start - arrival`).
    pub fn queueing(&self) -> u64 {
        self.start.saturating_sub(self.arrival).0
    }

    /// Service time in nanoseconds (`done - start`).
    pub fn service(&self) -> u64 {
        self.done.saturating_sub(self.start).0
    }

    /// The answer of dead shard `shard` to a request it will not serve.
    fn refused(seq: u64, arrival: Nanos, shard: usize) -> Self {
        Self {
            seq,
            arrival,
            start: arrival,
            done: arrival,
            kind: CompletionKind::Unavailable { shard },
        }
    }
}

/// The three requests a shard serves.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Lookup *without* demand fill: a miss stays a miss. This is the
    /// wire-protocol get — a memcached client decides for itself whether
    /// to `set` after a miss, so the cache must not insert on its behalf.
    Lookup,
    /// Lookup with demand fill: a miss inserts `fill_size` bytes at the
    /// lookup's completion time.
    Get { fill_size: u32 },
    /// Insert.
    Put { size: u32 },
}

/// One request as a worker sees it: what to do, to which key, arriving
/// when.
#[derive(Debug, Clone, Copy)]
struct Request {
    key: u64,
    op: Op,
    arrival: Nanos,
}

/// A batch of requests for one shard, run on the calling thread by
/// [`Dispatcher::run_wave`], which leaves one [`Completion`] per
/// request in [`Self::done`]. The requests run in push order through
/// the same routine as the one-at-a-time `dispatch_*` calls, so a wave
/// is exactly its requests sent back to back — minus, per request, a
/// channel send, a wake-up of the shard's worker and a reply. The
/// buffers keep their capacity across [`Self::clear`], so a caller that
/// reuses its waves (the wire front-end keeps one per shard per
/// connection) allocates nothing in steady state.
///
/// # Examples
///
/// ```
/// use nemo_baselines::LogCacheConfig;
/// use nemo_flash::Nanos;
/// use nemo_service::{CompletionKind, ShardedCacheBuilder, Wave};
///
/// let cache = ShardedCacheBuilder::new(2).spawn(LogCacheConfig::small().factory());
/// let dispatcher = cache.dispatcher();
/// let mut wave = Wave::default();
/// wave.push_put(7, 200, Nanos::ZERO);
/// wave.push_lookup(7, Nanos::ZERO);
/// dispatcher.run_wave(dispatcher.shard_of(7), &mut wave);
/// assert_eq!(wave.done()[0].kind, CompletionKind::Put);
/// assert!(matches!(wave.done()[1].kind, CompletionKind::Get { hit: true, .. }));
/// ```
#[derive(Debug, Default)]
pub struct Wave {
    ops: Vec<Request>,
    done: Vec<Completion>,
}

impl Wave {
    /// Appends a lookup without demand fill; see
    /// [`Dispatcher::dispatch_lookup`].
    pub fn push_lookup(&mut self, key: u64, arrival: Nanos) {
        self.push(key, Op::Lookup, arrival);
    }

    /// Appends a lookup with demand fill; see
    /// [`Dispatcher::dispatch_get`].
    pub fn push_get(&mut self, key: u64, fill_size: u32, arrival: Nanos) {
        self.push(key, Op::Get { fill_size }, arrival);
    }

    /// Appends an insert; see [`Dispatcher::dispatch_put`].
    pub fn push_put(&mut self, key: u64, size: u32, arrival: Nanos) {
        self.push(key, Op::Put { size }, arrival);
    }

    fn push(&mut self, key: u64, op: Op, arrival: Nanos) {
        self.ops.push(Request { key, op, arrival });
    }

    /// Number of requests pushed since the last [`Self::clear`].
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no request has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The completions of a wave that has run, one per request in push
    /// order; [`Completion::seq`] is the request's index in the wave.
    /// Empty until [`Dispatcher::run_wave`] has run it.
    pub fn done(&self) -> &[Completion] {
        &self.done
    }

    /// Empties the wave for reuse, keeping its buffers.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.done.clear();
    }
}

/// What a shard worker receives: requests, which are all answered with
/// a [`Completion`], and three fleet-control commands whose reply
/// channel a dead shard simply drops.
enum Command {
    Op {
        request: Request,
        seq: u64,
        reply: Sender<Completion>,
    },
    Drain {
        now: Nanos,
        reply: Sender<()>,
    },
    Stats {
        reply: Sender<EngineStats>,
    },
    Memory {
        reply: Sender<MemoryBreakdown>,
    },
}

/// Builds a [`ShardedCache`]: shard count plus the in-flight window.
///
/// # Examples
///
/// ```
/// use nemo_baselines::LogCacheConfig;
/// use nemo_flash::Nanos;
/// use nemo_service::ShardedCacheBuilder;
///
/// let cache = ShardedCacheBuilder::new(4)
///     .inflight(8)
///     .spawn(LogCacheConfig::small().factory());
/// cache.try_put(7, 250, Nanos::ZERO).unwrap();
/// assert!(cache.try_get(7, Nanos::ZERO).unwrap().hit);
/// let report = cache.finish(Nanos::ZERO);
/// assert_eq!(report.stats.puts, 1);
/// assert_eq!(report.engines.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedCacheBuilder {
    shards: usize,
    inflight: usize,
}

impl ShardedCacheBuilder {
    /// A front-end with `shards` worker threads and an in-flight window
    /// of 16 per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        Self {
            shards,
            inflight: 16,
        }
    }

    /// Number of shards the fleet will have.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Per-shard in-flight window: a request arriving at virtual time
    /// `a` begins service at `a` if fewer than `k` operations are
    /// outstanding, else at the earliest outstanding completion time —
    /// at most `k` operations are in flight on the shard at any virtual
    /// instant, and admission wait beyond that is reported as queueing
    /// delay.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn inflight(mut self, k: usize) -> Self {
        assert!(k > 0, "in-flight window must be positive");
        self.inflight = k;
        self
    }

    /// Spawns the workers. `factory(shard)` builds the engine of shard
    /// `shard`; it runs on the calling thread, so it needs no
    /// `Send`/`Sync` bounds of its own — only the engines move.
    pub fn spawn<E, F>(self, mut factory: F) -> ShardedCache<E>
    where
        E: CacheEngine + 'static,
        F: FnMut(usize) -> E,
    {
        let mut name = "sharded";
        let mut lanes: Vec<Arc<dyn Lane>> = Vec::with_capacity(self.shards);
        let mut senders = Vec::with_capacity(self.shards);
        let mut workers = Vec::with_capacity(self.shards);
        for index in 0..self.shards {
            let engine = factory(index);
            name = engine.name();
            let shard = Arc::new(Shard {
                index,
                state: Mutex::new(ShardState {
                    engine,
                    window: InflightWindow::new(self.inflight),
                }),
                health: AtomicU8::new(HEALTH_HEALTHY),
            });
            lanes.push(Arc::clone(&shard) as Arc<dyn Lane>);
            let (tx, rx) = sync_channel(QUEUE_DEPTH);
            senders.push(tx);
            let handle = ThreadBuilder::new()
                .name(format!("{name}-shard-{index}"))
                .spawn(move || run_worker(shard, rx))
                .expect("spawn shard worker");
            workers.push(handle);
        }
        ShardedCache {
            name,
            dispatcher: Dispatcher { lanes, senders },
            workers,
            reply: channel(),
        }
    }
}

/// What serving one request needs of its shard: the engine, and the
/// in-flight window that admits requests to it.
struct ShardState<E> {
    engine: E,
    window: InflightWindow,
}

/// One shard as the fleet shares it between its worker and every
/// thread that runs waves on it: the serving state behind the one lock,
/// and the health flag, which anyone may read without it.
///
/// Locking: a thread holds at most one shard lock at a time and calls
/// nothing that blocks on another thread while holding it (reply sends
/// go to unbounded channels), so no two threads can wait on each other.
/// An engine panic is caught inside the lock ([`guarded`]) and so never
/// poisons it; a poisoned lock — a panic outside any engine call — reads
/// as a [`ShardHealth::Dead`] shard.
struct Shard<E> {
    index: usize,
    state: Mutex<ShardState<E>>,
    health: AtomicU8,
}

impl<E: CacheEngine> Shard<E> {
    /// Runs `items` in order with the shard locked once. `step(Some(state),
    /// item)` serves an item and says whether the engine survived;
    /// `step(None, item)` answers it for a dead shard — every item after
    /// the one that killed the engine, and all of them if the shard was
    /// dead (or its lock poisoned) already. A shard that served the
    /// whole batch is then checked for Healthy → Degraded.
    fn run_locked<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        mut step: impl FnMut(Option<&mut ShardState<E>>, T) -> bool,
    ) {
        let mut state = match self.state.lock() {
            Ok(state) if self.health.load(Ordering::Relaxed) != HEALTH_DEAD => Some(state),
            _ => {
                self.health.store(HEALTH_DEAD, Ordering::Release);
                None
            }
        };
        for item in items {
            if !step(state.as_deref_mut(), item) {
                // Marked before the lock is released, so whoever takes it
                // next refuses.
                self.health.store(HEALTH_DEAD, Ordering::Release);
                state = None;
            }
        }
        if let Some(state) = state.as_deref_mut() {
            self.check_degraded(&state.engine);
        }
    }

    /// Promotes Healthy → Degraded once the engine reports absorbed
    /// faults; checked per batch or wave, not per request, to stay
    /// cheap. The engine's `stats` runs guarded like every other engine
    /// call, because the thread asking may be a connection's: a panic
    /// there kills the shard, not the caller.
    fn check_degraded(&self, engine: &E) {
        if self.health.load(Ordering::Relaxed) != HEALTH_HEALTHY {
            return;
        }
        let Some(s) = guarded(|| engine.stats()) else {
            self.health.store(HEALTH_DEAD, Ordering::Release);
            return;
        };
        if s.device_retries > 0 || s.quarantined_zones > 0 || s.fault_induced_misses > 0 {
            self.health.store(HEALTH_DEGRADED, Ordering::Release);
        }
    }

    /// The engine, once every other handle on the shard is gone; a
    /// poisoned lock still hands it back for post-mortem inspection.
    fn into_engine(self) -> E {
        self.state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .engine
    }
}

/// A [`Shard`] with its engine type erased, as a [`Dispatcher`] holds it.
trait Lane: Send + Sync {
    /// [`Dispatcher::run_wave`] on this shard.
    fn run_wave(&self, wave: &mut Wave);
    /// The shard's current health.
    fn health(&self) -> ShardHealth;
}

impl<E: CacheEngine> Lane for Shard<E> {
    fn run_wave(&self, wave: &mut Wave) {
        let Wave { ops, done } = wave;
        done.clear();
        self.run_locked(ops.iter(), |state, &request| {
            let seq = done.len() as u64;
            let (completion, alive) = match state {
                Some(state) => run_op(state, self.index, request, seq),
                None => (Completion::refused(seq, request.arrival, self.index), true),
            };
            done.push(completion);
            alive
        });
    }

    fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::Acquire))
    }
}

/// Virtual-time admission window of one shard: completion times of the
/// `inflight` most recently admitted operations. When the window is
/// full, a new operation starts no earlier than the *earliest* of those
/// completions — the first slot to free — so at most `inflight`
/// requests are outstanding on the shard at any virtual instant and any
/// wait beyond that shows up as queueing delay. (Completions can finish
/// out of admission order: a buffered-memory hit returns at its start
/// time while an earlier multi-page miss is still reading, so a min-pop
/// is what "a slot frees" actually means.)
struct InflightWindow {
    /// Min-heap of outstanding completion times.
    slots: std::collections::BinaryHeap<std::cmp::Reverse<Nanos>>,
    inflight: usize,
}

impl InflightWindow {
    fn new(inflight: usize) -> Self {
        Self {
            slots: std::collections::BinaryHeap::with_capacity(inflight),
            inflight,
        }
    }

    /// Earliest virtual time a request arriving at `arrival` may start.
    fn admit(&mut self, arrival: Nanos) -> Nanos {
        if self.slots.len() == self.inflight {
            let std::cmp::Reverse(freed) = self.slots.pop().expect("window is full");
            arrival.max(freed)
        } else {
            arrival
        }
    }

    /// Records a started operation's completion time.
    fn complete(&mut self, done: Nanos) {
        self.slots.push(std::cmp::Reverse(done));
    }
}

/// Shard worker loop: applies commands in arrival order until the
/// front-end hangs up, then hands the shard back through the join.
///
/// Each wakeup blocks for one command, then drains up to
/// [`PIPELINE`]` - 1` more that are already queued and services the
/// whole batch back-to-back under one take of the shard's lock. Under
/// load this keeps several requests in flight per shard — their device
/// submissions, completions and background slices interleave within one
/// scheduling quantum instead of paying a blocking receive per command.
/// Commands are applied strictly in queue order regardless of batch
/// boundaries, so every engine transition (and thus every aggregate) is
/// identical however the batches fall.
///
/// Supervision: a fatal [`EngineError`] from the engine — or a panic
/// inside it — does not take the worker thread down. The request being
/// served completes as [`CompletionKind::Unavailable`], the shard's
/// health flips to [`ShardHealth::Dead`], and the worker keeps draining
/// its queue, refusing every subsequent request the same way — also
/// when the engine died in a wave another thread ran. Requests are
/// therefore always answered, whichever call killed the engine; the
/// fleet-control commands (drain, stats, memory) get their reply channel
/// dropped instead, which [`ShardedCache`] reads as "this shard has
/// nothing to report". The engine value survives for post-mortem
/// inspection via [`ShardedCache::finish`].
fn run_worker<E: CacheEngine>(shard: Arc<Shard<E>>, rx: Receiver<Command>) -> Arc<Shard<E>> {
    let mut intake = Vec::with_capacity(PIPELINE);
    while let Ok(first) = rx.recv() {
        intake.push(first);
        while intake.len() < PIPELINE {
            match rx.try_recv() {
                Ok(cmd) => intake.push(cmd),
                Err(_) => break,
            }
        }
        shard.run_locked(intake.drain(..), |state, cmd| match state {
            Some(state) => apply_command(state, shard.index, cmd),
            None => {
                refuse_command(cmd, shard.index);
                true
            }
        });
    }
    shard
}

/// Refuses a command on behalf of a dead shard: a request completes as
/// [`CompletionKind::Unavailable`]; a control command's reply channel is
/// dropped.
fn refuse_command(cmd: Command, shard: usize) {
    match cmd {
        Command::Op {
            request,
            seq,
            reply,
        } => {
            let _ = reply.send(Completion::refused(seq, request.arrival, shard));
        }
        Command::Drain { .. } | Command::Stats { .. } | Command::Memory { .. } => {}
    }
}

/// Runs one engine call; `None` if it panicked.
fn guarded<T>(call: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(call)).ok()
}

/// Applies one command to the shard's engine; `false` means the engine
/// died doing it. A request is answered either way.
fn apply_command<E: CacheEngine>(state: &mut ShardState<E>, shard: usize, cmd: Command) -> bool {
    // Reply sends only fail if the requester stopped listening; the
    // engine transition already happened, so that is harmless.
    match cmd {
        Command::Op {
            request,
            seq,
            reply,
        } => {
            let (completion, alive) = run_op(state, shard, request, seq);
            let _ = reply.send(completion);
            alive
        }
        Command::Drain { now, reply } => answer(reply, guarded(|| state.engine.drain(now))),
        Command::Stats { reply } => answer(reply, guarded(|| state.engine.stats())),
        Command::Memory { reply } => answer(reply, guarded(|| state.engine.memory())),
    }
}

/// Admits one request through the window and serves it; `false` means
/// the engine died doing it. The one routine behind a lone
/// [`Command::Op`] and every request of a [`Wave`].
fn run_op<E: CacheEngine>(
    ShardState { engine, window }: &mut ShardState<E>,
    shard: usize,
    Request { key, op, arrival }: Request,
    seq: u64,
) -> (Completion, bool) {
    let start = window.admit(arrival);
    // A fatal error and a panic end the same way: the request is
    // refused and the engine is not called again.
    let served = guarded(|| serve(engine, key, op, start)).and_then(Result::ok);
    let (done, kind) = served.unwrap_or((start, CompletionKind::Unavailable { shard }));
    window.complete(done);
    let completion = Completion {
        seq,
        arrival,
        start,
        done,
        kind,
    };
    (completion, served.is_some())
}

/// Sends a control command's answer if the engine survived producing it.
fn answer<T>(reply: Sender<T>, value: Option<T>) -> bool {
    value.map(|v| reply.send(v)).is_some()
}

/// Serves one admitted request at virtual time `start`, then runs one
/// bounded slice of deferred engine maintenance (e.g. Nemo's write-back
/// scan) at its completion time. Foreground first in call order means
/// foreground flash operations claim the device dies first at any given
/// timestamp, and tying slices to the command stream (never to
/// wall-clock idleness) keeps results deterministic across thread
/// interleavings.
fn serve<E: CacheEngine>(
    engine: &mut E,
    key: u64,
    op: Op,
    start: Nanos,
) -> Result<(Nanos, CompletionKind), EngineError> {
    let (done, kind) = match op {
        Op::Put { size } => (engine.try_put(key, size, start)?, CompletionKind::Put),
        Op::Lookup | Op::Get { .. } => {
            let out = engine.try_get(key, start)?;
            if let (false, Op::Get { fill_size }) = (out.hit, op) {
                // Demand fill at the miss's completion time; backing
                // store work, not client-visible latency.
                engine.try_put(key, fill_size, out.done_at)?;
            }
            let kind = CompletionKind::Get {
                hit: out.hit,
                set_reads: out.set_reads,
                flash_reads: out.flash_reads,
            };
            (out.done_at, kind)
        }
    };
    if engine.background_pending() {
        engine.background_slice(done);
    }
    Ok((done, kind))
}

/// A cloneable, thread-safe dispatch handle onto a shard fleet: the one
/// way requests reach the shards. [`ShardedCache`] owns one; callers
/// that drive the fleet from many threads at once — the wire front-end
/// in `nemo-proto` hands one to every connection handler — clone it via
/// [`ShardedCache::dispatcher`].
///
/// Requests reach a shard two ways, through one routine and one lock
/// per shard:
/// - every `dispatch_*` call routes by key hash, queues the request for
///   the shard's worker without waiting for the result, and is answered
///   with exactly one [`Completion`] on the `reply` channel it was
///   given. Sends block when the owning shard's bounded command queue is
///   full, which is the backpressure a driver wants: an overloaded shard
///   stalls its callers instead of buffering unboundedly.
/// - [`Self::run_wave`] runs a caller-built batch of one shard's
///   requests on the calling thread, with no message and no wake-up.
///
/// Ordering: requests from one thread are applied in call order per
/// shard along either way, but the two ways are not ordered against
/// each other (see [`Self::run_wave`]). Interleaving *across* threads is
/// whatever they race to — callers needing a deterministic global order
/// must drive the fleet from a single thread.
#[derive(Clone)]
pub struct Dispatcher {
    /// Declared before `senders` so that a dropped clone lets go of the
    /// shards before its senders: once a worker sees its queue hang up,
    /// no clone but the fleet's own holds its shard, and
    /// [`ShardedCache::finish`] can take the engine back.
    lanes: Vec<Arc<dyn Lane>>,
    senders: Vec<SyncSender<Command>>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("shards", &self.shards())
            .finish_non_exhaustive()
    }
}

impl Dispatcher {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.senders.len())
    }

    /// Current health of every shard, indexed by shard id: `Healthy`
    /// until the engine first reports absorbed faults (retries,
    /// quarantines, fault-induced misses), `Degraded` after, `Dead` once
    /// a fatal engine error or panic kills the shard. Lock-free; safe to
    /// poll from connection handlers.
    pub fn fleet_health(&self) -> Vec<ShardHealth> {
        self.lanes.iter().map(|lane| lane.health()).collect()
    }

    fn dispatch(&self, key: u64, op: Op, arrival: Nanos, seq: u64, reply: &Sender<Completion>) {
        let cmd = Command::Op {
            request: Request { key, op, arrival },
            seq,
            reply: reply.clone(),
        };
        self.senders[self.shard_of(key)]
            .send(cmd)
            .expect("shard worker alive");
    }

    /// Runs every request of `wave` on `shard` on the calling thread,
    /// with the shard locked once: in push order, each exactly as the
    /// `dispatch_*` call of its kind would run in the shard's worker
    /// (admission, service, one background slice), leaving one
    /// [`Completion`] per request in [`Wave::done`] — also when the
    /// engine dies part-way (the rest of the wave completes
    /// [`CompletionKind::Unavailable`]) or had died before (all of it
    /// does). An engine panic is caught and never reaches the caller.
    /// Routing is the caller's: every key pushed must satisfy
    /// `shard_of(key) == shard`.
    ///
    /// Requests this thread queued earlier through `dispatch_*` may not
    /// have run yet, so the wave may overtake them: a caller that needs
    /// its requests to one shard applied in order uses one way or the
    /// other, not both.
    pub fn run_wave(&self, shard: usize, wave: &mut Wave) {
        debug_assert!(
            wave.ops.iter().all(|r| self.shard_of(r.key) == shard),
            "a wave holds keys of one shard"
        );
        self.lanes[shard].run_wave(wave);
    }

    /// Dispatches a lookup *without* demand fill: the worker admits it
    /// through the in-flight window ([`ShardedCacheBuilder::inflight`]),
    /// services it, runs one background slice, and reports a
    /// [`Completion`] on `reply`; a miss leaves the cache untouched.
    /// This is the wire-protocol `get` path — whether to insert after a
    /// miss is the remote client's call, not the cache's.
    pub fn dispatch_lookup(&self, key: u64, arrival: Nanos, seq: u64, reply: &Sender<Completion>) {
        self.dispatch(key, Op::Lookup, arrival, seq, reply);
    }

    /// Dispatches a lookup that, on a miss, inserts `fill_size` bytes at
    /// the miss's completion time inside the worker — the demand-fill
    /// policy the paper's replays use. Fills route to the same shard as
    /// their get, so in-worker filling preserves per-shard order.
    pub fn dispatch_get(
        &self,
        key: u64,
        fill_size: u32,
        arrival: Nanos,
        seq: u64,
        reply: &Sender<Completion>,
    ) {
        self.dispatch(key, Op::Get { fill_size }, arrival, seq, reply);
    }

    /// Dispatches an insert; admitted through the same window.
    pub fn dispatch_put(
        &self,
        key: u64,
        size: u32,
        arrival: Nanos,
        seq: u64,
        reply: &Sender<Completion>,
    ) {
        self.dispatch(key, Op::Put { size }, arrival, seq, reply);
    }
}

/// Final state of a sharded run, produced by [`ShardedCache::finish`].
///
/// Engines are drained *before* the final counters are read, so
/// `stats` includes everything still sitting in in-memory buffers (an
/// undrained Nemo under-reports flash writes and WA).
#[derive(Debug)]
pub struct ShardedReport<E> {
    /// Aggregate counters across all shards ([`EngineStats::merge`]).
    pub stats: EngineStats,
    /// Post-drain counters per shard, indexed by shard id.
    pub per_shard: Vec<EngineStats>,
    /// Aggregate metadata memory ([`MemoryBreakdown::merge`]).
    pub memory: MemoryBreakdown,
    /// The engines themselves, indexed by shard id, for inspection
    /// beyond the common counters.
    pub engines: Vec<E>,
}

/// A concurrent cache front-end: `N` shards, each one single-threaded
/// [`CacheEngine`] (and its simulated device) behind its own lock, and
/// each with a worker thread fed by a bounded channel. Requests route to
/// shards by key hash ([`crate::shard_of`]), so shard state is disjoint:
/// a shard's lock is only ever contended by its own worker and the
/// threads running [`Dispatcher::run_wave`] on it, and a thread holds at
/// most one shard lock at a time.
///
/// This is the shard-per-core pattern production flash caches deploy
/// (CacheLib partitions its small-object cache the same way; the paper's
/// Nemo runs background flushing/write-back on dedicated threads inside
/// it). The simulator engines stay deterministic and single-threaded;
/// concurrency lives entirely in this layer.
///
/// There is one request routine. [`Self::dispatch_get`] /
/// [`Self::dispatch_put`] queue and return; the worker runs the request
/// and the [`Completion`] arrives on the caller's channel.
/// [`Self::try_get`] / [`Self::try_put`] are the same dispatch on a
/// reply channel this handle owns, followed by a wait for that one
/// completion — closed loop is open loop with the caller waiting. A
/// caller holding a batch of one shard's requests runs it on its own
/// thread instead ([`Dispatcher::run_wave`]).
///
/// # Determinism contract
///
/// For a fixed request sequence and shard count, the aggregate
/// [`Self::stats`] after [`Self::drain`] — hit ratio, ALWA, every
/// counter — is identical across runs, regardless of thread scheduling
/// and of whether the caller waits per operation or collects completions
/// later. Routing is a pure function of the key, each worker applies its
/// commands in the order this handle sent them, and shards share no
/// state, so interleaving across shards cannot affect any shard's
/// outcome. (Dispatching the same sequence from several threads through
/// [`Dispatcher`] clones forfeits this.)
///
/// # Examples
///
/// ```
/// use nemo_core::NemoConfig;
/// use nemo_flash::Nanos;
/// use nemo_service::ShardedCacheBuilder;
/// use std::sync::mpsc::channel;
///
/// let cache = ShardedCacheBuilder::new(2).spawn(NemoConfig::small().factory());
/// let (tx, rx) = channel();
/// for key in 0..100u64 {
///     cache.dispatch_put(key, 200, Nanos::ZERO, key, &tx);
/// }
/// assert_eq!(rx.iter().take(100).count(), 100); // every op is answered
/// assert!(cache.try_get(1, Nanos::ZERO).unwrap().hit);
/// let report = cache.finish(Nanos::ZERO);
/// assert_eq!(report.stats.puts, 100);
/// ```
#[derive(Debug)]
pub struct ShardedCache<E: CacheEngine + 'static> {
    name: &'static str,
    dispatcher: Dispatcher,
    workers: Vec<JoinHandle<Arc<Shard<E>>>>,
    /// Reply channel of the synchronous operations. The handle is not
    /// `Sync`, so at most one completion is ever outstanding on it.
    reply: (Sender<Completion>, Receiver<Completion>),
}

impl<E: CacheEngine + 'static> ShardedCache<E> {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.dispatcher.shards()
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        self.dispatcher.shard_of(key)
    }

    /// Current health of every shard; see [`Dispatcher::fleet_health`].
    pub fn fleet_health(&self) -> Vec<ShardHealth> {
        self.dispatcher.fleet_health()
    }

    /// A clone of this fleet's [`Dispatcher`], for driving the shards
    /// from other threads. The workers run until every clone is gone.
    pub fn dispatcher(&self) -> Dispatcher {
        self.dispatcher.clone()
    }

    /// [`Dispatcher::dispatch_get`] from the owning handle.
    pub fn dispatch_get(
        &self,
        key: u64,
        fill_size: u32,
        arrival: Nanos,
        seq: u64,
        reply: &Sender<Completion>,
    ) {
        self.dispatcher
            .dispatch_get(key, fill_size, arrival, seq, reply);
    }

    /// [`Dispatcher::dispatch_put`] from the owning handle.
    pub fn dispatch_put(
        &self,
        key: u64,
        size: u32,
        arrival: Nanos,
        seq: u64,
        reply: &Sender<Completion>,
    ) {
        self.dispatcher.dispatch_put(key, size, arrival, seq, reply);
    }

    /// Dispatches `op` on the handle's own reply channel and waits for
    /// its completion; a refusal becomes
    /// [`EngineError::ShardUnavailable`].
    fn wait(&self, key: u64, op: Op, now: Nanos) -> Result<Completion, EngineError> {
        let (tx, rx) = &self.reply;
        self.dispatcher.dispatch(key, op, now, 0, tx);
        // Cannot disconnect (`tx` lives as long as `rx`) and cannot
        // block forever: a worker answers every request it accepts.
        let c = rx.recv().expect("the handle holds a reply sender");
        match c.kind {
            CompletionKind::Unavailable { shard } => Err(EngineError::ShardUnavailable { shard }),
            _ => Ok(c),
        }
    }

    /// Looks up `key` arriving at virtual time `now` — a
    /// [`Dispatcher::dispatch_lookup`] this call waits out, so it
    /// observes every request dispatched from this thread before it.
    /// [`GetOutcome::done_at`] includes any admission wait.
    ///
    /// If the owning shard is dead (its engine failed fatally or
    /// panicked, on this request or an earlier one), returns
    /// [`EngineError::ShardUnavailable`] instead of hanging.
    pub fn try_get(&self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        let c = self.wait(key, Op::Lookup, now)?;
        let CompletionKind::Get {
            hit,
            set_reads,
            flash_reads,
        } = c.kind
        else {
            unreachable!("a lookup completes as a get")
        };
        Ok(GetOutcome {
            hit,
            done_at: c.done,
            flash_reads,
            set_reads,
        })
    }

    /// Inserts and waits, returning the foreground completion time
    /// reported by the owning shard's engine — or
    /// [`EngineError::ShardUnavailable`] if the owning shard is dead.
    pub fn try_put(&self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        Ok(self.wait(key, Op::Put { size }, now)?.done)
    }

    /// Sends one control command to every shard, then collects the
    /// answers in shard order. A dead shard drops the reply sender and
    /// yields `None`; the fleet carries on around it.
    fn ask_all<T>(&self, cmd: impl Fn(Sender<T>) -> Command) -> Vec<Option<T>> {
        let replies: Vec<Receiver<T>> = self
            .dispatcher
            .senders
            .iter()
            .map(|tx| {
                let (reply, rx) = channel();
                tx.send(cmd(reply)).expect("shard worker alive");
                rx
            })
            .collect();
        replies.into_iter().map(|rx| rx.recv().ok()).collect()
    }

    /// Forces every shard's in-memory engine buffers to flash and waits
    /// for all live shards to acknowledge.
    pub fn drain(&self, now: Nanos) {
        self.ask_all(|reply| Command::Drain { now, reply });
    }

    /// Live per-shard counters, indexed by shard id, covering every
    /// request dispatched from this thread so far. A dead shard reports
    /// zeroed counters (its engine is unreachable until [`Self::finish`]
    /// hands it back).
    pub fn shard_stats(&self) -> Vec<EngineStats> {
        self.ask_all(|reply| Command::Stats { reply })
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect()
    }

    /// Live aggregate counters across all shards.
    ///
    /// Note: counters for work still sitting in engine *internal* buffers
    /// (e.g. Nemo's in-memory SGs) are whatever the engines report live;
    /// call [`Self::drain`] first — or use [`Self::finish`] — for final,
    /// fully-flushed numbers.
    pub fn stats(&self) -> EngineStats {
        EngineStats::merge_all(&self.shard_stats())
    }

    /// Aggregate metadata memory across all shards.
    pub fn memory(&self) -> MemoryBreakdown {
        let parts: Vec<MemoryBreakdown> = self
            .ask_all(|reply| Command::Memory { reply })
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
        MemoryBreakdown::merge_all(&parts)
    }

    /// Ends the run: drains every shard at virtual time `now`, reads the
    /// final post-drain counters, shuts the workers down and hands the
    /// engines back.
    ///
    /// Draining *before* the final read is load-bearing: engines buffer
    /// writes in memory (Nemo's in-memory SGs, the log baseline's open
    /// page), and reading WA without draining under-reports flash traffic.
    pub fn finish(mut self, now: Nanos) -> ShardedReport<E> {
        self.drain(now);
        let per_shard = self.shard_stats();
        let memory = self.memory();
        let stats = EngineStats::merge_all(&per_shard);
        // Hang up so the workers fall out of their receive loops, then
        // collect the engines. Drop sees empty vectors and does nothing.
        self.dispatcher.lanes.clear();
        self.dispatcher.senders.clear();
        let engines = std::mem::take(&mut self.workers)
            .into_iter()
            .map(|w| {
                let shard = w.join().expect("shard worker panicked");
                // A worker returns once every sender is gone, and every
                // clone drops its shards before its senders.
                Arc::into_inner(shard)
                    .expect("no dispatcher outlives the workers")
                    .into_engine()
            })
            .collect();
        ShardedReport {
            stats,
            per_shard,
            memory,
            engines,
        }
    }
}

impl<E: CacheEngine + 'static> Drop for ShardedCache<E> {
    fn drop(&mut self) {
        // Hang up and reap the worker threads so a dropped front-end
        // never leaks detached threads.
        self.dispatcher.lanes.clear();
        self.dispatcher.senders.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A sharded front-end is itself a [`CacheEngine`], so every harness that
/// drives engines through the trait — the bench loops, the cross-engine
/// tests — can drive a shard fleet unchanged. Operations wait on the
/// owning shard; `stats`/`memory` aggregate. The provided panicking
/// `get`/`put` come from the trait, as for every engine.
impl<E: CacheEngine + 'static> CacheEngine for ShardedCache<E> {
    /// The wrapped engine's name (shards are homogeneous).
    fn name(&self) -> &'static str {
        self.name
    }

    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        ShardedCache::try_get(self, key, now)
    }

    fn try_put(&mut self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        ShardedCache::try_put(self, key, size, now)
    }

    fn stats(&self) -> EngineStats {
        ShardedCache::stats(self)
    }

    fn memory(&self) -> MemoryBreakdown {
        ShardedCache::memory(self)
    }

    fn drain(&mut self, now: Nanos) {
        ShardedCache::drain(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_baselines::LogCacheConfig;
    use std::time::Duration;

    fn small_sharded(shards: usize) -> ShardedCache<nemo_baselines::LogCache> {
        ShardedCacheBuilder::new(shards).spawn(LogCacheConfig::small().factory())
    }

    #[test]
    fn get_put_roundtrip_across_shards() {
        let mut cache = small_sharded(3);
        for key in 0..300u64 {
            cache.put(key, 200, Nanos::ZERO);
        }
        for key in 0..300u64 {
            assert!(cache.get(key, Nanos::ZERO).hit, "key {key} lost");
        }
        let stats = cache.stats();
        assert_eq!(stats.puts, 300);
        assert_eq!(stats.gets, 300);
        assert_eq!(stats.hits, 300);
    }

    #[test]
    fn finish_returns_one_engine_per_shard() {
        let mut cache = small_sharded(4);
        for key in 0..100u64 {
            cache.put(key, 200, Nanos::ZERO);
        }
        let report = cache.finish(Nanos::ZERO);
        assert_eq!(report.engines.len(), 4);
        assert_eq!(report.per_shard.len(), 4);
        assert_eq!(report.stats.puts, 100);
        // Every shard took some of the uniform key range.
        for (shard, s) in report.per_shard.iter().enumerate() {
            assert!(s.puts > 0, "shard {shard} idle");
        }
        // The report's aggregate equals re-merging the per-shard stats.
        assert_eq!(report.stats, EngineStats::merge_all(&report.per_shard));
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let mut cache = small_sharded(2);
        cache.put(1, 200, Nanos::ZERO);
        drop(cache); // must not hang or leak
    }

    #[test]
    fn trait_object_usage() {
        let mut cache: Box<dyn CacheEngine> = Box::new(small_sharded(2));
        cache.put(9, 250, Nanos::ZERO);
        assert!(cache.get(9, Nanos::ZERO).hit);
        assert_eq!(cache.name(), "log");
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panics() {
        ShardedCacheBuilder::new(0);
    }

    #[test]
    fn dispatcher_lookup_does_not_demand_fill() {
        let cache = small_sharded(2);
        let dispatcher = cache.dispatcher();
        let (tx, rx) = channel();
        dispatcher.dispatch_lookup(42, Nanos::ZERO, 1, &tx);
        let c = rx.recv().unwrap();
        assert_eq!(c.seq, 1);
        assert!(matches!(c.kind, CompletionKind::Get { hit: false, .. }));
        // The miss must not have inserted anything (unlike dispatch_get).
        let stats = cache.stats();
        assert_eq!(stats.gets, 1);
        assert_eq!(stats.puts, 0);
        // A put through the dispatcher, then a hit.
        dispatcher.dispatch_put(42, 200, Nanos::ZERO, 2, &tx);
        assert!(matches!(rx.recv().unwrap().kind, CompletionKind::Put));
        dispatcher.dispatch_lookup(42, Nanos::ZERO, 3, &tx);
        assert!(matches!(
            rx.recv().unwrap().kind,
            CompletionKind::Get { hit: true, .. }
        ));
    }

    #[test]
    fn dispatcher_clones_share_the_fleet_across_threads() {
        let cache = small_sharded(4);
        let dispatcher = cache.dispatcher();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let d = dispatcher.clone();
                std::thread::spawn(move || {
                    let (tx, rx) = channel();
                    for i in 0..100u64 {
                        d.dispatch_put(t * 1000 + i, 180, Nanos::ZERO, i, &tx);
                    }
                    for _ in 0..100 {
                        rx.recv().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().puts, 400);
    }

    #[test]
    fn command_is_no_larger_than_a_lone_op() {
        // Every command is copied through the shard's queue, so the
        // control commands must not grow it. 48 = key + op + arrival +
        // seq + a 16-byte `Sender`, the enum's tag in `Op`'s spare values.
        assert_eq!(std::mem::size_of::<Command>(), 48);
    }

    /// An engine whose gets always panic, killing its shard.
    #[derive(Default)]
    struct Bomb {
        puts: u64,
    }
    impl CacheEngine for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn try_get(&mut self, _key: u64, _now: Nanos) -> Result<GetOutcome, EngineError> {
            panic!("engine invariant violated");
        }
        fn try_put(&mut self, _key: u64, _size: u32, now: Nanos) -> Result<Nanos, EngineError> {
            self.puts += 1;
            Ok(now)
        }
        fn stats(&self) -> EngineStats {
            EngineStats {
                puts: self.puts,
                ..EngineStats::default()
            }
        }
        fn memory(&self) -> MemoryBreakdown {
            MemoryBreakdown::default()
        }
    }

    #[test]
    fn drop_after_worker_death_does_not_abort() {
        let mut cache = ShardedCacheBuilder::new(2).spawn(|_| Bomb::default());
        // The get's engine panics; the supervisor converts that into a
        // typed unavailable error, which the panicking wrapper surfaces.
        let attempt =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.get(7, Nanos::ZERO)));
        assert!(attempt.is_err(), "bomb shard should be unavailable");
        // Dropping a fleet with a dead shard must not double-panic into
        // an abort (which would fail this whole test binary).
        drop(cache);
    }

    #[test]
    fn timed_op_on_a_panicking_engine_completes_unavailable() {
        // The op that *kills* the shard must be answered too, not only
        // the ops that find it dead: a dropped reply sender leaves a
        // caller that still holds its own sender (a wire connection)
        // waiting forever.
        let cache = ShardedCacheBuilder::new(2).spawn(|_| Bomb::default());
        let dispatcher = cache.dispatcher();
        let dead = dispatcher.shard_of(7);
        let (tx, rx) = channel();
        dispatcher.dispatch_lookup(7, Nanos(5), 41, &tx);
        let c = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the op whose engine panicked is still answered");
        assert_eq!((c.seq, c.arrival), (41, Nanos(5)));
        assert!(matches!(c.kind, CompletionKind::Unavailable { shard } if shard == dead));
        // So is a demand-fill get, by the now-dead shard.
        dispatcher.dispatch_get(7, 100, Nanos(6), 42, &tx);
        let c = rx.recv_timeout(Duration::from_secs(2)).expect("refusal");
        assert!(matches!(c.kind, CompletionKind::Unavailable { shard } if shard == dead));
        assert_eq!(cache.fleet_health()[dead], ShardHealth::Dead);
    }

    #[test]
    fn wave_whose_engine_panics_is_answered_whole_and_the_next_is_refused() {
        let cache = ShardedCacheBuilder::new(2).spawn(|_| Bomb::default());
        let dispatcher = cache.dispatcher();
        let dead = dispatcher.shard_of(7);
        let mut wave = Wave::default();
        wave.push_put(7, 100, Nanos(1));
        wave.push_put(7, 100, Nanos(2));
        wave.push_lookup(7, Nanos(3)); // the bomb
        wave.push_put(7, 100, Nanos(4));
        wave.push_get(7, 100, Nanos(5));
        // The engine panics on this thread, and the wave still returns.
        dispatcher.run_wave(dead, &mut wave);
        let refused = CompletionKind::Unavailable { shard: dead };
        let kinds: Vec<_> = wave.done().iter().map(|c| c.kind).collect();
        let put = CompletionKind::Put;
        assert_eq!(kinds, [put, put, refused, refused, refused]);
        for (i, c) in wave.done().iter().enumerate() {
            assert_eq!((c.seq, c.arrival), (i as u64, Nanos(i as u64 + 1)));
        }
        // The shard is dead now: the next wave is refused whole, the
        // put the engine would have served included.
        wave.clear();
        wave.push_put(7, 100, Nanos(6));
        wave.push_lookup(7, Nanos(7));
        dispatcher.run_wave(dead, &mut wave);
        let kinds: Vec<_> = wave.done().iter().map(|c| c.kind).collect();
        assert_eq!(kinds, [refused, refused]);
        assert_eq!(cache.fleet_health()[dead], ShardHealth::Dead);
        // So is a request queued for the shard's worker.
        let (tx, rx) = channel();
        dispatcher.dispatch_put(7, 100, Nanos(8), 9, &tx);
        let c = rx.recv_timeout(Duration::from_secs(2)).expect("refusal");
        assert_eq!(c.kind, refused);
        drop(dispatcher);
        let report = cache.finish(Nanos::ZERO);
        assert_eq!(report.engines[dead].puts, 2, "nothing ran past the bomb");
    }

    /// An engine that serves, but panics when asked for its counters.
    struct StatsBomb;
    impl CacheEngine for StatsBomb {
        fn name(&self) -> &'static str {
            "stats-bomb"
        }
        fn try_get(&mut self, _key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
            Ok(GetOutcome::memory_miss(now))
        }
        fn try_put(&mut self, _key: u64, _size: u32, now: Nanos) -> Result<Nanos, EngineError> {
            Ok(now)
        }
        fn stats(&self) -> EngineStats {
            panic!("counters corrupted");
        }
        fn memory(&self) -> MemoryBreakdown {
            MemoryBreakdown::default()
        }
    }

    #[test]
    fn a_panicking_health_check_kills_the_shard_not_the_caller() {
        let cache = ShardedCacheBuilder::new(2).spawn(|_| StatsBomb);
        let dispatcher = cache.dispatcher();
        let (on_wave, on_worker) = (dispatcher.shard_of(7), 1 - dispatcher.shard_of(7));
        let key_on_worker = (0..).find(|&k| dispatcher.shard_of(k) == on_worker);
        let key_on_worker = key_on_worker.expect("both shards own keys");
        // Run on this thread: the put is served, then the health check
        // after the wave panics inside the engine.
        let mut wave = Wave::default();
        wave.push_put(7, 100, Nanos(1));
        dispatcher.run_wave(on_wave, &mut wave);
        assert_eq!(wave.done()[0].kind, CompletionKind::Put);
        assert_eq!(cache.fleet_health()[on_wave], ShardHealth::Dead);
        wave.clear();
        wave.push_lookup(7, Nanos(2));
        dispatcher.run_wave(on_wave, &mut wave);
        let refused = CompletionKind::Unavailable { shard: on_wave };
        assert_eq!(wave.done()[0].kind, refused);
        // Run by the worker: the same, and the worker lives on to refuse.
        let (tx, rx) = channel();
        dispatcher.dispatch_put(key_on_worker, 100, Nanos(3), 0, &tx);
        let c = rx.recv_timeout(Duration::from_secs(2)).expect("served");
        assert_eq!(c.kind, CompletionKind::Put);
        dispatcher.dispatch_put(key_on_worker, 100, Nanos(4), 1, &tx);
        let c = rx.recv_timeout(Duration::from_secs(2)).expect("refusal");
        assert_eq!(c.kind, CompletionKind::Unavailable { shard: on_worker });
        assert_eq!(cache.fleet_health(), [ShardHealth::Dead; 2]);
        drop(dispatcher);
        let report = cache.finish(Nanos::ZERO);
        assert_eq!(report.engines.len(), 2, "dead engines are still returned");
    }

    #[test]
    fn a_poisoned_shard_lock_reads_as_a_dead_shard() {
        let shard = Arc::new(Shard {
            index: 3,
            state: Mutex::new(ShardState {
                engine: Bomb::default(),
                window: InflightWindow::new(4),
            }),
            health: AtomicU8::new(HEALTH_HEALTHY),
        });
        let poisoner = Arc::clone(&shard);
        let holder = std::thread::spawn(move || {
            let _held = poisoner.state.lock();
            panic!("panic while holding the shard lock");
        });
        assert!(holder.join().is_err());
        assert!(shard.state.is_poisoned());
        let mut wave = Wave::default();
        wave.push_put(7, 100, Nanos(1));
        shard.run_wave(&mut wave);
        assert_eq!(
            wave.done()[0].kind,
            CompletionKind::Unavailable { shard: 3 }
        );
        assert_eq!(Lane::health(&*shard), ShardHealth::Dead);
        let engine = Arc::into_inner(shard).expect("sole owner").into_engine();
        assert_eq!(engine.puts, 0, "a poisoned shard serves nothing");
    }

    #[test]
    fn dead_shard_reports_typed_errors_and_health() {
        let cache = ShardedCacheBuilder::new(2).spawn(|_| Bomb::default());
        let dead = cache.shard_of(7);
        let err = cache.try_get(7, Nanos::ZERO).expect_err("bomb must die");
        assert!(matches!(err, EngineError::ShardUnavailable { shard } if shard == dead));
        // Every later request on the dead shard gets a typed refusal, not
        // a hang — synchronous and timed paths alike.
        assert!(cache.try_get(7, Nanos::ZERO).is_err());
        assert!(cache.try_put(7, 100, Nanos::ZERO).is_err());
        let (tx, rx) = channel();
        cache.dispatch_get(7, 100, Nanos::ZERO, 99, &tx);
        let c = rx.recv().expect("timed ops always complete");
        assert_eq!(c.seq, 99);
        assert!(matches!(c.kind, CompletionKind::Unavailable { shard } if shard == dead));
        // Health reflects the death; the sibling shard still serves.
        let health = cache.fleet_health();
        assert_eq!(health[dead], ShardHealth::Dead);
        let live = 1 - dead;
        assert_eq!(health[live], ShardHealth::Healthy);
        let live_key = (0..u64::MAX).find(|k| cache.shard_of(*k) == live).unwrap();
        assert!(cache.try_put(live_key, 100, Nanos::ZERO).is_ok());
        // Fleet-wide operations route around the corpse.
        cache.drain(Nanos::ZERO);
        let stats = cache.shard_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[dead], EngineStats::default());
        assert_eq!(stats[live].puts, 1);
        let report = cache.finish(Nanos::ZERO);
        assert_eq!(report.engines.len(), 2, "dead engine is still returned");
    }
}
