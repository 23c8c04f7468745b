//! The sharded front-end: one engine per shard behind one lock, served
//! on whichever thread issues the request.
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
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, PoisonError};

/// Health of one shard, reported by [`ShardedCache::fleet_health`] /
/// [`Dispatcher::fleet_health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally; no device faults absorbed so far.
    Healthy,
    /// Still serving, but the engine has absorbed device faults (retries,
    /// quarantined zones or fault-induced misses are non-zero).
    Degraded,
    /// The engine failed fatally (typed [`EngineError`] or panic). The
    /// shard now refuses requests with typed unavailable replies instead
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
    /// ([`Dispatcher::dispatch_get`]) the shard also ran the fill, which
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

/// One request as its shard sees it: what to do, to which key, arriving
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
/// is exactly its requests dispatched back to back — minus, per
/// request, one take of the shard lock and a reply send. The
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
    /// A front-end with `shards` shards and an in-flight window of 16
    /// per shard.
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

    /// Builds the fleet; starts no thread. `factory(shard)` builds the
    /// engine of shard `shard` on the calling thread, so it needs no
    /// `Send`/`Sync` bounds of its own.
    pub fn spawn<E, F>(self, mut factory: F) -> ShardedCache<E>
    where
        E: CacheEngine + 'static,
        F: FnMut(usize) -> E,
    {
        let mut name = "sharded";
        let shards: Vec<Arc<Shard<E>>> = (0..self.shards)
            .map(|index| {
                let engine = factory(index);
                name = engine.name();
                Arc::new(Shard {
                    index,
                    state: Mutex::new(ShardState {
                        engine,
                        window: InflightWindow::new(self.inflight),
                    }),
                    health: AtomicU8::new(HEALTH_HEALTHY),
                })
            })
            .collect();
        let lanes = shards
            .iter()
            .map(|shard| Arc::clone(shard) as Arc<dyn Lane>)
            .collect();
        ShardedCache {
            name,
            shards,
            dispatcher: Dispatcher { lanes },
        }
    }
}

/// What serving one request needs of its shard: the engine, and the
/// in-flight window that admits requests to it.
struct ShardState<E> {
    engine: E,
    window: InflightWindow,
}

/// One shard as the fleet shares it between every thread that issues
/// requests to it: the serving state behind the one lock, and the health
/// flag, which anyone may read without it.
///
/// Locking: a thread holds at most one shard lock at a time and calls
/// nothing that waits on another thread while holding it (reply sends
/// go to unbounded channels), so no two threads can wait on each other.
/// An engine panic is caught inside the lock ([`guarded`]) and so never
/// poisons it; a poisoned lock — a panic outside any engine call — reads
/// as a [`ShardHealth::Dead`] shard.
///
/// Supervision: a fatal [`EngineError`] or a panic on any engine call —
/// a request, the health check, a control call — marks the shard
/// [`ShardHealth::Dead`] before the lock is released. The request that
/// killed it completes as [`CompletionKind::Unavailable`], and so does
/// every later one; a control call on a dead shard reports nothing. The
/// engine survives for post-mortem inspection via
/// [`ShardedCache::finish`].
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

    /// Runs one fleet-control call (drain, stats, memory) on the engine
    /// under the shard lock, guarded like a request: `None` if the shard
    /// is dead, or died making the call.
    fn control<T>(&self, call: impl FnOnce(&mut E) -> T) -> Option<T> {
        let mut answer = None;
        self.run_locked([call], |state, call| {
            let Some(state) = state else { return true };
            answer = guarded(|| call(&mut state.engine));
            answer.is_some()
        });
        answer
    }

    /// Promotes Healthy → Degraded once the engine reports absorbed
    /// faults; checked once per lock taken — a request, a wave or a
    /// control call. The engine's `stats` runs guarded like every other
    /// engine call, because the calling thread is the client's: a panic
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
    /// Serves one request with the shard locked: the one routine behind
    /// every `dispatch_*` call and every waited call.
    fn run_one(&self, request: Request, seq: u64) -> Completion;
    /// [`Dispatcher::run_wave`] on this shard.
    fn run_wave(&self, wave: &mut Wave);
    /// The shard's current health.
    fn health(&self) -> ShardHealth;
}

impl<E: CacheEngine> Lane for Shard<E> {
    fn run_one(&self, request: Request, seq: u64) -> Completion {
        let mut answer = Completion::refused(seq, request.arrival, self.index);
        self.run_locked([request], |state, request| {
            let Some(state) = state else { return true };
            let (completion, alive) = run_op(state, self.index, request, seq);
            answer = completion;
            alive
        });
        answer
    }

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
        if self.slots.len() < self.inflight {
            return arrival;
        }
        // A full window (`inflight > 0`) always has a slot to free.
        let freed = self.slots.pop().map_or(arrival, |std::cmp::Reverse(t)| t);
        arrival.max(freed)
    }

    /// Records a started operation's completion time.
    fn complete(&mut self, done: Nanos) {
        self.slots.push(std::cmp::Reverse(done));
    }
}

/// Runs one engine call; `None` if it panicked.
fn guarded<T>(call: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(call)).ok()
}

/// Admits one request through the window and serves it; `false` means
/// the engine died doing it. The one routine behind a lone request and
/// every request of a [`Wave`].
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

/// Serves one admitted request at virtual time `start`, then runs one
/// bounded slice of deferred engine maintenance (e.g. Nemo's write-back
/// scan) at its completion time. Foreground first in call order means
/// foreground flash operations claim the device dies first at any given
/// timestamp, and tying slices to the request stream (never to
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
/// Every request runs on the thread that issues it, through one routine
/// under its shard's lock: admission through the in-flight window
/// ([`ShardedCacheBuilder::inflight`]), the engine call, one bounded
/// background slice. A `dispatch_*` call runs one request and sends its
/// one [`Completion`] on the `reply` channel it was given before it
/// returns — also when the engine fails fatally or panics serving it
/// ([`CompletionKind::Unavailable`]). [`Self::run_wave`] runs a
/// caller-built batch of one shard's requests under one take of the
/// lock and leaves the completions in the [`Wave`].
///
/// Ordering: a thread's requests to a shard are applied in its call
/// order, whichever call made them. Interleaving *across* threads is
/// whatever they race to for the lock — callers needing a deterministic
/// global order must drive the fleet from a single thread. Parallel
/// service comes from parallel callers: two threads on two shards run at
/// once, two on one shard take turns.
#[derive(Clone)]
pub struct Dispatcher {
    lanes: Vec<Arc<dyn Lane>>,
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
        self.lanes.len()
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_of(key, self.lanes.len())
    }

    /// Current health of every shard, indexed by shard id: `Healthy`
    /// until the engine first reports absorbed faults (retries,
    /// quarantines, fault-induced misses), `Degraded` after, `Dead` once
    /// a fatal engine error or panic kills the shard. Lock-free; safe to
    /// poll from connection handlers.
    pub fn fleet_health(&self) -> Vec<ShardHealth> {
        self.lanes.iter().map(|lane| lane.health()).collect()
    }

    /// Runs one request on its shard and returns its completion.
    fn run(&self, key: u64, op: Op, arrival: Nanos, seq: u64) -> Completion {
        self.lanes[self.shard_of(key)].run_one(Request { key, op, arrival }, seq)
    }

    fn dispatch(&self, key: u64, op: Op, arrival: Nanos, seq: u64, reply: &Sender<Completion>) {
        // A send fails only if the caller dropped its receiver; the
        // request has run either way, so that is harmless.
        let _ = reply.send(self.run(key, op, arrival, seq));
    }

    /// Runs every request of `wave` on `shard` on the calling thread,
    /// with the shard locked once: in push order, each exactly as the
    /// `dispatch_*` call of its kind would run it (admission, service,
    /// one background slice), leaving one [`Completion`] per request in
    /// [`Wave::done`] — also when the engine dies part-way (the rest of
    /// the wave completes [`CompletionKind::Unavailable`]) or had died
    /// before (all of it does). An engine panic is caught and never
    /// reaches the caller. Routing is the caller's: every key pushed must
    /// satisfy `shard_of(key) == shard`.
    pub fn run_wave(&self, shard: usize, wave: &mut Wave) {
        debug_assert!(
            wave.ops.iter().all(|r| self.shard_of(r.key) == shard),
            "a wave holds keys of one shard"
        );
        self.lanes[shard].run_wave(wave);
    }

    /// Runs a lookup *without* demand fill on the calling thread: admits
    /// it through the owning shard's in-flight window
    /// ([`ShardedCacheBuilder::inflight`]), services it, runs one
    /// background slice, and sends its [`Completion`] on `reply` before
    /// returning; a miss leaves the cache untouched. This is the
    /// wire-protocol `get` — whether to insert after a miss is the
    /// remote client's call, not the cache's.
    pub fn dispatch_lookup(&self, key: u64, arrival: Nanos, seq: u64, reply: &Sender<Completion>) {
        self.dispatch(key, Op::Lookup, arrival, seq, reply);
    }

    /// Runs a lookup that, on a miss, inserts `fill_size` bytes at the
    /// miss's completion time under the same take of the shard lock —
    /// the demand-fill policy the paper's replays use — and sends its
    /// [`Completion`] on `reply` before returning.
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

    /// Runs an insert, admitted through the same window, and sends its
    /// [`Completion`] on `reply` before returning.
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
/// [`CacheEngine`] (and its simulated device) behind its own lock.
/// Requests route to shards by key hash ([`crate::shard_of`]), so shard
/// state is disjoint: a shard's lock is contended only by threads
/// issuing requests to that shard, and a thread holds at most one shard
/// lock at a time. The fleet starts no thread of its own.
///
/// This is the shard-per-core pattern production flash caches deploy
/// (CacheLib partitions its small-object cache the same way and runs
/// requests on the caller's thread; the paper's Nemo adds dedicated
/// threads only for flushing and write-back). The simulator engines stay
/// deterministic and single-threaded; concurrency lives entirely in this
/// layer.
///
/// There is one request routine. [`Self::dispatch_get`] /
/// [`Self::dispatch_put`] run the request on the calling thread and send
/// its [`Completion`] on the caller's channel before returning.
/// [`Self::try_get`] / [`Self::try_put`] run the same routine and return
/// the completion instead. A caller holding a batch of one shard's
/// requests runs it under one take of the lock
/// ([`Dispatcher::run_wave`]). [`Self::drain`], [`Self::shard_stats`]
/// and [`Self::memory`] lock each shard in turn the same way.
///
/// # Determinism contract
///
/// For a fixed request sequence and shard count, the aggregate
/// [`Self::stats`] after [`Self::drain`] — hit ratio, ALWA, every
/// counter — is identical across runs, regardless of thread scheduling
/// and of whether the caller waits per operation or collects completions
/// later. Routing is a pure function of the key, each shard applies a
/// thread's requests in that thread's call order, and shards share no
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
/// assert_eq!(rx.try_iter().count(), 100); // every op is answered
/// assert!(cache.try_get(1, Nanos::ZERO).unwrap().hit);
/// let report = cache.finish(Nanos::ZERO);
/// assert_eq!(report.stats.puts, 100);
/// ```
pub struct ShardedCache<E: CacheEngine + 'static> {
    name: &'static str,
    /// The same shards as `dispatcher`'s, with their engine type.
    shards: Vec<Arc<Shard<E>>>,
    dispatcher: Dispatcher,
}

impl<E: CacheEngine + 'static> std::fmt::Debug for ShardedCache<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("name", &self.name)
            .field("shards", &self.shards())
            .finish_non_exhaustive()
    }
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
    /// from other threads. Drop every clone before [`Self::finish`].
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

    /// Runs `op` on the calling thread; a refusal becomes
    /// [`EngineError::ShardUnavailable`].
    fn run(&self, key: u64, op: Op, now: Nanos) -> Result<Completion, EngineError> {
        let c = self.dispatcher.run(key, op, now, 0);
        match c.kind {
            CompletionKind::Unavailable { shard } => Err(EngineError::ShardUnavailable { shard }),
            _ => Ok(c),
        }
    }

    /// Looks up `key` arriving at virtual time `now` — a
    /// [`Dispatcher::dispatch_lookup`] whose completion is returned
    /// rather than sent. [`GetOutcome::done_at`] includes any admission
    /// wait.
    ///
    /// If the owning shard is dead (its engine failed fatally or
    /// panicked, on this request or an earlier one), returns
    /// [`EngineError::ShardUnavailable`].
    pub fn try_get(&self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        let c = self.run(key, Op::Lookup, now)?;
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

    /// Inserts, returning the foreground completion time reported by the
    /// owning shard's engine — or [`EngineError::ShardUnavailable`] if
    /// the owning shard is dead.
    pub fn try_put(&self, key: u64, size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        Ok(self.run(key, Op::Put { size }, now)?.done)
    }

    /// Runs one control call on every shard in shard order. A dead shard
    /// yields `None`; the fleet carries on around it.
    fn control_all<T>(&self, call: impl Fn(&mut E) -> T) -> Vec<Option<T>> {
        self.shards
            .iter()
            .map(|shard| shard.control(&call))
            .collect()
    }

    /// Forces every live shard's in-memory engine buffers to flash.
    pub fn drain(&self, now: Nanos) {
        self.control_all(|engine| engine.drain(now));
    }

    /// Live per-shard counters, indexed by shard id. A dead shard reports
    /// zeroed counters (its engine is unreachable until [`Self::finish`]
    /// hands it back).
    pub fn shard_stats(&self) -> Vec<EngineStats> {
        self.control_all(|engine| engine.stats())
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
            .control_all(|engine| engine.memory())
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect();
        MemoryBreakdown::merge_all(&parts)
    }

    /// Ends the run: drains every shard at virtual time `now`, reads the
    /// final post-drain counters and hands the engines back.
    ///
    /// Draining *before* the final read is load-bearing: engines buffer
    /// writes in memory (Nemo's in-memory SGs, the log baseline's open
    /// page), and reading WA without draining under-reports flash traffic.
    ///
    /// # Panics
    ///
    /// Panics if a clone of this fleet's [`Dispatcher`] is still alive:
    /// it shares the shards, so their engines cannot be handed back.
    pub fn finish(self, now: Nanos) -> ShardedReport<E> {
        self.drain(now);
        let per_shard = self.shard_stats();
        let memory = self.memory();
        let stats = EngineStats::merge_all(&per_shard);
        let Self {
            shards, dispatcher, ..
        } = self;
        drop(dispatcher);
        let engines = shards
            .into_iter()
            .map(|shard| match Arc::into_inner(shard) {
                Some(shard) => shard.into_engine(),
                None => panic!(
                    "ShardedCache::finish: a Dispatcher clone is still alive; \
                     drop every clone before finishing the fleet"
                ),
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

/// A sharded front-end is itself a [`CacheEngine`], so every harness that
/// drives engines through the trait — the bench loops, the cross-engine
/// tests — can drive a shard fleet unchanged. Operations run on the
/// owning shard on the calling thread; `stats`/`memory` aggregate. The provided panicking
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
    use std::sync::mpsc::channel;

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
    fn drop_without_finish_does_not_hang() {
        let mut cache = small_sharded(2);
        let dispatcher = cache.dispatcher();
        cache.put(1, 200, Nanos::ZERO);
        // Neither the fleet nor a live clone has a thread to join.
        drop(cache);
        let (tx, rx) = channel();
        dispatcher.dispatch_lookup(1, Nanos::ZERO, 0, &tx);
        let c = rx.try_recv().expect("answered");
        assert!(matches!(c.kind, CompletionKind::Get { hit: true, .. }));
    }

    #[test]
    #[should_panic(expected = "a Dispatcher clone is still alive")]
    fn finish_with_a_live_dispatcher_clone_fails_loudly() {
        let cache = small_sharded(2);
        let _clone = cache.dispatcher();
        cache.finish(Nanos::ZERO);
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
            .try_recv()
            .expect("the op whose engine panicked is still answered");
        assert_eq!((c.seq, c.arrival), (41, Nanos(5)));
        assert!(matches!(c.kind, CompletionKind::Unavailable { shard } if shard == dead));
        // So is a demand-fill get, by the now-dead shard.
        dispatcher.dispatch_get(7, 100, Nanos(6), 42, &tx);
        let c = rx.try_recv().expect("refusal");
        assert!(matches!(c.kind, CompletionKind::Unavailable { shard } if shard == dead));
        assert_eq!(cache.fleet_health()[dead], ShardHealth::Dead);
    }

    #[test]
    fn a_dispatch_is_answered_and_counted_before_it_returns() {
        let (tx, rx) = channel();
        let cache = small_sharded(2);
        let dispatcher = cache.dispatcher();
        dispatcher.dispatch_put(7, 100, Nanos(1), 1, &tx);
        assert_eq!(rx.try_recv().map(|c| c.kind), Ok(CompletionKind::Put));
        assert_eq!(cache.stats().puts, 1);
        dispatcher.dispatch_lookup(7, Nanos(2), 2, &tx);
        let kind = rx.try_recv().map(|c| c.kind);
        assert!(matches!(kind, Ok(CompletionKind::Get { hit: true, .. })));
        assert_eq!(cache.stats().gets, 1);
        // The same on a shard whose engine dies serving the lookup.
        let bombs = ShardedCacheBuilder::new(2).spawn(|_| Bomb::default());
        let dispatcher = bombs.dispatcher();
        let dead = dispatcher.shard_of(7);
        dispatcher.dispatch_put(7, 100, Nanos(1), 1, &tx);
        assert_eq!(rx.try_recv().map(|c| c.kind), Ok(CompletionKind::Put));
        assert_eq!(bombs.stats().puts, 1);
        dispatcher.dispatch_lookup(7, Nanos(2), 2, &tx);
        let refused = CompletionKind::Unavailable { shard: dead };
        assert_eq!(rx.try_recv().map(|c| c.kind), Ok(refused));
        assert_eq!(bombs.fleet_health()[dead], ShardHealth::Dead);
        assert_eq!(bombs.stats().puts, 0, "a dead shard reports nothing");
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
        // So is a dispatched request.
        let (tx, rx) = channel();
        dispatcher.dispatch_put(7, 100, Nanos(8), 9, &tx);
        let c = rx.try_recv().expect("refusal");
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
        let (on_wave, dispatched) = (dispatcher.shard_of(7), 1 - dispatcher.shard_of(7));
        let key = (0..).find(|&k| dispatcher.shard_of(k) == dispatched);
        let key = key.expect("both shards own keys");
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
        // Dispatched one at a time: the same, and the next is refused.
        let (tx, rx) = channel();
        dispatcher.dispatch_put(key, 100, Nanos(3), 0, &tx);
        assert_eq!(rx.try_recv().expect("served").kind, CompletionKind::Put);
        assert_eq!(cache.fleet_health()[dispatched], ShardHealth::Dead);
        dispatcher.dispatch_put(key, 100, Nanos(4), 1, &tx);
        let c = rx.try_recv().expect("refusal");
        assert_eq!(c.kind, CompletionKind::Unavailable { shard: dispatched });
        assert_eq!(cache.fleet_health(), [ShardHealth::Dead; 2]);
        drop(dispatcher);
        let report = cache.finish(Nanos::ZERO);
        assert_eq!(report.engines.len(), 2, "dead engines are still returned");
    }

    #[test]
    fn a_control_call_that_panics_kills_the_shard() {
        let cache = ShardedCacheBuilder::new(2).spawn(|_| StatsBomb);
        // Each shard's stats call panics: it reads as zeroed counters.
        assert_eq!(cache.shard_stats(), vec![EngineStats::default(); 2]);
        assert_eq!(cache.fleet_health(), [ShardHealth::Dead; 2]);
        let (dead, refused) = (cache.shard_of(7), cache.try_put(7, 100, Nanos(1)));
        assert!(matches!(refused, Err(EngineError::ShardUnavailable { shard }) if shard == dead));
        cache.drain(Nanos(2)); // skips the dead shards
        assert_eq!(cache.finish(Nanos(3)).engines.len(), 2);
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
