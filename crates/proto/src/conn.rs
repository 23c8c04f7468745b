//! Per-connection protocol loop: read, parse a pipelined wave into one
//! batch per shard, run the batches on this thread, write one batched
//! response.

use crate::parser::{parse_command, Command, Limits, ParseOutcome};
use crate::store::{map_key, synth_value, MetaStore};
use crate::wire::encode_value;
use nemo_flash::Nanos;
use nemo_metrics::ProtoStats;
use nemo_service::{CompletionKind, Dispatcher, Wave};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How the server stamps virtual time onto dispatched engine
/// operations.
#[derive(Debug, Clone, Copy)]
pub enum ClockMode {
    /// Wall-clock nanoseconds since server start — what a deployed
    /// server uses, and what makes measured (RealFlash) completion
    /// times meaningful.
    Wall,
    /// A global tick counter advancing `gap` nanoseconds per engine
    /// operation, mirroring the in-process open-loop driver's
    /// virtual-time arrivals. Engine aggregates are timestamp-
    /// independent (the determinism suite proves it), so this mode
    /// exists to make *latency outputs* on modeled backends
    /// reproducible, and to mirror `OpenLoopReplay` exactly in the
    /// parity tests.
    Virtual {
        /// Nanoseconds between consecutive operation stamps.
        gap: u64,
    },
}

/// The server's operation clock (see [`ClockMode`]).
#[derive(Debug)]
pub struct ServerClock {
    mode: ClockMode,
    start: Instant,
    ticks: AtomicU64,
}

impl ServerClock {
    pub(crate) fn new(mode: ClockMode) -> Self {
        Self {
            mode,
            start: Instant::now(),
            ticks: AtomicU64::new(0),
        }
    }

    /// The timestamp for the next dispatched engine operation.
    pub fn now(&self) -> Nanos {
        match self.mode {
            ClockMode::Wall => Nanos(self.start.elapsed().as_nanos() as u64),
            ClockMode::Virtual { gap } => Nanos(self.ticks.fetch_add(gap, Ordering::Relaxed) + gap),
        }
    }
}

/// Everything a connection handler shares with the server.
pub(crate) struct ConnShared {
    pub dispatcher: Dispatcher,
    pub meta: Arc<MetaStore>,
    pub clock: Arc<ServerClock>,
    pub limits: Limits,
    pub shutdown: Arc<AtomicBool>,
}

/// Where one engine operation of the current wave went: its request is
/// number `idx` of `waves[shard]`, and so is its completion once the
/// wave has run.
#[derive(Clone, Copy)]
struct Slot {
    shard: usize,
    idx: usize,
}

/// One requested key of a `get`: its wire bytes as a range of the read
/// buffer, its engine key, and its lookup.
struct GetKey {
    wire: Range<usize>,
    engine_key: u64,
    slot: Slot,
}

/// An in-order response slot for one parsed command. Engine-bound
/// commands point at the operations their rendering reads; everything
/// else is pre-rendered.
enum PendingReply {
    /// Response bytes known at parse time (version, protocol errors).
    Immediate(&'static str),
    /// A `get`/`gets`: one engine lookup per key — `keys` is its range
    /// of the wave's key list — rendered as `VALUE` blocks plus `END`.
    Get { keys: Range<usize>, cas: bool },
    /// A `set`: `STORED` unless `noreply`. Its metadata is recorded as
    /// it is rendered, once its put has run and only if the shard served
    /// it, so a reply rendered before it — an earlier `get` of the same
    /// key in this wave — still reads the version that get found.
    Set {
        slot: Slot,
        engine_key: u64,
        flags: u32,
        vlen: u32,
        noreply: bool,
    },
}

/// The wave of the shard `engine_key` routes to, and the slot its next
/// request will take.
fn next_slot<'w>(
    waves: &'w mut [Wave],
    dispatcher: &Dispatcher,
    engine_key: u64,
) -> (&'w mut Wave, Slot) {
    let shard = dispatcher.shard_of(engine_key);
    let wave = &mut waves[shard];
    let idx = wave.len();
    (wave, Slot { shard, idx })
}

/// The position of `part` inside `buf`, which it was sliced from.
fn range_in(buf: &[u8], part: &[u8]) -> Range<usize> {
    let start = part.as_ptr() as usize - buf.as_ptr() as usize;
    start..start + part.len()
}

/// Runs one connection to completion. Returns the connection's
/// protocol counters.
///
/// Every buffer below lives as long as the connection and is reused
/// wave after wave, so in steady state a request costs no allocation:
/// its key stays in the read buffer (drained only after the wave is
/// rendered), its engine operation is one entry of a per-shard
/// [`Wave`], and its value is synthesized into one scratch buffer.
pub(crate) fn handle_conn(mut stream: TcpStream, shared: &ConnShared) -> ProtoStats {
    let mut ps = ProtoStats {
        connections: 1,
        ..Default::default()
    };
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = vec![0u8; 16 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut value: Vec<u8> = Vec::new();
    let mut pending: Vec<PendingReply> = Vec::new();
    let mut get_keys: Vec<GetKey> = Vec::new();
    let mut waves: Vec<Wave> = (0..shared.dispatcher.shards())
        .map(|_| Wave::default())
        .collect();

    'conn: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break 'conn, // client closed
            Ok(n) => {
                ps.bytes_in += n as u64;
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Read timeout: the shutdown poll point. Every prior
                // wave was fully serviced, so draining is trivial.
                if shared.shutdown.load(Ordering::Relaxed) {
                    break 'conn;
                }
                continue 'conn;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue 'conn,
            Err(_) => break 'conn,
        }

        // Parse one pipelined wave: every complete frame currently
        // buffered becomes an entry of its shard's wave, stamped in
        // request order.
        let mut off = 0;
        let mut closing = false;
        // A miss rendered below may only collect metadata that predates
        // this wave: a `set` whose put ran after the lookup (later in
        // this wave, or on another connection) records its entry after
        // that put, with a cas above this floor.
        let cas_floor = shared.meta.cas_floor();
        loop {
            match parse_command(&buf[off..], &shared.limits) {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Cmd(cmd, consumed) => {
                    off += consumed;
                    ps.commands += 1;
                    match cmd {
                        Command::Get { keys, cas } => {
                            ps.get_cmds += 1;
                            let first = get_keys.len();
                            for key in keys.iter() {
                                ps.get_keys += 1;
                                let engine_key = map_key(key);
                                let (wave, slot) =
                                    next_slot(&mut waves, &shared.dispatcher, engine_key);
                                wave.push_lookup(engine_key, shared.clock.now());
                                get_keys.push(GetKey {
                                    wire: range_in(&buf, key),
                                    engine_key,
                                    slot,
                                });
                            }
                            pending.push(PendingReply::Get {
                                keys: first..get_keys.len(),
                                cas,
                            });
                        }
                        Command::Set(set) => {
                            ps.set_cmds += 1;
                            if set.noreply {
                                ps.noreply_sets += 1;
                            }
                            let engine_key = map_key(set.key);
                            let (wave, slot) =
                                next_slot(&mut waves, &shared.dispatcher, engine_key);
                            wave.push_put(
                                engine_key,
                                (set.key.len() + set.data.len()) as u32,
                                shared.clock.now(),
                            );
                            pending.push(PendingReply::Set {
                                slot,
                                engine_key,
                                flags: set.flags,
                                vlen: set.data.len() as u32,
                                noreply: set.noreply,
                            });
                        }
                        Command::Version => {
                            let line =
                                concat!("VERSION nemo-proto ", env!("CARGO_PKG_VERSION"), "\r\n");
                            pending.push(PendingReply::Immediate(line));
                        }
                        Command::Quit => {
                            closing = true;
                            break;
                        }
                    }
                }
                ParseOutcome::Error(err, consumed) => {
                    off += consumed;
                    ps.protocol_errors += 1;
                    pending.push(PendingReply::Immediate(err.reply()));
                }
                ParseOutcome::Fatal(err) => {
                    ps.fatal_errors += 1;
                    pending.push(PendingReply::Immediate(err.reply()));
                    closing = true;
                    break;
                }
            }
        }

        // Run each shard's share of the wave on this thread, one shard
        // after the other, with that shard locked: no message, no
        // wake-up. Every request is answered, dead engine or not.
        for (shard, wave) in waves.iter_mut().enumerate() {
            if !wave.is_empty() {
                shared.dispatcher.run_wave(shard, wave);
            }
        }
        let completion = |slot: Slot| waves[slot.shard].done()[slot.idx].kind;

        // Render the wave's responses in request order and flush them
        // with one write.
        out.clear();
        for reply in pending.drain(..) {
            match reply {
                PendingReply::Immediate(bytes) => out.extend_from_slice(bytes.as_bytes()),
                PendingReply::Get { keys, cas } => {
                    // If any shard refused its key, the whole command is
                    // answered with one SERVER_ERROR line: memcached has
                    // no per-key error syntax inside a VALUE stream.
                    let keys = &get_keys[keys];
                    if keys
                        .iter()
                        .any(|k| matches!(completion(k.slot), CompletionKind::Unavailable { .. }))
                    {
                        ps.server_errors += 1;
                        out.extend_from_slice(b"SERVER_ERROR shard unavailable\r\n");
                        continue;
                    }
                    for key in keys {
                        let hit =
                            matches!(completion(key.slot), CompletionKind::Get { hit: true, .. });
                        // An engine hit whose metadata is gone is a miss
                        // on the wire: the object was not `set` through
                        // this server (a pre-seeded or reopened fleet),
                        // or the `set` that stored it has not rendered
                        // its reply yet; its flags and length are
                        // unknown either way.
                        match hit.then(|| shared.meta.get(key.engine_key)).flatten() {
                            Some(meta) => {
                                ps.wire_hits += 1;
                                value.clear();
                                synth_value(&mut value, key.engine_key, meta.vlen as usize);
                                encode_value(
                                    &mut out,
                                    &buf[key.wire.clone()],
                                    meta.flags,
                                    cas.then_some(meta.cas),
                                    &value,
                                );
                            }
                            None => {
                                ps.wire_misses += 1;
                                if !hit {
                                    shared.meta.forget(key.engine_key, cas_floor);
                                }
                            }
                        }
                    }
                    out.extend_from_slice(b"END\r\n");
                }
                PendingReply::Set {
                    slot,
                    engine_key,
                    flags,
                    vlen,
                    noreply,
                } => {
                    let refused = matches!(completion(slot), CompletionKind::Unavailable { .. });
                    if refused {
                        ps.server_errors += 1;
                    } else {
                        shared.meta.insert(engine_key, flags, vlen);
                    }
                    if !noreply {
                        out.extend_from_slice(if refused {
                            b"SERVER_ERROR shard unavailable\r\n".as_slice()
                        } else {
                            b"STORED\r\n"
                        });
                    }
                }
            }
        }
        if !out.is_empty() {
            ps.bytes_out += out.len() as u64;
            if stream.write_all(&out).is_err() {
                break 'conn;
            }
        }
        if closing {
            break 'conn;
        }
        // The keys rendered above were ranges of `buf`: consume the
        // wave's bytes only now.
        buf.drain(..off);
        get_keys.clear();
        for wave in &mut waves {
            wave.clear();
        }
    }
    // Every wave ran to completion before its reply was written, so no
    // shard holds anything of this connection's.
    ps.connections_closed = 1;
    ps
}
