//! Per-connection protocol loop: read, parse a pipelined wave,
//! dispatch, collect completions, write one batched response.

use crate::parser::{parse_command, Command, Limits, ParseOutcome};
use crate::store::{map_key, synth_value, MetaStore};
use crate::wire::encode_value;
use nemo_flash::Nanos;
use nemo_metrics::ProtoStats;
use nemo_service::{Completion, CompletionKind, Dispatcher};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::channel;
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

/// An in-order response slot for one parsed command. Engine-bound
/// commands hold the dispatch seqs their rendering waits on;
/// everything else is pre-rendered.
enum PendingReply {
    /// Response bytes known at parse time (version, protocol errors).
    Immediate(Vec<u8>),
    /// A `get`/`gets`: one engine lookup per key, rendered as `VALUE`
    /// blocks plus `END` once every key's completion arrived.
    Get {
        /// `(wire key bytes, engine key, dispatch seq)` per key.
        keys: Vec<(Vec<u8>, u64, u64)>,
        cas: bool,
    },
    /// A `set`: `STORED` (unless `noreply`) once its completion
    /// arrived.
    Set { seq: u64, noreply: bool },
}

/// Runs one connection to completion. Returns the connection's
/// protocol counters.
pub(crate) fn handle_conn(mut stream: TcpStream, shared: &ConnShared) -> ProtoStats {
    let mut ps = ProtoStats {
        connections: 1,
        ..Default::default()
    };
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = vec![0u8; 16 * 1024];
    let mut out: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut pending: VecDeque<PendingReply> = VecDeque::new();
    let (tx, rx) = channel::<Completion>();
    let mut received: HashMap<u64, Completion> = HashMap::new();
    let mut next_seq: u64 = 0;

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

        // Parse-and-dispatch one pipelined wave: every complete frame
        // currently buffered is dispatched before any completion is
        // awaited, so this connection's whole wave is in flight across
        // the shards at once, overlapping other connections' service.
        let mut off = 0;
        let mut closing = false;
        let mut fatal = false;
        // A miss rendered below may only collect metadata that predates
        // this wave: a `set` dispatched after the lookup (later in this
        // wave, or on another connection) owns whatever it recorded.
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
                            let mut slots = Vec::with_capacity(keys.count());
                            for key in keys.iter() {
                                ps.get_keys += 1;
                                let engine_key = map_key(key);
                                next_seq += 1;
                                shared.dispatcher.dispatch_lookup(
                                    engine_key,
                                    shared.clock.now(),
                                    next_seq,
                                    &tx,
                                );
                                slots.push((key.to_vec(), engine_key, next_seq));
                            }
                            pending.push_back(PendingReply::Get { keys: slots, cas });
                        }
                        Command::Set(set) => {
                            ps.set_cmds += 1;
                            if set.noreply {
                                ps.noreply_sets += 1;
                            }
                            let engine_key = map_key(set.key);
                            // Meta goes in before the engine put is
                            // dispatched so any later hit finds it.
                            shared
                                .meta
                                .insert(engine_key, set.flags, set.data.len() as u32);
                            next_seq += 1;
                            shared.dispatcher.dispatch_put(
                                engine_key,
                                (set.key.len() + set.data.len()) as u32,
                                shared.clock.now(),
                                next_seq,
                                &tx,
                            );
                            pending.push_back(PendingReply::Set {
                                seq: next_seq,
                                noreply: set.noreply,
                            });
                        }
                        Command::Version => {
                            let line =
                                concat!("VERSION nemo-proto ", env!("CARGO_PKG_VERSION"), "\r\n");
                            pending.push_back(PendingReply::Immediate(line.into()));
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
                    pending.push_back(PendingReply::Immediate(err.reply().into()));
                }
                ParseOutcome::Fatal(err) => {
                    ps.fatal_errors += 1;
                    pending.push_back(PendingReply::Immediate(err.reply().into()));
                    closing = true;
                    fatal = true;
                    break;
                }
            }
        }
        buf.drain(..off);
        if fatal {
            // The stream is no longer delimitable; whatever is left in
            // the buffer is unparseable.
            buf.clear();
        }

        // Render the wave's responses in request order, waiting for
        // completions as needed, then flush with one write.
        out.clear();
        for reply in pending.drain(..) {
            match reply {
                PendingReply::Immediate(bytes) => out.extend_from_slice(&bytes),
                PendingReply::Get { keys, cas } => {
                    // Collect every key's completion before rendering:
                    // if any shard refused its key, the whole command is
                    // answered with one SERVER_ERROR line (memcached has
                    // no per-key error syntax inside a VALUE stream),
                    // and the seq bookkeeping stays consistent either
                    // way.
                    let completions: Vec<(Vec<u8>, u64, Completion)> = keys
                        .into_iter()
                        .map(|(wire_key, engine_key, seq)| {
                            (wire_key, engine_key, wait_for(seq, &rx, &mut received))
                        })
                        .collect();
                    if completions
                        .iter()
                        .any(|(_, _, c)| matches!(c.kind, CompletionKind::Unavailable { .. }))
                    {
                        ps.server_errors += 1;
                        out.extend_from_slice(b"SERVER_ERROR shard unavailable\r\n");
                        continue;
                    }
                    for (wire_key, engine_key, c) in completions {
                        let hit = matches!(c.kind, CompletionKind::Get { hit: true, .. });
                        if hit {
                            ps.wire_hits += 1;
                            // A hit with no metadata cannot happen through
                            // this front-end (meta precedes the put), but
                            // degrade to an empty value rather than lie
                            // about presence.
                            let meta = shared.meta.get(engine_key).unwrap_or(crate::ObjMeta {
                                flags: 0,
                                vlen: 0,
                                cas: 0,
                            });
                            let mut data = Vec::with_capacity(meta.vlen as usize);
                            synth_value(&mut data, engine_key, meta.vlen as usize);
                            encode_value(
                                &mut out,
                                &wire_key,
                                meta.flags,
                                cas.then_some(meta.cas),
                                &data,
                            );
                        } else {
                            ps.wire_misses += 1;
                            shared.meta.forget(engine_key, cas_floor);
                        }
                    }
                    out.extend_from_slice(b"END\r\n");
                }
                PendingReply::Set { seq, noreply } => {
                    let c = wait_for(seq, &rx, &mut received);
                    let refused = matches!(c.kind, CompletionKind::Unavailable { .. });
                    if refused {
                        ps.server_errors += 1;
                    }
                    if !noreply {
                        if refused {
                            out.extend_from_slice(b"SERVER_ERROR shard unavailable\r\n");
                        } else {
                            out.extend_from_slice(b"STORED\r\n");
                        }
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
    }
    // Every dispatched operation was awaited before its wave's reply
    // was written, so nothing is in flight here: shard workers hold no
    // state for this connection and the reply channel can simply drop.
    ps.connections_closed = 1;
    ps
}

/// Blocks until the completion for `seq` arrives. Completions from
/// different shards arrive in arbitrary order; stragglers park in
/// `received` until their turn.
fn wait_for(
    seq: u64,
    rx: &std::sync::mpsc::Receiver<Completion>,
    received: &mut HashMap<u64, Completion>,
) -> Completion {
    if let Some(c) = received.remove(&seq) {
        return c;
    }
    loop {
        let c = rx.recv().expect("shard worker alive");
        if c.seq == seq {
            return c;
        }
        received.insert(c.seq, c);
    }
}
