//! Regression for the stale-forget defect: a miss used to garbage-collect
//! the key's wire metadata when it was *rendered*, after the whole wave
//! had been dispatched — so a `set` of the same key dispatched in
//! between (later in the wave, or on another connection) lost the
//! metadata it had just recorded, and the next hit was answered with an
//! empty `VALUE` body.

use nemo_core::{Nemo, NemoConfig};
use nemo_engine::{CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::{Geometry, Nanos};
use nemo_proto::{map_key, synth_value, Server, ServerConfig};
use nemo_service::{shard_of, ShardedCacheBuilder};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

fn connect<E: CacheEngine + Send + 'static>(server: &Server<E>) -> TcpStream {
    let s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s
}

/// Sends `request` in one write and returns the reply: `len` bytes, or
/// whatever arrived before the read timed out. Nothing here asserts —
/// a test that panics with its server still running never finishes, so
/// every check waits until after `Server::finish`.
fn exchange(stream: &mut TcpStream, request: &[u8], len: usize) -> String {
    stream.write_all(request).expect("write");
    let mut got = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match stream.read(&mut got[filled..]) {
            Ok(n) if n > 0 => filled += n,
            _ => break,
        }
    }
    String::from_utf8_lossy(&got[..filled]).into_owned()
}

/// `VALUE <key> 0 5` with the server's synthesized 5-byte body.
fn hit_block(key: &str) -> String {
    let mut want = format!("VALUE {key} 0 5\r\n").into_bytes();
    synth_value(&mut want, map_key(key.as_bytes()), 5);
    want.extend_from_slice(b"\r\nEND\r\n");
    String::from_utf8_lossy(&want).into_owned()
}

#[test]
fn miss_then_set_then_get_in_one_wave_keeps_the_value() {
    let mut cfg = NemoConfig::new(Geometry::new(4096, 256, 16, 8));
    cfg.expected_objects_per_set = 16;
    let server = Server::start(
        ShardedCacheBuilder::new(2).spawn(cfg.factory()),
        ServerConfig::default(),
    )
    .expect("start server");
    let mut conn = connect(&server);
    // The set sits in an in-memory SG, so the second get is a hit: it
    // must carry the 5-byte body, not the empty one of a forgotten entry.
    let want = format!("END\r\nSTORED\r\n{}", hit_block("41"));
    let got = exchange(
        &mut conn,
        b"get 41\r\nset 41 0 0 5\r\nhello\r\nget 41\r\n",
        want.len(),
    );
    drop(conn);
    let report: nemo_proto::ServerReport<Nemo> = server.finish();
    assert_eq!(got, want);
    assert_eq!(report.proto.wire_hits, 1);
}

#[test]
fn a_get_before_a_set_in_one_wave_answers_with_the_version_it_found() {
    // The `set` used to record its metadata when it was parsed, so the
    // first `get` below, rendered after that, answered `VALUE 41 2 7`:
    // the old object's hit with the new set's flags and length.
    let mut cfg = NemoConfig::new(Geometry::new(4096, 256, 16, 8));
    cfg.expected_objects_per_set = 16;
    let server = Server::start(
        ShardedCacheBuilder::new(2).spawn(cfg.factory()),
        ServerConfig::default(),
    )
    .expect("start server");
    let mut conn = connect(&server);
    let stored = exchange(&mut conn, b"set 41 1 0 5\r\nhello\r\n", 8);
    let block = |flags: u32, len: usize| {
        let mut block = format!("VALUE 41 {flags} {len}\r\n").into_bytes();
        synth_value(&mut block, 41, len);
        block.extend_from_slice(b"\r\nEND\r\n");
        String::from_utf8_lossy(&block).into_owned()
    };
    let want = format!("{}STORED\r\n{}", block(1, 5), block(2, 7));
    let got = exchange(
        &mut conn,
        b"get 41\r\nset 41 2 0 7\r\nchanged\r\nget 41\r\n",
        want.len(),
    );
    drop(conn);
    let report: nemo_proto::ServerReport<Nemo> = server.finish();
    assert_eq!(stored, "STORED\r\n");
    assert_eq!(got, want);
    assert_eq!(report.proto.wire_hits, 2);
}

/// A key set that reports every lookup on `seen` and parks lookups of
/// `gate_key` until the test releases them — the handle that lets the
/// two-connection test force its interleaving.
struct Gated {
    present: HashSet<u64>,
    seen: Sender<u64>,
    gate_key: u64,
    gate: Option<Receiver<()>>,
}

impl CacheEngine for Gated {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        self.seen.send(key).expect("test alive");
        if key == self.gate_key {
            let gate = self.gate.as_ref().expect("gate key routed to its shard");
            gate.recv().expect("test releases the gate");
        }
        Ok(if self.present.contains(&key) {
            GetOutcome::memory_hit(now)
        } else {
            GetOutcome::memory_miss(now)
        })
    }

    fn try_put(&mut self, key: u64, _size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        self.present.insert(key);
        Ok(now)
    }

    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }

    fn memory(&self) -> MemoryBreakdown {
        MemoryBreakdown::new(1)
    }
}

#[test]
fn a_set_on_another_connection_survives_an_older_miss() {
    // Two decimal keys on different shards. A connection runs its
    // wave's per-shard parts in shard order, so the gate goes on the
    // last shard: connection A serves its `get key` miss first, then
    // parks at the gate (and with it A's rendering) while the other
    // shard keeps serving.
    let on_shard = |shard| (1u64..).find(|&k| shard_of(k, 2) == shard);
    let gate_key = on_shard(1).expect("some key lands on the last shard");
    let key = on_shard(0).expect("some key lands on the other shard");
    let (seen_tx, seen) = channel();
    let (release, gate_rx) = channel();
    let mut gate_rx = Some(gate_rx);
    let cache = ShardedCacheBuilder::new(2).spawn(|shard| Gated {
        present: HashSet::new(),
        seen: seen_tx.clone(),
        gate_key,
        gate: (shard == shard_of(gate_key, 2))
            .then(|| gate_rx.take())
            .flatten(),
    });
    let server = Server::start(cache, ServerConfig::default()).expect("start server");
    let (mut a, mut b) = (connect(&server), connect(&server));

    // A: one wave, gate first. Both lookups run, `key`'s shard first; A
    // then waits at the gate, its `get key` miss still unrendered.
    a.write_all(format!("get {gate_key}\r\nget {key}\r\n").as_bytes())
        .expect("write");
    let wait = Duration::from_secs(5);
    let mut looked_up = [seen.recv_timeout(wait).ok(), seen.recv_timeout(wait).ok()];
    looked_up.sort_unstable();

    // B: the set lands (and is acknowledged) after A's miss was served
    // but before A renders it.
    let set = format!("set {key} 0 0 5\r\nhello\r\n");
    let stored = exchange(&mut b, set.as_bytes(), 8);
    release.send(()).expect("shard parked at the gate");
    let misses = exchange(&mut a, b"", 10);
    let want = hit_block(&key.to_string());
    let got = exchange(&mut b, format!("get {key}\r\n").as_bytes(), want.len());
    drop((a, b));
    server.finish();

    assert_eq!(
        looked_up,
        [Some(gate_key.min(key)), Some(gate_key.max(key))],
        "both lookups served"
    );
    assert_eq!(stored, "STORED\r\n");
    assert_eq!(misses, "END\r\nEND\r\n");
    assert_eq!(got, want, "A's stale miss collected B's metadata");
}
