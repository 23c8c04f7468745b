//! A wire `get` whose engine panics is answered, and its connection
//! lives on. The shard worker used to drop the reply sender of the one
//! operation that killed its engine; the connection handler holds a
//! sender of its own, so its receive never disconnected and the client
//! waited forever.

use nemo_engine::{CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::Nanos;
use nemo_proto::{synth_value, Server, ServerConfig};
use nemo_service::{shard_of, ShardedCacheBuilder};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// An engine whose lookups panic.
struct Bomb;

impl CacheEngine for Bomb {
    fn name(&self) -> &'static str {
        "bomb"
    }
    fn try_get(&mut self, _key: u64, _now: Nanos) -> Result<GetOutcome, EngineError> {
        panic!("engine invariant violated");
    }
    fn try_put(&mut self, _key: u64, _size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        Ok(now)
    }
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
    fn memory(&self) -> MemoryBreakdown {
        MemoryBreakdown::default()
    }
}

/// An engine that remembers what it was given; its lookups panic when
/// `armed`.
struct Landmine {
    armed: bool,
    keys: HashSet<u64>,
}

impl CacheEngine for Landmine {
    fn name(&self) -> &'static str {
        "landmine"
    }
    fn try_get(&mut self, key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        assert!(!self.armed, "engine invariant violated");
        Ok(GetOutcome {
            hit: self.keys.contains(&key),
            done_at: now,
            flash_reads: 0,
            set_reads: 0,
        })
    }
    fn try_put(&mut self, key: u64, _size: u32, now: Nanos) -> Result<Nanos, EngineError> {
        self.keys.insert(key);
        Ok(now)
    }
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
    fn memory(&self) -> MemoryBreakdown {
        MemoryBreakdown::default()
    }
}

/// Sends `request` and returns the reply: `len` bytes, or whatever
/// arrived before the socket's read timeout.
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

#[test]
fn get_on_a_panicking_engine_is_answered_and_the_connection_survives() {
    let cache = ShardedCacheBuilder::new(2).spawn(|_| Bomb);
    let server = Server::start(cache, ServerConfig::default()).expect("start server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    // The read timeout is what turns a regression into a failure: a
    // handler waiting on a completion that never comes sends nothing.
    conn.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");

    let refusal = "SERVER_ERROR shard unavailable\r\n";
    let version = concat!("VERSION nemo-proto ", env!("CARGO_PKG_VERSION"), "\r\n");
    let got_refusal = exchange(&mut conn, b"get 7\r\n", refusal.len());
    let got_version = exchange(&mut conn, b"version\r\n", version.len());
    if (got_refusal.as_str(), got_version.as_str()) != (refusal, version) {
        // The handler is wedged, and `finish` joins it: leak the server
        // rather than hang the suite.
        std::mem::forget(server);
        panic!("get answered {got_refusal:?}, then version answered {got_version:?}");
    }
    drop(conn);
    let report = server.finish();
    assert_eq!(report.proto.server_errors, 1);
}

#[test]
fn one_write_mixing_a_dead_and_a_live_shard_is_answered_in_request_order() {
    // Shard 0 dies on its first lookup, shard 1 serves: each reply of
    // the wave comes from its own shard's batch, and must land in the
    // slot of the command that asked.
    let cache = ShardedCacheBuilder::new(2).spawn(|shard| Landmine {
        armed: shard == 0,
        keys: HashSet::new(),
    });
    let key_of = |shard| (0..u64::MAX).find(|&k| shard_of(k, 2) == shard).unwrap();
    let (dead, live) = (key_of(0), key_of(1));
    let server = Server::start(cache, ServerConfig::default()).expect("start server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");

    let request = format!(
        "set {live} 5 0 3\r\nabc\r\nset {dead} 0 0 3\r\nabc\r\nget {live}\r\nget {dead}\r\n\
         gets {live} {dead}\r\nset {dead} 0 0 3\r\nabc\r\nget {live}\r\nversion\r\n"
    );
    let refusal = "SERVER_ERROR shard unavailable\r\n";
    let mut value = Vec::new();
    synth_value(&mut value, live, 3);
    let hit = format!(
        "VALUE {live} 5 3\r\n{}\r\nEND\r\n",
        String::from_utf8_lossy(&value)
    );
    let version = concat!("VERSION nemo-proto ", env!("CARGO_PKG_VERSION"), "\r\n");
    let want = format!("STORED\r\nSTORED\r\n{hit}{refusal}{refusal}{refusal}{hit}{version}");
    let got = exchange(&mut conn, request.as_bytes(), want.len());
    drop(conn);
    let report = server.finish();
    assert_eq!(got, want);
    assert_eq!(report.proto.server_errors, 3);
    assert_eq!((report.proto.wire_hits, report.proto.wire_misses), (2, 0));
}
