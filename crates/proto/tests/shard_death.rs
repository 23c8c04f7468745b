//! A wire `get` whose engine panics is answered, and its connection
//! lives on. The shard worker used to drop the reply sender of the one
//! operation that killed its engine; the connection handler holds a
//! sender of its own, so its receive never disconnected and the client
//! waited forever.

use nemo_engine::{CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::Nanos;
use nemo_proto::{Server, ServerConfig};
use nemo_service::ShardedCacheBuilder;
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
