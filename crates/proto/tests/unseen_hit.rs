//! An engine hit the server holds no wire metadata for is a miss on the
//! wire. The handler used to answer it `VALUE <key> 0 0` with an empty
//! body, on the theory that a `set` always records metadata before its
//! put — but a fleet can hold objects the server never saw `set`
//! (filled before `Server::start`, or reopened from a checkpoint), and
//! a miss on another connection can collect an entry a later hit wants.

use nemo_baselines::LogCacheConfig;
use nemo_flash::Nanos;
use nemo_proto::{synth_value, Server, ServerConfig};
use nemo_service::ShardedCacheBuilder;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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
fn a_hit_on_an_object_the_server_never_saw_set_is_a_miss() {
    let cache = ShardedCacheBuilder::new(2).spawn(LogCacheConfig::small().factory());
    cache.try_put(7, 200, Nanos::ZERO).expect("pre-seed");
    assert!(cache.try_get(7, Nanos::ZERO).expect("fault-free").hit);
    let server = Server::start(cache, ServerConfig::default()).expect("start server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");

    // (The old reply began `VALUE 7 0 0` and had an empty body.)
    let unseen = exchange(&mut conn, b"get 7\r\n", "END\r\n".len());
    // Once the server has seen a `set`, the same key is a wire hit.
    let mut want = b"STORED\r\nVALUE 7 0 4\r\n".to_vec();
    synth_value(&mut want, 7, 4);
    want.extend_from_slice(b"\r\nEND\r\n");
    let seen = exchange(&mut conn, b"set 7 0 0 4\r\nabcd\r\nget 7\r\n", want.len());
    drop(conn);
    let report = server.finish();
    assert_eq!(unseen, "END\r\n");
    assert_eq!(seen, String::from_utf8_lossy(&want));
    assert_eq!((report.proto.wire_hits, report.proto.wire_misses), (1, 1));
}
