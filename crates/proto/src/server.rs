//! The TCP server: an accept loop feeding a bounded pool of
//! connection-worker threads — plain `std::net`, no async runtime. The
//! fleet behind it has no threads of its own: the connection workers
//! run the engine work themselves.
//!
//! Threading model: the accept thread hands each accepted stream to a
//! `sync_channel` whose receivers are `conn_workers` long-lived worker
//! threads; each worker runs one connection at a time to completion
//! (`conn.rs`), running each wave's engine work itself under the shard
//! locks. Backpressure is therefore layered: a full accept queue delays
//! new connections, and a handler busy with a wave — or waiting for a
//! shard lock another thread holds — does not read its socket, which
//! lets TCP flow control push back on the client.

use crate::conn::{handle_conn, ClockMode, ConnShared, ServerClock};
use crate::parser::Limits;
use crate::store::MetaStore;
use nemo_engine::{CacheEngine, EngineStats};
use nemo_metrics::ProtoStats;
use nemo_service::{ShardedCache, ShardedReport};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 to bind an ephemeral port (tests).
    pub addr: String,
    /// Size of the connection-worker pool — the maximum number of
    /// concurrently served connections.
    pub conn_workers: usize,
    /// Accepted-but-unserved connections queued for a worker.
    pub accept_backlog: usize,
    /// Protocol limits (key/value/line sizes).
    pub limits: Limits,
    /// How engine-op timestamps are generated.
    pub clock: ClockMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            conn_workers: 4,
            accept_backlog: 64,
            limits: Limits::default(),
            clock: ClockMode::Wall,
        }
    }
}

/// Everything the server measured, returned by [`Server::finish`].
#[derive(Debug)]
pub struct ServerReport<E: CacheEngine> {
    /// Protocol-level counters merged across all connections.
    pub proto: ProtoStats,
    /// The shard fleet's report (engines, queue stats, device stats).
    pub report: ShardedReport<E>,
    /// Live metadata entries left in the side table at shutdown.
    pub meta_entries: usize,
}

/// A running memcached-text server over a [`ShardedCache`].
///
/// Graceful shutdown ([`Server::finish`]) stops accepting, lets every
/// in-flight connection drain (handlers notice the flag at their next
/// read-timeout tick, having already fully serviced their last wave),
/// joins all threads, then drains the shard fleet itself.
pub struct Server<E: CacheEngine + Send + 'static> {
    cache: ShardedCache<E>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    clock: Arc<ServerClock>,
    meta: Arc<MetaStore>,
    stats: Arc<Mutex<ProtoStats>>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl<E: CacheEngine + Send + 'static> std::fmt::Debug for Server<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.worker_handles.len())
            .finish()
    }
}

impl<E: CacheEngine + Send + 'static> Server<E> {
    /// Binds and starts serving `cache` per `cfg`. The returned handle
    /// owns the fleet; keep it alive for the server's lifetime.
    pub fn start(cache: ShardedCache<E>, cfg: ServerConfig) -> io::Result<Self> {
        assert!(cfg.conn_workers > 0, "need at least one connection worker");
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let clock = Arc::new(ServerClock::new(cfg.clock));
        let meta = Arc::new(MetaStore::new(cache.shards()));
        let stats = Arc::new(Mutex::new(ProtoStats::default()));
        let dispatcher = cache.dispatcher();

        let (conn_tx, conn_rx) = sync_channel::<std::net::TcpStream>(cfg.accept_backlog);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut worker_handles = Vec::with_capacity(cfg.conn_workers);
        for i in 0..cfg.conn_workers {
            let rx = Arc::clone(&conn_rx);
            let shared = ConnShared {
                dispatcher: dispatcher.clone(),
                meta: Arc::clone(&meta),
                clock: Arc::clone(&clock),
                limits: cfg.limits,
                shutdown: Arc::clone(&shutdown),
            };
            let stats = Arc::clone(&stats);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("nemo-conn-{i}"))
                    .spawn(move || conn_worker(&rx, &shared, &stats))
                    .expect("spawn connection worker"),
            );
        }

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("nemo-accept".to_string())
                .spawn(move || accept_loop(&listener, &conn_tx, &shutdown))
                .expect("spawn accept thread")
        };

        Ok(Self {
            cache,
            local_addr,
            shutdown,
            clock,
            meta,
            stats,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of protocol counters from *closed* connections.
    pub fn proto_stats(&self) -> ProtoStats {
        *self.stats.lock().expect("proto stats poisoned")
    }

    /// Merged engine stats across the shard fleet (live).
    pub fn engine_stats(&self) -> EngineStats {
        self.cache.stats()
    }

    /// Graceful shutdown: stop accepting, drain and join every
    /// connection, then drain the shard fleet and return the report.
    pub fn finish(mut self) -> ServerReport<E> {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Accept thread exit dropped the conn sender; workers finish
        // their current connection (noticing the flag at a read-timeout
        // tick), find the channel closed, and exit.
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        let proto = *self.stats.lock().expect("proto stats poisoned");
        let meta_entries = self.meta.len();
        let report = self.cache.finish(self.clock.now());
        ServerReport {
            proto,
            report,
            meta_entries,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    conn_tx: &SyncSender<std::net::TcpStream>,
    shutdown: &AtomicBool,
) {
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                // The read timeout is the shutdown poll interval for
                // idle connections.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn conn_worker(
    rx: &Mutex<Receiver<std::net::TcpStream>>,
    shared: &ConnShared,
    stats: &Mutex<ProtoStats>,
) {
    loop {
        // Hold the lock only to dequeue, not while serving.
        let stream = match rx.lock().expect("conn queue poisoned").recv() {
            Ok(s) => s,
            Err(_) => break, // accept loop gone: shutdown
        };
        let ps = handle_conn(stream, shared);
        let mut agg = stats.lock().expect("proto stats poisoned");
        *agg = agg.merge(&ps);
    }
}
