//! Open-loop *network* load generation against the memcached-text
//! front-end (`nemo-proto`), plus the standalone `serve` runner.
//!
//! Where `experiments openloop` measures the shard fleet in virtual
//! time, `netload` measures the whole serving stack in wall-clock time
//! over real loopback sockets: framing, parsing, the connection worker
//! pool, two kernel crossings per request on each side, and TCP flow
//! control all land in the measured numbers — this is the Fig. 15-style
//! view *with* the kernel and syscall costs the paper's CacheLib
//! deployment pays.
//!
//! Methodology: arrivals are scheduled on a wall clock at the offered
//! rate and assigned round-robin to `conns` loopback connections —
//! the generator never waits for a response before sending the next
//! request (open loop), so overload shows up as *queueing delay*, not
//! as a slower run. Each request's latency splits at the moment its
//! bytes enter the socket:
//!
//! - **queueing** = send instant − scheduled arrival: time spent waiting
//!   behind the connection's earlier traffic (including TCP backpressure
//!   from a busy server);
//! - **service** = response seen − send instant: syscalls, loopback
//!   transit, parsing, shard dispatch and device time.
//!
//! Percentiles of a sum are not sums of percentiles, so total, queueing
//! and service are recorded independently, reusing the same
//! [`LatencyWindow`] trend windows as the in-process drivers. Get
//! misses are re-filled client-side with `set … noreply` (the demand-
//! fill convention of every other driver in this repo, expressed in
//! wire semantics: a memcached `get` miss never implicitly inserts).

use crate::common::{f2, print_table, write_csv, RunScale};
use crate::sharded::fleet_trace_config;
use nemo_flash::Nanos;
use nemo_metrics::{LatencyHistogram, LatencyWindow};
use nemo_proto::wire::{encode_get, encode_set, parse_response, Response, ResponseOutcome};
use nemo_proto::{ClockMode, Limits, Server, ServerConfig, SetCmd};
use nemo_service::DeviceBackend;
use nemo_trace::{RequestKind, TraceGenerator};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// Network load-generator options (the `netload` subcommand).
#[derive(Debug, Clone)]
pub struct NetloadOpts {
    /// Shard fleet size for the in-process server.
    pub shards: usize,
    /// Offered aggregate arrival rate, req/s of wall-clock time.
    pub rate: f64,
    /// Loopback connections carrying the load.
    pub conns: usize,
    /// Smoke mode: tiny op count, no throughput assertion.
    pub smoke: bool,
    /// Drive an already-running server at `host:port` instead of
    /// starting one in-process (pair with `experiments serve`).
    pub connect: Option<String>,
    /// Device backend for the in-process server's shards.
    pub backend: DeviceBackend,
}

/// One scheduled request of the generated workload.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Global 1-based arrival index (defines the scheduled time).
    seq: u64,
    key: u64,
    size: u32,
    is_get: bool,
}

/// What the reader needs to match one in-flight request to its
/// response frames.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u64,
    arrival_ns: u64,
    send_ns: u64,
    key: u64,
    size: u32,
    is_get: bool,
}

/// One completed request, as the collector sees it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    seq: u64,
    queue_ns: u64,
    service_ns: u64,
    is_get: bool,
    hit: bool,
    /// The reply was not one this request can have (`SERVER_ERROR`, a
    /// `STORED` where `VALUE`/`END` was due): the server refused it or
    /// answered out of order.
    unexpected: bool,
}

/// Renders `key` as its canonical decimal wire form (which
/// `nemo_proto::map_key` maps straight back to the same `u64`).
fn wire_key(key: u64) -> Vec<u8> {
    key.to_string().into_bytes()
}

/// The `set` data-block length that makes the engine-visible object
/// size (`key bytes + value bytes`) equal the trace's size.
fn value_len(key: u64, size: u32) -> usize {
    (size as usize).saturating_sub(wire_key(key).len()).max(1)
}

fn encode_fill(out: &mut Vec<u8>, key: u64, size: u32) {
    let kb = wire_key(key);
    let data = vec![0x5a; value_len(key, size)];
    encode_set(
        out,
        &SetCmd {
            key: &kb,
            flags: 0,
            exptime: 0,
            data: &data,
            noreply: true,
        },
    );
}

/// Writer half of one connection: paces scheduled requests onto the
/// socket (batching everything already due into one write), interleaves
/// the reader's fill-backs, and records each request's send instant.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    mut stream: TcpStream,
    reqs: Receiver<Req>,
    fills: Receiver<(u64, u32)>,
    inflight_tx: Sender<InFlight>,
    epoch: Instant,
    gap_ns: u64,
) {
    let mut batch: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut meta: Vec<(u64, u64, u64, u32, bool)> = Vec::new();
    let mut next: Option<Req> = None;
    // Scheduled phase: pace requests onto the socket at their arrival
    // times, interleaving the reader's fill-backs.
    'sched: loop {
        let head = match next.take() {
            Some(r) => r,
            None => match reqs.recv() {
                Ok(r) => r,
                Err(_) => break 'sched, // generator done
            },
        };
        // Wait out the gap to the head request's arrival, flushing any
        // fill-backs that show up meanwhile.
        loop {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            let due_ns = head.seq * gap_ns;
            if due_ns <= now_ns {
                break;
            }
            batch.clear();
            while let Ok((key, size)) = fills.try_recv() {
                encode_fill(&mut batch, key, size);
            }
            if !batch.is_empty() && stream.write_all(&batch).is_err() {
                return;
            }
            thread::sleep(Duration::from_nanos((due_ns - now_ns).min(2_000_000)));
        }
        // One write carries the head request plus everything else that
        // is both due and already generated.
        batch.clear();
        meta.clear();
        let encode_req = |batch: &mut Vec<u8>, meta: &mut Vec<_>, r: Req| {
            let kb = wire_key(r.key);
            if r.is_get {
                encode_get(batch, [kb.as_slice()], false);
            } else {
                let data = vec![0x5a; value_len(r.key, r.size)];
                encode_set(
                    batch,
                    &SetCmd {
                        key: &kb,
                        flags: 0,
                        exptime: 0,
                        data: &data,
                        noreply: false,
                    },
                );
            }
            meta.push((r.seq, r.seq * gap_ns, r.key, r.size, r.is_get));
        };
        encode_req(&mut batch, &mut meta, head);
        let now_ns = epoch.elapsed().as_nanos() as u64;
        loop {
            match reqs.try_recv() {
                Ok(r) if r.seq * gap_ns <= now_ns => encode_req(&mut batch, &mut meta, r),
                Ok(r) => {
                    next = Some(r);
                    break;
                }
                Err(_) => break,
            }
        }
        while let Ok((key, size)) = fills.try_recv() {
            encode_fill(&mut batch, key, size);
        }
        // The send instant is taken before the write: a blocking write
        // (TCP backpressure) counts as service, which is where a client
        // actually experiences it.
        let send_ns = epoch.elapsed().as_nanos() as u64;
        for &(seq, arrival_ns, key, size, is_get) in &meta {
            let _ = inflight_tx.send(InFlight {
                seq,
                arrival_ns,
                send_ns,
                key,
                size,
                is_get,
            });
        }
        if stream.write_all(&batch).is_err() {
            return;
        }
    }
    // Drain phase: no scheduled work left. Dropping the in-flight
    // sender is the reader's end-of-run signal — once it has matched
    // every outstanding response it sees the disconnect and exits,
    // which in turn closes the fill channel below.
    drop(inflight_tx);
    loop {
        match fills.recv() {
            Ok((key, size)) => {
                batch.clear();
                encode_fill(&mut batch, key, size);
                while let Ok((key, size)) = fills.try_recv() {
                    encode_fill(&mut batch, key, size);
                }
                if stream.write_all(&batch).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Write);
                return;
            }
        }
    }
}

/// Reader half of one connection: matches response frames to in-flight
/// requests in FIFO order (the protocol guarantees per-connection
/// ordering), emits a latency sample per request, and queues fill-backs
/// for misses.
fn reader_loop(
    mut stream: TcpStream,
    inflight_rx: Receiver<InFlight>,
    fill_tx: Sender<(u64, u32)>,
    samples: Sender<Sample>,
    epoch: Instant,
) {
    let limits = Limits::default();
    // The timeout bounds the race between "checked for end-of-run" and
    // "writer hung up": a timed-out read just re-checks.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(20)));
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut pending: Option<(InFlight, bool)> = None; // (req, saw_value)
    loop {
        let mut off = 0;
        loop {
            match parse_response(&buf[off..], &limits) {
                ResponseOutcome::Incomplete => break,
                ResponseOutcome::Garbled(n) => {
                    // A garbled frame means a framing bug somewhere;
                    // skip it loudly rather than wedge the run.
                    eprintln!("netload: garbled response frame ({n} bytes)");
                    off += n;
                }
                ResponseOutcome::Resp(resp, n) => {
                    off += n;
                    let (cur, saw_value) = match pending.take() {
                        Some(p) => p,
                        None => match inflight_rx.recv() {
                            Ok(f) => (f, false),
                            Err(_) => return, // writer gone, stray frame
                        },
                    };
                    let done_ns = epoch.elapsed().as_nanos() as u64;
                    let finish = |hit: bool, unexpected: bool| {
                        let _ = samples.send(Sample {
                            seq: cur.seq,
                            queue_ns: cur.send_ns.saturating_sub(cur.arrival_ns),
                            service_ns: done_ns.saturating_sub(cur.send_ns),
                            is_get: cur.is_get,
                            hit,
                            unexpected,
                        });
                    };
                    match resp {
                        Response::Value { .. } if cur.is_get => {
                            pending = Some((cur, true)); // END still to come
                        }
                        Response::End if cur.is_get => {
                            if !saw_value {
                                let _ = fill_tx.send((cur.key, cur.size));
                            }
                            finish(saw_value, false);
                        }
                        Response::Stored if !cur.is_get => finish(true, false),
                        other => {
                            eprintln!("netload: unexpected response {other:?}");
                            finish(false, true);
                        }
                    }
                }
            }
        }
        buf.drain(..off);
        // End-of-run: nothing half-parsed, nothing awaited, and the
        // writer has hung up the in-flight channel (fills are noreply,
        // so no further server bytes can be outstanding).
        if pending.is_none() && buf.is_empty() {
            match inflight_rx.try_recv() {
                Ok(f) => {
                    pending = Some((f, false));
                    continue;
                }
                Err(std::sync::mpsc::TryRecvError::Disconnected) => return,
                Err(std::sync::mpsc::TryRecvError::Empty) => {}
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

/// Collector output: aggregate split histograms, trend windows, and
/// client-side hit accounting.
struct Collected {
    total: LatencyHistogram,
    queue: LatencyHistogram,
    service: LatencyHistogram,
    windows: Vec<LatencyWindow>,
    gets: u64,
    hits: u64,
    done: u64,
    /// Requests answered with a reply they cannot have.
    unexpected: u64,
}

/// One trend window's accumulators (mirrors the in-process open-loop
/// reactor: windows key off each op's arrival index, histogram addition
/// commutes, so cross-connection completion order doesn't matter).
#[derive(Default)]
struct WindowAccum {
    total: LatencyHistogram,
    queue: LatencyHistogram,
    service: LatencyHistogram,
    done_ops: u64,
    get_ops: u64,
    hits: u64,
}

fn collector(
    rx: Receiver<Sample>,
    ops: u64,
    sample_every: u64,
    warmup_ops: u64,
    gap_ns: u64,
) -> Collected {
    let window_count = ops.div_ceil(sample_every) as usize;
    let window_end = |i: usize| ((i as u64 + 1) * sample_every).min(ops);
    let window_len = |i: usize| window_end(i) - i as u64 * sample_every;
    let mut accums: Vec<Option<Box<WindowAccum>>> = (0..window_count).map(|_| None).collect();
    let mut windows: Vec<Option<LatencyWindow>> = vec![None; window_count];
    let mut out = Collected {
        total: LatencyHistogram::new(),
        queue: LatencyHistogram::new(),
        service: LatencyHistogram::new(),
        windows: Vec::new(),
        gets: 0,
        hits: 0,
        done: 0,
        unexpected: 0,
    };
    let finalize = |acc: &WindowAccum, i: usize| LatencyWindow {
        ops: window_end(i),
        at: Nanos(gap_ns * window_end(i)),
        p50: acc.total.p50(),
        p99: acc.total.p99(),
        p9999: acc.total.p9999(),
        queue_p50: acc.queue.p50(),
        queue_p99: acc.queue.p99(),
        queue_p9999: acc.queue.p9999(),
        service_p50: acc.service.p50(),
        service_p99: acc.service.p99(),
        service_p9999: acc.service.p9999(),
        get_ops: acc.get_ops,
        hits: acc.hits,
        refused: 0,
        set_reads: 0,
    };
    for s in rx {
        out.done += 1;
        out.unexpected += s.unexpected as u64;
        if s.is_get {
            out.gets += 1;
            out.hits += s.hit as u64;
        }
        let i = ((s.seq - 1) / sample_every) as usize;
        let acc = accums[i].get_or_insert_with(Default::default);
        acc.done_ops += 1;
        if s.is_get {
            acc.get_ops += 1;
            acc.hits += s.hit as u64;
            let (q, v) = (s.queue_ns, s.service_ns);
            acc.total.record(q + v);
            acc.queue.record(q);
            acc.service.record(v);
            if s.seq > warmup_ops {
                out.total.record(q + v);
                out.queue.record(q);
                out.service.record(v);
            }
        }
        if acc.done_ops == window_len(i) {
            windows[i] = Some(finalize(acc, i));
            accums[i] = None;
        }
    }
    out.windows = windows
        .into_iter()
        .enumerate()
        .map(|(i, w)| w.unwrap_or_else(|| finalize(&accums[i].take().unwrap_or_default(), i)))
        .collect();
    out
}

/// Drives `ops` trace requests at `rate` req/s over `conns` loopback
/// connections to `addr`; returns the collected latency data and the
/// wall-clock seconds from first scheduled arrival to last response.
fn drive_sockets(
    addr: &str,
    conns: usize,
    ops: u64,
    rate: f64,
    sample_every: u64,
    warmup_ops: u64,
    trace: &mut TraceGenerator,
) -> (Collected, f64) {
    let gap_ns = (1e9 / rate) as u64;
    assert!(gap_ns >= 1, "rate above 1e9 req/s is not schedulable");
    let (sample_tx, sample_rx) = channel::<Sample>();
    let coll = thread::Builder::new()
        .name("netload-collector".into())
        .spawn(move || collector(sample_rx, ops, sample_every, warmup_ops, gap_ns))
        .expect("spawn collector");

    let epoch = Instant::now();
    let mut req_txs = Vec::with_capacity(conns);
    let mut threads = Vec::new();
    for c in 0..conns {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_nodelay(true).expect("nodelay");
        let read_half = stream.try_clone().expect("clone stream");
        let (req_tx, req_rx) = sync_channel::<Req>(1024);
        let (fill_tx, fill_rx) = channel::<(u64, u32)>();
        let (inflight_tx, inflight_rx) = channel::<InFlight>();
        let samples = sample_tx.clone();
        req_txs.push(req_tx);
        threads.push(
            thread::Builder::new()
                .name(format!("netload-w{c}"))
                .spawn(move || writer_loop(stream, req_rx, fill_rx, inflight_tx, epoch, gap_ns))
                .expect("spawn writer"),
        );
        threads.push(
            thread::Builder::new()
                .name(format!("netload-r{c}"))
                .spawn(move || reader_loop(read_half, inflight_rx, fill_tx, samples, epoch))
                .expect("spawn reader"),
        );
    }
    drop(sample_tx);

    // Feed the shared trace round-robin; bounded channels keep memory
    // flat while the writers pace actual sends.
    for seq in 1..=ops {
        let r = trace.next_request();
        let req = Req {
            seq,
            key: r.key,
            size: r.size,
            is_get: matches!(r.kind, RequestKind::Get),
        };
        req_txs[(seq - 1) as usize % conns]
            .send(req)
            .expect("writer alive");
    }
    drop(req_txs);
    for t in threads {
        t.join().expect("connection thread panicked");
    }
    let elapsed = epoch.elapsed().as_secs_f64();
    let collected = coll.join().expect("collector panicked");
    (collected, elapsed)
}

fn print_netload_report(c: &Collected, ops: u64, elapsed: f64, smoke: bool) {
    let us = |v: u64| f2(v as f64 / 1000.0);
    let rows: Vec<Vec<String>> = c
        .windows
        .iter()
        .map(|w| {
            vec![
                w.ops.to_string(),
                us(w.p50),
                us(w.p99),
                us(w.p9999),
                us(w.queue_p50),
                us(w.queue_p99),
                us(w.queue_p9999),
                us(w.service_p50),
                us(w.service_p99),
                us(w.service_p9999),
            ]
        })
        .collect();
    let headers = [
        "ops",
        "p50",
        "p99",
        "p9999",
        "queue p50",
        "queue p99",
        "queue p9999",
        "svc p50",
        "svc p99",
        "svc p9999",
    ];
    print_table("Network open loop (latency in us)", &headers, &rows);
    write_csv("netload", &headers, &rows);
    let rps = ops as f64 / elapsed;
    println!(
        "   aggregate: total p50 {} us / p99 {} us, queue p99 {} us, svc p99 {} us",
        us(c.total.p50()),
        us(c.total.p99()),
        us(c.queue.p99()),
        us(c.service.p99()),
    );
    println!(
        "   client-side: {} ops in {:.2}s = {:.0} req/s sustained, wire hit ratio {:.2}% ({} gets)",
        c.done,
        elapsed,
        rps,
        100.0 * c.hits as f64 / c.gets.max(1) as f64,
        c.gets,
    );
    assert_eq!(c.done, ops, "every scheduled request must be answered");
    assert_eq!(
        c.unexpected, 0,
        "every request must get a reply of its own kind, in request order"
    );
    if !smoke {
        assert!(
            rps >= 16_000.0,
            "full netload runs must sustain >= 16k req/s over sockets (got {rps:.0})"
        );
    }
}

/// The `netload` subcommand: open-loop load over loopback sockets
/// against an in-process server (default) or an external one
/// (`--connect`). Full (non-smoke) runs assert ≥ 16k req/s sustained.
pub fn netload(scale: RunScale, opts: NetloadOpts) {
    let scale = RunScale { dies: 64, ..scale };
    let mut ops = scale.ops_for_fills(2.0) * opts.shards as u64;
    if opts.smoke {
        ops = ops.min(30_000);
    }
    let sample_every = (ops / 12).max(1);
    let warmup_ops = ops / 4;
    let mut trace = TraceGenerator::new(fleet_trace_config(&scale, opts.shards));
    println!(
        "\n### Network open loop — {} ops at {:.0} req/s over {} connection(s)",
        ops, opts.rate, opts.conns
    );

    match &opts.connect {
        Some(addr) => {
            println!("   driving external server at {addr}");
            let (c, elapsed) = drive_sockets(
                addr,
                opts.conns,
                ops,
                opts.rate,
                sample_every,
                warmup_ops,
                &mut trace,
            );
            print_netload_report(&c, ops, elapsed, opts.smoke);
        }
        None => {
            println!(
                "   in-process server: {} shard(s), {} backend, per-shard device {} MB x64 dies",
                opts.shards,
                opts.backend.label(),
                scale.flash_mb
            );
            let cache = nemo_service::ShardedCacheBuilder::new(opts.shards)
                .inflight(32)
                .spawn(
                    scale
                        .nemo_config()
                        .factory_on(opts.backend.device_factory("netload")),
                );
            let server = Server::start(
                cache,
                ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    conn_workers: opts.conns,
                    clock: ClockMode::Wall,
                    ..ServerConfig::default()
                },
            )
            .expect("start server");
            let addr = server.local_addr().to_string();
            let (c, elapsed) = drive_sockets(
                &addr,
                opts.conns,
                ops,
                opts.rate,
                sample_every,
                warmup_ops,
                &mut trace,
            );
            let report = server.finish();
            print_netload_report(&c, ops, elapsed, opts.smoke);
            println!(
                "   server-side: {} cmds ({} gets, {} sets) on {} conns, {:.1} MB in / {:.1} MB out",
                report.proto.commands,
                report.proto.get_cmds,
                report.proto.set_cmds,
                report.proto.connections,
                report.proto.bytes_in as f64 / 1e6,
                report.proto.bytes_out as f64 / 1e6,
            );
            println!(
                "   engine: ALWA {:.2}, miss {:.2}%, {} meta entries live",
                report.report.stats.alwa(),
                report.report.stats.miss_ratio() * 100.0,
                report.meta_entries,
            );
        }
    }
}

/// The `serve` subcommand: a standalone memcached-text server over a
/// Nemo shard fleet, for external load generators (`experiments netload
/// --connect`, `nc`, real memcached clients). Runs for `duration_secs`
/// (0 = until killed), then drains and prints the report.
pub fn serve(
    scale: RunScale,
    shards: usize,
    port: u16,
    duration_secs: u64,
    conn_workers: usize,
    backend: DeviceBackend,
) {
    let scale = RunScale { dies: 64, ..scale };
    let cache = nemo_service::ShardedCacheBuilder::new(shards)
        .inflight(32)
        .spawn(
            scale
                .nemo_config()
                .factory_on(backend.device_factory("serve")),
        );
    let server = Server::start(
        cache,
        ServerConfig {
            addr: format!("127.0.0.1:{port}"),
            conn_workers,
            clock: ClockMode::Wall,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    println!(
        "nemo-proto serving on {} ({} shards, {} backend, {} connection workers)",
        server.local_addr(),
        shards,
        backend.label(),
        conn_workers
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if duration_secs == 0 {
        loop {
            thread::sleep(Duration::from_secs(3600));
        }
    }
    thread::sleep(Duration::from_secs(duration_secs));
    let report = server.finish();
    println!(
        "served {} connections, {} commands ({} protocol errors, {} fatal); \
         wire hit ratio {:.2}%, engine ALWA {:.2}, miss {:.2}%",
        report.proto.connections,
        report.proto.commands,
        report.proto.protocol_errors,
        report.proto.fatal_errors,
        report.proto.wire_hit_ratio() * 100.0,
        report.report.stats.alwa(),
        report.report.stats.miss_ratio() * 100.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_keys_roundtrip_through_map_key() {
        for k in [0u64, 7, 42, u64::MAX] {
            assert_eq!(nemo_proto::map_key(&wire_key(k)), k);
        }
    }

    #[test]
    fn value_len_preserves_engine_size() {
        // engine size = key bytes + value bytes = trace size
        assert_eq!(wire_key(1234).len() + value_len(1234, 250), 250);
        // tiny sizes degrade to a 1-byte value rather than an empty one
        assert!(value_len(u64::MAX, 4) >= 1);
    }

    #[test]
    fn smoke_netload_in_process() {
        let scale = RunScale {
            flash_mb: 16,
            ops_mult: 1.0,
            dies: 8,
        };
        let opts = NetloadOpts {
            shards: 2,
            rate: 50_000.0,
            conns: 2,
            smoke: true,
            connect: None,
            backend: DeviceBackend::Modeled,
        };
        // Assertion-free beyond netload's own invariants (every request
        // answered, each with a reply of its kind); smoke mode skips the
        // throughput gate.
        netload(scale, opts);
    }
}
