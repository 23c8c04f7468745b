//! `wire_twitter`: the in-process `Server` (2 shards, 2 connection
//! workers, wall clock) over loopback TCP, driven by two closed-loop
//! client threads with one connection and one disjoint key stream each.

use crate::client::{Client, Conn};
use crate::common::{
    fleet, median, rss_mb, Args, Report, Samples, Slices, SETUPS, SHARDS, SIM_ZONES, SLICES,
};
use crate::spans::Spans;
use nemo_core::Nemo;
use nemo_flash::Nanos;
use nemo_proto::{
    encode_value, map_key, parse_command, synth_value, ClockMode, Command, Limits, ParseOutcome,
    Server, ServerConfig, ServerReport,
};
use nemo_service::CompletionKind;
use nemo_trace::TraceConfig;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Ops per connection in each phase.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Window 64, counted in `setup_s`.
    pub warm: u64,
    /// Window 16, in `SLICES` parts: `ops_s` and `cpu_us_per_op`.
    pub pipelined: u64,
    /// Window 1, a share after each part: the wall latency of one get.
    pub depth1: u64,
}

pub fn plan(args: &Args) -> Plan {
    Plan {
        warm: args.ops(30_000),
        pipelined: args.ops(70_000) / SLICES * SLICES,
        depth1: args.ops(2_500),
    }
}

/// Connection `conn`'s trace: its share of the catalog, with key spaces
/// of its own.
pub fn conn_trace(args: &Args, conn: usize) -> TraceConfig {
    args.mix(conn as u64 + 1, SIM_ZONES as f64)
}

pub fn start_server() -> Server<Nemo> {
    let cache = fleet();
    let cfg = ServerConfig {
        conn_workers: SHARDS,
        clock: ClockMode::Wall,
        ..ServerConfig::default()
    };
    Server::start(cache, cfg).expect("start server on loopback")
}

/// What one client thread brings back.
#[derive(Debug)]
pub struct ClientRun {
    pub client: Client,
    /// Measured-phase counts: the client's totals minus the warm-up's.
    pub gets: u64,
    pub hits: u64,
    pub batch_rtt: Samples,
    pub get_wall: Samples,
    pub error: Option<String>,
}

/// One client thread: warm-up, then `SLICES` times a pipelined part
/// between two meetings with the main thread at `barrier`, and a
/// depth-1 part.
fn client_thread(addr: SocketAddr, trace: TraceConfig, plan: Plan, barrier: &Barrier) -> ClientRun {
    let mut client = Client::new(&trace);
    let (mut warm_rtt, mut batch_rtt, mut get_wall) = <(Samples, Samples, Samples)>::default();
    // A failed connection still meets every barrier, then reports.
    let mut conn = Conn::connect(addr);
    let mut phase = |client: &mut Client, ops: u64, window: usize, rtt: &mut Samples| {
        if let Ok(c) = conn.as_mut() {
            if let Err(e) = c.run(client, ops, window, rtt) {
                conn = Err(e);
            }
        }
    };
    phase(&mut client, plan.warm, 64, &mut warm_rtt);
    let base = [client.gets, client.hits];
    for _ in 0..SLICES {
        barrier.wait();
        phase(&mut client, plan.pipelined / SLICES, 16, &mut batch_rtt);
        barrier.wait();
        phase(&mut client, plan.depth1 / SLICES, 1, &mut get_wall);
    }
    ClientRun {
        gets: client.gets - base[0],
        hits: client.hits - base[1],
        client,
        batch_rtt,
        get_wall,
        error: conn.err().map(|e| e.to_string()),
    }
}

/// What a served run measured.
pub struct Served {
    pub setup_s: f64,
    /// The pipelined phase, part by part, both connections together.
    pub slices: Slices,
    pub clients: Vec<ClientRun>,
    pub report: ServerReport<Nemo>,
}

/// One set-up (server, connections, warm-up), then the plan's measured
/// phases, if any.
fn serve_once(args: &Args, plan: Plan) -> Served {
    let t0 = Instant::now();
    let server = start_server();
    let addr = server.local_addr();
    let barrier = Arc::new(Barrier::new(SHARDS + 1));
    let threads: Vec<_> = (0..SHARDS)
        .map(|conn| {
            let (trace, barrier) = (conn_trace(args, conn), Arc::clone(&barrier));
            std::thread::Builder::new()
                .name(format!("perf-client-{conn}"))
                .spawn(move || client_thread(addr, trace, plan, &barrier))
                .expect("spawn client")
        })
        .collect();
    // The clients meet this thread before and after each pipelined part;
    // the first meeting ends the set-up.
    let mut slices = Slices::new();
    let mut setup_s = 0.0;
    for part in 0..SLICES {
        barrier.wait();
        if part == 0 {
            setup_s = t0.elapsed().as_secs_f64();
        }
        slices.begin();
        barrier.wait();
        slices.end(plan.pipelined / SLICES * SHARDS as u64);
    }
    let clients = threads
        .into_iter()
        .map(|t| t.join().expect("client panicked"))
        .collect();
    Served {
        setup_s,
        slices,
        clients,
        report: server.finish(),
    }
}

/// Sets the server up `setups` times, warm-up included, and runs the
/// measured phases on the last one.
pub fn serve(args: &Args, plan: Plan, setups: usize) -> Served {
    let warm_only = Plan {
        pipelined: 0,
        depth1: 0,
        ..plan
    };
    let mut times: Vec<f64> = (1..setups)
        .map(|_| serve_once(args, warm_only).setup_s)
        .collect();
    let mut served = serve_once(args, plan);
    times.push(served.setup_s);
    served.setup_s = median(times);
    served
}

/// The client's own ns per request, without a socket: generating it,
/// and checking the reply when every get hits.
pub fn client_costs(trace: &TraceConfig, reqs: u64) -> (f64, f64) {
    let mut client = Client::new(trace);
    let (mut gen_ns, mut check_ns, mut replies) = (0, 0, Vec::new());
    while client.ops < reqs.max(1) {
        let t0 = Instant::now();
        client.fill_batch(16);
        gen_ns += t0.elapsed().as_nanos();
        replies.clear();
        client.synth_replies(&mut replies);
        let t0 = Instant::now();
        let used = client.consume(&replies);
        check_ns += t0.elapsed().as_nanos();
        assert!(client.done() && used == replies.len() && client.failed == 0);
    }
    let reqs = client.ops as f64;
    (gen_ns as f64 / reqs, check_ns as f64 / reqs)
}

/// Folds the clients' counts and the server's output checks into `rep`.
pub fn check(rep: &mut Report, served: &Served) -> (u64, u64) {
    let (mut gets, mut hits) = (0, 0);
    for c in &served.clients {
        rep.attempted += c.client.ops;
        rep.failed += c.client.failed;
        gets += c.gets;
        hits += c.hits;
        rep.check(c.error.is_none(), || {
            format!("client stopped: {:?}", c.error)
        });
    }
    let p = &served.report.proto;
    rep.check(
        p.server_errors + p.protocol_errors + p.fatal_errors == 0,
        || format!("server counted errors: {p:?}"),
    );
    (gets, hits)
}

pub fn run(args: &Args, rep: &mut Report) {
    let plan = plan(args);
    let served = serve(args, plan, SETUPS);
    let (gets, hits) = check(rep, &served);
    let mut wall = Samples::default();
    for c in &served.clients {
        wall.extend(&c.get_wall);
    }
    let (s, mem) = (&served.report.report.stats, &served.report.report.memory);
    rep.put("setup_s", served.setup_s, format!("n={SETUPS}"));
    let (gen_ns, _) = client_costs(&conn_trace(args, 0), args.ops(20_000));
    served
        .slices
        .report(rep, &format!(", generator {gen_ns:.0} ns/req"));
    let cpu_us = rep.get("cpu_us_per_op");
    rep.check(gen_ns / 1e3 <= 0.2 * cpu_us, || {
        format!("generator takes {gen_ns:.0} ns of {cpu_us:.2} us per op: over 20 %")
    });
    rep.put_ns("get_mean_us", &mut wall, 1e3, None);
    rep.put_ns("wall_get_p50_us", &mut wall, 1e3, Some(0.5));
    rep.put_ns("wall_get_p90_us", &mut wall, 1e3, Some(0.9));
    rep.put_counts(hits, gets, s);
    rep.put(
        "index_bits_per_object",
        mem.bits_per_object(),
        format!("n={}", mem.objects),
    );
    rep.put("rss_mb", rss_mb(), "n=1");
}

/// What the stitched loop measured. `stages` holds one sample per op
/// and stage: client.gen, proto.parse, proto.map_key, service.hop,
/// proto.render, client.resp_parse.
pub struct Stitched {
    pub ops_s: f64,
    pub failed: u64,
    pub stages: [Samples; 6],
}

/// The traced stand-in for the opaque `Server`: one thread runs the
/// client's bytes through the same public functions, a stage at a time:
/// `parse_command`, `map_key`, the dispatcher hop (engine included),
/// `synth_value` + `encode_value`, and the client's reply check.
pub fn stitched(trace: &TraceConfig, ops: u64, spans: &mut Spans) -> Stitched {
    let cache = fleet();
    let dispatcher = cache.dispatcher();
    let (tx, rx) = channel();
    let mut client = Client::new(trace);
    let limits = Limits::default();
    // Value length last set per key, as the server's side table keeps it.
    let mut lens: HashMap<u64, usize> = HashMap::new();
    let (mut reply, mut val) = (Vec::new(), Vec::new());
    let (epoch, mut failed) = (Instant::now(), 0);
    let mut stages: [Samples; 6] = Default::default();
    for op in 1..=ops {
        let keep = Spans::sampled(op);
        let mut ns = [0u64; 6];
        let begun = spans.mark();
        client.fill_batch(1);
        ns[0] += spans.stage("client.gen", "request", op, keep);
        reply.clear();
        let mut off = 0;
        while off < client.out.len() {
            let ParseOutcome::Cmd(cmd, used) = parse_command(&client.out[off..], &limits) else {
                panic!("the client's own bytes must parse");
            };
            off += used;
            ns[1] += spans.stage("proto.parse", "request", op, keep);
            let now = Nanos(epoch.elapsed().as_nanos() as u64);
            match cmd {
                Command::Get { keys, .. } => {
                    for key in keys.iter() {
                        let k = map_key(key);
                        ns[2] += spans.stage("proto.map_key", "request", op, keep);
                        dispatcher.dispatch_lookup(k, now, op, &tx);
                        let done = rx.recv().expect("shard worker alive");
                        ns[3] += spans.stage("service.hop", "request", op, keep);
                        match done.kind {
                            CompletionKind::Get { hit: true, .. } => {
                                val.clear();
                                synth_value(&mut val, k, lens.get(&k).copied().unwrap_or(0));
                                encode_value(&mut reply, key, 0, None, &val);
                            }
                            CompletionKind::Get { .. } => {}
                            _ => failed += 1,
                        }
                    }
                    reply.extend_from_slice(b"END\r\n");
                    ns[4] += spans.stage("proto.render", "request", op, keep);
                }
                Command::Set(set) => {
                    let k = map_key(set.key);
                    lens.insert(k, set.data.len());
                    ns[2] += spans.stage("proto.map_key", "request", op, keep);
                    let size = (set.key.len() + set.data.len()) as u32;
                    dispatcher.dispatch_put(k, size, now, op, &tx);
                    let done = rx.recv().expect("shard worker alive");
                    ns[3] += spans.stage("service.hop", "request", op, keep);
                    failed += (done.kind != CompletionKind::Put) as u64;
                    if !set.noreply {
                        reply.extend_from_slice(b"STORED\r\n");
                    }
                    ns[4] += spans.stage("proto.render", "request", op, keep);
                }
                other => panic!("the client sends gets and sets only: {other:?}"),
            }
        }
        let used = client.consume(&reply);
        ns[5] += spans.stage("client.resp_parse", "request", op, keep);
        spans.root("request", op, begun, keep);
        failed += (!client.done() || used != reply.len()) as u64;
        stages.iter_mut().zip(ns).for_each(|(s, ns)| s.push(ns));
    }
    let ops_s = ops as f64 / epoch.elapsed().as_secs_f64();
    // The workers run until every sender is gone, the dispatcher's too.
    drop(dispatcher);
    cache.finish(Nanos(epoch.elapsed().as_nanos() as u64));
    Stitched {
        ops_s,
        failed: failed + client.failed,
        stages,
    }
}
