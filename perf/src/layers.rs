//! Each layer on its own: the leaf libraries, the parser, the service
//! hop against a no-op engine, both flash devices stand-alone, and the
//! loopback floor. Every number times calls into public functions.

use crate::common::{nemo_config, Args, Report, Samples, REAL_ZONES, SHARDS, SIM_ZONES};
use crate::real::{Image, READ_US};
use crate::wire;
use nemo_bloom::BloomFilter;
use nemo_engine::{CacheEngine, EngineError, EngineStats, GetOutcome, MemoryBreakdown};
use nemo_flash::{
    LatencyModel, Nanos, PageAddr, ReadBatch, RealFlash, RealFlashOptions, SimFlash, ZoneId,
    ZonedFlash,
};
use nemo_proto::{
    encode_get, encode_set, encode_value, map_key, parse_command, synth_value, Limits,
    ParseOutcome, SetCmd,
};
use nemo_service::ShardedCacheBuilder;
use nemo_trace::{TraceConfig, TraceGenerator};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

fn ns_each(t0: Instant, n: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// `trace.*` and `bloom.*`.
pub fn leaves(rep: &mut Report, trace: &TraceConfig, n: u64) {
    let mut gen = TraceGenerator::new(trace.clone());
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(gen.next_request());
    }
    rep.put("trace.gen_ns_per_req", ns_each(t0, n), format!("n={n}"));

    // One set-level filter as the engine sizes it, refilled per round.
    let cfg = nemo_config(SIM_ZONES);
    let per = cfg.expected_objects_per_set as u64;
    let mut filter = BloomFilter::for_items(per, cfg.bloom_fpr);
    let t0 = Instant::now();
    for round in 0..n / per {
        filter.clear();
        for i in 0..per {
            filter.insert(round * per + i);
        }
    }
    rep.put(
        "bloom.insert_ns",
        ns_each(t0, n / per * per),
        format!("n={n}"),
    );
    let t0 = Instant::now();
    let mut found = 0u64;
    for key in 0..n {
        found += filter.contains(key) as u64;
    }
    black_box(found);
    rep.put("bloom.probe_ns", ns_each(t0, n), format!("n={n}"));
}

/// Runs `parse_command` over a buffer of whole commands.
fn parse_all(buf: &[u8], limits: &Limits) -> u64 {
    let (mut off, mut cmds) = (0, 0);
    while off < buf.len() {
        match parse_command(&buf[off..], limits) {
            ParseOutcome::Cmd(cmd, used) => {
                black_box(cmd);
                off += used;
                cmds += 1;
            }
            other => panic!("the benchmark's own bytes must parse: {other:?}"),
        }
    }
    cmds
}

/// `proto.*` timings and the client's share, on the workload's keys and
/// sizes.
pub fn proto(rep: &mut Report, trace: &TraceConfig, n: u64) {
    let limits = Limits::default();
    let mut gen = TraceGenerator::new(trace.clone());
    let (mut gets, mut sets, mut keys, mut val) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut objects = Vec::new();
    for _ in 0..n {
        let r = gen.next_request();
        let start = keys.len();
        write!(keys, "{}", r.key).expect("write to a Vec");
        let vlen = (r.size as usize).saturating_sub(keys.len() - start).max(1);
        objects.push((start, keys.len(), r.key, vlen));
    }
    for &(a, b, key, vlen) in &objects {
        encode_get(&mut gets, [&keys[a..b]], false);
        val.clear();
        synth_value(&mut val, key, vlen);
        let cmd = SetCmd {
            key: &keys[a..b],
            flags: 0,
            exptime: 0,
            data: &val,
            noreply: true,
        };
        encode_set(&mut sets, &cmd);
    }
    let t0 = Instant::now();
    let cmds = parse_all(&gets, &limits);
    let get_s = t0.elapsed().as_secs_f64();
    rep.put(
        "proto.parse_get_ns",
        get_s * 1e9 / cmds as f64,
        format!("n={cmds}"),
    );
    let t0 = Instant::now();
    let cmds = parse_all(&sets, &limits);
    let set_s = t0.elapsed().as_secs_f64();
    rep.put(
        "proto.parse_set_ns",
        set_s * 1e9 / cmds as f64,
        format!("n={cmds}"),
    );
    let mb = (gets.len() + sets.len()) as f64 / 1e6;
    rep.put(
        "proto.parse_mb_s",
        mb / (get_s + set_s),
        format!("n={}", 2 * cmds),
    );

    let t0 = Instant::now();
    for &(a, b, ..) in &objects {
        black_box(map_key(&keys[a..b]));
    }
    rep.put("proto.map_key_ns", ns_each(t0, n), format!("n={n}"));
    let mut out = Vec::new();
    let t0 = Instant::now();
    for &(a, b, key, vlen) in &objects {
        out.clear();
        val.clear();
        synth_value(&mut val, key, vlen);
        encode_value(&mut out, &keys[a..b], 0, None, &val);
        black_box(&out);
    }
    rep.put("proto.render_hit_ns", ns_each(t0, n), format!("n={n}"));

    let (gen_ns, check_ns) = wire::client_costs(trace, n);
    rep.put("client.gen_ns_per_req", gen_ns, format!("n={n}"));
    rep.put("client.resp_parse_ns", check_ns, format!("n={n}"));
}

/// An engine that does nothing, so the hop through the dispatcher, the
/// shard queue and the worker is all that is timed.
struct Noop;

impl CacheEngine for Noop {
    fn name(&self) -> &'static str {
        "noop"
    }
    fn try_get(&mut self, _key: u64, now: Nanos) -> Result<GetOutcome, EngineError> {
        Ok(GetOutcome::memory_hit(now))
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

/// `service.hop_*`: Dispatcher -> shard queue -> worker -> Completion.
pub fn service_hop(rep: &mut Report, n: u64) {
    let cache = ShardedCacheBuilder::new(SHARDS)
        .inflight(32)
        .spawn(|_| Noop);
    let dispatcher = cache.dispatcher();
    let (tx, rx) = channel();
    let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // A pause before each op lets the workers park: every sample pays
    // the wake-ups a request arriving at an idle fleet pays.
    let mut d1 = Samples::default();
    for i in 0..n {
        std::thread::sleep(Duration::from_micros(20));
        let t0 = Instant::now();
        dispatcher.dispatch_lookup(key(i), Nanos(i), i, &tx);
        black_box(rx.recv().expect("shard worker alive"));
        d1.push(t0.elapsed().as_nanos() as u64);
    }
    rep.put_ns("service.hop_d1_ns_p50", &mut d1, 1.0, Some(0.5));
    let rounds = n * 4 / 16;
    let t0 = Instant::now();
    for round in 0..rounds {
        for j in 0..16 {
            dispatcher.dispatch_lookup(key(round * 16 + j), Nanos(round), j, &tx);
        }
        for _ in 0..16 {
            black_box(rx.recv().expect("shard worker alive"));
        }
    }
    let ops = rounds * 16;
    rep.put(
        "service.hop_d16_ns_per_op",
        ns_each(t0, ops),
        format!("n={ops}"),
    );
    // The workers run until every sender is gone, the dispatcher's too.
    drop(dispatcher);
    cache.finish(Nanos::ZERO);
}

/// Appends every zone whole; returns ns per page.
fn append_ns_per_page<D: ZonedFlash>(dev: &mut D, zones: u32) -> f64 {
    let geom = dev.geometry();
    let zone = vec![0xA5u8; (geom.pages_per_zone() * geom.page_size()) as usize];
    let t0 = Instant::now();
    for z in 0..zones {
        dev.append(ZoneId(z), &zone, Nanos::ZERO)
            .expect("append a whole zone");
    }
    ns_each(t0, zones as u64 * geom.pages_per_zone() as u64)
}

/// Reads random pages of full zones, `depth` at a time, through
/// submit/poll; returns the pages read and ns per page.
fn reads_ns_per_page<D: ZonedFlash>(
    dev: &mut D,
    zones: u32,
    depth: usize,
    pages: u64,
) -> (u64, f64) {
    let geom = dev.geometry();
    let (mut batch, mut done) = (ReadBatch::new(), Vec::new());
    let mut out = vec![0u8; depth * geom.page_size() as usize];
    let mut addrs = vec![PageAddr::new(0, 0); depth];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let rounds = pages / depth as u64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for a in &mut addrs {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = (x >> 32) % geom.pages_per_zone() as u64;
            *a = PageAddr::new((x % zones as u64) as u32, page as u32);
        }
        dev.submit_read_batch(&mut batch, &addrs, &mut out, Nanos::ZERO, depth)
            .expect("submit a read batch");
        done.clear();
        while !dev.poll_completions(&mut batch, &mut done).expect("poll") {}
        black_box(&out);
    }
    let pages = rounds * depth as u64;
    (pages, ns_each(t0, pages))
}

/// `flash.sim.*` and `flash.real.*` on stand-alone devices of the
/// workloads' geometries.
pub fn flash(rep: &mut Report, n: u64) {
    let geom = nemo_config(SIM_ZONES).geometry;
    let mut sim = SimFlash::with_latency(geom, LatencyModel::default());
    let append = append_ns_per_page(&mut sim, SIM_ZONES);
    let (pages, read) = reads_ns_per_page(&mut sim, SIM_ZONES, 8, n);
    rep.put(
        "flash.sim.append_ns_per_page",
        append,
        format!("n={}", SIM_ZONES * 256),
    );
    rep.put(
        "flash.sim.submit_poll_ns_per_page",
        read,
        format!("n={pages}"),
    );
    drop(sim);

    let geom = nemo_config(REAL_ZONES).geometry;
    let image = Image::new("flash-probe");
    let mut real = RealFlash::create(geom, &image.0, RealFlashOptions::default())
        .expect("create the device image");
    let append = append_ns_per_page(&mut real, REAL_ZONES);
    let (pages, read) = reads_ns_per_page(&mut real, REAL_ZONES, 8, n / 16);
    rep.put(
        "flash.real.append_ns_per_page",
        append,
        format!("n={}", REAL_ZONES * 256),
    );
    rep.put(
        "flash.real.submit_poll_ns_per_page",
        read,
        format!("n={pages}"),
    );
    // With 70 us slept per page: one page at a time, as the engine's
    // default read path waits, and eight overlapped.
    real.set_emulated_read_latency(Some(Duration::from_micros(READ_US)));
    for (name, depth) in [("qd1", 1usize), ("qd8", 8)] {
        let pages = n / 64;
        let (_, read) = reads_ns_per_page(&mut real, REAL_ZONES, depth, pages);
        let name = format!("flash.real.submit_poll_{name}_us_per_page");
        rep.put(&name, read / 1e3, format!("n={pages}"));
    }
    real.set_emulated_read_latency(None);
    // Zone finish: reset, write one page, finish (with its fsync barrier).
    let page = vec![0x5Au8; geom.page_size() as usize];
    let mut finish = Duration::ZERO;
    for z in 0..REAL_ZONES {
        real.reset_zone(ZoneId(z), Nanos::ZERO)
            .expect("reset a zone");
        real.append(ZoneId(z), &page, Nanos::ZERO)
            .expect("append a page");
        let t0 = Instant::now();
        real.finish_zone(ZoneId(z)).expect("finish a zone");
        finish += t0.elapsed();
    }
    rep.put(
        "flash.real.zone_finish_ms",
        finish.as_secs_f64() * 1e3 / REAL_ZONES as f64,
        format!("n={REAL_ZONES}"),
    );
}

/// `net.loopback_rtt_p50_us`: a bare echo of a 30 B request and a
/// 300 B reply over loopback TCP, the floor under the wire workload.
pub fn net(rep: &mut Report, n: u64) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local address");
    let echo = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_nodelay(true).expect("nodelay");
        let (mut req, reply) = ([0u8; 30], [b'x'; 300]);
        while s.read_exact(&mut req).is_ok() {
            if s.write_all(&reply).is_err() {
                break;
            }
        }
    });
    let mut s = TcpStream::connect(addr).expect("connect loopback");
    s.set_nodelay(true).expect("nodelay");
    let (req, mut reply) = ([b'q'; 30], [0u8; 300]);
    let mut rtt = Samples::default();
    for _ in 0..n {
        let t0 = Instant::now();
        s.write_all(&req).expect("send");
        s.read_exact(&mut reply).expect("receive");
        rtt.push(t0.elapsed().as_nanos() as u64);
    }
    drop(s);
    echo.join().expect("echo thread panicked");
    rep.put_ns("net.loopback_rtt_p50_us", &mut rtt, 1e3, Some(0.5));
}

/// All stand-alone probes, sized from the run length.
pub fn all(args: &Args, rep: &mut Report, trace: &TraceConfig) {
    leaves(rep, trace, args.ops(40_000));
    proto(rep, trace, args.ops(20_000));
    service_hop(rep, args.ops(1_000));
    flash(rep, args.ops(20_000));
    net(rep, args.ops(1_000));
}
