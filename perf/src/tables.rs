//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` is generated from these
//! tables and the self-test holds the file and the binary together.

pub const RUN_SECONDS: u64 = 15;

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "wire_twitter",
        "the path a memcached client pays: proto and the service hop do most of the work, so an engine-only change predicts no movement",
    ),
    (
        "inproc_twitter",
        "the Fig. 15 loop without sockets: service and core (MemSg hits, newest-group index hits) do the work and proto none",
    ),
    (
        "inproc_flat_write",
        "flat popularity and 30 % writes: index walk, candidate waves, flush, eviction scan and write-back dominate, so a get gain bought by a slower flush shows",
    ),
    (
        "real_direct",
        "the one workload where device time is real wall time (slept off-CPU): flash.real and the read scheduling dominate; it carries the restart checks",
    ),
];

const LO: &str = "lower";
const HI: &str = "higher";

/// `(name, unit, better, bound)`. Every workload reports every one.
pub const END_TO_END: [(&str, &str, &str, f64); 12] = [
    ("setup_s", "s", LO, 0.25),
    ("ops_s", "1/s", HI, 0.25),
    ("get_mean_us", "us", LO, 0.25),
    ("wall_get_p50_us", "us", LO, 0.25),
    ("wall_get_p90_us", "us", LO, 0.25),
    ("hit_ratio", "ratio", HI, 0.01),
    ("alwa", "ratio", LO, 0.08),
    ("set_reads_per_get", "pages", LO, 0.03),
    ("flash_read_bytes_per_get", "B", LO, 0.03),
    ("index_bits_per_object", "bits", LO, 0.15),
    ("cpu_us_per_op", "us", LO, 0.25),
    ("rss_mb", "MB", LO, 0.2),
];

/// `(name, unit, better)`, taken in the traced run.
pub const PER_LAYER: [(&str, &str, &str); 82] = [
    ("client.gen_ns_per_req", "ns", LO),
    ("client.resp_parse_ns", "ns", LO),
    ("client.batch_rtt_p50_us", "us", LO),
    ("client.batch_rtt_p99_us", "us", LO),
    ("client.wall_get_p99_us", "us", LO),
    ("client.wall_get_p999_us", "us", LO),
    ("net.loopback_rtt_p50_us", "us", LO),
    ("proto.parse_get_ns", "ns", LO),
    ("proto.parse_set_ns", "ns", LO),
    ("proto.parse_mb_s", "MB/s", HI),
    ("proto.map_key_ns", "ns", LO),
    ("proto.render_hit_ns", "ns", LO),
    ("proto.bytes_in_per_op", "B", LO),
    ("proto.bytes_out_per_op", "B", LO),
    ("proto.cmds", "count", LO),
    ("proto.get_keys", "count", LO),
    ("proto.set_cmds", "count", LO),
    ("proto.noreply_sets", "count", LO),
    ("proto.protocol_errors", "count", LO),
    ("proto.server_errors", "count", LO),
    ("proto.meta_entries", "count", LO),
    ("service.hop_d1_ns_p50", "ns", LO),
    ("service.hop_d16_ns_per_op", "ns", LO),
    ("service.queued_share", "ratio", LO),
    ("service.model_get_mean_us", "us", LO),
    ("service.model_get_tail_us", "us", LO),
    ("service.shard_imbalance", "ratio", LO),
    ("service.finish_ms", "ms", LO),
    ("core.get_mem_ns_p50", "ns", LO),
    ("core.get_flash_ns_p50", "ns", LO),
    ("core.get_miss_ns_p50", "ns", LO),
    ("core.get_ns_mean", "ns", LO),
    ("core.mem_hit_share", "ratio", HI),
    ("core.candidates_per_get", "count", LO),
    ("core.bloom_fp_reads_per_get", "pages", LO),
    ("core.stale_reads_per_get", "pages", LO),
    ("core.capped_query_share", "ratio", LO),
    ("core.superseded_cutoff_share", "ratio", HI),
    ("core.pbfg_cache_miss_ratio", "ratio", LO),
    ("core.put_ns_p50", "ns", LO),
    ("core.put_ns_p999", "ns", LO),
    ("core.put_ns_mean", "ns", LO),
    ("core.bg_slice_ns_mean", "ns", LO),
    ("core.bg_slices_per_op", "count", LO),
    ("core.flushes", "count", LO),
    ("core.sg_fill_rate_mean", "ratio", HI),
    ("core.sacrificed_per_put", "count", LO),
    ("core.writeback_objects", "count", HI),
    ("core.forced_scan_finishes", "count", LO),
    ("core.index_pool_pages_written", "pages", LO),
    ("core.wall_share", "ratio", HI),
    ("core.checkpoint_encode_ms", "ms", LO),
    ("core.checkpoint_bytes", "B", LO),
    ("core.recover_warm_ms", "ms", LO),
    ("core.recover_cold_ms", "ms", LO),
    ("core.recover_cold_pages_read", "pages", LO),
    ("flash.sim.append_ns_per_page", "ns", LO),
    ("flash.sim.submit_poll_ns_per_page", "ns", LO),
    ("flash.real.append_ns_per_page", "ns", LO),
    ("flash.real.submit_poll_ns_per_page", "ns", LO),
    ("flash.real.submit_poll_qd1_us_per_page", "us", LO),
    ("flash.real.submit_poll_qd8_us_per_page", "us", LO),
    ("flash.real.zone_finish_ms", "ms", LO),
    ("flash.real.wall_share", "ratio", HI),
    ("flash.pages_read_per_get", "pages", LO),
    ("flash.pages_written_per_put", "pages", LO),
    ("flash.zone_resets", "count", LO),
    ("flash.dlwa", "ratio", LO),
    ("flash.busy_share", "ratio", LO),
    ("flash.device_retries", "count", LO),
    ("flash.read_errors", "count", LO),
    ("flash.write_errors", "count", LO),
    ("flash.inflight_hwm", "count", LO),
    ("bloom.insert_ns", "ns", LO),
    ("bloom.probe_ns", "ns", LO),
    ("trace.gen_ns_per_req", "ns", LO),
    ("wire.stitched_ops_s", "1/s", HI),
    ("wire.layers_share", "ratio", HI),
    ("wire.unattributed_share", "ratio", LO),
    ("spans.overhead_share", "ratio", LO),
    ("spans.sampled", "count", HI),
    ("spans.replay_ops_s", "1/s", HI),
];

/// Unit and direction of a metric of either table.
pub fn unit_of(name: &str) -> Option<(&'static str, &'static str)> {
    let e2e = END_TO_END.iter().map(|&(n, u, b, _)| (n, u, b));
    e2e.chain(PER_LAYER.iter().copied())
        .find(|&(n, ..)| n == name)
        .map(|(_, u, b)| (u, b))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"perf\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}")
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}
