//! What every workload shares: the fleet and trace shapes, sample
//! statistics, process counters and the report a run fills in.

use nemo_core::{Nemo, NemoConfig};
use nemo_engine::EngineStats;
use nemo_flash::Geometry;
use nemo_service::{ShardedCache, ShardedCacheBuilder};
use nemo_trace::{ClusterProfile, TraceConfig, TwitterCluster};
use std::path::PathBuf;
use std::time::Instant;

/// Shards (and connection workers, and client connections) per fleet.
pub const SHARDS: usize = 2;
/// Zones of 1 MB per simulated shard device.
pub const SIM_ZONES: u32 = 64;
/// Zones of the `real_direct` image.
pub const REAL_ZONES: u32 = 48;
/// Virtual-time arrival gap of the in-process drivers: 64 000 req/s.
pub const GAP_NS: u64 = 15_625;
/// Set-ups made per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What `experiments serve` runs: 4 KB pages, 1 MB zones, 64 dies, the
/// default latency model, deferred eviction. No other knob is set, so
/// the benchmark follows whatever the default read path becomes.
pub fn nemo_config(zones: u32) -> NemoConfig {
    let mut cfg = NemoConfig::new(Geometry::new(4096, 256, zones, 64));
    cfg.flush_threshold = 4;
    cfg.expected_objects_per_set = 16;
    cfg.background_eviction = true;
    cfg
}

/// The 2-shard fleet of the wire and in-process workloads.
pub fn fleet() -> ShardedCache<Nemo> {
    ShardedCacheBuilder::new(SHARDS)
        .inflight(32)
        .spawn(nemo_config(SIM_ZONES).factory())
}

/// The merged Twitter trace with a key catalog of `catalog_mb`.
pub fn twitter(seed: u64, catalog_mb: f64) -> TraceConfig {
    let mut cfg = TraceConfig::twitter_merged(1.0);
    let wss: u64 = cfg.clusters.iter().map(|c| c.wss_bytes).sum();
    cfg.scale = catalog_mb * 1048576.0 / (wss * cfg.key_spaces as u64) as f64;
    cfg.seed = seed;
    cfg
}

/// One flat cluster (C52 sizes, alpha 0.7) with 30 % direct writes.
pub fn flat_write(seed: u64, catalog_mb: f64) -> TraceConfig {
    let mut cluster = ClusterProfile::twitter(TwitterCluster::C52);
    cluster.zipf_alpha = 0.7;
    let scale = catalog_mb * 1048576.0 / cluster.wss_bytes as f64;
    TraceConfig {
        clusters: vec![cluster],
        weights: vec![1.0],
        key_spaces: 1,
        scale,
        write_fraction: 0.30,
        seed,
    }
}

/// Where span files go; removed when a run ends.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Where device images go: `$NEMO_DEV_DIR`, else the out directory, so
/// that by default a run writes inside its checkout only.
pub fn dev_dir() -> PathBuf {
    std::env::var_os("NEMO_DEV_DIR").map_or_else(out_dir, PathBuf::from)
}

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub start: Instant,
}

impl Args {
    /// Ops for a phase sized at `per_second` ops per nominal second.
    /// Op counts, not a timer, end a phase: the counted metrics then
    /// repeat bit for bit for one seed.
    pub fn ops(&self, per_second: u64) -> u64 {
        let n = per_second * self.seconds;
        (if self.quick { n / 50 } else { n }).max(64)
    }

    /// The workload's request mix over `flash_mb` of cache: the merged
    /// Twitter trace with a catalog 6x the flash, or the flat write-heavy
    /// cluster at 1.5x. `salt` gives a connection key spaces of its own:
    /// it changes bits of the seed that the per-cluster salts leave alone.
    pub fn mix(&self, salt: u64, flash_mb: f64) -> TraceConfig {
        let seed = self.seed ^ (salt << 40);
        if self.workload == "inproc_flat_write" {
            flat_write(seed, 1.5 * flash_mb)
        } else {
            twitter(seed, 6.0 * flash_mb)
        }
    }
}

/// Nanosecond samples with exact percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    v: Vec<u32>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.v.push(ns.min(u32::MAX as u64) as u32);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.v.extend_from_slice(&other.v);
        self.sorted = false;
    }

    pub fn n(&self) -> usize {
        self.v.len()
    }

    pub fn mean(&self) -> f64 {
        self.v.iter().map(|&x| x as f64).sum::<f64>() / self.v.len().max(1) as f64
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.v.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q` quantile in ns (0 when empty).
    pub fn q(&mut self, q: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        self.sort();
        let i = ((self.v.len() as f64 * q).ceil() as usize).clamp(1, self.v.len());
        self.v[i - 1] as f64
    }

    /// The highest of p99, p99.9, … with at least ten samples beyond it.
    pub fn highest(&self) -> f64 {
        let mut q: f64 = 0.9;
        while self.v.len() as f64 * (1.0 - q) / 10.0 >= 10.0 {
            q = 1.0 - (1.0 - q) / 10.0;
        }
        q
    }

    /// Mean of the slowest `share` of the samples: a tail measure that
    /// moves smoothly where a high percentile sits on a plateau.
    pub fn tail_mean(&mut self, share: f64) -> f64 {
        self.sort();
        let k = ((self.v.len() as f64 * share).ceil() as usize).max(1);
        let tail = &self.v[self.v.len().saturating_sub(k)..];
        tail.iter().map(|&x| x as f64).sum::<f64>() / tail.len().max(1) as f64
    }

    /// `p50/p90/p<highest> n=` in `unit`s of `div` ns, for the table.
    pub fn summary(&mut self, div: f64) -> String {
        let hi = self.highest();
        let nines = (-(1.0 - hi).log10()).round() as usize;
        let label = match nines {
            1 => "90".to_string(),
            2 => "99".to_string(),
            k => format!("99.{}", "9".repeat(k - 2)),
        };
        format!(
            "p50 {:.2} p90 {:.2} p{} {:.2} n={}",
            self.q(0.5) / div,
            self.q(0.9) / div,
            label,
            self.q(hi) / div,
            self.n()
        )
    }
}

/// CPU seconds the live threads of this process have run, from the
/// scheduler's own nanosecond counters (`utime + stime` of
/// `/proc/self/stat` is sampled at 100 Hz and misses short bursts).
/// Take both ends of a difference while the same threads are alive.
pub fn cpu_seconds() -> f64 {
    let on_cpu = |task: std::fs::DirEntry| -> Option<f64> {
        let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
        stat.split_whitespace().next()?.parse().ok()
    };
    let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten();
    tasks.flatten().filter_map(on_cpu).sum::<f64>() / 1e9
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The measured phase runs in `SLICES` equal parts; throughput and CPU
/// are the median part's, so that one disturbed second does not move
/// them. The depth-1 latency samples are taken between the parts, so
/// that they see the host in as many states as the run does.
pub const SLICES: u64 = 8;

#[derive(Debug)]
pub struct Slices {
    t: Instant,
    cpu: f64,
    rates: Vec<f64>,
    cpu_us: Vec<f64>,
}

impl Slices {
    pub fn new() -> Self {
        Self {
            t: Instant::now(),
            cpu: 0.0,
            rates: Vec::new(),
            cpu_us: Vec::new(),
        }
    }

    /// Starts a part.
    pub fn begin(&mut self) {
        (self.t, self.cpu) = (Instant::now(), cpu_seconds());
    }

    /// Ends the part begun last, of `ops` ops.
    pub fn end(&mut self, ops: u64) {
        let (secs, cpu) = (self.t.elapsed().as_secs_f64(), cpu_seconds() - self.cpu);
        self.rates.push(ops as f64 / secs);
        self.cpu_us.push(cpu * 1e6 / ops as f64);
    }

    /// Reports `ops_s` and `cpu_us_per_op`.
    pub fn report(self, rep: &mut Report, cpu_note: &str) {
        let n = format!("n={} parts", self.rates.len());
        rep.put("ops_s", median(self.rates), &n);
        rep.put(
            "cpu_us_per_op",
            median(self.cpu_us),
            format!("{n}{cpu_note}"),
        );
    }
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// One printed metric.
#[derive(Debug)]
pub struct Value {
    pub name: String,
    pub value: f64,
    /// Sample count and, for timings, the percentile summary.
    pub note: String,
}

/// What a run reports: metrics by name, ops attempted and failed, and
/// the output checks that did not hold.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, note: impl Into<String>) {
        assert!(
            !self.values.iter().any(|v| v.name == name),
            "metric {name} reported twice"
        );
        self.values.push(Value {
            name: name.to_string(),
            value,
            note: note.into(),
        });
    }

    /// A timing metric in units of `div` ns: the `q` quantile of `s`, or
    /// its mean.
    pub fn put_ns(&mut self, name: &str, s: &mut Samples, div: f64, q: Option<f64>) {
        let v = match q {
            Some(q) => s.q(q),
            None => s.mean(),
        };
        let note = s.summary(div);
        self.put(name, v / div, note);
    }

    /// The counted metrics every workload reports alike: the measured
    /// phase's hit ratio and the whole run's drained engine counters.
    pub fn put_counts(&mut self, hits: u64, gets: u64, s: &EngineStats) {
        self.put("hit_ratio", hits as f64 / gets as f64, format!("n={gets}"));
        self.put("alwa", s.alwa(), format!("n={}", s.puts));
        let n = format!("n={}", s.gets);
        self.put("set_reads_per_get", s.candidate_reads_per_get(), &n);
        self.put("flash_read_bytes_per_get", s.read_bytes_per_get(), &n);
    }

    /// The value already reported under `name`.
    pub fn get(&self, name: &str) -> f64 {
        let found = self.values.iter().find(|v| v.name == name);
        found
            .unwrap_or_else(|| panic!("{name} is not reported yet"))
            .value
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}
