//! Holds `BENCHMARK.json` and the binary together, and proves that
//! `--seed` reaches the workloads. Every workload runs with `--quick`
//! (op counts / 50, same shapes). One test, so the runs do not share the
//! out directory or the cores.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_nemo-perf");
const WORKLOADS: [&str; 4] = [
    "wire_twitter",
    "inproc_twitter",
    "inproc_flat_write",
    "real_direct",
];
/// Counted or modeled: these repeat bit for bit for one seed in process.
const EXACT: [&str; 6] = [
    "get_mean_us",
    "hit_ratio",
    "alwa",
    "set_reads_per_get",
    "flash_read_bytes_per_get",
    "index_bits_per_object",
];

/// `(name, value, unit)` of every metric on a run's last stdout line.
fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, f64, String)> {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--quick",
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} failed:\n{text}");
    let line = text.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    let body = line.split_once("\"metrics\": {").expect("metrics").1;
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry
                .split_once("\": {\"value\": ")
                .expect("a metric entry");
            let (value, unit) = rest.split_once(", \"unit\": \"").expect("a unit");
            let value: f64 = value.parse().expect("a number");
            assert!(value.is_finite(), "{name} is {value}");
            let unit = unit.trim_end_matches(['"', '}']);
            (
                name.trim_start_matches('"').to_string(),
                value,
                unit.to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of the entries of one list of `BENCHMARK.json`.
fn declared(json: &str, list: &str, until: &str) -> Vec<(String, String)> {
    let section = json.split_once(list).expect("list").1;
    let section = section.split_once(until).map_or(section, |s| s.0);
    section
        .split("{\"name\": \"")
        .skip(1)
        .map(|e| {
            let (name, rest) = e.split_once("\", \"unit\": \"").expect("a unit");
            (
                name.to_string(),
                rest.split('"').next().expect("unit").to_string(),
            )
        })
        .collect()
}

fn names_and_units(run: &[(String, f64, String)]) -> Vec<(String, String)> {
    run.iter().map(|(n, _, u)| (n.clone(), u.clone())).collect()
}

#[test]
fn file_and_binary_agree_and_seed_is_plumbed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let file = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let printed = Command::new(BIN)
        .arg("--benchmark-json")
        .output()
        .expect("run");
    assert_eq!(
        file,
        String::from_utf8(printed.stdout).expect("utf-8"),
        "regenerate BENCHMARK.json"
    );
    let end_to_end = declared(&file, "\"end_to_end\"", "\"per_layer\"");
    let per_layer = declared(&file, "\"per_layer\"", "\u{0}");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    for workload in WORKLOADS {
        let first = run(workload, 1, false);
        assert_eq!(names_and_units(&first), end_to_end, "{workload} untraced");
        assert_eq!(
            names_and_units(&run(workload, 1, true)),
            per_layer,
            "{workload} traced"
        );
        let spans = root.join(format!("out/trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(spans).expect("the span file");
        assert!(spans.lines().count() > 10 && spans.contains("\"parent\":\"request\""));
        if !workload.starts_with("inproc_") {
            continue;
        }
        let exact = |r: &[(String, f64, String)]| -> Vec<u64> {
            r.iter()
                .filter(|m| EXACT.contains(&m.0.as_str()))
                .map(|m| m.1.to_bits())
                .collect()
        };
        assert_eq!(exact(&first).len(), EXACT.len());
        assert_eq!(
            exact(&first),
            exact(&run(workload, 1, false)),
            "{workload}: one seed, two runs"
        );
        assert_ne!(
            exact(&first),
            exact(&run(workload, 2, false)),
            "{workload}: another seed"
        );
    }
    std::fs::remove_dir_all(root.join("out")).expect("remove the out directory");
}
