//! The repo's benchmark: four workloads measured end to end, and every
//! layer timed from outside in a traced run. See README.md.

mod client;
mod common;
mod inproc;
mod layers;
mod real;
mod replay;
mod spans;
mod tables;
mod traced;
mod wire;

use common::{Args, Report};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: nemo-perf (--all | --workload <name>) [--seed <n>] [--seconds <n>] \
[--trace [0|1]] [--quick] | --benchmark-json";

/// Prints the table, then the result as the last line of stdout.
fn print(args: &Args, rep: &Report) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "# {} seed {} {mode}, {} s nominal",
        args.workload, args.seed, args.seconds
    );
    println!(
        "{:42} {:>16} {:7} {:7} samples",
        "metric", "value", "unit", "better"
    );
    let mut metrics = Vec::new();
    for v in &rep.values {
        let (unit, better) = tables::unit_of(&v.name).expect("a metric of the tables");
        println!(
            "{:42} {:>16.4} {unit:7} {better:7} {}",
            v.name, v.value, v.note
        );
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            v.name, v.value
        ));
    }
    for v in &rep.violations {
        println!("VIOLATED: {v}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.violations.is_empty() && rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
}

/// Runs one workload in this process.
fn run(args: &Args) -> ExitCode {
    let mut rep = Report::default();
    let expected: Vec<&str> = if args.trace {
        traced::run(args, &mut rep);
        tables::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        match args.workload.as_str() {
            "wire_twitter" => wire::run(args, &mut rep),
            "real_direct" => real::run(args, &mut rep),
            _ => inproc::run(args, &mut rep),
        }
        tables::END_TO_END.iter().map(|m| m.0).collect()
    };
    // Leave nothing behind but span files.
    let _ = std::fs::remove_dir(common::out_dir());
    let mut got: Vec<&str> = rep.values.iter().map(|v| v.name.as_str()).collect();
    let mut want = expected.clone();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        got, want,
        "the run must report exactly the metrics of its table"
    );
    rep.values
        .sort_by_key(|v| expected.iter().position(|n| *n == v.name));
    for v in &rep.values {
        let finite = v.value.is_finite();
        rep.violations
            .extend((!finite).then(|| format!("{} is {}", v.name, v.value)));
    }
    print(args, &rep);
    if rep.violations.is_empty() && rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this program");
    let mut results = Vec::new();
    let mut ok = true;
    for (name, _) in tables::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd.output().expect("run a workload");
        let text = String::from_utf8_lossy(&out.stdout);
        let (table, json) = text.trim_end().rsplit_once('\n').unwrap_or(("", ""));
        println!("{table}\n");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        ok &= out.status.success();
        results.push(format!(
            "\"{name}\": {}",
            if json.is_empty() { "null" } else { json }
        ));
    }
    println!("{{{}}}", results.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: tables::RUN_SECONDS,
        trace: false,
        quick: false,
        start: Instant::now(),
    };
    let mut all = false;
    let mut it = std::env::args().skip(1).peekable();
    let number = |v: Option<String>| v.and_then(|s| s.parse::<u64>().ok());
    while let Some(a) = it.next() {
        let ok = match a.as_str() {
            "--all" => {
                all = true;
                true
            }
            "--workload" => it.next().map(|w| args.workload = w).is_some(),
            "--seed" => number(it.next()).map(|n| args.seed = n).is_some(),
            "--seconds" => number(it.next())
                .map(|n| args.seconds = n.clamp(1, 60))
                .is_some(),
            "--trace" => {
                // A switch, or the driver's `--trace 0|1`.
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
                true
            }
            "--quick" => {
                args.quick = true;
                true
            }
            "--benchmark-json" => {
                print!("{}", tables::benchmark_json());
                return ExitCode::SUCCESS;
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {a}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if all {
        return run_all(&args);
    }
    if !tables::WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    run(&args)
}
