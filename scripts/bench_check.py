#!/usr/bin/env python3
"""Gates a benchmark run's counted metrics against a committed golden run.

Usage:
    cargo run --release --offline --manifest-path perf/Cargo.toml -- \\
        --all --quick --seed 1 --trace 0 | tail -1 > run.json
    python3 scripts/bench_check.py golden/perf_quick_seed1.json run.json

Both files are the last line of `nemo-perf --all`: one JSON object per
workload. Every workload must be `correct` with no failed operation. On
the workloads whose counted metrics repeat to the last digit per seed,
those metrics must equal the golden's exactly. `wire_twitter`'s move with
thread timing, so they are held to BENCHMARK.json's bounds instead.
Wall-clock metrics are not gated: they measure the host as much as the
code. A change that means to move a gated metric regenerates the golden
file in the same diff.
"""

import json
import pathlib
import sys

COUNTED = [
    "hit_ratio",
    "alwa",
    "set_reads_per_get",
    "flash_read_bytes_per_get",
    "index_bits_per_object",
]
EXACT = {
    "inproc_twitter": COUNTED + ["get_mean_us"],
    "inproc_flat_write": COUNTED + ["get_mean_us"],
    "real_direct": COUNTED,
}
BOUNDED = {"wire_twitter": COUNTED}


def worse_by(golden, run, better):
    """Relative change of `run` against `golden`, positive when worse."""
    if golden == 0:
        return 0.0 if run == golden else float("inf")
    change = (run - golden) / abs(golden)
    return -change if better == "higher" else change


def check(golden, run, contract):
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    errors = []
    for workload in golden:
        got = run.get(workload)
        if got is None:
            errors.append(f"{workload}: missing from the run")
            continue
        if not got["correct"] or got["failed"] != 0:
            errors.append(f"{workload}: correct={got['correct']} failed={got['failed']}")
        want_m, got_m = golden[workload]["metrics"], got["metrics"]
        for name in EXACT.get(workload, []):
            want, have = want_m[name]["value"], got_m[name]["value"]
            if want != have:
                errors.append(f"{workload} {name}: {have!r} != golden {want!r}")
        for name in BOUNDED.get(workload, []):
            want, have = want_m[name]["value"], got_m[name]["value"]
            bound = bounds[name]
            worse = worse_by(want, have, bound["better"])
            if worse > bound["bound"]:
                errors.append(
                    f"{workload} {name}: {have!r} is {worse:.1%} worse than "
                    f"golden {want!r} (bound {bound['bound']:.0%})"
                )
    return errors


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    golden, run = (json.loads(pathlib.Path(p).read_text()) for p in argv[1:])
    contract = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    errors = check(golden, run, contract)
    for e in errors:
        print(f"bench_check: {e}")
    if errors:
        sys.exit(1)
    gated = sum(len(EXACT.get(w, [])) + len(BOUNDED.get(w, [])) for w in golden)
    print(f"bench_check: {gated} counted metrics over {len(golden)} workloads hold")


if __name__ == "__main__":
    main(sys.argv)
