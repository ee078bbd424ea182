#!/usr/bin/env python3
"""Developer checks for sybench, run from anywhere inside the repository.

  check.py contract          BENCHMARK.json obeys its limits; every workload
                             emits exactly the declared metrics with
                             --trace 0 and --trace 1; the counts repeat
                             exactly under one seed and do not follow the data
                             under another.
  check.py spread [--sets N] [--runs N] [--workload NAME]
                             N sets of runs, each run under another seed;
                             per end-to-end metric and workload the median,
                             the quartile distance as a share of the median
                             against the declared bound, and how far each
                             set's median is worse than the first set's.

Both run the command BENCHMARK.json declares, from the repository root.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Metrics that are counts of what the protocol did, not measurements.
COUNTS = {"comm_bytes", "super_rounds"}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result object, wall seconds)."""
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.time()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: result has keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return result, wall


def contract():
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(BENCH) != keys:
        problems.append(f"top-level keys are {sorted(BENCH)}")
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    for w in BENCH["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: keys or why out of limits")
    for m in BENCH["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 <= m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m['name']}: keys or bound out of limits")
    for m in BENCH["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m['name']}: keys out of limits")
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']}: unit or direction out of limits")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("no setup_s in seconds, lower is better")
    if not (2 <= len(BENCH["workloads"]) <= 8 and 1 <= len(BENCH["end_to_end"]) <= 16
            and 1 <= len(BENCH["per_layer"]) <= 128 and 1 <= BENCH["run_seconds"] <= 60):
        problems.append("a list or run_seconds is out of limits")
    if problems:
        sys.exit("BENCHMARK.json: " + "; ".join(problems))

    for w in BENCH["workloads"]:
        name = w["name"]
        for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            first, _ = run(name, 1, 1, trace)
            want = {m["name"]: m["unit"] for m in declared}
            got = {n: v["unit"] for n, v in first["metrics"].items()}
            if got != want:
                odd = sorted(set(got.items()) ^ set(want.items()))
                sys.exit(f"{name} --trace {trace}: declared and emitted differ in {odd}")
            if trace == 0:
                zero = [n for n, v in first["metrics"].items() if v["value"] == 0]
                if zero:
                    sys.exit(f"{name}: end-to-end metrics read 0: {zero}")
                again, _ = run(name, 1, 1, 0)
                other, _ = run(name, 2, 1, 0)
                for n in COUNTS:
                    values = [r["metrics"][n]["value"] for r in (first, again, other)]
                    if len(set(values)) != 1:
                        sys.exit(f"{name}: {n} does not repeat: {values} (seeds 1, 1, 2)")
        print(f"{name}: declared metrics emitted, counts repeat")
    print("contract holds")


def spread(sets, runs, only):
    bounds = {m["name"]: m for m in BENCH["end_to_end"]}
    worst_wall = 0.0
    ok = True
    for w in BENCH["workloads"]:
        name = w["name"]
        if only and name != only:
            continue
        medians = {n: [] for n in bounds}
        for s in range(sets):
            values = {n: [] for n in bounds}
            for r in range(runs):
                result, wall = run(name, 1000 * s + r + 1, BENCH["run_seconds"], 0)
                worst_wall = max(worst_wall, wall)
                for n in bounds:
                    values[n].append(result["metrics"][n]["value"])
            for n, m in bounds.items():
                q1, med, q3 = statistics.quantiles(values[n], n=4)
                share = (q3 - q1) / med
                medians[n].append(med)
                drift = 0.0
                if s > 0:
                    sign = 1 if m["better"] == "lower" else -1
                    drift = sign * (med - medians[n][0]) / medians[n][0]
                limit = m["bound"] if n == "setup_s" else m["bound"] / 3
                spread_ok = n == "setup_s" or share <= limit
                verdict = "ok" if spread_ok and drift <= m["bound"] else "OVER"
                ok &= verdict == "ok"
                print(f"{name:18} set {s} {n:13} median {med:14.4f} {m['unit']:6}"
                      f" spread {share:7.4f} (bound/3 {m['bound'] / 3:.4f})"
                      f" worse than set 0 by {drift:+.4f} (bound {m['bound']}) {verdict}",
                      flush=True)
    print(f"slowest run took {worst_wall:.1f} s of wall time")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("contract")
    sp = sub.add_parser("spread")
    sp.add_argument("--sets", type=int, default=1)
    sp.add_argument("--runs", type=int, default=10)
    sp.add_argument("--workload")
    args = parser.parse_args()
    if args.what == "contract":
        contract()
    else:
        spread(args.sets, args.runs, args.workload)


if __name__ == "__main__":
    main()
