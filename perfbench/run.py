#!/usr/bin/env python3
"""treelocal benchmark: builds perfbench_driver from the checkout's sources
and runs the workloads, each in its own process.

Run from the repository root:

  python3 perfbench/run.py                      # every workload, table + JSON
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steady 10 [--workload W] [--trace 0|1]
  python3 perfbench/run.py --negative [--workload W]

When the runs produce a result, the last line of standard output is one
JSON object with the keys "correct", "attempted", "failed" and "metrics".
The exit code is non-zero on a build failure and on any correctness failure
(for --negative: when a fault-armed run did NOT count a failure, i.e. the
failure counter is dead).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["rake_compress_mmap", "edge_coloring_tree", "mis_tree",
             "serve_mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds perfbench_driver; returns its path, or
    None when the build fails."""
    bdir = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target",
                  "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench_driver")


def load_spec():
    """BENCHMARK.json at the repository root, or None when absent."""
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run_one(driver, workload, seed, seconds, trace, negative=False):
    """Runs one workload process; returns (result dict or None, exit code)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", os.path.join(build_root(), "perfbench-work")]
    if negative:
        cmd.append("--negative")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None, 1
    lines = p.stdout.strip().splitlines()
    try:
        return (json.loads(lines[-1]) if lines else None), p.returncode
    except ValueError:
        return None, p.returncode or 1


def check_catalogue(spec, result, trace):
    """The metrics printed must be exactly BENCHMARK.json's, units too."""
    if spec is None or result is None:
        return True
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, "
            "extra %s" % (sorted(set(want) - set(got)),
                          sorted(set(got) - set(want))))
        return False
    return True


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steady(driver, spec, workloads, seed, seconds, trace, runs):
    """Runs each workload `runs` times on consecutive seeds and prints the
    spread of every metric; returns the aggregate result."""
    bounds = {m["name"]: m.get("bound") for m in (spec or {}).get(
        "end_to_end", [])}
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        values = {}
        units = {}
        for i in range(runs):
            result, code = run_one(driver, w, seed + i, seconds, trace)
            if result is None or code != 0:
                out["correct"] = False
                continue
            out["attempted"] += result["attempted"]
            out["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s: %d runs, seeds %d..%d" % (w, runs, seed, seed + runs - 1))
        print("  %-30s %12s %12s %12s %8s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "max/min", "bound"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            lo, hi = min(vals), max(vals)
            bound = bounds.get(name) if not trace else None
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %8.4f %6s" % (
                name, med, q1, q3, sp, hi / lo if lo else 0.0,
                "" if bound is None else bound))
            out["metrics"]["%s.%s" % (w, name)] = {"value": med,
                                                   "unit": units[name]}
    return out


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=(spec or {}).get("run_seconds", 10))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run each workload N times and print the spreads")
    ap.add_argument("--negative", action="store_true",
                    help="negative control: arm a fault injector")
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    driver = build()
    if driver is None:
        return 1

    if args.steady:
        out = steady(driver, spec, workloads, args.seed, args.seconds,
                     args.trace, args.steady)
        print(json.dumps(out))
        return 0 if out["correct"] and out["failed"] == 0 else 1

    if args.negative:
        tripped = True
        out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in workloads:
            result, _ = run_one(driver, w, args.seed, args.seconds, False,
                                negative=True)
            failed = result["failed"] if result else 0
            attempted = result["attempted"] if result else 0
            frac = failed / attempted if attempted else 0.0
            print("%s: negative control failed_frac = %.4f (%d of %d) %s" % (
                w, frac, failed, attempted,
                "tripped" if failed else "DEAD COUNTER"))
            tripped = tripped and failed > 0
            out["attempted"] += attempted
            out["failed"] += failed
            out["metrics"][w + ".failed_frac"] = {"value": frac,
                                                  "unit": "ratio"}
        out["correct"] = tripped
        print(json.dumps(out))
        return 0 if tripped else 1

    if len(workloads) == 1:
        result, code = run_one(driver, workloads[0], args.seed, args.seconds,
                               args.trace)
        if result is None:
            return code or 1
        ok = check_catalogue(spec, result, args.trace)
        print(json.dumps(result))
        return code if ok else 1

    # Every workload: a table of every metric by name with its unit, then
    # the aggregate JSON line.
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in workloads:
        result, code = run_one(driver, w, args.seed, args.seconds, args.trace)
        if result is None or code != 0 or not check_catalogue(
                spec, result, args.trace):
            out["correct"] = False
            status = 1
        if result is None:
            print("%s: no result" % w)
            continue
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        frac = result["failed"] / result["attempted"]
        print("%s (correct=%s, failed_frac=%.4f):" % (
            w, str(result["correct"]).lower(), frac))
        for name, m in result["metrics"].items():
            print("  %-30s %16.6f %s" % (name, m["value"], m["unit"]))
            out["metrics"]["%s.%s" % (w, name)] = m
    print(json.dumps(out))
    return status


if __name__ == "__main__":
    sys.exit(main())
