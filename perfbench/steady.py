#!/usr/bin/env python3
"""Steadiness check of the benchmark against the bounds in BENCHMARK.json.

Run a workload once per seed and summarise each metric:

    python3 perfbench/steady.py run --workload purify-p8 --seeds 1-10 \
        --out set_a.json

prints, per metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound. Compare two such sets of runs of the same code:

    python3 perfbench/steady.py compare set_a.json set_b.json

which fails (exit 1) when, on any workload, a metric other than setup_s has a
spread above its bound in either set, a metric's second median is worse than
the first by more than its bound, or the share of failed operations differs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def metric_bounds(spec, trace):
    if trace:
        return {m["name"]: None for m in spec["per_layer"]}
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def report(spec, results, trace):
    """Prints one row per metric; returns the names whose spread exceeds
    the bound (setup_s excepted, as its spread is not bounded)."""
    bad = []
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name, bound in metric_bounds(spec, trace).items():
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3 = summary(values)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "  OVER BOUND"
                bad.append(name)
            elif spread > bound / 3:
                flag = "  over bound/3"
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}; "
          f"correct: {all(r['correct'] for r in results)}")
    return bad


def cmd_run(args):
    spec = load_spec()
    results = []
    for seed in parse_seeds(args.seeds):
        r = run_once(spec, args.workload, seed, args.trace)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
        results.append(r)
    bad = report(spec, results, args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "results": results}, f)
    return 1 if bad or not all(r["correct"] for r in results) else 0


def cmd_compare(args):
    spec = load_spec()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        raise SystemExit("the two sets are of different workloads")
    failures = []
    for label, s in (("first", a), ("second", b)):
        print(f"-- {label} set ({len(s['results'])} runs)")
        failures += [f"{label}: {m} spread" for m in
                     report(spec, s["results"], a["trace"])]
    if not a["trace"]:
        for m in spec["end_to_end"]:
            m1 = statistics.median(r["metrics"][m["name"]]["value"]
                                   for r in a["results"])
            m2 = statistics.median(r["metrics"][m["name"]]["value"]
                                   for r in b["results"])
            worse = (m2 - m1) / abs(m1) if m["better"] == "lower" \
                else (m1 - m2) / abs(m1)
            status = "WORSE" if worse > m["bound"] else "ok"
            print(f"{m['name']:32} {m1:14.6g} -> {m2:14.6g} "
                  f"({worse:+.4f} worse, bound {m['bound']}) {status}")
            if worse > m["bound"]:
                failures.append(f"{m['name']} median")
    share = [{r["failed"] / r["attempted"] for r in s["results"]}
             for s in sets]
    if share[0] != share[1] or len(share[0]) != 1:
        failures.append("failed share")
    print("FAIL: " + ", ".join(failures) if failures else "steady: ok")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
