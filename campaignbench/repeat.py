#!/usr/bin/env python3
"""Repeat the campaign benchmark and compare result sets.

Run from the repository root.

  python3 campaignbench/repeat.py run [--workload W ...] [--seeds 1-10]
                                      [--seconds S] [--trace 0|1] [--out FILE]
      Runs the command in BENCHMARK.json once per seed for each workload
      (default: every workload), prints the median and quartiles of every
      metric with the spread (q3 - q1) as a share of the median, and
      writes every run's result to FILE (JSON) when --out is given.

  python3 campaignbench/repeat.py compare BASE.json NEW.json
      Compares two files written by `run`, metric by metric and workload
      by workload: a metric fails when NEW's median is worse than BASE's
      by more than its bound in BENCHMARK.json, or when the share of
      failed operations differs. Exits 1 if anything fails.

Quartiles are statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def cmd_run(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    out = {}
    for wl in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(spec, wl, seed, seconds, args.trace)
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: incorrect result")
            runs.append({"seed": seed, **res})
            print(f"{wl} seed {seed}: done", file=sys.stderr)
        out[wl] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{wl}: {len(runs)} runs, failed share {shares}")
        print(f"  {'metric':34} {'unit':9} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summary(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
            print(f"  {name:34} {runs[0]['metrics'][name]['unit']:9} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {spread:8.3f} {bound if bound is not None else '-':>6}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def cmd_compare(args):
    spec = load_spec()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    ok = True
    for wl in sorted(set(base) & set(new)):
        print(f"\n{wl}:")
        sb = {r["failed"] / r["attempted"] for r in base[wl]}
        sn = {r["failed"] / r["attempted"] for r in new[wl]}
        if sb != sn:
            ok = False
            print(f"  failed share differs: {sorted(sb)} vs {sorted(sn)}  FAIL")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in base[wl]]
            b = [r["metrics"][name]["value"] for r in new[wl]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= m["bound"] else "FAIL"
            ok = ok and verdict == "ok"
            print(f"  {name:22} {ma:14.6g} -> {mb:14.6g} {m['unit']:9} worse by {worse:+.3f}"
                  f" (bound {m['bound']})  {verdict}")
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", action="append")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        cmd_run(args)
    else:
        cmd_compare(args)


if __name__ == "__main__":
    main()
