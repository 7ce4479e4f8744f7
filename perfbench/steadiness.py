#!/usr/bin/env python3
"""Steadiness check of the benchmark: two sets of runs of the same code.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--noise-floor 10] [--overhead 4]
                                    [--out results.json]

Run from the repository root. Each set runs every workload --runs times
through perfbench/run.py, each run with another --seed (the seeds of two
sets differ). For every end-to-end metric it prints, per set, the median
and the spread (the distance between the first and third quartile as a
share of the median, as statistics.quantiles(values, n=4) gives them), the
gap between the set medians as a share of the first one, and the metric's
bound from BENCHMARK.json. A spread or a worsening gap above the bound is
marked with '!'. It also prints each set's share of failed operations.

--noise-floor N first runs the perfbench program's compute-only loop N
times and prints its run-to-run spread: the host's own noise, under every
timing. --overhead N runs, per workload, N pairs of an untraced and a
traced run on the same seed, back to back (the order alternating from
pair to pair), and prints the median of the paired differences
(trace.op_p50_s - op_p50_s) / op_p50_s: the tracing overhead. With
--runs 0 only these two run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def run(cmd):
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return last_json(p.stdout)


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--noise-floor", type=int, default=0)
    ap.add_argument("--overhead", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    results = {}

    if args.noise_floor:
        # run.py builds the program; the loop itself is run directly.
        run(["python3", "perfbench/run.py", "--workload", workloads[0], "--seed", "0",
             "--seconds", "1", "--trace", "0"])
        vals = [run([os.path.join(BUILD, "perfbench"), "--workload", "noise_floor",
                     "--seed", str(i), "--seconds", str(seconds), "--trace", "0"])["metrics"]["op_p50_s"]["value"]
                for i in range(args.noise_floor)]
        results["noise_floor"] = vals
        print(f"noise floor: compute-only chunk median {statistics.median(vals):.4f} s, "
              f"spread {spread(vals):.3f} over {len(vals)} runs")

    for w in workloads if args.overhead else []:
        diffs = []
        for i in range(args.overhead):
            seed = args.seed_base + i
            pair = {}
            for trace in ("01" if i % 2 == 0 else "10"):
                pair[trace] = run(["python3", "perfbench/run.py", "--workload", w,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", trace])["metrics"]
            plain = pair["0"]["op_p50_s"]["value"]
            diffs.append((pair["1"]["trace.op_p50_s"]["value"] - plain) / plain)
        results[f"overhead_{w}"] = diffs
        print(f"overhead {w}: median {statistics.median(diffs):+.3f} over {len(diffs)} "
              f"pairs ({', '.join(f'{d:+.3f}' for d in diffs)})", flush=True)

    for w in workloads if args.runs > 0 else []:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + 1000 * k + i
                runs.append(run(["python3", "perfbench/run.py", "--workload", w,
                                 "--seed", str(seed), "--seconds", str(seconds),
                                 "--trace", "0"]))
                print(f"  {w} set {k} seed {seed}: " + ", ".join(
                    f"{n}={v['value']:.5g}" for n, v in runs[-1]["metrics"].items()),
                    flush=True)
            sets.append(runs)
        results[w] = sets
        print(f"{w}:")
        for k, runs in enumerate(sets):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
            ok = all(r["correct"] for r in runs)
            print(f"  set {k}: failed {fail}/{att} = {fail / att:.4f}, correct={ok}, "
                  f"per run {shares[:4]}{'...' if len(shares) > 4 else ''}")
        for name, m in bounds.items():
            cols = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(c) for c in cols]
            sps = [spread(c) for c in cols]
            worse = [(b - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
                     for b in meds[1:]]
            flag = lambda bad: "!" if bad else " "
            print(f"  {name:14s} bound {m['bound']:.3f} | " + " | ".join(
                f"med {md:.5g} spread {sp:.3f}{flag(sp > m['bound'] and name != 'setup_s')}"
                for md, sp in zip(meds, sps)) +
                "".join(f" | worse by {g:+.3f}{flag(g > m['bound'])}" for g in worse))
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
