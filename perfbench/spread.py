"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/spread.py LABEL [--first-seed 100]

Runs the command of BENCHMARK.json with --trace 0 on every workload,
once for each of ten consecutive seeds, then once with --trace 1. Prints
each end-to-end metric's median, quartiles and spread (quartile distance
over median, as statistics.quantiles gives them), and appends one entry
to results.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def one(spec, workload, seed, trace):
    argv = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["manifest"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("label")
    p.add_argument("--first-seed", type=int, default=100)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    entry = {"label": args.label, "seeds": seeds, "workloads": {}}
    for name in names:
        values, attempted, failed = {}, 0, 0
        for seed in seeds:
            result, info = one(spec, name, seed, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, _ = one(spec, name, seeds[0], 1)
        stats = {k: summary(v) for k, v in values.items()}
        for k, s in stats.items():
            print("  %-13s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.3f  bound %.2f" % (
                k, s["median"], s["q1"], s["q3"], s["spread"], bounds[k]), flush=True)
        entry["workloads"][name] = {
            "end_to_end": stats, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "per_layer_seed%d" % seeds[0]: {k: v["value"] for k, v in traced["metrics"].items()},
            "child_argv": info["child_argv"],
        }
        entry["manifest"] = {k: v for k, v in info.items()
                             if k not in ("samples", "workload", "seed", "child_argv")}
    path = os.path.join(HERE, "results.json")
    results = []
    if os.path.exists(path):
        with open(path) as fh:
            results = json.load(fh)
    results.append(entry)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
