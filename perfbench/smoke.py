"""Harness smoke check, about 20 s: python3 perfbench/smoke.py

Runs every workload at tiny size in both modes and checks that the
result line has exactly the keys correct, attempted, failed and metrics,
that every metric named in BENCHMARK.json is emitted with its unit and a
finite value, that the outputs passed their checks, and that
failed_frac is reported. Then runs the harness in a copy holding only
BENCHMARK.json and perfbench/ and checks that it fails without printing
a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def harness(cwd, workload, trace):
    argv = list(SPEC["command"]) + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                    "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def problems(workload, trace, proc):
    if proc.returncode != 0:
        return ["exit code %d: %s" % (proc.returncode, proc.stderr[-600:])]
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["manifest"]
    out = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        out.append("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        out.append("outputs failed their checks: %s" % proc.stderr[-600:])
    if info["failed_frac"] != result["failed"] / result["attempted"]:
        out.append("failed_frac %r does not match failed/attempted" % info["failed_frac"])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        out.append("metric names/units differ: missing %s, extra %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items()))))
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            out.append("%s has value %r" % (k, v["value"]))
    return out


def main():
    failures = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            found = problems(w["name"], trace, harness(ROOT, w["name"], trace))
            failures += bool(found)
            print("%-4s %s trace=%d %s" % ("FAIL" if found else "ok", w["name"], trace,
                                           "; ".join(found)), flush=True)
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = harness(bare, SPEC["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not ok
    print("%-4s refuses to run without the sources (exit %d)" % ("ok" if ok else "FAIL",
                                                                 proc.returncode))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
