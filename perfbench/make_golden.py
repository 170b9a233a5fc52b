"""Record the output digests and float values that checks.py compares against.

    python3 perfbench/make_golden.py

Runs every workload once per seed in GOLDEN_SEEDS, checks the
invariants, and rewrites golden.json. The recorded digests pin the
outputs of the commit they were taken on: rerun this only in a change
that is meant to alter outputs, and say which bits moved and why.
"""

import json
import os
import shutil
import sys
import time

import checks
import run
import workloads

GOLDEN_SEEDS = range(0, 41)


def main():
    checks.GOLDEN.clear()
    golden = {name: {} for name in workloads.NAMES}
    tmp = os.path.join(run.ROOT, ".perfbench_tmp", "golden")
    os.makedirs(tmp, exist_ok=True)
    bad = 0
    try:
        for name in workloads.NAMES:
            for seed in GOLDEN_SEEDS:
                wl = run.Workload(name, seed, False, tmp)
                child = run.Child(tmp, time.perf_counter(), 0)
                got = run.run_child(child, run.Tally(), wl, False, "%s seed %d" % (name, seed))
                if got is None:
                    bad += 1
                    continue
                key, raw = got[2], got[3]
                golden[name][str(seed)] = (checks.exact_golden(raw) if wl.exact
                                           else checks.cli_golden(key))
                print(name, seed, golden[name][str(seed)]["digest"][:12], flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if bad:
        print("%d runs failed; golden.json left unchanged" % bad)
        return 1
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
