"""trellis benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from `src`
(it need not be installed). Every repeat runs in a fresh child process,
one at a time, and is timed from spawn to exit; peak memory is the
child's own rusage from os.wait4.

--trace 0 alternates a cold set-up process with an untraced repeat of
the workload until the time is used, and prints the end-to-end metrics. --trace 1 alternates an untraced run with a
traced one (replay.py, or exact_small.py --trace) and prints the
per-layer metrics; the traced outputs must equal the untraced ones.

The last stdout line is the JSON result; the line before it is the run
manifest (machine, versions, child argv and seeds, per-repeat samples,
failed_frac). Exits non-zero without a result if no repeat succeeds or
the checkout has no `src/trellis`.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_REPEATS = 3
# A child still running this long after the run's --seconds is killed:
# the longest repeat takes a few seconds, so only a hung child gets there.
KILL_MARGIN_S = 60

sys.path.insert(0, SRC)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("trials_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


class Child:
    """Spawns children with PYTHONPATH=src and measures each one."""

    def __init__(self, tmp, start, seconds):
        self.tmp = tmp
        self.start = start
        self.kill_at = start + seconds + KILL_MARGIN_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.argvs = []

    def run(self, argv):
        """Run argv to completion: (seconds, peak RSS in MB, exit code, stderr tail)."""
        if argv not in self.argvs:
            self.argvs.append(argv)
        err_path = os.path.join(self.tmp, "stderr.txt")
        timeout = max(1.0, self.kill_at - time.perf_counter())
        lock = threading.Lock()
        exited = []
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)

            def kill():
                with lock:
                    if not exited:
                        proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            seconds = time.perf_counter() - t0
            with lock:
                exited.append(True)
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path) as err:
            tail = err.read()[-2000:]
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, tail


class Tally:
    """attempted / failed counts, with the reason for each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            more = ["... and %d more" % (len(problems) - 5)] if len(problems) > 5 else []
            sys.stderr.write("FAILED %s:\n  %s\n" % (what, "\n  ".join(problems[:5] + more)))
        return not problems


def exit_problems(code, tail):
    return [] if code == 0 else ["exit code %d: %s" % (code, tail.strip()[-800:])]


class Workload:
    """One workload's child argv, output reading and output checks."""

    def __init__(self, name, seed, tiny, tmp):
        self.name, self.seed, self.tiny, self.tmp = name, seed, tiny, tmp
        self.exact = name == "exact-small"
        self.flag = ["--tiny"] if tiny else []
        self.reference = None
        self._verdicts = {}

    def argv(self, traced):
        py = sys.executable
        out = os.path.join(self.tmp, "traced.json" if traced else "out")
        if self.exact:
            return [py, os.path.join(HERE, "exact_small.py"), str(self.seed), out,
                    *self.flag, *(["--trace"] if traced else [])], out
        if traced:
            return [py, os.path.join(HERE, "replay.py"), self.name, str(self.seed), out,
                    *self.flag], out
        return [py, "-m", "trellis.cli",
                *workloads.cli_argv(self.name, self.seed, out, self.tiny)], out

    def setup_argv(self):
        return [sys.executable, os.path.join(HERE, "workloads.py"), self.name,
                str(self.seed), *self.flag]

    def read(self, path, traced):
        """(comparable key, raw output) of one finished run."""
        with open(path) as fh:
            raw = json.load(fh) if (traced or self.exact) else fh.read()
        if self.exact:
            return raw["float_digest"] + checks.exact_digest(raw), raw
        return checks.csv_body(raw["csv"] if traced else raw), raw

    def problems(self, key, raw):
        """Problems of one untraced output; the first output is the reference."""
        if key not in self._verdicts:
            self._verdicts[key] = (
                checks.exact_problems(self.seed, raw, self.tiny) if self.exact
                else checks.cli_problems(self.name, self.seed, key, self.tiny))
        out = list(self._verdicts[key])
        if self.reference is None:
            self.reference = key
        elif key != self.reference:
            out.append("output differs from the first repeat of this run")
        return out


def run_child(child, tally, wl, traced, label):
    """One workload child, checked and tallied.

    Returns (seconds, rss, output key, raw output) if the child exited 0
    with a readable output, even when that output failed a check (the
    failure is tallied); None if it crashed.
    """
    argv, out = wl.argv(traced)
    seconds, rss, code, tail = child.run(argv)
    problems = exit_problems(code, tail)
    got = None
    if not problems:
        try:
            key, raw = wl.read(out, traced)
            got = (seconds, rss, key, raw)
        except (OSError, ValueError, KeyError, IndexError) as e:
            problems = ["unreadable output: %r" % (e,)]
    if got and traced:
        if got[2] != wl.reference:
            problems = ["traced replay output differs from the untraced run"]
    elif got:
        problems = wl.problems(got[2], got[3])
    if os.path.exists(out):
        os.remove(out)
    tally.record(label, problems)
    return got


def timed_run(wl, child, tally, seconds):
    deadline = child.start + seconds
    walls, rss, setups = [], [], []
    r = 0
    while True:
        s, _, code, tail = child.run(wl.setup_argv())
        if tally.record("set-up %d" % r, exit_problems(code, tail)):
            setups.append(s)
        got = run_child(child, tally, wl, False, "repeat %d" % r)
        if got:
            walls.append(got[0])
            rss.append(got[1])
        r += 1
        if not walls:
            if r >= MIN_REPEATS:
                break
            continue
        upcoming = statistics.median(walls) + (statistics.median(setups) if setups else 0.0)
        if r >= MIN_REPEATS and time.perf_counter() + upcoming > deadline:
            break
    if not walls or not setups:
        return None, {}
    wall, setup = statistics.median(walls), statistics.median(setups)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "trials_per_s": workloads.trial_count(wl.name, wl.tiny) / max(wall - setup, 1e-9),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}


def traced_run(wl, child, tally, seconds):
    deadline = child.start + seconds
    plain, traced, csv_wall_ms, layers = [], [], [], []
    while True:
        got = run_child(child, tally, wl, False, "untraced repeat %d" % len(plain))
        if got:
            plain.append(got[0])
            if not wl.exact:
                rows = checks.csv_rows(checks.csv_body(got[3], keep_wall=True))
                csv_wall_ms.append(sum(float(r.get("wall_ms") or 0.0) for r in rows))
            tr = run_child(child, tally, wl, True, "traced repeat %d" % len(traced))
            if tr:
                traced.append(tr[0])
                layers.append(spans.layer_metrics(tr[3]))
        pair = (statistics.median(plain) if plain else 0.0) + (
            statistics.median(traced) if traced else 0.0)
        if layers and time.perf_counter() + pair > deadline:
            break
        if not layers and tally.attempted >= 2 * MIN_REPEATS:
            break
    if not layers:
        return None, {}
    metrics = {name: statistics.median(m[name] for m in layers)
               for name, _ in spans.PER_LAYER if name in layers[0]}
    metrics["batch.csv_wall_ms"] = statistics.median(csv_wall_ms) if csv_wall_ms else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, {"untraced_s": plain, "traced_s": traced}


def git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, child):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "child_env": {"PYTHONPATH": "src (prepended; trellis need not be installed)"},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        # the interpreter is the one running this script; paths are relative to the checkout
        "child_argv": [[os.path.basename(argv[0])] + [
            os.path.relpath(a, ROOT) if os.path.isabs(a) and a.startswith(ROOT) else a
            for a in argv[1:]] for argv in child.argvs],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="trellis benchmark harness")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-check sizes (smoke.py); digests are not checked")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trellis", "__init__.py")):
        sys.stderr.write("no trellis sources under %s; run from a source checkout\n" % SRC)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        sys.stderr.write("--seed must be in [0, 2**63)\n")
        return 2
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        compileall.compile_dir(SRC, quiet=1)
        compileall.compile_dir(HERE, quiet=1, maxlevels=0)
        child = Child(tmp, time.perf_counter(), args.seconds)
        tally = Tally()
        wl = Workload(args.workload, args.seed, args.tiny, tmp)
        run = traced_run if args.trace else timed_run
        metrics, samples = run(wl, child, tally, args.seconds)
        info = manifest(args, child)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if metrics is None:
        sys.stderr.write("no repeat of %s succeeded\n" % args.workload)
        return 1
    units = dict(spans.PER_LAYER if args.trace else END_TO_END)
    info["samples"] = samples
    info["failed_frac"] = tally.failed / tally.attempted
    print(json.dumps({"manifest": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
