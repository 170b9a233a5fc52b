"""The benchmark's entry points against the library they call.

perfbench/replay.py rebuilds each CLI workload from the parser and the
library's public calls, exact_small.py runs the scalar chain API and
the factor engine, and workloads.py makes each workload's set-up calls.
A change to a call that one of them makes would otherwise only show in
a benchmark run. So would a change to the bits of a full-size CLI run,
which golden.json records.
"""

import json
import os
import subprocess
import sys

import pytest

from trellis.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")


def _perfbench(script, *args):
    return subprocess.run([sys.executable, os.path.join(PERFBENCH, script), *args],
                          env=ENV, timeout=120)


@pytest.mark.parametrize("workload", ["awgn-4qam", "fading-16qam", "freq-n64"])
def test_replay_reproduces_cli_csv(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from checks import csv_body
    from workloads import cli_argv

    traced = str(tmp_path / "traced.json")
    assert _perfbench("replay.py", workload, "0", traced, "--tiny").returncode == 0
    with open(traced) as fh:
        replayed = json.load(fh)["csv"]
    out = str(tmp_path / "cli.csv")
    assert main(cli_argv(workload, 0, out, tiny=True)) == 0
    with open(out) as fh:
        assert csv_body(fh.read()) == csv_body(replayed)


@pytest.mark.parametrize("workload, seed", [
    ("freq-n64", 0), ("freq-n64", 3), ("awgn-4qam", 0), ("fading-16qam", 0)])
def test_full_size_cli_run_matches_its_golden(workload, seed, tmp_path, monkeypatch):
    # the recorded digests of golden.json, checked without a benchmark run:
    # a kernel change that moves an output bit fails here
    monkeypatch.syspath_prepend(PERFBENCH)
    from checks import cli_problems, csv_body
    from workloads import cli_argv

    out = str(tmp_path / "cli.csv")
    assert main(cli_argv(workload, seed, out)) == 0
    with open(out) as fh:
        assert cli_problems(workload, seed, csv_body(fh.read()), False) == []


def test_exact_small_passes_its_oracle_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from checks import exact_problems

    path = str(tmp_path / "exact.json")
    assert _perfbench("exact_small.py", "0", path, "--tiny").returncode == 0
    with open(path) as fh:
        assert exact_problems(0, json.load(fh), True) == []


@pytest.mark.parametrize("workload", ["awgn-4qam", "fading-16qam", "freq-n64", "exact-small"])
def test_workload_setup_runs(workload):
    assert _perfbench("workloads.py", workload, "0", "--tiny").returncode == 0
