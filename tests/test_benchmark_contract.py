"""The benchmark's traced replay against the CLI it mirrors.

perfbench/replay.py rebuilds each CLI workload from the parser and the
library's public calls. A front-end change that the replay does not
follow would otherwise only show in the benchmark's own traced run.
"""

import json
import os
import subprocess
import sys

import pytest

from trellis.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.mark.parametrize("workload", ["awgn-4qam", "fading-16qam", "freq-n64"])
def test_replay_reproduces_cli_csv(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from checks import csv_body
    from workloads import cli_argv

    traced = str(tmp_path / "traced.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, os.path.join(PERFBENCH, "replay.py"), workload, "0",
                    traced, "--tiny"], check=True, env=env, timeout=120)
    with open(traced) as fh:
        replayed = json.load(fh)["csv"]
    out = str(tmp_path / "cli.csv")
    assert main(cli_argv(workload, 0, out, tiny=True)) == 0
    with open(out) as fh:
        assert csv_body(fh.read()) == csv_body(replayed)
