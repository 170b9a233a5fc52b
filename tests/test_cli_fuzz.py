"""Property test of the CLI: any option strings give an output or one config error.

Hypothesis draws option values for `hmc-awgn`, `hmc-fading`, `freq` and
`pe-demo`: ordinary values, extremes, NaN and inf strings, empty or
repeated lists, huge counts of trials and unwritable output paths. It
also draws `gdl-count` runs on model files written by `save_model` and
then truncated, made non-numeric or given bad headers, and `--config`
files with good lines, lines without `=`, unknown keys or an unreadable
path. Sizes are capped so that a case runs in well under half a second,
and every run is `--jobs 1`. A case must either exit 0 with the
subcommand's pinned CSV header (or `gdl-count`'s first line), or exit 1
with exactly one `config error:` line that names one of the
subcommand's flags, and no traceback.
"""

import contextlib
import functools
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trellis.cli import build_parser, main
from trellis.experiments import FREQ_CSV_HEADER, HMC_CSV_HEADER, PE_CSV_HEADER
from trellis.factors import Factor, FactorModel, VariableSpace, save_model

# every float option may be drawn from these
_FLOAT_EXTREMES = ["nan", "-nan", "inf", "-inf", "1e999", "1e308", "-1e308", "5e-324",
                   "-0", "0", "-1", "", "x"]
# every integer option may be drawn from these
_INT_EXTREMES = ["nan", "inf", "-1", "0", "", "1.5", "x", "-0"]
# sizes the size bounds must refuse before anything runs; the fuzzer
# draws no count of cycles this large, which is accepted and would run
# for days
_HUGE = ["18446744073709551616", "1000000000000"]
# output paths: stdout, a directory, a missing directory and an empty path
_PATHS = ["-", ".", "/", os.path.join("no-such-directory", "run.csv"), ""]


def _one(flag, valid, extremes):
    """(an ordinary value, an extreme value) of flag, as command-line tokens."""
    def tokens(values):
        return st.sampled_from(values).map(lambda v: ["%s=%s" % (flag, v)])

    return tokens(valid), tokens(extremes)


def _list(flag, valid, bad, unique=False):
    """(a list of ordinary entries, a list with empty, repeated or bad entries)."""
    def tokens(entries):
        return entries.map(lambda v: ["%s=%s" % (flag, ",".join(v))])

    return (tokens(st.lists(st.sampled_from(valid), min_size=1, max_size=2, unique=unique)),
            tokens(st.lists(st.sampled_from(valid + bad + [""]), max_size=3)))


_COMMON = [
    ("--seed", _one("--seed", ["0", "1", "18446744073709551615"],
                    ["-1", "18446744073709551616", "nan", "", "x"])),
    ("--jobs", _one("--jobs", ["1"], ["0", "-1", "nan", ""])),
    ("--out", _one("--out", ["-"], _PATHS)),
    ("--plot-data", _one("--plot-data", ["-"], _PATHS)),
]
_HMC = [
    ("--trials", _one("--trials", ["1", "2", "3"], _INT_EXTREMES + _HUGE)),
    ("--n", _one("--n", ["1", "2", "17"], _INT_EXTREMES + _HUGE)),
    ("--chunk", _one("--chunk", ["1", "2", "500"], _INT_EXTREMES)),
    ("--m", _one("--m", ["2", "4", "16"], ["8", "3", "1", "-4"] + _INT_EXTREMES + _HUGE)),
    ("--ebn0", _list("--ebn0", ["6", "10", "-10", "80", "-40"],
                     ["nan", "inf", "-inf", "1e308", "4000", "x"])),
    ("--methods", _list("--methods", ["ml", "fb", "va", "vb", "vb-acc", "fcvb", "fcvb-acc"],
                        ["bogus"], unique=True)),
    ("--xi", _one("--xi", ["0", "0.01", "0.5"], _FLOAT_EXTREMES)),
    ("--max-cycles", _one("--max-cycles", ["1", "3", "100"], _INT_EXTREMES)),
]
# J0(2 pi f) is about 0.9 at f = 0.1 and 0.64 at 0.2; f = 0 gives rho = 1
# and f = 0.5 a negative rho
_RHO = _list("--rho", ["0", "0.5", "0.9", "-0"], ["1", "1.5", "-0.1", "nan", "inf", "x"])
_FDTS = _list("--fdts", ["0.1", "0.2", "-0.2"], ["0", "0.5", "nan", "inf", "1e308", "x"])
_FADING = [
    ("--k", _one("--k", ["1", "2", "3"], ["-3"] + _INT_EXTREMES + _HUGE)),
    ("--sigma2", _one("--sigma2", ["0.5", "2"],
                      ["1e-150", "1e150", "1e-300", "1e200"] + _FLOAT_EXTREMES)),
    # exactly one of --rho and --fdts, or at the extreme both or neither
    ("--rho/--fdts", (_RHO[0] | _FDTS[0],
                      _RHO[1] | _FDTS[1] | st.just([])
                      | st.tuples(_RHO[0], _FDTS[0]).map(lambda t: t[0] + t[1]))),
]
_FREQ = [
    ("--trials", _one("--trials", ["1", "2", "65"], _INT_EXTREMES + _HUGE)),
    ("--n", _one("--n", ["2", "3", "16"], ["1"] + _INT_EXTREMES + _HUGE)),
    ("--chunk", _one("--chunk", ["1", "2", "2000"], _INT_EXTREMES)),
    ("--ebn0", _list("--ebn0", ["5", "15", "-20", "60"],
                     ["nan", "inf", "-inf", "4000", "-4000", "x"])),
    ("--omega-bins", _one("--omega-bins", ["0", "0.4", "0.9"], ["40", "1.1"] + _FLOAT_EXTREMES)),
    ("--pad", _one("--pad", ["1", "2", "8"], _INT_EXTREMES + _HUGE)),
    ("--cycles", _one("--cycles", ["0", "1", "5"], _INT_EXTREMES)),
    ("--mu-a", _one("--mu-a", ["1", "-2", "0"], ["1e200", "1e-300"] + _FLOAT_EXTREMES)),
    ("--r-a", _one("--r-a", ["0.1", "1", "1e-100", "1e100"],
                   ["1e-101", "1e210"] + _FLOAT_EXTREMES)),
    ("--methods", _list("--methods", ["periodogram", "pm", "map", "vb", "tvb"], ["bogus"],
                        unique=True)),
]
_PE = [
    # the slowest accepted rhos (|rho| near 0.995) take about 0.5 s each,
    # so ordinary values stay away from them
    ("--rho", _list("--rho", ["0", "-0", "0.2", "-0.5", "0.9", "5e-324"],
                    ["1", "-1", "0.996", "nan", "inf", "-inf", "1e308", "x"])),
    ("--transform", _one("--transform", ["eigen", "ldu"], ["", "x"])),
    ("--out", _one("--out", ["-"], _PATHS)),
]
_HEADERS = {"hmc-awgn": HMC_CSV_HEADER, "hmc-fading": HMC_CSV_HEADER,
            "freq": FREQ_CSV_HEADER, "pe-demo": PE_CSV_HEADER}


def _flags_of(cmd):
    sub = build_parser()._subparsers._group_actions[0].choices[cmd]
    return {s for a in sub._actions for s in a.option_strings if s.startswith("--")}


@st.composite
def _argv(draw, cmd, options, always=()):
    """A command line with none, one or two options drawn from their extremes.

    The other options take an ordinary value, or are left out and take
    their default; the options in `always` are never left out.
    """
    extreme = set()
    if draw(st.booleans()):  # about half the cases hold no extreme value
        extreme = draw(st.sets(st.sampled_from([name for name, _ in options]), min_size=1,
                               max_size=2))
    argv = [cmd]
    for name, (ordinary, extremes) in options:
        if name in extreme:
            argv += draw(extremes)
        elif name in always or draw(st.booleans()):
            argv += draw(ordinary)
    return argv


def _check(argv, first_line=None):
    """Run argv; first_line checks the first output line of a run that exits 0."""
    if not any(a.startswith("--out=") for a in argv) and argv[0] in _HEADERS:
        argv = argv + ["--out", "-"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if rc == 0:
        lines = out.splitlines()
        if first_line is not None:
            assert first_line(lines[0]), out
            return
        assert lines[0].startswith("# tool=trellis-")
        assert lines[1].split(",") == _HEADERS[argv[0]]
        return
    assert rc == 1 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1, err
    named = set(re.findall(r"--[a-z][a-z0-9-]*", errors[0]))
    assert named & _flags_of(argv[0]), errors[0]


# the seed has no default, and the default sizes are a thousand times larger
_SIZES = ("--seed", "--trials", "--n")
_RUN = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@_RUN
@given(_argv("hmc-awgn", _COMMON + _HMC, always=_SIZES))
def test_hmc_awgn_gives_a_csv_or_one_named_config_error(argv):
    _check(argv)


@_RUN
@given(_argv("hmc-fading", _COMMON + _HMC + _FADING, always=_SIZES + ("--k", "--rho/--fdts")))
def test_hmc_fading_gives_a_csv_or_one_named_config_error(argv):
    _check(argv)


@_RUN
@given(_argv("freq", _COMMON + _FREQ, always=_SIZES))
def test_freq_gives_a_csv_or_one_named_config_error(argv):
    _check(argv)


@_RUN
@given(_argv("pe-demo", _PE))
def test_pe_demo_gives_a_csv_or_one_named_config_error(argv):
    _check(argv)


def _saved(model):
    """The text save_model writes for model."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "m.model")
        save_model(model, path)
        with open(path) as fh:
            return fh.read()


@functools.cache
def _models():
    ex5 = FactorModel(VariableSpace(5, 2), [
        Factor([2, 1], [[0.6, 0.4], [0.3, 0.7]], 2), Factor([3, 2], [[0.5, 0.5], [0.2, 0.8]], 2),
        Factor([4, 3], [[0.9, 0.1], [0.4, 0.6]], 2),
        Factor([5, 3, 1], np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0, 2)])
    rng = np.random.default_rng(5)
    chain = FactorModel(VariableSpace(4, 3), [Factor([v, v + 1], rng.random((3, 3)), 3)
                                              for v in range(1, 4)])
    one = FactorModel(VariableSpace(2, 2), [Factor([1, 2], rng.random((2, 2)), 2)])
    return [_saved(m) for m in (ex5, chain, one)]


_BAD_TOKENS = ["x", "nan", "inf", "-1", "0", "1", "3", "1e999", "99999999999", "2.5", "-0"]


@st.composite
def _model_text(draw):
    """A saved model's text, as written or truncated, with a bad token or a bad header."""
    tokens = draw(st.sampled_from(_models())).split()
    how = draw(st.sampled_from(["as written", "truncated", "bad token", "bad header"]))
    if how == "truncated":
        tokens = tokens[:draw(st.integers(0, len(tokens) - 1))]
    elif how == "bad token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif how == "bad header":
        for i in draw(st.sets(st.integers(0, 2), min_size=1)):
            tokens[i] = draw(st.sampled_from(_BAD_TOKENS))
    return " ".join(tokens) + "\n"


_GDL = [
    ("--keep", _list("--keep", ["1", "2", "3"], ["0", "-1", "99999999999999999999", "x"])),
    ("--split", _one("--split", ["1", "2", "3"], ["0", "-1", "99999999999"] + _INT_EXTREMES)),
    ("--mode", _one("--mode", ["fb", "naive", "both"], ["", "x", "FB"])),
]


@pytest.fixture(scope="module")
def folder():
    with tempfile.TemporaryDirectory() as path:
        yield path


@_RUN
@given(text=_model_text(), argv=_argv("gdl-count", _GDL))
def test_gdl_count_prints_counts_or_one_named_config_error(folder, text, argv):
    path = os.path.join(folder, "fuzz.model")
    with open(path, "w") as fh:
        fh.write(text)
    _check(argv + ["--model", path], first_line=lambda line: line.startswith("m="))


def test_gdl_count_unreadable_model_is_one_named_config_error(folder):
    for path in (folder, os.path.join(folder, "no-such.model")):
        _check(["gdl-count", "--model", path])


# a command and the config lines that keep its run small
_CONFIG_RUNS = {
    "hmc-awgn": (["--seed", "1", "--trials", "1", "--n", "2", "--methods", "ml"],
                 ["trials=2", "n = 3", "methods=ml,va", "ebn0=6", "# a comment", ""]),
    "freq": (["--seed", "1", "--trials", "1", "--n", "4", "--pad", "1", "--methods", "pm"],
             ["trials=2", "pad=2", "methods=pm,map", "ebn0=5", "mu-a=1"]),
    "pe-demo": (["--rho", "0"], ["rho=0.2", "transform=ldu"]),
}
_BAD_LINES = ["trials", "x", "run=x", "cmd=freq", "config=other.cfg", "bogus=1", "=3",
              "--trials=2", "trials=x", "trials=1000000000000", "out=/"]


@settings(_RUN, max_examples=60)
@given(cmd=st.sampled_from(sorted(_CONFIG_RUNS)), data=st.data())
def test_config_file_gives_an_output_or_one_named_config_error(folder, cmd, data):
    argv, good = _CONFIG_RUNS[cmd]
    lines = data.draw(st.lists(st.sampled_from(good + _BAD_LINES), max_size=4))
    path = os.path.join(folder, "fuzz.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _check([cmd] + argv + ["--config", data.draw(st.sampled_from(
        [path] * 8 + [folder, os.path.join(folder, "no-such.cfg")]))])
