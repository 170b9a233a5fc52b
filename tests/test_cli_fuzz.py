"""Property test of the run paths: any option strings give a CSV or one config error.

Hypothesis draws option values for `hmc-awgn`, `hmc-fading`, `freq` and
`pe-demo`: ordinary values, extremes, NaN and inf strings, and empty
or repeated lists. Sizes are capped so that a case runs in well under
half a second, and every run is `--jobs 1`. A case must either exit 0
with the subcommand's pinned CSV header, or exit 1 with exactly one
`config error:` line that names one of the subcommand's flags, and no
traceback.
"""

import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from trellis.cli import build_parser, main
from trellis.experiments import FREQ_CSV_HEADER, HMC_CSV_HEADER, PE_CSV_HEADER

# every float option may be drawn from these
_FLOAT_EXTREMES = ["nan", "-nan", "inf", "-inf", "1e999", "1e308", "-1e308", "5e-324",
                   "-0", "0", "-1", "", "x"]
# every integer option may be drawn from these
_INT_EXTREMES = ["nan", "inf", "-1", "0", "", "1.5", "x", "-0"]
# sizes the size bound must refuse before anything runs; a count of
# trials or cycles this large is accepted and would run for days
_HUGE = ["18446744073709551616", "1000000000000"]


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
]
_HMC = [
    ("--trials", _one("--trials", ["1", "2", "3"], _INT_EXTREMES)),
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
    ("--trials", _one("--trials", ["1", "2", "65"], _INT_EXTREMES)),
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


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv + ["--out", "-"])
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if rc == 0:
        lines = out.splitlines()
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
