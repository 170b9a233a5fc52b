import os
import subprocess
import sys

import numpy as np
import pytest

from trellis.cli import main
from trellis.factors import Factor, FactorModel, VariableSpace, save_model


def _ex5_model():
    space = VariableSpace(5, 2)
    idx = [[2, 1], [3, 2], [4, 3], [5, 3, 1]]
    tables = [
        np.array([[0.6, 0.4], [0.3, 0.7]]),
        np.array([[0.5, 0.5], [0.2, 0.8]]),
        np.array([[0.9, 0.1], [0.4, 0.6]]),
        np.arange(1.0, 9.0).reshape(2, 2, 2) / 36.0,
    ]
    return FactorModel(space, [Factor(i, t, 2) for i, t in zip(idx, tables)])


def _strip_wall(text):
    # wall_ms is the one legitimately nondeterministic column
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("method"):
            out.append(line)
        else:
            out.append(line.rsplit(",", 1)[0])
    return "\n".join(out)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "trellis 0.1.0"


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert out.count("ok   ") >= 9
    assert "FAIL" not in out


def test_selftest_reports_failures(monkeypatch, capsys):
    import trellis.cli as cli_mod

    def boom():
        raise RuntimeError("intentional")

    monkeypatch.setattr(cli_mod, "_selftest_checks",
                        lambda: [("broken", boom)])
    assert main(["selftest"]) == 2
    out = capsys.readouterr().out
    assert "FAIL broken" in out
    assert "1 check(s) failed" in out


def test_missing_seed_is_config_error(capsys):
    rc = main(["hmc-awgn", "--trials", "2", "--n", "8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--seed is required" in err
    assert "usage" in err


@pytest.mark.parametrize("argv, word", [
    (["freq", "--chunk", "-3"], "chunk"),
    (["hmc-awgn", "--chunk", "-2"], "chunk"),
    (["freq", "--chunk", "0"], "chunk"),
    (["freq", "--trials", "0"], "trials"),
    (["hmc-awgn", "--trials", "0"], "trials"),
    (["hmc-awgn", "--max-cycles", "0"], "max_cycles"),
    (["hmc-awgn", "--xi", "-1"], "xi"),
    (["hmc-awgn", "--xi", "nan"], "xi"),
    (["hmc-awgn", "--jobs", "0"], "need jobs >= 1, got 0"),
    (["freq", "--jobs", "-1"], "need jobs >= 1, got -1"),
])
def test_non_positive_counts_are_config_errors(argv, word, capsys):
    rc = main(argv + ["--seed", "1", "--n", "8", "--ebn0", "10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and word in err


@pytest.mark.parametrize("argv, message", [
    (["hmc-awgn", "--n", "0"], "need n >= 1"),
    (["freq", "--n", "0"], "need n >= 1"),
    (["freq", "--cycles", "-1"], "need cycles >= 0"),
    (["freq", "--r-a", "0"], "prior variance r_a"),
    (["freq", "--r-a", "-1"], "prior variance r_a"),
    (["freq", "--r-a", "nan"], "prior variance r_a"),
    (["freq", "--r-a", "inf"], "prior variance r_a"),
    (["freq", "--mu-a", "nan"], "prior mean mu_a"),
    (["freq", "--mu-a", "inf"], "prior mean mu_a"),
])
def test_bad_sizes_are_config_errors(argv, message, capsys):
    rc = main(argv + ["--seed", "1", "--trials", "2", "--ebn0", "10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("cmd", ["freq", "hmc-awgn"])
@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_seed_outside_64_bits_is_config_error(cmd, seed, capsys):
    rc = main([cmd, "--seed", seed, "--n", "8", "--trials", "2", "--ebn0", "10"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error: seed must fit in 64 bits" in err


def test_pe_demo_bad_rho_is_config_error(capsys):
    assert main(["pe-demo", "--rho", "1.5"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "rho" in err


def test_dash_means_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["freq", "--seed", "3", "--n", "16", "--trials", "10", "--ebn0", "12",
               "--pad", "4", "--methods", "pm", "--out", "-", "--plot-data", "-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# tool=trellis-0.1.0 cmd=freq")
    assert "\nmethod,x_name,x_value,metric,value\npm,snr_db,12.0,rms_bins," in out
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("scenario", ["awgn", "fading"])
def test_scenario_is_not_a_flag(scenario, tmp_path, capsys):
    # the subcommand names the scenario; neither a flag nor a config line sets it
    argv = ["hmc-" + scenario, "--seed", "1", "--trials", "2", "--n", "8"]
    if scenario == "fading":
        argv += ["--rho", "0.5", "--k", "2"]
    assert main(argv + ["--scenario", scenario]) == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=%s\n" % scenario)
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "--scenario" in capsys.readouterr().err


def test_freq_csv_independent_of_chunk_and_jobs(tmp_path):
    base = ["freq", "--seed", "99", "--n", "16", "--trials", "50", "--ebn0", "10",
            "--pad", "4"]
    bodies = []
    for extra in (["--chunk", "7", "--jobs", "2"], ["--chunk", "2000"]):
        path = str(tmp_path / "run.csv")
        assert main(base + extra + ["--out", path]) == 0
        bodies.append(open(path).read().split("\n", 1)[1])
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("argv, message", [
    (["hmc-awgn", "--ebn0", ","], "empty numeric list"),
    (["freq", "--ebn0", ","], "empty numeric list"),
    (["hmc-fading", "--rho", ","], "empty numeric list"),
    (["hmc-fading", "--fdts", ","], "empty numeric list"),
    (["hmc-awgn", "--methods", ","], "need at least one method"),
    (["freq", "--methods", ","], "need at least one method"),
    (["hmc-fading", "--rho", "0.5", "--fdts", "0.05"], "--rho or --fdts, not both"),
])
def test_empty_or_conflicting_lists_are_config_errors(argv, message, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(argv + ["--seed", "1", "--trials", "2", "--n", "8", "--out", str(out)]
              + (["--k", "2"] if argv[0] == "hmc-fading" else []))
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("cmd, methods", [("hmc-awgn", "ml,va"), ("freq", "pm,vb")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_ebn0_is_config_error(cmd, methods, value, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main([cmd, "--seed", "1", "--trials", "2", "--n", "8", "--methods", methods,
               "--ebn0=" + value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error: need a finite Eb/N0 in dB, got %s" % value in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["hmc-awgn", "--ebn0=-4000"], "Eb/N0 -4000.0 dB gives a noise level outside"),
    (["hmc-awgn", "--ebn0=4000"], "Eb/N0 4000.0 dB gives noise level 0.0"),
    (["freq", "--ebn0=4000"], "Eb/N0 4000.0 dB with prior mean"),
    (["freq", "--ebn0=-4000"], "Eb/N0 -4000.0 dB with prior mean"),
    (["freq", "--mu-a=1e200"], "mu_a 1e+200"),
    (["freq", "--omega-bins=nan"], "omega_bins"),
    (["freq", "--omega-bins=inf"], "omega_bins"),
    (["freq", "--omega-bins=-0.5"], "omega_bins"),
    (["freq", "--n=64", "--omega-bins=40"], "need 0 <= omega_bins < n/2 = 32.0, got 40.0"),
])
def test_unusable_noise_level_or_tone_is_config_error(argv, message, tmp_path, capsys):
    out = tmp_path / "run.csv"
    # argv's own flags come last, so its --n overrides the default here
    rc = main(argv[:1] + ["--seed", "1", "--trials", "2", "--n", "8", "--out", str(out)]
              + argv[1:])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, runner", [
    (["hmc-awgn", "--ebn0", "6,4000"], "run_experiment"),
    (["freq", "--ebn0", "5,4000"], "run_freq_experiment"),
    (["freq", "--ebn0", "5,-4000"], "run_freq_experiment"),
    (["hmc-fading", "--k", "2", "--rho", "0.5,1.5"], "run_experiment"),
    (["hmc-fading", "--k", "2", "--fdts", "0.01,0.5"], "run_experiment"),  # J0(pi) < 0
    (["hmc-fading", "--k", "2", "--rho", "0.5", "--sigma2", "0"], "run_experiment"),
])
def test_bad_later_point_fails_before_any_point_runs(argv, runner, monkeypatch, tmp_path,
                                                      capsys):
    import trellis.experiments as experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a point ran before every point was checked")

    monkeypatch.setattr(experiments, runner, no_run)
    out = tmp_path / "run.csv"
    rc = main(argv + ["--seed", "1", "--trials", "2", "--n", "8", "--out", str(out)])
    assert rc == 1
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_unknown_method_is_config_error(capsys):
    rc = main(["hmc-awgn", "--seed", "1", "--trials", "2", "--n", "8",
               "--methods", "bogus"])
    assert rc == 1
    assert "unknown method" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [(["hmc-awgn", "--methods", "vb,ml,vb"], "vb"),
                                        (["freq", "--methods", "pm,pm"], "pm")])
def test_repeated_method_is_config_error(argv, name, tmp_path, capsys, monkeypatch):
    # a second run of a method would overwrite the first's accumulators
    # and write its row twice; nothing runs
    import trellis.experiments as experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(experiments, "_map_chunks", no_run)
    out = tmp_path / "run.csv"
    rc = main(argv + ["--seed", "1", "--trials", "2", "--n", "8", "--out", str(out)])
    assert rc == 1
    assert "config error: --methods: %s is listed twice" % name in capsys.readouterr().err
    assert not out.exists()


def test_bad_float_list_is_config_error(capsys):
    rc = main(["hmc-awgn", "--seed", "1", "--ebn0", "6,abc"])
    assert rc == 1
    assert "bad numeric list" in capsys.readouterr().err


def test_fading_requires_correlation(capsys):
    rc = main(["hmc-fading", "--seed", "1", "--trials", "2", "--n", "8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--rho" in err and "--fdts" in err


@pytest.mark.parametrize("flag, word", [
    ("--rho=1.0", "rho"),
    ("--rho=1.5", "rho"),
    ("--rho=nan", "rho"),
    ("--fdts=0", "rho"),
    ("--sigma2=0", "sigma2"),
    ("--sigma2=-1", "sigma2"),
    ("--sigma2=nan", "sigma2"),
    ("--sigma2=inf", "sigma2"),
])
def test_fading_model_out_of_range_is_config_error(flag, word, capsys):
    argv = ["hmc-fading", "--seed", "1", "--trials", "2", "--n", "8", "--k", "2"]
    if flag.startswith("--sigma2"):
        argv.append("--rho=0.5")
    rc = main(argv + [flag])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and word in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["hmc-awgn", "--m", "-4"], "config error: --m: M must be 2 or an even power of two, got -4"),
    (["hmc-awgn", "--m", "8"], "config error: --m: M must be 2 or an even power of two, got 8"),
    (["hmc-fading", "--k", "2", "--rho", "0.5", "--sigma2", "1e-300"],
     "config error: --sigma2: sigma2 must be in [1e-150, 1e+150], got 1e-300"),
    (["hmc-fading", "--k", "2", "--rho", "0.5", "--sigma2", "1e200"],
     "config error: --sigma2: sigma2 must be in [1e-150, 1e+150], got 1e+200"),
    (["hmc-fading", "--k", "2", "--fdts", "0.5"],
     "config error: --fdts 0.5: rho must be in [0, 1), got -0.3042421776440937"),
    (["hmc-fading", "--k", "2", "--rho", "1.0"],
     "config error: --rho: rho must be in [0, 1), got 1.0"),
    (["hmc-fading", "--k", "-3", "--rho", "0.5"],
     "config error: --k: K must be positive, got -3"),
    (["pe-demo", "--rho", "0.2,1.5"], "config error: --rho: rho must be in (-1, 1), got 1.5"),
])
def test_model_setting_errors_name_their_flag(argv, message, monkeypatch, tmp_path, capsys):
    # once an isqrt traceback, a quadrature RuntimeError (or, above the
    # range, a NaN channel matrix) or an error that named no flag
    import trellis.pe

    def no_run(*args, **kwargs):
        raise AssertionError("a pe-demo point ran before every rho was checked")

    monkeypatch.setattr(trellis.pe, "pe_approximate", no_run)
    out = tmp_path / "run.csv"
    if argv[0] != "pe-demo":
        argv = argv + ["--seed", "1", "--trials", "2", "--n", "10"]
    rc = main(argv + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err.splitlines() and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flags", [
    (["hmc-awgn", "--n", "1000000000", "--trials", "500"], "--m 4, --n 1000000000, --chunk 500"),
    (["freq", "--n", "100000000"], "--n 100000000, --pad 8, --chunk 2000"),
    (["hmc-fading", "--k", "100000", "--rho", "0.5"], "--m 4, --n 1000, --chunk 500, --k 100000"),
])
def test_oversized_run_is_config_error(argv, flags, tmp_path, capsys):
    # once numpy MemoryError tracebacks, the fading one after building
    # the 100000-cell quantizer
    out = tmp_path / "run.csv"
    rc = main(argv + ["--seed", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and errors[0].startswith("config error: %s: " % flags)
    assert "Traceback" not in err and not out.exists()


def test_size_bound_admits_defaults_and_criterion_7():
    from trellis.experiments import (FREQ_METHODS, ExperimentConfig, check_experiment,
                                     check_freq_experiment)

    # the hmc-awgn and hmc-fading defaults, criterion 7's 500 x 1000 x 64
    # chunks and the freq defaults
    check_experiment(ExperimentConfig(seed=1))
    check_experiment(ExperimentConfig(scenario="fading", K=8, rho=0.5, seed=1))
    check_experiment(ExperimentConfig(scenario="fading", M=16, K=4, ebn0_db=30.0, rho=0.999,
                                      seed=1, methods=("ml", "va", "fcvb")))
    check_freq_experiment(n=64, snr_db=5.0, trials=10000, seed=1, omega_bins=1.1, pad=8,
                          cycles=5, mu_a=1.0, r_a=0.1, methods=FREQ_METHODS, chunk=2000, jobs=1)


def test_gdl_count_worked_example(tmp_path, capsys):
    path = str(tmp_path / "ex5.model")
    save_model(_ex5_model(), path)
    rc = main(["gdl-count", "--model", path, "--keep", "1,2,3,4,5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m=5 M=2 n=4"
    assert lines[1] == "NLN: [1]={} [2]={2} [3]={4} [4]={1,3,5}"
    assert lines[2] == "FA: (1)={1,2} (2)={3} (3)={4} (4)={5}"
    assert lines[3] == "keep={1,2,3,4,5} split=2"
    fb = dict(kv.split("=") for kv in lines[4].removeprefix("fb: ").split())
    nv = dict(kv.split("=") for kv in lines[5].removeprefix("naive: ").split())
    assert int(fb["total"]) == int(fb["ring_sum"]) + int(fb["ring_product"])
    assert (int(fb["total"]), int(nv["total"])) == (56, 96)
    assert int(nv["lower"]) <= int(nv["total"]) <= int(nv["upper"])


def test_gdl_count_keeps_what_keep_names(tmp_path, capsys):
    path = str(tmp_path / "ex5.model")
    save_model(_ex5_model(), path)
    assert main(["gdl-count", "--model", path, "--keep", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "keep={1} split=2"
    # summing out {2,3,4,5}; summing out {1} alone would be 72
    assert lines[4] == "fb: ring_sum=14 ring_product=20 total=34 phi=32"


@pytest.mark.parametrize("flags, message", [
    (["--split", "0"], "split"),
    (["--split", "4"], "split"),
    (["--keep", "1,x"], "bad integer list"),
])
def test_gdl_count_config_error_prints_nothing(flags, message, tmp_path, capsys):
    path = str(tmp_path / "ex5.model")
    save_model(_ex5_model(), path)
    assert main(["gdl-count", "--model", path] + flags) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and message in err


def test_gdl_count_keep_outside_universe(tmp_path, capsys):
    path = str(tmp_path / "ex5.model")
    save_model(_ex5_model(), path)
    rc = main(["gdl-count", "--model", path, "--keep", "6"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "keep set outside" in err


def test_gdl_count_bad_model_file(tmp_path, capsys):
    path = str(tmp_path / "junk.model")
    with open(path, "w") as fh:
        fh.write("3 2\n")
    rc = main(["gdl-count", "--model", path])
    assert rc == 1
    assert "bad model file" in capsys.readouterr().err


def test_freq_csv_replay_is_byte_identical(tmp_path):
    # the manifest records --out, so replay onto the same path
    path = str(tmp_path / "run.csv")
    base = ["freq", "--seed", "99", "--n", "16", "--trials", "50",
            "--ebn0", "10", "--pad", "4", "--chunk", "25", "--out", path]
    assert main(base) == 0
    ta = open(path).read()
    assert main(base) == 0
    tb = open(path).read()
    assert ta == tb
    assert ta.startswith("# tool=trellis-0.1.0 cmd=freq")
    assert ta.splitlines()[1] == "method,snr_db,n,omega_bins,rms_bins,trials"
    assert len(ta.splitlines()) == 2 + 5  # manifest, header, one row per method


def test_hmc_csv_replay_modulo_wall_clock(tmp_path):
    path = str(tmp_path / "run.csv")
    base = ["hmc-awgn", "--seed", "7", "--m", "2", "--n", "32",
            "--trials", "40", "--ebn0", "8", "--chunk", "20",
            "--methods", "ml,fb,vb", "--out", path]
    assert main(base) == 0
    ta = open(path).read()
    assert main(base) == 0
    tb = open(path).read()
    assert _strip_wall(ta) == _strip_wall(tb)
    header = ta.splitlines()[1].split(",")
    assert header[-1] == "wall_ms"
    # ml carries no iteration counters: empty cells, not zeros
    ml_row = [l for l in ta.splitlines() if l.startswith("ml,")][0]
    row = dict(zip(header, ml_row.split(",")))
    assert row["nu_c_mean"] == "" and row["kld_mean"] == ""
    assert row["scenario"] == "awgn" and row["rho"] == ""


def test_stdout_output_when_no_file(capsys):
    rc = main(["freq", "--seed", "3", "--n", "16", "--trials", "10",
               "--ebn0", "12", "--pad", "4", "--methods", "periodogram"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# tool=trellis-0.1.0 cmd=freq")
    assert "periodogram,12" in out


def test_plot_data_long_format(tmp_path):
    out = str(tmp_path / "r.csv")
    plot = str(tmp_path / "p.csv")
    rc = main(["freq", "--seed", "3", "--n", "16", "--trials", "10",
               "--ebn0", "5,15", "--pad", "4", "--methods", "pm,map",
               "--out", out, "--plot-data", plot])
    assert rc == 0
    lines = open(plot).read().splitlines()
    assert lines[0] == "method,x_name,x_value,metric,value"
    body = [l.split(",") for l in lines[1:]]
    assert len(body) == 4  # 2 methods x 2 points x 1 metric
    assert {r[0] for r in body} == {"pm", "map"}
    assert all(r[1] == "snr_db" and r[3] == "rms_bins" for r in body)


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# small replay\ntrials=12\nmax-cycles=7\n")
    out = str(tmp_path / "r.csv")
    rc = main(["hmc-awgn", "--seed", "7", "--m", "2", "--n", "16",
               "--trials", "999", "--ebn0", "8", "--chunk", "6",
               "--methods", "fb", "--config", str(cfg), "--out", out])
    assert rc == 0
    text = open(out).read()
    assert "trials=12" in text.splitlines()[0]
    assert "max_cycles=7" in text.splitlines()[0]
    assert ",12," in text.splitlines()[2]


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus-knob=3\n")
    rc = main(["hmc-awgn", "--seed", "7", "--config", str(cfg)])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("cmd,key,val,rc", [
    ("gdl-count", "split", "2", 0),
    ("gdl-count", "split", "two", 1),
    ("pe-demo", "transform", "foo", 1),
])
def test_config_line_parses_as_its_flag(tmp_path, capsys, cmd, key, val, rc):
    # a config value is typed and validated exactly as the flag is
    path = str(tmp_path / "ex5.model")
    save_model(_ex5_model(), path)
    argv = [cmd, "--rho", "0.5"] if cmd == "pe-demo" else [cmd, "--model", path]
    assert main(argv + ["--" + key, val]) == rc
    flag_io = capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s=%s\n" % (key, val))
    assert main(argv + ["--config", str(cfg)]) == rc
    assert capsys.readouterr() == flag_io


def test_pe_demo_output(tmp_path):
    out = str(tmp_path / "pe.csv")
    rc = main(["pe-demo", "--rho", "0.0,0.5", "--out", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[1] == "rho,kld_vb,kld_tvb"
    rows = [l.split(",") for l in lines[2:]]
    assert [r[0] for r in rows] == ["0.0", "0.5"]
    assert all(float(r[1]) >= float(r[2]) - 1e-9 for r in rows)


def test_fading_fdts_smoke(tmp_path):
    out = str(tmp_path / "f.csv")
    rc = main(["hmc-fading", "--seed", "11", "--m", "2", "--k", "2",
               "--n", "16", "--trials", "8", "--chunk", "4",
               "--fdts", "0.05", "--methods", "va,fcvb", "--out", out])
    assert rc == 0
    text = open(out).read()
    header = text.splitlines()[1].split(",")
    row = dict(zip(header, text.splitlines()[2].split(",")))
    assert row["scenario"] == "fading" and row["K"] == "2"
    # J0(2*pi*0.05) rounds to a rho just under one
    assert 0.9 < float(row["rho"]) < 1.0


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 uses the pool; every other process, the benchmark's
    # set-up child included, should not pay for importing it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, trellis.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"
