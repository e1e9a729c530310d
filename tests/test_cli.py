"""Command-line interface: orchestration, output formats, exit codes."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poincarelab import cli
from poincarelab.cli import main
from poincarelab.functionals import FractionalFunctional, sdp_check
from poincarelab.grid import CubeIndex, GridFunction, RootBox, lebesgue_masses
from tests.conftest import OFF_GRID


@pytest.fixture()
def step_weight_file(tmp_path):
    g = GridFunction(RootBox.unit(1), 1, np.array([1.0, 3.0]))
    path = tmp_path / "w.json"
    g.save(path)
    return str(path)


@pytest.fixture()
def spike_file(tmp_path):
    g = GridFunction(RootBox.unit(1), 2, np.array([3.0, 1.0, 1.0, 1.0]))
    path = tmp_path / "h.json"
    g.save(path)
    return str(path)


def test_constants_from_weight_file(step_weight_file, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["constants", "--weight", step_weight_file, "--p", "2",
               "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["ap"] == pytest.approx(4 / 3)
    assert d["a1"] == pytest.approx(2.0)
    assert d["config"]["command"] == "constants"


def test_constants_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["constants", "--power-weight", "delta=0.5", "n=1",
                   "--depth", "6", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_constants_flags_before_subcommand(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["--depth", "5", "constants", "--power-weight", "delta=0.5",
               "n=1", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["config"]["depth"] == 5


def test_constants_csv_format(step_weight_file, tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["constants", "--weight", step_weight_file, "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("constant,")
    assert any(line.startswith("ap,") for line in lines)


def test_constants_requires_weight_source():
    assert main(["constants"]) == 1


def test_cz_stopping_oracle(spike_file, tmp_path):
    out = tmp_path / "s.json"
    rc = main(["cz", "--input", spike_file, "--L", "2", "--emit", "stopping",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text()) == [[2, [0]]]


def test_cz_report(spike_file, tmp_path):
    out = tmp_path / "r.json"
    rc = main(["cz", "--input", spike_file, "--L", "2", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["omega_fraction"] == 0.25
    assert d["reconstruction_error"] == 0.0


def test_cz_rejects_large_average(tmp_path):
    g = GridFunction(RootBox.unit(1), 2, np.full(4, 9.0))
    path = tmp_path / "big.json"
    g.save(path)
    assert main(["cz", "--input", str(path), "--L", "2"]) == 1


def test_functional_check(tmp_path):
    config = {"variant": "fractional", "n": 1, "alpha": 1.0,
            "mu": "lebesgue", "w": "lebesgue"}
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps(config))
    out = tmp_path / "fc.json"
    rc = main(["functional-check", "--functional", str(fpath), "--p", "1",
               "--Ls", "2,4", "--mode", "exhaustive", "--depth", "4",
               "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["violations"] == 0
    assert d["per_L"]["2.0"] == pytest.approx(0.25)


def test_functional_check_with_one_L_has_no_fit(tmp_path, capsys):
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps({"variant": "fractional", "n": 1}))
    assert main(["functional-check", "--functional", str(fpath), "--Ls", "4",
                 "--mode", "exhaustive", "--depth", "4"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["smallness_slope"] is None and d["fit_residual"] is None


def _functional_check_errors(tmp_path, capsys, config, *extra):
    """Run functional-check (1D, depth 4) on ``config``; return exit code
    and stderr lines."""
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps(dict({"variant": "fractional", "n": 1},
                                     **config)))
    rc = main(["functional-check", "--functional", str(fpath), "--depth",
               "4", "--Ls", "2,4", *extra])
    captured = capsys.readouterr()
    return rc, captured.err.splitlines()


@pytest.mark.parametrize("grid", [(RootBox.unit(1), 5),
                                  (RootBox((0.0,), 7.0), 4)],
                         ids=["depth-5-file", "side-7-file"])
def test_functional_check_rejects_mass_file_from_another_grid(
        tmp_path, capsys, grid):
    root, depth = grid
    wpath = tmp_path / "w.json"
    GridFunction(root, depth, np.ones(1 << depth)).save(wpath)
    rc, err = _functional_check_errors(tmp_path, capsys, {"w": str(wpath)},
                                       "--mode", "exhaustive")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_functional_check_mass_file_on_the_run_grid(tmp_path):
    # a unit density on the run's grid is Lebesgue measure, bit for bit
    wpath = tmp_path / "w.json"
    GridFunction(RootBox.unit(1), 4, np.ones(16)).save(wpath)
    outs = []
    for w in ("lebesgue", str(wpath)):
        fpath = tmp_path / "a.json"
        fpath.write_text(json.dumps({"variant": "fractional", "n": 1,
                                     "mu": w, "w": w}))
        out = tmp_path / "fc.json"
        assert main(["functional-check", "--functional", str(fpath),
                     "--depth", "4", "--Ls", "2,4", "--mode", "exhaustive",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("key", ["mu", "w"])
@pytest.mark.parametrize("case", sorted(OFF_GRID))
def test_functional_check_names_the_off_grid_mismatch(tmp_path, capsys,
                                                      case, key):
    make, words = OFF_GRID[case]
    if (case, key) == ("negative", "mu"):
        words = "cell masses must be nonnegative"   # mu is a measure
    wpath = tmp_path / "w.json"
    make().save(wpath)
    rc, err = _functional_check_errors(tmp_path, capsys, {key: str(wpath)},
                                       "--mode", "exhaustive")
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert words in err[0]


# a mu file is a measure's density, whose cells may be 0
# (test_functional_check_takes_a_mu_file_with_a_zero_cell)
@pytest.mark.parametrize("key", ["w"])
def test_functional_check_refuses_a_file_with_a_zero_cell(tmp_path, capsys,
                                                          key):
    # the weight rule refuses a w cell of 0
    wpath = tmp_path / "w.json"
    GridFunction(RootBox.unit(1), 4, np.linspace(0.0, 1.0, 16)).save(wpath)
    rc, err = _functional_check_errors(tmp_path, capsys, {key: str(wpath)},
                                       "--mode", "exhaustive")
    assert rc == 1
    assert err == ["error: weight cell values must be positive"]


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_functional_check_takes_a_mu_file_with_a_zero_cell(tmp_path, capsys,
                                                           mode):
    # a 2D depth-4 mu density with one zero cell, as a gradient measure has
    # where f is flat: the run equals sdp_check on the same masses
    root = RootBox.unit(2)
    values = np.random.default_rng(8).uniform(0.5, 2.0, (16, 16))
    values[3, 5] = 0.0
    mpath, fpath = tmp_path / "mu.json", tmp_path / "a.json"
    GridFunction(root, 4, values).save(mpath)
    fpath.write_text(json.dumps({"n": 2, "alpha": 0.5, "mu": str(mpath)}))
    extra = ["--trials", "20", "--seed", "3"] if mode == "random" else []
    assert main(["functional-check", "--functional", str(fpath), "--depth",
                 "4", "--p", "1.5", "--Ls", "2,4", "--mode", mode,
                 *extra]) == 0
    d = json.loads(capsys.readouterr().out)
    d.pop("config")
    mu = values * (1.0 / 16) ** 2
    wm = lebesgue_masses(root, 4)
    a = FractionalFunctional(0.5, 1.5, mu, wm, root, 4)
    rep = sdp_check(a, wm, 1.5, CubeIndex.root(2), 4, [2.0, 4.0], trials=20,
                    seed=3, mode=mode)
    assert d == json.loads(json.dumps(cli._finite(rep.to_dict())))


def test_exhaustive_mode_reads_no_sampler_flag(tmp_path, capsys):
    # the exhaustive DP draws nothing: its config names no seed or trials,
    # and an explicit --trials is refused as --seed is
    rc, err = _functional_check_errors(tmp_path, capsys, {},
                                       "--mode", "exhaustive")
    assert rc == 0 and err == []
    fpath = tmp_path / "a.json"
    assert main(["functional-check", "--functional", str(fpath), "--depth",
                 "4", "--Ls", "2,4", "--mode", "exhaustive"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config == {"command": "functional-check", "p": 1.0, "depth": 4,
                      "Ls": "2,4", "mode": "exhaustive"}
    rc, err = _functional_check_errors(tmp_path, capsys, {},
                                       "--mode", "exhaustive", "--trials", "9")
    assert rc == 1
    assert err == ["error: --trials applies only to functional-check "
                   "--mode random: the exhaustive DP draws nothing"]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_functional_check_rejects_nonpositive_trials(tmp_path, capsys,
                                                     trials):
    rc, err = _functional_check_errors(tmp_path, capsys, {},
                                       "--trials", trials)
    assert rc == 1
    assert err == ["error: trials must be >= 1"]


# each config, and the words its one error line names it by
BAD_CONFIGS = {
    "mu-file-descriptor-0": ({"variant": "fractional", "n": 1, "mu": 0},
                             "mu must be"),
    "mu-file-descriptor-5": ({"variant": "fractional", "n": 1, "mu": 5},
                             "mu must be"),
    "not-an-object": ([{"variant": "fractional", "n": 1}], "JSON object"),
    "alpha-string": ({"variant": "fractional", "n": 1, "alpha": "1"},
                     "alpha must be"),
    "alpha-null": ({"variant": "fractional", "n": 1, "alpha": None},
                   "alpha must be"),
    "alpha-1e400-integer": ({"variant": "fractional", "n": 1,
                             "alpha": 10 ** 400}, "alpha must be"),
    "n-list": ({"variant": "fractional", "n": [1]}, "n must be"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_functional_check_refuses_a_malformed_config(tmp_path, name):
    # a grid function the run could read as its measure waits on stdin:
    # a file descriptor in place of a path must not open it
    config, words = BAD_CONFIGS[name]
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps(config))
    stdin = json.dumps(GridFunction(RootBox.unit(1), 4,
                                    np.ones(16)).to_json_dict())
    proc = subprocess.run([sys.executable, "-m", "poincarelab.cli",
                           "functional-check", "--functional", str(fpath),
                           "--depth", "4", "--Ls", "2,4"],
                          input=stdin, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert words in lines[0]


# --Ls values functional-check refuses, with the words of the one error
# line: an infinite L (1e400 reads as one) or a NaN L made LAPACK write to
# stdout before the smallness fit failed, a NaN L in exhaustive mode failed
# in the budget floor, and a repeated L was folded into one per_L entry.
# The run is a separate process, so that anything written to the stdout
# file descriptor shows.
BAD_LS_RUNS = {"inf-random": ("2,inf", "random", "1 < L < inf"),
               "1e400-random": ("2,1e400", "random", "1 < L < inf"),
               "nan-exhaustive": ("2,nan", "exhaustive", "1 < L < inf"),
               "nan-random": ("2,nan", "random", "1 < L < inf"),
               "repeated-exhaustive": ("2,2.0", "exhaustive", "given once"),
               "repeated-random": ("4,2,4", "random", "given once")}


@pytest.mark.parametrize("case", sorted(BAD_LS_RUNS))
def test_functional_check_refuses_an_L_not_finite_or_repeated(tmp_path,
                                                              case):
    Ls, mode, words = BAD_LS_RUNS[case]
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps({"variant": "fractional", "n": 1}))
    proc = subprocess.run([sys.executable, "-m", "poincarelab.cli",
                           "functional-check", "--functional", str(fpath),
                           "--depth", "4", "--p", "1", "--Ls", Ls,
                           "--mode", mode],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert words in lines[0]


@pytest.mark.parametrize("argv, flag", [
    (["cz", "--input", "{spike}", "--L", "nan"], "--L"),
    (["constants", "--power-weight", "delta=0.5", "n=1", "--depth", "4",
      "--p", "inf"], "--p"),
    (["poincare", "--id", "pp-two-weight", "--input", "{spike}", "--p",
      "nan"], "--p"),
], ids=["cz-L-nan", "constants-p-inf", "poincare-p-nan"])
def test_non_finite_float_flag_gives_one_error_line(spike_file, capsys, argv,
                                                    flag):
    rc = main([a.format(spike=spike_file) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} must be "
                                               "finite"), err


@pytest.mark.parametrize("tokens", [["dleta=0.25", "n=1"], ["0.25"]],
                         ids=["misspelt-key", "bare-value"])
def test_power_weight_rejects_unknown_tokens(capsys, tokens):
    rc = main(["constants", "--power-weight", *tokens, "--depth", "4"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --power-weight"), err


# the weight flags of one run, and the words of its one error line: two
# weight sources, or a --power-weight key given twice
BAD_WEIGHT_SOURCES = {
    "file-then-power": (["--weight", "{w}", "--power-weight", "delta=0.5",
                         "n=1"], "not both"),
    "power-then-file": (["--power-weight", "delta=0.5", "n=1", "--weight",
                         "{w}"], "not both"),
    "delta-twice": (["--power-weight", "delta=0.5", "delta=0.9", "n=1"],
                    "delta= once"),
    "n-twice": (["--power-weight", "n=1", "delta=0.5", "n=1"], "n= once"),
}


@pytest.mark.parametrize("case", sorted(BAD_WEIGHT_SOURCES))
@pytest.mark.parametrize("command", [
    ["constants"], ["report"], ["rdf", "--input", "{h}"],
    ["poincare", "--id", "pp-two-weight", "--input", "{h}"]],
    ids=lambda c: c[0])
def test_one_weight_source_with_each_key_once(command, case, capsys,
                                              step_weight_file, spike_file):
    flags, words = BAD_WEIGHT_SOURCES[case]
    rc = main([a.format(w=step_weight_file, h=spike_file)
               for a in command + flags])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert words in err[0]


def test_poincare_check(tmp_path):
    x = np.linspace(0, 1, 17)[:-1] + 1 / 32
    g = GridFunction(RootBox.unit(1), 4, x)
    path = tmp_path / "f.json"
    g.save(path)
    out = tmp_path / "p.json"
    rc = main(["poincare", "--id", "pp-two-weight", "--input", str(path),
               "--p", "1", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["lhs"] == pytest.approx(0.25)
    assert d["passed"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sharpness_command(tmp_path):
    out = tmp_path / "sh.json"
    rc = main(["sharpness", "--p", "1", "--n", "2", "--eps", "0.1",
               "--deltas", "0.5,0.25", "--depth", "4", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert len(d["deltas"]) == 2 and "beta_hat" in d


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("deltas", ["0.5", "0.5,0.5"])
def test_sharpness_without_two_distinct_deltas_has_no_fit(tmp_path, deltas):
    out = tmp_path / "sh.json"
    assert main(["sharpness", "--p", "1", "--n", "2", "--deltas", deltas,
                 "--depth", "5", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["beta_hat"] is None and d["fit_residual"] is None
    assert len(d["lhs"]) == len(deltas.split(","))


def test_depth_zero_power_weight_constants_are_finite():
    # the single depth-0 cell holds the singularity: its mass is exact
    proc = _run_cli("constants", "--power-weight", "delta=0.5", "n=2",
                    "--depth", "0")
    assert proc.returncode == 0 and proc.stderr == ""
    d = json.loads(proc.stdout)
    for key in ("ap", "a1", "ainf_fw", "ap1", "rhinf", "rh_worst_ratio"):
        assert d[key] == pytest.approx(1.0, rel=1e-12), key


def test_rdf_command(tmp_path, step_weight_file):
    rng = np.random.default_rng(0)
    h = GridFunction(RootBox.unit(1), 1, np.array([1.0, 2.0]))
    path = tmp_path / "h.json"
    h.save(path)
    out = tmp_path / "rdf.json"
    rc = main(["rdf", "--input", str(path), "--weight", step_weight_file,
               "--p", "2", "--terms", "5", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["config"]["terms"] == 5
    assert len(d["majorant"]["values"]) == 2
    assert all(r >= v for r, v in zip(d["majorant"]["values"],
                                      h.values.tolist()))


@pytest.fixture()
def rdf_argv(tmp_path):
    """rdf on a seeded 2D depth-4 input and lognormal weight, p = 2."""
    rng = np.random.default_rng(5)
    root = RootBox.unit(2)
    h, w = tmp_path / "h.json", tmp_path / "w.json"
    GridFunction(root, 4, rng.uniform(0.05, 1.0, (16, 16))).save(h)
    GridFunction(root, 4, np.exp(rng.normal(0.0, 0.5, (16, 16)))).save(w)
    return ["rdf", "--input", str(h), "--weight", str(w), "--p", "2"]


def test_rdf_ap_bound_opnorm(rdf_argv, capsys, monkeypatch):
    # C_n p' [w]_{A_p}^(1/(p-1)) with C_n = 1: p = 2 and A_2 = 4 give 2 * 4
    monkeypatch.setattr(cli, "ap_constant", lambda *args: 4.0)
    assert main([*rdf_argv, "--opnorm", "ap-bound"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["opnorm"], d["opnorm_mode"]) == (8.0, "ap-bound")


@pytest.mark.parametrize("extra, error", [
    (["--opnorm", "supplied"], "error: --opnorm-value goes with"),
    (["--opnorm-value", "5"], "error: --opnorm-value goes with"),
    (["--opnorm", "ap-bound", "--opnorm-value", "5"],
     "error: --opnorm-value goes with"),
    (["--terms", "0"], "error: terms must be >= 1"),
    (["--p", "1", "--opnorm", "ap-bound"], "error: p must be > 1"),
    (["--opnorm", "supplied", "--opnorm-value", "0.5"],
     "error: opnorm must be >= 1"),
], ids=["supplied-without-value", "value-without-mode", "value-with-ap-bound",
        "no-terms", "p-1-ap-bound", "opnorm-below-1"])
def test_rdf_bad_options_give_one_error_line(rdf_argv, capsys, extra, error):
    rc = main([*rdf_argv, *extra])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(error), err


def test_report_command(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["report", "--power-weight", "delta=0.25", "n=1",
               "--depth", "5", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["constants"]["a1"] > 1.0


# per command: its argv, where {a}, {f}, {h} and {w} name the files the
# test writes, its sorted top-level keys and its sorted config keys.
# ``config`` alone echoes the inputs; no other key repeats one of them
KEYED_COMMANDS = {
    "constants": (
        ["constants", "--power-weight", "delta=0.5", "n=1", "--depth", "3"],
        ["a1", "ainf_fw", "ap", "ap1", "ap_argmax", "config", "rh_exponent",
         "rh_pass", "rh_worst_ratio", "rhinf"],
        ["command", "depth", "p", "shifted"]),
    "report": (
        ["report", "--power-weight", "delta=0.5", "n=1", "--depth", "3"],
        ["config", "constants"],
        ["command", "depth", "p", "shifted"]),
    "functional-check-random": (
        ["functional-check", "--functional", "{a}", "--depth", "3",
         "--mode", "random", "--trials", "3"],
        ["config", "fit_residual", "per_L", "smallness_slope", "trials",
         "violations", "witness", "worst_ratio"],
        ["Ls", "command", "depth", "mode", "p", "seed", "trials"]),
    "functional-check-exhaustive": (
        ["functional-check", "--functional", "{a}", "--depth", "3",
         "--mode", "exhaustive"],
        ["config", "fit_residual", "per_L", "smallness_slope", "trials",
         "violations", "witness", "worst_ratio"],
        ["Ls", "command", "depth", "mode", "p"]),
    "rdf": (
        ["rdf", "--input", "{h}", "--weight", "{w}", "--terms", "2"],
        ["config", "h_norm", "majorant", "opnorm", "opnorm_mode",
         "tail_bound"],
        ["command", "p", "terms"]),
    "sharpness": (
        ["sharpness", "--depth", "4", "--eps", "0.1"],
        ["a1", "beta_hat", "config", "deltas", "fit_residual", "lhs", "rhs0"],
        ["command", "depth", "eps", "n", "p"]),
    "poincare": (
        ["poincare", "--id", "sobolev-A", "--input", "{f}", "--p", "1.5",
         "--q", "1.5"],
        ["bound", "config", "id", "inputs", "lhs", "measured_constant",
         "passed", "ratio", "rhs"],
        ["command", "depth", "m", "p", "q"]),
    "cz-report": (
        ["cz", "--input", "{h}", "--emit", "report"],
        ["config", "good_max", "omega_fraction", "reconstruction_error",
         "stopping"],
        ["L", "command", "depth"]),
}


@pytest.mark.parametrize("name", sorted(KEYED_COMMANDS))
def test_each_command_writes_its_keys(tmp_path, capsys, name):
    rng = np.random.default_rng(8)
    paths = {key: str(tmp_path / f"{key}.json") for key in "afhw"}
    GridFunction(RootBox.unit(2), 3, rng.uniform(0.5, 2.0, (8, 8))).save(
        paths["h"])
    GridFunction(RootBox.unit(2), 3, rng.lognormal(0.0, 0.5, (8, 8))).save(
        paths["w"])
    GridFunction(RootBox.unit(2), 3, rng.normal(size=(8, 8))).save(paths["f"])
    Path(paths["a"]).write_text(json.dumps({"n": 1}))
    argv, top, config = KEYED_COMMANDS[name]
    assert main([arg.format(**paths) for arg in argv]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (sorted(d), sorted(d["config"])) == (top, config)
    if name == "report":
        assert sorted(d["constants"]) == \
            sorted(set(KEYED_COMMANDS["constants"][1]) - {"config"})
    if name == "poincare":      # only what the check derives from them
        assert d["inputs"] == {"p_star": pytest.approx(3.0)}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["cz"])  # missing required --input
    assert exc.value.code == 2


def test_cli_import_does_not_load_scipy():
    code = ("import sys, poincarelab.cli; "
            "print(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "poincarelab.cli", "constants",
         "--power-weight", "delta=0.5", "n=1", "--depth", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["a1"] > 1.0


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "poincarelab.cli", *args],
                          capture_output=True, text=True)


# sha256 of the stdout of the aligned README constants and report
# commands: restructuring the constants must leave these bytes alone.
# Recorded with numpy 2.4.6 on x86-64.  Vectorized powers may round
# differently on another numpy build or CPU, which would move the digests
# with no code change; the failure message names both versions.
DIGESTS_NUMPY = "2.4.6"
README_DIGESTS = {
    "constants --power-weight delta=0.25 n=1 --depth 8 --p 2":
        "247b743688c535c4800dffd87ca44a3ad87dcac6ed807f56831f7582ec0db5cc",
    "report --power-weight delta=0.5 n=2 --depth 5":
        "1916b3c18c182fae2af25647cbdd4bce7307a1618b70ab46dc017e2e98175843",
}


# sha256 of the stdout of rdf on ``rdf_argv`` per --opnorm mode, recorded
# with the same numpy build as README_DIGESTS
RDF_DIGESTS = {
    "empirical":
        "aaa784e9c2159728213daa657fc965751dea2f998ce5916216d933ead8e0472b",
    "ap-bound":
        "85bc64bbf53d23b3853079a257685b23d9b75320a55dc9960932615a517b55cb",
    "supplied --opnorm-value 3":
        "30327c764fe9bde8f925bb1e6c630afadda8dd68f19f9e49429d113fe61467e5",
}


# sha256 of the stdout of functional-check --mode random (default --p,
# --Ls, --trials and --seed) on a Lebesgue fractional functional, per
# dimension and depth: the sampled families, and so the witness, must keep
# their bits.  Recorded with the same numpy build as README_DIGESTS.
SAMPLED_DIGESTS = {
    (1, 10):
        "15b4b855c014f7d54357a200bc35bc61d23c5ef434f0be01352697877f7208c1",
    (2, 5):
        "96c45733d36c78a95b36c00f295c90a7914e3479a1a2245d0ff739780cc0672b",
}


# sha256 of the stdout of poincare --id on the seeded input of
# ``poincare_argv`` per id and flags, recorded with the same numpy build as
# README_DIGESTS: how the gradient and Lorentz right sides are computed
# must leave these bytes alone
POINCARE_DIGESTS = {
    "pp-two-weight --p 2":
        "8c92e18c9065df7ebc5881f5dbf5f7159da917fd04661b83749969247b775656",
    "higher-order --p 1.5 --m 2":
        "503b7b8a6fdb63085b6affd2dc6d6f3ebca655d8a3af4e91a0c06dbe755d666a",
    "sobolev-A --p 1.5 --q 1.5":
        "7af5977cf3db512e6ab5db6708551ae0fb18808aa6dbcad8058dcb47b5c1ee99",
    "sobolev-B --p 1.5 --q 1.5":
        "cf1604146eb80dd946c69e08b695afacbb2ed752937ee9562115beb7041ab2fe",
    "a1-linear --p 1.5":
        "c903bf4376ebc28de0b4516c31a09b8bb190d23292c67617746847d956a4033f",
    "kz-downward --p 1.5 --p0 3":
        "63c3c831cab57ea907094b9e4d0c5a9944c3225ec64690f1dbb0a44dff7e9521",
    "lorentz --p 1.5":
        "ca7893eda0d8fab2660f0d424efa66a3d9167b15032f3c8a16fc8a50f01ead22",
    "pp-measure --p 1.5":
        "1f53bb3a2356912b57d14eda63e3e9880c75efde8e5b3e5349bb84025edb924b",
}


def poincare_argv(tmp_path, args):
    """poincare on a seeded 2D depth-4 f, flat on a corner block so that
    its gradients have zero cells, with a seeded lognormal --weight file
    as u (and as mu for pp-measure)."""
    rng = np.random.default_rng(26)
    f = rng.normal(size=(16, 16))
    f[:6, :6] = 0.5
    paths = [tmp_path / "f.json", tmp_path / "w.json"]
    GridFunction(RootBox.unit(2), 4, f).save(paths[0])
    GridFunction(RootBox.unit(2), 4,
                 rng.lognormal(0.0, 0.5, (16, 16))).save(paths[1])
    iid, *flags = args.split()
    return ["poincare", "--id", iid, "--input", str(paths[0]),
            "--weight", str(paths[1]), *flags]


@pytest.mark.parametrize("args", sorted(POINCARE_DIGESTS))
def test_poincare_output_bytes_are_pinned(tmp_path, capsys, args):
    assert main(poincare_argv(tmp_path, args)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == POINCARE_DIGESTS[args], (
        f"digest recorded with numpy {DIGESTS_NUMPY}, run with numpy "
        f"{np.__version__}: on another build a difference may be rounding")


@pytest.mark.parametrize("n,depth", sorted(SAMPLED_DIGESTS))
def test_sampled_functional_check_bytes_are_pinned(tmp_path, capsys, n,
                                                   depth):
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps({"variant": "fractional", "n": n,
                                 "mu": "lebesgue", "w": "lebesgue"}))
    assert main(["functional-check", "--functional", str(fpath),
                 "--mode", "random", "--depth", str(depth)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SAMPLED_DIGESTS[n, depth], (
        f"digest recorded with numpy {DIGESTS_NUMPY}, run with numpy "
        f"{np.__version__}: on another build a difference may be rounding")


@pytest.mark.parametrize("mode", sorted(RDF_DIGESTS))
def test_rdf_output_bytes_are_pinned(rdf_argv, capsys, mode):
    assert main([*rdf_argv, "--opnorm", *mode.split()]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == RDF_DIGESTS[mode], (
        f"digest recorded with numpy {DIGESTS_NUMPY}, run with numpy "
        f"{np.__version__}: on another build a difference may be rounding")


@pytest.mark.parametrize("command", sorted(README_DIGESTS))
def test_aligned_readme_output_bytes_are_pinned(command):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"poincarelab {command}" in readme
    proc = _run_cli(*command.split())
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == README_DIGESTS[command], (
        f"digest recorded with numpy {DIGESTS_NUMPY}, run with numpy "
        f"{np.__version__}: on another build a difference may be rounding")


def test_readme_grid_function_json_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"stored as JSON:\s*```json\n(.*?)```", readme, re.S)
    path = tmp_path / "w.json"
    path.write_text(block.group(1))
    proc = _run_cli("constants", "--weight", str(path), "--p", "2")
    assert proc.returncode == 0, proc.stderr
    d = json.loads(proc.stdout)
    assert d["config"]["depth"] == 2 and d["ap"] >= 1.0


def test_constants_refuse_a_p_whose_dual_weight_overflows(tmp_path):
    # w^(1-p') = w^-1000 overflows on the smallest cells of this weight:
    # one error line instead of "ap": null with a RuntimeWarning
    w = np.random.default_rng(3).lognormal(0.0, 1.5, 256)
    path = tmp_path / "w.json"
    GridFunction(RootBox.unit(1), 8, w).save(path)
    proc = _run_cli("constants", "--weight", str(path), "--p", "1.001")
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: w^(1-p') is not finite")


GOOD = {"root": {"lower": [0.0], "side": 1.0}, "depth": 1,
        "values": [1.0, 3.0]}
MALFORMED = {
    "missing-root": {"depth": 1, "values": [1.0, 3.0]},
    "missing-values": {"root": GOOD["root"], "depth": 1},
    "wrong-length": dict(GOOD, values=[1.0, 3.0, 2.0]),
    "nan": dict(GOOD, values=[1.0, float("nan")]),
    "non-positive": dict(GOOD, values=[1.0, 0.0]),
    "not-an-object": [1.0, 3.0],
    "not-json": "{",
    # ill-typed fields: depth and n are JSON integers, side, corner and
    # values JSON numbers that fit a float, values a flat list
    "depth-float": dict(GOOD, depth=1.5),
    "depth-text": dict(GOOD, depth="1"),
    "depth-bool": dict(GOOD, depth=True),
    "n-float": dict(GOOD, n=1.9),
    "side-text": dict(GOOD, root={"lower": [0.0], "side": "1"}),
    "corner-text": dict(GOOD, root={"lower": ["0"], "side": 1.0}),
    "values-text": dict(GOOD, values=["1", "2"]),
    "values-nested": dict(GOOD, values=[[1.0], [2.0]]),
    "values-overflow": dict(GOOD, values=[1, 10 ** 400]),
    # json.load reads Infinity, NaN and 1e999; a root box refuses them
    "side-infinity": dict(GOOD, root={"lower": [0.0], "side": float("inf")}),
    "side-1e999": '{"root": {"lower": [0.0], "side": 1e999}, "depth": 1, '
                  '"values": [1.0, 3.0]}',
    "corner-nan": dict(GOOD, root={"lower": [float("nan")], "side": 1.0}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_weight_file_gives_one_error_line(tmp_path, name):
    doc = MALFORMED[name]
    path = tmp_path / "w.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    proc = _run_cli("constants", "--weight", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# the commands whose grid --depth sets
DEPTH_ARGVS = [
    ["constants", "--power-weight", "delta=0.25", "n=2"],
    ["report", "--power-weight", "delta=0.25", "n=2"],
    ["sharpness", "--p", "1", "--n", "2"],
    ["functional-check", "--functional", "{functional}"],
]


def _run_with_depth(tmp_path, argv, depth):
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps({"variant": "fractional", "n": 2}))
    argv = [a.format(functional=fpath) for a in argv]
    proc = _run_cli(*argv, "--depth", depth)
    assert proc.returncode == 1
    assert proc.stdout == ""
    return proc.stderr.splitlines()


@pytest.mark.parametrize("argv", DEPTH_ARGVS, ids=lambda a: a[0])
def test_depth_over_cell_cap_gives_one_error_line(tmp_path, argv):
    # depth 30 fails fast only through the guard: without it the first
    # allocation asks for 2^60 cells
    lines = _run_with_depth(tmp_path, argv, "30")
    assert lines == ["error: n*depth exceeds cap 24"], lines


@pytest.mark.parametrize("argv", DEPTH_ARGVS, ids=lambda a: a[0])
def test_negative_depth_gives_one_error_line_naming_the_flag(tmp_path, argv):
    lines = _run_with_depth(tmp_path, argv, "-1")
    assert lines == ["error: --depth must be >= 0, got -1"], lines


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_every_command_writes_strict_json(tmp_path, step_weight_file,
                                          spike_file):
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps({"variant": "fractional", "n": 1}))
    f = GridFunction(RootBox.unit(1), 4, np.linspace(0.0, 1.0, 16))
    fin = tmp_path / "f.json"
    f.save(fin)
    f2 = GridFunction(RootBox.unit(2), 3, np.arange(64.0) % 5)
    fin2 = tmp_path / "f2.json"
    f2.save(fin2)
    h = tmp_path / "h1.json"
    GridFunction(RootBox.unit(1), 1, np.array([1.0, 2.0])).save(h)
    commands = {
        "constants-p1": ["constants", "--weight", step_weight_file,
                         "--p", "1"],
        "constants": ["constants", "--power-weight", "delta=0.25", "n=1",
                      "--depth", "5"],
        "report": ["report", "--power-weight", "delta=0.25", "n=1",
                   "--depth", "5", "--p", "1"],
        "functional-check": ["functional-check", "--functional", str(fpath),
                             "--Ls", "2,4", "--mode", "exhaustive",
                             "--depth", "4"],
        "poincare-mixed": ["poincare", "--id", "mixed", "--input",
                           str(fin2), "--p", "1"],
        "poincare": ["poincare", "--id", "pp-two-weight", "--input",
                     str(fin), "--p", "1"],
        "sharpness": ["sharpness", "--p", "1", "--n", "2", "--eps", "0.1",
                      "--deltas", "0.5,0.25", "--depth", "4"],
        "rdf": ["rdf", "--input", str(h), "--weight", step_weight_file,
                "--terms", "3"],
    }
    for emit in ("stopping", "good", "bad", "report"):
        commands[f"cz-{emit}"] = ["cz", "--input", spike_file, "--L", "2",
                                  "--emit", emit]
    docs = {}
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(out)]) == 0, name
        docs[name] = json.loads(out.read_text(),
                                parse_constant=_reject_constant)
    # the two outputs that used to carry a bare NaN
    assert docs["constants-p1"]["ap1"] is None
    assert docs["poincare-mixed"]["bound"] is None


CSV_CASES = {
    "constants": (["constants", "--weight", "{w}", "--p", "2"], "constant,"),
    "sharpness": (["sharpness", "--p", "1", "--n", "2", "--eps", "0.1",
                   "--deltas", "0.5", "--depth", "3"], "delta,"),
    "cz-stopping": (["cz", "--input", "{h}", "--emit", "stopping"], "level,"),
    "poincare": (["poincare", "--id", "pp-two-weight", "--input", "{h}"], None),
    "rdf": (["rdf", "--input", "{h}", "--weight", "{w2}", "--terms", "2"],
            None),
    "functional-check": (["functional-check", "--functional", "{a}",
                          "--mode", "exhaustive", "--depth", "3"], None),
    "report": (["report", "--weight", "{w}"], None),
    "cz-report": (["cz", "--input", "{h}", "--emit", "report"], None),
    "cz-good": (["cz", "--input", "{h}", "--emit", "good"], None),
    "cz-bad": (["cz", "--input", "{h}", "--emit", "bad"], None),
}


def _case_args(name, tmp_path, step_weight_file, spike_file):
    """The arguments of ``CSV_CASES[name]`` on files in ``tmp_path``."""
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps({"variant": "fractional", "n": 1}))
    w2 = tmp_path / "w2.json"
    GridFunction(RootBox.unit(1), 2, np.array([1.0, 3.0, 2.0, 1.0])).save(w2)
    return [a.format(w=step_weight_file, w2=w2, h=spike_file, a=fpath)
            for a in CSV_CASES[name][0]]


@pytest.mark.parametrize("flag_first", [True, False])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_only_for_commands_with_a_table(name, flag_first, tmp_path,
                                            capsys, step_weight_file,
                                            spike_file):
    args = _case_args(name, tmp_path, step_weight_file, spike_file)
    header = CSV_CASES[name][1]
    out = tmp_path / "out.csv"
    fmt = ["--format", "csv"]
    argv = (fmt + args if flag_first else args + fmt) + ["--out", str(out)]
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    if header is None:
        assert rc == 1 and not out.exists()
        assert len(err) == 1 and err[0].startswith("error: --format csv"), err
    else:
        assert rc == 0 and err == []
        assert out.read_text().startswith(header)


@pytest.mark.parametrize("flag_first", [True, False])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_shifted_grids_only_for_constants_and_report(name, flag_first,
                                                     tmp_path, capsys,
                                                     step_weight_file,
                                                     spike_file):
    args = _case_args(name, tmp_path, step_weight_file, spike_file)
    flag = ["--shifted-grids"]
    rc = main(flag + args if flag_first else args + flag)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if name in ("constants", "report"):
        assert rc == 0 and err == []
        assert json.loads(captured.out)["config"]["shifted"] is True
    else:
        assert rc == 1 and captured.out == ""
        assert err == ["error: --shifted-grids applies only to constants "
                       f"and report, not {args[0]}"], err


@pytest.mark.parametrize("flag_first", [True, False])
@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_seed_only_for_functional_check(name, flag_first, tmp_path, capsys,
                                        step_weight_file, spike_file):
    # rdf's probes come from operators.PROBE_SEED whatever --seed says
    args = _case_args(name, tmp_path, step_weight_file, spike_file)
    flag = ["--seed", "5"]

    def argv(flag):
        return flag + args if flag_first else args + flag
    rc = main(argv(flag))
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if name == "functional-check":
        # the case runs the exhaustive DP, which draws nothing
        assert rc == 1 and captured.out == ""
        assert err == ["error: --seed applies only to functional-check "
                       "--mode random: the exhaustive DP draws nothing"], err
        rc = main([a.replace("exhaustive", "random") for a in argv(flag)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert json.loads(captured.out)["config"]["seed"] == 5
    else:
        assert rc == 1 and captured.out == ""
        assert err == ["error: --seed applies only to functional-check, "
                       f"not {args[0]}"], err


@pytest.mark.parametrize("flag_first", [True, False])
@pytest.mark.parametrize("name", sorted(CSV_CASES) + ["constants-power"])
def test_depth_only_where_no_file_sets_the_grid(name, flag_first, tmp_path,
                                               capsys, step_weight_file,
                                               spike_file):
    args = (["constants", "--power-weight", "delta=0.5", "n=1"]
            if name == "constants-power"
            else _case_args(name, tmp_path, step_weight_file, spike_file))
    flag = ["--depth", "4"]
    rc = main(flag + args if flag_first else args + flag)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if name in ("constants-power", "functional-check", "sharpness"):
        # the case's own "--depth 3" after the subcommand wins over a
        # global --depth, and a later one wins over it
        assert rc == 0 and err == []
        depth = 3 if flag_first and name != "constants-power" else 4
        assert json.loads(captured.out)["config"]["depth"] == depth
    else:
        assert rc == 1 and captured.out == ""
        assert len(err) == 1, err
        assert err[0].startswith(f"error: --depth does not apply to "
                                 f"{args[0]}"), err
