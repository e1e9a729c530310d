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
from poincarelab.grid import GridFunction, RootBox


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


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_functional_check_rejects_nonpositive_trials(tmp_path, capsys,
                                                     trials):
    rc, err = _functional_check_errors(tmp_path, capsys, {},
                                       "--trials", trials)
    assert rc == 1
    assert err == ["error: trials must be >= 1"]


@pytest.mark.parametrize("tokens", [["dleta=0.25", "n=1"], ["0.25"]],
                         ids=["misspelt-key", "bare-value"])
def test_power_weight_rejects_unknown_tokens(capsys, tokens):
    rc = main(["constants", "--power-weight", *tokens, "--depth", "4"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --power-weight"), err


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
    assert d["terms"] == 5
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
        "124b33c54c278c68927d00f626b10ca7332b643b53e360923fb80f053a7d2724",
    "report --power-weight delta=0.5 n=2 --depth 5":
        "5572a39c036e7a9b986fb583aa5ac23bfa7e91dd74615e353f8371843e5498ad",
}


# sha256 of the stdout of rdf on ``rdf_argv`` per --opnorm mode, recorded
# with the same numpy build as README_DIGESTS
RDF_DIGESTS = {
    "empirical":
        "9cae7a94d657df823f22483326aee2b79692ca68ee304b4a816bd0650f0f5bd9",
    "ap-bound":
        "4eff9f70347d1bc62f07cb388e90dad7eee2e6982e3150e33be6c6b2f5d179d6",
    "supplied --opnorm-value 3":
        "418bd399cb358a7993afe7ed8f75806195e76d7f2fb4b85e35ab7ba5a5da44ec",
}


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


@pytest.mark.parametrize("argv", [
    ["constants", "--power-weight", "delta=0.25", "n=2"],
    ["report", "--power-weight", "delta=0.25", "n=2"],
    ["sharpness", "--p", "1", "--n", "2"],
    ["functional-check", "--functional", "{functional}"],
], ids=lambda a: a[0])
def test_depth_over_cell_cap_gives_one_error_line(tmp_path, argv):
    # depth 30 fails fast only through the guard: without it the first
    # allocation asks for 2^60 cells
    fpath = tmp_path / "a.json"
    fpath.write_text(json.dumps({"variant": "fractional", "n": 2}))
    argv = [a.format(functional=fpath) for a in argv]
    proc = _run_cli(*argv, "--depth", "30")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines == ["error: n*depth exceeds cap 24"], proc.stderr


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
