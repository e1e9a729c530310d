"""Seeded inputs and job lists of the three benchmark workloads.

``build(workload, seed, workdir, tiny)`` writes the workload's input grid
functions with ``GridFunction.save``, loads them back and returns the fixed
job list.  Each job is ``(name, run, check)``: ``run()`` is the timed call
into poincarelab and ``check(result)`` returns ``(numbers, problems)``,
where ``numbers`` feeds the job's digest and ``problems`` lists every
broken exact invariant (empty when the output is correct).  A CLI job's
``run(trace_path)`` starts one child and returns ``(returncode, stdout,
cpu_s, maxrss_kb)``.

Inputs vary with the seed but the work does not: array shapes, stopping
cubes, DP witnesses and sampler trial counts are fixed by construction, so
timings and layer counts of one size are comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np

# library calls go through the module objects, so the spans that
# tracing.py installs in those namespaces see them
from poincarelab import (decomposition, functionals, inequalities, operators,
                         weights)
from poincarelab.grid import CubeIndex, GridFunction, RootBox

WORKLOADS = ("cli-readme", "weight-constants", "trees-and-series")
HERE = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-12


def digest(numbers):
    """Short hash of a job's numbers (floats by repr, arrays by bytes)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x, dtype=float).tobytes())
        elif isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(str(k).encode())
                feed(x[k])
        else:
            h.update(repr(x).encode())

    feed(numbers)
    return h.hexdigest()[:16]


def _save(workdir, name, root, depth, values):
    path = os.path.join(workdir, name)
    GridFunction(root, depth, values).save(path)
    return path


def _load(workdir, name, root, depth, values):
    return GridFunction.load(_save(workdir, name, root, depth, values))


def _lognormal(rng, n, depth, sigma):
    return np.exp(rng.normal(0.0, sigma, (1 << depth,) * n))


def _wave(rng, root, depth):
    """A smooth 2D field sin(k1 pi x + phase) cos(k2 pi y)."""
    x, y = GridFunction(root, depth,
                        np.zeros((1 << depth) ** 2)).cell_midpoints()
    k = rng.integers(1, 4, 2)
    return np.sin(k[0] * np.pi * x + rng.uniform(0, 6.3)) \
        * np.cos(k[1] * np.pi * y)


def _spiky(rng, n, depth, spikes):
    """Nonnegative h with average below 2 whose level-2 stopping cubes are
    exactly ``spikes`` single cells: background in [0.5, 1], one spike in
    (2.1, 4.8) inside each of ``spikes`` distinct parent blocks, so no
    parent or coarser cube averages above 2."""
    N = 1 << depth
    h = rng.uniform(0.5, 1.0, (N,) * n)
    parents = rng.choice((N // 2) ** n, size=spikes, replace=False)
    cells = []
    for p in parents:
        pc = np.unravel_index(int(p), (N // 2,) * n)
        cell = tuple(2 * int(c) + int(rng.integers(0, 2)) for c in pc)
        h[cell] = rng.uniform(2.1, 4.8)
        cells.append(cell)
    return h, sorted(cells)


def _weight_problems(d):
    """Exact invariants of a constants report (as a dict)."""
    out = []
    for key in ("ap", "a1", "rhinf"):
        if not d[key] >= 1.0 - TOL:
            out.append(f"{key}={d[key]!r} < 1")
    if not d["ap1"] <= d["ap"] * (1.0 + TOL):
        out.append(f"ap1={d['ap1']!r} > ap={d['ap']!r}")
    if not d["rh_worst_ratio"] <= 2.0:
        out.append(f"rh_worst_ratio={d['rh_worst_ratio']!r} > 2")
    return out


def _finite_problems(label, values):
    arr = np.asarray(values, dtype=float)
    return [] if np.all(np.isfinite(arr)) else [f"{label} not finite"]


def _check_report(rep):
    d = rep.to_dict()
    return d, _weight_problems(d)


def _check_sdp(rep):
    probs = [] if rep.violations == 0 else [f"violations={rep.violations}"]
    return rep.to_dict(), probs


def _check_sweep(sweep):
    d = sweep.to_dict()
    probs = _finite_problems("sharpness", d["lhs"] + d["rhs0"] + d["a1"])
    if min(d["a1"]) < 1.0 - TOL:
        probs.append("A_1 < 1")
    return d, probs


def _check_inequality(res):
    d = res.to_dict()
    return d, _finite_problems(d["id"], [d["lhs"], d["rhs"]])


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

def run_child(argv):
    """Run one child to completion; (returncode, stdout, cpu_s, maxrss_kb).
    It inherits this process's environment (src/ on the path, one BLAS
    thread), set by run.py."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def _cli_problems(kind, d, ctx):
    if kind in ("constants-power", "constants-file"):
        return _weight_problems(d)
    if kind == "report":
        return _weight_problems(d["constants"])
    if kind == "cz":
        got = sorted(tuple(c) for _, c in d)
        levels = {lv for lv, _ in d}
        ok = got == ctx["spike_cells"] and levels <= {ctx["h_depth"]}
        return [] if ok else ["stopping cubes differ from the spike cells"]
    if kind == "functional-check":
        return [] if d["violations"] == 0 \
            else [f"violations={d['violations']}"]
    if kind == "rdf":
        h = ctx["h_values"]
        R = np.asarray(d["majorant"]["values"]).reshape(h.shape)
        return ([] if np.all(R >= h) else ["majorant R < h"]) \
            + _finite_problems("tail_bound", d["tail_bound"])
    if kind == "sharpness":
        return _finite_problems("sharpness", d["lhs"] + d["rhs0"] + d["a1"])
    return _finite_problems("poincare", [d["lhs"], d["rhs"]])


def _build_cli(rng, workdir, tiny):
    root = RootBox.unit(2)
    d_h = 3 if tiny else 5
    h, spikes = _spiky(rng, 2, d_h, 4 if tiny else 60)
    h_path = _save(workdir, "h.json", root, d_h, h)
    w_path = _save(workdir, "w.json", root, d_h,
                   _lognormal(rng, 2, d_h, rng.uniform(0.4, 1.0)))
    d_f = 3 if tiny else 6
    f_path = _save(workdir, "f.json", root, d_f, _wave(rng, root, d_f))
    d_a = 3 if tiny else 4
    wa_path = _save(workdir, "wa.json", root, d_a,
                    _lognormal(rng, 2, d_a, 0.5))
    a_path = os.path.join(workdir, "a.json")
    # Lebesgue mu keeps the DP witness, and so the traced counts, fixed
    with open(a_path, "w") as fh:
        json.dump({"variant": "fractional", "n": 2, "alpha": 1.0,
                   "mu": "lebesgue", "w": wa_path}, fh)
    # the README commands with its literal parameters (smaller depths at
    # the smoke size)
    commands = [
        ("constants-power", ["constants", "--power-weight", "delta=0.25",
                             "n=1", "--depth", "4" if tiny else "8",
                             "--p", "2"]),
        ("constants-file", ["constants", "--weight", w_path, "--p", "2",
                            "--shifted-grids"]),
        ("cz", ["cz", "--input", h_path, "--L", "2", "--emit", "stopping"]),
        ("functional-check", ["functional-check", "--functional", a_path,
                              "--p", "1", "--Ls", "2,4,8", "--mode",
                              "exhaustive", "--depth", str(d_a)]),
        ("poincare", ["poincare", "--id", "pp-two-weight", "--input", f_path,
                      "--p", "1"]),
        ("sharpness", ["sharpness", "--p", "1", "--n", "2", "--eps", "0.05",
                       "--deltas", "0.5,0.25,0.125", "--depth",
                       "4" if tiny else "7"]),
        ("rdf", ["rdf", "--input", h_path, "--weight", w_path, "--p", "2",
                 "--terms", "20"]),
        ("report", ["report", "--power-weight", "delta=0.5", "n=2", "--depth",
                    "3" if tiny else "5"]),
    ]
    ctx = {"spike_cells": spikes, "h_depth": d_h, "h_values": h}
    traced_main = os.path.join(HERE, "traced_cli.py")

    def make(kind, args):
        def run(trace_path=None):
            if trace_path is None:
                argv = [sys.executable, "-m", "poincarelab.cli"] + args
            else:
                argv = [sys.executable, traced_main, trace_path,
                        repr(time.time())] + args
            return run_child(argv)

        def check(result):
            rc, out = result[:2]
            if rc != 0:
                return out, [f"exit code {rc}"]
            return out, _cli_problems(kind, json.loads(out), ctx)
        return kind, run, check

    return [make(kind, args) for kind, args in commands]


# ---------------------------------------------------------------------------
# weight-constants
# ---------------------------------------------------------------------------

def _build_weights(rng, workdir, tiny):
    # (n, depth, weight, shifted).  Two rounds hold 20 job samples; the three
    # 3D reports are the middle of the cost order, so the median and the
    # tail (p50) fall inside one cluster of equal jobs, not between two.
    full = [(1, 8, "lognormal", False), (2, 5, "lognormal", True),
            (1, 10, "lognormal", False), (1, 10, "power", False),
            (3, 4, "lognormal", False), (3, 4, "power", False),
            (3, 4, "lognormal-2", False),
            (2, 6, "lognormal", False), (2, 6, "power", False),
            (2, 7, "lognormal", False)]
    small = [(1, 4, "lognormal", False), (1, 4, "power", False),
             (2, 3, "lognormal", False), (2, 3, "power", False),
             (2, 3, "lognormal", True)]
    jobs = []
    for n, depth, kind, shifted in (small if tiny else full):
        name = f"{kind}-{n}d-d{depth}" + ("-shifted" if shifted else "")
        if kind.startswith("lognormal"):
            g = _load(workdir, name + ".json", RootBox.unit(n), depth,
                      _lognormal(rng, n, depth, rng.uniform(0.4, 1.2)))
            source = weights.GridWeight(g)
        else:
            source = float(rng.uniform(0.3, 0.9))

        def run(source=source, n=n, depth=depth, shifted=shifted):
            # a PowerWeight is built per call, as the CLI does, so its cell
            # masses are computed in every round
            w = weights.PowerWeight(source, n) \
                if isinstance(source, float) else source
            return weights.constants_report(w.cell_values(w.root, depth), 2.0,
                                            w.root, depth, shifted=shifted)

        jobs.append((name, run, _check_report))
    return jobs


# ---------------------------------------------------------------------------
# trees-and-series
# ---------------------------------------------------------------------------

def _build_trees(rng, workdir, tiny):
    jobs = []

    # sdp_check on a fractional functional (alpha = 1, p = 1).  Budgets are
    # powers of 2^n, so the exhaustive witness is one cube per L and the
    # DP's backtracking visits a seed-independent number of nodes.  The
    # sampler's own seed is fixed: its families, and so its work, do not
    # depend on the inputs, only the ratios do.
    for n, depth, Ls in ((1, 6 if tiny else 10, [2, 4, 8]),
                         (2, 3 if tiny else 5,
                          [4, 16] if tiny else [4, 16, 64])):
        root = RootBox.unit(n)
        vol = (1.0 / (1 << depth)) ** n
        mu = _load(workdir, f"mu-{n}d.json", root, depth,
                   _lognormal(rng, n, depth, 0.5)).values * vol
        w = _load(workdir, f"w-{n}d.json", root, depth,
                  _lognormal(rng, n, depth, 0.5)).values * vol
        for mode in ("exhaustive", "random"):
            def sdp_run(mu=mu, w=w, n=n, depth=depth, Ls=Ls, mode=mode,
                        root=root):
                a = functionals.FractionalFunctional(1.0, 1.0, mu, w, root,
                                                     depth)
                return functionals.sdp_check(a, w, 1.0, CubeIndex.root(n),
                                             depth, Ls, trials=200, seed=0,
                                             mode=mode)
            jobs.append((f"sdp-{mode}-{n}d-d{depth}", sdp_run, _check_sdp))

    # stopping-time decomposition with exactly K single-cell stopping cubes
    d_cz = 4 if tiny else 7
    hv, spikes = _spiky(rng, 2, d_cz, 8 if tiny else 1200)
    h = _load(workdir, "h-cz.json", RootBox.unit(2), d_cz, hv)

    def cz_check(dec):
        err = dec.reconstruction_error()
        d = {"stopping": [[q.level, list(q.coords)] for q in dec.stopping],
             "omega": dec.omega_volume_fraction(), "error": err,
             "good": dec.good.values}
        probs = [] if err <= TOL else [f"reconstruction error {err!r}"]
        if sorted(q.coords for q in dec.stopping) != spikes:
            probs.append("stopping cubes differ from the spike cells")
        return d, probs
    jobs.append((f"cz-2d-d{d_cz}",
                 lambda: decomposition.cz_decompose(h, L=2.0), cz_check))

    # Rubio de Francia majorant series: 20 probes + 20 terms of the
    # centered maximal on the full grid
    for n, depth in ((1, 5 if tiny else 9), (2, 3 if tiny else 6)):
        root = RootBox.unit(n)
        hh = _load(workdir, f"h-rdf-{n}d.json", root, depth,
                   rng.uniform(0.05, 1.0, (1 << depth,) * n))
        wm = _load(workdir, f"w-rdf-{n}d.json", root, depth,
                   _lognormal(rng, n, depth, 0.5)).values * hh.cell_volume

        def rdf_check(result, hh=hh):
            R, rep = result
            probs = [] if np.all(R.values >= hh.values) else ["majorant R < h"]
            return {"R": R.values, "report": rep}, probs
        jobs.append((f"rdf-{n}d-d{depth}",
                     lambda hh=hh, wm=wm: operators.rubio_de_francia(
                         hh, wm, 2.0),
                     rdf_check))

    d_fr = 4 if tiny else 8
    g = _load(workdir, "g-frac.json", RootBox.unit(2), d_fr,
              rng.uniform(0.0, 1.0, (1 << d_fr,) * 2))
    jobs.append((f"frac-2d-d{d_fr}",
                 lambda: operators.fractional_integral(g, 1.0),
                 lambda out: (out.values,
                              _finite_problems("I_1 g", out.values))))

    # catalog inequalities on a smooth field, seeded weight as u and mu
    d_in = 3 if tiny else 7
    root = RootBox.unit(2)
    f = _load(workdir, "f-ineq.json", root, d_in, _wave(rng, root, d_in))
    m = _load(workdir, "u-ineq.json", root, d_in,
              _lognormal(rng, 2, d_in, 0.5)).values * f.cell_volume
    for iid in ("pp-measure", "pointwise-i1", "i1-vs-m", "weak-1n'"):
        jobs.append((f"ineq-{iid.rstrip(chr(39))}",
                     lambda iid=iid: inequalities.check_inequality(
                         iid, f, u=m, mu=m, p=1.0),
                     _check_inequality))

    # p = 1 sweeps in 2D at depth 9 and in 3D at depth 6 (2^18 cells each)
    eps = float(rng.uniform(0.04, 0.1))
    for n, d_sh in ((2, 5 if tiny else 9), (3, 3 if tiny else 6)):
        jobs.append((f"sharpness-{n}d-d{d_sh}",
                     lambda n=n, d_sh=d_sh: inequalities.sharpness_sweep(
                         1.0, n, eps, [0.5, 0.25, 0.125], d_sh),
                     _check_sweep))
    return jobs


BUILDERS = {"cli-readme": _build_cli, "weight-constants": _build_weights,
            "trees-and-series": _build_trees}


def build(workload, seed, workdir, tiny=False):
    """Write the workload's seeded inputs into ``workdir``; return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](rng, workdir, tiny)
