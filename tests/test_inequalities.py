"""Exponent formulas, the inequality catalog, and the sharpness sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab.functionals import (ConstantFunctional, CubeSums,
                                     FractionalFunctional,
                                     GradientFunctional,
                                     IncreasingFunctional)
from poincarelab.decomposition import orthonormal_basis, project
from poincarelab.grid import (CubeIndex, GridFunction, RootBox, all_cubes,
                              discrete_gradient, measure_cell_masses, sample)
from poincarelab.inequalities import (Exponents, InequalityError,
                                      _functional_hypothesis_norm,
                                      check_inequality, plateau_function,
                                      poincare_sides, sharpness_point,
                                      sharpness_scaling_exponents,
                                      sharpness_sweep, sobolev_exponent,
                                      weak_implies_strong_demo)
from poincarelab.operators import (centered_maximal_measure,
                                   centered_maximal_values,
                                   fractional_integral,
                                   lorentz_p1_norm_values,
                                   orlicz_exp_norm_values, weak_norm_values)
from poincarelab.weights import (PowerWeight, ap1_constant, ap_constant,
                                 two_weight_ap)
from tests.conftest import counting, smooth_field_2d

UNIT1 = RootBox.unit(1)
# an inf or NaN mass or ratio shows up as a RuntimeWarning on the way
RAISE_WARNINGS = pytest.mark.filterwarnings("error::RuntimeWarning")


# ---------------------------------------------------------------------------
# exponent algebra
# ---------------------------------------------------------------------------

def test_sobolev_exponent_classical_oracles():
    assert sobolev_exponent("classical", 1.0, 2) == pytest.approx(2.0)
    assert sobolev_exponent("classical", 2.0, 4) == pytest.approx(4.0)
    assert sobolev_exponent("classical", 1.5, 3) == pytest.approx(3.0)


def test_sobolev_exponent_weighted_kinds():
    # q = 1, unit constant: every weighted kind collapses to classical
    for kind in ("A", "B"):
        assert sobolev_exponent(kind, 1.5, 3, q=1.0, apq=1.0) == \
            pytest.approx(sobolev_exponent("classical", 1.5, 3))
    assert sobolev_exponent("B", 2.0, 3, q=2.0) == pytest.approx(3.0)
    assert sobolev_exponent("M", 2.0, 3, q=1.0, M=2.0) == pytest.approx(3.0)


def test_sobolev_exponent_validation():
    with pytest.raises(InequalityError):
        sobolev_exponent("classical", 2.0, 2)
    with pytest.raises(InequalityError):
        sobolev_exponent("A", 1.0, 2, q=0.5)
    with pytest.raises(InequalityError):
        sobolev_exponent("nope", 1.0, 2)


def test_weighted_exponent_decreases_in_constant():
    vals = [sobolev_exponent("A", 1.5, 3, q=1.5, apq=c)
            for c in (1.0, 2.0, 5.0, 20.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # and stays below the constant-free variant once the constant exceeds 1
    assert vals[1] < sobolev_exponent("B", 1.5, 3, q=1.5)


def test_exponents_dataclass():
    e = Exponents(p=2.0, n=3)
    assert e.p_conjugate == pytest.approx(2.0)
    assert e.n_conjugate == pytest.approx(1.5)
    assert e.p_star == pytest.approx(6.0)
    assert Exponents(p=1.0, n=1).p_conjugate == math.inf


# ---------------------------------------------------------------------------
# sides
# ---------------------------------------------------------------------------

def test_poincare_sides_identity_map_oracle():
    f = sample(UNIT1, 6, lambda x: x)
    lhs, rhs = poincare_sides(f, p=1.0)
    assert lhs == pytest.approx(0.25, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)


def test_poincare_sides_scale_invariance():
    f = smooth_field_2d(np.random.default_rng(0), 5)
    lhs, rhs = poincare_sides(f, p=2.0)
    g = f.copy_with(7.0 * f.values)
    lhs2, rhs2 = poincare_sides(g, p=2.0)
    assert lhs2 == pytest.approx(7.0 * lhs, rel=1e-10)
    assert rhs2 == pytest.approx(7.0 * rhs, rel=1e-10)


def test_poincare_sides_center_options():
    rng = np.random.default_rng(1)
    f = GridFunction(UNIT1, 5, rng.normal(size=32))
    w = np.exp(rng.normal(0, 0.5, 32)) / 32
    base = poincare_sides(f, u=w, p=1.0)[0]
    wm = poincare_sides(f, u=w, p=1.0, center="weighted_mean")[0]
    pr = poincare_sides(f, u=w, p=1.0, center="projection")[0]
    assert all(v > 0 for v in (base, wm, pr))
    # the weighted mean is the exact L^2(w)-optimal constant, so in L^2
    # it beats the plain mean
    l2wm = poincare_sides(f, u=w, lhs_exponent=2.0, p=1.0,
                          center="weighted_mean")[0]
    l2mean = poincare_sides(f, u=w, lhs_exponent=2.0, p=1.0)[0]
    assert l2wm <= l2mean + 1e-12


def test_poincare_sides_rejects_unknown_rhs():
    f = sample(UNIT1, 4, lambda x: x)
    with pytest.raises(InequalityError):
        poincare_sides(f, rhs_kind="bogus")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_check_two_weight_oracle():
    f = sample(UNIT1, 6, lambda x: x)
    res = check_inequality("pp-two-weight", f, p=1.0)
    assert res.lhs == pytest.approx(0.25, abs=1e-12)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)
    assert res.passed is True
    assert res.ratio == pytest.approx(0.25)


def test_check_exp_jn_two_valued():
    vals = np.ones(32)
    vals[:16] = -1.0
    f = GridFunction(UNIT1, 5, vals)
    res = check_inequality("exp-JN", f, p=1.0,
                           a_functional=ConstantFunctional(1.0))
    # |f - mean| = 1, and the exponential norm of the constant 1 is 1/ln 2
    assert res.lhs == pytest.approx(1.0 / math.log(2), rel=1e-9)
    assert np.isfinite(res.measured_constant)


def reference_hypothesis_norm(f, a_eval, Q):
    """max over dyadic P inside Q of avg_P |f - f_P| / a(P), cube by cube."""
    best = 0.0
    for P in all_cubes(f.n, f.depth, Q.level):
        if Q.contains(P):
            block = f.values[f.block(P)]
            osc = float(np.abs(block - block.mean()).mean())
            best = max(best, osc / a_eval(P))
    return best


@pytest.mark.parametrize("n,depth", [(1, 8), (2, 5), (3, 3)])
def test_hypothesis_norm_equals_per_cube_walk(n, depth):
    rng = np.random.default_rng(60 + n)
    shape = (1 << depth,) * n
    root = RootBox.unit(n)
    f = GridFunction(root, depth, rng.lognormal(0.0, 1.0, shape))
    mu = rng.uniform(0.1, 1.0, shape)
    um = rng.uniform(0.1, 1.0, shape)
    cs = CubeSums(mu, depth)
    inc = IncreasingFunctional({q: cs.mass(q) for q in all_cubes(n, depth)},
                               root, depth)
    for Q in (CubeIndex.root(n), CubeIndex(1, (1,) * n),
              CubeIndex(2, (1,) * n)):
        for a in (FractionalFunctional(0.8, 1.5, mu, um, root, depth), inc):
            assert _functional_hypothesis_norm(f, a, Q) == \
                reference_hypothesis_norm(f, a.eval, Q)
        frac = FractionalFunctional(0.8, 1.5, mu, um, root, depth)
        res = check_inequality("pp-measure", f, Q=Q, u=um, mu=mu, p=1.5,
                               alpha=0.8)
        assert res.bound == \
            (n / 0.8) * reference_hypothesis_norm(f, frac.eval, Q)
        res = check_inequality("exp-JN", f, Q=Q, p=1.0, a_functional=inc)
        assert res.bound == reference_hypothesis_norm(f, inc.eval, Q)


@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1), st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_hypothesis_norm_equals_per_cube_walk_hypothesis(n, seed, sigma):
    rng = np.random.default_rng(seed)
    depth = {1: 6, 2: 3, 3: 2}[n]
    shape = (1 << depth,) * n
    root = RootBox.unit(n)
    f = GridFunction(root, depth, rng.lognormal(0.0, sigma, shape))
    a = FractionalFunctional(rng.uniform(0.2, 2.0), rng.uniform(1.0, 3.0),
                             rng.lognormal(0.0, sigma, shape),
                             rng.lognormal(0.0, sigma, shape), root, depth)
    coords = tuple(int(c) for c in rng.integers(0, 2, n))
    for Q in (CubeIndex.root(n), CubeIndex(1, coords)):
        assert _functional_hypothesis_norm(f, a, Q) == \
            reference_hypothesis_norm(f, a.eval, Q)


def test_hypothesis_norm_reads_level_arrays_not_eval_per_cube():
    rng = np.random.default_rng(66)
    depth = 6
    f = GridFunction(UNIT1, depth, rng.lognormal(0.0, 1.0, 64))
    mu, um = rng.uniform(0.1, 1.0, 64), rng.uniform(0.1, 1.0, 64)
    grad = GridFunction(UNIT1, depth, rng.uniform(0.1, 1.0, 64))
    for a in (counting(FractionalFunctional)(0.8, 1.5, mu, um, UNIT1, depth),
              counting(GradientFunctional)(1, 1.5, grad, um, mu)):
        # 127 cubes below the root, none evaluated one by one
        _functional_hypothesis_norm(f, a, CubeIndex.root(1))
        assert a.calls == 0


def test_catalog_passes_on_mild_weight():
    f = smooth_field_2d(np.random.default_rng(2), 5)
    mids = f.cell_midpoints()
    wv = 1.0 + 0.8 * np.cos(3.0 * (mids[0] + mids[1])) ** 2
    wm = wv * f.cell_volume
    for iid in ("a1-linear", "sobolev-A", "sobolev-B", "lorentz",
                "kz-downward"):
        kwargs = {"p": 1.5, "q": 1.5}
        if iid == "kz-downward":
            kwargs = {"p": 1.5, "p0": 3.0}
        res = check_inequality(iid, f, u=wm, **kwargs)
        assert res.passed is True, iid
        assert np.isfinite(res.measured_constant)


def test_catalog_reported_ids_emit_constants():
    f = smooth_field_2d(np.random.default_rng(3), 5)
    for iid, kwargs in (("mixed", {"p": 1.5}),
                        ("pointwise-i1", {}),
                        ("i1-vs-m", {}),
                        ("weak-1n'", {})):
        res = check_inequality(iid, f, **kwargs)
        assert res.lhs >= 0 and res.rhs >= 0
        assert res.status == "reported"


def test_catalog_higher_order():
    f = sample(UNIT1, 6, lambda x: np.sin(3 * x))
    res = check_inequality("higher-order", f, p=1.0, m=2)
    assert res.rhs > 0 and np.isfinite(res.measured_constant)


def test_catalog_unknown_id():
    f = sample(UNIT1, 4, lambda x: x)
    with pytest.raises(InequalityError):
        check_inequality("no-such-inequality", f)


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

@RAISE_WARNINGS
def test_plateau_function_shape():
    f = plateau_function(RootBox.symmetric(2), 5, 0.1)
    assert f.values.max() == 1.0 and f.values.min() == 0.0
    assert np.all((0.0 <= f.values) & (f.values <= 1.0))


@RAISE_WARNINGS
def test_sharpness_point_monotone_weight_constant():
    a1s = [sharpness_point(1.0, 2, 0.05, d, 5)[2]
           for d in (0.5, 0.25, 0.125)]
    assert a1s[0] < a1s[1] < a1s[2]


@RAISE_WARNINGS
def test_sharpness_sweep_validation():
    with pytest.raises(InequalityError):
        sharpness_sweep(1.0, 2, 0.6, [0.5], 4)
    with pytest.raises(InequalityError):
        sharpness_sweep(2.0, 2, 0.05, [0.5], 4)
    with pytest.raises(InequalityError):
        sharpness_sweep(1.0, 2, 0.05, [1.5], 4)


@RAISE_WARNINGS
def test_sharpness_sweep_structure():
    sweep = sharpness_sweep(1.0, 2, 0.1, [0.5, 0.25], 5)
    d = sweep.to_dict()
    assert len(d["lhs"]) == len(d["deltas"]) == 2
    assert len(sweep.ratios()) == 2
    assert len(sweep.normalized_constants(1.0)) == 2
    assert np.isfinite(sweep.beta_hat)


@RAISE_WARNINGS
def test_sharpness_scaling_exponents_match_plateau_calculus():
    # shrinking the plateau: the numerator scales like eps^(delta/p*) and
    # the gradient side like eps^(delta/p - 1)
    lhs_exp, rhs_exp = sharpness_scaling_exponents(1.0, 2, 0.5,
                                                   [0.1, 0.05, 0.025], 8)
    assert lhs_exp == pytest.approx(0.25, rel=0.05)
    assert rhs_exp == pytest.approx(-0.5, rel=0.05)


# ---------------------------------------------------------------------------
# weak implies strong
# ---------------------------------------------------------------------------

def test_weak_implies_strong_zero_function():
    g = GridFunction(UNIT1, 4, np.zeros(16))
    rep = weak_implies_strong_demo(g, None, None, 2.0)
    assert rep["chain_constant"] == 0.0
    assert rep["strong"] == 0.0


def test_weak_implies_strong_invariants():
    rng = np.random.default_rng(4)
    g = GridFunction(UNIT1, 6, rng.uniform(0.0, 4.0, 64))
    rep = weak_implies_strong_demo(g, None, None, 2.0)
    assert rep["levels"]
    # the level pieces are disjoint, so telescoping cannot exceed the total
    assert rep["telescoped_gradient"] <= rep["gradient_total"] + 1e-12
    assert rep["max_weak_constant"] > 0
    assert np.isfinite(rep["chain_constant"])


def test_weak_implies_strong_rejects_signed_input():
    g = GridFunction(UNIT1, 3, np.array([1.0, -1, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(InequalityError):
        weak_implies_strong_demo(g, None, None, 2.0)


# ---------------------------------------------------------------------------
# reference formulas: each side written out in full, compared with ==
# ---------------------------------------------------------------------------

def reference_sides(f, Q=None, u=None, v=None, lhs_exponent=1.0, p=1.0, m=1,
                    center="mean", rhs_kind="gradient", normalized=True):
    """Both sides of an oscillation inequality in one block: the masses
    of u and v, the center, the oscillation (normalized or not) and the
    gradient, Lorentz or mixed right side."""
    Q = Q or CubeIndex.root(f.n)
    sl = f.block(Q)
    umass = measure_cell_masses(u, f)[sl]
    vmass = umass if v is None else measure_cell_masses(v, f)[sl]
    block = f.values[sl]
    utot = umass.sum()
    gblock = discrete_gradient(f, m).values[sl]
    ell = f.sidelength(Q)
    if center == "projection":
        c = project(f, orthonormal_basis(f, Q, m)).values[sl]
    elif center == "weighted_mean":
        c = float((block * umass).sum() / utot)
    else:
        c = float(block.mean())
    osc = (np.abs(block - c) ** lhs_exponent * umass).sum()
    lhs = (osc / utot) ** (1.0 / lhs_exponent) if normalized \
        else osc ** (1.0 / lhs_exponent)
    if rhs_kind == "gradient":
        rhs = ell ** m * (((gblock ** p * vmass).sum() / utot) ** (1.0 / p))
    elif rhs_kind == "lorentz":
        rhs = ell * lorentz_p1_norm_values(gblock.ravel(),
                                           (umass / utot).ravel(), p)
    else:
        uvals = umass / f.cell_volume
        nprime = math.inf if f.n == 1 else f.n / (f.n - 1.0)
        mix = np.ones_like(uvals) if nprime == math.inf \
            else centered_maximal_values(uvals) ** (p / nprime)
        rhs = (gblock ** p * mix / uvals ** (p - 1.0)
               * f.cell_volume).sum() ** (1.0 / p)
    return float(lhs), float(rhs)


def reference_check(iid, f, u, v, mu, p, q, m, p0, alpha, a_functional):
    """(lhs, rhs, bound) of one catalog id, from ``reference_sides`` and
    the bound formulas."""
    Q, n, root, depth = CubeIndex.root(f.n), f.n, f.root, f.depth
    umass = measure_cell_masses(u, f)
    un = umass / f.cell_volume
    vn = un if v is None else measure_cell_masses(v, f) / f.cell_volume
    sl = f.block(Q)
    dev = np.abs(f.values[sl] - f.values[sl].mean())
    grad = discrete_gradient(f, 1)
    pstar = sobolev_exponent("classical", p, n) if p < n else None
    if iid in ("pp-two-weight", "higher-order"):
        higher = iid == "higher-order"
        lhs, rhs = reference_sides(f, u=u, v=v, lhs_exponent=p, p=p,
                                   m=m if higher else 1,
                                   center="projection" if higher else "mean")
        bound = (two_weight_ap(un, vn, p, root, depth) ** (1.0 / p)
                 if p > 1 else ap_constant(un, 1.0, root, depth))
    elif iid == "pp-measure":
        a = FractionalFunctional(alpha, p, measure_cell_masses(mu, f), umass,
                                 root, depth)
        lhs = reference_sides(f, u=u, lhs_exponent=p, p=p)[0]
        rhs = a.eval(Q)
        bound = (n / alpha) * _functional_hypothesis_norm(f, a, Q)
    elif iid in ("sobolev-A", "sobolev-B"):
        apq = ap_constant(un, q, root, depth)
        app = ap_constant(un, p, root, depth)
        kind = iid[-1]
        lhs, rhs = reference_sides(
            f, u=u, lhs_exponent=sobolev_exponent(kind, p, n, q=q, apq=apq),
            p=p)
        bound = app ** (1.0 / p) if kind == "A" \
            else apq ** (1.0 / (n * q)) * app ** (2.0 / p)
    elif iid == "a1-linear":
        lhs, rhs = reference_sides(f, u=u, lhs_exponent=pstar, p=p,
                                   center="weighted_mean")
        bound = ap_constant(un, 1.0, root, depth)
    elif iid == "mixed":
        lhs = reference_sides(f, u=u, lhs_exponent=pstar, p=p,
                              center="weighted_mean", normalized=False)[0]
        rhs = reference_sides(f, u=u, lhs_exponent=pstar, p=p,
                              rhs_kind="mixed")[1]
        bound = math.nan
    elif iid == "lorentz":
        lhs, rhs = reference_sides(f, u=u, lhs_exponent=p, p=p,
                                   rhs_kind="lorentz")
        bound = ap1_constant(un, p, root, depth) ** (1.0 / p)
    elif iid == "exp-JN":
        lhs = orlicz_exp_norm_values(dev.ravel(),
                                     np.full(dev.size, 1.0 / dev.size))
        rhs = a_functional.eval(Q)
        bound = max(_functional_hypothesis_norm(f, a_functional, Q), 1e-300)
    elif iid == "kz-downward":
        lhs, rhs = reference_sides(f, u=u, lhs_exponent=p, p=p)
        bound = ap_constant(un, p, root, depth) ** ((p0 - 1.0) / (p - 1.0))
    elif iid in ("pointwise-i1", "i1-vs-m"):
        i1 = fractional_integral(grad, 1.0, Q).values[sl]
        if iid == "pointwise-i1":
            num, denom = dev, i1
        else:
            num = i1
            denom = f.sidelength(Q) * centered_maximal_values(grad.values)[sl]
        mask = denom > 0
        lhs, rhs, bound = float(np.max(num[mask] / denom[mask])), 1.0, math.nan
    else:   # weak-1n'
        mu_mass = measure_cell_masses(mu, f)
        nprime = n / (n - 1.0)
        lhs = weak_norm_values(dev.ravel(), mu_mass[sl].ravel(), nprime)
        Mmu = centered_maximal_measure(mu_mass, f.cell_volume)[sl]
        rhs = float((grad.values[sl] * Mmu ** (1.0 / nprime)).sum()
                    * f.cell_volume)
        bound = math.nan
    return lhs, rhs, bound


CATALOG = ("pp-two-weight", "higher-order", "pp-measure", "sobolev-A",
           "sobolev-B", "a1-linear", "mixed", "lorentz", "exp-JN",
           "kz-downward", "pointwise-i1", "i1-vs-m", "weak-1n'")
CATALOG_PARAMS = {"pp-two-weight": (2.0, 1), "higher-order": (2.0, 2),
                  "kz-downward": (2.0, 1), "lorentz": (1.5, 1)}


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


NEEDS_N2 = ("sobolev-A", "sobolev-B", "a1-linear", "mixed", "pointwise-i1",
            "i1-vs-m", "weak-1n'")


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("iid,n,depth,side", [
    (iid, n, depth, side) for iid in CATALOG
    for n, depth, side in ((1, 6, 1.0), (1, 5, 0.3), (2, 4, 2.0), (2, 3, 0.3))
    if n == 2 or iid not in NEEDS_N2])
def test_catalog_equals_reference_sides(iid, n, depth, side, weighted):
    rng = np.random.default_rng([CATALOG.index(iid), n, depth, weighted])
    root = RootBox((-0.1,) * n, side)
    shape = (1 << depth,) * n
    f = GridFunction(root, depth, rng.normal(size=shape))
    vol = f.cell_volume
    u, v = ((rng.lognormal(0.0, 0.7, shape) * vol,
             rng.lognormal(0.0, 0.7, shape) * vol) if weighted
            else (None, None))
    mu = rng.uniform(0.1, 1.0, shape) * vol
    p, m = CATALOG_PARAMS.get(iid, (1.5 if n == 2 else 1.0, 1))
    cs = CubeSums(rng.uniform(0.1, 1.0, shape), depth)
    inc = IncreasingFunctional({c: cs.mass(c) for c in all_cubes(n, depth)},
                               root, depth)
    kw = dict(u=u, v=v, mu=mu, p=p, q=1.5, m=m, p0=3.0, alpha=0.8,
              a_functional=inc)
    res = check_inequality(iid, f, **kw)
    ref = reference_check(iid, f, **kw)
    assert _same(res.lhs, ref[0])
    assert _same(res.rhs, ref[1])
    assert _same(res.bound, ref[2])


def reference_sharpness_point(p, n, eps, delta, depth):
    root = RootBox.symmetric(n)
    w = PowerWeight(delta, n, root)
    f = plateau_function(root, depth, eps)
    masses = w.cell_masses(root, depth)
    tot = masses.sum()
    pstar = sobolev_exponent("classical", p, n)
    lhs = float(((f.values ** pstar * masses).sum() / tot) ** (1.0 / pstar))
    grad = discrete_gradient(f, 1)
    rhs0 = root.side * float(((grad.values ** p * masses).sum() / tot)
                             ** (1.0 / p))
    return lhs, rhs0, ap_constant(w.cell_values(root, depth), 1.0, root, depth)


@RAISE_WARNINGS
@pytest.mark.parametrize("p,n,depth", [(1.0, 2, 6), (1.5, 2, 5), (1.0, 3, 4),
                                       (2.0, 3, 3)])
@pytest.mark.parametrize("delta", [0.5, 0.125])
def test_sharpness_point_equals_reference(p, n, depth, delta):
    assert sharpness_point(p, n, 0.05, delta, depth) == \
        reference_sharpness_point(p, n, 0.05, delta, depth)


def reference_sharpness_sweep(p, n, eps, deltas, depth):
    """``sharpness_sweep(...).to_dict()`` from one full point per delta."""
    deltas = sorted(deltas, reverse=True)
    points = [reference_sharpness_point(p, n, eps, d, depth) for d in deltas]
    lhs, rhs0, a1 = ([pt[i] for pt in points] for i in range(3))
    coef, res = np.polyfit(np.log(a1), np.log(np.array(lhs) / np.array(rhs0)),
                           1, full=True)[:2]
    return {"p": p, "n": n, "epsilon": eps, "deltas": deltas, "lhs": lhs,
            "rhs0": rhs0, "a1": a1, "beta_hat": float(coef[0]),
            "fit_residual": float(res[0]) if len(res) else 0.0}


@RAISE_WARNINGS
@pytest.mark.parametrize("p,n,depth", [(1.0, 2, 6), (1.5, 2, 5), (1.0, 3, 4),
                                       (1.5, 3, 4), (2.0, 3, 4)])
@pytest.mark.parametrize("deltas", [[0.5, 0.25, 0.125], [0.125, 0.5, 0.5],
                                    [0.9, 0.05]])
def test_sharpness_sweep_equals_reference_points(p, n, depth, deltas):
    assert sharpness_sweep(p, n, 0.05, deltas, depth).to_dict() == \
        reference_sharpness_sweep(p, n, 0.05, deltas, depth)


def reference_scaling_exponents(p, n, delta, epsilons, depth):
    """The eps exponents from one full sharpness point per eps."""
    ls, rs = [], []
    for eps in sorted(epsilons):
        lhs, rhs0, _ = reference_sharpness_point(p, n, eps, delta, depth)
        ls.append(lhs)
        rs.append(rhs0)
    xs = np.log(sorted(epsilons))
    return (float(np.polyfit(xs, np.log(ls), 1)[0]),
            float(np.polyfit(xs, np.log(rs), 1)[0]))


@RAISE_WARNINGS
@pytest.mark.parametrize("p,n,depth", [(1.0, 2, 6), (1.5, 3, 5)])
def test_scaling_exponents_equal_reference_points(p, n, depth):
    for delta, epsilons in ((0.5, [0.1, 0.05, 0.025]), (0.125, [0.2, 0.1])):
        assert sharpness_scaling_exponents(p, n, delta, epsilons, depth) == \
            reference_scaling_exponents(p, n, delta, epsilons, depth)


@RAISE_WARNINGS
def test_sharpness_fit_needs_two_distinct_values():
    # through one point a fitted slope is meaningless
    for deltas in ([0.5], [0.5, 0.5]):
        sweep = sharpness_sweep(1.0, 2, 0.1, deltas, 5)
        assert len(sweep.lhs) == len(deltas)
        assert np.all(np.isfinite(sweep.lhs + sweep.rhs0 + sweep.a1))
        assert math.isnan(sweep.beta_hat) and math.isnan(sweep.fit_residual)
    for epsilons in ([0.1], [0.1, 0.1]):
        assert all(math.isnan(x) for x in
                   sharpness_scaling_exponents(1.0, 2, 0.5, epsilons, 5))
    with pytest.raises(InequalityError):
        sharpness_sweep(1.0, 2, 0.1, [], 5)
    with pytest.raises(InequalityError):
        sharpness_scaling_exponents(1.0, 2, 0.5, [], 5)
