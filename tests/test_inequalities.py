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
from poincarelab.grid import CubeIndex, GridFunction, RootBox, all_cubes, sample
from poincarelab.inequalities import (Exponents, InequalityError,
                                      _functional_hypothesis_norm,
                                      check_inequality, plateau_function,
                                      poincare_sides, sharpness_point,
                                      sharpness_scaling_exponents,
                                      sharpness_sweep, sobolev_exponent,
                                      weak_implies_strong_demo)
from tests.conftest import counting, smooth_field_2d

UNIT1 = RootBox.unit(1)


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
        assert res.status in ("verified", "reported")


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

def test_plateau_function_shape():
    f = plateau_function(RootBox.symmetric(2), 5, 0.1)
    assert f.values.max() == 1.0 and f.values.min() == 0.0
    assert np.all((0.0 <= f.values) & (f.values <= 1.0))


def test_sharpness_point_monotone_weight_constant():
    a1s = [sharpness_point(1.0, 2, 0.05, d, 5)[2]
           for d in (0.5, 0.25, 0.125)]
    assert a1s[0] < a1s[1] < a1s[2]


def test_sharpness_sweep_validation():
    with pytest.raises(InequalityError):
        sharpness_sweep(1.0, 2, 0.6, [0.5], 4)
    with pytest.raises(InequalityError):
        sharpness_sweep(2.0, 2, 0.05, [0.5], 4)
    with pytest.raises(InequalityError):
        sharpness_sweep(1.0, 2, 0.05, [1.5], 4)


def test_sharpness_sweep_structure():
    sweep = sharpness_sweep(1.0, 2, 0.1, [0.5, 0.25], 5)
    d = sweep.to_dict()
    assert len(d["lhs"]) == len(d["deltas"]) == 2
    assert len(sweep.ratios()) == 2
    assert len(sweep.normalized_constants(1.0)) == 2
    assert np.isfinite(sweep.beta_hat)


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
