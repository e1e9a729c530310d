"""Exponent formulas, the inequality catalog, and the sharpness sweep."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab.functionals import FractionalFunctional, FunctionalError
from poincarelab.decomposition import orthonormal_basis, project
from poincarelab.grid import (CubeIndex, GridError, GridFunction, RootBox,
                              discrete_gradient, lebesgue_masses,
                              measure_cell_masses, sample)
from poincarelab.inequalities import (InequalityError,
                                      _functional_hypothesis_norm,
                                      check_inequality, plateau_function,
                                      poincare_sides, sharpness_sweep,
                                      sobolev_exponent)
from poincarelab.operators import (centered_maximal_measure,
                                   centered_maximal_values,
                                   fractional_integral,
                                   orlicz_exp_norm_values, weak_norm_values)
from poincarelab.weights import (PowerWeight, ap1_constant, ap_constant,
                                 two_weight_ap)
from tests.conftest import assert_same_bits, counting, smooth_field_2d
from tests.oracles import (all_cubes, reference_gradient_side,
                           reference_lorentz_side, restrict)

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


def flat_in_places(rng, n, depth, side):
    """A seeded f on a depth-``depth`` grid of side ``side`` that is
    constant on a corner block a quarter of the grid and two cells wide
    along each axis, and on a random third of its other cells, so that its
    first and second gradients have zero cells."""
    shape = (1 << depth,) * n
    f = rng.normal(size=shape)
    f[rng.uniform(size=shape) < 0.3] = 0.5
    f[(slice(0, shape[0] // 4 + 2),) * n] = 0.5
    return GridFunction(RootBox((-0.2,) * n, side), depth, f)


def gradient_side_case(rng, n, m, p, with_v):
    depth = {1: 5, 2: 3, 3: 3}[n]
    f = flat_in_places(rng, n, depth, rng.uniform(0.1, 3.0))
    u = rng.lognormal(0.0, 0.7, f.values.shape) * f.cell_volume
    v = rng.lognormal(0.0, 0.7, f.values.shape) * f.cell_volume \
        if with_v else None
    assert not discrete_gradient(f, m).values.all()
    return f, u, v


@pytest.mark.parametrize("with_v", [False, True], ids=["v=u", "v"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_side_equals_reference(n, m, with_v):
    for seed in range(8):
        p = (1.0, 1.5, 2.0, 3.7)[seed % 4]
        f, u, v = gradient_side_case(np.random.default_rng([n, m, seed]), n,
                                     m, p, with_v)
        rhs = poincare_sides(f, u=u, v=v, p=p, m=m)[1]
        assert rhs == reference_gradient_side(f, u, v, p, m)
        ref = reference_gradient_side(f, lebesgue_masses(f.root, f.depth),
                                      None, p, m)
        assert poincare_sides(f, p=p, m=m)[1] == ref


@given(st.integers(1, 3), st.integers(1, 2), st.booleans(),
       st.sampled_from([1.0, 1.5, 2.0, 3.7]), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_gradient_side_equals_reference_hypothesis(n, m, with_v, p, seed):
    f, u, v = gradient_side_case(np.random.default_rng(seed), n, m, p, with_v)
    assert poincare_sides(f, u=u, v=v, p=p, m=m)[1] == \
        reference_gradient_side(f, u, v, p, m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lorentz_side_equals_reference(n):
    for seed in range(8):
        p = (1.5, 2.0, 3.7)[seed % 3]
        f, u, _ = gradient_side_case(np.random.default_rng([n, seed]), n, 1,
                                     p, False)
        assert check_inequality("lorentz", f, u=u, p=p).rhs == \
            reference_lorentz_side(f, u, p)


@given(st.integers(1, 3), st.sampled_from([1.5, 2.0, 3.7]),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_lorentz_side_equals_reference_hypothesis(n, p, seed):
    f, u, _ = gradient_side_case(np.random.default_rng(seed), n, 1, p, False)
    assert check_inequality("lorentz", f, u=u, p=p).rhs == \
        reference_lorentz_side(f, u, p)


def test_lorentz_side_constant_gradient():
    # constant gradient 3: the L^{p,1} norm of 3 on a probability space is
    # 3, times l(Q); a half of the grid, made the input grid, has l = 1/2
    f = sample(UNIT1, 3, lambda x: 3.0 * x)
    assert check_inequality("lorentz", f, p=2.0).rhs == pytest.approx(3.0)
    half = restrict(f, CubeIndex(1, (0,)))
    assert check_inequality("lorentz", half, p=2.0).rhs == \
        pytest.approx(1.5)


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


def reference_two_weight_a1(uv, vv, root, depth):
    """sup over dyadic Q of avg_Q u * max_Q 1/v, one cube slice at a time."""
    g = GridFunction(root, depth, uv)
    return max(float(uv[g.block(q)].mean() * (1.0 / vv[g.block(q)]).max())
               for q in all_cubes(uv.ndim, depth))


@pytest.mark.parametrize("n,depth", [(1, 6), (2, 4), (3, 2)])
def test_two_weight_bound_at_p1_reads_v(n, depth):
    rng = np.random.default_rng([13, n])
    root = RootBox.unit(n)
    shape = (1 << depth,) * n
    f = GridFunction(root, depth, rng.normal(size=shape))
    uv, vv = rng.lognormal(0.0, 0.7, shape), rng.lognormal(0.0, 0.7, shape)
    vol = f.cell_volume
    res = check_inequality("pp-two-weight", f, u=uv * vol, v=vv * vol, p=1.0)
    ref = reference_two_weight_a1(uv, vv, root, depth)
    assert res.bound == pytest.approx(ref, rel=1e-12)
    assert two_weight_ap(uv, vv, 1.0, root, depth) == \
        pytest.approx(ref, rel=1e-12)
    # with v = u it is A_1, bit for bit
    assert two_weight_ap(uv, uv, 1.0, root, depth) == \
        ap_constant(uv, 1.0, root, depth)


def test_two_weight_bound_example_u_one_v_quarter():
    root = RootBox.unit(2)
    f = sample(root, 4, lambda x, y: x * y)
    u = np.full((16, 16), f.cell_volume)
    bounds = [check_inequality("pp-two-weight", f, u=u, v=u / 4, p=p).bound
              for p in (1.0, 2.0)]
    assert bounds == [4.0, 2.0]


def test_check_exp_jn_two_valued():
    vals = np.ones(32)
    vals[:16] = -1.0
    f = GridFunction(UNIT1, 5, vals)
    m = np.full(32, 1 / 32)
    a = FractionalFunctional(1.0, 1.0, m, m, UNIT1, 5)    # a(Q) = l(Q)
    res = check_inequality("exp-JN", f, p=1.0, a_functional=a)
    # |f - mean| = 1, and the exponential norm of the constant 1 is 1/ln 2
    assert res.lhs == pytest.approx(1.0 / math.log(2), rel=1e-9)
    assert np.isfinite(res.measured_constant)


def reference_hypothesis_norm(f, a_eval):
    """max over the dyadic cubes P of f's grid of avg_P |f - f_P| / a(P),
    cube by cube."""
    best = 0.0
    for P in all_cubes(f.n, f.depth):
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
    # each cube made the input grid, with its part of the masses
    for Q in (CubeIndex.root(n), CubeIndex(1, (1,) * n),
              CubeIndex(2, (1,) * n)):
        g, sl = restrict(f, Q), f.block(Q)
        inc = FractionalFunctional(0.5, 1.0, mu[sl], mu[sl], g.root,
                                   g.depth)                    # l(P)^0.5
        frac = FractionalFunctional(0.8, 1.5, mu[sl], um[sl], g.root, g.depth)
        for a in (frac, inc):
            assert _functional_hypothesis_norm(g, a) == \
                reference_hypothesis_norm(g, a.eval)
        res = check_inequality("pp-measure", g, u=um[sl], mu=mu[sl], p=1.5,
                               alpha=0.8)
        assert res.bound == \
            (n / 0.8) * reference_hypothesis_norm(g, frac.eval)
        res = check_inequality("exp-JN", g, p=1.0, a_functional=inc)
        assert res.bound == reference_hypothesis_norm(g, inc.eval)


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
    assert _functional_hypothesis_norm(f, a) == \
        reference_hypothesis_norm(f, a.eval)


def test_hypothesis_norm_reads_level_arrays_not_eval_per_cube():
    rng = np.random.default_rng(66)
    depth = 6
    f = GridFunction(UNIT1, depth, rng.lognormal(0.0, 1.0, 64))
    mu, um = rng.uniform(0.1, 1.0, 64), rng.uniform(0.1, 1.0, 64)
    gmu = rng.uniform(0.1, 1.0, 64) ** 1.5 * mu
    for a in (counting(FractionalFunctional)(0.8, 1.5, mu, um, UNIT1, depth),
              counting(FractionalFunctional)(1, 1.5, gmu, um, UNIT1, depth)):
        # 127 cubes below the root, none evaluated one by one
        _functional_hypothesis_norm(f, a)
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
        assert res.passed is None


def test_catalog_higher_order():
    f = sample(UNIT1, 6, lambda x: np.sin(3 * x))
    res = check_inequality("higher-order", f, p=1.0, m=2)
    assert res.rhs > 0 and np.isfinite(res.measured_constant)


def test_catalog_unknown_id():
    f = sample(UNIT1, 4, lambda x: x)
    with pytest.raises(InequalityError):
        check_inequality("no-such-inequality", f)


@pytest.mark.parametrize("iid", ["pp-two-weight", "lorentz"])
def test_gradient_sides_refuse_a_zero_outer_cell(iid):
    f = smooth_field_2d(np.random.default_rng(4), 4)
    u = np.full(f.values.shape, f.cell_volume)
    u[0, 0] = 0.0
    # the grid's weight rule refuses it, in the functional's w or in
    # A_{p,1}'s cell values
    with pytest.raises(GridError, match="weight cell values must be "
                                        "positive"):
        check_inequality(iid, f, u=u, p=1.5)


@RAISE_WARNINGS
@pytest.mark.parametrize("iid", ["pp-two-weight", "higher-order", "lorentz",
                                 "kz-downward"])
@pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
def test_gradient_sides_refuse_p_below_one(iid, p):
    # refused before |grad f|^p is taken: a negative power of a zero
    # gradient cell would warn on the way
    f = flat_in_places(np.random.default_rng(6), 2, 3, 1.0)
    with pytest.raises(FunctionalError, match="p >= 1"):
        check_inequality(iid, f, p=p, m=2, p0=3.0)


@RAISE_WARNINGS
@pytest.mark.parametrize("n", [1, 2])
def test_hypothesis_norm_refuses_a_zero_a_of_P(n):
    # pp-measure and exp-JN divide by a(P) on every cube P, so a mu cell
    # of 0 is refused there
    rng = np.random.default_rng(7 + n)
    f = GridFunction(RootBox.unit(n), 6 // n,
                     rng.normal(size=(1 << (6 // n),) * n))
    mu = rng.uniform(0.1, 1.0, f.values.shape)
    mu.flat[5] = 0.0
    a = FractionalFunctional(0.5, 1.0, mu, np.ones_like(mu), f.root, f.depth)
    with pytest.raises(FunctionalError, match=r"a\(P\) is 0"):
        _functional_hypothesis_norm(f, a)
    with pytest.raises(FunctionalError, match=r"a\(P\) is 0"):
        check_inequality("exp-JN", f, p=1.0, a_functional=a)
    with pytest.raises(FunctionalError, match=r"a\(P\) is 0"):
        check_inequality("pp-measure", f, mu=mu * f.cell_volume, p=1.5)


def test_mixed_refuses_a_zero_outer_mass():
    f = smooth_field_2d(np.random.default_rng(5), 4)
    u = np.full(f.values.shape, f.cell_volume)
    u[:8, :8] = 0.0
    # each quadrant made the input grid, with its part of u
    Q = CubeIndex(1, (0, 0))
    with pytest.raises(InequalityError, match="degenerate"):
        check_inequality("mixed", restrict(f, Q), u=u[f.block(Q)], p=1.5)
    # only the grid's mass counts: the zero quadrant is no bar to another
    Q = CubeIndex(1, (1, 1))
    res = check_inequality("mixed", restrict(f, Q), u=u[f.block(Q)], p=1.5)
    assert np.isfinite(res.rhs)


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

@RAISE_WARNINGS
def test_plateau_function_shape():
    f = plateau_function(RootBox.symmetric(2), 5, 0.1)
    assert f.values.max() == 1.0 and f.values.min() == 0.0
    assert np.all((0.0 <= f.values) & (f.values <= 1.0))


def reference_plateau_function(root, depth, eps):
    """The plateau through ``sample``: the max-norm radius reduced over the
    dense midpoint meshgrids, the ramp a fresh array per step."""

    def fn(*coords):
        m = np.maximum.reduce([np.abs(c) for c in coords])
        return np.clip((2.0 * eps - m) / eps, 0.0, 1.0)

    return sample(root, depth, fn)


@pytest.mark.parametrize("n,depth", [(1, 0), (1, 3), (1, 10), (2, 1), (2, 5),
                                     (3, 4), (4, 3)])
def test_plateau_function_equals_sampled_reference(n, depth):
    rng = np.random.default_rng(10 * n + depth)
    roots = [RootBox.symmetric(n), RootBox.unit(n),
             RootBox(tuple(rng.uniform(-2.0, 0.5, n)), 2.5)]
    for root in roots:
        for eps in (0.01, 0.05, 0.3, 0.5, 1.0, 3.0):
            got = plateau_function(root, depth, eps)
            assert got.root == root and got.depth == depth
            assert_same_bits(got.values,
                             reference_plateau_function(root, depth,
                                                        eps).values)


@given(st.integers(1, 4), st.integers(0, 5),
       st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       st.floats(1e-3, 10.0), st.floats(1e-4, 4.0))
@settings(max_examples=60, deadline=None)
def test_plateau_function_equals_sampled_reference_hypothesis(n, depth, lower,
                                                              side, eps):
    root = RootBox(tuple(lower[:n]), side)
    assert_same_bits(plateau_function(root, depth, eps).values,
                     reference_plateau_function(root, depth, eps).values)


def test_plateau_function_peak_memory_is_the_grid():
    # 3D depth 6: the one returned array, the per-axis |midpoints| and their
    # (N, N, 1) partial maximum, then GridFunction's finiteness mask of one
    # byte per cell, plus numpy's fixed-size ufunc iteration buffers
    N = 64
    cells = N ** 3
    tracemalloc.start()
    try:
        plateau_function(RootBox.symmetric(3), 6, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * cells < peak <= 8 * cells + cells + 8 * N * N + 2 ** 16


def test_sharpness_sweep_peak_memory_is_below_five_grids():
    # 2D depth 8: the plateau's f^{p*} and |grad f|^p are held across the
    # sweep (building them peaks at four grids: f, grad and the two
    # powers); each point adds its masses, divided into the cell values in
    # place, and one grid-sized product or A_1's work at a time.  A copy of
    # the masses made it 5.6 grids
    grid = (1 << 8) ** 2 * 8
    sharpness_sweep(1.0, 2, 0.05, [0.5], 4)  # corner integrals cached
    tracemalloc.start()
    try:
        sharpness_sweep(1.0, 2, 0.05, [0.5, 0.25], 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 * grid < peak < 5 * grid


def test_plateau_function_refuses_a_grid_over_the_cap():
    with pytest.raises(GridError, match="exceeds cap"):
        plateau_function(RootBox.symmetric(3), 9, 0.3)


@RAISE_WARNINGS
def test_sharpness_point_monotone_weight_constant():
    a1s = sharpness_sweep(1.0, 2, 0.05, [0.5, 0.25, 0.125], 5).a1
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


# ---------------------------------------------------------------------------
# reference formulas: each side written out in full, compared with ==
# ---------------------------------------------------------------------------

def reference_sides(f, u=None, v=None, lhs_exponent=1.0, p=1.0, m=1,
                    center="mean", rhs_kind="gradient", normalized=True):
    """Both sides of an oscillation inequality on the root cube in one
    block: the masses of u and v, the center, the oscillation (normalized
    or not) and the gradient, Lorentz or mixed right side."""
    umass = measure_cell_masses(u, f.root, f.depth)
    vmass = umass if v is None else measure_cell_masses(v, f.root, f.depth)
    block = f.values
    utot = umass.sum()
    gblock = discrete_gradient(f, m).values
    if center == "projection":
        c = project(f, orthonormal_basis(f, m)).values
    elif center == "weighted_mean":
        c = float((block * umass).sum() / utot)
    else:
        c = float(block.mean())
    osc = (np.abs(block - c) ** lhs_exponent * umass).sum()
    lhs = (osc / utot) ** (1.0 / lhs_exponent) if normalized \
        else osc ** (1.0 / lhs_exponent)
    if rhs_kind == "gradient":
        rhs = reference_gradient_side(f, umass, vmass, p, m)
    elif rhs_kind == "lorentz":
        rhs = reference_lorentz_side(f, umass, p)
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
    umass = measure_cell_masses(u, root, depth)
    un = umass / f.cell_volume
    vn = un if v is None \
        else measure_cell_masses(v, root, depth) / f.cell_volume
    dev = np.abs(f.values - f.values.mean())
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
        mu_mass = measure_cell_masses(mu, root, depth)
        a = FractionalFunctional(alpha, p, mu_mass, umass, root, depth)
        lhs = reference_sides(f, u=u, lhs_exponent=p, p=p)[0]
        rhs = a.eval(Q)
        bound = (n / alpha) * _functional_hypothesis_norm(f, a)
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
        bound = max(_functional_hypothesis_norm(f, a_functional), 1e-300)
    elif iid == "kz-downward":
        lhs, rhs = reference_sides(f, u=u, lhs_exponent=p, p=p)
        bound = ap_constant(un, p, root, depth) ** ((p0 - 1.0) / (p - 1.0))
    elif iid in ("pointwise-i1", "i1-vs-m"):
        i1 = fractional_integral(grad, 1.0).values
        if iid == "pointwise-i1":
            num, denom = dev, i1
        else:
            num = i1
            denom = root.side * centered_maximal_values(grad.values)
        mask = denom > 0
        lhs, rhs, bound = float(np.max(num[mask] / denom[mask])), 1.0, math.nan
    else:   # weak-1n'
        mu_mass = measure_cell_masses(mu, root, depth)
        nprime = n / (n - 1.0)
        lhs = weak_norm_values(dev.ravel(), mu_mass.ravel(), nprime)
        Mmu = centered_maximal_measure(mu_mass, f.cell_volume)
        rhs = float((grad.values * Mmu ** (1.0 / nprime)).sum()
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
    masses = rng.uniform(0.1, 1.0, shape)
    inc = FractionalFunctional(0.5, 1.0, masses, masses, root, depth)
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
    eps = 0.05
    if depth == 3:
        # every depth-3 cell midpoint lies outside the eps = 0.05 plateau
        with pytest.raises(InequalityError, match="does not resolve"):
            sharpness_sweep(p, n, eps, [delta], depth)
        eps = 0.1
    sweep = sharpness_sweep(p, n, eps, [delta], depth)
    assert (sweep.lhs[0], sweep.rhs0[0], sweep.a1[0]) == \
        reference_sharpness_point(p, n, eps, delta, depth)


def reference_sharpness_sweep(p, n, eps, deltas, depth):
    """``sharpness_sweep(...).to_dict()`` from one full point per delta."""
    deltas = sorted(deltas, reverse=True)
    points = [reference_sharpness_point(p, n, eps, d, depth) for d in deltas]
    lhs, rhs0, a1 = ([pt[i] for pt in points] for i in range(3))
    coef, res = np.polyfit(np.log(a1), np.log(np.array(lhs) / np.array(rhs0)),
                           1, full=True)[:2]
    return {"deltas": deltas, "lhs": lhs, "rhs0": rhs0, "a1": a1,
            "beta_hat": float(coef[0]),
            "fit_residual": float(res[0]) if len(res) else 0.0}


@RAISE_WARNINGS
@pytest.mark.parametrize("p,n,depth", [(1.0, 2, 6), (1.5, 2, 5), (1.0, 3, 4),
                                       (1.5, 3, 4), (2.0, 3, 4)])
@pytest.mark.parametrize("deltas", [[0.5, 0.25, 0.125], [0.125, 0.5, 0.5],
                                    [0.9, 0.05]])
def test_sharpness_sweep_equals_reference_points(p, n, depth, deltas):
    assert sharpness_sweep(p, n, 0.05, deltas, depth).to_dict() == \
        reference_sharpness_sweep(p, n, 0.05, deltas, depth)


@RAISE_WARNINGS
def test_sharpness_fit_needs_two_distinct_values():
    # through one point a fitted slope is meaningless
    for deltas in ([0.5], [0.5, 0.5]):
        sweep = sharpness_sweep(1.0, 2, 0.1, deltas, 5)
        assert len(sweep.lhs) == len(deltas)
        assert np.all(np.isfinite(sweep.lhs + sweep.rhs0 + sweep.a1))
        assert math.isnan(sweep.beta_hat) and math.isnan(sweep.fit_residual)
    with pytest.raises(InequalityError):
        sharpness_sweep(1.0, 2, 0.1, [], 5)


@pytest.mark.parametrize("iid", ["pp-measure", "a1-linear", "lorentz"])
def test_catalog_refuses_masses_off_the_grid(iid):
    # a (16,) mass array on a 16x16 grid, as u and as mu
    f = GridFunction(RootBox.unit(2), 4, np.arange(256.0) % 7)
    m = np.full(16, 1.0 / 256)
    with pytest.raises(GridError, match=r"shape \(16, 16\), got \(16,\)"):
        check_inequality(iid, f, u=m, mu=m, p=1.5)
