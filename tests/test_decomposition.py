"""Stopping-time decomposition and polynomial projections."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab.decomposition import (DecompositionError, cz_decompose,
                                       orthonormal_basis, oscillation, project)
from poincarelab.grid import (CubeIndex, GridError, GridFunction, RootBox,
                              block_reduce, sample)
from tests.oracles import contains, relative_cube, restrict

UNIT1 = RootBox.unit(1)


def cell_averaged_square(depth):
    """x^2 on the unit interval represented by exact cell averages."""
    N = 2 ** depth
    edges = np.linspace(0.0, 1.0, N + 1)
    a, b = edges[:-1], edges[1:]
    vals = (b ** 3 - a ** 3) / (3.0 * (b - a))
    return GridFunction(UNIT1, depth, vals)


# ---------------------------------------------------------------------------
# stopping-time decomposition
# ---------------------------------------------------------------------------

def test_cz_constant_has_no_stopping_cubes():
    h = GridFunction(UNIT1, 3, np.ones(8))
    dec = cz_decompose(h, L=2.0)
    assert dec.stopping == []
    assert not dec.omega_mask.any()
    assert np.array_equal(dec.good.values, h.values)
    assert dec.bad == []


def test_cz_oracle_single_spike():
    h = GridFunction(UNIT1, 2, np.array([3.0, 1.0, 1.0, 1.0]))
    dec = cz_decompose(h, L=2.0)
    assert dec.stopping == [CubeIndex(2, (0,))]
    assert dec.omega_volume_fraction() == 0.25
    assert dec.reconstruction_error() == 0.0
    assert np.allclose(dec.good.values, [3.0, 1.0, 1.0, 1.0])


def test_cz_input_validation():
    h = GridFunction(UNIT1, 2, np.full(4, 5.0))
    with pytest.raises(DecompositionError):
        cz_decompose(h, L=2.0)          # root average exceeds L
    with pytest.raises(DecompositionError):
        cz_decompose(GridFunction(UNIT1, 2, np.ones(4)), L=1.0)
    with pytest.raises(DecompositionError):
        cz_decompose(GridFunction(UNIT1, 2, np.array([1.0, -1, 1, 1])),
                     L=2.0)


def test_cz_invariants_fuzz():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = 1 if trial % 2 == 0 else 2
        depth = int(rng.integers(3, 6)) if n == 1 else int(rng.integers(2, 5))
        vals = rng.exponential(1.0, (2 ** depth,) * n)
        vals = vals / vals.mean() * rng.uniform(0.3, 1.0)
        h = GridFunction(RootBox.unit(n), depth, vals)
        L = float(rng.uniform(1.2, 4.0))
        dec = cz_decompose(h, L=L)
        for q in dec.stopping:
            avg = h.average(q)
            assert L < avg <= 2 ** n * L
        # h has average below 1, so the exceptional set is small
        assert dec.omega_volume_fraction() < 1.0 / L + 1e-12
        assert dec.reconstruction_error() <= 1e-12
        assert np.max(np.abs(dec.good.values)) <= 2 ** n * L + 1e-12
        for q, b in dec.bad:
            assert abs(b.values[h.block(q)].mean()) <= 1e-12
            outside = np.ones_like(b.values, dtype=bool)
            outside[h.block(q)] = False
            assert np.all(b.values[outside] == 0.0)


def test_cz_stopping_cubes_nest_as_L_grows():
    rng = np.random.default_rng(1)
    vals = rng.exponential(1.0, 64)
    vals = vals / vals.mean() * 0.9
    h = GridFunction(UNIT1, 6, vals)
    lo = cz_decompose(h, L=1.5)
    hi = cz_decompose(h, L=3.0)
    for q in hi.stopping:
        assert any(contains(p, q) for p in lo.stopping)


def test_cz_on_subcube_only():
    # the spike lies outside Q; Q made the input grid never sees it
    h = GridFunction(UNIT1, 3, np.array([8.0, 0, 0, 0, 1, 1, 1, 1.0]))
    assert cz_decompose(h, L=2.0).stopping == [CubeIndex(2, (0,))]
    dec = cz_decompose(restrict(h, CubeIndex(1, (1,))), L=2.0)
    assert dec.stopping == []
    assert np.array_equal(dec.good.values, np.ones(4))


def reference_cz_decompose(h, Q=None, L=2.0):
    """Stack-based oracle: children pushed on a LIFO stack, one full-grid
    bad part per stopping cube, the reconstruction summed part by part.
    Returns (stopping, omega_mask, good, bad, reconstruction_error)."""
    Q = Q or CubeIndex.root(h.n)
    means = [block_reduce(h.values, k, np.mean) for k in range(h.depth + 1)]
    stopping = []
    stack = [Q]
    while stack:
        q = stack.pop()
        if q.level == h.depth:
            continue
        for ch in q.children():
            if means[ch.level][ch.coords] > L:
                stopping.append(ch)
            else:
                stack.append(ch)
    omega = np.zeros(h.values.shape, dtype=bool)
    good = h.values.copy()
    bad = []
    for q in stopping:
        sl = h.block(q)
        omega[sl] = True
        avg = means[q.level][q.coords]
        bvals = np.zeros_like(h.values)
        bvals[sl] = h.values[sl] - avg
        good[sl] = avg
        bad.append((q, bvals))
    outside = np.ones(h.values.shape, dtype=bool)
    outside[h.block(Q)] = False
    good[outside] = 0.0
    total = good.copy()
    for _, b in bad:
        total = total + b
    sl = h.block(Q)
    err = float(np.max(np.abs(total[sl] - h.values[sl])))
    return stopping, omega, good, bad, err


def random_cz_input(rng, n, depth, root_q, L):
    """Skewed nonnegative h and a cube Q (the root or a random proper
    subcube, above the cells where the depth allows) with the average of h
    over Q below L."""
    vals = rng.exponential(1.0, (2 ** depth,) * n) ** rng.uniform(0.5, 3.0)
    level = 0 if root_q else int(rng.integers(1, max(depth - 1, 1) + 1))
    Q = CubeIndex(level, tuple(rng.integers(0, 2 ** level, n)))
    h = GridFunction(RootBox.unit(n), depth, vals)
    scale = rng.uniform(0.3, 1.0) * L / h.average(Q)
    return h.copy_with(vals * scale), Q


def assert_matches_reference(h, Q, L):
    """Q made the input grid decomposes as the oracle splits h on Q, with
    cubes indexed relative to Q."""
    stopping, omega, good, bad, err = reference_cz_decompose(h, Q, L)
    sl = h.block(Q)
    stopping = [relative_cube(Q, q) for q in stopping]
    dec = cz_decompose(restrict(h, Q), L=L)
    assert set(dec.stopping) == set(stopping)
    assert dec.stopping == sorted(stopping, key=lambda q: (q.level, q.coords))
    assert np.array_equal(dec.omega_mask, omega[sl])
    assert np.array_equal(dec.good.values, good[sl])
    parts = dec.bad
    assert [q for q, _ in parts] == dec.stopping
    ref_parts = {relative_cube(Q, q): b[sl] for q, b in bad}
    for q, b in parts:
        assert np.array_equal(b.values, ref_parts[q])
    assert dec.reconstruction_error() == err


DEPTHS = {1: (1, 7), 2: (1, 5), 3: (1, 3)}


def test_cz_level_pass_equals_stack_reference_seeded():
    rng = np.random.default_rng(11)
    for trial in range(120):
        n = 1 + trial % 3
        depth = int(rng.integers(*DEPTHS[n], endpoint=True))
        L = float(rng.uniform(1.0001, 1.1) if trial % 4 == 0
                  else rng.uniform(1.05, 5.0))
        h, Q = random_cz_input(rng, n, depth, trial % 2 == 0, L)
        assert_matches_reference(h, Q, L)


@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1), st.booleans(),
       st.floats(1.0001, 5.0))
@settings(max_examples=60, deadline=None)
def test_cz_level_pass_equals_stack_reference_hypothesis(n, seed, root_q, L):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(*DEPTHS[n], endpoint=True))
    h, Q = random_cz_input(rng, n, depth, root_q, L)
    assert_matches_reference(h, Q, L)


def test_cz_stopping_listed_by_level_then_coords():
    h = GridFunction(UNIT1, 3, np.array([5, .1, .1, .1, .1, .1, 5, .1]))
    # the stack oracle pops the right half first
    assert reference_cz_decompose(h, L=2.0)[0] == [CubeIndex(2, (3,)),
                                                   CubeIndex(2, (0,))]
    dec = cz_decompose(h, L=2.0)
    assert dec.stopping == [CubeIndex(2, (0,)), CubeIndex(2, (3,))]
    assert [q for q, _ in dec.bad] == dec.stopping


def test_cz_peak_memory_is_a_small_multiple_of_the_grid():
    # 1,200 single-cell stopping cubes on a 2D depth-7 grid: one spike in
    # each of 1,200 distinct parent blocks, so no coarser cube stops
    rng = np.random.default_rng(0)
    N = 128
    vals = rng.uniform(0.5, 1.0, (N, N))
    for p in rng.choice((N // 2) ** 2, size=1200, replace=False):
        i, j = np.unravel_index(int(p), (N // 2, N // 2))
        vals[2 * i + rng.integers(0, 2), 2 * j + rng.integers(0, 2)] = 4.0
    h = GridFunction(RootBox.unit(2), 7, vals)
    tracemalloc.start()
    try:
        dec = cz_decompose(h, L=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.stopping) == 1200
    assert {q.level for q in dec.stopping} == {7}
    assert peak <= 10 * vals.nbytes


# ---------------------------------------------------------------------------
# polynomial projections
# ---------------------------------------------------------------------------

def test_projection_order_one_is_mean():
    rng = np.random.default_rng(2)
    f = GridFunction(UNIT1, 4, rng.normal(size=16))
    basis = orthonormal_basis(f, 1)
    pf = project(f, basis)
    assert np.allclose(pf.values, f.values.mean(), atol=1e-12)


def test_basis_orthonormal_up_to_order_four():
    for n, depth in ((1, 6), (2, 4)):
        f = GridFunction(RootBox.unit(n), depth,
                         np.zeros((2 ** depth,) * n))
        for m in (1, 2, 3, 4):
            basis = orthonormal_basis(f, m)
            flat = basis.phis.reshape(basis.phis.shape[0], -1)
            gram = flat @ flat.T / flat.shape[1]
            assert np.allclose(gram, np.eye(flat.shape[0]), atol=1e-9)
            assert np.allclose(basis.phis[0], 1.0)


def test_basis_rejects_too_coarse_grid():
    f = GridFunction(UNIT1, 1, np.zeros(2))
    with pytest.raises(DecompositionError):
        orthonormal_basis(f, 4)


def test_projection_reproduces_low_degree():
    for n, depth, m in ((1, 6, 2), (1, 6, 3), (2, 4, 2), (2, 4, 3)):
        root = RootBox.unit(n)
        if n == 1:
            f = sample(root, depth, lambda x: 1.0 + 2 * x
                       + (0.5 * x * x if m >= 3 else 0.0))
        else:
            f = sample(root, depth, lambda x, y: 1.0 + 2 * x - y
                       + (x * y if m >= 3 else 0.0))
        basis = orthonormal_basis(f, m)
        pf = project(f, basis)
        assert np.allclose(pf.values, f.values, atol=1e-9)


def test_projection_idempotent_linear_selfadjoint():
    rng = np.random.default_rng(3)
    f = GridFunction(UNIT1, 5, rng.normal(size=32))
    g = GridFunction(UNIT1, 5, rng.normal(size=32))
    basis = orthonormal_basis(f, 3)
    pf = project(f, basis)
    ppf = project(pf, basis)
    assert np.allclose(ppf.values, pf.values, atol=1e-9)
    pg = project(g, basis)
    assert np.isclose((pf.values * g.values).mean(),
                      (f.values * pg.values).mean(), atol=1e-12)
    fg = f.copy_with(2.0 * f.values + g.values)
    assert np.allclose(project(fg, basis).values,
                       2.0 * pf.values + pg.values, atol=1e-9)


def test_projection_of_cell_averaged_square_fixture():
    f = cell_averaged_square(6)
    basis = orthonormal_basis(f, 2)
    pf = project(f, basis)
    mids = f.cell_midpoints()[0]
    assert np.max(np.abs(pf.values - (mids - 1 / 6))) <= 1e-12


@pytest.mark.parametrize("n,depth,m", [(1, 6, 3), (2, 4, 2), (2, 4, 3)])
def test_projection_on_a_subcube_is_the_least_squares_fit(n, depth, m):
    # P_Q f for a sub-cube Q, made the input grid, against the least-squares
    # fit of polynomials of degree < m to f's cells in Q, in the
    # coordinates of the whole grid
    rng = np.random.default_rng(7 + n + m)
    f = GridFunction(RootBox.unit(n), depth,
                     rng.normal(size=(1 << depth,) * n))
    Q = CubeIndex(2, (1,) * n)
    g = restrict(f, Q)
    got = project(g, orthonormal_basis(g, m)).values
    mids = [x[f.block(Q)].ravel() for x in f.cell_midpoints()]
    A = np.stack([np.prod([x ** k for x, k in zip(mids, e)], axis=0)
                  for e in itertools.product(range(m), repeat=n)
                  if sum(e) < m], axis=1)
    coef = np.linalg.lstsq(A, g.values.ravel(), rcond=None)[0]
    assert np.allclose(got.ravel(), A @ coef, rtol=0.0, atol=1e-10)


def test_projection_sup_bound_margin_finite():
    # |P_Q f| <= sum_r |<f, phi_r>| |phi_r| <= N C^2 avg_Q |f|, N the basis
    # size and C the largest sup norm of a basis function
    rng = np.random.default_rng(4)
    f = GridFunction(UNIT1, 5, rng.normal(size=32))
    basis = orthonormal_basis(f, 3)
    N, C = basis.phis.shape[0], float(np.max(np.abs(basis.phis)))
    margin = float(np.max(np.abs(project(f, basis).values))) \
        / (N * C ** 2 * float(np.abs(f.values).mean()))
    assert 0.0 < margin <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# oscillation
# ---------------------------------------------------------------------------

def test_oscillation_of_identity_map():
    f = sample(UNIT1, 6, lambda x: x)
    assert oscillation(f) == pytest.approx(0.25, abs=1e-12)
    assert oscillation(f.copy_with(np.full(64, 3.0))) == 0.0


def median_oscillation(block):
    """inf over constants c of avg |f - c|, attained at the median."""
    return float(np.abs(block - np.median(block)).mean())


def test_median_minimizes_l1_oscillation():
    rng = np.random.default_rng(5)
    f = GridFunction(UNIT1, 5, rng.normal(size=32))
    best = median_oscillation(f.values)
    grid = np.linspace(f.values.min(), f.values.max(), 2001)
    scan = min(np.abs(f.values - c).mean() for c in grid)
    assert best <= scan + 1e-9
    # the mean-centered oscillation is at most twice the optimum
    assert oscillation(f) <= 2.0 * best + 1e-12


def test_median_minimizes_l1_oscillation_on_a_subcube():
    rng = np.random.default_rng(6)
    f = GridFunction(RootBox.unit(2), 4, rng.normal(size=(16, 16)))
    Q = CubeIndex(2, (1, 3))
    block = f.values[4:8, 12:16]
    best = median_oscillation(block)
    grid = np.linspace(block.min(), block.max(), 2001)
    assert best <= min(np.abs(block - c).mean() for c in grid) + 1e-9
    assert oscillation(restrict(f, Q)) <= 2.0 * best + 1e-12


def test_weighted_oscillation_center():
    f = GridFunction(UNIT1, 2, np.array([0.0, 0.0, 1.0, 1.0]))
    w = np.array([3.0, 3.0, 1.0, 1.0]) * 0.25
    # weighted mean = 1/4; avg |f - 1/4| under w/|w| = 2*(3/8)*(1/4)+...
    val = oscillation(f, w=w, weighted_center=True)
    assert val == pytest.approx(0.375, abs=1e-12)


def test_oscillation_refuses_masses_off_the_grid():
    # a (16,) mass array on a 16x16 grid would broadcast along one axis
    f = GridFunction(RootBox.unit(2), 4, np.arange(256.0) % 7)
    with pytest.raises(GridError, match=r"shape \(16, 16\), got \(16,\)"):
        oscillation(f, w=np.full(16, 1.0 / 256))
