"""Cube functionals and disjoint-family ratio conditions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import functionals
from poincarelab.functionals import (CubeSums, FractionalFunctional,
                                     FunctionalError, enumerate_antichains,
                                     sdp_check)
from poincarelab.grid import (CubeIndex, GridError, GridFunction, RootBox,
                              block_reduce, discrete_gradient)
from tests.conftest import counting
from tests.oracles import (contains, dp_ratio, full_partition, max_dp_ratio,
                           random_small_family, reference_draw_family,
                           reference_eval, reference_sdp_report,
                           reference_uniform_draws, relative_cube, restrict,
                           subcube_at)

UNIT1 = RootBox.unit(1)


def lebesgue_masses(n, depth):
    return np.full((2 ** depth,) * n, (1.0 / 2 ** depth) ** n)


def unweighted_functional(alpha, p, n, depth):
    m = lebesgue_masses(n, depth)
    return FractionalFunctional(alpha, p, m, m, RootBox.unit(n), depth)


def test_fractional_eval_unweighted_is_sidelength_power():
    a = unweighted_functional(0.5, 2.0, 1, 4)
    assert a.eval(CubeIndex.root(1)) == pytest.approx(1.0)
    assert a.eval(CubeIndex(2, (3,))) == pytest.approx(0.5)


def test_fractional_rejects_degenerate_masses():
    # the grid's rules: a w mass <= 0 and a negative mu mass are refused; a
    # mu cell of 0, as a gradient measure has where f is flat, is not
    m = lebesgue_masses(1, 3)
    zero, negative = m.copy(), m.copy()
    zero[0], negative[0] = 0.0, -1e-300
    for mu, w, words in ((m, zero, "weight cell values must be positive"),
                         (m, negative, "weight cell values must be positive"),
                         (negative, m, "cell masses must be nonnegative")):
        with pytest.raises(GridError, match=words):
            FractionalFunctional(1.0, 1.0, mu, w, UNIT1, 3)
    # None is not read as Lebesgue measure here
    with pytest.raises(FunctionalError, match="got None"):
        FractionalFunctional(1.0, 1.0, None, m, UNIT1, 3)
    a = FractionalFunctional(1.0, 1.0, zero, m, UNIT1, 3)
    assert a.eval(CubeIndex(3, (0,))) == 0.0
    assert a.eval(CubeIndex.root(1)) == pytest.approx(0.875)


def test_dp_ratio_oracles():
    depth = 4
    a = unweighted_functional(1.0, 1.0, 1, depth)
    w = CubeSums(lebesgue_masses(1, depth))
    root = CubeIndex.root(1)
    assert dp_ratio(a, w, 1.0, [], root) == 0.0
    # both children: 2 * (1/2 * 1/2) = 1/2
    assert dp_ratio(a, w, 1.0, root.children(), root) == pytest.approx(0.5)
    # a single level-2 cube: (1/4) * (1/4) = 1/16
    assert dp_ratio(a, w, 1.0, [CubeIndex(2, (0,))], root) == \
        pytest.approx(1 / 16)


def test_subcube_at_and_full_partition():
    q = CubeIndex(1, (1, 0))
    sub = subcube_at(q, 3, (2, 1))
    assert sub == CubeIndex(3, (6, 1))
    part = full_partition(q, 3)
    assert len(part) == 16
    assert all(contains(q, c) for c in part)


def test_increasing_functional_dp_below_one():
    # a(Q) = l(Q)^(1/p) (mu(Q)/|Q|)^(1/p) = mu(Q)^(1/p) is monotone; the
    # packing ratio never exceeds 1
    depth = 3
    rng = np.random.default_rng(0)
    masses = rng.uniform(0.1, 1.0, 8)
    for p in (1.0, 2.0):
        a = FractionalFunctional(1.0 / p, p, masses, np.full(8, 1 / 8),
                                 UNIT1, depth)
        rep = max_dp_ratio(a)
        assert rep.worst_ratio <= 1.0 + 1e-9


def test_cube_sums_sum_only_the_levels_read(monkeypatch):
    summed = []

    def counting_block_reduce(values, level, op):
        summed.append(level)
        return block_reduce(values, level, op)

    monkeypatch.setattr("poincarelab.functionals.block_reduce",
                        counting_block_reduce)
    masses = np.arange(64.0).reshape(8, 8)
    cs = CubeSums(masses)
    assert summed == []
    assert cs.mass(CubeIndex.root(2)) == masses.sum()
    assert cs.mass(CubeIndex.root(2)) == masses.sum()
    assert summed == [0]
    assert np.array_equal(cs.level(2), block_reduce(masses, 2, np.sum))
    assert cs.mass(CubeIndex(2, (3, 1))) == masses[6:8, 2:4].sum()
    assert summed == [0, 2]


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("n,depth,Ls", [(2, 5, [4.0, 16.0, 64.0]),
                                        (1, 10, [2.0, 4.0, 8.0])])
def test_sdp_check_sums_mu_and_w_once_per_level(monkeypatch, n, depth, Ls,
                                                mode):
    # a(P)^p w(P) reads the functional's own w sums: two block sums per
    # level, mu's and w's, where summing the w_masses argument again made
    # three
    rng = np.random.default_rng(60 + n)
    shape = (1 << depth,) * n
    mu, wm = rng.uniform(0.1, 1.0, shape), rng.uniform(0.1, 1.0, shape)
    a = FractionalFunctional(1.0, 1.0, mu, wm, RootBox.unit(n), depth)
    summed = []

    def counting_block_reduce(values, level, op):
        summed.append((level, "mu" if values is a.mu.masses else
                       "w" if values is a.w.masses else "other"))
        return block_reduce(values, level, op)

    monkeypatch.setattr("poincarelab.functionals.block_reduce",
                        counting_block_reduce)
    sdp_check(a, wm, 1.0, CubeIndex.root(n), depth, Ls, trials=20, mode=mode)
    assert sorted(summed) == sorted((level, which)
                                    for level in range(depth + 1)
                                    for which in ("mu", "w"))
    assert len(summed) == 2 * (depth + 1)     # 12 at 2D d5, 22 at 1D d10


def test_enumerate_antichains_refuses_beyond_its_cap(monkeypatch):
    # a(d) = a(d - 1)^2 + 1 antichains below a 1D cube d levels up
    monkeypatch.setattr(functionals, "ANTICHAIN_CAP", 100)
    assert len(enumerate_antichains(1, 2)) == 26
    with pytest.raises(FunctionalError, match="cap"):
        enumerate_antichains(1, 3)


def test_gradient_measure_functional_eval():
    # the gradient side: alpha = m = 1, mu = |grad|^2 u, w = u
    grad = np.array([0.0, 4.0, 0.0, 0.0])
    u = lebesgue_masses(1, 2)
    a = FractionalFunctional(1, 2.0, grad ** 2 * u, u, UNIT1, 2)
    # l(Q) * (avg of grad^2)^(1/2) = 1 * (16/4)^(1/2)
    assert a.eval(CubeIndex.root(1)) == pytest.approx(2.0)
    assert a.eval(CubeIndex(1, (1,))) == 0.0


def test_exhaustive_dp_matches_bruteforce_enumeration():
    rng = np.random.default_rng(1)
    for n, depth in ((1, 3), (2, 1)):
        shape = (2 ** depth,) * n
        mu = rng.uniform(0.1, 1.0, shape)
        wm = rng.uniform(0.1, 1.0, shape)
        root = CubeIndex.root(n)
        for p in (1.0, 2.0):
            a = FractionalFunctional(0.7, p, mu, wm, RootBox.unit(n), depth)
            w = CubeSums(wm)
            best = max(dp_ratio(a, w, p, fam, root)
                       for fam in enumerate_antichains(n, depth))
            rep = max_dp_ratio(a, mode="exhaustive")
            assert rep.worst_ratio == pytest.approx(best, rel=1e-9)
            assert dp_ratio(a, w, p, rep.witness, root) == \
                pytest.approx(best, rel=1e-9)


def test_budgeted_dp_matches_restricted_enumeration():
    rng = np.random.default_rng(2)
    depth = 3
    mu = rng.uniform(0.1, 1.0, 8)
    wm = rng.uniform(0.1, 1.0, 8)
    a = FractionalFunctional(1.0, 1.0, mu, wm, UNIT1, depth)
    w = CubeSums(wm)
    root = CubeIndex.root(1)
    L = 4.0
    best = 0.0
    for fam in enumerate_antichains(1, depth):
        used = sum(2 ** (depth - q.level) for q in fam)
        if used <= 8 / L:
            best = max(best, dp_ratio(a, w, 1.0, fam, root))
    rep = max_dp_ratio(a, mode="exhaustive", budget_L=L)
    assert rep.worst_ratio == pytest.approx(best, rel=1e-9)


def test_random_mode_is_lower_bound():
    rng = np.random.default_rng(3)
    depth = 4
    mu = rng.uniform(0.1, 1.0, 16)
    wm = rng.uniform(0.1, 1.0, 16)
    a = FractionalFunctional(0.5, 2.0, mu, wm, UNIT1, depth)
    exact = max_dp_ratio(a, mode="exhaustive", budget_L=2.0)
    rnd = max_dp_ratio(a, mode="random", trials=200, seed=0, budget_L=2.0)
    assert rnd.worst_ratio <= exact.worst_ratio + 1e-12
    assert rnd.trials == 200


@given(st.integers(0, 2 ** 31 - 1), st.floats(1.01, 16.0))
@settings(max_examples=80, deadline=None)
def test_random_small_family_invariants(seed, L):
    # the families of the 1D cube (1,) at depth 5, made the input grid
    depth = 4
    fam = random_small_family(1, L, functionals._uniform_draws(seed), depth)
    used = fam.validate(depth)  # raises on overlap/outside/budget breach
    assert used <= 16 / L + 1e-9


def test_random_small_family_fills_budget_when_L_near_one():
    below = functionals._uniform_draws(4)
    best = 0.0
    for _ in range(20):
        fam = random_small_family(1, 1.01, below, 6)
        best = max(best, fam.validate(6) / 64.0)
    assert best >= 0.9


def test_sdp_check_exhaustive_unweighted_oracle():
    depth = 4
    a = unweighted_functional(1.0, 1.0, 1, depth)
    wm = lebesgue_masses(1, depth)
    rep = sdp_check(a, wm, 1.0, CubeIndex.root(1), depth, [2.0, 4.0, 8.0],
                    mode="exhaustive")
    assert rep.per_L[2.0] == pytest.approx(0.25)
    assert rep.per_L[4.0] == pytest.approx(0.0625)
    assert rep.per_L[8.0] == pytest.approx(0.015625)
    assert rep.violations == 0
    assert rep.smallness_slope == pytest.approx(2.0, abs=1e-9)


def test_sdp_check_random_mode_no_violations():
    rng = np.random.default_rng(5)
    depth = 5
    mu = rng.uniform(0.5, 2.0, 32) / 32
    wm = rng.uniform(0.5, 2.0, 32) / 32
    a = FractionalFunctional(0.5, 2.0, mu, wm, UNIT1, depth)
    rep = sdp_check(a, wm, 2.0, CubeIndex.root(1), depth, [2.0, 4.0],
                    trials=300, seed=1, mode="random")
    assert rep.violations == 0
    assert rep.trials == 600


def test_sdp_check_rejects_bad_L():
    a = unweighted_functional(1.0, 1.0, 1, 3)
    with pytest.raises(FunctionalError):
        sdp_check(a, lebesgue_masses(1, 3), 1.0, CubeIndex.root(1), 3, [1.0])


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_sdp_check_refuses_a_zero_root_denominator(mode):
    # the gradient side of a flat f: mu is 0 on every cell, and so is
    # a(Q)^p w(Q), which every D_p ratio divides by
    m = lebesgue_masses(1, 3)
    a = FractionalFunctional(1, 2.0, np.zeros(8), m, UNIT1, 3)
    assert a.eval(CubeIndex.root(1)) == 0.0
    with pytest.raises(FunctionalError, match="0 at the root cube"):
        sdp_check(a, m, 2.0, CubeIndex.root(1), 3, [2.0], mode=mode)
    # a w of total mass 0 is not the functional's w, which is > 0
    a = FractionalFunctional(1, 2.0, m, m, UNIT1, 3)
    with pytest.raises(FunctionalError, match="functional's own w"):
        sdp_check(a, np.zeros(8), 2.0, CubeIndex.root(1), 3, [2.0],
                  mode=mode)
    # zero mu cells below a positive root are no bar
    mu = m.copy()
    mu[:4] = 0.0
    a = FractionalFunctional(1, 2.0, mu, m, UNIT1, 3)
    rep = sdp_check(a, m, 2.0, CubeIndex.root(1), 3, [2.0], mode=mode)
    assert 0.0 < rep.worst_ratio <= 0.5 and rep.violations == 0


# Ls each refused, and the words its error names it by: an infinite or NaN
# L made the smallness fit's least squares fail (a NaN one failed earlier,
# in the budget floor, in exhaustive mode), and a repeated L was folded
# into one per_L entry while its trials were counted twice
BAD_LS = {"inf": ([2.0, float("inf")], "1 < L < inf"),
          "nan": ([2.0, float("nan")], "1 < L < inf"),
          "repeated": ([2.0, 2.0], "given once"),
          "repeated-unsorted": ([3.0, 2.0, 3], "given once")}


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("case", sorted(BAD_LS))
def test_sdp_check_refuses_an_L_not_finite_or_repeated(case, mode):
    Ls, words = BAD_LS[case]
    rng = np.random.default_rng(5)
    wm = np.exp(rng.normal(0.0, 1.0, 32)) / 32
    a = FractionalFunctional(1.0, 1.0, wm, wm, UNIT1, 5)
    with pytest.raises(FunctionalError, match=words):
        sdp_check(a, wm, 1.0, CubeIndex.root(1), 5, Ls, trials=5, seed=0,
                  mode=mode)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_sdp_check_refuses_a_cube_other_than_the_root(mode):
    # a sub-cube is checked by making it the input grid
    a = unweighted_functional(1.0, 1.0, 1, 3)
    m = lebesgue_masses(1, 3)
    for Q in (CubeIndex(1, (1,)), CubeIndex(2, (0,)), CubeIndex.root(2)):
        with pytest.raises(FunctionalError, match="runs on the root cube"):
            sdp_check(a, m, 1.0, Q, 3, [2.0], mode=mode)
    assert sdp_check(a, m, 1.0, CubeIndex.root(1), 3, [2.0],
                     mode=mode).worst_ratio > 0.0


def test_functional_refuses_masses_off_its_grid():
    # 64 flat masses on a 2D depth-3 root would run as a 1D functional: a
    # smaller exhaustive D_p maximum, and an IndexError from eval
    root = RootBox.unit(2)
    grid = np.random.default_rng(30).uniform(0.5, 1.5, (8, 8)) / 64
    flat = grid.ravel()
    for mu, w, what in ((flat, grid, "cell masses"),
                        (grid, flat, "weight cell values"),
                        (grid, grid[:4, :4], "weight cell values"),
                        (grid[None], grid, "cell masses")):
        with pytest.raises(GridError,
                           match=rf"{what} must be an array of shape "
                                 r"\(8, 8\), got"):
            FractionalFunctional(1.0, 1.0, mu, w, root, 3)
    # nested lists of the grid's shape are refused too: the grid's checks
    # take arrays only
    for mu, w in ((grid.tolist(), grid), (grid, grid.tolist())):
        with pytest.raises(GridError, match="must be an array of shape "
                                            r"\(8, 8\), got list"):
            FractionalFunctional(1.0, 1.0, mu, w, root, 3)


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_sdp_check_refuses_w_masses_or_depth_off_the_functional_grid(mode):
    root = RootBox.unit(2)
    grid = np.random.default_rng(31).uniform(0.5, 1.5, (8, 8)) / 64
    a = FractionalFunctional(1.0, 1.0, grid, grid, root, 3)
    Q = CubeIndex.root(2)
    for depth in (1, 2, 4):
        with pytest.raises(FunctionalError,
                           match=rf"at depth {depth} of a functional on a "
                                 "depth-3 grid"):
            sdp_check(a, grid, 1.0, Q, depth, [4.0], mode=mode)
    # a w or a p other than the functional's own, on the grid or off it
    for w, p in ((grid.ravel(), 1.0), (grid[:4, :4], 1.0), (grid * 2, 1.0),
                 (grid.T, 1.0), (grid, 2.0), (grid, 1.5)):
        with pytest.raises(FunctionalError, match="functional's own w "
                                                  r"masses and p = 1\.0"):
            sdp_check(a, w, p, Q, 3, [4.0], mode=mode)
    with pytest.raises(GridError, match="got list"):
        sdp_check(a, grid.tolist(), 1.0, Q, 3, [4.0], mode=mode)
    # an equal copy of w, or p as an int, is the functional's own
    assert sdp_check(a, grid.copy(), 1, Q, 3, [2.0, 4.0], mode=mode) \
        == sdp_check(a, grid, 1.0, Q, 3, [2.0, 4.0], mode=mode)


def test_unknown_mode_is_rejected():
    # a mode other than exhaustive or random must not fall through to the
    # sampler
    a = unweighted_functional(1.0, 1.0, 1, 3)
    m = lebesgue_masses(1, 3)
    with pytest.raises(FunctionalError):
        sdp_check(a, m, 1.0, CubeIndex.root(1), 3, [2.0], mode="greedy")


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_overflowing_power_of_a_cube_value_is_refused(mode):
    # a(root) = side^alpha = 1e200, whose square overflows: Python's pow
    # raised OverflowError there, and libm's inf is refused the same way
    m = lebesgue_masses(1, 3)
    a = FractionalFunctional(2.0, 2.0, m, m, RootBox((0.0,), 1e100), 3)
    with pytest.raises(FunctionalError, match="to the power 2.0 overflows"):
        sdp_check(a, m, 2.0, CubeIndex.root(1), 3, [2.0], mode=mode)


@pytest.mark.parametrize("trials", [0, -5])
def test_random_mode_needs_a_trial(trials):
    a = unweighted_functional(1.0, 1.0, 1, 3)
    with pytest.raises(FunctionalError, match="trials must be >= 1"):
        sdp_check(a, lebesgue_masses(1, 3), 1.0, CubeIndex.root(1), 3, [2.0],
                  trials=trials, mode="random")
    # the exhaustive DP draws no samples, so trials is not read there
    sdp_check(a, lebesgue_masses(1, 3), 1.0, CubeIndex.root(1), 3, [2.0],
              trials=trials, mode="exhaustive")


def test_dp_ratio_monotone_under_family_growth():
    depth = 3
    a = unweighted_functional(1.0, 1.0, 1, depth)
    w = CubeSums(lebesgue_masses(1, depth))
    root = CubeIndex.root(1)
    fam = [CubeIndex(2, (0,))]
    grown = fam + [CubeIndex(2, (3,))]
    assert dp_ratio(a, w, 1.0, grown, root) > dp_ratio(a, w, 1.0, fam, root)


def test_report_to_dict_roundtrips_witness():
    depth = 3
    a = unweighted_functional(1.0, 1.0, 1, depth)
    rep = max_dp_ratio(a, mode="exhaustive", budget_L=2.0)
    d = rep.to_dict()
    assert d["worst_ratio"] == pytest.approx(rep.worst_ratio)
    assert all(isinstance(wit, list) and len(wit) == 2 for wit in d["witness"])


# ---------------------------------------------------------------------------
# the level DP against the per-node recursive DP it replaced
# ---------------------------------------------------------------------------

def reference_maxplus(x, y):
    out = np.full(x.size + y.size - 1, -np.inf)
    for i, v in enumerate(x):
        if np.isfinite(v):
            seg = out[i:i + y.size]
            np.maximum(seg, v + y, out=seg)
    return out


def reference_score_arrays(a, w, p, Q, depth, cache):
    """Per-node budgeted max-plus DP.  cache[Q] = (arr, convs) where arr[c]
    is the best sum of a^p w over antichains in the subtree of Q using
    exactly c finest cells, and convs are the forward child convolutions
    kept for witness backtracking (None at leaves)."""
    if Q in cache:
        return cache[Q]
    cells = (1 << (depth - Q.level)) ** Q.n
    score = a.eval(Q) ** p * w.mass(Q)
    if Q.level == depth:
        entry = (np.array([0.0, score]), None)
    else:
        convs = [np.array([0.0])]
        for ch in Q.children():
            carr, _ = reference_score_arrays(a, w, p, ch, depth, cache)
            convs.append(reference_maxplus(convs[-1], carr))
        arr = convs[-1].copy()
        arr[cells] = max(arr[cells], score)
        entry = (arr, convs)
    cache[Q] = entry
    return entry


def reference_witness(a, w, p, Q, depth, cache, count, tol=1e-9):
    arr, convs = cache[Q]
    if count <= 0 or not np.isfinite(arr[count]) or arr[count] <= 0:
        return []
    cells = (1 << (depth - Q.level)) ** Q.n
    score = a.eval(Q) ** p * w.mass(Q)
    scale = 1.0 + abs(arr[count])
    if count == cells and score >= arr[count] - tol * scale:
        return [Q]
    out = []
    children = Q.children()
    rem, val = count, arr[count]
    for j in range(len(children) - 1, -1, -1):
        carr, _ = cache[children[j]]
        prev = convs[j]
        pick = 0
        for c in range(min(rem, carr.size - 1) + 1):
            if rem - c < prev.size and np.isfinite(prev[rem - c]) \
                    and np.isfinite(carr[c]) \
                    and prev[rem - c] + carr[c] >= val - tol * scale:
                pick = c
                break
        out.extend(reference_witness(a, w, p, children[j], depth, cache,
                                     pick, tol))
        val = val - (cache[children[j]][0][pick] if pick else 0.0)
        rem -= pick
    return out


def reference_max_dp_ratio(a, w_masses, p, Q, depth, budget_L=None):
    """The exhaustive branch of max_dp_ratio before the level DP."""
    w = CubeSums(np.asarray(w_masses, dtype=float))
    den = a.eval(Q) ** p * w.mass(Q)
    cells = (1 << (depth - Q.level)) ** Q.n
    budget = cells if budget_L is None \
        else int(np.floor(cells / budget_L + 1e-9))
    cache = {}
    arr, _ = reference_score_arrays(a, w, p, Q, depth, cache)
    top = min(budget, arr.size - 1)
    finite = np.where(np.isfinite(arr[:top + 1]), arr[:top + 1], -np.inf)
    use = int(np.argmax(finite))
    num = float(finite[use])
    witness = reference_witness(a, w, p, Q, depth, cache, use)
    return (max(num, 0.0) / den) ** (1.0 / p), witness


def gradient_measure(rng, n, depth, p, v):
    """|grad f|^p v for a seeded f that is flat on the first quarter of
    the grid along each axis, so that the measure has zero cells there."""
    shape = (1 << depth,) * n
    f = rng.normal(size=shape)
    f[(slice(0, shape[0] // 4 + 1),) * n] = 0.25
    grad = discrete_gradient(GridFunction(RootBox.unit(n), depth, f)).values
    assert not grad.all()
    return grad ** p * v


def two_functionals(rng, n, depth, p):
    """Two functionals on a seeded depth-``depth`` grid, the masses of w,
    and ``on(Q)``: the same functionals and masses on the grid ``restrict``
    makes of the cube Q.  The first has a positive mu, the second is the
    gradient side's a(Q): alpha = 1, mu = |grad f|^p mu with zero cells."""
    shape = (1 << depth,) * n
    mu, wm = rng.uniform(0.1, 1.0, shape), rng.uniform(0.1, 1.0, shape)
    gmu = gradient_measure(rng, n, depth, p, mu)
    unit = GridFunction(RootBox.unit(n), depth, wm)

    def build(mu, gmu, wm, root, depth):
        return [FractionalFunctional(0.7, p, mu, wm, root, depth),
                FractionalFunctional(1, p, gmu, wm, root, depth)]

    def on(Q):
        sl = unit.block(Q)
        sub = restrict(unit, Q)
        return build(mu[sl], gmu[sl], wm[sl], sub.root, sub.depth), wm[sl]

    return build(mu, gmu, wm, unit.root, depth), wm, on


def cubes_to_check(n, depth):
    root = CubeIndex.root(n)
    return [root, root.children()[-1], CubeIndex(2, (1,) * n)][:depth]


def near(ref):
    """A value computed on the grid ``restrict`` makes of Q against a
    reference on Q: the sub-grid sums the masses of Q's cubes from the same
    cells in another order, which moves the last bits in 2D and 3D."""
    return pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n,depth", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_level_dp_equals_per_node_dp(n, depth, p):
    # the level DP on the grid made of Q against the per-node DP there,
    # bit for bit, and against the per-node DP on Q
    rng = np.random.default_rng(40 + 10 * n + int(p))
    functionals, wm, on = two_functionals(rng, n, depth, p)
    for Q in cubes_to_check(n, depth):
        subs, wQ = on(Q)
        D = depth - Q.level
        cells = (1 << D) ** n
        for a, aQ in zip(functionals, subs):
            for L in (None, 1.5, 2.0, 3.0, float(cells), 2.0 * cells):
                rep = max_dp_ratio(aQ, budget_L=L)
                assert (rep.worst_ratio, rep.witness) == \
                    reference_max_dp_ratio(aQ, wQ, p, CubeIndex.root(n), D,
                                           budget_L=L)
                ratio, witness = reference_max_dp_ratio(a, wm, p, Q, depth,
                                                        budget_L=L)
                assert rep.worst_ratio == near(ratio)
                assert rep.witness == [relative_cube(Q, q) for q in witness]


@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1), st.sampled_from(
    [1.0, 1.5, 2.0]), st.floats(1.01, 20.0))
@settings(max_examples=40, deadline=None)
def test_level_dp_equals_per_node_dp_hypothesis(n, seed, p, L):
    rng = np.random.default_rng(seed)
    depth = {1: 4, 2: 2, 3: 1}[n]
    shape = (1 << depth,) * n
    mu = rng.lognormal(0.0, 1.0, shape)
    wm = rng.lognormal(0.0, 1.0, shape)
    a = FractionalFunctional(rng.uniform(0.2, 2.0), p, mu, wm,
                             RootBox.unit(n), depth)
    Q = CubeIndex.root(n)
    for budget_L in (None, L):
        rep = max_dp_ratio(a, budget_L=budget_L)
        assert (rep.worst_ratio, rep.witness) == \
            reference_max_dp_ratio(a, wm, p, Q, depth, budget_L=budget_L)


@pytest.mark.parametrize("n,depth,Ls", [(1, 6, [2.0, 3.0, 4.0, 8.0]),
                                        (2, 3, [4.0, 16.0, 5.0]),
                                        (3, 2, [8.0, 2.0])])
def test_exhaustive_sdp_check_equals_per_L_max_dp_ratio(n, depth, Ls):
    # each Q made the input grid; the worst L's ratio and witness also
    # against the per-node DP on Q
    rng = np.random.default_rng(n)
    functionals, wm, on = two_functionals(rng, n, depth, 1.0)
    for Q in cubes_to_check(n, depth):
        subs, wQ = on(Q)
        D = depth - Q.level
        for a, aQ in zip(functionals, subs):
            rep = sdp_check(aQ, wQ, 1.0, CubeIndex.root(n), D, Ls,
                            mode="exhaustive")
            per_L = {L: max_dp_ratio(aQ, budget_L=L) for L in Ls}
            assert rep.per_L == {L: r.worst_ratio for L, r in per_L.items()}
            worst = max(sorted(Ls), key=lambda L: per_L[L].worst_ratio)
            assert rep.worst_ratio == per_L[worst].worst_ratio
            assert rep.witness == per_L[worst].witness
            ratio, witness = reference_max_dp_ratio(a, wm, 1.0, Q, depth,
                                                    budget_L=worst)
            assert rep.worst_ratio == near(ratio)
            assert rep.witness == [relative_cube(Q, q) for q in witness]


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_sdp_check_without_budgets(mode):
    a = unweighted_functional(1.0, 1.0, 1, 3)
    rep = sdp_check(a, lebesgue_masses(1, 3), 1.0, CubeIndex.root(1), 3, [],
                    mode=mode)
    assert (rep.worst_ratio, rep.witness, rep.per_L) == (0.0, [], {})


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_report_fields_are_python_floats(mode):
    rng = np.random.default_rng(9)
    depth = 4
    functionals, wm, _ = two_functionals(rng, 1, depth, 2.0)
    for a in functionals:
        reports = [sdp_check(a, wm, 2, CubeIndex.root(1), depth, [2, 4.0],
                             trials=20, mode=mode),
                   max_dp_ratio(a, mode=mode, trials=20, budget_L=2.0)]
        for rep in reports:
            d = rep.to_dict()
            floats = [d["worst_ratio"], *d["per_L"].values(),
                      d["smallness_slope"], d["fit_residual"]]
            assert all(type(v) is float for v in floats), d


def reference_smallness_fit(per_L):
    """The smallness slope and residual as sdp_check fitted them inline."""
    xs = np.log([1.0 / L for L in sorted(per_L)])
    ys = np.log([max(per_L[L], 1e-300) for L in sorted(per_L)])
    coef, res = np.polyfit(xs, ys, 1, full=True)[:2]
    return float(coef[0]), float(res[0]) if len(res) else 0.0


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("Ls", [[2.0, 4.0], [8.0, 2.0, 3.0, 4.0],
                                [5.5, 2.0, 3.0]])
def test_smallness_fit_equals_inline_formula(mode, Ls):
    rng = np.random.default_rng(21)
    functionals, wm, _ = two_functionals(rng, 1, 5, 1.5)
    for a in functionals:
        rep = sdp_check(a, wm, 1.5, CubeIndex.root(1), 5, Ls, trials=30,
                        mode=mode)
        assert (rep.smallness_slope, rep.fit_residual) == \
            reference_smallness_fit(rep.per_L)


@pytest.mark.parametrize("Ls", [[4.0], [2.0]])
def test_smallness_fit_is_nan_for_one_L(Ls):
    a = unweighted_functional(1.0, 1.0, 1, 4)
    rep = sdp_check(a, lebesgue_masses(1, 4), 1.0, CubeIndex.root(1), 4, Ls,
                    mode="exhaustive")
    assert np.isnan(rep.smallness_slope) and np.isnan(rep.fit_residual)


# ---------------------------------------------------------------------------
# per-level a(Q) arrays and the sampled mode against per-cube references
# ---------------------------------------------------------------------------

def assert_level_values_equal_eval(a, depth):
    """level_values and eval both equal the scalar formula on every cube,
    bit for bit."""
    root = CubeIndex.root(a.root.n)
    for level in range(depth + 1):
        got = a.level_values(level)
        assert got.shape == (1 << level,) * root.n
        cubes = full_partition(root, level)
        ref = [reference_eval(a, P) for P in cubes]
        assert np.array_equal(got.ravel(), ref)
        assert [a.eval(P) for P in cubes] == ref


def assert_subcube_values_equal_eval(a, aQ, Q, depth):
    """aQ, a on the grid ``restrict`` makes of Q, equals the scalar formula
    there bit for bit, and a's on the cubes of Q up to ``near``."""
    assert_level_values_equal_eval(aQ, depth - Q.level)
    for level in range(Q.level, depth + 1):
        ref = [reference_eval(a, P) for P in full_partition(Q, level)]
        assert list(aQ.level_values(level - Q.level).ravel()) == near(ref)


@pytest.mark.parametrize("n,depth", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_level_values_equal_eval_per_cube(n, depth, p):
    rng = np.random.default_rng(70 + 10 * n + int(2 * p))
    functionals, _, on = two_functionals(rng, n, depth, p)
    for a in functionals:
        assert_level_values_equal_eval(a, depth)
    for Q in cubes_to_check(n, depth)[1:]:
        for a, aQ in zip(functionals, on(Q)[0]):
            assert_subcube_values_equal_eval(a, aQ, Q, depth)


@given(st.integers(1, 3), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(0.1, 3.0),
       st.floats(0.1, 3.0), st.integers(1, 2), st.floats(0.01, 10.0))
@settings(max_examples=40, deadline=None)
def test_level_values_equal_eval_per_cube_hypothesis(n, seed, p, sigma,
                                                     alpha, m, side):
    rng = np.random.default_rng(seed)
    depth = {1: 4, 2: 3, 3: 2}[n]
    root = RootBox((0.0,) * n, side)
    shape = (1 << depth,) * n
    mu = rng.lognormal(0.0, sigma, shape)
    wm = rng.lognormal(0.0, sigma, shape)
    grad = rng.lognormal(0.0, sigma, shape)
    grad[rng.uniform(size=shape) < 0.3] = 0.0
    gmu = grad ** p * mu        # the gradient side's mu, with zero cells
    g = GridFunction(root, depth, grad)

    def build(mu, gmu, wm, g):
        return [FractionalFunctional(alpha, p, mu, wm, g.root, g.depth),
                FractionalFunctional(m, p, gmu, wm, g.root, g.depth)]

    coords = tuple(int(c) for c in rng.integers(0, 2, n))
    Q = CubeIndex(1, coords)
    sl = g.block(Q)
    for a, aQ in zip(build(mu, gmu, wm, g),
                     build(mu[sl], gmu[sl], wm[sl], restrict(g, Q))):
        assert_level_values_equal_eval(a, depth)
        assert_subcube_values_equal_eval(a, aQ, Q, depth)


def reference_random_small_family(Q, L, rng, depth, max_tries=400):
    """The sampler as it was: CubeIndex members built per accepted try."""
    n = Q.n
    span = 1 << (depth - Q.level)
    budget = span ** n / L
    mask = np.zeros((span,) * n, dtype=bool)
    members, used, tries = [], 0, 0
    while budget - used >= 1.0 and tries < max_tries:
        tries += 1
        level = int(rng.integers(Q.level, depth + 1))
        b = 1 << (depth - level)
        cells = b ** n
        if cells > budget - used:
            continue
        rel = tuple(int(rng.integers(0, 1 << (level - Q.level)))
                    for _ in range(n))
        sl = tuple(slice(r * b, (r + 1) * b) for r in rel)
        if mask[sl].any():
            continue
        mask[sl] = True
        members.append(subcube_at(Q, level, rel))
        used += cells
    return members


def reference_sdp_check_random(a, w_masses, p, Q, depth, Ls, trials, seed):
    """sdp_check(mode="random") as it was: one dp_ratio per family."""
    w = CubeSums(np.asarray(w_masses, dtype=float))
    alpha_over_n = a.alpha / Q.n
    rng = np.random.default_rng(seed)
    per_L, violations, worst, witness = {}, 0, 0.0, []
    for L in sorted(Ls):
        ratios = []
        for _ in range(trials):
            fam = reference_random_small_family(Q, L, rng, depth)
            ratios.append((dp_ratio(a, w, p, fam, Q), fam))
        best_r, best_w = max(ratios, key=lambda t: t[0])
        per_L[L] = best_r
        if best_r > worst:
            worst, witness = best_r, best_w
        bound = (1.0 / L) ** alpha_over_n
        violations += sum(1 for r, _ in ratios if r > bound + 1e-12)
    return worst, per_L, witness, violations, trials * len(Ls)


def reference_max_dp_ratio_random(a, w_masses, p, Q, depth, trials, seed,
                                  budget_L):
    """max_dp_ratio(mode="random") as it was."""
    w = CubeSums(np.asarray(w_masses, dtype=float))
    rng = np.random.default_rng(seed)
    L = budget_L if budget_L is not None else 1.0 + 1e-9
    best, witness = 0.0, []
    for _ in range(trials):
        fam = reference_random_small_family(Q, max(L, 1.0 + 1e-9), rng, depth)
        r = dp_ratio(a, w, p, fam, Q)
        if r > best:
            best, witness = r, fam
    return best, witness


@pytest.mark.parametrize("n,depth", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("seed", range(10))
def test_sampled_mode_equals_per_family_reference(n, depth, seed):
    rng = np.random.default_rng(90 + seed)
    p = (1.0, 1.5, 2.0)[seed % 3]
    # the library on the grid made of Q against the references there, bit
    # for bit, and against the references on Q
    functionals, wm, on = two_functionals(rng, n, depth, p)
    Ls = [3.0, 5.5, 2.0]
    for Q in cubes_to_check(n, depth)[:2]:
        subs, wQ = on(Q)
        D, root = depth - Q.level, CubeIndex.root(n)
        for a, aQ in zip(functionals, subs):
            rep = sdp_check(aQ, wQ, p, root, D, Ls, trials=12, seed=seed)
            assert (rep.worst_ratio, rep.per_L, rep.witness, rep.violations,
                    rep.trials) == reference_sdp_check_random(
                        aQ, wQ, p, root, D, Ls, 12, seed)
            worst, per_L, witness, violations, trials = \
                reference_sdp_check_random(a, wm, p, Q, depth, Ls, 12, seed)
            assert (rep.worst_ratio, rep.per_L) == (near(worst), near(per_L))
            assert (rep.witness, rep.violations, rep.trials) == \
                ([relative_cube(Q, q) for q in witness], violations, trials)
            for budget_L in (None, 3.0, 5.5):
                rep = max_dp_ratio(aQ, mode="random", trials=12,
                                   seed=seed, budget_L=budget_L)
                assert (rep.worst_ratio, rep.witness, rep.trials) == \
                    reference_max_dp_ratio_random(aQ, wQ, p, root, D, 12,
                                                  seed, budget_L) + (12,)
                best, witness = reference_max_dp_ratio_random(
                    a, wm, p, Q, depth, 12, seed, budget_L)
                assert rep.worst_ratio == near(best)
                assert rep.witness == [relative_cube(Q, q) for q in witness]


def first_L_reads_odd_halves(Q, L, depth, trials, seed):
    """Whether the reference sampler's ``trials`` families for L, drawn
    first from ``default_rng(seed)``, read an odd number of 32-bit words:
    the generator then holds the spare half of its last 64-bit word."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        reference_random_small_family(Q, L, rng, depth)
    return bool(rng.bit_generator.state["has_uint32"])


@pytest.mark.parametrize("seed,odd", [(0, True), (1, False)],
                         ids=["odd-first-L", "even-first-L"])
def test_one_stream_serves_every_L(seed, odd):
    # the second L reads on from the first's spare half, when there is one,
    # as one generator drawn scalar by scalar does
    rng = np.random.default_rng(40)
    depth, p, Ls = 5, 1.5, [4.0, 2.0, 3.0, 5.5]
    funcs, wm, _ = two_functionals(rng, 1, depth, p)
    root = CubeIndex.root(1)
    assert first_L_reads_odd_halves(root, 2.0, depth, 9, seed) == odd
    for a in funcs:
        rep = sdp_check(a, wm, p, root, depth, Ls, trials=9, seed=seed)
        assert (rep.worst_ratio, rep.per_L, rep.witness, rep.violations,
                rep.trials) == reference_sdp_check_random(
                    a, wm, p, root, depth, Ls, 9, seed)


@given(st.integers(0, 2 ** 31 - 1), st.floats(1.01, 16.0),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_random_small_family_equals_reference_sampler(seed, L, n):
    depth = {1: 6, 2: 3, 3: 2}[n]
    Q = CubeIndex(1, (1,) * n)
    below, ref_rng = functionals._uniform_draws(seed), \
        np.random.default_rng(seed)
    for _ in range(3):
        fam = random_small_family(n, L, below, depth - Q.level)
        ref = reference_random_small_family(Q, L, ref_rng, depth)
        assert fam.members == [relative_cube(Q, q) for q in ref]


# ranges of one below() call each: R = 1 draws nothing, powers of two are
# never rejected, the last three are rejected on up to half their words
STREAM_RANGES = [1, 2, 8, 1 << 16, 1 << 32, 11, 1000,
                 2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1]


@pytest.mark.parametrize("draws", [0, 1, 2, 9, 40, 3000])
def test_word_stream_equals_scalar_integers(draws):
    below = functionals._uniform_draws(50 + draws)
    ref_rng = np.random.default_rng(50 + draws)
    ranges = [STREAM_RANGES[(3 * i + draws) % len(STREAM_RANGES)]
              for i in range(draws)]
    assert [below(R) for R in ranges] == \
        [int(ref_rng.integers(0, R)) for R in ranges]


def test_word_stream_refuses_ranges_above_2_32():
    below = functionals._uniform_draws(3)
    ref_rng = np.random.default_rng(3)
    assert below(1 << 32) == int(ref_rng.integers(0, 1 << 32))
    with pytest.raises(FunctionalError):
        below((1 << 32) + 1)
    # the refusal read no word
    assert below(1000) == int(ref_rng.integers(0, 1000))


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_sdp_check_reads_level_arrays_not_eval_per_cube(mode):
    depth = 6
    rng = np.random.default_rng(12)
    mu, wm = rng.uniform(0.1, 1.0, 64), rng.uniform(0.1, 1.0, 64)
    gmu = gradient_measure(rng, 1, depth, 1.5, mu)
    for a in (counting(FractionalFunctional)(0.7, 1.5, mu, wm, UNIT1, depth),
              counting(FractionalFunctional)(1, 1.5, gmu, wm, UNIT1, depth)):
        sdp_check(a, wm, 1.5, CubeIndex.root(1), depth, [2.0, 3.0, 8.0],
                  trials=50, mode=mode)
        max_dp_ratio(a, mode=mode, trials=50, budget_L=2.0)
        # 127 cubes and 100 sampled families per call: none is evaluated
        # one by one
        assert a.calls <= 1


# the block-decoded sampler against the scalar one it replaced
# (``reference_draw_family`` on ``reference_uniform_draws``): the same
# families, reports and stream positions, bit for bit

def lognormal_functional(rng, n, depth):
    shape = (1 << depth,) * n
    return FractionalFunctional(0.8, 1.5, rng.lognormal(0.0, 0.5, shape),
                                rng.lognormal(0.0, 0.5, shape),
                                RootBox.unit(n), depth)


@pytest.mark.parametrize("n,depth", [(1, 7), (2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_sampled_report_equals_reference_sampler(n, depth, seed):
    # several non-integer Ls, one near 1, read on from one stream
    a = lognormal_functional(np.random.default_rng(70 + seed), n, depth)
    Ls = [1.01, 2.5, 7.3]
    rep = sdp_check(a, a.w.masses, a.p, CubeIndex.root(n), depth, Ls,
                    trials=15, seed=seed)
    assert repr(rep) == repr(reference_sdp_report(a, Ls, 15, seed))


@given(st.integers(0, 2 ** 31 - 1), st.floats(1.01, 16.0),
       st.floats(1.01, 16.0), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_sampled_families_equal_reference_sampler(seed, L1, L2, n):
    depth = {1: 8, 2: 4, 3: 3, 4: 2}[n]
    stream, below = functionals._uniform_draws(seed), \
        reference_uniform_draws(seed)
    for L in (L1, L2, L1):
        for _ in range(3):
            assert functionals._draw_family(n, L, stream, depth) == \
                reference_draw_family(n, L, below, depth)
    # the stream reads on from where the walk stopped
    assert [stream(R) for R in STREAM_RANGES] == \
        [below(R) for R in STREAM_RANGES]


def test_sampled_families_span_block_refills_and_the_try_cap(monkeypatch):
    # 1D depth 14 at L = 1.01: each family reads about 800 words, so blocks
    # of 2 * STREAM_BLOCK words run out within families, and the budget of
    # 16222 cells is not filled in FAMILY_MAX_TRIES tries
    refills = []
    refill = functionals._WordStream.refill
    monkeypatch.setattr(functionals._WordStream, "refill",
                        lambda self: refills.append(self.pos) or refill(self))
    depth, L = 14, 1.01
    stream, below = functionals._uniform_draws(8), reference_uniform_draws(8)
    capped = 0
    for _ in range(8):
        fam = functionals._draw_family(1, L, stream, depth)
        assert fam == reference_draw_family(1, L, below, depth)
        capped += (1 << depth) / L - sum(1 << (depth - k) for k, _ in fam) >= 1
    assert capped == 8 and len(refills) >= 3
    a = lognormal_functional(np.random.default_rng(9), 1, depth)
    rep = sdp_check(a, a.w.masses, a.p, CubeIndex.root(1), depth,
                    [L, 3.7], trials=6, seed=8)
    assert repr(rep) == repr(reference_sdp_report(a, [L, 3.7], 6, 8))


def level_word(k, R):
    """A 32-bit word that the bounded draw in [0, R) accepts as k."""
    return -(-(k << 32) // R) + 16


def scalar_below(words):
    """``below(R)``, numpy's bounded draw, on the 32-bit ``words`` in
    turn: the reference stream on injected words."""
    words = iter(words)

    def below(R):
        if R == 1:
            return 0
        while True:
            m = next(words) * R
            if m & 0xFFFFFFFF >= R or m & 0xFFFFFFFF >= ((1 << 32) - R) % R:
                return m >> 32

    return below


def inject_words(monkeypatch, words, block):
    """Make every word stream read ``words`` (32-bit, low half first),
    ``block`` 64-bit raw words at a time, then seeded words."""
    words = list(words) + np.random.default_rng(1).integers(
        0, 1 << 32, 400 + len(words) % 2).tolist()
    raw = np.array(words[0::2], dtype=np.uint64) \
        | np.array(words[1::2], dtype=np.uint64) << np.uint64(32)
    blocks = iter([raw[k:k + block] for k in range(0, len(raw), block)])
    monkeypatch.setattr(functionals._WordStream, "_raw",
                        lambda self: next(blocks))
    return words


def assert_family_on_words(monkeypatch, words, block, L, depth, expected):
    words = inject_words(monkeypatch, words, block)
    stream, below = functionals._uniform_draws(0), scalar_below(words)
    fam = functionals._draw_family(1, L, stream, depth)
    assert fam == reference_draw_family(1, L, below, depth) == expected
    assert [stream(R) for R in STREAM_RANGES] == \
        [below(R) for R in STREAM_RANGES]


# 1D depth 10 at L = 100 fits levels 7 to 10 (budget 10.24 cells), depth
# 7 at L = 100 level 7 alone; the filler draws level 5, 4 at depth 7,
# which never fits, so each filler is one try of one word
@pytest.mark.parametrize("depth,first,expected", [
    (10, 0, [(10, (5,))]),  # 2^32 mod 11 = 4: word 0 is rejected, no try
    (7, 0, []),             # R = 8 rejects nothing: word 0 is a try
    (10, level_word(0, 11), [])],   # level 0: a try, no position word
    ids=["rejected-word", "nothing-rejected", "level-0"])
def test_first_word_counts_as_a_try_unless_rejected(monkeypatch, depth,
                                                    first, expected):
    R = depth + 1
    words = [first] + [level_word(R // 2, R)] * (functionals.FAMILY_MAX_TRIES
                                                  - 1)
    # a fitting level word and its position: the 400th try, or the 401st
    words += [level_word(depth, R), 5 << (32 - depth)]
    assert_family_on_words(monkeypatch, words, 64, 100.0, depth, expected)


def test_rejected_word_at_a_block_end_refills_within_a_try(monkeypatch):
    # blocks of 3 raw words (6 32-bit words): the first block ends on a
    # rejected level word, the second on a fitting level word whose
    # position word opens the third
    filler = level_word(5, 11)
    words = [filler] * 5 + [0] + [filler] * 5 + [level_word(10, 11)] \
        + [3 << 22] + [filler] * 4 + [0] + [level_word(7, 11), 1 << 25] \
        + [filler] * 400
    assert_family_on_words(monkeypatch, words, 3, 100.0, 10,
                           [(10, (3,)), (7, (1,))])


def test_a_range_of_one_reads_no_word(monkeypatch):
    words = inject_words(monkeypatch, [level_word(3, 11)], 4)
    stream, below = functionals._uniform_draws(0), scalar_below(words)
    assert stream(1) == below(1) == 0
    assert stream(11) == below(11) == 3


def test_sampled_sdp_check_peak_does_not_grow_with_trials():
    # the stream holds a block of words at a time and the sampler the best
    # family, not every word or ratio of the run: 1D depth 12 at L = 4
    # reads about 100 words per family, 8 MB of list entries over 2000
    # trials
    a = lognormal_functional(np.random.default_rng(3), 1, 12)
    peaks = []
    for trials in (1, 200, 2000):   # the first sums a's levels, once
        tracemalloc.start()
        try:
            sdp_check(a, a.w.masses, a.p, CubeIndex.root(1), 12, [4.0],
                      trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] < peaks[1] + 2 ** 14
