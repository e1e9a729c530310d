"""Cube functionals and disjoint-family ratio conditions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab.functionals import (ConstantFunctional, CubeSums,
                                     FractionalFunctional, FunctionalError,
                                     GradientFunctional, IncreasingFunctional,
                                     LorentzGradientFunctional,
                                     dp_ratio, enumerate_antichains,
                                     full_partition, max_dp_ratio,
                                     random_small_family, sdp_check,
                                     subcube_at)
from poincarelab.grid import (CubeIndex, GridFunction, RootBox, all_cubes,
                              discrete_gradient)

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
    m = lebesgue_masses(1, 3)
    bad = m.copy()
    bad[0] = 0.0
    with pytest.raises(FunctionalError):
        FractionalFunctional(1.0, 1.0, bad, m, UNIT1, 3)


def test_dp_ratio_oracles():
    depth = 4
    a = unweighted_functional(1.0, 1.0, 1, depth)
    w = CubeSums(lebesgue_masses(1, depth), depth)
    root = CubeIndex.root(1)
    assert dp_ratio(a, w, 1.0, [], root) == 0.0
    # both children: 2 * (1/2 * 1/2) = 1/2
    assert dp_ratio(a, w, 1.0, root.children(), root) == pytest.approx(0.5)
    # a single level-2 cube: (1/4) * (1/4) = 1/16
    assert dp_ratio(a, w, 1.0, [CubeIndex(2, (0,))], root) == \
        pytest.approx(1 / 16)


def test_dp_ratio_full_partition_of_constant_functional():
    depth = 3
    w = CubeSums(lebesgue_masses(1, depth), depth)
    a = ConstantFunctional(2.5)
    root = CubeIndex.root(1)
    fam = full_partition(root, 2)
    # constant functional over a partition: mass cancellation gives 1
    assert dp_ratio(a, w, 2.0, fam, root) == pytest.approx(1.0)


def test_subcube_at_and_full_partition():
    q = CubeIndex(1, (1, 0))
    sub = subcube_at(q, 3, (2, 1))
    assert sub == CubeIndex(3, (6, 1))
    part = full_partition(q, 3)
    assert len(part) == 16
    assert all(q.contains(c) for c in part)


def test_increasing_functional_validation():
    root = CubeIndex.root(1)
    ok = {root: 2.0, CubeIndex(1, (0,)): 1.0, CubeIndex(1, (1,)): 2.0}
    IncreasingFunctional(ok, UNIT1, 1)
    bad = {root: 1.0, CubeIndex(1, (0,)): 3.0}
    with pytest.raises(FunctionalError):
        IncreasingFunctional(bad, UNIT1, 1)


def test_increasing_functional_dp_below_one():
    # a(Q) = mu(Q)^(1/p) is monotone; the packing ratio never exceeds 1
    depth = 3
    rng = np.random.default_rng(0)
    masses = rng.uniform(0.1, 1.0, 8)
    cs = CubeSums(masses, depth)
    for p in (1.0, 2.0):
        table = {q: cs.mass(q) ** (1.0 / p) for q in all_cubes(1, depth)}
        a = IncreasingFunctional(table, UNIT1, depth)
        rep = max_dp_ratio(a, np.full(8, 1 / 8), p, CubeIndex.root(1), depth)
        assert rep.worst_ratio <= 1.0 + 1e-9


def test_gradient_functional_eval():
    f = GridFunction(UNIT1, 2, np.array([1.0, 1.0, 2.0, 2.0]))
    grad = GridFunction(UNIT1, 2, np.array([0.0, 4.0, 0.0, 0.0]))
    u = lebesgue_masses(1, 2)
    a = GradientFunctional(1, 2.0, grad, u)
    # l(Q) * (avg of grad^2)^(1/2) = 1 * (16/4)^(1/2)
    assert a.eval(CubeIndex.root(1)) == pytest.approx(2.0)


def test_lorentz_gradient_functional_constant_gradient():
    grad = GridFunction(UNIT1, 3, np.full(8, 3.0))
    a = LorentzGradientFunctional(2.0, grad, lebesgue_masses(1, 3))
    # constant gradient: the L^{p,1} norm of 3 on a probability space is 3
    assert a.eval(CubeIndex.root(1)) == pytest.approx(3.0)
    assert a.eval(CubeIndex(1, (0,))) == pytest.approx(1.5)


def test_exhaustive_dp_matches_bruteforce_enumeration():
    rng = np.random.default_rng(1)
    for n, depth in ((1, 3), (2, 1)):
        shape = (2 ** depth,) * n
        mu = rng.uniform(0.1, 1.0, shape)
        wm = rng.uniform(0.1, 1.0, shape)
        root = CubeIndex.root(n)
        for p in (1.0, 2.0):
            a = FractionalFunctional(0.7, p, mu, wm, RootBox.unit(n), depth)
            w = CubeSums(wm, depth)
            best = max(dp_ratio(a, w, p, fam, root)
                       for fam in enumerate_antichains(root, depth))
            rep = max_dp_ratio(a, wm, p, root, depth, mode="exhaustive")
            assert rep.worst_ratio == pytest.approx(best, rel=1e-9)
            assert dp_ratio(a, w, p, rep.witness, root) == \
                pytest.approx(best, rel=1e-9)


def test_budgeted_dp_matches_restricted_enumeration():
    rng = np.random.default_rng(2)
    depth = 3
    mu = rng.uniform(0.1, 1.0, 8)
    wm = rng.uniform(0.1, 1.0, 8)
    a = FractionalFunctional(1.0, 1.0, mu, wm, UNIT1, depth)
    w = CubeSums(wm, depth)
    root = CubeIndex.root(1)
    L = 4.0
    best = 0.0
    for fam in enumerate_antichains(root, depth):
        used = sum(2 ** (depth - q.level) for q in fam)
        if used <= 8 / L:
            best = max(best, dp_ratio(a, w, 1.0, fam, root))
    rep = max_dp_ratio(a, wm, 1.0, root, depth, mode="exhaustive", budget_L=L)
    assert rep.worst_ratio == pytest.approx(best, rel=1e-9)


def test_random_mode_is_lower_bound():
    rng = np.random.default_rng(3)
    depth = 4
    mu = rng.uniform(0.1, 1.0, 16)
    wm = rng.uniform(0.1, 1.0, 16)
    a = FractionalFunctional(0.5, 2.0, mu, wm, UNIT1, depth)
    root = CubeIndex.root(1)
    exact = max_dp_ratio(a, wm, 2.0, root, depth, mode="exhaustive",
                         budget_L=2.0)
    rnd = max_dp_ratio(a, wm, 2.0, root, depth, mode="random", trials=200,
                       seed=0, budget_L=2.0)
    assert rnd.worst_ratio <= exact.worst_ratio + 1e-12
    assert rnd.trials == 200


@given(st.integers(0, 2 ** 31 - 1), st.floats(1.01, 16.0))
@settings(max_examples=80, deadline=None)
def test_random_small_family_invariants(seed, L):
    rng = np.random.default_rng(seed)
    Q = CubeIndex(1, (1,))
    depth = 5
    fam = random_small_family(Q, L, rng, depth)
    used = fam.validate(depth)  # raises on overlap/outside/budget breach
    assert used <= 16 / L + 1e-9


def test_random_small_family_fills_budget_when_L_near_one():
    rng = np.random.default_rng(4)
    best = 0.0
    for _ in range(20):
        fam = random_small_family(CubeIndex.root(1), 1.01, rng, 6)
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


def test_unknown_mode_is_rejected():
    # a mode other than exhaustive or random must not fall through to the
    # sampler
    a = unweighted_functional(1.0, 1.0, 1, 3)
    m = lebesgue_masses(1, 3)
    with pytest.raises(FunctionalError):
        max_dp_ratio(a, m, 1.0, CubeIndex.root(1), 3, mode="greedy")
    with pytest.raises(FunctionalError):
        sdp_check(a, m, 1.0, CubeIndex.root(1), 3, [2.0], mode="greedy")


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
    w = CubeSums(lebesgue_masses(1, depth), depth)
    root = CubeIndex.root(1)
    fam = [CubeIndex(2, (0,))]
    grown = fam + [CubeIndex(2, (3,))]
    assert dp_ratio(a, w, 1.0, grown, root) > dp_ratio(a, w, 1.0, fam, root)


def test_report_to_dict_roundtrips_witness():
    depth = 3
    a = unweighted_functional(1.0, 1.0, 1, depth)
    rep = max_dp_ratio(a, lebesgue_masses(1, depth), 1.0, CubeIndex.root(1),
                       depth, mode="exhaustive", budget_L=2.0)
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
    w = CubeSums(np.asarray(w_masses, dtype=float), depth)
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


def five_functionals(rng, n, depth, p):
    """One functional of each class on a seeded depth-``depth`` grid."""
    root = RootBox.unit(n)
    shape = (1 << depth,) * n
    mu, wm = rng.uniform(0.1, 1.0, shape), rng.uniform(0.1, 1.0, shape)
    grad = discrete_gradient(GridFunction(root, depth,
                                          rng.normal(size=shape)))
    cs = CubeSums(mu, depth)
    table = {q: cs.mass(q) ** (1.0 / p) for q in all_cubes(n, depth)}
    return [FractionalFunctional(0.7, p, mu, wm, root, depth),
            GradientFunctional(1, p, grad, wm, mu, scale=0.3),
            LorentzGradientFunctional(p, grad, wm),
            IncreasingFunctional(table, root, depth),
            ConstantFunctional(1.7, root, depth)], wm


def cubes_to_check(n, depth):
    root = CubeIndex.root(n)
    return [root, root.children()[-1], CubeIndex(2, (1,) * n)][:depth]


@pytest.mark.parametrize("n,depth", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_level_dp_equals_per_node_dp(n, depth, p):
    rng = np.random.default_rng(40 + 10 * n + int(p))
    functionals, wm = five_functionals(rng, n, depth, p)
    for a in functionals:
        for Q in cubes_to_check(n, depth):
            cells = (1 << (depth - Q.level)) ** n
            for L in (None, 1.5, 2.0, 3.0, float(cells), 2.0 * cells):
                rep = max_dp_ratio(a, wm, p, Q, depth, budget_L=L)
                ratio, witness = reference_max_dp_ratio(a, wm, p, Q, depth,
                                                        budget_L=L)
                assert rep.worst_ratio == ratio
                assert rep.witness == witness


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
        rep = max_dp_ratio(a, wm, p, Q, depth, budget_L=budget_L)
        assert (rep.worst_ratio, rep.witness) == \
            reference_max_dp_ratio(a, wm, p, Q, depth, budget_L=budget_L)


@pytest.mark.parametrize("n,depth,Ls", [(1, 6, [2.0, 3.0, 4.0, 8.0]),
                                        (2, 3, [4.0, 16.0, 5.0]),
                                        (3, 2, [8.0, 2.0])])
def test_exhaustive_sdp_check_equals_per_L_max_dp_ratio(n, depth, Ls):
    rng = np.random.default_rng(n)
    functionals, wm = five_functionals(rng, n, depth, 1.0)
    for a in functionals:
        for Q in cubes_to_check(n, depth):
            rep = sdp_check(a, wm, 1.0, Q, depth, Ls, mode="exhaustive")
            per_L = {L: max_dp_ratio(a, wm, 1.0, Q, depth, budget_L=L)
                     for L in Ls}
            assert rep.per_L == {L: r.worst_ratio for L, r in per_L.items()}
            worst = max(sorted(Ls), key=lambda L: per_L[L].worst_ratio)
            assert rep.worst_ratio == per_L[worst].worst_ratio
            assert rep.witness == per_L[worst].witness


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
    functionals, wm = five_functionals(rng, 1, depth, 2.0)
    for a in functionals:
        reports = [sdp_check(a, wm, 2, CubeIndex.root(1), depth, [2, 4.0],
                             trials=20, mode=mode),
                   max_dp_ratio(a, wm, 2, CubeIndex.root(1), depth,
                                mode=mode, trials=20, budget_L=2.0)]
        for rep in reports:
            d = rep.to_dict()
            floats = [d["exponent"], d["worst_ratio"], *d["per_L"].values()]
            if d["smallness_slope"] is not None:
                floats += [d["smallness_slope"], d["fit_residual"]]
            assert all(type(v) is float for v in floats), d
