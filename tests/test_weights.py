"""Weight representations and weight-class constants."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import weights
from poincarelab.grid import (CubeIndex, GridError, GridFunction, RootBox,
                              block_reduce)
from poincarelab.operators import centered_maximal_values, weak_norm_values
from poincarelab.weights import (GridWeight, PowerWeight,
                                 WeightError, _corner_singular_unit_integral,
                                 _extremum_levels, ainf_fujii_wilson,
                                 ap1_constant, ap_constant, constants_report,
                                 resolve, rh_exponent, rh_exponent_and_check,
                                 rhinf_constant, two_weight_ap)
from tests.conftest import assert_same_bits

# an inf or NaN mass or constant shows up as a RuntimeWarning on the way;
# it fails the test instead of passing silently
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

UNIT1 = RootBox.unit(1)
STEP = np.array([1.0, 3.0])


# -- per-cube reference implementations of the family constants ----------

def _family_slices(shape, depth, shifted):
    """(cube, slices) per member of the cube family in walk order: each
    level's aligned cubes, then its half-shifted cubes (0 < level < depth)
    when ``shifted``, which start at odd multiples of half the side."""
    N, n = shape[0], len(shape)
    for level in range(depth + 1):
        b = N >> level
        for coords in itertools.product(range(1 << level), repeat=n):
            yield (CubeIndex(level, coords),
                   tuple(slice(c * b, (c + 1) * b) for c in coords))
        if shifted and 0 < level < depth:
            for coords in itertools.product(range((1 << level) - 1),
                                            repeat=n):
                yield (("shifted", level, coords),
                       tuple(slice(b // 2 + c * b, b // 2 + (c + 1) * b)
                             for c in coords))


def ainf_reference(wv, depth, shifted=False):
    """Fujii-Wilson A_inf, one centered maximal per cube of the family; each
    cube's cells are copied out contiguously, as the batched stack holds
    them, so that its mean sums in the same order."""
    best = -np.inf
    for _, sl in _family_slices(wv.shape, depth, shifted):
        block = np.ascontiguousarray(wv[sl])
        best = max(best, float(centered_maximal_values(block).mean()
                               / block.mean()))
    return best


def ap1_reference(wv, p, root, depth, shifted=False):
    """A_{p,1}, one weak-norm evaluation per cube of the family."""
    cellvol = (root.side / wv.shape[0]) ** wv.ndim
    pprime = p / (p - 1.0)
    best = -np.inf
    for _, sl in _family_slices(wv.shape, depth, shifted):
        block = np.ascontiguousarray(wv[sl])
        vol = block.size * cellvol
        wk = weak_norm_values((1.0 / block).ravel(),
                              (block * cellvol / vol).ravel(), pprime)
        best = max(best, float(block.mean() * wk ** p))
    return best


def _block_mean(block):
    """Mean of one cube's cells in the summation order of numpy's reduction
    over the split axes: each contiguous run of cells pairwise (the whole
    cube if it is contiguous, else one last-axis row), then the run sums
    one after another in row-major order."""
    run = block.size if block.flags.c_contiguous else block.shape[-1]
    total = 0.0
    for run_sum in block.reshape(-1, run).sum(axis=1):
        total += run_sum
    return total / block.size


def _per_cube(reductions, depth, shifted):
    """The cubes in walk order and, per (array, reduction), the array of
    its per-cube values, one explicit slice at a time."""
    shape = reductions[0][0].shape
    cubes, cols = [], [[] for _ in reductions]
    for cube, sl in _family_slices(shape, depth, shifted):
        cubes.append(cube)
        for col, (arr, op) in zip(cols, reductions):
            col.append(op(arr[sl]))
    return cubes, [np.array(col) for col in cols]


# the powers below act on whole arrays, as in the library, because numpy's
# vectorized power may differ in the last bit from the scalar one

def ap_reference(wv, p, depth, shifted):
    """(A_p, attaining cube): the first maximum in walk order."""
    if p == 1:
        cubes, (A, B) = _per_cube([(wv, _block_mean), (wv, np.amin)], depth,
                                  shifted)
        vals = A / B
    else:
        pprime = p / (p - 1.0)
        cubes, (A, B) = _per_cube([(wv, _block_mean),
                                   (wv ** (1.0 - pprime), _block_mean)],
                                  depth, shifted)
        vals = A * B ** (p - 1.0)
    i = int(np.argmax(vals))
    return float(vals[i]), cubes[i]


def two_weight_reference(uv, vv, p, depth, shifted):
    pprime = p / (p - 1.0)
    _, (A, B) = _per_cube([(uv, _block_mean),
                           (vv ** (1.0 - pprime), _block_mean)],
                          depth, shifted)
    return float(np.max(A * B ** (p - 1.0)))


def rhinf_reference(wv, depth, shifted):
    _, (A, B) = _per_cube([(wv, np.amax), (wv, _block_mean)], depth, shifted)
    return float(np.max(A / B))


def rh_check_reference(wv, depth, shifted=False):
    rw = rh_exponent(ainf_reference(wv, depth, shifted), wv.ndim)
    _, (A, B) = _per_cube([(wv ** rw, _block_mean), (wv, _block_mean)],
                          depth, shifted)
    worst = float(np.max(A / B ** rw))
    return rw, worst, worst <= 2.0


# (n, depth) pairs small enough for the per-cube references
SIZES = ((1, 1), (1, 4), (1, 7), (2, 1), (2, 3), (2, 5), (3, 1), (3, 3))


def _oracle_weights(seed, n, depth):
    rng = np.random.default_rng(seed)
    lognormal = np.exp(rng.normal(0.0, rng.uniform(0.2, 2.0),
                                  (1 << depth,) * n))
    root = RootBox.symmetric(n)
    delta = float(rng.choice([0.125, 0.25, 0.5, 1.0]))
    # power weights have many exactly tied cells (the grid is symmetric)
    power = PowerWeight(delta, n, root).cell_values(root, depth)
    return [(lognormal, RootBox.unit(n)), (power, root)]


def _assert_batched_matches_reference(seed, n, depth):
    for (wv, root), shifted in itertools.product(
            _oracle_weights(seed, n, depth), (False, True)):
        assert ainf_fujii_wilson(wv, root, depth, shifted) == \
            ainf_reference(wv, depth, shifted)
        for p in (1.5, 2.0, 3.0):
            assert ap1_constant(wv, p, root, depth, shifted) == \
                ap1_reference(wv, p, root, depth, shifted)


@pytest.mark.parametrize("n,depth", SIZES)
def test_batched_constants_match_per_cube_reference(n, depth):
    for seed in range(3):
        _assert_batched_matches_reference(seed, n, depth)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(SIZES))
@settings(max_examples=30, deadline=None)
def test_batched_constants_match_reference_hypothesis(seed, size):
    _assert_batched_matches_reference(seed, *size)


def test_batched_constants_equal_reference_bitwise():
    # the batch repeats each cube's arithmetic in the same order; with
    # numpy's vectorized power for wk ** p, about one A_{p,1} value in
    # twenty here would differ in the last bit
    for n, depth in ((1, 7), (2, 4), (3, 2)):
        for wv, root in _oracle_weights(17, n, depth):
            assert ainf_fujii_wilson(wv, root, depth) == \
                ainf_reference(wv, depth)
        for seed in range(30):
            wv, root = _oracle_weights(seed, n, depth)[0]
            for p in (1.5, 3.0):
                assert ap1_constant(wv, p, root, depth) == \
                    ap1_reference(wv, p, root, depth)


@pytest.mark.parametrize("n,depth", SIZES)
@pytest.mark.parametrize("shifted", (False, True))
def test_family_constants_equal_per_cube_reference(n, depth, shifted):
    for seed in range(2):
        weights = _oracle_weights(seed, n, depth)
        for wv, root in weights:
            for p in (1.0, 1.5, 2.0, 3.0):
                assert ap_constant(wv, p, root, depth, shifted,
                                   return_argmax=True) == \
                    ap_reference(wv, p, depth, shifted)
            assert rhinf_constant(wv, root, depth, shifted) == \
                rhinf_reference(wv, depth, shifted)
            report = constants_report(wv, 2.0, root, depth, shifted)
            assert (report.rh_exponent, report.rh_worst_ratio,
                    report.rh_pass) == rh_check_reference(wv, depth, shifted)
            assert rh_exponent_and_check(wv, root, depth) == \
                rh_check_reference(wv, depth)
        if shifted:     # two_weight_ap takes the aligned cubes only
            continue
        (uv, root), (vv, _) = weights
        for p in (1.5, 2.0, 3.0):
            assert two_weight_ap(uv, vv, p, root, depth) == \
                two_weight_reference(uv, vv, p, depth, False)


def test_shifted_argmax_names_a_shifted_cube():
    # a high/low pair straddling the centre is split by every aligned cube
    wv = np.ones(16)
    wv[7], wv[8] = 100.0, 0.01
    ap, arg = ap_constant(wv, 2.0, UNIT1, 4, shifted=True,
                          return_argmax=True)
    # cells [7, 9): the level-3 half-shifted cube with coordinate 3
    assert arg == ("shifted", 3, (3,))
    assert ap == pytest.approx(50.005 ** 2, rel=1e-12)
    assert ap_constant(wv, 2.0, UNIT1, 4) < 100.0


def test_argmax_tie_goes_to_the_cube_walked_first():
    # cells [6, 8) = (4, 1) and the half-shifted [5, 7) = (1, 4) tie for
    # the maximum; a level's aligned cubes are walked before its shifted
    wv = np.ones(8)
    wv[6] = 4.0
    found = ap_constant(wv, 2.0, UNIT1, 3, shifted=True, return_argmax=True)
    assert found == (1.5625, CubeIndex(2, (3,)))
    assert found == ap_reference(wv, 2.0, 3, shifted=True)


def test_shifted_family_raises_ainf_of_a_straddling_weight():
    # a high/low pair straddling the centre: a half-shifted cube around it
    # has a larger Fujii-Wilson ratio than any aligned cube
    wv = np.ones(16)
    wv[7], wv[8] = 10.0, 0.01
    aligned = constants_report(wv, 2.0, UNIT1, 4)
    shifted = constants_report(wv, 2.0, UNIT1, 4, shifted=True)
    assert shifted.ainf_fw > aligned.ainf_fw
    assert shifted.ainf_fw == ainf_reference(wv, 4, shifted=True)
    assert (shifted.rh_exponent, shifted.rh_worst_ratio, shifted.rh_pass) == \
        rh_check_reference(wv, 4, shifted=True)
    assert shifted.ap1 == ap1_reference(wv, 2.0, UNIT1, 4, shifted=True)


def test_report_rh_exponent_uses_report_ainf():
    for n, depth in ((1, 6), (2, 4)):
        wv, root = _oracle_weights(4, n, depth)[0]
        rep = constants_report(wv, 2.0, root, depth)
        assert rep.ainf_fw == ainf_fujii_wilson(wv, root, depth)
        assert rep.rh_exponent == rh_exponent(rep.ainf_fw, n)
        rw, worst, ok = rh_exponent_and_check(wv, root, depth)
        assert (rep.rh_exponent, rep.rh_worst_ratio, rep.rh_pass) == \
            (rw, worst, ok)


def _separate_constants(wv, p, root, depth, shifted):
    """The report's fields from the separate public functions."""
    ap, arg = ap_constant(wv, p, root, depth, shifted, return_argmax=True)
    ainf = ainf_fujii_wilson(wv, root, depth, shifted)
    fields = {"p": p, "ap": ap, "ap_argmax": arg,
              "a1": ap_constant(wv, 1.0, root, depth, shifted),
              "ainf_fw": ainf,
              "ap1": (ap1_constant(wv, p, root, depth, shifted) if p > 1
                      else None),
              "rhinf": rhinf_constant(wv, root, depth, shifted)}
    if not shifted:     # the check alone takes the aligned cubes only
        fields["rh"] = rh_exponent_and_check(wv, root, depth)
    return fields


@pytest.mark.parametrize("n,depth", ((1, 1), (1, 6), (2, 1), (2, 4), (3, 3)))
@pytest.mark.parametrize("shifted", (False, True))
def test_report_equals_the_separate_constants(n, depth, shifted):
    for seed in range(2):
        for wv, root in _oracle_weights(seed, n, depth):
            for p in (1.0, 1.5, 2.0, 3.0):
                rep = constants_report(wv, p, root, depth, shifted)
                want = _separate_constants(wv, p, root, depth, shifted)
                got = {"p": rep.p, "ap": rep.ap, "ap_argmax": rep.ap_argmax,
                       "a1": rep.a1, "ainf_fw": rep.ainf_fw,
                       "ap1": None if p == 1 else rep.ap1,
                       "rhinf": rep.rhinf}
                if not shifted:
                    got["rh"] = (rep.rh_exponent, rep.rh_worst_ratio,
                                 rep.rh_pass)
                assert got == want
                assert rep.family == weights.FamilyDescriptor(depth, shifted)
                assert rep.rh_exponent == rh_exponent(rep.ainf_fw, n)


def test_report_names_a_shifted_argmax_as_ap_constant_does():
    wv = np.ones(16)
    wv[7], wv[8] = 100.0, 0.01
    rep = constants_report(wv, 2.0, UNIT1, 4, shifted=True)
    assert rep.ap_argmax == ("shifted", 3, (3,))
    assert (rep.ap, rep.ap_argmax) == ap_constant(wv, 2.0, UNIT1, 4, True,
                                                  return_argmax=True)


@pytest.mark.parametrize("p", (1.0, 2.0))
@pytest.mark.parametrize("shifted", (False, True))
def test_report_reduces_each_member_once(monkeypatch, p, shifted):
    # each family member's mean of w is reduced once per report, and its
    # cubes are laid out once, for A_inf and A_{p,1} together
    n, depth = 2, 4
    wv = _oracle_weights(5, n, depth)[0][0]
    means, layouts = [], []
    block_reduce_, level_blocks_ = weights.block_reduce, weights.level_blocks

    def counted_reduce(values, level, op, sh=False):
        if values is wv and op is np.mean:
            means.append((level, sh))
        return block_reduce_(values, level, op, sh)

    def counted_blocks(values, level, sh=False):
        assert values is wv
        layouts.append((level, sh))
        return level_blocks_(values, level, sh)

    monkeypatch.setattr(weights, "block_reduce", counted_reduce)
    monkeypatch.setattr(weights, "level_blocks", counted_blocks)
    constants_report(wv, p, RootBox.unit(n), depth, shifted)
    members = [(level, sh) for level in range(depth + 1)
               for sh in ((False, True) if shifted and 0 < level < depth
                          else (False,))]
    assert means == members
    assert layouts == members


def test_single_constant_holds_one_member_at_a_time():
    # A_1 alone on 2D depth 8, as the sharpness sweep takes it: the min
    # pyramid above the cells (a third of a grid), then per member its
    # means, divided in place into its values, beside the last member's
    # values; sharing the means with other constants would add a grid
    wv = np.random.default_rng(0).lognormal(size=(256, 256))
    grid = wv.nbytes
    ap_constant(wv, 1.0, RootBox.unit(2), 8)
    tracemalloc.start()
    try:
        ap_constant(wv, 1.0, RootBox.unit(2), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid < peak <= grid * (1 + 1 / 3 + 1 / 4) + 2 ** 16


def test_ap_two_value_oracle():
    # avg w = 2, avg 1/w = 2/3 on the root; both cells give 1
    assert ap_constant(STEP, 2.0, UNIT1, 1) == pytest.approx(4 / 3, abs=1e-12)
    # A_1: avg w * max(1/w) = 2 * 1
    assert ap_constant(STEP, 1.0, UNIT1, 1) == pytest.approx(2.0, abs=1e-12)


def test_ap_identity_weight_is_one():
    for n, depth in ((1, 6), (2, 3)):
        w = np.ones((2 ** depth,) * n)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert ap_constant(w, p, RootBox.unit(n), depth) == \
                pytest.approx(1.0, abs=1e-12)


def test_ap_decreasing_in_p(small_weight_corpus):
    for wv, root, depth in small_weight_corpus[:6]:
        vals = [ap_constant(wv, p, root, depth) for p in (1, 1.5, 2, 3, 4)]
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))
        assert all(v >= 1.0 - 1e-12 for v in vals)


def test_ap_argmax_reproduces_supremum():
    rng = np.random.default_rng(2)
    wv = np.exp(rng.normal(0, 1, 32))
    ap, arg = ap_constant(wv, 2.0, UNIT1, 5, return_argmax=True)
    assert isinstance(arg, CubeIndex)
    f = GridFunction(UNIT1, 5, wv)
    blk = f.values[f.block(arg)]
    assert blk.mean() * (1.0 / blk).mean() == pytest.approx(ap, rel=1e-12)


def _near_one_weight():
    # lognormal sigma = 1.5 at 1D depth 8: its smallest cells raised to
    # 1 - p' = -1000 overflow at p = 1.001, but not at p = 1.01
    return np.random.default_rng(3).lognormal(0.0, 1.5, 256)


def test_ap_refuses_an_overflowing_dual_weight():
    wv = _near_one_weight()
    with pytest.raises(WeightError, match="not finite"):
        ap_constant(wv, 1.001, UNIT1, 8)
    with pytest.raises(WeightError, match="not finite"):
        two_weight_ap(np.ones(256), wv, 1.001, UNIT1, 8)
    with pytest.raises(WeightError, match="not finite"):
        constants_report(wv, 1.001, UNIT1, 8)
    # u alone overflows nothing: only v is raised to 1 - p'
    assert np.isfinite(two_weight_ap(wv, np.ones(256), 1.001, UNIT1, 8))


def test_ap_near_one_keeps_its_bits_where_finite():
    wv = _near_one_weight()
    ap, arg = ap_constant(wv, 1.01, UNIT1, 8, return_argmax=True)
    assert np.isfinite(ap) and (ap, arg) == ap_reference(wv, 1.01, 8, False)
    assert two_weight_ap(wv, wv, 1.01, UNIT1, 8) == \
        two_weight_reference(wv, wv, 1.01, 8, False)


def test_two_weight_oracle():
    u = np.array([1.0, 3.0])
    v = np.array([3.0, 1.0])
    assert two_weight_ap(u, v, 2.0, UNIT1, 1) == pytest.approx(3.0, abs=1e-12)


def test_two_weight_equal_weights_matches_ap(small_weight_corpus):
    for wv, root, depth in small_weight_corpus[:4]:
        assert two_weight_ap(wv, wv, 2.0, root, depth) == \
            pytest.approx(ap_constant(wv, 2.0, root, depth), rel=1e-12)


def test_rhinf_oracle():
    assert rhinf_constant(STEP, UNIT1, 1) == pytest.approx(1.5, abs=1e-12)
    assert rhinf_constant(np.ones(8), UNIT1, 3) == 1.0


def test_ainf_identity_and_step_oracle():
    assert ainf_fujii_wilson(np.ones(16), UNIT1, 4) == pytest.approx(1.0)
    # depth-1 step (1,3): root integrand is (2,3) by direct enumeration of
    # the clipped centered windows, children give 1
    assert ainf_fujii_wilson(STEP, UNIT1, 1) == pytest.approx(1.25, abs=1e-12)


def test_ainf_comparable_to_ap(small_weight_corpus):
    # the centered-window supremum can exceed the dyadic A_p value, but
    # only by a dimensional factor
    for wv, root, depth in small_weight_corpus:
        ainf = ainf_fujii_wilson(wv, root, depth)
        assert ainf >= 1.0 - 1e-12
        for p in (2.0, 3.0):
            assert ainf <= 2 ** wv.ndim * ap_constant(wv, p, root, depth)


def test_rh_exponent_formula():
    # ainf = 1 in dimension n gives 1 + 1/(2**(n+1) - 1)
    assert rh_exponent(1.0, 1) == pytest.approx(4 / 3, abs=1e-15)
    assert rh_exponent(1.0, 2) == pytest.approx(8 / 7, abs=1e-15)
    assert rh_exponent(2.0, 1) > 1.0
    # larger ainf means a smaller self-improvement exponent
    assert rh_exponent(2.0, 1) < rh_exponent(1.0, 1)


def test_rh_check_on_step():
    rw, worst, ok = rh_exponent_and_check(STEP, UNIT1, 1)
    assert ok and worst <= 2.0 + 1e-12


def test_ap1_oracles():
    assert ap1_constant(np.ones(16), 2.0, UNIT1, 4) == pytest.approx(1.0)
    # step (1,3), p=2: the weak-L^2 norm of 1/w in (Q, w dx/|Q|) equals 1
    # on every cube (computed from the two-value distribution directly)
    assert ap1_constant(STEP, 2.0, UNIT1, 1) == pytest.approx(1.0, abs=1e-12)


def test_ap1_refuses_an_overflowing_power(monkeypatch):
    # the weak norm k of 1/w on a cube has k^p <= 1/min w, finite for a
    # normal weight, so the overflow Python's pow raised on is made here by
    # scaling k before the power
    real = weights.float_pow
    monkeypatch.setattr(weights, "float_pow",
                        lambda base, exponent, error:
                        real(base * 1e300, exponent, error))
    with pytest.raises(WeightError, match="to the power 3.0 overflows"):
        ap1_constant(STEP, 3.0, UNIT1, 1)


def test_ap1_below_ap(small_weight_corpus):
    for wv, root, depth in small_weight_corpus:
        for p in (1.5, 2.0, 3.0):
            assert ap1_constant(wv, p, root, depth) <= \
                ap_constant(wv, p, root, depth) * (1 + 1e-9)


def test_corner_integral_1d_closed_form():
    for delta in (0.5, 0.25, 1.0):
        assert _corner_singular_unit_integral(1, delta) == \
            pytest.approx(1.0 / delta, rel=1e-4)


def test_corner_integral_2d_regular_case():
    # delta = n makes the integrand identically 1
    assert _corner_singular_unit_integral(2, 2.0) == pytest.approx(1.0,
                                                                   rel=1e-9)


def reference_power_masses(delta, n, depth, root):
    """PowerWeight cell masses for n >= 2 and depth >= 1: the midpoint rule
    on a stacked meshgrid of every cell's lower corner, the cells touching
    the origin found by a tolerance mask and given the corner integral."""
    N = 1 << depth
    h = root.side / N
    edges = root.lower[0] + h * np.arange(N + 1)
    lows = np.stack(np.meshgrid(*([edges[:-1]] * n), indexing="ij"), axis=-1)
    mids = lows + h / 2.0
    r = np.sqrt(np.sum(mids * mids, axis=-1))
    masses = (r ** (delta - n)) * h ** n
    touching = np.all(np.abs(lows + np.where(lows < 0, h, 0.0)) < h * 1e-9,
                      axis=-1)
    masses[touching] = (h ** delta) * weights._corner_singular_unit_integral(
        n, delta)
    return masses


MASS_DELTAS = (0.05, 0.125, 0.25, 0.5, 0.9, 1.0)


def _cheap_4d_corner(monkeypatch, n):
    """In 4D the corner integral costs seconds per delta; both sides of a
    comparison read the same stand-in value instead."""
    if n == 4:
        monkeypatch.setattr(weights, "_corner_singular_unit_integral",
                            lambda n, gamma: 1.0 + gamma / n)


@pytest.mark.parametrize("n,depth", [(2, d) for d in range(1, 10)]
                         + [(3, d) for d in range(1, 7)]
                         + [(4, d) for d in range(1, 5)])
def test_mirrored_power_masses_equal_meshgrid_reference(monkeypatch, n,
                                                        depth):
    _cheap_4d_corner(monkeypatch, n)
    root = RootBox.symmetric(n)
    for delta in MASS_DELTAS:
        masses = PowerWeight(delta, n, root).cell_masses(root, depth)
        ref = reference_power_masses(delta, n, depth, root)
        assert masses.shape == ref.shape
        assert masses.tobytes() == ref.tobytes()


def reference_concatenated_power_masses(delta, n, depth, root):
    """PowerWeight cell masses for n >= 2 and depth >= 1, the orthant
    mirrored by n ``np.concatenate`` calls, one per axis."""
    N = 1 << depth
    h = root.side / N
    mids = root.lower[0] + h * np.arange(N // 2, N) + h / 2.0
    sq = mids * mids
    r2 = sq
    for _ in range(1, n):
        r2 = r2[..., None] + sq
    masses = (np.sqrt(r2) ** (delta - n)) * h ** n
    masses[(0,) * n] = (h ** delta) * weights._corner_singular_unit_integral(
        n, delta)
    for axis in range(n):
        masses = np.concatenate([np.flip(masses, axis), masses], axis=axis)
    return masses


@pytest.mark.parametrize("n,depth", [(2, d) for d in (1, 2, 5, 8)]
                         + [(3, d) for d in (1, 2, 4)] + [(4, 1), (4, 3)])
def test_mirrored_power_masses_equal_concatenated_reference(monkeypatch, n,
                                                            depth):
    _cheap_4d_corner(monkeypatch, n)
    for root in (RootBox.symmetric(n), RootBox((-0.15,) * n, 0.3)):
        for delta in MASS_DELTAS:
            assert_same_bits(
                PowerWeight(delta, n, root).cell_masses(root, depth),
                reference_concatenated_power_masses(delta, n, depth, root))


def test_mirrored_power_masses_on_a_non_dyadic_side():
    # cell edges that are not exact binary fractions: the reflected
    # orthant is exactly symmetric, where midpoints computed on the
    # negative side may round differently in the last bits
    for n, depth in ((2, 5), (3, 3)):
        root = RootBox((-0.15,) * n, 0.3)
        masses = PowerWeight(0.5, n, root).cell_masses(root, depth)
        for axis in range(n):
            assert np.array_equal(masses, np.flip(masses, axis))
        assert np.allclose(masses, reference_power_masses(0.5, n, depth, root),
                           rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_power_weight_depth_zero_is_exact_and_finite(monkeypatch, n):
    # the single depth-0 cell contains the origin
    _cheap_4d_corner(monkeypatch, n)
    root = RootBox.symmetric(n)
    for delta in MASS_DELTAS:
        w = PowerWeight(delta, n, root)
        mass = w.cell_masses(root, 0)
        assert mass.shape == (1,) * n and np.all(np.isfinite(mass))
        assert mass.sum() == pytest.approx(w.cell_masses(root, 1).sum(),
                                           rel=1e-12)
        wv = w.cell_values(root, 0)
        for p in (1.0, 1.5, 2.0):
            assert ap_constant(wv, p, root, 0) == pytest.approx(1.0, rel=1e-12)
        assert rhinf_constant(wv, root, 0) == pytest.approx(1.0, rel=1e-12)


# extrema with their block_reduce counterparts; no -0.0 in the inputs,
# because which of two equal zeros an extremum returns depends on the order
EXTREMA = ((np.minimum, np.amin), (np.maximum, np.amax))
TIES = (0.0, 1e-300, 1.0, 2.5, -3.0, np.inf, -np.inf, np.nan)


def _assert_extremum_levels_equal_block_reduce(values):
    depth = values.shape[0].bit_length() - 1
    for op, reduction in EXTREMA:
        per_cube = _extremum_levels(values, op)
        for level in range(depth + 1):
            for sh in (False, True) if 0 < level < depth else (False,):
                got = per_cube(level, sh)
                ref = block_reduce(values, level, reduction, sh)
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n,depth", ((1, 0), (1, 7), (2, 0), (2, 5), (3, 3),
                                     (4, 2)))
def test_extremum_levels_equal_block_reduce(n, depth):
    rng = np.random.default_rng([n, depth])
    shape = (1 << depth,) * n
    _assert_extremum_levels_equal_block_reduce(rng.lognormal(size=shape))
    ties = np.array(TIES)
    for _ in range(5):
        _assert_extremum_levels_equal_block_reduce(
            ties[rng.integers(0, len(ties), shape)])


# one canonical NaN, no -0.0 (adding +0.0 turns it into 0.0)
_cell = st.one_of(st.sampled_from(TIES), st.floats()).map(
    lambda x: np.nan if x != x else x + 0.0)


@given(st.sampled_from(((1, 5), (2, 3), (3, 2))), st.data())
@settings(max_examples=40, deadline=None)
def test_extremum_levels_equal_block_reduce_hypothesis(size, data):
    n, depth = size
    cells = (1 << depth) ** n
    values = data.draw(st.lists(_cell, min_size=cells, max_size=cells))
    _assert_extremum_levels_equal_block_reduce(
        np.array(values).reshape((1 << depth,) * n))


def test_power_weight_total_mass_1d():
    root = RootBox.symmetric(1)
    for delta in (0.5, 0.25):
        w = PowerWeight(delta, 1, root)
        masses = w.cell_masses(root, 6)
        assert masses.sum() == pytest.approx(2.0 / delta, rel=1e-10)


def test_power_weight_refuses_a_root_of_another_dimension():
    for delta, n, box_n in ((0.5, 2, 1), (0.5, 3, 2), (0.25, 1, 2)):
        with pytest.raises(WeightError, match=f"dimension n={n} on a root "
                                              f"box of dimension {box_n}"):
            PowerWeight(delta, n, RootBox.symmetric(box_n))


def test_power_weight_reduces_to_lebesgue():
    # delta = n = 1 gives the constant weight 1
    root = RootBox.symmetric(1)
    w = PowerWeight(1.0, 1, root)
    masses = w.cell_masses(root, 3)
    assert np.allclose(masses, root.side / 8, rtol=1e-12)


def test_power_weight_mass_additivity():
    root = RootBox.symmetric(2)
    w = PowerWeight(0.5, 2, root)
    coarse = w.cell_masses(root, 3)
    fine = w.cell_masses(root, 4)
    agg = fine.reshape(8, 2, 8, 2).sum(axis=(1, 3))
    # midpoint quadrature per level: additivity holds up to quadrature
    # error, which concentrates near the singularity
    assert np.allclose(agg, coarse, rtol=5e-2)
    assert agg.sum() == pytest.approx(coarse.sum(), rel=5e-3)


def test_power_weight_refinement_stability():
    root = RootBox.symmetric(2)
    w = PowerWeight(0.5, 2, root)
    # the mass of the level-1 cube (0, 0), which touches the singularity,
    # as a block sum of the cell masses at depths 5 and 7
    m1 = w.cell_masses(root, 5)[:16, :16].sum()
    m2 = w.cell_masses(root, 7)[:64, :64].sum()
    assert m1 == pytest.approx(m2, rel=1e-2)


def test_resolve_accepts_arrays_refuses_objects():
    assert resolve(STEP, UNIT1, 1) is STEP
    gw = GridWeight(GridFunction(UNIT1, 1, STEP))
    assert np.array_equal(gw.cell_values(UNIT1, 1), STEP)
    for obj in (gw, gw.g, PowerWeight(0.5, 1)):
        with pytest.raises(GridError, match="must be an array"):
            resolve(obj, UNIT1, 1)


@pytest.mark.parametrize("call", [
    lambda w, root, depth: ap_constant(w, 2.0, root, depth),
    lambda w, root, depth: constants_report(w, 2.0, root, depth),
], ids=["ap_constant", "constants_report"])
@pytest.mark.parametrize("root, depth", [(UNIT1, 3), (RootBox.unit(2), 6)],
                         ids=["shallower", "2d-root"])
def test_weight_array_off_its_grid_is_refused(call, root, depth):
    # read at depth 3, a depth-6 1D array would give a supremum over its
    # four coarsest levels only
    w = np.exp(np.random.default_rng(23).normal(0.0, 1.0, 64))
    with pytest.raises(GridError, match=r"got \(64,\)"):
        call(w, root, depth)
    assert ap_constant(w, 2.0, UNIT1, 6) > 1.0


def test_shifted_family_only_increases_sup():
    rng = np.random.default_rng(3)
    wv = np.exp(rng.normal(0, 1, 64))
    a0 = ap_constant(wv, 2.0, UNIT1, 6, shifted=False)
    a1 = ap_constant(wv, 2.0, UNIT1, 6, shifted=True)
    assert a1 >= a0 - 1e-12


def test_constants_report_bundle():
    rep = constants_report(STEP, 2.0, UNIT1, 1)
    d = rep.to_dict()
    assert d["ap"] == pytest.approx(4 / 3)
    assert d["a1"] == pytest.approx(2.0)
    assert d["rhinf"] == pytest.approx(1.5)
    assert d["rh_pass"] is True
    assert d["family"] == {"depth": 1, "shifted": False}
