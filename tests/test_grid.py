"""Dyadic cube trees and piecewise-constant grid functions."""

import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import grid
from poincarelab.grid import (MAX_CELL_EXPONENT, CubeIndex, GridError,
                              GridFunction, RootBox, block_reduce,
                              check_cell_cap,
                              discrete_gradient, float_pow,
                              lebesgue_masses, level_blocks,
                              measure_cell_masses, midpoint_axes, resolve,
                              sample)
from poincarelab.decomposition import oscillation
from poincarelab.functionals import (FractionalFunctional, FunctionalError,
                                     sdp_check)
from poincarelab.weights import (GridWeight, PowerWeight, ap_constant,
                                 resolve as weights_resolve)
from tests.conftest import OFF_GRID, assert_same_bits
from tests.oracles import all_cubes


def test_root_box_unit_and_symmetric():
    u = RootBox.unit(2)
    assert u.n == 2 and u.side == 1.0
    s = RootBox.symmetric(3)
    assert s.side == 2.0 and all(c == -1.0 for c in s.lower)


def test_root_box_dimension_cap():
    with pytest.raises(GridError):
        RootBox.unit(5)


@pytest.mark.parametrize("lower, side", [
    ((0.0,), math.inf), ((0.0,), math.nan), ((0.0,), 0.0),
    ((math.nan,), 1.0), ((0.0, -math.inf), 1.0)],
    ids=["side-inf", "side-nan", "side-0", "corner-nan", "corner-inf"])
def test_root_box_refuses_a_non_finite_side_or_corner(lower, side):
    with pytest.raises(GridError):
        RootBox(lower, side)


def test_cube_children_partition_volume():
    q = CubeIndex.root(2)
    kids = q.children()
    assert len(kids) == 4
    assert all(k.level == 1 and all(c // 2 == 0 for c in k.coords)
               for k in kids)
    assert len({k.coords for k in kids}) == 4


def test_cell_count_cap():
    with pytest.raises(GridError):
        GridFunction(RootBox.unit(4), 7, np.zeros((128,) * 4))
    assert 4 * 6 <= MAX_CELL_EXPONENT


def test_cell_cap_is_checked_before_allocation():
    check_cell_cap(2, MAX_CELL_EXPONENT // 2)
    with pytest.raises(GridError):
        check_cell_cap(2, 30)
    pw = PowerWeight(0.25, 2)
    with pytest.raises(GridError):
        pw.cell_masses(pw.root, 30)
    with pytest.raises(GridError):
        sample(RootBox.unit(2), 30, lambda x, y: x + y)


def test_average_oracle():
    f = GridFunction(RootBox.unit(1), 2, np.array([4.0, 0.0, 0.0, 0.0]))
    assert f.average(CubeIndex.root(1)) == 1.0
    assert f.average(CubeIndex(1, (0,))) == 2.0
    assert f.average(CubeIndex(2, (0,))) == 4.0


def test_sample_midpoints_1d():
    f = sample(RootBox.unit(1), 2, lambda x: x)
    assert np.allclose(f.values, [1 / 8, 3 / 8, 5 / 8, 7 / 8])


def test_cell_midpoints_are_full_arrays_of_the_midpoint_axes():
    root = RootBox((-1.0, 0.25, 3.0), 0.75)
    f = GridFunction(root, 2, np.zeros(64))
    axes = midpoint_axes(root, 2)
    for i, (c, a) in enumerate(zip(f.cell_midpoints(), axes)):
        assert c.shape == (4, 4, 4) and c.flags.c_contiguous
        assert np.array_equal(np.moveaxis(c, i, 0)[:, 0, 0], a)
    assert np.array_equal(axes[1], 0.25 + 0.1875 * (np.arange(4) + 0.5))


def test_block_reduce_consistent_with_cube_averages():
    rng = np.random.default_rng(0)
    f = GridFunction(RootBox.unit(2), 3, rng.normal(size=(8, 8)))
    means = block_reduce(f.values, 1, np.mean)
    for q in all_cubes(2, 3, min_level=1):
        if q.level == 1:
            assert means[q.coords] == pytest.approx(f.average(q), abs=1e-12)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(((1, 5), (2, 3), (3, 2))))
@settings(max_examples=25, deadline=None)
def test_level_blocks_are_cube_blocks_in_row_major_order(seed, size):
    n, depth = size
    rng = np.random.default_rng(seed)
    f = GridFunction(RootBox.unit(n), depth,
                     rng.normal(size=(1 << depth,) * n))
    for level in range(depth + 1):
        stack = level_blocks(f.values, level)
        b = 1 << (depth - level)
        assert stack.shape == (1 << level,) * n + (b,) * n
        assert stack.flags.c_contiguous
        for q in all_cubes(n, level, min_level=level):
            assert np.array_equal(stack[q.coords], f.values[f.block(q)])


def _sliding_window_shifted(values, level, op):
    """Half-shifted block reduction through every b-window of the box,
    keeping the windows that start at odd multiples of b/2."""
    n, b = values.ndim, values.shape[0] >> level
    win = np.lib.stride_tricks.sliding_window_view(values, (b,) * n)
    sel = win[(slice(b // 2, None, b),) * n]
    return op(sel, axis=tuple(range(n, 2 * n)))


@pytest.mark.parametrize("n,depth", ((1, 5), (2, 4), (3, 3), (4, 2)))
def test_shifted_block_reduce_matches_explicit_slices(n, depth):
    rng = np.random.default_rng(n * 10 + depth)
    v = np.exp(rng.normal(0.0, 1.5, (1 << depth,) * n))
    for level in range(1, depth):
        b, m = v.shape[0] >> level, (1 << level) - 1
        view = block_reduce(v, level, lambda a, axis: a, shifted=True)
        assert np.shares_memory(view, v)
        reduced = {op: block_reduce(v, level, op, shifted=True)
                   for op in (np.mean, np.amin, np.amax, np.sum)}
        for op, got in reduced.items():
            assert got.shape == (m,) * n
            assert np.array_equal(got, _sliding_window_shifted(v, level, op))
        stack = level_blocks(v, level, shifted=True)
        assert stack.shape == (m,) * n + (b,) * n
        assert stack.flags.c_contiguous
        for coords in itertools.product(range(m), repeat=n):
            sl = tuple(slice(b // 2 + c * b, b // 2 + (c + 1) * b)
                       for c in coords)
            assert np.array_equal(stack[coords], v[sl])
            for op, got in reduced.items():
                if op in (np.amin, np.amax):
                    assert got[coords] == op(v[sl])
                else:
                    assert got[coords] == pytest.approx(op(v[sl]), rel=1e-13)


def test_shifted_block_reduce_needs_two_cells_per_side():
    with pytest.raises(GridError):
        block_reduce(np.ones((4, 4)), 2, np.mean, shifted=True)


def test_level_blocks_rejects_level_beyond_depth():
    with pytest.raises(GridError):
        level_blocks(np.zeros((4, 4)), 3)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_parent_average_is_mean_of_children(seed):
    rng = np.random.default_rng(seed)
    f = GridFunction(RootBox.unit(2), 3, rng.normal(size=(8, 8)))
    for q in all_cubes(2, 2):
        kid_avgs = [f.average(c) for c in q.children()]
        assert f.average(q) == pytest.approx(np.mean(kid_avgs), abs=1e-12)


def test_min_avg_max_sandwich():
    rng = np.random.default_rng(7)
    f = GridFunction(RootBox.unit(1), 5, rng.uniform(0.1, 9.0, 32))
    for q in all_cubes(1, 5):
        blk = f.values[f.block(q)]
        assert blk.min() - 1e-12 <= f.average(q) <= blk.max() + 1e-12


def test_gradient_oracle_1d():
    f = GridFunction(RootBox.unit(1), 2, np.array([0.0, 1.0, 1.0, 0.0]))
    g = discrete_gradient(f)
    assert np.allclose(g.values, [4.0, 0.0, 4.0, 4.0])


def reference_discrete_gradient(f, order):
    """The order-m gradient with a fresh array per step: the difference
    divided by h into a new array, the last difference concatenated, and
    the absolute value of each mixed difference taken into a new array."""
    h = f.cell_width

    def diff_axis(arr, axis):
        d = np.diff(arr, axis=axis) / h
        return np.concatenate([d, np.take(d, [-1], axis=axis)], axis=axis)

    total = np.zeros_like(f.values)
    for sigma in itertools.product(range(order + 1), repeat=f.n):
        if sum(sigma) != order:
            continue
        d = f.values
        for axis, k in enumerate(sigma):
            for _ in range(k):
                d = diff_axis(d, axis)
        total += np.abs(d)
    return total


@pytest.mark.parametrize("n,depth", [(1, 9), (2, 6), (3, 4)])
def test_gradient_equals_fresh_array_reference(n, depth):
    rng = np.random.default_rng(10 * n + depth)
    N = 1 << depth
    values = rng.normal(0.0, 1e3, (N,) * n)
    values[rng.random(values.shape) < 0.2] = -0.0
    f = GridFunction(RootBox((-0.3,) * n, 1.7), depth, values)
    for order in (1, 2):
        assert_same_bits(discrete_gradient(f, order).values,
                         reference_discrete_gradient(f, order))


def test_gradient_annihilates_constants_and_scales_linearly():
    c = GridFunction(RootBox.unit(2), 4, np.full((16, 16), 3.25))
    assert np.all(discrete_gradient(c).values == 0.0)
    f = sample(RootBox.unit(2), 4, lambda x, y: 2 * x - y)
    g = discrete_gradient(f)
    assert np.allclose(g.values[:-1, :-1], 3.0)


def test_second_order_gradient_kills_affine():
    f = sample(RootBox.unit(1), 5, lambda x: 7 * x - 2)
    g2 = discrete_gradient(f, order=2)
    assert np.allclose(g2.values[:-2], 0.0, atol=1e-9)


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    f = GridFunction(RootBox.symmetric(2), 3, rng.normal(size=(8, 8)))
    path = tmp_path / "f.json"
    f.save(path)
    g = GridFunction.load(path)
    assert g.root == f.root and g.depth == f.depth
    assert np.array_equal(g.values, f.values)


@pytest.mark.parametrize("block", [7, grid.SAVE_BLOCK])
def test_save_writes_the_bytes_of_json_dump(monkeypatch, tmp_path, block):
    # json.dump streams through the pure-Python encoder, save's blocks of
    # values through the C one: the floats' reprs, signed zeros and
    # subnormals included, must come out the same, across block boundaries
    # (4,096 values: whole blocks of 1,024, and blocks of 7 with a last
    # one of 1)
    monkeypatch.setattr(grid, "SAVE_BLOCK", block)
    tiny = np.nextafter(0.0, 1.0)
    values = [0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 1e-300,
              -1e300, 1e300, 1.7976931348623157e308, -1.7976931348623157e308,
              1.0 / 3.0, -2.5, 123456789.125, 1e16, 1e-5, 0.1]
    rest = 10.0 ** np.random.default_rng(3).uniform(-300.0, 300.0,
                                                     4096 - len(values))
    values += list(rest * np.where(np.arange(rest.size) % 2, 1.0, -1.0))
    f = GridFunction(RootBox((-0.1, 1e-300), 3e300), 6, values)
    path = tmp_path / "f.json"
    f.save(path)
    streamed = io.StringIO()
    json.dump(f.to_json_dict(), streamed)
    assert path.read_bytes() == streamed.getvalue().encode()
    assert np.array_equal(np.signbit(GridFunction.load(path).values),
                          np.signbit(f.values))


def test_json_rejects_wrong_length(tmp_path):
    f = GridFunction(RootBox.unit(1), 2, np.arange(4.0))
    d = f.to_json_dict()
    d["values"] = d["values"][:-1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(GridError):
        GridFunction.load(path)


def test_json_lower_and_legacy_corner_layouts_load():
    values = [1.0, 2.0, 3.0, 4.0]
    layouts = [
        {"root": {"lower": [0.0], "side": 1.0}, "depth": 2, "values": values},
        {"root": {"corner": [0.0], "side": 1.0}, "depth": 2, "values": values},
        {"n": 1, "root": {"corner": [0.0], "side": 1.0}, "depth": 2,
         "values": values},
    ]
    for d in layouts:
        g = GridFunction.from_json_dict(d)
        assert g.root == RootBox.unit(1) and g.depth == 2
        assert np.array_equal(g.values, values)


@pytest.mark.parametrize("d", [
    {"depth": 1, "values": [1.0, 2.0]},
    {"root": {"side": 1.0}, "depth": 1, "values": [1.0, 2.0]},
    {"root": {"lower": [0.0]}, "depth": 1, "values": [1.0, 2.0]},
    {"root": {"lower": [0.0], "side": 1.0}, "values": [1.0, 2.0]},
    {"root": {"lower": [0.0], "side": 1.0}, "depth": 1},
    {"root": {"lower": 0.0, "side": 1.0}, "depth": 1, "values": [1.0, 2.0]},
    {"root": {"lower": [0.0], "side": "wide"}, "depth": 1,
     "values": [1.0, 2.0]},
    {"root": {"lower": [0.0], "side": 1.0}, "depth": 1, "values": ["a", "b"]},
    {"n": 2, "root": {"lower": [0.0], "side": 1.0}, "depth": 1,
     "values": [1.0, 2.0]},
    [1.0, 2.0],
], ids=["no-root", "no-corner", "no-side", "no-depth", "no-values",
        "scalar-corner", "text-side", "text-values", "n-mismatch", "list"])
def test_json_malformed_raises_grid_error(d):
    with pytest.raises(GridError):
        GridFunction.from_json_dict(d)


def test_resolve_takes_arrays_as_values():
    root = RootBox.symmetric(1)
    g = GridFunction(root, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    pw = PowerWeight(0.5, 1, root)
    assert weights_resolve is resolve
    assert resolve(g.values, root, 2) is g.values
    assert GridWeight(g).cell_values(root, 2) is g.values
    # a density or a weight object is turned into cell values by its
    # class, never by the library functions that take a weight
    for obj in (g, GridWeight(g), pw, list(g.values)):
        with pytest.raises(GridError, match="must be an array of shape"):
            resolve(obj, root, 2)


@pytest.mark.parametrize("case", sorted(OFF_GRID))
def test_weight_off_the_grid_is_refused_on_every_path(case):
    make, words = OFF_GRID[case]
    w = make()
    f = GridFunction(RootBox.unit(1), 4, np.arange(16.0) % 3)
    density = {
        "GridWeight.cell_values":
            lambda: GridWeight(w).cell_values(f.root, f.depth),
        "GridWeight.cell_masses":
            lambda: GridWeight(w).cell_masses(f.root, f.depth),
    }
    for call in density.values():
        with pytest.raises(GridError, match=words):
            call()
    if case == "other-root":
        return  # bare values carry their shape and sign, not their box
    values = w.values
    ok = lebesgue_masses(f.root, f.depth)
    a = FractionalFunctional(1.0, 1.0, ok, ok, f.root, f.depth)
    arrays = {
        "resolve": lambda: resolve(values, f.root, f.depth),
        "measure_cell_masses":
            lambda: measure_cell_masses(values, f.root, f.depth),
        "oscillation": lambda: oscillation(f, w=values),
        "ap_constant": lambda: ap_constant(values, 2.0, f.root, f.depth),
        "FractionalFunctional mu":
            lambda: FractionalFunctional(1.0, 1.0, values, ok, f.root,
                                         f.depth),
        "FractionalFunctional w":
            lambda: FractionalFunctional(1.0, 1.0, ok, values, f.root,
                                         f.depth),
    }
    for call in arrays.values():
        with pytest.raises(GridError):
            call()
    # sdp_check takes only the functional's own w, which the grid checked
    with pytest.raises(FunctionalError, match="functional's own w"):
        sdp_check(a, values, 1.0, CubeIndex.root(1), f.depth, [2.0])


def test_weight_on_the_grid_passes_every_path():
    f = GridFunction(RootBox.unit(1), 4, np.arange(16.0) % 3)
    w = f.copy_with(np.linspace(0.0, 1.0, 16))
    masses = w.values / 16          # a zero mass is a valid measure
    assert measure_cell_masses(masses, f.root, f.depth) is masses
    c = f.values.mean()
    assert oscillation(f, w=masses) == pytest.approx(
        (np.abs(f.values - c) * masses).sum() / masses.sum(), rel=1e-14)
    for call in (lambda: resolve(w.values, f.root, f.depth),  # not a weight
                 lambda: GridWeight(w).cell_values(f.root, f.depth),
                 lambda: GridWeight(w).cell_masses(f.root, f.depth)):
        with pytest.raises(GridError, match="positive"):
            call()
    pos = f.copy_with(w.values + 1.0)
    gw = GridWeight(pos)
    assert gw.cell_values(f.root, f.depth) is pos.values
    assert_same_bits(gw.cell_masses(f.root, f.depth), pos.values / 16)
    assert ap_constant(gw.cell_values(f.root, f.depth), 2.0, f.root,
                       f.depth) >= 1.0
    # the functional takes the zero mass as mu, not as w
    with pytest.raises(GridError, match="positive"):
        FractionalFunctional(1.0, 1.0, masses, masses, f.root, f.depth)
    wm = gw.cell_masses(f.root, f.depth)
    a = FractionalFunctional(1.0, 1.0, masses, wm, f.root, f.depth)
    assert a.mu.masses is masses and a.w.masses is wm
    rep = sdp_check(a, wm, 1.0, CubeIndex.root(1), f.depth, [2.0])
    assert 0.0 < rep.worst_ratio <= 0.5 and rep.violations == 0
    # each path takes arrays only, not nested lists of the grid's shape
    for call in (lambda: FractionalFunctional(1.0, 1.0, masses.tolist(), wm,
                                              f.root, f.depth),
                 lambda: FractionalFunctional(1.0, 1.0, masses, wm.tolist(),
                                              f.root, f.depth),
                 lambda: sdp_check(a, wm.tolist(), 1.0, CubeIndex.root(1),
                                   f.depth, [2.0])):
        with pytest.raises(GridError, match="must be an array"):
            call()


def test_measure_cell_masses_contract():
    root = RootBox.unit(1)
    g = GridFunction(root, 2, np.array([1.0, 2.0, 3.0, 4.0]))
    masses = np.array([0.5, 0.25, 0.125, 0.0])
    assert_same_bits(measure_cell_masses(None, g.root, g.depth),
                     np.full(4, g.cell_volume))
    assert measure_cell_masses(masses, g.root, g.depth) is masses
    sym = RootBox.symmetric(2)
    for depth in (0, 3):
        h = GridFunction(sym, depth, np.ones(4 ** depth))
        assert_same_bits(lebesgue_masses(sym, depth),
                         np.full(h.values.shape, h.cell_volume))
    refused = [(np.ones(8), r"got \(8,\)"),
               (np.ones((4, 4)), r"got \(4, 4\)"),
               (np.array([0.5, -0.25, 0.125, 1.0]), "nonnegative"),
               (g, "got GridFunction"), (GridWeight(g), "got GridWeight"),
               (PowerWeight(0.5, 1), "got PowerWeight")]
    for measure, words in refused:
        with pytest.raises(GridError, match=words):
            measure_cell_masses(measure, g.root, g.depth)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_a_non_finite_cell_is_refused_on_every_path(bad):
    # a GridFunction refuses such values itself, a bare array reaches the
    # grid's checks only: unchecked, a NaN w cell made a(Q) NaN and A_p
    # "p is too close to 1", an infinite one made A_p infinite
    f = GridFunction(RootBox.unit(1), 4, np.arange(16.0) % 3)
    ok = lebesgue_masses(f.root, f.depth)
    cells = np.ones(16)
    cells[5] = bad
    calls = [lambda: resolve(cells, f.root, f.depth),
             lambda: measure_cell_masses(cells, f.root, f.depth),
             lambda: oscillation(f, w=cells),
             lambda: ap_constant(cells, 2.0, f.root, f.depth),
             lambda: FractionalFunctional(1.0, 1.0, cells, ok, f.root,
                                          f.depth),
             lambda: FractionalFunctional(1.0, 1.0, ok, cells, f.root,
                                          f.depth)]
    for call in calls:
        with pytest.raises(GridError, match=f"must be finite, got a cell "
                                            f"of {bad}$"):
            call()


def test_grid_function_shape_validation():
    with pytest.raises(GridError):
        GridFunction(RootBox.unit(2), 2, np.zeros((4, 8)))


# ---------------------------------------------------------------------------
# float_pow: libm pow per element, as Python's float pow
# ---------------------------------------------------------------------------

def _python_pows(base, exponent):
    """Python's ``x ** exponent`` per entry, or None where it raises or
    gives a complex."""
    out = []
    for x in base.tolist():
        try:
            y = x ** exponent
        except (OverflowError, ZeroDivisionError):
            return None
        if isinstance(y, complex):
            return None
        out.append(y)
    return np.array(out)


def _pow_exponents(p):
    """The exponents the cube quantities raise to: p, 1/p and p/(p-1)."""
    return (p, 1.0 / p) + ((p / (p - 1.0),) if p > 1 else ())


@pytest.mark.parametrize("p", [1.0, 1.001, 1.5, 2.0, 3.0, 7.25])
def test_float_pow_equals_python_pow(p):
    rng = np.random.default_rng(int(1000 * p))
    for exponent in _pow_exponents(p):
        # spread so that no power overflows
        base = rng.lognormal(0.0, 3.0 / max(1.0, exponent), 20000)
        base[:4] = (0.0, 1.0, 2.0 ** -1074, 2.0 ** -1022)
        got = float_pow(base, exponent, GridError)
        assert got.dtype == np.float64
        assert np.array_equal(got, _python_pows(base, exponent))


@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=40),
       st.floats(1.0, 12.0))
@settings(max_examples=200, deadline=None)
def test_float_pow_is_python_pow_or_refuses_where_it_raises(values, p):
    base = np.array(values)
    for exponent in _pow_exponents(p):
        want = _python_pows(base, exponent)
        if want is None:
            with pytest.raises(GridError, match="to the power"):
                float_pow(base, exponent, GridError)
        else:
            assert np.array_equal(float_pow(base, exponent, GridError), want)


@pytest.mark.parametrize("base,exponent", [(1e200, 2.0), (1e300, 1.5),
                                           (0.0, -1.0), (-2.0, 0.5)])
def test_float_pow_refuses_where_python_pow_raises(base, exponent):
    assert _python_pows(np.array([base]), exponent) is None
    with pytest.raises(GridError, match="to the power"):
        float_pow(np.array([1.0, base, 2.0]), exponent, GridError)


def test_float_pow_keeps_python_pow_at_infinite_bases():
    # Python's pow gives inf and 0 here without raising
    base = np.array([math.inf, 4.0])
    assert np.array_equal(float_pow(base, 2.0, GridError), [math.inf, 16.0])
    assert np.array_equal(float_pow(base, -0.5, GridError), [0.0, 0.5])


# ---------------------------------------------------------------------------
# the corner integral against its dense-meshgrid form
# ---------------------------------------------------------------------------

def reference_corner_integral(n, gamma, sublevels):
    """The corner integral on dense meshgrids: each outer subcube's squared
    radii summed from full coordinate arrays, then powered into a fresh
    array."""
    K = 1 << sublevels
    side = 0.5 / K
    mids = side * (np.arange(K) + 0.5)
    shell = 0.0
    for offs in itertools.product((0, 1), repeat=n):
        if all(o == 0 for o in offs):
            continue
        grids = np.meshgrid(*[mids + 0.5 * o for o in offs], indexing="ij")
        r2 = sum(g * g for g in grids)
        shell += float((r2 ** ((gamma - n) / 2.0)).sum()) * side ** n
    return shell / (1.0 - 2.0 ** (-gamma))


# exponents (gamma - n)/2 of -1, 0, 1/2 and 2 take numpy's fast scalar
# powers (reciprocal, ones, sqrt, square)
CORNER_GAMMAS = (0.05, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 4.0, 7.0)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("gamma", CORNER_GAMMAS)
def test_corner_integral_equals_dense_reference(monkeypatch, n, gamma):
    monkeypatch.setattr(grid, "_CORNER_INTEGRAL_CACHE", {})
    assert grid._corner_singular_unit_integral(n, gamma) == \
        reference_corner_integral(n, gamma, grid.CORNER_SUBLEVELS)


@pytest.mark.parametrize("gamma", CORNER_GAMMAS)
def test_corner_integral_equals_dense_reference_4d(monkeypatch, gamma):
    # three sublevels keep the 15 dense 8^4 subcubes cheap
    monkeypatch.setattr(grid, "_CORNER_INTEGRAL_CACHE", {})
    monkeypatch.setattr(grid, "CORNER_SUBLEVELS", 3)
    assert grid._corner_singular_unit_integral(4, gamma) == \
        reference_corner_integral(4, gamma, 3)


@given(st.sampled_from((2, 3)), st.floats(0.01, 8.0))
@settings(max_examples=40, deadline=None)
def test_corner_integral_equals_dense_reference_hypothesis(n, gamma):
    grid._CORNER_INTEGRAL_CACHE.pop((n, gamma), None)
    assert grid._corner_singular_unit_integral(n, gamma) == \
        reference_corner_integral(n, gamma, grid.CORNER_SUBLEVELS)


def test_corner_integral_peak_memory_is_one_subcube(monkeypatch):
    # n = 3: each of the 7 outer subcubes broadcasts its (K, K, 1) partial
    # sum of squares into one K^3 array, powers it in place and frees it
    # before the next, plus numpy's fixed-size ufunc iteration buffers
    # (64 kB each)
    monkeypatch.setattr(grid, "_CORNER_INTEGRAL_CACHE", {})
    K = 1 << grid.CORNER_SUBLEVELS
    subcube = K ** 3 * 8
    tracemalloc.start()
    try:
        grid._corner_singular_unit_integral(3, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert subcube < peak <= subcube + K * K * 8 + 2 ** 18
