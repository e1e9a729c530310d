"""Maximal operators, fractional integrals, norms, majorant series."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincarelab import grid, operators
from poincarelab.grid import (CubeIndex, GridError, GridFunction, RootBox,
                              _corner_singular_unit_integral)
from poincarelab.operators import (PROBE_COUNT, PROBE_SEED, OperatorError,
                                   _centered_maximal, centered_maximal_measure,
                                   centered_maximal_values,
                                   fractional_integral, fractional_kernel,
                                   lorentz_p1_norm_values, lp_norm,
                                   maximal_opnorm, orlicz_exp_norm_values,
                                   rdf_probe_corpus,
                                   rubio_de_francia,
                                   triple_norm_values,
                                   weak_norm_values)
from tests.conftest import assert_same_bits
from tests.oracles import restrict

UNIT1 = RootBox.unit(1)


def brute_centered_maximal_1d(vals):
    N = vals.size
    out = np.zeros(N)
    for j in range(N):
        best = 0.0
        for r in range(N):
            lo, hi = max(0, j - r), min(N - 1, j + r)
            best = max(best, np.abs(vals[lo:hi + 1]).mean())
        out[j] = best
    return out


def test_centered_maximal_matches_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(5):
        vals = rng.uniform(-3, 3, 16)
        assert np.allclose(centered_maximal_values(vals),
                           brute_centered_maximal_1d(vals), atol=1e-12)


def _reference_box_sums(padded, lo, hi, lead):
    n = lo.shape[0]
    batch = (slice(None),) * lead
    s = None
    for signs in itertools.product((0, 1), repeat=n):
        corner = tuple(hi[i] if signs[i] else lo[i] for i in range(n))
        term = padded[batch + corner]
        if (n - sum(signs)) % 2 == 1:
            term = -term
        s = term if s is None else s + term
    return s


def reference_centered_maximal(masses, n, cell_volume=1.0):
    """Per-radius clipped-index kernel: every radius gathers its 2^n window
    corners from the zero-led integral image with fancy indices."""
    lead = masses.ndim - n
    N = masses.shape[-1]
    P = masses
    for ax in range(lead, masses.ndim):
        P = np.cumsum(P, axis=ax)
    P = np.pad(P, [(0, 0)] * lead + [(1, 0)] * n)
    idx = np.indices(masses.shape[lead:])
    best = masses / cell_volume
    for r in range(1, N):
        lo = np.clip(idx - r, 0, None)
        hi = np.clip(idx + r + 1, None, N)
        sums = _reference_box_sums(P, lo, hi, lead)
        cnt = np.prod(hi - lo, axis=0)
        if cell_volume != 1.0:
            cnt = cnt * cell_volume
        np.maximum(best, sums / cnt, out=best)
    return best


# sides 1 and 2 take no doubling step of the centre-ward rays, 3-4 one,
# 5-8 two, 9-16 three, 32 four and 64 five; odd sides stop their low cells at
# (N-1)//2 = N//2, even sides one cell earlier
KERNEL_SIZES = [(1, s) for s in (1, 2, 3, 4, 5, 7, 8, 9, 64)] + \
    [(2, s) for s in (1, 2, 3, 4, 5, 8, 16, 32)] + \
    [(3, s) for s in (1, 2, 3, 4, 8, 16)]


@pytest.mark.parametrize("n,side", KERNEL_SIZES)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("cell_volume", [1.0, 0.37, 2.0 ** -12])
def test_centered_maximal_kernel_equals_reference(n, side, lead, cell_volume):
    rng = np.random.default_rng(1000 * n + side)
    masses = rng.exponential(size=lead + (side,) * n)
    assert_same_bits(_centered_maximal(masses, n, cell_volume),
                     reference_centered_maximal(masses, n, cell_volume))


@pytest.mark.parametrize("n,side", KERNEL_SIZES)
def test_centered_maximal_kernel_equals_reference_on_zero_cells(n, side):
    # exact zeros of both signs, and whole windows of them
    rng = np.random.default_rng(2000 * n + side)
    masses = rng.exponential(size=(3,) + (side,) * n)
    masses[rng.random(masses.shape) < 0.6] = 0.0
    masses[rng.random(masses.shape) < 0.2] = -0.0
    masses[0] = 0.0
    for cell_volume in (1.0, 0.37):
        assert_same_bits(_centered_maximal(masses, n, cell_volume),
                         reference_centered_maximal(masses, n, cell_volume))


def _window(cell, r, N):
    return tuple((max(0, i - r), min(N, i + r + 1)) for i in cell)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_centre_ward_windows_repeat_the_half_side_radius(n):
    # the identity the kernel's rays rest on, by brute force: from radius
    # h = N//2 on, the window of cell i at radius h+t is the radius-h
    # window of the cell t steps nearer the centre on every axis, which
    # stops at (N-1)//2 from below h and at h from h up
    for N in range(1, 10):
        h = N // 2
        for cell in itertools.product(range(N), repeat=n):
            assert all(lo == 0 or hi == N for lo, hi in _window(cell, h, N))
            for t in range(N - h):
                moved = tuple(min(i + t, (N - 1) // 2) if i < h
                              else max(i - t, h) for i in cell)
                assert _window(cell, h + t, N) == _window(moved, h, N)


@pytest.mark.parametrize("shape,n", [((4, 8), 2), ((3, 4, 8), 2),
                                     ((8, 8, 4), 3), ((2, 3, 3, 5), 3)])
def test_centered_maximal_refuses_a_non_cubic_block(shape, n):
    masses = np.ones(shape)
    with pytest.raises(OperatorError, match="needs a cubic block"):
        _centered_maximal(masses, n)
    if masses.ndim == n:
        with pytest.raises(OperatorError, match="needs a cubic block"):
            centered_maximal_values(masses)
        with pytest.raises(OperatorError, match="needs a cubic block"):
            centered_maximal_measure(masses, 0.25)


def test_centered_maximal_kernel_accepts_integer_masses():
    # a bare integer weight array reaches the kernel through A_inf
    masses = np.random.default_rng(5).integers(1, 9, size=(3, 8, 8))
    assert_same_bits(_centered_maximal(masses, 2),
                     reference_centered_maximal(masses, 2))


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(KERNEL_SIZES),
       st.integers(0, 2), st.sampled_from((1.0, 0.37, 2.0 ** -12)))
@settings(max_examples=60, deadline=None)
def test_centered_maximal_kernel_equals_reference_hypothesis(
        seed, size, lead, cell_volume):
    n, side = size
    rng = np.random.default_rng(seed)
    masses = rng.lognormal(0.0, 2.0, size=(2,) * lead + (side,) * n)
    assert_same_bits(_centered_maximal(masses, n, cell_volume),
                     reference_centered_maximal(masses, n, cell_volume))


def test_centered_maximal_peak_memory_is_the_padded_image():
    # a 32^3 block: the (N+1+2*(N//2))^n padded image, every entry of which
    # the radii up to N//2 read, then per radius the output, the window
    # sums and the window counts, each one input in size (the rays after
    # the last radius hold the output, the sums and one gather of them,
    # with the image and the counts dropped), plus numpy's fixed-size
    # ufunc iteration buffers (64 kB each)
    masses = np.random.default_rng(8).lognormal(size=(32,) * 3)
    image = 65 ** 3 * masses.itemsize
    tracemalloc.start()
    try:
        _centered_maximal(masses, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image < peak <= image + 3 * masses.nbytes + 2 ** 18


def _assert_kernel_equals_reference(masses, n, cell_volume=1.0):
    got = _centered_maximal(masses, n, cell_volume)
    assert got.flags.c_contiguous
    assert got.tobytes() == \
        reference_centered_maximal(masses, n, cell_volume).tobytes()


# (n, side, blocks per radius pass): h = 8 radii in 2D and 3D, and in 1D
# the (64-3)//2 = 30 radii of windows clipped at neither end; R = 1 and
# R = all radii, R dividing them and not
PASS_SIZES = [(2, 16, 1), (2, 16, 2), (2, 16, 3), (2, 16, 8), (3, 16, 3),
              (3, 16, 8), (1, 64, 1), (1, 64, 5), (1, 64, 6), (1, 64, 30)]


@pytest.mark.parametrize("n,side,R", PASS_SIZES)
@pytest.mark.parametrize("cell_volume", [1.0, 0.37])
def test_radius_passes_equal_reference(monkeypatch, n, side, R, cell_volume):
    # the pass size is SHARED_PASS_CELLS // cells for blocks of at most
    # SHARED_PASS_MAX cells, so each case sets the budget to R radii
    rng = np.random.default_rng(100 * n + side + R)
    masses = rng.exponential(size=(side,) * n)
    monkeypatch.setattr(operators, "SHARED_PASS_CELLS", R * masses.size)
    _assert_kernel_equals_reference(masses, n, cell_volume)
    # zeros of both signs, whole windows of them
    masses[rng.random(masses.shape) < 0.6] = 0.0
    masses[rng.random(masses.shape) < 0.2] = -0.0
    _assert_kernel_equals_reference(masses, n, cell_volume)


# batch shapes against the block side: more blocks than the side puts the
# batch axes innermost, fewer keeps them in front
LAYOUTS = [(1, 8, (3,)), (1, 8, (9,)), (1, 8, (3, 4)), (1, 4, (2, 3)),
           (1, 2, (64, 64)), (2, 4, (3,)), (2, 4, (5,)), (2, 4, (2, 2)),
           (2, 4, (3, 2)), (2, 2, (64, 64)), (2, 8, (16, 16)),
           (3, 4, (2, 2)), (3, 4, (5,)), (3, 2, (8, 8, 8))]


@pytest.mark.parametrize("n,side,lead", LAYOUTS)
def test_batch_layouts_equal_reference(n, side, lead):
    rng = np.random.default_rng(7 * n + side + len(lead))
    masses = rng.lognormal(0.0, 1.5, size=lead + (side,) * n)
    for cell_volume in (1.0, 2.0 ** -12):
        _assert_kernel_equals_reference(masses, n, cell_volume)
    masses[rng.random(masses.shape) < 0.5] = 0.0
    masses.flat[::7] = -0.0
    _assert_kernel_equals_reference(masses, n, 0.37)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(((1, 32), (1, 7),
                                                     (2, 8), (2, 5), (3, 4))),
       st.sampled_from(((), (2,), (40,), (3, 9))), st.integers(1, 9),
       st.sampled_from((1.0, 0.37)), st.floats(0.0, 0.8))
@settings(max_examples=60, deadline=None)
def test_radius_passes_and_layouts_equal_reference_hypothesis(
        seed, size, lead, R, cell_volume, zeros):
    n, side = size
    rng = np.random.default_rng(seed)
    masses = rng.lognormal(0.0, 2.0, size=lead + (side,) * n)
    masses[rng.random(masses.shape) < zeros] = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "SHARED_PASS_CELLS", R * masses.size)
        _assert_kernel_equals_reference(masses, n, cell_volume)


def test_centered_maximal_peak_memory_on_many_small_blocks():
    # the level-6 stack of 2D depth 7, 4096 blocks of 2x2, laid out with
    # the blocks innermost: the padded image, the copy in and (after the
    # image is dropped) the copy out, the output and one pass's window
    # sums, each one input in size or the pass budget, plus numpy's
    # fixed-size ufunc iteration buffers (64 kB each)
    masses = np.random.default_rng(8).lognormal(size=(64, 64, 2, 2))
    image = 5 * 5 * 4096 * masses.itemsize
    budget = max(masses.nbytes,
                 operators.SHARED_PASS_CELLS * masses.itemsize)
    _centered_maximal(masses, 2)
    tracemalloc.start()
    try:
        _centered_maximal(masses, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert image + masses.nbytes < peak \
        <= image + 2 * masses.nbytes + 2 * budget + 2 ** 17


def test_centered_maximal_indicator_decay():
    vals = np.zeros(8)
    vals[0] = 1.0
    M = centered_maximal_values(vals)
    assert np.allclose(M[:4], [1.0, 1 / 3, 1 / 5, 1 / 7])


def test_centered_maximal_2d_matches_bruteforce():
    rng = np.random.default_rng(2)
    vals = rng.uniform(0, 1, (8, 8))
    N = 8
    brute = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            best = 0.0
            for r in range(N):
                win = vals[max(0, i - r):i + r + 1, max(0, j - r):j + r + 1]
                best = max(best, win.mean())
            brute[i, j] = best
    assert np.allclose(centered_maximal_values(vals), brute, atol=1e-12)


def test_centered_maximal_3d_matches_bruteforce():
    rng = np.random.default_rng(12)
    N = 4
    vals = rng.uniform(0, 1, (N, N, N))
    brute = np.zeros((N, N, N))
    for x in itertools.product(range(N), repeat=3):
        brute[x] = max(vals[tuple(slice(max(0, i - r), i + r + 1)
                                  for i in x)].mean() for r in range(N))
    assert np.allclose(centered_maximal_values(vals), brute,
                       rtol=1e-12, atol=1e-12)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(((1, 8), (2, 4), (3, 2))),
       st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_batched_centered_maximal_matches_per_block(seed, size, count):
    n, side = size
    rng = np.random.default_rng(seed)
    blocks = rng.exponential(size=(count,) + (side,) * n)
    batched = _centered_maximal(blocks, n)
    for k in range(count):
        assert np.array_equal(batched[k], centered_maximal_values(blocks[k]))
    # two batch axes behave like one
    pairs = np.stack([blocks, blocks[::-1]])
    assert np.array_equal(_centered_maximal(pairs, n),
                          np.stack([batched, batched[::-1]]))


def test_centered_maximal_measure_is_scaled_average_maximal():
    rng = np.random.default_rng(4)
    masses = rng.uniform(0, 1, (8, 8))
    assert np.allclose(centered_maximal_measure(masses, 0.25),
                       centered_maximal_values(masses) / 0.25, rtol=1e-14)
    assert np.array_equal(centered_maximal_measure(masses, 1.0),
                          centered_maximal_values(masses))


def test_maximal_dominates_and_sublinear():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 2, 32)
    b = rng.uniform(0, 2, 32)
    Ma = centered_maximal_values(a)
    assert np.all(Ma >= a - 1e-12)
    assert np.all(centered_maximal_values(a + b)
                  <= Ma + centered_maximal_values(b) + 1e-12)


def reference_fractional_kernel(n, alpha, offsets_per_axis, h):
    """The kernel on dense meshgrids: the squared offsets summed from full
    coordinate arrays, the zero offset set by ``np.where`` and the power
    taken into a fresh array."""
    span = np.arange(-(offsets_per_axis - 1), offsets_per_axis) * h
    grids = np.meshgrid(*([span] * n), indexing="ij")
    dist2 = sum(g * g for g in grids)
    with np.errstate(divide="ignore"):
        K = np.where(dist2 > 0, dist2, 1.0) ** ((alpha - n) / 2.0)
    center = tuple([offsets_per_axis - 1] * n)
    self_integral = ((h / 2.0) ** alpha) * (2 ** n) \
        * _corner_singular_unit_integral(n, alpha)
    K[center] = self_integral / h ** n
    return K


def reference_fractional_integral(g, alpha, q=None):
    """I_alpha on Q from the dense kernel: the product of the two whole
    spectra inverted by one ``irfftn`` over all 3s rows per axis, the
    valid s rows sliced afterwards."""
    n = g.n
    q = q or CubeIndex.root(n)
    sl = g.block(q)
    block = g.values[sl]
    s = block.shape[0]
    K = reference_fractional_kernel(n, alpha, s, g.cell_width)
    size = (3 * s,) * n
    axes = tuple(range(n))
    spec = np.fft.rfftn(block, s=size, axes=axes) \
        * np.fft.rfftn(K, s=size, axes=axes)
    full = np.fft.irfftn(spec, s=size, axes=axes)
    vals = full[(slice(s - 1, 2 * s - 1),) * n] * g.cell_volume
    out = np.zeros_like(g.values)
    out[sl] = np.maximum(vals, 0.0)
    return out


# side 1 has no offset but the centre; alphas of n-2, n-1 and n take
# numpy's fast scalar powers (reciprocal, sqrt, ones).  The spectral
# product runs in strips of frequency columns, one wide up to 2D depth 2,
# 3D depth 3 and in 4D; 2D depths 3, 5, 6 and 7 and 3D depths 4 and 5 take
# strips of 2, 10, 21, 21, 3 and 4 of their 13, 49, 97, 193, 25 and 49
# columns, so the last strip is narrower
FRACTIONAL_SIZES = [(1, d) for d in (0, 1, 3, 6, 9)] + \
    [(2, d) for d in (0, 1, 3, 5, 6, 7)] + \
    [(3, d) for d in (1, 2, 3, 4, 5)] + \
    [(4, 1), (4, 2)]


def _fractional_alphas(n):
    return sorted({0.05, 0.5 * n, 0.99 * n} | {a for a in (n - 2, n - 1)
                                               if 0 < a < n})


def _cheap_4d_corner(monkeypatch, n):
    """Three corner sublevels in 4D, with a cache of their own: at the
    default six the 4D corner integral takes seconds per alpha.  Kernel
    and reference read the same patched integral."""
    if n == 4:
        monkeypatch.setattr(grid, "_CORNER_INTEGRAL_CACHE", {})
        monkeypatch.setattr(grid, "CORNER_SUBLEVELS", 3)


@pytest.mark.parametrize("n,depth", FRACTIONAL_SIZES)
def test_fractional_kernel_equals_dense_reference(monkeypatch, n, depth):
    _cheap_4d_corner(monkeypatch, n)
    root = RootBox((-0.3,) * n, 1.7)
    h = root.side / (1 << depth)
    for alpha in _fractional_alphas(n):
        for offsets in {1, 2, 1 << depth}:
            assert_same_bits(fractional_kernel(n, alpha, offsets, h),
                             reference_fractional_kernel(n, alpha, offsets, h))


@pytest.mark.parametrize("n,depth", FRACTIONAL_SIZES)
def test_fractional_integral_equals_whole_array_reference(monkeypatch, n,
                                                          depth):
    _cheap_4d_corner(monkeypatch, n)
    rng = np.random.default_rng(100 * n + depth)
    N = 1 << depth
    vals = rng.lognormal(0.0, 1.5, (N,) * n)
    vals[rng.random(vals.shape) < 0.3] = 0.0
    g = GridFunction(RootBox((-0.3,) * n, 1.7), depth, vals)
    cubes = [CubeIndex(level, tuple(rng.integers(0, 1 << level, n)))
             for level in range(depth + 1)]
    for alpha in _fractional_alphas(n):
        for q in cubes:
            # q made the input grid: the integral of g restricted to q
            assert_same_bits(fractional_integral(restrict(g, q), alpha).values,
                             reference_fractional_integral(g, alpha,
                                                           q)[g.block(q)])


@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([(1, 4), (1, 7), (2, 3), (2, 4), (3, 2)]),
       st.floats(0.01, 0.99), st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_fractional_integral_equals_whole_array_reference_hypothesis(
        seed, size, share, side):
    n, depth = size
    rng = np.random.default_rng(seed)
    N = 1 << depth
    g = GridFunction(RootBox((0.0,) * n, side), depth,
                     rng.exponential(size=(N,) * n))
    level = int(rng.integers(0, depth + 1))
    q = CubeIndex(level, tuple(rng.integers(0, 1 << level, n)))
    assert_same_bits(fractional_integral(restrict(g, q), share * n).values,
                     reference_fractional_integral(g, share * n,
                                                   q)[g.block(q)])


def test_fractional_integral_peak_memory_is_two_spectra():
    # 2D 256^2 and 3D 32^3: K, (2s-1)^n reals, is alive while its last-axis
    # rfft, (2s-1)^(n-1) rows by 3s/2 + 1 complex columns, is taken; then
    # the block's last-axis spectrum, s^(n-1) rows, and one strip of
    # columns at a time, whose spectra fit in K's freed bytes, plus numpy's
    # fixed-size ufunc iteration buffers
    for n, depth in ((2, 8), (3, 5)):
        s = 1 << depth
        g = GridFunction(RootBox.unit(n), depth,
                         np.random.default_rng(9).random((s,) * n))
        fractional_integral(g, 1.0)     # the corner integral is cached
        cols = 3 * s // 2 + 1
        kernel = (2 * s - 1) ** n * 8
        kernel_spectrum = (2 * s - 1) ** (n - 1) * cols * 16
        block_spectrum = s ** (n - 1) * cols * 16
        tracemalloc.start()
        try:
            fractional_integral(g, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel + kernel_spectrum <= peak \
            <= kernel + kernel_spectrum + block_spectrum + 2 ** 18


def test_fractional_kernel_symmetric():
    k = fractional_kernel(2, 1.0, 4, 0.25)
    assert np.allclose(k, k[::-1, :]) and np.allclose(k, k[:, ::-1])


def test_fractional_integral_zero_and_linearity():
    z = GridFunction(UNIT1, 4, np.zeros(16))
    assert np.allclose(fractional_integral(z, 0.5).values, 0.0)
    rng = np.random.default_rng(6)
    g = GridFunction(UNIT1, 4, rng.uniform(0, 1, 16))
    a = fractional_integral(g, 0.5).values
    b = fractional_integral(g.copy_with(2.0 * g.values), 0.5).values
    assert np.allclose(b, 2.0 * a, atol=1e-12)


def test_fractional_integral_matches_direct_kernel_sum():
    rng = np.random.default_rng(7)
    g = GridFunction(RootBox.unit(2), 3, rng.uniform(0, 1, (8, 8)))
    out = fractional_integral(g, 1.0).values
    k = fractional_kernel(2, 1.0, 8, g.cell_width)
    N = 8
    brute = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            sub = k[7 - i:15 - i, 7 - j:15 - j]
            brute[i, j] = (sub * g.values).sum() * g.cell_volume
    assert np.allclose(out, brute, rtol=1e-10)


@pytest.mark.parametrize("n,depth", [(1, 5), (3, 2)])
def test_fractional_integral_matches_direct_sum_1d_3d(n, depth):
    # FFT lengths 96 and 12 per axis: not powers of two
    rng = np.random.default_rng(8)
    N = 1 << depth
    g = GridFunction(RootBox.unit(n), depth, rng.uniform(0, 1, (N,) * n))
    alpha = 0.5 * n
    out = fractional_integral(g, alpha).values
    k = fractional_kernel(n, alpha, N, g.cell_width)
    brute = np.zeros((N,) * n)
    for x in itertools.product(range(N), repeat=n):
        sub = k[tuple(slice(N - 1 - i, 2 * N - 1 - i) for i in x)]
        brute[x] = (sub * g.values).sum() * g.cell_volume
    assert np.allclose(out, brute, rtol=1e-12, atol=0)


def test_fractional_integral_constant_1d_continuum_value():
    # alpha = 1/2 on the unit interval: the potential of 1 at the left
    # endpoint is 2 sqrt(x) evaluated at x = 1, i.e. 2
    g = GridFunction(UNIT1, 13, np.ones(2 ** 13))
    out = fractional_integral(g, 0.5)
    assert out.values[0] == pytest.approx(2.0, rel=0.01)


def test_weak_and_lorentz_indicator():
    masses = np.full(8, 1 / 8)
    vals = np.zeros(8)
    vals[:2] = 1.0  # indicator of a set of measure 1/4
    for p in (1.5, 2.0, 3.0):
        assert weak_norm_values(vals, masses, p) == \
            pytest.approx(0.25 ** (1 / p))
        assert lorentz_p1_norm_values(vals, masses, p) == \
            pytest.approx(0.25 ** (1 / p))
        assert triple_norm_values(vals, masses, p) == \
            pytest.approx(0.25 ** (1 / p))


@given(st.integers(0, 2 ** 31 - 1), st.floats(1.25, 4.0))
@settings(max_examples=50, deadline=None)
def test_lorentz_sandwich_and_ordering(seed, p):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 5, 32)
    masses = rng.uniform(0.1, 1.0, 32)
    masses = masses / masses.sum()
    pprime = p / (p - 1.0)
    wk = weak_norm_values(vals, masses, p)
    tri = triple_norm_values(vals, masses, p)
    l1 = lorentz_p1_norm_values(vals, masses, p)
    lp = lp_norm(vals, masses, p)
    assert wk <= tri * (1 + 1e-10)
    assert tri <= pprime * wk * (1 + 1e-10)
    assert wk <= lp * (1 + 1e-10) <= l1 * (1 + 1e-10) ** 2


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_norm_homogeneity(seed, c):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 5, 16)
    masses = np.full(16, 1 / 16)
    for norm in (weak_norm_values, lorentz_p1_norm_values,
                 triple_norm_values):
        assert norm(c * vals, masses, 2.0) == \
            pytest.approx(c * norm(vals, masses, 2.0), rel=1e-10)


def test_orlicz_constant_oracle():
    masses = np.full(8, 1 / 8)
    vals = np.full(8, 3.0)
    # ||c||: exp(c/lam) - 1 = 1 at lam = c / ln 2
    assert orlicz_exp_norm_values(vals, masses) == \
        pytest.approx(3.0 / np.log(2), rel=1e-10)
    assert orlicz_exp_norm_values(np.zeros(8), masses) == 0.0


def test_orlicz_matches_dense_scan():
    rng = np.random.default_rng(9)
    vals = rng.uniform(0, 4, 16)
    masses = np.full(16, 1 / 16)
    norm = orlicz_exp_norm_values(vals, masses)
    lams = np.linspace(0.5 * norm, 2.0 * norm, 4001)
    excess = np.array([((np.exp(vals / l) - 1) * masses).sum() - 1.0
                       for l in lams])
    # the scan's sign change brackets the computed norm
    crossing = lams[np.searchsorted(excess < 0, True)]
    assert norm == pytest.approx(crossing, rel=1e-3)


def test_rdf_constant_input():
    h = GridFunction(UNIT1, 4, np.ones(16))
    w = np.ones(16)
    R, rep = rubio_de_francia(h, w, 2.0, terms=10, opnorm=1.0)
    expected = sum(0.5 ** k for k in range(11))
    assert np.allclose(R.values, expected, atol=1e-12)
    assert rep["opnorm"] == 1.0


def test_rdf_majorizes_input():
    rng = np.random.default_rng(10)
    h = GridFunction(UNIT1, 5, rng.uniform(0.1, 3, 32))
    w = np.exp(rng.normal(0, 0.5, 32))
    R, rep = rubio_de_francia(h, w, 2.0)
    assert np.all(R.values >= h.values - 1e-12)
    assert rep["tail_bound"] >= 0


def test_rdf_norm_within_factor_two_plus_tail():
    rng = np.random.default_rng(11)
    h = GridFunction(UNIT1, 6, rng.uniform(0.0, 2, 64) ** 2 + 0.01)
    w = np.exp(rng.normal(0, 0.8, 64))
    wm = w / 64.0
    R, rep = rubio_de_francia(h, w, 2.0)
    hn = lp_norm(h.values, wm, 2.0)
    Rn = lp_norm(R.values, wm, 2.0)
    assert Rn <= 2.0 * hn + rep["tail_bound"] + 1e-9


def test_rdf_rejects_bad_input():
    h = GridFunction(UNIT1, 2, np.array([1.0, -1.0, 0.0, 0.0]))
    with pytest.raises(OperatorError):
        rubio_de_francia(h, np.ones(4), 2.0)
    h2 = GridFunction(UNIT1, 2, np.ones(4))
    with pytest.raises(OperatorError):
        rubio_de_francia(h2, np.ones(4), 1.0)
    with pytest.raises(OperatorError):
        rubio_de_francia(h2, np.ones(4), 2.0, terms=0)
    with pytest.raises(OperatorError):
        rubio_de_francia(h2, np.ones(4), 2.0, opnorm=0.5)


def test_opnorm_modes():
    # a supplied operator norm is used as given; without one, the
    # empirical estimate is; the ap-bound value is pinned in test_cli
    h = GridFunction(UNIT1, 3, np.arange(1.0, 9.0))
    w = np.full(8, 1 / 8)
    _, rep = rubio_de_francia(h, w, 2.0, opnorm=3.0)
    assert (rep["opnorm"], rep["opnorm_mode"]) == (3.0, "supplied")
    _, rep = rubio_de_francia(h, w, 2.0)
    assert (rep["opnorm"], rep["opnorm_mode"]) == \
        (maximal_opnorm(w, 2.0, (8,)), "empirical")


def test_empirical_opnorm_at_least_one():
    val = maximal_opnorm(np.full(16, 1 / 16), 2.0, (16,))
    assert val >= 1.0


@pytest.mark.parametrize("shape", [(64,), (16, 16)])
def test_empirical_opnorm_equals_per_probe_loop(shape):
    rng = np.random.default_rng(13)
    w_masses = rng.exponential(size=shape)
    p = 2.5
    best = 0.0
    for vals in rdf_probe_corpus(shape, PROBE_COUNT, PROBE_SEED):
        num = lp_norm(centered_maximal_values(vals).ravel(),
                      w_masses.ravel(), p)
        best = max(best, num / lp_norm(vals.ravel(), w_masses.ravel(), p))
    assert maximal_opnorm(w_masses, p, shape) == max(best, 1.0)


def test_rdf_refuses_masses_off_the_grid():
    # a (16,) mass array on a 16x16 grid would broadcast along one axis
    h = GridFunction(RootBox.unit(2), 4, np.ones(256))
    with pytest.raises(GridError, match=r"shape \(16, 16\), got \(16,\)"):
        rubio_de_francia(h, np.full(16, 1.0 / 256), 2.0)
