"""Maximal operators, fractional integrals, the Rubio de Francia iteration,
and Lorentz/Orlicz norm calculators.

All operators act on cell-value arrays of GridFunctions; the centered
maximal uses cube windows clipped to the box (comparable to the ball
version up to a dimensional factor, which is reported where relevant).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (GridFunction, _corner_singular_unit_integral,
                   _cumsum_planes, measure_cell_masses)

AP_BOUND_CN = 1.0  # C_n of the ap-bound estimate C_n p' [w]_{A_p}^(1/(p-1))
PROBE_SEED = 7     # seed of the empirical estimate's probe corpus
PROBE_COUNT = 20   # size of that corpus
EXP_NORM_REL_TOL = 1e-12  # relative bracket width of the exp-L bisection
STRIP_BYTES = 1 << 18  # a fractional strip's spectra may always take this
SHARED_PASS_MAX = 1 << 12  # maximal radii share a pass when one radius's
#                            windows hold at most this many cells,
SHARED_PASS_CELLS = 1 << 14  # and so many cells in all


class OperatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------

def _centered_maximal(masses, n, cell_volume=1.0):
    """Per cell center, the max over clipped cube windows of radius
    r = 0..N-1 cells of mass(window)/volume(window).  The last ``n`` axes
    of ``masses`` are space (side N on every axis, odd sides included);
    leading axes, if any, index a batch of blocks maximized independently.

    Layout: when the blocks outnumber the block side, the batch axes move
    behind the space axes (one contiguous copy in, one out), so the inner
    loops run across blocks instead of along a row of a few cells, and the
    running sums below are taken one plane at a time.  Otherwise the array
    is used as given.

    The zero-led integral image P (N+1 entries per space axis) is padded
    by h = N//2 entries per side, so E[h+j] = P[clip(j, 0, N)]: the clipped
    window corners i-r and i+r+1 of every cell i are E[h-r+i] and
    E[h+1+r+i], and each of the 2^n corner terms of a radius is a strided
    view of E.  E is one preallocated array of (N+1+2h)^n floats per block,
    every entry of it read, filled by slices: the masses summed in place at
    [h+1, h+1+N) per axis, zeros below (the lead P[0] and its padding),
    then each axis's top edge copied outward.

    Radii r = 1..h are evaluated in passes.  When one radius's windows
    hold at most SHARED_PASS_MAX cells, consecutive radii share a pass of
    SHARED_PASS_CELLS cells: each corner term is then one view with a
    leading radius axis, whose stride is the sum of the space strides, each
    signed by the corner's side, and the widths come from J the same way;
    the counts are formed per radius as before, and the pass's maximum
    over its radii goes into the output in one reduction.  Larger blocks
    take one radius per pass.

    At radius h every window is clipped on every axis, so the window of
    cell i at radius h+t is, axis by axis, the radius-h window of the cell
    t steps nearer the centre, which stops there: at (N-1)//2 from below
    h, at h from h up.  The radius-h values are therefore maximized along
    these centre-ward rays by doubling, s = max(s, s[toward(step)]) for
    step = 1, 2, 4, ... up to (N-1)//2, each step one gather over all
    space axes.  In 1D the passes take instead only the windows clipped at
    neither end, radius r at cells r+1..N-2-r for r up to (N-3)//2, and
    ``_clipped_1d`` folds in the prefixes and suffixes.

    Every window value is formed with the same corner terms and counts as
    the per-radius loop over r < N, and max is exact, so for masses >= 0
    (zeros of either sign) every output equals that loop's bit for bit.
    Per block, in n >= 2: h radii of 2^n window reads of N^n cells each,
    half of the full loop, plus fewer than log2(N) gathers of N^n cells;
    in 1D about N^2/4 cell reads plus two running maxima over N entries.
    Memory: the image, the output, and per pass the window sums and counts
    (one block, or SHARED_PASS_CELLS cells), plus the two layout copies.
    """
    masses = np.asarray(masses, dtype=float)
    lead = masses.ndim - n
    space = masses.shape[lead:]
    if n < 1 or space != space[:1] * n:
        raise OperatorError("centered maximal needs a cubic block, got space "
                            f"shape {space}")
    N = space[0]
    if N == 1:   # the one window is the cell
        return masses / cell_volume
    h = N // 2
    S = N + 1 + 2 * h
    inner = math.prod(masses.shape[:lead]) > N
    if inner:
        masses = masses.transpose(
            tuple(range(lead, lead + n)) + tuple(range(lead))).copy()
        batch, axes = (), range(n)
        E = np.empty((S,) * n + masses.shape[n:])
    else:
        batch, axes = (slice(None),) * lead, range(lead, lead + n)
        E = np.empty(masses.shape[:lead] + (S,) * n)
    core = E[batch + (slice(h + 1, h + 1 + N),) * n]
    core[...] = masses
    for ax in axes:
        if inner:   # the lines along a space axis are short and many
            _cumsum_planes(core, ax)
        else:
            np.cumsum(core, axis=ax, out=core)
    for ax in range(n):
        E[batch + (slice(None),) * ax + (slice(0, h + 1),)] = 0.0
    for ax in range(n):
        before = batch + (slice(None),) * ax
        # from a copy of the edge plane: assigning the overlapping view
        # would make numpy buffer the whole broadcast destination
        top = before + (slice(h + 1 + N, None),)
        E[top] = E[before + (slice(h + N, h + 1 + N),)].copy()
    J = np.clip(np.arange(-h, N + h + 1, dtype=float), 0, N)
    unit = J.strides[0]
    # per corner term: its sign, and where its view of E starts at radius
    # 0 and cell 0 and moves per radius.  On every space axis the window
    # corner i-r (b = 0) or i+r+1 (b = 1) of cell i is E index h-r+i or
    # h+1+r+i
    corners = [(False, 0, 0)]
    for ax in axes:
        st = E.strides[ax]
        corners = [(negative ^ (b == 0), start + (h + b) * st,
                    step + (st if b else -st))
                   for negative, start, step in corners for b in (0, 1)]
    diagonal = sum(E.strides[ax] for ax in axes)

    def on_cells(L):   # the shape of L cells per space axis, and of counts
        return (tuple(L if ax in axes else c
                      for ax, c in enumerate(masses.shape)),
                tuple(L if ax in axes else 1 for ax in range(masses.ndim)))

    # the output: in the innermost layout the private copy, divided in place
    best = (np.divide(masses, cell_volume, out=masses) if inner
            else masses / cell_volume)
    chunk = (SHARED_PASS_CELLS // masses.size
             if masses.size <= SHARED_PASS_MAX else 1)
    # in 1D the passes take only windows clipped on neither side, radius r
    # at cells r+1..N-2-r; the clipped ones are maximized after them
    last = h if n > 1 else (N - 3) // 2
    shape, counts = on_cells(N)
    i0 = 0
    for r in range(1, last + 1, chunk):
        R = min(chunk, last + 1 - r)
        if n == 1:
            i0 = r + 1
            shape, counts = on_cells(N - 2 - 2 * r)
        L = shape[axes[0]]
        # the last pass's arrays are dropped before these are allocated
        s = cnt = None
        for negative, start, step in corners:
            t = np.ndarray((R,) + shape, float, E,
                           start + r * step + i0 * diagonal,
                           (step,) + E.strides)
            if s is None:
                s = -t if negative else t.copy()
            elif negative:
                s -= t
            else:
                s += t
        width = (np.ndarray((R, L), float, J, (h + 1 + r + i0) * unit,
                            (unit, unit))
                 - np.ndarray((R, L), float, J, (h - r + i0) * unit,
                              (-unit, unit)))
        cnt = width
        for ax in range(1, n):
            cnt = cnt[..., None] * width.reshape((R,) + (1,) * ax + (L,))
        cnt = cnt.reshape((R,) + counts)
        if cell_volume != 1.0:
            cnt *= cell_volume
        s /= cnt
        cells = best[batch + (slice(i0, i0 + L),) * n]
        np.maximum(cells, s[0] if R == 1 else s.max(axis=0), out=cells)
    if n == 1:
        _clipped_1d(best, E, batch, h, cell_volume, inner)
    else:
        # radii h+1..N-1: the radius-h values maximized along centre-ward
        # rays; the image and the last counts are not read again, so each
        # gather allocates into what they held
        s = s[-1]
        E = core = t = cnt = None
        idx = np.arange(N)
        step = 1
        while step <= (N - 1) // 2:
            toward = np.where(idx < h, np.minimum(idx + step, (N - 1) // 2),
                              np.maximum(idx - step, h))
            np.maximum(s, s[batch + np.ix_(*(toward,) * n)], out=s)
            step *= 2
        if step > 1:
            np.maximum(best, s, out=best)
    if inner:
        best = np.ascontiguousarray(best.transpose(
            tuple(range(n, n + lead)) + tuple(range(n))))
    return best


def _clipped_1d(best, E, batch, h, cell_volume, inner):
    """Fold into the 1D kernel's ``best`` the windows that meet an end of
    the block, from the padded integral image ``E`` (P[k] = E[h+k]).

    A window clipped at 0 is a prefix [0, k), average A_k = (-P[0] + P[k])
    / k; one clipped at N is a suffix [j, N), B_j = (-P[j] + P[N]) / (N-j),
    each formed with the operations and widths of the radius passes.  Cell
    i meets the prefixes k = min(i + max(i, 1) + 1, N) .. N and the
    suffixes j = 1 .. i - max(N-1-i, 1), so its maxima are a running max of
    A from the top and of B from j = 1, each read at one index.  The whole
    block, A_N, is taken last: where every window of a cell holds 0, the
    output is its zero, as the last radius of the per-radius loop leaves it.
    """
    axis = 0 if inner else -1
    N = best.shape[axis]

    def cells(a, b):
        return batch + (slice(a, b),)

    def along(v):   # a vector along the space axis
        return v.reshape(v.shape + (1,) * (best.ndim - 1)) if inner else v

    k = np.arange(1, N + 1, dtype=float)
    if cell_volume != 1.0:
        k *= cell_volume
    P = E[cells(h, h + N + 1)]
    A = (-P[cells(0, 1)] + P[cells(1, N + 1)]) / along(k)   # A_k at k-1
    i = np.arange(N)
    top = batch + (slice(None, None, -1),)
    high = np.maximum.accumulate(A[top], axis=axis)[top]
    np.maximum(best, np.take(high, np.minimum(i + np.maximum(i, 1), N - 1),
                             axis=axis), out=best)
    first = max(2, (N + 1) // 2)   # the first cell that meets a suffix
    if first < N:
        width = N - np.arange(1, N, dtype=float)
        if cell_volume != 1.0:
            width *= cell_volume
        B = (-P[cells(1, N)] + P[cells(N, N + 1)]) / along(width)   # j-1
        low = np.maximum.accumulate(B, axis=axis)
        i = i[first:]
        part = best[cells(first, N)]
        np.maximum(part, np.take(low, i - np.maximum(N - 1 - i, 1) - 1,
                                 axis=axis), out=part)
    np.maximum(best, A[cells(N - 1, N)], out=best)


def centered_maximal_values(values):
    """Discrete centered maximal of |values| with cube windows clipped to
    the block (cell volume 1, so window averages)."""
    a = np.abs(np.asarray(values, dtype=float))
    return _centered_maximal(a, a.ndim)


def centered_maximal_measure(cell_masses, cell_volume):
    """Centered maximal of a measure: sup over clipped cube windows of
    mass(window)/volume(window)."""
    m = np.asarray(cell_masses, dtype=float)
    return _centered_maximal(m, m.ndim, cell_volume)


# ---------------------------------------------------------------------------
# fractional integral
# ---------------------------------------------------------------------------

def fractional_kernel(n, alpha, offsets_per_axis, h):
    """Symmetric discrete kernel k(dx) = |dx|^(alpha-n) between midpoints,
    with the zero-offset entry equal to the exact cell self-integral over
    the cell volume.  The squared offsets broadcast from sparse axes into
    the one returned array, which is powered in place."""
    span = np.arange(-(offsets_per_axis - 1), offsets_per_axis) * h
    K = sum(g * g for g in np.meshgrid(*([span] * n), indexing="ij",
                                       sparse=True))
    K[~(K > 0)] = 1.0
    K **= (alpha - n) / 2.0
    center = tuple([offsets_per_axis - 1] * n)
    self_integral = ((h / 2.0) ** alpha) * (2 ** n) \
        * _corner_singular_unit_integral(n, alpha)
    K[center] = self_integral / h ** n
    return K


def fractional_integral(g: GridFunction, alpha):
    """I_alpha(g)(x) = sum over cells y of g(y)|x-y|^(alpha-n) vol,
    midpoint kernel with exact self-cell integral; evaluated at every cell
    center.  On a sub-cube it is the integral of g restricted to that cube,
    made the input grid."""
    n = g.n
    if not (0 < alpha < n):
        raise OperatorError("alpha must lie in (0, n)")
    if np.any(g.values < 0):
        raise OperatorError("g must be nonnegative")
    block = g.values
    s = block.shape[0]
    # the full linear convolution has 3s - 2 entries per axis, the s valid
    # ones (K covering the whole block) starting at s - 1; s is a power of
    # two, so 3s is a fast FFT length.  Only the last-axis spectra (rfftn's
    # first 1D transform) are held whole, K's first, so K is freed before
    # the block's is taken
    L, last = 3 * s, n - 1
    valid = slice(s - 1, 2 * s - 1)
    K = fractional_kernel(n, alpha, s, g.cell_width)
    freed = K.nbytes
    kspec = np.fft.rfft(K, L, axis=last)
    K = None
    spec = np.fft.rfft(block, L, axis=last)
    if n == 1:
        spec *= kspec
    else:
        # per strip of frequency columns: rfftn's remaining 1D transforms
        # (axes n-2 ... 0), the product block * K, and irfftn's 1D inverses
        # (axes 0 ... n-2), each followed by keeping the valid rows of its
        # axis.  A strip's two full spectra fit in the bytes K held beyond
        # the block's spectrum, so the peak stays at K's transform.  Where
        # that margin is only a few columns (a small block), a strip may
        # take the bytes K held, up to STRIP_BYTES, so that the block
        # still runs in a few strips
        column = 2 * L ** last * spec.itemsize
        width = max(1, (freed - spec.nbytes) // column,
                    min(freed, STRIP_BYTES) // column)
        for j in range(0, spec.shape[last], width):
            cols = (Ellipsis, slice(j, j + width))
            bs, ks = spec[cols], kspec[cols]
            for ax in range(n - 2, -1, -1):
                bs = np.fft.fft(bs, L, axis=ax)
                ks = np.fft.fft(ks, L, axis=ax)
            bs *= ks
            ks = None
            for ax in range(last):
                bs = np.fft.ifft(bs, axis=ax)[(slice(None),) * ax + (valid,)]
            spec[cols] = bs
    kspec = None
    vals = np.fft.irfft(spec, L, axis=last)[(slice(None),) * last + (valid,)]
    vals *= g.cell_volume
    # a fresh array: in place, the result would be a view pinning all 3s
    # columns of the inverse transform
    return g.copy_with(np.maximum(vals, 0.0))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(values, masses, p):
    return float((np.abs(values) ** p * masses).sum() ** (1.0 / p))


def _sorted_distribution(values, masses):
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    m = np.asarray(masses, dtype=float).ravel()
    order = np.argsort(v)[::-1]
    v, m = v[order], m[order]
    cum = np.cumsum(m)
    # collapse ties so each row is a distinct value with mass mu{|g| >= v}
    keep = np.ones(v.size, dtype=bool)
    keep[:-1] = v[:-1] != v[1:]
    return v[keep], cum[keep]


def weak_norm_values(values, masses, p):
    """Exact weak-L^p quasinorm sup_t t * mu{|g| > t}^(1/p) for a step
    distribution (sup attained approaching each value level from below)."""
    if np.asarray(masses).sum() <= 0:
        raise OperatorError("empty measure")
    v, cum = _sorted_distribution(values, masses)
    if v.size == 0 or v[0] == 0.0:
        return 0.0
    return float(np.max(v * cum ** (1.0 / p)))


def lorentz_p1_norm_values(values, masses, p):
    """Exact L^{p,1} norm: integral over t of mu{|g| > t}^(1/p) dt."""
    if np.asarray(masses).sum() <= 0:
        raise OperatorError("empty measure")
    v, cum = _sorted_distribution(values, masses)
    v = v[::-1]
    cum = cum[::-1]          # ascending values; cum[k] = mu{|g| >= v[k]}
    prev = np.concatenate([[0.0], v[:-1]])
    return float(np.sum((v - prev) * cum ** (1.0 / p)))


def triple_norm_values(values, masses, p):
    """sup over superlevel sets E of |g| of mu(E)^(1/p - 1) * int_E |g| dmu.

    Restricting to superlevel sets attains the sup for this functional
    (rearrangement); documented computational reduction.  Requires p > 1.
    """
    if p <= 1:
        raise OperatorError("triple norm requires p > 1")
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    m = np.asarray(masses, dtype=float).ravel()
    if m.sum() <= 0:
        raise OperatorError("empty measure")
    order = np.argsort(v)[::-1]
    v, m = v[order], m[order]
    cum_mass = np.cumsum(m)
    cum_int = np.cumsum(v * m)
    pos = cum_mass > 0
    return float(np.max(cum_mass[pos] ** (1.0 / p - 1.0) * cum_int[pos]))


def orlicz_exp_norm_values(values, masses):
    """Luxemburg norm for Phi(t) = exp(t) - 1 on a normalized measure:
    the lambda with mean of (exp(|g|/lambda) - 1) equal to 1, by bisection."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    m = np.asarray(masses, dtype=float).ravel()
    tot = m.sum()
    if tot <= 0:
        raise OperatorError("empty measure")
    m = m / tot
    gmax = float(v.max()) if v.size else 0.0
    if gmax == 0.0:
        return 0.0

    def excess(lam):
        z = v / lam
        if z.max() > 700.0:
            return np.inf
        return float((m * np.expm1(z)).sum()) - 1.0

    hi = gmax / math.log(2.0)      # excess(hi) <= 0 always
    lo = hi
    while excess(lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    while (hi - lo) > EXP_NORM_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# Rubio de Francia
# ---------------------------------------------------------------------------

def rdf_probe_corpus(shape, count, seed):
    """Seeded probe functions for empirical maximal-operator norms, stacked
    as a ``(count, *shape)`` array: random positive fields with every
    fourth entry a single-cell spike."""
    rng = np.random.default_rng(seed)
    out = np.empty((count,) + tuple(shape))
    for i in range(count):
        if i % 4 == 3:
            out[i] = 1e-3
            out[(i,) + tuple(rng.integers(0, s) for s in shape)] = 1.0
        else:
            out[i] = rng.random(shape) + 0.05
    return out


def maximal_opnorm(w_masses, p, shape):
    """Empirical ||M||_{L^p(w)}: the largest ratio ||Mg|| / ||g|| over the
    PROBE_COUNT seeded probes g, and at least 1."""
    probes = rdf_probe_corpus(shape, PROBE_COUNT, PROBE_SEED)
    maxed = _centered_maximal(probes, len(shape))
    wm = w_masses.ravel()
    best = 0.0
    for vals, mv in zip(probes, maxed):
        best = max(best, lp_norm(mv.ravel(), wm, p)
                   / lp_norm(vals.ravel(), wm, p))
    return max(best, 1.0)


def rubio_de_francia(h: GridFunction, w, p, terms=20, opnorm=None):
    """Truncated majorant series R(h) = sum_k M^k h / (2 ||M||)^k, k <= terms,
    against the weight of cell masses ``w`` (Lebesgue when None).

    ||M|| is ``opnorm`` when given ("supplied") and the ``maximal_opnorm``
    estimate otherwise ("empirical").  Returns (R, report) where report
    records the operator-norm value and mode, the number of terms, and the
    geometric tail bound (1/(2||M||))^(terms+1) / (1 - 1/(2||M||)) ||h||_{L^p(w)}.
    """
    if terms < 1:
        raise OperatorError("terms must be >= 1")
    if p <= 1:
        raise OperatorError("p must be > 1")
    if np.any(h.values < 0) or not np.any(h.values > 0):
        raise OperatorError("h must be nonnegative and not identically zero")
    w_masses = measure_cell_masses(w, h)
    mode = "supplied"
    if opnorm is None:
        mode, opnorm = "empirical", maximal_opnorm(w_masses, p, h.values.shape)
    elif not opnorm >= 1:   # ||M|| >= 1 because Mh >= h
        raise OperatorError("opnorm must be >= 1")
    term = h.values.copy()
    acc = term.copy()
    ratio = 1.0 / (2.0 * opnorm)
    for k in range(1, terms + 1):
        term = centered_maximal_values(term)
        acc = acc + term * ratio ** k
    hnorm = lp_norm(h.values.ravel(), w_masses.ravel(), p)
    tail = ratio ** (terms + 1) / (1.0 - ratio) * hnorm
    report = {
        "opnorm": opnorm,
        "opnorm_mode": mode,
        "terms": terms,
        "tail_bound": tail,
        "h_norm": hnorm,
    }
    return h.copy_with(acc), report
