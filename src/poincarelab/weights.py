"""Weight and measure representations plus weight-class characteristics.

Weights are positive densities on the grid: either sampled cell values
(GridWeight) or the radial power law |x|^(delta-n) with quasi-closed-form
cell masses (PowerWeight).  Each class turns itself into the cell values
or cell masses of a grid; every function below takes those arrays, and
``grid.resolve`` checks each against its grid once.
All class constants (A_p, A_1, Fujii-Wilson A_inf, reverse-Holder
exponent, A_{p,1}, RH_inf) are suprema over the finite dyadic family up
to the working depth, taken by one sweep over that family; reports
record the family used.  ``shifted=True`` adds the half-shifted cubes to
every constant but the two-weight A_p.  They are a grid stand-in for the
one-third-shifted lattices of Lerner-Nazarov's three-lattice theorem
("Intuitive dyadic calculus"); the theorem's constants are not claimed.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .grid import (CubeIndex, GridError, GridFunction, RootBox,
                   _corner_singular_unit_integral, _cumsum_planes,
                   block_reduce, check_cell_cap, float_pow, level_blocks,
                   resolve)
from .operators import _centered_maximal


class WeightError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weight / measure representations
# ---------------------------------------------------------------------------

class GridWeight:
    """Weight given by the cell values of a GridFunction on its grid."""

    def __init__(self, g: GridFunction):
        self.g = g

    @property
    def root(self):
        return self.g.root

    def cell_values(self, root, depth):
        """The values, refused unless (root, depth) is the GridFunction's
        grid and, as for every weight, each value is positive."""
        g = self.g
        if g.root != root:
            raise GridError(f"density on root box {g.root} resolved on {root}")
        if g.depth != depth:
            raise GridError(f"density on a depth-{g.depth} grid resolved at "
                            f"depth {depth}")
        if np.any(g.values < 0):
            raise GridError("density must be nonnegative")
        return resolve(g.values, root, depth)

    def cell_masses(self, root, depth):
        return self.cell_values(root, depth) * self.g.cell_volume


class PowerWeight:
    """w(x) = |x|^(delta - n) on a root box symmetric about the origin.

    Cell masses: in 1D the exact integral of the density; for n >= 2 the
    midpoint rule, except on the 2^n cells with a corner at the origin,
    which get the exact integral h^delta * _corner_singular_unit_integral.
    The masses are evaluated on the positive orthant only and mirrored:
    each of the 2^n orthants of one preallocated array is assigned the
    positive orthant reversed along that orthant's negative axes, so the
    masses are exactly symmetric; where the cell edges are exact binary
    fractions (a side such as 2, the default) the reflected midpoints
    equal the computed ones bit for bit.  At depth 0 the single cell
    contains the origin and gets its exact mass
    2^n (side/2)^delta * _corner_singular_unit_integral.
    """

    def __init__(self, delta, n, root=None):
        if not (0 < delta <= 1):
            raise WeightError("delta must lie in (0, 1]")
        self.delta = float(delta)
        self._n = int(n)
        self.root = root if root is not None else RootBox.symmetric(n)
        if self.root.n != self._n:
            raise WeightError(f"PowerWeight of dimension n={self._n} on a "
                              f"root box of dimension {self.root.n}")
        if any(lo + self.root.side / 2.0 != 0.0 for lo in self.root.lower):
            raise WeightError("PowerWeight root box must be centered at the origin")

    def cell_masses(self, root, depth):
        if root != self.root:
            raise WeightError("PowerWeight resolved on a different root box")
        n, delta = self._n, self.delta
        check_cell_cap(n, depth)
        N = 1 << depth
        h = root.side / N
        if n == 1:
            edges = root.lower[0] + h * np.arange(N + 1)
            masses = np.diff(np.sign(edges) * np.abs(edges) ** delta / delta)
        elif N == 1:
            masses = np.full((1,) * n, 2 ** n * (h / 2.0) ** delta
                             * _corner_singular_unit_integral(n, delta))
        else:
            # the positive orthant, from one 1D array of squared midpoints
            half = N // 2
            mids = root.lower[0] + h * np.arange(half, N) + h / 2.0
            sq = mids * mids
            r2 = sq
            for _ in range(1, n):
                r2 = r2[..., None] + sq
            orthant = (np.sqrt(r2) ** (delta - n)) * h ** n
            orthant[(0,) * n] = (h ** delta) * _corner_singular_unit_integral(
                n, delta)
            # each of the 2^n orthants is the positive one reversed along
            # its negative axes: per axis, the upper half as it is or the
            # lower half from the reversed orthant
            halves = ((slice(half, None), slice(None)),
                      (slice(half), slice(None, None, -1)))
            masses = np.empty((N,) * n)
            for parts in itertools.product(halves, repeat=n):
                target, source = zip(*parts)
                masses[target] = orthant[source]
        return masses

    def cell_values(self, root, depth):
        N = 1 << depth
        h = root.side / N
        return self.cell_masses(root, depth) / h ** self._n


# ---------------------------------------------------------------------------
# cube families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyDescriptor:
    depth: int
    shifted: bool = False


def _sweeps(depth, shifted, per_member):
    """Suprema over the cube family of several per-cube expressions, in one
    walk, each with the first cube attaining it.

    The walk takes each level's aligned cubes, then with ``shifted`` its
    half-shifted cubes (0 < level < depth).  ``per_member(level, sh)``
    gives, per expression, one value per cube of that member, shaped as
    ``block_reduce`` returns it; the cube is named as a CubeIndex, or as
    ``("shifted", level, coords)``.
    """
    found = None
    for level in range(depth + 1):
        for sh in (False, True) if shifted and 0 < level < depth else (False,):
            members = per_member(level, sh)
            if found is None:
                found = [(-np.inf, None)] * len(members)
            for k, vals in enumerate(members):
                i = int(np.argmax(vals))
                if vals.flat[i] > found[k][0]:
                    coords = tuple(int(c)
                                   for c in np.unravel_index(i, vals.shape))
                    found[k] = (float(vals.flat[i]),
                                ("shifted", level, coords) if sh
                                else CubeIndex(level, coords))
    return found


def _sweep(depth, shifted, per_cube):
    """Supremum of one per-cube expression over the cube family and the
    first cube attaining it, walked as in ``_sweeps``."""
    return _sweeps(depth, shifted, lambda level, sh: (per_cube(level, sh),))[0]


def _on_means(wv, *exprs):
    """``per_member`` for ``_sweeps``: each ``expr(level, sh, mean, out)``
    of the member's per-cube mean of ``wv``, which is reduced once.  The
    last expression gets the mean as ``out`` too, and writes its values
    over it, so a single expression holds no more than the one array it
    returns; the others get None."""
    last = len(exprs) - 1

    def per_member(level, sh):
        mean = block_reduce(wv, level, np.mean, sh)
        return [expr(level, sh, mean, mean if k == last else None)
                for k, expr in enumerate(exprs)]
    return per_member


def _on_blocks(wv, *exprs):
    """``per_member`` for ``_sweeps``: each ``expr(blocks, mean)`` of the
    member's cubes as ``level_blocks`` lays them out, built once, and of
    their per-cube mean."""
    space = tuple(range(wv.ndim, 2 * wv.ndim))

    def per_member(level, sh):
        blocks = level_blocks(wv, level, sh)
        mean = blocks.mean(axis=space)
        return [expr(blocks, mean) for expr in exprs]
    return per_member


# ---------------------------------------------------------------------------
# weight-class constants
# ---------------------------------------------------------------------------

def _halve(arr, op):
    """``op`` (np.minimum or np.maximum) over each 2^n block of cells: the
    array one level coarser."""
    for axis in range(arr.ndim):
        lead = (slice(None),) * axis
        arr = op(arr[lead + (slice(0, None, 2),)],
                 arr[lead + (slice(1, None, 2),)])
    return arr


def _extremum_levels(values, op):
    """Per-cube extremum ``op`` (np.minimum or np.maximum) of every cube
    family member, as ``block_reduce(values, level, op.reduce, sh)`` gives
    it, for the per-cube expressions of ``_sweeps``.

    The aligned levels form one pyramid, each level halved from the next
    finer one; a half-shifted level-l cube is the union of 2^n aligned
    level-(l+1) cubes, so it is halved from that level trimmed by one cube
    per side.  Extrema do not depend on the order of comparison, so each
    value equals the one-block reduction (up to the sign of a zero).
    """
    pyramid = [values]
    while pyramid[-1].shape[0] > 1:
        pyramid.append(_halve(pyramid[-1], op))
    pyramid.reverse()

    def per_cube(level, sh):
        if not sh:
            return pyramid[level]
        return _halve(pyramid[level + 1][(slice(1, -1),) * values.ndim], op)

    return per_cube


def _ap_cubes(vv, p):
    """Per-cube two-weight A_p expression for ``_on_means`` over u: (avg
    u)(avg v^(1-p'))^(p-1) for p > 1, (avg u) * max(1/v) for p = 1.  A p
    so near 1 that v^(1-p') overflows on some cell is refused."""
    if p == 1:
        low = _extremum_levels(vv, np.minimum)
        return lambda level, sh, mean, out: np.divide(mean, low(level, sh),
                                                      out=out)
    with np.errstate(over="ignore"):
        dual = vv ** (1.0 - p / (p - 1.0))
    if not np.all(np.isfinite(dual)):
        raise WeightError(f"w^(1-p') is not finite on some cell at p={p}; "
                          "p is too close to 1 for this weight")
    return lambda level, sh, mean, out: np.multiply(
        mean, block_reduce(dual, level, np.mean, sh) ** (p - 1.0), out=out)


def ap_constant(w, p, root, depth, shifted=False, return_argmax=False):
    """Muckenhoupt A_p constant over the dyadic family up to ``depth``.

    p > 1: sup of (avg w)(avg w^(1-p'))^(p-1); p = 1: sup of
    (avg w) * max(1/w) per cube.
    """
    if p < 1:
        raise WeightError("p must be >= 1")
    wv = resolve(w, root, depth)
    found = _sweeps(depth, shifted, _on_means(wv, _ap_cubes(wv, p)))[0]
    return found if return_argmax else found[0]


def two_weight_ap(u, v, p, root, depth):
    """Two-weight A_p constant sup (avg u)(avg v^(1-p'))^(p-1) for p > 1,
    sup (avg u) * max(1/v) for p = 1, over the aligned dyadic cubes."""
    if p < 1:
        raise WeightError("p must be >= 1")
    uv = resolve(u, root, depth)
    return _sweeps(depth, False,
                   _on_means(uv, _ap_cubes(resolve(v, root, depth), p)))[0][0]


def _rhinf_cubes(wv):
    """Per-cube RH_inf expression for ``_on_means``: (max w)/(avg w)."""
    high = _extremum_levels(wv, np.maximum)
    return lambda level, sh, mean, out: np.divide(high(level, sh), mean,
                                                  out=out)


def rhinf_constant(w, root, depth, shifted=False):
    """RH_inf constant: sup over cubes of (max w on Q)/(avg w on Q)."""
    wv = resolve(w, root, depth)
    return _sweeps(depth, shifted, _on_means(wv, _rhinf_cubes(wv)))[0][0]


def _ainf_cubes(blocks, mean):
    """Per-cube Fujii-Wilson expression for ``_on_blocks``: the mean of the
    discrete centered maximal of w restricted to Q (windows clipped to Q)
    over the mean of w.  All cubes of one family member go through the
    maximal kernel as one batch."""
    n = mean.ndim
    return (_centered_maximal(blocks, n).mean(axis=tuple(range(n, 2 * n)))
            / mean)


def ainf_fujii_wilson(w, root, depth, shifted=False):
    """Fujii-Wilson A_inf constant over the cube family: for each cube Q,
    (1/w(Q)) * integral over Q of M(w 1_Q), M the discrete centered
    maximal."""
    wv = resolve(w, root, depth)
    return _sweeps(depth, shifted, _on_blocks(wv, _ainf_cubes))[0][0]


def rh_exponent(ainf, n):
    """Reverse-Holder exponent 1 + 1/(2^(n+1) * ainf - 1)."""
    return 1.0 + 1.0 / (2.0 ** (n + 1) * ainf - 1.0)


def _rh_cubes(wv, rw):
    """Per-cube reverse-Holder expression for ``_on_means``: avg(w^r_w) /
    avg(w)^r_w."""
    wr = wv ** rw
    return lambda level, sh, mean, out: np.divide(
        block_reduce(wr, level, np.mean, sh), mean ** rw, out=out)


def rh_exponent_and_check(w, root, depth):
    """(r_w, worst ratio of avg(w^r_w) to avg(w)^r_w, pass flag <= 2) over
    the aligned dyadic cubes."""
    wv = resolve(w, root, depth)
    rw = rh_exponent(ainf_fujii_wilson(wv, root, depth), wv.ndim)
    worst = _sweeps(depth, False, _on_means(wv, _rh_cubes(wv, rw)))[0][0]
    return rw, worst, worst <= 2.0


def _ap1_cubes(p, cellvol):
    """Per-cube A_{p,1} expression for ``_on_blocks``; see
    ``ap1_constant``."""
    pprime = p / (p - 1.0)

    def per_cube(blocks, mean):
        rows = blocks.reshape(mean.shape + (-1,))
        vol = rows.shape[-1] * cellvol
        w_up = np.sort(rows, axis=-1)         # 1/w descending
        if mean.size > rows.shape[-1]:
            # more cubes than cells per cube: the k-th cells of all cubes
            # as one plane, so the running sum and the max run across cubes
            w_up = np.moveaxis(w_up, -1, 0).copy()
            cum = w_up * cellvol / vol
            _cumsum_planes(cum, 0)
            axis = 0
        else:
            cum = np.cumsum(w_up * cellvol / vol, axis=-1)
            axis = -1
        wk = np.max(1.0 / w_up * cum ** (1.0 / pprime), axis=axis)
        return mean * float_pow(wk, p, WeightError)

    return per_cube


def ap1_constant(w, p, root, depth, shifted=False):
    """A_{p,1} constant: sup of (avg w) * weak-L^{p'} norm of 1/w, p-th power.

    The weak norm is taken in L^{p',inf}(Q, w dx/|Q|); exact evaluation via
    the step distribution function of 1/w on each cube: the max of
    (1/w) * (w-mass of {1/w >= it})^(1/p') over cells in descending 1/w,
    ties needing no collapsing as the last of a tie run dominates.
    """
    if p <= 1:
        raise WeightError("p must be > 1")
    wv = resolve(w, root, depth)
    cellvol = (root.side / wv.shape[0]) ** wv.ndim
    return _sweeps(depth, shifted,
                   _on_blocks(wv, _ap1_cubes(p, cellvol)))[0][0]


@dataclass
class WeightConstantsReport:
    p: float
    ap: float
    ap_argmax: object
    a1: float
    ainf_fw: float
    rh_exponent: float
    rh_worst_ratio: float
    rh_pass: bool
    ap1: float
    rhinf: float
    family: FamilyDescriptor

    def to_dict(self):
        d = asdict(self)
        if isinstance(self.ap_argmax, tuple):   # a half-shifted cube
            family, level, coords = self.ap_argmax
            d["ap_argmax"] = {"family": family, "level": level,
                              "coords": list(coords)}
        return d


def constants_report(w, p, root, depth, shifted=False):
    """The full bundle of weight-class constants, from two walks over the
    cube family.

    The first walk builds each member's cubes once (``level_blocks``) for
    A_inf and A_{p,1}.  The second reduces each member's mean of w once
    (``block_reduce``) for A_p, A_1, the reverse-Holder check and RH_inf.
    The check's exponent r_w comes from A_inf over the whole family, so the
    means wait for the first walk; keeping every member's means instead
    would hold the whole pyramid of them.  Every value, and the A_p
    argmax, equals the separate function's: the first cube in walk order,
    aligned before half-shifted, attains each supremum.
    """
    wv = resolve(w, root, depth)
    if p < 1:
        raise WeightError("p must be >= 1")
    # refuses a p too near 1 before any walk; built again for the second
    # walk, so that its w^(1-p') is not held through the first
    _ap_cubes(wv, p)
    on_blocks = [_ainf_cubes]
    if p > 1:
        on_blocks.append(_ap1_cubes(p, (root.side / wv.shape[0]) ** wv.ndim))
    found = _sweeps(depth, shifted, _on_blocks(wv, *on_blocks))
    ainf = found[0][0]
    ap1 = found[1][0] if p > 1 else float("nan")
    rw = rh_exponent(ainf, wv.ndim)
    (ap, arg), (a1, _), (worst, _), (rhi, _) = _sweeps(
        depth, shifted,
        _on_means(wv, _ap_cubes(wv, p), _ap_cubes(wv, 1.0),
                  _rh_cubes(wv, rw), _rhinf_cubes(wv)))
    return WeightConstantsReport(p, ap, arg, a1, ainf, rw, worst,
                                 worst <= 2.0, ap1, rhi,
                                 FamilyDescriptor(depth, shifted))
