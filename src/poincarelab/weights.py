"""Weight and measure representations plus weight-class characteristics.

Weights are positive densities on the grid: either sampled cell values
(GridWeight) or the radial power law |x|^(delta-n) with quasi-closed-form
cell masses (PowerWeight).  All class constants (A_p, A_1, Fujii-Wilson
A_inf, reverse-Holder exponent, A_{p,1}, RH_inf) are suprema over the
finite dyadic family up to the working depth, taken by one sweep over
that family; reports record the family used.  ``shifted=True`` adds the
half-shifted cubes to every constant.  They are a grid stand-in for the
one-third-shifted lattices of Lerner-Nazarov's three-lattice theorem
("Intuitive dyadic calculus"); the theorem's constants are not claimed
for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import (CubeIndex, GridFunction, RootBox, block_reduce,
                   check_cell_cap, float_pow, level_blocks, resolve,
                   upsample)


class WeightError(ValueError):
    pass


# ---------------------------------------------------------------------------
# weight / measure representations
# ---------------------------------------------------------------------------

class GridWeight:
    """Weight given by strictly positive cell values."""

    def __init__(self, g: GridFunction):
        if np.any(g.values <= 0):
            raise WeightError("weight cell values must be strictly positive")
        self.g = g

    @property
    def root(self):
        return self.g.root

    @property
    def n(self):
        return self.g.n

    def cell_values(self, root, depth):
        if root != self.g.root or depth != self.g.depth:
            raise WeightError("weight resolved on a different grid")
        return self.g.values

    def cell_masses(self, root, depth):
        return self.cell_values(root, depth) * self.g.cell_volume


_CORNER_INTEGRAL_CACHE = {}
CORNER_SUBLEVELS = 6  # midpoint subdivision levels of the corner integral
SET_INEQUALITY_TOL = 1e-12  # relative slack of set_inequality_holds


def _corner_singular_unit_integral(n, gamma):
    """integral over [0,1]^n of |u|^(gamma - n) du for gamma > 0.

    Splits the unit cube into 2^n half-side subcubes; the origin subcube is
    a (1/2)^gamma rescaled copy of the whole, the other 2^n - 1 are handled
    by vectorized midpoint subdivision (integrand smooth away from 0).
    """
    if gamma <= 0:
        raise WeightError("exponent must be positive")
    if n == 1:
        return 1.0 / gamma
    key = (n, float(gamma))
    if key in _CORNER_INTEGRAL_CACHE:
        return _CORNER_INTEGRAL_CACHE[key]
    K = 1 << CORNER_SUBLEVELS
    side = 0.5 / K
    mids = side * (np.arange(K) + 0.5)
    shell = 0.0
    for offs in itertools.product((0, 1), repeat=n):
        if all(o == 0 for o in offs):
            continue
        axes = [mids + 0.5 * o for o in offs]
        grids = np.meshgrid(*axes, indexing="ij")
        r2 = sum(g * g for g in grids)
        shell += float((r2 ** ((gamma - n) / 2.0)).sum()) * side ** n
    out = shell / (1.0 - 2.0 ** (-gamma))
    _CORNER_INTEGRAL_CACHE[key] = out
    return out


class PowerWeight:
    """w(x) = |x|^(delta - n) on a root box symmetric about the origin.

    Cell masses: in 1D the exact integral of the density; for n >= 2 the
    midpoint rule, except on the 2^n cells with a corner at the origin,
    which get the exact integral h^delta * _corner_singular_unit_integral.
    The masses are evaluated on the positive orthant only and reflected
    across every axis, so they are exactly symmetric; where the cell edges
    are exact binary fractions (a side such as 2, the default) the
    reflected midpoints equal the computed ones bit for bit.  At depth 0
    the single cell contains the origin and gets its exact mass
    2^n (side/2)^delta * _corner_singular_unit_integral.
    """

    def __init__(self, delta, n, root=None):
        if not (0 < delta <= 1):
            raise WeightError("delta must lie in (0, 1]")
        self.delta = float(delta)
        self._n = int(n)
        self.root = root if root is not None else RootBox.symmetric(n)
        if any(lo + self.root.side / 2.0 != 0.0 for lo in self.root.lower):
            raise WeightError("PowerWeight root box must be centered at the origin")
        self._mass_cache = {}

    @property
    def n(self):
        return self._n

    def cell_masses(self, root, depth):
        if root != self.root:
            raise WeightError("PowerWeight resolved on a different root box")
        if depth in self._mass_cache:
            return self._mass_cache[depth]
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
            mids = root.lower[0] + h * np.arange(N // 2, N) + h / 2.0
            sq = mids * mids
            r2 = sq
            for _ in range(1, n):
                r2 = r2[..., None] + sq
            masses = (np.sqrt(r2) ** (delta - n)) * h ** n
            masses[(0,) * n] = (h ** delta) * _corner_singular_unit_integral(
                n, delta)
            for axis in range(n):
                masses = np.concatenate([np.flip(masses, axis), masses],
                                        axis=axis)
        self._mass_cache[depth] = masses
        return masses

    def cell_values(self, root, depth):
        N = 1 << depth
        h = root.side / N
        return self.cell_masses(root, depth) / h ** self._n


class Density:
    """Measure with nonnegative grid density."""

    def __init__(self, g: GridFunction):
        if np.any(g.values < 0):
            raise WeightError("density must be nonnegative")
        self.g = g

    def cell_masses(self, root, depth):
        if root != self.g.root or depth != self.g.depth:
            raise WeightError("measure resolved on a different grid")
        return self.g.values * self.g.cell_volume


class Atomic:
    """Purely atomic measure: point masses inside the root box."""

    def __init__(self, points, masses):
        self.points = [tuple(float(x) for x in p) for p in points]
        self.masses = [float(m) for m in masses]
        if any(m <= 0 for m in self.masses):
            raise WeightError("atom masses must be positive")

    def cell_masses(self, root, depth):
        n = root.n
        N = 1 << depth
        h = root.side / N
        out = np.zeros((N,) * n)
        for p, m in zip(self.points, self.masses):
            idx = []
            for i in range(n):
                k = int((p[i] - root.lower[i]) / h)
                if not (0 <= k < N) and not (k == N and p[i] == root.lower[i] + root.side):
                    raise WeightError("atom outside root box")
                idx.append(min(k, N - 1))
            out[tuple(idx)] += m
        return out


# ---------------------------------------------------------------------------
# cube families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyDescriptor:
    depth: int
    shifted: bool = False


def _sweep(depth, shifted, per_cube):
    """Supremum over the cube family and the first cube attaining it.

    The walk takes each level's aligned cubes, then with ``shifted`` its
    half-shifted cubes (0 < level < depth).  ``per_cube(level, sh)`` gives
    one value per cube of that member, shaped as ``block_reduce`` returns
    it; the cube is named as a CubeIndex, or as ``("shifted", level,
    coords)``.
    """
    best, best_cube = -np.inf, None
    for level in range(depth + 1):
        for sh in (False, True) if shifted and 0 < level < depth else (False,):
            vals = per_cube(level, sh)
            i = int(np.argmax(vals))
            if vals.flat[i] > best:
                best = float(vals.flat[i])
                coords = tuple(int(c) for c in np.unravel_index(i, vals.shape))
                best_cube = (("shifted", level, coords) if sh
                             else CubeIndex(level, coords))
    return best, best_cube


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
    it, for ``_sweep``.

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


def _ap_cubes(uv, vv, p):
    """Per-cube A_p expression for ``_sweep``: (avg u)(avg v^(1-p'))^(p-1)
    for p > 1, (avg u) * max(1/v) for p = 1."""
    if p == 1:
        low = _extremum_levels(vv, np.minimum)
        return lambda level, sh: (block_reduce(uv, level, np.mean, sh)
                                  / low(level, sh))
    dual = vv ** (1.0 - p / (p - 1.0))
    return lambda level, sh: (block_reduce(uv, level, np.mean, sh)
                              * block_reduce(dual, level, np.mean, sh)
                              ** (p - 1.0))


def ap_constant(w, p, root, depth, shifted=False, return_argmax=False):
    """Muckenhoupt A_p constant over the dyadic family up to ``depth``.

    p > 1: sup of (avg w)(avg w^(1-p'))^(p-1); p = 1: sup of
    (avg w) * max(1/w) per cube.
    """
    if p < 1:
        raise WeightError("p must be >= 1")
    wv = resolve(w, root, depth)
    found = _sweep(depth, shifted, _ap_cubes(wv, wv, p))
    return found if return_argmax else found[0]


def two_weight_ap(u, v, p, root, depth, shifted=False):
    """Two-weight A_p constant sup (avg u)(avg v^(1-p'))^(p-1)."""
    if p <= 1:
        raise WeightError("p must be > 1")
    uv = resolve(u, root, depth)
    return _sweep(depth, shifted, _ap_cubes(uv, resolve(v, root, depth), p))[0]


def rhinf_constant(w, root, depth, shifted=False):
    """RH_inf constant: sup over cubes of (max w on Q)/(avg w on Q)."""
    wv = resolve(w, root, depth)
    high = _extremum_levels(wv, np.maximum)
    return _sweep(depth, shifted,
                  lambda level, sh: (high(level, sh)
                                     / block_reduce(wv, level, np.mean, sh)))[0]


def ainf_fujii_wilson(w, root, depth, shifted=False):
    """Fujii-Wilson A_inf constant over the cube family.

    For each cube Q: (1/w(Q)) * integral over Q of the discrete centered
    maximal of w restricted to Q (windows clipped to Q).  All cubes of one
    family member go through the maximal kernel as one batch.
    """
    # local import: operators imports _corner_singular_unit_integral from here
    from .operators import _centered_maximal

    wv = resolve(w, root, depth)
    space = tuple(range(wv.ndim, 2 * wv.ndim))

    def per_cube(level, sh):
        blocks = level_blocks(wv, level, sh)
        return (_centered_maximal(blocks, wv.ndim).mean(axis=space)
                / blocks.mean(axis=space))

    return _sweep(depth, shifted, per_cube)[0]


def rh_exponent(ainf, n):
    """Reverse-Holder exponent 1 + 1/(2^(n+1) * ainf - 1)."""
    return 1.0 + 1.0 / (2.0 ** (n + 1) * ainf - 1.0)


def _rh_check(wv, depth, shifted, ainf):
    rw = rh_exponent(ainf, wv.ndim)
    wr = wv ** rw
    worst = _sweep(depth, shifted,
                   lambda level, sh: (block_reduce(wr, level, np.mean, sh)
                                      / block_reduce(wv, level, np.mean, sh)
                                      ** rw))[0]
    return rw, worst, worst <= 2.0


def rh_exponent_and_check(w, root, depth):
    """(r_w, worst ratio of avg(w^r_w) to avg(w)^r_w, pass flag <= 2) over
    the aligned dyadic cubes."""
    wv = resolve(w, root, depth)
    return _rh_check(wv, depth, False, ainf_fujii_wilson(wv, root, depth))


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
    pprime = p / (p - 1.0)

    def per_cube(level, sh):
        blocks = level_blocks(wv, level, sh)
        rows = blocks.reshape(blocks.shape[:wv.ndim] + (-1,))
        vol = rows.shape[-1] * cellvol
        w_up = np.sort(rows, axis=-1)         # 1/w descending
        cum = np.cumsum(w_up * cellvol / vol, axis=-1)
        wk = np.max(1.0 / w_up * cum ** (1.0 / pprime), axis=-1)
        return rows.mean(axis=-1) * float_pow(wk, p).astype(float)

    return _sweep(depth, shifted, per_cube)[0]


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
        arg = self.ap_argmax
        if isinstance(arg, CubeIndex):
            arg = {"level": arg.level, "coords": list(arg.coords)}
        elif isinstance(arg, tuple):
            arg = {"family": arg[0], "level": arg[1], "coords": list(arg[2])}
        return {
            "p": self.p,
            "ap": self.ap,
            "ap_argmax": arg,
            "a1": self.a1,
            "ainf_fw": self.ainf_fw,
            "rh_exponent": self.rh_exponent,
            "rh_worst_ratio": self.rh_worst_ratio,
            "rh_pass": bool(self.rh_pass),
            "ap1": self.ap1,
            "rhinf": self.rhinf,
            "family": {"depth": self.family.depth, "shifted": self.family.shifted},
        }


def constants_report(w, p, root, depth, shifted=False):
    """Compute the full bundle of weight-class constants."""
    wv = resolve(w, root, depth)
    ap, arg = ap_constant(wv, p, root, depth, shifted, return_argmax=True)
    a1 = ap_constant(wv, 1.0, root, depth, shifted)
    ainf = ainf_fujii_wilson(wv, root, depth, shifted)
    rw, worst, ok = _rh_check(wv, depth, shifted, ainf)
    ap1 = ap1_constant(wv, p, root, depth, shifted) if p > 1 else float("nan")
    rhi = rhinf_constant(wv, root, depth, shifted)
    return WeightConstantsReport(p, ap, arg, a1, ainf, rw, worst, ok, ap1, rhi,
                                 FamilyDescriptor(depth, shifted))


def set_inequality_holds(w, p, root, depth):
    """Check |E|/|Q| <= ap^(1/p) (w(E)/w(Q))^(1/p) for every pair of
    dyadic cubes E inside Q down to ``depth``, up to a relative
    SET_INEQUALITY_TOL on its p-th power (|E|/|Q|)^p w(Q) <= ap w(E).

    One pass down the levels, O(depth * cells): ``worst`` holds, per cube
    E of the level, the max of the left side (|E|/|Q|)^p w(Q) over the
    cubes Q containing E, which is max(w(E), 2^(-np) worst(parent of E)).
    """
    wv = resolve(w, root, depth)
    ap = ap_constant(wv, p, root, depth)
    shrink = 2.0 ** (-wv.ndim * p)
    worst = None
    for level in range(depth + 1):
        sums = block_reduce(wv, level, np.sum)
        worst = sums if worst is None \
            else np.maximum(sums, shrink * upsample(worst))
        if np.any(worst > ap * sums * (1.0 + SET_INEQUALITY_TOL)):
            return False
    return True
