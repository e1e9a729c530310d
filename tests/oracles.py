"""Plain references the tests compare the library against, and the drivers
that reach its private D_p kernels directly: a walk over every dyadic cube,
cube inclusion, the subcubes of a cube, a sub-cube made its own grid, the
scalar formula of the fractional functional, the catalog's gradient and
Lorentz right sides by their plain formulas, the per-family D_p ratio, the
overlap and budget check of an L-small family, one sampled family, and the
D_p maximum of a single exhaustive or sampled run."""

import itertools
from dataclasses import dataclass

import numpy as np

from poincarelab.functionals import (CubeSums, DpReport, FunctionalError,
                                     _dp_maxima, _draw_family, _sampled,
                                     _scores, _uniform_draws)
from poincarelab.grid import CubeIndex, GridFunction, RootBox, discrete_gradient
from poincarelab.operators import lorentz_p1_norm_values


def all_cubes(n, depth, min_level=0):
    """All dyadic cube indices with min_level <= level <= depth."""
    for level in range(min_level, depth + 1):
        for coords in itertools.product(range(1 << level), repeat=n):
            yield CubeIndex(level, coords)


def contains(Q: CubeIndex, other: CubeIndex):
    """Whether the dyadic cube ``other`` lies inside Q."""
    if other.level < Q.level:
        return False
    shift = other.level - Q.level
    return all(oc >> shift == c for c, oc in zip(Q.coords, other.coords))


def subcube_at(parent: CubeIndex, level, rel_coords):
    """The level-``level`` cube of ``parent`` at coordinates ``rel_coords``
    relative to it."""
    shift = level - parent.level
    return CubeIndex(level, tuple((pc << shift) + rc
                                  for pc, rc in zip(parent.coords, rel_coords)))


def full_partition(parent: CubeIndex, level):
    """The level-``level`` cubes of ``parent``, row-major in their
    relative coordinates."""
    shift = level - parent.level
    return [subcube_at(parent, level, rc)
            for rc in itertools.product(range(1 << shift), repeat=parent.n)]


def restrict(f: GridFunction, Q: CubeIndex):
    """f on the cells of Q, as a grid whose root box is Q: the input that
    checks Q with the library's root-cube functions."""
    side = f.root.side / (1 << Q.level)
    lower = tuple(lo + side * c for lo, c in zip(f.root.lower, Q.coords))
    return GridFunction(RootBox(lower, side), f.depth - Q.level,
                        f.values[f.block(Q)])


def relative_cube(Q: CubeIndex, q: CubeIndex):
    """The cube q inside Q, indexed on the grid that ``restrict`` makes."""
    shift = q.level - Q.level
    return CubeIndex(shift, tuple(c - (qc << shift)
                                  for c, qc in zip(q.coords, Q.coords)))


def reference_eval(a, q: CubeIndex):
    """a(q) = l(q)^alpha (mu(q)/w(q))^(1/p) of a fractional functional by
    the scalar formula, on Python floats."""
    ell = a.root.side / (1 << q.level)
    return ell ** a.alpha * (a.mu.mass(q) / a.w.mass(q)) ** (1.0 / a.p)


def reference_gradient_side(f: GridFunction, u, v, p, m):
    """l(Q)^m ((1/u(Q)) int_Q |grad^m f|^p v)^(1/p) on the root cube Q of
    f's grid, for cell masses u and v (v = u when None), by the plain
    formula on Python floats."""
    v = u if v is None else v
    num = float((np.abs(discrete_gradient(f, m).values) ** float(p) * v).sum())
    return f.root.side ** m * (num / float(u.sum())) ** (1.0 / p)


def reference_lorentz_side(f: GridFunction, u, p):
    """l(Q) ||grad f||_{L^{p,1}(Q, u dx / u(Q))} on the root cube Q of f's
    grid, for the cell masses u, by the plain formula; a zero u cell is
    refused."""
    u = u.ravel()
    if np.any(u <= 0):
        raise FunctionalError("degenerate weight")
    return f.root.side * lorentz_p1_norm_values(
        discrete_gradient(f, 1).values.ravel(), u / u.sum(), float(p))


@dataclass
class SmallFamily:
    parent: CubeIndex
    members: list
    L: float

    def validate(self, depth):
        n = self.parent.n
        span = 1 << (depth - self.parent.level)
        mask = np.zeros((span,) * n, dtype=bool)
        parent_cells = span ** n
        used = 0
        for q in self.members:
            if not contains(self.parent, q):
                raise FunctionalError("member outside parent")
            b = 1 << (depth - q.level)
            rel = tuple(c * b - pc * span for c, pc in zip(q.coords, self.parent.coords))
            sl = tuple(slice(r, r + b) for r in rel)
            if mask[sl].any():
                raise FunctionalError("members overlap")
            mask[sl] = True
            used += b ** n
        if used > parent_cells / self.L + 1e-9:
            raise FunctionalError("family exceeds the L-small volume budget")
        return used


def random_small_family(n, L, below, depth):
    """One sampled L-small family of dyadic cubes of the depth-``depth``
    grid in dimension n, drawn by ``_draw_family`` with ``below`` (one
    ``_uniform_draws`` stream), as ``sdp_check``'s random mode draws each
    of its families."""
    members = _draw_family(n, L, below, depth)
    return SmallFamily(CubeIndex.root(n), [CubeIndex(level, coords)
                                           for level, coords in members],
                       float(L))


def dp_ratio(a, w: CubeSums, p, family, Q: CubeIndex):
    """(sum_i a(Q_i)^p w(Q_i))^(1/p) / (a(Q)^p w(Q))^(1/p)."""
    den = a.eval(Q) ** p * w.mass(Q)
    num = sum(a.eval(qi) ** p * w.mass(qi) for qi in family)
    return float((num / den) ** (1.0 / p))


def max_dp_ratio(a, mode="exhaustive", trials=1000, seed=0, budget_L=None):
    """Best D_p ratio, with a's own w and p, over dyadic antichains below
    the root cube Q of a's grid (optionally volume limited to
    |Q|/budget_L).  exhaustive: exact tree maximum; random: sampled lower
    bound."""
    if mode not in ("exhaustive", "random"):
        raise FunctionalError(f"unknown mode {mode!r}")
    scores = _scores(a)
    if mode == "exhaustive":
        [(ratio, witness)] = _dp_maxima(scores, a.p, [budget_L])
        return DpReport(ratio, witness, 0)
    L = max(1.0 + 1e-9 if budget_L is None else budget_L, 1.0 + 1e-9)
    _, best, witness = _sampled(scores, a.p, L, trials, _uniform_draws(seed))
    if not best > 0.0:      # no trial, or no family with a positive ratio
        best, witness = 0.0, []
    return DpReport(best, witness, trials)
