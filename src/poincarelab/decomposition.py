"""Level-L stopping-time (Calderon-Zygmund) decomposition, the polynomial
projection P_Q f and the oscillation, all on the root cube Q of a grid; a
sub-cube is handled by making it the input grid.

The decomposition consumes a nonnegative grid function h on its root
cube (in the typical use h is a normalized oscillation |f - f_Q|/a(Q)),
so the same engine serves plain oscillations, polynomial oscillations,
and good-lambda style experiments.  Stopping descends to single cells,
so every almost-everywhere statement is an exact cell statement here.
One top-down pass over the per-level means finds the stopping cubes and
the good part; each bad part (h - good on its stopping cube) is built
only when read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import (CubeIndex, GridFunction, block_reduce, measure_cell_masses,
                   upsample)


class DecompositionError(ValueError):
    pass


@dataclass
class CZDecomposition:
    L: float
    stopping: list                  # by level, then row-major by coords
    omega_mask: np.ndarray          # bool over all cells (true on Omega_L)
    good: GridFunction
    h: GridFunction

    @property
    def bad(self):
        """(cube, GridFunction) per stopping cube: h - good on the cube and
        0 elsewhere, built when read."""
        out = []
        for q in self.stopping:
            sl = self.h.block(q)
            vals = np.zeros_like(self.h.values)
            vals[sl] = self.h.values[sl] - self.good.values[sl]
            out.append((q, self.h.copy_with(vals)))
        return out

    def omega_volume_fraction(self):
        return float(self.omega_mask.mean())

    def reconstruction_error(self):
        """One pass: the bad parts sum to h - good on Omega_L, 0 off it."""
        h, g = self.h.values, self.good.values
        total = np.where(self.omega_mask, g + (h - g), g)
        return float(np.max(np.abs(total - h)))


def cz_decompose(h: GridFunction, L: float = 2.0):
    """Stopping cubes = maximal dyadic cubes of the grid with average of h
    above L, by level, then row-major by coords; good part equals h off
    their union and the cube average on each stopping cube; bad parts are
    the mean-zero remainders.  Per level, ``free`` marks the cubes with no
    stopped ancestor, ``avg`` the stopped ancestor's mean.  A sub-cube is
    decomposed by making it the input grid."""
    if L <= 1:
        raise DecompositionError("L must be > 1")
    if np.any(h.values < 0):
        raise DecompositionError("h must be nonnegative")
    if block_reduce(h.values, 0, np.mean).item() > L:
        raise DecompositionError("average of h over Q exceeds L")

    free, avg = np.ones((1,) * h.n, dtype=bool), np.zeros((1,) * h.n)
    stopping = []
    for level in range(1, h.depth + 1):
        means = block_reduce(h.values, level, np.mean)
        free, avg = upsample(free), upsample(avg)
        stop = free & (means > L)
        stopping += [CubeIndex(level, idx) for idx in np.argwhere(stop)]
        avg[stop] = means[stop]
        free &= ~stop
    good = np.where(free, h.values, avg)
    return CZDecomposition(float(L), stopping, ~free, h.copy_with(good), h)


# ---------------------------------------------------------------------------
# polynomial projections
# ---------------------------------------------------------------------------

def _monomial_exponents(n, max_total_degree):
    exps = itertools.product(range(max_total_degree + 1), repeat=n)
    return sorted((e for e in exps if sum(e) <= max_total_degree),
                  key=lambda e: (sum(e), e))


@dataclass
class PolyBasis:
    """Orthonormal polynomial basis on the root cube of a grid w.r.t.
    <f,g> = avg of f*g."""

    root: object
    depth: int
    phis: np.ndarray                # (num_basis, *grid shape)


def orthonormal_basis(f_template: GridFunction, m: int):
    """Gram-Schmidt (via QR) on monomials of total degree <= m-1 in
    coordinates centered and scaled to the root cube, sampled at cell
    midpoints; inner product is the grid average."""
    if not (1 <= m <= 4):
        raise DecompositionError("m must be in 1..4")
    root = f_template.root
    mids = f_template.cell_midpoints()
    ell = root.side
    scaled = [(mids[i] - (root.lower[i] + ell * 0.5)) / (ell / 2.0)
              for i in range(root.n)]
    exps = _monomial_exponents(root.n, m - 1)
    ncells = scaled[0].size
    if ncells < len(exps):
        raise DecompositionError("grid too coarse for the requested degree")
    cols = []
    for e in exps:
        col = np.ones(ncells)
        for i, k in enumerate(e):
            if k:
                col = col * scaled[i].ravel() ** k
        cols.append(col)
    A = np.stack(cols, axis=1)
    Qmat, R = np.linalg.qr(A / np.sqrt(ncells))
    if np.linalg.matrix_rank(R) < len(exps):
        raise DecompositionError("rank-deficient monomial sample (grid too coarse)")
    # fix signs so the diagonal of R is positive (constant basis vector = +1)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Qmat = Qmat * signs
    phis = (Qmat.T * np.sqrt(ncells)).reshape((len(exps),) + scaled[0].shape)
    return PolyBasis(root, f_template.depth, phis)


def project(f: GridFunction, basis: PolyBasis):
    """P_Q f = sum_r <f, phi_r>_Q phi_r on the root cube Q of f's grid."""
    if basis.root != f.root or basis.depth != f.depth:
        raise DecompositionError("basis built on a different grid")
    proj = np.zeros_like(f.values)
    for phi in basis.phis:
        coeff = float((f.values * phi).mean())
        proj = proj + coeff * phi
    return f.copy_with(proj)


def _deviation_sum(f: GridFunction, basis, q_exp, masses, weighted_center):
    """(int |f - c|^q dw, w(box)) from the cell ``masses`` of w and the
    center c of ``oscillation``."""
    block = f.values
    tot = masses.sum()
    if basis is not None:
        center = project(f, basis).values
    elif weighted_center:
        center = float((block * masses).sum() / tot)
    else:
        center = float(block.mean())
    return (np.abs(block - center) ** q_exp * masses).sum(), tot


def oscillation(f: GridFunction, basis=None, q_exp=1.0, w=None,
                weighted_center=False):
    """Normalized oscillation (1/w(Q) int_Q |f - c|^q w)^(1/q) over the root
    cube Q of f's grid, with center c = P_Q f (basis given), f_{Q,w}
    (weighted_center) or f_Q, and w given by its cell masses (Lebesgue
    when None), checked by ``measure_cell_masses``.  The integral is summed
    against those masses and then divided by w(Q); this is the left side of
    every Poincare inequality in the catalog."""
    dev, tot = _deviation_sum(f, basis, q_exp,
                              measure_cell_masses(w, f.root, f.depth),
                              weighted_center)
    return float((dev / tot) ** (1.0 / q_exp))
