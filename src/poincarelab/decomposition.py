"""Level-L stopping-time (Calderon-Zygmund) decomposition and polynomial
projections on cubes.

The decomposition consumes a nonnegative grid function h directly (in the
typical use h is a normalized oscillation |f - f_Q|/a(Q)), so the same
engine serves plain oscillations, polynomial oscillations, and good-lambda
style experiments.  Stopping descends to single cells, so every almost-
everywhere statement is an exact cell statement here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import CubeIndex, GridFunction, block_reduce, measure_cell_masses


class DecompositionError(ValueError):
    pass


@dataclass
class CZDecomposition:
    Q: CubeIndex
    L: float
    stopping: list
    omega_mask: np.ndarray          # bool over all cells (true on Omega_L)
    good: GridFunction
    bad: list                       # (cube, GridFunction supported on cube)
    h: GridFunction

    def omega_volume_fraction(self):
        sl = self.h.block(self.Q)
        block = self.omega_mask[sl]
        return float(block.sum() / block.size)

    def reconstruction_error(self):
        total = self.good.values.copy()
        for _, b in self.bad:
            total = total + b.values
        sl = self.h.block(self.Q)
        return float(np.max(np.abs(total[sl] - self.h.values[sl])))


def cz_decompose(h: GridFunction, Q: CubeIndex | None = None, L: float = 2.0):
    """Stopping cubes = maximal dyadic subcubes of Q with average of h
    above L; good part equals h off their union and the cube average on
    each stopping cube; bad parts are the mean-zero remainders."""
    if Q is None:
        Q = CubeIndex.root(h.n)
    if L <= 1:
        raise DecompositionError("L must be > 1")
    if np.any(h.values < 0):
        raise DecompositionError("h must be nonnegative")
    means = [block_reduce(h.values, k, np.mean) for k in range(h.depth + 1)]
    if means[Q.level][Q.coords] > L:
        raise DecompositionError("average of h over Q exceeds L")

    stopping = []
    stack = [Q]
    while stack:
        q = stack.pop()
        if q.level == h.depth:
            continue
        for ch in q.children():
            if means[ch.level][ch.coords] > L:
                stopping.append(ch)
            else:
                stack.append(ch)

    omega = np.zeros(h.values.shape, dtype=bool)
    good = h.values.copy()
    bad = []
    for q in stopping:
        sl = h.block(q)
        omega[sl] = True
        avg = means[q.level][q.coords]
        bvals = np.zeros_like(h.values)
        bvals[sl] = h.values[sl] - avg
        good[sl] = avg
        bad.append((q, h.copy_with(bvals)))
    # outside Q the split is not defined; zero it for tidiness
    outside = np.ones(h.values.shape, dtype=bool)
    outside[h.block(Q)] = False
    good[outside] = 0.0
    return CZDecomposition(Q, float(L), stopping, omega, h.copy_with(good), bad, h)


# ---------------------------------------------------------------------------
# polynomial projections
# ---------------------------------------------------------------------------

def _monomial_exponents(n, max_total_degree):
    out = []
    for exps in itertools.product(range(max_total_degree + 1), repeat=n):
        if sum(exps) <= max_total_degree:
            out.append(exps)
    out.sort(key=lambda e: (sum(e), e))
    return out


@dataclass
class PolyBasis:
    """Orthonormal polynomial basis on a cube w.r.t. <f,g> = avg of f*g."""

    Q: CubeIndex
    m: int
    root: object
    depth: int
    exponents: list
    phis: np.ndarray                # (num_basis, *block shape)
    condition_number: float
    ill_conditioned: bool = False


def orthonormal_basis(f_template: GridFunction, Q: CubeIndex, m: int,
                      cond_warn=1e8):
    """Gram-Schmidt (via QR) on monomials of total degree <= m-1 in
    coordinates centered and scaled to Q, sampled at cell midpoints; inner
    product is the grid average over Q."""
    if not (1 <= m <= 4):
        raise DecompositionError("m must be in 1..4")
    n = f_template.n
    sl = f_template.block(Q)
    mids = f_template.cell_midpoints()
    ell = f_template.sidelength(Q)
    centers = [f_template.root.lower[i] + ell * (Q.coords[i] + 0.5)
               for i in range(n)]
    scaled = [(mids[i][sl] - centers[i]) / (ell / 2.0) for i in range(n)]
    exps = _monomial_exponents(n, m - 1)
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
    gram = A.T @ A / ncells
    cond = float(np.linalg.cond(gram))
    Qmat, R = np.linalg.qr(A / np.sqrt(ncells))
    if np.linalg.matrix_rank(R) < len(exps):
        raise DecompositionError("rank-deficient monomial sample (grid too coarse)")
    # fix signs so the diagonal of R is positive (constant basis vector = +1)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Qmat = Qmat * signs
    phis = (Qmat.T * np.sqrt(ncells)).reshape((len(exps),) + scaled[0].shape)
    return PolyBasis(Q, m, f_template.root, f_template.depth, exps, phis,
                     cond, cond > cond_warn)


def project(f: GridFunction, basis: PolyBasis):
    """P_Q f = sum_r <f, phi_r>_Q phi_r, as a GridFunction supported on Q."""
    if basis.root != f.root or basis.depth != f.depth:
        raise DecompositionError("basis built on a different grid")
    sl = f.block(basis.Q)
    block = f.values[sl]
    out = np.zeros_like(f.values)
    proj = np.zeros_like(block)
    for phi in basis.phis:
        coeff = float((block * phi).mean())
        proj = proj + coeff * phi
    out[sl] = proj
    return f.copy_with(out)


def projection_sup_bound_margin(f: GridFunction, basis: PolyBasis):
    """Measured ratio sup|P_Q f| / (N * C^2 * avg|f| on Q) with
    N = basis size and C = max sup-norm of the basis functions."""
    sl = f.block(basis.Q)
    pf = project(f, basis).values[sl]
    N = basis.phis.shape[0]
    C = float(np.max(np.abs(basis.phis)))
    denom = N * C ** 2 * float(np.abs(f.values[sl]).mean())
    return float(np.max(np.abs(pf))) / denom if denom > 0 else 0.0


def oscillation(f: GridFunction, Q: CubeIndex | None = None, basis=None,
                q_exp=1.0, w=None, weighted_center=False):
    """Normalized oscillation (1/w(Q) int_Q |f - c|^q w)^(1/q) with center
    c = P_Q f (basis given), f_{Q,w} (weighted_center) or f_Q."""
    if Q is None:
        Q = CubeIndex.root(f.n)
    sl = f.block(Q)
    block = f.values[sl]
    if w is None:
        masses = np.ones_like(block)
    else:
        masses = measure_cell_masses(w, f)[sl]
    masses = masses / masses.sum()
    if basis is not None:
        center = project(f, basis).values[sl]
    elif weighted_center:
        center = float((block * masses).sum())
    else:
        center = float(block.mean())
    return float(((np.abs(block - center) ** q_exp * masses).sum()) ** (1.0 / q_exp))


def oscillation_inf_constants(f: GridFunction, Q: CubeIndex | None = None):
    """inf over constants c of avg_Q |f - c| (exact minimizer: the median)."""
    if Q is None:
        Q = CubeIndex.root(f.n)
    block = f.values[f.block(Q)]
    med = float(np.median(block))
    return float(np.abs(block - med).mean())
