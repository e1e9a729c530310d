"""Sobolev-exponent formulas, left/right-hand-side evaluators for the
oscillation-inequality catalog, and the power-weight sharpness sweep.

Each catalog check is on the cube Q that is the root box of its input
grid; a sub-cube is checked by making it the input grid, which takes the
A_p-type bounds over that grid's cubes only.  Unknown dimensional
constants are never asserted: every catalog check reports its measured
constant lhs / (bound * rhs), and ``passed`` compares lhs with bound * rhs
only where the bound is finite; no check verifies a bound.  Sweeps track
measured constants for boundedness, which is the falsifiable content.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import (CubeIndex, GridFunction, RootBox, check_cell_cap,
                   discrete_gradient, lebesgue_masses, level_blocks,
                   measure_cell_masses, midpoint_axes)
from .weights import PowerWeight, ap_constant, ap1_constant, two_weight_ap
from .decomposition import _deviation_sum, orthonormal_basis, oscillation
from .functionals import FractionalFunctional, FunctionalError, _loglog_fit
from .operators import (centered_maximal_values, centered_maximal_measure,
                        fractional_integral, lorentz_p1_norm_values,
                        orlicz_exp_norm_values, weak_norm_values)


class InequalityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exponent algebra
# ---------------------------------------------------------------------------

def sobolev_exponent(kind, p, n, q=1.0, apq=1.0):
    """Solve 1/p - 1/p* = gap for p*, where gap is 1/n (classical),
    1/(n(q + log apq)) (weighted, natural log) or 1/(nq) (weighted,
    constant aware)."""
    if not (1 <= p < n):
        raise InequalityError("requires 1 <= p < n")
    if kind == "classical":
        gap = 1.0 / n
    elif kind == "A":
        if q < 1 or apq < 1:
            raise InequalityError("need q >= 1 and A_q constant >= 1")
        gap = 1.0 / (n * (q + math.log(apq)))
    elif kind == "B":
        if q < 1:
            raise InequalityError("need q >= 1")
        gap = 1.0 / (n * q)
    else:
        raise InequalityError(f"unknown kind {kind!r}")
    inv = 1.0 / p - gap
    if inv <= 0:
        return math.inf
    return 1.0 / inv


# ---------------------------------------------------------------------------
# sides
# ---------------------------------------------------------------------------

def poincare_sides(f: GridFunction, u=None, v=None, lhs_exponent=1.0, p=1.0,
                   m=1, center="mean"):
    """(lhs, rhs) of an oscillation inequality on the root cube Q of f's
    grid.

    lhs is ``decomposition.oscillation`` against u with exponent
    lhs_exponent and center c in {"mean", "weighted_mean", "projection"
    (polynomial projection of order m)}.  rhs is the two-weight gradient
    side l(Q)^m ((1/u(Q)) int_Q |grad^m f|^p v)^(1/p): the fractional a(Q)
    with alpha = m, mu = |grad^m f|^p v dx and w = u.  u and v are cell
    masses, u Lebesgue and v = u when None, checked as measures here and by
    ``oscillation``, and u as a weight (> 0) by the functional.
    """
    um = measure_cell_masses(u, f.root, f.depth)
    vm = um if v is None else measure_cell_masses(v, f.root, f.depth)
    grad = discrete_gradient(f, m).values
    if p < 1:       # refused before a negative power of a zero gradient
        raise FunctionalError("need p >= 1")
    rhs = FractionalFunctional(m, p, grad ** float(p) * vm, um, f.root,
                               f.depth).eval(CubeIndex.root(f.n))
    basis = orthonormal_basis(f, m) if center == "projection" else None
    return oscillation(f, basis, lhs_exponent, um,
                       center == "weighted_mean"), rhs


# ---------------------------------------------------------------------------
# inequality catalog
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    inequality_id: str
    lhs: float
    rhs: float
    bound: float
    ratio: float
    passed: bool | None
    measured_constant: float
    inputs: dict = field(default_factory=dict)

    def to_dict(self):
        d = asdict(self)
        d["id"] = d.pop("inequality_id")
        return d


def _result(iid, lhs, rhs, bound, inputs):
    ratio = lhs / rhs if rhs > 0 else math.inf if lhs > 0 else 0.0
    prod = bound * rhs
    passed = (lhs <= prod * (1 + 1e-9)) if np.isfinite(bound) else None
    measured = lhs / prod if prod > 0 else math.inf if lhs > 0 else 0.0
    return CheckResult(iid, float(lhs), float(rhs), float(bound), float(ratio),
                       passed, float(measured), inputs)


def _functional_hypothesis_norm(f: GridFunction, a: FractionalFunctional):
    """max over the dyadic cubes P of f's grid of avg_P |f - f_P| / a(P),
    one level of cubes at a time, a(P) read from ``a.level_values``; an
    a(P) of 0 is refused."""
    axes = tuple(range(f.n, 2 * f.n))
    best = -math.inf
    for level in range(f.depth + 1):
        blocks = level_blocks(f.values, level)
        osc = np.abs(blocks - blocks.mean(axis=axes, keepdims=True)).mean(axis=axes)
        values = a.level_values(level)
        if not values.all():
            raise FunctionalError(f"a(P) is 0 on a level-{level} cube P")
        best = max(best, float(np.max(osc / values)))
    return best


def check_inequality(iid, f, u=None, v=None, p=1.0, q=1.0, m=1, p0=None,
                     mu=None, alpha=1.0, a_functional=None):
    """Evaluate one catalog inequality on the root cube Q of f's grid; see
    the module docstring for what is reported.  u, v and mu are cell
    masses (Lebesgue when None, v = u), checked by the grid's rules in each
    layer that takes them: as measures here, in ``poincare_sides`` and in
    ``oscillation``, and u and v as weights (> 0) where the functional or
    an A_p-type bound takes them.  u's cell values ``uv`` are taken from
    its masses once, and the sides and bounds read those arrays."""
    n, root, depth = f.n, f.root, f.depth
    Q = CubeIndex.root(n)
    inputs = {}
    um = measure_cell_masses(u, root, depth)
    vm = None if v is None else measure_cell_masses(v, root, depth)
    uv = um / f.cell_volume

    if iid in ("pp-two-weight", "higher-order"):
        higher = iid == "higher-order"
        lhs, rhs = poincare_sides(f, u=um, v=vm, lhs_exponent=p, p=p,
                                  m=m if higher else 1,
                                  center="projection" if higher else "mean")
        vv = uv if vm is None else vm / f.cell_volume
        bound = two_weight_ap(uv, vv, p, root, depth) ** (1.0 / p)
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "pp-measure":
        mu_mass = measure_cell_masses(mu, root, depth)
        a = FractionalFunctional(alpha, p, mu_mass, um, root, depth)
        anorm = _functional_hypothesis_norm(f, a)
        lhs = oscillation(f, q_exp=p, w=um)
        rhs = a.eval(Q)
        bound = (n / alpha) * anorm
        return _result(iid, lhs, rhs, bound, inputs)

    if iid in ("sobolev-A", "sobolev-B"):
        apq = ap_constant(uv, q, root, depth)
        app = ap_constant(uv, p, root, depth)
        kind = "A" if iid == "sobolev-A" else "B"
        pstar = sobolev_exponent(kind, p, n, q=q, apq=apq)
        lhs, rhs = poincare_sides(f, u=um, lhs_exponent=pstar, p=p, m=1)
        bound = app ** (1.0 / p) if kind == "A" \
            else apq ** (1.0 / (n * q)) * app ** (2.0 / p)
        inputs["p_star"] = pstar
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "a1-linear":
        pstar = sobolev_exponent("classical", p, n)
        lhs, rhs = poincare_sides(f, u=um, lhs_exponent=pstar, p=p,
                                  center="weighted_mean")
        bound = ap_constant(uv, 1.0, root, depth)
        inputs["p_star"] = pstar
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "mixed":
        # unnormalized, against the weight (M u)^{p/n'} / u^{p-1}
        pstar = sobolev_exponent("classical", p, n)
        if uv.sum() <= 0:
            raise InequalityError("degenerate outer weight mass")
        mix = centered_maximal_values(uv) ** (p / (n / (n - 1.0)))
        rhs = float((discrete_gradient(f, 1).values ** p * mix
                     / uv ** (p - 1.0) * f.cell_volume).sum() ** (1.0 / p))
        dev, _ = _deviation_sum(f, None, pstar, um, True)
        lhs = dev ** (1.0 / pstar)
        inputs["p_star"] = pstar
        return _result(iid, lhs, rhs, math.nan, inputs)

    if iid == "lorentz":
        # l(Q) ||grad f||_{L^{p,1}(Q, u dx / u(Q))}, after A_{p,1}: u > 0
        if p < 1:
            raise FunctionalError("need p >= 1")
        bound = ap1_constant(uv, p, root, depth) ** (1.0 / p)
        masses = um.ravel()
        rhs = root.side * lorentz_p1_norm_values(
            discrete_gradient(f, 1).values.ravel(), masses / masses.sum(), p)
        lhs = oscillation(f, q_exp=p, w=um)
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "exp-JN":
        if a_functional is None:
            raise InequalityError("exp-JN needs an increasing functional")
        hyp = _functional_hypothesis_norm(f, a_functional)
        lhs = orlicz_exp_norm_values(np.abs(f.values - f.values.mean()),
                                     lebesgue_masses(root, depth))
        rhs = a_functional.eval(Q)
        return _result(iid, lhs, rhs, max(hyp, 1e-300), inputs)

    if iid == "kz-downward":
        if p0 is None or p0 <= p:
            raise InequalityError("kz-downward needs p0 > p")
        lhs, rhs = poincare_sides(f, u=um, lhs_exponent=p, p=p)
        app = ap_constant(uv, p, root, depth)
        bound = app ** ((p0 - 1.0) / (p - 1.0)) if p > 1 else math.nan
        inputs["p0"] = p0
        return _result(iid, lhs, rhs, bound, inputs)

    if iid in ("pointwise-i1", "i1-vs-m"):
        if n < 2:
            raise InequalityError(f"{iid} needs n >= 2 (alpha = 1 < n)")
        grad = discrete_gradient(f, 1)
        i1 = fractional_integral(grad, 1.0).values
        if iid == "pointwise-i1":
            num, denom = np.abs(f.values - f.values.mean()), i1
        else:
            num = i1
            denom = root.side * centered_maximal_values(grad.values)
        mask = denom > 0
        sup = float(np.max(num[mask] / denom[mask])) if mask.any() else 0.0
        return _result(iid, sup, 1.0, math.nan, inputs)

    if iid == "weak-1n'":
        if n < 2:
            raise InequalityError("weak-1n' needs n >= 2")
        mu_mass = measure_cell_masses(mu, root, depth)
        nprime = n / (n - 1.0)
        dev = np.abs(f.values - f.values.mean())
        lhs = weak_norm_values(dev.ravel(), mu_mass.ravel(), nprime)
        Mmu = centered_maximal_measure(mu_mass, f.cell_volume)
        grad = discrete_gradient(f, 1)
        rhs = float((grad.values * Mmu ** (1.0 / nprime)).sum()
                    * f.cell_volume)
        return _result(iid, lhs, rhs, math.nan, inputs)

    raise InequalityError(f"unknown inequality id {iid!r}")


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

def plateau_function(root: RootBox, depth, eps):
    """1 on the max-norm ball of radius eps, affine down to 0 at radius
    2 eps, 0 outside; sampled at cell midpoints.  The max-norm radius
    broadcasts from the per-axis |midpoints| into the one returned array,
    which the ramp then updates in place."""
    check_cell_cap(root.n, depth)
    m = None
    for c in np.meshgrid(*midpoint_axes(root, depth), indexing="ij",
                         sparse=True):
        m = np.abs(c) if m is None else np.maximum(m, np.abs(c))
    np.subtract(2.0 * eps, m, out=m)
    m /= eps
    np.clip(m, 0.0, 1.0, out=m)
    return GridFunction(root, depth, m)


@dataclass
class SharpnessSweep:
    deltas: list
    lhs: list
    rhs0: list
    a1: list
    beta_hat: float
    fit_residual: float

    def ratios(self):
        return [l / r for l, r in zip(self.lhs, self.rhs0)]

    def normalized_constants(self, beta):
        """Measured constant (lhs/rhs0)/[w]_{A_1}^beta per delta."""
        return [r / a ** beta for r, a in zip(self.ratios(), self.a1)]

    def to_dict(self):
        return asdict(self)


def _plateau_powers(p, root, eps, depth):
    """(p*, f^{p*}, |grad f|^p) of the plateau f, the weight-free parts of
    a sharpness point; refused when the grid samples f as a constant."""
    f = plateau_function(root, depth, eps)
    grad = discrete_gradient(f, 1).values
    if not np.any(grad):
        raise InequalityError(f"depth {depth} does not resolve eps={eps}")
    pstar = sobolev_exponent("classical", p, root.n)
    return pstar, f.values ** pstar, grad ** p


def _sharpness_sides(powers, masses, p, root):
    """(lhs, rhs0) of the plateau against the weight's cell masses: the
    L^{p*} mean of f and ell(root) times the L^p mean of |grad f|."""
    pstar, fpow, gpow = powers
    tot = masses.sum()
    lhs = float(((fpow * masses).sum() / tot) ** (1.0 / pstar))
    rhs0 = float(root.side * (((gpow * masses).sum() / tot) ** (1.0 / p)))
    return lhs, rhs0


def _sharpness_point(powers, p, root, delta, depth):
    masses = PowerWeight(delta, root.n, root).cell_masses(root, depth)
    lhs, rhs0 = _sharpness_sides(powers, masses, p, root)
    h = root.side / (1 << depth)
    masses /= h ** root.n   # the cell values, in place
    return lhs, rhs0, ap_constant(masses, 1.0, root, depth)


def sharpness_sweep(p, n, eps, deltas, depth):
    """Power-weight sharpness experiment: fit the exponent beta_hat of the
    measured ratio lhs/rhs0 against the A_1 constant over the delta sweep.

    The plateau is built once; each delta costs one weight, two sums and
    A_1.  beta_hat and fit_residual are NaN when the A_1 values take fewer
    than two distinct values, as with fewer than two distinct deltas: no
    line is determined then.
    """
    if not (0 < eps < 0.5):
        raise InequalityError("eps must lie in (0, 1/2)")
    if not (1 <= p < n):
        raise InequalityError("requires 1 <= p < n")
    if not deltas:
        raise InequalityError("deltas must not be empty")
    if any(not (0 < d < 1) for d in deltas):
        raise InequalityError("deltas must lie in (0, 1)")
    deltas = sorted(deltas, reverse=True)
    root = RootBox.symmetric(n)
    powers = _plateau_powers(p, root, eps, depth)
    points = [_sharpness_point(powers, p, root, d, depth) for d in deltas]
    lhs, rhs0, a1 = (list(col) for col in zip(*points))
    beta, resid = _loglog_fit(a1, np.array(lhs) / np.array(rhs0))
    return SharpnessSweep(deltas, lhs, rhs0, a1, beta, resid)

