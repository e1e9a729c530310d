"""Sobolev-exponent formulas, left/right-hand-side evaluators for the
oscillation-inequality catalog, the power-weight sharpness sweep, and the
weak-to-strong truncation demonstration.

Unknown dimensional constants are never asserted: every catalog check
reports its measured constant lhs / (bound * rhs), and ``passed`` compares
lhs with bound * rhs only where the bound is finite; no check verifies a
bound.  Sweeps track measured constants for boundedness, which is the
falsifiable content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (CubeIndex, GridFunction, RootBox, discrete_gradient,
                   level_blocks, measure_cell_masses, sample)
from .weights import PowerWeight, ap_constant, two_weight_ap, ap1_constant
from .decomposition import _deviation_sum, orthonormal_basis, oscillation
from .functionals import FractionalFunctional, Functional
from .operators import (centered_maximal_values, centered_maximal_measure,
                        fractional_integral, lorentz_p1_norm_values, lp_norm,
                        orlicz_exp_norm, truncate, weak_norm_values)


class InequalityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exponent algebra
# ---------------------------------------------------------------------------

def sobolev_exponent(kind, p, n, q=1.0, apq=1.0, M=None):
    """Solve 1/p - 1/p* = gap for p*, where gap is 1/n (classical),
    1/(n(q + log apq)) (weighted, natural log), 1/(nq) (weighted, constant
    aware), or 1/(nqM)."""
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
    elif kind == "M":
        if M is None or M <= 1 or q < 1:
            raise InequalityError("need M > 1 and q >= 1")
        gap = 1.0 / (n * q * M)
    else:
        raise InequalityError(f"unknown kind {kind!r}")
    inv = 1.0 / p - gap
    if inv <= 0:
        return math.inf
    return 1.0 / inv


@dataclass
class Exponents:
    p: float
    n: int

    @property
    def p_conjugate(self):
        return math.inf if self.p == 1 else self.p / (self.p - 1.0)

    @property
    def n_conjugate(self):
        return math.inf if self.n == 1 else self.n / (self.n - 1.0)

    @property
    def p_star(self):
        return sobolev_exponent("classical", self.p, self.n)


# ---------------------------------------------------------------------------
# sides
# ---------------------------------------------------------------------------

def _gradient_side(f: GridFunction, Q, u=None, v=None, p=1.0, m=1,
                   kind="gradient"):
    """Right side of an oscillation inequality on Q, with u(Q) the outer
    mass: "gradient" is ell(Q)^m (1/u(Q) int_Q |grad^m f|^p v)^(1/p) (v = u
    when None), "lorentz" is ell(Q) times the L^{p,1} norm of the gradient
    against u/u(Q), and "mixed" is the unnormalized
    (int_Q |grad f|^p (M(u chi_Q))^{p/n'} u^{1-p})^(1/p)."""
    sl = f.block(Q)
    umass = measure_cell_masses(u, f)[sl]
    utot = umass.sum()
    if utot <= 0:
        raise InequalityError("degenerate outer weight mass")
    gblock = discrete_gradient(f, m).values[sl]
    if kind == "gradient":
        vmass = umass if v is None else measure_cell_masses(v, f)[sl]
        s = (gblock ** p * vmass).sum()
        return float(f.sidelength(Q) ** m * ((s / utot) ** (1.0 / p)))
    if kind == "lorentz":
        return float(f.sidelength(Q) * lorentz_p1_norm_values(
            gblock.ravel(), (umass / utot).ravel(), p))
    if kind == "mixed":
        uvals = umass / f.cell_volume
        mix = 1.0 if f.n == 1 else \
            centered_maximal_values(uvals) ** (p / (f.n / (f.n - 1.0)))
        s = (gblock ** p * mix / uvals ** (p - 1.0) * f.cell_volume).sum()
        return float(s ** (1.0 / p))
    raise InequalityError(f"unknown rhs kind {kind!r}")


def poincare_sides(f: GridFunction, Q=None, u=None, v=None, lhs_exponent=1.0,
                   p=1.0, m=1, center="mean", rhs_kind="gradient"):
    """(lhs, rhs) of an oscillation inequality on Q.

    lhs is ``decomposition.oscillation`` against u with exponent
    lhs_exponent and center c in {"mean", "weighted_mean", "projection"
    (polynomial projection of order m)}.  rhs kinds: "gradient"
    (two-weight: v inside, u outside), "lorentz" (L^{p,1} of the gradient
    against u), "mixed" (unnormalized, with the maximal-function weight
    (M(u chi_Q))^{p/n'}/u^{p-1}).
    """
    Q = Q or CubeIndex.root(f.n)
    rhs = _gradient_side(f, Q, u, v, p, m, rhs_kind)
    basis = orthonormal_basis(f, Q, m) if center == "projection" else None
    return oscillation(f, Q, basis, lhs_exponent, u,
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
    status = "reported"              # every id reports; none verifies

    def to_dict(self):
        return {
            "id": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "bound": self.bound,
            "ratio": self.ratio,
            "passed": self.passed,
            "status": self.status,
            "measured_constant": self.measured_constant,
            "inputs": self.inputs,
        }


def _result(iid, lhs, rhs, bound, inputs):
    ratio = lhs / rhs if rhs > 0 else math.inf if lhs > 0 else 0.0
    prod = bound * rhs
    passed = (lhs <= prod * (1 + 1e-9)) if np.isfinite(bound) else None
    measured = lhs / prod if prod > 0 else math.inf if lhs > 0 else 0.0
    return CheckResult(iid, float(lhs), float(rhs), float(bound), float(ratio),
                       passed, float(measured), inputs)


def _functional_hypothesis_norm(f: GridFunction, a: Functional, Q):
    """max over dyadic P inside Q of avg_P |f - f_P| / a(P), one level of
    cubes at a time, a(P) read from ``a.level_values``."""
    best, axes = 0.0, tuple(range(f.n, 2 * f.n))
    for level in range(Q.level, f.depth + 1):
        blocks = level_blocks(f.values[f.block(Q)], level - Q.level)
        osc = np.abs(blocks - blocks.mean(axis=axes, keepdims=True)).mean(axis=axes)
        best = max(best, float(np.max(osc / a.level_values(Q, level))))
    return best


def check_inequality(iid, f, Q=None, u=None, v=None, p=1.0, q=1.0, m=1,
                     p0=None, mu=None, alpha=1.0, a_functional=None):
    """Evaluate one catalog inequality; see the module docstring for what
    is reported."""
    Q = Q or CubeIndex.root(f.n)
    n = f.n
    root, depth = f.root, f.depth
    inputs = {"id": iid, "p": p, "q": q, "m": m}

    def cell_values(w):
        return measure_cell_masses(w, f) / f.cell_volume

    if iid in ("pp-two-weight", "higher-order"):
        higher = iid == "higher-order"
        lhs, rhs = poincare_sides(f, Q, u=u, v=v, lhs_exponent=p, p=p,
                                  m=m if higher else 1,
                                  center="projection" if higher else "mean")
        uv = cell_values(u)
        vv = uv if v is None else cell_values(v)
        bound = (two_weight_ap(uv, vv, p, root, depth) ** (1.0 / p)
                 if p > 1 else ap_constant(uv, 1.0, root, depth))
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "pp-measure":
        a = FractionalFunctional(alpha, p, measure_cell_masses(mu, f),
                                 measure_cell_masses(u, f), root, depth)
        anorm = _functional_hypothesis_norm(f, a, Q)
        lhs = oscillation(f, Q, q_exp=p, w=u)
        rhs = a.eval(Q)
        bound = (n / alpha) * anorm
        return _result(iid, lhs, rhs, bound, inputs)

    if iid in ("sobolev-A", "sobolev-B"):
        uv = cell_values(u)
        apq = ap_constant(uv, q, root, depth)
        app = ap_constant(uv, p, root, depth)
        kind = "A" if iid == "sobolev-A" else "B"
        pstar = sobolev_exponent(kind, p, n, q=q, apq=apq)
        lhs, rhs = poincare_sides(f, Q, u=u, lhs_exponent=pstar, p=p, m=1)
        bound = app ** (1.0 / p) if kind == "A" \
            else apq ** (1.0 / (n * q)) * app ** (2.0 / p)
        inputs["p_star"] = pstar
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "a1-linear":
        pstar = sobolev_exponent("classical", p, n)
        lhs, rhs = poincare_sides(f, Q, u=u, lhs_exponent=pstar, p=p,
                                  center="weighted_mean")
        bound = ap_constant(cell_values(u), 1.0, root, depth)
        inputs["p_star"] = pstar
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "mixed":
        pstar = sobolev_exponent("classical", p, n)
        rhs = _gradient_side(f, Q, u, p=p, kind="mixed")
        dev, _ = _deviation_sum(f, Q, None, pstar, u, True)
        lhs = dev ** (1.0 / pstar)
        inputs["p_star"] = pstar
        return _result(iid, lhs, rhs, math.nan, inputs)

    if iid == "lorentz":
        lhs, rhs = poincare_sides(f, Q, u=u, lhs_exponent=p, p=p,
                                  rhs_kind="lorentz")
        bound = ap1_constant(cell_values(u), p, root, depth) ** (1.0 / p)
        return _result(iid, lhs, rhs, bound, inputs)

    if iid == "exp-JN":
        if a_functional is None:
            raise InequalityError("exp-JN needs an increasing functional")
        hyp = _functional_hypothesis_norm(f, a_functional, Q)
        dev = f.copy_with(np.abs(f.values - f.values[f.block(Q)].mean()))
        lhs = orlicz_exp_norm(dev, q=Q)
        rhs = a_functional.eval(Q)
        return _result(iid, lhs, rhs, max(hyp, 1e-300), inputs)

    if iid == "kz-downward":
        if p0 is None or p0 <= p:
            raise InequalityError("kz-downward needs p0 > p")
        lhs, rhs = poincare_sides(f, Q, u=u, lhs_exponent=p, p=p)
        app = ap_constant(cell_values(u), p, root, depth)
        bound = app ** ((p0 - 1.0) / (p - 1.0)) if p > 1 else math.nan
        inputs["p0"] = p0
        return _result(iid, lhs, rhs, bound, inputs)

    if iid in ("pointwise-i1", "i1-vs-m"):
        if n < 2:
            raise InequalityError(f"{iid} needs n >= 2 (alpha = 1 < n)")
        grad = discrete_gradient(f, 1)
        i1 = fractional_integral(grad, 1.0, Q)
        sl = f.block(Q)
        if iid == "pointwise-i1":
            num, denom = np.abs(f.values[sl] - f.values[sl].mean()), i1.values[sl]
        else:
            num = i1.values[sl]
            denom = f.sidelength(Q) * centered_maximal_values(grad.values)[sl]
        mask = denom > 0
        sup = float(np.max(num[mask] / denom[mask])) if mask.any() else 0.0
        return _result(iid, sup, 1.0, math.nan, inputs)

    if iid == "weak-1n'":
        if n < 2:
            raise InequalityError("weak-1n' needs n >= 2")
        mu_mass = measure_cell_masses(mu, f)
        nprime = n / (n - 1.0)
        sl = f.block(Q)
        dev = np.abs(f.values[sl] - f.values[sl].mean())
        lhs = weak_norm_values(dev.ravel(), mu_mass[sl].ravel(), nprime)
        Mmu = centered_maximal_measure(mu_mass, f.cell_volume)[sl]
        grad = discrete_gradient(f, 1)
        rhs = float((grad.values[sl] * Mmu ** (1.0 / nprime)).sum()
                    * f.cell_volume)
        return _result(iid, lhs, rhs, math.nan, inputs)

    raise InequalityError(f"unknown inequality id {iid!r}")


# ---------------------------------------------------------------------------
# sharpness sweep
# ---------------------------------------------------------------------------

def plateau_function(root: RootBox, depth, eps):
    """1 on the max-norm ball of radius eps, affine down to 0 at radius
    2 eps, 0 outside; sampled at cell midpoints."""

    def fn(*coords):
        m = np.maximum.reduce([np.abs(c) for c in coords])
        return np.clip((2.0 * eps - m) / eps, 0.0, 1.0)

    return sample(root, depth, fn)


@dataclass
class SharpnessSweep:
    p: float
    n: int
    epsilon: float
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
        return {
            "p": self.p,
            "n": self.n,
            "epsilon": self.epsilon,
            "deltas": list(self.deltas),
            "lhs": list(self.lhs),
            "rhs0": list(self.rhs0),
            "a1": list(self.a1),
            "beta_hat": self.beta_hat,
            "fit_residual": self.fit_residual,
        }


def _plateau_powers(p, root, eps, depth):
    """(p*, f^{p*}, |grad f|^p) of the plateau f: the parts of a sharpness
    point that do not depend on the weight."""
    f = plateau_function(root, depth, eps)
    pstar = sobolev_exponent("classical", p, root.n)
    return pstar, f.values ** pstar, discrete_gradient(f, 1).values ** p


def _sharpness_sides(powers, masses, p, root):
    """(lhs, rhs0) of the plateau against the weight's cell masses: the
    L^{p*} mean of f and ell(root) times the L^p mean of |grad f|."""
    pstar, fpow, gpow = powers
    tot = masses.sum()
    lhs = float(((fpow * masses).sum() / tot) ** (1.0 / pstar))
    rhs0 = float(root.side * (((gpow * masses).sum() / tot) ** (1.0 / p)))
    return lhs, rhs0


def _sharpness_point(powers, p, root, delta, depth):
    w = PowerWeight(delta, root.n, root)
    lhs, rhs0 = _sharpness_sides(powers, w.cell_masses(root, depth), p, root)
    return lhs, rhs0, ap_constant(w.cell_values(root, depth), 1.0, root,
                                  depth)


def sharpness_point(p, n, eps, delta, depth):
    """(lhs, rhs0, a1) for one power-weight/plateau configuration."""
    root = RootBox.symmetric(n)
    return _sharpness_point(_plateau_powers(p, root, eps, depth), p, root,
                            delta, depth)


def _loglog_fit(xs, ys):
    """(slope, residual) of the least-squares line through the points
    (log x, log y); NaN for both with fewer than two distinct x, where no
    line is determined."""
    if len(set(xs)) < 2:
        return math.nan, math.nan
    coef, res = np.polyfit(np.log(xs), np.log(ys), 1, full=True)[:2]
    return float(coef[0]), float(res[0]) if len(res) else 0.0


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
    return SharpnessSweep(p, n, eps, deltas, lhs, rhs0, a1, beta, resid)


def sharpness_scaling_exponents(p, n, delta, epsilons, depth):
    """Fitted log-log exponents of lhs and rhs0 against eps at fixed delta
    (proof-scaling diagnostics), NaN with fewer than two distinct eps.  The
    weight's masses are resolved once for all eps."""
    if not epsilons:
        raise InequalityError("epsilons must not be empty")
    root = RootBox.symmetric(n)
    masses = PowerWeight(delta, n, root).cell_masses(root, depth)
    epsilons = sorted(epsilons)
    ls, rs = zip(*(_sharpness_sides(_plateau_powers(p, root, eps, depth),
                                    masses, p, root) for eps in epsilons))
    return _loglog_fit(epsilons, ls)[0], _loglog_fit(epsilons, rs)[0]


# ---------------------------------------------------------------------------
# weak implies strong
# ---------------------------------------------------------------------------

def weak_implies_strong_demo(g: GridFunction, mu, nu, p):
    """Both sides of the truncation argument: the L^p(mu) norm of g versus
    the total gradient mass against nu, with per-level weak constants of
    the truncations at lambda = 2^k and the disjointness telescoping sum."""
    if np.any(g.values < 0):
        raise InequalityError("g must be nonnegative")
    mu_mass = measure_cell_masses(mu, g).ravel()
    nu_mass = measure_cell_masses(nu, g)
    gmax = float(g.values.max())
    grad = discrete_gradient(g, 1)
    report = {
        "strong": lp_norm(g.values.ravel(), mu_mass, p),
        "gradient_total": float((grad.values * nu_mass).sum()),
        "levels": [],
        "telescoped_gradient": 0.0,
    }
    if gmax == 0.0:
        report["chain_constant"] = 0.0
        return report
    kmax = math.ceil(math.log2(gmax))
    tele = 0.0
    weak_consts = []
    for k in range(kmax - 25, kmax + 1):
        lam = 2.0 ** k
        Tk = truncate(g, lam)
        if not np.any(Tk.values > 0):
            continue
        wk = weak_norm_values(Tk.values.ravel(), mu_mass, p)
        gTk = discrete_gradient(Tk, 1)
        denom = float((gTk.values * nu_mass).sum())
        level_mask = (g.values > lam) & (g.values <= 2.0 * lam)
        tele += float((grad.values * nu_mass)[level_mask].sum())
        weak_consts.append(wk / denom if denom > 0 else math.inf)
        report["levels"].append({"k": k, "lambda": lam, "weak_norm": wk,
                                 "gradient": denom})
    report["telescoped_gradient"] = tele
    report["weak_constants"] = weak_consts
    finite = [c for c in weak_consts if np.isfinite(c)]
    report["max_weak_constant"] = max(finite) if finite else math.inf
    gt = report["gradient_total"]
    report["chain_constant"] = report["strong"] / gt if gt > 0 else math.inf
    return report
