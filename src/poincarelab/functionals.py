"""Cube functionals a(Q) and D_p / SD_p^s condition checking.

A functional is a positive rule on the dyadic cubes of a fixed grid.  The
D_p ratio of a disjoint family compares sum a(Q_i)^p w(Q_i) with
a(Q)^p w(Q); SD_p^s additionally demands a gain (1/L)^(p/s) on L-small
families.  Suprema are over dyadic families: exhaustive mode computes the
exact maximum over all antichains (with a volume budget for L-small
families) by max-plus dynamic programming over the cube tree, which agrees
with brute-force enumeration; random mode gives a sampled lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import CubeIndex, GridFunction, block_reduce
from .operators import lorentz_p1_norm_values


class FunctionalError(ValueError):
    pass


class CubeSums:
    """Per-level block sums of a cell-mass array, for O(1) cube masses."""

    def __init__(self, masses, depth):
        self.depth = depth
        self.levels = [block_reduce(masses, k, np.sum) for k in range(depth + 1)]

    def mass(self, q: CubeIndex):
        return float(self.levels[q.level][q.coords])


# ---------------------------------------------------------------------------
# functional variants
# ---------------------------------------------------------------------------

class Functional:
    """Base: bound to (root, depth); subclasses implement eval(q)."""

    def eval(self, q: CubeIndex) -> float:
        raise NotImplementedError


class FractionalFunctional(Functional):
    """a(Q) = l(Q)^alpha * (mu(Q)/w(Q))^(1/p)."""

    def __init__(self, alpha, p, mu_masses, w_masses, root, depth):
        if alpha <= 0 or p < 1:
            raise FunctionalError("need alpha > 0 and p >= 1")
        if np.any(np.asarray(mu_masses) <= 0) or np.any(np.asarray(w_masses) <= 0):
            raise FunctionalError("degenerate functional: zero mass on some cube")
        self.alpha, self.p = float(alpha), float(p)
        self.root, self.depth = root, depth
        self.mu = CubeSums(np.asarray(mu_masses, dtype=float), depth)
        self.w = CubeSums(np.asarray(w_masses, dtype=float), depth)

    def eval(self, q):
        ell = self.root.side / (1 << q.level)
        return ell ** self.alpha * (self.mu.mass(q) / self.w.mass(q)) ** (1.0 / self.p)


class GradientFunctional(Functional):
    """a(Q) = scale * l(Q)^m * (1/u(Q) * int_Q |grad|^p v)^(1/p)."""

    def __init__(self, m, p, grad: GridFunction, u_masses, v_masses=None, scale=1.0):
        if m < 1 or p < 1:
            raise FunctionalError("need m >= 1 and p >= 1")
        self.m, self.p, self.scale = int(m), float(p), float(scale)
        self.root, self.depth = grad.root, grad.depth
        u = np.asarray(u_masses, dtype=float)
        v = u if v_masses is None else np.asarray(v_masses, dtype=float)
        if np.any(u <= 0):
            raise FunctionalError("degenerate outer weight")
        self.u = CubeSums(u, self.depth)
        self.num = CubeSums(np.abs(grad.values) ** self.p * v, self.depth)

    def eval(self, q):
        ell = self.root.side / (1 << q.level)
        return self.scale * ell ** self.m \
            * (self.num.mass(q) / self.u.mass(q)) ** (1.0 / self.p)


class LorentzGradientFunctional(Functional):
    """a(Q) = l(Q) * ||grad||_{L^{p,1}(Q, w dx / w(Q))}."""

    def __init__(self, p, grad: GridFunction, w_masses):
        if p < 1:
            raise FunctionalError("need p >= 1")
        self.p = float(p)
        self.grad = grad
        self.root, self.depth = grad.root, grad.depth
        self.w_masses = np.asarray(w_masses, dtype=float)
        if np.any(self.w_masses <= 0):
            raise FunctionalError("degenerate weight")

    def eval(self, q):
        sl = self.grad.block(q)
        vals = self.grad.values[sl].ravel()
        masses = self.w_masses[sl].ravel()
        masses = masses / masses.sum()
        ell = self.root.side / (1 << q.level)
        return ell * lorentz_p1_norm_values(vals, masses, self.p)


class IncreasingFunctional(Functional):
    """Table-driven functional, monotone under inclusion (P in Q =>
    a(P) <= a(Q)); validated at construction."""

    def __init__(self, table, root, depth):
        self.table = dict(table)
        self.root, self.depth = root, depth
        for q, v in self.table.items():
            if v <= 0:
                raise FunctionalError("values must be positive")
            if q.level > 0:
                parent = q.parent()
                if parent in self.table and v > self.table[parent] + 1e-15:
                    raise FunctionalError("table not monotone under inclusion")

    def eval(self, q):
        try:
            return self.table[q]
        except KeyError:
            raise FunctionalError(f"no value for cube {q}")


class ConstantFunctional(Functional):
    def __init__(self, value, root=None, depth=None):
        if value <= 0:
            raise FunctionalError("value must be positive")
        self.value = float(value)
        self.root, self.depth = root, depth

    def eval(self, q):
        return self.value


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

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
            if not self.parent.contains(q):
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


def subcube_at(parent: CubeIndex, level, rel_coords):
    shift = level - parent.level
    return CubeIndex(level, tuple((pc << shift) + rc
                                  for pc, rc in zip(parent.coords, rel_coords)))


def full_partition(parent: CubeIndex, level):
    shift = level - parent.level
    return [subcube_at(parent, level, rc)
            for rc in itertools.product(range(1 << shift), repeat=parent.n)]


def random_small_family(Q: CubeIndex, L, rng, depth, max_tries=400):
    """Greedy rejection sampler for L-small families of dyadic subcubes:
    uniformly random cubes, overlaps rejected, until the remaining volume
    budget is below one finest cell (or tries run out)."""
    if L <= 1:
        raise FunctionalError("L must be > 1")
    n = Q.n
    span = 1 << (depth - Q.level)
    budget = span ** n / L
    mask = np.zeros((span,) * n, dtype=bool)
    members, used, tries = [], 0, 0
    while budget - used >= 1.0 and tries < max_tries:
        tries += 1
        level = int(rng.integers(Q.level, depth + 1))
        b = 1 << (depth - level)
        cells = b ** n
        if cells > budget - used:
            continue
        rel = tuple(int(rng.integers(0, 1 << (level - Q.level))) for _ in range(n))
        sl = tuple(slice(r * b, (r + 1) * b) for r in rel)
        if mask[sl].any():
            continue
        mask[sl] = True
        members.append(subcube_at(Q, level, rel))
        used += cells
    return SmallFamily(Q, members, float(L))


# ---------------------------------------------------------------------------
# D_p / SD_p^s machinery
# ---------------------------------------------------------------------------

def dp_ratio(a: Functional, w: CubeSums, p, family, Q: CubeIndex):
    """(sum_i a(Q_i)^p w(Q_i))^(1/p) / (a(Q)^p w(Q))^(1/p)."""
    den = a.eval(Q) ** p * w.mass(Q)
    num = sum(a.eval(qi) ** p * w.mass(qi) for qi in family)
    return (num / den) ** (1.0 / p)


@dataclass
class DpReport:
    exponent: float
    worst_ratio: float
    witness: list
    trials: int
    mode: str
    smallness_slope: float | None = None
    fit_residual: float | None = None
    per_L: dict = field(default_factory=dict)
    violations: int = 0

    def to_dict(self):
        return {
            "exponent": self.exponent,
            "worst_ratio": self.worst_ratio,
            "witness": [[q.level, list(q.coords)] for q in self.witness],
            "trials": self.trials,
            "mode": self.mode,
            "smallness_slope": self.smallness_slope,
            "fit_residual": self.fit_residual,
            "per_L": {str(k): v for k, v in self.per_L.items()},
            "violations": self.violations,
        }


def _maxplus(x, y):
    out = np.full(x.size + y.size - 1, -np.inf)
    for i, v in enumerate(x):
        if np.isfinite(v):
            seg = out[i:i + y.size]
            np.maximum(seg, v + y, out=seg)
    return out


def _score_arrays(a, w, p, Q, depth, cache):
    """Budgeted max-plus DP.  cache[Q] = (arr, convs) where arr[c] is the
    best sum of a^p w over antichains in the subtree of Q using exactly c
    finest cells, and convs are the forward child convolutions kept for
    witness backtracking (None at leaves)."""
    if Q in cache:
        return cache[Q]
    cells = (1 << (depth - Q.level)) ** Q.n
    score = a.eval(Q) ** p * w.mass(Q)
    if Q.level == depth:
        entry = (np.array([0.0, score]), None)
    else:
        convs = [np.array([0.0])]
        for ch in Q.children():
            carr, _ = _score_arrays(a, w, p, ch, depth, cache)
            convs.append(_maxplus(convs[-1], carr))
        arr = convs[-1].copy()
        arr[cells] = max(arr[cells], score)
        entry = (arr, convs)
    cache[Q] = entry
    return entry


def _witness(a, w, p, Q, depth, cache, count, tol=1e-9):
    """Antichain in the subtree of Q achieving the DP value at exact cell
    count ``count``."""
    arr, convs = cache[Q]
    if count <= 0 or not np.isfinite(arr[count]) or arr[count] <= 0:
        return []
    cells = (1 << (depth - Q.level)) ** Q.n
    score = a.eval(Q) ** p * w.mass(Q)
    scale = 1.0 + abs(arr[count])
    if count == cells and score >= arr[count] - tol * scale:
        return [Q]
    out = []
    children = Q.children()
    rem, val = count, arr[count]
    for j in range(len(children) - 1, -1, -1):
        carr, _ = cache[children[j]]
        prev = convs[j]
        pick = 0
        for c in range(min(rem, carr.size - 1) + 1):
            if rem - c < prev.size and np.isfinite(prev[rem - c]) \
                    and np.isfinite(carr[c]) \
                    and prev[rem - c] + carr[c] >= val - tol * scale:
                pick = c
                break
        out.extend(_witness(a, w, p, children[j], depth, cache, pick, tol))
        val = val - (cache[children[j]][0][pick] if pick else 0.0)
        rem -= pick
    return out


def max_dp_ratio(a: Functional, w_masses, p, Q: CubeIndex, depth,
                 mode="exhaustive", trials=1000, seed=0, budget_L=None):
    """Best D_p ratio over dyadic antichains below Q (optionally volume
    limited to |Q|/budget_L).  exhaustive: exact tree maximum;
    random: sampled lower bound."""
    w = CubeSums(np.asarray(w_masses, dtype=float), depth)
    den = a.eval(Q) ** p * w.mass(Q)
    cells = (1 << (depth - Q.level)) ** Q.n
    budget = cells if budget_L is None else int(math.floor(cells / budget_L + 1e-9))
    if mode == "exhaustive":
        cache = {}
        arr, _ = _score_arrays(a, w, p, Q, depth, cache)
        top = min(budget, arr.size - 1)
        finite = np.where(np.isfinite(arr[:top + 1]), arr[:top + 1], -np.inf)
        use = int(np.argmax(finite))
        num = float(finite[use])
        witness = _witness(a, w, p, Q, depth, cache, use)
        return DpReport(p, (max(num, 0.0) / den) ** (1.0 / p), witness, 0, mode)
    if mode == "random":
        rng = np.random.default_rng(seed)
        L = budget_L if budget_L is not None else 1.0 + 1e-9
        best, witness = 0.0, []
        for _ in range(trials):
            fam = random_small_family(Q, max(L, 1.0 + 1e-9), rng, depth)
            r = dp_ratio(a, w, p, fam.members, Q)
            if r > best:
                best, witness = r, fam.members
        return DpReport(p, best, witness, trials, mode)
    raise FunctionalError(f"unknown mode {mode!r}")


def sdp_check(a: Functional, w_masses, p, Q: CubeIndex, depth, Ls,
              trials=1000, seed=0, mode="random", fractional_exact=True):
    """Per-L maxima of the D_p ratio over L-small families plus the fitted
    smallness slope of log(max ratio) against log(1/L).

    For FractionalFunctional inputs the exact bound
    ratio <= (1/L)^(alpha/n) is checked per family; violations beyond
    1e-12 are counted in the report.
    """
    if any(L <= 1 for L in Ls):
        raise FunctionalError("each L must be > 1")
    if mode not in ("exhaustive", "random"):
        raise FunctionalError(f"unknown mode {mode!r}")
    w = CubeSums(np.asarray(w_masses, dtype=float), depth)
    n = Q.n
    alpha_over_n = (a.alpha / n
                    if fractional_exact and isinstance(a, FractionalFunctional)
                    else None)
    per_L, violations = {}, 0
    worst, witness = 0.0, []
    rng = np.random.default_rng(seed)
    total_trials = 0
    for L in sorted(Ls):
        if mode == "exhaustive":
            rep = max_dp_ratio(a, w_masses, p, Q, depth, "exhaustive",
                               budget_L=L)
            ratios = [(rep.worst_ratio, rep.witness)]
        else:
            ratios = []
            for _ in range(trials):
                fam = random_small_family(Q, L, rng, depth)
                ratios.append((dp_ratio(a, w, p, fam.members, Q), fam.members))
            total_trials += trials
        best_r, best_w = max(ratios, key=lambda t: t[0])
        per_L[L] = best_r
        if best_r > worst:
            worst, witness = best_r, best_w
        if alpha_over_n is not None:
            bound = (1.0 / L) ** alpha_over_n
            violations += sum(1 for r, _ in ratios if r > bound + 1e-12)
    slope, resid = None, None
    xs = np.log([1.0 / L for L in sorted(per_L)])
    ys = np.log([max(per_L[L], 1e-300) for L in sorted(per_L)])
    if len(xs) >= 2:
        coef, res = np.polyfit(xs, ys, 1, full=True)[:2]
        slope = float(coef[0])
        resid = float(res[0]) if len(res) else 0.0
    return DpReport(p, worst, witness, total_trials, mode, slope, resid,
                    per_L, violations)


def enumerate_antichains(Q: CubeIndex, depth, cap=10 ** 6):
    """All antichains (families of pairwise-disjoint dyadic cubes) in the
    subtree of Q, as lists; brute-force oracle for the DP maxima."""
    count = [0]

    def rec(q):
        if q.level == depth:
            return [[], [q]]
        fams = [[]]
        for ch in q.children():
            sub = rec(ch)
            fams = [f + g for f in fams for g in sub]
            count[0] += len(fams)
            if count[0] > cap:
                raise FunctionalError("antichain count exceeds cap")
        fams.append([q])
        return fams

    return rec(Q)
