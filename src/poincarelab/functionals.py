"""The cube functional a(Q) and D_p / SD_p^s condition checking.

The lab has one functional, a positive rule on the dyadic cubes of a fixed
grid: the fractional a(Q) = l(Q)^alpha (mu(Q)/w(Q))^(1/p) of a measure mu
and a weight w, both given as cell masses.  The Poincare catalog's
gradient right side l(Q)^m ((1/u(Q)) int_Q |grad^m f|^p v)^(1/p) is the
case alpha = m, mu = |grad^m f|^p v dx, w = u, so mu may vanish on cells
where f is flat.  The D_p ratio of a disjoint family compares
sum a(Q_i)^p w(Q_i) with a(Q)^p w(Q); SD_p^s additionally demands a gain
(1/L)^(p/s) on L-small families.  Suprema are over dyadic families:
exhaustive mode computes the exact maximum over all antichains (with a
volume budget for L-small families) by one max-plus dynamic program, run
level by level up the cube tree and read for every L; it agrees with
brute-force enumeration, and its root step costs O(top^2) in the finest
cells of the largest budget.  Random mode gives a sampled lower bound; its
draws come from a private stream of raw generator words seeded by ``seed``
and equal scalar ``Generator.integers`` draws on ``default_rng(seed)`` bit
for bit.  Both modes read a(Q)^p w(Q) from one array per cube level,
``FractionalFunctional.level_values``, whose entries ``eval`` reads too.

Everything runs on the root cube of the grid: the families are those below
it, and a sub-cube is checked by making it the input grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import (CubeIndex, block_reduce, float_pow, level_blocks,
                   measure_cell_masses, resolve)


FAMILY_MAX_TRIES = 400  # tries per sampled L-small family
ANTICHAIN_CAP = 10 ** 6  # partial families enumerate_antichains builds
WITNESS_TOL = 1e-9  # relative slack of a DP value a witness must attain
_RAW_WORDS = 1024  # 64-bit words per read of the sampler's generator


class FunctionalError(ValueError):
    pass


class CubeSums:
    """Per-level block sums of a cell-mass array, each summed on first read."""

    def __init__(self, masses):
        self.masses = masses
        self._levels = {}

    def level(self, k):
        if k not in self._levels:
            self._levels[k] = block_reduce(self.masses, k, np.sum)
        return self._levels[k]

    def mass(self, q: CubeIndex):
        return float(self.level(q.level)[q.coords])


# ---------------------------------------------------------------------------
# the functional
# ---------------------------------------------------------------------------

class FractionalFunctional:
    """a(Q) = l(Q)^alpha * (mu(Q)/w(Q))^(1/p) on the depth-``depth`` grid of
    ``root``.  The grid's checks take the masses: mu by the measure rule
    (``measure_cell_masses``, so a mu cell of 0 is allowed) and w by the
    weight rule (``resolve``); each is an array of the grid's shape."""

    def __init__(self, alpha, p, mu_masses, w_masses, root, depth):
        if alpha <= 0 or p < 1:
            raise FunctionalError("need alpha > 0 and p >= 1")
        if mu_masses is None:   # which measure_cell_masses reads as Lebesgue
            raise FunctionalError("mu masses must be given, got None")
        mu = measure_cell_masses(mu_masses, root, depth)
        w = resolve(w_masses, root, depth)
        self.alpha, self.p = float(alpha), float(p)
        self.root, self.depth = root, depth
        self.mu = CubeSums(np.asarray(mu, dtype=float))
        self.w = CubeSums(np.asarray(w, dtype=float))

    def eval(self, q):
        return self.level_values(q.level)[q.coords].item()

    def level_values(self, level):
        """a(P) for every level-``level`` cube P of the grid, shaped
        ``(2^level,) * n`` and indexed by P's coordinates."""
        ell = self.root.side / (1 << level)
        ratio = self.mu.level(level) / self.w.level(level)
        return ell ** self.alpha \
            * float_pow(ratio, 1.0 / self.p, FunctionalError)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _z_spread(n, bits):
    """For each r < 2^bits, r with its bits moved n places apart: folding
    z = (z << 1) | spread[r_i] over a cube's coordinates gives its index
    in Z order (Morton order)."""
    if n == 1:
        return range(1 << bits)     # the identity, without a table
    return tuple(sum(((r >> j) & 1) << (n * j) for j in range(bits))
                 for r in range(1 << bits))


def _uniform_draws(seed):
    """``below(R)``: a uniform integer in [0, R) for R <= 2^32, so that a
    sequence of ``below`` calls equals ``int(rng.integers(0, R))`` calls on
    ``rng = np.random.default_rng(seed)`` bit for bit.  It is numpy's
    bounded draw (Lemire, ACM TOMACS 2019) on the 32-bit words of a private
    PCG64, read from ``bit_generator.random_raw`` _RAW_WORDS at a time,
    each 64-bit raw word low half first."""
    bitgen = np.random.default_rng(seed).bit_generator

    def halves():
        while True:
            raw = bitgen.random_raw(_RAW_WORDS)
            yield from np.stack((raw & 0xFFFFFFFF, raw >> 32),
                                axis=1).ravel().tolist()

    words = halves()

    def below(R):
        if R == 1:
            return 0
        if R > 1 << 32:
            raise FunctionalError("ranges above 2^32 are not drawn here")
        while True:
            m = next(words) * R
            low = m & 0xFFFFFFFF
            if low >= R or low >= ((1 << 32) - R) % R:
                return m >> 32

    return below


def _draw_family(n, L, below, depth):
    """Greedy rejection sampler for L-small families of dyadic cubes of the
    depth-``depth`` grid in dimension n: uniformly random cubes, overlaps
    rejected, until the remaining volume budget is below one finest cell
    (or FAMILY_MAX_TRIES tries run out).  Members are ``(level, coords)``
    pairs; each try draws its level with ``below``, and n more draws its
    position when the level fits the budget left.  In ``sdp_check``,
    ``below`` reads the private stream that ``_uniform_draws`` seeds with
    its ``seed``.  The finest cells are marked in Z order, where each
    dyadic cube is one run: the cells of the level-k cube with Z index z
    are [z * c, (z + 1) * c) for c cells per cube."""
    budget = (1 << depth) ** n / L
    spread = _z_spread(n, depth)
    taken = bytearray((1 << depth) ** n)
    members, used, tries = [], 0, 0
    while budget - used >= 1.0 and tries < FAMILY_MAX_TRIES:
        tries += 1
        level = below(depth + 1)
        cells = 1 << (n * (depth - level))
        if cells > budget - used:
            continue
        coords = tuple(below(1 << level) for _ in range(n))
        z = 0
        for c in coords:
            z = (z << 1) | spread[c]
        start = z * cells
        if taken.find(1, start, start + cells) >= 0:
            continue
        taken[start:start + cells] = b"\x01" * cells
        members.append((level, coords))
        used += cells
    return members


# ---------------------------------------------------------------------------
# D_p / SD_p^s machinery
# ---------------------------------------------------------------------------

@dataclass
class DpReport:
    worst_ratio: float
    witness: list
    trials: int
    smallness_slope: float = math.nan
    fit_residual: float = math.nan
    per_L: dict = field(default_factory=dict)
    violations: int = 0

    def to_dict(self):
        # string keys: sort_keys would order float keys numerically
        return dict(asdict(self),
                    witness=[[q.level, list(q.coords)] for q in self.witness],
                    per_L={str(k): v for k, v in self.per_L.items()})


def _maxplus(x, y, width):
    """Row-wise max-plus convolution of x and y, truncated at ``width``."""
    out = np.full((len(x), min(x.shape[1] + y.shape[1] - 1, width)), -np.inf)
    for i in range(min(x.shape[1], width)):
        seg = out[:, i:i + y.shape[1]]
        np.maximum(seg, x[:, i:i + 1] + y[:, :seg.shape[1]], out=seg)
    return out


def _scores(a):
    """a(P)^p w(P), a's own p and w, for the cubes P of each level of its
    grid, one array per level shaped as ``level_values``; the power is
    libm pow, which Python's float pow on a scalar a(P) calls too."""
    return [float_pow(a.level_values(level), a.p, FunctionalError)
            * a.w.level(level) for level in range(a.depth + 1)]


def _level_dp(scores, top):
    """Budgeted max-plus DP over the cube tree, bottom-up by level, from
    its ``_scores``.

    Row i of level r is the i-th level-r cube in row-major order of its
    coordinates.  arrs[r][i, c] is the best sum of a^p w over antichains
    below it using exactly c <= top finest cells; kids[r][i, j] is the row
    of its j-th child (``CubeIndex.children()`` order) and convs[r][j][i]
    its fold over the first j children, kept for witness backtracking.  One
    _maxplus call per child slot serves a whole level.  The root step costs
    O(top^2): the DP is quadratic in the finest cells of the largest budget.
    """
    n, D = scores[0].ndim, len(scores) - 1
    scores = [s.ravel() for s in scores]
    leaves = np.stack([np.zeros_like(scores[D]), scores[D]], axis=1)
    arrs = [None] * D + [leaves[:, :top + 1]]
    convs, kids = [None] * D, [None] * D
    for r in range(D - 1, -1, -1):
        rows = np.arange(1 << (n * (r + 1))).reshape((2 << r,) * n)
        kids[r] = level_blocks(rows, r).reshape(1 << (n * r), -1)
        below = arrs[r + 1][kids[r]]
        folds = [np.zeros((len(below), 1)), below[:, 0]]
        for j in range(1, 1 << n):
            folds.append(_maxplus(folds[-1], below[:, j], top + 1))
        arrs[r], convs[r] = folds.pop(), folds
        cells = 1 << (n * (D - r))
        if cells <= top:
            arrs[r][:, cells] = np.maximum(arrs[r][:, cells], scores[r])
    return arrs, convs, scores, kids


def _witness(dp, q, r, i, count):
    """Antichain below q (row i of level r) attaining the DP value at
    exactly ``count`` finest cells, within WITNESS_TOL relative; children
    are scanned last first."""
    arrs, convs, scores, kids = dp
    arr = arrs[r][i]
    if count <= 0 or not np.isfinite(arr[count]) or arr[count] <= 0:
        return []
    slack = WITNESS_TOL * (1.0 + abs(arr[count]))
    if count == 1 << (q.n * (len(arrs) - 1 - r)) \
            and scores[r][i] >= arr[count] - slack:
        return [q]
    out = []
    children = q.children()
    rem, val = count, arr[count]
    for j in range(len(children) - 1, -1, -1):
        carr = arrs[r + 1][kids[r][i, j]]
        prev = convs[r][j][i]
        pick = 0
        for c in range(min(rem, carr.size - 1) + 1):
            if rem - c < prev.size and np.isfinite(prev[rem - c]) \
                    and np.isfinite(carr[c]) \
                    and prev[rem - c] + carr[c] >= val - slack:
                pick = c
                break
        out.extend(_witness(dp, children[j], r + 1, kids[r][i, j], pick))
        val = val - (carr[pick] if pick else 0.0)
        rem -= pick
    return out


def _dp_maxima(scores, p, Ls):
    """(ratio, witness) of the best antichain below the root within |root|/L
    (no limit for L None) for each L, all read from one level DP."""
    n, depth = scores[0].ndim, len(scores) - 1
    cells = 1 << (n * depth)
    tops = [cells if L is None else min(math.floor(cells / L + 1e-9), cells)
            for L in Ls]
    dp = _level_dp(scores, max(tops, default=0))
    root = dp[0][0][0]
    den = scores[0].item()
    out = []
    for top in tops:
        finite = np.where(np.isfinite(root[:top + 1]), root[:top + 1], -np.inf)
        use = int(np.argmax(finite))
        ratio = float((max(float(finite[use]), 0.0) / den) ** (1.0 / p))
        out.append((ratio, _witness(dp, CubeIndex.root(n), 0, 0, use)))
    return out


def _sampled(scores, p, L, trials, below):
    """D_p ratios of ``trials`` sampled L-small families below the root,
    their maximum and the first family attaining it.  Each ratio is
    (sum_i a(Q_i)^p w(Q_i))^(1/p) / (a(Q)^p w(Q))^(1/p): the members'
    ``_scores`` entries added in member order, then the 1/p power, on
    Python floats.  The families are drawn in turn with ``below``."""
    n, depth = scores[0].ndim, len(scores) - 1
    den = scores[0].item()
    ratios, best, best_fam = [], -math.inf, []
    for _ in range(trials):
        fam = _draw_family(n, L, below, depth)
        num = sum(scores[level].item(coords) for level, coords in fam)
        r = float((num / den) ** (1.0 / p))
        ratios.append(r)
        if r > best:
            best, best_fam = r, fam
    return ratios, best, [CubeIndex(level, coords)
                          for level, coords in best_fam]


def _loglog_fit(xs, ys):
    """(slope, residual) of the least-squares line through the points
    (log x, log y); NaN for both with fewer than two distinct x, where no
    line is determined."""
    if len(set(xs)) < 2:
        return math.nan, math.nan
    coef, res = np.polyfit(np.log(xs), np.log(ys), 1, full=True)[:2]
    return float(coef[0]), float(res[0]) if len(res) else 0.0


def sdp_check(a: FractionalFunctional, w_masses, p, Q: CubeIndex, depth, Ls,
              trials=1000, seed=0, mode="random"):
    """Per-L maxima of the D_p ratio over L-small families plus the fitted
    smallness slope of log(max ratio) against log(1/L) (NaN, with its
    residual, for a single L).  w_masses (as an array), p, Q and depth
    must be a's own: its w masses and p, its grid's root cube and depth (a
    sub-cube is checked by making it the input grid).  The exact bound
    ratio <= (1/L)^(alpha/n), for every mu >= 0 (Franchi-Perez-Wheeden, JFA
    1998), rests on a(P)^p w(P) = l(P)^(alpha p) mu(P), which holds only
    for the w and p inside a(P).

    Each L satisfies 1 < L < inf and is given once.  Both modes read
    a(Q)^p w(Q) from per-level arrays (``_scores``).  Random mode draws the
    families of every L, in increasing L, from one private stream seeded by
    ``seed`` (``_uniform_draws``).  The bound is checked per family;
    violations beyond 1e-12 are counted in the report.  A zero a(Q)^p w(Q)
    at the root, the denominator of every ratio, is refused.
    """
    n = a.root.n
    if Q != CubeIndex.root(n):
        raise FunctionalError(f"sdp_check runs on the root cube of the "
                              f"grid, got {Q}; make a sub-cube the input grid")
    if depth != a.depth:
        raise FunctionalError(f"sdp_check at depth {depth} of a functional on "
                              f"a depth-{a.depth} grid")
    if p != a.p or not np.array_equal(w_masses, a.w.masses):
        raise FunctionalError(f"sdp_check takes the functional's own w "
                              f"masses and p = {a.p}, got others")
    resolve(w_masses, a.root, depth)    # an array, as the functional's is
    given = ", ".join(map(str, Ls))
    if not all(1 < L < math.inf for L in Ls):
        raise FunctionalError(f"each L must satisfy 1 < L < inf, got {given}")
    if len(set(Ls)) < len(Ls):
        raise FunctionalError(f"each L may be given once, got {given}")
    if mode not in ("exhaustive", "random"):
        raise FunctionalError(f"unknown mode {mode!r}")
    if mode == "random" and trials < 1:
        raise FunctionalError("trials must be >= 1")
    scores = _scores(a)
    if scores[0].item() == 0:
        raise FunctionalError("a(Q)^p w(Q) is 0 at the root cube Q")
    alpha_over_n = a.alpha / n
    Ls = sorted(Ls)
    if mode == "exhaustive":
        found = [([r], r, wit) for r, wit in _dp_maxima(scores, a.p, Ls)]
    else:
        below = _uniform_draws(seed)
        found = [_sampled(scores, a.p, L, trials, below) for L in Ls]
    per_L, violations = {}, 0
    worst, witness = 0.0, []
    for L, (ratios, best_r, best_w) in zip(Ls, found):
        per_L[L] = best_r
        if best_r > worst:
            worst, witness = best_r, best_w
        bound = (1.0 / L) ** alpha_over_n
        violations += sum(1 for r in ratios if r > bound + 1e-12)
    slope, resid = _loglog_fit([1.0 / L for L in sorted(per_L)],
                               [max(per_L[L], 1e-300) for L in sorted(per_L)])
    total_trials = trials * len(Ls) if mode == "random" else 0
    return DpReport(worst, witness, total_trials, slope, resid, per_L,
                    violations)


def enumerate_antichains(n, depth):
    """All antichains (families of pairwise-disjoint dyadic cubes) of the
    depth-``depth`` grid in dimension n, as lists; brute-force oracle for
    the DP maxima.  Refused once more than ANTICHAIN_CAP partial families
    have been built."""
    count = [0]

    def rec(q):
        if q.level == depth:
            return [[], [q]]
        fams = [[]]
        for ch in q.children():
            sub = rec(ch)
            fams = [f + g for f in fams for g in sub]
            count[0] += len(fams)
            if count[0] > ANTICHAIN_CAP:
                raise FunctionalError("antichain count exceeds cap")
        fams.append([q])
        return fams

    return rec(CubeIndex.root(n))
