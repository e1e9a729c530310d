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
draws come from a private word stream seeded by ``seed`` and equal scalar
``Generator.integers`` draws on ``default_rng(seed)`` bit for bit.  The
stream decodes a block of generator words at a time in numpy, each word
with the cube level it draws, and the sampler walks the decoded words in
plain Python lists, reading a try's position words only when its level
fits.  Both modes read a(Q)^p w(Q) from one array per cube level,
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
STREAM_BLOCK = 1024  # 64-bit words per read of the sampler's generator


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


class _WordStream:
    """The 32-bit words of a private PCG64 seeded by ``seed``, each 64-bit
    raw word low half first, as ``Generator.integers`` reads them: calling
    the stream with R <= 2^32 draws a uniform integer in [0, R), so that a
    sequence of calls equals ``int(rng.integers(0, R))`` calls on
    ``rng = np.random.default_rng(seed)`` bit for bit.  The draw is numpy's
    bounded one (Lemire, ACM TOMACS 2019): R = 1 reads no word, and a word
    x is rejected, and the next one read, while (x * R) mod 2^32 is below
    both R and (2^32 - R) mod R.

    The words are decoded STREAM_BLOCK raw words at a time into ``words``,
    read from ``pos`` on, and ``levels``: per word, its draw in [0,
    ``span``) or -1 where the bounded draw rejects it (``span`` is 2 until
    ``decode_for`` sets it).  ``_draw_family`` walks these lists itself
    and stores back the position it reached."""

    def __init__(self, seed):
        self._bitgen = np.random.default_rng(seed).bit_generator
        self.words, self.levels, self.pos, self.span = [], [], 0, 2

    def _raw(self):
        """The next STREAM_BLOCK 64-bit words of the generator."""
        return self._bitgen.random_raw(STREAM_BLOCK)

    def _decode(self, words):
        """The draw in [0, ``span``) of each 32-bit word, -1 if rejected."""
        R = self.span
        m = words * np.uint64(R)
        low = m & np.uint64(0xFFFFFFFF)
        fine = (low >= R) | (low >= ((1 << 32) - R) % R)
        return np.where(fine, (m >> np.uint64(32)).astype(np.int64), -1)

    def refill(self):
        """Drop the words read and append the next block, decoded."""
        raw = self._raw()
        block = np.stack((raw & np.uint64(0xFFFFFFFF), raw >> np.uint64(32)),
                         axis=1).ravel()
        self.words = self.words[self.pos:] + block.tolist()
        self.levels = self.levels[self.pos:] + self._decode(block).tolist()
        self.pos = 0

    def decode_for(self, span):
        """Make ``levels`` the draws in [0, ``span``), 2 <= span <= 2^32."""
        if span != self.span:
            self.span = span
            self.levels = self._decode(
                np.array(self.words, dtype=np.uint64)).tolist()

    def __call__(self, R):
        if R == 1:
            return 0
        if R > 1 << 32:
            raise FunctionalError("ranges above 2^32 are not drawn here")
        while True:
            if self.pos == len(self.words):
                self.refill()
            m = self.words[self.pos] * R
            self.pos += 1
            low = m & 0xFFFFFFFF
            if low >= R or low >= ((1 << 32) - R) % R:
                return m >> 32


def _uniform_draws(seed):
    """The private word stream of ``sdp_check``'s random mode."""
    return _WordStream(seed)


def _draw_family(n, L, stream, depth):
    """Greedy rejection sampler for L-small families, L > 1, of dyadic
    cubes of the depth-``depth`` grid in dimension n: uniformly random
    cubes, overlaps rejected, until the remaining volume budget is below
    one finest cell (or FAMILY_MAX_TRIES tries run out).  Members are
    ``(level, coords)`` pairs.  Each try draws its level with
    ``stream(depth + 1)`` and, when the level fits the budget left, its
    position with n draws ``stream(2**level)``; the draws are those of
    the scalar sampler, word for word.

    The walk reads ``stream.levels`` decoded for ``depth + 1``, where a
    rejected word (-1) is no try, and keeps ``fit``, the coarsest level
    that fits, as a running bound: a try below it reads no more words.  A
    position draw ``stream(2**level)`` never rejects and is its word's top
    ``level`` bits.  The finest cells are marked in Z order, where each
    dyadic cube is one run: the cells of the level-k cube with Z index z
    are [z * c, (z + 1) * c) for c cells per cube."""
    budget = (1 << depth) ** n / L
    if budget < 1.0:
        return []
    spread = _z_spread(n, depth)
    sizes = [1 << (n * (depth - k)) for k in range(depth + 1)]
    taken = bytearray(sizes[0])
    members, used, tries, fit = [], 0, 0, 0
    while sizes[fit] > budget:
        fit += 1
    stream.decode_for(depth + 1)
    words, levels, i = stream.words, stream.levels, stream.pos
    end = len(words) - n        # a try's level word and n position words
    while tries < FAMILY_MAX_TRIES:
        if i >= end:
            stream.pos = i
            stream.refill()
            words, levels, i = stream.words, stream.levels, 0
            end = len(words) - n
        level = levels[i]
        i += 1
        if level < fit:
            if level >= 0:
                tries += 1
            continue
        tries += 1
        shift = 32 - level
        if n == 1:                  # the coordinate is the Z index
            z = words[i] >> shift
            coords = (z,)
        else:
            coords = tuple([x >> shift for x in words[i:i + n]])
            z = 0
            for c in coords:
                z = (z << 1) | spread[c]
        i += n
        cells = sizes[level]
        start = z * cells
        if taken.find(1, start, start + cells) >= 0:
            continue
        taken[start:start + cells] = b"\x01" * cells
        members.append((level, coords))
        used += cells
        if budget - used < 1.0:
            break
        while sizes[fit] > budget - used:
            fit += 1
    stream.pos = i
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


def _sampled(scores, p, L, trials, stream, bound):
    """The largest D_p ratio of ``trials`` sampled L-small families below
    the root, the first family attaining it, and how many ratios exceed
    ``bound``.  Each ratio is (sum_i a(Q_i)^p w(Q_i))^(1/p) / (a(Q)^p
    w(Q))^(1/p): the members' ``_scores`` entries added in member order,
    then the 1/p power, on Python floats.  The families are drawn in turn
    from ``stream``; only the best is kept."""
    n, depth = scores[0].ndim, len(scores) - 1
    den = scores[0].item()
    best, best_fam, over = -math.inf, [], 0
    for _ in range(trials):
        fam = _draw_family(n, L, stream, depth)
        num = sum(scores[level].item(coords) for level, coords in fam)
        r = float((num / den) ** (1.0 / p))
        over += r > bound
        if r > best:
            best, best_fam = r, fam
    return best, [CubeIndex(level, coords) for level, coords in best_fam], \
        over


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
    Ls = sorted(Ls)
    bounds = [(1.0 / L) ** (a.alpha / n) + 1e-12 for L in Ls]
    if mode == "exhaustive":
        found = [(r, wit, int(r > bound)) for (r, wit), bound
                 in zip(_dp_maxima(scores, a.p, Ls), bounds)]
    else:
        stream = _uniform_draws(seed)
        found = [_sampled(scores, a.p, L, trials, stream, bound)
                 for L, bound in zip(Ls, bounds)]
    per_L, violations = {}, 0
    worst, witness = 0.0, []
    for L, (best_r, best_w, over) in zip(Ls, found):
        per_L[L] = best_r
        if best_r > worst:
            worst, witness = best_r, best_w
        violations += over
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
