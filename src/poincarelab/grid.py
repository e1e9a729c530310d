"""Dyadic cube trees over a root box and piecewise-constant grid functions.

Cells at depth ``d`` form a regular ``2**d`` per-axis lattice; every integral
is an exact finite sum over cells, so refinement (increasing ``d``) is the
only convergence knob.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

MAX_DIM = 4
MAX_CELL_EXPONENT = 24  # n * depth cap
SAVE_BLOCK = 1024  # values per json.dumps call in GridFunction.save


class GridError(ValueError):
    pass


def float_pow(base, exponent, error):
    """``base ** exponent`` per element through libm ``pow``, the function
    Python's float pow calls: numpy's vectorized ``power`` may round the
    last bit differently from the scalar definitions of the cube
    quantities.  Where Python's pow raises or gives a complex (a finite
    base whose power overflows, zero to a negative power, a negative base
    to a fractional power), ``error`` is raised instead of returning inf
    or nan."""
    with np.errstate(all="ignore"):
        out = np.float_power(base, exponent)
    bad = ~np.isfinite(out)
    if bad.any() and np.isfinite(np.asarray(base)[bad]).any():
        raise error(f"a finite value to the power {exponent!r} overflows or "
                    "is not real")
    return out


def check_cell_cap(n, depth):
    """Refuse a depth-``depth`` grid in dimension ``n`` with more than
    2**MAX_CELL_EXPONENT cells, before anything is allocated for it."""
    if n * depth > MAX_CELL_EXPONENT:
        raise GridError(f"n*depth exceeds cap {MAX_CELL_EXPONENT}")


@dataclass(frozen=True)
class RootBox:
    """Ambient cube: lower corner and side length."""

    lower: tuple
    side: float

    def __post_init__(self):
        if not (1 <= len(self.lower) <= MAX_DIM):
            raise GridError(f"dimension must be in [1, {MAX_DIM}]")
        if not 0 < self.side < np.inf:
            raise GridError(f"side must be positive and finite, got "
                            f"{self.side!r}")
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        if not np.all(np.isfinite(self.lower)):
            raise GridError(f"corner must be finite, got {list(self.lower)}")

    @property
    def n(self):
        return len(self.lower)

    @classmethod
    def unit(cls, n):
        return cls((0.0,) * n, 1.0)

    @classmethod
    def symmetric(cls, n):
        """Box (-1, 1)^n centered at the origin."""
        return cls((-1.0,) * n, 2.0)


@dataclass(frozen=True)
class CubeIndex:
    """Dyadic cube at ``level`` with integer coordinates in [0, 2**level)."""

    level: int
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if self.level < 0:
            raise GridError("level must be nonnegative")
        top = 1 << self.level
        if any(not (0 <= c < top) for c in self.coords):
            raise GridError(f"coords {self.coords} out of range at level {self.level}")

    @property
    def n(self):
        return len(self.coords)

    @classmethod
    def root(cls, n):
        return cls(0, (0,) * n)

    def children(self):
        """The 2**n dyadic children, partitioning this cube."""
        out = []
        for offs in itertools.product((0, 1), repeat=self.n):
            out.append(CubeIndex(self.level + 1,
                                 tuple(2 * c + o for c, o in zip(self.coords, offs))))
        return out


class GridFunction:
    """Piecewise-constant function on the depth-``d`` cells of a root box."""

    def __init__(self, root, depth, values):
        check_cell_cap(root.n, depth)
        n, N = root.n, 1 << depth
        arr = np.asarray(values, dtype=float)
        if arr.size != N ** n:
            raise GridError(f"expected {N ** n} values, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise GridError("values must be finite")
        self.root = root
        self.depth = depth
        self.values = arr.reshape((N,) * n)

    @property
    def n(self):
        return self.root.n

    @property
    def cells_per_axis(self):
        return 1 << self.depth

    @property
    def cell_width(self):
        return self.root.side / self.cells_per_axis

    @property
    def cell_volume(self):
        return self.cell_width ** self.n

    def copy_with(self, values):
        return GridFunction(self.root, self.depth, values)

    # -- cube geometry ----------------------------------------------------

    def block(self, q):
        """Slice tuple selecting the cells of cube ``q``."""
        if q.level > self.depth:
            raise GridError(f"cube level {q.level} exceeds depth {self.depth}")
        span = 1 << (self.depth - q.level)
        return tuple(slice(c * span, (c + 1) * span) for c in q.coords)

    def cell_midpoints(self):
        """Meshgrid of cell-center coordinates, one full array per axis."""
        return np.meshgrid(*midpoint_axes(self.root, self.depth),
                           indexing="ij")

    # -- averages ---------------------------------------------------------

    def average(self, q):
        return float(self.values[self.block(q)].mean())

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "depth": self.depth,
            "root": {"corner": list(self.root.lower), "side": self.root.side},
            "values": [float(v) for v in self.values.ravel()],
        }

    def save(self, path):
        # json.dumps runs the C encoder, about twice as fast as json.dump's
        # pure-Python one and with the same bytes, but it builds its whole
        # text at once, one string per value on the way; the values, the
        # last key, go through it a block at a time
        d = self.to_json_dict()
        values = d.pop("values")
        with open(path, "w") as fh:
            fh.write(json.dumps(d)[:-1] + ', "values": [')
            for i in range(0, len(values), SAVE_BLOCK):
                fh.write((", " if i else "")
                         + json.dumps(values[i:i + SAVE_BLOCK])[1:-1])
            fh.write("]}")

    @classmethod
    def from_json_dict(cls, d):
        """Read ``{"root": {"lower" | "corner": [...], "side": s}, "depth",
        "values"}`` with an optional ``"n"`` checked against the corner.
        depth and n are JSON integers; side, the corner and the flat list
        of values hold numbers."""
        try:
            box = d["root"]
            corner = box["lower"] if "lower" in box else box["corner"]
            side, depth, values = box["side"], d["depth"], d["values"]
            for key, x in (("depth", depth), ("n", d.get("n", 1))):
                if type(x) is not int:
                    raise GridError(f"{key} must be an integer, got {x!r}")
            for key, x in (("corner", corner), ("values", values)):
                # a JSON number is an int or a float, not a bool
                if type(x) is not list or set(map(type, x)) - {int, float}:
                    raise GridError(f"{key} must be a list of numbers")
            if type(side) not in (int, float):
                raise GridError(f"side must be a number, got {side!r}")
            root = RootBox(tuple(corner), float(side))
            if "n" in d and root.n != d["n"]:
                raise GridError("dimension mismatch between 'n' and root corner")
            return cls(root, depth, values)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, GridError):
                raise
            raise GridError(f"malformed grid function JSON: {exc!r}") from None

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _check_cells(arr, shape, what):
    """The least cell of ``arr``, refused unless ``arr`` is an array of the
    grid's ``shape`` with finite cells.  The cells are read by two
    reductions, which make no array: a NaN cell makes the least cell NaN,
    and an infinite one makes the least or the greatest infinite."""
    if not isinstance(arr, np.ndarray) or arr.shape != shape:
        raise GridError(f"{what} must be an array of shape {shape}, got "
                        f"{getattr(arr, 'shape', type(arr).__name__)}")
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise GridError(f"{what} must be finite, got a cell of "
                        f"{lo if not np.isfinite(lo) else hi}")
    return lo


def resolve(w, root, depth):
    """The cell values ``w`` of a weight on the depth-``depth`` grid of
    ``root``, refused unless of shape ``(2**depth,) * n``, finite and
    positive."""
    if _check_cells(w, (1 << depth,) * root.n, "weight cell values") <= 0:
        raise GridError("weight cell values must be positive")
    return w


def lebesgue_masses(root, depth):
    """Lebesgue cell masses on the depth-``depth`` grid of ``root``."""
    N = 1 << depth
    return np.full((N,) * root.n, (root.side / N) ** root.n)


def measure_cell_masses(measure, root, depth):
    """Cell masses of a measure on the depth-``depth`` grid of ``root``:
    ``None`` is Lebesgue measure, and an array is taken as the masses,
    refused unless of shape ``(2**depth,) * n``, finite and nonnegative."""
    if measure is None:
        return lebesgue_masses(root, depth)
    if _check_cells(measure, (1 << depth,) * root.n, "cell masses") < 0:
        raise GridError("cell masses must be nonnegative")
    return measure


def midpoint_axes(root, depth):
    """The cell-center coordinates of the depth-``depth`` grid of ``root``,
    one 1D array per axis."""
    h = root.side / (1 << depth)
    return [root.lower[i] + h * (np.arange(1 << depth) + 0.5)
            for i in range(root.n)]


def sample(root, depth, func):
    """GridFunction from a callable evaluated at cell midpoints."""
    check_cell_cap(root.n, depth)
    gf = GridFunction(root, depth, np.zeros((1 << depth) ** root.n))
    pts = gf.cell_midpoints()
    return gf.copy_with(func(*pts))


def _split_levels(values, level, shifted=False):
    """Shape (m, b) per axis: axes 2i index the cubes, 2i+1 cells.

    Aligned cubes give m = 2**level.  The half-shifted cubes of the level
    start at odd multiples of b/2 and stay inside the box: they are the
    aligned split of the box trimmed by b/2 cells per side, m = 2**level - 1.
    Either way the result is a view of ``values``.
    """
    N = values.shape[0]
    b = N >> level
    if b == 0:
        raise GridError("level exceeds depth")
    if not shifted:
        return values.reshape((1 << level, b) * values.ndim)
    if b < 2:
        raise GridError("shifted cubes need at least 2 cells per side")
    trimmed = values[(slice(b // 2, N - b // 2),) * values.ndim]
    return trimmed.reshape(((1 << level) - 1, b) * values.ndim)


def block_reduce(values, level, op, shifted=False):
    """Reduce the cell array onto the level-``level`` dyadic blocks
    (half-shifted ones with ``shifted``).

    ``op`` is a numpy reduction (np.mean, np.amin, ...) applied per block;
    the result has shape ``(m,) * n`` as in ``_split_levels``.
    """
    return op(_split_levels(values, level, shifted),
              axis=tuple(range(1, 2 * values.ndim, 2)))


def _cumsum_planes(arr, axis):
    """Running sum along ``axis`` in place, one add per plane: the same
    sequential sums as ``np.cumsum``, which would instead run one loop per
    line and so pays per line when the axis is short and the lines many."""
    before = (slice(None),) * axis
    for k in range(1, arr.shape[axis]):
        arr[before + (k,)] += arr[before + (k - 1,)]


def upsample(arr):
    """A per-cube array of one level laid out on the next finer level."""
    for ax in range(arr.ndim):
        arr = np.repeat(arr, 2, axis=ax)
    return arr


def level_blocks(values, level, shifted=False):
    """The level-``level`` dyadic cubes, half-shifted with ``shifted``, as
    one contiguous array of shape ``(m,) * n + (b,) * n`` (m as in
    ``_split_levels``): entry ``coords`` holds the cells of that cube."""
    split = _split_levels(values, level, shifted)
    order = tuple(range(0, split.ndim, 2)) + tuple(range(1, split.ndim, 2))
    return np.ascontiguousarray(split.transpose(order))


def discrete_gradient(f, order=1):
    """Magnitude of the order-``m`` gradient as a GridFunction.

    Forward differences per axis scaled by the cell width, boundary cells
    copying the last interior difference; the magnitude aggregates the
    absolute values of all order-m mixed differences (l1 over multi-indices).
    """
    m = int(order)
    if m < 1:
        raise GridError("order must be >= 1")
    if (1 << f.depth) <= m:
        raise GridError("grid too coarse for requested order")
    h = f.cell_width

    def diff_axis(arr, axis):
        d = np.diff(arr, axis=axis)
        d /= h
        last = np.take(d, [-1], axis=axis)
        return np.concatenate([d, last], axis=axis)

    total = np.zeros_like(f.values)
    for sigma in itertools.product(range(m + 1), repeat=f.n):
        if sum(sigma) != m:
            continue
        d = f.values
        for axis, k in enumerate(sigma):
            for _ in range(k):
                d = diff_axis(d, axis)
        total += np.abs(d, out=d)
    return f.copy_with(total)


_CORNER_INTEGRAL_CACHE = {}
CORNER_SUBLEVELS = 6  # midpoint subdivision levels of the corner integral


def _corner_singular_unit_integral(n, gamma):
    """integral over [0,1]^n of |u|^(gamma - n) du for gamma > 0.

    Splits the unit cube into 2^n half-side subcubes; the origin subcube is
    a (1/2)^gamma rescaled copy of the whole, the other 2^n - 1 are handled
    by vectorized midpoint subdivision (integrand smooth away from 0).
    Each subcube's squared radii broadcast from sparse axes into one
    (2^CORNER_SUBLEVELS)^n array, which is powered in place.
    """
    if gamma <= 0:
        raise GridError("exponent must be positive")
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
        r2 = sum(g * g for g in np.meshgrid(*axes, indexing="ij",
                                            sparse=True))
        r2 **= (gamma - n) / 2.0
        shell += float(r2.sum()) * side ** n
        r2 = None  # freed before the next subcube's array is built
    out = shell / (1.0 - 2.0 ** (-gamma))
    _CORNER_INTEGRAL_CACHE[key] = out
    return out
