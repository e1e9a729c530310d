"""Shared fixtures: seeded corpora of weights and grid functions."""

import os

import numpy as np
import pytest

from poincarelab.grid import GridFunction, RootBox, sample


# GridFunction weights that the depth-4 grid of the unit interval refuses,
# and the words each refusal names the mismatch with: a negative value
# breaks the weight rule of ``grid.resolve``, values > 0
OFF_GRID = {
    "other-depth": (lambda: GridFunction(RootBox.unit(1), 3, np.ones(8)),
                    "depth-3"),
    "other-root": (lambda: GridFunction(RootBox((0.0,), 7.0), 4,
                                        np.ones(16)), "side=7.0"),
    "negative": (lambda: GridFunction(RootBox.unit(1), 4,
                                      np.linspace(-1.0, 1.0, 16)),
                 "must be positive"),
}


def assert_same_bits(a, b):
    # array_equal counts -0.0 equal to 0.0; signbit tells them apart
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def lognormal_weight(rng, n, depth, sigma=None):
    """Random positive cell values with log-normal fluctuations."""
    if sigma is None:
        sigma = rng.uniform(0.3, 1.5)
    shape = (2 ** depth,) * n
    return np.exp(rng.normal(0.0, sigma, shape))


def weight_corpus(count=50, seed=11):
    """Seeded list of (cell_values, root, depth) over 1D/2D, depths 4-8."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 1 if i % 2 == 0 else 2
        depth = int(rng.integers(4, 9)) if n == 1 else int(rng.integers(4, 7))
        out.append((lognormal_weight(rng, n, depth), RootBox.unit(n), depth))
    return out


def smooth_field_2d(rng, depth, terms=4):
    """Random band-limited smooth function on the unit square."""
    ks = rng.integers(1, 5, (terms, 2))
    cs = rng.normal(0.0, 1.0, terms)
    ph = rng.uniform(0.0, 2 * np.pi, (terms, 2))

    def fn(x, y):
        return sum(c * np.sin(k[0] * np.pi * x + p[0])
                   * np.sin(k[1] * np.pi * y + p[1])
                   for c, k, p in zip(cs, ks, ph))

    return sample(RootBox.unit(2), depth, fn)


def counting(cls):
    """Subclass of a functional class that counts its eval calls."""
    class Counting(cls):
        calls = 0

        def eval(self, q):
            self.calls += 1
            return super().eval(q)
    return Counting


def function_corpus_2d(count, depth, seed=3):
    rng = np.random.default_rng(seed)
    return [smooth_field_2d(rng, depth) for _ in range(count)]


ACCEPTANCE_LINES_PATH = os.path.join(os.path.dirname(__file__),
                                     "_acceptance_lines.txt")


def record_acceptance_line(line):
    with open(ACCEPTANCE_LINES_PATH, "a") as fh:
        fh.write(line + "\n")


def pytest_sessionstart(session):
    try:
        os.remove(ACCEPTANCE_LINES_PATH)
    except OSError:
        pass


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if os.path.exists(ACCEPTANCE_LINES_PATH):
        terminalreporter.write_sep("-", "acceptance criteria")
        with open(ACCEPTANCE_LINES_PATH) as fh:
            for line in fh.read().splitlines():
                terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_weight_corpus():
    return weight_corpus(count=12, seed=5)


@pytest.fixture(scope="session")
def full_weight_corpus():
    return weight_corpus(count=50, seed=11)
