"""Shared test oracles."""

import numpy as np
import pytest

from revext.core import find_root


def _largest_fixed_point(lam: float, q: int) -> float:
    """The largest x in [0,1] with alpha^q(x) = x, independent of the
    solvers: the last sign change of alpha^q(x) - x on a 4001-point grid,
    bisected."""
    def g(x):
        for _ in range(q):
            x = 4.0 * lam * x * (1.0 - x)
        return x

    xs = np.linspace(0.0, 1.0, 4001)
    h = g(xs) - xs
    i = np.nonzero(np.sign(h[:-1]) * np.sign(h[1:]) <= 0.0)[0][-1]
    return find_root(lambda x: g(x) - x, (float(xs[i]), float(xs[i + 1])),
                     1e-15)


@pytest.fixture(scope="session")
def largest_fixed_point():
    return _largest_fixed_point
