"""Shared test oracles and strategies."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

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


def _decimal_half(k_steps_digits):
    """The double nearest (k + 1/2) / 10**digits, moved ``steps`` ulp."""
    k, steps, digits = k_steps_digits
    x = (k + 0.5) / 10 ** digits
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def decimal_edge_floats():
    """Floats where rounding to 2 or 9 decimals is delicate: any in
    [0, 1], the decimal halves (k + 1/2) / 10**digits and their neighbours
    up to 3 ulp away, signed zeros, subnormals and 5e-10."""
    tiny = 2.2250738585072014e-308  # the smallest normal double
    return st.one_of(
        st.floats(0.0, 1.0),
        st.tuples(st.integers(0, 10 ** 9 - 1), st.integers(-3, 3),
                  st.just(9)).map(_decimal_half),
        st.tuples(st.integers(0, 99), st.integers(-3, 3),
                  st.just(2)).map(_decimal_half),
        st.floats(-tiny, tiny),
        st.sampled_from([0.0, -0.0, 5e-10, 5e-324]))
