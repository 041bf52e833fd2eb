"""Shared test oracles and strategies."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from revext.core import (CIRCLE, EPS_CHAIN, UNIT_INTERVAL, Branch,
                         PartialMapSystem, find_root)
from revext.extension import Chain, ExtensionSpec


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


def scalar_preimages(system, y: float) -> list:
    """The preimages of y in branch order, one scalar branch inverse at a
    time: the per-point loop ``core.preimages`` ran before it took arrays,
    kept as the oracle of its table."""
    space = system.space
    y = space.normalize(y)
    found = []
    for br in system.branches:
        x = space.normalize(float(br.inverse(y)))
        lo, hi = br.domain
        if not lo - 1e-9 <= x <= hi + 1e-9 or not system.in_domain(x):
            continue
        back = space.normalize(system.forward_map(x))
        if space.metric(back, y) > EPS_CHAIN:
            continue
        found.append(x)
    merged = []
    for x in found:
        for k, mx in enumerate(merged):
            if space.metric(x, mx) <= 10 * EPS_CHAIN:
                merged[k] = space.midpoint(x, mx)
                break
        else:
            merged.append(x)
    return [float(x) for x in merged]


def forward(system, x: float) -> float:
    """alpha(x) as a float, one point at a time (x normalized first): the
    scalar oracle of the forward map on rows."""
    space = system.space
    return float(space.normalize(system.forward_map(space.normalize(x))))


def scalar_alpha_tilde(spec, c):
    """The extended dynamics on one Chain: alpha(x0) prepended."""
    return Chain((forward(spec.system, c.coords[0]),) + c.coords,
                 c.terminal)


def chain_rows(chains) -> tuple:
    """Chains as NaN-padded rows and one terminal flag per row, the seeds
    ``build_model`` takes."""
    width = max((len(c.coords) for c in chains), default=1)
    coords = np.full((len(chains), width), np.nan)
    for i, c in enumerate(chains):
        coords[i, :len(c.coords)] = c.coords
    return coords, np.array([c.terminal for c in chains], dtype=bool)


def chain_key(c) -> tuple:
    """The class of a chain: its flag and its coordinates under Python's
    round(x, 9).  Chains with equal keys are one chain of a stratum sample
    or of an operator model's basis."""
    return (c.terminal, tuple(round(x, 9) for x in c.coords))


def model_chains(m) -> list:
    """The basis of a FiniteModel as Chains, read from its rows."""
    return [Chain(tuple(row[~np.isnan(row)].tolist()), bool(t))
            for row, t in zip(m.coords, m.terminal)]


def doubling_spec():
    """x -> 2x on Delta = Y = [0, 1], a forward map that leaves [0, 1]."""
    system = PartialMapSystem(UNIT_INTERVAL, ((0.0, 1.0),), lambda x: 2.0 * x,
                              (Branch((0.0, 0.5), lambda y: 0.5 * y),))
    return ExtensionSpec(system, ((0.0, 1.0),))


def roof_system():
    """x -> 1.5 min(x, 1 - x) on the circle, which folds at 0 = 1."""
    return PartialMapSystem(
        space=CIRCLE, domain=((0.0, 1.0),),
        forward_map=lambda x: 1.5 * np.minimum(x, 1.0 - x),
        branches=(Branch((0.0, 0.5), lambda y: y / 1.5),
                  Branch((0.5, 1.0), lambda y: 1.0 - y / 1.5)))


def circle_doubling_system():
    """x -> 2x on the circle, its branches the two halves."""
    return PartialMapSystem(
        space=CIRCLE, domain=((0.0, 1.0),), forward_map=lambda x: 2.0 * x,
        branches=(Branch((0.0, 0.5), lambda y: 0.5 * y),
                  Branch((0.5, 1.0), lambda y: 0.5 * y + 0.5)))


def tent_system(slope: float):
    """x -> slope * min(x, 1 - x) on [0, 1], folded at 1/2."""
    return PartialMapSystem(
        space=UNIT_INTERVAL, domain=((0.0, 1.0),),
        forward_map=lambda x: slope * np.minimum(x, 1.0 - x),
        branches=(Branch((0.0, 0.5), lambda y: y / slope),
                  Branch((0.5, 1.0), lambda y: 1.0 - y / slope)))


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
