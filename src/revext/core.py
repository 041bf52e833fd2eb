"""State spaces, partial maps with enumerable preimage branches, the
preimage table, a bracketing root finder and exact decimal rounding.

A partial dynamical system here is a compact state space M (the unit
interval or the circle), a domain Delta given as a finite union of closed
intervals, a forward map alpha defined on Delta, and an explicit list of
preimage branches so that backward orbits can be enumerated.  The forward
map and the branch inverses act elementwise on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# Residual tolerance for chain/branch arithmetic (backward iteration with
# exact branch inverses stays near machine precision).
EPS_CHAIN = 1e-9
# Tolerance for domain-boundary membership.
EPS_DOM = 1e-12


class OutsideDomain(ValueError):
    """Raised when a map is evaluated outside its domain Delta."""


class BracketFailure(RuntimeError):
    """A root bracket could not be located."""


def find_root(f: Callable[[float], float], points: Iterable[float],
              xtol: float) -> float:
    """A root of f, bracketed by the first sign change along ``points``.

    ``points`` is walked in order (it may be a lazy iterable, consumed only
    up to the bracket); a point where f is exactly zero is returned as it
    is.  The bracket is then bisected until it is at most ``xtol`` wide, or
    until its midpoint is one of its ends, and the midpoint is returned.
    Raises BracketFailure when f never changes sign along ``points``.
    """
    a = fa = None
    for b in points:
        fb = f(b)
        if fb == 0.0:
            return b
        if fa is not None and (fa < 0.0) != (fb < 0.0):
            break
        a, fa = b, fb
    else:
        raise BracketFailure("f does not change sign along the points")
    while abs(b - a) > xtol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def decimal_rint(v, digits: int) -> np.ndarray:
    """Per x of ``v``, the int64 k nearest the exact x * 10**digits, ties
    to even, as ``round(x, digits)`` and ``f"{x:.{digits}f}"`` round.  A
    normal t = fl(x * 10**digits) lies within eps * |t| of it (digits <=
    22), so ``np.rint(t)`` is k unless a half is that close; those x are
    formatted (ValueError if not finite, OverflowError past 2**63)."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        t = v * 10.0 ** digits
        k = np.rint(t)
        d = np.abs(t - k)
        np.subtract(0.5, d, out=d)  # the distance from t to the nearest half
        np.multiply(np.abs(t, out=t), np.finfo(float).eps, out=t)
        risky = np.flatnonzero(~(d > t))
        out = k.astype(np.int64)
    out.flat[risky] = [int(f"{x:.{digits}f}".replace(".", ""))
                       for x in v.flat[risky].tolist()]
    return out


@dataclass(frozen=True)
class StateSpace:
    """The unit interval [0,1] or the circle R/Z with its induced metric.

    Every method acts elementwise on a float or a float64 array: a float
    in gives a float out, an array the array of the per-element results.
    """

    kind: str  # "interval" | "circle"

    def normalize(self, x):
        if self.kind == "circle":
            x = x % 1.0
            return x - (x >= 1.0)  # x % 1.0 rounds up to 1.0 for tiny x < 0
        return x * 1.0

    def metric(self, x, y):
        if self.kind == "circle":
            d = abs(x % 1.0 - y % 1.0)
            # min(d, 1 - d), exactly: for d > 1/2, 1 - 2d and 1 - d are
            # exact, so d + (1 - 2d) rounds to 1 - d
            return d + (d > 0.5) * (1.0 - 2.0 * d)
        return abs(x - y)

    def midpoint(self, x, y):
        """The midpoint of x and y; on the circle, of the shorter arc."""
        if self.kind == "circle":
            return self.normalize(x + 0.5 * ((y - x + 0.5) % 1.0 - 0.5))
        return 0.5 * (x + y)

    def in_intervals(self, intervals: Sequence[tuple[float, float]], x,
                     eps: float):
        """Whether x lies in the union of closed intervals; on the circle
        an interval (lo, hi) with hi < lo wraps through 0."""
        x = self.normalize(x)
        hit = x < x  # False, in the shape of x
        for lo, hi in intervals:
            hit = hit | ((lo - eps <= x) & (x <= hi + eps))
            if self.kind == "circle" and hi < lo:
                hit = hit | (x >= lo - eps) | (x <= hi + eps)
        return hit


UNIT_INTERVAL = StateSpace("interval")
CIRCLE = StateSpace("circle")


@dataclass(frozen=True)
class Branch:
    """One monotone preimage branch of the forward map.

    ``inverse`` maps the points of the image back into ``domain``,
    elementwise on a float or a float64 array; it gives NaN where the
    branch has no preimage.
    """

    domain: tuple[float, float]
    inverse: Callable


@dataclass(frozen=True)
class PartialMapSystem:
    """(M, Delta, alpha) with enumerable preimage branches.  The forward
    map, like each branch inverse, acts elementwise on a float or a float64
    array."""

    space: StateSpace
    domain: tuple[tuple[float, float], ...]
    forward_map: Callable
    branches: tuple[Branch, ...]

    def in_domain(self, x, eps: float = EPS_DOM):
        return self.space.in_intervals(self.domain, x, eps)


def preimages(system: PartialMapSystem, ys: np.ndarray) -> np.ndarray:
    """All x in Delta with alpha(x) = y, for each y of the float64 array
    ``ys``: row i holds those of ys[i] in branch order, NaN-padded to
    ``len(system.branches)``; a row of NaN means ys[i] has no preimage.

    A branch inverse counts where it lies within 1e-9 of the branch's
    domain, in Delta, and maps back to within EPS_CHAIN of y (which drops
    clamped inverses of values above a critical value).  One within
    10 * EPS_CHAIN of an earlier preimage (two branches meeting at a
    critical value) merges with it into their midpoint, in its place.
    """
    space = system.space
    ys = space.normalize(ys)
    table = np.full((len(ys), len(system.branches)), np.nan)
    count = np.zeros(len(ys), dtype=int)
    with np.errstate(invalid="ignore"):  # NaN: no preimage on a branch
        for b, br in enumerate(system.branches):
            x = space.normalize(br.inverse(ys))
            lo, hi = br.domain
            ok = (lo - 1e-9 <= x) & (x <= hi + 1e-9) & system.in_domain(x)
            back = space.normalize(system.forward_map(x[ok]))
            ok[ok] = ~(space.metric(back, ys[ok]) > EPS_CHAIN)
            for k in range(b):
                merge = ok & (space.metric(x, table[:, k]) <= 10 * EPS_CHAIN)
                table[merge, k] = space.midpoint(x[merge], table[merge, k])
                ok &= ~merge
            table[ok, count[ok]] = x[ok]
            count += ok
    return table


def cluster_points(points: Iterable[float], space: StateSpace,
                   eps: float) -> list[float]:
    """Representatives of the points, ascending: a point starts a new
    cluster when it lies farther than eps from every representative below
    it.  Among those the nearest is the last one or, on the circle across
    0/1, the first, so one pass over the sorted points suffices (points
    on the circle must lie in [0, 1))."""
    reps: list[float] = []
    for p in sorted(points):
        if not reps or min(space.metric(p, reps[-1]),
                           space.metric(p, reps[0])) > eps:
            reps.append(p)
    return reps


# ---------------------------------------------------------------------------
# Stock systems


def make_rotation_system(tau: float) -> PartialMapSystem:
    """Rigid rotation of the circle by tau (a homeomorphism, Delta = S^1)."""
    tau = tau % 1.0

    def fwd(x):
        return (x + tau) % 1.0

    def inv(y):
        return (y - tau) % 1.0

    return PartialMapSystem(
        space=CIRCLE,
        domain=((0.0, 1.0),),
        forward_map=fwd,
        branches=(Branch((0.0, 1.0), inv),),
    )


def make_constant_system(p: float) -> PartialMapSystem:
    """The constant map of [0,1] onto the (non-isolated) point p.

    The preimage of p is all of [0,1]; the single branch returns the
    canonical representative p, which is the only point with an infinite
    backward orbit.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"constant map target p must lie in [0, 1], "
                         f"got p={p!r}")

    def fwd(x):
        # p at every finite x, in the shape of x; subtracting +0.0 keeps
        # the sign of p = -0.0
        return p - 0.0 * abs(x)

    def inv(y):
        return np.where(abs(y - p) <= EPS_CHAIN, p, np.nan)[()]

    return PartialMapSystem(
        space=UNIT_INTERVAL,
        domain=((0.0, 1.0),),
        forward_map=fwd,
        branches=(Branch((0.0, 1.0), inv),),
    )
