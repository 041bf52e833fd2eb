"""State spaces, partial maps with enumerable preimage branches, orbits,
omega-limit sets, and semiconjugacy checking.

A partial dynamical system here is a compact state space M (the unit
interval or the circle), a domain Delta given as a finite union of closed
intervals, a forward map alpha defined on Delta, and an explicit list of
preimage branches so that backward orbits can be enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

# Residual tolerance for chain/branch arithmetic (backward iteration with
# exact branch inverses stays near machine precision).
EPS_CHAIN = 1e-9
# Tolerance for domain-boundary membership.
EPS_DOM = 1e-12


class OutsideDomain(ValueError):
    """Raised when a map is evaluated outside its domain Delta."""


class OrbitEscaped(RuntimeError):
    """Raised when an orbit leaves the domain before the requested length."""


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
    """The unit interval [0,1] or the circle R/Z with its induced metric."""

    kind: str  # "interval" | "circle"

    def normalize(self, x: float) -> float:
        if self.kind == "circle":
            x = x % 1.0
            if x >= 1.0:  # guard against x % 1.0 == 1.0 from rounding
                x -= 1.0
            return x
        return float(x)

    def metric(self, x: float, y: float) -> float:
        if self.kind == "circle":
            d = abs((x % 1.0) - (y % 1.0))
            return min(d, 1.0 - d)
        return abs(x - y)

    def midpoint(self, x: float, y: float) -> float:
        """The midpoint of x and y; on the circle, of the shorter arc."""
        if self.kind == "circle":
            return self.normalize(x + 0.5 * ((y - x + 0.5) % 1.0 - 0.5))
        return 0.5 * (x + y)

    def in_intervals(self, intervals: Sequence[tuple[float, float]],
                     x: float, eps: float) -> bool:
        """Whether x lies in the union of closed intervals; on the circle
        an interval (lo, hi) with hi < lo wraps through 0."""
        x = self.normalize(x)
        for lo, hi in intervals:
            if lo - eps <= x <= hi + eps:
                return True
            if self.kind == "circle" and hi < lo and (x >= lo - eps
                                                      or x <= hi + eps):
                return True
        return False


UNIT_INTERVAL = StateSpace("interval")
CIRCLE = StateSpace("circle")


@dataclass(frozen=True)
class Branch:
    """One monotone preimage branch of the forward map.

    ``inverse`` maps a point of the image back into ``domain``; it may
    return None where the branch has no preimage.
    """

    label: str
    domain: tuple[float, float]
    inverse: Callable[[float], Optional[float]]

    def contains(self, x: float, eps: float = EPS_DOM) -> bool:
        lo, hi = self.domain
        return lo - eps <= x <= hi + eps


@dataclass(frozen=True)
class PartialMapSystem:
    """(M, Delta, alpha) with enumerable preimage branches."""

    space: StateSpace
    domain: tuple[tuple[float, float], ...]
    forward_map: Callable[[float], float]
    branches: tuple[Branch, ...]
    name: str = "system"
    # optional closed form of ``preimages`` on a float64 array: row i is
    # ExtensionSpec.ordered_preimages(y[i]) NaN-padded to len(branches)
    preimage_table: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def in_domain(self, x: float, eps: float = EPS_DOM) -> bool:
        return self.space.in_intervals(self.domain, x, eps)

    def forward(self, x: float) -> float:
        return apply(self, x)


def apply(system: PartialMapSystem, x: float) -> float:
    """Evaluate alpha(x).  Raises OutsideDomain when x is not in Delta."""
    x = system.space.normalize(x)
    if not system.in_domain(x):
        raise OutsideDomain(f"{x!r} is not in the domain of {system.name}")
    return system.space.normalize(system.forward_map(x))


def preimages(system: PartialMapSystem, y: float) -> list[tuple[str, float]]:
    """All x in Delta with alpha(x) = y, one per branch, labelled.

    Two branches meeting at a critical value (coincident preimages) are
    merged into a single entry with label "C".  The empty list means y has
    no preimage.  An array y gives the system's ``preimage_table`` of it.
    """
    if isinstance(y, np.ndarray):
        return system.preimage_table(y)
    y = system.space.normalize(y)
    found: list[tuple[str, float]] = []
    for br in system.branches:
        x = br.inverse(y)
        if x is None:
            continue
        x = system.space.normalize(x)
        if not br.contains(x, 1e-9):
            continue
        if not system.in_domain(x):
            continue
        # x is normalized and in Delta, so this is apply(system, x); the
        # check drops clamped inverses of values above the critical value
        back = system.space.normalize(system.forward_map(x))
        if system.space.metric(back, y) > EPS_CHAIN:
            continue
        found.append((br.label, x))
    # merge coincident double points (critical values)
    merged: list[tuple[str, float]] = []
    for label, x in found:
        dup = False
        for k, (mlabel, mx) in enumerate(merged):
            if system.space.metric(x, mx) <= 10 * EPS_CHAIN:
                merged[k] = ("C", system.space.midpoint(x, mx))
                dup = True
                break
        if not dup:
            merged.append((label, x))
    return merged


@dataclass(frozen=True)
class OrbitRecord:
    points: tuple[float, ...]
    escaped: bool


def orbit(system: PartialMapSystem, x: float, n: int) -> OrbitRecord:
    """Forward orbit x, alpha(x), ..., up to n steps; records escape."""
    pts = [system.space.normalize(x)]
    escaped = False
    for _ in range(n):
        if not system.in_domain(pts[-1]):
            escaped = True
            break
        pts.append(apply(system, pts[-1]))
    return OrbitRecord(tuple(pts), escaped)


def omega_limit(system: PartialMapSystem, x: float, transient: int = 2000,
                iters: int = 512, cluster_eps: float = 1e-6) -> list[float]:
    """Cluster representatives of the tail of the forward orbit of x."""
    rec = orbit(system, x, transient + iters)
    if rec.escaped:
        raise OrbitEscaped(f"orbit of {x} left the domain after "
                           f"{len(rec.points) - 1} steps")
    return cluster_points(rec.points[transient:], system.space, cluster_eps)


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


@dataclass(frozen=True)
class FactorMapSample:
    """A sampled factor map Psi together with the points it was sampled on."""

    psi: Callable[[object], float]
    points: tuple
    tolerance: float = 10 * EPS_CHAIN


@dataclass(frozen=True)
class SemiconjugacyReport:
    max_residual: float
    domain_violations: int
    checked: int

    def ok(self, tol: float) -> bool:
        return self.max_residual <= tol and self.domain_violations == 0


def check_semiconjugacy(sample: FactorMapSample, upstairs,
                        downstairs: PartialMapSystem) -> SemiconjugacyReport:
    """Check alpha(Psi(x)) = Psi(beta(x)) over the sampled points.

    ``upstairs`` only needs ``in_domain`` and ``forward``; in particular a
    chain-extension system qualifies.  Residuals are measured downstairs.
    Domain correspondence (x in Delta_beta iff Psi(x) in Delta_alpha) is
    counted, not thrown.
    """
    worst = 0.0
    violations = 0
    checked = 0
    for x in sample.points:
        up_in = upstairs.in_domain(x)
        down_in = downstairs.in_domain(sample.psi(x))
        if up_in != down_in:
            violations += 1
        if not up_in:
            continue
        lhs = apply(downstairs, sample.psi(x))
        rhs = sample.psi(upstairs.forward(x))
        worst = max(worst, downstairs.space.metric(lhs, rhs))
        checked += 1
    return SemiconjugacyReport(worst, violations, checked)


# ---------------------------------------------------------------------------
# Stock systems


def make_rotation_system(tau: float) -> PartialMapSystem:
    """Rigid rotation of the circle by tau (a homeomorphism, Delta = S^1)."""
    tau = tau % 1.0

    def fwd(x: float) -> float:
        return (x + tau) % 1.0

    def inv(y: float) -> Optional[float]:
        return (y - tau) % 1.0

    return PartialMapSystem(
        space=CIRCLE,
        domain=((0.0, 1.0),),
        forward_map=fwd,
        branches=(Branch("only", (0.0, 1.0), inv),),
        name=f"rotation(tau={tau})",
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

    def fwd(x: float) -> float:
        return p

    def inv(y: float) -> Optional[float]:
        if abs(y - p) <= EPS_CHAIN:
            return p
        return None

    return PartialMapSystem(
        space=UNIT_INTERVAL,
        domain=((0.0, 1.0),),
        forward_map=fwd,
        branches=(Branch("only", (0.0, 1.0), inv),),
        name=f"constant(p={p})",
    )
