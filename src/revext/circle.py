"""Orientation-preserving circle homeomorphisms via lifts: rotation
numbers, Poincare-style classification, the compression trichotomy, and
extension-space shapes.

A homeomorphism alpha of S^1 is represented by a lift: a strictly
increasing gamma on R with gamma(t+1) = gamma(t) + 1.  The lift determines
alpha and, through the sign of gamma(0), which kind of generating operator
(isometry / unitary / coisometry) the associated crossed-product-like
algebra has, hence the shape of the reversible extension.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import CIRCLE, BracketFailure, cluster_points, find_root

GRID_KNOTS = 2 ** 12
# rotation_number: first orbit length, and the agreement of two successive
# weighted averages that ends the doubling
WEIGHTED_START = 1000
WEIGHTED_AGREE = 1e-13
# _find_periodic_point: midpoints it may add to its grid of 513 points
REFINE_EVALS = 2048


class NotCoisometry(ValueError):
    """extension_shape requires gamma(0) > 0."""


class InvalidConjugacy(ValueError):
    """The sampled conjugacy does not intertwine the two maps."""


@dataclass(frozen=True)
class CircleHomeo:
    """A circle homeomorphism given by the restriction of its lift to [0,1].

    ``base`` maps [0,1] -> R with base(1) = base(0) + 1; the full lift is
    gamma(t) = base({t}) + floor(t).
    """

    base: Callable[[float], float]
    # (knots, values) when the lift is a grid_homeo
    grid: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, compare=False, repr=False)

    def lift(self, t: float) -> float:
        k = math.floor(t)
        return self.base(t - k) + k

    def lift_iter(self, t: float, n: int) -> float:
        # lift inlined: the same floats in the same order, no call per step
        base, floor = self.base, math.floor
        for _ in range(n):
            k = floor(t)
            t = base(t - k) + k
        return t

    def gamma0(self) -> float:
        return self.base(0.0)

    def inverse_lift(self, y: float) -> float:
        """Solve gamma(t) = y (gamma is strictly increasing).  gamma(t) - t
        is 1-periodic with values in [gamma(0) - 1, gamma(0) + 1], so the
        root lies within one unit of y - gamma(0)."""
        t0 = y - self.gamma0()
        return find_root(lambda t: self.lift(t) - y, (t0 - 1.0, t0 + 1.0),
                         1e-14)


def rigid_rotation(tau: float, offset: int = 0) -> CircleHomeo:
    """Lift t -> t + tau (+ integer offset; lifts are determined only up to
    integer translation)."""
    return CircleHomeo(lambda f: f + tau + offset)


def perturbed_rotation(tau: float, a: float, offset: int = 0) -> CircleHomeo:
    """Lift t -> t + tau + a*sin(2*pi*t)/(2*pi); a diffeomorphism for |a|<1."""
    if not abs(a) < 1.0:  # NaN too
        raise ValueError(f"the perturbation a must satisfy |a| < 1 for "
                         f"monotonicity, got a={a!r}")
    twopi = 2.0 * math.pi
    return CircleHomeo(
        lambda f: f + tau + a * math.sin(twopi * f) / twopi + offset)


def grid_homeo(values: Sequence[float]) -> CircleHomeo:
    """Monotone piecewise-linear lift through values at knots j/K, j=0..K
    (values[-1] must equal values[0] + 1); equal consecutive values make a
    flat piece, where the map is not injective.  ``base`` gives the floats
    of np.interp on the knots, with no numpy call per step."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2 or abs((v[-1] - v[0]) - 1.0) > 1e-9:
        raise ValueError("grid lift must satisfy gamma(1) = gamma(0) + 1")
    if not np.all(np.diff(v) >= 0):  # NaN too
        raise ValueError("grid lift must be monotone")
    knots = np.linspace(0.0, 1.0, len(v))
    xs, ys = knots.tolist(), v.tolist()
    slopes = ((v[1:] - v[:-1]) / (knots[1:] - knots[:-1])).tolist()

    def base(f: float) -> float:
        if not 0.0 < f < 1.0:
            return ys[-1] if f >= 1.0 else ys[0]
        j = bisect_right(xs, f) - 1  # xs[j] <= f < xs[j + 1]
        x = xs[j]
        return ys[j] if f == x else slopes[j] * (f - x) + ys[j]

    return CircleHomeo(base, grid=(knots, v))


def sampled_conjugate(h: CircleHomeo, phi: CircleHomeo) -> CircleHomeo:
    """The conjugated homeomorphism phi o h o phi^-1 as a grid lift on
    GRID_KNOTS cells (sampling once keeps long-orbit computations cheap)."""
    ts = np.linspace(0.0, 1.0, GRID_KNOTS + 1).tolist()
    vals = np.asarray([phi.lift(h.lift(phi.inverse_lift(t))) for t in ts])
    # re-anchor so the base is exactly periodic at the endpoints
    vals[-1] = vals[0] + 1.0
    vals = np.maximum.accumulate(vals)  # clip tiny monotonicity violations
    return grid_homeo(vals)


# ---------------------------------------------------------------------------
# Rotation number and compression trichotomy


class RotationNumber(float):
    """A rotation number in [0, 1) with the orbit that produced it.

    The lift's rotation number is the value plus the integer ``turns``.
    ``steps`` is the orbit length.  ``interval`` holds tau for certain (up
    to the rounding of the orbit), less ``turns`` like the value: the
    displacement sum S = gamma^n(seed) - seed satisfies
    |S - n tau| < 1, so tau lies in ((S - 1)/n, (S + 1)/n).  ``weighted``
    says whether the value is the converged weighted Birkhoff average
    rather than S/n.
    """

    def __new__(cls, value: float, turns: int, steps: int,
                interval: tuple[float, float], weighted: bool):
        self = super().__new__(cls, value)
        self.turns, self.steps = turns, steps
        self.interval, self.weighted = interval, weighted
        return self


def rotation_number(h: CircleHomeo, n_iter: int = 100_000,
                    seed: float = 0.0) -> RotationNumber:
    """Rotation number of h from the orbit of ``seed``, at most ``n_iter``
    steps long.

    The estimate is the weighted Birkhoff average of the displacement
    gamma(t) - t along the orbit, t kept in [0, 1), under the weight
    exp(-1/(s(1-s))) at s = (j+1)/(n+1).  For smooth maps conjugate to a
    rotation it converges faster than any power of n (Das, Sander, Saiki &
    Yorke, Nonlinearity 30, 2017).  The orbit starts at 1000 steps and
    doubles until two successive averages agree to 1e-13, or reaches
    ``n_iter``.  The weighted value is returned only when it converged
    inside the certified interval of the same orbit; otherwise the plain
    S/n is, with error below 1/n.
    """
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    disp = np.empty(0)
    base, floor = h.base, math.floor
    t = seed - floor(seed)
    n, avg, converged = 0, None, False
    while not converged and n < n_iter:
        end = min(max(2 * n, WEIGHTED_START), n_iter)
        # the buffer grows with the orbit: n_iter is a cap, not a size
        disp = np.concatenate([disp, np.empty(end - n)])
        out = memoryview(disp)  # per-element stores cost less than on disp
        for j in range(n, end):
            y = base(t)
            out[j] = y - t
            t = y - floor(y)
        n = end
        s = np.arange(1, n + 1) / (n + 1)
        w = np.exp(-1.0 / (s * (1.0 - s)))
        prev, avg = avg, float(w @ disp[:n]) / float(w.sum())
        converged = prev is not None and abs(avg - prev) <= WEIGHTED_AGREE
    total = math.fsum(disp[:n].tolist())
    lo, hi = (total - 1.0) / n, (total + 1.0) / n
    weighted = converged and lo < avg < hi
    value = avg if weighted else total / n
    k = floor(value)
    value -= k
    if value >= 1.0:  # value was a tiny negative number
        value, k = 0.0, k + 1
    return RotationNumber(value, k, n, (lo - k, hi - k), weighted)


@dataclass(frozen=True)
class CompressionCase:
    case: str          # "Coisometry" | "Unitary" | "Isometry"
    gamma0: float
    cosurjectivity_arc: Optional[tuple[float, float]]


def compression_case(h: CircleHomeo) -> CompressionCase:
    """Trichotomy by the sign of gamma(0): positive means the generating
    operator is a non-invertible coisometry with cosurjectivity arc
    [0, gamma(0)], zero means unitary, negative a non-invertible isometry
    with arc [0, gamma^-1(0)]."""
    g0 = h.gamma0()
    if g0 > 0.0:
        return CompressionCase("Coisometry", g0, (0.0, g0))
    if g0 < 0.0:
        return CompressionCase("Isometry", g0, (0.0, h.inverse_lift(0.0)))
    return CompressionCase("Unitary", g0, None)


@dataclass(frozen=True)
class CircleExtensionShape:
    kind: str                                   # "FullCylinder" | "ArcLadder"
    arcs: tuple[tuple[int, float, float], ...]  # (N, origin, end)
    limit_set: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "space": "circle",
            "kind": self.kind,
            "arcs": [{"N": n, "origin": o, "end": e}
                     for n, o, e in self.arcs],
            "limit_set": list(self.limit_set),
        }


def extension_shape(h: CircleHomeo, N_max: int = 50,
                    limit_iters: int = 2000,
                    cluster_eps: float = 1e-6) -> CircleExtensionShape:
    """Shape of the reversible extension in the coisometry case.

    gamma(0) >= 1 gives the full cylinder over the circle; gamma(0) in
    (0,1) gives the ladder of arcs [alpha^N(1), alpha^{N+1}(1)] traced by
    the orbit of the point 1 (t = 0).  The limit set samples the
    accumulation points of the arc endpoints."""
    g0 = h.gamma0()
    if g0 <= 0.0:
        raise NotCoisometry("extension_shape requires gamma(0) > 0")
    if g0 >= 1.0:
        return CircleExtensionShape("FullCylinder", (), ())
    ends = [0.0]
    for _ in range(max(N_max + 1, limit_iters)):
        ends.append(h.lift(ends[-1]))
    frac = CIRCLE.normalize
    arcs = tuple((N, frac(ends[N]), frac(ends[N + 1]))
                 for N in range(N_max + 1))
    reps = cluster_points(map(frac, ends[limit_iters // 2:]), CIRCLE,
                          cluster_eps)
    return CircleExtensionShape("ArcLadder", arcs, tuple(reps))


# ---------------------------------------------------------------------------
# Classification


def _convergents(x: float, max_den: int):
    """Continued-fraction convergents m/n of x with n <= max_den."""
    out = []
    a = math.floor(x)
    h0, k0, h1, k1 = 1, 0, a, 1
    frac = x - a
    out.append((h1, k1))
    for _ in range(64):
        if frac < 1e-12:
            break
        x = 1.0 / frac
        a = math.floor(x)
        frac = x - a
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        if k1 > max_den:
            break
        out.append((h1, k1))
    return out


def _find_periodic_point(h: CircleHomeo, n: int,
                         m: int) -> Optional[float]:
    """A root of F(t) = gamma^n(t) - t - m in [0,1), or None.  Residuals
    below 1e-9 count as zero: for a rational rigid rotation the residual
    is rounding noise that can keep one sign on the whole circle.

    The first sign change along a grid of 513 points is bisected.  With
    none, the lift being nondecreasing gives F a slope >= -1, so on a cell
    [a, a + w] F >= F(a) - w and F <= F(a + w) + w: where F > 0 at the
    ends, a cell with F(a) > w holds no root, and where F < 0, one with
    F(a + w) < -w.  The other cells are halved, the one F may reach
    farthest past zero first, until a midpoint shows a sign change, every
    cell is excluded (None), or REFINE_EVALS midpoints gave neither (None,
    unproven: an irrational rotation number close to m/n keeps |F| small
    on a wide set of cells)."""
    seen = []  # (t, F(t)) in order of evaluation

    def F(t: float) -> float:
        r = h.lift_iter(t, n) - t - m
        r = 0.0 if abs(r) < 1e-9 else r
        seen.append((t, r))
        return r

    def push(a, fa, b, fb):
        # how far F stays from zero on [a, b] at least
        gap = (fa if fa > 0.0 else -fb) - (b - a)
        if gap <= 0.0 and a < 0.5 * (a + b) < b:
            heapq.heappush(cells, (gap, a, fa, b, fb))

    try:
        return CIRCLE.normalize(find_root(F, (j / 512 for j in range(513)),
                                          1e-9))
    except BracketFailure:
        pass
    cells = []
    for (a, fa), (b, fb) in zip(seen, seen[1:]):  # F has one sign on them
        push(a, fa, b, fb)
    for _ in range(REFINE_EVALS):
        if not cells:
            break
        _, a, fa, b, fb = heapq.heappop(cells)
        mid = 0.5 * (a + b)
        fm = F(mid)
        if fm == 0.0:
            return CIRCLE.normalize(mid)
        if (fm < 0.0) != (fa < 0.0):
            return CIRCLE.normalize(find_root(F, (a, mid), 1e-9))
        push(a, fa, mid, fm)
        push(mid, fm, b, fb)
    return None


@dataclass(frozen=True)
class RotationClassification:
    tau: float
    kind: str   # "RationalPeriodic" | "IrrationalTransitive" |
                # "IrrationalNonTransitive"
    m: Optional[int] = None
    n: Optional[int] = None
    evidence: dict = field(default_factory=dict)


def classify(h: CircleHomeo, n_iter: int = 100_000,
             max_den: int = 64) -> RotationClassification:
    """Rational rotation number (confirmed by a genuine periodic point)
    versus irrational: no periodic orbit of period <= max_den was found.

    The rational candidates are the convergents m/n (n <= max_den) of the
    estimate that lie in its certified interval or, when the weighted
    average converged, within 1e-12 of it.  ``evidence`` records the orbit
    behind the estimate: ``steps``, ``interval`` and ``weighted``.

    Irrational transitivity follows from the lift (Denjoy): with log Df of
    bounded variation, as for rigid and perturbed rotations, strictly
    increasing grid lifts and, by assumption, a hand-built CircleHomeo,
    the map is conjugate to the rotation.  A grid lift with a flat piece
    is not transitive: a dense orbit would enter the open plateau twice,
    so its image point would be periodic."""
    tau = rotation_number(h, n_iter)
    orbit = {"steps": tau.steps, "interval": tau.interval,
             "weighted": tau.weighted}
    lo, hi = ((tau - 1e-12, tau + 1e-12) if tau.weighted
              else tau.interval)
    for m, n in _convergents(tau, max_den):
        if lo <= m / n <= hi:
            # the lift turns m + n * turns times in n steps
            pt = _find_periodic_point(h, n, m + n * tau.turns)
            if pt is not None:
                # convergents are in lowest terms
                return RotationClassification(
                    float(tau), "RationalPeriodic", m=m, n=n,
                    evidence={"periodic_point": pt, **orbit})
    flat = h.grid is not None and not np.all(np.diff(h.grid[1]) > 0.0)
    kind = "IrrationalNonTransitive" if flat else "IrrationalTransitive"
    return RotationClassification(float(tau), kind, evidence=orbit)


@dataclass(frozen=True)
class RotationInvariantReport:
    difference: float
    bound: float
    conjugacy_residual: Optional[float]

    def ok(self) -> bool:
        return self.difference <= self.bound


def check_rotation_invariant(h1: CircleHomeo, h2: CircleHomeo,
                             conj: Optional[CircleHomeo] = None,
                             n_iter: int = 100_000) -> RotationInvariantReport:
    """Compare rotation numbers of two homeomorphisms; when a sampled
    conjugacy phi with phi o alpha = beta o phi is supplied, its
    intertwining residual must be at most 1e-4, and the rotation numbers
    must then agree within the estimator bound 2/n_iter."""
    residual = None
    if conj is not None:
        residual = 0.0
        for j in range(257):
            d = abs(conj.lift(h1.lift(j / 256)) - h2.lift(conj.lift(j / 256)))
            d -= math.floor(d)
            residual = max(residual, min(d, 1.0 - d))
        if residual > 1e-4:
            raise InvalidConjugacy(f"intertwining residual {residual} > "
                                   f"0.0001")
    t1 = rotation_number(h1, n_iter)
    t2 = rotation_number(h2, n_iter)
    d = abs(t1 - t2)
    d = min(d, 1.0 - d)
    return RotationInvariantReport(d, 2.0 / n_iter, residual)
