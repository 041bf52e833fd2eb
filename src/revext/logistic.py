"""The logistic family alpha_lambda(x) = 4*lambda*x*(1-x) on [0,1].

Covers the map itself and its preimage branches, the critical orbit,
solvers for the named parameter sequences (period-doubling lambda_n,
superstable s_n, the cascade limit, the band-merging mu_n, the
odd-period stability windows and their own doubling cascades), regime
classification, and the symbolic decomposition graphs of the limit set of
the associated reversible extension.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (EPS_DOM, Branch, OutsideDomain,
                   PartialMapSystem, UNIT_INTERVAL, find_root)
from .extension import ExtensionSpec

FEIGENBAUM_DELTA = 4.669201609  # used only to seed the Newton solves
NEWTON_CAP = 32
NEWTON_FLOOR = 1e-12  # rounding-floor steps are below 1e-14 up to n = 14
WINDOW_FLOOR = 0.915  # windows accumulate above the first band-merging point
TABLE_SUPERSTABLE = 5  # a CascadeTable holds s_0 .. s_5
TABLE_MU = 2           # and mu_0 .. mu_2
REGIME_N_MAX = 8       # classify_regime checks cascade stages n <= 8
N_RESOLVABLE = 13      # the last lambda_n that float64 resolves
MU_POINT_TOL = 1e-6    # and calls lambda a MuPoint within 1e-6 of mu_n


class WindowNotFound(RuntimeError):
    """The inverse-branch iteration for a window's superstable parameter
    did not settle on an orbit through 1/2."""


class BifurcationNotConverged(RuntimeError):
    """A Newton bifurcation solve failed: its step was still large at the
    iteration cap, lambda left its bracket, or the orbit it found has a
    smaller least period."""


class UnsupportedRegime(ValueError):
    """continuum_graph called on a regime without a decomposition theorem."""


# ---------------------------------------------------------------------------
# The map, its branches, and the associated extension spec


def eval_map(lam: float, x: float) -> float:
    """alpha_lambda(x) = 4*lambda*x*(1-x)."""
    if not (-EPS_DOM <= x <= 1.0 + EPS_DOM):
        raise OutsideDomain(f"{x!r} outside [0,1]")
    return 4.0 * lam * x * (1.0 - x)


def preimage_branches(lam: float, y: float) -> Optional[dict]:
    """Solve 4*lambda*x*(1-x) = y.

    Returns {"L": xl, "R": xr} below the critical value, {"C": 0.5} at it
    (within the domain tolerance), and None above it.
    """
    if y > lam + EPS_DOM:
        return None
    if abs(y - lam) <= EPS_DOM:
        return {"C": 0.5}
    s = math.sqrt(max(1.0 - y / lam, 0.0))
    return {"L": 0.5 * (1.0 - s), "R": 0.5 * (1.0 + s)}


def make_system(lam: float) -> PartialMapSystem:
    """The logistic map as a partial map system (Delta = [0,1])."""

    def fwd(x):
        return 4.0 * lam * x * (1.0 - x)

    def root(y):
        # sqrt(1 - y/lambda), NaN above the critical value
        s = np.sqrt(np.maximum(1.0 - y / lam, 0.0))
        return np.where(y > lam + EPS_DOM, np.nan, s)[()]

    return PartialMapSystem(
        space=UNIT_INTERVAL,
        domain=((0.0, 1.0),),
        forward_map=fwd,
        branches=(Branch((0.0, 0.5), lambda y: 0.5 * (1.0 - root(y))),
                  Branch((0.5, 1.0), lambda y: 0.5 * (1.0 + root(y)))),
    )


def extension_spec(lam: float) -> ExtensionSpec:
    """The canonical extension spec: Y = [lambda, 1] (empty for lambda=1,
    where the map is onto and the extension is the inverse limit)."""
    Y = () if lam >= 1.0 - EPS_DOM else ((lam, 1.0),)
    return ExtensionSpec(make_system(lam), Y)


# ---------------------------------------------------------------------------
# Orbits and periods


def _iterate(lam: float, x: float, n: int) -> float:
    l4 = 4.0 * lam  # exact, and the product associates left to right
    for _ in range(n):
        x = l4 * x * (1.0 - x)
    return x


def attracting_period(lam: float) -> Optional[int]:
    """Least period p <= 64 of the settled critical orbit, or None.

    Iterates the critical orbit 20,000 steps, then looks for the smallest
    p with |x_{k+p} - x_k| < 1e-7 along a window of 256 points.
    """
    x = _iterate(lam, 0.5, 20000)
    window = [x]
    l4 = 4.0 * lam
    for _ in range(256 + 64):
        x = l4 * x * (1.0 - x)
        window.append(x)
    for p in range(1, 64 + 1):
        if all(abs(window[k + p] - window[k]) < 1e-7
               for k in range(len(window) - p)):
            return p
    return None


def find_periodic_point(lam: float, p: int) -> float:
    """A fixed point of the p-fold map near the settled critical orbit.

    Bisection on g(x) = alpha^p(x) - x, bracketed along one walk xt + k*s,
    k = 0, 1, 2, 4, ..., clipped to [0, 1], from the orbit point xt after
    max(3000, 50 p) steps, with s = alpha^p(xt) - xt: an oscillatory
    approach brackets at k = 1, a monotone one a few steps later.  Raises
    BracketFailure when g keeps its sign up to the end of the interval.
    """
    xt = _iterate(lam, 0.5, max(3000, 50 * p))
    s = _iterate(lam, xt, p) - xt

    def walk():
        k = 0.0
        while True:
            t = min(max(xt + k * s, 0.0), 1.0)
            yield t
            if t in (0.0, 1.0):
                return
            k = max(2.0 * k, 1.0)

    return find_root(lambda t: _iterate(lam, t, p) - t, walk(), 1e-15)


def orbit_multiplier(lam: float, p: int, x: float) -> float:
    """Chain-rule multiplier of the period-p orbit through x, using the
    analytic derivative 4*lambda*(1-2x)."""
    m, l4 = 1.0, 4.0 * lam
    for _ in range(p):
        m *= l4 * (1.0 - 2.0 * x)
        x = l4 * x * (1.0 - x)
    return m


def attractor_points(lam: float) -> list[float]:
    """The attracting periodic orbit of lambda, polished by root-finding
    (empty when no attracting period is detected)."""
    p = attracting_period(lam)
    if p is None:
        return []
    pts = [find_periodic_point(lam, p)]
    while len(pts) < p:
        pts.append(4.0 * lam * pts[-1] * (1.0 - pts[-1]))
    return pts


# ---------------------------------------------------------------------------
# Parameter sequence solvers


def _orbit_pass(lam: float, y: float, y_l: float, p: int):
    """p steps of the orbit of y, whose lambda-derivative is y_l.  Returns
    alpha^p(y), its lambda-derivative, the multiplier m = d alpha^p / dy,
    and m's partials in y and lambda."""
    l4, l8 = 4.0 * lam, 8.0 * lam
    m, m_x, m_l = 1.0, 0.0, 0.0
    for _ in range(p):
        u = 1.0 - 2.0 * y
        fy = l4 * u
        m_x = fy * m_x - l8 * m * m
        m_l = fy * m_l + (4.0 * u - l8 * y_l) * m
        y_l = fy * y_l + 4.0 * y * (1.0 - y)
        m *= fy
        y = l4 * y * (1.0 - y)
    return y, y_l, m, m_x, m_l


def _newton(p: int, equations, x: float, lam: float,
            bracket: tuple[float, float]) -> tuple[float, float]:
    """Newton in (x, lambda) from the seed (x, lam) on two equations in a
    period-p orbit point x: ``equations(x, lam)`` returns their residuals
    r1, r2 and Jacobian rows (a, b), (c, d) in (x, lambda).

    Stops when the lambda step is at most four ulp, or when a step below
    NEWTON_FLOOR is no smaller than the one before (the rounding floor); a
    larger step that grows is part of the approach and does not stop it.
    Raises BifurcationNotConverged when neither has happened after
    NEWTON_CAP steps, when lambda leaves the open ``bracket``, or when the
    orbit's least period is a proper divisor of p.
    """
    lo, hi = bracket
    prev = math.inf
    for _ in range(NEWTON_CAP):
        r1, r2, a, b, c, d = equations(x, lam)
        det = a * d - b * c
        x -= (r1 * d - b * r2) / det
        step = (a * r2 - c * r1) / det
        lam -= step
        if not lo < lam < hi:
            raise BifurcationNotConverged(
                f"period-{p} Newton left ({lo!r}, {hi!r}) at {lam!r}")
        step = abs(step)
        if step <= 4.0 * math.ulp(lam) or prev <= step < NEWTON_FLOOR:
            break
        prev = step
    else:
        raise BifurcationNotConverged(
            f"period-{p} Newton step still {step:.3g} after {NEWTON_CAP} "
            f"steps")
    for d in range(1, p):
        if p % d == 0 and abs(_iterate(lam, x, d) - x) < 1e-9:
            raise BifurcationNotConverged(
                f"Newton found an orbit of period {d}, not {p}")
    return x, lam


def _bifurcation_point(p: int, c: float, x: float, lam: float,
                       bracket: tuple[float, float]) -> tuple[float, float]:
    """(x, lambda): the lambda in the open ``bracket`` where a period-p
    orbit has multiplier c (+1: saddle-node, -1: period doubling), and the
    point x of that orbit, by _newton on alpha^p(x) = x, (alpha^p)'(x) = c
    from the seed (x, lam)."""

    def equations(x, lam):
        y, y_l, m, m_x, m_l = _orbit_pass(lam, x, 0.0, p)
        return y - x, m - c, m - 1.0, y_l, m_x, m_l

    return _newton(p, equations, x, lam, bracket)


def _doubling_after(p: int, prev: float,
                    prev2: float) -> tuple[float, float]:
    """(x, lambda): the doubling of the period-p orbit above the doubling
    ``prev``, and a point x of that orbit.  Seeded at the Feigenbaum
    prediction prev + (prev - prev2)/delta, with x on the critical orbit
    settled halfway there, where it is close to superstable."""
    pred = (prev - prev2) / FEIGENBAUM_DELTA
    x = _iterate(prev + 0.5 * pred, 0.5, 4 * p)
    return _bifurcation_point(p, -1.0, x, prev + pred, (prev, 1.0))


@lru_cache(maxsize=None)
def _doubling_point(n: int) -> tuple[float, float]:
    """(x_n, lambda_n): lambda_n and the point x_n of the 2^(n-1)-orbit
    that the Newton solve of lambda_n converged to, so that the orbit's
    multiplier at lambda_n needs no second solve.  (0, 1/4) for n = 0,
    where the fixed point 0 has multiplier +1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0, 0.25
    # lambda_1 has no second predecessor: 0 predicts a gap of lambda_0/delta
    prev2 = period_doubling_parameter(n - 2) if n >= 2 else 0.0
    return _doubling_after(2 ** (n - 1), period_doubling_parameter(n - 1),
                           prev2)


def period_doubling_parameter(n: int) -> float:
    """lambda_n: the parameter where the attracting 2^(n-1)-orbit has
    multiplier -1 (its period-doubling bifurcation).  lambda_0 = 1/4."""
    return _doubling_point(n)[1]


@lru_cache(maxsize=None)
def superstable_parameter(n: int) -> float:
    """s_n: the parameter where the critical point is periodic with least
    period 2^n; bisection on alpha^(2^n)(1/2) - 1/2, which changes sign
    once on the cascade interval (lambda_n, lambda_{n+1}), until no float
    lies inside the bracket.  For n <= 8 it is within 4.1 ulp of mpmath
    (2.4 for n <= 5); _newton with multiplier 0 is no closer (8 ulp), and
    the itinerary iteration stops 8e-15 from s_7."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return find_root(lambda lam: _iterate(lam, 0.5, 2 ** n) - 0.5,
                     (period_doubling_parameter(n) + 1e-12,
                      period_doubling_parameter(n + 1) - 1e-12), 0.0)


@lru_cache(maxsize=None)
def feigenbaum_limit_estimate(k: int) -> float:
    """Aitken-accelerated estimate of the cascade limit from lambda_1..k."""
    if k < 3:
        raise ValueError("need at least three cascade parameters")
    x0, x1, x2 = (period_doubling_parameter(n) for n in (k - 2, k - 1, k))
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    if denom == 0.0:
        return x2
    return x2 - d2 * d2 / denom


def _merging_parameter(q: int, lam: float,
                       bracket: tuple[float, float]) -> float:
    """The lambda in the open ``bracket`` where alpha^(2q)(lambda), the
    2q-th image of the critical value, is the largest point x of a period-q
    orbit: _newton on alpha^q(x) = x and alpha^(2q)(lambda) = x from the
    seed (alpha^(2q)(lam), lam).  Raises BifurcationNotConverged when the
    solve does, or when x is not the largest point of its orbit."""

    def equations(x, lam):
        y, y_l, m, _, _ = _orbit_pass(lam, x, 0.0, q)
        z, z_l, _, _, _ = _orbit_pass(lam, lam, 1.0, 2 * q)
        return y - x, z - x, m - 1.0, y_l, -1.0, z_l

    x, lam = _newton(q, equations, _iterate(lam, lam, 2 * q), lam, bracket)
    if any(_iterate(lam, x, k) > x for k in range(1, q)):
        raise BifurcationNotConverged(
            f"Newton found a point below the top of its {q}-orbit")
    return lam


@lru_cache(maxsize=None)
def mu_parameter(n: int) -> float:
    """mu_n: mu_0 = 1; for n >= 1 the parameter where the 2^n-th image of
    the critical value hits the largest fixed point of the 2^(n-1)-fold
    map, the top of the 2^(n-1)-orbit born in the cascade (band-merging
    parameters, decreasing to the cascade limit).  _merging_parameter in
    (lambda_inf, mu_{n-1}), seeded at lambda_inf + (mu_{n-1} -
    lambda_inf)/delta; mu_1 matches its closed form to the ulp."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    lam_inf, prev = feigenbaum_limit_estimate(7), mu_parameter(n - 1)
    return _merging_parameter(
        2 ** (n - 1), lam_inf + (prev - lam_inf) / FEIGENBAUM_DELTA,
        (lam_inf, prev))


def _itinerary_parameter(word: str) -> float:
    """The lambda whose critical orbit visits the sides ``word`` (L or R
    of 1/2, one letter per point from the critical value alpha(1/2) =
    lambda on) and then returns to 1/2: superstable with period
    len(word) + 1.

    Iterates lambda <- x_1(lambda), where x_1 is 1/2 pulled back through
    the inverse branches the word names, last letter first.  The inverse
    branches contract, so no scan is needed (Metropolis-Stein-Stein).
    Raises WindowNotFound when the iteration does not settle on an orbit
    that follows the word and returns to 1/2.
    """
    lam, prev = 1.0, math.inf
    for _ in range(200):
        y = 0.5
        for side in reversed(word):
            r = math.sqrt(max(1.0 - y / lam, 0.0))
            y = 0.5 * (1.0 + r) if side == "R" else 0.5 * (1.0 - r)
        step = abs(y - lam)
        lam = y
        if step >= prev:
            break
        prev = step
    y, sides = 0.5, ""
    for _ in word:
        y = 4.0 * lam * y * (1.0 - y)
        sides += "R" if y > 0.5 else "L" if y < 0.5 else "C"
    if sides != word or abs(4.0 * lam * y * (1.0 - y) - 0.5) > 1e-9:
        raise WindowNotFound(f"no superstable parameter with itinerary "
                             f"{word}: the orbit at {lam!r} visits {sides}")
    return lam


@lru_cache(maxsize=None)
def window_boundaries(n: int) -> tuple[float, float]:
    """(eta_n, nu_n): the stability window of the period-(2n+1) orbit
    whose superstable parameter s_n has the critical itinerary
    R L R^(2n-2), the largest period-(2n+1) window below nu_{n-1}.

    eta_n, the onset, is the saddle-node root (multiplier +1) below s_n;
    nu_n, the top, is the period-doubling root (multiplier -1) above it.
    Both Newton solves start from the superstable point (1/2, s_n);
    eta_1 lands within one ulp of (1 + 2*sqrt(2))/4.  Raises
    WindowNotFound when the itinerary iteration for s_n fails, and
    BifurcationNotConverged when a Newton solve does.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = 2 * n + 1
    s = _itinerary_parameter("RL" + "R" * (2 * n - 2))
    return (_bifurcation_point(p, 1.0, 0.5, s, (WINDOW_FLOOR, s))[1],
            _bifurcation_point(p, -1.0, 0.5, s, (s, 1.0))[1])


@lru_cache(maxsize=None)
def window_cascade_parameter(n: int, m: int) -> float:
    """lambda_m^(n): the m-th doubling parameter inside the period-(2n+1)
    window.  m=0 is the onset eta_n and m=1 the first doubling nu_n, both
    from window_boundaries; for m >= 2 the Newton doubling solve of the
    2^(m-1)*(2n+1)-orbit, seeded like the main cascade from m-1 and m-2."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m <= 1:
        return window_boundaries(n)[m]
    return _doubling_after(2 ** (m - 1) * (2 * n + 1),
                           window_cascade_parameter(n, m - 1),
                           window_cascade_parameter(n, m - 2))[1]


# ---------------------------------------------------------------------------
# Cascade table and regime classification


@dataclass(frozen=True)
class CascadeTable:
    lambda_n: tuple[float, ...]           # lambda_1 .. lambda_{n_max}
    # a point x_n of the 2^(n-1)-orbit at each lambda_n, from its solve
    lambda_n_points: tuple[float, ...]
    superstable_n: tuple[float, ...]      # s_0 .. s_{TABLE_SUPERSTABLE}
    lambda_inf_estimate: float
    mu_n: tuple[float, ...]               # mu_0 .. mu_{TABLE_MU}
    windows: tuple[tuple[int, float, float], ...]
    window_cascades: dict

    @staticmethod
    def build(n_max: int = 8, n_windows: int = 0,
              cascade_m: int = 1) -> "CascadeTable":
        solves = [_doubling_point(n) for n in range(1, n_max + 1)]
        lam_n = tuple(lam for _, lam in solves)
        x_n = tuple(x for x, _ in solves)
        sups = tuple(superstable_parameter(n)
                     for n in range(0, TABLE_SUPERSTABLE + 1))
        lam_inf = feigenbaum_limit_estimate(min(max(n_max, 3),
                                                N_RESOLVABLE))
        mus = tuple(mu_parameter(n) for n in range(0, TABLE_MU + 1))
        wins = tuple((n, *window_boundaries(n))
                     for n in range(1, n_windows + 1))
        cascades = {n: [window_cascade_parameter(n, m)
                        for m in range(0, cascade_m + 1)]
                    for n in range(1, n_windows + 1)}
        return CascadeTable(lam_n, x_n, sups, lam_inf, mus, wins, cascades)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "n", "value", "residual"])
            for i, (lam, x) in enumerate(zip(self.lambda_n,
                                             self.lambda_n_points), start=1):
                res = orbit_multiplier(lam, 2 ** (i - 1), x) + 1
                w.writerow(["lambda_n", i, repr(lam), repr(abs(res))])
            for i, s in enumerate(self.superstable_n):
                res = _iterate(s, 0.5, 2 ** i) - 0.5
                w.writerow(["superstable_n", i, repr(s), repr(abs(res))])
            w.writerow(["lambda_inf", "", repr(self.lambda_inf_estimate), ""])
            for i, mu in enumerate(self.mu_n):
                if i == 0:
                    w.writerow(["mu_n", 0, repr(mu), "0.0"])
                else:
                    # alpha^(2q)(mu) is a fixed point of alpha^q
                    x = _iterate(mu, mu, 2 ** i)
                    res = _iterate(mu, x, 2 ** (i - 1)) - x
                    w.writerow(["mu_n", i, repr(mu), repr(abs(res))])


@dataclass(frozen=True)
class Regime:
    tag: str        # CascadeStage | FeigenbaumLimit | MuPoint | Window |
                    # WindowCascadeStage | Full | ChaoticUnclassified
    n: Optional[int] = None
    m: Optional[int] = None
    params: dict = field(default_factory=dict)
    irreducible_continuum: bool = False

    @staticmethod
    def cascade_stage(n: int) -> "Regime":
        return Regime("CascadeStage", n=n)

    @staticmethod
    def mu_point(n: int) -> "Regime":
        return Regime("MuPoint", n=n, irreducible_continuum=True)

    @staticmethod
    def window(n: int) -> "Regime":
        return Regime("Window", n=n, irreducible_continuum=True)

    @staticmethod
    def window_cascade_stage(n: int, m: int) -> "Regime":
        return Regime("WindowCascadeStage", n=n, m=m,
                      irreducible_continuum=True)


@lru_cache(maxsize=None)
def _default_table() -> CascadeTable:
    return CascadeTable.build()


def classify_regime(lam: float,
                    table: Optional[CascadeTable] = None) -> Regime:
    """Classify lambda against the parameter sequences of ``table``, by
    default ``CascadeTable.build()``, built once per process.

    Stability windows and their internal cascades are classified only
    against a table built with windows (the default has none); without
    one, a lambda inside a window beyond the cascade limit is
    ChaoticUnclassified."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must be in (0,1]")
    if lam >= 1.0 - EPS_DOM:
        return Regime("Full", irreducible_continuum=True,
                      params={"lambda": lam})
    table = table or _default_table()
    lam_inf = table.lambda_inf_estimate
    if abs(lam - lam_inf) <= 1e-3:
        return Regime("FeigenbaumLimit", params={"lambda_inf": lam_inf})
    if lam < lam_inf:
        if lam <= 0.25:
            return Regime("CascadeStage", n=-1, params={"interval": (0.0, 0.25)})
        lo = 0.25
        for n in range(0, REGIME_N_MAX + 1):
            hi = period_doubling_parameter(n + 1)
            if lo < lam <= hi:
                return Regime("CascadeStage", n=n,
                              params={"interval": (lo, hi)})
            lo = hi
        return Regime("FeigenbaumLimit", params={"lambda_inf": lam_inf})
    # beyond the cascade limit
    for n, mu in enumerate(table.mu_n[1:], start=1):
        if abs(lam - mu) < MU_POINT_TOL:
            return Regime("MuPoint", n=n, irreducible_continuum=True,
                          params={"mu": mu})
    for (n, eta, nu) in table.windows:
        cascade = table.window_cascades.get(n, [eta, nu])
        if eta < lam <= nu:
            return Regime("Window", n=n, irreducible_continuum=True,
                          params={"window": (eta, nu)})
        for m in range(1, len(cascade) - 1):
            if cascade[m] < lam <= cascade[m + 1]:
                return Regime("WindowCascadeStage", n=n, m=m,
                              irreducible_continuum=True,
                              params={"interval": (cascade[m],
                                                   cascade[m + 1])})
    return Regime("ChaoticUnclassified", irreducible_continuum=True,
                  params={"lambda": lam, "lambda_inf": lam_inf})


# ---------------------------------------------------------------------------
# Symbolic continuum decomposition graphs


@dataclass(frozen=True)
class ContinuumGraph:
    nodes: tuple[tuple[str, str], ...]           # (id, kind)
    closure: dict                                 # id -> tuple of ids
    intersections: tuple                          # (idA, idB, omega, period)
    permutation: dict                             # id -> id
    fixed_data: dict

    def to_json(self) -> dict:
        return {
            "nodes": [{"id": i, "kind": k} for i, k in self.nodes],
            "closure": {k: list(v) for k, v in self.closure.items()},
            "intersections": [
                {"a": a, "b": b, "omega": list(om), "period": per}
                for a, b, om, per in self.intersections],
            "permutation": dict(self.permutation),
            "fixed_data": {k: v for k, v in self.fixed_data.items()},
        }

    def to_dot(self) -> str:
        shape = {"RayR": "box", "Ray": "ellipse", "Arc": "diamond",
                 "BJK": "doublecircle", "C": "octagon"}
        lines = ["digraph continuum {"]
        for i, k in self.nodes:
            lines.append(f'  "{i}" [kind="{k}", shape={shape.get(k, "ellipse")}];')
        for a, b in self.permutation.items():
            if a != b:
                lines.append(f'  "{a}" -> "{b}" [label="perm"];')
        for a, b, om, per in self.intersections:
            lines.append(f'  "{a}" -> "{b}" [dir=none, style=dashed, '
                         f'label="w{om} p={per}"];')
        lines.append("}")
        return "\n".join(lines)


def _ray(k: int, i: int) -> str:
    return f"R[{k},{i}]"


def _cycle(ids: list[str]) -> dict:
    return {ids[j]: ids[(j + 1) % len(ids)] for j in range(len(ids))}


def _rays_and_leaves(levels: range, q: int, leaf: str, kind: str,
                     n_leaves: int, core: Optional[str] = None):
    """Nodes, closure, permutation and the ray intersections of a
    decomposition graph: the central ray R; the window's leaf continuum
    ``core``, if any, fixed, with every node but R in its closure; the
    rays R[k,i], i <= 2^k*q, for k in ``levels``, each level one cycle;
    and ``n_leaves`` leaves ``leaf``[i] of ``kind`` in one cycle."""
    rays = {k: [_ray(k, i) for i in range(1, 2 ** k * q + 1)]
            for k in levels}
    leaves = [f"{leaf}[{i}]" for i in range(1, n_leaves + 1)]
    nodes = ([("R", "RayR")] + ([(core, "C")] if core else [])
             + [(r, "Ray") for k in levels for r in rays[k]]
             + [(x, kind) for x in leaves])
    ids = [i for i, _ in nodes]
    closure = {"R": tuple(ids)}
    permutation = {"R": "R"}
    if core:
        closure[core] = tuple(ids[1:])
        permutation[core] = core
    inter = []
    for k in levels:
        step = 2 ** k * q
        for i in range(1, step + 1):
            closure[_ray(k, i)] = tuple(
                [_ray(k + j, i + l * step)
                 for j in range(levels.stop - k) for l in range(2 ** j)]
                + [f"{leaf}[{i + l * step}]"
                   for l in range(n_leaves // step)])
        permutation.update(_cycle(rays[k]))
        if k >= 1:
            half = step // 2
            inter += [(_ray(k, i), _ray(k, half + i), (half, i), half)
                      for i in range(1, half + 1)]
    closure.update((x, (x,)) for x in leaves)
    permutation.update(_cycle(leaves))
    return nodes, closure, permutation, inter


def _cascade_stage_graph(n: int) -> ContinuumGraph:
    nodes, closure, permutation, inter = _rays_and_leaves(
        range(1, n), 1, "I", "Arc", 2 ** (n - 1))
    fixed = {
        "arc_midpoint_period": 2 ** (n - 1),
        "arc_endpoint_period": 2 ** n,
        "omega_orbit_periods": [2 ** (k - 1) for k in range(1, n)],
    }
    return ContinuumGraph(tuple(nodes), closure, tuple(inter), permutation,
                          fixed)


def _mu_point_graph(n: int) -> ContinuumGraph:
    nodes, closure, permutation, inter = _rays_and_leaves(
        range(1, n), 1, "B", "BJK", 2 ** n)
    half = 2 ** (n - 1)
    inter += [(f"B[{i}]", f"B[{half + i}]", (half, i), half)
              for i in range(1, half + 1)]
    fixed = {
        "bjk_cycle_length": 2 ** n,
        "omega_orbit_periods": [2 ** (k - 1) for k in range(1, n + 1)],
    }
    return ContinuumGraph(tuple(nodes), closure, tuple(inter), permutation,
                          fixed)


def _window_cascade_graph(n: int, m: int) -> ContinuumGraph:
    q = 2 * n + 1
    c_id = f"C[{q}]"
    nodes, closure, permutation, inter = _rays_and_leaves(
        range(0, m), q, "I", "Arc", 2 ** (m - 1) * q if m >= 1 else 0, c_id)
    fixed = {"c_endpoint_period": 2 ** m * q}
    if m >= 1:
        inter = [(c_id, _ray(0, i), (q, i), q) for i in range(1, q + 1)] + inter
        fixed["arc_midpoint_period"] = 2 ** (m - 1) * q
        fixed["omega_orbit_periods"] = ([q] +
                                        [2 ** (k - 1) * q for k in range(1, m)])
    return ContinuumGraph(tuple(nodes), closure, tuple(inter), permutation,
                          fixed)


def continuum_graph(regime: Regime) -> ContinuumGraph:
    """The symbolic decomposition of the limit set M_inf for the regime.

    CascadeStage(n>=1): a central ray, 2^n - 2 further rays, and 2^(n-1)
    arcs permuted in a single cycle.  MuPoint(n>=1): the same rays with
    2^n bucket-handle continua in a single 2^n-cycle.  Window(n) /
    WindowCascadeStage(n,m): a ray, a period-(2n+1) leaf continuum, and
    (for m >= 1) its own doubling structure of rays and arcs.
    """
    if regime.tag == "CascadeStage" and (regime.n or 0) >= 1:
        return _cascade_stage_graph(regime.n)
    if regime.tag == "MuPoint" and (regime.n or 0) >= 1:
        return _mu_point_graph(regime.n)
    if regime.tag == "Window" and (regime.n or 0) >= 1:
        return _window_cascade_graph(regime.n, 0)
    if (regime.tag == "WindowCascadeStage" and (regime.n or 0) >= 1
            and (regime.m or 0) >= 0):
        return _window_cascade_graph(regime.n, regime.m or 0)
    raise UnsupportedRegime(f"no decomposition theorem for {regime.tag}"
                            f"(n={regime.n}, m={regime.m})")


# ---------------------------------------------------------------------------
# Bucket-handle (B-J-K) embedding for figures


def _cantor_endpoints(depth: int) -> list[float]:
    ends = [(0.0, 1.0)]
    for _ in range(depth):
        thirds = [(lo, hi, (hi - lo) / 3.0) for lo, hi in ends]
        ends = [iv for lo, hi, t in thirds
                for iv in ((lo, lo + t), (hi - t, hi))]
    return sorted({e for iv in ends for e in iv})


def _semicircle(cx: float, r: float, upper: bool):
    pts = []
    for j in range(24 + 1):
        th = math.pi * j / 24
        y = r * math.sin(th)
        pts.append((cx + r * math.cos(th), y if upper else -y))
    return pts


def bjk_embedding(resolution: int) -> list[list[tuple[float, float]]]:
    """Sampled arcs of the classical bucket-handle picture: points of the
    Cantor set joined by semicircles (upper arcs about 1/2, lower arcs
    about 5/(2*3^k)).  Returns a list of polylines."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    pts = _cantor_endpoints(resolution)
    arcs = []
    for c in pts:
        if c < 0.5 - 1e-12:
            arcs.append(_semicircle(0.5, 0.5 - c, upper=True))
    for level in range(1, resolution + 1):
        cx = 5.0 / (2.0 * 3 ** level)
        lo, hi = 2.0 / 3 ** level, 3.0 / 3 ** level
        for c in pts:
            if lo - 1e-12 <= c < cx - 1e-12:
                arcs.append(_semicircle(cx, cx - c, upper=False))
    return arcs
