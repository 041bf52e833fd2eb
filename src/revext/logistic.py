"""The logistic family alpha_lambda(x) = 4*lambda*x*(1-x) on [0,1].

Covers the map itself and its preimage branches, the interval lift, the
critical orbit, solvers for the named parameter sequences (period-doubling
lambda_n, superstable s_n, the cascade limit, the band-merging mu_n, the
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

from .core import (EPS_CHAIN, EPS_DOM, Branch, BracketFailure, OutsideDomain,
                   PartialMapSystem, UNIT_INTERVAL, find_root)
from .extension import ExtensionSpec

FEIGENBAUM_DELTA = 4.669201609  # used only to predict bracket sizes


class WindowNotFound(RuntimeError):
    """The scan resolution missed the requested stability window."""


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

    def fwd(x: float) -> float:
        return 4.0 * lam * x * (1.0 - x)

    def inv_l(y: float) -> Optional[float]:
        if y > lam + EPS_DOM:
            return None
        return 0.5 * (1.0 - math.sqrt(max(1.0 - y / lam, 0.0)))

    def inv_r(y: float) -> Optional[float]:
        if y > lam + EPS_DOM:
            return None
        return 0.5 * (1.0 + math.sqrt(max(1.0 - y / lam, 0.0)))

    return PartialMapSystem(
        space=UNIT_INTERVAL,
        domain=((0.0, 1.0),),
        forward_map=fwd,
        branches=(Branch("L", (0.0, 0.5), inv_l),
                  Branch("R", (0.5, 1.0), inv_r)),
        name=f"logistic(lam={lam})",
    )


def extension_spec(lam: float) -> ExtensionSpec:
    """The canonical extension spec: Y = [lambda, 1] (empty for lambda=1,
    where the map is onto and the extension is the inverse limit)."""
    Y = () if lam >= 1.0 - EPS_DOM else ((lam, 1.0),)
    return ExtensionSpec(make_system(lam), Y)


# ---------------------------------------------------------------------------
# Lift and tent parametrizations


def lift_gamma(lam: float, t: float) -> float:
    """The injective interval lift of the logistic map: on [k, k+1/2] it is
    4*lambda*{t}*(1-{t}) + 2k, on [k+1/2, k+1) the same plus one more."""
    k = math.floor(t)
    f = t - k
    base = 4.0 * lam * f * (1.0 - f)
    if f <= 0.5:
        return base + 2 * k
    return base + 2 * k + 1


def tal_tent_parametrized(t: float) -> float:
    """Extension dynamics in the tent-map parametrization: doubling."""
    return 2.0 * t


def tal1_parametrized(t: float) -> float:
    """Extension dynamics of the full logistic map in its own
    parametrization: piecewise alpha_1 of the fractional part."""
    if t < 0:
        raise ValueError("parameter must be nonnegative")
    k = math.floor(t)
    f = t - k
    a = 4.0 * f * (1.0 - f)
    if f < 0.5:
        return 2 * k + a
    return 2 * (k + 1) - a


# ---------------------------------------------------------------------------
# Orbits and periods


def _iterate(lam: float, x: float, n: int) -> float:
    for _ in range(n):
        x = 4.0 * lam * x * (1.0 - x)
    return x


def attracting_period(lam: float, max_period: int = 64, burn_in: int = 20000,
                      iters: int = 256, tol: float = 1e-7) -> Optional[int]:
    """Least period of the settled critical orbit, or None.

    Iterates the critical orbit ``burn_in`` steps, then looks for the
    smallest p with |x_{k+p} - x_k| < tol along a window of ``iters``
    points.
    """
    x = _iterate(lam, 0.5, burn_in)
    window = [x]
    for _ in range(iters + max_period):
        x = 4.0 * lam * x * (1.0 - x)
        window.append(x)
    for p in range(1, max_period + 1):
        if all(abs(window[k + p] - window[k]) < tol
               for k in range(len(window) - p)):
            return p
    return None


def find_periodic_point(lam: float, p: int, settle: int = 3000) -> float:
    """A fixed point of the p-fold map near the settled critical orbit.

    Located by bisection on g(x) = alpha^p(x) - x: after burn-in the orbit
    and its p-step image straddle the periodic point (oscillatory approach
    below a doubling, period-2p splitting above it); when they do not, a
    local scan around the settled point brackets the nearest root.
    """
    settle = max(settle, 50 * p)
    xt = _iterate(lam, 0.5, settle)

    def g(t: float) -> float:
        return _iterate(lam, t, p) - t

    try:
        return find_root(g, (xt, _iterate(lam, xt, p)), 1e-15)
    except BracketFailure:
        return find_root(g, _scan_for_root(g, xt), 1e-15)


def _scan_for_root(g, center: float):
    """Bracket the root of g nearest to ``center`` by expanding scans."""
    for half_width in (0.005, 0.05, 0.25):
        lo = max(0.0, center - half_width)
        hi = min(1.0, center + half_width)
        ts = [lo + (hi - lo) * j / 800 for j in range(801)]
        best = None
        prev, gprev = ts[0], g(ts[0])
        for t in ts[1:]:
            gt = g(t)
            if gprev * gt <= 0.0:
                mid = 0.5 * (prev + t)
                d = abs(mid - center)
                if best is None or d < best[0]:
                    best = (d, prev, t)
            prev, gprev = t, gt
        if best is not None:
            return best[1], best[2]
    raise BracketFailure("no sign change found near the settled orbit")


def orbit_multiplier(lam: float, p: int, x: float) -> float:
    """Chain-rule multiplier of the period-p orbit through x, using the
    analytic derivative 4*lambda*(1-2x)."""
    m = 1.0
    for _ in range(p):
        m *= 4.0 * lam * (1.0 - 2.0 * x)
        x = 4.0 * lam * x * (1.0 - x)
    return m


def attractor_points(lam: float, max_period: int = 64) -> list[float]:
    """The attracting periodic orbit of lambda, polished by root-finding
    (empty when no attracting period is detected)."""
    p = attracting_period(lam, max_period=max_period)
    if p is None:
        return []
    x = find_periodic_point(lam, p)
    pts = []
    for _ in range(p):
        pts.append(x)
        x = 4.0 * lam * x * (1.0 - x)
    return pts


# ---------------------------------------------------------------------------
# Parameter sequence solvers


def _multiplier_plus_one(lam: float, p: int) -> float:
    return orbit_multiplier(lam, p, find_periodic_point(lam, p)) + 1.0


@lru_cache(maxsize=None)
def period_doubling_parameter(n: int) -> float:
    """lambda_n: the parameter where the attracting 2^(n-1)-orbit has
    multiplier -1 (its period-doubling bifurcation).  lambda_0 = 1/4."""
    if n == 0:
        return 0.25
    if n < 0:
        raise ValueError("n must be >= 0")
    p = 2 ** (n - 1)
    if n == 1:
        return find_root(lambda lam: _multiplier_plus_one(lam, p),
                         (0.70, 0.80), 1e-12)
    return _doubling_parameter(p, period_doubling_parameter(n - 1),
                               period_doubling_parameter(n - 2), 1e-12)


def _doubling_parameter(p: int, prev: float, prev2: float,
                        xtol: float) -> float:
    """The parameter above ``prev`` where the period-p orbit has multiplier
    -1.  The bracket search starts a quarter of the Feigenbaum-predicted gap
    above ``prev``; it halves toward ``prev`` while that start is already
    past the root, and otherwise steps out by 0.8 predicted gaps."""
    # cached: points() and find_root both evaluate h at the start
    h = lru_cache(maxsize=None)(lambda lam: _multiplier_plus_one(lam, p))
    pred = (prev - prev2) / FEIGENBAUM_DELTA

    def points():
        start = prev + 0.25 * pred
        yield start
        if h(start) <= 0.0:
            yield from (prev + 0.25 * pred / 2 ** k for k in range(1, 7))
        else:
            yield from (min(start + 0.8 * pred * k, 1.0 - 1e-9)
                        for k in range(1, 13))

    return find_root(h, points(), xtol)


@lru_cache(maxsize=None)
def superstable_parameter(n: int) -> float:
    """s_n: the parameter where the critical point is periodic with least
    period 2^n; bisection on alpha^(2^n)(1/2) - 1/2 inside the cascade
    interval (lambda_n, lambda_{n+1})."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = 2 ** n
    lo = period_doubling_parameter(n) + 1e-12
    hi = period_doubling_parameter(n + 1) - 1e-12

    def g(lam: float) -> float:
        return _iterate(lam, 0.5, q) - 0.5

    steps = 256
    return find_root(g, (lo + (hi - lo) * j / steps for j in range(steps + 1)),
                     1e-15)


@lru_cache(maxsize=None)
def feigenbaum_limit_estimate(k: int) -> float:
    """Aitken-accelerated estimate of the cascade limit from lambda_1..k."""
    if k < 3:
        raise ValueError("need at least three cascade parameters")
    lams = [period_doubling_parameter(n) for n in range(1, k + 1)]
    x0, x1, x2 = lams[-3], lams[-2], lams[-1]
    d1, d2 = x1 - x0, x2 - x1
    denom = d2 - d1
    if denom == 0.0:
        return x2
    return x2 - d2 * d2 / denom


def _largest_fixed_point(lam: float, q: int) -> float:
    """The largest x in [0,1] with alpha^q(x) = x (vectorized scan plus
    bisection)."""
    xs = np.linspace(0.0, 1.0, 4001)
    F = xs.copy()
    for _ in range(q):
        F = 4.0 * lam * F * (1.0 - F)
    h = F - xs
    sign = np.sign(h)
    flips = np.nonzero(sign[:-1] * sign[1:] <= 0.0)[0]
    if len(flips) == 0:
        raise BracketFailure(f"no fixed point of the {q}-fold map found")
    i = flips[-1]
    return find_root(lambda x: _iterate(lam, x, q) - x,
                     (float(xs[i]), float(xs[i + 1])), 1e-15)


@lru_cache(maxsize=None)
def mu_parameter(n: int) -> float:
    """mu_n: mu_0 = 1; for n >= 1 the parameter where the 2^n-th image of
    the critical value hits the largest fixed point of the 2^(n-1)-fold
    map (band-merging parameters, decreasing to the cascade limit)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    q_top = 2 ** n
    q_fix = 2 ** (n - 1)

    def F(lam: float) -> float:
        return _iterate(lam, lam, q_top) - _largest_fixed_point(lam, q_fix)

    floor = feigenbaum_limit_estimate(6) + 1e-4
    step = 5e-4

    def points():
        lam = mu_parameter(n - 1) - 1e-6
        yield lam
        while lam - step > floor:
            lam -= step
            yield lam

    return find_root(F, points(), 1e-12)


def _scan_period(lam: float, target: int) -> bool:
    return attracting_period(lam, max_period=4 * target + 2, burn_in=4000,
                             iters=128, tol=1e-5) == target


def _edge_period(lam: float, target: int) -> bool:
    return attracting_period(lam, max_period=4 * target + 2, burn_in=40000,
                             iters=256, tol=1e-6) == target


@lru_cache(maxsize=None)
def window_boundaries(n: int, scan_step: float = 1e-4) -> tuple[float, float]:
    """(eta_n, nu_n): the stability window of the first (largest-lambda)
    attracting orbit of odd period 2n+1 below the previous window.

    The window is found by scanning lambda downward from nu_{n-1}
    (nu_0 = 1) in steps of ``scan_step`` until the attracting period is
    2n+1.  nu_n, the doubling of the (2n+1)-orbit, is the multiplier -1
    root of that orbit between the first window point and one step above
    it.  eta_n, the onset (tangent bifurcation), is the lower edge of the
    attracting-period predicate: a walk down to the first step where it
    fails, then bisection to 1e-9.  It is not a saddle-node solve; for
    n=1 it lies about 7e-8 below the exact (1+2*sqrt(2))/4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    target = 2 * n + 1
    start = 1.0 - 1e-6 if n == 1 else window_boundaries(n - 1)[1] - 1e-6
    floor = 0.915  # windows accumulate above the first band-merging point
    lam = start
    lam_in = None
    while lam > floor:
        if _scan_period(lam, target):
            lam_in = lam
            break
        lam -= scan_step
    if lam_in is None:
        raise WindowNotFound(
            f"no period-{target} window found at scan step {scan_step}; "
            f"retry with a smaller step")
    nu = find_root(lambda t: _multiplier_plus_one(t, target),
                   (lam_in, lam_in + scan_step), 1e-12)
    lam = lam_in
    while lam - scan_step > floor and _scan_period(lam - scan_step, target):
        lam -= scan_step
    eta = find_root(lambda t: 1.0 if _edge_period(t, target) else -1.0,
                    (lam - scan_step, lam), 1e-9)
    return eta, nu


@lru_cache(maxsize=None)
def window_cascade_parameter(n: int, m: int) -> float:
    """lambda_m^(n): the m-th doubling parameter inside the period-(2n+1)
    window.  m=0 is the onset eta_n, m=1 the first doubling nu_n; higher m
    by multiplier -1 bisection on the 2^(m-1)*(2n+1)-orbit."""
    if m == 0:
        return window_boundaries(n)[0]
    if m == 1:
        return window_boundaries(n)[1]
    return _doubling_parameter(2 ** (m - 1) * (2 * n + 1),
                               window_cascade_parameter(n, m - 1),
                               window_cascade_parameter(n, m - 2), 1e-11)


# ---------------------------------------------------------------------------
# Cascade table and regime classification


@dataclass(frozen=True)
class CascadeTable:
    lambda_n: tuple[float, ...]           # lambda_1 .. lambda_{n_max}
    superstable_n: tuple[float, ...]      # s_0 .. (shorter list)
    lambda_inf_estimate: float
    mu_n: tuple[float, ...]               # mu_0 .. mu_{n_mu}
    windows: tuple[tuple[int, float, float], ...]
    window_cascades: dict

    @staticmethod
    def build(n_max: int = 8, n_super: int = 5, n_mu: int = 2,
              n_windows: int = 0, cascade_m: int = 1) -> "CascadeTable":
        lam_n = tuple(period_doubling_parameter(n) for n in range(1, n_max + 1))
        sups = tuple(superstable_parameter(n) for n in range(0, n_super + 1))
        lam_inf = feigenbaum_limit_estimate(min(max(n_max, 3), 7))
        mus = tuple(mu_parameter(n) for n in range(0, n_mu + 1))
        wins = []
        cascades = {}
        for n in range(1, n_windows + 1):
            eta, nu = window_boundaries(n)
            wins.append((n, eta, nu))
            cascades[n] = [window_cascade_parameter(n, m)
                           for m in range(0, cascade_m + 1)]
        return CascadeTable(lam_n, sups, lam_inf, mus, tuple(wins), cascades)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "n", "value", "residual"])
            for i, lam in enumerate(self.lambda_n, start=1):
                res = _multiplier_plus_one(lam, 2 ** (i - 1))
                w.writerow(["lambda_n", i, repr(lam), repr(abs(res))])
            for i, s in enumerate(self.superstable_n):
                res = _iterate(s, 0.5, 2 ** i) - 0.5
                w.writerow(["superstable_n", i, repr(s), repr(abs(res))])
            w.writerow(["lambda_inf", "", repr(self.lambda_inf_estimate), ""])
            for i, mu in enumerate(self.mu_n):
                if i == 0:
                    w.writerow(["mu_n", 0, repr(mu), "0.0"])
                else:
                    res = (_iterate(mu, mu, 2 ** i)
                           - _largest_fixed_point(mu, 2 ** (i - 1)))
                    w.writerow(["mu_n", i, repr(mu), repr(abs(res))])
            for (n, eta, nu) in self.windows:
                w.writerow(["eta_n", n, repr(eta), ""])
                w.writerow(["nu_n", n, repr(nu), ""])
            for n, lams in self.window_cascades.items():
                for m, lam in enumerate(lams):
                    w.writerow([f"window_cascade_{n}", m, repr(lam), ""])


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


def classify_regime(lam: float, table: Optional[CascadeTable] = None,
                    n_max: int = 8, tol_mu: float = 1e-6) -> Regime:
    """Classify lambda against the computed parameter sequences."""
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda must be in (0,1]")
    if lam >= 1.0 - EPS_DOM:
        return Regime("Full", irreducible_continuum=True,
                      params={"lambda": lam})
    lam_inf = (table.lambda_inf_estimate if table is not None
               else feigenbaum_limit_estimate(7))
    if abs(lam - lam_inf) <= 1e-3:
        return Regime("FeigenbaumLimit", params={"lambda_inf": lam_inf})
    if lam < lam_inf:
        if lam <= 0.25:
            return Regime("CascadeStage", n=-1, params={"interval": (0.0, 0.25)})
        lo = 0.25
        for n in range(0, n_max + 1):
            hi = period_doubling_parameter(n + 1)
            if lo < lam <= hi:
                return Regime("CascadeStage", n=n,
                              params={"interval": (lo, hi)})
            lo = hi
        return Regime("FeigenbaumLimit", params={"lambda_inf": lam_inf})
    # beyond the cascade limit
    n_mu = len(table.mu_n) - 1 if table is not None else 2
    for n in range(1, n_mu + 1):
        mu = table.mu_n[n] if table is not None else mu_parameter(n)
        if abs(lam - mu) < tol_mu:
            return Regime("MuPoint", n=n, irreducible_continuum=True,
                          params={"mu": mu})
    if table is not None:
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


def _cascade_stage_graph(n: int) -> ContinuumGraph:
    nodes = [("R", "RayR")]
    rays = {k: [_ray(k, i) for i in range(1, 2 ** k + 1)]
            for k in range(1, n)}
    for k in range(1, n):
        nodes += [(r, "Ray") for r in rays[k]]
    arcs = [f"I[{i}]" for i in range(1, 2 ** (n - 1) + 1)]
    nodes += [(a, "Arc") for a in arcs]
    all_ids = [i for i, _ in nodes]

    closure = {"R": tuple(all_ids)}
    for k in range(1, n):
        for i in range(1, 2 ** k + 1):
            cl = []
            for j in range(0, n - k):
                for l in range(2 ** j):
                    cl.append(_ray(k + j, i + l * 2 ** k))
            for l in range(2 ** (n - 1 - k)):
                cl.append(f"I[{i + l * 2 ** k}]")
            closure[_ray(k, i)] = tuple(cl)
    for a in arcs:
        closure[a] = (a,)

    permutation = {"R": "R"}
    for k in range(1, n):
        permutation.update(_cycle(rays[k]))
    permutation.update(_cycle(arcs))

    inter = []
    for k in range(1, n):
        half = 2 ** (k - 1)
        for i in range(1, half + 1):
            inter.append((_ray(k, i), _ray(k, half + i), (half, i), half))

    fixed = {
        "arc_midpoint_period": 2 ** (n - 1),
        "arc_endpoint_period": 2 ** n,
        "omega_orbit_periods": [2 ** (k - 1) for k in range(1, n)],
    }
    return ContinuumGraph(tuple(nodes), closure, tuple(inter), permutation,
                          fixed)


def _mu_point_graph(n: int) -> ContinuumGraph:
    nodes = [("R", "RayR")]
    rays = {k: [_ray(k, i) for i in range(1, 2 ** k + 1)]
            for k in range(1, n)}
    for k in range(1, n):
        nodes += [(r, "Ray") for r in rays[k]]
    bjk = [f"B[{i}]" for i in range(1, 2 ** n + 1)]
    nodes += [(b, "BJK") for b in bjk]
    all_ids = [i for i, _ in nodes]

    closure = {"R": tuple(all_ids)}
    for k in range(1, n):
        for i in range(1, 2 ** k + 1):
            cl = []
            for j in range(0, n - k):
                for l in range(2 ** j):
                    cl.append(_ray(k + j, i + l * 2 ** k))
            for l in range(2 ** (n - k)):
                cl.append(f"B[{i + l * 2 ** k}]")
            closure[_ray(k, i)] = tuple(cl)
    for b in bjk:
        closure[b] = (b,)

    permutation = {"R": "R"}
    for k in range(1, n):
        permutation.update(_cycle(rays[k]))
    permutation.update(_cycle(bjk))

    inter = []
    for k in range(1, n):
        half = 2 ** (k - 1)
        for i in range(1, half + 1):
            inter.append((_ray(k, i), _ray(k, half + i), (half, i), half))
    half = 2 ** (n - 1)
    for i in range(1, half + 1):
        inter.append((f"B[{i}]", f"B[{half + i}]", (half, i), half))

    fixed = {
        "bjk_cycle_length": 2 ** n,
        "omega_orbit_periods": [2 ** (k - 1) for k in range(1, n + 1)],
    }
    return ContinuumGraph(tuple(nodes), closure, tuple(inter), permutation,
                          fixed)


def _window_cascade_graph(n: int, m: int) -> ContinuumGraph:
    q = 2 * n + 1
    c_id = f"C[{q}]"
    nodes = [("R", "RayR"), (c_id, "C")]
    rays = {k: [_ray(k, i) for i in range(1, 2 ** k * q + 1)]
            for k in range(0, m)}
    for k in range(0, m):
        nodes += [(r, "Ray") for r in rays[k]]
    arcs = [f"I[{i}]" for i in range(1, 2 ** (m - 1) * q + 1)] if m >= 1 else []
    nodes += [(a, "Arc") for a in arcs]
    all_ids = [i for i, _ in nodes]

    closure = {"R": tuple(all_ids),
               c_id: tuple([c_id] + [r for k in rays for r in rays[k]] + arcs)}
    for k in range(0, m):
        for i in range(1, 2 ** k * q + 1):
            cl = []
            for j in range(0, m - k):
                for l in range(2 ** j):
                    cl.append(_ray(k + j, i + l * 2 ** k * q))
            for l in range(2 ** (m - 1 - k)):
                cl.append(f"I[{i + l * 2 ** k * q}]")
            closure[_ray(k, i)] = tuple(cl)
    for a in arcs:
        closure[a] = (a,)

    permutation = {"R": "R", c_id: c_id}
    for k in range(0, m):
        permutation.update(_cycle(rays[k]))
    if arcs:
        permutation.update(_cycle(arcs))

    inter = []
    if m >= 1:
        for i in range(1, q + 1):
            inter.append((c_id, _ray(0, i), (q, i), q))
        for k in range(1, m):
            half = 2 ** (k - 1) * q
            for i in range(1, half + 1):
                inter.append((_ray(k, i), _ray(k, half + i), (half, i), half))

    fixed = {"c_endpoint_period": 2 ** m * q}
    if m >= 1:
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
    if regime.tag == "WindowCascadeStage" and (regime.n or 0) >= 1:
        return _window_cascade_graph(regime.n, regime.m or 0)
    raise UnsupportedRegime(f"no decomposition theorem for {regime.tag}"
                            f"(n={regime.n}, m={regime.m})")


# ---------------------------------------------------------------------------
# Bucket-handle (B-J-K) embedding for figures


def _cantor_endpoints(depth: int) -> list[float]:
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for lo, hi in intervals:
            third = (hi - lo) / 3.0
            nxt.append((lo, lo + third))
            nxt.append((hi - third, hi))
        intervals = nxt
    pts = sorted({e for iv in intervals for e in iv})
    return pts


def _semicircle(cx: float, r: float, upper: bool, samples: int = 24):
    pts = []
    for j in range(samples + 1):
        th = math.pi * j / samples
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
