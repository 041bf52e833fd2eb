"""The reversible extension of a partial dynamical system associated with a
closed set Y.

Points of the extension are backward-orbit chains (x0, x1, ..., xd) with
alpha(x_{n+1}) = x_n: a *terminal* chain of depth d ends in Y and represents
an element of the stratum M_d; a non-terminal chain is a depth-d truncation
of an infinite backward orbit (an element of M_inf).  The extended dynamics
prepends alpha(x0); its inverse is the coordinate shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (EPS_CHAIN, EPS_DOM, FactorMapSample, OutsideDomain,
                   PartialMapSystem, apply, preimages)

INF = math.inf

# Deterministic branch enumeration order; unknown labels sort after these,
# alphabetically.
_BRANCH_ORDER = {"L": 0, "R": 1, "C": 2}


class NotInImage(ValueError):
    """Raised when the shift is applied to a length-1 chain."""


class EmptyStratum(RuntimeError):
    """Raised when a stratum contains no valid chain."""


class InvalidLift(ValueError):
    """Raised when a lifted semiconjugacy produces an invalid chain."""


@dataclass(frozen=True)
class Chain:
    """A backward-orbit chain; the concrete point of the extension."""

    coords: tuple[float, ...]
    terminal: bool

    @property
    def depth(self) -> int:
        return len(self.coords) - 1

    def key(self, ndigits: int = 9) -> tuple:
        return (self.terminal, tuple(round(c, ndigits) for c in self.coords))


@dataclass(frozen=True)
class ExtensionSpec:
    """A partial map system together with the closure set Y.

    Y is a finite union of closed intervals containing M minus alpha(Delta);
    it parameterizes which reversible extension is built.  An empty tuple
    means Y is empty (every chain is infinite).
    """

    system: PartialMapSystem
    Y: tuple[tuple[float, float], ...]

    def in_Y(self, x: float, eps: float = EPS_DOM) -> bool:
        return self.system.space.in_intervals(self.Y, x, eps)

    def y_grid(self, density: int) -> list[float]:
        """Evenly spaced points across the intervals of Y."""
        if not self.Y:
            return []
        spans = []
        for lo, hi in self.Y:
            length = hi - lo if hi >= lo else (1.0 - lo) + hi
            spans.append((lo, hi, max(length, 0.0)))
        total = sum(s[2] for s in spans)
        pts: list[float] = []
        for lo, hi, length in spans:
            if total > 0:
                k = max(1, round(density * length / total))
            else:
                k = 1
            if k == 1:
                pts.append(self.system.space.normalize(lo))
                continue
            for j in range(k):
                t = lo + length * j / (k - 1)
                pts.append(self.system.space.normalize(t))
        return pts


@dataclass(frozen=True)
class ChainMetricParams:
    """Metric realizing the product topology: weights 2^-n, and a fixed gap
    contribution where exactly one chain has already terminated."""

    weight_base: float = 0.5
    terminal_gap: float = 1.0

    def weight(self, n: int) -> float:
        return self.weight_base ** n


DEFAULT_METRIC = ChainMetricParams()


@dataclass(frozen=True)
class StratumSample:
    N: object  # int or math.inf
    chains: tuple[Chain, ...]
    depth: int


def validate_chain(spec: ExtensionSpec, c: Chain,
                   eps: float = EPS_CHAIN) -> bool:
    """True iff c satisfies the chain condition, domain membership, and
    (when terminal) ends in Y."""
    if len(c.coords) == 0:
        return False
    sys_ = spec.system
    for n in range(len(c.coords) - 1):
        x_next = c.coords[n + 1]
        if not sys_.in_domain(x_next):
            return False
        try:
            back = apply(sys_, x_next)
        except OutsideDomain:
            return False
        if sys_.space.metric(back, c.coords[n]) > eps:
            return False
    if c.terminal and not spec.in_Y(c.coords[-1], 1e-9):
        return False
    return True


def alpha_tilde(spec: ExtensionSpec, c: Chain) -> Chain:
    """Extended dynamics: prepend alpha(x0).  Requires x0 in Delta."""
    x0 = c.coords[0]
    if not spec.system.in_domain(x0):
        raise OutsideDomain(f"chain head {x0!r} not in Delta")
    return Chain((apply(spec.system, x0),) + c.coords, c.terminal)


def alpha_tilde_inv(spec: ExtensionSpec, c: Chain) -> Chain:
    """Inverse extended dynamics: drop the zeroth coordinate."""
    if len(c.coords) < 2:
        raise NotInImage("length-1 chains are not in the image of the "
                         "extended dynamics")
    return Chain(c.coords[1:], c.terminal)


def factor_map(c: Chain) -> float:
    """Projection onto the zeroth coordinate (semiconjugates the extension
    onto the base system)."""
    return c.coords[0]


class ChainExtensionSystem:
    """Duck-typed 'system' over chains, for semiconjugacy checks."""

    def __init__(self, spec: ExtensionSpec):
        self.spec = spec

    def in_domain(self, c: Chain) -> bool:
        return self.spec.system.in_domain(c.coords[0])

    def forward(self, c: Chain) -> Chain:
        return alpha_tilde(self.spec, c)


# ---------------------------------------------------------------------------
# Stratum sampling


def _ordered_preimages(system: PartialMapSystem, y: float):
    opts = preimages(system, y)
    return sorted(opts, key=lambda lx: (_BRANCH_ORDER.get(lx[0], 9), lx[0]))


def _memo_preimages(system: PartialMapSystem, memo: dict, y: float):
    """``_ordered_preimages`` looked up in ``memo`` (y -> ordered list)
    first; callers must not mutate the returned list."""
    opts = memo.get(y)
    if opts is None:
        opts = memo[y] = _ordered_preimages(system, y)
    return opts


def _extend_first(spec: ExtensionSpec, memo: dict, path: list[float],
                  depth: int, reverse: bool,
                  terminal: bool) -> Optional[tuple[float, ...]]:
    """Depth-first backward continuation of ``path`` out to ``depth``,
    taking the first completion in deterministic branch order (reversed
    order when ``reverse``).  For terminal chains the final coordinate must
    land in Y.  Returns None when no completion exists."""
    if len(path) - 1 == depth:
        if terminal and not spec.in_Y(path[-1], 1e-9):
            return None
        return tuple(path)
    opts = _memo_preimages(spec.system, memo, path[-1])
    if reverse:
        opts = opts[::-1]
    for _, x in opts:
        path.append(x)
        got = _extend_first(spec, memo, path, depth, reverse, terminal)
        path.pop()
        if got is not None:
            return got
    return None


def _backward_chains(spec: ExtensionSpec, memo: dict, x0: float, depth: int,
                     prefix_depth: int, terminal: bool) -> list[tuple[float, ...]]:
    """All backward chains from x0 to ``depth`` whose first ``prefix_depth``
    branch choices are enumerated exhaustively; beyond the prefix each
    partial chain is completed by first-found continuation in both the
    forward and the reversed branch order (with backtracking)."""
    prefix_depth = min(prefix_depth, depth)
    results: list[tuple[float, ...]] = []

    def enumerate_prefix(path: list[float]) -> None:
        if len(path) - 1 == prefix_depth:
            for reverse in (False, True):
                got = _extend_first(spec, memo, list(path), depth, reverse,
                                    terminal)
                if got is not None and got not in results:
                    results.append(got)
            return
        for _, x in _memo_preimages(spec.system, memo, path[-1]):
            path.append(x)
            enumerate_prefix(path)
            path.pop()

    enumerate_prefix([x0])
    return results


def sample_stratum(spec: ExtensionSpec, N, density: int, depth: int = 25,
                   prefix_depth: int = 5,
                   extra_seeds: Sequence[float] = ()) -> StratumSample:
    """Sample the stratum M_N (finite N) or depth-truncated M_inf (N=inf).

    Finite strata combine two seedings: the parametrizing grid on Y pushed
    forward N steps, and backward branch enumeration from a grid of
    ``density`` zeroth coordinates.  M_inf uses backward enumeration only;
    branch words are enumerated exhaustively down to ``prefix_depth`` and
    completed deterministically.  ``extra_seeds`` lets callers add known
    dynamically relevant x0 values (e.g. attractor points).
    """
    sys_ = spec.system
    chains: list[Chain] = []
    seen: set = set()
    # the backward searches of one stratum revisit the same points many
    # times, so each call computes the preimages of a point once
    memo: dict = {}

    def add(coords: tuple[float, ...], terminal: bool) -> None:
        c = Chain(tuple(sys_.space.normalize(x) for x in coords), terminal)
        k = c.key()
        if k not in seen:
            seen.add(k)
            chains.append(c)

    lo = min(iv[0] for iv in sys_.domain)
    hi = max(iv[1] for iv in sys_.domain)
    grid = [lo + (hi - lo) * j / max(density - 1, 1) for j in range(density)]
    seeds = grid + [sys_.space.normalize(s) for s in extra_seeds]
    # forward images of grid points reach values (e.g. a constant map's
    # target) that carry backward orbits even when the grid misses them
    for x in grid:
        if sys_.in_domain(x):
            fx = apply(sys_, x)
            if all(abs(fx - s) > 1e-12 for s in seeds):
                seeds.append(fx)

    if N == INF or N == "inf":
        if depth < 1:
            raise ValueError("depth must be >= 1 for the infinite stratum")
        for x0 in seeds:
            for coords in _backward_chains(spec, memo, x0, depth,
                                           prefix_depth, terminal=False):
                add(coords, False)
        if not chains:
            raise EmptyStratum("no infinite backward orbits found")
        return StratumSample(INF, tuple(chains), depth)

    N = int(N)
    # forward seeding: M_N is parametrized by its last coordinate in Y
    for y in spec.y_grid(density):
        coords = [y]
        ok = True
        for _ in range(N):
            if not sys_.in_domain(coords[-1]):
                ok = False
                break
            coords.append(apply(sys_, coords[-1]))
        if ok:
            add(tuple(coords[::-1]), True)
    # backward seeding: covers zeroth coordinates the forward push misses
    if N >= 1 and spec.Y:
        for x0 in seeds:
            for coords in _backward_chains(spec, memo, x0, N,
                                           min(prefix_depth, N - 1),
                                           terminal=True):
                add(coords, True)
    if not chains:
        raise EmptyStratum(f"stratum M_{N} is empty")
    return StratumSample(N, tuple(chains), depth)


# ---------------------------------------------------------------------------
# Metric and Hausdorff distance


def chain_distance(a: Chain, b: Chain,
                   p: ChainMetricParams = DEFAULT_METRIC,
                   space=None) -> float:
    """Weighted sum over coordinates; where exactly one chain has
    *terminated* (terminal, past its depth) the contribution is the
    terminal gap; missing coordinates of non-terminal truncations cost
    nothing (they are unknown, not absent)."""
    if space is None:
        metric = lambda x, y: abs(x - y)
    else:
        metric = space.metric
    total = 0.0
    la, lb = len(a.coords), len(b.coords)
    horizon = max(la, lb)
    if a.terminal != b.terminal or la != lb:
        horizon = max(horizon, 60)  # resolve the geometric tail of the gap
    for n in range(horizon):
        has_a = n < la
        has_b = n < lb
        if has_a and has_b:
            d = metric(a.coords[n], b.coords[n])
        elif has_a and not has_b:
            d = p.terminal_gap if b.terminal else 0.0
        elif has_b and not has_a:
            d = p.terminal_gap if a.terminal else 0.0
        else:
            ended_a = a.terminal
            ended_b = b.terminal
            if ended_a != ended_b:
                d = p.terminal_gap
            else:
                d = 0.0
        total += p.weight(n) * d
    return total


# Rows of one class pair's prefix-distance matrix held in memory at once.
_ROW_BLOCK = 256


def _classes(sample: StratumSample) -> list:
    """Chains grouped by (length, terminal): one (length, terminal, indices
    in the sample, (count, length) coordinate array) tuple per class."""
    groups: dict = {}
    for i, c in enumerate(sample.chains):
        groups.setdefault((len(c.coords), c.terminal), []).append(i)
    return [(length, terminal, np.array(idx),
             np.array([sample.chains[i].coords for i in idx]).reshape(
                 len(idx), length))
            for (length, terminal), idx in groups.items()]


def _prefix_minima(xa: np.ndarray, xb: np.ndarray, w: np.ndarray,
                   circle: bool):
    """Row and column minima of D[i, j] = sum_n w[n] |xa[i, n] - xb[j, n]|
    over the k shared coordinates, summed in coordinate order as
    chain_distance does, one block of _ROW_BLOCK rows at a time."""
    k = xa.shape[1]
    xbT = np.ascontiguousarray(xb.T)
    rmin = np.empty(len(xa))
    cmin = np.full(len(xb), np.inf)
    for s in range(0, len(xa), _ROW_BLOCK):
        blk = xa[s:s + _ROW_BLOCK].T
        acc = np.zeros((blk.shape[1], len(xb)))
        diff = np.empty_like(acc)
        for n in range(k):
            np.subtract(blk[n][:, None], xbT[n][None, :], out=diff)
            np.abs(diff, out=diff)
            if circle:
                np.minimum(diff, 1.0 - diff, out=diff)
            diff *= w[n]
            acc += diff
        rmin[s:s + len(acc)] = acc.min(axis=1)
        np.minimum(cmin, acc.min(axis=0), out=cmin)
    return rmin, cmin


def hausdorff(A: StratumSample, B: StratumSample,
              p: ChainMetricParams = DEFAULT_METRIC,
              space=None) -> float:
    """Hausdorff distance between two stratum samples under chain_distance.

    Exact, and equal to the max-min over the full pairwise matrix summed
    over a horizon of max(lengths, 60) terms.  Within one pair of
    (length, terminal) classes every distance is the weighted l1 prefix
    distance over the k = min(la, lb) shared coordinates followed by the
    same tail terms (terminal gaps).  Each step x -> fl(x + t) of the tail
    is monotone, so adding it to the prefix row and column minima gives the
    same floats as adding it to every entry before taking minima.
    """
    if not A.chains or not B.chains:
        raise EmptyStratum("hausdorff requires nonempty samples")
    circle = space is not None and getattr(space, "kind", "") == "circle"

    ga, gb = _classes(A), _classes(B)
    horizon = max(max(g[0] for g in ga), max(g[0] for g in gb), 60)
    w = p.weight_base ** np.arange(horizon)
    gap = p.terminal_gap

    row_min = np.full(len(A.chains), np.inf)
    col_min = np.full(len(B.chains), np.inf)
    for la, ta, ia, xa in ga:
        for lb, tb, ib, xb in gb:
            k = min(la, lb)
            rmin, cmin = _prefix_minima(xa[:, :k], xb[:, :k], w, circle)
            for n in range(k, horizon):
                if n < la:  # b has run out
                    d = gap if tb else 0.0
                elif n < lb:  # a has run out
                    d = gap if ta else 0.0
                else:
                    d = gap if ta != tb else 0.0
                if d:
                    rmin += w[n] * d
                    cmin += w[n] * d
            row_min[ia] = np.minimum(row_min[ia], rmin)
            col_min[ib] = np.minimum(col_min[ib], cmin)
    return max(row_min.max(), col_min.max())


# ---------------------------------------------------------------------------
# Universality lift


@dataclass(frozen=True)
class InverseOrbitRecord:
    """A point of a reversible upstairs system together with (a truncation
    of) its backward orbit, and whether that orbit genuinely terminates."""

    point: object
    inverse_orbit: tuple
    terminated: bool


def lift_semiconjugacy(psi: FactorMapSample,
                       upstairs: Sequence[InverseOrbitRecord],
                       spec: ExtensionSpec) -> list[tuple[object, Chain]]:
    """Lift a semiconjugacy Psi to the extension: y maps to the chain
    (Psi(y), Psi(beta^-1 y), Psi(beta^-2 y), ...), terminal where the
    upstairs backward orbit ends.  Every produced chain must validate."""
    out = []
    for rec in upstairs:
        coords = [psi.psi(rec.point)] + [psi.psi(z) for z in rec.inverse_orbit]
        c = Chain(tuple(spec.system.space.normalize(x) for x in coords),
                  rec.terminated)
        if not validate_chain(spec, c, max(EPS_CHAIN, psi.tolerance)):
            raise InvalidLift(
                "lifted chain fails validation; Psi is not a semiconjugacy "
                "associated with this Y")
        out.append((rec.point, c))
    return out


# ---------------------------------------------------------------------------
# Serialization


def stratum_to_json(sample: StratumSample, space_kind: str = "interval") -> dict:
    doc = {
        "N": "inf" if sample.N == INF else int(sample.N),
        "depth": sample.depth,
        "chains": [{"coords": list(c.coords), "terminal": c.terminal}
                   for c in sample.chains],
    }
    if space_kind != "interval":
        doc["space"] = space_kind
    return doc


def stratum_from_json(doc: dict) -> StratumSample:
    N = INF if doc["N"] == "inf" else int(doc["N"])
    chains = tuple(Chain(tuple(c["coords"]), bool(c["terminal"]))
                   for c in doc["chains"])
    return StratumSample(N, chains, int(doc["depth"]))
