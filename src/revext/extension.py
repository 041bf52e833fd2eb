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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (EPS_CHAIN, EPS_DOM, FactorMapSample, OutsideDomain,
                   PartialMapSystem, apply, orbit, preimages)

INF = math.inf
# Branch words of a backward search are enumerated exhaustively down to this
# depth; deeper coordinates are completed by first-found continuation.
PREFIX_DEPTH = 5
# The chain metric: coordinate n weighs WEIGHT_BASE**n, and a coordinate
# where exactly one chain has terminated contributes TERMINAL_GAP.
WEIGHT_BASE = 0.5
TERMINAL_GAP = 1.0

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

    def key(self) -> tuple:
        return (self.terminal, tuple(round(c, 9) for c in self.coords))


@dataclass(frozen=True)
class ExtensionSpec:
    """A partial map system together with the closure set Y.

    Y is a finite union of closed intervals containing M minus alpha(Delta);
    it parameterizes which reversible extension is built.  An empty tuple
    means Y is empty (every chain is infinite).
    """

    system: PartialMapSystem
    Y: tuple[tuple[float, float], ...]
    # y -> preimage coordinates of y in branch order; every stratum of one
    # spec reads the same backward-orbit tree
    _preimages: dict = field(default_factory=dict, init=False, compare=False,
                             repr=False)

    def ordered_preimages(self, y: float) -> tuple[float, ...]:
        """The preimages of y in ``_BRANCH_ORDER``, computed once per spec."""
        xs = self._preimages.get(y)
        if xs is None:
            opts = sorted(preimages(self.system, y),
                          key=lambda lx: (_BRANCH_ORDER.get(lx[0], 9), lx[0]))
            xs = self._preimages[y] = tuple(x for _, x in opts)
        return xs

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


class ChainRows(Sequence):
    """Chains of one length and one terminal flag, kept as the rows of a
    float64 (n, length) array.  A Chain is built only when one is read:
    indexing gives a Chain, slicing another ChainRows, and iteration yields
    Chains.  Equal to any sequence of the same Chains in the same order."""

    def __init__(self, coords: np.ndarray, terminal: bool):
        coords = coords.view()
        coords.flags.writeable = False
        self.coords = coords
        self.terminal = terminal

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ChainRows(self.coords[i], self.terminal)
        return Chain(tuple(self.coords[i].tolist()), self.terminal)

    def __iter__(self):
        t = self.terminal
        return (Chain(tuple(row), t) for row in self.coords.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        # a tuple of the same Chains compares equal, so hash as one
        return hash(tuple(self))

    def __repr__(self) -> str:
        return (f"ChainRows({self.coords.tolist()!r}, "
                f"terminal={self.terminal!r})")


@dataclass(frozen=True)
class StratumSample:
    """A sample of the stratum M_N (N an int, or INF for depth-truncated
    M_inf).  ``chains`` is a ChainRows in every sampled stratum; a sample
    built by hand may hold any sequence of Chain, of mixed lengths and
    terminal flags too."""

    N: object  # int or math.inf
    chains: Sequence[Chain]
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


def _preimage_table(spec: ExtensionSpec, ys: np.ndarray) -> np.ndarray:
    """The preimages of each point of ``ys`` as a row of an (n, branches)
    array in ``ordered_preimages`` order, NaN-padded: the system's closed
    form if it has one, else the spec's scalar lookups."""
    if spec.system.preimage_table is not None:
        return preimages(spec.system, ys)
    table = np.full((len(ys), len(spec.system.branches)), np.nan)
    for i, y in enumerate(ys.tolist()):
        xs = spec.ordered_preimages(y)
        table[i, :len(xs)] = xs
    return table


def _in_Y(spec: ExtensionSpec, xs: np.ndarray) -> np.ndarray:
    """``spec.in_Y(x, 1e-9)`` of each normalized point x of ``xs``."""
    eps = 1e-9
    hit = np.zeros(len(xs), dtype=bool)
    for lo, hi in spec.Y:
        hit |= (lo - eps <= xs) & (xs <= hi + eps)
        if spec.system.space.kind == "circle" and hi < lo:
            hit |= (xs >= lo - eps) | (xs <= hi + eps)
    return hit


def _backward_rows(spec: ExtensionSpec, seeds: Sequence[float], depth: int,
                   terminal: bool) -> np.ndarray:
    """Backward chains from the seeds out to ``depth``, as the rows of an
    array, in search order: seed by seed, every branch word down to the
    prefix depth in branch order, each followed by its lexicographically
    first and then its last valid completion.  Terminal chains end in Y.
    A word without a completion gives no row; a chain may come twice.

    Each (word, direction) job is a depth-first search with a choice index
    per level.  All jobs advance in lockstep, one numpy step per iteration
    that reads the preimages of all newly entered nodes as one table."""
    # a terminal chain always keeps its last step for the completion
    top = min(PREFIX_DEPTH, depth - 1 if terminal else depth)
    words = np.array(seeds, dtype=float)[:, None]
    for _ in range(top):
        table = _preimage_table(spec, words[:, -1])
        i, j = np.nonzero(~np.isnan(table))
        words = np.column_stack([words[i], table[i, j]])
    # job 2w runs word w in branch order, job 2w + 1 in reversed order
    jobs = 2 * len(words)
    path = np.repeat(np.pad(words, ((0, 0), (0, depth - top))), 2, axis=0)
    kids = np.full((jobs, depth + 1, len(spec.system.branches)), np.nan)
    tried = np.zeros((jobs, depth + 1), dtype=int)
    level = np.full(jobs, top)
    found = np.zeros(jobs, dtype=bool)
    live = entered = np.arange(jobs)
    while live.size:
        entered = entered[level[entered] < depth]
        if entered.size:
            kids[entered, level[entered]] = _preimage_table(
                spec, path[entered, level[entered]])
        lv = level[live]
        leaf = lv == depth
        ok = leaf.copy()
        if terminal:
            ok[leaf] = _in_Y(spec, path[live[leaf], depth])
        found[live[ok]] = True
        # a node descends to its next child in its job's direction, or
        # backs up when none is left; a leaf has none (kids stay NaN)
        counts = (~np.isnan(kids[live, lv])).sum(axis=1)
        t = tried[live, lv]
        tried[live, lv] += 1
        down = t < counts
        col = np.where(live % 2 == 1, counts - 1 - t, t)[down]
        level[live] = lv = lv + np.where(down, 1, -1)
        entered, lvd = live[down], lv[down]
        path[entered, lvd] = kids[entered, lvd - 1, col]
        tried[entered, lvd] = 0
        live = live[~ok & (lv >= top)]
    return path[found]


def sample_stratum(spec: ExtensionSpec, N, density: int, depth: int = 25,
                   extra_seeds: Sequence[float] = ()) -> StratumSample:
    """Sample the stratum M_N (integer N >= 0) or depth-truncated M_inf
    (N=INF).

    Finite strata combine two seedings: the parametrizing grid on Y pushed
    forward N steps, and backward branch enumeration from a grid of
    ``density`` zeroth coordinates.  M_inf uses backward enumeration only.
    Preimages come from the spec, so strata sampled from one spec share
    them.  ``extra_seeds`` lets callers add known dynamically relevant x0
    values (e.g. attractor points).
    """
    if isinstance(N, bool) or N != INF and (N < 0 or N != int(N)):
        raise ValueError(f"N must be a nonnegative integer or INF, got {N!r}")
    if isinstance(density, bool) or not isinstance(
            density, (int, np.integer)) or density < 1:
        raise ValueError(f"density must be an integer >= 1, got {density!r}")
    sys_ = spec.system
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
    # backward chains start at a seed; their other coordinates are
    # preimages, already normalized
    seeds = [sys_.space.normalize(x0) for x0 in seeds]

    if N == INF:
        if depth < 1:
            raise ValueError("depth must be >= 1 for the infinite stratum")
        rows = _backward_rows(spec, seeds, depth, terminal=False)
        if not len(rows):
            raise EmptyStratum("no infinite backward orbits found")
        return StratumSample(INF, ChainRows(_distinct_rows(rows), False),
                             depth)

    N = int(N)
    # forward seeding: M_N is parametrized by its last coordinate in Y
    records = (orbit(sys_, y, N) for y in spec.y_grid(density))
    rows = np.array([rec.points[::-1] for rec in records if not rec.escaped],
                    dtype=float).reshape(-1, N + 1)
    # backward seeding: covers zeroth coordinates the forward push misses
    if N >= 1 and spec.Y:
        rows = np.vstack([rows, _backward_rows(spec, seeds, N, True)])
    if not len(rows):
        raise EmptyStratum(f"stratum M_{N} is empty")
    return StratumSample(N, ChainRows(_distinct_rows(rows), True), depth)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of one length as an array, one per class of ``Chain.key``,
    in first-occurrence order: two rows are one class when Python's
    ``round(x, 9)`` agrees at every coordinate.  ``round`` runs once per
    distinct value; it is monotone, so the values it merges are neighbours
    in sorted order and one class id per run of them suffices."""
    coords = np.asarray(rows, dtype=float)
    values, inverse = np.unique(coords, return_inverse=True)
    rounded = np.array([round(v, 9) for v in values.tolist()])
    ids = np.cumsum(np.r_[False, rounded[1:] != rounded[:-1]])
    # numpy 2.0 changed the shape of the inverse, so set it here
    classes = ids[inverse.reshape(coords.shape)]
    _, first = np.unique(classes, axis=0, return_index=True)
    return coords[np.sort(first)]


# ---------------------------------------------------------------------------
# Metric and Hausdorff distance


def chain_distance(a: Chain, b: Chain, space=None) -> float:
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
            d = TERMINAL_GAP if b.terminal else 0.0
        elif has_b and not has_a:
            d = TERMINAL_GAP if a.terminal else 0.0
        else:
            d = TERMINAL_GAP if a.terminal != b.terminal else 0.0
        total += WEIGHT_BASE ** n * d
    return total


# Rows of one class pair's prefix-distance matrix held in memory at once.
_ROW_BLOCK = 256


def _classes(sample: StratumSample) -> list:
    """Chains grouped by (length, terminal): one (length, terminal, indices
    in the sample, (count, length) coordinate array) tuple per class.  A
    ChainRows sample is its one class."""
    rows = sample.chains
    if isinstance(rows, ChainRows):
        return [(rows.coords.shape[1], rows.terminal, slice(None),
                 rows.coords)]
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


def hausdorff(A: StratumSample, B: StratumSample, space=None) -> float:
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
    w = WEIGHT_BASE ** np.arange(horizon)

    row_min = np.full(len(A.chains), np.inf)
    col_min = np.full(len(B.chains), np.inf)
    for la, ta, ia, xa in ga:
        for lb, tb, ib, xb in gb:
            k = min(la, lb)
            rmin, cmin = _prefix_minima(xa[:, :k], xb[:, :k], w, circle)
            for n in range(k, horizon):
                if n < la:  # b has run out
                    d = TERMINAL_GAP if tb else 0.0
                elif n < lb:  # a has run out
                    d = TERMINAL_GAP if ta else 0.0
                else:
                    d = TERMINAL_GAP if ta != tb else 0.0
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


def stratum_to_json(sample: StratumSample) -> dict:
    return {
        "N": "inf" if sample.N == INF else int(sample.N),
        "depth": sample.depth,
        "chains": [{"coords": list(c.coords), "terminal": c.terminal}
                   for c in sample.chains],
    }


def stratum_from_json(doc: dict) -> StratumSample:
    """The sample ``stratum_to_json`` wrote.  Raises EmptyStratum for the
    ``{"empty": true}`` entry that ``extend`` writes for an empty stratum."""
    if doc.get("empty"):
        raise EmptyStratum('the entry {"empty": true} holds no stratum '
                           'sample: that stratum was empty')
    N = INF if doc["N"] == "inf" else int(doc["N"])
    chains = tuple(Chain(tuple(c["coords"]), bool(c["terminal"]))
                   for c in doc["chains"])
    return StratumSample(N, chains, int(doc["depth"]))
