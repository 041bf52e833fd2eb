"""The reversible extension of a partial dynamical system associated with a
closed set Y.

Points of the extension are backward-orbit chains (x0, x1, ..., xd) with
alpha(x_{n+1}) = x_n: a *terminal* chain of depth d ends in Y and represents
an element of the stratum M_d; a non-terminal chain is a depth-d truncation
of an infinite backward orbit (an element of M_inf).  The extended dynamics
``alpha_tilde`` prepends alpha(x0) to chain rows; its inverse is the
coordinate shift.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (EPS_CHAIN, EPS_DOM, PartialMapSystem, decimal_rint,
                   preimages)

INF = math.inf
# Branch words of a backward search are enumerated exhaustively down to this
# depth; deeper coordinates are completed by first-found continuation.
PREFIX_DEPTH = 5
# The chain metric: coordinate n weighs WEIGHT_BASE**n, and a coordinate
# where exactly one chain has terminated contributes TERMINAL_GAP.
WEIGHT_BASE = 0.5
TERMINAL_GAP = 1.0


class EmptyStratum(RuntimeError):
    """Raised when a stratum contains no valid chain."""


@dataclass(frozen=True)
class Chain:
    """A backward-orbit chain; the concrete point of the extension."""

    coords: tuple[float, ...]
    terminal: bool

    @property
    def depth(self) -> int:
        return len(self.coords) - 1


@dataclass(frozen=True)
class ExtensionSpec:
    """A partial map system together with the closure set Y.

    Y is a finite union of closed intervals containing M minus alpha(Delta);
    it parameterizes which reversible extension is built.  An empty tuple
    means Y is empty (every chain is infinite).
    """

    system: PartialMapSystem
    Y: tuple[tuple[float, float], ...]

    def in_Y(self, x, eps: float = EPS_DOM):
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
    Chains.  Equal to a ChainRows with the same flag and rows."""

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
        if not isinstance(other, ChainRows):
            return NotImplemented
        return (self.terminal == other.terminal
                and np.array_equal(self.coords, other.coords))

    def __hash__(self) -> int:
        # from the values, not the bytes: 0.0 == -0.0 must hash alike
        return hash((self.terminal, self.coords.shape,
                     tuple(self.coords.ravel().tolist())))

    def __repr__(self) -> str:
        return (f"ChainRows({self.coords.tolist()!r}, "
                f"terminal={self.terminal!r})")


@dataclass(frozen=True)
class StratumSample:
    """A sample of the stratum M_N (N an int, or INF for depth-truncated
    M_inf).  Its chains share one length and one terminal flag, so
    ``chains`` is always a ChainRows."""

    N: object  # int or math.inf
    chains: ChainRows
    depth: int


def valid_rows(spec: ExtensionSpec, coords: np.ndarray, lengths: np.ndarray,
               terminal, eps: float = EPS_CHAIN) -> np.ndarray:
    """Per row i, whether the chain coords[i, :lengths[i]] (lengths >= 1),
    terminal where ``terminal`` is, has a head in the space (on the circle
    any finite real), every later coordinate in Delta and mapped to within
    eps of the one before it, and, if terminal, its last coordinate in Y.
    Entries past a row's length do not count."""
    sys_, space = spec.system, spec.system.space
    with np.errstate(invalid="ignore"):  # NaN and inf fail every test
        x = space.normalize(coords[:, 1:])
        ok = sys_.in_domain(x)
        back = space.normalize(sys_.forward_map(x[ok]))
        ok[ok] = space.metric(back, coords[:, :-1][ok]) <= eps
        ok |= np.arange(1, coords.shape[1]) >= lengths[:, None]
        head = space.normalize(coords[:, 0])
        last = coords[np.arange(len(coords)), lengths - 1]
        return ((0.0 <= head) & (head <= 1.0) & ok.all(axis=1)
                & ~(terminal & ~spec.in_Y(last, 1e-9)))


def validate_chain(spec: ExtensionSpec, c: Chain,
                   eps: float = EPS_CHAIN) -> bool:
    """True iff c satisfies the chain condition of ``valid_rows`` (a chain
    of no coordinates has no head in the space)."""
    coords = np.array([c.coords or (math.nan,)], dtype=float)
    return bool(valid_rows(spec, coords, np.array([coords.shape[1]]),
                           c.terminal, eps)[0])


def alpha_tilde(spec: ExtensionSpec, coords: np.ndarray):
    """The extended dynamics on chain rows: ``ok`` marks the rows of
    ``coords`` whose head lies in Delta, and ``img`` holds those rows with
    alpha(x0) of the normalized head prepended, normalized.  A row keeps
    its terminal flag.  The inverse is the shift ``img[:, 1:]``, and the
    factor map onto the base system is column 0: ``img[:, 0]`` is alpha of
    ``coords[ok, 0]``."""
    space = spec.system.space
    ok = spec.system.in_domain(coords[:, 0])
    fx = spec.system.forward_map(space.normalize(coords[ok, 0]))
    return ok, np.column_stack([space.normalize(fx), coords[ok]])


# ---------------------------------------------------------------------------
# Stratum sampling


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
        table = preimages(spec.system, words[:, -1])
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
            kids[entered, level[entered]] = preimages(
                spec.system, path[entered, level[entered]])
        lv = level[live]
        leaf = lv == depth
        ok = leaf.copy()
        if terminal:
            ok[leaf] = spec.in_Y(path[live[leaf], depth], 1e-9)
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
    ``extra_seeds`` lets callers add known dynamically relevant x0
    values (e.g. attractor points); each must be a finite point of the
    state space (any real on the circle), else ValueError.  ``depth`` is
    the chain depth of M_inf and must be an integer >= 1 for every N.
    """
    if isinstance(N, bool) or N != INF and (N < 0 or N != int(N)):
        raise ValueError(f"N must be a nonnegative integer or INF, got {N!r}")
    for name, n in (("density", density), ("depth", depth)):
        if isinstance(n, bool) or not isinstance(
                n, (int, np.integer)) or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    sys_ = spec.system
    bad = [s for s in extra_seeds if not 0.0 <= sys_.space.normalize(s) <= 1.0]
    if bad:
        raise ValueError(f"extra seed {bad[0]!r} is not a point of the space")
    lo = min(iv[0] for iv in sys_.domain)
    hi = max(iv[1] for iv in sys_.domain)
    grid = [lo + (hi - lo) * j / max(density - 1, 1) for j in range(density)]
    seeds = grid + [sys_.space.normalize(s) for s in extra_seeds]
    # forward images of grid points reach values (e.g. a constant map's
    # target) that carry backward orbits even when the grid misses them.
    # An image joins the seeds unless it lies within 1e-12 of a seed before
    # it: a grid or extra seed, or an earlier image that joined.
    fx = alpha_tilde(spec, np.array(grid)[:, None])[1][:, 0]
    fx = fx[(np.abs(fx[:, None] - np.array(seeds)) > 1e-12).all(axis=1)]
    near = np.tril(~(np.abs(fx[:, None] - fx) > 1e-12), -1)
    # joined[i] depends on joined[:i] only, so each sweep settles one more
    # image at least, and usually all of them
    joined = np.ones(len(fx), dtype=bool)
    while (joined != (new := ~(near & joined).any(axis=1))).any():
        joined = new
    # backward chains start at a seed; their other coordinates are
    # preimages, already normalized
    seeds = [sys_.space.normalize(x0) for x0 in seeds + fx[joined].tolist()]

    if N == INF:
        rows = _backward_rows(spec, seeds, depth, terminal=False)
        if not len(rows):
            raise EmptyStratum("no infinite backward orbits found")
        return StratumSample(INF, ChainRows(_distinct_rows(rows), False),
                             depth)

    N = int(N)
    # forward seeding: M_N is parametrized by its last coordinate in Y; a
    # point drops out when it lies outside Delta before a step
    rows = sys_.space.normalize(np.array(spec.y_grid(density)))[:, None]
    for _ in range(N):
        rows = alpha_tilde(spec, rows)[1]
    # backward seeding: covers zeroth coordinates the forward push misses
    if N >= 1 and spec.Y:
        rows = np.vstack([rows, _backward_rows(spec, seeds, N, True)])
    if not len(rows):
        raise EmptyStratum(f"stratum M_{N} is empty")
    return StratumSample(N, ChainRows(_distinct_rows(rows), True), depth)


def chain_keys(coords: np.ndarray, terminal: np.ndarray) -> np.ndarray:
    """One int64 row per chain: its flag, then k = ``decimal_rint(x, 9)``
    per coordinate (int64 min for NaN padding or any non-finite x).  Equal
    rows are one class: ``round(x, 9)`` is the double nearest k / 10**9, and
    on [0, 1] distinct k give distinct doubles, so they are the chains of
    one flag and length whose coordinates agree under ``round(x, 9)``."""
    finite = np.isfinite(coords)
    k = decimal_rint(np.where(finite, coords, 0.0), 9)
    return np.column_stack([terminal, np.where(finite, k, -1 << 63)])


def class_index(keys: np.ndarray):
    """The class of each row of ``keys``, rows compared as byte strings,
    numbered in order of first occurrence (so when the first n rows are
    distinct, row i < n has class i), and the first row of each class."""
    # a row of no entries is one byte string, equal to every other
    keys = (np.ascontiguousarray(keys) if keys.shape[1]
            else np.zeros((len(keys), 1)))
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    _, first, inv = np.unique(rows.ravel(), return_index=True,
                              return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inv.reshape(-1)], np.sort(first)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of one length, one per class of ``chain_keys``, in
    first-occurrence order."""
    rows = np.asarray(rows, dtype=float)
    flags = np.zeros(len(rows), dtype=bool)
    return rows[class_index(chain_keys(rows, flags))[1]]


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


# Rows of the prefix-distance matrix held in memory at once: few enough
# that a block's sums and differences stay in cache.
_ROW_BLOCK = 48
# The smallest scaled coordinate |x| * w[n] (and weight w[n]) for which the
# samples are scaled once: far above the subnormal range.
_SCALE_FLOOR = 2.0 ** -900


def _prefix_minima(xa: np.ndarray, xb: np.ndarray, w: np.ndarray,
                   circle: bool):
    """Row and column minima of D[i, j] = sum_n w[n] |xa[i, n] - xb[j, n]|
    (w[n] min(d, 1 - d) for d = |xa[i, n] - xb[j, n]| on the circle) over
    the k shared coordinates, summed in coordinate order as chain_distance
    does, one block of _ROW_BLOCK rows at a time.

    Each w[n] is a power of two, so while the scaled coordinates stay
    normal, |a w[n] - b w[n]| = w[n] |a - b| and min(d w[n], w[n] - d w[n])
    = w[n] min(d, 1 - d) exactly: both samples are multiplied by the
    weights once, and each term costs a subtraction and an absolute value.
    Samples with a nonzero coordinate that would scale below _SCALE_FLOOR
    weigh each term as it is formed instead; the sums are the same floats
    either way."""
    k = xa.shape[1]
    w = w[:k]
    least = min(np.min(np.abs(x), where=x != 0, initial=1.0)
                for x in (xa, xb))
    scaled = k == 0 or least * w[-1] >= _SCALE_FLOOR
    if scaled:
        xa, xb = xa * w, xb * w
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
                np.minimum(diff, (w[n] if scaled else 1.0) - diff, out=diff)
            if not scaled:
                diff *= w[n]
            acc += diff
        rmin[s:s + len(acc)] = acc.min(axis=1)
        np.minimum(cmin, acc.min(axis=0), out=cmin)
    return rmin, cmin


def hausdorff(A: StratumSample, B: StratumSample, space=None) -> float:
    """Hausdorff distance between two stratum samples under chain_distance.

    Exact, and equal to the max-min over the full pairwise matrix summed
    over a horizon of max(lengths, 60) terms.  The chains of a sample share
    one length and one terminal flag, so every distance is the weighted l1
    prefix distance over the k = min(la, lb) shared coordinates followed by
    the same tail terms (terminal gaps).  Each step x -> fl(x + t) of the
    tail is monotone, so adding it to the prefix row and column minima
    gives the same floats as adding it to every entry before taking minima.
    """
    if not A.chains or not B.chains:
        raise EmptyStratum("hausdorff requires nonempty samples")
    circle = space is not None and getattr(space, "kind", "") == "circle"
    xa, xb = A.chains.coords, B.chains.coords
    ta, tb = A.chains.terminal, B.chains.terminal
    la, lb = xa.shape[1], xb.shape[1]
    horizon = max(la, lb, 60)
    w = WEIGHT_BASE ** np.arange(horizon)

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
    return max(rmin.max(), cmin.max())


# ---------------------------------------------------------------------------
# Serialization


def stratum_to_json(sample: StratumSample) -> dict:
    rows = sample.chains
    return {
        "N": "inf" if sample.N == INF else int(sample.N),
        "depth": sample.depth,
        "chains": [{"coords": coords, "terminal": rows.terminal}
                   for coords in rows.coords.tolist()],
    }


def _is_count(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def stratum_from_json(doc: dict) -> StratumSample:
    """The sample ``stratum_to_json`` wrote.  Raises EmptyStratum for the
    ``{"empty": true}`` entry of an empty stratum and for an empty chain
    list, and ValueError unless N is a nonnegative integer or "inf", depth
    an integer >= 1, and the chains share one length and flag that fit N:
    terminal with N + 1 coordinates, or for "inf" non-terminal with
    depth + 1."""
    if doc.get("empty"):
        raise EmptyStratum('the entry {"empty": true} holds no stratum '
                           'sample: that stratum was empty')
    N, depth, chains = doc["N"], doc["depth"], doc["chains"]
    if N != "inf" and not _is_count(N):
        raise ValueError(f'N must be a nonnegative integer or "inf", '
                         f'got {N!r}')
    if not _is_count(depth) or depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {depth!r}")
    if not chains:
        raise EmptyStratum(f"the sample of M_{N} holds no chains")
    shapes = {(len(c["coords"]), bool(c["terminal"])) for c in chains}
    fit = (depth + 1, False) if N == "inf" else (N + 1, True)
    if shapes != {fit}:
        raise ValueError(f"chains of (length, terminal) {sorted(shapes)} "
                         f"do not fit M_{N}, which needs {fit}")
    rows = np.array([c["coords"] for c in chains], dtype=float)
    return StratumSample(INF if N == "inf" else N, ChainRows(rows, fit[1]),
                         depth)
