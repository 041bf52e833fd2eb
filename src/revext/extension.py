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
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (EPS_CHAIN, UNIT_INTERVAL, PartialMapSystem, decimal_rint,
                   image, preimages)

INF = math.inf
# Branch words are enumerated to this depth (less if every target is
# shallower); a target no deeper is read off them, and deeper ones descend.
PREFIX_DEPTH = 5
# Bytes of descent state (rows and preimage tables) a backward search holds
# at once: it runs its jobs in slices of this size.
SEARCH_BYTES = 1 << 24
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

    def in_Y(self, x):
        return self.system.space.in_intervals(self.Y, x, EPS_CHAIN)

    def y_grid(self, density: int) -> list[float]:
        """Evenly spaced points across the intervals of Y."""
        spans = []
        for lo, hi in self.Y:
            length = hi - lo if hi >= lo else (1.0 - lo) + hi
            spans.append((lo, hi, max(length, 0.0)))
        total = sum(s[2] for s in spans)
        pts: list[float] = []
        for lo, hi, length in spans:
            k = max(1, round(density * length / total)) if total > 0 else 1
            ts = ([lo + length * j / (k - 1) for j in range(k)] if k > 1
                  else [lo])
            pts += [self.system.space.normalize(t) for t in ts]
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
               terminal) -> np.ndarray:
    """Per row i, whether the chain coords[i, :lengths[i]] (lengths >= 1),
    terminal where ``terminal`` is, has a head in the space (on the circle
    any finite real), every later coordinate in Delta and mapped to within
    EPS_CHAIN of the one before it, and, if terminal, its last coordinate
    in Y.  Entries past a row's length do not count."""
    sys_, space = spec.system, spec.system.space
    with np.errstate(invalid="ignore"):  # NaN and inf fail every test
        x = space.normalize(coords[:, 1:])
        ok = sys_.in_domain(x)
        back = space.normalize(sys_.forward_map(x[ok]))
        ok[ok] = space.metric(back, coords[:, :-1][ok]) <= EPS_CHAIN
        ok |= np.arange(1, coords.shape[1]) >= lengths[:, None]
        head = space.normalize(coords[:, 0])
        last = coords[np.arange(len(coords)), lengths - 1]
        return ((0.0 <= head) & (head <= 1.0) & ok.all(axis=1)
                & ~(terminal & ~spec.in_Y(last)))


def validate_chain(spec: ExtensionSpec, c: Chain) -> bool:
    """True iff c satisfies the chain condition of ``valid_rows`` (a chain
    of no coordinates has no head in the space)."""
    coords = np.array([c.coords or (math.nan,)], dtype=float)
    return bool(valid_rows(spec, coords, np.array([coords.shape[1]]),
                           c.terminal)[0])


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


@dataclass(frozen=True)
class BackwardSearch:
    """The rows ``backward_search`` found for each N, as lists of arrays in
    search order, and the ``key`` of the arguments it ran with."""

    key: tuple
    rows: dict


def _search_key(spec: ExtensionSpec, density, depth, extra_seeds) -> tuple:
    # hex tells -0.0 from 0.0, which the rows keep apart
    return (spec, density, depth, tuple(float(s).hex() for s in extra_seeds))


def _seeds(spec: ExtensionSpec, density: int, extra_seeds) -> list:
    """A grid of ``density`` points across Delta, the ``extra_seeds`` and
    the grid's forward images, normalized."""
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
    # In order, an image joins the seeds unless one of the seeds so far
    # (grid and extra seeds, and the images that joined) lies within 1e-12:
    # its neighbours in the sorted seeds are the nearest.  A NaN image never
    # joins, nor an infinite one after one of its sign: a NaN distance is
    # not above 1e-12.
    known = sorted(seeds)
    for x in alpha_tilde(spec, np.array(grid)[:, None])[1][:, 0].tolist():
        i = bisect_left(known, x)
        if all(abs(x - y) > 1e-12 for y in known[max(i - 1, 0):i + 1]):
            known.insert(i, x)
            seeds.append(x)
    # backward chains start at a seed; their other coordinates are
    # preimages, already normalized
    return [sys_.space.normalize(x0) for x0 in seeds]


def backward_search(spec: ExtensionSpec, Ns, density: int, depth: int = 25,
                    extra_seeds: Sequence[float] = ()) -> BackwardSearch:
    """The backward chains of the strata M_N, N in ``Ns`` (INF: M_inf to
    ``depth``) from the ``_seeds``: each branch word's first and last
    completion, in word order, without a row whose bits are those of the
    row before it of its target (so a word's single completion is one
    row).  A target no deeper than PREFIX_DEPTH is read off the words:
    M_inf takes each word of its depth, M_N each word's first and last
    child in Y.

    Deeper targets descend greedily from the words, together, in slices
    of at most SEARCH_BYTES: job 2w (2w + 1) takes at each level word w's
    first (last) child in its set for the r steps left, ``core.image``'s
    alpha^r of Y widened as in_Y widens it (of Delta for M_inf), and at
    the leaf in Y (any).  Each level of a set is padded by IMAGE_PAD, so it
    holds every child with a completion, and exceeds the true image by up
    to IMAGE_PAD * (1 + L + ... + L**(r - 1)) for a map with Lipschitz
    constant L: only a child there with no completion, ahead of one with
    one, could keep a job from the first (last) valid chain in branch
    order, which a depth-first search finds."""
    for name, n in (("density", density), ("depth", depth)):
        if isinstance(n, bool) or not isinstance(
                n, (int, np.integer)) or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    for N in Ns:
        if isinstance(N, bool) or N != INF and (N < 0 or N != int(N)):
            raise ValueError(f"N must be a nonnegative integer or INF, got "
                             f"{N!r}")
    extra_seeds = tuple(extra_seeds)
    rows = {INF if N == INF else int(N): [] for N in Ns}
    # each target's depth: M_0, and M_N when Y is empty, take no rows
    targets = {N: depth if N == INF else N for N in rows
               if N == INF or N >= 1 and spec.Y}
    # the branch words of each length, and each word's parent one shorter
    words = [np.array(_seeds(spec, density, extra_seeds), float)[:, None]]
    parent = [None]
    for _ in range(min(max(targets.values(), default=0), PREFIX_DEPTH)):
        table = preimages(spec.system, words[-1][:, -1])
        i, j = np.nonzero(~np.isnan(table))
        words.append(np.column_stack([words[-1][i], table[i, j]]))
        parent.append(i)

    def record(N, got):
        # a row is kept unless its bits are those of the target's last row
        # (a word's first and last completion may be one row)
        bits = got.view(np.int64)
        new = np.empty(len(got), dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        new[:1] = not rows[N] or (bits[:1] != rows[N][-1][-1:].view(
            np.int64)).any()
        if new.any():
            rows[N].append(got if new.all() else got[new])

    # per terminal flag, the set for a child with r steps left: Y widened
    # as in_Y widens it (r = 0), or Delta, then their images
    sets = {True: [tuple((lo - EPS_CHAIN, hi + EPS_CHAIN + (hi < lo))
                         for lo, hi in spec.Y)], False: [spec.system.domain]}
    deep = {}  # each deeper target's sets, one per step past the words
    for N, d in targets.items():
        if d <= PREFIX_DEPTH and N == INF:
            record(INF, words[d])
        elif d <= PREFIX_DEPTH:
            k = np.flatnonzero(spec.in_Y(words[d][:, -1]))
            p = parent[d][k]  # a word's children are consecutive
            pick = np.column_stack([k[np.diff(p, prepend=-1) != 0],
                                    k[np.diff(p, append=-1) != 0]])
            record(d, words[d][pick.ravel()])
        else:
            chain = sets[N != INF]
            while len(chain) < d - PREFIX_DEPTH:
                chain.append(image(spec.system, chain[-1]))
            deep[N] = chain[:d - PREFIX_DEPTH]
    jobs = np.arange(2 * len(words[-1]) if deep else 0)
    # every job's first level: its word's children, one table for all
    table = preimages(spec.system, words[-1][:, -1]) if deep else None
    width = max(1, SEARCH_BYTES // max(1, _descent_bytes(spec, deep)))
    for j in (jobs[s:s + width] for s in range(0, len(jobs), width)):
        for N, got in zip(deep, _descend(spec, words[-1][j // 2], j % 2 == 1,
                                         deep, table[j // 2])):
            record(N, got)
    return BackwardSearch(_search_key(spec, density, depth, extra_seeds),
                          rows)


def _descent_bytes(spec: ExtensionSpec, deep: dict) -> int:
    # per job and target: its row, its children level by level, and its
    # share of a level's ends, preimage tables and masks
    return sum(16 * (PREFIX_DEPTH + 1 + len(sets)) + 48 * len(
        spec.system.branches) + 64 for sets in deep.values())


def _descend(spec: ExtensionSpec, words: np.ndarray, rev: np.ndarray,
             deep: dict, first: np.ndarray) -> list:
    """Per target of ``deep`` (N -> its sets), in job order, the rows that
    the ``backward_search`` jobs on ``words`` (reversed where ``rev``)
    complete, len(sets) levels deeper; a job that finds none gives none.
    ``first`` is the preimage table of the words' ends, which every target
    takes as its first level; each later level sends the ends of the live
    jobs of all targets to preimages in one call."""
    top, targets = words.shape[1], list(deep.items())
    live = [np.arange(len(words))] * len(targets)
    cols = [[] for _ in targets]  # per level: (live jobs going on, children)
    for level in range(max(len(sets) for _, sets in targets)):
        on = [t for t, (_, sets) in enumerate(targets) if len(sets) > level]
        if level:
            kids = np.split(preimages(spec.system, np.concatenate(
                [cols[t][-1][1] for t in on])),
                np.cumsum([len(live[t]) for t in on])[:-1])
        else:
            kids = [first] * len(on)
        for t, k in zip(on, kids):
            N, sets = targets[t]
            k = np.where(rev[live[t], None], k[:, ::-1], k)
            r = len(sets) - 1 - level
            ok = (spec.system.space.in_intervals(sets[r], k, 0.0) if r else
                  spec.in_Y(k) if N != INF else ~np.isnan(k))
            has, col = ok.any(axis=1), ok.argmax(axis=1)
            live[t] = live[t][has]
            cols[t].append((has, k[has, col[has]]))
    out = []
    for t, (_, sets) in enumerate(targets):
        got = np.empty((len(live[t]), top + len(sets)))
        got[:, :top], at = words[live[t]], np.arange(len(live[t]))
        for level in range(len(sets) - 1, -1, -1):  # at: places in a column
            has, x = cols[t].pop()
            got[:, top + level], at = x[at], np.flatnonzero(has)[at]
        out.append(got)
    return out


def sample_stratum(spec: ExtensionSpec, N, density: int, depth: int = 25,
                   extra_seeds: Sequence[float] = (), *,
                   search: BackwardSearch | None = None) -> StratumSample:
    """Sample the stratum M_N (integer N >= 0) or depth-truncated M_inf
    (N=INF).

    Finite strata combine two seedings: the parametrizing grid on Y pushed
    forward N steps, and the terminal chains of ``backward_search`` from a
    grid of ``density`` zeroth coordinates; M_inf uses the search only.
    ``extra_seeds`` lets callers add known dynamically relevant x0 values
    (e.g. attractor points); each must be a finite point of the state
    space (any real on the circle), else ValueError.  ``depth`` is the
    chain depth of M_inf and must be an integer >= 1 for every N.
    ``search``, one search for the strata of a run, must have run for these
    arguments and N, else ValueError; without it one runs for N alone (at
    lambda 0.95, N <= 10 and INF, depth 20, density 60: 75 preimages calls
    on 82,977 points in all, against 20 on 61,165 for one shared search).
    """
    if search is None:
        search = backward_search(spec, [N], density, depth, extra_seeds)
    elif search.key != _search_key(spec, density, depth, extra_seeds):
        raise ValueError("the search ran for another spec, density, depth "
                         "or extra seeds")
    if isinstance(N, bool) or N not in search.rows:
        raise ValueError(f"the search did not run for M_{N}")
    N = N if N == INF else int(N)
    # forward seeding: M_N is parametrized by its last coordinate in Y; a
    # point drops out when it lies outside Delta before a step
    rows = np.empty((0, depth + 1))
    if N != INF:
        rows = spec.system.space.normalize(
            np.array(spec.y_grid(density)))[:, None]
        for _ in range(N):
            rows = alpha_tilde(spec, rows)[1]
    # backward seeding: covers zeroth coordinates the forward push misses
    rows = np.vstack([rows] + search.rows[N])
    if not len(rows):
        raise EmptyStratum("no infinite backward orbits found" if N == INF
                           else f"stratum M_{N} is empty")
    return StratumSample(N, ChainRows(_distinct_rows(rows), N != INF), depth)


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
    metric = (space or UNIT_INTERVAL).metric
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
# hausdorff bounds a row's nearest-neighbour distance by its distances to
# the rows of the other sample among the 2 _BOUND_RANK rows of both samples
# nearest it in the order of the rows' weighted coordinate sums.
_BOUND_RANK = 8


def _prefix_minima(xa: np.ndarray, xb: np.ndarray, w: np.ndarray,
                   circle: bool):
    """Row and column minima of D[i, j] = sum_n w[n] |xa[i, n] - xb[j, n]|
    (w[n] min(d, 1 - d) for d = |xa[i, n] - xb[j, n]| on the circle) over
    the k shared coordinates, summed in coordinate order as chain_distance
    does, one block of _ROW_BLOCK rows at a time.  Each term is weighed as
    it is formed, as chain_distance weighs it, so subnormal terms round
    alike."""
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


def _term_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray, circle: bool):
    """D between the rows held along the first axis of ``a`` and ``b``
    (coordinate n in a[n] and b[n]), summed in _prefix_minima's operation
    order, so it is the float the kernel forms."""
    acc = np.zeros(a.shape[1:])
    for n in range(len(a)):
        diff = np.abs(a[n] - b[n])
        if circle:
            np.minimum(diff, 1.0 - diff, out=diff)
        diff *= w[n]
        acc += diff
    return acc


def _order_bounds(xa: np.ndarray, xb: np.ndarray, w: np.ndarray,
                  circle: bool) -> list:
    """Per row of the samples xa and xb, an upper bound on its minimum:
    the least D to a row of the other sample among the 2 _BOUND_RANK rows
    of both nearest it in the order of the rows' weighted sums z @ w, or
    inf if there is none.  Each pair of rows up to 2 _BOUND_RANK places
    apart is formed once, for both of its rows."""
    z = np.concatenate([xa, xb])
    order = np.argsort(z @ w[:z.shape[1]], kind="stable")
    side = order >= len(xa)
    zT = np.ascontiguousarray(z[order].T)
    bound = np.full(len(z), INF)
    for t in range(1, min(2 * _BOUND_RANK, len(z) - 1) + 1):
        # the rows t places apart in that order
        acc = _term_sums(zT[:, :-t], zT[:, t:], w, circle)
        acc[side[:-t] == side[t:]] = INF
        np.minimum(bound[:-t], acc, out=bound[:-t])
        np.minimum(bound[t:], acc, out=bound[t:])
    bound[order] = bound.copy()
    return [bound[:len(xa)], bound[len(xa):]]


def _largest_minimum(xa: np.ndarray, xb: np.ndarray, w: np.ndarray,
                     circle: bool):
    """The largest row or column minimum of D over the samples xa and xb.
    Each row of either sample carries an upper bound on its minimum: its
    _order_bounds, tightened to its least D to the rows of the other
    sample taken so far.  While a bound exceeds the largest exact minimum
    so far, the rows of largest bound of the sample holding the largest
    one are taken: they go through _prefix_minima against the other
    sample's rows not taken yet, so no pair is formed twice.  A row's bound
    is at least its minimum and at most its least D to the taken rows, so
    with those kernel minima it gives the row's exact minimum.  The first
    block holds _ROW_BLOCK rows, to set the bar cheaply; later ones hold
    more as the rows not taken on the other side thin out, so that each
    call forms about as many pairs as a block of the dense pass.  Once a
    sample is taken whole, the bounds of the other are its exact minima."""
    x = (xa, xb)
    bound = _order_bounds(xa, xb, w, circle)
    free = (np.ones(len(xa), dtype=bool), np.ones(len(xb), dtype=bool))
    top = -INF
    while True:
        head = [np.max(b, where=f, initial=-INF) for b, f in zip(bound, free)]
        s = int(head[1] > head[0])
        o = 1 - s
        if head[s] <= top or not free[o].any():
            return max(top, head[s])
        rows = np.flatnonzero(free[s] & (bound[s] > top))
        cols = np.flatnonzero(free[o])
        take = (_ROW_BLOCK if top == -INF else
                max(_ROW_BLOCK, _ROW_BLOCK * max(map(len, x)) // len(cols)))
        if len(rows) > take:
            rows = rows[np.argpartition(-bound[s][rows], take - 1)[:take]]
        rmin, cmin = _prefix_minima(x[s][rows], x[o][cols], w, circle)
        top = max(top, np.minimum(rmin, bound[s][rows]).max())
        free[s][rows] = False
        bound[o][cols] = np.minimum(bound[o][cols], cmin)


def hausdorff(A: StratumSample, B: StratumSample, space=None) -> float:
    """Hausdorff distance between two stratum samples under chain_distance.

    Exact, and equal to the max-min over the full pairwise matrix summed
    over a horizon of max(lengths, 60) terms.  The chains of a sample share
    one length and one terminal flag, so every distance is the weighted l1
    prefix distance D over the k = min(la, lb) shared coordinates followed
    by the same tail terms (terminal gaps).  Each step x -> fl(x + t) of the
    tail is monotone, so adding it to the largest prefix row or column
    minimum gives the same float as adding it to every entry before taking
    minima and maxima.

    That largest minimum L is found by pruning.  Every row of either sample
    gets an upper bound on its minimum, a D float it attains or inf
    (_order_bounds), and blocks of the rows of largest bound go through
    _prefix_minima, from the sample holding the largest bound, until no
    bound exceeds the largest exact minimum so far (_largest_minimum).  A
    row left out has a minimum at most its bound, so at most a minimum that
    a taken row attains: it cannot change the maximum, and the result is
    the float of the full matrix.  At worst every pair goes through the
    kernel once, after the bounds.  Raises ValueError for a coordinate that
    is not finite."""
    if not A.chains or not B.chains:
        raise EmptyStratum("hausdorff requires nonempty samples")
    for s in (A, B):
        x = s.chains.coords[~np.isfinite(s.chains.coords)]
        if x.size:
            raise ValueError(f"stratum M_{'inf' if s.N == INF else s.N} has "
                             f"the coordinate {float(x[0])!r}, which has no "
                             f"distance")
    circle = space is not None and getattr(space, "kind", "") == "circle"
    xa, xb = A.chains.coords, B.chains.coords
    ta, tb = A.chains.terminal, B.chains.terminal
    la, lb = xa.shape[1], xb.shape[1]
    horizon = max(la, lb, 60)
    w = WEIGHT_BASE ** np.arange(horizon)

    k = min(la, lb)
    top = _largest_minimum(xa[:, :k], xb[:, :k], w, circle)
    for n in range(k, horizon):
        if n < la:  # b has run out
            d = TERMINAL_GAP if tb else 0.0
        elif n < lb:  # a has run out
            d = TERMINAL_GAP if ta else 0.0
        else:
            d = TERMINAL_GAP if ta != tb else 0.0
        if d:
            top += w[n] * d
    return top


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
    an integer >= 1, every terminal flag a JSON boolean, and the chains
    share one length and flag that fit N: terminal with N + 1 coordinates,
    or for "inf" non-terminal with depth + 1."""
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
    bad = [c["terminal"] for c in chains
           if not isinstance(c["terminal"], bool)]
    if bad:
        raise ValueError(f"a terminal flag must be a boolean, got {bad[0]!r}")
    shapes = {(len(c["coords"]), c["terminal"]) for c in chains}
    fit = (depth + 1, False) if N == "inf" else (N + 1, True)
    if shapes != {fit}:
        raise ValueError(f"chains of (length, terminal) {sorted(shapes)} "
                         f"do not fit M_{N}, which needs {fit}")
    rows = np.array([c["coords"] for c in chains], dtype=float)
    return StratumSample(INF if N == "inf" else N, ChainRows(rows, fit[1]),
                         depth)
