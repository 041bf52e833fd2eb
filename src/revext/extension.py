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
                   preimages)

INF = math.inf
# Branch words of a backward search are enumerated exhaustively down to this
# depth (less if every target is shallower), once for all the strata of a
# search; a target no deeper is read off them, and deeper coordinates are
# completed by first-found continuation.
PREFIX_DEPTH = 5
# Bytes of search state (paths, children and counters) a backward search
# holds at once: it runs its jobs in slices of this size.
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


def _job_bytes(depth: int, branches: int, tail: int) -> int:
    # a job's path, children and three int8 counters per level, the
    # ``tail`` coordinates of its rows past its word, scalars and arrays
    return (depth + 1) * 11 + (depth * branches + tail) * 8 + 320


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
    # (grid and extra seeds, and the images that joined) lies within 1e-12.
    # A NaN image never joins, nor an infinite one after one of its sign: a
    # NaN distance is not above 1e-12.  |x - y| only grows away from x, so
    # an image within 1e-12 of a seed never joins, and the others, sorted,
    # fall into runs split where two neighbours lie more than 1e-12 apart:
    # only an image of its own run can keep one out.  The first image of a
    # run joins, and in runs of three or more the rule runs in order.
    fx = alpha_tilde(spec, np.array(grid)[:, None])[1][:, 0]
    known = np.sort(seeds)
    i = np.searchsorted(known, fx)
    far = ((np.abs(fx - known[np.maximum(i - 1, 0)]) > 1e-12)
           & (np.abs(fx - known[np.minimum(i, len(known) - 1)]) > 1e-12))
    order = np.flatnonzero(far)
    order = order[np.argsort(fx[order], kind="stable")]
    with np.errstate(invalid="ignore"):  # inf - inf
        split = np.diff(fx[order]) > 1e-12
    start = np.flatnonzero(np.concatenate([[True], split]))[:len(order)]
    end = np.append(start[1:], len(order))
    joined = np.zeros(len(fx), dtype=bool)
    if len(order):
        joined[np.minimum.reduceat(order, start)] = True
    for a, b in zip(start[end - start > 2], end[end - start > 2]):
        run = []
        for j in np.sort(order[a:b]).tolist():
            x = float(fx[j])
            r = bisect_left(run, x)
            joined[j] = all(abs(x - y) > 1e-12
                            for y in run[max(r - 1, 0):r + 1])
            if joined[j]:
                run.insert(r, x)
    seeds += fx[joined].tolist()
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
    child in Y.  For the deeper ones, job 2w runs word w of length
    PREFIX_DEPTH in branch order and job 2w + 1 reversed: one depth-first
    search, restricted to each target's depth its own, that records the
    first valid chain there (in Y if terminal).  The jobs run in
    lockstep, in slices of at most SEARCH_BYTES of state."""
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
    want = {}  # target depth -> bits (1 terminal, 2 not)
    for N in rows:
        if N == INF or N >= 1 and spec.Y:
            d = depth if N == INF else N
            want[d] = want.get(d, 0) | (2 if N == INF else 1)
    # the branch words of each length, and each word's parent one shorter
    words = [np.array(_seeds(spec, density, extra_seeds), float)[:, None]]
    parent = [None]
    for _ in range(min(max(want, default=0), PREFIX_DEPTH)):
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

    for d, v in want.items():
        if d <= PREFIX_DEPTH and v & 2:
            record(INF, words[d])
        if d <= PREFIX_DEPTH and v & 1:
            k = np.flatnonzero(spec.in_Y(words[d][:, -1]))
            p = parent[d][k]  # a word's children are consecutive
            pick = np.column_stack([k[np.diff(p, prepend=-1) != 0],
                                    k[np.diff(p, append=-1) != 0]])
            record(d, words[d][pick.ravel()])
    top = PREFIX_DEPTH
    if deep := {d: v for d, v in want.items() if d > top}:
        bits = np.zeros(max(deep) + 1, dtype=np.int8)
        bits[list(deep)] = list(deep.values())
        width = max(1, SEARCH_BYTES // _job_bytes(
            len(bits) - 1, len(spec.system.branches),
            sum((d - top) * (1 + (v == 3)) for d, v in deep.items())))
        for s in range(0, 2 * len(words[top]), width):
            jobs = np.arange(s, min(s + width, 2 * len(words[top])))
            for (bit, d), got in _lockstep(spec, words[top][jobs // 2], jobs,
                                           bits).items():
                record(INF if bit == 2 else d, got)
    return BackwardSearch(_search_key(spec, density, depth, extra_seeds),
                          rows)


def _lockstep(spec: ExtensionSpec, words: np.ndarray, jobs: np.ndarray,
              bits: np.ndarray) -> dict:
    """The rows, in job order, that the ``jobs`` of ``backward_search`` (odd
    ones reversed) record from their ``words`` for each target of ``bits``.
    The state of job j at level l is entry l * n + j of a flat view."""
    top, depth, n = words.shape[1] - 1, len(bits) - 1, len(jobs)
    path = np.zeros((depth + 1, n))  # level-major, one column per job
    path[:top + 1] = words.T
    kids = np.empty((depth * n, len(spec.system.branches)))
    # per level, the children left to visit and the column of the next,
    # |base - left| with base = count in branch order and 1 reversed
    left = np.empty((depth + 1, n), dtype=np.int8)
    base = np.empty((depth + 1, n), dtype=np.int8)
    want = np.repeat(bits, n).reshape(depth + 1, n)
    at_path, at_kids, at_left, at_base, at_want = (
        a.ravel() for a in (path, kids, left, base, want))
    # each target's coordinates past the word, written when recorded
    tails = {(bit, d): np.empty((n, d - top)) for d in np.flatnonzero(bits)
             for bit in (1, 2) if bits[d] & bit}
    deep = np.full(n, depth)  # each job's deepest unfound target
    level = lv = np.full(n, top)
    rev = jobs % 2 == 1
    live = entered = np.arange(n)
    while live.size:
        # an entered node records the unfound targets of its depth
        at = lv * n + entered
        w = at_want[at]
        hit = w & 2
        if (t := np.flatnonzero(w & 1)).size:
            hit[t] |= spec.in_Y(at_path[at[t]])
        if (h := np.flatnonzero(hit)).size:
            j, lj, b = entered[h], lv[h], hit[h]
            at_want[at[h]] = w[h] & ~b
            for bit in (1, 2):
                for d in np.flatnonzero(np.bincount(lj, b & bit)):
                    jb = j[(lj == d) & (b & bit > 0)]
                    tails[bit, d][jb] = path[top + 1:d + 1, jb].T
            j = j[lj == deep[j]]
            more = want[::-1, j] != 0
            deep[j] = np.where(more.any(axis=0), depth - more.argmax(axis=0),
                               -1)
        # the preimages of all newly entered nodes, as one table
        if (g := lv < deep[entered]).any():
            ag = at[g]
            kids[ag] = table = preimages(spec.system, at_path[ag])
            at_left[ag] = c = (~np.isnan(table)).sum(axis=1)
            at_base[ag] = np.where(rev[entered[g]], 1, c)
        # a node descends to its next child while an unfound target lies
        # deeper, or else backs up; a job with no target left stops
        lv, dl = level[live], deep[live]
        at = lv * n + live
        c = at_left[at]
        down = (lv < dl) & (c > 0)
        entered, le, c, at = live[down], lv[down], c[down], at[down]
        at_left[at] = c - 1
        at_path[at + n] = at_kids[at * kids.shape[1]
                                  + np.abs(at_base[at] - c)]
        level[live] = lv = lv + 2 * down - 1
        live = live[(lv >= top) & (dl >= 0)]
        lv = le + 1
    # the search state is freed before the rows are built
    del path, kids, left, base, at_path, at_kids, at_left, at_base
    out = {}
    for (bit, d), tail in tails.items():
        got = want[d] & bit == 0
        out[bit, d] = rows = np.empty((got.sum(), d + 1))
        rows[:, :top + 1], rows[:, top + 1:] = words[got], tail[got]
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
    arguments and N, else ValueError; without it one runs for N alone.
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
# The smallest scaled coordinate |x| * w[n] (and weight w[n]) for which the
# samples are scaled once: far above the subnormal range.
_SCALE_FLOOR = 2.0 ** -900
# hausdorff bounds a row's nearest-neighbour distance by its distances to
# the rows of the other sample among the 2 _BOUND_RANK rows of both samples
# nearest it in the order of the rows' scaled coordinate sums.
_BOUND_RANK = 8


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


def _term_sums(a: np.ndarray, b: np.ndarray, w: np.ndarray, circle: bool):
    """D between the scaled rows held along the first axis of ``a`` and
    ``b`` (coordinate n in a[n] and b[n], broadcast against each other),
    summed in _prefix_minima's operation order, so it is the float the
    kernel forms."""
    acc = 0.0
    for n in range(len(a)):
        diff = np.abs(a[n] - b[n])
        if circle:
            np.minimum(diff, w[n] - diff, out=diff)
        acc += diff
    return acc


def _order_bounds(sa: np.ndarray, sb: np.ndarray, w: np.ndarray,
                  circle: bool) -> list:
    """For the rows of the samples xa and xb scaled by the weights, ``sa``
    and ``sb``: per row of each, an upper bound on its minimum, the least D
    to a row of the other sample among the 2 _BOUND_RANK rows of both
    nearest it in the order of the rows' coordinate sums, or if there is
    none, to the nearest row of the other sample on each side in that
    order.  Each pair of rows up to 2 _BOUND_RANK places apart is formed
    once, for both of its rows."""
    z = np.concatenate([sa, sb])
    size = len(z)
    order = np.argsort(z.sum(axis=1), kind="stable")
    side = (order >= len(sa)).astype(np.int8)
    zT = np.ascontiguousarray(z[order].T)
    bound = np.full(size, INF)
    for t in range(1, min(2 * _BOUND_RANK, size - 1) + 1):
        # the rows t places apart in that order
        acc = _term_sums(zT[:, :-t], zT[:, t:], w, circle)
        acc[side[:-t] == side[t:]] = INF
        np.minimum(bound[:-t], acc, out=bound[:-t])
        np.minimum(bound[t:], acc, out=bound[t:])
    # a row with none: the nearest rows of the other sample, before and
    # after it (position -1 or size where there is none)
    far = np.flatnonzero(bound == INF)
    at = np.where(side[:, None] == [0, 1], np.arange(size)[:, None], -1)
    before = np.maximum.accumulate(at, axis=0)[far, 1 - side[far]]
    at[at < 0] = size
    after = np.minimum.accumulate(at[::-1], axis=0)[::-1][far, 1 - side[far]]
    for q in (before, after):
        ok = (0 <= q) & (q < size)
        p, q = far[ok], q[ok]
        bound[p] = np.minimum(bound[p], _term_sums(zT[:, p], zT[:, q], w,
                                                   circle))
    bound[order] = bound.copy()
    return [bound[:len(sa)], bound[len(sa):]]


def _largest_minimum(xa: np.ndarray, xb: np.ndarray, w: np.ndarray,
                     circle: bool):
    """The largest row or column minimum of D over the samples xa and xb,
    which _prefix_minima scales.  Each row of either sample carries an
    upper bound on its minimum: its _order_bounds, tightened to its least D
    to the rows of the other sample taken so far.  While a bound exceeds
    the largest exact minimum so far, the rows of largest bound of the
    sample holding the largest one are taken: they go through
    _prefix_minima against the other sample's rows not taken yet, so no
    pair is formed twice.  A row's bound is at least its minimum and at
    most its least D to the taken rows, so with those kernel minima it
    gives the row's exact minimum.  The first block holds _ROW_BLOCK rows,
    to set the bar cheaply; later ones hold more as the rows not taken on
    the other side thin out, so that each call forms about as many pairs
    as a block of the dense pass, and the kernel runs over the smaller of
    its two sets.  Once a sample is taken whole, the bounds of the other
    are its exact minima."""
    x, k = (xa, xb), xa.shape[1]
    bound = _order_bounds(xa * w[:k], xb * w[:k], w, circle)
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
        if len(rows) <= len(cols):
            rmin, cmin = _prefix_minima(x[s][rows], x[o][cols], w, circle)
        else:
            cmin, rmin = _prefix_minima(x[o][cols], x[s][rows], w, circle)
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
    gets an upper bound on its minimum, a D float it attains
    (_order_bounds), and blocks of the rows of largest bound go through
    _prefix_minima, from the sample holding the largest bound, until no
    bound exceeds the largest exact minimum so far (_largest_minimum).  A
    row left out has a minimum at most its bound, so at most a minimum that
    a taken row attains: it cannot change the maximum, and the result is
    the float of the full matrix.  At worst every pair goes through the
    kernel once, after the bounds.  Samples that _prefix_minima would not
    scale are taken whole.  Raises ValueError for a coordinate that is not
    finite."""
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
    xa, xb = xa[:, :k], xb[:, :k]
    least = min(np.min(np.abs(x), where=x != 0, initial=1.0)
                for x in (xa, xb))
    if k == 0 or least * w[k - 1] < _SCALE_FLOOR:
        rmin, cmin = _prefix_minima(xa, xb, w, circle)
        top = max(rmin.max(), cmin.max())
    else:
        top = _largest_minimum(xa, xb, w, circle)
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
