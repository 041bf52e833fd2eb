"""Finite-dimensional operator models of the extension dynamics.

On the span of a finite set of chains, the operator (Uf)(c) = f(extended
dynamics of c) is a partial permutation, stored as the index map ``sigma``,
and functions of the zeroth coordinate act as the diagonal algebra A, stored
as vectors.  Every structural identity of the coefficient-algebra framework
(partial isometry, Ua = delta(a)U, generalized inverses, kernel/annihilator
and carrier relations) then becomes a machine-checkable gather/scatter
identity on ``sigma``.  Five hold by this representation and go unreported:
U*aU is diagonal (sigma is a map); U*U and the carrier Q commute with A,
and B is commutative (all diagonal); delta(1) = UU* (by definition).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (EPS_CHAIN, UNIT_INTERVAL, Branch, PartialMapSystem,
                   decimal_rint, make_constant_system, make_rotation_system,
                   preimages)
from .extension import (ExtensionSpec, alpha_tilde, chain_keys, class_index,
                        valid_rows)
from . import logistic as _logistic

THRESHOLD = 1e-12


class ClosureOverflow(RuntimeError):
    """The chain basis exceeded the size cap during closure."""


class InseparableModel(ValueError):
    """Two basis chains agree in every stored coordinate, so no function of
    the coordinates can separate them at finite depth."""


DEFAULT_A_FUNCS = {
    "one": lambda x: 1.0,
    "x0": lambda x: x,
    "x0sq": lambda x: x * x,
    "bump": lambda x: math.exp(-((x - 0.5) / 0.2) ** 2),
}


@dataclass(frozen=True)
class FiniteModel:
    """Basis chain i is row i of ``coords``: its coordinates, then NaN out
    to the width closure_depth + 1, with the flag ``terminal[i]``."""
    spec: ExtensionSpec
    coords: np.ndarray              # float64 (dim, closure_depth + 1)
    terminal: np.ndarray            # bool, one flag per chain
    sigma: np.ndarray               # chain i maps to chain sigma[i]; -1: none
    a_gens: dict                    # name -> diagonal vector

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def depths(self) -> np.ndarray:
        return np.count_nonzero(~np.isnan(self.coords), axis=1) - 1


def _images(spec: ExtensionSpec, coords: np.ndarray, terminal: np.ndarray):
    """The rows with an image in the basis (head in Delta, and not terminal
    at full width), and those images: ``alpha_tilde`` with the last column
    dropped, which truncates a non-terminal image."""
    has, img = alpha_tilde(spec, coords)
    room = ~(terminal[has] & ~np.isnan(img[:, -1]))
    has[has] = room
    return has, img[room, :-1]


def _complete(system: PartialMapSystem, coords: np.ndarray,
              terminal: np.ndarray) -> np.ndarray:
    """Fill the non-terminal rows out to the full width in place, each
    coordinate the first preimage of the one before it; return the rows
    left short, where one has no preimage."""
    stuck = np.zeros(len(coords), dtype=bool)
    while (short := np.flatnonzero(
            ~terminal & ~stuck & np.isnan(coords[:, -1]))).size:
        col = np.isnan(coords[short]).argmax(axis=1)
        coords[short, col] = preimages(system, coords[short, col - 1])[:, 0]
        stuck[short] = np.isnan(coords[short, col])
    return stuck


def build_model(spec: ExtensionSpec, coords: np.ndarray,
                terminal: np.ndarray, closure_depth: int,
                size_cap: int = 5000,
                a_funcs: Optional[dict] = None) -> FiniteModel:
    """Close the seed chains, the rows of ``coords`` (NaN-padded) with the
    flags ``terminal``, under the extension dynamics and its inverse, one
    layer (the chains that joined last) at a time: a layer's images join,
    less terminal ones deeper than closure_depth, and so do its tails, the
    head dropped.  A non-terminal chain is kept at closure_depth: truncated,
    or completed by ``_complete`` (a tail that cannot be is left out).  A
    chain joins unless its ``chain_keys`` class has.  sigma[i] = j iff chain
    j is the image of chain i, else -1 (finite-dimensional compression).

    Raises ValueError for a closure_depth that is not an integer >= 0, no
    seeds, a seed that fails ``valid_rows``, is terminal and deeper than
    closure_depth, or cannot be completed, and a basis chain that fails the
    chain condition (a map that leaves the space); ClosureOverflow past
    ``size_cap`` chains."""
    if isinstance(closure_depth, bool) or not isinstance(
            closure_depth, (int, np.integer)) or closure_depth < 0:
        raise ValueError(f"closure_depth must be an integer >= 0, "
                         f"got {closure_depth!r}")
    if len(coords) == 0:
        raise ValueError("build_model needs at least one seed chain")
    width = closure_depth + 1
    lengths = np.count_nonzero(~np.isnan(coords), axis=1)
    cand_t = np.asarray(terminal, dtype=bool)
    cand = np.full((len(coords), max(width, coords.shape[1])), np.nan)
    cand[:, :coords.shape[1]] = coords
    # each class's chain_keys row, as bytes, -> its basis index
    seen, layers, sources, targets = {}, [], [], []
    src = np.arange(0)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the checks
        bad = ~valid_rows(spec, cand, lengths, cand_t) | cand_t & (
            lengths > width)
        cand = cand[:, :width]
        bad |= _complete(spec.system, cand, cand_t)
        if bad.any():
            raise ValueError(f"invalid seed chain for closure_depth "
                             f"{closure_depth}: "
                             f"{coords[bad.argmax()].tolist()}")
        while len(cand):
            keys = chain_keys(cand, cand_t)
            n = len(seen)
            rows = keys.view(np.dtype((np.void, keys.itemsize
                                       * keys.shape[1]))).ravel()
            index = np.array([seen.setdefault(k, len(seen))
                              for k in rows.tolist()], dtype=int)
            targets.append(index[:len(src)])
            sources.append(src)
            # new classes are numbered in order of first occurrence, so a
            # row is the first of a new class iff its class is above all
            # before it
            new = np.flatnonzero(index > np.maximum.accumulate(
                np.concatenate(([n - 1], index[:-1]))))
            if len(seen) > size_cap:
                raise ClosureOverflow(f"basis exceeded size cap {size_cap}")
            c, t = cand[new], cand_t[new]
            layers.append((c, t))
            has, img = _images(spec, c, t)
            tails = np.empty_like(c)
            tails[:, :-1], tails[:, -1] = c[:, 1:], np.nan
            keep = ~np.isnan(tails[:, 0])
            if not t.all():
                keep &= ~_complete(spec.system, tails, t)
            cand = np.vstack([img, tails[keep]])
            cand_t = np.concatenate([t[has], t[keep]])
            src = n + np.flatnonzero(has)
        coords = np.vstack([c for c, _ in layers])
        terminal = np.concatenate([t for _, t in layers])
        lengths = np.count_nonzero(~np.isnan(coords), axis=1)
        bad = ~valid_rows(spec, coords, lengths, terminal)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"invalid chain in model basis: "
                         f"{coords[i, :lengths[i]].tolist()}")
    sigma = np.full(len(coords), -1)
    sigma[np.concatenate(sources)] = np.concatenate(targets)
    heads = coords[:, 0].tolist()
    gens = {name: np.array([f(x) for x in heads])
            for name, f in (DEFAULT_A_FUNCS if a_funcs is None
                              else a_funcs).items()}
    return FiniteModel(spec, coords, terminal, sigma, gens)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class OperatorCheckReport:
    residuals: dict = field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        self.residuals[name] = float(value)

    def all_pass(self) -> bool:
        return all(v <= THRESHOLD for v in self.residuals.values())

    def to_json(self) -> dict:
        return {name: {"residual": res, "pass": res <= THRESHOLD}
                for name, res in self.residuals.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)


# Operators built from U and diagonals are block-diagonal over the fibres
# sigma^-1(j).  UbU* is the block b_j J on fibre j (J the all-ones matrix,
# ||J|| = k_j, the fibre size), U*bU = diag(sum of b over fibre j) and
# U*U = diag(k).  The residuals below are the exact spectral norms of
# these blocks; each vanishes when every fibre has at most one chain.


def _fibre_sizes(sigma: np.ndarray) -> np.ndarray:
    """k[j] = number of chains mapped onto chain j: the diagonal of U*U."""
    return np.bincount(sigma[sigma >= 0], minlength=sigma.size).astype(float)


def _delta_diag(sigma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of b, the diagonal of delta(b) = UbU*: b gathered through
    sigma."""
    return np.where(sigma >= 0, b[:, sigma], 0.0)


def _delta_star(sigma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of b, U*bU, which is diagonal: b scattered (summed) through
    sigma, in index order as np.bincount sums."""
    dom = sigma >= 0
    out = np.zeros(b.shape)
    np.add.at(out, (slice(None), sigma[dom]), b[:, dom])
    return out


def _max(v: np.ndarray, axis=None):
    """The maximum of v >= 0, or 0 over nothing."""
    return np.max(v, axis=axis, initial=0.0)


def _a_rows(m: FiniteModel) -> np.ndarray:
    """The diagonals of the A-generators as the rows of one array."""
    return np.array(list(m.a_gens.values()), dtype=float).reshape(
        len(m.a_gens), m.dim)


def verify_coefficient_relations(m: FiniteModel) -> OperatorCheckReport:
    """The defining relations of a coefficient algebra that can fail on
    ``sigma``: conjugation by U keeps A diagonal, Ua = delta(a)U, and U is
    a partial isometry."""
    rep = OperatorCheckReport()
    k = _fibre_sizes(m.sigma)
    extra = np.maximum(k - 1.0, 0.0)
    a_abs = _max(np.abs(_a_rows(m)), axis=0)
    # off-diagonal part of delta(a): a_j (J - 1) on fibre j
    rep.record("UaU*_diagonal", _max(a_abs * extra))
    # Ua - delta(a)U has k_j entries a_j (1 - k_j) in column j
    rep.record("Ua_equals_delta(a)U", _max(a_abs * extra * np.sqrt(k)))
    rep.record("partial_isometry_UU*U=U", _max(extra * np.sqrt(k)))
    return rep


@dataclass(frozen=True)
class BAlgebra:
    gens: np.ndarray      # row g: the diagonal of the generator U*^n a U^n
    classes: np.ndarray   # joint-eigenvalue class of each chain
    vanishing: np.ndarray  # one entry per class: every generator is 0 there


def build_B(m: FiniteModel, n_max: int) -> BAlgebra:
    """Generators of B = C*(union of U*^n A U^n), level n after level n,
    and the partition of the basis into joint-eigenvalue classes (chains
    whose generator values agree to 8 digits), which determines the
    algebra B generates."""
    levels = [_a_rows(m)]
    for _ in range(n_max):
        levels.append(_delta_star(m.sigma, levels[-1]))
    gens = np.concatenate(levels)
    values = np.round(gens, 8).T + 0.0
    classes, first = class_index(values)
    return BAlgebra(gens, classes, ~values[first].any(axis=1))


def _distance_to_B(B: BAlgebra, v: np.ndarray) -> np.ndarray:
    """Per row of v, the sup-norm distance from diag(v) to the C*-algebra B
    generates.  B is commutative and diagonal, so that algebra is the set
    of vectors that are constant on each joint-eigenvalue class and vanish
    on the classes where all generators vanish."""
    shape = (len(v), len(B.vanishing))
    hi = np.full(shape, -np.inf)
    lo = np.full(shape, np.inf)
    np.maximum.at(hi, (slice(None), B.classes), v)
    np.minimum.at(lo, (slice(None), B.classes), v)
    return _max(np.where(B.vanishing, np.maximum(hi, -lo), 0.5 * (hi - lo)),
                axis=1)


def verify_reversibility(m: FiniteModel, B: BAlgebra) -> OperatorCheckReport:
    """Generalized-inverse identities of delta(b) = UbU* on B, and
    invariance of B under conjugation by U and U*, over all generators b
    at once."""
    sigma, b = m.sigma, B.gens
    rep = OperatorCheckReport()
    k = _fibre_sizes(sigma)
    s = _delta_star(sigma, b)
    # delta(dstar(delta(b))) - delta(b) = delta((k^2 - 1) b)
    rep.record("delta_dstar_delta=delta", _max(np.abs(b * (k * k - 1.0)) * k))
    # dstar(delta(dstar(b))) - dstar(b) = diag((k^2 - 1) s)
    rep.record("dstar_delta_dstar=dstar", _max(np.abs(s * (k * k - 1.0))))
    off = _max(np.abs(b) * np.maximum(k - 1.0, 0.0), axis=1)
    rep.record("UBU*_in_B",
               _max(off + _distance_to_B(B, _delta_diag(sigma, b))))
    rep.record("U*BU_in_B", _max(_distance_to_B(B, s)))
    # delta(dstar(b)) - UU*b is the rank-one block 1 w^T on each fibre,
    # w_l = s_j - b_l, of norm sqrt(k_j) |w|
    w = np.where(sigma >= 0, _delta_diag(sigma, s) - b, 0.0)
    rep.record("delta_range_is_UU*B",
               math.sqrt(_max(k * _delta_star(sigma, w ** 2))))
    return rep


@dataclass(frozen=True)
class IdealData:
    UstarU: np.ndarray         # diagonal of U*U
    Q: np.ndarray              # diagonal of the carrier of ker(delta|A)
    kernel_classes: tuple      # index sets of x0-classes with delta = 0


def kernel_annihilator_check(m: FiniteModel):
    """ker(delta restricted to A) versus the ideal (1-U*U)A intersected
    with A, the carrier Q of that ideal, and the bound U*U <= P = 1 - Q.

    A is the algebra of functions of the zeroth coordinate, i.e. diagonal
    matrices constant on x0-classes of the basis: heads that agree to 9
    decimals, numbered in ascending order."""
    rep = OperatorCheckReport()
    sigma = m.sigma
    _, label = np.unique(decimal_rint(m.coords[:, 0], 9),
                         return_inverse=True)
    n = label.max() + 1
    UstarU = _fibre_sizes(sigma)
    # delta(e) = UeU* vanishes iff no image of U lies in the class of e
    hit = np.zeros(n, dtype=bool)
    hit[label[sigma[sigma >= 0]]] = True
    # U*U e = diag(k) e vanishes iff k is zero on the class of e
    charged = np.bincount(label, weights=UstarU, minlength=n) > 0
    rep.record("ker_delta_equals_(1-U*U)A_cap_A",
               0.0 if np.array_equal(hit, charged) else 1.0)
    Q = (~hit[label]).astype(float)
    rep.record("U*U_leq_P", max(0.0, _max(UstarU - (1.0 - Q))))
    kernel = tuple(tuple(np.flatnonzero(label == c).tolist())
                   for c in np.flatnonzero(~hit))
    return IdealData(UstarU, Q, kernel), rep


def spectrum_matches_extension(m: FiniteModel, B: BAlgebra) -> OperatorCheckReport:
    """The finite Gelfand shadow: joint eigenvalue tuples of B separate
    exactly the distinct chains, and sigma implements the extension
    dynamics on the index set."""
    rep = OperatorCheckReport()
    rep.record("B_separates_chains",
               0.0 if len(B.vanishing) == m.dim else 1.0)
    has, img = _images(m.spec, m.coords, m.terminal)
    index, _ = class_index(np.vstack([chain_keys(m.coords, m.terminal),
                                      chain_keys(img, m.terminal[has])]))
    j = index[m.dim:]
    # a chain outside Delta has no image; an image in the basis is sigma's
    outside = ~m.spec.system.in_domain(m.coords[:, 0])
    bad = (np.count_nonzero(outside & (m.sigma >= 0))
           + np.count_nonzero((j < m.dim) & (m.sigma[has] != j)))
    rep.record("U_implements_chain_shift", float(bad))
    return rep


def full_report(m: FiniteModel) -> OperatorCheckReport:
    """All registered checks on one model, B generated up to the model's
    greatest depth."""
    rep = verify_coefficient_relations(m)
    B = build_B(m, int(m.depths.max()))
    for part in (verify_reversibility(m, B), kernel_annihilator_check(m)[1],
                 spectrum_matches_extension(m, B)):
        rep.residuals.update(part.residuals)
    return rep


# ---------------------------------------------------------------------------
# Reference models


def constant_model(p: float = 1.0 / 3.0, n_points: int = 3,
                   depth: int = 3) -> FiniteModel:
    """The constant map onto p with Y = M: each finite stratum is a copy
    of M, and the infinite part is the single constant chain.

    Raises InseparableModel when a grid point y = j/(n_points-1) equals p
    within EPS_CHAIN: the terminal chain (p, ..., p) and the depth-capped
    constant chain would then agree in every stored coordinate."""
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 2):
        raise ValueError(f"n_points must be an integer >= 2, got {n_points!r}")
    grid = [j / (n_points - 1) for j in range(n_points)]
    if any(abs(y - p) <= EPS_CHAIN for y in grid):
        raise InseparableModel(
            f"grid point equals p={p!r}: the terminal chain at p and the "
            f"constant chain cannot be separated at depth {depth}")
    spec = ExtensionSpec(make_constant_system(p), ((0.0, 1.0),))
    # the grid points as terminal chains, then the constant chain
    coords = np.full((n_points + 1, depth + 1), np.nan)
    coords[:-1, 0] = grid
    coords[-1] = p
    return build_model(spec, coords, np.arange(n_points + 1) < n_points,
                       depth)


def rotation_model(tau: float = 1.0 / 3.0, depth: int = 6) -> FiniteModel:
    """A rigid rotation with Y a single point: a finite ladder of strata."""
    spec = ExtensionSpec(make_rotation_system(tau), ((0.0, 0.0),))
    return build_model(spec, np.zeros((1, 1)), np.ones(1, dtype=bool), depth)


def logistic_period3_model(depth: int = 6) -> FiniteModel:
    """The superstable period-3 orbit of the logistic family as an exact
    finite invariant set; the extension dynamics is a cyclic permutation
    of its infinite chains (the base map is bijective on the orbit)."""
    lam = _logistic._itinerary_parameter("RL")
    orbit = [0.5]
    for _ in range(2):
        orbit.append(4.0 * lam * orbit[-1] * (1.0 - orbit[-1]))
    points = np.array(orbit)

    def along(x, k):
        # the orbit point k steps after the first within 1e-7 of x; NaN
        # off the orbit
        near = np.abs(np.subtract.outer(x, points)) <= 1e-7
        return np.where(near.any(axis=-1),
                        points[(near.argmax(axis=-1) + k) % 3], np.nan)[()]

    system = PartialMapSystem(
        space=UNIT_INTERVAL,
        domain=((0.0, 1.0),),
        forward_map=lambda x: along(x, 1),
        branches=(Branch((0.0, 1.0), lambda y: along(y, -1)),),
    )
    spec = ExtensionSpec(system, ())
    # each orbit point, completed backward along the orbit
    return build_model(spec, points[:, None], np.zeros(3, dtype=bool), depth)
