"""Finite-dimensional operator models of the extension dynamics.

On the span of a finite set of chains, the operator (Uf)(c) = f(extended
dynamics of c) is a partial permutation, stored as the index map ``sigma``,
and functions of the zeroth coordinate act as the diagonal algebra A, stored
as vectors.  Every structural identity of the coefficient-algebra framework
(partial isometry, Ua = delta(a)U, generalized inverses, kernel/annihilator
and carrier relations, commutativity of the generated algebra B) then
becomes a machine-checkable gather/scatter identity on ``sigma``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import EPS_CHAIN, PartialMapSystem, UNIT_INTERVAL, Branch
from .extension import Chain, ExtensionSpec, alpha_tilde, validate_chain
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
    spec: ExtensionSpec
    chains: tuple[Chain, ...]
    sigma: np.ndarray               # chain i maps to chain sigma[i]; -1: none
    a_gens: dict                    # name -> diagonal vector
    closure_depth: int

    @property
    def dim(self) -> int:
        return len(self.chains)

    @property
    def U(self) -> np.ndarray:
        """The dense partial permutation matrix, U[i, sigma[i]] = 1."""
        U = np.zeros((self.dim, self.dim))
        rows = np.flatnonzero(self.sigma >= 0)
        U[rows, self.sigma[rows]] = 1.0
        return U


def _canonical(spec: ExtensionSpec, c: Chain, depth: int) -> Chain:
    """Terminal chains keep their length; non-terminal truncations are
    stored at exactly ``depth`` coordinates past the head."""
    if c.terminal or c.depth == depth:
        return c
    if c.depth > depth:
        return Chain(c.coords[:depth + 1], False)
    # extend deterministically by the first available preimage branch
    coords = list(c.coords)
    while len(coords) - 1 < depth:
        xs = spec.ordered_preimages(coords[-1])
        if not xs:
            raise ValueError("non-terminal chain cannot be extended to the "
                             "canonical depth")
        coords.append(xs[0])
    return Chain(tuple(coords), False)


def build_model(spec: ExtensionSpec, seed_chains: Sequence[Chain],
                closure_depth: int, size_cap: int = 5000,
                a_funcs: Optional[dict] = None) -> FiniteModel:
    """Close the seeds under the extension dynamics and its inverse (up to
    ``closure_depth``), recording sigma as each chain's forward image joins
    the basis, then assemble the diagonal generators.

    sigma[i] = j iff chain j is the image of chain i under the extension
    dynamics; chains whose image leaves the basis get -1
    (finite-dimensional compression)."""
    a_funcs = dict(DEFAULT_A_FUNCS) if a_funcs is None else a_funcs
    basis: list[Chain] = []
    sigma: list[int] = []
    index: dict = {}
    pending: list[int] = []

    def add(c: Chain) -> int:
        """The basis index of c, appended and queued when new."""
        c = _canonical(spec, c, closure_depth)
        if not validate_chain(spec, c):
            raise ValueError(f"invalid chain in model basis: {c}")
        k = c.key()
        if k not in index:
            if len(basis) >= size_cap:
                raise ClosureOverflow(f"basis exceeded size cap {size_cap}")
            index[k] = len(basis)
            basis.append(c)
            sigma.append(-1)
            pending.append(index[k])
        return index[k]

    for c in seed_chains:
        add(c)
    while pending:
        i = pending.pop()
        c = basis[i]
        if spec.system.in_domain(c.coords[0]):
            img = alpha_tilde(spec, c)
            if not (img.terminal and img.depth > closure_depth):
                sigma[i] = add(img)
        if len(c.coords) >= 2:
            try:
                tail = _canonical(spec, Chain(c.coords[1:], c.terminal),
                                  closure_depth)
            except ValueError:
                continue  # a truncation with no backward continuation
            add(tail)

    gens = {name: np.array([f(c.coords[0]) for c in basis])
            for name, f in a_funcs.items()}
    return FiniteModel(spec, tuple(basis), np.array(sigma, dtype=int), gens,
                       closure_depth)


# ---------------------------------------------------------------------------
# Reports


@dataclass
class OperatorCheckReport:
    residuals: dict = field(default_factory=dict)
    threshold: float = THRESHOLD

    def record(self, name: str, value: float) -> None:
        self.residuals[name] = float(value)

    def passes(self, name: str) -> bool:
        return self.residuals[name] <= self.threshold

    def all_pass(self) -> bool:
        return all(v <= self.threshold for v in self.residuals.values())

    def merge(self, other: "OperatorCheckReport") -> "OperatorCheckReport":
        out = OperatorCheckReport(threshold=self.threshold)
        out.residuals = {**self.residuals, **other.residuals}
        return out

    def to_json(self) -> dict:
        return {name: {"residual": res, "pass": res <= self.threshold}
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
    """The diagonal of delta(b) = UbU*: b gathered through sigma."""
    return np.where(sigma >= 0, b[sigma], 0.0)


def _delta_star(sigma: np.ndarray, b: np.ndarray) -> np.ndarray:
    """U*bU, which is diagonal: b scattered (summed) through sigma."""
    dom = sigma >= 0
    return np.bincount(sigma[dom], weights=b[dom], minlength=sigma.size)


def _max(v: np.ndarray) -> float:
    return float(np.max(v)) if v.size else 0.0


def verify_coefficient_relations(m: FiniteModel) -> OperatorCheckReport:
    """The defining relations of a coefficient algebra: conjugation by U
    and U* keeps A diagonal, Ua = delta(a)U, U is a partial isometry, and
    U*U lies in the commutant of A."""
    rep = OperatorCheckReport()
    k = _fibre_sizes(m.sigma)
    extra = np.maximum(k - 1.0, 0.0)
    a_abs = np.zeros(m.dim)
    for a in m.a_gens.values():
        a_abs = np.maximum(a_abs, np.abs(a))
    # off-diagonal part of delta(a): a_j (J - 1) on fibre j
    rep.record("UaU*_diagonal", _max(a_abs * extra))
    # U has at most one entry per row, so U*aU is diagonal
    rep.record("U*aU_diagonal", 0.0)
    # Ua - delta(a)U has k_j entries a_j (1 - k_j) in column j
    rep.record("Ua_equals_delta(a)U", _max(a_abs * extra * np.sqrt(k)))
    rep.record("partial_isometry_UU*U=U", _max(extra * np.sqrt(k)))
    # U*U = diag(k) is diagonal, so it commutes with A
    rep.record("U*U_in_commutant_of_A", 0.0)
    # delta(1) = U 1 U* is UU* by definition
    rep.record("delta(1)_equals_UU*", 0.0)
    return rep


@dataclass(frozen=True)
class BAlgebra:
    gens: np.ndarray      # row g: the diagonal of the generator U*^n a U^n
    names: tuple
    classes: np.ndarray   # joint-eigenvalue class of each chain
    vanishing: np.ndarray  # one entry per class: every generator is 0 there


def build_B(m: FiniteModel, n_max: int) -> BAlgebra:
    """Generators of B = C*(union of U*^n A U^n) and the partition of the
    basis into joint-eigenvalue classes (chains whose generator values
    agree to 8 digits), which determines the algebra B generates."""
    gens, names = [], []
    level = {name: np.asarray(a, dtype=float) for name, a in m.a_gens.items()}
    for n in range(n_max + 1):
        for name, b in level.items():
            gens.append(b)
            names.append(f"U*^{n} {name} U^{n}")
        level = {name: _delta_star(m.sigma, b) for name, b in level.items()}
    gens = np.array(gens, dtype=float).reshape(len(gens), m.dim)
    index: dict = {}
    classes = np.array([index.setdefault(tuple(col), len(index))
                        for col in (np.round(gens, 8) + 0.0).T.tolist()],
                       dtype=int)
    vanishing = np.array([not any(key) for key in index], dtype=bool)
    return BAlgebra(gens, tuple(names), classes, vanishing)


def _distance_to_B(B: BAlgebra, v: np.ndarray) -> float:
    """Sup-norm distance from diag(v) to the C*-algebra B generates.  B is
    commutative and diagonal, so that algebra is the set of vectors that
    are constant on each joint-eigenvalue class and vanish on the classes
    where every generator vanishes."""
    n = len(B.vanishing)
    hi = np.full(n, -np.inf)
    lo = np.full(n, np.inf)
    np.maximum.at(hi, B.classes, v)
    np.minimum.at(lo, B.classes, v)
    return _max(np.where(B.vanishing, np.maximum(hi, -lo), 0.5 * (hi - lo)))


def verify_reversibility(m: FiniteModel, B: BAlgebra) -> OperatorCheckReport:
    """Generalized-inverse identities of delta(b) = UbU* on B, and
    invariance of B under conjugation by U and U*."""
    sigma = m.sigma
    dom = sigma >= 0
    rep = OperatorCheckReport()
    k = _fibre_sizes(sigma)
    r1 = r2 = r_mem_down = r_mem_up = r_ideal = 0.0
    for b in B.gens:
        s = _delta_star(sigma, b)
        # delta(dstar(delta(b))) - delta(b) = delta((k^2 - 1) b)
        r1 = max(r1, _max(np.abs(b * (k * k - 1.0)) * k))
        # dstar(delta(dstar(b))) - dstar(b) = diag((k^2 - 1) s)
        r2 = max(r2, _max(np.abs(s * (k * k - 1.0))))
        off = _max(np.abs(b) * np.maximum(k - 1.0, 0.0))
        r_mem_down = max(r_mem_down,
                         off + _distance_to_B(B, _delta_diag(sigma, b)))
        r_mem_up = max(r_mem_up, _distance_to_B(B, s))
        # delta(dstar(b)) - UU*b is the rank-one block 1 w^T on each fibre,
        # w_l = s_j - b_l, of norm sqrt(k_j) |w|
        w = np.where(dom, _delta_diag(sigma, s) - b, 0.0)
        w2 = np.bincount(sigma[dom], weights=w[dom] ** 2, minlength=m.dim)
        r_ideal = max(r_ideal, math.sqrt(_max(k * w2)))
    rep.record("delta_dstar_delta=delta", r1)
    rep.record("dstar_delta_dstar=dstar", r2)
    rep.record("UBU*_in_B", r_mem_down)
    rep.record("U*BU_in_B", r_mem_up)
    rep.record("delta_range_is_UU*B", r_ideal)
    # the generators are diagonal, so B is commutative
    rep.record("B_commutative", 0.0)
    return rep


@dataclass(frozen=True)
class IdealData:
    UstarU: np.ndarray         # diagonal of U*U
    Q: np.ndarray              # diagonal of the carrier of ker(delta|A)
    kernel_classes: tuple      # index sets of x0-classes with delta = 0
    ideal_classes: tuple       # index sets annihilated by U*U


def _x0_classes(m: FiniteModel) -> list[tuple[int, ...]]:
    classes: dict = {}
    for i, c in enumerate(m.chains):
        classes.setdefault(round(c.coords[0], 9), []).append(i)
    return [tuple(v) for _, v in sorted(classes.items())]


def kernel_annihilator_check(m: FiniteModel):
    """ker(delta restricted to A) versus the ideal (1-U*U)A intersected
    with A, the carrier Q of that ideal, and the bound U*U <= P = 1 - Q.

    A is the algebra of functions of the zeroth coordinate, i.e. diagonal
    matrices constant on x0-classes of the basis."""
    rep = OperatorCheckReport()
    sigma = m.sigma
    classes = _x0_classes(m)
    label = np.empty(m.dim, dtype=int)
    for c, cls in enumerate(classes):
        label[list(cls)] = c
    UstarU = _fibre_sizes(sigma)
    # delta(e) = UeU* vanishes iff no image of U lies in the class of e
    hit = np.zeros(len(classes), dtype=bool)
    hit[label[sigma[sigma >= 0]]] = True
    # U*U e = diag(k) e vanishes iff k is zero on the class of e
    charged = np.bincount(label, weights=UstarU, minlength=len(classes)) > 0
    kernel = [cls for cls, h in zip(classes, hit) if not h]
    ideal = [cls for cls, h in zip(classes, charged) if not h]
    rep.record("ker_delta_equals_(1-U*U)A_cap_A",
               0.0 if kernel == ideal else 1.0)
    Q = (~hit[label]).astype(float)
    rep.record("U*U_leq_P", max(0.0, _max(UstarU - (1.0 - Q))))
    # Q is diagonal, so it commutes with A
    rep.record("Q_in_commutant_of_A", 0.0)
    data = IdealData(UstarU, Q, tuple(kernel), tuple(ideal))
    return data, rep


def spectrum_matches_extension(m: FiniteModel, B: BAlgebra) -> OperatorCheckReport:
    """The finite Gelfand shadow: joint eigenvalue tuples of B separate
    exactly the distinct chains, and sigma implements the extension
    dynamics on the index set."""
    rep = OperatorCheckReport()
    rep.record("B_separates_chains",
               0.0 if len(B.vanishing) == m.dim else 1.0)
    index = {c.key(): j for j, c in enumerate(m.chains)}
    bad = 0
    for i, c in enumerate(m.chains):
        if not m.spec.system.in_domain(c.coords[0]):
            if m.sigma[i] >= 0:
                bad += 1
            continue
        img = alpha_tilde(m.spec, c)
        if img.terminal and img.depth > m.closure_depth:
            continue
        img = _canonical(m.spec, img, m.closure_depth)
        j = index.get(img.key())
        if j is not None and m.sigma[i] != j:
            bad += 1
    rep.record("U_implements_chain_shift", float(bad))
    return rep


def full_report(m: FiniteModel, n_max: Optional[int] = None) -> OperatorCheckReport:
    """All registered checks on one model."""
    if n_max is None:
        n_max = max(c.depth for c in m.chains)
    rep = verify_coefficient_relations(m)
    B = build_B(m, n_max)
    rep = rep.merge(verify_reversibility(m, B))
    _, krep = kernel_annihilator_check(m)
    rep = rep.merge(krep)
    rep = rep.merge(spectrum_matches_extension(m, B))
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
    from .core import make_constant_system
    grid = [j / (n_points - 1) for j in range(n_points)]
    if any(abs(y - p) <= EPS_CHAIN for y in grid):
        raise InseparableModel(
            f"grid point equals p={p!r}: the terminal chain at p and the "
            f"constant chain cannot be separated at depth {depth}")
    spec = ExtensionSpec(make_constant_system(p), ((0.0, 1.0),))
    seeds = [Chain((y,), True) for y in grid]
    seeds.append(Chain((p,) * (depth + 1), False))
    return build_model(spec, seeds, depth)


def rotation_model(tau: float = 1.0 / 3.0, depth: int = 6) -> FiniteModel:
    """A rigid rotation with Y a single point: a finite ladder of strata."""
    from .core import make_rotation_system
    spec = ExtensionSpec(make_rotation_system(tau), ((0.0, 0.0),))
    seeds = [Chain((0.0,), True)]
    return build_model(spec, seeds, depth)


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
        name=f"logistic-period3(lam={lam})",
    )
    spec = ExtensionSpec(system, ())
    seeds = []
    for k in range(3):
        coords = [orbit[(k - j) % 3] for j in range(depth + 1)]
        seeds.append(Chain(tuple(coords), False))
    return build_model(spec, seeds, depth)
