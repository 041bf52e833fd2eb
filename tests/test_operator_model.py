"""Operator-model tests: partial-permutation structure of U, the
coefficient-algebra relations, generalized inverses, kernel/annihilator and
carrier identities, and spectrum separation on the three reference models,
plus a dense-matrix oracle for every residual of the index-map report and
for the five identities that the index maps make hold by construction."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (chain_key, chain_rows, doubling_spec, model_chains,
                      scalar_alpha_tilde, scalar_preimages)
from revext import operator_model as om
from revext.extension import INF, Chain, sample_stratum
from revext.logistic import extension_spec


@pytest.fixture(scope="module")
def models():
    return {
        "constant": om.constant_model(),
        "rotation": om.rotation_model(),
        "period3": om.logistic_period3_model(),
    }


def test_partial_permutation_structure(models):
    for m in models.values():
        U = _dense_U(m)
        assert set(np.unique(U)) <= {0.0, 1.0}
        assert np.all(U.sum(axis=1) <= 1.0)
        assert np.all(U.sum(axis=0) <= 1.0)
        # powers stay partial permutations
        P = np.eye(m.dim)
        for _ in range(m.dim):
            P = P @ U
            assert set(np.unique(P)) <= {0.0, 1.0}
            assert np.all(P.sum(axis=1) <= 1.0)


def test_coefficient_relations(models):
    for m in models.values():
        rep = om.verify_coefficient_relations(m)
        assert rep.all_pass(), rep.residuals


def test_reversibility(models):
    for m in models.values():
        B = om.build_B(m, n_max=int(m.depths.max()))
        rep = om.verify_reversibility(m, B)
        assert rep.all_pass(), rep.residuals


def test_kernel_annihilator_and_carrier(models):
    for name, m in models.items():
        data, rep = om.kernel_annihilator_check(m)
        assert rep.all_pass(), (name, rep.residuals)
        # Q is the support projection of the kernel classes
        assert data.Q.sum() == sum(len(c) for c in data.kernel_classes)


def test_rotation_model_is_ladder(models):
    m = models["rotation"]
    # strata 0..depth, one chain each, in rows as wide as the closure depth
    width = m.coords.shape[1]
    assert m.dim == width and m.terminal.all()
    assert sorted(m.depths) == list(range(width))
    # the deepest stratum is compressed away: its U-row is zero
    assert not _dense_U(m)[m.depths.argmax()].any()
    data, _ = om.kernel_annihilator_check(m)
    # exactly the shallowest chain is not in the range of U
    assert data.UstarU.sum() == m.dim - 1


def test_period3_model_is_unitary_cycle(models):
    m = models["period3"]
    assert m.dim == 3
    U = _dense_U(m)
    assert np.allclose(U.T @ U, np.eye(3))
    assert np.allclose(np.linalg.matrix_power(U, 3), np.eye(3))
    assert not np.allclose(U, np.eye(3))
    data, _ = om.kernel_annihilator_check(m)
    assert data.kernel_classes == ()  # delta injective on A


def test_constant_model_counts(models):
    m = models["constant"]
    # 3 grid points at each of 4 depths, plus the constant infinite chain
    assert m.dim == 13
    assert np.count_nonzero(~m.terminal) == 1


def test_spectrum_matches_extension(models):
    for m in models.values():
        B = om.build_B(m, n_max=int(m.depths.max()))
        rep = om.spectrum_matches_extension(m, B)
        assert rep.all_pass(), rep.residuals


def test_full_report_json(models, tmp_path):
    rep = om.full_report(models["rotation"])
    path = tmp_path / "report.json"
    rep.dump(path)
    import json
    doc = json.loads(path.read_text())
    assert all(entry["pass"] for entry in doc.values())
    assert "partial_isometry_UU*U=U" in doc


def test_build_model_rejects_invalid_seed():
    spec = extension_spec(0.6)
    with pytest.raises(ValueError):
        om.build_model(spec, *chain_rows([Chain((0.5, 0.9), True)]),
                       closure_depth=2)


def test_closure_overflow():
    spec = extension_spec(1.0)  # full binary backward tree
    seeds = [Chain((0.3,), False)]  # completed to depth 6
    with pytest.raises(om.ClosureOverflow):
        om.build_model(spec, *chain_rows(seeds), closure_depth=6,
                       size_cap=10)


def test_canonical_depth_invariance():
    # alpha_tilde on a canonical non-terminal chain stays canonical and
    # U row targets agree with the chain-level dynamics
    m = om.logistic_period3_model(depth=4)
    chains = model_chains(m)
    for i, c in enumerate(chains):
        img = _canonical(m.spec, scalar_alpha_tilde(m.spec, c), 4)
        j = [k for k, d in enumerate(chains) if chain_key(d) == chain_key(img)]
        assert len(j) == 1 and _dense_U(m)[i, j[0]] == 1.0


@pytest.mark.parametrize("n_points", [5, 6])
@pytest.mark.parametrize("depth", [2, 3])
def test_constant_model_grid_sizes(n_points, depth):
    m = om.constant_model(n_points=n_points, depth=depth)
    rep = om.full_report(m)
    assert rep.all_pass(), rep.residuals


@pytest.mark.parametrize("n_points, p", [(4, 1.0 / 3.0), (3, 0.5),
                                         (5, 0.75 + 1e-12)])
def test_constant_model_rejects_grid_point_at_p(n_points, p):
    with pytest.raises(om.InseparableModel) as exc:
        om.constant_model(p=p, n_points=n_points)
    assert isinstance(exc.value, ValueError)


def test_constant_model_rejects_fewer_than_two_points():
    # the grid j / (n_points - 1) divided by zero
    for n_points in (1, 0):
        with pytest.raises(ValueError, match="n_points"):
            om.constant_model(n_points=n_points)


@pytest.mark.parametrize("closure_depth", [-1, 1.5, True])
def test_build_model_rejects_a_bad_closure_depth(closure_depth):
    with pytest.raises(ValueError, match="closure_depth"):
        om.build_model(extension_spec(0.6),
                       *chain_rows([Chain((0.7,), True)]), closure_depth)


def test_build_model_rejects_no_seeds():
    # a dim-0 model made full_report raise "max() arg is an empty sequence"
    with pytest.raises(ValueError, match="seed"):
        om.build_model(extension_spec(0.6), np.empty((0, 1)),
                       np.empty(0, dtype=bool), 3)


def test_build_model_rejects_a_terminal_seed_deeper_than_the_closure():
    spec = extension_spec(0.6)
    y = 0.8
    deep = Chain((4.0 * 0.6 * y * (1.0 - y), y), True)
    assert om.build_model(spec, *chain_rows([deep]), 1).dim >= 2
    with pytest.raises(ValueError, match="seed chain for closure_depth 0"):
        om.build_model(spec, *chain_rows([deep]), 0)


@pytest.mark.parametrize("coords", [(math.nan, 0.5), (math.nan,),
                                    (math.inf,), (2.0,)])
def test_build_model_rejects_a_seed_outside_the_space(coords):
    with pytest.raises(ValueError, match="invalid seed"):
        om.build_model(extension_spec(0.6),
                       *chain_rows([Chain(coords, False)]), 2)


def test_build_model_rejects_a_map_that_leaves_the_space():
    # x -> 2x on Delta = Y = [0, 1] carries the seed 0.4 to 1.6, a head
    # outside [0, 1]; that basis chain passed validation and full_report
    # reported all pass on dim 3
    spec = doubling_spec()
    seed = chain_rows([Chain((0.4,), True)])
    with pytest.raises(ValueError, match="1.6"):
        om.build_model(spec, *seed, 3)
    assert om.build_model(spec, *seed, 1).dim == 2


def test_no_a_generators_leaves_one_joint_eigenvalue_class():
    # B is generated by nothing, so every chain is in one class and B does
    # not separate the chains of the ladder; the other checks hold
    m = om.build_model(om.rotation_model().spec,
                       *chain_rows([Chain((0.0,), True)]), 3, a_funcs={})
    B = om.build_B(m, 3)
    assert B.gens.shape == (0, 4) and B.classes.tolist() == [0, 0, 0, 0]
    assert B.vanishing.tolist() == [True]
    failing = [k for k, v in om.full_report(m).residuals.items() if v > 0]
    assert failing == ["B_separates_chains"]


# ---------------------------------------------------------------------------
# Scalar closure oracle: the closure as it ran one Chain at a time before
# the basis became rows, depth-first from a stack of pending chains.


def _canonical(spec, c, depth):
    """Terminal chains keep their length; non-terminal truncations are
    stored at exactly ``depth`` coordinates past the head."""
    if c.terminal or c.depth == depth:
        return c
    if c.depth > depth:
        return Chain(c.coords[:depth + 1], False)
    coords = list(c.coords)
    while len(coords) - 1 < depth:
        xs = scalar_preimages(spec.system, coords[-1])
        if not xs:
            raise ValueError("non-terminal chain cannot be extended to the "
                             "canonical depth")
        coords.append(xs[0])
    return Chain(tuple(coords), False)


def _scalar_closure(spec, seeds, closure_depth):
    """The basis chains and sigma of the closure of the seeds."""
    basis, sigma, index, pending = [], [], {}, []

    def add(c):
        c = _canonical(spec, c, closure_depth)
        k = chain_key(c)
        if k not in index:
            index[k] = len(basis)
            basis.append(c)
            sigma.append(-1)
            pending.append(index[k])
        return index[k]

    for c in seeds:
        add(c)
    while pending:
        i = pending.pop()
        c = basis[i]
        if spec.system.in_domain(c.coords[0]):
            img = scalar_alpha_tilde(spec, c)
            if not (img.terminal and img.depth > closure_depth):
                sigma[i] = add(img)
        if len(c.coords) >= 2:
            try:
                tail = _canonical(spec, Chain(c.coords[1:], c.terminal),
                                  closure_depth)
            except ValueError:
                continue
            add(tail)
    return basis, sigma


def _oracle_model(spec, seeds, closure_depth):
    """The scalar closure as a FiniteModel, for full_report."""
    basis, sigma = _scalar_closure(spec, seeds, closure_depth)
    coords = np.full((len(basis), closure_depth + 1), np.nan)
    for i, c in enumerate(basis):
        coords[i, :len(c.coords)] = c.coords
    gens = {name: np.array([f(c.coords[0]) for c in basis])
            for name, f in om.DEFAULT_A_FUNCS.items()}
    return om.FiniteModel(spec, coords,
                          np.array([c.terminal for c in basis]),
                          np.array(sigma, dtype=int), gens)


def _assert_same_closure(m, oracle):
    """The same key classes, sigma equal up to relabelling, and the same
    full_report residuals."""
    keys = [chain_key(c) for c in model_chains(m)]
    okeys = [chain_key(c) for c in model_chains(oracle)]
    assert len(set(keys)) == m.dim and sorted(keys) == sorted(okeys)
    where = {k: i for i, k in enumerate(keys)}
    relabel = np.array([where[k] for k in okeys])
    expected = np.full(m.dim, -1)
    mapped = oracle.sigma >= 0
    expected[relabel[mapped]] = relabel[oracle.sigma[mapped]]
    expected[relabel[~mapped]] = -1
    np.testing.assert_array_equal(m.sigma, expected)
    assert om.full_report(m).residuals == om.full_report(oracle).residuals


def _finite_seeds(spec, density, top):
    """The terminal chains of M_0 ... M_top."""
    return [c for N in range(top + 1)
            for c in sample_stratum(spec, N, density).chains]


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.5, 0.99), closure_depth=st.integers(2, 8))
def test_closure_matches_the_scalar_oracle(lam, closure_depth):
    # seeds: the terminal chains of M_0 ... M_3 at density 8, none deeper
    # than the closure
    spec = extension_spec(lam)
    seeds = _finite_seeds(spec, 8, min(3, closure_depth))
    _assert_same_closure(om.build_model(spec, *chain_rows(seeds),
                                        closure_depth),
                         _oracle_model(spec, seeds, closure_depth))


@pytest.mark.parametrize("closure_depth", [2, 3, 4])
def test_completed_chains_match_the_scalar_oracle(closure_depth):
    # a non-terminal seed and every non-terminal tail are completed by the
    # first preimage; finite-strata seeds complete nothing
    spec = extension_spec(0.7)
    seeds = [Chain((0.3,), False)]
    _assert_same_closure(om.build_model(spec, *chain_rows(seeds),
                                        closure_depth),
                         _oracle_model(spec, seeds, closure_depth))


@pytest.mark.parametrize("lam", [0.6, 0.8])
def test_truncated_infinite_chains_fail_as_the_scalar_oracle_fails(lam):
    # depth-truncated M_inf chains merge under the extension dynamics, so
    # sigma is not injective and the basis depends on which chain of a
    # rounded class is kept; the failing checks must not
    spec = extension_spec(lam)
    seeds = _finite_seeds(spec, 6, 2) + list(
        sample_stratum(spec, INF, 6, depth=3).chains)

    def failing(m):
        return {k for k, v in om.full_report(m).residuals.items()
                if v > om.THRESHOLD}

    found = failing(om.build_model(spec, *chain_rows(seeds), 3))
    assert "partial_isometry_UU*U=U" in found
    assert found == failing(_oracle_model(spec, seeds, 3))


@pytest.mark.parametrize("name", ["constant", "rotation", "period3"])
def test_stock_models_match_the_scalar_oracle(name):
    m = getattr(om, f"{name}_model" if name != "period3"
                else "logistic_period3_model")()
    seeds = model_chains(m)
    _assert_same_closure(m, _oracle_model(m.spec, seeds,
                                          m.coords.shape[1] - 1))


def test_deep_rotation_model_matches_the_scalar_oracle():
    # a ladder: each layer of the closure is one chain, 201 layers in all
    m = om.rotation_model(depth=200)
    assert m.dim == 201
    _assert_same_closure(m, _oracle_model(m.spec, [Chain((0.0,), True)],
                                          200))


# ---------------------------------------------------------------------------
# Dense oracle: the same identities with U as a matrix and every algebra
# element a dim x dim matrix, so the index-map residuals are checked against
# an independent computation.


def _generated_algebra(diagonals: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the algebra generated by the diagonal
    matrices with the given diagonals: all finite products, found by
    multiplying by the generators until the span stops growing."""
    basis = np.zeros((0, diagonals.shape[1]))
    span = diagonals
    while True:
        _, s, vt = np.linalg.svd(np.vstack([basis, span]),
                                 full_matrices=False)
        grown = vt[s > 1e-9 * s[0]] if s.size else vt[:0]
        if len(grown) == len(basis):
            return basis
        basis = grown
        span = (basis[:, None, :] * diagonals[None, :, :]).reshape(
            -1, diagonals.shape[1])


def _dense_U(m) -> np.ndarray:
    U = np.zeros((m.dim, m.dim))
    for i, j in enumerate(m.sigma):
        if j >= 0:
            U[i, j] = 1.0
    return U


def _dense_generators(m) -> list:
    """The generators U*^n a U^n of B as dense matrices."""
    U, Un, gens = _dense_U(m), np.eye(m.dim), []
    for _ in range(int(m.depths.max()) + 1):
        gens += [Un.T @ np.diag(a) @ Un for a in m.a_gens.values()]
        Un = Un @ U
    return gens


def _dense_report(m) -> dict:
    dim = m.dim
    U = _dense_U(m)
    eye = np.eye(dim)

    def norm(M):
        return float(np.linalg.norm(M, 2))

    def off(M):
        return M - np.diag(np.diag(M))

    def delta(M):
        return U @ M @ U.T

    def dstar(M):
        return U.T @ M @ U

    A = [np.diag(a) for a in m.a_gens.values()]
    res = {
        "UaU*_diagonal": max(norm(off(delta(a))) for a in A),
        "U*aU_diagonal": max(norm(off(dstar(a))) for a in A),
        "Ua_equals_delta(a)U": max(norm(U @ a - delta(a) @ U) for a in A),
        "partial_isometry_UU*U=U": norm(U @ U.T @ U - U),
        "U*U_in_commutant_of_A":
            max(norm(U.T @ U @ a - a @ U.T @ U) for a in A),
        "delta(1)_equals_UU*": norm(delta(eye) - U @ U.T),
    }
    gens = _dense_generators(m)
    algebra = _generated_algebra(np.array([np.diag(g) for g in gens]))

    def outside_B(M):
        v = np.diag(M)
        return norm(off(M)) + float(np.linalg.norm(
            v - algebra.T @ (algebra @ v)))

    res.update({
        "delta_dstar_delta=delta":
            max(norm(delta(dstar(delta(g))) - delta(g)) for g in gens),
        "dstar_delta_dstar=dstar":
            max(norm(dstar(delta(dstar(g))) - dstar(g)) for g in gens),
        "UBU*_in_B": max(outside_B(delta(g)) for g in gens),
        "U*BU_in_B": max(outside_B(dstar(g)) for g in gens),
        "delta_range_is_UU*B":
            max(norm(delta(dstar(g)) - U @ U.T @ g) for g in gens),
        "B_commutative":
            max(norm(g @ h - h @ g) for g in gens for h in gens),
    })
    chains = model_chains(m)
    by_x0: dict = {}
    for i, c in enumerate(chains):
        by_x0.setdefault(round(c.coords[0], 9), []).append(i)
    projections = []
    for _, idx in sorted(by_x0.items()):
        E = np.zeros((dim, dim))
        E[idx, idx] = 1.0
        projections.append(E)
    kernel = [k for k, E in enumerate(projections) if norm(delta(E)) <= 1e-12]
    ideal = [k for k, E in enumerate(projections)
             if norm(U.T @ U @ E) <= 1e-12]
    Q = sum((projections[k] for k in kernel), np.zeros((dim, dim)))
    res.update({
        "ker_delta_equals_(1-U*U)A_cap_A": 0.0 if kernel == ideal else 1.0,
        "U*U_leq_P": max(0.0, -np.diag(eye - Q - U.T @ U).min()),
        "Q_in_commutant_of_A": max(norm(Q @ a - a @ Q) for a in A),
    })
    eigen = {tuple(round(float(g[i, i]), 8) for g in gens)
             for i in range(dim)}
    index = {chain_key(c): j for j, c in enumerate(chains)}
    closure_depth = m.coords.shape[1] - 1
    bad = 0
    for i, c in enumerate(chains):
        row = np.nonzero(U[i])[0]
        if not m.spec.system.in_domain(c.coords[0]):
            bad += len(row) != 0
            continue
        img = scalar_alpha_tilde(m.spec, c)
        if img.terminal and img.depth > closure_depth:
            continue
        j = index.get(chain_key(_canonical(m.spec, img, closure_depth)))
        if j is not None:
            bad += len(row) != 1 or row[0] != j
    res.update({"B_separates_chains": 0.0 if len(eigen) == dim else 1.0,
                "U_implements_chain_shift": float(bad)})
    return res


def _non_injective_ladder():
    # chains 0 and 3 of the depth-3 rotation ladder both map onto chain 1
    return replace(om.rotation_model(depth=3), sigma=np.array([1, 2, 3, 1]))


ORACLE_MODELS = {
    "constant": om.constant_model,
    "rotation": om.rotation_model,
    "period3": om.logistic_period3_model,
    **{f"constant{k}_depth{d}":
       (lambda k=k, d=d: om.constant_model(n_points=k, depth=d))
       for k in (5, 6) for d in (2, 3)},
    "non_injective": _non_injective_ladder,
    # the paper's model example: logistic models seeded by M_0 and M_1
    **{f"logistic{lam}_density{k}_depth{d}":
       (lambda lam=lam, k=k, d=d: om.build_model(
           extension_spec(lam),
           *chain_rows(_finite_seeds(extension_spec(lam), k, 1)), d))
       for lam, k, d in ((0.6, 3, 2), (0.8, 4, 3), (0.95, 4, 2))},
    # A = C(1) and chain 0 mapped onto chain 2: B is spanned by 1 and the
    # indicator of chain 2, and delta of that indicator (the indicator of
    # chain 0) lies outside B
    "delta_leaves_B": lambda: replace(
        om.rotation_model(depth=2), sigma=np.array([2, -1, -1]),
        a_gens={"one": np.ones(3)}),
}


# Identities that hold by the index-map representation, so the report
# leaves them out; the dense oracle still checks them on every model.
IDENTITIES = ("U*aU_diagonal", "U*U_in_commutant_of_A", "delta(1)_equals_UU*",
              "B_commutative", "Q_in_commutant_of_A")


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_full_report_matches_dense_oracle(name):
    m = ORACLE_MODELS[name]()
    assert m.dim <= 50
    B = om.build_B(m, int(m.depths.max()))
    np.testing.assert_allclose(
        B.gens, [np.diag(g) for g in _dense_generators(m)], rtol=1e-14,
        atol=0)
    rep = om.full_report(m)
    dense = _dense_report(m)
    held = {k: dense.pop(k) for k in IDENTITIES}
    assert all(v <= 1e-12 for v in held.values()), held
    assert rep.residuals.keys() == dense.keys() and len(dense) == 12
    verdicts = {k: (rep.residuals[k] <= 1e-12, dense[k] <= 1e-12)
                for k in dense}
    assert all(v == d for v, d in verdicts.values()), (verdicts, dense)


def test_non_injective_sigma_fails_partial_isometry():
    m = _non_injective_ladder()
    rep = om.full_report(m)
    assert rep.residuals["partial_isometry_UU*U=U"] > om.THRESHOLD
    assert _dense_report(m)["partial_isometry_UU*U=U"] > 1e-12
