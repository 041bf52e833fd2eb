"""Operator-model tests: partial-permutation structure of U, the
coefficient-algebra relations, generalized inverses, kernel/annihilator and
carrier identities, and spectrum separation on the three reference models,
plus a dense-matrix oracle for every residual of the index-map report."""

from dataclasses import replace

import numpy as np
import pytest

from revext import operator_model as om
from revext.extension import Chain, alpha_tilde
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
        U = m.U
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
        B = om.build_B(m, n_max=max(c.depth for c in m.chains))
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
    # strata 0..depth, one chain each
    assert m.dim == m.closure_depth + 1
    depths = sorted(c.depth for c in m.chains)
    assert depths == list(range(m.closure_depth + 1))
    # the deepest stratum is compressed away: its U-row is zero
    deepest = max(range(m.dim), key=lambda i: m.chains[i].depth)
    assert not m.U[deepest].any()
    data, _ = om.kernel_annihilator_check(m)
    # exactly the shallowest chain is not in the range of U
    assert data.UstarU.sum() == m.dim - 1


def test_period3_model_is_unitary_cycle(models):
    m = models["period3"]
    assert m.dim == 3
    U = m.U
    assert np.allclose(U.T @ U, np.eye(3))
    assert np.allclose(np.linalg.matrix_power(U, 3), np.eye(3))
    assert not np.allclose(U, np.eye(3))
    data, _ = om.kernel_annihilator_check(m)
    assert data.kernel_classes == ()  # delta injective on A


def test_constant_model_counts(models):
    m = models["constant"]
    # 3 grid points at each of 4 depths, plus the constant infinite chain
    assert m.dim == 13
    assert sum(1 for c in m.chains if not c.terminal) == 1


def test_spectrum_matches_extension(models):
    for m in models.values():
        B = om.build_B(m, n_max=max(c.depth for c in m.chains))
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
        om.build_model(spec, [Chain((0.5, 0.9), True)], closure_depth=2)


def test_closure_overflow():
    spec = extension_spec(1.0)  # full binary backward tree
    seeds = [om._canonical(spec, Chain((0.3,), False), 6)]
    with pytest.raises(om.ClosureOverflow):
        om.build_model(spec, seeds, closure_depth=6, size_cap=10)


def test_canonical_depth_invariance():
    # alpha_tilde on a canonical non-terminal chain stays canonical and
    # U row targets agree with the chain-level dynamics
    m = om.logistic_period3_model(depth=4)
    for i, c in enumerate(m.chains):
        img = om._canonical(m.spec, alpha_tilde(m.spec, c), m.closure_depth)
        j = [k for k, d in enumerate(m.chains) if d.key() == img.key()]
        assert len(j) == 1 and m.U[i, j[0]] == 1.0


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
    for _ in range(max(c.depth for c in m.chains) + 1):
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
    by_x0: dict = {}
    for i, c in enumerate(m.chains):
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
    index = {c.key(): j for j, c in enumerate(m.chains)}
    bad = 0
    for i, c in enumerate(m.chains):
        row = np.nonzero(U[i])[0]
        if not m.spec.system.in_domain(c.coords[0]):
            bad += len(row) != 0
            continue
        img = alpha_tilde(m.spec, c)
        if img.terminal and img.depth > m.closure_depth:
            continue
        j = index.get(om._canonical(m.spec, img, m.closure_depth).key())
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
    # A = C(1) and chain 0 mapped onto chain 2: B is spanned by 1 and the
    # indicator of chain 2, and delta of that indicator (the indicator of
    # chain 0) lies outside B
    "delta_leaves_B": lambda: replace(
        om.rotation_model(depth=2), sigma=np.array([2, -1, -1]),
        a_gens={"one": np.ones(3)}),
}


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_full_report_matches_dense_oracle(name):
    m = ORACLE_MODELS[name]()
    assert m.dim <= 50
    B = om.build_B(m, max(c.depth for c in m.chains))
    np.testing.assert_allclose(
        B.gens, [np.diag(g) for g in _dense_generators(m)], rtol=1e-14,
        atol=0)
    rep = om.full_report(m)
    dense = _dense_report(m)
    assert rep.residuals.keys() == dense.keys()
    verdicts = {k: (rep.residuals[k] <= 1e-12, dense[k] <= 1e-12)
                for k in dense}
    assert all(v == d for v, d in verdicts.values()), (verdicts, dense)


def test_non_injective_sigma_fails_partial_isometry():
    m = _non_injective_ladder()
    assert not om.full_report(m).passes("partial_isometry_UU*U=U")
    assert _dense_report(m)["partial_isometry_UU*U=U"] > 1e-12
