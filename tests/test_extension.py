"""Extension (chain space) tests: chain validation, the extended dynamics
and its inverse, the factor map, stratum sampling, the chain metric with a
brute-force Hausdorff oracle, and the semiconjugacy lift."""

import dataclasses
import json
import random
from collections import Counter

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

import revext.extension as ext
from revext.core import (CIRCLE, FactorMapSample, check_semiconjugacy,
                         make_constant_system, make_rotation_system)
from revext.extension import (INF, Chain, ChainExtensionSystem, EmptyStratum,
                              ExtensionSpec, InvalidLift,
                              InverseOrbitRecord, NotInImage, alpha_tilde,
                              alpha_tilde_inv, chain_distance, factor_map,
                              hausdorff, lift_semiconjugacy, sample_stratum,
                              stratum_from_json, stratum_to_json,
                              validate_chain, StratumSample)
from revext.logistic import attractor_points, eval_map, extension_spec


SPEC06 = extension_spec(0.6)


def test_validate_chain_accepts_backward_orbit():
    y = 0.8
    c = Chain((eval_map(0.6, y), y), True)
    assert validate_chain(SPEC06, c)


def test_validate_chain_rejects_broken_link():
    assert not validate_chain(SPEC06, Chain((0.5, 0.8), True))


def test_validate_chain_rejects_terminal_outside_Y():
    # Y = [0.6, 1]; a terminal chain must end there
    assert not validate_chain(SPEC06, Chain((0.1,), True))
    assert validate_chain(SPEC06, Chain((0.7,), True))


def test_alpha_tilde_prepends_image():
    # alpha_0.6(0.8) = 4*0.6*0.8*0.2 = 0.384 exactly
    c = Chain((0.8,), True)
    img = alpha_tilde(SPEC06, c)
    assert img.coords == pytest.approx((0.384, 0.8))
    assert img.terminal and img.depth == 1
    assert validate_chain(SPEC06, img)


def test_alpha_tilde_inverse_is_shift():
    c = Chain((0.384, 0.8), True)
    assert alpha_tilde_inv(SPEC06, c).coords == (0.8,)
    with pytest.raises(NotInImage):
        alpha_tilde_inv(SPEC06, Chain((0.8,), True))


def test_round_trip_identity_random_chains():
    rng = random.Random(7)
    for _ in range(200):
        y = 0.6 + 0.4 * rng.random()
        coords = [y]
        for _ in range(rng.randrange(4)):
            coords.insert(0, eval_map(0.6, coords[0]))
        c = Chain(tuple(coords), True)
        assert validate_chain(SPEC06, c)
        assert alpha_tilde_inv(SPEC06, alpha_tilde(SPEC06, c)) == c


def test_factor_map_semiconjugates_extension():
    sample_pts = []
    rng = random.Random(3)
    for _ in range(100):
        y = 0.6 + 0.4 * rng.random()
        coords = [y]
        for _ in range(rng.randrange(5)):
            coords.insert(0, eval_map(0.6, coords[0]))
        sample_pts.append(Chain(tuple(coords), True))
    sample = FactorMapSample(factor_map, tuple(sample_pts))
    report = check_semiconjugacy(sample, ChainExtensionSystem(SPEC06),
                                 SPEC06.system)
    assert report.domain_violations == 0
    assert report.max_residual < 1e-12


def test_stratum_shift():
    s5 = sample_stratum(SPEC06, 5, 20)
    for c in s5.chains:
        img = alpha_tilde(SPEC06, c)
        assert img.terminal and img.depth == 6
        assert validate_chain(SPEC06, img)


def test_sample_stratum_M0_is_Y():
    s0 = sample_stratum(SPEC06, 0, 10)
    for c in s0.chains:
        assert c.depth == 0 and SPEC06.in_Y(c.coords[0], 1e-9)
    heads = sorted(c.coords[0] for c in s0.chains)
    assert heads[0] == pytest.approx(0.6) and heads[-1] == pytest.approx(1.0)


def test_sample_stratum_chains_all_validate():
    for N in (0, 3, INF):
        s = sample_stratum(SPEC06, N, 25, depth=12,
                           extra_seeds=attractor_points(0.6))
        assert s.chains
        for c in s.chains:
            assert validate_chain(SPEC06, c)
            assert c.terminal == (N != INF)


def test_lambda_one_strata_empty_but_inverse_limit_nonempty():
    spec1 = extension_spec(1.0)
    for N in range(4):
        with pytest.raises(EmptyStratum):
            sample_stratum(spec1, N, 10)
    s = sample_stratum(spec1, INF, 10, depth=8)
    assert len(s.chains) > 1
    for c in s.chains:
        assert validate_chain(spec1, c) and not c.terminal


def _scalar_fill(spec):
    """The spec with its system's closed-form preimage table taken away, so
    the search fills its tables from ``ordered_preimages``."""
    return ExtensionSpec(dataclasses.replace(spec.system, preimage_table=None),
                         spec.Y)


@pytest.mark.parametrize("N", [8, INF])
def test_sample_stratum_computes_each_preimage_once(monkeypatch, N):
    calls = Counter()
    real = ext.preimages

    def counting(system, y):
        calls[y] += 1
        return real(system, y)

    monkeypatch.setattr(ext, "preimages", counting)
    spec = _scalar_fill(extension_spec(0.95))
    # the strata of one spec share its preimage lookup, so sampling N
    # first and then the others computes no point's preimages twice
    for M in [N] + [M for M in (4, 8, INF) if M != N]:
        s = sample_stratum(spec, M, 40, depth=20)
        for c in s.chains:
            assert validate_chain(spec, c)
    assert calls and max(calls.values()) == 1


def test_sample_stratum_batch_calls_do_not_depend_on_density(monkeypatch):
    # with a closed-form table each call computes one level of all the
    # searches of a stratum, however many seeds it starts from
    calls = []
    real = ext.preimages

    def counting(system, y):
        assert isinstance(y, np.ndarray) and y.ndim == 1
        calls[-1] += 1
        return real(system, y)

    monkeypatch.setattr(ext, "preimages", counting)
    per_density = []
    for density in (10, 40, 160):
        spec = extension_spec(0.95)
        calls.clear()
        for N in (3, 8, 12, INF):
            calls.append(0)
            sample_stratum(spec, N, density, depth=20)
        per_density.append(list(calls))
    assert per_density[0] == per_density[1] == per_density[2]
    assert all(per_density[0])


def test_preimage_lookup_leaves_spec_identity_alone():
    a = ExtensionSpec(SPEC06.system, SPEC06.Y)
    b = ExtensionSpec(SPEC06.system, SPEC06.Y)
    sample_stratum(a, 3, 10)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize("N, density", [
    (-1, 10), (-INF, 10), (2.5, 10), (3, 0), (3, -4), (INF, 0),
    (True, 10), (False, 10), (3, 10.5), (3, 10.0), (INF, 2.5), (3, True),
    (3, "10")])
def test_sample_stratum_rejects_invalid_input(N, density):
    with pytest.raises(ValueError):
        sample_stratum(SPEC06, N, density)


def test_sample_stratum_takes_numpy_integers():
    assert sample_stratum(SPEC06, np.int64(3), np.int64(10)) == \
        sample_stratum(SPEC06, 3, 10)


def test_constant_map_full_strata_singleton_infinity():
    p = 1.0 / 3.0
    spec = ExtensionSpec(make_constant_system(p), ((0.0, 1.0),))
    s2 = sample_stratum(spec, 2, 15)
    # every chain is (p, p, y): a full copy of M parametrized by y
    for c in s2.chains:
        assert c.coords[0] == pytest.approx(p)
        assert c.coords[1] == pytest.approx(p)
    assert len({round(c.coords[-1], 9) for c in s2.chains}) == len(s2.chains)
    si = sample_stratum(spec, INF, 15, depth=10)
    assert len(si.chains) == 1
    assert all(x == pytest.approx(p) for x in si.chains[0].coords)


def _recursive_search(spec, x0, depth, terminal):
    """The recursive backward search the sampler had before its lockstep
    one, as the oracle: backward chains from x0 out to ``depth``, every
    branch word down to the prefix depth, each completed by the first
    continuation in branch order and in reversed order (with
    backtracking).  Terminal chains must end in Y."""
    # a terminal chain always keeps its last step for the completion
    prefix_depth = min(ext.PREFIX_DEPTH, depth - 1 if terminal else depth)

    def complete(path, reverse):
        if len(path) - 1 == depth:
            if terminal and not spec.in_Y(path[-1], 1e-9):
                return None
            return tuple(path)
        xs = spec.ordered_preimages(path[-1])
        for x in (xs[::-1] if reverse else xs):
            path.append(x)
            got = complete(path, reverse)
            path.pop()
            if got is not None:
                return got
        return None

    def enumerate_prefix(path):
        if len(path) - 1 == prefix_depth:
            for reverse in (False, True):
                got = complete(path, reverse)
                if got is not None:
                    yield got
            return
        for x in spec.ordered_preimages(path[-1]):
            path.append(x)
            yield from enumerate_prefix(path)
            path.pop()

    return enumerate_prefix([x0])


def _old_sample_stratum(spec, N, density, depth):
    """The sampler as it was before strata became arrays, as the oracle:
    an O(density^2) seed scan, the recursive search from each seed, and a
    Chain per yield, normalized coordinate by coordinate and kept when its
    ``Chain.key`` is new.  Returns the chains and the seeds searched."""
    sys_ = spec.system
    chains, seen, searched = [], set(), []

    def add(coords, terminal):
        c = Chain(tuple(sys_.space.normalize(x) for x in coords), terminal)
        if c.key() not in seen:
            seen.add(c.key())
            chains.append(c)

    lo = min(iv[0] for iv in sys_.domain)
    hi = max(iv[1] for iv in sys_.domain)
    grid = [lo + (hi - lo) * j / max(density - 1, 1) for j in range(density)]
    seeds = list(grid)
    for x in grid:
        if sys_.in_domain(x):
            fx = ext.apply(sys_, x)
            if all(abs(fx - s) > 1e-12 for s in seeds):
                seeds.append(fx)
    seeds = [sys_.space.normalize(x0) for x0 in seeds]
    if N == INF:
        for x0 in seeds:
            searched.append(x0)
            for coords in _recursive_search(spec, x0, depth, False):
                add(coords, False)
        return chains, searched
    for y in spec.y_grid(density):
        rec = ext.orbit(sys_, y, N)
        if not rec.escaped:
            add(rec.points[::-1], True)
    if N >= 1 and spec.Y:
        for x0 in seeds:
            searched.append(x0)
            for coords in _recursive_search(spec, x0, N, True):
                add(coords, True)
    return chains, searched


def _check_against_old_sampler(spec, N, density, depth):
    old, old_seeds = _old_sample_stratum(spec, N, density, depth)
    # the closed-form table, when the system has one, and the scalar fill
    for source in (spec, _scalar_fill(spec)):
        # both samplers must search from the same seeds, in the same order
        real = ext._backward_rows
        seeds = []

        def recording(spec, x0s, depth, terminal):
            seeds.extend(x0s)
            return real(spec, x0s, depth, terminal)

        ext._backward_rows = recording
        try:
            s = sample_stratum(source, N, density, depth=depth)
        except EmptyStratum:
            s = None
        finally:
            ext._backward_rows = real
        assert repr(seeds) == repr(old_seeds)
        if s is None:
            assert old == []
            continue
        assert isinstance(s.chains, ext.ChainRows)
        assert s.chains.coords.dtype == float
        assert s.chains.coords.shape == (len(old), len(old[0].coords))
        assert repr(s.chains.coords.tolist()) == repr([list(c.coords)
                                                       for c in old])
        assert s.chains.terminal == (N != INF)
        assert list(s.chains) == old


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.5, 1.0), N=st.one_of(st.integers(0, 6), st.just(INF)),
       density=st.integers(5, 30), depth=st.integers(1, 8))
@example(lam=1.0, N=INF, density=12, depth=7)  # Y is empty at lambda = 1
@example(lam=1.0, N=3, density=12, depth=7)
@example(lam=0.95, N=INF, density=20, depth=3)  # the prefix is the chain
def test_array_sampler_matches_chain_key_dedupe(lam, N, density, depth):
    _check_against_old_sampler(extension_spec(lam), N, density, depth)


@pytest.mark.parametrize("p", [-0.0, 0.5, 1.0 / 3.0,
                               np.nextafter(1.0 / 3.0, 1.0)])
@pytest.mark.parametrize("density", [4, 20])
@pytest.mark.parametrize("N", [0, 2, 5, INF])
def test_array_sampler_matches_chain_key_dedupe_constant(p, density, N):
    # p = -0.0: the forward images -0.0 and the grid point 0.0 are one
    # key, and the chain first yielded keeps its signs.  At density 4 the
    # grid holds 1/3, the target lands on it or one ulp above it.
    spec = ExtensionSpec(make_constant_system(float(p)), ((0.0, 1.0),))
    _check_against_old_sampler(spec, N, density, 6)


@pytest.mark.parametrize("Y", [((0.1, 0.3),), ((0.9, 0.05),),
                               ((0.2, 0.25), (0.95, 0.0))])
@pytest.mark.parametrize("N", [2, 4, INF])
def test_array_sampler_matches_recursive_search_on_the_circle(Y, N):
    # terminal leaves are tested against Y as an array; two of these Y
    # wrap through 0 = 1
    spec = ExtensionSpec(make_rotation_system(0.3), Y)
    _check_against_old_sampler(spec, N, 9, 5)


def test_distinct_rows_rounds_as_python_round():
    # the double nearest 5e-10 lies above the tie, so Python's round gives
    # 1e-9 and np.round gives 0.0; rows equal after Python's rounding are
    # one class, and the first of them is kept
    rows = [(5e-10, 0.25), (0.0, 0.25), (1e-9, 0.25), (0.0, 0.25 + 1e-12)]
    got = ext._distinct_rows(rows)
    assert got.tolist() == [[5e-10, 0.25], [0.0, 0.25]]
    assert round(5e-10, 9) == 1e-9 != np.round(5e-10, 9)


def test_chain_rows_sequence_contract():
    s = sample_stratum(SPEC06, 4, 12)
    rows = s.chains
    chains = list(rows)
    assert isinstance(rows, ext.ChainRows) and len(rows) == len(chains) > 3
    assert rows and not rows[:0] and len(rows[:0]) == 0
    assert all(isinstance(c, Chain) and c.terminal and c.depth == 4
               for c in chains)
    assert rows[0] == chains[0] and rows[-1] == chains[-1]
    assert rows[np.int64(2)] == chains[2]
    with pytest.raises(IndexError):
        rows[len(chains)]
    for sl in (slice(None, None, 3), slice(1, -1, 2), slice(None, None, -1),
               slice(5, 2)):
        assert isinstance(rows[sl], ext.ChainRows)
        assert list(rows[sl]) == chains[sl]
        assert rows[sl] == chains[sl] and chains[sl] == rows[sl]
    assert rows == chains and rows == tuple(chains) and tuple(chains) == rows
    assert rows != chains[:-1] and rows != chains[::-1]
    assert rows != "not chains" and rows is not None
    assert chains[1] in rows and rows.index(chains[1]) == 1
    # hashable as the equal tuple, so the frozen sample is hashable too;
    # the rows are read-only and the repr shows them
    assert hash(rows) == hash(tuple(chains))
    assert hash(s) == hash(StratumSample(s.N, tuple(chains), s.depth))
    with pytest.raises(ValueError):
        rows.coords[0, 0] = 0.5
    assert repr(rows) == f"ChainRows({rows.coords.tolist()!r}, terminal=True)"
    # the strided subsample pattern of the benchmark's d_H check
    sub = StratumSample(s.N, rows[::max(1, len(rows) // 3)][:3], s.depth)
    assert sub.chains == chains[::max(1, len(chains) // 3)][:3]
    # a positional sequence of Chain is kept as given
    built = StratumSample(s.N, chains, s.depth)
    assert built.chains is chains
    assert built == s and s == built


@pytest.mark.parametrize("lam, N, space", [
    (0.6, 3, None), (0.9, 5, None), (0.95, 2, CIRCLE), (1.0, INF, None)])
def test_hausdorff_rows_equal_hand_built(lam, N, space):
    spec = extension_spec(lam)
    A = sample_stratum(spec, N, 12, depth=9)
    B = sample_stratum(spec, INF, 12, depth=6)
    hand_a = StratumSample(A.N, list(A.chains), A.depth)
    hand_b = StratumSample(B.N, list(B.chains), B.depth)
    assert repr(hausdorff(A, B, space=space)) == \
        repr(hausdorff(hand_a, hand_b, space=space))
    assert repr(hausdorff(B, A, space=space)) == \
        repr(hausdorff(hand_b, hand_a, space=space))


# ---------------------------------------------------------------------------
# Metric


def test_chain_distance_is_a_metric_on_samples():
    s = sample_stratum(SPEC06, 4, 12)
    chains = s.chains[:8]
    for a in chains:
        assert chain_distance(a, a) == 0.0
        for b in chains:
            assert chain_distance(a, b) == pytest.approx(chain_distance(b, a))
            for c in chains:
                assert (chain_distance(a, c)
                        <= chain_distance(a, b) + chain_distance(b, c) + 1e-12)


def test_chain_distance_product_topology_weights():
    a = Chain((0.7, 0.9), True)
    b = Chain((0.7, 0.9, 0.6), True)  # not valid dynamics; metric only
    # coordinate 2: a has terminated while b still has a value -> one
    # terminal-gap contribution with weight 2^-2; afterwards both have
    # terminated and contribute nothing further
    assert chain_distance(a, b) == pytest.approx(0.25)


def test_chain_distance_nonterminal_truncation_costs_nothing():
    a = Chain((0.3, 0.5), False)
    b = Chain((0.3, 0.5, 0.2, 0.4), False)
    assert chain_distance(a, b) == 0.0


def test_terminal_flag_separates_equal_coordinates():
    a = Chain((0.6, 0.8), True)
    b = Chain((0.6, 0.8), False)
    assert chain_distance(a, b) > 0.1


def _brute_hausdorff(A, B, space=None):
    def directed(X, Y):
        return max(min(chain_distance(x, y, space=space) for y in Y)
                   for x in X)

    return max(directed(A, B), directed(B, A))


def test_hausdorff_matches_bruteforce_oracle():
    sA = sample_stratum(SPEC06, 3, 8)
    sB = sample_stratum(SPEC06, 5, 8)
    got = hausdorff(sA, sB)
    expected = _brute_hausdorff(sA.chains, sB.chains)
    assert got == pytest.approx(expected, abs=1e-12)


_chains = st.lists(
    st.builds(Chain,
              st.lists(st.floats(0.0, 1.0, exclude_max=True),
                       min_size=1, max_size=8).map(tuple),
              st.booleans()),
    min_size=1, max_size=10)


@settings(max_examples=200, deadline=None)
@given(A=_chains, B=_chains, space=st.sampled_from([None, CIRCLE]))
def test_hausdorff_matches_bruteforce_on_mixed_classes(A, B, space):
    # chain lengths and terminal flags mix, so every class-pair tail case
    # (terminal gaps, unequal lengths) and the circle metric are exercised
    got = hausdorff(StratumSample(0, tuple(A), 0),
                    StratumSample(0, tuple(B), 0), space=space)
    assert got == pytest.approx(_brute_hausdorff(A, B, space), abs=1e-15)


def test_hausdorff_converges_for_logistic():
    seeds = attractor_points(0.6)
    minf = sample_stratum(SPEC06, INF, 40, depth=25, extra_seeds=seeds)
    d_prev = None
    for N in (5, 10, 15):
        mn = sample_stratum(SPEC06, N, 40, depth=25, extra_seeds=seeds)
        d = hausdorff(mn, minf)
        if d_prev is not None:
            assert d < d_prev
        d_prev = d
    assert d_prev < 0.02


# ---------------------------------------------------------------------------
# Lift of a semiconjugacy


def test_lift_semiconjugacy_rotation():
    tau = 0.25
    spec = ExtensionSpec(make_rotation_system(tau), ())
    psi = FactorMapSample(lambda t: t % 1.0,
                          tuple(j / 10 for j in range(10)))
    records = []
    for t in psi.points:
        back = tuple((t - (k + 1) * tau) % 1.0 for k in range(6))
        records.append(InverseOrbitRecord(t, back, False))
    lifted = lift_semiconjugacy(psi, records, spec)
    assert len(lifted) == len(records)
    for src, c in lifted:
        assert validate_chain(spec, c)
        assert factor_map(c) == pytest.approx(src % 1.0)


def test_lift_semiconjugacy_rejects_non_semiconjugacy():
    tau = 0.25
    spec = ExtensionSpec(make_rotation_system(tau), ())
    psi = FactorMapSample(lambda t: (t * t) % 1.0, (0.3,))
    records = [InverseOrbitRecord(0.3, ((0.3 - tau) % 1.0,), False)]
    with pytest.raises(InvalidLift):
        lift_semiconjugacy(psi, records, spec)


def test_stratum_json_round_trip(tmp_path):
    s = sample_stratum(SPEC06, 3, 10)
    doc = stratum_to_json(s)
    assert doc["N"] == 3 and doc["chains"]
    text = json.dumps(doc)
    back = stratum_from_json(json.loads(text))
    assert back.N == s.N and back.depth == s.depth
    assert back.chains == s.chains
    si = sample_stratum(SPEC06, INF, 10, depth=6)
    assert stratum_to_json(si)["N"] == "inf"
    assert stratum_from_json(stratum_to_json(si)).N == INF
