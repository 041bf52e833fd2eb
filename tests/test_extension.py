"""Extension (chain space) tests: chain validation, the extended dynamics
on chain rows, its inverse and the factor map as column slices, stratum
sampling, the chain metric with a brute-force Hausdorff oracle, and the
lift of a semiconjugacy as rows."""

import json
import math
import random

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

import revext.extension as ext
from conftest import (chain_key, chain_rows, decimal_edge_floats,
                      doubling_spec, forward, model_chains, scalar_preimages)
from revext.core import (CIRCLE, EPS_CHAIN, UNIT_INTERVAL, Branch,
                         PartialMapSystem, make_constant_system,
                         make_rotation_system)
from revext.extension import (INF, Chain, EmptyStratum, ExtensionSpec,
                              alpha_tilde, chain_distance, hausdorff,
                              sample_stratum, stratum_from_json,
                              stratum_to_json, valid_rows, validate_chain,
                              StratumSample)
from revext.logistic import attractor_points, eval_map, extension_spec
from revext.operator_model import logistic_period3_model


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


def _validate_chain_loop(spec, c, eps=EPS_CHAIN):
    """validate_chain one coordinate at a time, as it was before it took
    the chain as an array: the oracle of its array form.  The head must
    be a point of the space (any finite real on the circle)."""
    if len(c.coords) == 0:
        return False
    sys_ = spec.system
    head = sys_.space.normalize(c.coords[0])
    if not (math.isfinite(c.coords[0]) and 0.0 <= head <= 1.0):
        return False
    for n in range(len(c.coords) - 1):
        x_next = c.coords[n + 1]
        if not sys_.in_domain(x_next):
            return False
        back = forward(sys_, x_next)
        if not sys_.space.metric(back, c.coords[n]) <= eps:
            return False
    return not c.terminal or spec.in_Y(c.coords[-1], 1e-9)


@pytest.mark.parametrize("coords", [(math.nan, 0.5), (math.nan,),
                                    (math.inf,), (2.0,), (-0.1,)])
def test_validate_chain_rejects_a_head_outside_the_space(coords):
    # NaN failed no "> eps" test, and the head was never checked
    for terminal in (True, False):
        c = Chain(coords, terminal)
        assert not validate_chain(SPEC06, c)
        assert not _validate_chain_loop(SPEC06, c)


def test_validate_chain_wraps_a_finite_head_on_the_circle():
    spec = ExtensionSpec(make_rotation_system(0.3), ((0.0, 0.0),))
    assert validate_chain(spec, Chain((1.3, 1.0), False))
    assert validate_chain(spec, Chain((-0.7,), False))
    assert not validate_chain(spec, Chain((math.inf,), False))
    assert not validate_chain(spec, Chain((math.nan,), False))


def _sampled(spec, N):
    return spec, list(sample_stratum(spec, N, 6, depth=4).chains)


def _period3():
    model = logistic_period3_model(depth=4)
    return model.spec, model_chains(model)


@pytest.mark.parametrize("make", [
    lambda: _sampled(extension_spec(0.9), 3),
    lambda: _sampled(extension_spec(0.9), INF),
    lambda: _sampled(ExtensionSpec(make_rotation_system(0.3),
                                   ((0.9, 0.05),)), 3),
    lambda: _sampled(ExtensionSpec(make_constant_system(-0.0),
                                   ((0.0, 1.0),)), 2),
    lambda: _sampled(ExtensionSpec(make_constant_system(0.3),
                                   ((0.0, 1.0),)), INF),
    _period3,
    lambda: (doubling_spec(), [Chain((0.4,), True), Chain((0.8, 0.4), True),
                               Chain((1.6, 0.8, 0.4), True)]),
], ids=["logistic-3", "logistic-inf", "rotation-3", "constant-2",
        "constant-inf", "period3", "doubling"])
def test_validate_chain_matches_the_coordinate_loop(make):
    # each coordinate of each chain moved by nothing, by less and by more
    # than EPS_CHAIN, across 0 = 1, out of [0, 1], to NaN and to infinity,
    # with either flag
    spec, chains = make()
    chains.append(Chain((0.5,), True))
    for c in chains:
        for n in range(len(c.coords)):
            for delta in (0.0, 5e-10, -2e-9, 0.25, -0.95, 1.5, math.nan,
                          math.inf):
                coords = list(c.coords)
                coords[n] += delta
                for terminal in (True, False):
                    moved = Chain(tuple(coords), terminal)
                    assert validate_chain(spec, moved) == \
                        _validate_chain_loop(spec, moved), (moved, delta)


def _lengths(coords):
    return np.count_nonzero(~np.isnan(coords), axis=1)


def test_alpha_tilde_prepends_image():
    # alpha_0.6(0.8) = 4*0.6*0.8*0.2 = 0.384 exactly
    ok, img = alpha_tilde(SPEC06, np.array([[0.8]]))
    assert ok.tolist() == [True]
    assert img[0].tolist() == pytest.approx([0.384, 0.8])
    assert valid_rows(SPEC06, img, np.array([2]), True).all()


def test_alpha_tilde_drops_heads_outside_the_domain():
    half = PartialMapSystem(
        space=UNIT_INTERVAL, domain=((0.0, 0.5),),
        forward_map=lambda x: 2.0 * x, branches=())
    spec = ExtensionSpec(half, ((0.0, 1.0),))
    rows = np.array([[0.25, 0.125], [0.75, math.nan], [math.nan, math.nan]])
    ok, img = alpha_tilde(spec, rows)
    assert ok.tolist() == [True, False, False]
    assert img.tolist() == [[0.5, 0.25, 0.125]]


def test_alpha_tilde_inverse_is_shift():
    rows = np.array([[0.384, 0.8], [0.8, math.nan]])
    shifted = rows[:, 1:]
    assert shifted[0].tolist() == [0.8]
    # a length-1 chain is not in the image: its shift has no head
    assert valid_rows(SPEC06, shifted, _lengths(rows) - 1,
                      True).tolist() == [True, False]


def _random_terminal_rows(seed, count, max_extra):
    """``count`` terminal chains of SPEC06 as NaN-padded rows: a point of
    Y = [0.6, 1] pushed forward up to ``max_extra - 1`` steps."""
    rng = random.Random(seed)
    chains = []
    for _ in range(count):
        coords = [0.6 + 0.4 * rng.random()]
        for _ in range(rng.randrange(max_extra)):
            coords.insert(0, eval_map(0.6, coords[0]))
        chains.append(Chain(tuple(coords), True))
    return chain_rows(chains)


def test_round_trip_identity_random_chains():
    coords, terminal = _random_terminal_rows(7, 200, 4)
    assert valid_rows(SPEC06, coords, _lengths(coords), terminal).all()
    ok, img = alpha_tilde(SPEC06, coords)
    assert ok.all()
    np.testing.assert_array_equal(img[:, 1:], coords)


def test_factor_map_semiconjugates_extension():
    # column 0 of the image is alpha of column 0, and a row has an image
    # exactly where its head lies in Delta
    coords, _ = _random_terminal_rows(3, 100, 5)
    ok, img = alpha_tilde(SPEC06, coords)
    assert ok.tolist() == SPEC06.system.in_domain(coords[:, 0]).tolist()
    heads = [forward(SPEC06.system, x) for x in coords[ok, 0].tolist()]
    assert np.max(np.abs(img[:, 0] - heads)) < 1e-12


def test_stratum_shift():
    s5 = sample_stratum(SPEC06, 5, 20)
    ok, img = alpha_tilde(SPEC06, s5.chains.coords)
    assert ok.all() and img.shape == (len(s5.chains), 7)
    assert valid_rows(SPEC06, img, np.full(len(img), 7), True).all()


def _strata_rows(spec, N, depth):
    """The chains of M_N and of M_inf (each if nonempty) as NaN-padded
    rows with one flag per row."""
    chains = []
    for n in (N, INF):
        try:
            chains += list(sample_stratum(spec, n, 5, depth=depth).chains)
        except EmptyStratum:
            pass
    return chain_rows(chains)


ROW_SPECS = st.one_of(
    st.floats(0.25, 1.0).map(extension_spec),
    st.floats(0.0, 1.0, exclude_max=True).map(
        lambda tau: ExtensionSpec(make_rotation_system(tau), ((0.1, 0.3),))),
    st.floats(0.0, 1.0).map(
        lambda p: ExtensionSpec(make_constant_system(p), ((0.0, 1.0),))))


@settings(max_examples=60, deadline=None)
@given(spec=ROW_SPECS, N=st.integers(0, 4), depth=st.integers(1, 5),
       turns=st.integers(1, 3))
def test_alpha_tilde_on_rows_keeps_the_chain_identities(spec, N, depth,
                                                        turns):
    # the chains and their images pass valid_rows, the image is the row
    # with alpha of its head in front (bit for bit, against the scalar
    # forward map), and flags and lengths carry over, one coordinate longer
    coords, terminal = _strata_rows(spec, N, depth)
    if spec.system.space is CIRCLE:
        # a head is any real on the circle: move every other head by whole
        # turns, which alpha_tilde must normalize away
        coords[::2, 0] += turns
    lengths = _lengths(coords)
    assert valid_rows(spec, coords, lengths, terminal).all()
    ok, img = alpha_tilde(spec, coords)
    assert ok.tolist() == spec.system.in_domain(coords[:, 0]).tolist()
    assert img.shape == (np.count_nonzero(ok), coords.shape[1] + 1)
    assert np.array_equal(img[:, 1:], coords[ok], equal_nan=True)
    heads = [forward(spec.system, x) for x in coords[ok, 0].tolist()]
    assert repr(img[:, 0].tolist()) == repr(heads)
    assert _lengths(img).tolist() == (lengths[ok] + 1).tolist()
    assert valid_rows(spec, img, lengths[ok] + 1, terminal[ok]).all()


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


def test_sample_stratum_batch_calls_do_not_depend_on_density(monkeypatch):
    # each preimage table holds one level of all the searches of a
    # stratum, however many seeds it starts from
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


@pytest.mark.parametrize("depth", [0, -4, 2.5, 3.0, True, False, "3"])
@pytest.mark.parametrize("N", [3, INF])
def test_sample_stratum_rejects_invalid_depth(N, depth):
    with pytest.raises(ValueError, match="depth"):
        sample_stratum(SPEC06, N, 10, depth=depth)


@pytest.mark.parametrize("seed", [math.nan, math.inf, -math.inf, 1.5,
                                  -1e-9])
def test_sample_stratum_rejects_extra_seeds_outside_the_space(seed):
    # a NaN seed used to compare unequal to every forward image and so
    # suppressed all of them: M_2 at lambda = 0.9 lost a chain
    with pytest.raises(ValueError, match="extra seed"):
        sample_stratum(extension_spec(0.9), 2, 5, extra_seeds=[0.3, seed])


def test_extra_seeds_on_the_circle_wrap_but_must_be_finite():
    spec = ExtensionSpec(make_rotation_system(0.3), ((0.1, 0.3),))
    assert sample_stratum(spec, 2, 9, extra_seeds=[1.25, -0.5]) == \
        sample_stratum(spec, 2, 9, extra_seeds=[0.25, 0.5])
    for seed in (math.nan, math.inf):
        with pytest.raises(ValueError, match="extra seed"):
            sample_stratum(spec, 2, 9, extra_seeds=[seed])


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
        xs = scalar_preimages(spec.system, path[-1])
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
        for x in scalar_preimages(spec.system, path[-1]):
            path.append(x)
            yield from enumerate_prefix(path)
            path.pop()

    return enumerate_prefix([x0])


def _old_sample_stratum(spec, N, density, depth, extra_seeds=()):
    """The sampler as it was before strata became arrays, as the oracle:
    an O(density^2) seed scan, the Y grid pushed forward point by point,
    the recursive search from each seed, and a Chain per yield, normalized
    coordinate by coordinate to a float and kept when its ``chain_key`` is
    new.
    Returns the chains and the seeds searched."""
    sys_ = spec.system
    chains, seen, searched = [], set(), []

    def add(coords, terminal):
        c = Chain(tuple(float(sys_.space.normalize(x)) for x in coords),
                  terminal)
        if chain_key(c) not in seen:
            seen.add(chain_key(c))
            chains.append(c)

    lo = min(iv[0] for iv in sys_.domain)
    hi = max(iv[1] for iv in sys_.domain)
    grid = [lo + (hi - lo) * j / max(density - 1, 1) for j in range(density)]
    seeds = grid + [sys_.space.normalize(s) for s in extra_seeds]
    for x in grid:
        if sys_.in_domain(x):
            fx = forward(sys_, x)
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
        # a point drops out when it lies outside Delta before a step
        points = [sys_.space.normalize(y)]
        for _ in range(N):
            if not sys_.in_domain(points[-1]):
                break
            points.append(forward(sys_, points[-1]))
        else:
            add(points[::-1], True)
    if N >= 1 and spec.Y:
        for x0 in seeds:
            searched.append(x0)
            for coords in _recursive_search(spec, x0, N, True):
                add(coords, True)
    return chains, searched


def _check_against_old_sampler(spec, N, density, depth, extra_seeds=()):
    old, old_seeds = _old_sample_stratum(spec, N, density, depth,
                                         extra_seeds)
    # both samplers must search from the same seeds, in the same order
    real = ext._backward_rows
    seeds = []

    def recording(spec, x0s, depth, terminal):
        seeds.extend(x0s)
        return real(spec, x0s, depth, terminal)

    ext._backward_rows = recording
    try:
        s = sample_stratum(spec, N, density, depth=depth,
                           extra_seeds=extra_seeds)
    except EmptyStratum:
        s = None
    finally:
        ext._backward_rows = real
    assert repr(seeds) == repr(old_seeds)
    if s is None:
        assert old == []
        return
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


@pytest.mark.parametrize("spec", [
    extension_spec(0.9),
    ExtensionSpec(make_constant_system(0.3), ((0.0, 1.0),)),
    ExtensionSpec(make_rotation_system(0.3), ((0.1, 0.3),)),
], ids=["logistic", "constant", "rotation"])
@pytest.mark.parametrize("offset", [0.0, 5e-13, -1e-12, 2e-12])
@pytest.mark.parametrize("N", [3, INF])
def test_array_sampler_matches_old_sampler_near_extra_seeds(spec, offset, N):
    # an extra seed at or within 1e-12 of a forward image keeps the image
    # out of the seeds; one 2e-12 away lets it in.  The image of 1/3 is no
    # point of the density-7 grid.
    image = forward(spec.system, 1.0 / 3.0)
    _check_against_old_sampler(spec, N, 7, 5, [0.77, image + offset])


@pytest.mark.parametrize("N", [2, INF])
def test_forward_images_join_the_seeds_in_order(N):
    # images 0.6e-12 apart from 0.5 on: each lies within 1e-12 of the one
    # before it, but every other one is 1.2e-12 from the last that joined
    step = 6 * 0.6e-12
    system = PartialMapSystem(
        UNIT_INTERVAL, ((0.0, 1.0),), lambda x: 0.5 + step * x,
        (Branch((0.0, 1.0), lambda y: (y - 0.5) / step),))
    _check_against_old_sampler(ExtensionSpec(system, ((0.0, 1.0),)), N, 7, 3)


@pytest.mark.parametrize("N", [1, 3, 6, INF])
def test_forward_push_drops_points_that_leave_the_domain(N):
    # Delta = [0, 1/4] u [1/2, 3/4] and x -> 2x mod 1: every point of
    # Y = [1/2, 1] but 1/2 leaves Delta within three steps
    system = PartialMapSystem(
        UNIT_INTERVAL, ((0.0, 0.25), (0.5, 0.75)),
        lambda x: 2.0 * x - (x >= 0.5),
        (Branch((0.0, 0.25), lambda y: 0.5 * y),
         Branch((0.5, 0.75), lambda y: 0.5 * (y + 1.0))))
    _check_against_old_sampler(ExtensionSpec(system, ((0.5, 1.0),)), N, 20, 4)


def test_distinct_rows_rounds_as_python_round():
    # the double nearest 5e-10 lies above the tie, so Python's round gives
    # 1e-9 and np.round gives 0.0; rows equal after Python's rounding are
    # one class, and the first of them is kept
    rows = [(5e-10, 0.25), (0.0, 0.25), (1e-9, 0.25), (0.0, 0.25 + 1e-12)]
    got = ext._distinct_rows(rows)
    assert got.tolist() == [[5e-10, 0.25], [0.0, 0.25]]
    assert round(5e-10, 9) == 1e-9 != np.round(5e-10, 9)


@given(data=st.data())
def test_distinct_rows_matches_chain_key_dedupe(data):
    # values next to decimal halves, and neighbours of them that round
    # alike or apart
    base = data.draw(st.lists(decimal_edge_floats(), min_size=1, max_size=4))
    pool = [y for x in base
            for y in (x, math.nextafter(x, 2.0), min(x + 4e-10, 1.0))]
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from(pool)] * 3),
                              min_size=1, max_size=30))
    first = {}
    for r in rows:
        first.setdefault(chain_key(Chain(r, True)), list(r))
    assert repr(ext._distinct_rows(np.array(rows)).tolist()) == \
        repr(list(first.values()))


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
    # a ChainRows equals only a ChainRows with the same flag and rows
    same = ext.ChainRows(rows.coords.copy(), True)
    assert rows == same and hash(rows) == hash(same)
    assert rows != ext.ChainRows(rows.coords, False)
    assert rows != rows[:-1] and rows != rows[::-1]
    assert rows != chains and rows != tuple(chains) and rows != "not chains"
    assert chains[1] in rows and rows.index(chains[1]) == 1
    # the frozen sample is hashable; the rows are read-only and the repr
    # shows them
    assert hash(s) == hash(StratumSample(s.N, same, s.depth))
    with pytest.raises(ValueError):
        rows.coords[0, 0] = 0.5
    assert repr(rows) == f"ChainRows({rows.coords.tolist()!r}, terminal=True)"
    # the strided subsample pattern of the benchmark's d_H check
    sub = StratumSample(s.N, rows[::max(1, len(rows) // 3)][:3], s.depth)
    assert list(sub.chains) == chains[::max(1, len(chains) // 3)][:3]


def test_chain_rows_signed_zeros_are_equal_and_hash_alike():
    pos = ext.ChainRows(np.array([[0.0, 0.5]]), True)
    neg = ext.ChainRows(np.array([[-0.0, 0.5]]), True)
    assert pos.coords.tobytes() != neg.coords.tobytes()
    assert pos == neg and hash(pos) == hash(neg)


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


@st.composite
def _uniform_samples(draw):
    """A sample of 1 to 10 chains of one length (1 to 8) and one flag."""
    length = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                  min_size=length, max_size=length),
                         min_size=1, max_size=10))
    terminal = draw(st.booleans())
    return StratumSample(length - 1 if terminal else INF,
                         ext.ChainRows(np.array(rows), terminal), length - 1)


@settings(max_examples=200, deadline=None)
@given(A=_uniform_samples(), B=_uniform_samples(),
       space=st.sampled_from([None, CIRCLE]))
def test_hausdorff_matches_bruteforce_on_uniform_samples(A, B, space):
    # each sample draws its own length and flag, so every tail case
    # (terminal gaps, unequal lengths) and the circle metric are exercised
    got = hausdorff(A, B, space=space)
    assert got == pytest.approx(_brute_hausdorff(A.chains, B.chains, space),
                                abs=1e-15)


def _prefix_minima_per_term(xa, xb, w, circle):
    """The prefix-minima kernel as it was before the samples were scaled
    by the weights: every term weighed as it is formed, 256 rows a block."""
    k = xa.shape[1]
    xbT = np.ascontiguousarray(xb.T)
    rmin = np.empty(len(xa))
    cmin = np.full(len(xb), np.inf)
    for s in range(0, len(xa), 256):
        blk = xa[s:s + 256].T
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


# Coordinates where scaling by the weights could round: signed zeros,
# subnormals, and values whose scaled copies near or cross the
# _SCALE_FLOOR fallback, beside ordinary ones next to 0 and 1.
_KERNEL_EDGES = [0.0, -0.0, 5e-324, 1.5e-323, 2.2250738585072014e-308,
                 1e-300, 2.0 ** -900, 2.0 ** -860, 2.0 ** -841, 1e-250,
                 1e-17, 0.5, 1.0 - 2.0 ** -53]


@st.composite
def _kernel_samples(draw):
    """Two samples of k shared coordinates, the first with a row count
    around the kernel's row blocks; uniform coordinates, with pairs of
    edge values put into one column of a row of each."""
    B = ext._ROW_BLOCK
    k = draw(st.integers(0, 12) | st.sampled_from([40, 60]))
    na = draw(st.sampled_from([1, B - 1, B, B + 1, 2 * B, 2 * B + 1])
              | st.integers(1, 3 * B))
    nb = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xa, xb = rng.random((na, k)), rng.random((nb, k))
    if k:
        edge = st.sampled_from(_KERNEL_EDGES)
        for ea, eb in draw(st.lists(st.tuples(edge, edge), max_size=6)):
            c = rng.integers(k)
            xa[rng.integers(na), c], xb[rng.integers(nb), c] = ea, eb
    return xa, xb


@settings(max_examples=150, deadline=None)
@given(samples=_kernel_samples(), circle=st.booleans())
# halving 3 * 2^-1074 rounds up and halving 2^-1074 rounds down, so the
# scaled difference is 2^-1073 against a true 2^-1074
@example(samples=(np.array([[0.5, 1.5e-323]]), np.array([[0.5, 5e-324]])),
         circle=False)
@example(samples=(np.array([[0.5, 1.5e-323]]), np.array([[0.5, 5e-324]])),
         circle=True)
@example(samples=(np.array([[-0.0, 0.5]]), np.array([[0.0, 0.5]])),
         circle=True)
def test_prefix_minima_match_the_per_term_kernel(samples, circle):
    xa, xb = samples
    w = ext.WEIGHT_BASE ** np.arange(60)
    got = ext._prefix_minima(xa, xb, w, circle)
    want = _prefix_minima_per_term(xa, xb, w, circle)
    for g, v in zip(got, want):
        assert g.view(np.int64).tolist() == v.view(np.int64).tolist()


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
# Lift of a semiconjugacy, as rows


def _lifted_rows(psi, tau, points, depth):
    """Psi over the backward orbits t, t - tau, ..., t - depth tau of the
    rotation by tau upstairs, one row per point t."""
    t = np.array(points)[:, None] - tau * np.arange(depth + 1)
    return psi(t % 1.0)


def test_lift_semiconjugacy_rotation():
    # Psi(t) = t semiconjugates the rotation onto itself, so it lifts each
    # (never terminating) upstairs backward orbit to an infinite chain
    tau = 0.25
    spec = ExtensionSpec(make_rotation_system(tau), ())
    points = [j / 10 for j in range(10)]
    rows = _lifted_rows(lambda t: t % 1.0, tau, points, 6)
    assert valid_rows(spec, rows, np.full(10, 7), False).all()
    assert rows[:, 0].tolist() == pytest.approx(points)


def test_lift_semiconjugacy_rejects_non_semiconjugacy():
    tau = 0.25
    spec = ExtensionSpec(make_rotation_system(tau), ())
    rows = _lifted_rows(lambda t: (t * t) % 1.0, tau, [0.3], 1)
    assert not valid_rows(spec, rows, np.array([2]), False,
                          10 * EPS_CHAIN).any()


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


def _doc(N=2, depth=6, chains=(([0.1, 0.2, 0.3], True),
                               ([0.4, 0.5, 0.6], True))):
    return {"N": N, "depth": depth,
            "chains": [{"coords": c, "terminal": t} for c, t in chains]}


@pytest.mark.parametrize("doc, error", [
    (_doc(N=-2), ValueError),
    (_doc(N=2.0), ValueError),
    (_doc(N="2"), ValueError),
    (_doc(N=True), ValueError),
    (_doc(N=None), ValueError),
    (_doc(depth=0), ValueError),
    (_doc(depth=-3), ValueError),
    (_doc(depth=2.5), ValueError),
    (_doc(chains=(([0.1, 0.2, 0.3], True), ([0.4, 0.5], True))), ValueError),
    (_doc(chains=(([0.1, 0.2, 0.3], True), ([0.4, 0.5, 0.6], False))),
     ValueError),
    (_doc(N=3), ValueError),  # terminal chains of N + 1 = 4 coordinates
    (_doc(chains=(([0.1, 0.2, 0.3], False),)), ValueError),
    (_doc(N="inf", depth=2), ValueError),  # M_inf is non-terminal
    (_doc(N="inf", chains=(([0.1, 0.2, 0.3], False),)), ValueError),
    (_doc(chains=()), EmptyStratum),
    (_doc(N="inf", chains=()), EmptyStratum),
], ids=["N-negative", "N-float", "N-str", "N-bool", "N-null", "depth-0",
        "depth-negative", "depth-float", "mixed-lengths", "mixed-flags",
        "length-not-N+1", "finite-non-terminal", "inf-terminal",
        "inf-length-not-depth+1", "empty", "inf-empty"])
def test_stratum_from_json_rejects_non_strata(doc, error):
    with pytest.raises(error):
        stratum_from_json(doc)


def test_stratum_from_json_accepts_the_fitting_docs():
    s = stratum_from_json(_doc())
    assert (s.N, s.depth, s.chains.terminal) == (2, 6, True)
    assert s.chains.coords.tolist() == [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]
    s = stratum_from_json(_doc(N="inf", depth=2,
                               chains=(([0.1, 0.2, 0.3], False),)))
    assert (s.N, s.depth, s.chains.terminal) == (INF, 2, False)
