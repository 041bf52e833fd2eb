"""Extension (chain space) tests: chain validation, the extended dynamics
on chain rows, its inverse and the factor map as column slices, stratum
sampling, the chain metric with a brute-force Hausdorff oracle, and the
lift of a semiconjugacy as rows."""

import json
import math
import random
import tracemalloc
from bisect import bisect_left

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

import revext.extension as ext
from revext import cli
from conftest import (chain_key, chain_rows, circle_doubling_system,
                      decimal_edge_floats, doubling_spec, forward,
                      model_chains, roof_system, scalar_preimages,
                      tent_system)
from revext.core import (CIRCLE, EPS_CHAIN, UNIT_INTERVAL, Branch,
                         PartialMapSystem, make_constant_system,
                         image, make_rotation_system, preimages)
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
    return not c.terminal or spec.in_Y(c.coords[-1])


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
        assert c.depth == 0 and SPEC06.in_Y(c.coords[0])
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
            if terminal and not spec.in_Y(path[-1]):
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
    Returns the chains and the seeds every search starts from."""
    sys_ = spec.system
    chains, seen = [], set()

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
            for coords in _recursive_search(spec, x0, depth, False):
                add(coords, False)
        return chains, seeds
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
            for coords in _recursive_search(spec, x0, N, True):
                add(coords, True)
    return chains, seeds


def _check_against_old_sampler(spec, N, density, depth, extra_seeds=()):
    old, old_seeds = _old_sample_stratum(spec, N, density, depth,
                                         extra_seeds)
    # both samplers must search from the same seeds, in the same order
    real = ext._seeds
    seeds = []

    def recording(*args):
        seeds.extend(real(*args))
        return seeds

    ext._seeds = recording
    try:
        s = sample_stratum(spec, N, density, depth=depth,
                           extra_seeds=extra_seeds)
    except EmptyStratum:
        s = None
    finally:
        ext._seeds = real
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


def _broadcast_seeds(spec, density, extra_seeds) -> list:
    """The seeds as the sampler joined the forward images through two
    density-squared broadcasts: each image against every seed, then
    against every earlier image, swept until no image changes."""
    sys_ = spec.system
    lo = min(iv[0] for iv in sys_.domain)
    hi = max(iv[1] for iv in sys_.domain)
    grid = [lo + (hi - lo) * j / max(density - 1, 1) for j in range(density)]
    seeds = grid + [sys_.space.normalize(s) for s in extra_seeds]
    fx = alpha_tilde(spec, np.array(grid)[:, None])[1][:, 0]
    with np.errstate(invalid="ignore"):  # inf - inf
        fx = fx[(np.abs(fx[:, None] - np.array(seeds)) > 1e-12).all(axis=1)]
        near = np.tril(~(np.abs(fx[:, None] - fx) > 1e-12), -1)
    joined = np.ones(len(fx), dtype=bool)
    while (joined != (new := ~(near & joined).any(axis=1))).any():
        joined = new
    return [sys_.space.normalize(x0) for x0 in seeds + fx[joined].tolist()]


def _hex(xs) -> list:
    return [float(x).hex() for x in xs]


_SEED_SPECS = (
    [extension_spec(lam) for lam in (0.3, 0.6, 0.9, 0.95, 1.0)]
    + [ExtensionSpec(make_constant_system(p), ((0.0, 1.0),))
       for p in (0.0, -0.0, 1.0 / 3.0, 1.0)]
    + [ExtensionSpec(make_rotation_system(t), ((0.0, 0.0),))
       for t in (0.0, 0.3, 0.5)])


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(_SEED_SPECS), density=st.integers(1, 400),
       extra=st.lists(st.floats(0.0, 1.0), max_size=3),
       near=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from(
           [0.0, 5e-13, -5e-13, 1e-12, -1e-12, 2e-12])), max_size=3))
@example(spec=_SEED_SPECS[5], density=4, extra=[], near=[])  # p = -0.0
@example(spec=_SEED_SPECS[0], density=400, extra=[0.0, 1e-13], near=[])
def test_seed_join_matches_the_broadcasts(spec, density, extra, near):
    # extra seeds at and near forward images of arbitrary points
    extra = extra + [min(max(forward(spec.system, x) + d, 0.0), 1.0)
                     for x, d in near]
    assert _hex(ext._seeds(spec, density, extra)) == \
        _hex(_broadcast_seeds(spec, density, extra))


def test_seed_join_matches_the_broadcasts_on_non_finite_images():
    # images +inf, -inf and NaN: NaN never joins, and each infinity once
    def alpha(x):
        return np.select([x < 0.2, x < 0.4, x < 0.6], [np.inf, -np.inf,
                                                       np.nan], 0.5 * x)

    system = PartialMapSystem(UNIT_INTERVAL, ((0.0, 1.0),), alpha,
                              (Branch((0.0, 1.0), lambda y: 2.0 * y),))
    spec = ExtensionSpec(system, ((0.0, 1.0),))
    for density in (1, 2, 5, 11, 40):
        seeds = ext._seeds(spec, density, (0.25,))
        assert _hex(seeds) == _hex(_broadcast_seeds(spec, density, (0.25,)))
    assert seeds.count(math.inf) == seeds.count(-math.inf) == 1


def _insertion_seeds(spec, density, extra_seeds) -> list:
    """The seeds as the sampler joined the forward images one at a time,
    each checked against its neighbours in a sorted list of the seeds so
    far and inserted there if it joined."""
    sys_ = spec.system
    lo = min(iv[0] for iv in sys_.domain)
    hi = max(iv[1] for iv in sys_.domain)
    grid = [lo + (hi - lo) * j / max(density - 1, 1) for j in range(density)]
    seeds = grid + [sys_.space.normalize(s) for s in extra_seeds]
    known = sorted(seeds)
    for x in alpha_tilde(spec, np.array(grid)[:, None])[1][:, 0].tolist():
        i = bisect_left(known, x)
        if all(abs(x - y) > 1e-12 for y in known[max(i - 1, 0):i + 1]):
            known.insert(i, x)
            seeds.append(x)
    return [sys_.space.normalize(x0) for x0 in seeds]


def _table_spec(images) -> ExtensionSpec:
    """A system on [0, 1] whose map sends point j of the grid of
    len(images) points to images[j]."""
    table = np.array(images, dtype=float)
    step = max(len(table) - 1, 1)

    def alpha(x):
        return table[np.rint(np.asarray(x) * step).astype(int)]

    system = PartialMapSystem(UNIT_INTERVAL, ((0.0, 1.0),), alpha,
                              (Branch((0.0, 1.0), lambda y: y),))
    return ExtensionSpec(system, ((0.0, 1.0),))


# images next to each other: runs of any length under the 1e-12 rule
_CLUSTERED = st.builds(lambda b, k: b + k * 4e-13,
                       st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                       st.integers(-4, 4))


@settings(max_examples=150, deadline=None)
@given(images=st.lists(st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                        0.0, 0.5])
                       | st.floats(-1.0, 2.0) | _CLUSTERED,
                       min_size=1, max_size=60),
       extra=st.lists(st.floats(0.0, 1.0)
                      | _CLUSTERED.map(lambda x: min(max(x, 0.0), 1.0)),
                      max_size=3))
@example(images=[0.5, 0.5 + 6e-13, 0.5 + 1.2e-12, 0.5 + 1.8e-12], extra=[])
# two images exactly 1e-12 apart: the second stays out
@example(images=[2.5000000000000003e-12, 1.5000000000000003e-12], extra=[])
@example(images=[math.inf, math.nan, -math.inf, math.inf, -0.0, 0.0],
         extra=[0.0])
def test_seed_runs_match_the_insertion_join(images, extra):
    # NaN, infinite and signed-zero images, and chains of images each
    # within 1e-12 of the next, around extra seeds at and near them
    spec = _table_spec(images)
    assert _hex(ext._seeds(spec, len(images), extra)) == \
        _hex(_insertion_seeds(spec, len(images), extra))


@pytest.mark.parametrize("spec", [extension_spec(0.95),
                                  ExtensionSpec(make_constant_system(0.3),
                                                ((0.0, 1.0),))],
                         ids=["logistic", "constant"])
def test_seed_runs_match_the_insertion_join_at_density(spec):
    # the logistic images of x and 1 - x pair up within 1e-12, and the
    # constant map's images are one run of the whole grid
    assert _hex(ext._seeds(spec, 20_000, (0.3,))) == \
        _hex(_insertion_seeds(spec, 20_000, (0.3,)))


def test_seed_join_memory_is_linear_in_density():
    # the broadcasts held density**2 comparisons: gigabytes at this density
    tracemalloc.start()
    try:
        seeds = ext._seeds(extension_spec(0.95), 20_000, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seeds) > 20_000 and peak < 10e6


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


def _logistic_in_all_Y(lam) -> ExtensionSpec:
    # Y = [0, 1] holds both preimages of a point, so the first and the last
    # child in Y of a word differ
    return ExtensionSpec(extension_spec(lam).system, ((0.0, 1.0),))


@st.composite
def _run_specs(draw):
    """A logistic system with Y = [lambda, 1] or [0, 1], a constant one or
    a rotation with its Y (two of the rotation's Y wrap through 0 = 1)."""
    kind = draw(st.sampled_from(["logistic", "all-Y logistic", "constant",
                                 "rotation"]))
    if kind == "logistic":
        return extension_spec(draw(st.floats(0.25, 1.0)))
    if kind == "all-Y logistic":
        return _logistic_in_all_Y(draw(st.floats(0.25, 1.0)))
    if kind == "constant":
        return ExtensionSpec(make_constant_system(draw(st.floats(0.0, 1.0))),
                             ((0.0, 1.0),))
    return ExtensionSpec(
        make_rotation_system(draw(st.floats(0.0, 1.0, exclude_max=True))),
        draw(st.sampled_from([((0.1, 0.3),), ((0.9, 0.05),)])))


@st.composite
def _whole_runs(draw):
    """A system with its Y, then N_max, depth, density and extra seeds of
    one `extend`-like run."""
    return (draw(_run_specs()), draw(st.integers(0, 8)),
            draw(st.integers(1, 10)), draw(st.integers(2, 12)),
            draw(st.lists(st.floats(0.0, 1.0), max_size=3)))


@settings(max_examples=40, deadline=None)
@given(run=_whole_runs())
@example(run=(extension_spec(1.0), 8, 3, 12, []))  # Y is empty
@example(run=(extension_spec(0.95), 8, 3, 12, [0.5]))  # N_max > depth
@example(run=(extension_spec(0.25), 4, 10, 2, []))
@example(run=(extension_spec(0.9), 8, 7, 6, []))  # M_7 and M_inf share depth
def test_one_search_serves_every_stratum_of_a_run(run):
    # every stratum sampled from one shared search is the old sampler's
    spec, n_max, depth, density, extra = run
    Ns = list(range(n_max + 1)) + [INF]
    search = ext.backward_search(spec, Ns, density, depth, extra)
    for N in Ns:
        old, _ = _old_sample_stratum(spec, N, density, depth, extra)
        try:
            s = sample_stratum(spec, N, density, depth, extra, search=search)
        except EmptyStratum:
            assert old == []
            continue
        assert repr(s.chains.coords.tolist()) == repr([list(c.coords)
                                                       for c in old])
        assert s.chains.terminal == (N != INF)


PREFIX = ext.PREFIX_DEPTH
CONSTANT_NEG_ZERO = ExtensionSpec(make_constant_system(-0.0), ((0.0, 1.0),))


def _check_against_recursive_search(spec, Ns, density, depth, extra):
    # the rows of every target are the recursive search's first and last
    # completion of each word, seed by seed, a row that repeats the one
    # before it dropped; each stratum is the old sampler's
    search = ext.backward_search(spec, Ns, density, depth, extra)
    seeds = ext._seeds(spec, density, tuple(extra))
    for N in Ns:
        d = depth if N == INF else N
        got = np.vstack([np.empty((0, d + 1))] + search.rows[N])
        assert repr(got.tolist()) == repr(_drop_adjacent_copies([
            list(c) for x0 in seeds if N == INF or spec.Y
            for c in _recursive_search(spec, x0, d, N != INF)]))
        old, _ = _old_sample_stratum(spec, N, density, depth, extra)
        try:
            s = sample_stratum(spec, N, density, depth, extra, search=search)
        except EmptyStratum:
            assert old == []
            continue
        assert repr(s.chains.coords.tolist()) == repr([list(c.coords)
                                                       for c in old])


@st.composite
def _deep_runs(draw):
    """A system whose targets descend far: logistic with Y = [0, 1], a
    constant map (p = -0.0 among them) or a rotation with a Y that wraps
    through 0 = 1; then N, depth, density and extra seeds."""
    kind = draw(st.sampled_from(["all-Y logistic", "constant", "rotation"]))
    if kind == "all-Y logistic":
        spec = _logistic_in_all_Y(draw(st.floats(0.25, 1.0)))
    elif kind == "constant":
        spec = ExtensionSpec(make_constant_system(draw(
            st.just(-0.0) | st.floats(0.0, 1.0))), ((0.0, 1.0),))
    else:
        tau = draw(st.floats(0.0, 1.0, exclude_max=True))
        spec = ExtensionSpec(make_rotation_system(tau), draw(st.sampled_from(
            [((0.9, 0.05),), ((0.2, 0.25), (0.95, 0.0))])))
    return (spec, draw(st.integers(PREFIX + 1, 12)),
            draw(st.integers(PREFIX + 1, 20)), draw(st.integers(2, 6)),
            draw(st.lists(st.floats(0.0, 1.0), max_size=2)))


@settings(max_examples=60, deadline=None)
@given(run=_deep_runs())
@example(run=(_logistic_in_all_Y(1.0), 12, 20, 6, [0.5]))
@example(run=(_logistic_in_all_Y(0.3), 12, 20, 6, []))  # images shrink
@example(run=(CONSTANT_NEG_ZERO, 12, 20, 4, [0.0]))
@example(run=(ExtensionSpec(make_rotation_system(0.3), ((0.9, 0.05),)), 12,
              20, 6, [0.95]))
def test_descent_matches_the_recursive_search_at_benchmark_depths(run):
    spec, N, depth, density, extra = run
    _check_against_recursive_search(spec, [N, INF], density, depth, extra)


@pytest.mark.parametrize("lam", [0.3, 0.6, 0.95])
def test_descent_matches_the_recursive_search_where_Y_is_not_all(lam):
    # Y = [lambda, 1]: the image sets are all that keeps a job off words
    # with no completion in Y
    _check_against_recursive_search(extension_spec(lam), [6, 9, INF], 6, 12,
                                     [])


@pytest.mark.parametrize("system, Y, N, depth", [
    (circle_doubling_system, ((0.3, 0.4), (0.8, 0.9)), 7, 12),
    (circle_doubling_system, ((0.95, 0.05),), 12, 20),
    (roof_system, ((0.3, 0.4),), 12, 20),
    (roof_system, ((0.7, 0.1),), 9, 16),
    (lambda: tent_system(2.0), ((0.3, 0.4),), 16, 20),
    (lambda: tent_system(1.9), ((0.9, 0.95),), 15, 18),
    (lambda: extension_spec(1.0).system, ((0.3, 0.4),), 15, 20),
], ids=["doubling", "doubling-wrapping-Y", "roof", "roof-wrapping-Y",
        "tent-2", "tent-1.9", "logistic-1"])
def test_descent_matches_the_recursive_search_on_expanding_maps(system, Y, N,
                                                                 depth):
    # maps that expand, with branches that each cover part of the space
    # and a Y that covers little of it: an image set that held more than
    # the image would let a job take a child with no completion where the
    # recursive search backtracks
    _check_against_recursive_search(ExtensionSpec(system(), Y), [N, INF], 6,
                                     depth, [])


def test_descent_reaches_a_leaf_that_in_Y_admits_below_lambda():
    # in_Y admits a leaf 5e-10 below lambda = 0.95; its parent lies 1.7e-9
    # above alpha(lambda), outside the image of Y = [lambda, 1] padded by
    # IMAGE_PAD alone, so the image sets start from Y widened by EPS_CHAIN
    spec = extension_spec(0.95)
    x0 = 0.95 - 5e-10
    for _ in range(7):
        x0 = forward(spec.system, x0)
    search = ext.backward_search(spec, [7], 1, 7, [x0])
    assert any((r[:, -1] < 0.95).any() for r in search.rows[7])
    _check_against_recursive_search(spec, [7], 1, 7, [x0])


@pytest.mark.parametrize("spec", [
    extension_spec(0.3), extension_spec(0.6), extension_spec(0.95),
    _logistic_in_all_Y(0.4), CONSTANT_NEG_ZERO,
    ExtensionSpec(make_rotation_system(0.3), ((0.9, 0.05),)),
    ExtensionSpec(circle_doubling_system(), ((0.3, 0.4), (0.8, 0.9))),
    ExtensionSpec(roof_system(), ((0.7, 0.1),)),
    ExtensionSpec(tent_system(2.0), ((0.3, 0.4),))],
    ids=["logistic-0.3", "logistic-0.6", "logistic-0.95", "all-Y-0.4",
         "constant--0.0", "rotation", "doubling", "roof", "tent-2"])
def test_every_child_the_search_completes_lies_in_its_image_set(spec):
    # coordinate n of a chain of depth d has d - n steps left: it lies in
    # image^(d - n) of Y widened by EPS_CHAIN (terminal), or of Delta
    depth = 12
    for N, base in ((depth, [(lo - EPS_CHAIN, hi + EPS_CHAIN + (hi < lo))
                             for lo, hi in spec.Y]),
                    (INF, spec.system.domain)):
        sets = [tuple(base)]
        for _ in range(depth):
            sets.append(image(spec.system, sets[-1]))
        rows = [c for x0 in ext._seeds(spec, 8, ())
                for c in _recursive_search(spec, x0, depth, N != INF)]
        assert rows
        for row in rows:
            for n, x in enumerate(row[1:-1], start=1):
                assert spec.system.space.in_intervals(sets[depth - n], x,
                                                      0.0), (row, n)


@pytest.mark.xfail(strict=True, reason="a depth-truncated M_inf row may end "
                   "in a point with no preimage: no infinite backward orbit "
                   "runs through it")
@pytest.mark.parametrize("lam, density", [(0.95, 60), (0.6, 60), (0.9, 40)])
def test_every_M_inf_row_continues_backward(lam, density):
    # the last coordinate of a truncation of an infinite backward orbit
    # has a preimage; ending the rows in the eventual image would mend it
    spec = extension_spec(lam)
    last = sample_stratum(spec, INF, density, depth=20).chains.coords[:, -1]
    assert not np.isnan(preimages(spec.system, last)).all(axis=1).any()


def _drop_adjacent_copies(rows: list) -> list:
    """``rows`` without each row whose repr (so bits: -0.0 is not 0.0) is
    the one before it."""
    return [r for i, r in enumerate(rows)
            if i == 0 or repr(r) != repr(rows[i - 1])]


def _check_no_adjacent_copies(search, Ns, depth):
    # no two consecutive rows of a target have the same bits
    for N in Ns:
        got = np.vstack([np.empty((0, 1 + (depth if N == INF else N)))]
                        + search.rows[N]).view(np.int64)
        assert not (got[1:] == got[:-1]).all(axis=1).any()


@settings(max_examples=40, deadline=None)
@given(run=st.tuples(
    _run_specs(),
    st.lists(st.integers(0, PREFIX + 1) | st.just(INF), min_size=1, max_size=4,
             unique=True),
    st.integers(1, PREFIX + 1), st.integers(2, 12),
    st.lists(st.floats(0.0, 1.0), max_size=3)))
@example(run=(extension_spec(0.9), [PREFIX], 8, 12, []))
@example(run=(extension_spec(0.9), [PREFIX + 1], 8, 12, [0.5]))
@example(run=(extension_spec(1.0), [2, PREFIX, INF], 4, 12, []))  # Y is empty
@example(run=(extension_spec(0.95), [1, INF], PREFIX, 20, []))
@example(run=(CONSTANT_NEG_ZERO, [0, 3, INF], 4, 4, []))
@example(run=(_logistic_in_all_Y(0.9), [1, PREFIX], 4, 8, []))
def test_shallow_targets_are_read_off_the_prefix_words(run):
    # a target no deeper than PREFIX_DEPTH takes its rows from the prefix
    # words without a descent; each stratum is still the old sampler's
    spec, Ns, depth, density, extra = run
    calls, real = [], ext._descend

    def counting(*args):
        calls.append(1)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ext, "_descend", counting)
        search = ext.backward_search(spec, Ns, density, depth, extra)
    deep = [N for N in Ns if (depth if N == INF else N) > PREFIX
            and (N == INF or spec.Y)]
    assert bool(calls) == bool(deep)
    # the rows read off, in order: the recursive search's first and last
    # completion of each word, seed by seed, a row that repeats the one
    # before it dropped
    seeds = ext._seeds(spec, density, tuple(extra))
    for N in set(Ns) - set(deep) - {0}:
        d = depth if N == INF else N
        got = np.vstack([np.empty((0, d + 1))] + search.rows[N])
        assert repr(got.tolist()) == repr(_drop_adjacent_copies([
            list(c) for x0 in seeds if N == INF or spec.Y
            for c in _recursive_search(spec, x0, d, N != INF)]))
    _check_no_adjacent_copies(search, Ns, depth)
    for N in Ns:
        old, _ = _old_sample_stratum(spec, N, density, depth, extra)
        try:
            s = sample_stratum(spec, N, density, depth, extra, search=search)
        except EmptyStratum:
            assert old == []
            continue
        assert repr(s.chains.coords.tolist()) == repr([list(c.coords)
                                                       for c in old])


@settings(max_examples=25, deadline=None)
@given(run=_whole_runs())
@example(run=(extension_spec(0.95), 8, 10, 12, [0.5]))
@example(run=(extension_spec(0.9), 8, 7, 6, []))
def test_search_slices_give_the_same_rows(run):
    # a budget of one job, and of seven, cuts every descent into slices
    # of that many jobs; the rows come out the same, in the same order
    spec, n_max, depth, density, extra = run
    Ns = list(range(n_max + 1)) + [INF]
    whole = ext.backward_search(spec, Ns, density, depth, extra)
    real = ext._descend
    for jobs in (1, 7):
        sizes = []

        def recording(spec, words, rev, deep, first):
            sizes.append(len(rev))
            assert len(first) == len(rev)
            return real(spec, words, rev, deep, first)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ext, "_descend", recording)
            mp.setattr(ext, "_descent_bytes", lambda *args: 1)
            mp.setattr(ext, "SEARCH_BYTES", jobs)
            sliced = ext.backward_search(spec, Ns, density, depth, extra)
        assert set(sizes) <= set(range(1, jobs + 1))
        for N in Ns:
            assert repr(np.vstack([np.empty((0, 1 + (
                depth if N == INF else N)))] + sliced.rows[N]).tolist()) \
                == repr(np.vstack([np.empty((0, 1 + (
                    depth if N == INF else N)))] + whole.rows[N]).tolist())
        _check_no_adjacent_copies(sliced, Ns, depth)


def test_benchmark_size_search_records_a_single_completion_once():
    # at lambda 0.95 no word has two children in Y = [lambda, 1], so each
    # completion of M_1 ... M_7 came twice: 13,426 rows, 3,959 of them
    # copies of the row before
    Ns = list(range(11)) + [INF]
    search = ext.backward_search(extension_spec(0.95), Ns, 60, 20)
    assert sum(len(r) for got in search.rows.values() for r in got) == 9467
    _check_no_adjacent_copies(search, Ns, 20)


def test_search_state_stays_within_its_budget():
    # density 400 to depth 60 would hold several times SEARCH_BYTES of
    # state at once; in slices the peak is the budget, the rows found and
    # the prefix words (about 1.2 MiB here), so a slice, with the rows it
    # returns, peaks within the budget and 1 MiB above what was held at
    # its call
    spec = extension_spec(0.95)
    Ns = [4, 8, 12, INF]
    ext.backward_search(spec, Ns, 10, 12)  # first calls import lazily
    real, slices, highs = ext._descend, [], []

    def recording(spec, words, rev, deep, first):
        held, high = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = real(spec, words, rev, deep, first)
        top = tracemalloc.get_traced_memory()[1]
        slices.append((words.shape[1] - 1 + max(map(len, deep.values())),
                       top - held))
        highs.extend((high, top))
        return out

    ext._descend = recording
    tracemalloc.start()
    try:
        search = ext.backward_search(spec, Ns, 400, 60)
        peak = max(highs + [tracemalloc.get_traced_memory()[1]])
    finally:
        tracemalloc.stop()
        ext._descend = real
    rows = sum(r.nbytes for got in search.rows.values() for r in got)
    assert [d for d, _ in slices].count(60) >= 3
    assert max(p for _, p in slices) <= ext.SEARCH_BYTES + 2 ** 20, slices
    assert peak <= ext.SEARCH_BYTES + rows + 2 ** 21


def test_search_keyword_takes_only_its_own_run():
    search = ext.backward_search(SPEC06, [0, 3, INF], 10, 6, [0.3])
    for N in (0, 3, INF):
        assert sample_stratum(SPEC06, N, 10, 6, [0.3], search=search) == \
            sample_stratum(SPEC06, N, 10, 6, [0.3])
    for args in [(extension_spec(0.7), 3, 10, 6, [0.3]),
                 (SPEC06, 3, 11, 6, [0.3]), (SPEC06, 3, 10, 7, [0.3]),
                 (SPEC06, 3, 10, 6, [0.4]), (SPEC06, 3, 10, 6, []),
                 (SPEC06, 3, 10, 6, [0.3, 0.3])]:
        with pytest.raises(ValueError, match="another"):
            sample_stratum(*args, search=search)
    # -0.0 and 0.0 are one float, but not one seed list: the rows keep
    # the sign of their seed
    zero = ext.backward_search(SPEC06, [INF], 10, 6, [0.0])
    with pytest.raises(ValueError, match="another"):
        sample_stratum(SPEC06, INF, 10, 6, [-0.0], search=zero)
    for N in (1, 4, 2.5, True):
        with pytest.raises(ValueError, match="did not run"):
            sample_stratum(SPEC06, N, 10, 6, [0.3], search=search)


def test_one_extend_run_shares_its_preimage_calls(monkeypatch, tmp_path):
    # at the README size the strata sampled one at a time send 82,977
    # points to preimages in 75 calls; one shared search sends 61,165 in
    # 20 calls, its first descent level one table of the prefix words'
    # ends for every target and both jobs of a word
    points = []
    real = ext.preimages

    def counting(system, y):
        points.append(len(y))
        return real(system, y)

    monkeypatch.setattr(ext, "preimages", counting)
    assert cli.main(["extend", "--system", "logistic", "--lambda", "0.95",
                     "--N", "10", "--depth", "20", "--density", "60",
                     "--format", "json", "-o", str(tmp_path / "x")]) == 0
    shared, calls = sum(points), len(points)
    points.clear()
    spec = extension_spec(0.95)
    for N in list(range(11)) + [INF]:
        sample_stratum(spec, N, 60, depth=20)
    assert (shared, calls) == (61_165, 20)
    assert (sum(points), len(points)) == (82_977, 75)
    assert shared < sum(points)


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


# Coordinates where weighing a term could round: signed zeros, subnormals,
# and values whose weighted terms near or cross into the subnormal range,
# beside ordinary ones next to 0 and 1.
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


def _dense_hausdorff(A, B, space=None):
    """Hausdorff distance as hausdorff computed it before it pruned: the
    prefix minima of every row and column in one _prefix_minima call, each
    tail term added to all of them."""
    circle = space is not None and getattr(space, "kind", "") == "circle"
    xa, xb = A.chains.coords, B.chains.coords
    ta, tb = A.chains.terminal, B.chains.terminal
    la, lb = xa.shape[1], xb.shape[1]
    horizon = max(la, lb, 60)
    w = ext.WEIGHT_BASE ** np.arange(horizon)

    k = min(la, lb)
    rmin, cmin = ext._prefix_minima(xa[:, :k], xb[:, :k], w, circle)
    for n in range(k, horizon):
        if n < la:  # b has run out
            d = ext.TERMINAL_GAP if tb else 0.0
        elif n < lb:  # a has run out
            d = ext.TERMINAL_GAP if ta else 0.0
        else:
            d = ext.TERMINAL_GAP if ta != tb else 0.0
        if d:
            rmin += w[n] * d
            cmin += w[n] * d
    return max(rmin.max(), cmin.max())


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def _check_bounds(A, B, space=None):
    """Every bound _order_bounds gives is at least its row's kernel
    minimum."""
    circle = space is not None and getattr(space, "kind", "") == "circle"
    k = min(A.chains.coords.shape[1], B.chains.coords.shape[1])
    xa, xb = A.chains.coords[:, :k], B.chains.coords[:, :k]
    w = ext.WEIGHT_BASE ** np.arange(60)
    bounds = ext._order_bounds(xa, xb, w, circle)
    for bound, minimum in zip(bounds, ext._prefix_minima(xa, xb, w,
                                                          circle)):
        assert (bound >= minimum).all()


@st.composite
def _pruned_samples(draw):
    """A sample of 1 to 3 _ROW_BLOCK + 1 chains of one length (1 to 8) and
    one flag: uniform coordinates, some rows repeated, some heads shared
    with other rows, and a few edge values (subnormals among them)."""
    B = ext._ROW_BLOCK
    length = draw(st.integers(1, 8))
    n = draw(st.sampled_from([1, 2, B, B + 1, 2 * B + 1, 3 * B + 1])
             | st.integers(1, 3 * B + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.random((n, length))
    share = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    x[share, 0] = x[rng.integers(n, size=share.sum()), 0]
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    x[dup] = x[rng.integers(n, size=dup.sum())]
    for e in draw(st.lists(st.sampled_from(_KERNEL_EDGES), max_size=3)):
        x[rng.integers(n), rng.integers(length)] = e
    terminal = draw(st.booleans())
    return StratumSample(length - 1 if terminal else INF,
                         ext.ChainRows(x, terminal), length - 1)


@st.composite
def _pruned_pairs(draw):
    """Two samples of _pruned_samples, the second either drawn alone or,
    as a stratum lies near M_inf, from rows of the first moved by noise of
    one scale, padded with uniform columns to its own length."""
    A = draw(_pruned_samples())
    if draw(st.booleans()):
        return A, draw(_pruned_samples())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = A.chains.coords
    n = draw(st.integers(1, 3 * ext._ROW_BLOCK + 1))
    length = draw(st.integers(1, 8))
    y = rng.random((n, length))
    k = min(length, x.shape[1])
    y[:, :k] = x[rng.integers(len(x), size=n), :k] + rng.normal(
        scale=draw(st.sampled_from([1e-9, 1e-4, 1e-2])), size=(n, k))
    terminal = draw(st.booleans())
    B = StratumSample(length - 1 if terminal else INF,
                      ext.ChainRows(np.clip(y, 0.0, 1.0), terminal),
                      length - 1)
    return (A, B) if draw(st.booleans()) else (B, A)


@settings(max_examples=200, deadline=None)
@given(AB=_pruned_pairs(), space=st.sampled_from([None, CIRCLE]))
def test_pruned_hausdorff_is_the_dense_float(AB, space):
    A, B = AB
    assert _bits(hausdorff(A, B, space=space)) == \
        _bits(_dense_hausdorff(A, B, space))
    _check_bounds(A, B, space)


@pytest.fixture(scope="module")
def study_strata():
    """M_4, M_8, M_12 and M_inf at density 40, depth 20, around lambda
    0.9, as the chains study samples them."""
    out = []
    for lam in (0.899, 0.9, 0.901):
        spec = extension_spec(lam)
        out.append([sample_stratum(spec, N, 40, depth=20)
                    for N in (4, 8, 12, INF)])
    return out


@pytest.mark.parametrize("space", [None, CIRCLE], ids=["interval", "circle"])
def test_pruned_hausdorff_with_rows_far_from_the_other_sample(space):
    # the 40 rows of A all sort below B, so the first 24 have no row of B
    # within 2 _BOUND_RANK places: their bounds are inf, and the kernel
    # takes them first
    rng = np.random.default_rng(5)
    A = StratumSample(4, ext.ChainRows(0.1 * rng.random((40, 5)), True), 4)
    B = StratumSample(INF, ext.ChainRows(0.9 + 0.1 * rng.random((30, 7)),
                                         False), 6)
    w = ext.WEIGHT_BASE ** np.arange(60)
    bound = ext._order_bounds(A.chains.coords, B.chains.coords[:, :5], w,
                              space is CIRCLE)[0]
    assert np.isinf(bound).sum() == 40 - 2 * ext._BOUND_RANK
    assert _bits(hausdorff(A, B, space=space)) == \
        _bits(_dense_hausdorff(A, B, space))
    _check_bounds(A, B, space)


def test_pruned_hausdorff_on_the_study_strata(study_strata):
    for *finite, minf in study_strata:
        for mn in finite:
            assert _bits(hausdorff(mn, minf)) == \
                _bits(_dense_hausdorff(mn, minf))
            _check_bounds(mn, minf)


def test_pruned_hausdorff_work_on_the_study_strata(study_strata,
                                                   monkeypatch):
    # the pairs the kernel sums and the pairs the bounds sum (through
    # _term_sums) are at most 35% of the pairs of the dense pass
    kernel, term_sums = ext._prefix_minima, ext._term_sums
    pairs = []

    def counted_kernel(xa, xb, w, circle):
        pairs.append(len(xa) * len(xb))
        return kernel(xa, xb, w, circle)

    def counted_term_sums(a, b, w, circle):
        d = term_sums(a, b, w, circle)
        pairs.append(np.size(d))
        return d

    monkeypatch.setattr(ext, "_prefix_minima", counted_kernel)
    monkeypatch.setattr(ext, "_term_sums", counted_term_sums)
    dense = 0
    for *finite, minf in study_strata:
        for mn in finite:
            hausdorff(mn, minf)
            dense += len(mn.chains) * len(minf.chains)
    assert sum(pairs) <= 0.35 * dense


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_hausdorff_refuses_a_coordinate_that_is_not_finite(bad, which):
    x = [np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[0.5, 0.6],
                                                       [0.7, 0.8]])]
    x[which][1, 1] = bad
    A = StratumSample(1, ext.ChainRows(x[0], True), 1)
    B = StratumSample(INF, ext.ChainRows(x[1], False), 1)
    with pytest.raises(ValueError, match=f"M_{('1', 'inf')[which]} has the "
                                         f"coordinate {bad!r}, "):
        hausdorff(A, B)


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
    # the link misses by far more than the chain tolerance
    space, alpha = spec.system.space, spec.system.forward_map
    assert space.metric(alpha(rows[0, 1]), rows[0, 0]) > 10 * EPS_CHAIN
    assert not valid_rows(spec, rows, np.array([2]), False).any()


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
    (_doc(chains=(([0.1, 0.2, 0.3], "false"),)), ValueError),
], ids=["N-negative", "N-float", "N-str", "N-bool", "N-null", "depth-0",
        "depth-negative", "depth-float", "mixed-lengths", "mixed-flags",
        "length-not-N+1", "finite-non-terminal", "inf-terminal",
        "inf-length-not-depth+1", "empty", "inf-empty", "flag-str"])
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
