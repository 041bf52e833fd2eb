"""Core system tests: preimages against an independent bisection oracle
and the scalar per-point loop, the elementwise contract of the stock
systems' maps, clustering of orbit tails, semiconjugacy checking on the
classical tent-to-quadratic conjugacy, and the bracketing root finder."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import decimal_edge_floats, scalar_preimages
from revext.core import (CIRCLE, EPS_CHAIN, EPS_DOM, Branch, BracketFailure,
                         FactorMapSample, OutsideDomain, PartialMapSystem,
                         UNIT_INTERVAL, apply, check_semiconjugacy,
                         cluster_points, decimal_rint, find_root,
                         make_constant_system, make_rotation_system,
                         preimages)
from revext.logistic import make_system
from revext.operator_model import logistic_period3_model


def bisect_preimage(f, y, lo, hi, tol=1e-13):
    """Independent root bracket for f(x) = y on a monotone piece."""
    flo, fhi = f(lo) - y, f(hi) - y
    if flo * fhi > 0:
        return None
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = f(mid) - y
        if hi - lo < tol:
            break
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("lam", [0.3, 0.6, 0.9])
def test_preimages_match_bisection_oracle(lam):
    system = make_system(lam)
    f = lambda x: 4.0 * lam * x * (1.0 - x)
    # strictly below the critical value
    ys = [j / 39 * lam * 0.999 for j in range(40)]
    table = preimages(system, np.array(ys))
    assert table.shape == (40, 2)
    for y, (left, right) in zip(ys, table.tolist()):
        assert left == pytest.approx(bisect_preimage(f, y, 0.0, 0.5),
                                     abs=1e-10)
        assert right == pytest.approx(bisect_preimage(f, y, 0.5, 1.0),
                                      abs=1e-10)


def test_preimages_above_critical_value_empty():
    system = make_system(0.6)
    assert np.isnan(preimages(system, np.array([0.7, 1.0]))).all()


def test_preimages_at_critical_value_merge_to_C():
    # the two branches meet at the critical point: one preimage, first
    system = make_system(0.6)
    x, rest = preimages(system, np.array([0.6]))[0]
    assert x == pytest.approx(0.5, abs=1e-8) and math.isnan(rest)


def _roof():
    """x -> 1.5 min(x, 1 - x) on the circle, which folds at 0 = 1."""
    return PartialMapSystem(
        space=CIRCLE, domain=((0.0, 1.0),),
        forward_map=lambda x: 1.5 * np.minimum(x, 1.0 - x),
        branches=(Branch((0.0, 0.5), lambda y: y / 1.5),
                  Branch((0.5, 1.0), lambda y: 1.0 - y / 1.5)))


@pytest.mark.parametrize("y", [1e-9, 3e-10, 1e-12])
def test_preimages_merge_across_zero_on_the_circle(y):
    # the preimages y/1.5 and 1 - y/1.5 of a small y are near-coincident
    # at 0 = 1; their plain average is near the antipode 1/2, which maps to
    # 0.75, not to y
    roof = _roof()
    x, rest = preimages(roof, np.array([y]))[0]
    assert math.isnan(rest)
    assert CIRCLE.metric(apply(roof, x), y) <= EPS_CHAIN
    # and row by row as the scalar loop: the fold, the top 0.75 and past
    # it, values that wrap, and the merge threshold of 1.5e-8 on each side
    ys = [y, 0.0, -0.0, 0.3, 0.75, 0.75 + 1e-10, 0.8, 1.0 - 1e-12, 1.25,
          -1e-12, 1.5e-8 * (1 - 1e-9), 1.5e-8 * (1 + 1e-9), 0.5]
    _check_against_scalar_loop(roof, ys)


def _check_against_scalar_loop(system, ys):
    table = preimages(system, np.array(ys))
    assert table.shape == (len(ys), len(system.branches))
    for y, row in zip(ys, table.tolist()):
        want = scalar_preimages(system, y)
        assert repr(row) == repr(want + [math.nan] * (len(row) - len(want)))


def _check_elementwise(system, xs):
    """The forward map and each branch inverse give on an array what they
    give on its elements, NaN and signed zeros included."""
    for f in (system.forward_map,) + tuple(b.inverse for b in system.branches):
        each = [f(x) for x in xs]
        assert all(isinstance(v, float) for v in each)
        assert repr(f(np.array(xs)).tolist()) == repr([float(v) for v in each])
        assert f(np.empty(0)).shape == (0,)


_EDGES = [0.0, -0.0, 1.0, 0.5, 1e-9, -1e-20, math.nextafter(1.0, 0.0), 0.25,
          math.nan]


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.25, 1.0),
       xs=st.lists(st.floats(-0.5, 1.5), max_size=20))
def test_logistic_maps_act_elementwise(lam, xs):
    edges = [lam, lam + EPS_DOM, float(np.nextafter(lam + EPS_DOM, 2.0)),
             lam - EPS_DOM]
    _check_elementwise(make_system(lam), xs + edges + _EDGES)


def _period3_system():
    model = logistic_period3_model(depth=2)
    return model.spec.system, model.coords[0].tolist()


@pytest.mark.parametrize("system", [
    make_rotation_system(0.3), make_rotation_system(0.0),
    make_constant_system(0.5), make_constant_system(-0.0),
    _period3_system()[0]], ids=["rotation", "rotation-0", "constant-0.5",
                                "constant--0.0", "period3"])
def test_stock_maps_act_elementwise(system):
    orbit = _period3_system()[1]
    near = [x + d for x in orbit for d in (0.0, 9e-8, -2e-7)]
    xs = [j / 40 for j in range(41)] + _EDGES + near + [0.5 + 1e-9, 0.3]
    _check_elementwise(system, xs)


def test_apply_outside_domain_raises():
    half = PartialMapSystem(
        space=UNIT_INTERVAL, domain=((0.0, 0.5),),
        forward_map=lambda x: 2.0 * x, branches=(), name="half")
    assert apply(half, 0.25) == pytest.approx(0.5)
    with pytest.raises(OutsideDomain):
        apply(half, 0.75)


def _orbit_tail(system, x, transient=2000, iters=512):
    """The points of the forward orbit of x after ``transient`` steps."""
    points = [system.space.normalize(x)]
    for _ in range(transient + iters):
        points.append(apply(system, points[-1]))
    return points[transient:]


def _cluster_pairwise(space, points, eps=1e-6):
    """The all-pairs clustering of an orbit tail, in orbit order: the
    oracle of cluster_points' one pass over the sorted points."""
    reps = []
    for p in points:
        if all(space.metric(p, r) > eps for r in reps):
            reps.append(p)
    return sorted(reps)


@pytest.mark.parametrize("system,x,count", [
    (make_system(0.8), 0.3, 2),                 # attracting 2-cycle
    (make_rotation_system(1.0 / 3.0), 0.05, 3),
    # the cluster near 0 drifts across 0/1 while the tail is taken
    (make_rotation_system(1.0 / 3.0 + 1e-10), 1.0 - 2.2e-7, 3),
    (make_system(0.95), 0.3, None)])            # chaotic
def test_omega_limit_matches_pairwise_clustering(system, x, count):
    tail = _orbit_tail(system, x)
    got = cluster_points(tail, system.space, 1e-6)
    expected = _cluster_pairwise(system.space, tail)
    assert len(got) == len(expected)
    assert count is None or len(got) == count
    for g in got:
        assert min(system.space.metric(g, e) for e in expected) <= 1e-6


def test_tent_quadratic_semiconjugacy():
    # Psi(t) = sin^2(pi t / 2) intertwines the tent map and the full
    # quadratic map: a classical exact conjugacy.
    tent = PartialMapSystem(
        space=UNIT_INTERVAL, domain=((0.0, 1.0),),
        forward_map=lambda t: 2.0 * t if t <= 0.5 else 2.0 - 2.0 * t,
        branches=(), name="tent")
    psi = lambda t: math.sin(math.pi * t / 2.0) ** 2
    sample = FactorMapSample(psi, tuple(j / 200 for j in range(201)))
    report = check_semiconjugacy(sample, tent, make_system(1.0))
    assert report.domain_violations == 0
    assert report.max_residual < 1e-12


def test_semiconjugacy_detects_wrong_factor_map():
    tent = PartialMapSystem(
        space=UNIT_INTERVAL, domain=((0.0, 1.0),),
        forward_map=lambda t: 2.0 * t if t <= 0.5 else 2.0 - 2.0 * t,
        branches=(), name="tent")
    sample = FactorMapSample(lambda t: t, tuple(j / 50 for j in range(51)))
    report = check_semiconjugacy(sample, tent, make_system(1.0))
    assert report.max_residual > 0.1


def test_constant_system_preimage_is_target_only():
    system = make_constant_system(0.3)
    assert apply(system, 0.9) == pytest.approx(0.3)
    assert repr(preimages(system, np.array([0.3, 0.4])).tolist()) == \
        repr([[0.3], [math.nan]])


def test_circle_metric_wraps():
    rot = make_rotation_system(0.25)
    assert rot.space.metric(0.95, 0.05) == pytest.approx(0.1)
    assert apply(rot, 0.9) == pytest.approx(0.15)


def test_wrapped_interval_membership():
    arc = ((0.9, 0.1),)
    assert CIRCLE.in_intervals(arc, 0.95, 0.0)
    assert CIRCLE.in_intervals(arc, 1.05, 0.0)
    assert CIRCLE.in_intervals(arc, 0.1 + 1e-13, 1e-12)
    assert not CIRCLE.in_intervals(arc, 0.5, 0.0)
    assert not UNIT_INTERVAL.in_intervals(arc, 0.95, 0.0)
    assert make_rotation_system(0.25).in_domain(0.5)


# ---------------------------------------------------------------------------
# Root finder

FUNCTIONS = {
    "linear": (lambda r: lambda x: x - r, lambda r: r),
    "cubic": (lambda r: lambda x: x ** 3 - r,
              lambda r: math.copysign(abs(r) ** (1.0 / 3.0), r)),
}


@given(kind=st.sampled_from(sorted(FUNCTIONS)),
       sign=st.sampled_from([1.0, -1.0]),
       r=st.floats(-8.0, 8.0),
       below=st.floats(1e-6, 5.0), above=st.floats(1e-6, 5.0),
       xtol=st.floats(1e-12, 1e-2))
def test_find_root_within_xtol(kind, sign, r, below, above, xtol):
    make, exact = FUNCTIONS[kind]
    g = make(r)
    root = exact(r)
    got = find_root(lambda x: sign * g(x), (root - below, root + above), xtol)
    # the midpoint of a final bracket at most xtol wide, up to rounding
    assert abs(got - root) <= 0.5 * xtol + 1e-15


@given(r=st.floats(-8.0, 8.0), gap=st.floats(1e-6, 5.0),
       width=st.floats(1e-6, 5.0), side=st.sampled_from([1.0, -1.0]))
def test_find_root_one_signed_bracket_raises(r, gap, width, side):
    a = r + side * gap
    with pytest.raises(BracketFailure):
        find_root(lambda x: x - r, (a, a + side * width), 1e-9)


@given(k=st.integers(-5, 30), exact=st.booleans())
def test_find_root_consumes_points_up_to_the_bracket(k, exact):
    seen = []

    def points():
        for x in range(-10, 50):
            seen.append(x)
            yield float(x)

    root = k if exact else k + 0.5
    got = find_root(lambda x: x - root, points(), 1e-12)
    # a point where f is exactly zero is returned as it is
    assert got == root if exact else abs(got - root) <= 1e-12
    assert seen == list(range(-10, k + 1 if exact else k + 2))


def test_find_root_stops_at_float_resolution():
    # xtol = 0 ends when the midpoint is an endpoint of the bracket
    got = find_root(lambda x: x - 1.0 / 3.0, (0.0, 1.0), 0.0)
    assert abs(got - 1.0 / 3.0) <= 2 * math.ulp(1.0 / 3.0)
    with pytest.raises(BracketFailure):
        find_root(lambda x: x, (), 1e-9)


@given(xs=st.lists(decimal_edge_floats(), min_size=1, max_size=40),
       big=st.lists(st.floats(-2.0 ** 62, 2.0 ** 62), max_size=5),
       digits=st.sampled_from([2, 9]))
@example(xs=[5e-10, (12345 + 0.5) / 1e9, -0.0], big=[], digits=9)
def test_decimal_rint_rounds_the_exact_value(xs, big, digits):
    # Python's round gives the double nearest k / 10**digits
    got = decimal_rint(np.array(xs), digits)
    assert (got / 10.0 ** digits).tolist() == [round(x, digits) for x in xs]
    # big: products up to 2**62, where they lose integer resolution
    xs += [b / 10 ** digits for b in big]
    got = decimal_rint(np.array(xs), digits)
    assert got.dtype == np.int64
    assert got.tolist() == [round(Fraction(x) * 10 ** digits) for x in xs]


@pytest.mark.parametrize("x, error", [
    (math.nan, ValueError), (math.inf, ValueError), (1e300, OverflowError)])
def test_decimal_rint_rejects_what_int64_cannot_hold(x, error):
    with pytest.raises(error):
        decimal_rint([0.5, x], 9)
