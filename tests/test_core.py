"""Core system tests: preimages against an independent bisection oracle,
orbits and omega-limit sets against brute iteration, semiconjugacy
checking on the classical tent-to-quadratic conjugacy, and the bracketing
root finder."""

import math

import pytest
from hypothesis import given, strategies as st

from revext.core import (CIRCLE, EPS_CHAIN, Branch, BracketFailure,
                         FactorMapSample, OutsideDomain, PartialMapSystem,
                         UNIT_INTERVAL, apply, check_semiconjugacy, find_root,
                         make_constant_system, make_rotation_system,
                         omega_limit, orbit, preimages)
from revext.logistic import make_system


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
    for j in range(40):
        y = j / 39 * lam * 0.999  # strictly below the critical value
        got = dict(preimages(system, y))
        left = bisect_preimage(f, y, 0.0, 0.5)
        right = bisect_preimage(f, y, 0.5, 1.0)
        assert set(got) == {"L", "R"}
        assert got["L"] == pytest.approx(left, abs=1e-10)
        assert got["R"] == pytest.approx(right, abs=1e-10)


def test_preimages_above_critical_value_empty():
    system = make_system(0.6)
    assert preimages(system, 0.7) == []


def test_preimages_at_critical_value_merge_to_C():
    system = make_system(0.6)
    got = preimages(system, 0.6)
    assert len(got) == 1
    label, x = got[0]
    assert label == "C"
    assert x == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("y", [1e-9, 3e-10, 1e-12])
def test_preimages_merge_across_zero_on_the_circle(y):
    # x -> 1.5 min(x, 1 - x) on the circle folds at 0 = 1, so the preimages
    # y/1.5 and 1 - y/1.5 of a small y are near-coincident there; their
    # plain average is near the antipode 1/2, which maps to 0.75, not to y
    roof = PartialMapSystem(
        space=CIRCLE, domain=((0.0, 1.0),),
        forward_map=lambda x: 1.5 * min(x, 1.0 - x),
        branches=(Branch("L", (0.0, 0.5), lambda y: y / 1.5),
                  Branch("R", (0.5, 1.0), lambda y: 1.0 - y / 1.5)))
    got = preimages(roof, y)
    assert [label for label, _ in got] == ["C"]
    assert CIRCLE.metric(apply(roof, got[0][1]), y) <= EPS_CHAIN


def test_apply_outside_domain_raises():
    half = PartialMapSystem(
        space=UNIT_INTERVAL, domain=((0.0, 0.5),),
        forward_map=lambda x: 2.0 * x, branches=(), name="half")
    assert apply(half, 0.25) == pytest.approx(0.5)
    with pytest.raises(OutsideDomain):
        apply(half, 0.75)


def test_orbit_records_escape():
    half = PartialMapSystem(
        space=UNIT_INTERVAL, domain=((0.0, 0.5),),
        forward_map=lambda x: 2.0 * x, branches=(), name="half")
    rec = orbit(half, 0.2, 10)
    assert rec.escaped
    assert rec.points[-1] == pytest.approx(0.8)


def test_omega_limit_matches_brute_iteration():
    # lam = 0.8: attracting 2-cycle; brute-force the cycle independently
    lam = 0.8
    x = 0.3
    for _ in range(100000):
        x = 4.0 * lam * x * (1.0 - x)
    cycle = sorted({round(x, 9), round(4.0 * lam * x * (1.0 - x), 9)})
    got = omega_limit(make_system(lam), 0.3)
    assert len(got) == 2
    for g, c in zip(got, cycle):
        assert g == pytest.approx(c, abs=1e-6)


def test_omega_limit_rotation_third():
    got = omega_limit(make_rotation_system(1.0 / 3.0), 0.05)
    assert len(got) == 3


def _omega_limit_pairwise(system, x, transient=2000, iters=512,
                          cluster_eps=1e-6):
    """The all-pairs clustering omega_limit used to run, in orbit order."""
    reps = []
    for p in orbit(system, x, transient + iters).points[transient:]:
        if all(system.space.metric(p, r) > cluster_eps for r in reps):
            reps.append(p)
    return sorted(reps)


@pytest.mark.parametrize("system,x,count", [
    (make_system(0.8), 0.3, 2),                 # attracting 2-cycle
    (make_rotation_system(1.0 / 3.0), 0.05, 3),
    # the cluster near 0 drifts across 0/1 while the tail is taken
    (make_rotation_system(1.0 / 3.0 + 1e-10), 1.0 - 2.2e-7, 3),
    (make_system(0.95), 0.3, None)])            # chaotic
def test_omega_limit_matches_pairwise_clustering(system, x, count):
    got = omega_limit(system, x)
    expected = _omega_limit_pairwise(system, x)
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
    assert preimages(system, 0.3) == [("only", 0.3)]
    assert preimages(system, 0.4) == []


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
