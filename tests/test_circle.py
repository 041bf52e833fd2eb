"""Circle homeomorphism tests: rotation numbers against exact values, the
compression trichotomy, extension shapes, classification with genuine
periodic points, and conjugation invariance of the rotation number."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revext import circle as ci


def test_lift_periodicity():
    h = ci.perturbed_rotation(0.3, 0.4)
    for j in range(10):
        t = j / 10 - 0.5
        assert h.lift(t + 1.0) == pytest.approx(h.lift(t) + 1.0)


@pytest.mark.parametrize("a", [math.nan, 1.0, -1.0, math.inf, 1.5])
def test_perturbed_rotation_rejects_a_outside_the_unit_disc(a):
    # a NaN passed the old test abs(a) >= 1 and failed later, in the
    # rotation number, with an error that named no input
    with pytest.raises(ValueError, match="perturbation a"):
        ci.perturbed_rotation(0.3, a)


@pytest.mark.parametrize("offset", [-3, -1, 0, 2])
def test_inverse_lift(offset):
    h = ci.perturbed_rotation(0.3, 0.4, offset=offset)
    for j in range(20):
        t = j / 20
        assert h.inverse_lift(h.lift(t)) == pytest.approx(t, abs=1e-12)
        assert h.lift(h.inverse_lift(h.lift(t))) == pytest.approx(
            h.lift(t), abs=1e-10)


def _grid(g0, inner):
    return ci.grid_homeo([g0] + [g0 + x for x in sorted(inner)] + [g0 + 1.0])


_homeos = st.one_of(
    st.builds(ci.rigid_rotation, st.floats(0.0, 1.0), st.integers(-2, 2)),
    st.builds(ci.perturbed_rotation, st.floats(0.0, 1.0),
              st.floats(-0.9, 0.9), st.integers(-2, 2)),
    st.builds(_grid, st.floats(-1.5, 1.5),
              st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6)))


@given(h=_homeos, t=st.floats(-3.0, 3.0), n=st.integers(0, 300))
def test_lift_iter_is_repeated_lift(h, t, n):
    expected = t
    for _ in range(n):
        expected = h.lift(expected)
    assert h.lift_iter(t, n) == expected


@pytest.mark.parametrize("n_iter", [0, -5])
def test_rotation_number_rejects_nonpositive_n_iter(n_iter):
    h = ci.rigid_rotation(0.3)
    with pytest.raises(ValueError, match="n_iter"):
        ci.rotation_number(h, n_iter)
    with pytest.raises(ValueError, match="n_iter"):
        ci.classify(h, n_iter=n_iter)


@pytest.mark.parametrize("tau", [0.3, 2.0 / 5.0, math.sqrt(2.0) - 1.0])
def test_rotation_number_rigid(tau):
    got = ci.rotation_number(ci.rigid_rotation(tau), n_iter=100_000)
    assert abs(got - tau) <= 1.0 / 100_000


@settings(deadline=None)
@given(tau=st.floats(0.01, 0.99), offset=st.integers(-2, 2))
def test_rotation_number_rigid_to_rounding(tau, offset):
    got = ci.rotation_number(ci.rigid_rotation(tau, offset))
    assert abs(got - tau) <= 1e-13
    assert got.weighted and got.steps == 2000


def test_rotation_number_cap_is_not_a_buffer_size():
    # the orbit converges at 2000 steps; a cap of 10**11 steps is never
    # allocated
    got = ci.rotation_number(ci.rigid_rotation(0.4), n_iter=10**11)
    assert got.steps == 2000 and got.weighted


@settings(max_examples=30, deadline=None)
@given(h=_homeos)
def test_rotation_number_lies_in_its_interval(h):
    cls = ci.classify(h, n_iter=5000)
    lo, hi = cls.evidence["interval"]
    assert 0.0 <= cls.tau < 1.0 and lo < cls.tau < hi
    assert hi - lo == pytest.approx(2.0 / cls.evidence["steps"], rel=1e-9)


def _certified_interval(tau, a, n):
    """(S - 1)/n .. (S + 1)/n for the displacement sum S of n steps of
    t -> t + tau + a*sin(2*pi*t)/(2*pi) from 0, summed exactly."""
    twopi = 2.0 * math.pi

    def displacements():
        t = 0.0
        for _ in range(n):
            d = tau + a * math.sin(twopi * t) / twopi
            yield d
            t = (t + d) % 1.0

    total = math.fsum(displacements())
    return (total - 1.0) / n, (total + 1.0) / n


@pytest.mark.parametrize("tau,a", [(0.381966, 0.05), (0.618034, 0.3)])
def test_rotation_number_perturbed_in_long_orbit_interval(tau, a):
    got = ci.rotation_number(ci.perturbed_rotation(tau, a), n_iter=1_000_000)
    lo, hi = _certified_interval(tau, a, 4_000_000)
    assert got.weighted and lo < got < hi


@pytest.mark.parametrize("n_iter", [1, 999, 1500])
def test_rotation_number_capped_at_n_iter(n_iter):
    tau = math.sqrt(2.0) - 1.0
    got = ci.rotation_number(ci.rigid_rotation(tau), n_iter)
    assert got.steps == n_iter and abs(got - tau) <= 1.0 / n_iter
    assert got.weighted == (n_iter == 1500)  # 1000 and 1500 steps agree


def test_rotation_number_unconverged_grid_stops_at_n_iter():
    # a piecewise-linear conjugate of an irrational rotation: the weighted
    # average converges only algebraically, far from 1e-13 in 20 000 steps
    h = ci.sampled_conjugate(ci.rigid_rotation(math.sqrt(2.0) - 1.0),
                             ci.grid_homeo([0.0, 0.35, 0.8, 1.0]))
    got = ci.rotation_number(h, 20_000)
    assert got.steps == 20_000 and not got.weighted
    lo, hi = got.interval
    assert lo < got < hi and lo < math.sqrt(2.0) - 1.0 < hi


def test_rotation_number_seed_independent():
    h = ci.perturbed_rotation(0.35, 0.5)
    a = ci.rotation_number(h, n_iter=50_000, seed=0.0)
    b = ci.rotation_number(h, n_iter=50_000, seed=0.37)
    assert abs(a - b) < 2.0 / 50_000


def test_compression_trichotomy():
    assert ci.compression_case(ci.rigid_rotation(0.25)).case == "Coisometry"
    assert ci.compression_case(ci.rigid_rotation(0.0)).case == "Unitary"
    down = ci.rigid_rotation(0.25, offset=-1)  # gamma(0) = -0.75
    case = ci.compression_case(down)
    assert case.case == "Isometry"
    assert case.cosurjectivity_arc[1] == pytest.approx(
        down.inverse_lift(0.0), abs=1e-9)
    far = ci.compression_case(ci.rigid_rotation(-0.3, offset=-2))
    assert far.case == "Isometry" and far.gamma0 == pytest.approx(-2.3)
    assert far.cosurjectivity_arc[0] == 0.0
    assert far.cosurjectivity_arc[1] == pytest.approx(2.3, abs=1e-12)


def test_extension_shape_full_cylinder():
    h = ci.rigid_rotation(0.5, offset=1)  # gamma(0) = 1.5
    shape = ci.extension_shape(h)
    assert shape.kind == "FullCylinder" and not shape.arcs


def test_extension_shape_full_cylinder_builds_no_orbit():
    rot = ci.rigid_rotation(0.5, offset=1)
    calls = []
    h = ci.CircleHomeo(lambda f: calls.append(f) or rot.base(f))
    assert ci.extension_shape(h).kind == "FullCylinder"
    assert calls == [0.0]  # gamma(0) alone


def test_extension_shape_requires_coisometry():
    with pytest.raises(ci.NotCoisometry):
        ci.extension_shape(ci.rigid_rotation(0.0))


def test_extension_shape_quarter_arcs():
    shape = ci.extension_shape(ci.rigid_rotation(0.25), N_max=7)
    assert shape.kind == "ArcLadder"
    for N, origin, end in shape.arcs:
        assert origin == pytest.approx((N * 0.25) % 1.0, abs=1e-12)
        assert end == pytest.approx(((N + 1) * 0.25) % 1.0, abs=1e-12)
    # arcs chain: end of stratum N is the origin of stratum N+1
    for (n0, _, e0), (n1, o1, _) in zip(shape.arcs, shape.arcs[1:]):
        assert n1 == n0 + 1 and e0 == pytest.approx(o1, abs=1e-12)


@pytest.mark.parametrize("m,n", [(1, 3), (2, 5)])
def test_endpoint_limit_cardinality(m, n):
    shape = ci.extension_shape(ci.rigid_rotation(m / n))
    assert len(shape.limit_set) == n


def _pairwise_limit_set(h, limit_iters, cluster_eps, N_max=50):
    """The all-pairs clustering extension_shape used to run, on the same
    orbit tail; also counts the points merged only across the 0/1 wrap."""
    ends = [0.0]
    for _ in range(max(N_max + 1, limit_iters)):
        ends.append(h.lift(ends[-1]))
    tail = sorted(ci.CIRCLE.normalize(e) for e in ends[limit_iters // 2:])
    reps, wrap_merges = [], 0
    for p in tail:
        if all(min(abs(p - r), 1.0 - abs(p - r)) > cluster_eps for r in reps):
            reps.append(p)
        elif reps and p - reps[-1] > cluster_eps:
            wrap_merges += 1
    return tuple(reps), wrap_merges


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       a=st.floats(0.0, 0.5),
       cluster_eps=st.sampled_from([1e-6, 1e-3, 0.02]),
       limit_iters=st.integers(50, 2000))
@example(tau=0.381966, a=0.05, cluster_eps=0.02, limit_iters=2000)
@example(tau=0.2, a=0.0, cluster_eps=1e-3, limit_iters=200)
def test_extension_shape_limit_set_matches_pairwise_clustering(
        tau, a, cluster_eps, limit_iters):
    h = ci.perturbed_rotation(tau, a)
    shape = ci.extension_shape(h, limit_iters=limit_iters,
                               cluster_eps=cluster_eps)
    expected, _ = _pairwise_limit_set(h, limit_iters, cluster_eps)
    assert shape.limit_set == expected


@pytest.mark.parametrize("tau,a,cluster_eps,limit_iters",
                         [(0.381966, 0.05, 0.02, 2000),
                          (0.2, 0.0, 1e-3, 200)])
def test_pairwise_oracle_merges_across_the_wrap(tau, a, cluster_eps,
                                                limit_iters):
    """The explicit examples above do merge points, some only across 0/1."""
    h = ci.perturbed_rotation(tau, a)
    reps, wrap_merges = _pairwise_limit_set(h, limit_iters, cluster_eps)
    assert len(reps) < limit_iters - limit_iters // 2 + 1
    assert wrap_merges > 0


def test_extension_shape_json():
    doc = ci.extension_shape(ci.rigid_rotation(0.25), N_max=2).to_json()
    assert doc["space"] == "circle" and doc["kind"] == "ArcLadder"
    assert doc["arcs"][0] == {"N": 0, "origin": 0.0, "end": 0.25}


def test_classify_rational_finds_periodic_orbit():
    # at 1/7 the residual gamma^7(t) - t - 1 is -2.2e-16 on the whole circle
    for m, n in ((2, 5), (1, 7)):
        h = ci.rigid_rotation(m / n)
        cls = ci.classify(h)
        assert cls.kind == "RationalPeriodic"
        assert (cls.m, cls.n) == (m, n)
        pt = cls.evidence["periodic_point"]
        assert h.lift_iter(pt, n) == pytest.approx(pt + m, abs=1e-8)


def test_classify_irrational():
    cls = ci.classify(ci.rigid_rotation(math.sqrt(2.0) - 1.0))
    assert cls.kind == "IrrationalTransitive"


@pytest.mark.parametrize("h,m,n", [
    (ci.rigid_rotation(0.4, offset=1), 2, 5),
    (ci.rigid_rotation(1.4), 2, 5),
    (ci.rigid_rotation(2.0 / 7.0, offset=-2), 2, 7),
    (ci.perturbed_rotation(0.01, 0.5, offset=2), 0, 1),
    (ci.perturbed_rotation(0.99, 0.5), 0, 1)])
def test_classify_rational_whatever_the_lift_turns(h, m, n):
    # the lift of a rotation number m/n mod 1 turns m + n * turns times in
    # n steps: a periodic point solves gamma^n(t) = t + m + n * turns
    cls = ci.classify(h)
    assert cls.kind == "RationalPeriodic" and (cls.m, cls.n) == (m, n)
    pt = cls.evidence["periodic_point"]
    turns = ci.rotation_number(h).turns
    assert turns != 0
    assert h.lift_iter(pt, n) == pytest.approx(pt + m + n * turns, abs=1e-8)


def _gap_statistic_fires(h, orbit_sample=4096):
    """The transitivity test classify ran before it read the verdict off
    the lift: the largest gap between the first ``orbit_sample`` points of
    the orbit of 0 on the circle reaches 10/sqrt(orbit_sample)."""
    pts = []
    t = 0.0
    for _ in range(orbit_sample):
        t = h.lift(t)
        pts.append(ci.CIRCLE.normalize(t))
    pts.sort()
    gaps = [pts[j + 1] - pts[j] for j in range(len(pts) - 1)]
    gaps.append(1.0 - pts[-1] + pts[0])
    return max(gaps) >= 10.0 / math.sqrt(orbit_sample)


@settings(max_examples=40, deadline=None)
@given(tau=st.floats(0.0, 1.0, exclude_max=True), a=st.floats(-0.9, 0.9),
       offset=st.integers(-2, 2))
@example(tau=0.381966, a=0.05, offset=0)
@example(tau=math.sqrt(2.0) - 1.0, a=0.0, offset=-1)
def test_irrational_verdict_is_denjoys_on_one_orbit(tau, a, offset):
    h = ci.perturbed_rotation(tau, a, offset)
    calls, searching = [0], [False]

    def base(f):
        calls[0] += not searching[0]
        return h.base(f)

    def search(*args):
        searching[0] = True
        try:
            return find_periodic_point(*args)
        finally:
            searching[0] = False

    find_periodic_point = ci._find_periodic_point
    with mock.patch.object(ci, "_find_periodic_point", search):
        cls = ci.classify(ci.CircleHomeo(base), n_iter=20_000)
    if cls.kind != "RationalPeriodic":
        assert cls.kind == "IrrationalTransitive"
        assert set(cls.evidence) == {"steps", "interval", "weighted"}
        # the rotation-number orbit, and no other outside the searches
        # for periodic points of the candidates
        assert calls[0] == cls.evidence["steps"]


def test_gap_statistic_never_fired_on_an_irrational_verdict():
    # 200 maps of the family above from a fixed generator.  The statistic
    # is only a reference: it does fire on slow rotations (4096 steps of
    # the rotation by 1e-5 cover 4% of the circle), so it is not drawn
    # against hypothesis's examples
    rng = random.Random(23)
    irrational = 0
    for _ in range(200):
        h = ci.perturbed_rotation(rng.random(), rng.uniform(-0.9, 0.9),
                                  rng.randint(-2, 2))
        if ci.classify(h, n_iter=20_000).kind != "RationalPeriodic":
            irrational += 1
            assert not _gap_statistic_fires(h)
    assert irrational > 100


def _plateau_lift(c):
    """Slope 9/10 of the circle, flat on the last tenth, shifted by c."""
    return ci.grid_homeo([c + j / 9 for j in range(10)] + [c + 1.0])


def test_flat_piece_grid_lift_is_not_transitive():
    # rotation number 34/89: every periodic orbit has period 89 > max_den,
    # so no convergent yields a periodic point, and the orbits fall into
    # the plateau's image, a periodic point, instead of filling the circle.
    # The gap statistic took its 89 points for a dense orbit
    h = _plateau_lift(0.3323176)
    cls = ci.classify(h)
    assert cls.tau == pytest.approx(34 / 89, abs=1e-12)
    assert cls.kind == "IrrationalNonTransitive" and cls.m is None
    assert set(cls.evidence) == {"steps", "interval", "weighted"}
    assert not _gap_statistic_fires(h)
    wide = ci.classify(h, max_den=89)
    assert wide.kind == "RationalPeriodic" and (wide.m, wide.n) == (34, 89)


def test_narrow_sign_change_off_the_grid_is_found():
    # rotation number 3/8: gamma^8(t) - t - 3 is positive on all 513 grid
    # points and dips below zero only on intervals under 3.3e-4 wide
    h = ci.grid_homeo([0.3868, 0.8868, 0.8868, 1.3868])

    def F(t):
        return h.lift_iter(t, 8) - t - 3

    assert min(F(j / 512) for j in range(513)) > 0.0
    cls = ci.classify(h)
    assert cls.kind == "RationalPeriodic" and (cls.m, cls.n) == (3, 8)
    assert abs(F(cls.evidence["periodic_point"])) < 1e-9


def _counting(h):
    """h with a counter of its base calls."""
    calls = [0]

    def base(f):
        calls[0] += 1
        return h.base(f)

    return ci.CircleHomeo(base), calls


@pytest.mark.parametrize("delta, evals", [
    (2e-3, 513),          # F = 5 * delta beyond every grid cell's reach
    (2e-4, 1025),         # one halving of every cell excludes them all
    (-2e-4, 1025),        # the same below zero
    (2e-9, 513 + ci.REFINE_EVALS),  # |F| = 1e-8: the refinement gives up
])
def test_periodic_point_search_excludes_cells_by_the_slope_bound(delta,
                                                                  evals):
    # rotation by 0.4 + delta has no orbit of type 2/5, and
    # gamma^5(t) - t - 2 = 5 * delta everywhere
    h, calls = _counting(ci.rigid_rotation(0.4 + delta))
    assert ci._find_periodic_point(h, 5, 2) is None
    assert calls[0] == 5 * evals


def test_classify_perturbed_locked():
    # Arnold tongue: strong perturbation of tau=0 locks onto a fixed point
    h = ci.perturbed_rotation(0.01, 0.5)
    cls = ci.classify(h)
    assert cls.kind == "RationalPeriodic" and cls.n == 1


def _knot_neighbours(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@given(h=st.builds(_grid, st.floats(-1.5, 1.5),
                   st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)),
       x=st.floats(-0.5, 1.5), knot=st.integers(0, 40),
       ulps=st.integers(-3, 3))
def test_grid_lift_is_np_interp(h, x, knot, ulps):
    knots, values = h.grid
    near = _knot_neighbours(float(knots[knot % len(knots)]), ulps)
    for f in (x, near):
        assert h.base(f) == float(np.interp(f, knots, values))


@pytest.mark.parametrize("size", [4, 1001, 4097])
def test_grid_lift_is_np_interp_at_every_knot(size):
    rng = np.random.default_rng(size)
    h = _grid(0.3, rng.random(size - 2))
    knots, values = h.grid
    xs = [_knot_neighbours(float(k), u) for k in knots for u in range(-2, 3)]
    xs += rng.random(1000).tolist() + [-0.0, 5e-324, 1.0, 2.0, -1.0]
    assert [h.base(x) for x in xs] == np.interp(xs, knots, values).tolist()


def test_sampled_conjugate_preserves_rotation_number():
    h = ci.rigid_rotation(math.sqrt(2.0) - 1.0)
    phi = ci.grid_homeo([0.0, 0.35, 0.8, 1.0])
    conj = ci.sampled_conjugate(h, phi)
    report = ci.check_rotation_invariant(h, conj, conj=phi)
    assert report.ok()
    assert report.conjugacy_residual < 1e-4


def test_check_rotation_invariant_rejects_fake_conjugacy():
    h1 = ci.rigid_rotation(0.3)
    h2 = ci.rigid_rotation(0.31)
    with pytest.raises(ci.InvalidConjugacy):
        ci.check_rotation_invariant(h1, h2, conj=ci.rigid_rotation(0.1))


def test_grid_homeo_validation():
    with pytest.raises(ValueError):
        ci.grid_homeo([0.0, 0.5, 0.9])   # endpoint mismatch
    with pytest.raises(ValueError):
        ci.grid_homeo([0.0, 0.7, 0.4, 1.0])  # not monotone
    with pytest.raises(ValueError):
        ci.grid_homeo([0.0, math.nan, 1.0])
