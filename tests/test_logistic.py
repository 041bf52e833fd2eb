"""Logistic-family tests: closed-form and frozen numerical oracles for the
period-doubling cascade, superstable and mu parameters, odd-period windows,
regime classification, and golden-count checks of the continuum graphs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import scalar_preimages
from revext import logistic as lg
from revext.core import EPS_DOM, find_root, preimages


# ---------------------------------------------------------------------------
# Map and branches


def test_eval_map_exact_values():
    assert lg.eval_map(0.6, 0.8) == pytest.approx(0.384, abs=1e-15)
    assert lg.eval_map(1.0, 0.5) == 1.0
    assert lg.eval_map(0.25, 0.5) == pytest.approx(0.25)


def test_preimage_branches_against_forward_map():
    for lam in (0.3, 0.7, 1.0):
        for j in range(30):
            y = j / 30 * lam * 0.999
            br = lg.preimage_branches(lam, y)
            assert set(br) == {"L", "R"}
            assert br["L"] <= 0.5 <= br["R"]
            for x in br.values():
                assert lg.eval_map(lam, x) == pytest.approx(y, abs=1e-12)
    assert lg.preimage_branches(0.6, 0.6) == {"C": 0.5}
    assert lg.preimage_branches(0.6, 0.61) is None


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.25, 1.0), y=st.floats(0.0, 1.0),
       t=st.floats(0.0, 1.0))
def test_preimage_table_matches_scalar_preimages(lam, y, t):
    # the critical value, the cut just above it, signed zeros, the ends of
    # [0, 1], and the band [lambda, lambda + EPS_DOM] where L and R merge
    # to C; plus the few ulps below lambda, where they no longer merge, and
    # y near -4e-12 lambda, where L leaves the domain just before R does
    edges = [lam, lam + EPS_DOM, lam - EPS_DOM, -0.0, 0.0, 1.0,
             np.nextafter(lam + EPS_DOM, 2.0), lam + t * EPS_DOM,
             lam * (1.0 - 1e-16), lam * (1.0 - t * 1e-15)]
    ys = [y] + [float(e) for e in edges]
    ys += [float(lam - k * np.spacing(lam)) for k in range(1, 6)]
    ys += [-4e-12 * lam + k * 1e-16 for k in range(-40, 41)]
    system = lg.make_system(lam)
    table = preimages(system, np.array(ys))
    assert table.shape == (len(ys), 2)
    for y, row in zip(ys, table.tolist()):
        want = scalar_preimages(system, y)
        assert repr(row) == repr(want + [math.nan] * (2 - len(want)))


# ---------------------------------------------------------------------------
# Attracting periods (independent brute-iteration oracle)


def brute_period(lam, burn_in=200000, tol=1e-8, max_period=64):
    x = 0.5
    for _ in range(burn_in):
        x = 4.0 * lam * x * (1.0 - x)
    ref = x
    for p in range(1, max_period + 1):
        x = 4.0 * lam * x * (1.0 - x)
        if abs(x - ref) < tol:
            return p
    return None


@pytest.mark.parametrize("lam,period", [
    (0.7, 1), (0.8, 2), (0.88, 4), (0.9580, 3)])
def test_attracting_period_matches_brute_force(lam, period):
    assert brute_period(lam) == period
    assert lg.attracting_period(lam) == period


def test_find_periodic_point_and_multiplier():
    x = lg.find_periodic_point(0.8, 2)
    x2 = lg.eval_map(0.8, lg.eval_map(0.8, x))
    assert x2 == pytest.approx(x, abs=1e-9)
    mult = lg.orbit_multiplier(0.8, 2, x)
    assert abs(mult) < 1.0  # attracting


def test_find_periodic_point_after_a_monotone_approach():
    # the fixed point attracts with multiplier 2 - 4*lambda = 0.32 > 0, so
    # the settled orbit point and its image lie on one side of it
    lam = 0.41967722574191396
    assert lg.find_periodic_point(lam, 1) == pytest.approx(
        1.0 - 1.0 / (4.0 * lam), abs=1e-15)
    # the same for the attracting 6-orbit in the period-3 window
    lam = 0.960805601867289
    x = lg.find_periodic_point(lam, 6)
    assert lg._iterate(lam, x, 6) == pytest.approx(x, abs=1e-13)
    assert all(abs(lg._iterate(lam, x, d) - x) > 1e-3 for d in (1, 2, 3))
    assert 0.0 < lg.orbit_multiplier(lam, 6, x) < 1.0


def test_attractor_points_period_two():
    pts = lg.attractor_points(0.8)
    assert len(pts) == 2
    assert lg.eval_map(0.8, pts[0]) == pytest.approx(pts[1], abs=1e-7)


# ---------------------------------------------------------------------------
# Cascade parameters


def test_period_doubling_closed_forms():
    assert lg.period_doubling_parameter(1) == pytest.approx(0.75, abs=1e-12)
    assert lg.period_doubling_parameter(2) == pytest.approx(
        (1.0 + math.sqrt(6.0)) / 4.0, abs=1e-12)


FROZEN_LAMBDA_N = {3: 0.8860226, 4: 0.8911018, 5: 0.8921899, 6: 0.8924229}


@pytest.mark.parametrize("n,value", sorted(FROZEN_LAMBDA_N.items()))
def test_period_doubling_frozen_oracles(n, value):
    assert lg.period_doubling_parameter(n) == pytest.approx(value, abs=1e-6)


def test_period_doubling_multiplier_residual():
    # dual route: at lambda_n the 2^{n-1}-orbit multiplier equals -1
    for n in (1, 2, 3):
        lam = lg.period_doubling_parameter(n)
        x = lg.find_periodic_point(lam, 2 ** (n - 1))
        assert lg.orbit_multiplier(lam, 2 ** (n - 1), x) == pytest.approx(
            -1.0, abs=1e-12)


@pytest.mark.parametrize("x,lam", [
    # a predicted gap of 0.5 puts the seed a quarter gap up, at 0.875,
    # above lambda_2
    (lg._iterate(0.8125, 0.5, 8), 0.875),
    # the fourth lambda step (3.9e-5) is larger than the third while
    # |mult + 1| is already below 1e-3; stopping there would return
    # 0.8623724304, 5.3e-9 below lambda_2
    (0.8654247284588019, 0.8844619863006196)],
    ids=["quarter-gap", "growing-step"])
def test_doubling_newton_from_an_overshot_seed(x, lam):
    got = lg._bifurcation_point(2, -1.0, x, lam, (0.75, 1.0))[1]
    assert got == pytest.approx((1.0 + math.sqrt(6.0)) / 4.0, abs=1e-12)


def test_bifurcation_newton_failures_raise():
    # no period-3 orbit exists below eta_1: the saddle-node solve leaves
    # its bracket
    with pytest.raises(lg.BifurcationNotConverged, match="left"):
        lg._bifurcation_point(3, 1.0, 0.5, 0.8, (0.7, 0.9))
    # seeded next to lambda_2, a period-6 doubling solve converges to the
    # 2-orbit, whose 6-fold multiplier (-1)^3 is also -1
    lam2 = lg.period_doubling_parameter(2)
    x = lg.find_periodic_point(lam2 - 1e-3, 2)
    with pytest.raises(lg.BifurcationNotConverged, match="period 2, not 6"):
        lg._bifurcation_point(6, -1.0, x, lam2 + 1e-4, (0.8, 1.0))
    # R R is not an admissible itinerary of a superstable 3-orbit
    with pytest.raises(lg.WindowNotFound):
        lg._itinerary_parameter("RR")
    # seeded near lambda_2, a period-4 saddle-node solve meets the 2-orbit's
    # doubling, a double root: Newton creeps linearly and hits the cap
    with pytest.raises(lg.BifurcationNotConverged, match="after 32 steps"):
        lg._bifurcation_point(4, 1.0, 0.4820562247461908,
                              0.8780914798393977, (0.75, 1.0))


@pytest.mark.parametrize("n,lam_guess,lam_settle", [
    (3, 0.886, 0.880), (4, 0.8911, 0.890), (5, 0.89219, 0.8918),
    (6, 0.89242, 0.8923)])
def test_period_doubling_against_mpmath(n, lam_guess, lam_settle):
    ref = mp_multiplier_parameter(2 ** (n - 1), -1, lam_guess, lam_settle)
    assert lg.period_doubling_parameter(n) == pytest.approx(ref, abs=1e-12)


# The lambda_n rows of the CSV print the multiplier residual through the
# orbit point x_n of the Newton solve.  Its oracle is a second, dynamic
# solve: the orbit find_periodic_point finds at lambda_n.  x_n lies on that
# orbit within ORBIT_POINT_TOL (the worst distance for n <= 12 is 7.7e-13,
# and the next level's orbit is at least 2e-5 away), and both residuals are
# below MULTIPLIER_BOUND (worst 7.9e-9 through x_n, 6.8e-8 through the
# dynamic point).
ORBIT_POINT_TOL = 1e-10
MULTIPLIER_BOUND = 1e-7


def _on_the_doubling_orbit(n: int, x: float) -> bool:
    lam, p = lg.period_doubling_parameter(n), 2 ** (n - 1)
    y = lg.find_periodic_point(lam, p)
    orbit = [y]
    for _ in range(p - 1):
        orbit.append(lg._iterate(lam, orbit[-1], 1))
    near = min(abs(x - z) for z in orbit) <= ORBIT_POINT_TOL
    return near and all(abs(lg.orbit_multiplier(lam, p, z) + 1.0)
                        <= MULTIPLIER_BOUND for z in (x, y))


@pytest.fixture(scope="module")
def doubling_points():
    table = lg.CascadeTable.build(n_max=12)
    assert table.lambda_n == tuple(lg.period_doubling_parameter(n)
                                   for n in range(1, 13))
    return table.lambda_n_points


@pytest.mark.parametrize("n", range(1, 13))
def test_lambda_n_point_lies_on_the_dynamic_orbit(doubling_points, n):
    assert _on_the_doubling_orbit(n, doubling_points[n - 1])


@pytest.mark.parametrize("n", range(1, 13))
def test_previous_level_point_fails_the_orbit_oracle(doubling_points, n):
    # the point of lambda_(n-1)'s solve (the fixed point 0 for n = 1)
    # stands in for a wrongly stored x_n
    wrong = doubling_points[n - 2] if n >= 2 else 0.0
    assert not _on_the_doubling_orbit(n, wrong)


def test_cascade_csv_residuals(tmp_path):
    # the multiplier residual of every lambda_n row, through the orbit
    # point of its Newton solve, stays small up to the 2048-orbit
    path = tmp_path / "cascade.csv"
    table = lg.CascadeTable.build(n_max=12)
    table.to_csv(path)
    rows = [r.split(",") for r in path.read_text().splitlines()]
    residuals = [float(r[3]) for r in rows if r[0] == "lambda_n"]
    assert len(residuals) == 12
    assert max(residuals) <= 1e-7
    assert residuals == [
        abs(lg.orbit_multiplier(lam, 2 ** n, x) + 1.0) for n, (lam, x)
        in enumerate(zip(table.lambda_n, table.lambda_n_points))]


def test_superstable_parameters():
    assert lg.superstable_parameter(0) == pytest.approx(0.5, abs=1e-10)
    # closed form: alpha^2(1/2) = 1/2 at (1+sqrt 5)/4
    assert lg.superstable_parameter(1) == pytest.approx(
        (1.0 + math.sqrt(5.0)) / 4.0, abs=1e-9)
    assert lg.superstable_parameter(2) == pytest.approx(0.8746404, abs=1e-6)
    for n in (1, 2, 3):
        s = lg.superstable_parameter(n)
        assert lg._iterate(s, 0.5, 2 ** n) == pytest.approx(0.5, abs=1e-10)
        assert lg.period_doubling_parameter(n) < s \
            < lg.period_doubling_parameter(n + 1)


def _superstable_mpmath(n: int, s: float) -> float:
    """s_n by a 60-digit mpmath solve of alpha^(2^n)(1/2) = 1/2, on a
    bracket 1e-13 either side of the float s that must change sign."""
    import mpmath as mp
    with mp.workdps(60):
        def f(lam):
            x = mp.mpf(1) / 2
            for _ in range(2 ** n):
                x = 4 * lam * x * (1 - x)
            return x - mp.mpf(1) / 2

        lo, hi = mp.mpf(s) - mp.mpf("1e-13"), mp.mpf(s) + mp.mpf("1e-13")
        assert f(lo) * f(hi) < 0
        return mp.findroot(f, (lo, hi), solver="anderson",
                           tol=mp.mpf("1e-55"))


@pytest.mark.parametrize("n, ulps", [(n, 2.5) for n in range(6)]
                         + [(n, 4.5) for n in (6, 7, 8)])
def test_superstable_parameters_to_float_resolution(n, ulps):
    # the bisection runs until the bracket has no float inside; an xtol of
    # 1e-15 left s_4 5.1 ulp and s_8 6.1 ulp from the root
    import mpmath as mp
    s = lg.superstable_parameter(n)
    exact = _superstable_mpmath(n, s)
    assert abs(mp.mpf(s) - exact) <= ulps * math.ulp(s)


def test_feigenbaum_limit_estimate():
    est = lg.feigenbaum_limit_estimate(6)
    assert est == pytest.approx(0.89249, abs=2e-3)
    # successive lambda_n gaps shrink by roughly the Feigenbaum ratio
    l4, l5, l6 = (lg.period_doubling_parameter(n) for n in (4, 5, 6))
    ratio = (l5 - l4) / (l6 - l5)
    assert ratio == pytest.approx(lg.FEIGENBAUM_DELTA, rel=0.05)


def test_mu_parameters(largest_fixed_point):
    assert lg.mu_parameter(0) == 1.0
    mu1 = lg.mu_parameter(1)
    mu2 = lg.mu_parameter(2)
    assert mu1 == pytest.approx(0.9196434, abs=1e-6)
    assert mu2 == pytest.approx(0.8981430, abs=1e-6)
    lam_inf = lg.feigenbaum_limit_estimate(6)
    assert 1.0 > mu1 > mu2 > lam_inf
    # defining equation residuals (independent of the solver's Newton)
    for n, mu in ((1, mu1), (2, mu2)):
        res = abs(lg._iterate(mu, mu, 2 ** n)
                  - largest_fixed_point(mu, 2 ** (n - 1)))
        assert res < 1e-9


def test_mu_one_is_the_closed_form():
    # mu_1 = r/4 for the real root r of r^3 - 2r^2 - 4r - 8 = 0
    import mpmath as mp
    with mp.workdps(40):
        ref = float(mp.findroot(lambda r: r ** 3 - 2 * r ** 2 - 4 * r - 8,
                                3.68) / 4)
    assert abs(lg.mu_parameter(1) - ref) <= 4 * math.ulp(ref)


def mp_mu_parameter(n, lam_guess):
    """mu_n by mpmath at 40 digits: alpha^q(x) = x and alpha^(2q)(lambda)
    = x, q = 2^(n-1), solved jointly in (x, lambda) from lam_guess and x =
    alpha^(2q)(lam_guess)."""
    import mpmath as mp
    q = 2 ** (n - 1)

    def orbit(lam, x, k):
        for _ in range(k):
            x = 4 * lam * x * (1 - x)
        return x

    with mp.workdps(40):
        lam = mp.mpf(lam_guess)
        x, lam = mp.findroot(
            lambda x, lam: [orbit(lam, x, q) - x, orbit(lam, lam, 2 * q) - x],
            (orbit(lam, lam, 2 * q), lam))
    assert abs(lam - lam_guess) < 1e-6
    return float(lam)


@pytest.mark.parametrize("n,lam_guess", [
    (2, 0.8981430), (3, 0.8937012), (4, 0.8927465), (5, 0.8925421)])
def test_mu_parameters_against_mpmath(n, lam_guess, largest_fixed_point):
    ref = mp_mu_parameter(n, lam_guess)
    mu = lg.mu_parameter(n)
    assert abs(mu - ref) <= 4 * math.ulp(ref)
    # the 2q-th image of the critical value is the top of the q-orbit
    assert lg._iterate(mu, mu, 2 ** n) == pytest.approx(
        largest_fixed_point(mu, 2 ** (n - 1)), abs=1e-9)


def test_mu_five_lies_between_mu_four_and_the_cascade_limit():
    # the scan this solve replaced started at lambda_inf + 1e-4, above mu_5
    assert lg.feigenbaum_limit_estimate(7) < lg.mu_parameter(5) \
        < lg.mu_parameter(4)


def test_mu_newton_failures_raise():
    mu1 = lg.mu_parameter(1)
    # seeded at mu_1 the period-2 solve stays there, outside its bracket
    with pytest.raises(lg.BifurcationNotConverged, match="left"):
        lg._merging_parameter(2, mu1, (0.89, 0.91))
    # inside a wider bracket it converges to the fixed point, which the
    # 2-fold map fixes too: least period 1
    with pytest.raises(lg.BifurcationNotConverged, match="period 1, not 2"):
        lg._merging_parameter(2, mu1, (0.9, 0.95))
    # near 0.94125 the 4th image of the critical value is the lower point
    # of the 2-orbit
    with pytest.raises(lg.BifurcationNotConverged, match="below the top"):
        lg._merging_parameter(2, 0.94125, (0.93, 0.95))


def test_window_onset_is_the_closed_form_saddle_node():
    assert lg.window_boundaries(1)[0] == pytest.approx(
        (1.0 + 2.0 * math.sqrt(2.0)) / 4.0, abs=1e-12)


def test_period_three_superstable_seed():
    s = lg._itinerary_parameter("RL")
    assert lg._iterate(s, 0.5, 3) == pytest.approx(0.5, abs=1e-14)
    eta, nu = lg.window_boundaries(1)
    assert eta < s < nu
    # the root of alpha^3(1/2) = 1/2 inside the window, by bisection
    root = find_root(lambda t: lg._iterate(t, 0.5, 3) - 0.5, (eta, nu), 1e-15)
    assert s == pytest.approx(root, abs=1e-15)


def test_window_boundaries_period_three():
    eta, nu = lg.window_boundaries(1)
    assert eta == pytest.approx(0.9571067, abs=1e-5)
    assert nu == pytest.approx(0.9603731, abs=1e-5)
    # inside: attracting period 3; just below eta: not period 3
    assert lg.attracting_period(0.5 * (eta + nu)) == 3
    assert brute_period(0.5 * (eta + nu)) == 3


def mp_multiplier_parameter(period, multiplier, lam_guess, lam_settle):
    """The lambda where a period-``period`` orbit has the given multiplier:
    alpha^p(x) = x and (alpha^p)'(x) = multiplier solved jointly in
    (x, lambda) by mpmath at 40 digits, from a point of the attracting
    orbit at ``lam_settle``."""
    import mpmath as mp
    x = 0.5
    for _ in range(5000):
        x = 4.0 * lam_settle * x * (1.0 - x)
    with mp.workdps(40):
        def equations(x, lam):
            y, d = x, mp.mpf(1)
            for _ in range(period):
                d *= 4 * lam * (1 - 2 * y)
                y = 4 * lam * y * (1 - y)
            return [y - x, d - multiplier]

        _, lam = mp.findroot(equations, (mp.mpf(x), mp.mpf(lam_guess)))
    assert abs(lam - lam_guess) < 1e-3
    return float(lam)


@pytest.mark.parametrize("n,lam_guess,lam_settle", [
    (1, 0.9603, 0.959), (2, 0.93528, 0.935), (3, 0.92554, 0.92550)])
def test_window_top_is_doubling_of_odd_orbit(n, lam_guess, lam_settle):
    ref = mp_multiplier_parameter(2 * n + 1, -1, lam_guess, lam_settle)
    nu = lg.window_boundaries(n)[1]
    assert nu == pytest.approx(ref, abs=1e-13)
    assert lg.window_cascade_parameter(n, 1) == nu


@pytest.mark.parametrize("n,lam_guess,lam_settle", [
    (2, 0.9345, 0.935), (3, 0.92541, 0.92550)])
def test_window_onset_is_saddle_node_of_odd_orbit(n, lam_guess, lam_settle):
    ref = mp_multiplier_parameter(2 * n + 1, +1, lam_guess, lam_settle)
    eta = lg.window_boundaries(n)[0]
    assert eta == pytest.approx(ref, abs=1e-12)
    assert lg.window_cascade_parameter(n, 0) == eta


@pytest.mark.parametrize("m,lam_guess,lam_settle", [
    (2, 0.9619, 0.9612), (3, 0.96226, 0.9621)])
def test_window_cascade_against_mpmath(m, lam_guess, lam_settle):
    ref = mp_multiplier_parameter(2 ** (m - 1) * 3, -1, lam_guess, lam_settle)
    assert lg.window_cascade_parameter(1, m) == pytest.approx(ref, abs=1e-12)


def test_window_boundaries_higher_odd_periods():
    assert lg.window_boundaries(2)[0] == pytest.approx(0.9345430, abs=1e-5)
    assert lg.window_boundaries(3)[0] == pytest.approx(0.9254102, abs=1e-5)


def test_window_cascade_parameter():
    eta, nu = lg.window_boundaries(1)
    lam12 = lg.window_cascade_parameter(1, 2)
    assert eta < lam12 < nu * 1.01
    # at the stage parameter the period-6 orbit has multiplier -1
    x = lg.find_periodic_point(lam12, 6)
    assert lg.orbit_multiplier(lam12, 6, x) == pytest.approx(-1.0, abs=1e-9)


def test_cascade_table_csv(tmp_path):
    table = lg.CascadeTable.build(n_max=3)
    path = tmp_path / "cascade.csv"
    table.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "name,n,value,residual"
    lam1 = next(r for r in rows if r.startswith("lambda_n,1,"))
    assert float(lam1.split(",")[2]) == pytest.approx(0.75, abs=1e-12)
    assert len(rows) > 7


# ---------------------------------------------------------------------------
# Regime classification


def test_classify_regime_cascade_stages():
    assert lg.classify_regime(0.8).tag == "CascadeStage"
    assert lg.classify_regime(0.8).n == 1
    assert lg.classify_regime(0.87).n == 2
    assert lg.classify_regime(0.5).n == 0
    assert lg.classify_regime(0.2).n == -1


def test_classify_regime_special_points():
    assert lg.classify_regime(1.0).tag == "Full"
    mu1 = lg.mu_parameter(1)
    r = lg.classify_regime(mu1)
    assert r.tag == "MuPoint" and r.n == 1 and r.irreducible_continuum
    assert lg.classify_regime(lg.feigenbaum_limit_estimate(6)).tag \
        == "FeigenbaumLimit"


def test_classify_regime_windows_require_table():
    lam = 0.9580  # inside the period-3 window
    assert lg.classify_regime(lam).tag == "ChaoticUnclassified"
    table = lg.CascadeTable.build(n_max=8, n_windows=1, cascade_m=1)
    r = lg.classify_regime(lam, table=table)
    assert r.tag == "Window" and r.n == 1


# ---------------------------------------------------------------------------
# Continuum graphs (golden counts from the closed-form totals)


def _cycle_lengths(perm):
    seen, out = set(), []
    for start in perm:
        if start in seen:
            continue
        length, node = 0, start
        while node not in seen:
            seen.add(node)
            node = perm[node]
            length += 1
        out.append(length)
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cascade_stage_graph_counts(n):
    g = lg.continuum_graph(lg.Regime.cascade_stage(n))
    assert len(g.nodes) == 3 * 2 ** (n - 1) - 1
    kinds = [k for _, k in g.nodes]
    assert kinds.count("Arc") == 2 ** (n - 1)
    assert kinds.count("Ray") == 2 ** n - 2
    expected_cycles = sorted([1] + [2 ** k for k in range(1, n)]
                             + [2 ** (n - 1)])
    assert _cycle_lengths(g.permutation) == expected_cycles
    assert len(g.intersections) == 2 ** (n - 1) - 1
    assert len(g.closure["R"]) == len(g.nodes)
    assert g.fixed_data["arc_endpoint_period"] == 2 ** n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_point_graph_counts(n):
    g = lg.continuum_graph(lg.Regime.mu_point(n))
    assert len(g.nodes) == 2 ** (n + 1) - 1
    kinds = [k for _, k in g.nodes]
    assert kinds.count("BJK") == 2 ** n
    expected_cycles = sorted([1] + [2 ** k for k in range(1, n)] + [2 ** n])
    assert _cycle_lengths(g.permutation) == expected_cycles
    assert len(g.intersections) == 2 ** n - 1
    assert g.fixed_data["bjk_cycle_length"] == 2 ** n


@pytest.mark.parametrize("m", [0, 1, 2])
def test_window_cascade_graph_counts(m):
    g = lg.continuum_graph(lg.Regime.window_cascade_stage(1, m))
    q = 3
    if m == 0:
        assert len(g.nodes) == 2 and not g.intersections
    else:
        assert len(g.nodes) == 2 + (2 ** m - 1) * q + 2 ** (m - 1) * q
        expected_cycles = sorted([1, 1] + [2 ** k * q for k in range(m)]
                                 + [2 ** (m - 1) * q])
        assert _cycle_lengths(g.permutation) == expected_cycles
        assert len(g.intersections) == q + (2 ** (m - 1) - 1) * q
    assert g.fixed_data["c_endpoint_period"] == 2 ** m * q


def test_closure_formulas_are_nested():
    g = lg.continuum_graph(lg.Regime.cascade_stage(3))
    ids = {i for i, _ in g.nodes}
    for node, cl in g.closure.items():
        assert node in ids and set(cl) <= ids
        # closures of permuted nodes are the permuted closures
        img = g.permutation[node]
        assert {g.permutation[x] for x in cl} == set(g.closure[img])


def test_window_graph_equals_m0_cascade():
    gw = lg.continuum_graph(lg.Regime.window(2))
    assert [k for _, k in gw.nodes] == ["RayR", "C"]


def test_continuum_graph_unsupported():
    with pytest.raises(lg.UnsupportedRegime):
        lg.continuum_graph(lg.Regime("Full"))


@pytest.mark.parametrize("m", [-1, -4])
def test_continuum_graph_rejects_negative_m(m):
    with pytest.raises(lg.UnsupportedRegime):
        lg.continuum_graph(lg.Regime.window_cascade_stage(1, m))


def test_graph_serialization():
    g = lg.continuum_graph(lg.Regime.mu_point(1))
    doc = g.to_json()
    assert {n["id"] for n in doc["nodes"]} == {"R", "B[1]", "B[2]"}
    dot = g.to_dot()
    assert dot.startswith("digraph") and '"B[1]" -> "B[2]"' in dot


def test_bjk_embedding_polylines():
    arcs = lg.bjk_embedding(3)
    assert len(arcs) > 4
    for poly in arcs:
        assert len(poly) >= 2
        for x, y in poly:
            assert -0.75 <= x <= 1.25 and -1.0 <= y <= 1.0
