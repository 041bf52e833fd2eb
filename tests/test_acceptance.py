"""Acceptance gate: the ten headline criteria, each at its stated tolerance
and runtime budget, printing one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines."""

import math
import random
import time

import pytest

from revext import circle as ci
from revext import logistic as lg
from revext import operator_model as om
from revext.core import apply, make_constant_system
from revext.extension import (INF, Chain, EmptyStratum, ExtensionSpec,
                              alpha_tilde, alpha_tilde_inv, factor_map,
                              hausdorff, sample_stratum, validate_chain)


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status}  {detail}  "
          f"[{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.2f}s over budget {budget}s"


def test_01_period_doubling_parameters():
    t0 = time.time()
    l1 = lg.period_doubling_parameter(1)
    e1 = time.time() - t0
    t1 = time.time()
    l2 = lg.period_doubling_parameter(2)
    e2 = time.time() - t1
    ok = (abs(l1 - 0.75) < 1e-8
          and abs(l2 - (1.0 + math.sqrt(6.0)) / 4.0) < 1e-6
          and e1 < 2.0 and e2 < 2.0)
    report(1, ok, f"lambda_1={l1:.10f} lambda_2={l2:.10f}",
           max(e1, e2), 2.0)


def test_02_feigenbaum_limit():
    t0 = time.time()
    est = lg.feigenbaum_limit_estimate(6)
    report(2, abs(est - 0.89249) < 2e-3,
           f"limit estimate {est:.7f} (target 0.89249 +/- 2e-3)",
           time.time() - t0, 30.0)


def test_03_mu_sequence():
    t0 = time.time()
    mu0 = lg.mu_parameter(0)
    mu1 = lg.mu_parameter(1)
    mu2 = lg.mu_parameter(2)
    lam_inf = lg.feigenbaum_limit_estimate(6)
    res = max(
        abs(lg._iterate(mu, mu, 2 ** n)
            - lg._largest_fixed_point(mu, 2 ** (n - 1)))
        for n, mu in ((1, mu1), (2, mu2)))
    ok = (mu0 == 1.0 and res < 1e-9 and 1.0 > mu1 > mu2 > lam_inf)
    report(3, ok, f"mu=(1, {mu1:.7f}, {mu2:.7f}) residual {res:.1e} "
           f"> lam_inf {lam_inf:.7f}", time.time() - t0, 10.0)


def test_04_extension_axiom_property_suite():
    t0 = time.time()
    rng = random.Random(12345)
    total = 0
    for lam in (0.2, 0.6, 0.8, 1.0):
        spec = lg.extension_spec(lam)
        chains = []
        while len(chains) < 2500:
            if spec.Y:
                y = spec.Y[0][0] + rng.random() * (spec.Y[0][1]
                                                   - spec.Y[0][0])
                coords = [y]
                for _ in range(rng.randrange(7)):
                    coords.insert(0, lg.eval_map(lam, coords[0]))
                chains.append(Chain(tuple(coords), True))
            else:
                coords = [rng.random()]
                for _ in range(1 + rng.randrange(9)):
                    br = lg.preimage_branches(lam, coords[-1])
                    coords.append(br[rng.choice(sorted(br))])
                chains.append(Chain(tuple(coords), False))
        for c in chains:
            assert validate_chain(spec, c)
            img = alpha_tilde(spec, c)
            # round trip is the identity (exact coordinates)
            assert alpha_tilde_inv(spec, img) == c
            # factor map semiconjugates
            assert abs(factor_map(img)
                       - apply(spec.system, factor_map(c))) <= 1e-9
            # stratum shift M_N -> M_{N+1}
            assert img.terminal == c.terminal
            assert img.depth == c.depth + 1
            assert validate_chain(spec, img)
        total += len(chains)
    report(4, total == 10_000, f"{total} random chains over "
           "lambda in {0.2, 0.6, 0.8, 1.0}", time.time() - t0, 5.0)


def test_05_hausdorff_convergence():
    t0 = time.time()
    spec = lg.extension_spec(0.6)
    seeds = lg.attractor_points(0.6)
    minf = sample_stratum(spec, INF, 60, depth=25, extra_seeds=seeds)
    dists = []
    for N in (5, 10, 15, 20, 25):
        mn = sample_stratum(spec, N, 60, depth=25, extra_seeds=seeds)
        dists.append(hausdorff(mn, minf))
    ok = all(b < a for a, b in zip(dists, dists[1:])) and dists[-1] < 0.02
    report(5, ok, "d_H = " + ", ".join(f"{d:.2e}" for d in dists),
           time.time() - t0, 20.0)


def test_06_inverse_limit_special_cases():
    t0 = time.time()
    spec1 = lg.extension_spec(1.0)
    empties = 0
    for N in range(5):
        try:
            sample_stratum(spec1, N, 10)
        except EmptyStratum:
            empties += 1
    inf1 = sample_stratum(spec1, INF, 10, depth=10)

    p = 1.0 / 3.0
    specc = ExtensionSpec(make_constant_system(p), ((0.0, 1.0),))
    full = all(
        len({round(c.coords[-1], 9)
             for c in sample_stratum(specc, N, 12).chains}) >= 12
        for N in (0, 1, 2))
    infc = sample_stratum(specc, INF, 12, depth=10)
    ok = (empties == 5 and len(inf1.chains) > 0 and full
          and len(infc.chains) == 1
          and all(x == pytest.approx(p) for x in infc.chains[0].coords))
    report(6, ok, f"lambda=1: 5/5 finite strata empty, |M_inf sample| = "
           f"{len(inf1.chains)}; constant map: full strata, singleton M_inf",
           time.time() - t0, 2.0)


def test_07_operator_models():
    t0 = time.time()
    worst = 0.0
    for builder in (om.constant_model, om.rotation_model,
                    om.logistic_period3_model):
        model = builder()
        rep = om.full_report(model)
        worst = max(worst, max(rep.residuals.values()))
    report(7, worst < 1e-12,
           f"worst residual {worst:.2e} over 3 models x "
           f"{len(rep.residuals)} checks", time.time() - t0, 5.0)


def test_08_continuum_graph_golden_counts():
    t0 = time.time()

    def cycles(perm):
        seen, out = set(), []
        for s in perm:
            if s in seen:
                continue
            n, node = 0, s
            while node not in seen:
                seen.add(node)
                node = perm[node]
                n += 1
            out.append(n)
        return sorted(out)

    ok = True
    for n in (1, 2, 3, 4):
        g = lg.continuum_graph(lg.Regime.cascade_stage(n))
        ok &= len(g.nodes) == 3 * 2 ** (n - 1) - 1
        ok &= cycles(g.permutation) == sorted(
            [1] + [2 ** k for k in range(1, n)] + [2 ** (n - 1)])
    for n in (1, 2, 3):
        g = lg.continuum_graph(lg.Regime.mu_point(n))
        ok &= len(g.nodes) == 2 ** (n + 1) - 1
        ok &= cycles(g.permutation) == sorted(
            [1] + [2 ** k for k in range(1, n)] + [2 ** n])
    for m in (0, 1, 2):
        g = lg.continuum_graph(lg.Regime.window_cascade_stage(1, m))
        expected = 2 if m == 0 else 2 + (2 ** m - 1) * 3 + 2 ** (m - 1) * 3
        ok &= len(g.nodes) == expected
        ok &= g.fixed_data["c_endpoint_period"] == 2 ** m * 3
    report(8, ok, "CascadeStage(1..4), MuPoint(1..3), "
           "WindowCascadeStage(1, 0..2) golden counts",
           time.time() - t0, 1.0)


def test_09_rotation_numbers():
    t0 = time.time()
    n_iter = 100_000
    ok = True
    for tau in (0.3, 2.0 / 5.0, math.sqrt(2.0) - 1.0):
        got = ci.rotation_number(ci.rigid_rotation(tau), n_iter=n_iter)
        ok &= abs(got - tau) <= 1.0 / n_iter
    cls = ci.classify(ci.rigid_rotation(2.0 / 5.0))
    ok &= cls.kind == "RationalPeriodic" and cls.n == 5
    pt = cls.evidence["periodic_point"]
    ok &= abs(ci.rigid_rotation(2.0 / 5.0).lift_iter(pt, 5)
              - pt - 2.0) < 1e-6
    pairs = 0
    small = 20_000
    for j, tau in enumerate((0.3, 2.0 / 5.0, math.sqrt(2.0) - 1.0,
                             0.7, 0.123)):
        h = ci.rigid_rotation(tau)
        phi = ci.grid_homeo([0.0, 0.2 + 0.1 * j, 0.9, 1.0])
        conj = ci.sampled_conjugate(h, phi)
        rep = ci.check_rotation_invariant(h, conj, conj=phi, n_iter=small)
        ok &= rep.ok()
        pairs += 1
    report(9, ok and pairs == 5,
           "3 rigid rotation numbers within 1/n_iter; period-5 orbit for "
           "2/5; 5 conjugated pairs within 2/n_iter",
           time.time() - t0, 5.0)


def test_10_circle_extension_shapes():
    t0 = time.time()
    full = ci.extension_shape(ci.rigid_rotation(0.5, offset=1))
    ok = full.kind == "FullCylinder"
    quarter = ci.extension_shape(ci.rigid_rotation(0.25), N_max=6)
    ok &= quarter.kind == "ArcLadder"
    for N, origin, end in quarter.arcs:
        ok &= abs(origin - (N * 0.25) % 1.0) < 1e-12
        ok &= abs(end - ((N + 1) * 0.25) % 1.0) < 1e-12
    for (_, _, e0), (_, o1, _) in zip(quarter.arcs, quarter.arcs[1:]):
        ok &= abs(e0 - o1) < 1e-12
    for m, n in ((1, 3), (2, 5)):
        shape = ci.extension_shape(ci.rigid_rotation(m / n))
        ok &= len(shape.limit_set) == n
    report(10, ok, "gamma(0)=1.5 full cylinder; quarter arcs chain; "
           "endpoint limit sets of size 3 and 5",
           time.time() - t0, 2.0)
