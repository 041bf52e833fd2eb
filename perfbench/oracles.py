"""Reference values for the benchmark's oracle checks.

Every reference is independent of the program's own output: a closed form
where the mathematics gives one, otherwise a Newton solve of the defining
equations in mpmath at 40 digits started from fixed guesses, or a
brute-force recomputation at small size.  mpmath is imported lazily so that
it never counts towards the benchmark's set-up time.
"""

from __future__ import annotations

import functools
import math

# Period-doubling, superstable and window-onset parameters of
# alpha(x) = 4*lambda*x*(1-x), i.e. r/4 for the textbook r*x*(1-x).
LAMBDA_1 = 0.75                              # r = 3
LAMBDA_2 = (1.0 + math.sqrt(6.0)) / 4.0      # r = 1 + sqrt(6)
S_0 = 0.5                                    # r = 2
S_1 = (1.0 + math.sqrt(5.0)) / 4.0           # r = 1 + sqrt(5)
ETA_1 = (1.0 + 2.0 * math.sqrt(2.0)) / 4.0   # r = 1 + sqrt(8), saddle-node
# The Feigenbaum point r_inf = 3.5699456718695445... divided by 4.
LAMBDA_INF = 3.5699456718695445 / 4.0

ACCURACY_CAP = 12.0


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at ACCURACY_CAP."""
    if rel_err <= 10.0 ** -ACCURACY_CAP:
        return ACCURACY_CAP
    return min(ACCURACY_CAP, -math.log10(rel_err))


def mu_1() -> float:
    """The first band-merging parameter: the real root of
    r^3 - 2r^2 - 4r - 8 = 0, divided by 4."""
    import mpmath as mp
    with mp.workdps(40):
        return float(mp.findroot(lambda r: r ** 3 - 2 * r ** 2 - 4 * r - 8,
                                 3.68) / 4)


def orbit_bifurcation(period: int, multiplier: int, lam_guess: float,
                      lam_settle: float) -> float:
    """The lambda where a period-``period`` orbit has the given multiplier
    (+1: saddle-node, -1: period doubling).

    Solves alpha^p(x) = x and (alpha^p)'(x) = multiplier jointly in
    (x, lambda), starting from ``lam_guess`` and a point of the attracting
    orbit at ``lam_settle``.  Raises if Newton lands away from the guess.
    """
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
    lam = float(lam)
    if abs(lam - lam_guess) > 1e-3:
        raise ArithmeticError(f"period-{period} solve drifted to {lam}")
    return lam


@functools.cache
def reference_values() -> dict:
    """Named reference parameters used by the cascade and operator
    workloads; each non-closed-form entry is an mpmath joint solve."""
    return {
        "lambda_1": LAMBDA_1,
        "lambda_2": LAMBDA_2,
        "lambda_3": orbit_bifurcation(4, -1, 0.886, 0.880),
        "lambda_4": orbit_bifurcation(8, -1, 0.8911, 0.890),
        "s_0": S_0,
        "s_1": S_1,
        "mu_1": mu_1(),
        "eta_1": ETA_1,
        "nu_1": orbit_bifurcation(3, -1, 0.9603, 0.959),
        "eta_2": orbit_bifurcation(5, +1, 0.9345, 0.935),
        "nu_2": orbit_bifurcation(5, -1, 0.93528, 0.935),
        "window_cascade_1_2": orbit_bifurcation(6, -1, 0.9619, 0.9612),
        "window_cascade_1_3": orbit_bifurcation(12, -1, 0.96226, 0.9621),
    }


def hausdorff_bruteforce(A, B, distance) -> float:
    """Hausdorff distance by evaluating ``distance`` on every pair."""
    table = [[distance(a, b) for b in B] for a in A]
    return max(max(min(row) for row in table),
               max(min(col) for col in zip(*table)))


def perturbed_rotation_number(tau: float, a: float, n_iter: int) -> float:
    """Rotation number of t -> t + tau + a*sin(2*pi*t)/(2*pi) from n_iter
    steps of the full lift; for a circle homeomorphism the error is below
    1/n_iter for any start point."""
    twopi = 2.0 * math.pi
    t = 0.0
    for _ in range(n_iter):
        t = t + tau + a * math.sin(twopi * t) / twopi
    rho = t / n_iter
    return rho - math.floor(rho)


def circle_gap(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def cascade_stage_nodes(n: int) -> int:
    """A central ray, 2^n - 2 further rays and 2^(n-1) arcs."""
    return 1 + (2 ** n - 2) + 2 ** (n - 1)


def mu_point_nodes(n: int) -> int:
    """A central ray, 2^n - 2 further rays and 2^n bucket-handle
    continua."""
    return 1 + (2 ** n - 2) + 2 ** n


def window_nodes(n: int) -> int:
    """A ray and the period-(2n+1) leaf continuum."""
    return 2
