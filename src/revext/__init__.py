"""Reversible extensions of partial dynamical systems on the interval and
the circle: chain spaces, logistic-family bifurcation analysis, circle
rotation numbers, and finite-dimensional operator-model verification."""

from .core import (CIRCLE, EPS_CHAIN, EPS_DOM, UNIT_INTERVAL, Branch,
                   OutsideDomain, PartialMapSystem, apply,
                   check_semiconjugacy, make_constant_system,
                   make_rotation_system, preimages)
from .extension import (INF, Chain, ChainRows, EmptyStratum, ExtensionSpec,
                        InvalidLift, NotInImage, StratumSample, alpha_tilde,
                        alpha_tilde_inv, chain_distance, factor_map,
                        hausdorff, lift_semiconjugacy, sample_stratum,
                        validate_chain)

__all__ = [
    "CIRCLE", "EPS_CHAIN", "EPS_DOM", "UNIT_INTERVAL", "Branch",
    "OutsideDomain", "PartialMapSystem", "apply",
    "check_semiconjugacy", "make_constant_system", "make_rotation_system",
    "preimages",
    "INF", "Chain", "ChainRows", "EmptyStratum", "ExtensionSpec",
    "InvalidLift", "NotInImage", "StratumSample", "alpha_tilde",
    "alpha_tilde_inv", "chain_distance", "factor_map", "hausdorff",
    "lift_semiconjugacy", "sample_stratum", "validate_chain",
]

__version__ = "0.1.0"
