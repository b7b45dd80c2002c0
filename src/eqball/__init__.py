"""Equilateral sets in the closed unit ball of R^n.

Constructions and constants for standard equilateral sets (pairwise
distance 1), in-ball enlargement to maximal size n+1, midpoint clearance
with a brute-force oracle, annulus circuits, falsification of candidate
weight functions, and machine-checkable certificates that every weight
summing to a constant over all maximal sets assigns equal values to any
two points.
"""

__version__ = "0.1.0"

from .errors import EqBallError
from .geometry import DEFAULT_TOL, Frame, Tolerance, orthonormal_complement, project, section2d
from .simplex import (
    EquilateralSet,
    SetStats,
    affine_independence_check,
    alpha,
    beta,
    canonical_simplex,
    cap_extension,
    center,
    is_standard_equilateral,
    sample_maximal_set,
)
from .enlarge import (
    EnlargeTrace,
    center_norm_bound,
    enlarge_step,
    enlarge_to_maximal,
    is_maximal,
    k_region_test,
)
from .gamma import GammaResult, gamma, gamma1_link, gamma1_links, gamma_bruteforce
from .weights import (
    CircuitPlan,
    FalsifyReport,
    WeightFn,
    chain_connect,
    eta,
    falsify,
    frame_weight_sum,
    lambda_shell,
    mu,
    mu_inverse,
    nu,
    shell_circuit,
)
from .certify import (
    Certificate,
    CheckReport,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    constant_lemma_relation,
    generate_equality_certificate,
    theorem_step_relation,
)

__all__ = [
    "EqBallError",
    "Tolerance",
    "DEFAULT_TOL",
    "Frame",
    "orthonormal_complement",
    "project",
    "section2d",
    "EquilateralSet",
    "SetStats",
    "beta",
    "alpha",
    "center",
    "canonical_simplex",
    "is_standard_equilateral",
    "affine_independence_check",
    "cap_extension",
    "sample_maximal_set",
    "EnlargeTrace",
    "enlarge_step",
    "enlarge_to_maximal",
    "is_maximal",
    "center_norm_bound",
    "k_region_test",
    "GammaResult",
    "gamma",
    "gamma_bruteforce",
    "gamma1_link",
    "gamma1_links",
    "eta",
    "mu",
    "nu",
    "mu_inverse",
    "lambda_shell",
    "CircuitPlan",
    "shell_circuit",
    "WeightFn",
    "FalsifyReport",
    "frame_weight_sum",
    "falsify",
    "chain_connect",
    "Certificate",
    "CheckReport",
    "theorem_step_relation",
    "constant_lemma_relation",
    "generate_equality_certificate",
    "check_certificate",
    "certificate_to_json",
    "certificate_from_json",
]
