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
from .geometry import DEFAULT_TOL, Frame, Tolerance, orthonormal_complement, section2d
from .simplex import (
    EquilateralSet,
    SetStats,
    alpha,
    beta,
    canonical_simplex,
    cap_extension,
    center,
    sample_maximal_set,
    sample_maximal_sets,
)
from .enlarge import (
    EnlargeTrace,
    center_norm_bound,
    enlarge_step,
    enlarge_to_maximal,
)
from .gamma import GammaResult, gamma, gamma1_link, gamma_bruteforce
from .weights import (
    CircuitPlan,
    FalsifyReport,
    WeightFn,
    eta,
    falsify,
    frame_weight_sum,
    lambda_shell,
    mu,
    mu_inverse,
    nu,
    shell_circuit,
    sphere_basis_sets,
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
    "section2d",
    "EquilateralSet",
    "SetStats",
    "beta",
    "alpha",
    "center",
    "canonical_simplex",
    "cap_extension",
    "sample_maximal_set",
    "sample_maximal_sets",
    "EnlargeTrace",
    "enlarge_step",
    "enlarge_to_maximal",
    "center_norm_bound",
    "GammaResult",
    "gamma",
    "gamma_bruteforce",
    "gamma1_link",
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
    "sphere_basis_sets",
    "Certificate",
    "CheckReport",
    "theorem_step_relation",
    "constant_lemma_relation",
    "generate_equality_certificate",
    "check_certificate",
    "certificate_to_json",
    "certificate_from_json",
]
