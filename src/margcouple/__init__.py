"""Exact-rational couplings with prescribed marginals.

Given a reference joint distribution on a product of two atomic spaces and
perturbed marginal distributions, this package constructs a joint measure
carrying exactly those marginals while staying close to the reference on
finitely many open sets, in the one-sided weak-star sense.  A grid
refinement turns closeness targets into a safe per-cell tolerance, and a
seeded certification harness replays the whole pipeline on randomized
perturbations.  All arithmetic is exact: weights, coordinates and
tolerances are ``fractions.Fraction`` throughout.
"""

from .couple import (
    CellAlloc,
    MarginalPair,
    PreimageReport,
    admissible_delta,
    construct_preimage,
    marginal_pair,
)
from .errors import (
    Error,
    HypothesisError,
    InternalConsistencyError,
    InvalidIntervalError,
    MassMismatchError,
    NegativeWeightError,
    ParameterError,
    SchemaError,
)
from .measure import (
    Measure,
    MetaMeasure,
    barycenter,
    couple_mass,
    tensor,
)
from .refine import (
    Grid,
    RefineResult,
    disjointify,
    rect_inner_approx,
    refine_grid,
)
from .space import (
    Atom,
    Box,
    BoxSet,
    IntervalSet,
    ProductSpace,
    Rational,
    SpaceDesc,
    box_within,
    boxes_disjoint,
    boxset_within,
    boxsets_disjoint,
    canonicalize,
    intervalsets_disjoint,
)
from .verify import (
    CertReport,
    LemmaCheck,
    Seed,
    Violation,
    certify_openness,
    check_band_bound,
    check_box_diff_bound,
    oracle_couple,
    sample_in_neighborhood,
    tensor_via_barycenter,
)
from .weakstar import Neighborhood

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Box",
    "BoxSet",
    "CellAlloc",
    "CertReport",
    "Error",
    "Grid",
    "HypothesisError",
    "IntervalSet",
    "InternalConsistencyError",
    "InvalidIntervalError",
    "LemmaCheck",
    "MarginalPair",
    "MassMismatchError",
    "Measure",
    "MetaMeasure",
    "NegativeWeightError",
    "Neighborhood",
    "ParameterError",
    "PreimageReport",
    "ProductSpace",
    "Rational",
    "RefineResult",
    "SchemaError",
    "Seed",
    "SpaceDesc",
    "Violation",
    "admissible_delta",
    "barycenter",
    "box_within",
    "boxes_disjoint",
    "boxset_within",
    "boxsets_disjoint",
    "canonicalize",
    "certify_openness",
    "check_band_bound",
    "check_box_diff_bound",
    "construct_preimage",
    "couple_mass",
    "disjointify",
    "intervalsets_disjoint",
    "marginal_pair",
    "oracle_couple",
    "rect_inner_approx",
    "refine_grid",
    "sample_in_neighborhood",
    "tensor",
    "tensor_via_barycenter",
]
