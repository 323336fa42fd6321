"""helly-plane: exact verification of vector-sum bounds in normed planes."""

from .algorithms import (
    RotationStep,
    RotationTrace,
    SignVector,
    choose_signs,
    ginzburg_reduce,
    make_generic,
)
from .gallery import CASE_NAMES, gallery_case, run_gallery
from .generators import (
    gen_random_ball,
    gen_unit_vectors,
    gen_zero_sum_six,
)
from .norms import (
    UnitBall,
    ball_from_json,
    ball_to_json,
    boundary_point,
    edge_functionals,
    euclidean_ball,
    gauge,
    make_polygonal_ball,
    square_ball,
)
from .scalars import DEFAULT_TOL, Scalar, parse_scalar
from .suites import SUITE_NAMES, SuiteConfig, SuiteReport, run_suite
from .symmetry import (
    ConvexBody,
    ViolationWitness,
    WitnessKind,
    find_violation_halfplane,
    find_violation_surrounding,
    is_centrally_symmetric,
    make_convex_body,
)
from .theorems import (
    Certificate,
    KSum,
    VerifyReport,
    claim1_triplets,
    corollary_check,
    halfplane_certificate,
    lemma_conv_check,
    lemma_main_witness,
    verify_helly,
    verify_theorem1,
)
from .vectors import Vec2, VectorMultiset, vsum

__version__ = "0.1.0"
