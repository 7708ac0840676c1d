"""Exact p-th roots of nilpotent matrices.

The library decides root existence from profile combinatorics, builds the
adjacency graph of root profiles, and synthesizes explicit exact-arithmetic
paths between any two p-th roots of the same nilpotent matrix, with
machine-checkable certificates.
"""

from .errors import (
    ChainGuardError,
    DetourSearchExhaustedError,
    DuplicateSampleError,
    GuardError,
    InputFormatError,
    InvalidMoveError,
    MissingCellsError,
    NilpathError,
    NotInKernelError,
    NotNilpotentError,
    NotSimilarError,
    OutsideNeighborhoodError,
    PowerMismatchError,
    SingularMatrixError,
    SizeCapExceededError,
    WindowViolationError,
    ZeroPolynomialError,
)
from .scalar import Scalar, format_scalar, parse_scalar
from .matrix import (
    Matrix,
    det,
    direct_sum,
    inverse,
    jordan_cell,
    matrix_from_json,
    matrix_from_json_obj,
    matrix_mul,
    matrix_pow,
    matrix_to_json,
    matrix_to_json_obj,
    rank,
)
from .jordan import JordanDecomposition, jordan_basis, nilpotent_profile, profile_matrix, similarity_witness
from .profiles import (
    AdjacencyMove,
    Profile,
    apply_move,
    cell_power_profile,
    enumerate_preimages,
    is_p_adjacent,
    profile_power,
    profiles_of_size,
)
from .criteria import (
    SemigroupWitness,
    ZeroSpec,
    find_root_profile,
    has_pth_root,
    is_f_solvable,
    special_two_three,
)
from .graph import ProfileChain, ProfileGraph, build_graph, export_dot, is_connected, profile_chain
from .polynomials import (
    RatPoly,
    certify_nonvanishing_segment,
    poly_interpolate_entries,
    sturm_root_count,
)
from .sections import ConjugationSection, SectionData, conjugation_section, section_eval, section_setup
from .paths import (
    AdjacencySegment,
    CentralizerSegment,
    Certificate,
    LiftCore,
    RootPath,
    adjacency_segment,
    basic_family,
    centralizer_segment,
    connect_roots,
    lift_family,
    path_from_json_obj,
    verify,
)

__version__ = "0.1.0"
