"""Zero-sum sequence toolkit for finite abelian groups of rank at most two.

Exact Davenport constants, exhaustive enumeration of maximal-length minimal
zero-sum sequences, classification against the two structural families, and
the supporting verification sweeps, all at desk scale.
"""

from .errors import (
    BadFactor,
    BadLength,
    BadParams,
    BadWitness,
    CapExceeded,
    ChainViolation,
    DimensionMismatch,
    GroupMismatch,
    MissingCosetCondition,
    NotMlMzss,
    NotZeroSum,
    ParseError,
    ZeroElement,
    ZeroSumError,
)
from .groups import (
    Element,
    GroupSpec,
    Homomorphism,
    add,
    automorphisms,
    element,
    format_element,
    inductive_quotient,
    is_basis,
    is_independent,
    make_group,
    neg,
    order,
    parse_element,
    parse_group,
    scale,
    subgroup_generated,
)
from .search import (
    DavenportResult,
    EnumerationReport,
    canonicalize,
    count_ml_mzss,
    davenport,
    davenport_closed_form,
    enumerate_ml_mzss,
    enumerate_with_report,
)
from .sequences import (
    Sequence,
    apply_hom,
    extract_zero_sum_of_length,
    format_sequence,
    is_mzss,
    is_zero_sum_free,
    parse_sequence,
    reachable_subsums,
    sigma,
    zss_max_factors,
)
from .structure import (
    ClassificationResult,
    ShapeAWitness,
    ShapeBWitness,
    Type1Witness,
    Type2Witness,
    VerificationReport,
    check_cyclic_inverse,
    check_property_b,
    check_rank_two_structure,
    classify,
    egz_property,
    find_admissible_factorization,
    gen_shape_a,
    gen_shape_b,
    gen_type1,
    gen_type2,
    shape_a_witnesses,
    shape_b_witnesses,
    tm1_structure_check,
)

__version__ = "0.1.0"
