"""Desk-scale verification of sparse averaging families and the
Gagliardo-Nirenberg inequality in rearrangement-invariant norms."""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    ConfigError,
    ConstructionError,
    CorpusConfigError,
    EmptyRegionError,
    GnsparseError,
    ModularRangeError,
    NormRangeError,
    UnresolvableFunctionError,
    YoungInversionError,
)
from .grid import (
    Grid1D,
    Grid2D,
    GridFunction1D,
    GridFunction2D,
    interval_integrals,
)
from .testfunctions import TestFunctionSpec, make_test_function
from .rearrangement import CellField
from .spaces import (
    INF,
    SpaceDescriptor,
    YoungFunction,
    cl_combine,
    index_float,
    parse_index,
)
from .norms import cl_factorization_check, luxemburg_norm, modular, space_norm
from .operator import (
    CellFamily,
    apply_sparse_operator,
    majorization_ratio,
    modular_contraction_check,
    operator_norm_check,
)
from .sparse1d import (
    SparseFamily1D,
    build_family_1d,
    default_k_min,
    verify_pointwise_1d,
)
from .sparse2d import (
    Family2DReport,
    SlabSet,
    SparseFamily2D,
    build_family_2d,
    compute_delta,
    verify_family_2d,
)
from .gn import (
    CHECK_NAMES,
    GNCase,
    GNReport,
    first_order_chain_check,
    gn_ratio,
    induction_identity_check,
    run_case,
    run_corpus,
)
from .serialize import csv_report, text_report
