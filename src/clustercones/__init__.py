"""Exact cones of bounded Laurent monomials in finite-type cluster variables."""

from .laurent import LaurentPolynomial, NotDivisible
from .seeds import ExchangeData, load_seed_file
from .finite_type import (
    BipartiteBelt,
    DynkinType,
    NotFiniteTypeError,
    catalog_exchange,
    find_bipartite_seed_path,
    recognize_dynkin,
)
from .uvars import (
    DegenerationRay,
    UVariable,
    build_u_variables,
    degeneration_ray,
    verify_u_equations,
)
from .cones import (
    Certificate,
    ConeDescription,
    ExtremeRay,
    NotFullRankError,
    UMatrix,
    build_u_matrix,
    membership,
    subset_cone,
    subtraction_free_check,
    verify_certificate,
)
from .expressions import RatioSyntaxError, parse_ratio, render_ratio
from .grassmannian import (
    GrassmannianCluster,
    IdentificationError,
    PrimitiveRatio,
    RatioTableError,
    TotallyPositivePoint,
    UnboundedRatioError,
    check_ray_table,
    grid_seed,
    load_gr48_ratios,
    load_ray_table,
    packaged_table,
    tp_sample,
    verify_gr48_table,
)

__all__ = [
    "LaurentPolynomial",
    "NotDivisible",
    "ExchangeData",
    "load_seed_file",
    "BipartiteBelt",
    "DynkinType",
    "NotFiniteTypeError",
    "catalog_exchange",
    "find_bipartite_seed_path",
    "recognize_dynkin",
    "DegenerationRay",
    "UVariable",
    "build_u_variables",
    "degeneration_ray",
    "verify_u_equations",
    "Certificate",
    "ConeDescription",
    "ExtremeRay",
    "NotFullRankError",
    "UMatrix",
    "build_u_matrix",
    "membership",
    "subset_cone",
    "subtraction_free_check",
    "verify_certificate",
    "RatioSyntaxError",
    "parse_ratio",
    "render_ratio",
    "GrassmannianCluster",
    "IdentificationError",
    "PrimitiveRatio",
    "RatioTableError",
    "TotallyPositivePoint",
    "UnboundedRatioError",
    "check_ray_table",
    "grid_seed",
    "load_gr48_ratios",
    "load_ray_table",
    "packaged_table",
    "tp_sample",
    "verify_gr48_table",
]

__version__ = "0.1.0"
