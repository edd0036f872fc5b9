"""trimat: intersection matrices of surface triangulations.

Compute the pairwise intersection-dimension matrix of a triangulated
surface, search for matrix-preserving triangle bijections and decide
whether they are induced by vertex maps, classify the cycle of triangles
around a vertex, rebuild a triangulation from its matrix alone, and
recognize the two projective-plane triangulations whose matrices admit
self-maps that no vertex map induces.
"""

from .catalog import CatalogEntry, disk_fan, moebius5, moebius6, standard, tp10, tp12
from .complexes import (
    SurfaceReport,
    Triangle,
    Triangulation,
    boundary_edges,
    euler_characteristic,
    orientability,
    parse_triangulation,
    serialize_triangulation,
    validate_closed_surface,
    vertex_star,
)
from .cycles import (
    MOEBIUS5,
    MOEBIUS6,
    CycleClass,
    CycleRealization,
    classify_realization,
    disk,
    enumerate_realizations,
    expected_classes,
    ncycle_matrix,
)
from .errors import (
    BudgetExceededError,
    MappingError,
    ParseError,
    PatternError,
    ReconstructionError,
    SurfaceError,
    TrichotomyError,
    TrimatError,
)
from .intersection import (
    Extended,
    ExtensionResult,
    IntersectionMatrix,
    NonExtendable,
    TriangleBijection,
    extend_to_simplicial,
    find_intersection_preserving_bijections,
    intersection_dim,
    intersection_matrix,
    is_intersection_preserving,
    isomorphic,
    parse_bijection,
    parse_matrix,
    serialize_bijection,
    serialize_matrix,
)
from .reconstruct import ReconstructionResult, detect_exceptional, reconstruct

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CatalogEntry",
    "CycleClass",
    "CycleRealization",
    "Extended",
    "ExtensionResult",
    "IntersectionMatrix",
    "MappingError",
    "MOEBIUS5",
    "MOEBIUS6",
    "NonExtendable",
    "ParseError",
    "PatternError",
    "ReconstructionError",
    "ReconstructionResult",
    "SurfaceError",
    "SurfaceReport",
    "Triangle",
    "TriangleBijection",
    "Triangulation",
    "TrichotomyError",
    "TrimatError",
    "boundary_edges",
    "classify_realization",
    "detect_exceptional",
    "disk",
    "disk_fan",
    "enumerate_realizations",
    "euler_characteristic",
    "expected_classes",
    "extend_to_simplicial",
    "find_intersection_preserving_bijections",
    "intersection_dim",
    "intersection_matrix",
    "is_intersection_preserving",
    "isomorphic",
    "moebius5",
    "moebius6",
    "ncycle_matrix",
    "orientability",
    "parse_bijection",
    "parse_matrix",
    "parse_triangulation",
    "reconstruct",
    "serialize_bijection",
    "serialize_matrix",
    "serialize_triangulation",
    "standard",
    "tp10",
    "tp12",
    "validate_closed_surface",
    "vertex_star",
]
