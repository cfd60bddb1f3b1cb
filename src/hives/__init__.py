"""Exact combinatorics of Littlewood-Richardson coefficients via integer
hives, octahedron-recursion propagation, and piecewise-linear bijections."""

from .grids import (FaceChart, UnitOctahedron, UnitRhombus2D, rhombus,
                    cutting_sections, section_rhombi_3d, tetra_points,
                    tri_points, unit_octahedra, unit_rhombi_2d)
from .hive import (BoundaryTriple, Hive, boundary, is_partition, p_mu,
                   validate_dc)
from .tableaux import SkewShape, SkewTableau, lr_coefficient, schur_product
from .enumeration import (brute_force_count, count_glued_pairs, count_hives,
                          count_wall_pairs, enumerate_glued_pairs,
                          enumerate_hives, enumerate_wall_pairs)
from .octahedron import (PcpmReport, TetraFunction, check_pcpm,
                         check_polarized, extract_face, inverse_propagate,
                         propagate)
from .bijections import (CommutorDiagnostics, GluedPair, WallPair,
                         assoc_forward, assoc_inverse, commutor,
                         half_octahedron_diagnostics,
                         half_octahedron_function)

__all__ = [
    "FaceChart", "UnitOctahedron", "UnitRhombus2D", "rhombus",
    "cutting_sections", "section_rhombi_3d", "tetra_points", "tri_points",
    "unit_octahedra", "unit_rhombi_2d",
    "BoundaryTriple", "Hive", "boundary", "is_partition", "p_mu",
    "validate_dc",
    "SkewShape", "SkewTableau", "lr_coefficient", "schur_product",
    "brute_force_count", "count_glued_pairs", "count_hives",
    "count_wall_pairs", "enumerate_glued_pairs", "enumerate_hives",
    "enumerate_wall_pairs",
    "PcpmReport", "TetraFunction", "check_pcpm", "check_polarized",
    "extract_face", "inverse_propagate", "propagate",
    "CommutorDiagnostics", "GluedPair", "WallPair", "assoc_forward",
    "assoc_inverse", "commutor", "half_octahedron_diagnostics",
    "half_octahedron_function",
]
