"""Hyperbolic triangular prisms with a single ideal vertex.

The package enumerates the admissible dihedral-angle labelings of such
prisms, realizes each as a configuration of lines and circles in the plane
bounding the upper half-space model, builds the four face-rotation Moebius
generators, and verifies the group relations numerically.
"""

from .labelings import (
    CatalogItem,
    CuspType,
    Labeling,
    TriangleClass,
    canonicalize,
    catalog_counts,
    classify_triangle,
    enumerate_catalog,
    is_admissible,
    symmetry_mate,
)
from .geometry import (
    PlanarCircle,
    PlanarConfig,
    PlanarLine,
    RealizationError,
    build_lines,
    cocircle_constraint,
    line_circle_offset,
    measure_angle,
    realize,
    tangency_constraint,
    verify_config,
)
from .moebius import (
    GeneratorSet,
    MoebiusMatrix,
    build_generators,
    rotation_matrix,
    trace_check,
    verify_relations,
)
from .catalog import (
    CatalogEntry,
    build_catalog,
    build_entry,
    dump_catalog,
    load_catalog,
    verify_catalog,
)
from .svg import render_svg, write_svg

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CatalogItem",
    "CuspType",
    "GeneratorSet",
    "Labeling",
    "MoebiusMatrix",
    "PlanarCircle",
    "PlanarConfig",
    "PlanarLine",
    "RealizationError",
    "TriangleClass",
    "build_catalog",
    "build_entry",
    "build_generators",
    "build_lines",
    "canonicalize",
    "catalog_counts",
    "classify_triangle",
    "cocircle_constraint",
    "dump_catalog",
    "enumerate_catalog",
    "is_admissible",
    "line_circle_offset",
    "load_catalog",
    "measure_angle",
    "realize",
    "render_svg",
    "rotation_matrix",
    "symmetry_mate",
    "tangency_constraint",
    "trace_check",
    "verify_catalog",
    "verify_config",
    "verify_relations",
    "write_svg",
]
