"""Hyperbolic triangular prisms with a single ideal vertex.

The package enumerates the admissible dihedral-angle labelings of such
prisms, realizes each as a configuration of lines and circles in the plane
bounding the upper half-space model, builds the four face-rotation Moebius
generators, and verifies the group relations numerically.  The names below
are the ones the README documents; everything else lives in the submodules
``labelings``, ``geometry``, ``moebius``, ``catalog``, ``svg`` and ``cli``.
"""

from .labelings import enumerate_catalog
from .geometry import RealizationError, realize, verify_config
from .moebius import build_generators, trace_check, verify_relations
from .catalog import build_entry, check_entry, verify_catalog

__version__ = "0.1.0"

__all__ = [
    "RealizationError",
    "build_entry",
    "build_generators",
    "check_entry",
    "enumerate_catalog",
    "realize",
    "trace_check",
    "verify_catalog",
    "verify_config",
    "verify_relations",
]
