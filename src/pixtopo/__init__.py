"""Topological invariants of finite 2D digital objects.

Counts pixels, corner vertices, connected components, proper holes, 2x2
blocks and tunnels of pixel sets; cross-checks the tunnel count against the
counter identity t = v - 2(p + c - h) + b; maintains all counters
incrementally under pixel insertion; and classifies digital curves.
"""

from .grid import Adjacency, DigitalObject, Pixel, corners
from .invariants import (
    InvariantReport,
    analyze,
    analyze_batch,
    count_blocks,
    count_components,
    count_holes,
    count_tunnels_direct,
    count_vertices,
    has_separating_tunnels,
    is_k_separating,
    is_tunnel_free,
    tunnels_by_formula,
)
from .incremental import (
    CaseId,
    DuplicatePixelError,
    InsertionDelta,
    Tracker,
    TrackerCorruptionError,
    classify_case,
)
from .curves import (
    CurveVerdict,
    IdentityCheck,
    curve_report,
    is_general_curve,
    is_simple_arc,
    is_simple_closed_curve,
)
from .io import (
    ParseError,
    ReportDocument,
    emit_report,
    parse_ascii_grid,
    parse_pbm,
    to_ascii_grid,
    to_pbm,
)
from .generate import (
    GenerationError,
    SplitMix64,
    generate_blockfree,
    generate_curve,
    generate_random,
)

__version__ = "0.1.0"

__all__ = [
    "Adjacency",
    "CaseId",
    "CurveVerdict",
    "DigitalObject",
    "DuplicatePixelError",
    "GenerationError",
    "IdentityCheck",
    "InsertionDelta",
    "InvariantReport",
    "ParseError",
    "Pixel",
    "ReportDocument",
    "SplitMix64",
    "Tracker",
    "TrackerCorruptionError",
    "analyze",
    "analyze_batch",
    "classify_case",
    "corners",
    "count_blocks",
    "count_components",
    "count_holes",
    "count_tunnels_direct",
    "count_vertices",
    "curve_report",
    "emit_report",
    "generate_blockfree",
    "generate_curve",
    "generate_random",
    "has_separating_tunnels",
    "is_general_curve",
    "is_k_separating",
    "is_simple_arc",
    "is_simple_closed_curve",
    "is_tunnel_free",
    "parse_ascii_grid",
    "parse_pbm",
    "to_ascii_grid",
    "to_pbm",
    "tunnels_by_formula",
]
