"""Toolkit for shifted-antimagic edge labelings.

A k-shifted labeling places the labels k+1..k+m injectively on the m
edges of a graph so that every vertex ends up with a distinct sum of
incident labels. The package builds such labelings for families with
known constructions, verifies claimed labelings, and exhaustively decides
feasibility on small graphs to map out which shifts a graph misses.
"""

from __future__ import annotations

from .certificate import (
    certificate_to_labeling,
    check_certificate,
    labeling_to_certificate,
)
from .constructors import (
    ALL_SHIFTS,
    AllShifts,
    closed_form_spectrum,
    construct_cp3,
    construct_double_star,
    construct_forest_sdds,
    construct_odd_degree,
    construct_p5prime,
    construct_path_shifted,
    construct_path_strong,
    construct_star,
    construct_two_p4,
    construct_two_s3,
    p3_threshold,
)
from .errors import AntimagicError
from .families import (
    complete,
    complete_bipartite,
    cp3,
    cube,
    cycle,
    double_star,
    p5prime,
    path,
    petersen,
    star,
    two_p4,
    two_s3,
)
from .graph import (
    Graph,
    build_graph,
    canonical_edge,
    components,
    level_partition,
    parse_edge_list,
)
from .labeling import (
    EdgeLabeling,
    Verdict,
    is_sdds,
    is_strongly_antimagic,
    negate_labeling,
    sdds_shift_threshold,
    shift_labeling,
    verify_shifted,
    vertex_sums,
)
from .spectrum import (
    SpectrumReport,
    WindowResult,
    decide,
    finite_window,
    labeling_at,
    search_sdds,
    search_strong,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SHIFTS",
    "AllShifts",
    "AntimagicError",
    "EdgeLabeling",
    "Graph",
    "SpectrumReport",
    "Verdict",
    "WindowResult",
    "build_graph",
    "canonical_edge",
    "certificate_to_labeling",
    "check_certificate",
    "closed_form_spectrum",
    "complete",
    "complete_bipartite",
    "components",
    "construct_cp3",
    "construct_double_star",
    "construct_forest_sdds",
    "construct_odd_degree",
    "construct_p5prime",
    "construct_path_shifted",
    "construct_path_strong",
    "construct_star",
    "construct_two_p4",
    "construct_two_s3",
    "cp3",
    "cube",
    "cycle",
    "decide",
    "double_star",
    "finite_window",
    "is_sdds",
    "is_strongly_antimagic",
    "labeling_at",
    "labeling_to_certificate",
    "level_partition",
    "negate_labeling",
    "p3_threshold",
    "p5prime",
    "parse_edge_list",
    "path",
    "petersen",
    "sdds_shift_threshold",
    "search_sdds",
    "search_strong",
    "shift_labeling",
    "spectrum",
    "star",
    "two_p4",
    "two_s3",
    "verify_shifted",
    "vertex_sums",
]
