"""App Dependency Analyzer (§5).

Builds the dependency graph over event handlers, merges strongly connected
components, computes per-leaf *related sets*, merges sets with conflicting
outputs, removes redundant subsets - producing the groups of handlers the
model checker analyzes jointly (and the Table 7a scale ratios).
"""

from repro.deps.events import (
    ANY,
    EventDescriptor,
    extract_handler_io,
    handler_vertices,
)
from repro.deps.graph import DependencyGraph, Vertex
from repro.deps.related import (
    RelatedSetAnalysis,
    analyze_apps,
    compute_related_sets,
    scale_ratio,
)

__all__ = [
    "ANY",
    "EventDescriptor",
    "extract_handler_io",
    "handler_vertices",
    "DependencyGraph",
    "Vertex",
    "RelatedSetAnalysis",
    "analyze_apps",
    "compute_related_sets",
    "scale_ratio",
]
