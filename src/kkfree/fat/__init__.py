"""Quadtree alignment, centroid splitting, curtain reporting, and the
fat-triangle reporting structure."""

from .quadtree import (MAX_LEVEL, SHIFTS, alignment_level, centroid_square,
                       diameter_sq_of, is_aligned)
from .slanted import QueryStats, SlantedRangeTree
from .structure import (FatQueryStats, FatReportStructure,
                        build_fat_structure, fat_query)

__all__ = [
    "MAX_LEVEL", "SHIFTS", "alignment_level", "centroid_square",
    "diameter_sq_of", "is_aligned", "QueryStats", "SlantedRangeTree",
    "FatQueryStats", "FatReportStructure", "build_fat_structure", "fat_query",
]
