"""Quadtree alignment, centroid splitting, curtain reporting, and the
fat-triangle reporting structure."""

from .quadtree import (MAX_LEVEL, SHIFTS, QuadtreeSquare, alignment_level,
                       bbox_of, centroid_square, diameter_sq_of, is_aligned)
from .slanted import (CurtainStructure, QueryStats, SlantedRangeTree,
                      build_curtain_structure, curtain_query)
from .structure import (FatQueryStats, FatReportStructure, FrameMap,
                        build_fat_structure, fat_query, make_frame)

__all__ = [
    "MAX_LEVEL", "SHIFTS", "QuadtreeSquare", "alignment_level", "bbox_of",
    "centroid_square", "diameter_sq_of", "is_aligned", "CurtainStructure",
    "QueryStats", "SlantedRangeTree", "build_curtain_structure",
    "curtain_query", "FatQueryStats", "FatReportStructure", "FrameMap",
    "build_fat_structure", "fat_query", "make_frame",
]
