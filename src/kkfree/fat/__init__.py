"""Quadtree alignment, centroid splitting, curtain reporting, and the
fat-triangle reporting structure."""

from .quadtree import (MAX_LEVEL, SHIFTS, QuadtreeSquare, alignment_level,
                       bbox_of, centroid_square, centroid_square_with_members,
                       diameter_sq_of, is_aligned, shift_align)
from .slanted import (CurtainStructure, QueryStats, SlantedRangeTree,
                      build_curtain_structure, curtain_query)
from .structure import (DEFAULT_DELTA, FatQueryStats, FatReportStructure,
                        FrameMap, build_fat_structure, fat_query, make_frame,
                        min_angle)

__all__ = [
    "MAX_LEVEL", "SHIFTS", "QuadtreeSquare", "alignment_level", "bbox_of",
    "centroid_square", "centroid_square_with_members", "diameter_sq_of",
    "is_aligned", "shift_align", "CurtainStructure",
    "QueryStats", "SlantedRangeTree", "build_curtain_structure",
    "curtain_query", "DEFAULT_DELTA", "FatQueryStats", "FatReportStructure",
    "FrameMap", "build_fat_structure", "fat_query", "make_frame", "min_angle",
]
