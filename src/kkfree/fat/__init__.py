"""Quadtree alignment, centroid splitting, curtain reporting, and the
fat-triangle reporting structure."""
