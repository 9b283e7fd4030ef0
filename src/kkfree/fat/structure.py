"""Range reporting for fat triangles: centroid quadtree recursion with
per-node slanted-range structures around the node square's center.

Exactness is unconditional: every query path either answers a whole subtree
through the apex decomposition (three apex triangles per query, handled per
sign cell in the transformed domain), reports or prunes by subtree bounding
box, or falls through to leaf tests.  The apex decomposition requires the
node's apex to lie inside the query; when it does not, the walk simply
descends, so no stabbing assumption is ever trusted for correctness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ..geometry import (Point, Rat, Triangle, predicate, require_dim,
                        triangle_edges)
from ..reductions import apex_cell_constraints
from .quadtree import (MAX_LEVEL, SHIFTS, aligned_shift_index, cell_key,
                       centroid_descent, diameter_sq_of)
from .slanted import QueryStats, SlantedRangeTree

FAT_LEAF_SIZE = 48


# ---------------------------------------------------------------------------
# structure

class _FatNode:
    __slots__ = ("start", "end", "bbox", "apex", "pos_tree", "neg_tree",
                 "axis_pts", "inside", "outside")

    def __init__(self):
        self.inside = self.outside = None
        self.pos_tree = self.neg_tree = None
        self.axis_pts = ()
        self.apex = None


class FatStratum:
    """One shifted tree over the structure's frame.

    The shift ``off / den`` only moves the quadtree cells.  A node's
    bounding box holds integer numerators over ``den`` in the unshifted
    frame too, and its apex ``(ax, ay, s)`` sits at (ax / (den * 2^s),
    ay / (den * 2^s)) with ``s <= apex_bits``.
    """

    def __init__(self, off: int):
        self.off = off
        self.root: _FatNode | None = None
        self.dfs_order: list[int] = []
        self.apex_bits = 0


class FatReportStructure:
    """The three strata over one frame: the affine map of the point bounding
    box, expanded by ten percent, into the core square [0, 1/4)^2, so the
    diagonal third-shifts keep everything inside the unit square.

    The map sends (x, y) to ((x - ox / c) * s, (y - oy / c) * s), with
    ``origin = (ox, oy)`` and s = c * k / den; ``_to_frame`` gives that
    image as integer numerators over ``den * q``.  Point i sits at
    (xy[i][0] / den, xy[i][1] / den) in the unshifted frame, a list the
    strata share.  ``degenerate`` marks a duplicate-heavy build, whose
    balance is not guaranteed.
    """

    def __init__(self, n: int, c: int, origin: tuple[int, int], k: int,
                 den: int):
        self.n = n
        self.strata: list[FatStratum] = []
        self.c = c
        self.origin = origin
        self.k = k
        self.den = den
        self.xy: list[tuple[int, int]] = []
        self.degenerate = False

    def stored_entries(self) -> int:
        """Total stored slots: tree nodes, per-node structure entries, DFS
        order arrays, and side buckets."""
        return self._sizes[0]

    def max_depth(self) -> int:
        return self._sizes[1]

    @cached_property
    def _sizes(self) -> tuple[int, int]:
        # One walk gives both sizes, on first use, after the build.
        total = best = 0
        for stratum in self.strata:
            total += len(stratum.dfs_order)
            stack = [(stratum.root, 0)] if stratum.root else []
            while stack:
                node, d = stack.pop()
                best = max(best, d)
                total += 1 + len(node.axis_pts)
                for tree in (node.pos_tree, node.neg_tree):
                    if tree is not None:
                        total += tree.stored_entries()
                for child in (node.inside, node.outside):
                    if child is not None:
                        stack.append((child, d + 1))
        return total, best


class FatQueryStats:
    def __init__(self):
        self.nodes_visited = 0
        self.curtain_stats = QueryStats()
        self.point_tests = 0
        self.reported = 0
        self.curtain_answers = 0
        self.stratum = 0

    @property
    def work(self) -> int:
        """Honest per-query work: every node touched plus every individual
        entry or point test, across the fat tree and its slanted trees."""
        return (self.nodes_visited + self.point_tests
                + self.curtain_stats.nodes_visited
                + self.curtain_stats.entry_tests)


def build_fat_structure(points: list[Point]) -> FatReportStructure:
    """Build the three shifted centroid trees over the points."""
    require_dim(points, 2, "point")
    xs = [p[0] for p in points] or [0]
    ys = [p[1] for p in points] or [0]
    x0, y0 = min(xs), min(ys)
    extent = Fraction(max(max(xs) - x0, max(ys) - y0)) or Fraction(1)
    margin = extent / 20
    ox, oy = x0 - margin, y0 - margin
    scale = Fraction(1, 4) / (extent + 2 * margin)
    # One denominator for every frame coordinate (x - ox) * scale and every
    # shift, so each stratum's coordinates are integer numerators over it:
    # with x and ox integers over c, the numerator over c * scale's
    # denominator is (x * c - ox * c) * scale's numerator.
    c = math.lcm(ox.denominator, oy.denominator,
                 *(v.denominator for p in points for v in p.coords))
    den = math.lcm(c * scale.denominator, *(s.denominator for s in SHIFTS))
    k = den // (c * scale.denominator) * scale.numerator
    structure = FatReportStructure(len(points), c,
                                   (_over(ox, c), _over(oy, c)), k, den)
    structure.xy = [_to_frame(structure, p, 1) for p in points]
    for shift in SHIFTS:
        off = _over(shift, den)
        stratum = FatStratum(off)
        if points:
            keys = [(cell_key(x + off, den, MAX_LEVEL),
                     cell_key(y + off, den, MAX_LEVEL))
                    for x, y in structure.xy]
            stratum.root = _build_node(stratum, keys, list(range(len(points))),
                                       structure)
        structure.strata.append(stratum)
    return structure


def _to_frame(structure: FatReportStructure, p: Point,
              q: int) -> tuple[int, int]:
    """p's frame coordinates as numerators over ``structure.den * q``, for
    a q that clears the denominators of p's coordinates (1 for the points
    the structure was built on)."""
    cq, (ox, oy), k = structure.c * q, structure.origin, structure.k
    return (_over(p[0], cq) - ox * q) * k, (_over(p[1], cq) - oy * q) * k


def _over(c: Rat, den: int) -> int:
    """The numerator of c over ``den``, a multiple of its denominator."""
    return c.numerator * (den // c.denominator)


def _build_node(stratum: FatStratum, keys: list[tuple[int, int]],
                idxs: list[int], structure: FatReportStructure) -> _FatNode:
    """``keys[i]`` holds the level-MAX_LEVEL cell indices of shifted point
    i."""
    node = _FatNode()
    xy, den = structure.xy, structure.den
    xs = [xy[i][0] for i in idxs]
    ys = [xy[i][1] for i in idxs]
    node.bbox = (min(xs), min(ys), max(xs), max(ys))
    node.start = len(stratum.dfs_order)
    inside_idx = outside_idx = None
    if len(idxs) > FAT_LEAF_SIZE and len({xy[i] for i in idxs}) > 1:
        level, sq_i, sq_j, inside_idx = centroid_descent(keys, idxs, MAX_LEVEL)
        drop = MAX_LEVEL - level
        outside_idx = [i for i in idxs if keys[i][0] >> drop != sq_i
                       or keys[i][1] >> drop != sq_j]
    if not inside_idx or not outside_idx:
        # A leaf.  A large one (all one point, or a degenerate split) stays
        # a leaf to guarantee termination.
        if len(idxs) > FAT_LEAF_SIZE:
            structure.degenerate = True
        stratum.dfs_order.extend(sorted(idxs))
        node.end = len(stratum.dfs_order)
        return node
    s = level + 1
    # The apex ((2 sq + 1) / 2^s in the shifted frame) and every point and 1
    # itself (``unit``), scaled by den * 2^s, are integers, so a slope
    # dy / |dx| and the value -1 / |x - apex_x| = -unit / |dx| are integers
    # over |dx|.
    unit = den << s
    gx = (2 * sq_i + 1) * den - (stratum.off << s)
    gy = (2 * sq_j + 1) * den - (stratum.off << s)
    node.apex = (gx, gy, s)
    stratum.apex_bits = max(stratum.apex_bits, s)
    pos_entries, neg_entries, axis_pts = [], [], []
    for i in idxs:
        dx = (xy[i][0] << s) - gx
        dy = (xy[i][1] << s) - gy
        if dx:
            big_x = abs(dx)
            entries = pos_entries if dx > 0 else neg_entries
            entries.append((dy, -unit, big_x, i))
        else:
            axis_pts.append(i)
    node.pos_tree, node.neg_tree = (
        SlantedRangeTree(e) if e else None
        for e in (pos_entries, neg_entries))
    node.axis_pts = tuple(axis_pts)
    node.inside = _build_node(stratum, keys, inside_idx, structure)
    node.outside = _build_node(stratum, keys, outside_idx, structure)
    node.end = len(stratum.dfs_order)
    return node


# ---------------------------------------------------------------------------
# queries

def fat_query(structure: FatReportStructure,
              tri: Triangle) -> tuple[list[int], FatQueryStats]:
    """Exactly the points inside the closed query triangle, with stats.

    Every triangle is answered exactly; the work bound is for fat ones.
    """
    stats = FatQueryStats()
    if structure.n == 0:
        return [], stats
    # The vertices' frame coordinates, as numerators over ``unit``.
    q = math.lcm(*(v.denominator for p in tri.vertices for v in p.coords))
    unit = structure.den * q
    frame_verts = [_to_frame(structure, p, q) for p in tri.vertices]
    xs, ys = zip(*frame_verts)
    bbox = (min(xs), min(ys), max(xs), max(ys))
    stratum_index = 0
    if all(0 <= x and 4 * x < unit for x in xs + ys):  # in the core square
        stratum_index = aligned_shift_index(
            bbox, diameter_sq_of(frame_verts), unit) or 0
    stats.stratum = stratum_index
    stratum = structure.strata[stratum_index]
    xy, dfs_order = structure.xy, stratum.dfs_order
    # The walk runs in units of 1/scale: every vertex, point, box corner and
    # apex of the stratum is an integer there, and frame numerators over
    # ``den`` scale by f.
    scale = math.lcm(structure.den << stratum.apex_bits, unit)
    m, f = scale // unit, scale // structure.den
    verts = [(x * m, y * m) for x, y in frame_verts]
    tbox = tuple(b * m for b in bbox)
    query = Triangle(*(Point(v) for v in verts))
    in_query = predicate(query)
    # A zero-area query (edges None) has no apex cells to answer it: the
    # walk skips the apex path and lets the leaf tests decide.
    edges = triangle_edges(query)
    out: set[int] = set()
    stack = [stratum.root]
    while stack:  # inside before outside
        node = stack.pop()
        stats.nodes_visited += 1
        rel = _tri_bbox_relation(tbox, edges, tuple(c * f for c in node.bbox))
        if rel == "disjoint":
            continue
        if rel == "covered":
            out.update(dfs_order[node.start:node.end])
            continue
        if node.inside is None:  # leaf
            idxs = dfs_order[node.start:node.end]
        else:
            ax, ay, s = node.apex
            apex = (ax * (f >> s), ay * (f >> s))
            if edges is None or not in_query(apex):
                stack += (node.outside, node.inside)
                continue
            stats.curtain_answers += 1
            _apex_answer(node, verts, scale, apex, out, stats)
            idxs = node.axis_pts
        for i in idxs:
            stats.point_tests += 1
            x, y = xy[i]
            if in_query((x * f, y * f)):
                out.add(i)
    stats.reported = len(out)
    return sorted(out), stats


def _apex_answer(node: _FatNode, verts, scale: int, apex, out: set,
                 stats: FatQueryStats):
    """Add the points off the apex's vertical line through the node's two
    slanted trees.  ``verts`` and ``apex`` are integers over ``scale``,
    while the trees hold values -1 / |x - apex_x| in frame units: those, and
    so the line's slope and intercept, scale by 1 / scale."""
    gx, gy = apex
    for a in range(3):
        va, vb = verts[a], verts[(a + 1) % 3]
        a_local = (va[0] - gx, va[1] - gy)
        b_local = (vb[0] - gx, vb[1] - gy)
        for sigma, tree in ((1, node.pos_tree), (-1, node.neg_tree)):
            if tree is None:
                continue
            res = apex_cell_constraints(a_local, b_local, sigma)
            if res in ("degenerate", "empty"):
                continue
            ulo, uhi, slope, intercept = res
            out.update(tree.query(ulo, uhi, slope * scale, intercept * scale,
                                  stats.curtain_stats))


# ---------------------------------------------------------------------------
# exact triangle/box relation

def _tri_bbox_relation(tbox, edges, bbox) -> str:
    """Exact SAT classification of a query triangle, given by its bounding
    box and ``triangle_edges``, against a box: "disjoint", "covered" (box
    inside the triangle), or "partial"."""
    xlo, ylo, xhi, yhi = bbox
    txlo, tylo, txhi, tyhi = tbox
    if txhi < xlo or txlo > xhi or tyhi < ylo or tylo > yhi:
        return "disjoint"
    if edges is None:
        return "partial"  # degenerate query; leaf tests decide
    corners = ((xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi))
    all_inside = True
    for dx, dy, k in edges:
        sides = [dx * cy - dy * cx + k for cx, cy in corners]
        if all(s < 0 for s in sides):
            return "disjoint"
        if any(s < 0 for s in sides):
            all_inside = False
    return "covered" if all_inside else "partial"
