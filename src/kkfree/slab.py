"""Divide-and-conquer incidence audits for rectangles, boxes, and curtains.

Each audit is an exact counting algorithm: the sum of incidences attributed
across the recursion tree equals the brute-force count, independently of any
bound.  Alongside the count, each node records the quantities entering the
divide-and-conquer recurrence so the solved bound can be fitted numerically.

Slab boundaries sit at rank positions of the points sorted along the leading
axis (ties broken by index).  A range is classified through the contiguous
rank interval of the points its leading-axis extent covers; a range endpoint
"belongs" to the slab containing its rank position, which fixes the
boundary-vertex convention.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from operator import itemgetter

from .errors import InvalidInputError
from .geometry import (Box, Coords, Curtain, Point, Range, closed_rank_range,
                       predicate, require_dim, require_type)


class SlabNode:
    """One node of an audit recursion tree.

    ``kind`` is "split", "leaf", "projected" or "rect-base"; ``charged``
    counts the ranges counted at this node (m0, or the long ones) and
    ``attributed`` the incidences attributed here; ``vertices`` is the
    weighted endpoint ledger of the box audit, and ``child_vertices`` the
    part of it handed down to the child slabs.  A box split node hands each
    leading-axis endpoint to the one slab that holds it, so there the two
    are equal.  The audit JSON writes every field of the instance dict, its
    keys sorted as ``reports.write_json`` sorts them.
    """

    def __init__(self, kind: str, depth: int, dim: int, n: int, m: int,
                 charged: int = 0, attributed: int = 0,
                 inside_counts: tuple[int, ...] = (), threesided: int = 0,
                 crossing: int = 0, vertices: int = 0,
                 child_vertices: int = 0):
        self.kind = kind
        self.depth = depth
        self.dim = dim
        self.n = n
        self.m = m
        self.charged = charged
        self.attributed = attributed
        self.inside_counts = inside_counts
        self.threesided = threesided
        self.crossing = crossing
        self.vertices = vertices
        self.child_vertices = child_vertices
        self.children: list[SlabNode] = []

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


class RecursionReport:
    """Audit output: the recursion tree plus global parameters; ``total``
    sums the incidences attributed over the tree."""

    def __init__(self, kind: str, b: int, k: int, root: SlabNode):
        self.kind = kind
        self.b = b
        self.k = k
        self.total = sum(node.attributed for node in root.walk())
        self.root = root

    def nodes(self):
        return self.root.walk()

    def to_json_dict(self) -> dict:
        # Every node field as is, with no copy of its value: a deep copy
        # would be many times slower on a large tree.
        def node_dict(node: SlabNode) -> dict:
            return {**vars(node),
                    "children": [node_dict(c) for c in node.children]}
        return {"kind": self.kind, "b": self.b, "k": self.k,
                "total": self.total, "root": node_dict(self.root)}

    def ledger_rows(self) -> list[list[int]]:
        """One row per depth, in ``LEDGER_HEADER`` order: the node count,
        the sums of points, charged ranges and attributed incidences, and
        the recurrence reference k*points + b*k*charged."""
        acc: dict[int, list[int]] = {}
        for node in self.nodes():
            row = acc.setdefault(node.depth, [node.depth, 0, 0, 0, 0])
            row[1] += 1
            row[2] += node.n
            row[3] += node.charged
            row[4] += node.attributed
        return [[*row, self.k * row[2] + self.b * self.k * row[3]]
                for _, row in sorted(acc.items())]

    LEDGER_HEADER = ["depth", "nodes", "points", "charged", "attributed",
                     "reference"]


def fitted_constant(ledger_rows: list[list[int]]) -> float:
    """Smallest single constant C with attributed <= C * reference on every
    row of ``RecursionReport.ledger_rows``."""
    best = 0.0
    for *_, attributed, reference in ledger_rows:
        if attributed:
            best = max(best, attributed / max(reference, 1))
    return best


# ---------------------------------------------------------------------------
# exact offline counting: points by x-rank prefix, y in a closed range

class _Fenwick:
    def __init__(self, size: int):
        self.tree = [0] * (size + 1)

    def add(self, i: int):
        i += 1
        while i < len(self.tree):
            self.tree[i] += 1
            i += i & -i

    def prefix(self, i: int) -> int:
        # count of inserted values with index <= i
        i += 1
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & -i
        return total


def _count_rank_y(sorted_points: list[Coords],
                  queries: list[tuple[int, int, object, object]]) -> list[int]:
    """For each (alpha, beta, ylo, yhi): count points with x-rank in
    [alpha, beta] and y in the closed range.  Offline sweep with a Fenwick
    tree over y-ranks; exact integer counting."""
    if not queries:
        return []
    ys = sorted({p[1] for p in sorted_points})
    rank = {y: i for i, y in enumerate(ys)}
    events: list[tuple[int, int, int, int, int]] = []
    for qi, (alpha, beta, ylo, yhi) in enumerate(queries):
        if alpha > beta:
            continue
        ylo_r, ystop = closed_rank_range(ys, ylo, yhi)
        if ylo_r >= ystop:
            continue
        events.append((beta, 1, ylo_r, ystop - 1, qi))
        if alpha > 0:
            events.append((alpha - 1, -1, ylo_r, ystop - 1, qi))
    events.sort(key=lambda e: e[0])
    out = [0] * len(queries)
    fen = _Fenwick(len(ys))
    ei = 0
    for t, p in enumerate(sorted_points):
        fen.add(rank[p[1]])
        while ei < len(events) and events[ei][0] == t:
            _, sign, ylo_r, yhi_r, qi = events[ei]
            val = fen.prefix(yhi_r) - (fen.prefix(ylo_r - 1) if ylo_r else 0)
            out[qi] += sign * val
            ei += 1
    # Events at t == -1 never occur (alpha > 0 guard); events beyond the last
    # point cannot exist since beta <= n-1.
    return out


def _slab_cuts(n: int, b: int) -> list[int]:
    return [(i * n) // b for i in range(b + 1)]


def _slab_of(cuts: list[int], rank: int) -> int:
    return bisect_right(cuts, rank) - 1


def _coverage(xs: list, lo, hi) -> tuple[int, int]:
    # The first and last rank in [lo, hi]; alpha > beta when none is.
    alpha, stop = closed_rank_range(xs, lo, hi)
    return alpha, stop - 1


def _entry(points: list[Point], ranges: list[Range], dim: int,
           kind: type, what: str) -> list[Coords]:
    """The points' coordinate tuples sorted by (x, index).

    This is the audits' one type and dimension check, since the recursion
    tests none: every range must be a ``kind``, and every range and point
    must have the audit's dimension ``dim``.
    """
    require_type(ranges, kind, what)
    require_dim(ranges, dim, "range")
    require_dim(points, dim, "point")
    # A stable sort by x keeps ties in index order.
    return sorted((p.coords for p in points), key=itemgetter(0))


def _count(coords: list[Coords], ranges: Sequence[Range]) -> int:
    """Incidences between the points and the ranges, by compiled predicate."""
    return sum(sum(map(predicate(r), coords)) for r in ranges)


# ---------------------------------------------------------------------------
# 2D rectangles

def rect_audit(points: list[Point], rects: list[Box], b: int,
               k: int) -> RecursionReport:
    """Slab recursion over 2D rectangles.

    Rectangles confined (rank-wise) to one slab recurse; the rest are
    3-sided or crossing within the slabs they meet and are counted exactly
    at the node by an offline sweep.
    """
    if b < 2:
        raise InvalidInputError("branching factor must be >= 2")
    coords = _entry(points, rects, 2, Box, "rect audit needs rectangles")
    return RecursionReport("rect", b, k, _rect_node(coords, rects, b, 0))


def _rect_node(pts: list[Coords], rects: list[Box], b: int,
               depth: int) -> SlabNode:
    """``pts`` are sorted by (x, index)."""
    n = len(pts)
    if n <= b or not rects:
        return SlabNode("leaf", depth, 2, n, len(rects),
                        charged=len(rects), attributed=_count(pts, rects))
    xs = [p[0] for p in pts]
    cuts = _slab_cuts(n, b)
    inside: list[list[Box]] = [[] for _ in range(b)]
    queries = []
    threesided = crossing = 0
    for r in rects:
        alpha, beta = _coverage(xs, r.lows[0], r.highs[0])
        if alpha > beta:
            continue
        sa, sb = _slab_of(cuts, alpha), _slab_of(cuts, beta)
        bounded_x = r.lows[0] is not None and r.highs[0] is not None
        if sa == sb and bounded_x:
            inside[sa].append(r)
        else:
            queries.append((alpha, beta, r.lows[1], r.highs[1]))
            if sb - sa >= 2:
                crossing += 1
            else:
                threesided += 1
    counts = _count_rank_y(pts, queries)
    node = SlabNode("split", depth, 2, n, len(rects),
                    charged=len(queries), attributed=sum(counts),
                    inside_counts=tuple(len(s) for s in inside),
                    threesided=threesided, crossing=crossing)
    for s in range(b):
        child_pts = pts[cuts[s]:cuts[s + 1]]
        node.children.append(_rect_node(child_pts, inside[s], b, depth + 1))
    return node


# ---------------------------------------------------------------------------
# d-dimensional boxes

def box_audit(points: list[Point], boxes: list[Box], b: int,
              k: int) -> RecursionReport:
    """Slab recursion over boxes in dimension >= 2.

    Boxes with a leading-axis endpoint inside a slab recurse there in full
    dimension; boxes cutting all the way across a slab drop one dimension
    (their leading constraint holds for every point of the slab) and are
    audited recursively, bottoming out at the 2D rectangle recursion.
    """
    if b < 2:
        raise InvalidInputError("branching factor must be >= 2")
    if not points and not boxes:
        return RecursionReport("box", b, k, SlabNode("leaf", 0, 0, 0, 0))
    d = boxes[0].dim if boxes else points[0].dim
    coords = _entry(points, boxes, d, Box, "box audit needs boxes")
    if d < 2:
        raise InvalidInputError("box audit needs dimension >= 2")
    return RecursionReport("box", b, k, _box_node(coords, boxes, b, 0, d))


def _box_node(coords: list[Coords], boxes: list[Box], b: int,
              depth: int, d: int) -> SlabNode:
    """``coords`` are sorted by (x, index) and have dimension d."""
    n = len(coords)
    if d == 2:
        node = _rect_node(coords, boxes, b, depth)
        node.kind = "rect-base" if node.kind == "split" else node.kind
        return node
    if n <= b or not boxes:
        return SlabNode("leaf", depth, d, n, len(boxes),
                        charged=len(boxes), attributed=_count(coords, boxes))
    xs = [c[0] for c in coords]
    cuts = _slab_cuts(n, b)
    inside: list[list[Box]] = [[] for _ in range(b)]
    long_per_slab: list[list[Box]] = [[] for _ in range(b)]
    vertices = 0
    for box in boxes:
        lows, highs = box.lows, box.highs
        alpha, beta = _coverage(xs, lows[0], highs[0])
        if alpha > beta:
            continue
        owners = set()
        if lows[0] is not None:
            owners.add(_slab_of(cuts, alpha))
            vertices += 1 << (d - 1)
        if highs[0] is not None:
            owners.add(_slab_of(cuts, beta))
            vertices += 1 << (d - 1)
        for s in owners:
            inside[s].append(box)
        proj = None
        for s in range(_slab_of(cuts, alpha), _slab_of(cuts, beta) + 1):
            if s in owners:
                continue
            # Slab s is covered in full: project out the leading axis.
            proj = proj or Box(lows[1:], highs[1:])
            long_per_slab[s].append(proj)
    node = SlabNode("split", depth, d, n, len(boxes),
                    charged=sum(len(g) for g in long_per_slab),
                    inside_counts=tuple(len(s) for s in inside),
                    vertices=vertices, child_vertices=vertices)
    for s in range(b):
        child_coords = coords[cuts[s]:cuts[s + 1]]
        child = _box_node(child_coords, inside[s], b, depth + 1, d)
        node.children.append(child)
        if long_per_slab[s]:
            stripped = sorted((c[1:] for c in child_coords),
                              key=itemgetter(0))
            proj_node = _box_node(stripped, long_per_slab[s], b, depth + 1,
                                  d - 1)
            proj_node.kind = "projected"
            node.children.append(proj_node)
    return node


# ---------------------------------------------------------------------------
# curtains (binary slab recursion; crossing curtains act as wedges per side)

def curtain_audit(points: list[Point], curtains: list[Curtain],
                  k: int) -> RecursionReport:
    """Binary slab recursion for curtains; exact totals.

    A curtain crossing the median boundary is counted at the node (inside a
    slab it constrains like a wedge); curtains confined to one half recurse.
    """
    pts = _entry(points, curtains, 2, Curtain, "curtain audit needs curtains")
    return RecursionReport("curtain", 2, k, _curtain_node(pts, curtains, 0))


def _curtain_node(pts: list[Coords], curtains: list[Curtain],
                  depth: int) -> SlabNode:
    """``pts`` are sorted by (x, index)."""
    n = len(pts)
    if n <= 4 or not curtains:
        return SlabNode("leaf", depth, 2, n, len(curtains),
                        charged=len(curtains),
                        attributed=_count(pts, curtains))
    xs = [p[0] for p in pts]
    mid = n // 2
    left: list[Curtain] = []
    right: list[Curtain] = []
    attributed = 0
    charged = 0
    for c in curtains:
        alpha, beta = _coverage(xs, c.lo, c.hi)
        if alpha > beta:
            continue
        if beta < mid and c.lo is not None and c.hi is not None:
            left.append(c)
        elif alpha >= mid and c.lo is not None and c.hi is not None:
            right.append(c)
        else:
            charged += 1
            attributed += _count(pts[alpha:beta + 1], (c,))
    node = SlabNode("split", depth, 2, n, len(curtains),
                    charged=charged, attributed=attributed,
                    inside_counts=(len(left), len(right)))
    node.children.append(_curtain_node(pts[:mid], left, depth + 1))
    node.children.append(_curtain_node(pts[mid:], right, depth + 1))
    return node
