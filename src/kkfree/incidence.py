"""Incidence graphs, the brute-force oracle, K_{k,k} detection, biclique
covers, and the 1D interval-bound audit."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, compress, repeat
from math import isqrt
from operator import add, and_, eq, ge, le, lt, mul
from typing import Sequence

from .dyadic import canonical_decomposition
from .errors import InvalidInputError, NotApplicableError, UnknownVerdictError
from .frozen import Frozen
from .geometry import (Box, Curtain, Halfspace, Line2, LinearHalfspace, Point,
                       Polyhedron, Range, Rat, Triangle, Wedge2, Wedge3,
                       _integer_form, closed_rank_range, linear_constraints,
                       linear_test, predicate, require_dim, require_type)
from .packed import PackedColumns, pack_columns

DEFAULT_NODE_BUDGET = 200_000


class IncidenceGraph:
    """Bipartite incidences of n points and m ranges, as one row per range.

    ``rows[j]`` is the strictly ascending list of the indices of the points
    in range j.  Its transpose ``columns`` (``columns[i]`` is the ascending
    list of the indices of the ranges holding point i, empty for a point in
    no range) and ``edges``, the ``(i, j)`` pairs, are derived from the rows
    on first use; ``points_in_range`` returns a row as a frozenset.
    """

    def __init__(self, n: int, m: int, rows: Sequence[list[int]]):
        rows = tuple(rows)
        if len(rows) != m:
            raise InvalidInputError(f"{len(rows)} rows for {m} ranges")
        for j, row in enumerate(rows):
            if row and not (0 <= row[0] and row[-1] < n
                            and all(map(lt, row, row[1:]))):
                raise InvalidInputError(
                    f"row {j} is not an ascending list of distinct point "
                    f"indices in [0, {n})")
        self.n = n
        self.m = m
        self.rows = rows

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.rows))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for j, row in enumerate(self.rows)
                         for i in row)

    @cached_property
    def columns(self) -> tuple[list[int], ...]:
        columns: list[list[int]] = [[] for _ in range(self.n)]
        for j, row in enumerate(self.rows):
            for i in row:
                columns[i].append(j)
        return tuple(columns)

    def points_in_range(self, j: int) -> frozenset[int]:
        return frozenset(self.rows[j])


def incidences_bruteforce(points: list[Point], ranges: list[Range]) -> IncidenceGraph:
    """The defining oracle: every (point, range) pair, decided exactly.

    Every point must have the first point's dimension, and every range,
    all checked before any range is decided; else ``DimensionMismatchError``.
    Each range gives its row, the ascending indices of its points, from
    ``_CandidateIndex.row``, which compiles it there, so one compiled
    range lives at a time.  A halfspace, linear halfspace, polyhedron or
    ``Wedge3`` is a conjunction of integer ``geometry.linear_constraints``;
    on integer points it is decided for every point at once by its packed
    row (``packed.PackedColumns``), with the point columns packed once per
    call.  On points with a ``Fraction`` coordinate, or when a pack would
    be far larger than the columns, its per-point test decides each point.
    A box, curtain, ``Wedge2``, triangle or ball uses the points sorted by
    coordinate 0: ``geometry.closed_rank_range`` bisects to the slice of
    points whose coordinate 0 lies in its x-extent, which settles that
    coordinate and drops only pairs that cannot be edges.  Over the slice,
    a box compares each other bounded side with its coordinate column, and
    a curtain or ``Wedge2`` tests ``L y <= A x + B`` on the x and y
    columns, with ``(L, A, B)`` cleared to integers by
    ``geometry._integer_form``; both are chained ``map`` calls over the
    slice's columns, with no Python loop per point.  A triangle or ball
    tests each point of its slice with its compiled predicate.  A 2D line
    looks up ``a x + b`` in each distinct x's column, the points at that x
    keyed by y, and compiles no predicate.
    """
    if points:
        require_dim(points, points[0].dim, "point")
        require_dim(ranges, points[0].dim, "range")
    index = _CandidateIndex([p.coords for p in points])
    rows = list(map(index.row, ranges))
    return IncidenceGraph(len(points), len(ranges), rows)


class _CandidateIndex:
    """Point indices sorted by coordinate 0, and the coordinate tuples and
    columns in that order; the packed columns and the line lookup are made
    on first use."""

    def __init__(self, coords: list[tuple]):
        self.coords = coords
        self.by_x = sorted(range(len(coords)), key=lambda i: coords[i][0])
        self.sorted_coords = list(map(coords.__getitem__, self.by_x))
        self.columns = list(zip(*self.sorted_coords))
        self.xs = self.columns[0] if coords else ()

    def row(self, r: Range) -> list[int]:
        """The ascending indices of the points in r, a range of the points'
        dimension; ``InvalidInputError`` when r is of no range type."""
        if isinstance(r, (Halfspace, LinearHalfspace, Polyhedron, Wedge3)):
            constraints = linear_constraints(r)
            hits = None if self.packed is None else self.packed.hits(
                constraints)
            if hits is None:
                test = linear_test(constraints)
                hits = list(compress(range(len(self.coords)),
                                     map(test, self.coords)))
            return hits
        if isinstance(r, Box):
            return self._box(r)
        if isinstance(r, Curtain):
            return self._curtain(r, r.lo, r.hi)
        if isinstance(r, Wedge2):
            return self._curtain(r, None, r.c)
        if isinstance(r, Line2):
            # The points of column x at y = a x + b are on the line.
            a, b = r.a, r.b
            hits: list[int] = []
            for x, column in self.lookup:
                y = a * x + b
                if y in column:
                    hits += column[y]
            return sorted(hits)
        test = predicate(r)
        if isinstance(r, Triangle):
            xs = [v[0] for v in r.vertices]
            return self._scan(test, min(xs), max(xs))
        # r is a Ball, the one type left: sqrt(p/q) = sqrt(p q)/q <
        # (isqrt(p q) + 1)/q bounds its radius.
        rsq = Fraction(r.radius_sq)
        reach = Fraction(isqrt(rsq.numerator * rsq.denominator) + 1,
                         rsq.denominator)
        x = r.center[0]
        return self._scan(test, x - reach, x + reach)

    @cached_property
    def packed(self) -> PackedColumns | None:
        return pack_columns(self.coords)

    @cached_property
    def lookup(self) -> list[tuple[Rat, dict[Rat, list[int]]]]:
        # Each distinct x with its column: y -> the ascending indices of
        # the points at (x, y).
        columns: dict[Rat, dict[Rat, list[int]]] = {}
        for i, (x, y) in enumerate(self.coords):
            columns.setdefault(x, {}).setdefault(y, []).append(i)
        return list(columns.items())

    def _scan(self, test, lo, hi) -> list[int]:
        start, stop = closed_rank_range(self.xs, lo, hi)
        return sorted(compress(self.by_x[start:stop], map(
            test, self.sorted_coords[start:stop])))

    def _box(self, r: Box) -> list[int]:
        start, stop = closed_rank_range(self.xs, r.lows[0], r.highs[0])
        keep = None
        for col, lo, hi in zip(self.columns[1:], r.lows[1:], r.highs[1:]):
            for bound, op in ((lo, le), (hi, ge)):
                if bound is not None:
                    side = map(op, repeat(bound), col[start:stop])
                    keep = side if keep is None else map(and_, keep, side)
        cand = self.by_x[start:stop]
        return sorted(cand if keep is None else compress(cand, keep))

    def _curtain(self, r: Curtain | Wedge2, lo, hi) -> list[int]:
        # y <= a x + b cleared to L y <= A x + B, with L >= 1.
        scale, a, b = _integer_form((1, r.a, r.b))
        start, stop = closed_rank_range(self.xs, lo, hi)
        if start == stop:  # also when there are no points, nor columns
            return []
        xs, ys = (col[start:stop] for col in self.columns)
        if scale != 1:
            ys = map(mul, repeat(scale), ys)
        below = map(le, ys, map(add, map(mul, repeat(a), xs), repeat(b)))
        return sorted(compress(self.by_x[start:stop], below))


def require_free(graph: IncidenceGraph, k: int,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> None:
    """Return only when the K_{k,k} search says ``graph`` is free.

    Raises NotApplicableError with the witness when a K_{k,k} is found, and
    UnknownVerdictError when the search budget runs out.
    """
    verdict = find_kkk(graph, k, node_budget)
    if verdict.found:
        raise NotApplicableError(
            f"K_{{{k},{k}}} witness: points={list(verdict.points)} "
            f"ranges={list(verdict.ranges)}",
            witness=(verdict.points, verdict.ranges))
    if verdict.status == "unknown":
        raise UnknownVerdictError("biclique search budget exhausted")


# ---------------------------------------------------------------------------
# K_{k,k} detection

class KkkResult(Frozen):
    """Outcome of a biclique search.

    ``status`` is "found" (witness attached), "free" (proven absent), or
    "unknown" (search budget exhausted; never treated as absence).
    """

    __slots__ = ("status", "points", "ranges", "nodes")

    def __init__(self, status: str, points: tuple[int, ...] = (),
                 ranges: tuple[int, ...] = (), nodes: int = 0):
        Frozen.__init__(self, status, points, ranges, nodes)

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def free(self) -> bool:
        return self.status == "free"


def find_kkk(graph: IncidenceGraph, k: int,
             node_budget: int = DEFAULT_NODE_BUDGET) -> KkkResult:
    """Search for k points all contained in k common ranges.

    k = 1 is decided directly.  For k >= 2 the graph is first peeled to its
    (k,k)-core, which holds every K_{k,k}; a depth-first search then picks
    core ranges in ``(len(P_j), j)`` order, keeping the running intersection
    of their point sets.  A node's children are the later ranges sharing at
    least k points with that intersection, found by counting co-occurrences
    over the ranges of its points; each child entered is one node.  The
    witness is the first k-set of ranges in that order with k common points,
    and its k smallest common points.  k = 2 always decides: ``_k22_free``
    first marks the index pairs of the cheaper side, and when no pair
    repeats the graph is "free" with no search node entered (``nodes`` is
    0); only a graph holding a K_{2,2} is searched, for its witness.  For
    k >= 3 more than ``node_budget`` nodes give "unknown".  The search
    keeps its own stack of frames, so k is not bounded by Python's
    recursion limit.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if node_budget < 0:
        raise InvalidInputError("node budget must be >= 0")
    if graph.m < k or graph.n < k:
        return KkkResult("free")
    if k == 1:
        firsts = [(row[0], j) for j, row in enumerate(graph.rows) if row]
        if firsts:
            i, j = min(firsts)
            return KkkResult("found", (i,), (j,))
        return KkkResult("free")
    if k == 2 and _k22_free(graph):
        return KkkResult("free")

    order, core, live_points, ranges_of = _kk_core(graph, k)
    nodes = 0
    # A frame: the chosen positions in order, the core points common to
    # them (None before the first pick), its children and the next index.
    stack = [([], None, core, 0)]
    while stack:
        chosen, inter, children, idx = stack.pop()
        if len(children) - idx < k - len(chosen):
            continue
        stack.append((chosen, inter, children, idx + 1))
        q = children[idx]
        nodes += 1
        if k > 2 and nodes > node_budget:
            return KkkResult("unknown", nodes=nodes)
        new = live_points[q] if inter is None else inter & live_points[q]
        chosen = chosen + [q]
        if len(chosen) == k:
            return KkkResult("found", tuple(sorted(new)[:k]),
                             tuple(map(order.__getitem__, chosen)), nodes)
        shared = Counter(chain.from_iterable(
            ranges_of[i][bisect_right(ranges_of[i], q):] for i in new))
        stack.append((chosen, new,
                      sorted(c for c, t in shared.items() if t >= k), 0))
    return KkkResult("free", nodes=nodes)


def _k22_free(graph: IncidenceGraph) -> bool:
    """True iff no two ranges share two points, decided by pair marking.

    Walks the side with the smaller sum of C(degree, 2): the ``rows``, also
    on a tie, or the graph's cached ``columns``.  Each list's index pairs
    (i, j) are marked in one set as ``i * width + j``, width being the size
    of the other side, and a pair marked twice is a K_{2,2}.  The set never
    holds more than min(sum C(degree, 2), C(width, 2)) keys, so no budget
    is needed.
    """
    rows, columns = graph.rows, graph.columns
    lists, width = rows, graph.n
    if (sum(d * (d - 1) for d in map(len, columns))
            < sum(d * (d - 1) for d in map(len, rows))):
        lists, width = columns, graph.m
    seen: set[int] = set()
    for lst in lists:
        if len(lst) < 2:  # no pair: skip building an empty key list
            continue
        keys = [i * width + j for i, j in combinations(lst, 2)]
        size = len(seen)
        seen.update(keys)
        if len(seen) < size + len(keys):
            return False
    return True


def _kk_core(graph: IncidenceGraph, k: int):
    """Peel ``graph`` to its (k,k)-core in O(|E|).

    The ranges holding at least k points are put in ``(len(P_j), j)``
    order; the peel then repeatedly drops points in fewer than k live
    ranges and ranges holding fewer than k live points.  Returns that
    order, the ascending positions of the core ranges in it, each core
    range's set of core points (by position; ``None`` for a dropped range)
    and each point's ascending range positions.  A dropped range shares
    fewer than k points with the core, so it never counts as a child.
    """
    rows = graph.rows
    order = sorted((j for j in range(graph.m) if len(rows[j]) >= k),
                   key=lambda j: (len(rows[j]), j))
    range_points = [rows[j] for j in order]
    ranges_of: list[list[int]] = [[] for _ in range(graph.n)]
    for q, pts in enumerate(range_points):
        for i in pts:
            ranges_of[i].append(q)
    range_deg = [len(pts) for pts in range_points]
    point_deg = [len(qs) for qs in ranges_of]
    range_alive = [True] * len(order)
    point_alive = [d >= k for d in point_deg]
    dead_points = [i for i, a in enumerate(point_alive) if not a]
    dead_ranges: list[int] = []
    while dead_points or dead_ranges:
        for dead, neighbours, alive, deg, newly_dead in (
                (dead_points, ranges_of, range_alive, range_deg, dead_ranges),
                (dead_ranges, range_points, point_alive, point_deg,
                 dead_points)):
            while dead:
                for x in neighbours[dead.pop()]:
                    if alive[x]:
                        deg[x] -= 1
                        if deg[x] < k:
                            alive[x] = False
                            newly_dead.append(x)
    core = [q for q, a in enumerate(range_alive) if a]
    live_points: list[frozenset[int] | None] = [None] * len(order)
    for q in core:
        pts = range_points[q]
        if range_deg[q] < len(pts):
            pts = compress(pts, map(point_alive.__getitem__, pts))
        live_points[q] = frozenset(pts)
    return order, core, live_points, ranges_of


# ---------------------------------------------------------------------------
# biclique covers

class BicliqueCover(Frozen):
    """Pairs (A_i, B_i) of point/range index sets whose products cover an edge set."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]):
        for a, b in pairs:
            if not a or not b:
                raise InvalidInputError("empty side in a cover pair")
        Frozen.__init__(self, pairs)

    def size(self) -> int:
        """Sum of |A_i| + |B_i| over all pairs."""
        return sum(len(a) + len(b) for a, b in self.pairs)


def verify_cover(cover: BicliqueCover, graph: IncidenceGraph) -> bool:
    """True iff the union of products equals the edge set exactly."""
    covered: list[set[int]] = [set() for _ in range(graph.m)]
    for a, b in cover.pairs:
        if (any(not 0 <= i < graph.n for i in a)
                or any(not 0 <= j < graph.m for j in b)):
            raise InvalidInputError("cover index out of bounds")
        for j in b:
            covered[j].update(a)
    return all(map(eq, map(sorted, covered), map(list, graph.rows)))


class CoverBound(Frozen):
    """Either a certified upper bound on the incidence count, or an embedded
    complete pair of size >= k found inside the cover."""

    __slots__ = ("certified", "bound", "witness_points", "witness_ranges")

    def __init__(self, certified: bool, bound: int | None = None,
                 witness_points: tuple[int, ...] = (),
                 witness_ranges: tuple[int, ...] = ()):
        Frozen.__init__(self, certified, bound, witness_points,
                        witness_ranges)


def cover_bound(cover: BicliqueCover, k: int) -> CoverBound:
    """Certify sum_i k(|A_i|+|B_i|) when every pair has min side < k.

    A pair with both sides >= k is itself an embedded K_{k,k} and is returned
    as a witness instead of a bound.
    """
    total = 0
    for a, b in cover.pairs:
        if min(len(a), len(b)) >= k:
            return CoverBound(False,
                              witness_points=tuple(sorted(a)[:k]),
                              witness_ranges=tuple(sorted(b)[:k]))
        total += k * (len(a) + len(b))
    return CoverBound(True, bound=total)


# ---------------------------------------------------------------------------
# rank-space box cover (range-tree style canonical subsets)

class CoverLevelStats(Frozen):
    """Per axis (``depth``): sums of class point and box counts."""

    __slots__ = ("depth", "point_total", "box_total", "classes")


class BoxCoverBuild(Frozen):
    """A ``BicliqueCover`` and its ``CoverLevelStats``, one per axis."""

    __slots__ = ("cover", "levels")


def build_box_cover(points: list[Point], boxes: list[Box]) -> BoxCoverBuild:
    """Dyadic decomposition of a point/box incidence graph, axis by axis.

    Points are sorted by the leading axis; each box's contiguous rank range
    decomposes into canonical dyadic classes; each class is a subproblem on
    the next axis, taken depth first from a work list, so d is not bounded
    by Python's recursion limit.  On the last axis each class is a complete
    biclique and is emitted directly.
    """
    require_type(boxes, Box, "cover construction needs boxes")
    # The points and boxes share the first point's dimension, else the
    # first box's.
    d = points[0].dim if points else boxes[0].dim if boxes else 0
    require_dim(points, d, "point")
    require_dim(boxes, d, "range")
    if not points or not boxes:
        return BoxCoverBuild(BicliqueCover(()), ())
    pairs: list[tuple[frozenset[int], frozenset[int]]] = []
    level_acc: dict[int, list[int]] = {}
    # Each subproblem's classes are pushed in reverse (rank, s) order, so
    # they are taken, and their pairs emitted, in that order.
    work = [(list(range(len(points))), list(range(len(boxes))), 0)]
    while work:
        pt_idx, bx_idx, axis = work.pop()
        n = len(pt_idx)
        order = sorted(pt_idx, key=lambda i: (points[i][axis], i))
        xs = [points[i][axis] for i in order]
        classes: dict = {}
        for j in bx_idx:
            alpha, stop = closed_rank_range(
                xs, boxes[j].lows[axis], boxes[j].highs[axis])
            if alpha >= stop:
                continue
            for rng in canonical_decomposition(alpha, stop - 1, n):
                classes.setdefault(rng, []).append(j)
        stats = level_acc.setdefault(axis, [0, 0, 0])
        subproblems = []
        for (rank, s), class_boxes in sorted(classes.items()):
            class_points = order[s << rank:min((s + 1) << rank, n)]
            if not class_points:
                continue  # dyadic range entirely in the padding
            stats[0] += len(class_points)
            stats[1] += len(class_boxes)
            stats[2] += 1
            if axis == d - 1:
                pairs.append((frozenset(class_points), frozenset(class_boxes)))
            else:
                subproblems.append((class_points, class_boxes, axis + 1))
        work += reversed(subproblems)
    levels = tuple(CoverLevelStats(depth, s[0], s[1], s[2])
                   for depth, s in sorted(level_acc.items()))
    return BoxCoverBuild(BicliqueCover(tuple(pairs)), levels)


# ---------------------------------------------------------------------------
# 1D interval audit

class IntervalBlockRow(Frozen):
    """Ledger row for one block of k consecutive points.

    ``containing`` counts the intervals covering the whole block hull;
    ``boundary`` (e_i) those that hold a point of the block and do not cover
    its hull, each of which has an endpoint in the hull.
    """

    __slots__ = ("block", "size", "containing", "boundary", "incidences")


class IntervalAuditReport(Frozen):
    """``last_block_term`` is |P_N| * m, reported separately (the
    closed-form bound absorbs it loosely); ``bound`` is k*n + 3*k*m."""

    __slots__ = ("n", "m", "k", "blocks", "incidences", "last_block_term",
                 "bound", "holds")


def interval_audit(points: list[Point], intervals: list[Box], k: int,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> IntervalAuditReport:
    """Audit the 1D incidence bound I <= k*n + 3*k*m block by block.

    Points are split in sorted order into blocks of k; for each block the
    report counts intervals fully covering the block hull and the other
    intervals meeting the block, each with an endpoint inside the hull.
    Requires the graph to be K_{k,k}-free.
    """
    require_type(intervals, Box, "interval audit needs intervals")
    require_dim(intervals, 1, "range")
    require_dim(points, 1, "point")
    graph = incidences_bruteforce(points, intervals)
    require_free(graph, k, node_budget)

    n, m = len(points), len(intervals)
    order = sorted(range(n), key=lambda i: (points[i][0], i))
    rows = []
    total = 0
    last_term = 0
    nblocks = (n + k - 1) // k if n else 0
    for bi in range(nblocks):
        idxs = order[bi * k:(bi + 1) * k]
        lo = points[idxs[0]][0]
        hi = points[idxs[-1]][0]
        # Only intervals holding a point of the block meet it, and one that
        # meets it without covering its hull has an endpoint in the hull.
        meeting = Counter(j for i in idxs for j in graph.columns[i])
        containing = 0
        for j in meeting:
            blo, bhi = intervals[j].lows[0], intervals[j].highs[0]
            containing += ((blo is None or blo <= lo)
                           and (bhi is None or bhi >= hi))
        boundary = len(meeting) - containing
        inc = sum(meeting.values())
        rows.append(IntervalBlockRow(bi, len(idxs), containing, boundary, inc))
        total += inc
        if bi == nblocks - 1:
            last_term = len(idxs) * m
    bound = k * n + 3 * k * m
    return IntervalAuditReport(n, m, k, tuple(rows), total, last_term,
                               bound, total <= bound)

