"""Incidence graphs, the brute-force oracle, K_{k,k} detection, biclique
covers, and the 1D interval-bound audit."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from math import isqrt
from operator import add, and_, eq, ge, le, lt, mul
from typing import Sequence

from .dyadic import canonical_decomposition
from .errors import (DimensionMismatchError, InvalidInputError,
                     NotApplicableError, UnknownVerdictError)
from .geometry import (Ball, Box, Curtain, Halfspace, LinearHalfspace, Point,
                       Polyhedron, Range, Triangle, Wedge2, Wedge3,
                       _integer_form, linear_constraints, linear_test,
                       predicate)
from .packed import PackedColumns, pack_columns

DEFAULT_NODE_BUDGET = 200_000


@dataclass
class IncidenceGraph:
    """Bipartite incidences of n points and m ranges, as one row per range.

    ``rows[j]`` is the strictly ascending list of the indices of the points
    in range j.  Its transpose ``columns`` (``columns[i]`` is the ascending
    list of the indices of the ranges holding point i, empty for a point in
    no range) and ``edges``, the ``(i, j)`` pairs, are derived from the rows
    on first use; ``points_in_range`` returns a row as a frozenset.
    """

    n: int
    m: int
    rows: Sequence[list[int]]

    def __post_init__(self):
        self.rows = tuple(self.rows)
        if len(self.rows) != self.m:
            raise InvalidInputError(
                f"{len(self.rows)} rows for {self.m} ranges")
        for j, row in enumerate(self.rows):
            if row and not (0 <= row[0] and row[-1] < self.n
                            and all(map(lt, row, row[1:]))):
                raise InvalidInputError(
                    f"row {j} is not an ascending list of distinct point "
                    f"indices in [0, {self.n})")

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
    checked before it is decided; else ``DimensionMismatchError``.  Each
    range gives its row, the ascending indices of its points, from
    ``_CandidateIndex.row``, which compiles it there, so one compiled
    range lives at a time.  A halfspace, linear halfspace, polyhedron or
    ``Wedge3`` is a conjunction of integer ``geometry.linear_constraints``;
    on integer points it is decided for every point at once by its packed
    row (``packed.PackedColumns``), with the point columns packed once per
    call.  On points with a ``Fraction`` coordinate, or when a pack would
    be far larger than the columns, its per-point test decides each point.
    Every other range uses the points sorted by coordinate 0, which drops
    only pairs that cannot be edges: a box, curtain, ``Wedge2``, triangle
    or ball bisects to the slice of points whose coordinate 0 lies in its
    x-extent, which settles that coordinate.  Over the slice, a box compares each other bounded side
    with its coordinate column, and a curtain or ``Wedge2`` tests
    ``L y <= A x + B`` on the x and y columns, with ``(L, A, B)`` cleared
    to integers by ``geometry._integer_form``; both are chained ``map``
    calls over the slice's columns, with no Python loop per point.  A
    triangle or ball tests each point of its slice with its compiled
    predicate.  A 2D line tests the points at ``(x, a x + b)`` for each
    distinct x, when there are fewer distinct x than points, else every
    point.
    """
    d = points[0].dim if points else None
    for idx, p in enumerate(points):
        if p.dim != d:
            raise DimensionMismatchError(
                f"point {idx} has dimension {p.dim}, first point has {d}")
    index = _CandidateIndex([p.coords for p in points])
    rows = []
    for idx, r in enumerate(ranges):
        # An object with no dimension is no range; row rejects its type.
        if d is not None and getattr(r, "dim", d) != d:
            raise DimensionMismatchError(
                f"range {idx} has dimension {r.dim}, first point has {d}")
        rows.append(index.row(r))
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
                hits = self._all(linear_test(constraints))
            return hits
        if isinstance(r, Box):
            return self._box(r)
        if isinstance(r, Curtain):
            return self._curtain(r, r.lo, r.hi)
        if isinstance(r, Wedge2):
            return self._curtain(r, None, r.c)
        test = predicate(r)
        if isinstance(r, Triangle):
            xs = [v[0] for v in r.vertices]
            return self._scan(test, min(xs), max(xs))
        if isinstance(r, Ball):
            # sqrt(p/q) = sqrt(p q)/q < (isqrt(p q) + 1)/q bounds the radius.
            rsq = Fraction(r.radius_sq)
            reach = Fraction(isqrt(rsq.numerator * rsq.denominator) + 1,
                             rsq.denominator)
            x = r.center[0]
            return self._scan(test, x - reach, x + reach)
        # r is a Line2, the one type left.
        distinct, at = self.lookup
        if not at:
            return self._all(test)
        a, b = r.a, r.b
        cand = [i for x in distinct for i in at.get((x, a * x + b), ())]
        return sorted(compress(cand, map(
            test, map(self.coords.__getitem__, cand))))

    @cached_property
    def packed(self) -> PackedColumns | None:
        return pack_columns(self.coords)

    @cached_property
    def lookup(self) -> tuple[list, dict[tuple, list[int]]]:
        # The distinct x values, and each point's indices by coordinates;
        # the map stays empty when no x repeats.
        distinct = list(dict.fromkeys(self.xs))
        at: dict[tuple, list[int]] = {}
        if len(distinct) < len(self.xs):
            for i, c in enumerate(self.coords):
                at.setdefault(c, []).append(i)
        return distinct, at

    def _all(self, test) -> list[int]:
        return list(compress(range(len(self.coords)), map(test, self.coords)))

    def _slice(self, lo, hi) -> tuple[int, int]:
        # [start, stop) holds exactly the points with lo <= x <= hi.
        start = 0 if lo is None else bisect_left(self.xs, lo)
        stop = len(self.xs) if hi is None else bisect_right(self.xs, hi)
        return start, stop

    def _scan(self, test, lo, hi) -> list[int]:
        start, stop = self._slice(lo, hi)
        return sorted(compress(self.by_x[start:stop], map(
            test, self.sorted_coords[start:stop])))

    def _box(self, r: Box) -> list[int]:
        start, stop = self._slice(r.lows[0], r.highs[0])
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
        start, stop = self._slice(lo, hi)
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
        raise NotApplicableError("graph contains K_{k,k}",
                                 witness=(verdict.points, verdict.ranges))
    if verdict.status == "unknown":
        raise UnknownVerdictError("K_{k,k} search budget exhausted")


# ---------------------------------------------------------------------------
# K_{k,k} detection

@dataclass(frozen=True)
class KkkResult:
    """Outcome of a biclique search.

    ``status`` is "found" (witness attached), "free" (proven absent), or
    "unknown" (search budget exhausted; never treated as absence).
    """

    status: str
    points: tuple[int, ...] = ()
    ranges: tuple[int, ...] = ()
    nodes: int = 0

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
    and its k smallest common points.  k = 2 always decides; for k >= 3 more
    than ``node_budget`` nodes give "unknown".
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

    order, core, live_points, ranges_of = _kk_core(graph, k)
    nodes = 0

    def search(chosen: list[int], inter: frozenset[int], children):
        # chosen and children are positions in order; inter is the set of
        # core points common to the chosen ranges.
        nonlocal nodes
        need = k - len(chosen)
        for idx, q in enumerate(children):
            if len(children) - idx < need:
                break
            nodes += 1
            if k > 2 and nodes > node_budget:
                raise _BudgetExhausted
            new = inter & live_points[q] if chosen else live_points[q]
            if need == 1:
                return (tuple(sorted(new)[:k]),
                        tuple(order[c] for c in chosen) + (order[q],))
            shared = Counter(chain.from_iterable(
                ranges_of[i][bisect_right(ranges_of[i], q):] for i in new))
            hit = search(chosen + [q], new,
                         sorted(c for c, t in shared.items() if t >= k))
            if hit is not None:
                return hit
        return None

    try:
        hit = search([], frozenset(), core)
    except _BudgetExhausted:
        return KkkResult("unknown", nodes=nodes)
    finally:
        # search refers to itself through its closure cell; clearing the
        # cell frees the search's data now instead of at the next gc pass.
        del search
    if hit is None:
        return KkkResult("free", nodes=nodes)
    return KkkResult("found", hit[0], hit[1], nodes=nodes)


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


class _BudgetExhausted(Exception):
    pass


# ---------------------------------------------------------------------------
# biclique covers

@dataclass(frozen=True)
class BicliqueCover:
    """Pairs (A_i, B_i) of point/range index sets whose products cover an edge set."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self):
        for a, b in self.pairs:
            if not a or not b:
                raise InvalidInputError("empty side in a cover pair")

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


@dataclass(frozen=True)
class CoverBound:
    """Either a certified upper bound on the incidence count, or an embedded
    complete pair of size >= k found inside the cover."""

    certified: bool
    bound: int | None = None
    witness_points: tuple[int, ...] = ()
    witness_ranges: tuple[int, ...] = ()


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

@dataclass(frozen=True)
class CoverLevelStats:
    """Per recursion depth: sums of class point and box counts."""

    depth: int
    point_total: int
    box_total: int
    classes: int


@dataclass(frozen=True)
class BoxCoverBuild:
    cover: BicliqueCover
    levels: tuple[CoverLevelStats, ...]


def build_box_cover(points: list[Point], boxes: list[Box]) -> BoxCoverBuild:
    """Recursive dyadic decomposition of a point/box incidence graph.

    Points are sorted by the leading axis; each box's contiguous rank range
    decomposes into canonical dyadic classes; classes recurse on the
    remaining axes.  At dimension one each class is a complete biclique and
    is emitted directly.
    """
    if not all(isinstance(b, Box) for b in boxes):
        raise InvalidInputError("cover construction needs boxes")
    if not points:
        return BoxCoverBuild(BicliqueCover(()), ())
    d = points[0].dim
    if any(b.dim != d for b in boxes):
        raise InvalidInputError("box dimension mismatch")
    pairs: list[tuple[frozenset[int], frozenset[int]]] = []
    level_acc: dict[int, list[int]] = {}

    def recurse(pt_idx: list[int], bx_idx: list[int], axis: int, depth: int):
        if not pt_idx or not bx_idx:
            return
        n = len(pt_idx)
        order = sorted(pt_idx, key=lambda i: (points[i][axis], i))
        xs = [points[i][axis] for i in order]
        classes: dict = {}
        for j in bx_idx:
            lo, hi = boxes[j].lows[axis], boxes[j].highs[axis]
            alpha = 0 if lo is None else bisect_left(xs, lo)
            beta = (n - 1) if hi is None else bisect_right(xs, hi) - 1
            if alpha > beta:
                continue
            for rng in canonical_decomposition(alpha, beta, n):
                classes.setdefault(rng, []).append(j)
        stats = level_acc.setdefault(depth, [0, 0, 0])
        for rng, class_boxes in sorted(classes.items()):
            class_points = order[rng.lo:min(rng.hi + 1, n)]
            if not class_points:
                continue  # dyadic range entirely in the padding
            stats[0] += len(class_points)
            stats[1] += len(class_boxes)
            stats[2] += 1
            if axis == d - 1:
                pairs.append((frozenset(class_points), frozenset(class_boxes)))
            else:
                recurse(class_points, class_boxes, axis + 1, depth + 1)

    recurse(list(range(len(points))), list(range(len(boxes))), 0, 0)
    levels = tuple(CoverLevelStats(depth, s[0], s[1], s[2])
                   for depth, s in sorted(level_acc.items()))
    return BoxCoverBuild(BicliqueCover(tuple(pairs)), levels)


# ---------------------------------------------------------------------------
# 1D interval audit

@dataclass(frozen=True)
class IntervalBlockRow:
    """Ledger row for one block of k consecutive points."""

    block: int
    size: int
    containing: int   # intervals covering the whole block hull
    boundary: int     # e_i: an endpoint in the hull, hull not fully covered
    incidences: int


@dataclass(frozen=True)
class IntervalAuditReport:
    n: int
    m: int
    k: int
    blocks: tuple[IntervalBlockRow, ...]
    incidences: int
    last_block_term: int   # |P_N| * m, reported separately (it is absorbed
                           # loosely by the closed-form bound)
    bound: int             # k*n + 3*k*m
    holds: bool


def interval_audit(points: list[Point], intervals: list[Box], k: int,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> IntervalAuditReport:
    """Audit the 1D incidence bound I <= k*n + 3*k*m block by block.

    Points are split in sorted order into blocks of k; for each block the
    report counts intervals fully covering the block hull and intervals with
    an endpoint inside it.  Requires the graph to be K_{k,k}-free.
    """
    if any(not isinstance(b, Box) for b in intervals):
        raise InvalidInputError("interval audit needs intervals (1D boxes)")
    if any(p.dim != 1 for p in points) or any(b.dim != 1 for b in intervals):
        raise InvalidInputError("interval audit is one-dimensional")
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
        containing = boundary = inc = 0
        # Only intervals holding a point of the block meet it.
        meeting = Counter(j for i in idxs for j in graph.columns[i])
        for j, block_inc in meeting.items():
            blo, bhi = intervals[j].lows[0], intervals[j].highs[0]
            inc += block_inc
            covers = ((blo is None or blo <= lo)
                      and (bhi is None or bhi >= hi))
            endpoint_in = ((blo is not None and lo <= blo <= hi)
                           or (bhi is not None and lo <= bhi <= hi))
            if covers:
                containing += 1
            elif endpoint_in:
                boundary += 1
        rows.append(IntervalBlockRow(bi, len(idxs), containing, boundary, inc))
        total += inc
        if bi == nblocks - 1:
            last_term = len(idxs) * m
    bound = k * n + 3 * k * m
    return IntervalAuditReport(n, m, k, tuple(rows), total, last_term,
                               bound, total <= bound)


# ---------------------------------------------------------------------------
# shatter traces

@dataclass(frozen=True)
class ShatterCount:
    traces: int
    heavy: int | None = None  # ranges containing more than k points


def shatter_trace_count(points: list[Point], ranges: list[Range],
                        k: int | None = None) -> ShatterCount:
    """Count distinct traces {P ∩ f : f in F}; with k, also the number of
    ranges containing more than k points."""
    rows = incidences_bruteforce(points, ranges).rows
    heavy = None if k is None else sum(len(row) > k for row in rows)
    return ShatterCount(len(set(map(tuple, rows))), heavy)
