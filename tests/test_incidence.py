import gc
import hashlib
import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkfree import generators as gens
from kkfree.errors import (DimensionMismatchError, InvalidInputError,
                           NotApplicableError)
from kkfree.extremal import elekes_grid
from kkfree.geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                             LinearHalfspace, Point, Polyhedron, Triangle,
                             Wedge2, Wedge3, pt)
from kkfree.incidence import (DEFAULT_NODE_BUDGET, BicliqueCover,
                              IncidenceGraph, KkkResult, build_box_cover,
                              cover_bound, find_kkk, incidences_bruteforce,
                              interval_audit, verify_cover)

from conftest import (box2, brute_edges, cover_edges, interval,
                      make_kkk_free)


def test_oracle_single_edge():
    g = incidences_bruteforce([pt(0, 0)], [box2(-1, 1, -1, 1)])
    assert g.edges == {(0, 0)}


def test_oracle_disjoint_regions():
    g = incidences_bruteforce([pt(10, 10)], [box2(-1, 1, -1, 1)])
    assert g.edge_count == 0


# ---------------------------------------------------------------------------
# oracle rows: boxes, curtains and Wedge2 decided by column scans

# Few distinct values, so points share x and lie on the ranges' sides.
coordinate = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3,
                                    max_denominator=3))
# Range constants reach past the points, so some slices are empty.
constant = st.one_of(st.integers(-5, 5),
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=4))


def _points(data, d):
    return data.draw(st.lists(st.tuples(*[coordinate] * d).map(Point),
                              min_size=1, max_size=14))


def _bound(data, values):
    """None (an open side), one of ``values`` (a point on the side), or a
    constant."""
    return data.draw(st.one_of(st.none(), st.sampled_from(values), constant))


def _assert_rows_match_reference(points, ranges):
    graph = incidences_bruteforce(points, ranges)
    assert all(row == sorted(set(row)) for row in graph.rows)
    assert graph.edges == brute_edges(points, ranges), (points, ranges)


@given(st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_box_rows_match_reference(d, data):
    points = _points(data, d)
    boxes = []
    for _ in range(data.draw(st.integers(1, 6))):
        sides = []
        for axis in range(d):
            values = [p[axis] for p in points]
            lo, hi = _bound(data, values), _bound(data, values)
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            sides.append((lo, hi))
        boxes.append(Box(*zip(*sides)))
    _assert_rows_match_reference(points, boxes)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_curtain_and_wedge2_rows_match_reference(data):
    points = _points(data, 2)
    xs = [p[0] for p in points]
    ranges = []
    for _ in range(data.draw(st.integers(1, 6))):
        # A boundary line through a drawn point, or anywhere.
        q = data.draw(st.sampled_from(points))
        a = data.draw(constant)
        b = data.draw(st.sampled_from([q[1] - a * q[0], data.draw(constant)]))
        lo, hi = _bound(data, xs), _bound(data, xs)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        ranges.append(Curtain(a, b, lo, hi))
        ranges.append(Wedge2(a, b, data.draw(st.one_of(st.sampled_from(xs),
                                                       constant))))
    _assert_rows_match_reference(points, ranges)


# ---------------------------------------------------------------------------
# oracle rows: 2D lines by a lookup in each distinct x's column

def _lines_through(data, points, slopes):
    """A line of each slope, through a drawn point or at a drawn offset."""
    lines = []
    for a in slopes:
        q = data.draw(st.sampled_from(points))
        lines.append(Line2(a, data.draw(st.sampled_from(
            [q[1] - a * q[0], data.draw(constant)]))))
    return lines


@pytest.mark.parametrize("kind", ["distinct-x", "few-columns", "fractions",
                                  "duplicates"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_line_rows_match_reference(kind, data):
    if kind == "distinct-x":
        # Points on a parabola, so no x repeats, and the line through each
        # drawn pair of them (a tangent when the two are one point).
        ts = data.draw(st.lists(st.integers(-20, 20), min_size=1,
                                max_size=12, unique=True))
        points = [pt(t, t * t) for t in ts]
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ts),
                                             st.sampled_from(ts)),
                                   min_size=1, max_size=8))
        lines = [Line2(s + t, -s * t) for s, t in pairs]
        lines += _lines_through(data, points, data.draw(
            st.lists(constant, max_size=3)))
    elif kind == "few-columns":
        # Up to three columns of many points, and lines of distinct slopes.
        xs = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                                unique=True))
        points = [pt(x, y) for x in xs for y in data.draw(
            st.lists(st.integers(-12, 12), min_size=1, max_size=10))]
        lines = _lines_through(data, points, data.draw(st.lists(
            st.integers(-4, 4), min_size=1, max_size=9, unique=True)))
    elif kind == "fractions":
        points = data.draw(st.lists(st.tuples(coordinate, coordinate).map(
            Point), min_size=1, max_size=14))
        lines = _lines_through(data, points, data.draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=1, max_size=6)))
    else:
        # Repeated points and repeated lines, on a small grid.
        points = data.draw(st.lists(st.tuples(
            st.integers(-2, 2), st.integers(-2, 2)).map(Point),
            min_size=1, max_size=10))
        points += data.draw(st.lists(st.sampled_from(points), min_size=1,
                                     max_size=5))
        lines = _lines_through(data, points, data.draw(st.lists(
            st.integers(-2, 2), min_size=1, max_size=5)))
        lines += data.draw(st.lists(st.sampled_from(lines), min_size=1,
                                    max_size=3))
    _assert_rows_match_reference(points, lines)


def test_rows_of_every_range_type_ascend():
    # Duplicate points, Fraction points (the linear types' per-point
    # fallback) and integer points (their packed rows).
    rng = random.Random(5)
    grid = [F(v, 2) for v in range(-6, 7)]
    for values in (grid, list(range(-3, 4))):
        points = [pt(rng.choice(values), rng.choice(values))
                  for _ in range(30)]
        points += points[:6]
        ranges = [box2(-1, 2, None, 1), Curtain(F(1, 2), 0, -2, None),
                  Wedge2(-1, F(1, 3), 1),
                  Triangle(pt(-3, -3), pt(3, -1), pt(0, 3)),
                  Ball(pt(0, 0), F(9, 4)), Line2(1, 0),
                  Halfspace(Hyperplane((F(1, 3),), 0), "upper"),
                  LinearHalfspace((1, 1), F(1, 2), "ge"),
                  Polyhedron(((1, -1),), (-1,), (F(3, 2),))]
        _assert_rows_match_reference(points, ranges)


def test_oracle_with_no_points_gives_empty_rows():
    ranges = [box2(-1, 2, None, 1), Curtain(F(1, 2), 0, -2, None),
              Wedge2(-1, F(1, 3), 1), Wedge3(1, 2, 3),
              Triangle(pt(-3, -3), pt(3, -1), pt(0, 3)),
              Ball(pt(0, 0), F(9, 4)), Line2(1, 0),
              Halfspace(Hyperplane((F(1, 3),), 0), "upper"),
              LinearHalfspace((1, 1), F(1, 2), "ge"),
              Polyhedron(((1, -1),), (-1,), (F(3, 2),))]
    graph = incidences_bruteforce([], ranges)
    assert (graph.n, graph.m) == (0, 10)
    assert graph.rows == ([],) * 10


@pytest.mark.parametrize("points", [[], [pt(0, 0), pt(1, 2)]],
                         ids=["no-points", "points"])
@pytest.mark.parametrize("bad", [object(), pt(0, 0), Hyperplane((1,), 0)],
                         ids=["object", "point", "hyperplane"])
def test_oracle_rejects_an_unsupported_range(points, bad):
    with pytest.raises(InvalidInputError, match="unsupported range type"):
        incidences_bruteforce(points, [box2(0, 1, 0, 1), bad])


@pytest.mark.parametrize("m, rows", [
    (1, [[0, 3]]), (1, [[-1, 0]]), (1, [[1, 0]]), (1, [[0, 0, 1]]),
    (2, [[0], [2, 2]]), (1, [[0], [1]]), (1, []),
], ids=["past-n", "negative", "descending", "duplicate", "second-row",
        "extra-row", "missing-row"])
def test_graph_rejects_malformed_rows(m, rows):
    with pytest.raises(InvalidInputError):
        IncidenceGraph(3, m, rows)


def test_graph_derives_edges_and_sets_from_rows():
    graph = IncidenceGraph(3, 2, [[0, 2], []])
    assert graph.edges == {(0, 0), (2, 0)} and graph.edge_count == 2
    assert graph.points_in_range(0) == {0, 2}
    assert graph.columns[2] == [0] and graph.columns[1] == []


# ---------------------------------------------------------------------------
# K_{k,k} search

def _exhaustive_kkk(graph, k):
    if graph.n < k or graph.m < k:
        return False
    for pts in itertools.combinations(range(graph.n), k):
        common = set.intersection(*(set(graph.columns[i]) for i in pts))
        if len(common) >= k:
            return True
    return False


def test_find_kkk_simple_witness():
    pts = [pt(0, 0), pt(1, 1)]
    boxes = [box2(-1, 2, -1, 2), box2(0, 1, 0, 1)]
    res = find_kkk(incidences_bruteforce(pts, boxes), 2)
    assert res.found
    assert set(res.points) == {0, 1} and set(res.ranges) == {0, 1}


def test_find_kkk_k1_is_the_least_edge():
    rng = random.Random(41)
    for _ in range(200):
        g = _random_graph(rng, 8, 8)
        res = find_kkk(g, 1)
        if g.edges:
            assert res.points + res.ranges == min(g.edges)
        else:
            assert res.free


def test_find_kkk_too_few_ranges():
    g = incidences_bruteforce([pt(0, 0)], [box2(-1, 1, -1, 1)])
    assert find_kkk(g, 2).free


def test_find_kkk_vs_exhaustive(rng):
    for trial in range(120):
        n = rng.randint(1, 12)
        m = rng.randint(1, 12)
        pts = gens.random_points(rng, n, 1, 8)
        boxes = gens.random_boxes(rng, m, 1, 8, 6)
        g = incidences_bruteforce(pts, boxes)
        for k in (1, 2, 3, 4):
            res = find_kkk(g, k)
            assert res.status in ("found", "free")
            assert res.found == _exhaustive_kkk(g, k), (trial, k)
            if res.found:
                _assert_witness(g, res, k)


def _random_graph(rng, n_max=24, m_max=24):
    n, m = rng.randint(1, n_max), rng.randint(1, m_max)
    density = rng.random() * 0.7
    rows = [[] for _ in range(m)]
    for i in range(n):
        for j in range(m):
            if rng.random() < density:
                rows[j].append(i)
    return IncidenceGraph(n, m, rows)


def test_columns_are_the_transpose_of_the_rows():
    # Each seeded random graph gets one more range, empty, and one more
    # point, in no range.
    rng = random.Random(15)
    for _ in range(60):
        g = _random_graph(rng)
        graph = IncidenceGraph(g.n + 1, g.m + 1, [*g.rows, []])
        assert len(graph.columns) == graph.n
        for i, column in enumerate(graph.columns):
            assert column == [j for j, row in enumerate(graph.rows)
                              if i in row]
        assert graph.columns[g.n] == []


def _assert_witness(graph, res, k):
    assert len(set(res.points)) == k and len(set(res.ranges)) == k
    assert all((i, j) in graph.edges
               for i in res.points for j in res.ranges)


class _OutOfBudget(Exception):
    pass


def _reference_bb(graph, k, node_budget):
    """The branch-and-bound that preceded core peeling: it tries every
    later candidate at each depth and counts each try as a node."""
    point_sets = [graph.points_in_range(j) for j in range(graph.m)]
    candidates = sorted((j for j in range(graph.m)
                         if len(point_sets[j]) >= k),
                        key=lambda j: len(point_sets[j]))
    if graph.n < k or len(candidates) < k:
        return KkkResult("free")
    nodes = 0

    def search(start, chosen, inter):
        nonlocal nodes
        if len(chosen) == k:
            return tuple(sorted(inter)[:k]), tuple(chosen)
        for idx in range(start, len(candidates)):
            if len(candidates) - idx < k - len(chosen):
                break
            nodes += 1
            if nodes > node_budget:
                raise _OutOfBudget
            j = candidates[idx]
            new = inter & point_sets[j] if chosen else point_sets[j]
            if len(new) >= k:
                hit = search(idx + 1, chosen + [j], new)
                if hit is not None:
                    return hit
        return None

    try:
        hit = search(0, [], frozenset())
    except _OutOfBudget:
        return KkkResult("unknown", nodes=nodes)
    if hit is None:
        return KkkResult("free", nodes=nodes)
    return KkkResult("found", hit[0], hit[1], nodes=nodes)


def test_find_kkk_random_graphs_vs_exhaustive():
    rng = random.Random(2024)
    for trial in range(300):
        g = _random_graph(rng, 14, 14)
        for k in (2, 3, 4):
            res = find_kkk(g, k)
            assert res.status in ("found", "free"), (trial, k)
            assert res.found == _exhaustive_kkk(g, k), (trial, k)
            if res.found:
                _assert_witness(g, res, k)


def test_find_kkk_matches_reference_bb():
    # Peeling keeps the candidates' relative order and every K_{k,k}, so
    # the search meets the reference's first hit and enters a subset of
    # the nodes it tried.  At k = 2 the reference runs without a budget
    # and fixes the witness order.
    rng = random.Random(77)
    decided = 0
    for trial in range(400):
        g = _random_graph(rng)
        for k in (2, 3, 4):
            for budget in ((10**9,) if k == 2 else (1, 7, 40, 300, 200_000)):
                ref = _reference_bb(g, k, budget)
                res = find_kkk(g, k, budget)
                if res.found:
                    _assert_witness(g, res, k)
                if ref.status == "unknown":
                    continue
                decided += 1
                assert (res.status, res.points, res.ranges) == \
                    (ref.status, ref.points, ref.ranges), (trial, k, budget)
                if k >= 3:
                    assert res.nodes <= ref.nodes, (trial, k, budget)
    assert decided > 1000


def test_find_kkk_budget_edge():
    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        g = _random_graph(rng)
        for k in (3, 4):
            full = find_kkk(g, k)
            if full.nodes == 0:
                continue
            exact = find_kkk(g, k, full.nodes)
            assert (exact.status, exact.points, exact.ranges, exact.nodes) == \
                (full.status, full.points, full.ranges, full.nodes)
            short = find_kkk(g, k, full.nodes - 1)
            assert short.status == "unknown"
            assert short.nodes == full.nodes
            checked += 1
    assert checked > 50


def test_find_kkk_k2_ignores_budget():
    pts = gens.random_points(random.Random(11), 30, 1, 20)
    g = incidences_bruteforce(
        pts, gens.random_boxes(random.Random(12), 30, 1, 20, 10))
    res = find_kkk(g, 2)
    assert res.nodes > 0 and res.status != "unknown"
    assert find_kkk(g, 2, node_budget=0) == res


def _with_edge(graph, i, j):
    rows = list(graph.rows)
    rows[j] = sorted([*rows[j], i])
    return IncidenceGraph(graph.n, graph.m, rows)


# Pair marking walks the side with the smaller sum of C(degree, 2): the
# rows of the lines through every pair of 9 points, the columns of its
# transpose, and either side of a 7-cycle, where each range holds 2 points
# and each point lies in 2 ranges.  Each graph is free; one added edge
# makes two ranges share two points.
_PAIRS = IncidenceGraph(9, 36, list(map(list, itertools.combinations(
    range(9), 2))))
_CYCLE = IncidenceGraph(7, 7, [sorted((j, (j + 1) % 7)) for j in range(7)])


@pytest.mark.parametrize("graph, edge", [
    (_PAIRS, (2, 0)),                 # rows [0, 1, 2] and [0, 2]
    (IncidenceGraph(36, 9, _PAIRS.columns), (0, 2)),  # point 0 in ranges 0-2
    (_CYCLE, (2, 0)),                 # rows [0, 1, 2] and [1, 2]
], ids=["rows-cheaper", "columns-cheaper", "tie"])
def test_find_kkk_k2_pair_marking_on_either_side(graph, edge):
    res = find_kkk(graph, 2)
    assert not _exhaustive_kkk(graph, 2)
    assert (res.status, res.nodes) == ("free", 0)
    joined = _with_edge(graph, *edge)
    res = find_kkk(joined, 2)
    assert _exhaustive_kkk(joined, 2) and res.found
    _assert_witness(joined, res, 2)
    ref = _reference_bb(joined, 2, 10**9)
    assert (res.points, res.ranges) == (ref.points, ref.ranges)


def test_find_kkk_k2_free_verdict_enters_no_node():
    # The line through two of 240 parabola points holds just those two:
    # 28,680 two-point rows, free without a search node.
    rows = list(map(list, itertools.combinations(range(240), 2)))
    res = find_kkk(IncidenceGraph(240, len(rows), rows), 2)
    assert (res.status, res.nodes) == ("free", 0)


def test_find_kkk_rejects_negative_budget():
    g = incidences_bruteforce([pt(0, 0)], [box2(-1, 1, -1, 1)])
    for k in (1, 2, 3):
        with pytest.raises(InvalidInputError):
            find_kkk(g, k, node_budget=-1)


def test_find_kkk_elekes_k3_free_at_default_budget():
    points, lines = elekes_grid(9)
    res = find_kkk(incidences_bruteforce(points, list(lines)), 3)
    assert res.free
    assert res.nodes <= DEFAULT_NODE_BUDGET


def test_find_kkk_leaves_nothing_for_gc():
    # The search must not keep its data alive in reference cycles: with gc
    # off, a collection right after it finds no unreachable object.
    points, lines = elekes_grid(6)
    sparse = incidences_bruteforce(points, list(lines))
    dense = _random_graph(random.Random(9), 20, 20)
    cases = [(sparse, 2, DEFAULT_NODE_BUDGET), (sparse, 3, DEFAULT_NODE_BUDGET),
             (sparse, 3, 5), (dense, 2, DEFAULT_NODE_BUDGET),
             (dense, 3, DEFAULT_NODE_BUDGET)]
    for graph, _, _ in cases:
        graph.columns  # the graph's own lazy transpose, built now
    statuses = set()
    gc.collect()
    gc.disable()
    try:
        for graph, k, budget in cases:
            res = find_kkk(graph, k, budget)
            statuses.add(res.status)
            assert gc.collect() == 0, (k, budget, res.status)
    finally:
        gc.enable()
    assert statuses == {"free", "found", "unknown"}


def test_find_kkk_budget_returns_unknown():
    rng = random.Random(5)
    pts = gens.random_points(rng, 40, 1, 30)
    boxes = gens.random_boxes(rng, 40, 1, 30, 25)
    g = incidences_bruteforce(pts, boxes)
    res = find_kkk(g, 3, node_budget=1)
    assert res.status in ("unknown", "found", "free")
    # With a one-node budget and any nontrivial search, the verdict cannot
    # silently claim absence.
    if res.status == "free":
        assert not _exhaustive_kkk(g, 3)


# The search and the box cover keep their own stacks: each depth test runs
# with the recursion limit this many frames above its own stack depth, and
# goes 50 levels deeper than that.
_MARGIN = 100


def _lowered_recursion_limit() -> int:
    """Set the limit _MARGIN frames above the caller; return the old one."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + _MARGIN)
    return old


def test_find_kkk_depth_is_not_bounded_by_the_recursion_limit():
    k = _MARGIN + 50
    g = IncidenceGraph(k, k, [list(range(k))] * k)
    old = _lowered_recursion_limit()
    try:
        res = find_kkk(g, k)
    finally:
        sys.setrecursionlimit(old)
    assert res.status == "found"
    assert res.points == res.ranges == tuple(range(k))


# ---------------------------------------------------------------------------
# covers

def test_cover_single_cell():
    pts = [pt(0)]
    boxes = [interval(-1, 1)]
    build = build_box_cover(pts, boxes)
    assert [(set(a), set(b)) for a, b in build.cover.pairs] == [({0}, {0})]


def test_cover_with_no_points_rejects_boxes_of_two_dimensions():
    with pytest.raises(DimensionMismatchError,
                       match="range 1 has dimension 4, not 1"):
        build_box_cover([], [Box((0,), (1,)), Box((0, 0, 0, 0),
                                                  (1, 1, 1, 1))])


@pytest.mark.parametrize("build", [build_box_cover,
                                   lambda p, r: interval_audit(p, r, 2)],
                         ids=["cover", "interval-audit"])
@pytest.mark.parametrize("points, ranges, message", [
    ([pt(0), pt(1), pt(2, 2)], [interval(0, 1)], "point 2 has dimension 2"),
    ([pt(0), pt(1)], [interval(0, 1), interval(1, 2), box2(0, 1, 0, 1)],
     "range 2 has dimension 2"),
], ids=["point", "range"])
def test_cover_and_interval_audit_name_the_last_object_of_another_dimension(
        build, points, ranges, message):
    with pytest.raises(DimensionMismatchError, match=f"{message}, not 1"):
        build(points, ranges)


def test_cover_1d_worked():
    pts = [pt(x) for x in range(1, 7)]
    boxes = [interval(0, 2), interval(3, 6)]
    g = incidences_bruteforce(pts, boxes)
    build = build_box_cover(pts, boxes)
    assert cover_edges(build.cover) == g.edges
    assert verify_cover(build.cover, g)


def test_cover_matches_oracle_random(rng):
    for d in (1, 2, 3):
        for trial in range(40):
            n = rng.randint(1, 60)
            m = rng.randint(0, 40)
            pts = gens.random_points(rng, n, d, 100)
            boxes = gens.random_boxes(rng, m, d, 100)
            g = incidences_bruteforce(pts, boxes)
            build = build_box_cover(pts, boxes)
            assert verify_cover(build.cover, g), (d, trial)
            assert cover_edges(build.cover) == brute_edges(pts, boxes)


@pytest.mark.parametrize("d, digest", [
    (1, "cb5cb01803f8a76e35e3e68c9fbe4142e8ef427826fb8dc1a288ed5f790bcdcd"),
    (2, "fff21622a5ae26a867a1bb7d36a2e86ebac51983f0413654d9958affc16a12a8"),
    (3, "c67a955383d570f20a4fa62c8bc98acb80d5600d248ea238a837862af2e879cd"),
])
def test_box_cover_is_pinned(d, digest):
    # The pairs, their order and the level stats of a seeded cover, so a
    # rewrite of the cover cannot change any of them unnoticed.
    rng = random.Random(2300 + d)
    pts = gens.random_points(rng, 60, d, 100)
    boxes = gens.random_boxes(rng, 40, d, 100)
    build = build_box_cover(pts, boxes)
    pairs = [(sorted(a), sorted(b)) for a, b in build.cover.pairs]
    levels = [(lvl.depth, lvl.point_total, lvl.box_total, lvl.classes)
              for lvl in build.levels]
    got = hashlib.sha256(repr((pairs, levels)).encode()).hexdigest()
    assert got == digest


def test_box_cover_depth_is_not_bounded_by_the_recursion_limit():
    # Boxes bounded on the first axis only: every axis after it holds one
    # class per class of the axis before.
    d = _MARGIN + 50
    pts = [Point((i,) + (i % 3,) * (d - 1)) for i in range(12)]
    free = (None,) * (d - 1)
    boxes = [Box((lo,) + free, (hi,) + free) for lo, hi in
             ((0, 11), (2, 6), (5, 9))]
    old = _lowered_recursion_limit()
    try:
        build = build_box_cover(pts, boxes)
    finally:
        sys.setrecursionlimit(old)
    assert [lvl.depth for lvl in build.levels] == list(range(d))
    assert verify_cover(build.cover, incidences_bruteforce(pts, boxes))


def test_cover_level_accounting(rng):
    import math
    for trial in range(20):
        n = rng.randint(2, 80)
        m = rng.randint(1, 50)
        pts = gens.random_points(rng, n, 2, 100)
        boxes = gens.random_boxes(rng, m, 2, 100)
        build = build_box_cover(pts, boxes)
        for lvl in build.levels:
            cl = math.ceil(math.log2(n)) if n > 1 else 0
            assert lvl.point_total <= n * (cl + 1)
            assert lvl.box_total <= 2 * m * max(1, cl)


def test_verify_cover_rejects_missing_edge():
    pts = [pt(0, 0), pt(5, 5)]
    boxes = [box2(-1, 6, -1, 6)]
    g = incidences_bruteforce(pts, boxes)
    partial = BicliqueCover(((frozenset({0}), frozenset({0})),))
    assert not verify_cover(partial, g)


def test_verify_cover_empty():
    g = incidences_bruteforce([], [])
    assert verify_cover(BicliqueCover(()), g)


def test_cover_bound_worked():
    cover = BicliqueCover(((frozenset({0, 1, 2}), frozenset({0})),
                           (frozenset({3, 4}), frozenset({1}))))
    res = cover_bound(cover, 2)
    assert res.certified and res.bound == 14


def test_cover_bound_witness():
    cover = BicliqueCover(((frozenset({0, 1}), frozenset({0, 1})),))
    res = cover_bound(cover, 2)
    assert not res.certified
    assert len(res.witness_points) == 2 and len(res.witness_ranges) == 2


def test_cover_bound_empty():
    assert cover_bound(BicliqueCover(()), 3).bound == 0


# ---------------------------------------------------------------------------
# interval audit

def test_interval_audit_worked():
    pts = [pt(x) for x in range(1, 7)]
    boxes = [interval(0, 2), interval(3, 6)]
    rep = interval_audit(pts, boxes, 2)
    assert rep.incidences == 6
    assert rep.bound == 2 * 6 + 3 * 2 * 2 == 24
    assert rep.holds


def test_interval_audit_no_intervals():
    rep = interval_audit([pt(1), pt(2)], [], 2)
    assert rep.incidences == 0 and rep.holds


def test_interval_audit_rejects_kkk():
    pts = [pt(0), pt(1)]
    boxes = [interval(-1, 2), interval(-2, 3)]
    with pytest.raises(NotApplicableError) as err:
        interval_audit(pts, boxes, 2)
    assert err.value.witness is not None


def test_interval_audit_rejects_other_range_types():
    # One-dimensional, so only the type tells them from intervals.
    pts = [pt(1), pt(5)]
    for bad in (Halfspace(Hyperplane((), 1), "upper"), Ball(pt(0), 4)):
        for ranges in ([bad], [interval(0, 2), bad]):
            with pytest.raises(InvalidInputError, match="needs intervals"):
                interval_audit(pts, ranges, 2)


def test_interval_audit_randomized(rng):
    checked = 0
    for trial in range(150):
        k = rng.choice((2, 3, 4))
        n = rng.randint(1, 40)
        m = rng.randint(0, 25)
        pts = gens.random_points(rng, n, 1, 200)
        boxes = make_kkk_free(pts, gens.random_boxes(rng, m, 1, 200, 30), k)
        rep = interval_audit(pts, boxes, k)
        assert rep.holds, trial
        assert rep.incidences == incidences_bruteforce(pts, boxes).edge_count
        assert sum(r.incidences for r in rep.blocks) == rep.incidences
        # Blocks with k points admit at most k-1 fully covering intervals.
        for row in rep.blocks[:-1]:
            assert row.containing <= k - 1
        checked += 1
    assert checked == 150

