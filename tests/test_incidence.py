import gc
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkfree import generators as gens
from kkfree.errors import InvalidInputError, NotApplicableError
from kkfree.extremal import elekes_grid
from kkfree.geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                             LinearHalfspace, Point, Polyhedron, Triangle,
                             Wedge2, Wedge3, box2, interval, pt)
from kkfree.incidence import (DEFAULT_NODE_BUDGET, BicliqueCover,
                              IncidenceGraph, KkkResult, build_box_cover,
                              cover_bound, find_kkk, incidences_bruteforce,
                              interval_audit, shatter_trace_count,
                              verify_cover)

from conftest import brute_edges, cover_edges


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
        boxes = gens.random_intervals(rng, m, 8, 6)
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
        pts, gens.random_intervals(random.Random(12), 30, 20, 10))
    res = find_kkk(g, 2)
    assert res.nodes > 0 and res.status != "unknown"
    assert find_kkk(g, 2, node_budget=0) == res


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
    boxes = gens.random_intervals(rng, 40, 30, 25)
    g = incidences_bruteforce(pts, boxes)
    res = find_kkk(g, 3, node_budget=1)
    assert res.status in ("unknown", "found", "free")
    # With a one-node budget and any nontrivial search, the verdict cannot
    # silently claim absence.
    if res.status == "free":
        assert not _exhaustive_kkk(g, 3)


# ---------------------------------------------------------------------------
# covers

def test_cover_single_cell():
    pts = [pt(0)]
    boxes = [interval(-1, 1)]
    build = build_box_cover(pts, boxes)
    assert [(set(a), set(b)) for a, b in build.cover.pairs] == [({0}, {0})]


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
        boxes = gens.make_kkk_free(pts, gens.random_intervals(rng, m, 200, 30), k)
        rep = interval_audit(pts, boxes, k)
        assert rep.holds, trial
        assert rep.incidences == incidences_bruteforce(pts, boxes).edge_count
        assert sum(r.incidences for r in rep.blocks) == rep.incidences
        # Blocks with k points admit at most k-1 fully covering intervals.
        for row in rep.blocks[:-1]:
            assert row.containing <= k - 1
        checked += 1
    assert checked == 150


# ---------------------------------------------------------------------------
# shatter traces

def test_shatter_identical_ranges():
    pts = [pt(0, 0), pt(1, 1)]
    boxes = [box2(-1, 2, -1, 2)] * 3
    assert shatter_trace_count(pts, boxes).traces == 1


def test_shatter_singletons():
    pts = [pt(i, 0) for i in range(5)]
    boxes = [box2(i, i, 0, 0) for i in range(5)]
    res = shatter_trace_count(pts, boxes, k=0)
    assert res.traces == 5
    assert res.heavy == 5  # each contains 1 > 0 points


def test_shatter_heavy_strict(rng):
    pts = [pt(i, 0) for i in range(4)]
    boxes = [box2(0, 3, -1, 1)]
    # The single box holds 4 points: heavy iff k < 4, strictly.
    assert shatter_trace_count(pts, boxes, k=4).heavy == 0
    assert shatter_trace_count(pts, boxes, k=3).heavy == 1


def test_shatter_vs_independent_enumeration(rng):
    from kkfree.geometry import Halfspace, contains
    pts = gens.random_points(rng, 10, 2, 40)
    planes = gens.random_halfspaces(rng, 12, 2)
    res = shatter_trace_count(pts, planes)
    realized = set()
    for h in planes:
        realized.add(tuple(sorted(i for i, p in enumerate(pts)
                                  if contains(h, p))))
    assert res.traces == len(realized)
