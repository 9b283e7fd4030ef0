"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is seeded and
exact; tolerances are pinned inline where a criterion states one.
"""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from kkfree import generators as gens
from kkfree.dyadic import canonical_decomposition
from kkfree.extremal import elekes_grid
from kkfree.fat.quadtree import (MAX_LEVEL, SHIFTS, aligned_shift_index,
                                 cell_key, centroid_square, diameter_sq_of)
from kkfree.fat.structure import build_fat_structure, fat_query
from kkfree.geometry import (Ball, Hyperplane, Line2, Point, contains,
                             dualize, lift, lift_ball)
from kkfree.incidence import (BicliqueCover, IncidenceGraph, build_box_cover,
                              cover_bound, find_kkk, incidences_bruteforce,
                              interval_audit, verify_cover)
from kkfree.levels import census_rows, level
from kkfree.reductions import (balls_to_halfspaces, origin_triangle_to_curtain,
                               orthants_to_halfspaces, pointline_to_5d,
                               polyhedra_to_boxes, threesided_to_orthants,
                               wedge_dual, wedge_lift)
from kkfree.slab import box_audit, curtain_audit, rect_audit

from conftest import (build_curtain_structure, ceil_log2, cover_edges,
                      curtain_query, distinct_random_points, dyadic_bounds,
                      make_kkk_free)

SEED = 20240811


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _expose_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(name: str, ok: bool, detail: str = ""):
    line = (f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
            + (f" ({detail})" if detail else ""))
    # Keep the per-criterion verdict visible even under pytest capture.
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print("\n" + line)
    else:
        print("\n" + line)
    assert ok, f"{name} failed: {detail}"


def _sizes(rng, n_hi=300, m_hi=200):
    u = rng.random()
    if u < 0.85:
        return rng.randint(1, 50), rng.randint(0, 40)
    if u < 0.97:
        return rng.randint(51, 140), rng.randint(10, 90)
    return rng.randint(141, n_hi), rng.randint(40, m_hi)


# ---------------------------------------------------------------------------
# C1: oracle equivalence across families

def test_c01_oracle_equivalence():
    per_family = 500
    rng = random.Random(SEED)
    checks = 0

    # boxes, d = 1, 2, 3: cover always; rect/box audits by dimension
    for d in (1, 2, 3):
        for _ in range(per_family):
            n, m = _sizes(rng)
            pts = gens.random_points(rng, n, d, 300)
            boxes = gens.random_boxes(rng, m, d, 300)
            g = incidences_bruteforce(pts, boxes)
            build = build_box_cover(pts, boxes)
            assert cover_edges(build.cover) == g.edges
            if d == 2:
                rep = rect_audit(pts, boxes, rng.choice((2, 4, 16)), 2)
                assert rep.total == g.edge_count
            elif d == 3:
                rep = box_audit(pts, boxes, rng.choice((2, 4)), 2)
                assert rep.total == g.edge_count
            checks += 1

    # halfspaces, d = 2, 3: containment counts equal the level identity
    for d in (2, 3):
        for _ in range(per_family):
            n, m = _sizes(rng)
            pts = gens.random_points(rng, n, d, 300)
            halfspaces = gens.random_halfspaces(rng, m, d)
            g = incidences_bruteforce(pts, halfspaces)
            upper = [h.boundary for h in halfspaces if h.side == "upper"]
            lower = [h.boundary for h in halfspaces if h.side == "lower"]
            via_levels = sum(level(p, upper)
                             + sum(h.side_of(p) <= 0 for h in lower)
                             for p in pts)
            assert via_levels == g.edge_count
            checks += 1

    # curtains: audit totals and structure queries
    for _ in range(per_family):
        n, m = _sizes(rng, m_hi=120)
        pts = gens.random_points(rng, n, 2, 300)
        curtains = gens.random_curtains(rng, m, 300)
        g = incidences_bruteforce(pts, curtains)
        assert curtain_audit(pts, curtains, 2).total == g.edge_count
        structure = build_curtain_structure(pts)
        edges = {(i, j) for j, c in enumerate(curtains)
                 for i in curtain_query(structure, c)}
        assert edges == set(g.edges)
        checks += 1

    # fat triangles: per-query output equality
    for _ in range(per_family):
        n = rng.randint(121, 300) if rng.random() < 0.1 else rng.randint(1, 120)
        m = rng.randint(1, 25)
        pts = gens.random_points(rng, n, 2, 300)
        tris = gens.random_fat_triangles(rng, m, math.pi / 6,
                                         center_range=300,
                                         scale_range=(5.0, 600.0))
        g = incidences_bruteforce(pts, tris)
        structure = build_fat_structure(pts)
        edges = set()
        for j, tri in enumerate(tris):
            got, _ = fat_query(structure, tri)
            edges.update((i, j) for i in got)
        assert edges == set(g.edges)
        checks += 1

    _report("C1 oracle equivalence", True,
            f"{checks} seeded instances across 7 families, all exact")


# ---------------------------------------------------------------------------
# C2: canonical dyadic decomposition, exhaustively

def _np_decomposition_stats(alphas, betas):
    """Vectorized twin of the bottom-up cover scan: (count, total length)."""
    lo = alphas.astype(np.int64).copy()
    hi = betas.astype(np.int64) + 1
    count = np.zeros(lo.shape, dtype=np.int64)
    length = np.zeros(lo.shape, dtype=np.int64)
    lvl = 0
    while True:
        act = lo < hi
        if not act.any():
            break
        lo_take = (act & ((lo & 1) == 1)).astype(np.int64)
        hi_take = (act & ((hi & 1) == 1)).astype(np.int64)
        count += lo_take + hi_take
        length += (lo_take + hi_take) << lvl
        lo = (lo + (lo & 1)) >> 1
        hi = (hi - (hi & 1)) >> 1
        lvl += 1
    return count, length


def test_c02_dyadic_exhaustive():
    top = 1024
    a_idx, b_idx = np.triu_indices(top)
    count, length = _np_decomposition_stats(a_idx, b_idx)
    # Exactness: every pair's cover lengths add to the interval width.
    assert (length == (b_idx - a_idx + 1)).all()
    # Size bound for every n: restrict to pairs with beta <= n-1.
    worst_for_beta = np.zeros(top, dtype=np.int64)
    np.maximum.at(worst_for_beta, b_idx, count)
    running = np.maximum.accumulate(worst_for_beta)
    for n in range(2, top + 1):
        assert running[n - 1] <= 2 * ceil_log2(n), n
    # The vectorized twin agrees with the real constructor: exhaustively for
    # n <= 64, and on dense samples above.
    from test_dyadic import _min_cover
    for n in (2, 3, 5, 8, 13, 16, 31, 32, 48, 64):
        for alpha in range(n):
            for beta in range(alpha, n):
                got = canonical_decomposition(alpha, beta, n)
                size, ways, cover = _min_cover(alpha, beta)
                assert ways == 1
                assert [dyadic_bounds(r) for r in got] == \
                    [dyadic_bounds(r) for r in cover]
                flat = [x for lo, hi in map(dyadic_bounds, got)
                        for x in range(lo, hi + 1)]
                assert flat == list(range(alpha, beta + 1))
    rng = random.Random(SEED + 2)
    for _ in range(4000):
        n = rng.randint(2, top)
        alpha = rng.randint(0, n - 1)
        beta = rng.randint(alpha, n - 1)
        got = canonical_decomposition(alpha, beta, n)
        c, ln = _np_decomposition_stats(np.array([alpha]), np.array([beta]))
        assert len(got) == int(c[0])
        flat = [x for lo, hi in map(dyadic_bounds, got)
                for x in range(lo, hi + 1)]
        assert flat == list(range(alpha, beta + 1))
    _report("C2 canonical decomposition", True,
            f"all (alpha,beta) for n in 2..{top}: exact cover + size bound; "
            "unique-minimal vs exhaustive search for n <= 64")


# ---------------------------------------------------------------------------
# C3: interval bound, zero violations

def test_c03_interval_bound():
    rng = random.Random(SEED + 3)
    runs = 0
    for trial in range(1000):
        k = (2, 3, 4)[trial % 3]
        n = rng.randint(1, 40)
        m = rng.randint(0, 28)
        pts = gens.random_points(rng, n, 1, 300)
        intervals = make_kkk_free(
            pts, gens.random_boxes(rng, m, 1, 300, 40), k)
        rep = interval_audit(pts, intervals, k)
        assert rep.holds, trial
        assert rep.incidences <= k * n + 3 * k * len(intervals)
        runs += 1
    _report("C3 interval bound", True,
            f"{runs} K_k,k-free 1D instances, k in 2..4, zero violations")


# ---------------------------------------------------------------------------
# C4: biclique bound soundness

def test_c04_cover_bound_soundness():
    rng = random.Random(SEED + 4)
    certified = witnessed = 0
    for trial in range(300):
        k = (2, 3)[trial % 2]
        d = (1, 2, 3)[trial % 3]
        n, m = rng.randint(1, 60), rng.randint(1, 40)
        pts = gens.random_points(rng, n, d, 120)
        boxes = gens.random_boxes(rng, m, d, 120)
        g = incidences_bruteforce(pts, boxes)
        build = build_box_cover(pts, boxes)
        assert verify_cover(build.cover, g)
        res = find_kkk(g, k)
        assert res.status in ("found", "free")
        cb = cover_bound(build.cover, k)
        if cb.certified:
            # The certified value upper-bounds the edge count regardless.
            assert cb.bound >= g.edge_count
        if res.free:
            assert cb.certified and cb.bound >= g.edge_count
            certified += 1
        else:
            # The witness biclique is itself a complete pair; adding it to
            # the cover keeps the cover exact, and the bound routine must
            # surface an embedded pair with min side >= k.
            augmented = BicliqueCover(build.cover.pairs + (
                (frozenset(res.points), frozenset(res.ranges)),))
            assert verify_cover(augmented, g)
            cb2 = cover_bound(augmented, k)
            assert not cb2.certified
            assert len(cb2.witness_points) >= k
            assert len(cb2.witness_ranges) >= k
            for i in cb2.witness_points:
                for j in cb2.witness_ranges:
                    assert (i, j) in g.edges
            witnessed += 1
    _report("C4 biclique bound soundness", True,
            f"{certified} certified instances, {witnessed} witness instances")


# ---------------------------------------------------------------------------
# C5: grid construction tightness and the 5D embedding

def test_c05_grid_and_5d():
    points, lines = elekes_grid(8)
    assert len(points) == 1024 and len(lines) == 512
    g = incidences_bruteforce(points, lines)
    assert g.edge_count == 4096 == 8 ** 4
    for j in range(len(lines)):
        assert len(g.points_in_range(j)) == 8  # every line meets exactly N
    assert find_kkk(g, 2).free
    red = pointline_to_5d(points, lines)
    tgt = incidences_bruteforce(red.target_points, red.target_ranges)
    assert tgt.edges == g.edges  # identical index maps: isomorphic graphs
    assert find_kkk(tgt, 2).free
    _report("C5 grid tightness + 5D embedding", True,
            "n=1024 m=512 I=4096 exactly; embedding edge-identical, K22-free")


# ---------------------------------------------------------------------------
# C6: reduction certificates

def test_c06_reduction_certificates():
    rng = random.Random(SEED + 6)
    per = 50
    counts = {}

    def bump(name):
        counts[name] = counts.get(name, 0) + 1

    normals = ((1, 0, 0), (0, 1, 1), (1, 1, 0))
    for _ in range(per):
        pts = gens.random_points(rng, 25, 3, 80)
        polys = gens.random_polyhedra(rng, 15, normals, 160, 120)
        assert polyhedra_to_boxes(pts, polys).verify()
        bump("polyhedra-to-boxes")
    for _ in range(per):
        pts = gens.random_points(rng, 30, 2, 100)
        rects = gens.random_threesided(rng, 20, 100, 80)
        assert threesided_to_orthants(pts, rects).verify()
        bump("threesided-to-orthants")
    for _ in range(per):
        pts = gens.random_points(rng, 24, 3, 50)
        orthants = gens.random_orthants(rng, 18, 50)
        # Boundary case: plant a point exactly on an orthant corner so the
        # mapped sum hits 3 exactly.
        corner = orthants[0].highs
        pts = pts + [Point(corner)]
        red = orthants_to_halfspaces(pts, orthants)
        from kkfree.geometry import dot
        planted = red.target_points[-1]
        assert dot(red.target_ranges[0].coeffs, planted.coords) == 3
        assert red.verify()
        bump("orthants-to-halfspaces")
    for _ in range(per):
        d = rng.choice((2, 3))
        pts = gens.random_points(rng, 25, d, 80)
        balls = gens.random_balls(rng, 15, d, 80, 60)
        assert balls_to_halfspaces(pts, balls).verify()
        bump("balls-to-halfspaces")
    for _ in range(per):
        pts = gens.random_points(rng, 20, 2, 40)
        lines = [Line2(rng.randint(-6, 6), rng.randint(-40, 40))
                 for _ in range(14)]
        assert pointline_to_5d(pts, lines).verify()
        bump("pointline-to-5d")
    for _ in range(per):
        pts = gens.random_points(rng, 22, 3, 70)
        wedges = gens.random_wedges3(rng, 16, 70)
        assert wedge_dual(pts, wedges).verify()
        bump("wedge-dual")
    for _ in range(per):
        pts = gens.random_points(rng, 22, 2, 70)
        wedges = gens.random_wedges2(rng, 16, 70)
        assert wedge_lift(pts, wedges).verify()
        bump("wedge-lift")
    for _ in range(per):
        pts = [p for p in gens.random_points(rng, 26, 2, 60) if p[0] != 0]
        tris = gens.random_origin_triangles(rng, 12, 50)
        assert origin_triangle_to_curtain(pts, tris).verify()
        bump("origin-triangle-to-curtain")
    assert all(v == per for v in counts.values())
    _report("C6 reduction certificates", True,
            f"{len(counts)} reductions x {per} instances, edge-isomorphic; "
            "orthant equality case sums to exactly 3")


# ---------------------------------------------------------------------------
# C7: duality and lifting, 10^4 exact pairs each

def _rat(rng, span=60, den=48):
    return F(rng.randint(-span * den, span * den), den)


def test_c07_duality_lifting():
    rng = random.Random(SEED + 7)
    for _ in range(10_000):
        d = rng.choice((2, 3, 4))
        p = Point(tuple(_rat(rng) for _ in range(d)))
        h = Hyperplane(tuple(_rat(rng) for _ in range(d - 1)), _rat(rng))
        assert dualize(dualize(p)) == p
        assert dualize(dualize(h)) == h
        assert (h.side_of(p) > 0) == (dualize(p).side_of(dualize(h)) > 0)
    for _ in range(10_000):
        d = rng.choice((2, 3))
        p = Point(tuple(_rat(rng) for _ in range(d)))
        center = Point(tuple(_rat(rng) for _ in range(d)))
        ball = Ball(center, abs(_rat(rng)))
        assert contains(ball, p) == contains(lift_ball(ball), lift(p))
    _report("C7 duality + lifting", True,
            "10^4 order-reversal pairs and 10^4 lifting pairs, all exact")


# ---------------------------------------------------------------------------
# C8: shallow census trend on constructed K22-free halfplane families

def _census_levels_numpy(pts, halfplanes):
    xs = np.array([int(p[0]) for p in pts], dtype=np.int64)
    ys = np.array([int(p[1]) for p in pts], dtype=np.int64)
    slopes = np.array([int(h.boundary.slopes[0]) for h in halfplanes],
                      dtype=np.int64)
    offs = np.array([int(h.boundary.offset) for h in halfplanes],
                    dtype=np.int64)
    contained = (slopes[None, :] * xs[:, None] + offs[None, :]) <= ys[:, None]
    return contained


def _verify_k22_free(contained) -> bool:
    seen = {}
    for i in range(contained.shape[0]):
        row = np.flatnonzero(contained[i])
        for pair in itertools.combinations(row.tolist(), 2):
            if pair in seen:
                return False
            seen[pair] = i
    return True


def test_c08_shallow_census_trend():
    k = 2
    worst = 0.0
    rows_total = 0
    for exp in range(8, 13):
        n = 2 ** exp
        pts, halfplanes = gens.census_halfplane_instance(n)
        contained = _census_levels_numpy(pts, halfplanes)
        assert _verify_k22_free(contained), n
        levels = [int(v) for v in contained.sum(axis=1)]
        # Library agreement on a subsample (the numpy matrix is the oracle).
        bounds = [h.boundary for h in halfplanes]
        for i in (0, 1, n // 2, n - 1):
            assert level(pts[i], bounds) == levels[i]
        # The numpy matrix stands in for the oracle graph; census_rows runs
        # its own K_{2,2} search on it and reads the levels as degrees.
        m = len(halfplanes)
        graph = IncidenceGraph(n, m, [np.flatnonzero(col).tolist()
                                      for col in contained.T])
        sweep = [2 ** e for e in range(1, exp - 1)]  # 2, 4, ..., m/(2k)
        rows = census_rows(graph, k, sweep, lambda r: r)
        assert [row.observed for row in rows] == [
            sum(1 for v in levels if F(m, r) <= v < 2 * F(m, r))
            for r in sweep]
        for row in rows:
            if row.ratio is not None:
                worst = max(worst, row.ratio)
            rows_total += 1
    assert worst <= 32.0
    _report("C8 shallow census trend", True,
            f"{rows_total} census rows over n=m in 2^8..2^12; "
            f"fitted constant {worst:.4g} <= 32")


# ---------------------------------------------------------------------------
# C9: fat-triangle structure at n = 2^12

def _np_triangle_hits(xs, ys, tri):
    verts = [(int(v[0]), int(v[1])) for v in tri.vertices]
    sides = []
    for a in range(3):
        ux, uy = verts[a]
        vx, vy = verts[(a + 1) % 3]
        val = (vx - ux) * (ys - uy) - (vy - uy) * (xs - ux)
        sides.append(np.sign(val))
    s = np.stack(sides)
    return np.flatnonzero(((s >= 0).all(axis=0)) | ((s <= 0).all(axis=0)))


def test_c09_fat_structure():
    rng = random.Random(SEED + 9)
    n = 2 ** 12
    pts = distinct_random_points(rng, n, 2, 10 ** 6)
    structure = build_fat_structure(pts)
    entries = structure.stored_entries()
    budget = 8 * n * math.log2(n)
    assert entries <= budget, (entries, budget)
    xs = np.array([int(p[0]) for p in pts], dtype=np.int64)
    ys = np.array([int(p[1]) for p in pts], dtype=np.int64)
    logn3 = math.log2(n) ** 3
    worst_overhead = 0
    for q in range(1000):
        tri = gens.random_fat_triangle(rng, math.pi / 6,
                                       center_range=10 ** 6,
                                       scale_range=(200.0, 1.2e6), grid=1)
        got, stats = fat_query(structure, tri)
        want = sorted(int(i) for i in _np_triangle_hits(xs, ys, tri))
        assert got == want, q
        overhead = stats.work - stats.reported
        assert stats.work <= 16 * logn3 + stats.reported, q
        worst_overhead = max(worst_overhead, overhead)
    _report("C9 fat structure", True,
            f"10^3 queries exact; entries {entries} <= {budget:.0f}; "
            f"worst work-K {worst_overhead} <= {16 * logn3:.0f}")


# ---------------------------------------------------------------------------
# C10: centroid and shift machinery, 10^4 trials each

def test_c10_centroid_shift():
    rng = random.Random(SEED + 10)
    # The shift alignment takes numerators over one unit, a multiple of 3
    # (for the third-shifts) and of 2^23.
    unit = 3 << 23
    for _ in range(10_000):
        x = rng.randint(0, 2 ** 18) * (unit >> 20)
        y = rng.randint(0, 2 ** 18) * (unit >> 20)
        w = rng.randint(1, 2 ** 13) * (unit >> 23)
        h = rng.randint(1, 2 ** 13) * (unit >> 23)
        bbox = (x, y, x + w, y + h)
        d2 = diameter_sq_of([(x, y), (x + w, y + h)])
        idx = aligned_shift_index(bbox, d2, unit)
        assert idx is not None and SHIFTS[idx] in (F(0), F(1, 3), F(2, 3))
    for trial in range(10_000):
        n = rng.randint(1, 40)
        pts = [(F(rng.randint(0, 2 ** 16 - 1), 2 ** 16),
                F(rng.randint(0, 2 ** 16 - 1), 2 ** 16)) for _ in range(n)]
        (level, i, j), inside = centroid_square(pts)
        outside = n - len(inside)
        assert 5 * outside <= 4 * n, trial          # <= 4n/5 outside
        assert 5 * len(inside) >= n, trial          # >= n/5 inside
        if level < MAX_LEVEL:
            # Integer cell keys at the child's level, as the build uses.
            keys = [tuple(cell_key(c.numerator, c.denominator, level + 1)
                          for c in p) for p in pts]
            for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
                assert 5 * keys.count((2 * i + di, 2 * j + dj)) < n
    _report("C10 centroid + shift", True,
            "10^4 shift alignments and 10^4 centroid splits, all within "
            "guarantees")
