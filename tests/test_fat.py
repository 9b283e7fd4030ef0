import fractions
import hashlib
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkfree import generators as gens
from kkfree.errors import DimensionMismatchError, InvalidInputError
from kkfree.fat.quadtree import (MAX_LEVEL, SHIFTS, aligned_shift_index,
                                 alignment_level, cell_key, centroid_square,
                                 diameter_sq_of, is_aligned)
from kkfree.fat.slanted import QueryStats, SlantedRangeTree
from kkfree.fat.structure import build_fat_structure, fat_query
from kkfree.generators import min_angle
from kkfree.geometry import Curtain, Triangle, contains, pt

from conftest import (build_curtain_structure, curtain_query,
                      distinct_random_points, reference_contains,
                      reference_stratum)


# The alignment helpers take numerators over one unit; U is a multiple of
# 3 (for the third-shifts) and of every power of two the tests divide by.
U = 3 << 22


def _u(num, den):
    """The numerator of num / den over U."""
    assert U % den == 0
    return num * (U // den)


def _square_bbox(x, y, w):
    return (x, y, x + w, y + w)


def _in_square(sq, p):
    """Whether the point of ``Fraction`` coordinates lies in the square
    ``(level, i, j)``, by its integer cell keys at the square's level."""
    level, i, j = sq
    return all(cell_key(c.numerator, c.denominator, level) == k
               for c, k in zip(p, (i, j)))


def _children(level, i, j):
    """The four quadtree children of the square, in the descent's scan
    order."""
    return [(level + 1, 2 * i + di, 2 * j + dj)
            for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1))]


def test_is_aligned_tiny_centered():
    # A speck near the middle of a deep cell.
    bb = _square_bbox(_u(1, 3), _u(1, 3), _u(1, 2 ** 12))
    d2 = diameter_sq_of([(bb[0], bb[1]), (bb[2], bb[3])])
    assert is_aligned(bb, d2, U)


def test_is_aligned_straddles_top_split():
    bb = _square_bbox(_u(1, 2) - _u(1, 2 ** 12), _u(1, 4), _u(1, 2 ** 11))
    d2 = diameter_sq_of([(bb[0], bb[1]), (bb[2], bb[3])])
    assert not is_aligned(bb, d2, U)


def test_alignment_level_rounding():
    # diameter 1/100: 4r = 1/25; the smallest power of 1/2 above it is 1/16.
    assert alignment_level(1, 100) == 4
    # diameter 1/64: the side 1/16 is exactly four diameters, and counts.
    assert alignment_level(1, 64) == 4


def _alignment_level_by_steps(diam_sq, unit):
    # Reference: raise the level while the next side^2 = 1/4^(level+1) still
    # holds 16 * diam_sq.
    if diam_sq == 0:
        return MAX_LEVEL
    level = 0
    while (level < MAX_LEVEL
           and (16 * diam_sq) << 2 * (level + 1) <= unit * unit):
        level += 1
    return level


def test_alignment_level_matches_the_stepwise_reference():
    rng = random.Random(28)
    pairs = [(0, 1), (0, 3 * 2 ** 20), (1, 2 ** 80), (1, 2 ** 70), (1, 4),
             (1, 3), (5, 8), (2, 1), (10 ** 9, 7)]
    for _ in range(2000):
        unit = rng.choice([rng.randrange(1, 100), rng.randrange(1, 2 ** 20),
                           rng.randrange(1, 2 ** 90)])
        pairs.append((rng.choice([0, rng.randrange(1, 50),
                                  rng.randrange(1, unit * unit + 2),
                                  rng.randrange(1, 2 ** 40)]), unit))
    capped = below = 0
    for diam_sq, unit in pairs:
        level = alignment_level(diam_sq, unit)
        assert level == _alignment_level_by_steps(diam_sq, unit), (diam_sq,
                                                                   unit)
        capped += diam_sq > 0 and level == MAX_LEVEL
        below += unit * unit < 16 * diam_sq
    assert capped and below


def test_is_aligned_matches_exhaustive(rng):
    for _ in range(200):
        x = _u(rng.randint(0, 2 ** 16), 2 ** 18)
        y = _u(rng.randint(0, 2 ** 16), 2 ** 18)
        w = _u(rng.randint(1, 2 ** 10), 2 ** 20)
        bb = (x, y, x + w, y + w)
        d2 = diameter_sq_of([(x, y), (x + w, y + w)])
        level = alignment_level(d2, U)
        scale = 1 << level
        # Brute force: scan all cells of that level meeting the box; cell
        # (level, i, j) spans [i U, (i + 1) U) / 2^level on the x axis.
        hit = False
        for i in range(x * scale // U, (x + w) * scale // U + 1):
            for j in range(y * scale // U, (y + w) * scale // U + 1):
                if i < scale and j < scale:
                    if (i * U <= x * scale and (x + w) * scale < (i + 1) * U
                            and j * U <= y * scale
                            and (y + w) * scale < (j + 1) * U):
                        hit = True
        assert is_aligned(bb, d2, U) == hit


def test_shift_align_always_succeeds(rng):
    for _ in range(2000):
        x = _u(rng.randint(0, 2 ** 18), 2 ** 20)
        y = _u(rng.randint(0, 2 ** 18), 2 ** 20)
        w = _u(rng.randint(1, 2 ** 12), 2 ** 22)
        bb = (x, y, x + w, y + w)
        d2 = diameter_sq_of([(x, y), (x + w, y + w)])
        idx = aligned_shift_index(bb, d2, U)
        assert idx is not None and SHIFTS[idx] in (F(0), F(1, 3), F(2, 3))


def test_aligned_shift_index_needs_a_unit_the_shifts_divide():
    with pytest.raises(InvalidInputError, match="not a multiple of 3"):
        aligned_shift_index((0, 0, 1, 1), 2, 1 << 20)


def test_centroid_single_point():
    sq, _ = centroid_square([(F(1, 3), F(2, 3))])
    assert sq[0] == MAX_LEVEL
    assert _in_square(sq, (F(1, 3), F(2, 3)))


def test_centroid_cluster():
    # Four clustered points and one far away: with n/5 = 1 the descent digs
    # into the cluster quadrant's subtree and isolates a point there.
    cluster = [(F(1, 16) + F(i, 256), F(1, 16)) for i in range(4)]
    pts = cluster + [(F(7, 8), F(7, 8))]
    sq, inside = centroid_square(pts)
    level, i, j = sq
    # The lower-left corner (i, j) / 2^level is inside that quadrant.
    assert F(i, 1 << level) < F(1, 2) and F(j, 1 << level) < F(1, 2)
    assert len(inside) >= 1
    assert all((x, y) in cluster for x, y in inside)
    assert not _in_square(sq, (F(7, 8), F(7, 8)))


def test_centroid_balance(rng):
    for trial in range(300):
        n = rng.randint(1, 120)
        pts = [(F(rng.randint(0, 2 ** 20), 2 ** 20),
                F(rng.randint(0, 2 ** 20), 2 ** 20)) for _ in range(n)]
        sq, inside = centroid_square(pts)
        assert 5 * len(inside) >= n          # at least n/5 inside
        assert 5 * (n - len(inside)) <= 4 * n  # at most 4n/5 outside
        for child in _children(*sq):
            cnt = sum(1 for p in pts if _in_square(child, p))
            assert 5 * cnt < n or sq[0] == MAX_LEVEL


def _reference_centroid(points, max_level):
    """The Fraction scan the integer descent replaced: each child square's
    members are found by comparing coordinates with its exact corners."""
    def inside(level, i, j, p):
        side = F(1, 1 << level)
        return (i * side <= p[0] < (i + 1) * side
                and j * side <= p[1] < (j + 1) * side)

    n = len(points)
    sq, members = (0, 0, 0), list(points)
    while sq[0] < max_level:
        for child in _children(*sq):
            sub = [p for p in members if inside(*child, p)]
            if 5 * len(sub) >= n:
                sq, members = child, sub
                break
        else:
            break
    # The former rebalance guard, copied as it was.  It cannot start: after
    # the break the four children each hold < n/5, so the square holds
    # < 4n/5, and at the cap the level test fails.
    while 5 * len(members) > 4 * n and sq[0] < max_level:
        best = None
        for child in _children(*sq):
            sub = [p for p in members if inside(*child, p)]
            if best is None or len(sub) > len(best[1]):
                best = (child, sub)
        sq, members = best
    return sq, members


# Coordinates k / 2^d (dyadic cell edges at every level up to d) and
# k / (3 * 2^d) (the third-shifted strata), all inside [0, 1).
_coords = st.integers(0, 7).flatmap(
    lambda d: st.sampled_from([1 << d, 3 << d]).flatmap(
        lambda den: st.builds(F, st.integers(0, den - 1), st.just(den))))
_points = st.tuples(_coords, _coords)


@given(st.lists(_points, min_size=1, max_size=6), st.data(),
       st.sampled_from([0, 1, 2, 3, 5, MAX_LEVEL]))
@settings(max_examples=400)
def test_centroid_matches_fraction_reference(pool, data, max_level):
    # Drawing the points from a small pool makes duplicates common, and a
    # small cap stops duplicate-heavy inputs above their separating level.
    pts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    sq, inside = centroid_square(pts, max_level)
    want_sq, want = _reference_centroid(pts, max_level)
    assert sq == want_sq
    assert inside == want


@pytest.mark.parametrize("pts, entries, depth", [
    (gens.random_points(random.Random(5), 200, 2, 250), 3124, 5),
    ([pt(F(i, 7), F(i % 5, 9)) for i in range(150)] + [pt(1000, 1000)] * 3,
     2226, 5),
])
def test_fat_structure_pinned_shape(pts, entries, depth):
    # Values of the Fraction-coordinate build the integer build replaced.
    s = build_fat_structure(pts)
    assert (s.stored_entries(), s.max_depth()) == (entries, depth)


def test_fat_structure_names_the_last_point_of_another_dimension():
    with pytest.raises(DimensionMismatchError,
                       match="point 2 has dimension 3, not 2"):
        build_fat_structure([pt(0, 0), pt(1, 1), pt(1, 1, 1)])


# The seed-1 and seed-7919 `fat` benchmark instances (n = 640 integer points,
# m = 28 fat triangles), with each query's (tree_nodes, curtain_nodes,
# point_tests, work) as `kkfree audit fat` writes them, from the Fraction
# walk the integer walk replaced.  Seed 7919 answers two queries through
# the slanted trees; seed 1 answers none there.
_BENCH_FAT_ROWS = {
    1: (14923, 10, [
        (11, 0, 29, 40), (13, 0, 36, 49), (9, 0, 39, 48), (9, 0, 38, 47),
        (15, 0, 61, 76), (9, 0, 36, 45), (23, 0, 164, 187), (29, 0, 81, 110),
        (11, 0, 29, 40), (15, 0, 47, 62), (11, 0, 29, 40), (15, 0, 47, 62),
        (11, 0, 33, 44), (13, 0, 40, 53), (15, 0, 39, 54), (9, 0, 39, 48),
        (21, 0, 62, 83), (9, 0, 39, 48), (13, 0, 39, 52), (13, 0, 35, 48),
        (11, 0, 43, 54), (11, 0, 76, 87), (29, 0, 81, 110), (9, 0, 36, 45),
        (21, 0, 55, 76), (13, 0, 35, 48), (9, 0, 38, 47), (9, 0, 36, 45)]),
    7919: (14975, 10, [
        (27, 0, 48, 75), (13, 0, 46, 59), (1, 0, 0, 1), (9, 21, 0, 55),
        (13, 0, 22, 35), (13, 0, 46, 59), (15, 0, 68, 83), (15, 0, 36, 51),
        (27, 0, 82, 109), (13, 0, 22, 35), (11, 0, 39, 50), (11, 0, 47, 58),
        (11, 0, 67, 78), (11, 0, 0, 11), (5, 48, 0, 98), (11, 0, 52, 63),
        (13, 0, 34, 47), (9, 0, 31, 40), (15, 0, 39, 54), (15, 0, 36, 51),
        (15, 0, 79, 94), (15, 0, 49, 64), (27, 0, 82, 109), (15, 0, 68, 83),
        (9, 0, 43, 52), (11, 0, 39, 50), (13, 0, 36, 49), (15, 0, 36, 51)]),
}


@pytest.mark.parametrize("seed", sorted(_BENCH_FAT_ROWS))
def test_fat_audit_pinned_query_rows(seed):
    # The instance recipe of bench/workloads.py, workload "fat".
    rng = random.Random(f"fat:{seed}")
    pts = gens.random_points(rng, 640, 2)
    tris = gens.random_fat_triangles(rng, 28, math.pi / 6)
    s = build_fat_structure(pts)
    rows = []
    for tri in tris:
        got, stats = fat_query(s, tri)
        assert got == [i for i, p in enumerate(pts)
                       if reference_contains(tri, p)]
        rows.append((stats.nodes_visited, stats.curtain_stats.nodes_visited,
                     stats.point_tests, stats.work))
    assert (s.stored_entries(), s.max_depth(), rows) == _BENCH_FAT_ROWS[seed]


# ---------------------------------------------------------------------------
# curtain structure

def test_curtain_structure_empty_below():
    pts = [pt(i, 10) for i in range(10)]
    s = build_curtain_structure(pts)
    assert curtain_query(s, Curtain(0, -100, None, None)) == []


def test_curtain_structure_halfplane_catches_all():
    pts = [pt(i, -i) for i in range(10)]
    s = build_curtain_structure(pts)
    assert curtain_query(s, Curtain(0, 5, None, None)) == list(range(10))


def test_curtain_structure_vs_bruteforce(rng):
    for trial in range(30):
        n = rng.randint(1, 200)
        pts = gens.random_points(rng, n, 2, 300)
        s = build_curtain_structure(pts)
        for c in gens.random_curtains(rng, 15, 300):
            got = curtain_query(s, c)
            want = sorted(i for i, p in enumerate(pts) if contains(c, p))
            assert got == want


def test_curtain_structure_visit_bound(rng):
    n = 4096
    pts = distinct_random_points(rng, n, 2, 10 ** 6)
    s = build_curtain_structure(pts)
    logn = math.log2(n)
    worst = 0.0
    for c in gens.random_curtains(rng, 100, 10 ** 6):
        stats = QueryStats()
        got = curtain_query(s, c, stats)
        overhead = stats.work - len(got)
        worst = max(worst, overhead / logn ** 2)
    assert worst <= 32  # single logged constant across the run


# w + n / d with d in {1, 2, 3, 4096}.
_rats = st.builds(lambda w, n, d: w + F(n, d), st.integers(-4, 4),
                  st.integers(-64, 64), st.sampled_from([1, 2, 3, 4096]))


def _exact(v):
    return int(v) if v.denominator == 1 else v


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_curtain_structure_matches_reference_on_rationals(data):
    curtains = []
    for _ in range(data.draw(st.integers(1, 3))):
        lo, hi = data.draw(st.none() | _rats), data.draw(st.none() | _rats)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        curtains.append(Curtain(data.draw(_rats), data.draw(_rats), lo, hi))
    # A small pool of keys, so equal keys with different values (and, after
    # the tree puts a point over the lcm of its denominators, equal keys
    # over different denominators) are common; it holds every curtain end.
    pool = data.draw(st.lists(_rats, min_size=1, max_size=4))
    pool += [e for c in curtains for e in (c.lo, c.hi) if e is not None]
    # Each point is on a curtain's line, one 1/4096 or 1/3 step off it, or
    # anywhere (a drawn y).
    steps = st.sampled_from([0, F(1, 4096), F(-1, 4096), F(-1, 3)])
    specs = data.draw(st.lists(st.tuples(
        st.sampled_from(pool), st.sampled_from(curtains), steps,
        st.none() | _rats), max_size=30))
    pts = [pt(_exact(x), _exact(c.a * x + c.b + step if y is None else y))
           for x, c, step, y in specs]
    s = build_curtain_structure(pts)
    for c in curtains:
        want = [i for i, p in enumerate(pts) if reference_contains(c, p)]
        assert curtain_query(s, c) == want, c


@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20),
                          st.integers(1, 12)), max_size=40))
@settings(max_examples=300)
def test_slanted_tree_sorts_by_the_rationals(raw):
    # Small denominators put distinct keys such as 1/3 and 1/2 within
    # 1/max(q) of each other, so the integer order key must separate them.
    tree = SlantedRangeTree([(kn, vn, q, i)
                             for i, (kn, vn, q) in enumerate(raw)])
    got = [(F(kn, q), F(vn, q), p) for kn, vn, q, p in
           zip(tree.kn, tree.vn, tree.q, tree.payload)]
    assert got == sorted((F(kn, q), F(vn, q), i)
                         for i, (kn, vn, q) in enumerate(raw))


def test_slanted_tree_runs_no_fraction_arithmetic():
    # Keys kn / q and values vn / q over denominators 1, 2, 3 and 7, with
    # equal keys over different denominators; integer query parameters.
    entries = [(kn, vn, q, i) for i, (kn, vn, q) in enumerate(
        (kn, vn, q) for kn in range(-7, 8) for vn in (-5, 0, 4)
        for q in (1, 2, 3, 7))]
    queries = [(None, None, 1, 0), (-2, 1, -1, 2), (0, 0, 3, -1),
               (None, 2, 0, 1), (-1, None, 2, 3)]
    expected = [sorted(p for kn, vn, q, p in entries
                       if (lo is None or lo <= F(kn, q))
                       and (hi is None or F(kn, q) <= hi)
                       and F(vn, q) <= a * F(kn, q) + b)
                for lo, hi, a, b in queries]
    stats = QueryStats()
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            called.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        tree = SlantedRangeTree(entries)
        got = [sorted(tree.query(*q, stats)) for q in queries]
    finally:
        sys.setprofile(previous)
    assert called == []
    assert got == expected
    assert stats.entry_tests > 0 and any(got)
    assert any(len(g) < len(entries) for g in got)


def test_slanted_tree_pinned_query_stats():
    # 600 points over denominators 1, 2, 3, 7 and 4096 and 50 rational
    # curtains, some with an open end; SHA-256 of each query's sorted answer
    # with its (nodes_visited, entry_tests), as the recursive walk gave them.
    rng = random.Random("slanted-pinned")
    dens = (1, 2, 3, 7, 4096)

    def rat(r):
        d = rng.choice(dens)
        return F(rng.randint(-r * d, r * d), d)

    pts = [pt(rat(300), rat(300)) for _ in range(600)]
    curtains = []
    for _ in range(50):
        lo, hi = rat(300), rat(300)
        lo, hi = min(lo, hi), max(lo, hi)
        lo = None if rng.random() < 0.15 else lo
        hi = None if rng.random() < 0.15 else hi
        curtains.append(Curtain(F(rng.randint(-20, 20), rng.choice((1, 3))),
                                rat(300), lo, hi))
    s = build_curtain_structure(pts)
    rows = []
    for c in curtains:
        stats = QueryStats()
        got = curtain_query(s, c, stats)
        assert got == [i for i, p in enumerate(pts)
                       if reference_contains(c, p)]
        rows.append((got, stats.nodes_visited, stats.entry_tests))
    assert sum(len(r[0]) for r in rows) > 0
    assert any(r[2] > 0 for r in rows)
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == (
        "24c8a4e68f3e93c1d8baa668dd2917735c1af8dbc141ad9db2a0481d6dfb1bce")


def test_curtain_structure_storage(rng):
    n = 2048
    pts = distinct_random_points(rng, n, 2, 10 ** 5)
    s = build_curtain_structure(pts)
    assert s.stored_entries() <= 2 * n


# ---------------------------------------------------------------------------
# fat structure

def test_fat_structure_all_points():
    pts = [pt(i, j) for i in range(6) for j in range(6)]
    s = build_fat_structure(pts)
    tri = Triangle(pt(-100, -100), pt(100, -100), pt(0, 140))
    got, stats = fat_query(s, tri)
    assert got == list(range(36))


def test_fat_structure_empty_region():
    pts = [pt(i, 0) for i in range(10)]
    s = build_fat_structure(pts)
    tri = Triangle(pt(0, 50), pt(10, 50), pt(5, 60))
    got, _ = fat_query(s, tri)
    assert got == []


def _thin_triangle(rng, span):
    """A triangle whose third vertex is at most one unit per axis off the
    segment between the first two, so it is thin (or of zero area)."""
    ax, ay = rng.randint(-span, span), rng.randint(-span, span)
    bx, by = rng.randint(-span, span), rng.randint(-span, span)
    t = F(rng.randint(0, 64), 64)
    cx = ax + t * (bx - ax) + F(rng.randint(-64, 64), 64)
    cy = ay + t * (by - ay) + F(rng.randint(-64, 64), 64)
    return Triangle(pt(ax, ay), pt(bx, by), pt(cx, cy))


def _collinear_triangle(rng, span):
    ax, ay = rng.randint(-span, span), rng.randint(-span, span)
    dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
    s, t = rng.randint(-40, 40), rng.randint(-40, 40)
    return Triangle(pt(ax, ay), pt(ax + s * dx, ay + s * dy),
                    pt(ax + t * dx, ay + t * dy))


def test_fat_answers_thin_and_zero_area_queries(rng):
    # There is no fatness gate: every triangle, however thin, is answered
    # exactly; only the work bound assumes a fat query.
    pts = [pt(0, 0), pt(1, 1), pt(50, 0), pt(100, 0), pt(100, 1), pt(99, 1),
           pt(100, 2), pt(50, 1)]
    s = build_fat_structure(pts)
    sliver = Triangle(pt(0, 0), pt(100, 0), pt(100, 1))
    assert min_angle(sliver) < 0.01
    got, _ = fat_query(s, sliver)
    assert got == [i for i, p in enumerate(pts)
                   if reference_contains(sliver, p)]
    assert got == [0, 2, 3, 4]
    hits = 0
    for trial in range(20):
        # Random lattice points plus points on y = 2x, which the last,
        # zero-area query runs along.
        span = rng.choice([10, 60, 250])
        pts = gens.random_points(rng, rng.randint(1, 150), 2, span)
        pts += [pt(i, 2 * i) for i in range(-span // 2, span // 2, 3)]
        s = build_fat_structure(pts)
        queries = ([_thin_triangle(rng, span) for _ in range(6)]
                   + [_collinear_triangle(rng, span) for _ in range(4)]
                   + [Triangle(pt(-span, -2 * span), pt(span, 2 * span),
                               pt(0, 0))])
        for tri in queries:
            got, _ = fat_query(s, tri)
            want = [i for i, p in enumerate(pts) if reference_contains(tri, p)]
            assert got == want, (trial, tri)
            hits += len(want)
    assert hits > 100


def test_fat_zero_area_query_takes_no_apex_path():
    # A collinear query: every node's apex lies in it, but it has no apex
    # cells; the leaf tests decide.
    pts = [pt(i, i) for i in range(200)] + [pt(i, 0) for i in range(200)]
    s = build_fat_structure(pts)
    tri = Triangle(pt(-5, -5), pt(300, 300), pt(100, 100))
    got, stats = fat_query(s, tri)
    want = [i for i, p in enumerate(pts) if contains(tri, p)]
    assert len(want) == 201
    assert got == want
    assert stats.curtain_answers == 0


def _random_rat(rng, span):
    """An integer in [-span, span], or a rational of denominator 2, 3, 7 or
    4096 in about that range."""
    if rng.random() < 0.5:
        return rng.randint(-span, span)
    return F(rng.randint(-6 * span, 6 * span), rng.choice([2, 3, 7, 4096]))


def test_fat_query_stratum_matches_fraction_reference():
    seen = set()
    outside = zero_area = 0
    for seed in range(16):
        rng = random.Random(f"stratum:{seed}")
        span = rng.choice([10, 300, 10 ** 6])
        n = rng.randint(1, 80)
        if seed % 2:
            pts = [pt(_random_rat(rng, span), _random_rat(rng, span))
                   for _ in range(n)]
        else:
            pts = gens.random_points(rng, n, 2, span)
        s = build_fat_structure(pts)
        queries = [gens.random_fat_triangle(rng, math.pi / 6,
                                            center_range=span,
                                            scale_range=(1.0, 1.5 * span),
                                            grid=rng.choice([1, 7]))
                   for _ in range(4)]
        # Small triangles around a point, of integer and rational sides.
        for _ in range(8):
            x, y = rng.choice(pts)
            e = F(1, rng.choice([1, 3, 64, 4096]))
            queries.append(Triangle(pt(x - e, y - e), pt(x + 2 * e, y - e),
                                    pt(x, y + 2 * e)))
        # Far outside the core square, and of zero area.
        queries.append(Triangle(pt(100 * span, 0), pt(100 * span + 5, 1),
                                pt(100 * span, F(7, 3))))
        x, y = rng.choice(pts)
        queries.append(Triangle(pt(x, y), pt(x + 3, y + F(1, 3)),
                                pt(x - 6, y - F(2, 3))))
        for tri in queries:
            got, stats = fat_query(s, tri)
            want = reference_stratum(pts, tri)
            assert stats.stratum == want, (seed, tri)
            assert got == [i for i, p in enumerate(pts)
                           if reference_contains(tri, p)], (seed, tri)
            seen.add(want)
            outside += any(abs(c) > 2 * span for v in tri.vertices
                           for c in v)
            zero_area += tri.signed_area2() == 0
    assert seen == {0, 1, 2}
    assert outside and zero_area


def test_fat_query_without_an_apex_path_makes_no_fraction():
    # The seed-7919 `fat` benchmark instance: 640 integer points and 28
    # triangles with vertices on the 1/4096 grid, two answered through the
    # slanted trees; one more query has integer vertices.
    rng = random.Random("fat:7919")
    pts = gens.random_points(rng, 640, 2)
    tris = gens.random_fat_triangles(rng, 28, math.pi / 6)
    tris.append(Triangle(pt(-30, -20), pt(40, -25), pt(2, 50)))
    s = build_fat_structure(pts)
    made = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "__new__"
                and frame.f_code.co_filename == fractions.__file__):
            made[-1] += 1

    apex_paths = 0
    for tri in tris:
        made.append(0)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            got, stats = fat_query(s, tri)
        finally:
            sys.setprofile(previous)
        assert got == [i for i, p in enumerate(pts)
                       if reference_contains(tri, p)]
        # The apex path builds its curtain parameters as fractions, which
        # shows that the watch sees them.
        assert (made[-1] > 0) == (stats.curtain_answers > 0), tri
        apex_paths += stats.curtain_answers > 0
    assert apex_paths == 2


def test_fat_structure_vs_bruteforce(rng):
    for trial in range(25):
        n = rng.randint(1, 150)
        pts = gens.random_points(rng, n, 2, 250)
        s = build_fat_structure(pts)
        for q in range(6):
            tri = gens.random_fat_triangle(rng, math.pi / 6, 250,
                                           (5.0, 500.0))
            got, stats = fat_query(s, tri)
            want = sorted(i for i, p in enumerate(pts) if contains(tri, p))
            assert got == want, (trial, q)


def test_fat_structure_duplicate_points():
    pts = [pt(3, 4)] * 60 + [pt(10, 10)]
    s = build_fat_structure(pts)
    assert s.degenerate
    tri = Triangle(pt(0, 0), pt(8, 0), pt(4, 8))
    got, _ = fat_query(s, tri)
    assert got == list(range(60))


def test_fat_structure_storage_and_depth(rng):
    n = 1024
    pts = distinct_random_points(rng, n, 2, 10 ** 6)
    s = build_fat_structure(pts)
    assert s.stored_entries() <= 8 * n * math.log2(n)
    assert s.max_depth() <= math.log(n / 8) / math.log(1.25) + 2


def test_min_angle_equilateral():
    tri = Triangle(pt(0, 0), pt(4, 0), pt(2, 3))
    assert abs(min_angle(tri) - math.atan2(3, 2)) < 0.2
    assert min_angle(Triangle(pt(0, 0), pt(1, 0), pt(2, 0))) == 0.0


def test_fat_storage_constant_across_sizes(rng):
    # One constant bounds storage across the size sweep.
    for exp in (8, 10, 12, 14):
        n = 2 ** exp
        pts = distinct_random_points(rng, n, 2, 10 ** 6)
        s = build_fat_structure(pts)
        assert s.stored_entries() <= 8 * n * math.log2(n), n
