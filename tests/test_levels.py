import math
import random
from fractions import Fraction as F

import pytest

from kkfree import generators as gens
from kkfree.errors import (DimensionMismatchError, InvalidInputError,
                           NotApplicableError, UnknownVerdictError)
from kkfree.geometry import Ball, Box, Halfspace, Hyperplane, Point, pt
from kkfree.incidence import find_kkk, incidences_bruteforce
from kkfree.levels import (CensusRow, _ceil_root, census_rows,
                           census_schedule, depth, depth_census,
                           iterated_log2, level, shallow_census)

from conftest import reference_contains


def test_level_worked():
    hs = [Hyperplane((0,), 0), Hyperplane((0,), 2)]
    assert level(pt(0, 1), hs) == 1


def test_level_below_all():
    hs = [Hyperplane((1,), 0), Hyperplane((-1,), 0)]
    assert level(pt(0, -5), hs) == 0


def test_level_counts_boundary():
    hs = [Hyperplane((0,), 1), Hyperplane((0,), 5)]
    assert level(pt(0, 1), hs) == 1  # on the first, below the second


def test_depth_basics():
    disks = [Ball(pt(0, 0), 4), Ball(pt(1, 0), 4), Ball(pt(10, 10), 1)]
    assert depth(pt(0, 0), disks) == 2
    assert depth(pt(0, 0), []) == 0


def test_depth_rejects_a_shape_of_another_dimension():
    shapes = [Ball(pt(0, 0), 4), Box((0, 0, 0), (1, 1, 1))]
    with pytest.raises(DimensionMismatchError):
        depth(pt(0, 0), shapes)


def test_depth_matches_sum(rng):
    shapes = gens.random_balls(rng, 20, 2, 50, 40)
    for p in gens.random_points(rng, 50, 2, 60):
        assert depth(p, shapes) == sum(reference_contains(s, p)
                                       for s in shapes)


def test_shallow_census_all_zero():
    pts = [pt(0, -100), pt(1, -50)]
    halfspaces = [Halfspace(Hyperplane((0,), 0), "upper") for _ in range(8)]
    [row] = shallow_census(pts, halfspaces, 2, [2])
    assert row.observed == 0


def test_shallow_census_band_and_reference():
    # Summit point above all 8 boundaries: level 8, band [m/r, 2m/r) = [4, 8)
    # misses it; closed band [4, 8] catches it.
    halfspaces = [Halfspace(Hyperplane((s,), 0), "upper")
                  for s in (1, -1, 2, -2, 3, -3, 4, -4)]
    pts = [pt(0, 1), pt(50, -10 ** 6)]
    [row] = shallow_census(pts, halfspaces, 2, [2])
    assert row.observed == 0 and row.observed_closed == 1
    assert row.reference == 4.0  # k * r^(d//2) = 2 * 2


def test_shallow_census_requires_upper():
    pts = [pt(0, 0)]
    halfspaces = [Halfspace(Hyperplane((0,), 0), "upper")] * 4
    halfspaces[2] = Halfspace(Hyperplane((0,), 0), "lower")
    with pytest.raises(InvalidInputError, match="^shallow census needs "
                       "upper halfspaces: range 2 is lower$"):
        shallow_census(pts, halfspaces, 1, [2])


def test_shallow_census_rejects_non_halfspaces():
    upper = Halfspace(Hyperplane((0,), 0), "upper")
    with pytest.raises(InvalidInputError, match="^shallow census needs "
                       "upper halfspaces: range 1 is not a Halfspace$"):
        shallow_census([pt(0, 0)], [upper, Box((0, 0), (1, 1))] * 2, 1, [2])


def test_shallow_census_rejects_kkk():
    pts = [pt(0, 10), pt(1, 10)]
    halfspaces = [Halfspace(Hyperplane((0,), 0), "upper")] * 8
    with pytest.raises(NotApplicableError):
        shallow_census(pts, halfspaces, 2, [2])


def test_depth_census_disjoint_shapes():
    shapes = [Ball(pt(10 * i, 0), 1) for i in range(8)]
    pts = [pt(10 * i, 0) for i in range(4)]
    [row] = depth_census(pts, shapes, 2, [2], lambda r: r)
    assert row.observed == 0  # band [4, 8): depths are all <= 1


def test_census_constructed_family():
    pts, halfplanes = gens.census_halfplane_instance(64)
    g = incidences_bruteforce(pts, halfplanes)
    assert find_kkk(g, 2).free
    bounds = [h.boundary for h in halfplanes]
    levels = [level(p, bounds) for p in pts]
    assert max(levels) >= 8  # the summit is genuinely deep
    rows = shallow_census(pts, halfplanes, 2, [2, 4, 8, 16])
    assert [row.r for row in rows] == [2, 4, 8, 16]
    for row in rows:
        assert row.ratio is None or row.ratio <= 32


def _row_from_values(values, m, k, r, reference):
    lo = F(m) / F(r)
    observed = sum(1 for v in values if lo <= v < 2 * lo)
    closed = sum(1 for v in values if lo <= v <= 2 * lo)
    ref = float(k) * reference(float(F(r)))
    return CensusRow(r, observed, closed, ref, observed / ref if ref else None)


def _census_cases():
    """(name, points, ranges, per-point values, reference) over seeded
    halfplane, 3D halfspace and ball instances.  Each random instance has
    three deep points among shallow ones, so small k finds a K_{k,k} and
    larger k leaves a free graph whose bands are not all empty."""
    pts, halfplanes = gens.census_halfplane_instance(32)
    bounds = [h.boundary for h in halfplanes]
    yield ("census-halfplanes", pts, halfplanes,
           [level(p, bounds) for p in pts], lambda r: r)
    for seed in (1, 7919):
        rng = random.Random(seed)
        for d in (2, 3):
            hs = gens.random_halfspaces(rng, 24, d, side="upper")
            pts = [Point(tuple(rng.randint(-1000, 1000) for _ in range(d - 1))
                         + (rng.randint(-20000, 40000) if i < 3
                            else rng.randint(-20000, -10000),))
                   for i in range(16)]
            bounds = [h.boundary for h in hs]
            yield (f"halfspaces-d{d}-{seed}", pts, hs,
                   [level(p, bounds) for p in pts],
                   lambda r, d=d: r ** (d // 2))
            balls = gens.random_balls(rng, 24, d, 100, 200)
            pts = (gens.random_points(rng, 3, d, 30)
                   + gens.random_points(rng, 13, d, 300))
            yield (f"balls-d{d}-{seed}", pts, balls,
                   [depth(p, balls) for p in pts], lambda r: 2 * r)


def test_census_rows_match_per_point_oracle():
    statuses = set()
    hits = 0
    for name, pts, ranges, values, reference in _census_cases():
        m = len(ranges)
        graph = incidences_bruteforce(pts, ranges)
        shallow = isinstance(ranges[0], Halfspace)
        for k, budget in ((2, 200_000), (4, 200_000), (6, 200_000), (4, 1)):
            rs = [F(r, 2) for r in range(2, m // k + 1)]
            verdict = find_kkk(graph, k, budget)
            status = verdict.status
            statuses.add(status)
            if shallow:
                run = lambda: shallow_census(pts, ranges, k, rs, budget)
            else:
                run = lambda: depth_census(pts, ranges, k, rs, reference,
                                           budget)
            direct = lambda: census_rows(graph, k, rs, reference, budget)
            if status == "free":
                want = [_row_from_values(values, m, k, r, reference)
                        for r in rs]
                assert run() == want, (name, k)
                assert direct() == want, (name, k)
                hits += sum(row.observed for row in want)
            else:
                error = (NotApplicableError if status == "found"
                         else UnknownVerdictError)
                for call in (run, direct):
                    with pytest.raises(error) as caught:
                        call()
                    if status == "found":
                        assert caught.value.witness == (verdict.points,
                                                        verdict.ranges)
    assert statuses == {"free", "found", "unknown"}
    assert hits > 0


def test_census_rows_rejects_r_before_search():
    # The graph holds a K_{2,2}, so only an up-front r check gives
    # InvalidInputError rather than NotApplicableError.
    pts = [pt(0, 10), pt(1, 10)]
    graph = incidences_bruteforce(
        pts, [Halfspace(Hyperplane((0,), 0), "upper")] * 8)
    for rs in ([0], [-2], [F(1, 2)], [2, 3], [1, 2, 0]):
        with pytest.raises(InvalidInputError):
            census_rows(graph, 2, rs, lambda r: r)
    with pytest.raises(InvalidInputError):
        census_rows(graph, 0, [1], lambda r: r)
    with pytest.raises(NotApplicableError):
        census_rows(graph, 2, [1, 2], lambda r: r)


# ---------------------------------------------------------------------------
# schedules

def test_schedule_starts_at_2k():
    for k in (1, 2, 5, 64):
        for mode in ("general", "fat"):
            s = census_schedule(k, 4 * k, mode)
            assert s[0] == 2 * k


def test_schedule_general_worked():
    s = census_schedule(2, 16, "general", c=4)
    assert s[0] == 4
    assert s[-1] >= 16
    assert len(s) <= 4


def test_schedule_fat_small_constant_plus_logstar():
    s = census_schedule(2, 2 ** 16, "fat")
    assert s[-1] >= 2 ** 16
    assert len(s) <= 6 + iterated_log2(2 ** 16)


@pytest.mark.parametrize("c", [1, 0, -3])
def test_schedule_general_rejects_c_below_two(c):
    # c = 1 divides by c - 1; c <= 0 would grow by one per step.
    with pytest.raises(InvalidInputError, match="c >= 2"):
        census_schedule(2, 64, "general", c)


def test_schedule_general_c_two():
    s = census_schedule(2, 64, "general", 2)
    assert s == (4, 8, 16, 256)
    assert census_schedule(2, 64, "fat", 2)[-1] >= 64


def test_schedule_general_step_is_an_integer_root():
    # The step is the least s with s^(c-1) >= t^c; a float power gave
    # 64^(7/6) as 128.00000000000003, so 129.
    assert _ceil_root(64 ** 7, 6) == 128
    assert _ceil_root(276709604421 ** 3, 2) == 145558090693231443
    for e in (1, 2, 3, 6):
        for x in range(1, 800):
            s = _ceil_root(x, e)
            assert (s - 1) ** e < x <= s ** e
    # The k = 2, m = 64 schedules are as before.
    assert census_schedule(2, 64, "general", 3) == (
        4, 8, 16, 32, 182)
    assert census_schedule(2, 64, "general", 4) == (
        4, 8, 16, 32, 64)


@pytest.mark.parametrize("c", [1, 0, -5])
def test_schedule_fat_rejects_c_below_two(c):
    # The fat recurrence does not read c, but a c the general mode rejects
    # is rejected here too.
    with pytest.raises(InvalidInputError, match="c >= 2"):
        census_schedule(2, 64, "fat", c)


def test_schedule_fat_ignores_a_valid_c():
    # Thresholds as before the c check was shared by both modes.
    for c in (2, 4, 9):
        assert census_schedule(2, 64, "fat", c) == (4, 8, 16, 32, 64)
        assert census_schedule(5, 10 ** 6, "fat", c) == (
            10, 20, 40, 80, 160, 320, 640, 2546, 10 ** 6)
        assert census_schedule(1, 2, "fat", c) == (2,)


def test_schedule_fat_past_the_float_range():
    # 2^sqrt(t/k) past 2^1024 (m = 10^340), and t/k itself past the float
    # range (m = 10^2000 and 10^4000), below m.
    for k in (1, 2, 3, 5, 8, 100):
        for m in (10 ** 340, 10 ** 400, 10 ** 2000, 10 ** 4000):
            th = census_schedule(k, m, "fat")
            assert all(a < b for a, b in zip(th, th[1:])), (k, m)
            assert th[-1] >= m, (k, m)
    assert census_schedule(5, 10 ** 340, "fat")[:9] == (
        10, 20, 40, 80, 160, 320, 640, 2546, 6206982)


def test_schedule_rejects_small_m():
    with pytest.raises(InvalidInputError):
        census_schedule(4, 7)


def test_schedule_lengths_over_sweep():
    # Explicit inequalities with constants frozen from a reference sweep
    # (worst observed ratios ~2.13 general, ~1.5 fat).
    for k in (1, 2, 3, 4, 8, 16, 32, 64):
        for log_m in range(int(math.log2(2 * k)) + 1, 21):
            m = 2 ** log_m
            if m < 2 * k:
                continue
            g = census_schedule(k, m, "general")
            assert all(a < b for a, b in zip(g, g[1:]))
            assert g[-1] >= m
            ref = max(1.0, math.log2(k)) + math.log2(max(2, math.log2(m)))
            assert len(g) <= 3 * ref + 2, (k, m, len(g))
            f = census_schedule(k, m, "fat")
            assert all(a < b for a, b in zip(f, f[1:]))
            assert f[-1] >= m
            ref_f = max(1.0, math.log2(max(2.0, math.log2(k)))) \
                + iterated_log2(m)
            assert len(f) <= 2 * ref_f + 4, (k, m, len(f))


def test_iterated_log():
    assert iterated_log2(1) == 0
    assert iterated_log2(2) == 1
    assert iterated_log2(16) == 3
    assert iterated_log2(2 ** 16) == 4
