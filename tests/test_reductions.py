from fractions import Fraction as F

import pytest

from kkfree import generators as gens
from kkfree.errors import DimensionMismatchError, InvalidInputError
from kkfree.geometry import (Box, Curtain, Line2, Point, Polyhedron, Triangle,
                             Wedge2, Wedge3, contains, pt)
from kkfree.incidence import incidences_bruteforce
from kkfree.packed import pack_columns
from kkfree.reductions import (apex_cell_constraints, balls_to_halfspaces,
                               origin_triangle_to_curtain,
                               orthants_to_halfspaces, pointline_to_5d,
                               polyhedra_to_boxes, threesided_to_orthants,
                               transform_point_cell, wedge_dual, wedge_lift)


def test_polyhedra_identity_frame(rng):
    # Axis-aligned frame: the map is the identity on coordinates.
    normals = ((1, 0), (0, 1))
    polys = [Polyhedron(normals, (0, 0), (2, 2))]
    red = polyhedra_to_boxes([pt(1, 1)], polys)
    assert red.target_points[0] == pt(1, 1)
    assert red.verify()


def test_polyhedra_strips_worked():
    normals = ((1, 0), (1, 1))
    polys = [Polyhedron(normals, (0, 1), (2, 4))]
    red = polyhedra_to_boxes([pt(1, 2)], polys)
    assert red.target_points[0] == pt(1, 3)  # dot products
    assert red.verify()


def test_polyhedra_frame_mismatch():
    polys = [Polyhedron(((1, 0),), (0,), (1,)),
             Polyhedron(((0, 1),), (0,), (1,))]
    with pytest.raises(InvalidInputError):
        polyhedra_to_boxes([pt(0, 0)], polys)


def test_polyhedra_random(rng):
    normals = ((1, 0, 0), (0, 1, 1), (1, 1, 0))
    for _ in range(25):
        pts = gens.random_points(rng, 25, 3, 60)
        polys = gens.random_polyhedra(rng, 15, normals, 120, 100)
        assert polyhedra_to_boxes(pts, polys).verify()


def test_threesided_worked():
    red = threesided_to_orthants([pt(2, 5)], [Box((1, None), (3, 6))])
    assert red.target_points[0] == pt(-2, 2, 5)
    orthant = red.target_ranges[0]
    assert orthant.highs == (-1, 3, 6)
    assert red.verify()


def test_threesided_outside_interval():
    red = threesided_to_orthants([pt(5, 0)], [Box((1, None), (3, 6))])
    assert not contains(red.target_ranges[0], red.target_points[0])
    assert red.verify()


def test_threesided_rejects_four_sided():
    with pytest.raises(InvalidInputError):
        threesided_to_orthants([pt(0, 0)], [Box((0, 0), (1, 1))])


def test_threesided_random(rng):
    for _ in range(25):
        pts = gens.random_points(rng, 30, 2, 100)
        rects = gens.random_threesided(rng, 20, 100, 80)
        assert threesided_to_orthants(pts, rects).verify()


def test_orthants_worked_equality_case():
    # p == q componentwise: the sum is exactly 3 (boundary incidence).
    red = orthants_to_halfspaces([pt(7, -2, 4)],
                                 [Box((None,) * 3, (7, -2, 4))])
    hs = red.target_ranges[0]
    p5 = red.target_points[0]
    from kkfree.geometry import dot
    assert dot(hs.coeffs, p5.coords) == 3
    assert red.verify()


def test_orthants_dominating_term():
    # One coordinate beyond the corner: a single term is already 4 > 3.
    red = orthants_to_halfspaces([pt(3, 0, 0)],
                                 [Box((None,) * 3, (2, 9, 9))])
    from kkfree.geometry import dot
    assert dot(red.target_ranges[0].coeffs, red.target_points[0].coords) > 3
    assert red.verify()


def test_orthants_random(rng):
    for _ in range(25):
        pts = gens.random_points(rng, 25, 3, 40)
        orthants = gens.random_orthants(rng, 20, 40)
        assert orthants_to_halfspaces(pts, orthants).verify()


def test_orthants_target_points_are_ints(rng):
    # Powers of four as ints, so the oracle scans packed columns of the
    # target points, as it does for the same points reloaded from a file.
    red = orthants_to_halfspaces(gens.random_points(rng, 25, 3, 40),
                                 gens.random_orthants(rng, 20, 40))
    coords = [p.coords for p in red.target_points]
    assert {type(c) for p in coords for c in p} == {int}
    assert pack_columns(coords) is not None


def test_balls_random(rng):
    for d in (2, 3):
        for _ in range(15):
            pts = gens.random_points(rng, 25, d, 60)
            balls = gens.random_balls(rng, 15, d, 60, 50)
            assert balls_to_halfspaces(pts, balls).verify()


def test_pointline_worked():
    # (1, 1) on y = x gives value 0 <= eps; (0, 1) off it gives 1 > eps.
    red = pointline_to_5d([pt(1, 1), pt(0, 1)], [Line2(1, 0)])
    src = incidences_bruteforce(red.source_points, red.source_ranges)
    assert src.edges == {(0, 0)}
    assert red.verify()
    assert F(red.certificate.notes["eps"]) < 1


def test_pointline_all_incident():
    red = pointline_to_5d([pt(0, 0), pt(1, 1)], [Line2(1, 0)])
    assert red.verify()


def _brute_eps(points, lines):
    squares = [(p[1] - ln.a * p[0] - ln.b) ** 2 for ln in lines for p in points]
    positive = [sq for sq in squares if sq != 0]
    return F(min(positive)) / 2 if positive else F(1, 2)


def test_pointline_eps_matches_all_pairs(rng):
    values = [0, 1, -2, 3, F(1, 2), F(-5, 3), F(7, 4)]
    for trial in range(60):
        n = rng.randint(1, 25)
        xs = rng.sample(values, rng.randint(1, 4))
        pts = [pt(rng.choice(xs), rng.choice(values)) for _ in range(n)]
        pts += rng.sample(pts, rng.randint(0, len(pts)))  # duplicates
        lines = [Line2(rng.choice(values), rng.choice(values))
                 for _ in range(rng.randint(1, 6))]
        # A line through a point: residual 0 there, skipped.
        x, y = rng.choice(pts).coords
        lines.append(Line2(1, y - x))
        eps = pointline_to_5d(pts, lines).certificate.notes["eps"]
        assert F(eps) == _brute_eps(pts, lines), trial


def test_pointline_eps_edge_cases():
    # One point per column, every pair incident, and columns whose y values
    # all lie on one side of c = a x + b.
    cases = [([pt(0, 5)], [Line2(2, 1)], F(8)),
             ([pt(0, 0), pt(1, 1), pt(2, 2)], [Line2(1, 0)], F(1, 2)),
             ([pt(0, 0), pt(0, 0)], [Line2(3, 0), Line2(-1, 0)], F(1, 2)),
             ([pt(1, 3), pt(1, 4), pt(1, F(9, 2))], [Line2(1, 1)], F(1, 2)),
             ([pt(1, 0), pt(1, 1), pt(1, 2)], [Line2(0, F(7, 4))], F(1, 32))]
    for pts, lines, want in cases:
        assert _brute_eps(pts, lines) == want
        assert F(pointline_to_5d(pts, lines).certificate.notes["eps"]) == want


def test_pointline_random(rng):
    for _ in range(25):
        pts = gens.random_points(rng, 20, 2, 30)
        lines = [Line2(rng.randint(-5, 5), rng.randint(-30, 30))
                 for _ in range(15)]
        assert pointline_to_5d(pts, lines).verify()


def test_wedge_dual_worked():
    p = pt(1, 2, 3)
    w = Wedge3(2, 1, 4)
    assert contains(w, p)
    red = wedge_dual([p], [w])
    # wedge -> point (a, -b, -c); point -> wedge (px, -py, -pz)
    assert red.target_points[0] == pt(2, -1, -4)
    tw = red.target_ranges[0]
    assert (tw.a, tw.b, tw.c) == (1, -2, -3)
    assert contains(tw, red.target_points[0])
    assert red.verify()


def test_wedge_dual_involution(rng):
    pts = gens.random_points(rng, 15, 3, 40)
    wedges = gens.random_wedges3(rng, 12, 40)
    once = wedge_dual(pts, wedges)
    twice = wedge_dual(once.target_points, once.target_ranges)
    src = incidences_bruteforce(pts, wedges)
    back = incidences_bruteforce(twice.target_points, twice.target_ranges)
    assert src.edges == back.edges  # double swap restores the pattern


def test_wedge_dual_random(rng):
    for _ in range(25):
        pts = gens.random_points(rng, 20, 3, 60)
        wedges = gens.random_wedges3(rng, 15, 60)
        assert wedge_dual(pts, wedges).verify()


def test_verify_rejects_a_changed_incidence(rng):
    # One target range moved off its image, with and without swapped sides:
    # the rows differ, so neither certificate verifies.
    pts = gens.random_points(rng, 20, 3, 60)
    red = wedge_dual(pts, gens.random_wedges3(rng, 15, 60))
    assert red.certificate.swapped_sides and red.verify()
    assert incidences_bruteforce(red.target_points, red.target_ranges).rows[0]
    w = red.target_ranges[0]
    red.target_ranges[0] = type(w)(w.a, w.b - 10 ** 6, w.c)
    assert not red.verify()
    red = polyhedra_to_boxes([pt(1, 1), pt(2, 2)],
                             [Polyhedron(((1, 0), (0, 1)), (0, 0), (3, 3))])
    assert not red.certificate.swapped_sides and red.verify()
    red.target_points[1] = Point((100, 100))
    assert not red.verify()


def test_wedge_lift_boundary():
    red = wedge_lift([pt(1, 2)], [Wedge2(1, 1, 1)])
    assert red.target_points[0] == pt(1, 2, 1)
    assert contains(red.target_ranges[0], red.target_points[0])
    assert red.verify()


def test_wedge_lift_random(rng):
    for _ in range(25):
        pts = gens.random_points(rng, 20, 2, 60)
        wedges = gens.random_wedges2(rng, 15, 60)
        assert wedge_lift(pts, wedges).verify()


# ---------------------------------------------------------------------------
# origin triangles

def test_origin_triangle_worked():
    tri = Triangle(pt(0, 0), pt(2, 0), pt(2, 2))
    p = Point((1, F(1, 2)))
    red = origin_triangle_to_curtain([p], [tri])
    cell = red.cells[0]
    assert cell.sigma == 1
    # Image of p under (x, y) -> (y/x, -1/x).
    assert cell.target_points[0] == Point((F(1, 2), F(-1)))
    curtain = cell.target_curtains[0]
    assert (curtain.lo, curtain.hi) == (0, 1)  # slope band of the two edges
    assert curtain.a == 0 and curtain.b == F(-1, 2)  # vertical far edge
    assert red.verify()


def test_origin_triangle_boundary_point():
    tri = Triangle(pt(0, 0), pt(2, 0), pt(2, 2))
    p = pt(1, 1)  # on the edge y = x
    red = origin_triangle_to_curtain([p], [tri])
    u, v = transform_point_cell(p, 1)
    assert u == 1  # boundary of the slope band
    assert red.verify()


def test_origin_triangle_requires_origin_vertex():
    with pytest.raises(InvalidInputError):
        origin_triangle_to_curtain([pt(1, 1)],
                                   [Triangle(pt(1, 0), pt(2, 0), pt(2, 2))])


def test_origin_triangle_vertical_points():
    tri = Triangle(pt(0, 0), pt(-1, 2), pt(1, 2))
    pts = [pt(0, 1), pt(0, 5), Point((F(1, 2), 1))]
    red = origin_triangle_to_curtain(pts, [tri])
    assert set(red.vertical_indices) == {0, 1}
    assert red.verify()


@pytest.mark.parametrize("sigma", [1, -1])
def test_origin_triangle_verify_rejects_a_changed_curtain(sigma):
    # (1, 1/2) lies in the triangle, (-1, 1) does not; the changed curtain
    # drops the image (1/2, -1) of the first, or takes in the image (1, -1)
    # of the second where the triangle's cell was empty.
    tri = Triangle(pt(0, 0), pt(2, 0), pt(2, 2))
    red = origin_triangle_to_curtain([Point((1, F(1, 2))), pt(-1, 1)], [tri])
    assert red.verify()
    [cell] = [c for c in red.cells if c.sigma == sigma]
    assert (cell.target_curtains[0] is None) == (sigma == -1)
    cell.target_curtains[0] = Curtain(0, -2 if sigma == 1 else 5, None, None)
    assert not red.verify()


def test_origin_triangle_random(rng):
    for trial in range(40):
        pts = [p for p in gens.random_points(rng, 25, 2, 50) if p[0] != 0]
        tris = gens.random_origin_triangles(rng, 12, 40)
        red = origin_triangle_to_curtain(pts, tris)
        assert red.verify(), trial


def test_apex_cell_constraints_empty_cell():
    # Triangle entirely in x < 0 never meets the positive cell.
    assert apex_cell_constraints((-1, 1), (-1, -1), 1) == "empty"


def test_apex_cell_constraints_degenerate():
    assert apex_cell_constraints((1, 1), (2, 2), 1) == "degenerate"


def test_threesided_other_orientations(rng):
    # y-high: [a,b] x [h, inf)
    for _ in range(10):
        pts = gens.random_points(rng, 25, 2, 80)
        rects = [Box((rng.randint(-80, 0), rng.randint(-80, 80)),
                     (rng.randint(1, 80), None)) for _ in range(12)]
        red = threesided_to_orthants(pts, rects)
        assert red.certificate.notes["orientation"] == "y-high"
        assert red.verify()
    # x-low: (-inf, b] x [c, d]
    for _ in range(10):
        pts = gens.random_points(rng, 25, 2, 80)
        rects = [Box((None, rng.randint(-80, 0)),
                     (rng.randint(-40, 80), rng.randint(1, 80)))
                 for _ in range(12)]
        red = threesided_to_orthants(pts, rects)
        assert red.certificate.notes["orientation"] == "x-low"
        assert red.verify()
    # x-high: [a, inf) x [c, d]
    for _ in range(10):
        pts = gens.random_points(rng, 25, 2, 80)
        rects = [Box((rng.randint(-80, 40), rng.randint(-80, 0)),
                     (None, rng.randint(1, 80))) for _ in range(12)]
        red = threesided_to_orthants(pts, rects)
        assert red.certificate.notes["orientation"] == "x-high"
        assert red.verify()


def test_threesided_mixed_orientations_rejected(rng):
    rects = [Box((0, None), (1, 1)), Box((0, 0), (1, None))]
    with pytest.raises(InvalidInputError):
        threesided_to_orthants([pt(0, 0)], rects)


def test_orthants_reflected_orientation(rng):
    # Orthants of the form [qx, inf) x (-inf, qy] x [qz, inf).
    for _ in range(10):
        pts = gens.random_points(rng, 20, 3, 40)
        orthants = [Box((rng.randint(-40, 40), None, rng.randint(-40, 40)),
                        (None, rng.randint(-40, 40), None))
                    for _ in range(15)]
        red = orthants_to_halfspaces(pts, orthants)
        assert red.certificate.notes["reflected_axes"] == [0, 2]
        assert red.verify()


def test_orthants_mixed_rejected():
    orthants = [Box((None, None, None), (1, 1, 1)),
                Box((1, None, None), (None, 1, 1))]
    with pytest.raises(InvalidInputError):
        orthants_to_halfspaces([pt(0, 0, 0)], orthants)


@pytest.mark.parametrize("reduce, points, ranges, message", [
    (threesided_to_orthants, [pt(0, 0)],
     [Box((0, None), (1, 1)), Box((0, None, None), (1, 1, 1))],
     "range 1 has dimension 3, not 2"),
    (orthants_to_halfspaces, [pt(0, 0, 0)],
     [Box((None,) * 3, (1,) * 3), Box((None,) * 2, (1,) * 2)],
     "range 1 has dimension 2, not 3"),
    (pointline_to_5d, [pt(0, 0), pt(1, 1), pt(1, 1, 1)], [Line2(1, 0)],
     "point 2 has dimension 3, not 2"),
], ids=["threesided", "orthants", "pointline"])
def test_reductions_name_the_last_object_of_another_dimension(
        reduce, points, ranges, message):
    with pytest.raises(DimensionMismatchError, match=message):
        reduce(points, ranges)


def test_reductions_preserve_freeness_verdict(rng):
    # Isomorphic graphs must give identical biclique verdicts.
    from kkfree.incidence import find_kkk
    for _ in range(10):
        pts = gens.random_points(rng, 18, 2, 60)
        rects = gens.random_threesided(rng, 14, 60, 50)
        red = threesided_to_orthants(pts, rects)
        assert red.verify()
        src = incidences_bruteforce(pts, rects)
        tgt = incidences_bruteforce(red.target_points, red.target_ranges)
        for k in (2, 3):
            assert find_kkk(src, k).status == find_kkk(tgt, k).status
