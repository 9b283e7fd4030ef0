import copy
import fractions
import pickle
import sys
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkfree.errors import (DimensionMismatchError, InvalidInputError,
                           UnsupportedInputError)
from kkfree.geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                             LinearHalfspace, Point, Polyhedron, Triangle,
                             Wedge2, Wedge3, closed_rank_range,
                             contains, dualize, as_rat, lift,
                             lift_ball,
                             linear_constraints, predicate, pt,
                             rat_str, triangle_edges)
from kkfree.extremal import FavorabilityVerdict
from kkfree.incidence import (BicliqueCover, BoxCoverBuild, CoverBound,
                              CoverLevelStats, IntervalAuditReport,
                              IntervalBlockRow, KkkResult,
                              incidences_bruteforce)
from kkfree.levels import CensusRow
from kkfree.packed import pack_columns

from conftest import box2, brute_edges, interval, reference_contains

rationals = st.fractions(min_value=-100, max_value=100,
                         max_denominator=64)


# Each geometry type and result record with two argument tuples that differ
# in one field.
VALUE_TYPES = [
    (Point, ((1, F(1, 2)),), ((1, 2),)),
    (Hyperplane, ((1, 2), 3), ((1, 2), 4)),
    (Halfspace, (Hyperplane((1,), 0), "upper"), (Hyperplane((1,), 0), "lower")),
    (LinearHalfspace, ((1, 0), 2, "ge"), ((1, 0), 2)),
    (Ball, (pt(0, 0), F(7, 2)), (pt(0, 1), F(7, 2))),
    (Box, ((None, 0), (1, None)), ((None, 0), (1, 2))),
    (Wedge2, (1, 2, 3), (1, 2, 4)),
    (Wedge3, (1, 2, 3), (0, 2, 3)),
    (Curtain, (1, 2, None, 5), (1, 2, 0, 5)),
    (Triangle, (pt(0, 0), pt(1, 0), pt(0, 1)), (pt(0, 0), pt(1, 0), pt(1, 1))),
    (Line2, (1, F(1, 3)), (1, 0)),
    (Polyhedron, (((1, 0), (1, 1)), (0, None), (2, 3)),
     (((1, 0), (1, 1)), (0, 1), (2, 3))),
    (KkkResult, ("found", (0, 1), (2, 3), 5), ("found", (0, 1), (2, 3), 6)),
    (BicliqueCover, (((frozenset({0}), frozenset({1})),),),
     (((frozenset({0}), frozenset({2})),),)),
    (CoverBound, (True, 12, (), ()), (True, 13, (), ())),
    (CoverLevelStats, (0, 10, 4, 3), (1, 10, 4, 3)),
    (BoxCoverBuild, (BicliqueCover(()), (CoverLevelStats(0, 1, 1, 1),)),
     (BicliqueCover(()), ())),
    (IntervalBlockRow, (0, 2, 1, 1, 3), (0, 2, 1, 1, 4)),
    (IntervalAuditReport, (4, 2, 2, (IntervalBlockRow(0, 2, 1, 1, 3),), 3, 2,
                           20, True),
     (4, 2, 2, (IntervalBlockRow(0, 2, 1, 1, 3),), 3, 2, 20, False)),
    (CensusRow, (F(1, 2), 3, 4, 2.5, 1.2), (F(1, 2), 3, 4, 2.5, None)),
    (FavorabilityVerdict, (False, 2, (0, 1, (2, 3)), None),
     (True, None, (), 8)),
]


@pytest.mark.parametrize("cls, args, other", VALUE_TYPES,
                         ids=[c.__name__ for c, _, _ in VALUE_TYPES])
def test_value_types_compare_hash_and_refuse_assignment(cls, args, other):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != cls(*other) and a != args
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and hash(a) == hash(b)
    # One value per field: one too many, or none, is a TypeError.
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls()


def test_box_boundary_is_inside():
    assert contains(box2(0, 1, 0, 1), pt(0, 1))


def test_ball_boundary():
    # 3^2 + 4^2 = 5^2: the origin is exactly on the sphere.
    assert contains(Ball(pt(3, 4), 25), pt(0, 0))
    assert not contains(Ball(pt(3, 4), 24), pt(0, 0))


def test_lower_halfspace_by_substitution():
    h = Halfspace(Hyperplane((1,), 3), "lower")  # x2 <= 3 + x1
    assert not contains(h, pt(1, 5))  # 5 > 4
    assert contains(h, pt(1, 4))      # boundary
    assert contains(h, pt(1, 3))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        contains(box2(0, 1, 0, 1), pt(0, 0, 0))


def test_a_dimension_mismatch_is_an_input_error():
    # Callers that catch InvalidInputError see every dimension failure.
    assert issubclass(DimensionMismatchError, InvalidInputError)


def test_triangle_names_its_vertex_of_another_dimension():
    with pytest.raises(DimensionMismatchError,
                       match="triangle vertex 2 has dimension 3, not 2"):
        Triangle(pt(0, 0), pt(1, 0), pt(0, 1, 0))


def test_polyhedron_rejects_normals_of_two_lengths_at_construction():
    with pytest.raises(DimensionMismatchError,
                       match="polyhedron normals of different dimensions"):
        Polyhedron(((1, 0), (0, 1), (1, 1, 1)), (0, 0, 0), (1, 1, 1))


def test_dualize_worked_example():
    h = Hyperplane((1,), 3)  # x2 = 3 + x1
    assert dualize(h) == Point((1, -3))


@given(st.lists(rationals, min_size=2, max_size=5))
def test_dualize_involution_points(coords):
    p = Point(tuple(coords))
    assert dualize(dualize(p)) == p


@given(st.lists(rationals, min_size=1, max_size=4), rationals)
def test_dualize_involution_hyperplanes(slopes, offset):
    h = Hyperplane(tuple(slopes), offset)
    assert dualize(dualize(h)) == h


@given(st.lists(rationals, min_size=2, max_size=4), st.data())
def test_order_reversal(coords, data):
    p = Point(tuple(coords))
    d = p.dim
    slopes = tuple(data.draw(rationals) for _ in range(d - 1))
    offset = data.draw(rationals)
    h = Hyperplane(slopes, offset)
    p_dual = dualize(p)
    h_dual = dualize(h)
    # p above h  <=>  the dual point of h lies above the dual hyperplane of p
    assert (h.side_of(p) > 0) == (p_dual.side_of(h_dual) > 0)


def test_lift_zero():
    assert lift(pt(0, 0)) == Point((0, 0, 0))


def test_lift_ball_worked_example():
    hs = lift_ball(Ball(pt(3, 4), 25))
    assert hs.side == "lower"
    assert hs.boundary == Hyperplane((6, 8), 0)
    assert contains(hs, lift(pt(0, 0)))  # equality case


@given(st.lists(rationals, min_size=2, max_size=3), st.data())
def test_lift_preserves_incidence(center, data):
    d = len(center)
    p = Point(tuple(data.draw(rationals) for _ in range(d)))
    radius_sq = abs(data.draw(rationals))
    ball = Ball(Point(tuple(center)), radius_sq)
    assert contains(ball, p) == contains(lift_ball(ball), lift(p))


def test_vertical_duality_unsupported():
    with pytest.raises(UnsupportedInputError):
        dualize(pt(5))  # 1D points have no graph-form dual


def test_wedges_and_curtains():
    w2 = Wedge2(1, 1, 1)
    assert contains(w2, pt(1, 2))       # both constraints tight
    assert not contains(w2, pt(2, 0))   # x > c
    w3 = Wedge3(2, 1, 4)
    assert contains(w3, pt(1, 2, 3))
    assert not contains(w3, pt(1, 4, 3))
    c = Curtain(1, 0, -1, 2)
    assert contains(c, pt(2, 2))
    assert not contains(c, pt(3, 0))    # outside the x-range
    assert contains(Curtain(0, 0, None, None), pt(-1000, -1))


def test_line_incidence_is_exact():
    line = Line2(F(1, 3), F(1, 7))
    on = pt(F(3), F(1) + F(1, 7))
    assert contains(line, on)
    assert not contains(line, pt(F(3), F(1) + F(1, 7) + F(1, 10 ** 12)))


def test_unbounded_box_orthant():
    orthant = Box((None, None, None), (1, 2, 3))
    assert contains(orthant, pt(1, 2, 3))
    assert contains(orthant, pt(-100, -100, -100))
    assert not contains(orthant, pt(2, 0, 0))


def test_degenerate_interval():
    with pytest.raises(InvalidInputError):
        interval(2, 1)


# Ties at 1, 2 and 3, so both ends of a closed extent can sit on a run.
_KEYS = [0, 1, 1, 2, 2, 2, 3, 3]


@pytest.mark.parametrize("lo, hi, ranks", [
    (None, None, (0, 8)), (None, 1, (0, 3)), (2, None, (3, 8)),
    (1, 2, (1, 6)), (2, 2, (3, 6)), (1, 3, (1, 8)), (F(1, 2), F(5, 2), (1, 6)),
    (0, 0, (0, 1)), (3, 3, (6, 8)), (-2, -1, (0, 0)), (4, None, (8, 8)),
    (F(3, 2), F(7, 4), (3, 3))])
def test_closed_rank_range_at_open_ends_and_ties(lo, hi, ranks):
    assert closed_rank_range(_KEYS, lo, hi) == ranks


@given(st.lists(st.integers(-3, 3)), st.none() | st.integers(-4, 4),
       st.none() | st.integers(-4, 4))
def test_closed_rank_range_holds_exactly_the_keys_in_it(keys, lo, hi):
    keys.sort()
    start, stop = closed_rank_range(keys, lo, hi)
    inside = [i for i, key in enumerate(keys)
              if (lo is None or lo <= key) and (hi is None or key <= hi)]
    assert list(range(start, stop)) == inside


@given(st.data())
@settings(max_examples=200)
def test_triangle_containment_vs_barycentric(data):
    coords = [data.draw(rationals) for _ in range(6)]
    tri = Triangle(Point((coords[0], coords[1])),
                   Point((coords[2], coords[3])),
                   Point((coords[4], coords[5])))
    if tri.signed_area2() == 0:
        return
    p = Point((data.draw(rationals), data.draw(rationals)))
    assert contains(tri, p) == reference_contains(tri, p)


def test_polyhedron_strips():
    # Two strip directions: (1,0) and (1,1).
    poly = Polyhedron(((1, 0), (1, 1)), (0, 1), (2, 3))
    assert contains(poly, pt(1, 2))      # dot products (1, 3)
    assert not contains(poly, pt(1, 3))  # second dot product = 4 > 3


def test_linear_halfspace_senses():
    ge = LinearHalfspace((1, 1), 2, "ge")
    assert contains(ge, pt(1, 1))
    assert not contains(ge, pt(0, 0))


# ---------------------------------------------------------------------------
# compiled predicates against the test reference

# Small grid of ints and Fractions, so boundary hits are frequent.
grid = st.one_of(st.integers(-3, 3),
                 st.fractions(min_value=-3, max_value=3, max_denominator=3))
maybe = st.one_of(st.none(), grid)


def _grid_point(data, d):
    return Point(tuple(data.draw(grid) for _ in range(d)))


def _sorted_bounds(data):
    lo, hi = data.draw(maybe), data.draw(maybe)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return lo, hi


# Each builder draws a range and a point on its boundary.

def _box(data):
    bounds = [_sorted_bounds(data) for _ in range(data.draw(st.integers(1, 3)))]
    box = Box(tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds))
    corner = tuple(lo if lo is not None else hi if hi is not None else 0
                   for lo, hi in bounds)
    return box, Point(corner)


def _halfspace(data):
    d = data.draw(st.integers(2, 3))
    h = Hyperplane(tuple(data.draw(grid) for _ in range(d - 1)), data.draw(grid))
    prefix = _grid_point(data, d - 1).coords
    side = data.draw(st.sampled_from(["upper", "lower"]))
    return Halfspace(h, side), Point(prefix + (h.height_at(prefix),))


def _linear_halfspace(data):
    d = data.draw(st.integers(1, 3))
    coeffs = tuple(data.draw(grid) for _ in range(d))
    if not any(coeffs):
        coeffs = (1,) + coeffs[1:]
    q = _grid_point(data, d)
    sense = data.draw(st.sampled_from(["le", "ge"]))
    return LinearHalfspace(coeffs, sum(a * b for a, b in zip(coeffs, q)), sense), q


def _ball(data):
    d = data.draw(st.integers(1, 3))
    center, q = _grid_point(data, d), _grid_point(data, d)
    return Ball(center, sum((a - b) ** 2 for a, b in zip(center, q))), q


def _wedge2(data):
    a, b, c = (data.draw(grid) for _ in range(3))
    return Wedge2(a, b, c), Point((c, a * c + b))


def _wedge3(data):
    a, b, c, x = (data.draw(grid) for _ in range(4))
    return Wedge3(a, b, c), Point((x, a * x + b, c))


def _curtain(data):
    a, b = data.draw(grid), data.draw(grid)
    lo, hi = _sorted_bounds(data)
    x = lo if lo is not None else hi if hi is not None else data.draw(grid)
    return Curtain(a, b, lo, hi), Point((x, a * x + b))


def _triangle(data):
    v0, v1 = _grid_point(data, 2), _grid_point(data, 2)
    shape = data.draw(st.sampled_from(["any", "collinear", "coincident"]))
    if shape == "collinear":
        t = data.draw(grid)
        v2 = Point(tuple(a + t * (b - a) for a, b in zip(v0, v1)))
    elif shape == "coincident":
        v2 = v0
    else:
        v2 = _grid_point(data, 2)
    mid = Point(tuple(F(a + b) / 2 for a, b in zip(v1, v2)))
    return Triangle(v0, v1, v2), mid


def _line(data):
    a, b, x = (data.draw(grid) for _ in range(3))
    return Line2(a, b), Point((x, a * x + b))


def _polyhedron(data):
    d = data.draw(st.integers(1, 3))
    normals = tuple(_grid_point(data, d).coords
                    for _ in range(data.draw(st.integers(1, 3))))
    bounds = [_sorted_bounds(data) for _ in normals]
    q = _grid_point(data, d)
    bounds[0] = (sum(a * b for a, b in zip(normals[0], q)), bounds[0][1])
    return (Polyhedron(normals, tuple(lo for lo, _ in bounds),
                       tuple(hi for _, hi in bounds)), q)


BUILDERS = {"box": _box, "halfspace": _halfspace,
            "linear-halfspace": _linear_halfspace, "ball": _ball,
            "wedge2": _wedge2, "wedge3": _wedge3, "curtain": _curtain,
            "triangle": _triangle, "line": _line, "polyhedron": _polyhedron}


@given(st.sampled_from(sorted(BUILDERS)), st.data())
@settings(max_examples=600)
def test_predicate_matches_reference(kind, data):
    r, on_boundary = BUILDERS[kind](data)
    points = [on_boundary] + [_grid_point(data, r.dim) for _ in range(5)]
    test = predicate(r)
    for p in points:
        assert test(p.coords) == reference_contains(r, p), (r, p)


@given(st.lists(st.sampled_from(sorted(BUILDERS)), min_size=1, max_size=4),
       st.data())
@settings(max_examples=400, deadline=None)
def test_oracle_candidate_index_matches_reference(kinds, data):
    # Ranges of one dimension, with points on their extent edges: boundary
    # points, triangle vertices, ball points at the end of axis 0, points
    # on each line; then duplicates.
    drawn = [BUILDERS[kind](data) for kind in kinds]
    d = drawn[0][0].dim
    ranges = [r for r, _ in drawn if r.dim == d]
    points = [q for r, q in drawn if r.dim == d]
    for r in ranges:
        if isinstance(r, Triangle):
            points += r.vertices
        elif isinstance(r, Ball):
            # Just inside the sphere on axis 0: the radius rounded down to
            # a multiple of 1/(1000 q) for radius_sq = p/q.
            rsq, c = F(r.radius_sq), r.center.coords
            reach = F(isqrt(rsq.numerator * rsq.denominator * 10**6),
                      rsq.denominator * 1000)
            points += [Point((c[0] + s * reach,) + c[1:]) for s in (-1, 1)]
        elif isinstance(r, Line2):
            points += [Point((x, r.a * x + r.b))
                       for x in data.draw(st.lists(grid, max_size=3))]
    points += [_grid_point(data, d) for _ in range(data.draw(st.integers(0, 5)))]
    points += data.draw(st.lists(st.sampled_from(points), max_size=4))
    assert incidences_bruteforce(points, ranges).edges == \
        brute_edges(points, ranges), (ranges, points)


def _fraction_as_rat(value):
    """as_rat before its integer fast path: every string through Fraction."""
    f = F(value)
    return int(f) if f.denominator == 1 else f


def _fraction_rat_str(value):
    f = F(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


literals = st.one_of(
    st.sampled_from(["1_000", " 12 ", "+5", "-0", "12.0", "1e3", "3/6",
                     "1__0", "_1", "1_", "0x10", "", " ", "+-1", "1/0",
                     "007", "-3/-4", "\u0661\u0662"]),
    # At most five characters, so an exponent stays below e999.
    st.text(alphabet="0123456789+-_./ e", max_size=5),
    st.integers().map(str), st.fractions().map(str))


@given(st.one_of(literals, st.integers(), st.fractions()))
@settings(max_examples=500, deadline=None)
def test_as_rat_and_rat_str_match_fraction_parse(value):
    outcomes = []
    for parse in (as_rat, _fraction_as_rat):
        try:
            got = parse(value)
        except (ValueError, ZeroDivisionError) as exc:
            got = type(exc)
        outcomes.append((got, type(got)))
    assert outcomes[0] == outcomes[1], value
    got = outcomes[0][0]
    if not isinstance(got, type):
        assert rat_str(got) == _fraction_rat_str(got)
        assert as_rat(rat_str(got)) == got


def test_rat_str_bool_and_as_rat_rejects_bool():
    assert rat_str(True) == "1" and rat_str(False) == "0"
    for value in (True, False):
        with pytest.raises(InvalidInputError):
            as_rat(value)


def test_rat_str_beyond_the_digit_limit_is_invalid_input():
    limit = sys.get_int_max_str_digits()
    assert rat_str(10 ** (limit - 1)) == "1" + "0" * (limit - 1)
    for value in (10 ** limit, -(10 ** limit), F(1, 10 ** limit),
                  F(10 ** limit + 1, 2)):
        with pytest.raises(InvalidInputError):
            rat_str(value)


def test_triangle_orientation_and_degenerate_cases():
    ccw = Triangle(pt(0, 0), pt(4, 0), pt(0, 4))
    cw = Triangle(pt(0, 0), pt(0, 4), pt(4, 0))
    for tri in (ccw, cw):
        test = predicate(tri)
        assert test((2, 2)) and test((1, 1)) and test((0, 0))
        assert not test((3, 2))
    # Collinear vertices: only the segment hull counts, not the whole line.
    flat = predicate(Triangle(pt(0, 0), pt(2, 2), pt(1, 1)))
    assert flat((F(1, 2), F(1, 2))) and flat((2, 2))
    assert not flat((3, 3)) and not flat((1, 0))
    point = predicate(Triangle(pt(1, 1), pt(1, 1), pt(1, 1)))
    assert point((1, 1)) and not point((1, 2))


def test_triangle_edges_are_counter_clockwise_integer_forms():
    # Both orientations give the counter-clockwise edges (0,0)->(4,0)->
    # (0,4)->(0,0); dx*y - dy*x + k >= 0 on the inner side of each.
    ccw = ((4, 0, 0), (-4, 4, 16), (0, -4, 0))
    assert triangle_edges(Triangle(pt(0, 0), pt(4, 0), pt(0, 4))) == ccw
    assert triangle_edges(Triangle(pt(0, 0), pt(0, 4), pt(4, 0))) == ccw
    # Constants are cleared per edge: (1/2, 0) -> (0, 1/2) is
    # (-1/2, 1/2, 1/4) times 4.
    half = triangle_edges(Triangle(pt(0, 0), pt(F(1, 2), 0), pt(0, F(1, 2))))
    assert half == ((1, 0, 0), (-2, 2, 1), (0, -1, 0))
    assert all(type(v) is int for edge in half for v in edge)
    assert triangle_edges(Triangle(pt(0, 0), pt(2, 2), pt(1, 1))) is None
    assert triangle_edges(Triangle(pt(1, 1), pt(1, 1), pt(1, 1))) is None


def test_oracle_checks_every_dimension_once():
    square = box2(0, 1, 0, 1)
    with pytest.raises(DimensionMismatchError,
                       match="point 2 has dimension 3, not 2"):
        incidences_bruteforce([pt(0, 0), pt(1, 1), pt(0, 0, 0)], [square])
    with pytest.raises(DimensionMismatchError,
                       match="range 2 has dimension 3, not 2"):
        incidences_bruteforce([pt(0, 0), pt(1, 1)],
                              [square, square, Box((0, 0, 0), (1, 1, 1))])
    # Every range is checked before the first is decided.
    with pytest.raises(DimensionMismatchError,
                       match="range 1 has dimension 3, not 2"):
        incidences_bruteforce([pt(0, 0)], [object(), Box((0,) * 3, (1,) * 3)])


def test_as_rat_bounds_the_exponent():
    for literal in ("1e999999999", "1e-999999999", "1E4301", "-2.5e+4_301",
                    "1e" + "0" * 5000 + "1"):
        with pytest.raises(InvalidInputError):
            as_rat(literal)
    for literal in ("1e300", "-2.5e-3", "1e4300", "1e-4300", "3.5E+0_2"):
        assert as_rat(literal) == _fraction_as_rat(literal), literal
    # No mantissa: an invalid literal, whatever its exponent.
    for literal in ("e4301", "E-99999", ".e4301", "+e5000"):
        with pytest.raises(ValueError):
            _fraction_as_rat(literal)
        with pytest.raises(ValueError):
            as_rat(literal)


# ---------------------------------------------------------------------------
# linear constraints compiled to integer forms

# Unlike denominators: powers of four (the orthant map's 4^-r), thirds,
# fifths and the 1/4096 grid of the fat triangles.
DENOMINATORS = (1, 2, 3, 4, 5, 16, 64, 4096)


def _rational(data):
    return F(data.draw(st.integers(-40, 40)),
             data.draw(st.sampled_from(DENOMINATORS)))


def _on_grid(data, d, g):
    # A point on the 1/g grid, with int coordinates when g is 1.
    ns = (data.draw(st.integers(-6 * g, 6 * g)) for _ in range(d))
    return tuple(n if g == 1 else F(n, g) for n in ns)


def _cleared_linear_halfspace(data, g):
    d = data.draw(st.integers(1, 3))
    coeffs = tuple(_rational(data) for _ in range(d))
    if not any(coeffs):
        coeffs = (F(1, 3),) + coeffs[1:]
    q = _on_grid(data, d, g)
    sense = data.draw(st.sampled_from(["le", "ge"]))
    return LinearHalfspace(coeffs, sum(a * x for a, x in zip(coeffs, q)),
                           sense), [q]


def _cleared_halfspace(data, g):
    d = data.draw(st.integers(2, 3))
    h = Hyperplane(tuple(_rational(data) for _ in range(d - 1)),
                   _rational(data))
    prefix = _on_grid(data, d - 1, g)
    side = data.draw(st.sampled_from(["upper", "lower"]))
    return Halfspace(h, side), [prefix + (h.height_at(prefix),)]


def _cleared_polyhedron(data, g):
    d = data.draw(st.integers(1, 3))
    q = _on_grid(data, d, g)
    normals, lows, highs = [], [], []
    for _ in range(data.draw(st.integers(1, 3))):
        nrm = tuple(_rational(data) for _ in range(d))
        value = sum(a * x for a, x in zip(nrm, q))
        # Each side unbounded, through q, or a rational distance beyond it.
        lo, hi = (data.draw(st.sampled_from(
            [None, value, value + sign * abs(_rational(data))]))
            for sign in (-1, 1))
        normals.append(nrm)
        lows.append(lo)
        highs.append(hi)
    return Polyhedron(tuple(normals), tuple(lows), tuple(highs)), [q]


def _cleared_triangle(data, g):
    # Vertices on the 1/4096 grid; boundary points at the vertices and the
    # edge midpoints.
    vs = [Point(_on_grid(data, 2, 4096)) for _ in range(3)]
    mids = [tuple(F(a + b) / 2 for a, b in zip(u, v))
            for u, v in zip(vs, vs[1:] + vs[:1])]
    return Triangle(*vs), [v.coords for v in vs] + mids


def _orthant_halfspace(data, g):
    # The orthant map's image: x/4^qx + y/4^qy + z/4^qz <= 3 on points
    # (4^px, 4^py, 4^pz), on the boundary when p = q.
    ranks = [data.draw(st.integers(0, 6)) for _ in range(3)]
    return (LinearHalfspace(tuple(F(1, 4 ** r) for r in ranks), 3, "le"),
            [tuple(4 ** r for r in ranks)])


CLEARED = {"linear-halfspace": _cleared_linear_halfspace,
           "halfspace": _cleared_halfspace, "polyhedron": _cleared_polyhedron,
           "triangle": _cleared_triangle, "orthant-halfspace": _orthant_halfspace}


@given(st.sampled_from(sorted(CLEARED)), st.sampled_from([1, 3, 4096]),
       st.data())
@settings(max_examples=300, deadline=None)
def test_cleared_constants_keep_every_boundary(kind, g, data):
    # Points exactly on each boundary and one grid step to either side
    # along every axis, as ints (where integral) and as Fractions.
    r, boundary = CLEARED[kind](data, g)
    step = F(1, 4096) if kind == "triangle" else F(1, g)
    test = predicate(r)
    for q in boundary:
        for axis in range(len(q)):
            for delta in (0, -step, step):
                moved = tuple(as_rat(x + delta) if i == axis else as_rat(x)
                              for i, x in enumerate(q))
                expected = reference_contains(r, Point(moved))
                assert test(moved) == expected, (r, moved)
                assert test(tuple(map(F, moved))) == expected, (r, moved)


def _fraction_calls(fn):
    """fn's result, and the names of the functions of ``fractions`` that
    ran while it did."""
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            called.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, called


def test_integer_points_run_no_fraction_arithmetic():
    ranges = [LinearHalfspace((F(1, 2), F(-1, 3)), F(1, 6), "le"),
              LinearHalfspace((F(1, 4), F(1, 16)), F(5, 16), "ge"),
              Halfspace(Hyperplane((F(2, 3),), F(1, 3)), "upper"),
              Halfspace(Hyperplane((F(2, 3),), F(1, 3)), "lower"),
              Polyhedron(((F(1, 2), F(1, 5)), (1, F(-1, 3))),
                         (F(7, 10), None), (None, F(1, 3))),
              Triangle(pt(F(1, 4096), 0), pt(2, F(3, 4096)), pt(F(1, 2), 3))]
    points = [(x, y) for x in range(-1, 4) for y in range(-1, 4)]
    expected = [[reference_contains(r, Point(p)) for p in points]
                for r in ranges]
    tests = [predicate(r) for r in ranges]
    got, called = _fraction_calls(
        lambda: [[test(p) for p in points] for test in tests])
    assert called == []
    assert got == expected
    assert any(map(any, got)) and not all(map(all, got))


def test_curtain_scan_runs_no_fraction_arithmetic(rng):
    # Rational a, b are cleared to integers once per range: on integer
    # points only their numerators and denominators are read.
    points = [pt(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(80)]
    ranges = [Curtain(F(1, 3), F(-1, 2), -2, 3), Curtain(F(-5, 2), 1, None, 0),
              Wedge2(F(-2, 5), F(7, 4), 1), Curtain(2, 1, None, None)]
    graph, called = _fraction_calls(
        lambda: incidences_bruteforce(points, ranges))
    assert set(called) <= {"numerator", "denominator"}
    assert graph.edges == brute_edges(points, ranges)
    assert 0 < graph.edge_count < len(points) * len(ranges)


# ---------------------------------------------------------------------------
# linear constraints decided by packed rows over the point columns

# Integer grid values, so boundaries are hit by the ranges' constants.
_GRID = list(range(-8, 9))
# Zero coefficients, and ones that clear to 1 (1/3 over a rhs in thirds).
_COEFFS = [0, 0, 1, -1, 2, F(1, 3), F(-2, 3), F(1, 2)]


def _random_linear_ranges(rng, d, m):
    ranges = []
    for _ in range(m):
        coeffs = tuple(as_rat(rng.choice(_COEFFS)) for _ in range(d))
        if not any(coeffs):
            coeffs = coeffs[:-1] + (1,)
        rhs = as_rat(rng.choice(_GRID) + rng.choice([0, F(1, 3), F(1, 2)]))
        ranges.append(LinearHalfspace(coeffs, rhs, rng.choice(["le", "ge"])))
        slopes = tuple(as_rat(rng.choice(_COEFFS)) for _ in range(d - 1))
        offset = as_rat(rng.choice(_GRID) + rng.choice([0, F(1, 3), F(1, 2)]))
        ranges.append(Halfspace(Hyperplane(slopes, offset),
                                rng.choice(["upper", "lower"])))
    return ranges


def _packed_edges(points, ranges):
    packed = pack_columns([p.coords for p in points])
    rows = [packed.hits(linear_constraints(r)) for r in ranges]
    assert None not in rows
    return {(i, j) for j, row in enumerate(rows) for i in row}


def test_linear_forms_over_columns_match_reference(rng):
    for d in (1, 2, 3, 5):
        for _ in range(4):
            points = [Point(tuple(rng.choice(_GRID) for _ in range(d)))
                      for _ in range(60)]
            ranges = _random_linear_ranges(rng, d, 12)
            graph = incidences_bruteforce(points, ranges)
            assert graph.edges == brute_edges(points, ranges)
            assert _packed_edges(points, ranges) == graph.edges
            assert 0 < len(graph.edges) < len(points) * len(ranges)


def test_linear_forms_over_columns_on_the_boundary():
    # 60 integer points, all on y = 2x + 1.
    points = [pt(x, 2 * x + 1) for x in range(-30, 30)]
    assert {type(c) for p in points for c in p.coords} == {int}
    line = Hyperplane((2,), 1)
    on = [Halfspace(line, "upper"), Halfspace(line, "lower"),
          LinearHalfspace((-2, 1), 1, "le"),
          LinearHalfspace((-2, 1), 1, "ge"),
          LinearHalfspace((F(-6, 5), F(3, 5)), F(3, 5), "ge")]
    off = [Halfspace(Hyperplane((2,), 2), "upper"),
           Halfspace(Hyperplane((2,), 0), "lower"),
           LinearHalfspace((-2, 1), 0, "le"),
           LinearHalfspace((F(-2, 3), F(1, 3)), F(2, 3), "ge"),
           LinearHalfspace((0, 1), -60, "le")]
    ranges = on + off
    graph = incidences_bruteforce(points, ranges)
    assert graph.edges == brute_edges(points, ranges)
    assert _packed_edges(points, ranges) == graph.edges
    assert graph.edges == {(i, j) for i in range(len(points))
                           for j in range(len(on))}


def test_column_scan_runs_no_fraction_arithmetic(rng):
    # Integer points and ranges: the whole oracle call.  Rational ranges:
    # the packed rows of their cleared constraints over integer columns.
    points = [Point(tuple(rng.randint(-4, 4) for _ in range(3)))
              for _ in range(60)]
    integral = [LinearHalfspace((3, 0, -1), 2, "le"),
                LinearHalfspace((0, 1, 0), -1, "ge"),
                LinearHalfspace((1, -2, 1), 0, "ge"),
                Halfspace(Hyperplane((1, 0), 1), "upper"),
                Halfspace(Hyperplane((0, -2), 0), "lower")]
    rational = _random_linear_ranges(rng, 3, 10)
    graph, called = _fraction_calls(
        lambda: incidences_bruteforce(points, integral))
    assert called == []
    assert graph.edges == brute_edges(points, integral)
    coords = [p.coords for p in points]
    constraints = [linear_constraints(r) for r in rational]
    packed = pack_columns(coords)
    hits, called = _fraction_calls(
        lambda: [packed.hits(c) for c in constraints])
    assert called == []
    assert {(i, j) for j, h in enumerate(hits) for i in h} == brute_edges(
        points, rational)
