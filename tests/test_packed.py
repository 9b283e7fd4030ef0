"""The packed-field engine against the test reference: every routed range
type on integer points, the exact field width, and the per-point fallback."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from kkfree.geometry import (Halfspace, Hyperplane, LinearHalfspace, Point,
                             Polyhedron, Wedge3, linear_constraints, pt)
from kkfree.incidence import incidences_bruteforce
from kkfree.packed import pack_columns

from conftest import brute_edges, reference_contains

# Range constants: ints and Fractions of small denominator.
constant = st.one_of(st.integers(-4, 4),
                     st.fractions(min_value=-4, max_value=4, max_denominator=3))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


# Each builder draws a range of the routed types through the integer point q.

def _linear_halfspace(data, q):
    coeffs = tuple(data.draw(constant) for _ in q)
    if not any(coeffs):
        coeffs = (1,) + coeffs[1:]
    return LinearHalfspace(coeffs, _dot(coeffs, q),
                           data.draw(st.sampled_from(["le", "ge"])))


def _halfspace(data, q):
    slopes = tuple(data.draw(constant) for _ in q[1:])
    return Halfspace(Hyperplane(slopes, q[-1] - _dot(slopes, q[:-1])),
                     data.draw(st.sampled_from(["upper", "lower"])))


def _polyhedron(data, q):
    normals, lows, highs = [], [], []
    for _ in range(data.draw(st.integers(1, 3))):
        nrm = tuple(data.draw(constant) for _ in q)
        value = _dot(nrm, q)
        # Each side unbounded, through q, or a rational distance beyond it.
        lo, hi = (data.draw(st.sampled_from(
            [None, value, value + sign * abs(data.draw(constant))]))
            for sign in (-1, 1))
        normals.append(nrm)
        lows.append(lo)
        highs.append(hi)
    return Polyhedron(tuple(normals), tuple(lows), tuple(highs))


def _wedge3(data, q):
    a = data.draw(constant)
    return Wedge3(a, q[1] - a * q[0],
                  data.draw(st.sampled_from([q[2], q[2] + F(1, 2), q[2] - 1])))


BUILDERS = {"linear-halfspace": _linear_halfspace, "halfspace": _halfspace,
            "polyhedron": _polyhedron, "wedge3": _wedge3}


@given(st.lists(st.sampled_from(sorted(BUILDERS)), min_size=1, max_size=5),
       st.integers(1, 5), st.sampled_from([3, 300, 3 * 10 ** 6]), st.data())
@settings(max_examples=300, deadline=None)
def test_packed_rows_match_reference(kinds, d, spread, data):
    # Every range passes through an integer point, which is added with its
    # neighbours one step away along each axis; the spread sets the spans
    # and so the field widths.
    if "wedge3" in kinds:
        d = 3
    if "halfspace" in kinds:
        d = max(d, 2)
    coord = st.integers(-spread, spread)
    points, ranges = [], []
    for kind in kinds:
        q = tuple(data.draw(coord) for _ in range(d))
        ranges.append(BUILDERS[kind](data, q))
        points += [Point(q[:axis] + (q[axis] + step,) + q[axis + 1:])
                   for axis in range(d) for step in (-1, 0, 1)]
    points += [Point(tuple(data.draw(coord) for _ in range(d)))
               for _ in range(data.draw(st.integers(0, 8)))]
    packed = pack_columns([p.coords for p in points])
    for r in ranges:
        assert packed.hits(linear_constraints(r)) == [
            i for i, p in enumerate(points) if reference_contains(r, p)], r
    assert incidences_bruteforce(points, ranges).edges == \
        brute_edges(points, ranges)


def test_field_width_is_exact():
    # Spans of 255 with coefficients of magnitude 1 give B = 255, so the
    # fields need w - 1 = 8 bits: two bytes.  One bit less rounds down to a
    # one-byte field, where x <= 0 on x = 255 leaves -255 + 128 < 0 and
    # borrows from the next field.
    points = [pt(x, 255 - x) for x in range(256)]
    packed = pack_columns([p.coords for p in points])
    cases = {((1, 0), 0): [0], ((-1, 0), -255): [255],
             ((1, 0), 127): list(range(128)),
             ((0, -1), -128): list(range(128)),
             ((1, 0), 254): list(range(255)),
             ((0, 1), 0): [255]}
    for constraint, expected in cases.items():
        assert packed.hits([constraint]) == expected, constraint
    # Two constraints at that width: 100 <= x <= 155.
    assert packed.hits([((1, 0), 155), ((0, 1), 155)]) == list(range(100, 156))
    ranges = [LinearHalfspace(a, rhs) for a, rhs in cases]
    assert incidences_bruteforce(points, ranges).edges == \
        brute_edges(points, ranges)


def test_settled_constraints_need_no_pack():
    points = [pt(x, -x) for x in range(10)]
    packed = pack_columns([p.coords for p in points])
    assert packed.hits([((1, 0), 9)]) == list(range(10))
    assert packed.hits([((1, 0), -1)]) == []
    assert packed.hits([((1, 0), 9), ((0, 1), 0)]) == list(range(10))
    assert packed.hits([((1, 0), 9), ((0, 1), -10)]) == []
    assert packed.hits([]) == list(range(10))
    assert packed._packs == {}


def test_fraction_points_fall_back_to_the_predicate():
    points = [pt(F(k, 3), F(k * k, 2), 1 - k) for k in range(-6, 7)]
    assert pack_columns([p.coords for p in points]) is None
    ranges = [LinearHalfspace((1, F(1, 2), 0), F(1, 3)),
              Halfspace(Hyperplane((F(-1, 2), 1), 2), "upper"),
              Polyhedron(((3, 0, 1),), (-2,), (F(7, 2),)),
              Wedge3(F(3, 2), 1, 0)]
    graph = incidences_bruteforce(points, ranges)
    assert graph.edges == brute_edges(points, ranges)
    assert 0 < graph.edge_count < len(points) * len(ranges)


def test_huge_outlier_falls_back_to_the_predicate():
    # One coordinate of 3322 bits: a field wide enough for its column would
    # make every pack far larger than the columns themselves.
    points = [pt(x, x % 7) for x in range(60)] + [pt(10 ** 1000, 3)]
    packed = pack_columns([p.coords for p in points])
    assert packed.hits([((1, 0), 30)]) is None
    # A constraint that leaves the outlier's column out still packs.
    assert packed.hits([((0, 1), 2)]) == [
        i for i, p in enumerate(points) if p[1] <= 2]
    ranges = [LinearHalfspace((1, 0), 30), LinearHalfspace((1, -1), 10 ** 999),
              Halfspace(Hyperplane((F(1, 2),), 0), "lower"),
              Polyhedron(((1, 1),), (10,), (None,))]
    graph = incidences_bruteforce(points, ranges)
    assert graph.edges == brute_edges(points, ranges)
    assert 0 < graph.edge_count < len(points) * len(ranges)
