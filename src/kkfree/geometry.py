"""Exact geometric primitives: ranges, containment, duality, lifting.

All coordinates are exact rationals (``int`` or ``fractions.Fraction``);
every predicate is decided exactly, with no floating point anywhere.
Ranges are closed: a point on the boundary is contained.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import singledispatch
from math import lcm
from operator import mul
from typing import Callable, Sequence, Union

from .errors import DimensionMismatchError, InvalidInputError, UnsupportedInputError
from .frozen import Frozen, set_field

Rat = Union[int, Fraction]

# Largest decimal exponent magnitude a literal may carry (CPython's
# int-to-str digit limit); a larger one would expand to a huge integer.
_MAX_EXPONENT = 4300
# An exponent after a mantissa digit ("1e5", "1.e5"); with no digit before
# it the literal is invalid and ``Fraction`` rejects it as such.
_EXPONENT = re.compile(r"(?:(?<=\d)|(?<=\d\.))e[-+]?(\d+(?:_\d+)*)\s*\Z",
                       re.IGNORECASE)


def as_rat(value) -> Rat:
    """Coerce to an exact rational, keeping ints as ints.

    A string is read as an integer literal when ``int`` accepts it, else as
    a ``Fraction`` literal; ``int`` accepts a subset of those, with the same
    value.  ``bool`` is rejected: it is not a number in an instance.  So is
    a decimal exponent beyond +-4300, before ``Fraction`` expands it into an
    integer of that many digits.
    """
    # Strings first: every coordinate of an instance file is one.
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        exp = _EXPONENT.search(value)
        if exp is not None:
            digits = exp[1].replace("_", "")
            if len(digits) > _MAX_EXPONENT or int(digits) > _MAX_EXPONENT:
                raise InvalidInputError(
                    f"exponent beyond +-{_MAX_EXPONENT}: {value[:40]!r}")
        return as_rat(Fraction(value))
    if isinstance(value, bool):
        raise InvalidInputError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise InvalidInputError(f"not an exact rational: {value!r}")


def rat_str(value: Rat) -> str:
    """Serialize a rational as 'p' or 'p/q'.

    A numerator or denominator beyond the interpreter's int-to-str digit
    limit (4300 digits by default) raises ``InvalidInputError``.
    """
    f = value if type(value) is int else Fraction(value)
    try:
        if type(f) is int:
            return str(f)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    except ValueError:
        raise InvalidInputError(
            f"cannot write a number of more than "
            f"{sys.get_int_max_str_digits()} digits") from None


class Point(Frozen):
    """A point in R^d with exact rational coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Rat, ...]):
        if len(coords) < 1:
            raise InvalidInputError("point needs at least one coordinate")
        set_field(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Rat:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def pt(*coords) -> Point:
    return Point(tuple(as_rat(c) for c in coords))


class Hyperplane(Frozen):
    """Non-vertical hyperplane in graph form: x_d = offset + sum_i slopes[i] * x_i.

    ``d = len(slopes) + 1``.  Vertical hyperplanes are unrepresentable by
    construction, which is what duality requires.
    """

    __slots__ = ("slopes", "offset")

    def __init__(self, slopes: tuple[Rat, ...], offset: Rat):
        set_field(self, "slopes", slopes)
        set_field(self, "offset", offset)

    @property
    def dim(self) -> int:
        return len(self.slopes) + 1

    def height_at(self, prefix: tuple[Rat, ...]) -> Rat:
        """Value of x_d on the hyperplane above the first d-1 coordinates."""
        if len(prefix) != len(self.slopes):
            raise DimensionMismatchError("hyperplane/prefix dimension mismatch")
        return self.offset + sum(a * x for a, x in zip(self.slopes, prefix))

    def side_of(self, p: Point) -> int:
        """+1 if p strictly above, 0 if on, -1 if strictly below."""
        if p.dim != self.dim:
            raise DimensionMismatchError("hyperplane/point dimension mismatch")
        diff = p[p.dim - 1] - self.height_at(p.coords[:-1])
        return (diff > 0) - (diff < 0)


class Halfspace(Frozen):
    """Closed halfspace bounded by a non-vertical hyperplane.

    ``side`` is "upper" (points on or above the boundary) or "lower".
    """

    __slots__ = ("boundary", "side")

    def __init__(self, boundary: Hyperplane, side: str):
        if side not in ("upper", "lower"):
            raise InvalidInputError(f"bad halfspace side: {side!r}")
        set_field(self, "boundary", boundary)
        set_field(self, "side", side)

    @property
    def dim(self) -> int:
        return self.boundary.dim


class LinearHalfspace(Frozen):
    """Closed halfspace in general position: coeffs . x <= rhs (sense 'le') or >= ('ge').

    Needed where the bounding hyperplane may be vertical or is more natural in
    implicit form (degree-2 Veronese images, exponential orthant maps).
    """

    __slots__ = ("coeffs", "rhs", "sense")

    def __init__(self, coeffs: tuple[Rat, ...], rhs: Rat, sense: str = "le"):
        if sense not in ("le", "ge"):
            raise InvalidInputError(f"bad sense: {sense!r}")
        if not any(c != 0 for c in coeffs):
            raise InvalidInputError("zero normal vector")
        set_field(self, "coeffs", coeffs)
        set_field(self, "rhs", rhs)
        set_field(self, "sense", sense)

    @property
    def dim(self) -> int:
        return len(self.coeffs)


class Ball(Frozen):
    """Closed ball; the squared radius is stored exactly."""

    __slots__ = ("center", "radius_sq")

    def __init__(self, center: Point, radius_sq: Rat):
        if radius_sq < 0:
            raise InvalidInputError("negative squared radius")
        set_field(self, "center", center)
        set_field(self, "radius_sq", radius_sq)

    @property
    def dim(self) -> int:
        return self.center.dim


class Box(Frozen):
    """Axis-parallel box; ``None`` bounds are unbounded sides.

    Covers intervals (d=1), orthants (one bounded side per axis) and 3-sided
    rectangles as special cases.
    """

    __slots__ = ("lows", "highs")

    def __init__(self, lows: tuple[Rat | None, ...],
                 highs: tuple[Rat | None, ...]):
        if len(lows) != len(highs):
            raise InvalidInputError("lows/highs length mismatch")
        for lo, hi in zip(lows, highs):
            if lo is not None and hi is not None and lo > hi:
                raise InvalidInputError("box has lo > hi on some axis")
        set_field(self, "lows", lows)
        set_field(self, "highs", highs)

    @property
    def dim(self) -> int:
        return len(self.lows)


def closed_rank_range(keys: Sequence[Rat], lo: Rat | None,
                      hi: Rat | None) -> tuple[int, int]:
    """The ranks ``[start, stop)`` of the ascending ``keys`` that lie in the
    closed extent ``[lo, hi]``, where a ``None`` end is open."""
    start = 0 if lo is None else bisect_left(keys, lo)
    stop = len(keys) if hi is None else bisect_right(keys, hi)
    return start, stop


def require_type(ranges: Sequence, kind: type, what: str) -> None:
    """Reject the first range that is not a ``kind``, naming ``what``."""
    for idx, r in enumerate(ranges):
        if not isinstance(r, kind):
            raise InvalidInputError(
                f"{what}: range {idx} is not a {kind.__name__}")


def require_dim(objs: Sequence, dim: int, what: str) -> None:
    """Reject the first object of another dimension than ``dim``, naming it
    ``what`` and its index; an object with no ``dim`` is left to the type
    check."""
    for idx, o in enumerate(objs):
        if getattr(o, "dim", dim) != dim:
            raise DimensionMismatchError(
                f"{what} {idx} has dimension {o.dim}, not {dim}")


class Wedge2(Frozen):
    """Planar wedge {(x, y) : y <= a x + b, x <= c}."""

    __slots__ = ("a", "b", "c")
    dim = 2

    def __init__(self, a: Rat, b: Rat, c: Rat):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)


class Wedge3(Frozen):
    """Spatial wedge {(x, y, z) : y <= a x + b, z <= c}."""

    __slots__ = ("a", "b", "c")
    dim = 3

    def __init__(self, a: Rat, b: Rat, c: Rat):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)


class Curtain(Frozen):
    """Planar curtain {(x, y) : y <= a x + b, lo <= x <= hi}.

    Either end of the x-range may be ``None`` (unbounded); a wedge is the
    special case with one open end.
    """

    __slots__ = ("a", "b", "lo", "hi")
    dim = 2

    def __init__(self, a: Rat, b: Rat, lo: Rat | None, hi: Rat | None):
        if lo is not None and hi is not None and lo > hi:
            raise InvalidInputError("curtain has lo > hi")
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)


class Triangle(Frozen):
    """Closed planar triangle given by its three vertices."""

    __slots__ = ("v0", "v1", "v2")
    dim = 2

    def __init__(self, v0: Point, v1: Point, v2: Point):
        require_dim((v0, v1, v2), 2, "triangle vertex")
        set_field(self, "v0", v0)
        set_field(self, "v1", v1)
        set_field(self, "v2", v2)

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.v0, self.v1, self.v2)

    def signed_area2(self) -> Rat:
        """Twice the signed area (positive for counter-clockwise vertices)."""
        return cross(sub(self.v1, self.v0), sub(self.v2, self.v0))


class Line2(Frozen):
    """Non-vertical planar line y = a x + b, as a (measure-zero) range.

    Incidence means lying exactly on the line.
    """

    __slots__ = ("a", "b")
    dim = 2

    def __init__(self, a: Rat, b: Rat):
        set_field(self, "a", a)
        set_field(self, "b", b)


class Polyhedron(Frozen):
    """Intersection of slabs orthogonal to a fixed list of directions.

    Constraint i is ``lows[i] <= normals[i] . x <= highs[i]`` with ``None``
    meaning unbounded; generalizes a box, whose directions are the axes.
    """

    __slots__ = ("normals", "lows", "highs")

    def __init__(self, normals: tuple[tuple[Rat, ...], ...],
                 lows: tuple[Rat | None, ...], highs: tuple[Rat | None, ...]):
        if not (len(normals) == len(lows) == len(highs)):
            raise InvalidInputError("polyhedron constraint arity mismatch")
        if len(set(map(len, normals))) > 1:
            raise DimensionMismatchError(
                "polyhedron normals of different dimensions")
        set_field(self, "normals", normals)
        set_field(self, "lows", lows)
        set_field(self, "highs", highs)

    @property
    def dim(self) -> int:
        return len(self.normals[0]) if self.normals else 0


Range = Union[Box, Halfspace, LinearHalfspace, Ball, Wedge2, Wedge3, Curtain,
              Triangle, Line2, Polyhedron]


# ---------------------------------------------------------------------------
# vector helpers

def dot(u: tuple[Rat, ...], v: tuple[Rat, ...]) -> Rat:
    if len(u) != len(v):
        raise DimensionMismatchError("dot of different dimensions")
    return sum(a * b for a, b in zip(u, v))


def sub(p: Point, q: Point) -> tuple[Rat, ...]:
    return tuple(a - b for a, b in zip(p.coords, q.coords))


def cross(u: tuple[Rat, ...], v: tuple[Rat, ...]) -> Rat:
    """2D cross product u x v."""
    return u[0] * v[1] - u[1] * v[0]


def norm_sq(coords: tuple[Rat, ...]) -> Rat:
    return sum(c * c for c in coords)


# ---------------------------------------------------------------------------
# containment: one compiled predicate per range

Coords = tuple[Rat, ...]
Predicate = Callable[[Coords], bool]


@singledispatch
def predicate(r: Range) -> Predicate:
    """Compile r into a closed-containment test on coordinate tuples.

    Per-range data is computed once here; the returned closure takes the
    ``coords`` of a point of dimension ``r.dim`` and checks no dimension:
    its callers do, ``contains`` per call and the oracle
    (``incidence.incidences_bruteforce``) once per instance.
    """
    raise InvalidInputError(f"unsupported range type: {type(r).__name__}")


@predicate.register
def _(r: Box) -> Predicate:
    # Only bounded sides are kept.
    lows = [(i, lo) for i, lo in enumerate(r.lows) if lo is not None]
    highs = [(i, hi) for i, hi in enumerate(r.highs) if hi is not None]

    def test(c: Coords) -> bool:
        for i, lo in lows:
            if c[i] < lo:
                return False
        for i, hi in highs:
            if c[i] > hi:
                return False
        return True
    return test


def _integer_form(values: Sequence[Rat | None]) -> tuple[int | None, ...]:
    """One constraint's constants times the lcm of their denominators.

    The lcm is >= 1, so every inequality among the scaled values keeps its
    direction and ``None`` (an unbounded side) stays ``None``; a compiled
    test on integer points then runs on ``int`` only.
    """
    scale = lcm(*(v.denominator for v in values if v is not None))
    return tuple(None if v is None else _over(v, scale) for v in values)


def _over(c: Rat, den: int) -> int:
    """The numerator of c over ``den``, a multiple of its denominator."""
    return c.numerator * (den // c.denominator)


# One integer constraint ``coeffs . x <= rhs``.
LinearConstraint = tuple[tuple[int, ...], int]


def linear_constraints(r: Halfspace | LinearHalfspace | Polyhedron | Wedge3
                       ) -> list[LinearConstraint]:
    """r as integer constraints ``coeffs . x <= rhs``, all of which a point
    of r satisfies, each cleared by ``_integer_form``.

    A ``>=`` constraint is negated.  A graph-form halfspace is written in
    implicit form: x_d >= offset + slopes . x iff (L slopes, -L) . x <=
    -L offset, for the lcm L of the denominators (upper; the negation for
    lower).  A polyhedron gives one constraint per bounded side of a slab,
    a ``Wedge3`` two: -a x + y <= b and z <= c.
    """
    if isinstance(r, Halfspace):
        *slopes, one, offset = _integer_form(
            (*r.boundary.slopes, 1, r.boundary.offset))
        if r.side == "lower":
            return [(tuple(-s for s in slopes) + (one,), offset)]
        return [(tuple(slopes) + (-one,), -offset)]
    if isinstance(r, LinearHalfspace):
        *coeffs, rhs = _integer_form((*r.coeffs, r.rhs))
        if r.sense == "le":
            return [(tuple(coeffs), rhs)]
        return [(tuple(-c for c in coeffs), -rhs)]
    if isinstance(r, Wedge3):
        *line, b = _integer_form((-r.a, 1, 0, r.b))
        *top, c = _integer_form((0, 0, 1, r.c))
        return [(tuple(line), b), (tuple(top), c)]
    out = []
    for nrm, lo, hi in zip(r.normals, r.lows, r.highs):
        *scaled, lo, hi = _integer_form((*nrm, lo, hi))
        if lo is not None:
            out.append((tuple(-a for a in scaled), -lo))
        if hi is not None:
            out.append((tuple(scaled), hi))
    return out


def linear_test(constraints: Sequence[LinearConstraint]) -> Predicate:
    """The per-point test of a conjunction of ``linear_constraints``."""
    if len(constraints) == 1:
        ((coeffs, rhs),) = constraints
        return lambda c: sum(map(mul, coeffs, c)) <= rhs

    def test(c: Coords) -> bool:
        for coeffs, rhs in constraints:
            if sum(map(mul, coeffs, c)) > rhs:
                return False
        return True
    return test


@predicate.register(Halfspace)
@predicate.register(LinearHalfspace)
@predicate.register(Polyhedron)
@predicate.register(Wedge3)
def _(r: Halfspace | LinearHalfspace | Polyhedron | Wedge3) -> Predicate:
    return linear_test(linear_constraints(r))


@predicate.register
def _(r: Ball) -> Predicate:
    center, radius_sq = r.center.coords, r.radius_sq
    return lambda c: sum((x - y) * (x - y)
                         for x, y in zip(c, center)) <= radius_sq


@predicate.register
def _(r: Wedge2) -> Predicate:
    return predicate(Curtain(r.a, r.b, None, r.c))


@predicate.register
def _(r: Curtain) -> Predicate:
    a, b, lo, hi = r.a, r.b, r.lo, r.hi

    def test(c: Coords) -> bool:
        x = c[0]
        if (lo is not None and x < lo) or (hi is not None and x > hi):
            return False
        return c[1] <= a * x + b
    return test


def triangle_edges(r: Triangle) -> tuple[tuple[int, int, int], ...] | None:
    """r's counter-clockwise edges as integer forms ``(dx, dy, k)``, or
    ``None`` when r has zero area.

    p is on or left of the edge (u, v) iff (v - u) x (p - u) =
    dx*y - dy*x + k >= 0 with k = dy*ux - dx*uy; each form is cleared by
    ``_integer_form``, which keeps that sign.
    """
    v0, v1, v2 = (v.coords for v in r.vertices)
    area2 = r.signed_area2()
    if area2 == 0:
        return None
    if area2 < 0:
        v1, v2 = v2, v1
    return tuple(
        _integer_form((vx - ux, vy - uy, (vy - uy) * ux - (vx - ux) * uy))
        for (ux, uy), (vx, vy) in ((v0, v1), (v1, v2), (v2, v0)))


@predicate.register
def _(r: Triangle) -> Predicate:
    edges = triangle_edges(r)
    if edges is None:
        return _degenerate_triangle_predicate(r)
    (dx0, dy0, k0), (dx1, dy1, k1), (dx2, dy2, k2) = edges

    def test(c: Coords) -> bool:
        x, y = c
        return (dx0 * y - dy0 * x + k0 >= 0 and dx1 * y - dy1 * x + k1 >= 0
                and dx2 * y - dy2 * x + k2 >= 0)
    return test


def _degenerate_triangle_predicate(r: Triangle) -> Predicate:
    # Zero area: membership means lying on one of the edge segments.
    segments = []
    for u, v in ((r.v0, r.v1), (r.v1, r.v2), (r.v2, r.v0)):
        (ux, uy), (vx, vy) = u.coords, v.coords
        segments.append((ux, uy, vx - ux, vy - uy,
                         min(ux, vx), max(ux, vx), min(uy, vy), max(uy, vy)))

    def test(c: Coords) -> bool:
        x, y = c
        return any(dx * (y - uy) == dy * (x - ux)
                   and xlo <= x <= xhi and ylo <= y <= yhi
                   for ux, uy, dx, dy, xlo, xhi, ylo, yhi in segments)
    return test


@predicate.register
def _(r: Line2) -> Predicate:
    a, b = r.a, r.b
    return lambda c: c[1] == a * c[0] + b


def contains(r: Range, p: Point) -> bool:
    """True iff p lies in the closed range r (exact arithmetic)."""
    test = predicate(r)
    if r.dim != p.dim:
        raise DimensionMismatchError(
            f"range dimension {r.dim} vs point dimension {p.dim}")
    return test(p.coords)


# ---------------------------------------------------------------------------
# duality and lifting

def dualize(obj: Point | Hyperplane) -> Hyperplane | Point:
    """Point/hyperplane duality.

    A point p maps to the hyperplane x_d = -p_d + sum_{i<d} p_i x_i; a
    hyperplane with slopes (a_1..a_{d-1}) and offset a_d maps to the point
    (a_1, ..., a_{d-1}, -a_d).  The map is an involution and reverses the
    above/below relation.
    """
    if isinstance(obj, Point):
        if obj.dim < 2:
            raise UnsupportedInputError("duality needs dimension >= 2")
        return Hyperplane(slopes=obj.coords[:-1], offset=-obj.coords[-1])
    if isinstance(obj, Hyperplane):
        return Point(obj.slopes + (-obj.offset,))
    raise UnsupportedInputError(f"cannot dualize {type(obj).__name__}")


def lift(p: Point) -> Point:
    """Paraboloid lift: append the squared norm as a new coordinate."""
    return Point(p.coords + (norm_sq(p.coords),))


def lift_ball(b: Ball) -> Halfspace:
    """Image of a ball under the paraboloid lift.

    ||p - c||^2 <= r^2 becomes, for the lifted point, the lower halfspace
    x_{d+1} <= 2 c . x + (r^2 - ||c||^2).
    """
    slopes = tuple(2 * c for c in b.center.coords)
    offset = b.radius_sq - norm_sq(b.center.coords)
    return Halfspace(Hyperplane(slopes=slopes, offset=offset), side="lower")
