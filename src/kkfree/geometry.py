"""Exact geometric primitives: ranges, containment, duality, lifting.

All coordinates are exact rationals (``int`` or ``fractions.Fraction``);
every predicate is decided exactly, with no floating point anywhere.
Ranges are closed: a point on the boundary is contained.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import singledispatch
from math import lcm
from operator import mul
from typing import Callable, Sequence, Union

from .errors import DimensionMismatchError, InvalidInputError, UnsupportedInputError

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
    if isinstance(value, bool):
        raise InvalidInputError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
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


@dataclass(frozen=True)
class Point:
    """A point in R^d with exact rational coordinates."""

    coords: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise InvalidInputError("point needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Rat:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


def pt(*coords) -> Point:
    return Point(tuple(as_rat(c) for c in coords))


@dataclass(frozen=True)
class Hyperplane:
    """Non-vertical hyperplane in graph form: x_d = offset + sum_i slopes[i] * x_i.

    ``d = len(slopes) + 1``.  Vertical hyperplanes are unrepresentable by
    construction, which is what duality requires.
    """

    slopes: tuple[Rat, ...]
    offset: Rat

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


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace bounded by a non-vertical hyperplane.

    ``side`` is "upper" (points on or above the boundary) or "lower".
    """

    boundary: Hyperplane
    side: str  # "upper" | "lower"

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise InvalidInputError(f"bad halfspace side: {self.side!r}")

    @property
    def dim(self) -> int:
        return self.boundary.dim


@dataclass(frozen=True)
class LinearHalfspace:
    """Closed halfspace in general position: coeffs . x <= rhs (sense 'le') or >= ('ge').

    Needed where the bounding hyperplane may be vertical or is more natural in
    implicit form (degree-2 Veronese images, exponential orthant maps).
    """

    coeffs: tuple[Rat, ...]
    rhs: Rat
    sense: str = "le"

    def __post_init__(self):
        if self.sense not in ("le", "ge"):
            raise InvalidInputError(f"bad sense: {self.sense!r}")
        if not any(c != 0 for c in self.coeffs):
            raise InvalidInputError("zero normal vector")

    @property
    def dim(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class Ball:
    """Closed ball; the squared radius is stored exactly."""

    center: Point
    radius_sq: Rat

    def __post_init__(self):
        if self.radius_sq < 0:
            raise InvalidInputError("negative squared radius")

    @property
    def dim(self) -> int:
        return self.center.dim


@dataclass(frozen=True)
class Box:
    """Axis-parallel box; ``None`` bounds are unbounded sides.

    Covers intervals (d=1), orthants (one bounded side per axis) and 3-sided
    rectangles as special cases.
    """

    lows: tuple[Rat | None, ...]
    highs: tuple[Rat | None, ...]

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise InvalidInputError("lows/highs length mismatch")
        for lo, hi in zip(self.lows, self.highs):
            if lo is not None and hi is not None and lo > hi:
                raise InvalidInputError("box has lo > hi on some axis")

    @property
    def dim(self) -> int:
        return len(self.lows)


def interval(lo: Rat | None, hi: Rat | None) -> Box:
    """1-dimensional box."""
    return Box((None if lo is None else as_rat(lo),),
               (None if hi is None else as_rat(hi),))


def box2(xlo, xhi, ylo, yhi) -> Box:
    conv = lambda v: None if v is None else as_rat(v)
    return Box((conv(xlo), conv(ylo)), (conv(xhi), conv(yhi)))


@dataclass(frozen=True)
class Wedge2:
    """Planar wedge {(x, y) : y <= a x + b, x <= c}."""

    a: Rat
    b: Rat
    c: Rat

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Wedge3:
    """Spatial wedge {(x, y, z) : y <= a x + b, z <= c}."""

    a: Rat
    b: Rat
    c: Rat

    @property
    def dim(self) -> int:
        return 3


@dataclass(frozen=True)
class Curtain:
    """Planar curtain {(x, y) : y <= a x + b, lo <= x <= hi}.

    Either end of the x-range may be ``None`` (unbounded); a wedge is the
    special case with one open end.
    """

    a: Rat
    b: Rat
    lo: Rat | None
    hi: Rat | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise InvalidInputError("curtain has lo > hi")

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Triangle:
    """Closed planar triangle given by its three vertices."""

    v0: Point
    v1: Point
    v2: Point

    def __post_init__(self):
        for v in (self.v0, self.v1, self.v2):
            if v.dim != 2:
                raise InvalidInputError("triangle vertices must be planar")

    @property
    def dim(self) -> int:
        return 2

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.v0, self.v1, self.v2)

    def signed_area2(self) -> Rat:
        """Twice the signed area (positive for counter-clockwise vertices)."""
        return cross(sub(self.v1, self.v0), sub(self.v2, self.v0))


@dataclass(frozen=True)
class Line2:
    """Non-vertical planar line y = a x + b, as a (measure-zero) range.

    Incidence means lying exactly on the line.
    """

    a: Rat
    b: Rat

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Polyhedron:
    """Intersection of slabs orthogonal to a fixed list of directions.

    Constraint i is ``lows[i] <= normals[i] . x <= highs[i]`` with ``None``
    meaning unbounded; generalizes a box, whose directions are the axes.
    """

    normals: tuple[tuple[Rat, ...], ...]
    lows: tuple[Rat | None, ...]
    highs: tuple[Rat | None, ...]

    def __post_init__(self):
        if not (len(self.normals) == len(self.lows) == len(self.highs)):
            raise InvalidInputError("polyhedron constraint arity mismatch")

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
    return tuple(None if v is None else v.numerator * (scale // v.denominator)
                 for v in values)


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
    if any(len(nrm) != r.dim for nrm in r.normals):
        raise DimensionMismatchError(
            "polyhedron normals of different dimensions")
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
    a, b, xmax = r.a, r.b, r.c
    return lambda c: c[0] <= xmax and c[1] <= a * c[0] + b


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
