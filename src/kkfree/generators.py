"""Seeded random instance generators for experiments and audits.

Every generator is deterministic given its ``random.Random``.  Coordinates
are integers (or small-denominator rationals) so downstream exact
arithmetic stays fast.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import InvalidInputError
from .geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Point,
                       Polyhedron, Triangle, Wedge2, Wedge3, pt)


def random_points(rng: random.Random, n: int, d: int,
                  coord_range: int = 1000) -> list[Point]:
    return [Point(tuple(rng.randint(-coord_range, coord_range)
                        for _ in range(d))) for _ in range(n)]


def random_boxes(rng: random.Random, m: int, d: int,
                 coord_range: int = 1000,
                 max_extent: int | None = None) -> list[Box]:
    # Default extent keeps expected incidence density reasonable as the
    # dimension grows (tiny boxes in 3D miss everything).
    if max_extent is None:
        max_extent = max(1, int(2 * coord_range * 0.9 ** (1 / d)))
    out = []
    for _ in range(m):
        lows, highs = [], []
        for _ in range(d):
            lo = rng.randint(-coord_range, coord_range - 1)
            hi = lo + rng.randint(0, max_extent)
            lows.append(lo)
            highs.append(hi)
        out.append(Box(tuple(lows), tuple(highs)))
    return out


def random_halfspaces(rng: random.Random, m: int, d: int,
                      slope_range: int = 20,
                      offset_range: int = 1000,
                      side: str | None = None) -> list[Halfspace]:
    out = []
    for _ in range(m):
        slopes = tuple(rng.randint(-slope_range, slope_range)
                       for _ in range(d - 1))
        offset = rng.randint(-offset_range, offset_range)
        s = side if side else rng.choice(("upper", "lower"))
        out.append(Halfspace(Hyperplane(slopes, offset), s))
    return out


def random_balls(rng: random.Random, m: int, d: int,
                 coord_range: int = 1000, max_radius: int = 500) -> list[Ball]:
    out = []
    for _ in range(m):
        center = Point(tuple(rng.randint(-coord_range, coord_range)
                             for _ in range(d)))
        r = rng.randint(1, max_radius)
        out.append(Ball(center, r * r))
    return out


def random_curtains(rng: random.Random, m: int, coord_range: int = 1000,
                    slope_range: int = 10) -> list[Curtain]:
    out = []
    for _ in range(m):
        a = rng.randint(-slope_range, slope_range)
        b = rng.randint(-coord_range, coord_range)
        lo = rng.randint(-coord_range, coord_range - 1)
        hi = lo + rng.randint(0, coord_range)
        out.append(Curtain(a, b, lo, hi))
    return out


def random_wedges2(rng: random.Random, m: int, coord_range: int = 1000,
                   slope_range: int = 10) -> list[Wedge2]:
    return [Wedge2(rng.randint(-slope_range, slope_range),
                   rng.randint(-coord_range, coord_range),
                   rng.randint(-coord_range, coord_range))
            for _ in range(m)]


def random_wedges3(rng: random.Random, m: int, coord_range: int = 1000,
                   slope_range: int = 10) -> list[Wedge3]:
    return [Wedge3(rng.randint(-slope_range, slope_range),
                   rng.randint(-coord_range, coord_range),
                   rng.randint(-coord_range, coord_range))
            for _ in range(m)]


def random_threesided(rng: random.Random, m: int,
                      coord_range: int = 1000,
                      max_extent: int = 400) -> list[Box]:
    """Rectangles [a, b] x (-inf, h]."""
    out = []
    for _ in range(m):
        a = rng.randint(-coord_range, coord_range - 1)
        b = a + rng.randint(0, max_extent)
        h = rng.randint(-coord_range, coord_range)
        out.append(Box((a, None), (b, h)))
    return out


def random_orthants(rng: random.Random, m: int,
                    coord_range: int = 1000) -> list[Box]:
    """Dominance orthants (-inf, q]^3."""
    return [Box((None, None, None),
                tuple(rng.randint(-coord_range, coord_range)
                      for _ in range(3)))
            for _ in range(m)]


def random_polyhedra(rng: random.Random, m: int,
                     normals: tuple[tuple[int, ...], ...],
                     coord_range: int = 2000,
                     max_extent: int = 800) -> list[Polyhedron]:
    """Polyhedra over a shared normal frame, with random slab bounds."""
    out = []
    for _ in range(m):
        lows, highs = [], []
        for _ in normals:
            if rng.random() < 0.2:
                lo = None
            else:
                lo = rng.randint(-coord_range, coord_range - 1)
            if rng.random() < 0.2:
                hi = None
            else:
                base = lo if lo is not None else rng.randint(-coord_range,
                                                             coord_range - 1)
                hi = base + rng.randint(0, max_extent)
            lows.append(lo)
            highs.append(hi)
        out.append(Polyhedron(normals, tuple(lows), tuple(highs)))
    return out


def min_angle(tri: Triangle) -> float:
    """Measured smallest angle, in radians (float measurement only)."""
    vs = [(float(v[0]), float(v[1])) for v in tri.vertices]
    best = math.pi
    for i in range(3):
        ox, oy = vs[i]
        ax, ay = vs[(i + 1) % 3][0] - ox, vs[(i + 1) % 3][1] - oy
        bx, by = vs[(i + 2) % 3][0] - ox, vs[(i + 2) % 3][1] - oy
        na, nb = math.hypot(ax, ay), math.hypot(bx, by)
        if na == 0 or nb == 0:
            return 0.0
        c = max(-1.0, min(1.0, (ax * bx + ay * by) / (na * nb)))
        best = min(best, math.acos(c))
    return best


def random_fat_triangle(rng: random.Random, delta: float,
                        center_range: int = 1000,
                        scale_range: tuple[float, float] = (5.0, 200.0),
                        grid: int = 2 ** 12) -> Triangle:
    """A triangle with all angles >= delta, rational vertices.

    Sampled on a circumscribed circle from three angles with margin above
    delta, then snapped to a rational grid; resampled if snapping thinned it
    below delta.  The 15% sampling margin caps the supported fatness at 0.9
    radians (beyond pi/3 no triangle exists anyway).
    """
    if not (0 < delta <= 0.9):
        raise InvalidInputError("generator supports fatness in (0, 0.9]")
    while True:
        margin = delta * 1.15
        spare = math.pi - 3 * margin
        cuts = sorted((rng.random(), rng.random()))
        parts = (cuts[0], cuts[1] - cuts[0], 1 - cuts[1])
        angles = [margin + spare * f for f in parts]
        radius = math.exp(rng.uniform(math.log(scale_range[0]),
                                      math.log(scale_range[1])))
        cx = rng.randint(-center_range, center_range)
        cy = rng.randint(-center_range, center_range)
        # Inscribed-angle construction: arcs are twice the opposite angles.
        theta = rng.uniform(0, 2 * math.pi)
        arcs = [2 * angles[0], 2 * angles[1], 2 * angles[2]]
        verts = []
        acc = theta
        for arc in arcs:
            x = cx + radius * math.cos(acc)
            y = cy + radius * math.sin(acc)
            verts.append((Fraction(round(x * grid), grid),
                          Fraction(round(y * grid), grid)))
            acc += arc
        tri = Triangle(Point(verts[0]), Point(verts[1]), Point(verts[2]))
        if tri.signed_area2() != 0 and min_angle(tri) >= delta:
            return tri


def random_fat_triangles(rng: random.Random, m: int, delta: float,
                         **kwargs) -> list[Triangle]:
    return [random_fat_triangle(rng, delta, **kwargs) for _ in range(m)]


def random_origin_triangles(rng: random.Random, m: int,
                            coord_range: int = 500) -> list[Triangle]:
    """Nondegenerate triangles with one vertex at the origin."""
    out = []
    origin = pt(0, 0)
    while len(out) < m:
        a = pt(rng.randint(-coord_range, coord_range),
               rng.randint(-coord_range, coord_range))
        b = pt(rng.randint(-coord_range, coord_range),
               rng.randint(-coord_range, coord_range))
        tri = Triangle(origin, a, b)
        if tri.signed_area2() != 0:
            out.append(tri)
    return out


# ---------------------------------------------------------------------------
# constructed census family: K_{2,2}-free upper halfplanes

def census_halfplane_instance(n: int) -> tuple[list[Point], list[Halfspace]]:
    """Upper-halfplane family with n points and n halfplanes whose incidence
    graph is K_{2,2}-free: any two halfplanes share at most one point.

    Points p_t = (t, -t^2) sit on a downward parabola; the tangent halfplane
    at p_t contains exactly p_t among the parabola points (strict convexity:
    p_u is strictly below the tangent at t for u != t).  A fan of boundaries
    through a high apex contributes depth: the lone summit point above the
    apex lies in every fan halfplane, while the apex height keeps all
    parabola points strictly below every fan boundary.  Any halfplane pair
    therefore shares at most the summit.
    """
    if n < 4:
        raise InvalidInputError("census construction needs n >= 4")
    fan = max(2, n // 8)
    slopes = []
    s = 1
    while len(slopes) < fan:
        slopes.extend([s, -s])
        s += 1
    slopes = slopes[:fan]
    apex_y = max(abs(s) for s in slopes) * (n + 2) + 1
    summit = Point((0, apex_y + 1))
    halfplanes = [Halfspace(Hyperplane((s,), apex_y), "upper")
                  for s in slopes]
    points: list[Point] = [summit]
    for t in range(1, n):
        points.append(Point((t, -t * t)))
    for t in range(1, n - fan + 1):
        # Tangent to y = -x^2 at x = t: y = -2 t x + t^2.
        halfplanes.append(Halfspace(Hyperplane((-2 * t,), t * t), "upper"))
    return points[:n], halfplanes[:n]
