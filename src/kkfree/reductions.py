"""Incidence-preserving transforms between range families.

Every reduction produces a target instance together with a certificate; the
certificate check recomputes both brute-force edge sets and verifies they
match under the stated index maps.  All maps are exact on rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError, UnsupportedInputError
from .geometry import (Ball, Box, Curtain, Line2, LinearHalfspace, Point,
                       Polyhedron, Range, Rat, Triangle, Wedge2, Wedge3,
                       closed_rank_range, dot, lift, lift_ball, predicate,
                       rat_str, require_dim, require_type)
from .incidence import incidences_bruteforce


class ReductionCertificate:
    """Name and index maps of one reduction; ``verify()`` gives the verdict."""

    def __init__(self, name: str, point_map: str, range_map: str,
                 swapped_sides: bool = False, notes: dict | None = None):
        self.name = name
        self.point_map = point_map
        self.range_map = range_map
        self.swapped_sides = swapped_sides
        self.notes = {} if notes is None else notes


class Reduction:
    """Target instance of a reduction, with enough data to verify it."""

    def __init__(self, source_points: list[Point], source_ranges: list[Range],
                 target_points: list[Point], target_ranges: list[Range],
                 certificate: ReductionCertificate):
        self.source_points = source_points
        self.source_ranges = source_ranges
        self.target_points = target_points
        self.target_ranges = target_ranges
        self.certificate = certificate

    def verify(self) -> bool:
        """Edge-for-edge check of both oracles under the index maps."""
        src = incidences_bruteforce(self.source_points, self.source_ranges)
        tgt = incidences_bruteforce(self.target_points, self.target_ranges)
        expected = src.columns if self.certificate.swapped_sides else src.rows
        return expected == tgt.rows


# ---------------------------------------------------------------------------

def polyhedra_to_boxes(points: list[Point],
                       polyhedra: list[Polyhedron]) -> Reduction:
    """Map a fixed-direction polyhedron family to axis-parallel boxes.

    All polyhedra must share one normal frame v_1..v_delta; a point p maps to
    (v_1 . p, ..., v_delta . p) and each polyhedron to the box of its
    per-direction offsets.
    """
    if not polyhedra:
        raise InvalidInputError("no polyhedra")
    require_type(polyhedra, Polyhedron, "polyhedra-to-boxes needs polyhedra")
    frame = polyhedra[0].normals
    for poly in polyhedra:
        if poly.normals != frame:
            raise InvalidInputError(
                "polyhedron facet normal outside the shared frame")
    tgt_points = [Point(tuple(dot(nrm, p.coords) for nrm in frame))
                  for p in points]
    tgt_boxes = [Box(poly.lows, poly.highs) for poly in polyhedra]
    cert = ReductionCertificate(
        name="polyhedra-to-boxes",
        point_map="p -> (v_1.p, ..., v_delta.p)",
        range_map="slab bounds become per-axis box bounds",
        notes={"delta": len(frame)})
    return Reduction(points, list(polyhedra), tgt_points, tgt_boxes, cert)


def _threesided_orientation(r: Box) -> str:
    """Which side is unbounded; everything else must be bounded."""
    sides = (r.lows[0] is None, r.highs[0] is None,
             r.lows[1] is None, r.highs[1] is None)
    table = {(False, False, True, False): "y-low",
             (False, False, False, True): "y-high",
             (True, False, False, False): "x-low",
             (False, True, False, False): "x-high"}
    if sides not in table:
        raise InvalidInputError("not a 3-sided rectangle")
    return table[sides]


def threesided_to_orthants(points: list[Point],
                           rects: list[Box]) -> Reduction:
    """Map 2D 3-sided rectangles to 3D dominance orthants.

    The canonical orientation [a,b] x (-inf,h] maps p = (x, y) to
    (-x, x, y) and the rectangle to (-inf,-a] x (-inf,b] x (-inf,h].  The
    other three orientations are brought to canonical form first by a
    global reflection (recorded in the certificate); mixed orientations in
    one family are rejected, since no single reflection normalizes them.
    """
    require_type(rects, Box, "threesided-to-orthants needs 3-sided boxes")
    require_dim(rects, 2, "range")
    orientations = {_threesided_orientation(r) for r in rects}
    if len(orientations) > 1:
        raise InvalidInputError(
            f"mixed 3-sided orientations {sorted(orientations)}; "
            "split the family and reduce each orientation separately")
    orientation = orientations.pop() if orientations else "y-low"
    # Reflect (and for x-open sides transpose) onto the canonical form.
    if orientation == "y-low":
        refl, pmap = "identity", lambda p: (p[0], p[1])
        rmap = lambda r: (r.lows[0], r.highs[0], r.highs[1])
    elif orientation == "y-high":
        refl, pmap = "y -> -y", lambda p: (p[0], -p[1])
        rmap = lambda r: (r.lows[0], r.highs[0], -r.lows[1])
    elif orientation == "x-low":
        refl, pmap = "swap axes", lambda p: (p[1], p[0])
        rmap = lambda r: (r.lows[1], r.highs[1], r.highs[0])
    else:  # x-high
        refl, pmap = "swap axes, then y -> -y", lambda p: (p[1], -p[0])
        rmap = lambda r: (r.lows[1], r.highs[1], -r.lows[0])
    tgt_points = []
    for p in points:
        x, y = pmap(p)
        tgt_points.append(Point((-x, x, y)))
    tgt_orthants = []
    for r in rects:
        a, b, h = rmap(r)
        tgt_orthants.append(Box((None, None, None), (-a, b, h)))
    cert = ReductionCertificate(
        name="threesided-to-orthants",
        point_map="(x, y) -> (-x, x, y) after normalization",
        range_map="[a,b] x (-inf,h] -> (-inf,-a] x (-inf,b] x (-inf,h]",
        notes={"reflection": refl, "orientation": orientation})
    return Reduction(points, list(rects), tgt_points, tgt_orthants, cert)


def orthants_to_halfspaces(points: list[Point],
                           orthants: list[Box]) -> Reduction:
    """Map 3D dominance orthants to 3D halfspaces via exponential ranks.

    Coordinates are first replaced by per-axis dense ranks over points and
    orthant corners together (order- and equality-preserving, so incidences
    are untouched).  A point of rank vector (px, py, pz) maps to
    (4^px, 4^py, 4^pz); the orthant with corner ranks (qx, qy, qz) maps to
    the halfspace x/4^qx + y/4^qy + z/4^qz <= 3.  Exact powers of four make
    the equivalence an exact integer statement.
    """
    require_type(orthants, Box, "orthants-to-halfspaces needs orthants")
    require_dim(orthants, 3, "range")
    flips = None
    for o in orthants:
        this = []
        for axis in range(3):
            lo, hi = o.lows[axis], o.highs[axis]
            if lo is None and hi is not None:
                this.append(False)          # (-inf, q]: canonical
            elif lo is not None and hi is None:
                this.append(True)           # [q, inf): reflect this axis
            else:
                raise InvalidInputError("not an orthant")
        if flips is None:
            flips = this
        elif flips != this:
            raise InvalidInputError(
                "mixed orthant orientations; split the family and reduce "
                "each orientation separately")
    flips = flips or [False, False, False]

    def corner(o: Box, axis: int):
        return -o.lows[axis] if flips[axis] else o.highs[axis]

    def coord(p: Point, axis: int):
        return -p[axis] if flips[axis] else p[axis]

    ranks = []
    for axis in range(3):
        values = sorted({coord(p, axis) for p in points}
                        | {corner(o, axis) for o in orthants})
        ranks.append({v: r for r, v in enumerate(values)})
    tgt_points = [
        Point(tuple(4 ** ranks[a][coord(p, a)] for a in range(3)))
        for p in points]
    tgt_halfspaces = [
        LinearHalfspace(tuple(Fraction(4) ** -ranks[a][corner(o, a)]
                              for a in range(3)), 3, "le")
        for o in orthants]
    cert = ReductionCertificate(
        name="orthants-to-halfspaces",
        point_map="rank vector p -> (4^px, 4^py, 4^pz)",
        range_map="corner ranks q -> {x/4^qx + y/4^qy + z/4^qz <= 3}",
        notes={"rank_normalized": True,
               "reflected_axes": [a for a in range(3) if flips[a]]})
    return Reduction(points, list(orthants), tgt_points, tgt_halfspaces, cert)


def balls_to_halfspaces(points: list[Point], balls: list[Ball]) -> Reduction:
    """Paraboloid lift: balls in R^d to lower halfspaces in R^{d+1}."""
    require_type(balls, Ball, "balls-to-halfspaces needs balls")
    tgt_points = [lift(p) for p in points]
    tgt_halfspaces = [lift_ball(b) for b in balls]
    cert = ReductionCertificate(
        name="balls-to-halfspaces",
        point_map="p -> (p, ||p||^2)",
        range_map="ball(c, r) -> {x_{d+1} <= 2 c.x + r^2 - ||c||^2}")
    return Reduction(points, list(balls), tgt_points, tgt_halfspaces, cert)


def pointline_to_5d(points: list[Point], lines: list[Line2]) -> Reduction:
    """Embed a 2D point/line instance into 5D points and halfspaces.

    p = (x, y) maps to (x^2, y^2, xy, x, y); the line y = ax + b maps to the
    halfspace a^2 X1 + X2 - 2a X3 + 2ab X4 - 2b X5 + b^2 <= eps.  The left
    side evaluates to (y - ax - b)^2, so eps is chosen as half the minimum of
    that quantity over non-incident pairs, computed exactly; when every pair
    is incident any positive eps works and 1/2 is used.  The minimum is
    found per line and distinct x by bisecting the sorted y values of the
    points at that x, in O(m X log n) for X distinct x.
    """
    require_dim(points, 2, "point")
    require_type(lines, Line2, "pointline-to-5d needs non-vertical lines")
    coords = [p.coords for p in points]
    # The nearest y != c above and below c = a x + b in each column of
    # points at one x give the column's least positive residual.
    by_x: dict[Rat, set[Rat]] = {}
    for x, y in coords:
        by_x.setdefault(x, set()).add(y)
    columns = [(x, sorted(ys)) for x, ys in by_x.items()]
    min_pos: Rat | None = None
    for line in lines:
        a, b = line.a, line.b
        for x, ys in columns:
            c = a * x + b
            below, above = closed_rank_range(ys, c, c)
            for y in ys[max(below - 1, 0):below] + ys[above:above + 1]:
                sq = (y - c) * (y - c)
                if min_pos is None or sq < min_pos:
                    min_pos = sq
    eps = Fraction(1, 2) if min_pos is None else Fraction(min_pos) / 2
    tgt_points = [Point((x * x, y * y, x * y, x, y)) for x, y in coords]
    tgt_halfspaces = [
        LinearHalfspace(
            (line.a * line.a, 1, -2 * line.a, 2 * line.a * line.b,
             -2 * line.b),
            eps - line.b * line.b, "le")
        for line in lines]
    cert = ReductionCertificate(
        name="pointline-to-5d",
        point_map="(x, y) -> (x^2, y^2, xy, x, y)",
        range_map="line (a, b) -> degree-2 halfspace with slack eps",
        notes={"eps": rat_str(eps)})
    return Reduction(points, list(lines), tgt_points, tgt_halfspaces, cert)


def wedge_dual(points: list[Point], wedges: list[Wedge3]) -> Reduction:
    """Variant I: exchange the roles of 3D points and 3D wedges.

    The wedge {y <= ax + b, z <= c} becomes the point (a, -b, -c); the point
    (px, py, pz) becomes the wedge {beta <= px * alpha - py, gamma <= -pz}.
    Applying the map twice restores the original incidence pattern.
    """
    require_type(wedges, Wedge3, "wedge-dual needs 3D wedges")
    tgt_points = [Point((w.a, -w.b, -w.c)) for w in wedges]
    tgt_wedges = [Wedge3(p[0], -p[1], -p[2]) for p in points]
    cert = ReductionCertificate(
        name="wedge-dual",
        point_map="wedge (a, b, c) -> point (a, -b, -c)",
        range_map="point (px, py, pz) -> wedge {y <= px*x - py, z <= -pz}",
        swapped_sides=True)
    return Reduction(points, list(wedges), tgt_points, tgt_wedges, cert)


def wedge_lift(points: list[Point], wedges: list[Wedge2]) -> Reduction:
    """Variant II: lift 2D wedges to 3D wedges via (x, y) -> (x, y, x)."""
    require_type(wedges, Wedge2, "wedge-lift needs 2D wedges")
    tgt_points = [Point((p[0], p[1], p[0])) for p in points]
    tgt_wedges = [Wedge3(w.a, w.b, w.c) for w in wedges]
    cert = ReductionCertificate(
        name="wedge-lift",
        point_map="(x, y) -> (x, y, x)",
        range_map="{y <= ax+b, x <= c} -> {y <= ax+b, z <= c}")
    return Reduction(points, list(wedges), tgt_points, tgt_wedges, cert)


# ---------------------------------------------------------------------------
# origin-vertex triangles to curtains

def apex_cell_constraints(a_local: tuple[Rat, Rat], b_local: tuple[Rat, Rat],
                          sigma: int):
    """Curtain parameters for one apex triangle restricted to one sign cell.

    The triangle has its apex at the local origin and the other vertices at
    ``a_local``/``b_local``.  The cell holds points with sigma * x > 0; such
    a point maps to (u, v) = (y / X, -1 / X) with X = sigma * x.  Membership
    in the triangle becomes u in [ulo, uhi] and v <= slope * u + intercept.

    Returns (ulo, uhi, slope, intercept) with None for unbounded u ends,
    "empty" when the cell cannot meet the triangle, or "degenerate" when the
    triangle has zero area.
    """
    ax, ay = sigma * a_local[0], a_local[1]
    bx, by = sigma * b_local[0], b_local[1]
    s_ab = ax * by - ay * bx
    if s_ab == 0:
        return "degenerate"
    s_ab = 1 if s_ab > 0 else -1

    ulo = uhi = None
    for (ex, ey), sign in (((ax, ay), s_ab), ((bx, by), -s_ab)):
        # Edge through the apex with direction (ex, ey); required side `sign`.
        if ex == 0:
            # Constraint is constant on the cell: sign(-ey) must match.
            if (-1 if ey > 0 else 1) != sign:
                return "empty"
            continue
        bound = Fraction(ey) / Fraction(ex)
        lower = (sign > 0) == (ex > 0)
        if lower:
            if ulo is None or bound > ulo:
                ulo = bound
        else:
            if uhi is None or bound < uhi:
                uhi = bound
    if ulo is not None and uhi is not None and ulo > uhi:
        return "empty"

    dx, dy = bx - ax, by - ay
    w = dy * ax - dx * ay
    if w == 0:
        return "degenerate"
    slope = Fraction(dx) / Fraction(w)
    intercept = -Fraction(dy) / Fraction(w)
    return (ulo, uhi, slope, intercept)


def transform_point_cell(p: Point, sigma: int) -> tuple[Fraction, Fraction]:
    """Image (u, v) of a point under the cell transform; requires sigma*x > 0."""
    big_x = sigma * p[0]
    if big_x <= 0:
        raise InvalidInputError("point outside the sign cell")
    return (Fraction(p[1]) / Fraction(big_x), Fraction(-1) / Fraction(big_x))


class CellReduction:
    """One sign cell of the origin-triangle transform: the source indices
    of the points in the cell, their (u, v) images in the same order, and
    one curtain per triangle (None where the triangle's image is empty)."""

    def __init__(self, sigma: int, point_indices: list[int],
                 target_points: list[Point],
                 target_curtains: list[Curtain | None]):
        self.sigma = sigma
        self.point_indices = point_indices
        self.target_points = target_points
        self.target_curtains = target_curtains


class OriginTriangleReduction:
    """The sign cells of the origin-triangle transform, plus the points
    with x == 0 (``vertical_indices``), which no cell holds."""

    def __init__(self, source_points: list[Point],
                 source_triangles: list[Triangle], cells: list[CellReduction],
                 vertical_indices: list[int],
                 certificate: ReductionCertificate):
        self.source_points = source_points
        self.source_triangles = source_triangles
        self.cells = cells
        self.vertical_indices = vertical_indices
        self.certificate = certificate

    def verify(self) -> bool:
        """Each triangle's row is its curtains' rows in the sign cells,
        mapped back to source indices, plus the vertical points it holds."""
        src = incidences_bruteforce(self.source_points, self.source_triangles)
        rows: list[list[int]] = [[] for _ in self.source_triangles]
        for cell in self.cells:
            live = [j for j, c in enumerate(cell.target_curtains)
                    if c is not None]
            tgt = incidences_bruteforce(
                cell.target_points, [cell.target_curtains[j] for j in live])
            for j, row in zip(live, tgt.rows):
                rows[j].extend(map(cell.point_indices.__getitem__, row))
        for j, t in enumerate(self.source_triangles):
            test = predicate(t)
            rows[j].extend(i for i in self.vertical_indices
                           if test(self.source_points[i].coords))
        return list(map(sorted, rows)) == list(src.rows)


def origin_triangle_to_curtain(points: list[Point],
                               triangles: list[Triangle]) -> OriginTriangleReduction:
    """Map triangles with a vertex at the origin to curtains, per sign cell.

    Points are split by the sign of x (the printed transform needs x of one
    sign; the negative cell is handled by the reflection x -> -x).  Points
    with x == 0 sit on the vertical ray through the apex and are carried in a
    side bucket tested directly.  Within a cell, the triangle's image after
    the axis swap (x, y) -> (y/x, -1/x) is a curtain, possibly with unbounded
    ends.
    """
    require_type(triangles, Triangle,
                 "origin-triangle-to-curtain needs origin-vertex triangles")
    for t in triangles:
        if not any(v[0] == 0 and v[1] == 0 for v in t.vertices):
            raise InvalidInputError("triangle lacks a vertex at the origin")
        if t.signed_area2() == 0:
            raise UnsupportedInputError("degenerate triangle")
    cells = []
    vertical = [i for i, p in enumerate(points) if p[0] == 0]
    for sigma in (1, -1):
        idxs = [i for i, p in enumerate(points) if sigma * p[0] > 0]
        tgt_pts = [Point(transform_point_cell(points[i], sigma))
                   for i in idxs]
        curtains: list[Curtain | None] = []
        for t in triangles:
            others = [v for v in t.vertices if not (v[0] == 0 and v[1] == 0)]
            res = apex_cell_constraints(
                (others[0][0], others[0][1]), (others[1][0], others[1][1]),
                sigma)
            if res == "degenerate":
                raise UnsupportedInputError("apex on the opposite edge")
            if res == "empty":
                curtains.append(None)
            else:
                ulo, uhi, slope, intercept = res
                curtains.append(Curtain(slope, intercept, ulo, uhi))
        cells.append(CellReduction(sigma, idxs, tgt_pts, curtains))
    cert = ReductionCertificate(
        name="origin-triangle-to-curtain",
        point_map="(x, y) -> (y/x, -1/x) per x-sign cell",
        range_map="origin triangle -> curtain (axis swap included)",
        notes={"vertical_points": len(vertical)})
    return OriginTriangleReduction(points, list(triangles), cells, vertical,
                                   cert)
