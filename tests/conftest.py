import math
import random
from fractions import Fraction

import pytest

from kkfree.fat.slanted import SlantedRangeTree
from kkfree.geometry import (Ball, Box, Curtain, Halfspace, Line2,
                             LinearHalfspace, Point, Polyhedron, Triangle,
                             Wedge2, Wedge3)
from kkfree.incidence import IncidenceGraph, find_kkk, incidences_bruteforce


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def interval(lo, hi):
    """The 1-dimensional box [lo, hi]; a None end is open."""
    return Box((lo,), (hi,))


def box2(xlo, xhi, ylo, yhi):
    """The rectangle [xlo, xhi] x [ylo, yhi]; a None side is open."""
    return Box((xlo, ylo), (xhi, yhi))


def distinct_random_points(rng, n, d, coord_range=10 ** 6):
    """n distinct random integer points in [-coord_range, coord_range]^d,
    sorted."""
    seen = set()
    while len(seen) < n:
        seen.add(tuple(rng.randint(-coord_range, coord_range)
                       for _ in range(d)))
    return [Point(c) for c in sorted(seen)]


def make_kkk_free(points, ranges, k, node_budget=500_000):
    """Drop ranges until the incidence graph is K_{k,k}-free.

    It makes the K_{k,k}-free random inputs for the I <= kn + 3km interval
    tests.  Deterministic repair: the oracle runs once, then while a
    witness exists its last range is removed together with its row.
    """
    ranges = list(ranges)
    rows = list(incidences_bruteforce(points, ranges).rows)
    while True:
        verdict = find_kkk(IncidenceGraph(len(points), len(ranges), rows), k,
                           node_budget)
        if verdict.free:
            return ranges
        # On "unknown", shrinking the instance keeps the repair moving.
        j = (len(ranges) - 1 if verdict.status == "unknown"
             else max(verdict.ranges))
        del ranges[j], rows[j]


def build_curtain_structure(points):
    """A slanted-range tree over 2D points: point i is the entry
    (x q, y q, q, i), with q the least common denominator of x and y."""
    entries = []
    for i, p in enumerate(points):
        x, y = Fraction(p[0]), Fraction(p[1])
        q = math.lcm(x.denominator, y.denominator)
        entries.append((int(x * q), int(y * q), q, i))
    return SlantedRangeTree(entries)


def curtain_query(tree, curtain, stats=None):
    """Indices of the points inside the closed curtain, sorted."""
    return sorted(tree.query(curtain.lo, curtain.hi, curtain.a, curtain.b,
                             stats))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _between(x, lo, hi):
    return (lo is None or lo <= x) and (hi is None or x <= hi)


def _on_segment(u, v, p):
    # p = u + t (v - u) with 0 <= t <= 1; a zero-length segment is a point.
    d = (v[0] - u[0], v[1] - u[1])
    w = (p[0] - u[0], p[1] - u[1])
    if d == (0, 0):
        return w == (0, 0)
    if d[0] * w[1] - d[1] * w[0] != 0:
        return False
    return 0 <= _dot(w, d) <= _dot(d, d)


def _in_triangle(tri, p):
    # Barycentric: p = v0 + s (v1 - v0) + t (v2 - v0), s, t >= 0, s + t <= 1.
    v0, v1, v2 = tri.v0, tri.v1, tri.v2
    ax, ay = v1[0] - v0[0], v1[1] - v0[1]
    bx, by = v2[0] - v0[0], v2[1] - v0[1]
    px, py = p[0] - v0[0], p[1] - v0[1]
    det = ax * by - ay * bx
    if det == 0:
        return any(_on_segment(u, v, p)
                   for u, v in ((v0, v1), (v1, v2), (v2, v0)))
    s = Fraction(px * by - py * bx) / det
    t = Fraction(ax * py - ay * px) / det
    return s >= 0 and t >= 0 and s + t <= 1


def reference_contains(r, p):
    """Closed containment from each range's docstring definition, written
    apart from kkfree.geometry so the oracle has an independent check."""
    x = p.coords
    if isinstance(r, Box):
        return all(_between(c, lo, hi)
                   for c, lo, hi in zip(x, r.lows, r.highs))
    if isinstance(r, Halfspace):
        height = r.boundary.offset + _dot(r.boundary.slopes, x[:-1])
        return x[-1] >= height if r.side == "upper" else x[-1] <= height
    if isinstance(r, LinearHalfspace):
        value = _dot(r.coeffs, x)
        return value <= r.rhs if r.sense == "le" else value >= r.rhs
    if isinstance(r, Ball):
        return sum((a - c) ** 2 for a, c in zip(x, r.center.coords)) <= r.radius_sq
    if isinstance(r, Wedge2):
        return x[1] <= r.a * x[0] + r.b and x[0] <= r.c
    if isinstance(r, Wedge3):
        return x[1] <= r.a * x[0] + r.b and x[2] <= r.c
    if isinstance(r, Curtain):
        return x[1] <= r.a * x[0] + r.b and _between(x[0], r.lo, r.hi)
    if isinstance(r, Triangle):
        return _in_triangle(r, p)
    if isinstance(r, Line2):
        return x[1] == r.a * x[0] + r.b
    if isinstance(r, Polyhedron):
        return all(_between(_dot(nrm, x), lo, hi)
                   for nrm, lo, hi in zip(r.normals, r.lows, r.highs))
    raise TypeError(f"no reference for {type(r).__name__}")


def brute_edges(points, ranges):
    """Independent of kkfree: per-pair containment via reference_contains."""
    return frozenset((i, j) for j, r in enumerate(ranges)
                     for i, p in enumerate(points) if reference_contains(r, p))


def ceil_log2(n):
    """ceil(log2 n) for n >= 1, the dyadic size bounds' logarithm."""
    return (n - 1).bit_length()


def dyadic_bounds(rng):
    """The closed index range [lo, hi] of the dyadic ``(rank, s)`` pair."""
    rank, s = rng
    return s << rank, ((s + 1) << rank) - 1


def decomposition_size(alpha, beta):
    """Size of the canonical dyadic decomposition of [alpha, beta], by the
    bottom-up halving scan; independent of the ground-set size, so a
    cross-check of kkfree.dyadic.canonical_decomposition."""
    lo, hi = alpha, beta + 1  # half-open
    count = 0
    while lo < hi:
        if lo & 1:
            count += 1
            lo += 1
        if hi & 1:
            count += 1
            hi -= 1
        lo >>= 1
        hi >>= 1
    return count


def cover_edges(cover):
    """The (point, range) pairs in the union of a biclique cover's products."""
    return frozenset((i, j) for a, b in cover.pairs for i in a for j in b)


def reference_stratum(points, tri):
    """The stratum the fat query picks for tri, by the ``Fraction`` frame
    and alignment its integer ones replaced.

    The frame maps the points' bounding box, grown by a twentieth of its
    extent on each side, onto [0, 1/4)^2.  A query with a vertex outside
    that core square takes stratum 0; one inside takes the first shift in
    (0, 1/3, 2/3) that puts its bounding box in one quadtree cell of the
    deepest level whose side is at least four diameters (level 64 at most).
    """
    if not points:
        return 0
    xs = [Fraction(p[0]) for p in points]
    ys = [Fraction(p[1]) for p in points]
    extent = max(max(xs) - min(xs), max(ys) - min(ys)) or Fraction(1)
    margin = extent / 20
    scale = Fraction(1, 4) / (extent + 2 * margin)
    verts = [((v[0] - min(xs) + margin) * scale,
              (v[1] - min(ys) + margin) * scale) for v in tri.vertices]
    if not all(0 <= c < Fraction(1, 4) for v in verts for c in v):
        return 0
    diam_sq = max((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
                  for a in verts for b in verts)
    level = 0 if diam_sq else 64
    while level < 64 and 16 * diam_sq * 4 ** (level + 1) <= 1:
        level += 1
    for idx, shift in enumerate((0, Fraction(1, 3), Fraction(2, 3))):
        cells = [{math.floor((v[axis] + shift) * 2 ** level) for v in verts}
                 for axis in (0, 1)]
        if all(len(c) == 1 for c in cells):
            return idx
    return 0


def json_nodes(node):
    """Every value of a JSON document, the document itself first."""
    yield node
    children = (node.values() if isinstance(node, dict)
                else node if isinstance(node, list) else ())
    for child in children:
        yield from json_nodes(child)
