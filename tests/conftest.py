import random
from fractions import Fraction

import pytest

from kkfree.geometry import (Ball, Box, Curtain, Halfspace, Line2,
                             LinearHalfspace, Polyhedron, Triangle, Wedge2,
                             Wedge3)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


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
