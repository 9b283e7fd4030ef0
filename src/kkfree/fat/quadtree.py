"""Quadtree squares, shift alignment, centroid splitting.

Quadtree squares are half-open dyadic cells of the unit square; all
membership tests are exact on rationals.  A coordinate x = num/den lies in
column floor(x * 2^l) = ``cell_key(num, den, l)`` of level l, so cell
decisions are integer shifts and compares.  The alignment helpers take
coordinates as integer numerators over one ``unit``, and diameters
squared, so comparisons against powers of two stay exact.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InvalidInputError
from ..geometry import Rat, _over

MAX_LEVEL = 64

SHIFTS = (Fraction(0), Fraction(1, 3), Fraction(2, 3))


def cell_key(num: int, den: int, level: int) -> int:
    """floor(num / den * 2^level), the cell index of num/den at ``level``."""
    return (num << level) // den


def _cell_of(x: Rat, level: int) -> int:
    x = Fraction(x)
    return cell_key(x.numerator, x.denominator, level)


# ---------------------------------------------------------------------------
# alignment

BBox = tuple[int, int, int, int]  # xlo, ylo, xhi, yhi


def diameter_sq_of(points_xy) -> Rat:
    pts = list(points_xy)
    best = 0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            dx = pts[a][0] - pts[b][0]
            dy = pts[a][1] - pts[b][1]
            best = max(best, dx * dx + dy * dy)
    return best


def alignment_level(diam_sq: int, unit: int) -> int:
    """Largest level whose cell side (a power of 1/2) is still >= 4 * diameter,
    for a squared diameter ``diam_sq / unit^2``.

    Comparisons are squared: side^2 >= 16 * diam_sq.  A zero diameter is
    capped at MAX_LEVEL; when even the unit cell is smaller than four
    diameters, level 0 (the unit cell itself) is used.
    """
    if diam_sq < 0:
        raise InvalidInputError("negative squared diameter")
    if diam_sq == 0:
        return MAX_LEVEL
    # side(level)^2 = 1 / 4^level: the largest level with
    # 16 * diam_sq * 4^level <= unit^2, that is 4^level <= q below.
    q = unit * unit // (16 * diam_sq)
    return min(MAX_LEVEL, max(0, (q.bit_length() - 1) // 2))


def is_aligned(bbox: BBox, diam_sq: int, unit: int) -> bool:
    """True iff some quadtree square of the alignment level contains the shape.

    The shape is described by its bounding box, numerators over ``unit``,
    and its squared diameter over ``unit^2``; only the cell containing the
    lower-left corner can work, so one exact check decides.
    """
    xlo, ylo, xhi, yhi = bbox
    if not (0 <= xlo and 0 <= ylo and xhi < unit and yhi < unit):
        raise InvalidInputError("shape must lie inside the unit square")
    level = alignment_level(diam_sq, unit)
    # The upper corner stays in the lower corner's cell iff its cell index
    # is not larger.
    return (cell_key(xhi, unit, level) <= cell_key(xlo, unit, level)
            and cell_key(yhi, unit, level) <= cell_key(ylo, unit, level))


def aligned_shift_index(bbox: BBox, diam_sq: int, unit: int) -> int | None:
    """Index into SHIFTS of the first shift aligning the shape, or None;
    ``unit`` is a multiple of 3, so every shift is an integer over it.

    Modulo a cell side the shifts are offsets 0, 1/3 and 2/3 of it, and each
    axis's misaligned window, shorter than a third, rejects at most one.
    """
    if unit % 3:
        raise InvalidInputError(f"unit {unit} is not a multiple of 3")
    for idx, shift in enumerate(SHIFTS):
        off = _over(shift, unit)
        if is_aligned(tuple(c + off for c in bbox), diam_sq, unit):
            return idx
    return None


# ---------------------------------------------------------------------------
# centroid squares

def centroid_square(points_xy, max_level: int = MAX_LEVEL):
    """A minimal quadtree square ``(level, i, j)``, the half-open cell
    [i/2^level, (i+1)/2^level) x [j/2^level, (j+1)/2^level), holding at
    least a fifth of the points, and the points inside it, in input order.

    Greedy descent: while some child holds >= n/5 points, move into the
    first such child (fixed scan order), so the result is deterministic and
    no strictly smaller square below it qualifies.  Since the four half-open
    children partition a cell, the returned square then holds fewer than
    4n/5 points, and the complement holds at most 4n/5.  Point multisets
    that never separate (coincident locations) stop at ``max_level``, where
    the square may hold more than 4n/5 points; callers handle that case.
    """
    pts = list(points_xy)
    if not pts:
        raise InvalidInputError("need at least one point")
    for x, y in pts:
        if not (0 <= x < 1 and 0 <= y < 1):
            raise InvalidInputError("points must lie in the unit square")
    keys = [(_cell_of(x, max_level), _cell_of(y, max_level)) for x, y in pts]
    level, i, j, members = centroid_descent(keys, range(len(pts)), max_level)
    return (level, i, j), [pts[m] for m in members]


def centroid_descent(keys, members, bits: int):
    """The centroid descent of ``centroid_square`` on integer cell keys.

    ``keys[m]`` is the pair of level-``bits`` cell indices of member m, so
    the child of a level-l cell holding m is read off bit ``bits - l - 1``
    of each key, and the descent stops at level ``bits``.  Returns
    ``(level, i, j, inside)`` with the members of square (level, i, j) in
    their input order.
    """
    n = len(members)
    level = i = j = 0
    members = list(members)
    while level < bits:
        bit = bits - level - 1
        buckets = ([], [], [], [])
        for m in members:
            kx, ky = keys[m]
            buckets[(kx >> bit & 1) | (ky >> bit & 1) << 1].append(m)
        # Scan order (i, j), (i+1, j), (i, j+1), (i+1, j+1): child c sits
        # at offset (c & 1, c >> 1).
        c = next((c for c in range(4) if 5 * len(buckets[c]) >= n), None)
        if c is None:
            break
        level, i, j = level + 1, 2 * i + (c & 1), 2 * j + (c >> 1)
        members = buckets[c]
    return level, i, j, members
