"""Lower-bound instance generators, the favorability verifier, and
closed-form bound evaluators for overlaying reference curves."""

from __future__ import annotations

import math

from .errors import InvalidInputError
from .frozen import Frozen
from .geometry import Box, Line2, Point, pt
from .incidence import find_kkk, incidences_bruteforce
from .levels import iterated_log2
from .reductions import Reduction, pointline_to_5d


def elekes_grid(n_param: int) -> tuple[list[Point], list[Line2]]:
    """Grid construction with N^4 point-line incidences and no K_{2,2}.

    Points are {1..N} x {1..2N^2}; lines are y = a x + b for a in {1..N} and
    b in {1..N^2}.  Every line meets exactly N grid points (one per x) and
    two distinct lines share at most one point.
    """
    if n_param < 1:
        raise InvalidInputError("N must be >= 1")
    n = n_param
    points = [pt(x, y) for x in range(1, n + 1) for y in range(1, 2 * n * n + 1)]
    lines = [Line2(a, b) for a in range(1, n + 1) for b in range(1, n * n + 1)]
    return points, lines


def lower_bound_5d(n_param: int) -> Reduction:
    """Compose the grid construction with the 5D embedding."""
    points, lines = elekes_grid(n_param)
    return pointline_to_5d(points, lines)


# ---------------------------------------------------------------------------
# favorability

class FavorabilityVerdict(Frozen):
    """Outcome of the two-condition box-family check.

    Condition 1: every box holds at least ``threshold`` points.  Condition 2:
    any two boxes share at most one point.  Condition 2 is equivalent to
    K_{2,2}-freeness of the incidence graph; condition 1 forces at least
    m * threshold incidences.
    """

    __slots__ = ("favorable", "failed_condition", "witness", "incidence_floor")

    def __init__(self, favorable: bool, failed_condition: int | None = None,
                 witness: tuple = (), incidence_floor: int | None = None):
        Frozen.__init__(self, favorable, failed_condition, witness,
                        incidence_floor)


def verify_favorable(points: list[Point], boxes: list[Box],
                     threshold: int) -> FavorabilityVerdict:
    graph = incidences_bruteforce(points, boxes)
    for j in range(len(boxes)):
        if len(graph.rows[j]) < threshold:
            return FavorabilityVerdict(False, 1, (j,))
    pair = find_kkk(graph, 2)
    if pair.found:
        return FavorabilityVerdict(False, 2, (*pair.ranges, pair.points))
    return FavorabilityVerdict(True, None, (),
                               incidence_floor=len(boxes) * threshold)


# ---------------------------------------------------------------------------
# bound formulas

FAMILIES = ("interval", "box", "halfspace", "ball", "fat")


def _glog(x: float) -> float:
    """log2 with the small-argument guard: values below 2 count as 1."""
    return math.log2(x) if x >= 2 else 1.0


def _gloglog(x: float) -> float:
    """log2 log2 with the guard: values below 4 count as 1."""
    return math.log2(math.log2(x)) if x >= 4 else 1.0


def eval_bound(family: str, n: int, m: int, k: int, constant: float = 1.0,
               *, d: int = 2, epsilon: float = 0.5) -> float:
    """Evaluate the closed form of ``family`` at (n, m, k) times the constant.

    ``d`` is the dimension where the family has one; ``epsilon`` the slack
    exponent of the box bound.  Returned as a float: several families
    involve fractional powers, so the value is generally irrational.
    Guarded logarithms keep tiny parameters (n = 1, m < 4) well defined;
    the guards substitute 1.  An unknown family, a dimension below 1, a
    value beyond the float range, or not a number (a NaN constant or
    epsilon) raises ``InvalidInputError``.
    """
    if family not in FAMILIES:
        raise InvalidInputError(f"unknown bound family: {family!r}")
    if d < 1:
        raise InvalidInputError(f"{family} bound needs d >= 1, got d={d}")
    if n < 1 or m < 0 or k < 1:
        raise InvalidInputError("need n >= 1, m >= 0, k >= 1")
    try:
        value = constant * _bound_value(family, d, epsilon, n, m, k)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise InvalidInputError(
            f"{family} bound at n={n} is beyond the float range")
    if math.isnan(value):
        raise InvalidInputError(f"{family} bound at n={n} is not a number")
    return value


def _bound_value(fam: str, d: int, epsilon: float, n: int, m: int,
                 k: int) -> float:
    if fam == "ball":  # the paraboloid lift maps balls in R^d to halfspaces
        fam, d = "halfspace", d + 1
    if fam == "interval":
        value = k * n + 3 * k * m
    elif fam == "box":
        ratio = _glog(n) / _gloglog(n)
        value = (k * n * ratio ** (d - 1)
                 + k * m * _glog(n) ** (d - 2 + epsilon))
    elif fam == "halfspace":
        if d <= 3:
            value = k * (n + m)
        else:
            h = d // 2
            value = (k ** (2 / (h + 1)) * (m * n) ** (h / (h + 1))
                     + k * (n + m))
    else:  # fat
        star = iterated_log2(float(m))
        llk = math.log2(math.log2(k)) if k >= 4 else 0.0
        value = k * n + k * m * star * (star + llk)
    return value
