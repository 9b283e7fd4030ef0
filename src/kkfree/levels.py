"""Levels w.r.t. hyperplanes, depth w.r.t. shapes, shallow censuses, and
census threshold schedules.

Band conventions: "between the t-level and the 2t-level" is read as the
half-open interval [t, 2t), which makes doubling classes partition cleanly.
Census rows also carry the closed-band count [t, 2t] so the alternative
reading stays visible in audit output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidInputError
from .geometry import (Halfspace, Hyperplane, Point, Predicate, Range, Rat,
                       compile_ranges)
from .incidence import DEFAULT_NODE_BUDGET, require_free


def level(p: Point, hyperplanes: Sequence[Hyperplane]) -> int:
    """Number of hyperplanes lying on or below p (exact)."""
    return sum(1 for h in hyperplanes if h.side_of(p) >= 0)


def level_above(p: Point, hyperplanes: Sequence[Hyperplane]) -> int:
    """Number of hyperplanes lying on or above p."""
    return sum(1 for h in hyperplanes if h.side_of(p) <= 0)


def depth(p: Point, shapes: Sequence[Range],
          tests: Sequence[Predicate] | None = None) -> int:
    """Number of shapes containing p (closed containment).

    ``tests`` lists the shapes' compiled predicates when the caller reuses
    them over many points (see ``depths``); without it the shapes are
    compiled for this call.
    """
    if tests is None:
        tests = compile_ranges([p], shapes)[1]
    c = p.coords
    return sum(1 for test in tests if test(c))


def depths(points: list[Point], shapes: Sequence[Range]) -> list[int]:
    """Depth of every point, compiling each shape once."""
    tests = list(compile_ranges(points, shapes)[1])
    return [depth(p, shapes, tests) for p in points]


@dataclass(frozen=True)
class LevelProfile:
    """Per-point levels and the doubling partition P_0, P_1, ...

    P_0 holds points with value < m/r; P_i (i > 0) holds points with value in
    [2^{i-1} m/r, 2^i m/r).
    """

    values: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    base_threshold: Fraction  # m/r

    def class_of(self, point_index: int) -> int:
        v = self.values[point_index]
        if v < self.base_threshold:
            return 0
        i = 1
        while v >= (2 ** i) * self.base_threshold:
            i += 1
        return i


def level_partition(points: list[Point], hyperplanes: Sequence[Hyperplane],
                    r: Rat) -> LevelProfile:
    """Partition points into doubling level classes for parameter r."""
    m = len(hyperplanes)
    if not (1 <= r <= max(m, 1)):
        raise InvalidInputError("need 1 <= r <= m")
    values = tuple(level(p, hyperplanes) for p in points)
    return _partition_from_values(values, Fraction(m) / Fraction(r))


def depth_partition(points: list[Point], shapes: Sequence[Range],
                    r: Rat) -> LevelProfile:
    """Same partition but by depth w.r.t. arbitrary shapes."""
    m = len(shapes)
    if not (1 <= r <= max(m, 1)):
        raise InvalidInputError("need 1 <= r <= m")
    values = tuple(depths(points, shapes))
    return _partition_from_values(values, Fraction(m) / Fraction(r))


def _partition_from_values(values: tuple[int, ...],
                           base: Fraction) -> LevelProfile:
    buckets: dict[int, list[int]] = {}
    for idx, v in enumerate(values):
        if v < base:
            c = 0
        else:
            c = 1
            while v >= (2 ** c) * base:
                c += 1
        buckets.setdefault(c, []).append(idx)
    top = max(buckets) if buckets else 0
    classes = tuple(tuple(buckets.get(c, ())) for c in range(top + 1))
    return LevelProfile(values, classes, base)


# ---------------------------------------------------------------------------
# censuses

@dataclass(frozen=True)
class CensusRow:
    """One census observation: exact band count against a reference value.

    ``observed`` counts the half-open band [m/r, 2m/r); ``observed_closed``
    counts the closed band [m/r, 2m/r].  ``reference`` is the comparison
    curve value; ``ratio`` = observed / reference (None when reference is 0).
    """

    r: Rat
    observed: int
    observed_closed: int
    reference: float
    ratio: float | None

    @staticmethod
    def csv_header() -> list[str]:
        return ["r", "observed", "observed_closed", "reference", "ratio"]

    def csv_row(self) -> list[str]:
        return [str(self.r), str(self.observed), str(self.observed_closed),
                f"{self.reference:.6g}",
                "" if self.ratio is None else f"{self.ratio:.6g}"]


def _band_counts(values: Sequence[int], m: int, r: Rat) -> tuple[int, int]:
    lo = Fraction(m) / Fraction(r)
    hi = 2 * lo
    half_open = sum(1 for v in values if lo <= v < hi)
    closed = sum(1 for v in values if lo <= v <= hi)
    return half_open, closed


def shallow_census(points: list[Point], halfspaces: list[Halfspace], k: int,
                   r: Rat, node_budget: int = DEFAULT_NODE_BUDGET,
                   precomputed_levels: Sequence[int] | None = None,
                   skip_free_check: bool = False) -> CensusRow:
    """Count points with level in [m/r, 2m/r) against the reference k * r^(d/2 floor).

    The halfspaces must be upper halfspaces; the graph must be K_{k,k}-free
    and r at most m/(2k).  ``precomputed_levels`` lets sweeps reuse one level
    computation; ``skip_free_check`` lets them verify freeness once.
    """
    m = len(halfspaces)
    if any(h.side != "upper" for h in halfspaces):
        raise InvalidInputError("shallow census expects upper halfspaces")
    if not halfspaces:
        raise InvalidInputError("no halfspaces")
    d = halfspaces[0].dim
    if Fraction(r) > Fraction(m, 2 * k):
        raise InvalidInputError("need r <= m/(2k)")
    if not skip_free_check:
        require_free(points, halfspaces, k, node_budget)
    if precomputed_levels is None:
        bounds = [h.boundary for h in halfspaces]
        precomputed_levels = [level(p, bounds) for p in points]
    observed, closed = _band_counts(precomputed_levels, m, r)
    reference = float(k) * float(Fraction(r)) ** (d // 2)
    ratio = observed / reference if reference else None
    return CensusRow(r, observed, closed, reference, ratio)


def depth_census(points: list[Point], shapes: list[Range], k: int, r: Rat,
                 union_complexity: Callable[[float], float],
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 precomputed_depths: Sequence[int] | None = None,
                 skip_free_check: bool = False) -> CensusRow:
    """Count points with depth in [m/r, 2m/r) against k * F0(r) for a caller
    supplied union-complexity reference F0."""
    m = len(shapes)
    if not shapes:
        raise InvalidInputError("no shapes")
    if Fraction(r) > Fraction(m, 2 * k):
        raise InvalidInputError("need r <= m/(2k)")
    if not skip_free_check:
        require_free(points, shapes, k, node_budget)
    if precomputed_depths is None:
        precomputed_depths = depths(points, shapes)
    observed, closed = _band_counts(precomputed_depths, m, r)
    reference = float(k) * union_complexity(float(Fraction(r)))
    ratio = observed / reference if reference else None
    return CensusRow(r, observed, closed, reference, ratio)


# ---------------------------------------------------------------------------
# census schedules

@dataclass(frozen=True)
class CensusSchedule:
    """Strictly increasing depth thresholds t_0 < ... < t_l, t_0 = 2k, t_l >= m."""

    thresholds: tuple[int, ...]
    mode: str
    k: int
    m: int

    def __post_init__(self):
        t = self.thresholds
        if not t or t[0] != 2 * self.k or t[-1] < self.m:
            raise InvalidInputError("malformed schedule")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise InvalidInputError("thresholds must strictly increase")

    def __len__(self) -> int:
        return len(self.thresholds)

    @property
    def steps(self) -> int:
        return len(self.thresholds) - 1


def census_schedule(k: int, m: int, mode: str = "general",
                    c: int = 4) -> CensusSchedule:
    """Threshold sequence for banded censuses.

    general: double for c*log2(k) steps, then t -> t^(c/(c-1)) until >= m.
    fat: double for max(1, ceil(3*log2(log2 k))) steps, then t -> 2^sqrt(t/k)
    until >= m.  Both phases force strict increase at small scales, where the
    raw recurrences are non-monotone (the tower step only dominates doubling
    once t/k exceeds log^2 of t).
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if m < 2 * k:
        raise InvalidInputError("need m >= 2k")
    if mode not in ("general", "fat"):
        raise InvalidInputError(f"unknown schedule mode: {mode!r}")
    t = 2 * k
    out = [t]
    if mode == "general":
        doubling = math.ceil(c * math.log2(k)) if k > 1 else 0
        i = 0
        while t < m:
            i += 1
            if i <= doubling:
                t = 2 * t
            else:
                t = max(t + 1, math.ceil(t ** (c / (c - 1))))
            out.append(t)
    else:
        loglogk = math.log2(math.log2(k)) if k >= 2 else 0.0
        doubling = max(1, math.ceil(3 * loglogk))
        i = 0
        while t < m:
            i += 1
            if i <= doubling:
                t = 2 * t
            else:
                # Tower step, capped just past m to avoid astronomically
                # large final thresholds (bands beyond m are unreachable).
                exponent = math.sqrt(t / k)
                cap = max(m, 2 * t)
                step = cap if exponent >= math.log2(cap) else math.ceil(2 ** exponent)
                t = max(2 * t, step)
            out.append(t)
    return CensusSchedule(tuple(out), mode, k, m)


def iterated_log2(x: float) -> int:
    """log*: iterations of log2 needed to bring x to at most 1."""
    count = 0
    while x > 1:
        x = math.log2(x)
        count += 1
    return count
