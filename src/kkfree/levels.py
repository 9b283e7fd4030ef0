"""Levels w.r.t. hyperplanes, depth w.r.t. shapes, shallow censuses, and
census threshold schedules.

Band conventions: "between the t-level and the 2t-level" is read as the
half-open interval [t, 2t), so the bands of doubling thresholds are disjoint.
Census rows also carry the closed-band count [t, 2t] so the alternative
reading stays visible in audit output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidInputError
from .geometry import Halfspace, Hyperplane, Point, Range, Rat, contains
from .incidence import (DEFAULT_NODE_BUDGET, IncidenceGraph,
                        incidences_bruteforce, require_free)


def level(p: Point, hyperplanes: Sequence[Hyperplane]) -> int:
    """Number of hyperplanes lying on or below p (exact)."""
    return sum(1 for h in hyperplanes if h.side_of(p) >= 0)


def depth(p: Point, shapes: Sequence[Range]) -> int:
    """Number of shapes containing p (closed containment)."""
    return sum(contains(s, p) for s in shapes)


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


def census_rows(graph: IncidenceGraph, k: int, rs: Sequence[Rat],
                reference: Callable[[float], float],
                node_budget: int = DEFAULT_NODE_BUDGET) -> list[CensusRow]:
    """One census row per r in ``rs``, from one K_{k,k}-free graph.

    A point's value is its degree in ``graph``: the number of ranges holding
    it, which is its level for upper halfspaces and its depth for shapes.
    Each row counts the values in [m/r, 2m/r) against k * reference(r).
    Every r must lie in [1, m/(2k)]; that is checked before the search.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    m = graph.m
    if any(not 1 <= Fraction(r) <= Fraction(m, 2 * k) for r in rs):
        raise InvalidInputError("need 1 <= r <= m/(2k)")
    require_free(graph, k, node_budget)
    values = list(map(len, graph.columns))
    rows = []
    for r in rs:
        observed, closed = _band_counts(values, m, r)
        ref = float(k) * reference(float(Fraction(r)))
        ratio = observed / ref if ref else None
        rows.append(CensusRow(r, observed, closed, ref, ratio))
    return rows


def shallow_census(points: list[Point], halfspaces: list[Halfspace], k: int,
                   rs: Sequence[Rat],
                   node_budget: int = DEFAULT_NODE_BUDGET) -> list[CensusRow]:
    """Count points with level in [m/r, 2m/r) against the reference
    k * r^(d/2 floor), one row per r in ``rs``.

    The halfspaces must be upper halfspaces, so a point's level is the
    number of halfspaces holding it; the graph must be K_{k,k}-free.
    """
    if not all(isinstance(h, Halfspace) and h.side == "upper"
               for h in halfspaces):
        raise InvalidInputError("shallow census expects upper halfspaces")
    if not halfspaces:
        raise InvalidInputError("no halfspaces")
    d = halfspaces[0].dim
    graph = incidences_bruteforce(points, halfspaces)
    return census_rows(graph, k, rs, lambda r: r ** (d // 2), node_budget)


def depth_census(points: list[Point], shapes: list[Range], k: int,
                 rs: Sequence[Rat], union_complexity: Callable[[float], float],
                 node_budget: int = DEFAULT_NODE_BUDGET) -> list[CensusRow]:
    """Count points with depth in [m/r, 2m/r) against k * F0(r) for a caller
    supplied union-complexity reference F0, one row per r in ``rs``."""
    if not shapes:
        raise InvalidInputError("no shapes")
    graph = incidences_bruteforce(points, shapes)
    return census_rows(graph, k, rs, union_complexity, node_budget)


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


def census_schedule(k: int, m: int, mode: str = "general",
                    c: int = 4) -> CensusSchedule:
    """Threshold sequence for banded censuses.

    general: double for c*log2(k) steps, then t -> t^(c/(c-1)) until >= m.
    fat: double for max(1, ceil(3*log2(log2 k))) steps, then t -> 2^sqrt(t/k)
    until >= m.  Both phases force strict increase at small scales, where the
    raw recurrences are non-monotone (the tower step only dominates doubling
    once t/k exceeds log^2 of t).  c must be >= 2 in both modes, though
    only general reads it.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if m < 2 * k:
        raise InvalidInputError("need m >= 2k")
    if mode not in ("general", "fat"):
        raise InvalidInputError(f"unknown schedule mode: {mode!r}")
    if c < 2:
        raise InvalidInputError(f"schedule needs c >= 2: {c}")
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
