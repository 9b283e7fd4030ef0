"""Seeded instances and CLI op scripts for the three benchmark workloads.

Each workload is a list of instances, built from the seed with the public
kkfree constructors and written with ``save_instance``, plus a script of CLI
ops run one after another against those files.  Every op carries the exit
code it must return and a check of its printed output; ops that end in a
K_{k,k} verdict name the verdict their instance forces.
"""

from __future__ import annotations

import math
import random
import re
from typing import Callable, NamedTuple

from kkfree import generators as gens
from kkfree.extremal import elekes_grid
from kkfree.geometry import Box, Line2, Point
from kkfree.instances import Instance

DEFAULT_SEED = 1

WORKLOADS = ("boxes", "fat", "free-search")


class Op(NamedTuple):
    """One CLI invocation with its expected outcome.

    ``verdict`` is None for ops that give no K_{k,k} verdict; otherwise it
    is the verdict the instance forces: "free" for families that are
    K_{k,k}-free by construction, "found" for dense random ones.  "unknown"
    (exit 3) is always allowed and counted apart.  ``check`` maps the
    captured stdout to None (fine) or a failure message; ``witness`` names
    the instance whose "found" witness is re-verified after timing.
    """

    name: str
    argv: list[str]
    exit_code: int
    check: Callable[[str], str | None]
    verdict: str | None = None
    witness: str | None = None


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _distinct_sorted(rng: random.Random, n: int, spread: int) -> list[int]:
    return sorted(rng.sample(range(-spread, spread), n))


# ---------------------------------------------------------------------------
# constructions that are K_{k,k}-free by design

def antidiagonal_boxes(rng: random.Random, n: int) -> tuple[list, list]:
    """K_{2,2}-free boxes: points (x_t, -x_t) on the antidiagonal; box t
    spans the window of points t..t+w-1 with w in {1, 2}.  A box holds
    exactly its window, and two boxes share two points only if they are the
    same width-2 window, so no two boxes share two points."""
    xs = _distinct_sorted(rng, n, 10 ** 6)
    points = [Point((x, -x)) for x in xs]
    boxes = []
    for t in range(n - 1):
        hi = xs[t + rng.randint(0, 1)]
        boxes.append(Box((xs[t], -hi), (hi, -xs[t])))
    return _shuffled(rng, points), _shuffled(rng, boxes)


def window_intervals(rng: random.Random, n: int, k: int) -> tuple[list, list]:
    """K_{k,k}-free intervals: one interval per start t, holding exactly the
    points t..t+w-1 (w <= k).  k points lie in a common interval only when
    that interval's window is exactly those k points, and each window has a
    single interval, so no k intervals share k points."""
    xs = _distinct_sorted(rng, n + 1, 10 ** 6)
    points = [Point((x,)) for x in xs[:n]]
    intervals = []
    for t in range(n):
        last = min(n - 1, t + rng.randint(0, k - 1))
        lo = rng.randint(xs[t - 1] + 1, xs[t]) if t else xs[t]
        hi = rng.randint(xs[last], xs[last + 1] - 1)
        intervals.append(Box((lo,), (hi,)))
    return _shuffled(rng, points), _shuffled(rng, intervals)


def pair_lines(rng: random.Random, n: int) -> tuple[list, list]:
    """Points (t, t^2) on a parabola and the line through every pair.  A
    line meets the parabola in at most two points, so every line holds
    exactly two points and two lines share at most one: K_{2,2}-free."""
    ts = _distinct_sorted(rng, n, 1000)
    points = [Point((t, t * t)) for t in ts]
    lines = [Line2(s + t, -s * t) for i, s in enumerate(ts) for t in ts[i + 1:]]
    return _shuffled(rng, points), _shuffled(rng, lines)


def shifted_elekes(rng: random.Random, n_param: int) -> tuple[list, list]:
    """The Elekes grid (K_{2,2}-free, N^4 incidences), translated by a seeded
    integer vector and listed in seeded order.  Translation maps the line
    y = ax + b to y = ax + (b + dy - a dx), so incidences are unchanged."""
    points, lines = elekes_grid(n_param)
    dx, dy = rng.randint(-500, 500), rng.randint(-500, 500)
    points = [Point((p[0] + dx, p[1] + dy)) for p in points]
    lines = [Line2(ln.a, ln.b + dy - ln.a * dx) for ln in lines]
    return _shuffled(rng, points), _shuffled(rng, lines)


def census_halfplanes(rng: random.Random, n: int) -> tuple[list, list]:
    points, halfplanes = gens.census_halfplane_instance(n)
    return _shuffled(rng, points), _shuffled(rng, halfplanes)


# ---------------------------------------------------------------------------
# output checks

def _expect(pattern: str, test=None, what: str = ""):
    """Check that stdout matches ``pattern`` and, if given, that ``test``
    holds for the match."""
    rx = re.compile(pattern)

    def check(out: str):
        m = rx.search(out)
        if m is None:
            return f"output does not match {pattern!r}"
        if test is not None and not test(m):
            return f"output check failed: {what or pattern}"
        return None
    return check


def _census_rows(m: int, k: int) -> int:
    return len([r for r in (2 ** i for i in range(1, 64)) if r <= m // (2 * k)])


EXACT = _expect(r"exact=True")
WITNESS = r"points=\[([\d, ]*)\] ranges=\[([\d, ]*)\]"


def script(name: str, files: dict[str, str]) -> list[Op]:
    """The op script of one workload over its saved instance files."""
    f = files
    if name == "boxes":
        return [
            Op("count dense2d", ["count", f["dense2d"]], 0,
               _expect(r"^\d+\s*$")),
            Op("cover dense2d", ["cover", f["dense2d"], "--k", "2"], 2,
               _expect(r"K_\{2,2\} witness: " + WITNESS),
               verdict="found", witness="dense2d"),
            Op("cover sparse2d", ["cover", f["sparse2d"], "--k", "2"], 0,
               _expect(r"edges=(\d+) .*\ncertified bound: (\d+) >= (\d+)",
                       lambda m: int(m[2]) >= int(m[3]) == int(m[1]),
                       "certified bound >= edges"),
               verdict="free"),
            Op("audit rect dense2d", ["audit", "rect", f["dense2d"]], 0, EXACT),
            Op("audit box dense3d", ["audit", "box", f["dense3d"]], 0, EXACT),
            Op("audit curtain curtains",
               ["audit", "curtain", f["curtains"]], 0, EXACT),
            Op("audit interval windows",
               ["audit", "interval", f["windows"], "--k", "3"], 0,
               _expect(r"I=(\d+) bound=(\d+) holds=True",
                       lambda m: int(m[1]) <= int(m[2]), "I <= bound"),
               verdict="free"),
            Op("kkk3 dense2d", ["kkk", f["dense2d"], "--k", "3"], 0,
               _expect(r"found: " + WITNESS),
               verdict="found", witness="dense2d"),
        ]
    if name == "fat":
        return [Op("audit fat", ["audit", "fat", f["fat"]], 0,
                   _expect(r"fat queries=\d+ exact=True"))]
    if name == "free-search":
        rows = _census_rows(CENSUS_N, 2)
        return [
            Op("census shallow", ["census", "shallow", f["census"], "--k", "2"],
               0, _expect(rf"rows={rows} "), verdict="free"),
            Op("census depth", ["census", "depth", f["census"], "--k", "2"],
               0, _expect(rf"rows={rows} "), verdict="free"),
            Op("kkk2 pair-lines", ["kkk", f["pairlines"], "--k", "2"], 0,
               _expect(r"^free\s*$"), verdict="free"),
            Op("kkk3 elekes", ["kkk", f["elekes"], "--k", "3"], 0,
               _expect(r"^free\s*$"), verdict="free"),
            Op("reduce pointline-to-5d",
               ["reduce", "pointline-to-5d", f["elekes_small"],
                "--out", f["elekes5d"]], 0, _expect(r"verified=True")),
            Op("kkk2 elekes5d", ["kkk", f["elekes5d"], "--k", "2"], 0,
               _expect(r"^free\s*$"), verdict="free"),
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# sizes (chosen so one script runs in a few seconds on one core)

BOX_N, BOX_M = 450, 300
SPARSE_N = 400
WINDOW_N = 400
FAT_N, FAT_M = 640, 28
CENSUS_N = 320
PAIR_LINES_N = 60
ELEKES_N = 9          # k=3 search exhausts the default budget at this size
ELEKES_SMALL_N = 6    # source of the 5D image


def build_instances(name: str, seed: int) -> dict[str, Instance]:
    """Instances of one workload; the same seed gives the same instances."""
    rng = random.Random(f"{name}:{seed}")
    if name == "boxes":
        sparse = antidiagonal_boxes(rng, SPARSE_N)
        windows = window_intervals(rng, WINDOW_N, 3)
        return {
            "dense2d": Instance(2, gens.random_points(rng, BOX_N, 2),
                                gens.random_boxes(rng, BOX_M, 2), 2),
            "dense3d": Instance(3, gens.random_points(rng, BOX_N, 3),
                                gens.random_boxes(rng, BOX_M, 3), 2),
            "curtains": Instance(2, gens.random_points(rng, BOX_N, 2),
                                 gens.random_curtains(rng, BOX_M), 2),
            "sparse2d": Instance(2, *sparse, 2),
            "windows": Instance(1, *windows, 3),
        }
    if name == "fat":
        return {"fat": Instance(2, gens.random_points(rng, FAT_N, 2),
                                gens.random_fat_triangles(rng, FAT_M,
                                                          math.pi / 6), 2)}
    if name == "free-search":
        return {
            "census": Instance(2, *census_halfplanes(rng, CENSUS_N), 2),
            "pairlines": Instance(2, *pair_lines(rng, PAIR_LINES_N), 2),
            "elekes": Instance(2, *shifted_elekes(rng, ELEKES_N), 2),
            "elekes_small": Instance(2, *shifted_elekes(rng, ELEKES_SMALL_N), 2),
        }
    raise ValueError(f"unknown workload {name!r}")


# Files an op writes that are inputs of later ops, by workload.
DERIVED = {"free-search": ("elekes5d",)}
