"""Instance bundles and their JSON file format.

An instance is (points, ranges, k, dimension, provenance).  Rationals are
serialized as "p" or "p/q" strings so exactness survives round trips and
other tooling.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InvalidInputError
from .geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                       LinearHalfspace, Point, Polyhedron, Range, Triangle,
                       Wedge2, Wedge3, as_rat, rat_str, require_dim)
from .reports import write_json

FORMAT_VERSION = 1

# Stands for an omitted provenance, which becomes a new empty dict; an
# explicit ``None`` is rejected like any other value that is not a dict.
_NO_PROVENANCE = object()


class Instance:
    """Points and ranges in one dimension, with an optional k and a
    provenance dict.  Two instances are equal when all five fields are."""

    def __init__(self, dimension: int, points: list[Point],
                 ranges: list[Range], k: int | None = None,
                 provenance: dict = _NO_PROVENANCE):
        if provenance is _NO_PROVENANCE:
            provenance = {}
        if not _is_int(dimension) or dimension < 1:
            raise InvalidInputError(
                f"dimension must be a positive integer: {dimension!r}")
        if k is not None and (not _is_int(k) or k < 1):
            raise InvalidInputError(
                f"k must be a positive integer or null: {k!r}")
        if not isinstance(provenance, dict):
            raise InvalidInputError(
                f"provenance must be an object: {provenance!r}")
        require_dim(points, dimension, "point")
        require_dim(ranges, dimension, "range")
        self.dimension = dimension
        self.points = points
        self.ranges = ranges
        self.k = k
        self.provenance = provenance

    def __eq__(self, other):  # so Instance, being mutable, is unhashable
        if other.__class__ is not Instance:
            return NotImplemented
        return ((self.dimension, self.points, self.ranges, self.k,
                 self.provenance)
                == (other.dimension, other.points, other.ranges, other.k,
                    other.provenance))

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def m(self) -> int:
        return len(self.ranges)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _opt(v) -> str | None:
    return None if v is None else rat_str(v)


def _opt_load(v):
    return None if v is None else as_rat(v)


def _items(v) -> list:
    """A JSON array; a string or object in its place is malformed, not
    iterated."""
    if not isinstance(v, list):
        raise InvalidInputError(f"expected an array, got {type(v).__name__}")
    return v


def _rats(v) -> tuple:
    return tuple(as_rat(c) for c in _items(v))


def _opt_rats(v) -> tuple:
    return tuple(_opt_load(c) for c in _items(v))


def range_to_json(r: Range) -> dict[str, Any]:
    if isinstance(r, Box):
        return {"type": "box", "lows": [_opt(v) for v in r.lows],
                "highs": [_opt(v) for v in r.highs]}
    if isinstance(r, Halfspace):
        return {"type": "halfspace", "side": r.side,
                "slopes": [rat_str(v) for v in r.boundary.slopes],
                "offset": rat_str(r.boundary.offset)}
    if isinstance(r, LinearHalfspace):
        return {"type": "linear-halfspace",
                "coeffs": [rat_str(v) for v in r.coeffs],
                "rhs": rat_str(r.rhs), "sense": r.sense}
    if isinstance(r, Ball):
        return {"type": "ball",
                "center": [rat_str(v) for v in r.center.coords],
                "radius_sq": rat_str(r.radius_sq)}
    if isinstance(r, (Wedge2, Wedge3)):
        return {"type": f"wedge{r.dim}", "a": rat_str(r.a),
                "b": rat_str(r.b), "c": rat_str(r.c)}
    if isinstance(r, Curtain):
        return {"type": "curtain", "a": rat_str(r.a), "b": rat_str(r.b),
                "lo": _opt(r.lo), "hi": _opt(r.hi)}
    if isinstance(r, Triangle):
        return {"type": "triangle",
                "vertices": [[rat_str(v[0]), rat_str(v[1])]
                             for v in r.vertices]}
    if isinstance(r, Line2):
        return {"type": "line", "a": rat_str(r.a), "b": rat_str(r.b)}
    if isinstance(r, Polyhedron):
        return {"type": "polyhedron",
                "normals": [[rat_str(c) for c in nrm] for nrm in r.normals],
                "lows": [_opt(v) for v in r.lows],
                "highs": [_opt(v) for v in r.highs]}
    raise InvalidInputError(f"unserializable range: {type(r).__name__}")


def range_from_json(obj: dict[str, Any]) -> Range:
    kind = obj.get("type")
    if kind == "box":
        return Box(_opt_rats(obj["lows"]), _opt_rats(obj["highs"]))
    if kind == "halfspace":
        return Halfspace(Hyperplane(_rats(obj["slopes"]),
                                    as_rat(obj["offset"])), obj["side"])
    if kind == "linear-halfspace":
        return LinearHalfspace(_rats(obj["coeffs"]), as_rat(obj["rhs"]),
                               obj["sense"])
    if kind == "ball":
        return Ball(Point(_rats(obj["center"])), as_rat(obj["radius_sq"]))
    if kind in ("wedge2", "wedge3"):
        wedge = Wedge2 if kind == "wedge2" else Wedge3
        return wedge(as_rat(obj["a"]), as_rat(obj["b"]), as_rat(obj["c"]))
    if kind == "curtain":
        return Curtain(as_rat(obj["a"]), as_rat(obj["b"]),
                       _opt_load(obj["lo"]), _opt_load(obj["hi"]))
    if kind == "triangle":
        vs = [Point(_rats(v)) for v in _items(obj["vertices"])]
        return Triangle(*vs)  # TypeError unless exactly three
    if kind == "line":
        return Line2(as_rat(obj["a"]), as_rat(obj["b"]))
    if kind == "polyhedron":
        return Polyhedron(tuple(_rats(nrm) for nrm in _items(obj["normals"])),
                          _opt_rats(obj["lows"]), _opt_rats(obj["highs"]))
    raise InvalidInputError(f"unknown range type: {kind!r}")


def instance_to_json(inst: Instance) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "dimension": inst.dimension,
        "k": inst.k,
        "provenance": inst.provenance,
        "points": [[rat_str(c) for c in p.coords] for p in inst.points],
        "ranges": [range_to_json(r) for r in inst.ranges],
    }


def instance_from_json(obj: dict[str, Any]) -> Instance:
    """Decode an instance document; any malformed one raises
    InvalidInputError."""
    if not isinstance(obj, dict):
        raise InvalidInputError("instance document must be a JSON object")
    version = obj.get("format_version")
    # True == 1 and 1.0 == 1 in Python; only the integer is a version.
    if type(version) is not int or version != FORMAT_VERSION:
        raise InvalidInputError(f"unsupported format_version: {version!r}")
    try:
        points = [Point(_rats(row)) for row in _items(obj["points"])]
        ranges = [range_from_json(r) for r in _items(obj["ranges"])]
        return Instance(obj["dimension"], points, ranges, obj.get("k"),
                        obj.get("provenance", {}))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InvalidInputError(
            f"malformed instance: {type(exc).__name__}: {exc}") from exc


def save_instance(inst: Instance, path) -> None:
    """Atomic write: serialize to a sibling temp file, then rename."""
    write_json(path, instance_to_json(inst))


def load_instance(path) -> Instance:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, RecursionError, ValueError) as exc:
        # ValueError covers bad JSON and bytes that are not UTF-8.
        raise InvalidInputError(f"cannot read instance file: {exc}") from exc
    return instance_from_json(obj)
