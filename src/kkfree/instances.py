"""Instance bundles and their JSON file format.

An instance is (points, ranges, k, dimension, provenance).  Rationals are
serialized as "p" or "p/q" strings so exactness survives round trips and
other tooling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import InvalidInputError
from .geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                       LinearHalfspace, Point, Polyhedron, Range, Triangle,
                       Wedge2, Wedge3, as_rat, rat_str)

FORMAT_VERSION = 1


@dataclass
class Instance:
    dimension: int
    points: list[Point]
    ranges: list[Range]
    k: int | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _is_int(self.dimension) or self.dimension < 1:
            raise InvalidInputError(
                f"dimension must be a positive integer: {self.dimension!r}")
        if self.k is not None and (not _is_int(self.k) or self.k < 1):
            raise InvalidInputError(
                f"k must be a positive integer or null: {self.k!r}")
        if not isinstance(self.provenance, dict):
            raise InvalidInputError(
                f"provenance must be an object: {self.provenance!r}")
        for p in self.points:
            if p.dim != self.dimension:
                raise InvalidInputError("point dimension mismatch")
        for r in self.ranges:
            if r.dim != self.dimension:
                raise InvalidInputError("range dimension mismatch")

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
    if isinstance(r, Wedge2):
        return {"type": "wedge2", "a": rat_str(r.a), "b": rat_str(r.b),
                "c": rat_str(r.c)}
    if isinstance(r, Wedge3):
        return {"type": "wedge3", "a": rat_str(r.a), "b": rat_str(r.b),
                "c": rat_str(r.c)}
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
        return Box(tuple(_opt_load(v) for v in obj["lows"]),
                   tuple(_opt_load(v) for v in obj["highs"]))
    if kind == "halfspace":
        return Halfspace(Hyperplane(tuple(as_rat(v) for v in obj["slopes"]),
                                    as_rat(obj["offset"])), obj["side"])
    if kind == "linear-halfspace":
        return LinearHalfspace(tuple(as_rat(v) for v in obj["coeffs"]),
                               as_rat(obj["rhs"]), obj["sense"])
    if kind == "ball":
        return Ball(Point(tuple(as_rat(v) for v in obj["center"])),
                    as_rat(obj["radius_sq"]))
    if kind == "wedge2":
        return Wedge2(as_rat(obj["a"]), as_rat(obj["b"]), as_rat(obj["c"]))
    if kind == "wedge3":
        return Wedge3(as_rat(obj["a"]), as_rat(obj["b"]), as_rat(obj["c"]))
    if kind == "curtain":
        return Curtain(as_rat(obj["a"]), as_rat(obj["b"]),
                       _opt_load(obj["lo"]), _opt_load(obj["hi"]))
    if kind == "triangle":
        vs = [Point((as_rat(v[0]), as_rat(v[1]))) for v in obj["vertices"]]
        return Triangle(*vs)  # TypeError unless exactly three
    if kind == "line":
        return Line2(as_rat(obj["a"]), as_rat(obj["b"]))
    if kind == "polyhedron":
        return Polyhedron(tuple(tuple(as_rat(c) for c in nrm)
                                for nrm in obj["normals"]),
                          tuple(_opt_load(v) for v in obj["lows"]),
                          tuple(_opt_load(v) for v in obj["highs"]))
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
    if version != FORMAT_VERSION:
        raise InvalidInputError(f"unsupported format_version: {version!r}")
    try:
        points = [Point(tuple(as_rat(c) for c in row))
                  for row in obj["points"]]
        ranges = [range_from_json(r) for r in obj["ranges"]]
        return Instance(obj["dimension"], points, ranges, obj.get("k"),
                        obj.get("provenance", {}))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InvalidInputError(
            f"malformed instance: {type(exc).__name__}: {exc}") from exc


def save_instance(inst: Instance, path) -> None:
    """Atomic write: serialize to a sibling temp file, then rename."""
    import os
    payload = json.dumps(instance_to_json(inst), indent=1, sort_keys=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(payload + "\n")
    os.replace(tmp, path)


def load_instance(path) -> Instance:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read instance file: {exc}") from exc
    return instance_from_json(obj)
