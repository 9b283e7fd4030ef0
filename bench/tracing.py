"""Span tracing of kkfree from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper, at
its defining module and at every kkfree module that imported the name, and
``uninstall`` puts the originals back.  A span records name, start, end and
parent; a layer's self time is its span's duration minus its child spans.
Callees that run very often (``canonical_decomposition``, the per-point
``level``/``depth``, ``centroid_square``) are folded into one count-and-time
record per parent span instead of one span per call.

Counters are read from arguments and results after each op has finished,
outside every span, so computing them does not show up as layer time.
Spans stay in memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from statistics import median
from time import perf_counter



def _oracle_counters(args, kwargs, graph):
    from kkfree.instances import range_to_json
    points, ranges = args[0], args[1]
    # keyed by the range's type name in the instance file format
    kind = range_to_json(ranges[0])["type"] if ranges else "none"
    return {"pairs": len(points) * len(ranges), "edges": graph.edge_count,
            "type": kind}


def _find_kkk_counters(args, kwargs, res):
    graph = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    rich = 0
    if k == 2:
        rich = sum(1 for j in range(graph.m)
                   if len(graph.points_in_range(j)) >= 2)
    return {"nodes": res.nodes, "unknown": int(res.status == "unknown"),
            "rich_pairs": rich * (rich - 1) // 2}


def _cover_counters(args, kwargs, build):
    return {"pairs": len(build.cover.pairs), "size": build.cover.size()}


def _slab_counters(args, kwargs, report):
    nodes = leaf_pairs = 0
    for node in report.nodes():
        nodes += 1
        if node.kind == "leaf":
            leaf_pairs += node.n * node.m
    return {"nodes": nodes, "leaf_pairs": leaf_pairs}


def _fat_build_counters(args, kwargs, structure):
    return {"stored_entries": structure.stored_entries(),
            "max_depth": structure.max_depth()}


def _fat_query_counters(args, kwargs, result):
    stats = result[1]
    return {"work": stats.work, "point_tests": stats.point_tests,
            "reported": stats.reported}


def _write_counters(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _len_result(args, result):
    return len(result)


def _len_second_arg(args, result):
    return len(args[1])


# (defining module, attribute, counters) for spans;
# (defining module, attribute, per-call extra count) for folded callees.
SPANS = [
    ("kkfree.incidence", "incidences_bruteforce", _oracle_counters),
    ("kkfree.incidence", "find_kkk", _find_kkk_counters),
    ("kkfree.incidence", "build_box_cover", _cover_counters),
    ("kkfree.incidence", "verify_cover", None),
    ("kkfree.incidence", "interval_audit", None),
    ("kkfree.slab", "rect_audit", _slab_counters),
    ("kkfree.slab", "box_audit", _slab_counters),
    ("kkfree.slab", "curtain_audit", _slab_counters),
    ("kkfree.levels", "shallow_census", None),
    ("kkfree.levels", "depth_census", None),
    ("kkfree.reductions", "polyhedra_to_boxes", None),
    ("kkfree.reductions", "threesided_to_orthants", None),
    ("kkfree.reductions", "orthants_to_halfspaces", None),
    ("kkfree.reductions", "balls_to_halfspaces", None),
    ("kkfree.reductions", "pointline_to_5d", None),
    ("kkfree.reductions", "wedge_dual", None),
    ("kkfree.reductions", "wedge_lift", None),
    ("kkfree.reductions", "origin_triangle_to_curtain", None),
    ("kkfree.reductions", "Reduction.verify", None),
    ("kkfree.fat.structure", "build_fat_structure", _fat_build_counters),
    ("kkfree.fat.structure", "fat_query", _fat_query_counters),
    ("kkfree.instances", "load_instance", None),
    ("kkfree.instances", "save_instance", None),
    ("kkfree.reports", "write_csv", _write_counters),
    ("kkfree.reports", "write_json", _write_counters),
]
FOLDED = [
    ("kkfree.dyadic", "canonical_decomposition", _len_result),
    ("kkfree.levels", "level", _len_second_arg),
    ("kkfree.levels", "depth", _len_second_arg),
    ("kkfree.fat.quadtree", "centroid_square", None),
]


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "counters",
                 "folded")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0        # summed duration of child spans and folds
        self.counters = {}
        self.folded = {}        # name -> [calls, seconds, extra count]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name,
                "parent": self.parent.id if self.parent else None,
                "start": self.start, "end": self.end, "self_s": self.self_s,
                "counters": self.counters, "folded": self.folded}


def _short(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pending: list[tuple] = []
        self._restore: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for module, attr, counters in SPANS:
            self._patch(module, attr, self._span_wrapper(
                _short(module, attr), self._resolve(module, attr), counters))
        for module, attr, extra in FOLDED:
            self._patch(module, attr, self._fold_wrapper(
                _short(module, attr), self._resolve(module, attr), extra))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    @staticmethod
    def _resolve(module: str, attr: str):
        obj = sys.modules[module]
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    def _patch(self, module: str, attr: str, wrapper) -> None:
        if "." in attr:     # a method: patch it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module], cls_name)
            self._restore.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)
            return
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "kkfree"
                                   or name.startswith("kkfree.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    # dispatch tables such as cli._REDUCTIONS hold the
                    # function itself, or a tuple starting with it
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and v and v[0] is original:
                            self._restore.append((value, k, v))
                            value[k] = (wrapper, *v[1:])

    def _span_wrapper(self, name, fn, counters):
        stack, spans, pending = self._stack, self.spans, self._pending

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, parent)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if counters is not None:
                pending.append((span, counters, args, kwargs, result))
            return result
        return wrapper

    def _fold_wrapper(self, name, fn, extra):
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            parent.child += dt
            rec = parent.folded.get(name)
            if rec is None:
                rec = parent.folded[name] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += dt
            if extra is not None:
                rec[2] += extra(args, result)
            return result
        return wrapper

    # -- root spans and counters -----------------------------------------

    @contextmanager
    def root(self, name: str):
        span = Span(len(self.spans), name, None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()
            self.flush()

    def flush(self) -> None:
        """Compute the counters of finished spans and drop the references
        to their arguments and results."""
        for span, counters, args, kwargs, result in self._pending:
            span.counters = counters(args, kwargs, result)
        self._pending.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

_SELF_TIME = {
    "incidence.find_kkk": "incidence.find_kkk_s",
    "incidence.build_box_cover": "incidence.cover_s",
    "incidence.verify_cover": "incidence.verify_cover_s",
    "incidence.interval_audit": "incidence.interval_audit_s",
    "slab.rect_audit": "slab.rect_s",
    "slab.box_audit": "slab.box_s",
    "slab.curtain_audit": "slab.curtain_s",
    "levels.shallow_census": "levels.census_s",
    "levels.depth_census": "levels.census_s",
    "reductions.verify": "reductions.verify_s",
    "structure.build_fat_structure": "fat.build_s",
    "structure.fat_query": "fat.query_s",
    "instances.load_instance": "instances.load_s",
    "instances.save_instance": "instances.save_s",
    "reports.write_csv": "reports.write_s",
    "reports.write_json": "reports.write_s",
}
_FOLDED = {
    "dyadic.canonical_decomposition": ("dyadic.decompose_s",
                                       "dyadic.decompositions",
                                       "dyadic.ranges"),
    "levels.level": ("levels.level_s", None, "levels.tests"),
    "levels.depth": ("levels.depth_s", None, "levels.tests"),
    "quadtree.centroid_square": ("fat.centroid_square_s", None, None),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counters of one traced script run.

    Root spans named ``op:*`` are the CLI ops; their own self time is the
    CLI glue.  The ``setup`` root span contributes its saves only.  Metrics
    of layers the run never entered are absent.
    """
    out: dict[str, float] = defaultdict(int)
    oracle_self: dict[str, float] = {}
    reduction_names = {_short(m, a) for m, a, _ in SPANS
                       if m == "kkfree.reductions" and a != "Reduction.verify"}
    for span in spans:
        name, c = span.name, span.counters
        for fname, (calls, secs, extra) in span.folded.items():
            t_key, n_key, x_key = _FOLDED[fname]
            out[t_key] += secs
            if n_key:
                out[n_key] += calls
            if x_key:
                out[x_key] += extra
        if span.parent is None:
            if name.startswith("op:"):
                out["cli.glue_s"] += span.self_s
            continue
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += span.self_s
        if name == "incidence.incidences_bruteforce":
            out["incidence.oracle_s"] += span.self_s
            out["incidence.oracle.pairs"] += c["pairs"]
            out["incidence.oracle.edges"] += c["edges"]
            oracle_self[c["type"]] = oracle_self.get(c["type"], 0.0) + span.self_s
            out[f"geometry.{c['type']}.pairs"] += c["pairs"]
            if span.parent.name == "reductions.verify":
                out["reductions.verify.pairs"] += c["pairs"]
        elif name == "incidence.find_kkk":
            out["incidence.find_kkk.calls"] += 1
            for key in ("nodes", "unknown", "rich_pairs"):
                out[f"incidence.find_kkk.{key}"] += c[key]
        elif name == "incidence.build_box_cover":
            out["incidence.cover.pairs"] += c["pairs"]
            out["incidence.cover.size"] += c["size"]
        elif name.startswith("slab.") and not span.parent.name.startswith("slab."):
            out["slab.nodes"] += c["nodes"]
            out["slab.leaf_pairs"] += c["leaf_pairs"]
        elif name in reduction_names:
            out["reductions.transform_s"] += span.self_s
        elif name == "structure.build_fat_structure":
            out["fat.stored_entries"] += c["stored_entries"]
            out["fat.max_depth"] = max(out["fat.max_depth"], c["max_depth"])
        elif name == "structure.fat_query":
            out["fat.queries"] += 1
            out["fat.query.work"] += c["work"]
            out["fat.query.point_tests"] += c["point_tests"]
            out["fat.query.reported_per_work"] += c["reported"]
        elif name == "instances.load_instance":
            out["instances.loads"] += 1
        elif name.startswith("reports."):
            out["reports.bytes"] += c["bytes"]
    if out["fat.query.work"]:
        out["fat.query.reported_per_work"] /= out["fat.query.work"]
    if out["incidence.oracle.pairs"]:
        out["incidence.oracle.hit_frac"] = (out["incidence.oracle.edges"]
                                            / out["incidence.oracle.pairs"])
    for kind, secs in oracle_self.items():
        pairs = out[f"geometry.{kind}.pairs"]
        if pairs:
            out[f"geometry.{kind}.ns_per_pair"] = secs / pairs * 1e9
    return dict(out)


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith("ns_per_pair")


def median_layer_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Times as medians over traced runs; counters from the first run (the
    determinism gate requires them to be equal)."""
    return {key: median(r[key] for r in runs) if is_time(key) else runs[0][key]
            for key in runs[0]}
