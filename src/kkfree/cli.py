"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 integrity violation (a check that
should hold failed: bound violated, cover mismatch, certificate failure, or
a K_{k,k} found where freeness was required), 3 unknown verdict (a bounded
search gave up).

The default output directory is the current directory or $KKFREE_OUT.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from . import generators as gens
from .errors import (InvalidInputError, KkfreeError, NotApplicableError,
                     UnknownVerdictError)
from .extremal import BoundFormula, elekes_grid, eval_bound, lower_bound_5d
from .fat import build_fat_structure, fat_query
from .geometry import Triangle, as_rat
from .incidence import (DEFAULT_NODE_BUDGET, build_box_cover, cover_bound,
                        find_kkk, incidences_bruteforce, interval_audit,
                        verify_cover)
from .instances import Instance, load_instance, save_instance
from .levels import (CensusRow, census_schedule, depth_census,
                     iterated_log2, shallow_census)
from .reductions import (balls_to_halfspaces, origin_triangle_to_curtain,
                         orthants_to_halfspaces, pointline_to_5d,
                         polyhedra_to_boxes, threesided_to_orthants,
                         wedge_dual, wedge_lift)
from .reports import svg_plot, write_csv, write_json
from .slab import box_audit, curtain_audit, rect_audit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRITY = 2
EXIT_UNKNOWN = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _out_dir(args) -> str:
    return args.out_dir or os.environ.get("KKFREE_OUT", ".")


def _out_path(args, name: str) -> str:
    d = _out_dir(args)
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)


def _instance_k(args, inst) -> int:
    """The --k option, else the instance's k, else 2."""
    k = (inst.k or 2) if args.k is None else args.k
    if k < 1:
        raise InvalidInputError(f"k must be >= 1: {k}")
    return k


# ---------------------------------------------------------------------------
# gen

def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    prov = {"generator": args.family, "seed": args.seed,
            "params": {"n": args.n, "m": args.m, "d": args.d, "N": args.N,
                       "k": args.k, "delta": args.delta}}
    if args.family == "elekes":
        points, ranges = elekes_grid(args.N)
        inst = Instance(2, points, list(ranges), 2, prov)
    elif args.family == "lower5d":
        red = lower_bound_5d(args.N)
        if not red.verify():
            print("embedding certificate failed", file=sys.stderr)
            return EXIT_INTEGRITY
        inst = Instance(5, red.target_points, red.target_ranges, 2, prov)
    elif args.family == "random-boxes":
        points = gens.random_points(rng, args.n, args.d)
        ranges = gens.random_boxes(rng, args.m, args.d)
        inst = Instance(args.d, points, ranges, args.k, prov)
    elif args.family == "random-halfspaces":
        points = gens.random_points(rng, args.n, args.d)
        ranges = gens.random_halfspaces(rng, args.m, args.d, side=args.side)
        inst = Instance(args.d, points, ranges, args.k, prov)
    elif args.family == "random-fat":
        points = gens.random_points(rng, args.n, 2)
        ranges = gens.random_fat_triangles(rng, args.m, args.delta)
        inst = Instance(2, points, ranges, args.k, prov)
    elif args.family == "random-curtains":
        points = gens.random_points(rng, args.n, 2)
        ranges = gens.random_curtains(rng, args.m)
        inst = Instance(2, points, ranges, args.k, prov)
    else:  # census-halfplanes
        points, ranges = gens.census_halfplane_instance(args.n)
        inst = Instance(2, points, ranges, 2, prov)
    save_instance(inst, args.out)
    print(f"wrote {args.out}: n={inst.n} m={inst.m} d={inst.dimension}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    inst = load_instance(args.instance)
    graph = incidences_bruteforce(inst.points, inst.ranges)
    print(graph.edge_count)
    return EXIT_OK


def _cmd_kkk(args) -> int:
    inst = load_instance(args.instance)
    graph = incidences_bruteforce(inst.points, inst.ranges)
    res = find_kkk(graph, args.k, args.budget)
    if res.status == "unknown":
        print(f"unknown (search budget {args.budget} exhausted after "
              f"{res.nodes} nodes)")
        return EXIT_UNKNOWN
    if res.found:
        print(f"found: points={list(res.points)} ranges={list(res.ranges)}")
    else:
        print("free")
    return EXIT_OK


def _cmd_cover(args) -> int:
    inst = load_instance(args.instance)
    k = _instance_k(args, inst)
    build = build_box_cover(inst.points, inst.ranges)
    graph = incidences_bruteforce(inst.points, inst.ranges)
    if not verify_cover(build.cover, graph):
        print("INTEGRITY: cover does not reproduce the oracle edge set")
        return EXIT_INTEGRITY
    res = find_kkk(graph, k, args.budget)
    if res.status == "unknown":
        print("unknown: biclique search budget exhausted")
        return EXIT_UNKNOWN
    print(f"edges={graph.edge_count} cover_pairs={len(build.cover.pairs)} "
          f"cover_size={build.cover.size()}")
    if res.found:
        print(f"K_{{{k},{k}}} witness: points={list(res.points)} "
              f"ranges={list(res.ranges)}")
        return EXIT_INTEGRITY
    cb = cover_bound(build.cover, k)
    if cb.certified:
        print(f"certified bound: {cb.bound} >= {graph.edge_count}")
        if cb.bound < graph.edge_count:
            print("INTEGRITY: certified bound below the edge count")
            return EXIT_INTEGRITY
    else:
        print(f"cover exhibits an embedded K_{{{k},{k}}}: "
              f"points={list(cb.witness_points)} ranges={list(cb.witness_ranges)}")
        return EXIT_INTEGRITY
    return EXIT_OK


# ---------------------------------------------------------------------------

def _cmd_audit(args) -> int:
    inst = load_instance(args.instance)
    k = _instance_k(args, inst)
    if args.kind == "interval":
        rep = interval_audit(inst.points, inst.ranges, k, args.budget)
        rows = [[r.block, r.size, r.containing, r.boundary, r.incidences]
                for r in rep.blocks]
        write_csv(_out_path(args, "interval_audit.csv"),
                  ["block", "size", "containing", "boundary", "incidences"],
                  rows, {"n": rep.n, "m": rep.m, "k": rep.k,
                         "bound": rep.bound, "incidences": rep.incidences,
                         "last_block_term": rep.last_block_term})
        print(f"I={rep.incidences} bound={rep.bound} holds={rep.holds}")
        return EXIT_OK if rep.holds else EXIT_INTEGRITY
    if args.kind == "fat":
        return _audit_fat(args, inst)
    if args.kind == "rect":
        rep = rect_audit(inst.points, inst.ranges, args.b, k)
    elif args.kind == "box":
        rep = box_audit(inst.points, inst.ranges, args.b, k)
    else:  # curtain
        rep = curtain_audit(inst.points, inst.ranges, k)
    graph = incidences_bruteforce(inst.points, inst.ranges)
    write_json(_out_path(args, f"{args.kind}_audit.json"), rep.to_json_dict())
    write_csv(_out_path(args, f"{args.kind}_audit_ledger.csv"),
              rep.LEDGER_HEADER, rep.ledger_rows(),
              {"kind": rep.kind, "b": rep.b, "k": rep.k, "total": rep.total,
               "fitted_constant": f"{rep.fitted_constant():.6g}"})
    ok = rep.total == graph.edge_count
    print(f"audit total={rep.total} oracle={graph.edge_count} exact={ok} "
          f"fitted_constant={rep.fitted_constant():.4g}")
    return EXIT_OK if ok else EXIT_INTEGRITY


def _audit_fat(args, inst) -> int:
    """Build the reporting structure, replay the instance's triangles as
    queries, and emit per-query instrumentation plus storage totals."""
    if not all(isinstance(r, Triangle) for r in inst.ranges):
        raise InvalidInputError("fat audit needs a triangle instance")
    graph = incidences_bruteforce(inst.points, inst.ranges)
    structure = build_fat_structure(inst.points)
    rows = []
    ok = True
    for j, tri in enumerate(inst.ranges):
        got, stats = fat_query(structure, tri)
        ok = ok and sorted(got) == graph.rows[j]
        rows.append([j, stats.reported, stats.nodes_visited,
                     stats.curtain_stats.nodes_visited, stats.point_tests,
                     stats.work, stats.stratum, int(stats.curtain_answers)])
    write_csv(_out_path(args, "fat_structure_stats.csv"),
              ["query", "reported", "tree_nodes", "curtain_nodes",
               "point_tests", "work", "stratum", "curtain_answers"],
              rows, {"n": inst.n, "m": inst.m,
                     "stored_entries": structure.stored_entries(),
                     "max_depth": structure.max_depth()})
    print(f"fat queries={inst.m} exact={ok} "
          f"stored_entries={structure.stored_entries()}")
    return EXIT_OK if ok else EXIT_INTEGRITY


# ---------------------------------------------------------------------------

def _census_r_sweep(m: int, k: int) -> list[int]:
    out = []
    r = 2
    while r <= m // (2 * k):
        out.append(r)
        r *= 2
    return out


def _cmd_census(args) -> int:
    if args.kind == "schedule":
        k = 2 if args.k is None else args.k
        sched = census_schedule(k, args.m, args.mode, args.c)
        rows = [[i, t] for i, t in enumerate(sched.thresholds)]
        write_csv(_out_path(args, "schedule.csv"), ["index", "threshold"],
                  rows, {"k": k, "m": args.m, "mode": args.mode,
                         "length": len(sched)})
        print(f"thresholds={list(sched.thresholds)} length={len(sched)} "
              f"log_star_m={iterated_log2(args.m)}")
        return EXIT_OK
    inst = load_instance(args.instance)
    k = _instance_k(args, inst)
    m = inst.m
    sweep = args.r or _census_r_sweep(m, k)
    if not sweep:
        print("no admissible r (need m >= 4k)", file=sys.stderr)
        return EXIT_USAGE
    if args.kind == "shallow":
        rows = shallow_census(inst.points, inst.ranges, k, sweep, args.budget)
    else:
        f0 = {"linear": lambda r: r,
              "fat": lambda r: r * max(1, iterated_log2(r))}[args.f0]
        rows = depth_census(inst.points, inst.ranges, k, sweep, f0,
                            args.budget)
    write_csv(_out_path(args, f"census_{args.kind}.csv"),
              CensusRow.csv_header(), [row.csv_row() for row in rows],
              {"n": inst.n, "m": inst.m, "k": k})
    worst = max((row.ratio for row in rows if row.ratio is not None),
                default=0.0)
    print(f"rows={len(rows)} worst_ratio={worst:.4g}")
    return EXIT_OK


# ---------------------------------------------------------------------------

_REDUCTIONS = {
    "polyhedra-to-boxes": (polyhedra_to_boxes, None),
    "threesided-to-orthants": (threesided_to_orthants, 3),
    "orthants-to-halfspaces": (orthants_to_halfspaces, 3),
    "balls-to-halfspaces": (balls_to_halfspaces, None),
    "pointline-to-5d": (pointline_to_5d, 5),
    "wedge-dual": (wedge_dual, 3),
    "wedge-lift": (wedge_lift, 3),
}


def _cmd_reduce(args) -> int:
    inst = load_instance(args.instance)
    if args.name == "origin-triangle-to-curtain":
        red = origin_triangle_to_curtain(inst.points, inst.ranges)
        ok = red.verify()
        write_json(_out_path(args, "certificate.json"), {
            "name": red.certificate.name,
            "point_map": red.certificate.point_map,
            "range_map": red.certificate.range_map,
            "notes": red.certificate.notes,
            "verified": ok,
            "cells": [{"sigma": c.sigma, "points": len(c.point_indices),
                       "curtains": sum(1 for t in c.target_curtains
                                       if t is not None)}
                      for c in red.cells],
        })
        print(f"verified={ok}")
        return EXIT_OK if ok else EXIT_INTEGRITY
    fn, tgt_dim = _REDUCTIONS[args.name]
    red = fn(inst.points, inst.ranges)
    ok = red.verify()
    dim = tgt_dim or (red.target_points[0].dim if red.target_points else inst.dimension)
    out_inst = Instance(dim, red.target_points, red.target_ranges, inst.k,
                        {"reduced_from": os.path.basename(args.instance),
                         "reduction": args.name})
    if args.out:
        save_instance(out_inst, args.out)
    write_json(_out_path(args, "certificate.json"), {
        "name": red.certificate.name,
        "point_map": red.certificate.point_map,
        "range_map": red.certificate.range_map,
        "swapped_sides": red.certificate.swapped_sides,
        "notes": red.certificate.notes,
        "verified": ok,
    })
    print(f"verified={ok}" + (f" wrote {args.out}" if args.out else ""))
    return EXIT_OK if ok else EXIT_INTEGRITY


# ---------------------------------------------------------------------------

def _cmd_report(args) -> int:
    rows = []
    for path in args.instances:
        inst = load_instance(path)
        graph = incidences_bruteforce(inst.points, inst.ranges)
        k = inst.k or 2
        res = find_kkk(graph, k, args.budget)
        rows.append([os.path.basename(path), inst.dimension, inst.n, inst.m,
                     graph.edge_count, k, res.status])
    write_csv(_out_path(args, "summary.csv"),
              ["instance", "d", "n", "m", "incidences", "k", "kkk"], rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return EXIT_OK


def _cmd_plot(args) -> int:
    import csv as _csv
    xs_ys: list[tuple[float, float]] = []
    try:
        with open(args.csv) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read CSV file: {exc}") from exc
    reader = _csv.DictReader(lines)
    columns = reader.fieldnames or []
    for name in (args.x, args.y):
        if name not in columns:
            raise InvalidInputError(
                f"CSV has no column {name!r}; columns: {', '.join(columns)}")
    for row in reader:
        x, y = (_plot_value(row, name) for name in (args.x, args.y))
        if x is not None and y is not None:
            xs_ys.append((x, y))
    series = [(args.y, xs_ys)]
    if args.overlay:
        formula = BoundFormula(args.overlay, d=args.d, epsilon=args.epsilon)
        ref = [(x, eval_bound(formula, max(int(x), 1), args.m, args.k,
                              args.constant)) for x, _ in xs_ys]
        series.append((f"{args.overlay} reference", ref))
    svg_plot(_out_path(args, args.out), series, title=args.title,
             xlabel=args.x, ylabel=args.y, loglog=not args.linear)
    print(f"wrote {_out_path(args, args.out)}")
    return EXIT_OK


def _plot_value(row: dict, name: str) -> float | None:
    # None for a cell that is missing (a short row), empty or not a number.
    cell = row[name]
    if cell is None:
        return None
    try:
        return float(as_rat(cell))
    except (ValueError, ZeroDivisionError):
        return None
    except OverflowError:
        raise InvalidInputError(
            f"column {name!r}: {cell[:40]!r} is beyond the float range"
        ) from None
    except InvalidInputError as exc:
        raise InvalidInputError(f"column {name!r}: {exc}") from None


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    # Built once per process: a parser holds reference cycles, so one built
    # per ``main`` call would stay in memory until the cycle collector ran.
    p = _Parser(prog="kkfree", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $KKFREE_OUT or .)")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("family", choices=["elekes", "lower5d", "random-boxes",
                                      "random-halfspaces", "random-fat",
                                      "random-curtains", "census-halfplanes"])
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n", type=int, default=50)
    g.add_argument("--m", type=int, default=50)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--N", type=int, default=2)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--delta", type=float, default=math.pi / 6)
    g.add_argument("--side", choices=["upper", "lower"], default=None,
                   help="fix halfspace orientation (random-halfspaces)")
    g.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("count",
                       help="exact incidence count (candidate-index oracle)")
    c.add_argument("instance")
    c.set_defaults(fn=_cmd_count)

    kk = sub.add_parser("kkk", help="search for an induced K_{k,k}")
    kk.add_argument("instance")
    kk.add_argument("--k", type=int, required=True)
    kk.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    kk.set_defaults(fn=_cmd_kkk)

    cv = sub.add_parser("cover", help="build + verify a box biclique cover")
    cv.add_argument("instance")
    cv.add_argument("--k", type=int, default=None)
    cv.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    cv.set_defaults(fn=_cmd_cover)

    au = sub.add_parser("audit", help="divide-and-conquer counting audits")
    au.add_argument("kind", choices=["interval", "rect", "box", "curtain",
                                     "fat"])
    au.add_argument("instance")
    au.add_argument("--b", type=int, default=4)
    au.add_argument("--k", type=int, default=None)
    au.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    au.set_defaults(fn=_cmd_audit)

    ce = sub.add_parser("census", help="level/depth censuses and schedules")
    ce.add_argument("kind", choices=["shallow", "depth", "schedule"])
    ce.add_argument("instance", nargs="?")
    ce.add_argument("--k", type=int, default=None)
    ce.add_argument("--m", type=int, default=64)
    ce.add_argument("--mode", choices=["general", "fat"], default="general")
    ce.add_argument("--c", type=int, default=4)
    ce.add_argument("--r", type=int, nargs="*", default=None)
    ce.add_argument("--f0", choices=["linear", "fat"], default="linear")
    ce.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    ce.set_defaults(fn=_cmd_census)

    rd = sub.add_parser("reduce", help="apply a named reduction + certificate")
    rd.add_argument("name", choices=sorted(_REDUCTIONS)
                    + ["origin-triangle-to-curtain"])
    rd.add_argument("instance")
    rd.add_argument("--out", default=None)
    rd.set_defaults(fn=_cmd_reduce)

    rp = sub.add_parser("report", help="summary CSV for instances")
    rp.add_argument("instances", nargs="+")
    rp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    rp.set_defaults(fn=_cmd_report)

    pl = sub.add_parser("plot", help="SVG growth curves from a CSV")
    pl.add_argument("csv")
    pl.add_argument("--x", required=True)
    pl.add_argument("--y", required=True)
    pl.add_argument("--out", default="plot.svg")
    pl.add_argument("--title", default="")
    pl.add_argument("--overlay", default=None,
                    choices=["interval", "box", "halfspace", "ball", "fat"])
    pl.add_argument("--d", type=int, default=2)
    pl.add_argument("--epsilon", type=float, default=0.5)
    pl.add_argument("--m", type=int, default=1)
    pl.add_argument("--k", type=int, default=2)
    pl.add_argument("--constant", type=float, default=1.0)
    pl.add_argument("--linear", action="store_true")
    pl.set_defaults(fn=_cmd_plot)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except NotApplicableError as exc:
        print(f"not applicable: {exc} witness={exc.witness}")
        return EXIT_INTEGRITY
    except UnknownVerdictError:
        print("unknown: biclique search budget exhausted")
        return EXIT_UNKNOWN
    except KkfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
