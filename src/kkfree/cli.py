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
import math
import os
import random
import sys

from . import generators as gens
from .errors import (InvalidInputError, KkfreeError, NotApplicableError,
                     UnknownVerdictError)
from .extremal import FAMILIES, elekes_grid, eval_bound, lower_bound_5d
from .fat.structure import build_fat_structure, fat_query
from .geometry import Triangle, as_rat, require_type
from .incidence import (DEFAULT_NODE_BUDGET, build_box_cover, cover_bound,
                        find_kkk, incidences_bruteforce, interval_audit,
                        require_free, verify_cover)
from .instances import Instance, load_instance, save_instance
from .levels import (CensusRow, census_schedule, depth_census,
                     iterated_log2, shallow_census)
from .reductions import (balls_to_halfspaces, origin_triangle_to_curtain,
                         orthants_to_halfspaces, pointline_to_5d,
                         polyhedra_to_boxes, threesided_to_orthants,
                         wedge_dual, wedge_lift)
from .reports import svg_plot, write_csv, write_json
from .slab import box_audit, curtain_audit, fitted_constant, rect_audit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRITY = 2
EXIT_UNKNOWN = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _out_path(args, name: str) -> str:
    d = args.out_dir or os.environ.get("KKFREE_OUT", ".")
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(
            f"cannot write {d}: {exc.strerror or exc}") from exc
    return os.path.join(d, name)


def _instance_k(args, inst) -> int:
    """The --k option, else the instance's k, else 2."""
    k = (inst.k or 2) if args.k is None else args.k
    if k < 1:
        raise InvalidInputError(f"k must be >= 1: {k}")
    return k


# ---------------------------------------------------------------------------
# gen

def _lower5d(a, rng):
    red = lower_bound_5d(a.N)
    if not red.verify():
        raise NotApplicableError("INTEGRITY: embedding certificate failed")
    return 5, red.target_points, red.target_ranges, 2


def _random(draw, width, dim=None):
    """(size, make) of --n random points of dimension ``dim``, else --d, and
    the --m ranges ``draw(rng, args)`` of ``width(d)`` numbers each."""
    def size(a):
        d = dim or a.d
        return a.n * d + a.m * width(d)

    def make(a, rng):
        d = dim or a.d
        return d, gens.random_points(rng, a.n, d), draw(rng, a), a.k
    return size, make


def _unit_frame(d: int) -> tuple[tuple[int, ...], ...]:
    """The d unit vectors and (1, ..., 1): random-polyhedra's fixed frame."""
    return (*(tuple(int(i == j) for j in range(d)) for i in range(d)),
            (1,) * d)


# Each family: (size, make).  size(args) counts from the arguments alone the
# numbers (coordinates, range parameters) the family builds; make(args, rng)
# -> (dimension, points, ranges, k), with k from --k for the random ones.
_FAMILIES = {
    # N * 2N^2 points and N^3 lines, two numbers each.
    "elekes": (lambda a: 6 * a.N ** 3,
               lambda a, rng: (2, *elekes_grid(a.N), 2)),
    # The grid, and its 2N^3 points of 5 and N^3 halfspaces of 6 numbers.
    "lower5d": (lambda a: 22 * a.N ** 3, _lower5d),
    "census-halfplanes": (lambda a: 4 * a.n, lambda a, rng: (
        2, *gens.census_halfplane_instance(a.n), 2)),
    "random-boxes": _random(lambda r, a: gens.random_boxes(r, a.m, a.d),
                            lambda d: 2 * d),
    "random-halfspaces": _random(
        lambda r, a: gens.random_halfspaces(r, a.m, a.d, side=a.side),
        lambda d: d),
    "random-fat": _random(
        lambda r, a: gens.random_fat_triangles(r, a.m, a.delta),
        lambda d: 6, 2),
    "random-curtains": _random(lambda r, a: gens.random_curtains(r, a.m),
                               lambda d: 4, 2),
    # Each polyhedron repeats the frame's d + 1 normals of d numbers, and
    # --m 0 builds no frame.
    "random-polyhedra": _random(lambda r, a: gens.random_polyhedra(
        r, a.m, _unit_frame(a.d) if a.m else ()), lambda d: (d + 1) * (d + 2)),
    "random-threesided": _random(
        lambda r, a: gens.random_threesided(r, a.m), lambda d: 4, 2),
    "random-orthants": _random(lambda r, a: gens.random_orthants(r, a.m),
                               lambda d: 6, 3),
    "random-balls": _random(lambda r, a: gens.random_balls(r, a.m, a.d),
                            lambda d: d + 1),
    "random-wedges2": _random(lambda r, a: gens.random_wedges2(r, a.m),
                              lambda d: 3, 2),
    "random-wedges3": _random(lambda r, a: gens.random_wedges3(r, a.m),
                              lambda d: 3, 3),
    "random-origin-triangles": _random(
        lambda r, a: gens.random_origin_triangles(r, a.m), lambda d: 6, 2),
}

# gen refuses a family that would build more numbers than this.
GEN_MAX_NUMBERS = 10 ** 7


def _cmd_gen(args) -> int:
    if args.d < 1 or min(args.n, args.m) < 0:
        raise InvalidInputError("need --d >= 1, --n >= 0 and --m >= 0: "
                                f"d={args.d} n={args.n} m={args.m}")
    size, make = _FAMILIES[args.family]
    if (numbers := size(args)) > GEN_MAX_NUMBERS:
        raise InvalidInputError(f"{args.family} would hold {numbers} numbers, "
                                f"more than gen's cap of {GEN_MAX_NUMBERS}")
    dim, points, ranges, k = make(args, random.Random(args.seed))
    prov = {"generator": args.family, "seed": args.seed,
            "params": {"n": args.n, "m": args.m, "d": dim, "N": args.N,
                       "k": args.k, "delta": args.delta}}
    inst = Instance(dim, points, ranges, k, prov)
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
    require_free(graph, k, args.budget)
    print(f"edges={graph.edge_count} cover_pairs={len(build.cover.pairs)} "
          f"cover_size={build.cover.size()}")
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
    # Only the interval audit searches, but every kind refuses a negative
    # budget, as kkk does.
    if args.budget < 0:
        raise InvalidInputError("node budget must be >= 0")
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
    rows = rep.ledger_rows()
    fitted = fitted_constant(rows)
    write_csv(_out_path(args, f"{args.kind}_audit_ledger.csv"),
              rep.LEDGER_HEADER, rows,
              {"kind": rep.kind, "b": rep.b, "k": rep.k, "total": rep.total,
               "fitted_constant": f"{fitted:.6g}"})
    ok = rep.total == graph.edge_count
    print(f"audit total={rep.total} oracle={graph.edge_count} exact={ok} "
          f"fitted_constant={fitted:.4g}")
    return EXIT_OK if ok else EXIT_INTEGRITY


def _audit_fat(args, inst) -> int:
    """Build the reporting structure, replay the instance's triangles as
    queries, and emit per-query instrumentation plus storage totals."""
    require_type(inst.ranges, Triangle, "fat audit needs triangles")
    graph = incidences_bruteforce(inst.points, inst.ranges)
    structure = build_fat_structure(inst.points)
    stored_entries = structure.stored_entries()
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
                     "stored_entries": stored_entries,
                     "max_depth": structure.max_depth()})
    print(f"fat queries={inst.m} exact={ok} stored_entries={stored_entries}")
    return EXIT_OK if ok else EXIT_INTEGRITY


# ---------------------------------------------------------------------------

def _cmd_census(args) -> int:
    if args.kind == "schedule":
        k = 2 if args.k is None else args.k
        sched = census_schedule(k, args.m, args.mode, args.c)
        rows = [[i, t] for i, t in enumerate(sched)]
        write_csv(_out_path(args, "schedule.csv"), ["index", "threshold"],
                  rows, {"k": k, "m": args.m, "mode": args.mode,
                         "length": len(sched)})
        print(f"thresholds={list(sched)} length={len(sched)} "
              f"log_star_m={iterated_log2(args.m)}")
        return EXIT_OK
    if args.instance is None:
        raise InvalidInputError(f"census {args.kind} needs an instance file")
    inst = load_instance(args.instance)
    k = _instance_k(args, inst)
    # By default, every power of two r >= 2 with r <= m/(2k).
    sweep = args.r or [1 << i
                       for i in range(1, (inst.m // (2 * k)).bit_length())]
    if not sweep:
        raise InvalidInputError("no admissible r (need m >= 4k)")
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

# Each reduction, and an empty target's dimension from the source's.
_REDUCTIONS = {
    "polyhedra-to-boxes": (polyhedra_to_boxes, None),  # never empty
    "threesided-to-orthants": (threesided_to_orthants, lambda d: 3),
    "orthants-to-halfspaces": (orthants_to_halfspaces, lambda d: 3),
    "balls-to-halfspaces": (balls_to_halfspaces, lambda d: d + 1),
    "pointline-to-5d": (pointline_to_5d, lambda d: 5),
    "wedge-dual": (wedge_dual, lambda d: 3),
    "wedge-lift": (wedge_lift, lambda d: 3),
}


def _cmd_reduce(args) -> int:
    origin = args.name == "origin-triangle-to-curtain"
    if origin and args.out:
        raise InvalidInputError(
            "origin-triangle-to-curtain gives one curtain family per sign "
            "cell, not one target instance: drop --out")
    inst = load_instance(args.instance)
    if origin:
        red = origin_triangle_to_curtain(inst.points, inst.ranges)
        extra = {"cells": [{"sigma": c.sigma, "points": len(c.point_indices),
                            "curtains": sum(1 for t in c.target_curtains
                                            if t is not None)}
                           for c in red.cells]}
    else:
        fn, tgt_dim = _REDUCTIONS[args.name]
        red = fn(inst.points, inst.ranges)
        targets = [*red.target_ranges, *red.target_points]
        dim = targets[0].dim if targets else tgt_dim(inst.dimension)
        out_inst = Instance(dim, red.target_points, red.target_ranges, inst.k,
                            {"reduced_from": os.path.basename(args.instance),
                             "reduction": args.name})
        extra = {"swapped_sides": red.certificate.swapped_sides}
    ok = red.verify()
    cert_path = _out_path(args, "certificate.json")  # before any write
    if args.out:
        save_instance(out_inst, args.out)
    write_json(cert_path, {"name": red.certificate.name,
                           "point_map": red.certificate.point_map,
                           "range_map": red.certificate.range_map,
                           "notes": red.certificate.notes,
                           "verified": ok, **extra})
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
    if args.overlay:
        bound = functools.partial(eval_bound, args.overlay, m=args.m,
                                  k=args.k, constant=args.constant, d=args.d,
                                  epsilon=args.epsilon)
        bound(1)  # even with no rows: no row accepts what n=1 refuses
    for row in reader:
        x, y = (_plot_value(row, name) for name in (args.x, args.y))
        if x is not None and y is not None:
            xs_ys.append((x, y))
    series = [(args.y, xs_ys)]
    if args.overlay:
        ref = [(x, bound(max(int(x), 1))) for x, _ in xs_ys]
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
    g.add_argument("family", choices=_FAMILIES)
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
    pl.add_argument("--overlay", default=None, choices=FAMILIES)
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
        print(exc)
        return EXIT_INTEGRITY
    except UnknownVerdictError as exc:
        print(f"unknown: {exc}")
        return EXIT_UNKNOWN
    except KkfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
