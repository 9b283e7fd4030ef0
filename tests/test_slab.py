import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from kkfree import generators as gens
from kkfree.errors import DimensionMismatchError, InvalidInputError
from kkfree.geometry import (Box, Curtain, Halfspace, Hyperplane, Triangle,
                             pt)
from kkfree.incidence import incidences_bruteforce
from kkfree.reports import json_text
from kkfree.slab import (_count_rank_y, box_audit, curtain_audit,
                         fitted_constant, rect_audit)

from conftest import box2


def test_rect_requires_branching():
    with pytest.raises(InvalidInputError):
        rect_audit([pt(0, 0)], [], 1, 2)


def test_rect_single_rect_all_points():
    pts = [pt(i, 0) for i in range(20)]
    rects = [box2(-1, 30, -1, 1)]
    rep = rect_audit(pts, rects, 4, 2)
    assert rep.total == 20
    # Everything is charged at the first split (never inside one slab).
    assert rep.root.charged == 1 and rep.root.attributed == 20


def test_rect_degenerate_full_split():
    pts = [pt(i, i % 3) for i in range(12)]
    rects = [box2(2, 9, 0, 2), box2(0, 3, 1, 1)]
    rep = rect_audit(pts, rects, 12, 2)  # one point per slab at the root
    oracle = incidences_bruteforce(pts, rects).edge_count
    assert rep.total == oracle


def test_rect_matches_oracle(rng):
    for trial in range(60):
        n = rng.randint(1, 120)
        m = rng.randint(0, 60)
        b = rng.choice((2, 3, 4, 8, 16))
        pts = gens.random_points(rng, n, 2, 150)
        rects = gens.random_boxes(rng, m, 2, 150)
        rep = rect_audit(pts, rects, b, 2)
        assert rep.total == incidences_bruteforce(pts, rects).edge_count
        for node in rep.nodes():
            if node.kind == "split":
                assert node.charged + sum(node.inside_counts) <= node.m


def test_rect_with_unbounded_sides(rng):
    pts = gens.random_points(rng, 40, 2, 80)
    rects = gens.random_threesided(rng, 25, 80, 60)
    rep = rect_audit(pts, rects, 4, 2)
    assert rep.total == incidences_bruteforce(pts, rects).edge_count


def test_rect_ledger_has_constant(rng):
    pts = gens.random_points(rng, 90, 2, 100)
    rects = gens.random_boxes(rng, 50, 2, 100)
    rep = rect_audit(pts, rects, 4, 2)
    rows = rep.ledger_rows()
    assert fitted_constant(rows) < 64
    assert sum(r[4] for r in rows) == rep.total


def test_box_matches_oracle(rng):
    for trial in range(40):
        n = rng.randint(1, 60)
        m = rng.randint(0, 30)
        b = rng.choice((2, 3, 4))
        d = rng.choice((3, 4))
        pts = gens.random_points(rng, n, d, 60)
        boxes = gens.random_boxes(rng, m, d, 60)
        rep = box_audit(pts, boxes, b, 2)
        assert rep.total == incidences_bruteforce(pts, boxes).edge_count


def test_box_all_long():
    # x-unbounded boxes are long across every slab: the root splits into
    # projected subproblems only.
    pts = [pt(i, (i * 7) % 5, (i * 3) % 4) for i in range(30)]
    boxes = [Box((None, 0, 0), (None, 3, 2)),
             Box((None, 1, None), (None, 4, 3))]
    rep = box_audit(pts, boxes, 3, 2)
    assert rep.total == incidences_bruteforce(pts, boxes).edge_count
    assert all(c == 0 for c in rep.root.inside_counts)
    assert all(ch.kind in ("projected", "leaf", "rect-base", "split")
               for ch in rep.root.children)
    assert any(ch.kind == "projected" for ch in rep.root.children)


def test_box_vertex_conservation(rng):
    for trial in range(25):
        pts = gens.random_points(rng, 50, 3, 60)
        boxes = gens.random_boxes(rng, 25, 3, 60)
        rep = box_audit(pts, boxes, 3, 2)
        for node in rep.nodes():
            if node.kind == "split" and node.dim >= 3:
                assert node.child_vertices <= node.vertices
                assert node.vertices <= (1 << node.dim) * node.m


def test_curtain_one_sided():
    pts = [pt(i, 0) for i in range(16)]
    curtains = [Curtain(0, 1, 0, 3), Curtain(0, 1, 1, 2)]
    rep = curtain_audit(pts, curtains, 2)
    assert rep.total == incidences_bruteforce(pts, curtains).edge_count


def test_curtain_matches_oracle(rng):
    for trial in range(50):
        n = rng.randint(1, 100)
        m = rng.randint(0, 50)
        pts = gens.random_points(rng, n, 2, 120)
        curtains = gens.random_curtains(rng, m, 120)
        rep = curtain_audit(pts, curtains, 2)
        assert rep.total == incidences_bruteforce(pts, curtains).edge_count


def test_curtain_ledger(rng):
    pts = gens.random_points(rng, 80, 2, 100)
    curtains = gens.random_curtains(rng, 40, 100)
    rep = curtain_audit(pts, curtains, 2)
    rows = rep.ledger_rows()
    assert sum(r[4] for r in rows) == rep.total
    assert fitted_constant(rows) < 64


def test_report_json_roundtrip(rng):
    pts = gens.random_points(rng, 30, 2, 50)
    rects = gens.random_boxes(rng, 15, 2, 50)
    rep = rect_audit(pts, rects, 4, 2)
    doc = rep.to_json_dict()
    assert doc["total"] == rep.total
    assert doc["root"]["n"] == 30
    # The audit JSON writes each node's fields in this order.
    rep = box_audit(gens.random_points(rng, 40, 3, 50),
                    gens.random_boxes(rng, 20, 3, 50), 4, 2)
    doc = rep.to_json_dict()
    assert list(doc) == ["kind", "b", "k", "total", "root"]
    stack, kinds = [doc["root"]], set()
    while stack:
        node = stack.pop()
        kinds.add(node["kind"])
        assert list(node) == [
            "kind", "depth", "dim", "n", "m", "charged", "attributed",
            "inside_counts", "threesided", "crossing", "vertices",
            "child_vertices", "children"]
        stack.extend(node["children"])
    assert {"split", "leaf"} <= kinds


# Each audit checks dimensions once, on entry: a leaf or node deeper down
# would otherwise test a range against the wrong coordinates.  Where the
# object of another dimension comes last, a check of the first alone misses
# it.

def test_curtain_rejects_3d_points():
    with pytest.raises(DimensionMismatchError):
        curtain_audit([pt(0, 0, 5), pt(1, 1, 5)], [Curtain(0, 10, -5, 5)], 2)
    with pytest.raises(DimensionMismatchError,
                       match="point 1 has dimension 3, not 2"):
        curtain_audit([pt(0, 0), pt(1, 1, 5)], [Curtain(0, 10, -5, 5)], 2)


def test_rect_rejects_3d_points_before_any_leaf():
    # The spanning rectangle is charged at the root split, never at a leaf.
    with pytest.raises(DimensionMismatchError):
        rect_audit([pt(i, i, 5) for i in range(20)],
                   [box2(-1, 30, -1, 30)], 4, 2)
    with pytest.raises(DimensionMismatchError,
                       match="point 19 has dimension 3, not 2"):
        rect_audit([pt(i, i) for i in range(19)] + [pt(19, 19, 5)],
                   [box2(-1, 30, -1, 30)], 4, 2)


def test_rect_rejects_boxes_of_another_dimension():
    with pytest.raises(DimensionMismatchError,
                       match="range 1 has dimension 3, not 2"):
        rect_audit([pt(0, 0)], [box2(-1, 5, -1, 5), Box((0,) * 3, (1,) * 3)],
                   2, 2)


def test_box_rejects_boxes_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        box_audit([pt(0, 0, 0), pt(1, 1, 1), pt(2, 2, 2)],
                  [box2(-1, 5, -1, 5)], 2, 2)
    with pytest.raises(DimensionMismatchError,
                       match="range 1 has dimension 2, not 3"):
        box_audit([pt(0, 0, 0), pt(1, 1, 1), pt(2, 2, 2)],
                  [Box((0,) * 3, (1,) * 3), box2(-1, 5, -1, 5)], 2, 2)


def test_box_rejects_mixed_point_dimensions():
    with pytest.raises(DimensionMismatchError,
                       match="point 6 has dimension 2, not 3"):
        box_audit([pt(i, i, i) for i in range(6)] + [pt(0, 0)],
                  [Box((0, 0, 0), (3, 3, 3))], 8, 2)


def test_audits_check_dimensions_with_an_empty_side():
    # With no points the ranges are compared with the audit's dimension,
    # the first box's for a box audit; with no ranges, so are the points.
    with pytest.raises(DimensionMismatchError,
                       match="range 1 has dimension 4, not 1"):
        box_audit([], [Box((0,), (1,)), Box((0, 0, 0, 0), (1, 1, 1, 1))], 2, 2)
    with pytest.raises(DimensionMismatchError,
                       match="point 0 has dimension 3, not 2"):
        rect_audit([pt(1, 2, 3)], [], 2, 2)
    with pytest.raises(DimensionMismatchError,
                       match="point 1 has dimension 3, not 2"):
        curtain_audit([pt(1, 2), pt(1, 2, 3)], [], 2)
    with pytest.raises(InvalidInputError):
        box_audit([], [Box((0,), (1,))], 2, 2)
    with pytest.raises(DimensionMismatchError,
                       match="range 0 has dimension 3, not 2"):
        rect_audit([], [Box((0, 0, 0), (1, 1, 1))], 2, 2)


def test_count_rank_y_matches_brute_force(rng):
    # Half-open x-rank ranges, empty ones too, and closed y extents: open at
    # an end, empty, or on repeated values, over integers and fractions.
    for trial in range(200):
        n = rng.randint(0, 12)
        pts = [(i, rng.choice((rng.randint(-3, 3), F(rng.randint(-6, 6), 2))))
               for i in range(n)]
        ends = [None, F(1, 3), -4, 4, *(p[1] for p in pts)]
        queries = [(s, s, None, None) for s in range(n + 1)]
        for _ in range(15):
            start = rng.randint(0, n)
            queries.append((start, rng.randint(start, n), rng.choice(ends),
                            rng.choice(ends)))
        want = [sum((ylo is None or ylo <= y) and (yhi is None or y <= yhi)
                    for _, y in pts[start:stop])
                for start, stop, ylo, yhi in queries]
        assert _count_rank_y(pts, queries) == want, trial


def test_empty_leaf_charges_every_range():
    boxes = [Box((0, 0, 0), (1, 1, 1)), Box((None, 0, 0), (5, None, 5))]
    rects = [box2(0, 1, 0, 1), box2(None, 2, 0, None)]
    for rep in (box_audit([], boxes, 2, 2), box_audit([], rects, 2, 2),
                rect_audit([], rects, 2, 2),
                curtain_audit([], [Curtain(1, 0, None, 3)], 2)):
        root = rep.root
        assert (root.kind, root.n, root.attributed, rep.total) == \
            ("leaf", 0, 0, 0)
        assert root.charged == root.m > 0
    assert box_audit([], boxes, 2, 2).root.dim == 3
    assert box_audit([pt(1, 2, 3)], [], 2, 2).root.charged == 0


@pytest.mark.parametrize("audit, good", [
    (lambda p, r: rect_audit(p, r, 2, 2), box2(0, 5, 0, 5)),
    (lambda p, r: box_audit(p, r, 2, 2), box2(0, 5, 0, 5)),
    (lambda p, r: curtain_audit(p, r, 2), Curtain(1, 0, None, 3)),
], ids=["rect", "box", "curtain"])
def test_audits_reject_other_range_types(audit, good):
    # Planar ranges of the wrong type pass every dimension check; each one,
    # also after a range of the right type, is rejected at entry.
    pts = [pt(i, 2 * i) for i in range(6)]
    for bad in (Halfspace(Hyperplane((1,), 0), "upper"),
                Triangle(pt(0, 0), pt(4, 0), pt(0, 4))):
        for ranges in ([bad], [good, bad]):
            with pytest.raises(InvalidInputError, match="is not a"):
                audit(pts, ranges)


def _pinned_audit(name, seed):
    rng = random.Random(seed)
    if name == "rect":
        pts = gens.random_points(rng, 60, 2, 20)
        rects = (gens.random_boxes(rng, 25, 2, 20)
                 + gens.random_threesided(rng, 8, 20, 10))
        return rect_audit(pts, rects, 3, 2)
    if name == "curtain":
        pts = gens.random_points(rng, 60, 2, 20)
        return curtain_audit(pts, gens.random_curtains(rng, 30, 20, 3), 2)
    d = int(name[-2])
    pts = gens.random_points(rng, 90, d, 10)
    boxes = gens.random_boxes(rng, 16, d, 10)
    # Open leading sides make a box long across slabs at more than one
    # level, so in 4D projections are projected again down to 2D splits.
    boxes += [Box((None, None) + b.lows[2:], (None, None) + b.highs[2:])
              for b in gens.random_boxes(rng, 6, d, 10)]
    boxes += [Box((None,) + b.lows[1:], b.highs)
              for b in gens.random_boxes(rng, 6, d, 10)]
    return box_audit(pts, boxes, 3, 2)


@pytest.mark.parametrize("name,seed,total,digest", [
    ("rect", 1, 170,
     "071a692e61e6b8506f1328aa740e5f5d40120679b1c944a68d1acb0816d795ca"),
    ("box2d", 2, 806,
     "872f84667ba65e643173b309457c54f62951f243eaa8136285496dc509362e56"),
    ("box3d", 3, 419,
     "0abdb226965ee5059c3b8e4642c251df04de60760c55a05d811d27c88c600c4a"),
    ("box4d", 4, 112,
     "269066fea6724582bcb14bef869531a6a16efe8e7c831ceff35415a84d5db3a2"),
    ("curtain", 5, 276,
     "01ad074dbf16a34438f1f46c97bd9b6df2bfc0f728b4c8afaebbf673cf2975c0"),
])
def test_audit_json_pinned(name, seed, total, digest):
    # SHA-256 of the audit JSON as the CLI writes it: node kinds
    # ("rect-base", "projected"), depths and every ledger field.
    rep = _pinned_audit(name, seed)
    text = json_text(rep.to_json_dict())
    assert text == json.dumps(rep.to_json_dict(), indent=1,
                              sort_keys=True) + "\n"
    assert rep.total == total
    assert hashlib.sha256(text.encode()).hexdigest() == digest
