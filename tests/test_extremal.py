import pytest

from kkfree.errors import InvalidInputError
from kkfree.extremal import (elekes_grid, eval_bound, lower_bound_5d,
                             verify_favorable)
from kkfree.geometry import pt
from kkfree.incidence import find_kkk, incidences_bruteforce

from conftest import box2


def test_elekes_tiny():
    points, lines = elekes_grid(1)
    assert len(points) == 2 and len(lines) == 1
    g = incidences_bruteforce(points, lines)
    assert g.edge_count == 1


@pytest.mark.parametrize("n_param", [2, 3, 4])
def test_elekes_structure(n_param):
    points, lines = elekes_grid(n_param)
    assert len(points) == 2 * n_param ** 3
    assert len(lines) == n_param ** 3
    g = incidences_bruteforce(points, lines)
    assert g.edge_count == n_param ** 4
    # Every line carries exactly N points.
    for j in range(len(lines)):
        assert len(g.points_in_range(j)) == n_param
    assert find_kkk(g, 2).free


def test_lower_bound_5d_small():
    red = lower_bound_5d(2)
    assert red.verify()
    tgt = incidences_bruteforce(red.target_points, red.target_ranges)
    assert tgt.edge_count == 16
    assert find_kkk(tgt, 2).free


def test_favorable_happy_path():
    pts = [pt(i, 0) for i in range(6)]
    boxes = [box2(0, 1, 0, 0), box2(2, 3, 0, 0), box2(4, 5, 0, 0)]
    verdict = verify_favorable(pts, boxes, 2)
    assert verdict.favorable
    assert verdict.incidence_floor == 6


def test_favorable_shared_pair():
    pts = [pt(0, 0), pt(1, 0)]
    boxes = [box2(-1, 2, -1, 1), box2(-2, 3, -1, 1)]
    verdict = verify_favorable(pts, boxes, 1)
    assert not verdict.favorable and verdict.failed_condition == 2
    j1, j2, shared = verdict.witness
    assert len(shared) == 2


def test_favorable_too_few_points():
    pts = [pt(0, 0)]
    boxes = [box2(-1, 1, -1, 1)]
    verdict = verify_favorable(pts, boxes, 2)
    assert not verdict.favorable and verdict.failed_condition == 1


def test_favorable_iff_k22_free(rng):
    import kkfree.generators as gens
    for _ in range(40):
        pts = gens.random_points(rng, 12, 2, 12)
        boxes = gens.random_boxes(rng, 8, 2, 12, 10)
        verdict = verify_favorable(pts, boxes, 0)
        g = incidences_bruteforce(pts, boxes)
        free = find_kkk(g, 2).free
        # Condition 2 alone is exactly K_{2,2}-freeness.
        assert (verdict.failed_condition != 2) == free


def test_eval_bound_interval_worked():
    assert eval_bound("interval", 6, 2, 2) == 2 * 6 + 3 * 2 * 2 == 24


def test_eval_bound_box_worked():
    assert eval_bound("box", 2 ** 16, 0, 1, d=2) == 65536 * (16 / 4)


def test_eval_bound_small_n_guard():
    assert (eval_bound("box", 1, 7, 2, 1.5, d=3, epsilon=0.5)
            == 1.5 * 2 * (1 + 7))


def test_eval_bound_unknown_family():
    with pytest.raises(InvalidInputError):
        eval_bound("mystery", 6, 2, 2)


@pytest.mark.parametrize("family", ["interval", "box", "halfspace", "ball",
                                    "fat"])
@pytest.mark.parametrize("d", [0, -3])
def test_eval_bound_refuses_a_dimension_below_one(family, d):
    with pytest.raises(InvalidInputError, match=f"needs d >= 1, got d={d}"):
        eval_bound(family, 6, 2, 2, d=d)


@pytest.mark.parametrize("d", range(1, 9))
def test_ball_bound_is_the_lifted_halfspace_bound(d):
    # The paraboloid lift maps balls in R^d to halfspaces in R^{d+1}.  A 1D
    # ball is an interval, whose lift is a halfplane family: k(n + m).
    h = (d + 1) // 2
    for n, m, k in ((1, 0, 1), (5, 7, 2), (1000, 40, 3), (4096, 10 ** 6, 8)):
        ball = eval_bound("ball", n, m, k, d=d)
        assert ball == eval_bound("halfspace", n, m, k, d=d + 1)
        if d <= 2:
            assert ball == k * (n + m)
        else:
            assert ball == (k ** (2 / (h + 1)) * (m * n) ** (h / (h + 1))
                            + k * (n + m))


def test_eval_bound_monotone():
    fams = [("interval", 2), ("box", 2), ("box", 3), ("halfspace", 3),
            ("halfspace", 5), ("ball", 2), ("ball", 4), ("fat", 2)]
    grid = [1, 2, 4, 5, 16, 64, 301, 4096, 10 ** 6]
    for f, d in fams:
        for k in (1, 2, 8):
            vals = [eval_bound(f, n, 10, k, d=d) for n in grid]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), f
            vals = [eval_bound(f, 10, m, k, d=d) for m in grid]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), f
        for n, m in ((5, 5), (1000, 40)):
            vals = [eval_bound(f, n, m, k, d=d) for k in (1, 2, 3, 8, 32)]
            assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:])), f


def test_lower_bound_5d_sweep():
    from kkfree.extremal import lower_bound_5d
    for n_param in (1, 2, 3):
        red = lower_bound_5d(n_param)
        assert red.verify()
        tgt = incidences_bruteforce(red.target_points, red.target_ranges)
        assert tgt.edge_count == n_param ** 4
