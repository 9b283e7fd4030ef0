import gc
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import kkfree.cli
import kkfree.incidence
from kkfree.cli import main
from kkfree.incidence import incidences_bruteforce
from kkfree.instances import (Instance, instance_from_json, instance_to_json,
                              load_instance, save_instance)
from kkfree.geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                             Point, Triangle, Wedge3, pt)


def run(args, tmp_path):
    return main(["--out-dir", str(tmp_path)] + [str(a) for a in args])


def test_gen_count_elekes(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert run(["gen", "elekes", "--N", 2, "--out", out], tmp_path) == 0
    capsys.readouterr()
    assert run(["count", out], tmp_path) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_kkk_verdicts(tmp_path, capsys):
    out = tmp_path / "e.json"
    run(["gen", "elekes", "--N", 2, "--out", out], tmp_path)
    capsys.readouterr()
    assert run(["kkk", out, "--k", 2], tmp_path) == 0
    assert "free" in capsys.readouterr().out


def test_kkk_found_prints_the_witness(tmp_path, capsys):
    path = tmp_path / "k22.json"
    save_instance(Instance(2, [pt(0, 0), pt(1, 1)],
                           [Box((-1, -1), (2, 2)), Box((-2, -2), (3, 3))], 2),
                  path)
    assert run(["kkk", path, "--k", 2], tmp_path) == 0
    out, err = capsys.readouterr()
    assert out == "found: points=[0, 1] ranges=[0, 1]\n" and err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["k22.json"]


def test_kkk_exhausted_budget_exits_unknown(tmp_path, capsys):
    path = _dense_instances(tmp_path)["audit"]
    assert run(["kkk", path, "--k", 3, "--budget", 2], tmp_path) == 3
    out, err = capsys.readouterr()
    assert out == "unknown (search budget 2 exhausted after 3 nodes)\n"
    assert err == ""


def test_cover_flags_witness(tmp_path, capsys):
    # Two points in two common boxes: the cover run must surface it.
    inst = Instance(2, [pt(0, 0), pt(1, 1)],
                    [Box((-1, -1), (2, 2)), Box((-2, -2), (3, 3))], 2)
    path = tmp_path / "k22.json"
    save_instance(inst, path)
    code = run(["cover", path, "--k", 2], tmp_path)
    out = capsys.readouterr().out
    assert code == 2
    assert "witness" in out


def test_cover_ok(tmp_path, capsys):
    inst = Instance(1, [pt(x) for x in range(1, 7)],
                    [Box((0,), (2,)), Box((3,), (6,))], 2)
    path = tmp_path / "iv.json"
    save_instance(inst, path)
    assert run(["cover", path, "--k", 2], tmp_path) == 0
    assert "certified bound" in capsys.readouterr().out


def test_audit_interval(tmp_path, capsys):
    inst = Instance(1, [pt(x) for x in range(1, 7)],
                    [Box((0,), (2,)), Box((3,), (6,))], 2)
    path = tmp_path / "iv.json"
    save_instance(inst, path)
    assert run(["audit", "interval", path, "--k", 2], tmp_path) == 0
    assert (tmp_path / "interval_audit.csv").exists()
    assert "holds=True" in capsys.readouterr().out


def test_audit_rect_and_outputs(tmp_path, capsys):
    path = tmp_path / "b.json"
    run(["gen", "random-boxes", "--n", 40, "--m", 25, "--d", 2, "--seed", 7,
         "--out", path], tmp_path)
    assert run(["audit", "rect", path, "--b", 4, "--k", 2], tmp_path) == 0
    assert (tmp_path / "rect_audit.json").exists()
    assert (tmp_path / "rect_audit_ledger.csv").exists()
    assert "exact=True" in capsys.readouterr().out


def test_census_and_plot(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(["gen", "census-halfplanes", "--n", 64, "--out", path], tmp_path)
    assert run(["census", "shallow", path, "--k", 2], tmp_path) == 0
    csv_path = tmp_path / "census_shallow.csv"
    assert csv_path.exists()
    assert run(["plot", csv_path, "--x", "r", "--y", "reference",
                "--out", "p.svg"], tmp_path) == 0
    svg = (tmp_path / "p.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_census_depth(tmp_path, capsys):
    # Point 0 lies in four copies of [0, 0] and no other point does, so the
    # graph is K_{2,2}-free; at r = 2 the band [4, 8) holds point 0 only.
    path = tmp_path / "star.json"
    save_instance(Instance(1, [pt(x) for x in range(5)],
                           [Box((0,), (0,))] * 4
                           + [Box((x,), (x,)) for x in range(1, 5)], 2), path)
    assert run(["census", "depth", path, "--k", 2], tmp_path) == 0
    assert capsys.readouterr().out == "rows=1 worst_ratio=0.25\n"
    assert (tmp_path / "census_depth.csv").read_text() == (
        "# k=2 m=8 n=5\nr,observed,observed_closed,reference,ratio\n"
        "2,1,1,4,0.25\n")


def test_census_schedule(tmp_path, capsys):
    assert run(["census", "schedule", "--k", 2, "--m", 64], tmp_path) == 0
    assert (tmp_path / "schedule.csv").exists()


def test_census_schedule_defaults_k_to_two(tmp_path, capsys):
    assert run(["census", "schedule", "--m", 64], tmp_path) == 0
    assert capsys.readouterr().out.startswith("thresholds=[4, ")
    assert "# k=2" in (tmp_path / "schedule.csv").read_text()
    assert run(["census", "schedule", "--m", 64, "--k", 0], tmp_path) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: k must be >= 1") and out == ""


@pytest.mark.parametrize("make", [
    lambda p: None,
    lambda p: p.mkdir(),
    lambda p: p.write_bytes(b"r,reference\n1,\xff\xfe\n"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_plot_csv_is_a_usage_error(tmp_path, capsys, make):
    path = tmp_path / "bad.csv"
    make(path)
    assert run(["plot", path, "--x", "r", "--y", "reference"], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read CSV file")
    assert not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("axis", ["--x", "--y"])
def test_plot_of_a_missing_column_is_a_usage_error(tmp_path, capsys, axis):
    path = tmp_path / "t.csv"
    path.write_text("# n=4\nr,reference\n2,4\n4,8\n")
    names = {"--x": "r", "--y": "reference", axis: "nosuch"}
    args = ["plot", path, "--x", names["--x"], "--y", names["--y"]]
    assert run(args, tmp_path) == 1
    out, err = capsys.readouterr()
    assert err == "error: CSV has no column 'nosuch'; columns: r, reference\n"
    assert out == "" and not (tmp_path / "plot.svg").exists()


def test_plot_skips_a_short_row(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("r,reference\n2,4\n4\n8,16\n")
    assert run(["plot", path, "--x", "r", "--y", "reference"], tmp_path) == 0
    assert (tmp_path / "plot.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("cell", ["1e400", "9" * 400, "1e2000000"],
                         ids=["exponent", "digits", "huge-exponent"])
def test_plot_of_a_cell_beyond_float_is_an_input_error(tmp_path, capsys,
                                                       cell):
    path = tmp_path / "t.csv"
    path.write_text(f"r,reference\n2,4\n4,{cell}\n")
    assert run(["plot", path, "--x", "r", "--y", "reference"], tmp_path) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: column 'reference': ")
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "plot.svg").exists()


def test_census_schedule_rejects_c_below_two_in_fat_mode(tmp_path, capsys):
    assert run(["census", "schedule", "--mode", "fat", "--c", -5,
                "--m", 64], tmp_path) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: schedule needs c >= 2") and out == ""
    assert not (tmp_path / "schedule.csv").exists()
    assert run(["census", "schedule", "--mode", "fat", "--c", 2,
                "--m", 64], tmp_path) == 0
    assert capsys.readouterr().out.startswith("thresholds=[4, 8, 16, 32, 64]")


def test_reduce_writes_certificate(tmp_path, capsys):
    inst = Instance(3, [pt(1, 2, 3)], [Wedge3(2, 1, 4)], 2)
    path = tmp_path / "w.json"
    save_instance(inst, path)
    out = tmp_path / "wd.json"
    assert run(["reduce", "wedge-dual", path, "--out", out], tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verified"] is True and cert["swapped_sides"] is True
    target = load_instance(out)
    assert target.n == 1 and target.m == 1


def test_reduce_origin_triangle_writes_cells(tmp_path, capsys):
    # Three points with x > 0, one with x < 0 and one on x = 0.
    path = tmp_path / "tri.json"
    save_instance(Instance(2, [Point((1, F(1, 2))), pt(1, 1), pt(-1, -1),
                               pt(0, 1), pt(3, 1)],
                           [Triangle(pt(0, 0), pt(2, 0), pt(2, 2)),
                            Triangle(pt(0, 0), pt(-2, 0), pt(0, 2))], 2),
                  path)
    assert run(["reduce", "origin-triangle-to-curtain", path], tmp_path) == 0
    assert capsys.readouterr().out == "verified=True\n"
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verified"] is True
    assert cert["notes"] == {"vertical_points": 1}
    assert cert["cells"] == [{"sigma": 1, "points": 3, "curtains": 1},
                             {"sigma": -1, "points": 1, "curtains": 1}]


def test_report(tmp_path, capsys):
    path = tmp_path / "e.json"
    run(["gen", "elekes", "--N", 2, "--out", path], tmp_path)
    assert run(["report", path], tmp_path) == 0
    assert (tmp_path / "summary.csv").exists()


def test_usage_error_exit_code(tmp_path):
    assert main(["gen", "no-such-family", "--out", "x"]) == 1


def test_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "random-fat", "--n", 20, "--m", 8, "--seed", 3, "--out", a],
        tmp_path)
    run(["gen", "random-fat", "--n", 20, "--m", 8, "--seed", 3, "--out", b],
        tmp_path)
    assert a.read_bytes() == b.read_bytes()


def test_instance_roundtrip(tmp_path):
    from fractions import Fraction as F
    inst = Instance(2, [Point((F(1, 3), 2))],
                    [Ball(pt(0, 0), F(7, 2)), Curtain(1, 2, None, 5),
                     Triangle(pt(0, 0), pt(1, 0), pt(0, 1)),
                     Box((None, 0), (1, None))], 3, {"note": "roundtrip"})
    blob = instance_to_json(inst)
    back = instance_from_json(json.loads(json.dumps(blob)))
    assert back.dimension == 2 and back.k == 3
    assert back.points == inst.points
    assert back.ranges == inst.ranges
    assert back.provenance == {"note": "roundtrip"}


def test_census_csv_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(); d2.mkdir()
    src = tmp_path / "c.json"
    main(["--out-dir", str(tmp_path), "gen", "census-halfplanes", "--n", "64",
          "--out", str(src)])
    main(["--out-dir", str(d1), "census", "shallow", str(src), "--k", "2"])
    main(["--out-dir", str(d2), "census", "shallow", str(src), "--k", "2"])
    assert (d1 / "census_shallow.csv").read_bytes() == \
        (d2 / "census_shallow.csv").read_bytes()


@pytest.mark.parametrize("r", ["0", "-2"])
def test_census_rejects_r_below_one(tmp_path, capsys, r):
    path = tmp_path / "c.json"
    run(["gen", "census-halfplanes", "--n", 64, "--out", path], tmp_path)
    capsys.readouterr()
    assert run(["census", "shallow", path, "--k", 2, "--r", r], tmp_path) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "census_shallow.csv").exists()


def _valid_instance_doc():
    inst = Instance(2, [pt(0, 0), pt(1, 1)],
                    [Triangle(pt(0, 0), pt(2, 0), pt(0, 2))], 2)
    return instance_to_json(inst)


def _drop_points(doc):
    del doc["points"]
    return doc


def _two_vertex_triangle(doc):
    doc["ranges"][0]["vertices"].pop()
    return doc


def _four_vertex_triangle(doc):
    doc["ranges"][0]["vertices"].append(["1", "1"])
    return doc


def _future_version(doc):
    doc["format_version"] = 99
    return doc


def _bool_version(doc):
    doc["format_version"] = True
    return doc


def _float_version(doc):
    doc["format_version"] = 1.0
    return doc


def _string_k(doc):
    doc["k"] = "2"
    return doc


def _zero_k(doc):
    doc["k"] = 0
    return doc


def _string_dimension(doc):
    doc["dimension"] = "2"
    return doc


def _bool_dimension(doc):
    doc["dimension"] = True
    return doc


def _list_provenance(doc):
    doc["provenance"] = ["generator"]
    return doc


@pytest.mark.parametrize("mutate", [_drop_points, lambda doc: [doc],
                                    _two_vertex_triangle,
                                    _four_vertex_triangle, _future_version,
                                    _bool_version, _float_version,
                                    _string_k, _zero_k, _string_dimension,
                                    _bool_dimension, _list_provenance],
                         ids=["missing-points", "top-level-list",
                              "two-vertex-triangle", "four-vertex-triangle",
                              "format-version-99", "bool-format-version",
                              "float-format-version", "string-k", "zero-k",
                              "string-dimension", "bool-dimension",
                              "list-provenance"])
def test_malformed_instance_is_a_usage_error(tmp_path, capsys, mutate):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(_valid_instance_doc())))
    assert run(["count", path], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "dimension mismatch" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
def test_unreadable_instance_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run(["count", path], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read instance file")


def test_reduce_beyond_the_digit_limit_is_a_usage_error(tmp_path, capsys):
    # "1e3000" loads exactly, but the 5D image holds its square, 6001
    # digits, beyond the int-to-str limit the writer has to respect.
    doc = instance_to_json(Instance(2, [pt(1, 2), pt(3, 4)], [Line2(1, 1)],
                                    2))
    doc["points"][1][0] = "1e3000"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run(["reduce", "pointline-to-5d", path,
                "--out", tmp_path / "big5d.json"], tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "big5d.json").exists()


def _box_instance(tmp_path):
    inst = Instance(1, [pt(x) for x in range(1, 7)],
                    [Box((0,), (2,)), Box((3,), (6,))], 2)
    path = tmp_path / "iv.json"
    save_instance(inst, path)
    return path


@pytest.mark.parametrize("argv", [["cover"], ["audit", "interval"],
                                  ["audit", "rect"], ["census", "shallow"]],
                         ids=["cover", "audit-interval", "audit-rect",
                              "census"])
def test_zero_k_is_a_usage_error(tmp_path, capsys, argv):
    path = _box_instance(tmp_path)
    assert run([*argv, path, "--k", 0], tmp_path) == 1
    out, err = capsys.readouterr()
    assert "error: k must be >= 1" in err and "Traceback" not in err
    assert out == "" and [p.name for p in tmp_path.iterdir()] == ["iv.json"]


@pytest.mark.parametrize("argv", [["kkk"], ["cover"], ["audit", "interval"]],
                         ids=["kkk", "cover", "audit-interval"])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, argv):
    path = _box_instance(tmp_path)
    assert run([*argv, path, "--k", 2, "--budget", -5], tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: node budget must be >= 0" in err
    assert "Traceback" not in err


_UPPER = Halfspace(Hyperplane((0,), 1), "upper")


@pytest.mark.parametrize("argv, inst", [
    (["audit", kind], Instance(2, [pt(i, i) for i in range(6)],
                               [Triangle(pt(0, 0), pt(9, 0), pt(0, 9))], 2))
    for kind in ("rect", "box", "curtain")
] + [
    (["audit", "interval"], Instance(1, [pt(1), pt(5)],
                                     [Halfspace(Hyperplane((), 1), "upper")],
                                     2)),
    (["audit", "fat"], Instance(2, [pt(1, 1)], [Box((0, 0), (2, 2))], 2)),
    (["cover"], Instance(2, [], [_UPPER], 2)),
    (["cover"], Instance(2, [pt(0, 5)], [_UPPER], 2)),
], ids=["rect", "box", "curtain", "interval", "fat", "cover-0-points",
        "cover-1-point"])
def test_audit_of_another_range_type_is_a_usage_error(tmp_path, capsys,
                                                      monkeypatch, argv, inst):
    # Each command rejects the range type before the oracle runs.
    def oracle(*_):
        raise AssertionError("oracle called before the range type check")
    monkeypatch.setattr(kkfree.cli, "incidences_bruteforce", oracle)
    monkeypatch.setattr(kkfree.incidence, "incidences_bruteforce", oracle)
    path = tmp_path / "wrong.json"
    save_instance(inst, path)
    assert run([*argv, path], tmp_path) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in err
    assert out == "" and [p.name for p in tmp_path.iterdir()] == ["wrong.json"]


def test_audit_fat(tmp_path, capsys):
    path = tmp_path / "fat.json"
    assert run(["gen", "random-fat", "--n", 150, "--m", 6, "--seed", 3,
                "--out", path], tmp_path) == 0
    capsys.readouterr()
    assert run(["audit", "fat", path], tmp_path) == 0
    assert capsys.readouterr().out == (
        "fat queries=6 exact=True stored_entries=2177\n")
    lines = (tmp_path / "fat_structure_stats.csv").read_text().splitlines()
    assert lines[:2] == [
        "# m=6 max_depth=5 n=150 stored_entries=2177",
        "query,reported,tree_nodes,curtain_nodes,point_tests,work,stratum,"
        "curtain_answers"]
    inst = load_instance(path)
    rows = incidences_bruteforce(inst.points, inst.ranges).rows
    assert [int(line.split(",")[1]) for line in lines[2:]] == list(
        map(len, rows))


def test_audit_fat_of_another_range_type_is_a_usage_error(tmp_path, capsys):
    path = _box_instance(tmp_path)
    assert run(["audit", "fat", path], tmp_path) == 1
    out, err = capsys.readouterr()
    assert err == "error: fat audit needs a triangle instance\n" and out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["iv.json"]


def _dense_instances(tmp_path):
    """An interval and an upper-halfplane instance whose incidence graphs are
    complete bipartite (6 points, every range holds all of them), so both
    hold a K_{3,3}; 12 halfplanes leave r = 2 admissible for k = 2 and 3."""
    iv = tmp_path / "dense_iv.json"
    save_instance(Instance(1, [pt(x) for x in range(1, 7)],
                           [Box((0,), (10 + j,)) for j in range(4)], 2), iv)
    hp = tmp_path / "dense_hp.json"
    save_instance(Instance(2, [pt(x, 10) for x in range(6)],
                           [Halfspace(Hyperplane((0,), -j), "upper")
                            for j in range(12)], 2), hp)
    return {"audit": iv, "census": hp}


@pytest.mark.parametrize("argv", [["audit", "interval"], ["census", "shallow"]],
                         ids=["audit-interval", "census-shallow"])
def test_non_free_instance_is_not_applicable(tmp_path, capsys, argv):
    path = _dense_instances(tmp_path)[argv[0]]
    assert run([*argv, path, "--k", 2], tmp_path) == 2
    out, err = capsys.readouterr()
    assert out.startswith("not applicable: graph contains K_{k,k} witness=(")
    assert err == ""
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv", [["audit", "interval"], ["census", "shallow"]],
                         ids=["audit-interval", "census-shallow"])
def test_exhausted_budget_is_an_unknown_verdict(tmp_path, capsys, argv):
    path = _dense_instances(tmp_path)[argv[0]]
    assert run([*argv, path, "--k", 3, "--budget", 0], tmp_path) == 3
    out, err = capsys.readouterr()
    assert out == "unknown: biclique search budget exhausted\n"
    assert err == ""
    assert not list(tmp_path.glob("*.csv"))


def test_repeated_main_calls_leave_no_cyclic_garbage(tmp_path):
    # An argparse parser holds reference cycles; one rebuilt per call would
    # leave about 500 objects per call for the cycle collector.
    argv = ["census", "schedule", "--k", 2, "--m", 64]
    assert run(argv, tmp_path) == 0
    gc.collect()
    gc.disable()
    try:
        assert run(argv, tmp_path) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_cli_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies.  -S keeps
    # site-packages and the modules its .pth files load out of the child.
    code = ("import sys, kkfree.cli; "
            "print(*{name.partition('.')[0] for name in sys.modules})")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(kkfree.__file__))}
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert "kkfree" in loaded
    assert [name for name in loaded if name not in sys.stdlib_module_names
            and name not in ("__main__", "kkfree")] == []
