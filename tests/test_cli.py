import gc
import hashlib
import json
import os
import shlex
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
                             Point, Polyhedron, Triangle, Wedge2, Wedge3, pt)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(args, tmp_path):
    return main(["--out-dir", str(tmp_path)] + [str(a) for a in args])


def test_readme_quick_start(tmp_path, capsys, monkeypatch):
    # Every command of the quick-start block, run in a fresh directory; the
    # commented ones print what their comment says.
    with open(README) as fh:
        block = fh.read().split("## CLI quick start")[1]
    block = block.split("```sh\n")[1].split("```")[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KKFREE_OUT", raising=False)
    results = {}
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if not command.strip():
            continue
        argv = shlex.split(command)
        assert argv[0] == "kkfree"
        code = main(argv[1:])
        out, err = capsys.readouterr()
        assert err == "", line
        if comment:
            results[comment.strip()] = (code, out)
        else:
            assert code == 0, line
    assert results == {
        "16": (0, "16\n"),
        "free": (0, "free\n"),
        "cover verified; exit 2 and a K_{2,2} witness":
            (2, "K_{2,2} witness: points=[15, 35] ranges=[21, 22]\n"),
        "still 16: the graph is preserved": (0, "16\n"),
    }


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


def test_census_schedule_steps_in_integers(tmp_path, capsys):
    # ceil(t^(3/2)) at t = 276709604421 is ...443; a float power gave ...456.
    assert run(["census", "schedule", "--k", 2, "--c", 3, "--m", 10 ** 12],
               tmp_path) == 0
    assert capsys.readouterr().out.startswith(
        "thresholds=[4, 8, 16, 32, 182, 2456, 121715, 42463536, "
        "276709604421, 145558090693231443] ")
    # An m beyond the float range, which a float power overflowed on.
    assert run(["census", "schedule", "--m", "1" + "0" * 400], tmp_path) == 0
    out, err = capsys.readouterr()
    assert out.startswith("thresholds=[4, ") and err == ""


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


@pytest.mark.parametrize("args", [
    ["--overlay", "box", "--d", 5000],
    ["--overlay", "box", "--epsilon", "1e308"],
    ["--overlay", "halfspace", "--d", 4, "--m", "1" + "0" * 400],
], ids=["box-d-5000", "box-epsilon-1e308", "halfspace-m-1e400"])
def test_plot_of_an_overlay_beyond_float_is_an_input_error(tmp_path, capsys,
                                                           args):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n4,8\n")
    assert run(["plot", path, "--x", "a", "--y", "b", *args], tmp_path) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {args[1]} bound at n=")
    assert err.endswith(" is beyond the float range\n")
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("args", [
    ["--overlay", "box", "--d", 0],
    ["--overlay", "box", "--d", -3],
    ["--overlay", "halfspace", "--d", -4],
], ids=["box-d-0", "box-d-minus-3", "halfspace-d-minus-4"])
def test_plot_of_an_overlay_below_dimension_one_is_an_input_error(
        tmp_path, capsys, args):
    path = tmp_path / "t.csv"
    path.write_text("r,observed\n1,2\n4,8\n")
    assert run(["plot", path, "--x", "r", "--y", "observed", *args],
               tmp_path) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {args[1]} bound needs d >= 1, got d={args[3]}\n"
    assert out == "" and not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("args, message", [
    (["--overlay", "box", "--d", 0], "box bound needs d >= 1, got d=0"),
    (["--overlay", "fat", "--k", 0], "need n >= 1, m >= 0, k >= 1"),
], ids=["box-d-0", "fat-k-0"])
def test_plot_of_no_rows_still_checks_the_overlay(tmp_path, capsys, args,
                                                  message):
    path = tmp_path / "e.csv"
    path.write_text("r,observed\n")
    assert run(["plot", path, "--x", "r", "--y", "observed", *args],
               tmp_path) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == "" and not (tmp_path / "plot.svg").exists()


@pytest.mark.parametrize("args", [
    ["--overlay", "box", "--constant", "nan"],
    ["--overlay", "box", "--epsilon", "nan"],
], ids=["constant-nan", "epsilon-nan"])
def test_plot_of_a_nan_overlay_is_an_input_error(tmp_path, capsys, args):
    # A NaN reference would drop out of the SVG without a word; with
    # epsilon NaN only the point at x = 1 survives, as 1.0 ** nan == 1.0.
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n4,8\n")
    assert run(["plot", path, "--x", "a", "--y", "b", *args], tmp_path) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: box bound at n=")
    assert err.endswith(" is not a number\n")
    assert err.count("\n") == 1 and out == ""
    assert not (tmp_path / "plot.svg").exists()


def test_census_schedule_fat_past_the_float_range(tmp_path, capsys):
    # The tower step 2^sqrt(t/k) passes 2^1024 before it reaches m.
    m = 10 ** 400
    assert run(["census", "schedule", "--mode", "fat", "--k", 5,
                "--m", m], tmp_path) == 0
    out, err = capsys.readouterr()
    assert err == ""
    thresholds = [int(t) for t in
                  out.partition("thresholds=[")[2].partition("]")[0]
                  .split(", ")]
    assert thresholds[:8] == [10, 20, 40, 80, 160, 320, 640, 2546]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
    assert thresholds[-1] >= m


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


@pytest.mark.parametrize("name, dim, ranges, want", [
    ("balls-to-halfspaces", 2, [Ball(pt(0, 0), 4)], 3),
    ("polyhedra-to-boxes", 2,
     [Polyhedron(((1, 0), (0, 1), (1, 1)), (0, 0, 0), (1, 1, 1))], 3),
    ("balls-to-halfspaces", 2, [], 3),
    ("balls-to-halfspaces", 1, [], 2),
], ids=["balls-to-halfspaces-source0", "polyhedra-to-boxes-source1",
        "balls-to-halfspaces-empty-2d", "balls-to-halfspaces-empty-1d"])
def test_reduce_with_no_points_writes_a_3d_instance(tmp_path, capsys, name,
                                                    dim, ranges, want):
    # The source has no points, so only the target ranges give the target's
    # dimension; with no ranges either, the lift still adds one dimension.
    path = tmp_path / "src.json"
    save_instance(Instance(dim, [], ranges, 2), path)
    out = tmp_path / "tgt.json"
    assert run(["reduce", name, path, "--out", out], tmp_path) == 0
    assert load_instance(out).dimension == want
    capsys.readouterr()
    assert run(["count", out], tmp_path) == 0
    assert capsys.readouterr().out == "0\n"


# Each reduction but pointline-to-5d, with the gen family of its source.
_SOURCES = [
    ("random-polyhedra", ["--d", 3], "polyhedra-to-boxes"),
    ("random-threesided", [], "threesided-to-orthants"),
    ("random-orthants", [], "orthants-to-halfspaces"),
    ("random-balls", ["--d", 3], "balls-to-halfspaces"),
    ("random-wedges2", [], "wedge-lift"),
    ("random-wedges3", [], "wedge-dual"),
    ("random-origin-triangles", [], "origin-triangle-to-curtain"),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family, flags, name", _SOURCES,
                         ids=[name for _, _, name in _SOURCES])
def test_gen_family_reduces_with_its_count(tmp_path, capsys, family, flags,
                                           name, seed):
    # The certificate verifies, and the target instance keeps the source's
    # edge count.
    src, tgt = tmp_path / "src.json", tmp_path / "tgt.json"
    assert run(["gen", family, "--n", 50, "--m", 50, "--seed", seed, *flags,
                "--out", src], tmp_path) == 0
    # Each sign cell has its own points and curtains: no one target.
    origin = name == "origin-triangle-to-curtain"
    out = [] if origin else ["--out", tgt]
    assert run(["reduce", name, src, *out], tmp_path) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verified"] is True
    if origin:
        return
    capsys.readouterr()
    counts = []
    for path in (src, tgt):
        assert run(["count", path], tmp_path) == 0
        counts.append(int(capsys.readouterr().out))
    assert counts[0] == counts[1] > 0


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


def test_reduce_origin_triangle_refuses_out(tmp_path, capsys):
    # The reduction gives one curtain family per sign cell, so there is no
    # one target instance to write; nothing is read or written.
    tgt = tmp_path / "t.json"
    assert run(["reduce", "origin-triangle-to-curtain",
                tmp_path / "missing.json", "--out", tgt], tmp_path) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: origin-triangle-to-curtain gives one "
                          "curtain family per sign cell")
    assert not tgt.exists()
    assert not (tmp_path / "certificate.json").exists()


def test_report(tmp_path, capsys):
    path = tmp_path / "e.json"
    run(["gen", "elekes", "--N", 2, "--out", path], tmp_path)
    assert run(["report", path], tmp_path) == 0
    assert (tmp_path / "summary.csv").exists()


# SHA-256 of each family's file at fixed flags: the first seven as the
# if/elif chain that preceded the family table wrote them, but with
# lower5d's provenance giving d = 5, its dimension; the rest as the family
# table first wrote them.  A reordered draw, another k or another
# provenance changes the file.
_GEN_DIGESTS = {
    "elekes": (["--N", 3], "00ec805d404dd2172d054ecb5fcf5880"
               "f9c377f7ed2283f8450107f1e4964a65"),
    "lower5d": (["--N", 2], "cdfb2683404b1f1f23ad6b1379733567"
                "bd26eb51bccb7f30eabd93666c54f348"),
    "random-boxes": (["--n", 30, "--m", 20, "--d", 3, "--seed", 5, "--k", 3],
                     "db0289ad65e0693f5514fbe74aea003c"
                     "e7007a077e4345f4c931b39142cbb101"),
    "random-halfspaces": (["--n", 30, "--m", 20, "--d", 3, "--seed", 5],
                          "10472a8815bb3bc5972747b3a26d4e4c"
                          "4dcecdbacddde96fb00fd5e3e5de630c"),
    "random-fat": (["--n", 30, "--m", 10, "--seed", 5],
                   "34eaf5caf4183e4aaff5ff941b335512"
                   "39d696883536a09f99ff1c5ccdccb681"),
    "random-curtains": (["--n", 30, "--m", 20, "--seed", 5],
                        "066cf289c29b78ee6566d17cdfb5af0e"
                        "1a36e2b371749091da480cdd528f8133"),
    "census-halfplanes": (["--n", 32], "36eff49b1f06809fc687afc1812d408c"
                          "96bdfa242c6936e7fa9769fe92d192a1"),
    "random-polyhedra": (["--n", 30, "--m", 20, "--d", 3, "--seed", 5],
                         "f3a5c16ae4a769ddcacf36f9c2086e38"
                         "2d0e8fb19a60f16eafeef9b707874ed7"),
    "random-threesided": (["--n", 30, "--m", 20, "--seed", 5],
                          "6a987c85ab0ffb5eccc2793e9f4a5a22"
                          "a3c674783c9788ecc5f0cf8e88d2039e"),
    "random-orthants": (["--n", 30, "--m", 20, "--seed", 5],
                        "a932faf465828cdbe552f25575f41d72"
                        "df3dc00aac021f0b9ad7d0a42f8daa79"),
    "random-balls": (["--n", 30, "--m", 20, "--d", 3, "--seed", 5],
                     "f68fa934ce91b80d57448e01afdc6db4"
                     "daaaed3530372fa9bb6c42d486f59576"),
    "random-wedges2": (["--n", 30, "--m", 20, "--seed", 5],
                       "8367c872d27793d9c83d448aff8c2a08"
                       "e9e3d72728331cb59a8bef42c71ce103"),
    "random-wedges3": (["--n", 30, "--m", 20, "--seed", 5],
                       "147aa8eee686f10f0bcd5da7a0e75550"
                       "093e19dcf26e0ae4d6a7f5b9d3bcb1ea"),
    "random-origin-triangles": (["--n", 30, "--m", 20, "--seed", 5],
                                "c6f44f017d595004ce7c38b9b076eb8a"
                                "b8c84c12b22786f619f37128e0a6eea0"),
}


@pytest.mark.parametrize("family", _GEN_DIGESTS)
def test_gen_output_is_pinned(tmp_path, capsys, family):
    flags, digest = _GEN_DIGESTS[family]
    out = tmp_path / "x.json"
    assert run(["gen", family, *flags, "--out", out], tmp_path) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("family", kkfree.cli._FAMILIES)
def test_gen_provenance_records_the_dimension(tmp_path, capsys, family):
    # --d 4 is the dimension of no fixed-dimension family, so one that
    # ignores it cannot record it unnoticed.
    out = tmp_path / "x.json"
    assert run(["gen", family, "--N", 2, "--n", 8, "--m", 4, "--d", 4,
                "--out", out], tmp_path) == 0
    inst = load_instance(out)
    assert inst.provenance["params"]["d"] == inst.dimension


# Each flag just past gen's cap of 10^7 numbers, and the count it gives:
# 2n coordinates of points in the plane, 6N^3 numbers of the grid's points
# and lines, and (d + 1)(d + 2) numbers of one polyhedron over the frame.
@pytest.mark.parametrize("family, flags, numbers", [
    ("random-boxes", ["--n", 5_000_001, "--m", 0], 10_000_002),
    ("elekes", ["--N", 119], 10_110_954),
    ("lower5d", ["--N", 77], 10_043_726),
    ("random-polyhedra", ["--n", 0, "--m", 1, "--d", 3161], 10_001_406),
], ids=["n", "N", "N-lower5d", "d"])
def test_gen_refuses_a_family_past_the_cap(tmp_path, capsys, family, flags,
                                           numbers):
    out = tmp_path / "x.json"
    assert run(["gen", family, *flags, "--out", out], tmp_path) == 1
    assert capsys.readouterr().err == (
        f"error: {family} would hold {numbers} numbers, more than gen's "
        "cap of 10000000\n")
    assert not out.exists()


@pytest.mark.parametrize("family", sorted(set(kkfree.cli._FAMILIES)
                                          - {"lower5d"}))
def test_gen_size_counts_the_numbers_of_the_file(tmp_path, capsys, family):
    # lower5d also counts the grid it reduces, which its file does not hold.
    def numbers(value):
        if isinstance(value, list):
            return sum(map(numbers, value))
        if isinstance(value, dict):
            return sum(numbers(v) for key, v in value.items()
                       if key not in ("type", "side", "sense"))
        return 1
    argv = ["gen", family, "--N", 2, "--n", 7, "--m", 5, "--d", 4, "--out",
            tmp_path / "x.json"]
    assert run(argv, tmp_path) == 0
    size, _ = kkfree.cli._FAMILIES[family]
    blob = json.loads((tmp_path / "x.json").read_text())
    assert size(kkfree.cli.build_parser().parse_args(map(str, argv))) == (
        numbers(blob["points"]) + numbers(blob["ranges"]))


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
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)) == inst == back
    assert inst != Instance(2, inst.points, inst.ranges, 2, inst.provenance)


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
    assert "has dimension" not in err


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


@pytest.mark.parametrize(
    "argv", [["kkk"], ["cover"]] + [["audit", kind] for kind in (
        "interval", "rect", "box", "curtain", "fat")],
    ids=["kkk", "cover", "audit-interval", "audit-rect", "audit-box",
         "audit-curtain", "audit-fat"])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, argv):
    path = _box_instance(tmp_path)
    assert run([*argv, path, "--k", 2, "--budget", -5], tmp_path) == 1
    err = capsys.readouterr().err
    assert "error: node budget must be >= 0" in err
    assert "Traceback" not in err


_UPPER = Halfspace(Hyperplane((0,), 1), "upper")
_UPPER_1D = Halfspace(Hyperplane((), 1), "upper")


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
    (["audit", "rect"], Instance(3, [pt(1, 1, 1)], [Box((0,) * 3, (2,) * 3)],
                                 2)),
    (["audit", "interval"], Instance(2, [pt(1, 1)], [Box((0, 0), (2, 2))],
                                     2)),
], ids=["rect", "box", "curtain", "interval", "fat", "cover-0-points",
        "cover-1-point", "rect-3d", "interval-2d"])
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
    assert err == ("error: fat audit needs triangles: range 0 is not a "
                   "Triangle\n") and out == ""
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
    assert out == "K_{2,2} witness: points=[0, 1] ranges=[0, 1]\n"
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


@pytest.mark.parametrize("argv", [["cover"], ["audit", "interval"],
                                  ["census", "shallow"]],
                         ids=["cover", "audit-interval", "census-shallow"])
@pytest.mark.parametrize("flags, code, line", [
    (["--k", 2], 2, "K_{2,2} witness: points=[0, 1] ranges=[0, 1]"),
    (["--k", 3, "--budget", 0], 3, "unknown: biclique search budget exhausted"),
], ids=["found", "unknown"])
def test_refused_command_prints_one_line_and_writes_no_file(
        tmp_path, capsys, argv, flags, code, line):
    paths = _dense_instances(tmp_path)
    path = paths["census" if argv[0] == "census" else "audit"]
    assert run([*argv, path, *flags], tmp_path) == code
    assert capsys.readouterr() == (line + "\n", "")
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())


_WRONG_LAST = [
    (["cover"], Instance(1, [pt(1)], [Box((0,), (2,)), _UPPER_1D], 2),
     "cover construction needs boxes: range 1 is not a Box"),
    (["audit", "interval"],
     Instance(1, [pt(1)], [Box((0,), (2,)), Box((1,), (3,)), _UPPER_1D], 2),
     "interval audit needs intervals: range 2 is not a Box"),
    (["audit", "fat"],
     Instance(2, [pt(1, 1)], [Triangle(pt(0, 0), pt(4, 0), pt(0, 4)),
                              Box((0, 0), (2, 2))], 2),
     "fat audit needs triangles: range 1 is not a Triangle"),
    (["reduce", "polyhedra-to-boxes"],
     Instance(2, [pt(1, 1)], [Polyhedron(((1, 0), (0, 1)), (0, 0), (2, 2)),
                              Box((0, 0), (2, 2))], 2),
     "polyhedra-to-boxes needs polyhedra: range 1 is not a Polyhedron"),
    (["reduce", "threesided-to-orthants"],
     Instance(2, [pt(1, 1)], [Box((0, None), (2, 2)), _UPPER], 2),
     "threesided-to-orthants needs 3-sided boxes: range 1 is not a Box"),
    (["reduce", "orthants-to-halfspaces"],
     Instance(3, [pt(1, 1, 1)], [Box((None,) * 3, (2, 2, 2)),
                                 Wedge3(2, 1, 4)], 2),
     "orthants-to-halfspaces needs orthants: range 1 is not a Box"),
    (["reduce", "balls-to-halfspaces"],
     Instance(2, [pt(1, 1)], [Ball(pt(0, 0), 4), Box((0, 0), (2, 2))], 2),
     "balls-to-halfspaces needs balls: range 1 is not a Ball"),
    (["reduce", "pointline-to-5d"],
     Instance(2, [pt(1, 1)], [Line2(1, 0), Box((0, 0), (2, 2))], 2),
     "pointline-to-5d needs non-vertical lines: range 1 is not a Line2"),
    (["reduce", "wedge-dual"],
     Instance(3, [pt(1, 2, 3)], [Wedge3(2, 1, 4), Box((0,) * 3, (2,) * 3)],
              2),
     "wedge-dual needs 3D wedges: range 1 is not a Wedge3"),
    (["reduce", "wedge-lift"],
     Instance(2, [pt(1, 1)], [Wedge2(1, 2, 3), Box((0, 0), (2, 2))], 2),
     "wedge-lift needs 2D wedges: range 1 is not a Wedge2"),
    (["reduce", "origin-triangle-to-curtain"],
     Instance(2, [pt(1, 1)], [Triangle(pt(0, 0), pt(4, 0), pt(0, 4)),
                              Box((0, 0), (2, 2))], 2),
     "origin-triangle-to-curtain needs origin-vertex triangles: range 1 is "
     "not a Triangle"),
]


@pytest.mark.parametrize("argv, inst, message", _WRONG_LAST,
                         ids=[" ".join(argv) for argv, _, _ in _WRONG_LAST])
def test_a_wrong_range_type_in_the_last_position_is_named(tmp_path, capsys,
                                                         argv, inst, message):
    # Every range before the last has the right type, so a check of the
    # first range alone would let the command run.
    path = tmp_path / "wrong.json"
    save_instance(inst, path)
    assert run([*argv, path], tmp_path) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["wrong.json"]


def test_census_with_no_admissible_r_is_a_usage_error(tmp_path, capsys):
    # m = 7 < 4k = 8, so no r in [2, m/(2k)] is left to sweep.
    path = tmp_path / "hp.json"
    save_instance(Instance(2, [pt(0, 10)],
                           [Halfspace(Hyperplane((0,), -j), "upper")
                            for j in range(7)], 2), path)
    assert run(["census", "shallow", path, "--k", 2], tmp_path) == 1
    assert capsys.readouterr() == (
        "", "error: no admissible r (need m >= 4k)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["hp.json"]


@pytest.mark.parametrize("kind", ["shallow", "depth"])
def test_census_without_an_instance_is_a_usage_error(tmp_path, capsys, kind):
    assert run(["census", kind, "--k", 2], tmp_path) == 1
    assert capsys.readouterr() == (
        "", f"error: census {kind} needs an instance file\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["gen", "elekes", "--N", 2, "--out", "missing/grid.json"],
    ["--out-dir", "afile", "census", "schedule", "--k", 2, "--m", 64],
    ["gen", "elekes", "--N", 2, "--out", "adir"],
], ids=["missing-directory", "out-dir-is-a-file", "out-is-a-directory"])
def test_an_unwritable_output_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                               argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    assert main([str(a) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_reduce_into_an_unwritable_directory_writes_no_instance(tmp_path,
                                                              capsys):
    grid = tmp_path / "grid.json"
    assert run(["gen", "elekes", "--N", 2, "--out", grid], tmp_path) == 0
    (tmp_path / "afile").write_text("")
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path / "afile"), "reduce",
                 "pointline-to-5d", str(grid), "--out",
                 str(tmp_path / "g5.json")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile",
                                                          "grid.json"]


@pytest.mark.parametrize("flags, values", [
    (["--n", 0, "--m", 1, "--d", 0], "d=0 n=0 m=1"),
    (["--n", -3, "--m", 1], "d=2 n=-3 m=1"),
    (["--n", 3, "--m", -1], "d=2 n=3 m=-1"),
], ids=["d-zero", "n-negative", "m-negative"])
def test_gen_rejects_a_bound_out_of_range(tmp_path, capsys, flags, values):
    out = tmp_path / "x.json"
    assert run(["gen", "random-boxes", *flags, "--out", out], tmp_path) == 1
    assert capsys.readouterr() == (
        "", f"error: need --d >= 1, --n >= 0 and --m >= 0: {values}\n")
    assert list(tmp_path.iterdir()) == []


def test_failed_embedding_certificate_is_an_integrity_line(tmp_path, capsys,
                                                           monkeypatch):
    red = kkfree.cli.lower_bound_5d(2)
    monkeypatch.setattr(type(red), "verify", lambda self: False)
    out = tmp_path / "l.json"
    assert run(["gen", "lower5d", "--N", 2, "--out", out], tmp_path) == 2
    assert capsys.readouterr() == (
        "INTEGRITY: embedding certificate failed\n", "")
    assert list(tmp_path.iterdir()) == []


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
