"""Seeded mutations of one small instance per range type, and edge values of
every numeric flag, run through ``cli.main``: each run exits 0-3 and raises
nothing, and a refusal (exit 1) prints exactly one ``error:`` line."""

import copy
import json
import random

import pytest

from kkfree.cli import main

from conftest import json_nodes

# Each gen family with small sizes, and the commands that accept its file
# {src}.
FAMILIES = [
    (["random-boxes", "--n", 8, "--m", 6],
     [["count", "{src}"], ["kkk", "{src}", "--k", 2], ["cover", "{src}"],
      ["audit", "rect", "{src}"], ["audit", "box", "{src}"],
      ["report", "{src}"]]),
    (["random-boxes", "--n", 8, "--m", 6, "--d", 1],
     [["audit", "interval", "{src}"], ["cover", "{src}"]]),
    (["census-halfplanes", "--n", 16],
     [["count", "{src}"], ["census", "shallow", "{src}"],
      ["census", "depth", "{src}"]]),
    (["random-fat", "--n", 8, "--m", 4], [["audit", "fat", "{src}"]]),
    (["random-curtains", "--n", 8, "--m", 6], [["audit", "curtain", "{src}"]]),
    *(([family, "--n", 6, "--m", 4], [["reduce", reduction, "{src}"]])
      for family, reduction in [
          ("random-polyhedra", "polyhedra-to-boxes"),
          ("random-threesided", "threesided-to-orthants"),
          ("random-orthants", "orthants-to-halfspaces"),
          ("random-balls", "balls-to-halfspaces"),
          ("random-wedges2", "wedge-lift"),
          ("random-wedges3", "wedge-dual"),
          ("random-origin-triangles", "origin-triangle-to-curtain")]),
    (["elekes", "--N", 2],
     [["count", "{src}"], ["reduce", "pointline-to-5d", "{src}"]]),
]

# JSON values a field can be replaced by; NaN and Infinity are written as
# the bare words Python's json module reads back as floats.
ODD_VALUES = [0, -1, 10 ** 22, 2.5, float("nan"), float("inf"), True, None,
              "", "x", "nan", "inf", "1e400", "1/0", [], {}, ["1"]]

# Edge values of a numeric flag.
FLAG_VALUES = ["0", "-1", str(10 ** 22), "nan", "inf", "1e400", ""]

# Each numeric flag with a command that reads it; {box} and {half} are a
# box and an upper-halfspace instance, {csv} a census CSV and {gen} the
# file gen writes.
FLAG_PROBES = [
    *(["gen", "random-boxes", "--out", "{gen}", "--n", 6, "--m", 4, flag]
      for flag in ("--n", "--m", "--d", "--k", "--seed")),
    ["gen", "random-fat", "--out", "{gen}", "--n", 6, "--m", 4, "--delta"],
    ["gen", "elekes", "--out", "{gen}", "--N"],
    ["gen", "lower5d", "--out", "{gen}", "--N"],
    *(["kkk", "{box}", "--k", 2, flag] for flag in ("--k", "--budget")),
    *(["cover", "{box}", flag] for flag in ("--k", "--budget")),
    *(["audit", "rect", "{box}", flag] for flag in ("--b", "--k", "--budget")),
    ["audit", "box", "{box}", "--b"],
    *(["census", "shallow", "{half}", flag]
      for flag in ("--k", "--r", "--budget")),
    *(["census", "schedule", flag] for flag in ("--k", "--m", "--c")),
    ["report", "{box}", "--budget"],
    *(["plot", "{csv}", "--x", "r", "--y", "observed", "--overlay", family,
       flag]
      for family in ("interval", "box", "halfspace", "ball", "fat")
      for flag in ("--d", "--epsilon", "--m", "--k", "--constant")),
]


def _check(argv, tmp_path, capsys):
    code = main(["--out-dir", str(tmp_path / "out"), *map(str, argv)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 1), (argv, err)
    return code


def _gen(family, path, tmp_path, capsys):
    assert _check(["gen", *family, "--seed", 1, "--out", path], tmp_path,
                  capsys) == 0


def _mutate(doc, rng):
    """Delete one key or element, or replace its value by an odd one."""
    node = rng.choice([n for n in json_nodes(doc)
                       if isinstance(n, (dict, list)) and n])
    key = rng.choice(sorted(node) if isinstance(node, dict)
                     else range(len(node)))
    if rng.random() < 0.3:
        del node[key]
    else:
        node[key] = copy.deepcopy(rng.choice(ODD_VALUES))


def test_mutated_instances_exit_cleanly(tmp_path, capsys):
    rng = random.Random(28)
    cases = []
    for i, (family, commands) in enumerate(FAMILIES):
        path = tmp_path / f"src{i}.json"
        _gen(family, path, tmp_path, capsys)
        cases.append((json.loads(path.read_text()), commands))
    codes = set()
    path = tmp_path / "mutated.json"
    for _ in range(300):
        doc, commands = rng.choice(cases)
        doc = copy.deepcopy(doc)
        _mutate(doc, rng)
        path.write_text(json.dumps(doc))
        for command in commands:
            codes.add(_check([str(a).format(src=path) for a in command],
                             tmp_path, capsys))
    # The mutations reach past the loader: some runs are accepted.
    assert {0, 1} <= codes


@pytest.mark.parametrize("value", FLAG_VALUES)
def test_flag_edge_values_exit_cleanly(tmp_path, capsys, value):
    files = {"box": tmp_path / "box.json", "half": tmp_path / "half.json",
             "csv": tmp_path / "out" / "census_shallow.csv",
             "gen": tmp_path / "gen.json"}
    _gen(FAMILIES[0][0], files["box"], tmp_path, capsys)
    _gen(FAMILIES[2][0], files["half"], tmp_path, capsys)
    assert _check(["census", "shallow", files["half"]], tmp_path,
                  capsys) == 0
    for probe in FLAG_PROBES:
        _check([*(str(a).format(**files) for a in probe), value], tmp_path,
               capsys)
