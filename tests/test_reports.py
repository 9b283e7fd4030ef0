"""The JSON emitter writes what ``json.dumps(indent=1, sort_keys=True)``
writes, byte for byte, and files are written and read as UTF-8 whatever the
locale."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kkfree
from kkfree.errors import InvalidInputError
from kkfree.reports import json_text, write_json, write_text_atomic
from kkfree.slab import box_audit

ROOT = Path(__file__).resolve().parents[1]


def stdlib_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# Quotes, backslashes, control characters, non-ASCII (beyond the BMP too)
# and a lone surrogate, next to whatever hypothesis draws.
TEXT = st.text(st.one_of(st.characters(),
                         st.sampled_from('"\\/\x00\x1f\x7f é€😀\ud800')),
               max_size=8)
FLOATS = st.one_of(st.floats(),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                                    1e300]))
INTS = st.one_of(st.integers(), st.integers(-10 ** 100, 10 ** 100))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)


def _containers(children):
    # json sorts the keys, so one dict's keys must be comparable: all
    # strings, all numbers (bools among them) or one None.
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.one_of(INTS, FLOATS, st.booleans()), children,
                        max_size=4),
        st.dictionaries(st.none(), children, max_size=1))


DOCUMENTS = st.recursive(SCALARS, _containers, max_leaves=30)


@given(DOCUMENTS)
@settings(max_examples=500, deadline=None)
def test_emitter_matches_json_dumps(doc):
    assert json_text(doc) == stdlib_text(doc)


@pytest.mark.parametrize("doc", [
    None, True, "", 0, -0.0, [], {}, (), [[]], [{}], {"a": []}, {"": {}},
    {"b": [1, (2, {"c": None})], "a": "x"}, {2: "two", 1.5: "x", True: 1},
    [math.nan, math.inf, -math.inf, 10 ** 400 - 1, "\"\\\n\té\ud83d"],
], ids=repr)
def test_emitter_matches_json_dumps_on_edges(doc):
    assert json_text(doc) == stdlib_text(doc)


@pytest.mark.parametrize("doc", [
    {1, 2}, Fraction(1, 2), [Fraction(1, 3)], {"a": {1}}, {"a": [1, {"b": b""}]},
    {(1, 2): 3}, {"a": 1, 2: "b"},
], ids=["set", "fraction", "fraction-in-list", "set-value", "bytes-deep",
        "tuple-key", "mixed-keys"])
def test_emitter_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        stdlib_text(doc)
    with pytest.raises(TypeError):
        json_text(doc)


def _seed1_box_audit() -> dict:
    """The box audit report of the seed-1 ``boxes`` benchmark instance."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inst = workloads.build_instances("boxes", 1)["dense3d"]
    return box_audit(inst.points, inst.ranges, 4, inst.k).to_json_dict()


def _peak_bytes(fn, doc) -> int:
    tracemalloc.start()
    try:
        fn(doc)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emitter_peak_memory_within_the_pure_python_encoders(monkeypatch):
    # Before Python 3.13, json.dumps with indent runs the pure-Python
    # encoder, the one json_text stands in for.  Without the C encoder it
    # runs that one on every Python, 3.13 included.
    doc = _seed1_box_audit()
    assert len(json_text(doc)) > 200_000
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert json_text(doc) == stdlib_text(doc)
    assert _peak_bytes(json_text, doc) <= _peak_bytes(stdlib_text, doc)


def test_write_json_writes_the_emitter_text(tmp_path):
    doc = {"b": [1, 2.5, None], "a": {"é": "😀"}}
    write_json(tmp_path / "d.json", doc)
    assert (tmp_path / "d.json").read_bytes() == stdlib_text(doc).encode()


def test_an_unwritable_surrogate_is_an_input_error(tmp_path):
    path = tmp_path / "t.txt"
    with pytest.raises(InvalidInputError, match="^cannot write .*surrogates"):
        write_text_atomic(str(path), "a\ud800")
    assert list(tmp_path.iterdir()) == []


def _run_in_c_locale(args, cwd) -> subprocess.CompletedProcess:
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.path.dirname(os.path.dirname(kkfree.__file__))}
    return subprocess.run([sys.executable, "-m", "kkfree.cli", *args],
                          cwd=cwd, env=env, capture_output=True, check=False)


def test_plot_title_in_the_c_locale_is_written_as_utf8(tmp_path):
    (tmp_path / "s.csv").write_text("n,incidences\n1,2\n4,8\n")
    proc = _run_in_c_locale(["plot", "s.csv", "--x", "n", "--y",
                             "incidences", "--title", "café"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert ">café</text>" in (tmp_path / "plot.svg").read_text("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plot.svg", "s.csv"]


def test_a_utf8_instance_loads_in_the_c_locale(tmp_path):
    doc = {"format_version": 1, "dimension": 1, "k": None,
           "provenance": {"source": "Erdős–Szemerédi grid"},
           "points": [["0"], ["1"]],
           "ranges": [{"type": "box", "lows": ["0"], "highs": ["1"]}]}
    (tmp_path / "i.json").write_text(json.dumps(doc, ensure_ascii=False),
                                     encoding="utf-8")
    proc = _run_in_c_locale(["count", "i.json"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"2\n", b"")
