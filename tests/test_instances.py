"""Fuzzing the instance loader: a mutated document either loads correctly
or raises KkfreeError."""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkfree.cli import main
from kkfree.errors import DimensionMismatchError, KkfreeError
from kkfree.geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                             LinearHalfspace, Polyhedron, Triangle, Wedge2,
                             Wedge3, pt)
from kkfree.instances import Instance, instance_from_json, instance_to_json

from conftest import json_nodes


def _docs():
    half = Fraction(1, 2)
    plane = Instance(2, [pt(0, 0), pt(half, 3), pt(-2, 1)], [
        Box((0, None), (2, half)),
        Halfspace(Hyperplane((half,), -1), "upper"),
        LinearHalfspace((1, -2), 3, "ge"),
        Ball(pt(1, half), Fraction(9, 4)),
        Wedge2(1, 0, 2),
        Curtain(-1, half, None, 4),
        Triangle(pt(0, 0), pt(3, 0), pt(0, half)),
        Line2(2, -1),
        Polyhedron(((1, 1), (1, -1)), (None, 0), (3, None)),
    ], 2, {"generator": "fuzz"})
    space = Instance(3, [pt(1, 2, 3)], [Wedge3(half, 1, 0),
                                        Box((0, 0, None), (1, 1, 1))])
    return [instance_to_json(plane), instance_to_json(space)]


DOCS = _docs()
# Values a field can be retyped to; no string here has an exponent, so no
# mutation asks for a huge power of ten.
ODD_VALUES = st.one_of(
    st.sampled_from([0, -3, 2.5, True, False, None, "", "x", "1/0", "nan",
                     "1.5.2", "--1", [], {}, ["1"], {"a": "1"}, [[]]]),
    st.text(alphabet="0123456789/-+._ x", max_size=6))


def _mutate(doc, data):
    """One mutation at a drawn place: drop a key or element, retype a
    value, duplicate an element, or nest a value one level too deep or too
    shallow."""
    nodes = [node for node in json_nodes(doc)
             if isinstance(node, (dict, list)) and node]
    node = data.draw(st.sampled_from(nodes))
    key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                    else range(len(node))))
    op = data.draw(st.sampled_from(["drop", "retype", "grow", "wrap",
                                    "unwrap"]))
    inner = node[key]
    if op == "drop":
        del node[key]
    elif op == "retype":
        # A copy: a later mutation must not edit the shared sample values.
        node[key] = copy.deepcopy(data.draw(ODD_VALUES))
    elif op == "grow" and isinstance(node, list):
        node.append(inner)
    elif op == "wrap":
        node[key] = [inner]
    elif op == "unwrap" and isinstance(inner, list) and inner:
        node[key] = inner[0]
    elif op == "unwrap" and isinstance(inner, dict) and inner:
        node[key] = inner[sorted(inner)[0]]


def _same(out, doc) -> bool:
    """The re-serialized instance says what the document said: the same
    structure, and each rational leaf (a string or integer) the same
    value."""
    if isinstance(out, dict):
        return isinstance(doc, dict) and set(doc) <= set(out) and all(
            _same(v, doc[key]) if key in doc else key in ("k", "provenance")
            and v == {"k": None, "provenance": {}}[key]
            for key, v in out.items())
    if isinstance(out, list):
        return isinstance(doc, list) and len(out) == len(doc) and all(
            _same(a, b) for a, b in zip(out, doc))
    if type(out) is type(doc) and out == doc:
        return True
    return isinstance(out, str) and type(doc) in (int, str) and \
        Fraction(out) == Fraction(doc)


@given(st.sampled_from(range(len(DOCS))), st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_document_loads_correctly_or_raises(which, rounds, data):
    doc = copy.deepcopy(DOCS[which])
    for _ in range(rounds):
        _mutate(doc, data)
    try:
        inst = instance_from_json(doc)
    except KkfreeError:
        return
    assert _same(instance_to_json(inst), doc), doc


def test_unmutated_documents_round_trip():
    for doc in DOCS:
        assert instance_to_json(instance_from_json(doc)) == doc


def test_instance_names_the_last_object_of_another_dimension():
    square = Box((0, 0), (1, 1))
    with pytest.raises(DimensionMismatchError,
                       match="point 1 has dimension 3, not 2"):
        Instance(2, [pt(0, 0), pt(0, 0, 0)], [square])
    with pytest.raises(DimensionMismatchError,
                       match="range 1 has dimension 1, not 2"):
        Instance(2, [pt(0, 0)], [square, Box((0,), (1,))])


def _count_errors(tmp_path, capsys, doc) -> str:
    # The loader's refusal as the command line prints it: exit 1 and its
    # whole stderr.
    path = tmp_path / "i.json"
    path.write_text(json.dumps(doc))
    assert main(["count", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    return err


ONE_POINT = {"format_version": 1, "dimension": 1, "points": [["0"]]}


@pytest.mark.parametrize("kind", [["box"], {"type": "box"}, 3, 2.5, None,
                                  True, "Box", ""],
                         ids=["list", "object", "int", "float", "null",
                              "bool", "capitalised", "empty"])
def test_a_range_of_no_known_type_is_named_as_such(tmp_path, capsys, kind):
    # An unhashable "type" too: no TypeError, no "malformed instance".
    doc = {**ONE_POINT, "ranges": [{"type": kind, "lows": ["0"],
                                    "highs": ["1"]}]}
    err = _count_errors(tmp_path, capsys, doc)
    assert err == f"error: unknown range type: {kind!r}\n"


@pytest.mark.parametrize("coord, message", [
    (True, "not an exact rational: True"),
    (False, "not an exact rational: False"),
    (2.5, "not an exact rational: 2.5"),
    (1.0, "not an exact rational: 1.0"),
    ("1e4301", "exponent beyond +-4300: '1e4301'"),
    ("-2.5E-4_301", "exponent beyond +-4300: '-2.5E-4_301'"),
], ids=["true", "false", "float", "integral-float", "exponent",
        "negative-exponent"])
@pytest.mark.parametrize("where", ["point", "box", "line"])
def test_a_coordinate_that_is_no_exact_rational_is_refused(
        tmp_path, capsys, coord, message, where):
    doc = {**ONE_POINT, "ranges": []}
    if where == "point":
        doc["points"] = [[coord]]
    elif where == "box":
        doc["ranges"] = [{"type": "box", "lows": [coord], "highs": ["1"]}]
    else:
        doc = {**doc, "dimension": 2, "points": [["0", "0"]],
               "ranges": [{"type": "line", "a": "1", "b": coord}]}
    assert _count_errors(tmp_path, capsys, doc) == f"error: {message}\n"
