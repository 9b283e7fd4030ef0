"""Fuzzing the instance loader: a mutated document either loads correctly
or raises KkfreeError."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
