"""``Report.to_json`` against the ``json.dumps`` oracle.

The emitter must write exactly ``json.dumps(doc, sort_keys=True, indent=2)
+ "\\n"``.  The pinned digests of ``tests/test_report_bytes.py`` hold it to
that form on the fixed corpora; here it is compared with the oracle on
drawn documents and drawn reports, on bools and subclasses of the accepted
types nested in containers, on a list nested 300 deep and on a field job
nested as deep as ``MAX_LITERAL_DEPTH`` allows.
"""

from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtwist.cli import MAX_LITERAL_DEPTH, Report, _emit, run, validate_input
from cmtwist.twists import Hypothesis
from helpers import dumps_oracle, report_document, run_python


def emit(doc) -> str:
    out: list[str] = []
    _emit(doc, 0, out)
    return "".join(out) + "\n"


text = st.text(st.one_of(st.characters(), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
                         st.characters(max_codepoint=0x1F)))
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**80, max_value=10**80),
    text,
)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(text, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(documents)
def test_drawn_documents_match_the_oracle(doc):
    assert emit(doc) == dumps_oracle(doc)


# payload and results go through _emit, which the documents above exercise
# in depth; small ones keep the draw cheap
sections = st.recursive(leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
                        max_leaves=6)
hypotheses = st.builds(Hypothesis, text, st.sampled_from(["checked", "assumed"]) | text, st.booleans())
reports = st.builds(
    Report,
    text,
    sections,
    sections,
    st.lists(hypotheses, max_size=3).map(tuple),
    st.lists(text, max_size=3).map(tuple),
    st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(reports)
def test_drawn_reports_match_the_oracle(report):
    # to_json writes the fixed keys, the records and the statements itself
    assert report.to_json() == dumps_oracle(report_document(report))


class Order(IntEnum):
    TWO = 2
    ONE = 1


class Degree(int):
    def __repr__(self) -> str:
        return f"Degree({int(self)})"

    __str__ = __repr__


class Label(str):
    pass


@pytest.mark.parametrize("value", [True, False, Order.TWO, Order.ONE, Degree(7), Label("sigma"), Label("")])
def test_subclass_and_bool_values_match_the_oracle(value):
    # the emitter writes exact str and int items in the container's loop; a
    # bool or a subclass must still print as json.dumps prints it
    doc = {"list": [value, [value], (value, 0)], "tuple": (value,), "dict": {"a": value, "b": {"c": value}},
           "top": value}
    text = emit(doc)
    assert text == dumps_oracle(doc)
    if isinstance(value, bool):
        assert f'"a": {str(value).lower()}' in text
    elif isinstance(value, int):
        assert f'"a": {int.__repr__(value)}' in text
    for nested in (value, [value], (value,), {"k": value}):
        assert emit(nested) == dumps_oracle(nested)


def test_container_subclasses_match_the_oracle():
    class Row(list):
        pass

    class Record(dict):
        pass

    doc = Record(b=Row([1, Record(a=Row())]), a=[Row([True, None])])
    assert emit(doc) == dumps_oracle(doc)


def test_deeper_than_the_indent_table():
    # built in process, so json.load's depth limit does not apply
    doc: list = [1]
    for i in range(300):
        doc = [i, doc, {"depth": i}] if i % 2 else [doc]
    assert emit(doc) == dumps_oracle(doc)


@pytest.mark.parametrize("doc", [
    {1, 2},
    1.5,
    b"bytes",
    {1: "int key"},
    {("a",): "tuple key"},
    [{"ok": [0, {"nested": 0.0}]}],
    {"ok": {"nested": frozenset()}},
    # each kind nested as a list item and as a dict value, where the
    # container's own loop meets it
    [0, "a", [1.5]],
    {"a": 1, "b": 1.5},
    [0, "a", [{1, 2}]],
    {"a": 1, "b": {1, 2}},
    [0, "a", [b"bytes"]],
    {"a": 1, "b": b"bytes"},
])
def test_unsupported_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        emit(doc)
    with pytest.raises(TypeError):
        Report("field", {"field": doc}, {}, (), (), True).to_json()


def test_deep_compositum_job_matches_the_oracle(tmp_path):
    # a field job nested as deep as the literal depth budget allows
    depth = MAX_LITERAL_DEPTH
    literal = '{"compositum": [' * (depth - 1) + '{"cyclotomic": 7}' + "]}" * (depth - 1)
    path = tmp_path / "job.json"
    path.write_text('{"field": ' + literal + "}")
    out = run_python(["-m", "cmtwist.cli", "field", "--input", str(path), "--json"], timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    payload = json.loads(path.read_text())
    report = run(validate_input({"command": "field", "payload": payload}))
    expected = dumps_oracle(report_document(report))
    assert out.stdout == expected
    assert expected.count('"compositum"') == depth - 1
