"""``Report.to_json`` against the ``json.dumps`` oracle.

The emitter must write exactly ``json.dumps(doc, sort_keys=True, indent=2)
+ "\\n"``.  The pinned digests of ``tests/test_report_bytes.py`` hold it to
that form on the fixed corpora; here it is compared with the oracle on
drawn documents and drawn reports, on bools and subclasses of the accepted
types nested in containers or placed in int lists long enough for the
emitter's join, on a list nested 300 deep and on a field job nested as deep
as ``MAX_LITERAL_DEPTH`` allows.  Lists of int rows of one width, which the
emitter writes in one ``%`` operation, are compared at several widths,
lengths and depths, as tuples, and drawn; ragged rows, an empty row and a
row holding a bool or an ``IntEnum`` must keep off that path and still match,
and a cell past the 4,300-digit limit of int-to-str conversion must raise
the error ``json.dumps`` raises.
"""

from __future__ import annotations

import json
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmtwist.cli as cli
from cmtwist.cli import _JOIN_MIN, MAX_LITERAL_DEPTH, Report, _emit, _rows_text, run, validate_input
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


@pytest.mark.parametrize("length", [_JOIN_MIN, _JOIN_MIN + 1, 100])
def test_long_int_lists_match_the_oracle(length):
    # past _JOIN_MIN items an all-int list is written in one join
    items = [(-1) ** i * 7**i for i in range(length)]
    for doc in (items, tuple(items), {"k": items}, [[items], 0]):
        assert emit(doc) == dumps_oracle(doc)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("value", [True, False, Order.TWO, Degree(7), 1.5])
def test_one_odd_item_keeps_a_long_list_off_the_join(value, where):
    # each item's type is checked, not the first item's alone
    items = list(range(10, 10 + _JOIN_MIN + 3))
    items[{"first": 0, "middle": len(items) // 2, "last": -1}[where]] = value
    for doc in (items, tuple(items), {"k": items}):
        if isinstance(value, float):
            with pytest.raises(TypeError):
                emit(doc)
        else:
            assert emit(doc) == dumps_oracle(doc)


def nest(doc, depth: int):
    # doc as the value at the given nesting depth, under lists and dicts in turn
    for i in range(depth):
        doc = [doc] if i % 2 else {"k": doc}
    return doc


@pytest.fixture
def rows_written(monkeypatch):
    """Whether each call of the emitter's rows path wrote the rows."""
    written: list[bool] = []

    def recorded(rows, depth):
        text = _rows_text(rows, depth)
        written.append(text is not None)
        return text

    monkeypatch.setattr(cli, "_rows_text", recorded)
    return written


@pytest.mark.parametrize("count", [1, 2, 100])
@pytest.mark.parametrize("width", [1, 2, 7, 8])
def test_equal_width_rows_match_the_oracle(width, count, rows_written):
    rows = [[(-1) ** (i + j) * 3 ** (i + j) for j in range(width)] for i in range(count)]
    for doc in (rows, tuple(rows), [tuple(r) for r in rows], tuple(map(tuple, rows)),
                [r if i % 2 else tuple(r) for i, r in enumerate(rows)]):
        for depth in (0, 1, 5):
            nested = nest(doc, depth)
            rows_written.clear()
            assert emit(nested) == dumps_oracle(nested)
            assert rows_written == [True]


@pytest.mark.parametrize("rows", [
    [[1, 2], [3]],                          # ragged
    [[1], [2, 3], [4]],
    [[1, 2], []],                           # an empty row
    [[], [1, 2]],
    [[], []],
    [[1, 2], [3, True]],                    # a bool cell
    [[False], [1]],
    [[1, 2], [Order.TWO, 3]],               # an IntEnum cell
    [[1], [2], [Order.ONE]],
    [[1, 2], [3, [4]]],                     # a cell that is no int
    [[1], ["2"]],
    [[1], [None]],
], ids=repr)
def test_rows_off_the_path_match_the_oracle(rows, rows_written):
    for doc in (rows, tuple(rows), {"k": rows}, nest(rows, 5)):
        assert emit(doc) == dumps_oracle(doc)
    assert rows_written and not any(rows_written)


def test_row_subclass_and_mixed_items_match_the_oracle():
    # a row that is a list subclass, or a list item that is no row, takes
    # the loop
    class Row(list):
        pass

    for doc in ([[1, 2], Row([3, 4])], [Row([1])], [[1, 2], 3], [[1], {"a": 1}], [[1], "x"]):
        assert emit(doc) == dumps_oracle(doc)


@pytest.mark.parametrize("digits", [4300, 4301])
def test_row_cell_at_the_digit_limit(digits):
    cell = 10 ** (digits - 1)
    doc = [[1, 2], [3, cell]]
    try:
        expected = dumps_oracle(doc)
    except ValueError as refused:
        with pytest.raises(ValueError) as raised:
            emit(doc)
        assert str(raised.value) == str(refused)
    else:
        assert emit(doc) == expected


row_lists = st.integers(min_value=1, max_value=9).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(min_value=-10**40, max_value=10**40), min_size=width, max_size=width)
        | st.tuples(*[st.integers()] * width),
        min_size=1, max_size=12))


@settings(max_examples=100, deadline=None)
@given(row_lists, st.integers(min_value=0, max_value=6))
def test_drawn_row_lists_match_the_oracle(rows, depth):
    assert _rows_text(rows, depth) is not None
    doc = nest(rows, depth)
    assert emit(doc) == dumps_oracle(doc)


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
