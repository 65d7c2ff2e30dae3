"""The lazy row views every table representation serves.

A :class:`~repro.tables.table.ParseTable` stores only its code arrays;
``action_rows``/``goto_rows``/``actions``/``gotos`` are
:class:`~repro.tables.table.LazyRows` decoded on first touch.  These
tests pin that the views index like lists on every representation —
plain, binary (mmap'd), specialized and displaced — and that counting,
specializing, parsing and recovery never decode a row.
"""

from __future__ import annotations

import pytest

from repro.grammars import corpus
from repro.parser import ParseError, Parser, RecoveringParser
from repro.tables import (
    DisplacedTable,
    SpecializedTable,
    build_lalr_table,
    load_binary_table,
    save_binary_table,
    table_from_bytes,
    table_to_bytes,
)
from repro.tables.table import LazyRows


def _json_table():
    return build_lalr_table(corpus.load("json", augment=True))


@pytest.fixture
def representation(request, tmp_path):
    """A fresh instance of one representation of the json table."""
    kind = request.param
    if kind == "plain":
        yield _json_table()
    elif kind == "binary":
        table = _json_table()
        yield table_from_bytes(table_to_bytes(table), table.grammar)
    elif kind == "mapped":
        table = _json_table()
        path = str(tmp_path / "json.rtb")
        save_binary_table(table, path)
        mapped = load_binary_table(path, table.grammar)
        yield mapped
        mapped.close()
    elif kind == "specialized":
        yield SpecializedTable(_json_table())
    else:
        yield DisplacedTable(_json_table())


@pytest.mark.parametrize(
    "representation",
    ["plain", "binary", "mapped", "specialized", "displaced"],
    indirect=True,
)
def test_negative_index_does_not_alias_last_state(representation):
    reference = _json_table()
    table = representation
    n = table.n_states
    width = table.grammar.ids.num_terminals
    assert width == 12
    last_actions = list(reference.action_rows[n - 1])
    last_gotos = list(reference.goto_rows[n - 1])

    # Touch the negative index first: it used to decode an empty row and
    # cache it in the last state's slot.
    assert list(table.action_rows[-1]) == last_actions
    assert list(table.goto_rows[-1]) == last_gotos
    assert len(table.action_rows[n - 1]) == width
    assert list(table.action_rows[n - 1]) == last_actions
    assert list(table.goto_rows[n - 1]) == last_gotos
    assert list(table.action_rows[-n]) == list(reference.action_rows[0])
    for rows in (table.action_rows, table.goto_rows):
        with pytest.raises(IndexError):
            rows[n]
        with pytest.raises(IndexError):
            rows[-n - 1]
    assert table.actions[-1] == reference.actions[n - 1]
    assert table.gotos[-1] == reference.gotos[n - 1]


def test_lazy_rows_behave_like_a_list():
    decoded = []

    def decode(state):
        decoded.append(state)
        return [state]

    rows = LazyRows(3, decode)
    assert len(rows) == 3
    assert rows[-1] == [2] and rows[2] is rows[-1]
    assert list(rows) == [[0], [1], [2]]
    assert rows == [[0], [1], [2]]
    assert rows != [[0], [1]]
    assert decoded == [2, 0, 1]  # each state decoded exactly once
    with pytest.raises(IndexError):
        rows[3]


def _untouched(rows: LazyRows) -> bool:
    return all(row is None for row in rows.decoded)


def test_counting_and_specializing_decode_nothing(tmp_path):
    table = _json_table()
    cells = table.size_cells()
    specialized = SpecializedTable(table)
    path = str(tmp_path / "json.rtb")
    save_binary_table(table, path)
    mapped = load_binary_table(path, table.grammar)
    try:
        assert mapped.size_cells() == cells
    finally:
        mapped.close()
    for views in (table, specialized):
        for rows in (views.action_rows, views.goto_rows, views.actions, views.gotos):
            assert _untouched(rows)
    assert specialized.action_codes == table.action_codes.tolist()
    assert cells == sum(map(len, table.actions)) + sum(map(len, table.gotos))


def test_engines_decode_no_rows():
    table = _json_table()
    parser = Parser(table)
    parser.parse(["{", "STRING", ":", "[", "NUMBER", ",", "true", "]", "}"])
    with pytest.raises(ParseError):
        parser.parse(["{", "STRING", "STRING", "}"])
    errors = RecoveringParser(parser, [","]).check(["{", "STRING", "STRING", "}"])
    assert [e.position for e in errors] == [2]
    assert _untouched(table.action_rows)


def test_parser_over_closed_binary_table(tmp_path):
    table = _json_table()
    path = str(tmp_path / "json.rtb")
    save_binary_table(table, path)
    mapped = load_binary_table(path, table.grammar)
    parser = Parser(mapped)
    reference = Parser(table)
    mapped.close()
    valid = ["{", "STRING", ":", "[", "NUMBER", ",", "true", "]", "}"]
    assert repr(parser.parse(valid)) == repr(reference.parse(valid))
    for invalid in (["{", "STRING", "STRING", "}"], ["[", "]", "]"], []):
        with pytest.raises(ParseError) as got:
            parser.parse(invalid)
        with pytest.raises(ParseError) as want:
            reference.parse(invalid)
        assert (str(got.value), got.value.state, got.value.expected) == (
            str(want.value),
            want.value.state,
            want.value.expected,
        )
