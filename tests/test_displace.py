"""Unit tests: displacement (comb) parse-table compression."""

import pytest

from repro.grammars import corpus
from repro.parser import Parser
from repro.tables import build_lalr_table
from repro.tables.displace import (
    ACTION_ACCEPT,
    ACTION_ERROR,
    ActionDecoder,
    DisplacedTable,
    displace,
    displacement_ratio,
    encode_action,
    pack_rows,
)
from repro.tables.table import ACCEPT, Reduce, Shift


class TestActionEncoding:
    def test_round_trip_all_kinds(self):
        decoder = ActionDecoder()
        for action in [Shift(7), Reduce(3), ACCEPT, None]:
            assert decoder.decode(encode_action(action)) == action

    def test_error_is_zero(self):
        assert encode_action(None) == ACTION_ERROR == 0

    def test_accept_is_bare_tag(self):
        assert encode_action(ACCEPT) == ACTION_ACCEPT

    def test_decoder_interns(self):
        decoder = ActionDecoder()
        code = encode_action(Shift(5))
        assert decoder.decode(code) is decoder.decode(code)

    def test_decoder_rejects_garbage(self):
        with pytest.raises(ValueError):
            ActionDecoder().decode(-1)


class TestPackRows:
    def lookup(self, packed, row, col, n_cols, empty):
        displacements, check, values = packed
        slot = displacements[row] + col
        if 0 <= slot < len(check) and check[slot] == row:
            return values[slot]
        return empty

    def assert_faithful(self, rows, empty):
        packed = pack_rows(rows, empty=empty)
        for r, row in enumerate(rows):
            for c, cell in enumerate(row):
                assert self.lookup(packed, r, c, len(row), empty) == cell, (r, c)

    def test_disjoint_rows_interleave(self):
        # Rows populate disjoint columns; the comb can overlay them.
        rows = [[5, 0, 0, 0], [0, 6, 0, 0], [0, 0, 7, 0]]
        displacements, check, values = pack_rows(rows)
        assert len(values) <= 4  # fully interleaved, no growth
        self.assert_faithful(rows, 0)

    def test_identical_dense_rows_cannot_share(self):
        rows = [[1, 2], [3, 4]]
        self.assert_faithful(rows, 0)
        _, check, _ = pack_rows(rows)
        assert len(check) >= 4

    def test_empty_rows(self):
        self.assert_faithful([[0, 0], [0, 0]], 0)
        displacements, check, values = pack_rows([[0, 0], [0, 0]])
        assert len(check) == 0 and len(values) == 0

    def test_no_rows(self):
        displacements, check, values = pack_rows([])
        assert len(displacements) == len(check) == len(values) == 0

    def test_custom_empty_sentinel(self):
        rows = [[-1, 3, -1], [2, -1, -1]]
        self.assert_faithful(rows, -1)

    def test_deterministic(self):
        rows = [[0, 2, 0, 3], [4, 0, 0, 0], [0, 2, 0, 3], [0, 0, 5, 0]]
        first = pack_rows(rows)
        second = pack_rows(rows)
        assert [list(a) for a in first] == [list(a) for a in second]

    @pytest.mark.parametrize("name", ["expr", "json", "algol_like", "toy_java"])
    def test_faithful_on_corpus_tables(self, name):
        table = build_lalr_table(corpus.load(name, augment=True))
        rows = [[encode_action(cell) for cell in row] for row in table.action_rows]
        self.assert_faithful(rows, 0)
        self.assert_faithful([list(row) for row in table.goto_rows], -1)


class TestDisplacedTable:
    @pytest.fixture
    def expr_table(self):
        return build_lalr_table(corpus.load("expr", augment=True))

    def test_rows_match_dense(self, expr_table):
        displaced = displace(expr_table)
        width, n_nts = displaced.num_terminals, displaced.num_nonterminals
        combs = (
            (displaced.action_displacements, displaced.action_check,
             displaced.action_values),
            (displaced.goto_displacements, displaced.goto_check,
             displaced.goto_values),
        )
        lookup = TestPackRows().lookup
        for state in range(expr_table.n_states):
            dense = [encode_action(cell) for cell in expr_table.action_rows[state]]
            assert [
                lookup(combs[0], state, t, width, ACTION_ERROR)
                for t in range(width)
            ] == dense
            dense_goto = list(expr_table.goto_rows[state])
            assert [
                lookup(combs[1], state, n, n_nts, -1) for n in range(n_nts)
            ] == dense_goto
            assert list(displaced.action_rows[state]) == list(
                expr_table.action_rows[state]
            )
            assert list(displaced.goto_rows[state]) == dense_goto

    def test_symbol_lookups_delegate(self, expr_table):
        displaced = displace(expr_table)
        for state in range(expr_table.n_states):
            for terminal, action in expr_table.actions[state].items():
                assert displaced.action(state, terminal) == action
            for nonterminal, target in expr_table.gotos[state].items():
                assert displaced.goto(state, nonterminal) == target

    def test_metadata_preserved(self, expr_table):
        displaced = displace(expr_table)
        assert displaced.method == "lalr1+displacement"
        assert displaced.n_states == expr_table.n_states
        assert displaced.is_deterministic
        assert displaced.conflict_summary() == expr_table.conflict_summary()

    def test_engine_drives_displaced_table(self, expr_table):
        parser = Parser(displace(expr_table))
        assert parser.accepts(["id", "+", "id", "*", "id"])
        assert not parser.accepts(["id", "+"])

    def test_packing_stats_consistent(self, expr_table):
        stats = displace(expr_table).packing_stats()
        assert stats["comb_slots"] == (
            stats["action_comb_slots"] + stats["goto_comb_slots"]
        )
        assert stats["populated_cells"] + stats["comb_gaps"] == stats["comb_slots"]
        assert stats["stored_cells"] < stats["dense_cells"]

    @pytest.mark.parametrize("name", ["expr", "json", "algol_like", "toy_java"])
    def test_ratio_above_one_on_corpus(self, name):
        table = build_lalr_table(corpus.load(name, augment=True))
        assert displacement_ratio(table) > 1.0

    def test_conflicted_table_still_packs(self):
        # Displacement is a storage transform; it carries the conflict
        # metadata through rather than refusing (serialisers refuse).
        table = build_lalr_table(corpus.load("dangling_else", augment=True))
        displaced = DisplacedTable(table)
        assert not displaced.is_deterministic
        assert displaced.unresolved_conflicts == table.unresolved_conflicts
