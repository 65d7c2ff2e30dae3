"""Doc-drift guard: every concrete number/set in docs/ALGORITHM.md is
asserted here against the implementation, so the walkthrough cannot rot."""

import pytest

from repro.automaton import LR0Automaton, LR1Automaton
from repro.core import LalrAnalysis
from repro.grammars import corpus


@pytest.fixture(scope="module")
def lvalue():
    grammar = corpus.load("lvalue", augment=True)
    automaton = LR0Automaton(grammar)
    return grammar, automaton, LalrAnalysis(grammar, automaton)


def names(symbols):
    return sorted(s.name for s in symbols)


class TestAlgorithmDoc:
    def test_state_counts(self, lvalue):
        grammar, automaton, _ = lvalue
        assert len(automaton) == 11
        assert len(LR1Automaton(grammar)) == 15

    def test_seven_nonterminal_transitions(self, lvalue):
        _, _, analysis = lvalue
        rendered = {(p, s.name) for p, s in analysis.relations.transitions}
        assert rendered == {
            (0, "S"), (0, "L"), (0, "R"), (4, "L"), (4, "R"), (8, "L"), (8, "R")
        }

    def test_dr_sets(self, lvalue):
        grammar, _, analysis = lvalue
        sym = grammar.symbols
        assert names(analysis.dr_set((0, sym["S"]))) == ["$end"]
        assert names(analysis.dr_set((0, sym["L"]))) == ["="]
        assert names(analysis.dr_set((4, sym["L"]))) == []

    def test_reads_empty(self, lvalue):
        _, _, analysis = lvalue
        assert all(not e for e in analysis.relations.reads.values())

    def test_includes_edges(self, lvalue):
        grammar, _, analysis = lvalue
        sym = grammar.symbols
        inc = {
            (t[0], t[1].name): {(q, s.name) for q, s in targets}
            for t, targets in analysis.relations.includes.items()
        }
        assert inc[(0, "L")] == {(0, "R")}
        assert inc[(0, "R")] == {(0, "S")}
        assert inc[(8, "R")] == {(0, "S")}
        assert inc[(4, "R")] == {(0, "L"), (4, "L"), (8, "L")}
        assert inc[(4, "L")] == {(4, "R")}
        assert inc[(8, "L")] == {(8, "R")}

    def test_includes_scc(self, lvalue):
        _, _, analysis = lvalue
        assert len(analysis.includes_sccs) == 1
        members = {(p, s.name) for p, s in analysis.includes_sccs[0]}
        assert members == {(4, "L"), (4, "R")}

    def test_follow_sets(self, lvalue):
        grammar, _, analysis = lvalue
        sym = grammar.symbols
        expected = {
            (0, "S"): ["$end"],
            (0, "R"): ["$end"],
            (0, "L"): ["$end", "="],
            (8, "R"): ["$end"],
            (8, "L"): ["$end"],
            (4, "L"): ["$end", "="],
            (4, "R"): ["$end", "="],
        }
        for (state, name), follow in expected.items():
            assert names(analysis.follow_set((state, sym[name]))) == follow, (state, name)

    def test_punchline_la_cells(self, lvalue):
        grammar, _, analysis = lvalue
        r_to_l = next(p for p in grammar.productions if str(p) == "R -> L")
        las = {
            state: names(analysis.lookahead(state, production_index))
            for (state, production_index) in analysis.la_masks
            if production_index == r_to_l.index
        }
        assert las == {2: ["$end"], 6: ["$end", "="]}

    def test_nqlalr_merges_exactly_one_pair(self, lvalue):
        from repro.baselines import NqlalrAnalysis

        grammar, automaton, _ = lvalue
        nq = NqlalrAnalysis(grammar, automaton)
        nodes, transitions = nq.merged_node_count()
        assert (nodes, transitions) == (6, 7)

    def test_toy_java_state_ratio(self):
        grammar = corpus.load("toy_java", augment=True)
        assert len(LR0Automaton(grammar)) == 178
        assert len(LR1Automaton(grammar)) == 722

    def test_section_14_expr_displacement_numbers(self):
        # §14: "the dense 130 cells pack into 75 stored slots (1.73x)".
        from repro.tables import build_lalr_table
        from repro.tables.displace import displace

        table = build_lalr_table(corpus.load("expr", augment=True))
        stats = displace(table).packing_stats()
        assert stats["dense_cells"] == 130
        assert stats["stored_cells"] == 75
        assert round(stats["dense_cells"] / stats["stored_cells"], 2) == 1.73

    def test_section_11_keyword_statement_1600_size(self):
        # §11: "8009 states × 1606 terminals, 12.9 M action cells".
        from repro.grammars.families import keyword_statement_family

        grammar = keyword_statement_family(1600).augmented()
        states = len(LR0Automaton(grammar))
        assert (states, grammar.ids.num_terminals) == (8009, 1606)
        assert round(states * 1606 / 1e6, 1) == 12.9

    def test_section_14_header_layout(self):
        # §14's offset table: 32-byte fixed header + 64-char fingerprint.
        from repro.tables.binfmt import _HEADER

        assert _HEADER.size == 32

    def test_section_17_no_default_states_on_bench_grammars(self):
        # §17: "On the four bench grammars that is currently zero
        # states" — the strict fully-uniform-row guard admits no default
        # reduction on expr/json/mini_c/toy_java.
        from repro.tables import build_lalr_table, specialize

        for name in ("expr", "json", "mini_c", "toy_java"):
            table = build_lalr_table(corpus.load(name, augment=True))
            stats = specialize(table).specialization_stats()
            assert stats["default_states"] == 0, name

    def test_section_17_action_encoding(self):
        # §17 quotes §14's shared encoding: 0 error, (s<<2)|1 shift,
        # (p<<2)|2 reduce, 3 accept.
        from repro.tables.displace import (
            ACTION_ACCEPT,
            ACTION_ERROR,
            ACTION_REDUCE,
            ACTION_SHIFT,
        )

        assert ACTION_ERROR == 0
        assert ACTION_SHIFT == 1
        assert ACTION_REDUCE == 2
        assert ACTION_ACCEPT == 3


class TestSection18GlrFacts:
    """§18 + README "General parsing": every concrete claim, pinned."""

    def test_corpus_split_14_deterministic_6_conflicted(self):
        from repro.tables import build_lalr_table

        split = {True: 0, False: 0}
        for name in corpus.names():
            table = build_lalr_table(corpus.load(name, augment=True))
            split[table.is_deterministic] += 1
        assert split[True] == 14
        assert split[False] == 6

    def test_artifact_format_versions(self):
        # §18: "JSON format 4 and binary format 3 carry the full
        # unresolved-conflict log."
        from repro.tables.binfmt import BINARY_FORMAT_VERSION
        from repro.tables.serialize import FORMAT_VERSION

        assert FORMAT_VERSION == 4
        assert BINARY_FORMAT_VERSION == 3

    def test_dangling_else_two_trees_and_shift_reading(self):
        # §18: "if if other else other yields exactly 2 trees (the
        # yacc-default shift reading is one of them)."
        from repro.parser import GlrParser, Parser
        from repro.tables import build_lalr_table

        table = build_lalr_table(corpus.load("dangling_else", augment=True))
        words = "if if other else other".split()
        forest = GlrParser(table).parse_forest(words)
        assert forest.tree_count() == 2
        lalr = Parser(table, allow_conflicts=True).parse(words)
        assert lalr.sexpr() in {tree.sexpr() for tree in forest.trees()}

    def test_catalan_42_trees_for_aaaaaa(self):
        # §18: "S -> S S | a packs the Catalan numbers (42 trees for
        # aaaaaa) into linearly many SPPF nodes."
        from repro.grammar import load_grammar
        from repro.parser import GlrParser
        from repro.tables import build_lalr_table

        grammar = load_grammar("S -> S S | a").augmented()
        forest = GlrParser(build_lalr_table(grammar)).parse_forest(["a"] * 6)
        assert forest.tree_count(limit=100) == 42
        assert forest.stats["sppf_nodes"] < 42

    def test_glr_parity_oracle_in_default_stack(self):
        from repro.fuzz.oracles import default_oracle_names

        assert "glr-parity" in default_oracle_names()

    def test_cyk_budget_phase_name(self):
        # §18: CykRecognizer is budget-governed under phase "cyk".
        from repro.core.budget import Budget, BudgetExceeded
        from repro.parser import CykRecognizer

        with pytest.raises(BudgetExceeded) as info:
            CykRecognizer(corpus.load("palindrome")).accepts(
                ["a"] * 8, budget=Budget(max_tokens=2)
            )
        assert info.value.phase == "cyk"
