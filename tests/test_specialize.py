"""Byte-identity suite: the engine's fused loop vs a reference loop.

:class:`~repro.parser.engine.Parser` runs one loop over the
:class:`~repro.tables.specialize.SpecializedTable` code arrays — flat
integer dispatch, fused reduce→goto chains, default reductions, token
memoization.  :mod:`tests.reference_engine` keeps the textbook loop over
decoded ``Action`` rows as an independent reading of the same table, and
the two must agree on everything the caller can observe.  Corpus-wide,
for every deterministic LALR grammar:

- identical parse trees (structure, productions, token values),
- identical errors on mutated sentences — message, position, state and
  expected set,
- identical traces,
- identical budget exhaustion points and progress counters,
- identical instrument counters,
- identical panic-mode recovery (error list and sync positions).

Plus the specialization invariants themselves: a default reduction only
on fully-uniform reduce rows, ParseTable surface parity cell-for-cell,
and the fuzz oracle wiring that keeps the loop exercised on random
grammars.
"""

from __future__ import annotations

import pytest

from repro.analysis.derive import SentenceGenerator
from repro.core import instrument
from repro.core.budget import Budget, BudgetExceeded
from repro.grammars import corpus
from repro.parser import ParseError, Parser, RecoveringParser
from repro.tables import (
    SpecializedTable,
    build_lalr_table,
    specialize,
    specialized_view,
)
from repro.tables.displace import (
    ACTION_ERROR,
    ACTION_REDUCE,
    encode_action,
)

from .reference_engine import ReferenceParser, ReferenceRecoveringParser

#: Corpus grammars whose LALR table is deterministic (the engine refuses
#: conflicted tables, so parity is defined over these).
DETERMINISTIC = [
    name
    for name in corpus.names()
    if build_lalr_table(corpus.load(name).augmented()).is_deterministic
]


def _pair(name):
    """(reference parser, engine parser, augmented grammar)."""
    grammar = corpus.load(name).augmented()
    table = build_lalr_table(grammar)
    return ReferenceParser(table), Parser(table), grammar


def _sentences(grammar, count=6, budget=30):
    return SentenceGenerator(grammar, seed=0).sentences(count, budget=budget)


def _mutants(grammar, sentences):
    """Deterministic invalid-ish streams inside the terminal alphabet."""
    terminals = sorted(
        (t for t in grammar.terminals if t is not grammar.eof),
        key=lambda s: s.name,
    )
    streams = []
    for index, sentence in enumerate(sentences):
        wrong = terminals[index % len(terminals)]
        streams.append(list(sentence) + [wrong])
        if sentence:
            streams.append(list(sentence[:-1]))
            swapped = list(sentence)
            swapped[index % len(swapped)] = wrong
            streams.append(swapped)
    streams.append([])
    return streams


def _error_of(parser, tokens):
    try:
        parser.parse(tokens)
    except ParseError as error:
        return (
            str(error),
            error.position,
            error.state,
            [s.name for s in error.expected],
            error.token.name if error.token is not None else None,
        )
    return None


def _tree_repr(node):
    return node.format()


class TestTreeParity:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_trees_identical_corpus_wide(self, name):
        plain, fast, grammar = _pair(name)
        for sentence in _sentences(grammar):
            reference = plain.parse(sentence)
            specialized = fast.parse(sentence)
            assert _tree_repr(specialized) == _tree_repr(reference)
            assert specialized.derivation() == reference.derivation()
            assert specialized.fringe() == reference.fringe()

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_traces_identical(self, name):
        plain, fast, grammar = _pair(name)
        for sentence in _sentences(grammar, count=3):
            assert fast.trace(sentence) == plain.trace(sentence)

    def test_token_values_survive_memoization(self):
        # The engine memoizes *string* tokens; Token objects with
        # semantic values must bypass the cache untouched.
        from repro.parser import Token

        grammar = corpus.load("expr").augmented()
        table = build_lalr_table(grammar)
        plain = ReferenceParser(table)
        fast = Parser(table)
        id_symbol = grammar.symbols["id"]
        tokens = [Token(id_symbol, 1), "+", Token(id_symbol, 2)]
        values = [leaf.value for leaf in fast.parse(tokens).leaves()]
        assert values[0] == 1 and values[2] == 2
        assert values == [
            leaf.value for leaf in plain.parse(tokens).leaves()
        ]

    def test_repeated_tokens_hit_the_cache_consistently(self):
        plain, fast, grammar = _pair("expr")
        tokens = "id + id * id + id * id".split()
        for _ in range(3):  # reuse the same parser: warm-cache parses
            assert _tree_repr(fast.parse(tokens)) == _tree_repr(
                plain.parse(tokens)
            )


class TestErrorParity:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_errors_identical_on_mutants(self, name):
        plain, fast, grammar = _pair(name)
        sentences = _sentences(grammar)
        for stream in _mutants(grammar, sentences):
            assert _error_of(fast, stream) == _error_of(plain, stream), stream

    def test_unknown_terminal_path_identical(self):
        plain, fast, _ = _pair("expr")
        assert _error_of(fast, ["id", "zzz"]) == _error_of(plain, ["id", "zzz"])

    def test_error_caching_never_caches_failures(self):
        # An unknown terminal must fail identically on every attempt —
        # the memo only stores successful resolutions.
        _, fast, _ = _pair("expr")
        first = _error_of(fast, ["zzz"])
        second = _error_of(fast, ["zzz"])
        assert first == second is not None


class TestBudgetParity:
    @pytest.mark.parametrize("cap", [1, 3, 7])
    def test_parse_step_exhaustion_point_identical(self, cap):
        plain, fast, grammar = _pair("expr")
        tokens = "( id + id ) * id".split()
        outcomes = []
        for parser in (plain, fast):
            try:
                parser.parse(tokens, budget=Budget(max_parse_steps=cap))
                outcomes.append(None)
            except BudgetExceeded as error:
                outcomes.append(
                    (error.phase, error.resource, error.limit, error.progress)
                )
        assert outcomes[0] == outcomes[1]

    def test_token_cap_identical(self):
        plain, fast, grammar = _pair("json")
        sentence = _sentences(grammar, count=1)[0]
        outcomes = []
        for parser in (plain, fast):
            try:
                parser.parse(sentence, budget=Budget(max_tokens=2))
                outcomes.append(None)
            except BudgetExceeded as error:
                outcomes.append(
                    (error.phase, error.resource, error.limit, error.progress)
                )
        assert outcomes[0] == outcomes[1]


class TestInstrumentParity:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_counters_identical_corpus_wide(self, name):
        plain, fast, grammar = _pair(name)
        for sentence in _sentences(grammar, count=3):
            with instrument.profile() as reference:
                plain.parse(sentence)
            with instrument.profile() as specialized:
                fast.parse(sentence)
            ref = {k: v for k, v in reference.counters.items()
                   if k.startswith("parse.")}
            got = {k: v for k, v in specialized.counters.items()
                   if k.startswith("parse.")}
            assert got == ref


class TestRecoveryParity:
    """Panic-mode recovery over the engine's code arrays must match the
    reference recovery over decoded rows error for error."""

    def _sync_for(self, grammar):
        names = {t.name for t in grammar.terminals}
        for preferred in (";", ")", "}"):
            if preferred in names:
                return [preferred]
        return [sorted(names)[0]]

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_recovered_error_lists_identical(self, name):
        plain, fast, grammar = _pair(name)
        sync = self._sync_for(grammar)
        sentences = _sentences(grammar)
        for stream in _mutants(grammar, sentences):
            reference = ReferenceRecoveringParser(plain, sync).check(stream)
            specialized = RecoveringParser(fast, sync).check(stream)
            assert [
                (str(e), e.position, e.state, [s.name for s in e.expected])
                for e in specialized
            ] == [
                (str(e), e.position, e.state, [s.name for s in e.expected])
                for e in reference
            ], stream


class TestSpecializationInvariants:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_default_only_on_fully_uniform_reduce_rows(self, name):
        grammar = corpus.load(name).augmented()
        table = build_lalr_table(grammar)
        fast = specialize(table)
        width = fast.num_terminals
        for state, row in enumerate(table.action_rows):
            coded = [encode_action(cell) for cell in row]
            uniform = (
                bool(coded)
                and (coded[0] & 3) == ACTION_REDUCE
                and all(code == coded[0] for code in coded)
            )
            default = fast.default_codes[state]
            if uniform:
                assert default == coded[0], state
            else:
                assert default == -1, state
            # And the flat matrix is exactly the dense rows, re-encoded.
            assert fast.action_codes[state * width:(state + 1) * width] == coded

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_parse_table_surface_parity(self, name):
        grammar = corpus.load(name).augmented()
        table = build_lalr_table(grammar)
        fast = specialize(table)
        assert fast.n_states == table.n_states
        assert fast.is_deterministic == table.is_deterministic
        assert fast.conflict_summary() == table.conflict_summary()
        for state in range(table.n_states):
            for tid in range(len(table.action_rows[state])):
                assert fast.action_by_id(state, tid) == table.action_by_id(
                    state, tid
                )
            for nt in range(len(table.goto_rows[state])):
                assert fast.goto_by_id(state, nt) == table.goto_by_id(state, nt)

    def test_stats_are_pure_functions_of_the_table(self):
        grammar = corpus.load("expr").augmented()
        table = build_lalr_table(grammar)
        stats = specialize(table).specialization_stats()
        assert stats == specialize(table).specialization_stats()
        assert stats["states"] == table.n_states
        assert stats["action_cells"] == sum(
            len(row) for row in table.action_rows
        )
        populated = sum(
            1
            for row in table.action_rows
            for cell in row
            if encode_action(cell) != ACTION_ERROR
        )
        assert stats["populated_cells"] == populated
        assert (
            stats["shift_cells"] + stats["reduce_cells"] + stats["accept_cells"]
            == populated
        )

    def test_specialized_view_is_memoized(self):
        table = build_lalr_table(corpus.load("expr").augmented())
        first = specialized_view(table)
        assert specialized_view(table) is first
        assert isinstance(first, SpecializedTable)

    def test_specialized_view_of_specialized_is_identity(self):
        table = build_lalr_table(corpus.load("expr").augmented())
        fast = specialize(table)
        assert specialized_view(fast) is fast


class TestOracleWiring:
    def test_parity_oracle_exercises_specialize(self, monkeypatch):
        """Every Parser the fuzz oracle builds resolves its table through
        specialize() — if that wiring disappears, random-grammar coverage
        silently stops running the engine's loop over the code arrays."""
        import importlib

        # `repro.tables` re-exports the *function* under the same name,
        # so reach the submodule itself for patching.
        module = importlib.import_module("repro.tables.specialize")
        from repro.fuzz.oracles import run_oracles

        calls = []
        original = module.specialize

        def spy(table):
            calls.append(table)
            return original(table)

        monkeypatch.setattr(module, "specialize", spy)
        failures = run_oracles(
            corpus.load("expr"), names=["representation-parity"], seed=3
        )
        assert failures == []
        assert calls, "representation-parity never called specialize()"
