"""Fill parity: the row-wise code fill against the per-cell dict oracle.

Table fill writes ``action_codes``/``goto_codes`` a whole row at a time
straight from the look-ahead bitmasks, and only conflict states go
through :func:`~repro.tables.build._place` cell by cell.  The oracle
below is the classic fill — every reduce cell placed through ``_place``
into Symbol-keyed dict rows — encoded cell by cell afterwards.  For the
whole corpus (conflicted and precedence grammars included), small
members of the size families and hypothesis random grammars, under
lr0/slr1/lalr1/clr1, the two must agree on:

- every ACTION and GOTO code;
- the conflict log, in order: state, terminal, kind, competing actions,
  winner and resolved flag;
- the key order of every ``actions``/``gotos`` dict row (the JSON
  artifact's order);
- the ``table.*`` instrument counters;
- every ``budget.tick()`` in phase ``table.fill``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automaton import LR0Automaton
from repro.automaton.lr1 import LR1Automaton
from repro.baselines.slr import SlrAnalysis
from repro.core import LalrAnalysis
from repro.core import instrument
from repro.core.budget import Budget, BudgetExceeded
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.grammars.families import (
    context_family,
    expression_family,
    keyword_statement_family,
    nullable_chain_family,
    state_explosion_family,
    unit_chain_family,
)
from repro.grammars.random_gen import random_grammar
from repro.tables import (
    ACCEPT,
    Reduce,
    Shift,
    build_clr_table,
    build_lalr_table,
    build_lr0_table,
    build_slr_table,
)
from repro.tables.build import _place
from repro.tables.table import encode_action

METHODS = ["lr0", "slr1", "lalr1", "clr1"]

PRECEDENCE_TEXT = """
%token NUM
%left '+' '-'
%left '*'
%nonassoc '<'
%right '^'
%start e
%%
e : e '+' e | e '-' e | e '*' e | e '<' e | e '^' e | '-' e %prec '*' | NUM ;
"""


def many_reductions_grammar(n: int):
    """``S -> A_i t_i``, ``A_i -> x``: one state reduces by *n*
    productions, each on its own terminal (past one selector byte)."""
    lines = [f"S -> A{i} t{i}" for i in range(n)]
    lines += [f"A{i} -> x" for i in range(n)]
    return load_grammar("\n".join(lines))


def wide_reductions_grammar(k: int, width: int):
    """``S -> A_i B_i``, ``A_i -> x``, ``B_i -> t_i_1 | ... | t_i_width``:
    one state reduces by *k* productions, each on *width* terminals, so
    the row is written through the selector with several ranks and byte
    lanes."""
    lines = [f"S -> A{i} B{i}" for i in range(k)]
    lines += [f"B{i} -> t{i}_{j}" for i in range(k) for j in range(width)]
    lines += [f"A{i} -> x" for i in range(k)]
    return load_grammar("\n".join(lines))


FAMILIES = {
    "keyword_statement(5)": lambda: keyword_statement_family(5),
    "keyword_statement(70)": lambda: keyword_statement_family(70),
    "nullable_chain(8)": lambda: nullable_chain_family(8),
    "expression(6)": lambda: expression_family(6),
    "unit_chain(6)": lambda: unit_chain_family(6),
    "state_explosion(4)": lambda: state_explosion_family(4),
    "context(3)": lambda: context_family(3),
    "precedence": lambda: load_grammar(PRECEDENCE_TEXT),
    "many_reductions(200)": lambda: many_reductions_grammar(200),
    "many_reductions(300)": lambda: many_reductions_grammar(300),
    "wide_reductions(20x20)": lambda: wide_reductions_grammar(20, 20),
}


# -- the oracle: the classic per-cell dict fill -----------------------------


def _oracle_lr0_based(automaton, lookahead_mask_for, budget=None):
    grammar = automaton.grammar
    ids = automaton.ids
    num_terminals = ids.num_terminals
    symbol_of = ids.by_sid
    eof_sid = ids.terminal_id(grammar.eof)
    actions, gotos, conflicts = [], [], []
    if budget is not None:
        budget.enter_phase("table.fill")
    for state in automaton.states:
        if budget is not None:
            budget.tick()
        action_row, goto_row = {}, {}
        for sid in state.out_sids:
            successor = state.targets[sid]
            if sid >= num_terminals:
                goto_row[symbol_of[sid]] = successor
            elif sid == eof_sid:
                action_row[grammar.eof] = ACCEPT
            else:
                action_row[symbol_of[sid]] = Shift(successor)
        for item in state.reductions:
            if item.production == 0:
                continue
            reduce_action = Reduce(item.production)
            mask = lookahead_mask_for((state.state_id, item.production))
            for terminal_id in range(num_terminals):
                if mask >> terminal_id & 1:
                    _place(grammar, action_row, state.state_id,
                           symbol_of[terminal_id], reduce_action, conflicts)
        actions.append(action_row)
        gotos.append(goto_row)
    if budget is not None:
        budget.publish()
    return actions, gotos, conflicts


def _oracle_clr(lr1):
    """The per-cell fill over LR(1) states, transitions and look-aheads
    taken in symbol-ID order (set iteration order is not reproducible)."""
    grammar = lr1.grammar
    sid = grammar.ids.sid
    actions, gotos, conflicts = [], [], []
    for state in lr1.states:
        action_row, goto_row = {}, {}
        for symbol, successor in sorted(
            state.transitions.items(), key=lambda item: sid(item[0])
        ):
            if symbol.is_nonterminal:
                goto_row[symbol] = successor
            elif symbol is grammar.eof:
                action_row[grammar.eof] = ACCEPT
            else:
                action_row[symbol] = Shift(successor)
        for production, lookaheads in lr1.reductions(state.state_id):
            if production == 0:
                continue
            for terminal in sorted(lookaheads, key=sid):
                _place(grammar, action_row, state.state_id, terminal,
                       Reduce(production), conflicts)
        actions.append(action_row)
        gotos.append(goto_row)
    return actions, gotos, conflicts


def _masker(grammar, method, automaton):
    """(lookahead_mask_for, table builder) of an LR(0)-based method."""
    terminal_id = grammar.ids.terminal_id

    def mask_of(terminals):
        mask = 0
        for terminal in terminals:
            mask |= 1 << terminal_id(terminal)
        return mask

    if method == "lr0":
        all_mask = (1 << grammar.ids.num_terminals) - 1
        return (lambda site: all_mask), (
            lambda budget=None: build_lr0_table(grammar, automaton, budget=budget)
        )
    if method == "slr1":
        slr = SlrAnalysis(grammar, automaton)
        return (lambda site: mask_of(slr.lookahead(*site))), (
            lambda budget=None: build_slr_table(grammar, automaton, budget=budget)
        )
    la_masks = LalrAnalysis(grammar, automaton).la_masks
    return (lambda site: la_masks.get(site, 0)), (
        lambda budget=None: build_lalr_table(
            grammar, automaton, la_masks=la_masks, budget=budget
        )
    )


def _signature(conflicts):
    return [
        (c.state, c.terminal.name, c.kind, list(c.actions), c.chosen,
         c.resolved_by_precedence)
        for c in conflicts
    ]


def assert_fill_parity(grammar, method):
    grammar = grammar.augmented()
    if method == "clr1":
        lr1 = LR1Automaton(grammar)
        with instrument.profile() as collector:
            table = build_clr_table(grammar, lr1)
        actions, gotos, conflicts = _oracle_clr(lr1)
    else:
        automaton = LR0Automaton(grammar)
        mask_for, build = _masker(grammar, method, automaton)
        with instrument.profile() as collector:
            table = build()
        actions, gotos, conflicts = _oracle_lr0_based(automaton, mask_for)

    ids = grammar.ids
    width, n_nts = ids.num_terminals, ids.num_nonterminals
    action_codes = [0] * (len(actions) * width)
    goto_codes = [-1] * (len(gotos) * n_nts)
    for state, row in enumerate(actions):
        for terminal, action in row.items():
            action_codes[state * width + ids.terminal_id(terminal)] = encode_action(action)
    for state, row in enumerate(gotos):
        for nonterminal, target in row.items():
            goto_codes[state * n_nts + ids.nonterminal_id(nonterminal)] = target

    assert table.n_states == len(actions)
    assert table.action_codes.tolist() == action_codes
    assert table.goto_codes.tolist() == goto_codes
    assert _signature(table.conflicts) == _signature(conflicts)
    assert [list(row.items()) for row in table.actions] == [
        list(row.items()) for row in actions
    ]
    assert [list(row.items()) for row in table.gotos] == [
        list(row.items()) for row in gotos
    ]
    assert table.size_cells() == sum(map(len, actions)) + sum(map(len, gotos))
    assert collector.counters["table.states"] == len(actions)
    assert collector.counters["table.action_cells"] == sum(map(len, actions))
    assert collector.counters.get("table.conflicts", 0) == len(conflicts)


# -- parity ----------------------------------------------------------------


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", corpus.names())
def test_corpus_fill_parity(name, method):
    assert_fill_parity(corpus.load(name), method)


@pytest.mark.parametrize(
    "family, method",
    [
        (family, method)
        for family in sorted(FAMILIES)
        for method in METHODS
        # The LR(1) automaton adds nothing here: the LR(0) fill is the target.
        if not (family.startswith("many_reductions") and method == "clr1")
    ],
)
def test_family_fill_parity(family, method):
    assert_fill_parity(FAMILIES[family](), method)


grammar_shapes = st.builds(
    lambda seed, nts, ts, eps: random_grammar(
        seed, n_nonterminals=nts, n_terminals=ts, epsilon_weight=eps
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    nts=st.integers(min_value=2, max_value=6),
    ts=st.integers(min_value=2, max_value=5),
    eps=st.floats(min_value=0.0, max_value=0.4),
)


@given(grammar=grammar_shapes, method=st.sampled_from(METHODS))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_fill_parity(grammar, method):
    assert_fill_parity(grammar, method)


def test_corpus_covers_conflicts_and_precedence():
    """The parity sweep above really reaches the per-cell path."""
    conflicted = [
        name for name in corpus.names()
        if build_lalr_table(corpus.load(name, augment=True)).conflicts
    ]
    assert len(conflicted) >= 6
    table = build_lalr_table(load_grammar(PRECEDENCE_TEXT).augmented())
    resolved = [c for c in table.conflicts if c.resolved_by_precedence]
    assert resolved and any(c.chosen is None for c in resolved)
    assert table.is_deterministic


# -- budget trip points ----------------------------------------------------


class _TripBudget(Budget):
    """Trips on the *trip_at*-th ``tick()`` of phase ``table.fill``."""

    def __init__(self, trip_at: int = 0):
        super().__init__()
        self.trip_at = trip_at
        self.fill_ticks = 0

    def tick(self) -> None:
        super().tick()
        if self.phase == "table.fill":
            self.fill_ticks += 1
            if self.fill_ticks == self.trip_at:
                self._exhaust("timeout", 0)


def _fill_outcome(fill, trip_at):
    budget = _TripBudget(trip_at)
    try:
        fill(budget)
    except BudgetExceeded as error:
        return ("tripped", error.phase, error.progress, budget.fill_ticks)
    return ("finished", budget.phase, budget.progress(), budget.fill_ticks)


@pytest.mark.parametrize("method", ["lr0", "slr1", "lalr1"])
@pytest.mark.parametrize("name", ["toy_java", "dangling_else", "expr_prec"])
def test_budget_trip_points_unchanged(name, method):
    grammar = corpus.load(name, augment=True)
    automaton = LR0Automaton(grammar)
    mask_for, build = _masker(grammar, method, automaton)
    n_states = len(automaton.states)
    for trip_at in (0, 1, n_states // 2, n_states):
        ours = _fill_outcome(lambda budget: build(budget=budget), trip_at)
        oracle = _fill_outcome(
            lambda budget: _oracle_lr0_based(automaton, mask_for, budget), trip_at
        )
        assert ours == oracle
        assert ours[1] == "table.fill"
        assert ours[3] == (trip_at or n_states)
