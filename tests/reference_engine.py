"""A reference LR driver over decoded ``Action`` rows: the engine's oracle.

:class:`~repro.parser.engine.Parser` runs one fused loop over integer
code arrays.  This module keeps the plain textbook loop it replaced —
look up ``table.action_rows[state][tid]``, branch on ``action.kind``, one
reduce per trip round the loop — together with the panic-mode recovery
and expected-set computation written the same way, so
``tests/test_specialize.py`` can check the engine against an
independent reading of the same table: trees, traces, errors, budget
exhaustion points, instrument counters and recovery.

Not part of the library: nothing outside the tests imports it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core import instrument
from repro.parser import ParseError, Parser, RecoveringParser, Token
from repro.parser.errors import syntax_error


class ReferenceParser(Parser):
    """A :class:`Parser` whose loop and diagnostics read ``Action`` rows."""

    def _loop(self, tokens, reduce_fn, shift_fn, budget=None):
        if budget is not None:
            budget.enter_phase("parse")
        state_stack: List[int] = [0]
        value_stack: List[object] = []

        sid_or_none = self._ids.sid_or_none
        num_terminals = self._ids.num_terminals
        action_rows = self.table.action_rows
        goto_rows = self.table.goto_rows
        productions = self.grammar.productions

        stream = iter(tokens)
        eof_token = Token(self._eof, None)
        position = 0
        shifts = 0
        reduces = 0

        try:
            raw = next(stream)
        except StopIteration:
            token, tid = eof_token, self._eof_tid
        else:
            token = self._normalise(raw, position)
            tid = sid_or_none(token.symbol)

        try:
            while True:
                if budget is not None:
                    budget.charge_parse_step()
                state = state_stack[-1]
                action = action_rows[state][tid] if tid is not None else None
                if action is None:
                    raise self._syntax_error(position, token, state)
                if action.kind == "shift":
                    value_stack.append(shift_fn(token))
                    state_stack.append(action.state)
                    position += 1
                    shifts += 1
                    if budget is not None:
                        budget.charge_tokens(1)
                    try:
                        raw = next(stream)
                    except StopIteration:
                        token, tid = eof_token, self._eof_tid
                    else:
                        token = self._normalise(raw, position)
                        tid = sid_or_none(token.symbol)
                    continue
                if action.kind == "reduce":
                    production = productions[action.production]
                    arity = len(production.rhs_sids)
                    if arity:
                        children = value_stack[-arity:]
                        del value_stack[-arity:]
                        del state_stack[-arity:]
                    else:
                        children = []
                    value_stack.append(reduce_fn(production, children))
                    goto = goto_rows[state_stack[-1]][
                        production.lhs_sid - num_terminals
                    ]
                    assert goto >= 0, "tables are consistent"
                    state_stack.append(goto)
                    reduces += 1
                    continue
                assert action.kind == "accept"
                assert tid == self._eof_tid and len(value_stack) == 1
                return value_stack[0]
        finally:
            if budget is not None:
                budget.publish()
            if instrument.enabled():
                instrument.count("parse.tokens", position)
                instrument.count("parse.shifts", shifts)
                instrument.count("parse.reduces", reduces)
                instrument.count("parse.actions", shifts + reduces)

    def _syntax_error(self, position, token, state) -> ParseError:
        row = self.table.action_rows[state]
        by_sid = self._ids.by_sid
        expected = sorted(
            (by_sid[tid] for tid in range(len(row)) if row[tid] is not None),
            key=lambda s: s.name,
        )
        return syntax_error(position, token.symbol, state, expected, self._eof)


class ReferenceRecoveringParser(RecoveringParser):
    """Panic-mode recovery over ``Action`` rows (wrap a ReferenceParser)."""

    def check(
        self,
        tokens: "Sequence",
        max_errors: int = 25,
        budget=None,
    ) -> List[ParseError]:
        parser = self.parser
        sid_or_none = parser._ids.sid_or_none
        num_terminals = parser._ids.num_terminals
        action_rows = parser.table.action_rows
        goto_rows = parser.table.goto_rows
        productions = self.grammar.productions

        stream = [parser._normalise(t, i) for i, t in enumerate(tokens)]
        stream.append(Token(self.grammar.eof, None))
        tids = [sid_or_none(token.symbol) for token in stream]

        if budget is not None:
            budget.enter_phase("parse.check")
        errors: List[ParseError] = []
        state_stack: List[int] = [0]
        position = 0

        try:
            while True:
                if budget is not None:
                    budget.charge_parse_step()
                tid = tids[position]
                state = state_stack[-1]
                action = action_rows[state][tid] if tid is not None else None
                if action is None:
                    errors.append(
                        parser._syntax_error(position, stream[position], state)
                    )
                    if len(errors) >= max_errors:
                        return errors
                    recovered = self._recover(state_stack, tids, position)
                    if recovered is None:
                        return errors
                    position = recovered
                    continue
                if action.kind == "shift":
                    state_stack.append(action.state)
                    position += 1
                    if budget is not None:
                        budget.charge_tokens(1)
                    continue
                if action.kind == "reduce":
                    production = productions[action.production]
                    arity = len(production.rhs_sids)
                    if arity:
                        del state_stack[-arity:]
                    goto = goto_rows[state_stack[-1]][
                        production.lhs_sid - num_terminals
                    ]
                    if goto < 0:
                        return errors
                    state_stack.append(goto)
                    continue
                return errors  # accept
        finally:
            if budget is not None:
                budget.publish()

    def _recover(
        self,
        state_stack: List[int],
        tids: "List[Optional[int]]",
        position: int,
    ) -> Optional[int]:
        action_rows = self.parser.table.action_rows
        eof_tid = self.parser._eof_tid
        for index in range(position, len(tids)):
            tid = tids[index]
            if tid == eof_tid:
                return None
            if tid in self._sync_tids:
                follower_tid = tids[index + 1]
                if follower_tid is not None:
                    for depth in range(len(state_stack)):
                        if action_rows[state_stack[depth]][follower_tid] is not None:
                            del state_stack[depth + 1 :]
                            return index + 1
                del state_stack[1:]
                return index + 1
        return None
