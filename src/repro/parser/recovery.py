"""Panic-mode error recovery: report many syntax errors in one pass.

The plain engine stops at the first error.  For a batch "check this file"
workflow (every real parser generator grows one), panic mode continues:

1. record the error,
2. discard input up to the next *synchronising* token (e.g. ``;``),
3. pop parser states until one can act on that token again,
4. resume.

Without error productions no parse tree can be produced for invalid
input, so the result is the list of errors (empty = the input parsed).
The recovery is deliberately conservative: if no synchronisation point
works, it stops rather than loop.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..grammar.symbols import Symbol
from ..tables.table import ACTION_ERROR, ACTION_REDUCE, ACTION_SHIFT
from .engine import Parser, Token, TokenLike
from .errors import ParseError


class RecoveringParser:
    """Wraps a Parser with panic-mode multi-error checking."""

    def __init__(self, parser: Parser, sync_tokens: Iterable[str]):
        self.parser = parser
        self.grammar = parser.grammar
        self.sync: List[Symbol] = []
        for name in sync_tokens:
            symbol = self.grammar.symbols[name]
            if symbol.is_nonterminal:
                raise ValueError(f"sync token {name!r} must be a terminal")
            self.sync.append(symbol)
        terminal_id = self.grammar.ids.terminal_id
        self._sync_tids = frozenset(terminal_id(symbol) for symbol in self.sync)

    def check(
        self,
        tokens: "Sequence[TokenLike]",
        max_errors: int = 25,
        budget=None,
    ) -> List[ParseError]:
        """Parse *tokens*, recovering at sync points; returns all errors.

        Reads the same integer code arrays as the engine, so error
        detection states, positions and expected sets are identical to a
        plain :meth:`Parser.parse` of the same prefix — on compressed
        tables included.  A *budget* bounds the whole check with the
        engine's token/step/deadline limits.
        """
        parser = self.parser
        view = parser._view
        width = view.num_terminals
        n_nts = view.num_nonterminals
        action_codes = view.action_codes
        goto_codes = view.goto_codes
        arities = view.arities
        lhs_nts = view.lhs_nts
        sid_or_none = parser._ids.sid_or_none

        stream = [parser._normalise(t, i) for i, t in enumerate(tokens)]
        stream.append(Token(self.grammar.eof, None))
        # One ID conversion per token up front; None marks symbols
        # outside this grammar's layout (always a syntax error below).
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
                code = (
                    action_codes[state * width + tid]
                    if tid is not None
                    else ACTION_ERROR
                )

                if code == ACTION_ERROR:
                    error = parser._syntax_error(position, stream[position], state)
                    errors.append(error)
                    if len(errors) >= max_errors:
                        return errors
                    recovered = self._recover(state_stack, tids, position)
                    if recovered is None:
                        return errors
                    position = recovered
                    continue

                tag = code & 3
                if tag == ACTION_SHIFT:
                    state_stack.append(code >> 2)
                    position += 1
                    if budget is not None:
                        budget.charge_tokens(1)
                    continue
                if tag == ACTION_REDUCE:
                    prod_index = code >> 2
                    arity = arities[prod_index]
                    if arity:
                        del state_stack[-arity:]
                    goto = goto_codes[state_stack[-1] * n_nts + lhs_nts[prod_index]]
                    if goto < 0:
                        # Recovery left the stack in a dead configuration.
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
        """Panic: skip to a sync token, pop states until it is actionable.

        Returns the position to resume at, or None when unrecoverable.
        """
        view = self.parser._view
        action_codes = view.action_codes
        width = view.num_terminals
        sync_tids = self._sync_tids
        eof_tid = self.parser._eof_tid
        index = position
        while index < len(tids):
            tid = tids[index]
            if tid == eof_tid:
                return None  # nothing left to resynchronise on
            if tid in sync_tids:
                # Resume AFTER the sync token: pop to the shallowest state
                # that can act on the follower (a fresh-context restart);
                # when none can, hard-reset to the start state and let the
                # parser re-derive the next error.  Either way the resume
                # position strictly advances, so recovery always terminates.
                follower_tid = tids[index + 1]
                if follower_tid is not None:
                    for depth in range(len(state_stack)):
                        cell = state_stack[depth] * width + follower_tid
                        if action_codes[cell] != ACTION_ERROR:
                            del state_stack[depth + 1 :]
                            return index + 1
                del state_stack[1:]
                return index + 1
            index += 1
        return None
