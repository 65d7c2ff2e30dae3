"""Hot-loop specialization of parse tables: default reductions + fusion.

Decoding a cell into an :class:`~repro.tables.table.Action` and
dispatching on ``action.kind`` costs, per action, two list indexings, an
attribute load and a string compare.  This module precomputes the
:class:`SpecializedTable` every :class:`~repro.parser.engine.Parser`
drives with plain integer arithmetic instead:

- ``action_codes`` — the dense ACTION matrix flattened row-major into
  one Python list of encoded ints (the shared encoding from
  :mod:`repro.tables.table`: ``0`` error, ``(s << 2) | 1`` shift,
  ``(p << 2) | 2`` reduce, ``3`` accept), so a lookup is
  ``codes[state * num_terminals + tid]`` and dispatch is ``code & 3``;
- ``goto_codes`` — the GOTO matrix flattened the same way (``-1``
  absent);
- ``arities`` / ``lhs_nts`` — per-production RHS length and LHS
  nonterminal index, so a reduction never touches the Production object
  until the semantic callback needs it;
- ``default_codes`` — per-state *default reduction* entries in the
  yacc/bison tradition, but under a strict guard: a state gets a default
  only when **every** terminal column (including the end marker) holds
  the *same* reduce action.  Classic generators also default-reduce
  states whose rows still contain error cells and accept the resulting
  delayed error detection; this repo pins error positions, messages and
  expected sets byte-identical across representations, so only the
  fully-uniform rows — where consulting the look-ahead provably cannot
  change the outcome — qualify.  ``default_codes[state]`` is the encoded
  reduce, or ``-1``.

The engine's loop (:class:`repro.parser.engine.Parser`) additionally
*fuses* reduce→goto chains: after a reduction lands in a new state it
dispatches again immediately — through ``default_codes`` when the state
qualifies, through a real ``action_codes`` lookup otherwise — without
bouncing through the outer loop.  Every step still charges the budget
and checks the token once, so parses, budget exhaustion points,
instrument counters and diagnostics are byte-identical to a loop over
decoded ``Action`` rows (tests/test_specialize.py keeps such a loop as
its reference).

``SpecializedTable`` is a :class:`~repro.tables.table.ParseTable`, so
its lazy ``action_rows``/``goto_rows``/``actions``/``gotos`` views still
serve diagnostics and formatting.
"""

from __future__ import annotations

from typing import Dict, List

from .table import (
    ACTION_ACCEPT,
    ACTION_ERROR,
    ACTION_REDUCE,
    ACTION_SHIFT,
    ParseTable,
)

__all__ = ["SpecializedTable", "specialize", "specialized_view"]


def _as_list(codes) -> "List[int]":
    """A flat code array (``array``, ``memoryview`` or list) as a list."""
    return codes.tolist() if hasattr(codes, "tolist") else list(codes)


class SpecializedTable(ParseTable):
    """A ParseTable recompiled into flat integer lists for the engine.

    The same table over list copies of the source's code arrays — same
    grammar, conflicts and lazy row views — plus the loop's extras
    (``default_codes``/``arities``/``lhs_nts``).  *table* is any object
    with a ParseTable's ``grammar``, ``method``, code arrays,
    ``conflicts`` and ``row_order``.
    """

    def __init__(self, table: ParseTable):
        # Plain Python lists, not array('i') or the memoryviews of a
        # mapped BinaryTable: the hot loop reads these constantly and
        # list indexing returns the stored int without a per-read box.
        super().__init__(
            table.grammar,
            table.method + "+specialized",
            _as_list(table.action_codes),
            _as_list(table.goto_codes),
            table.conflicts,
            table.row_order,
        )
        width = self.num_terminals
        action_codes = self.action_codes
        default_codes: "List[int]" = []
        for base in range(0, len(action_codes), width):
            first = action_codes[base]
            uniform = (first & 3) == ACTION_REDUCE and action_codes[
                base : base + width
            ].count(first) == width
            default_codes.append(first if uniform else -1)
        self.default_codes = default_codes

        productions = self.grammar.productions
        self.arities = [len(p.rhs_sids) for p in productions]
        self.lhs_nts = [p.lhs_sid - width for p in productions]

    # -- accounting -----------------------------------------------------

    def specialization_stats(self) -> "Dict[str, int]":
        """Machine-independent figures, pure functions of the table (the
        hot-loop bench drift-checks these)."""
        populated = sum(1 for code in self.action_codes if code != ACTION_ERROR)
        return {
            "states": self.n_states,
            "action_cells": len(self.action_codes),
            "populated_cells": populated,
            "default_states": sum(1 for c in self.default_codes if c >= 0),
            "shift_cells": sum(
                1 for c in self.action_codes if (c & 3) == ACTION_SHIFT
            ),
            "reduce_cells": sum(
                1 for c in self.action_codes
                if (c & 3) == ACTION_REDUCE and c != ACTION_ERROR
            ),
            "accept_cells": sum(
                1 for c in self.action_codes if c == ACTION_ACCEPT
            ),
        }


def specialize(table: ParseTable) -> SpecializedTable:
    """Recompile *table* (any dense-row representation) for the hot loop."""
    return SpecializedTable(table)


def specialized_view(table) -> SpecializedTable:
    """A memoized :func:`specialize` of *table* (*table* itself when it is
    already a :class:`SpecializedTable`).

    Every :class:`~repro.parser.engine.Parser` resolves its table through
    this once, at construction; recompiling once per table object, not
    per parser, keeps the cost off the steady state of callers that build
    a parser per request over tables from a cache.  Safe under the
    service's thread executor: the build is idempotent and the attribute
    publish is atomic.
    """
    if isinstance(table, SpecializedTable):
        return table
    cached = getattr(table, "_specialized_view", None)
    if cached is None:
        cached = table._specialized_view = specialize(table)
    return cached
