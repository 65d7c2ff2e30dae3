"""Parse-table compression: default reductions.

A classic generator optimisation (yacc, Bison): in each ACTION row, the
most common reduce action becomes the row's *default*; its explicit cells
are dropped, and the parser takes the default whenever the lookahead has
no entry.  Rows that contain only one distinct reduce shrink to a single
default cell.

Consequence (and the reason it is safe): under the classic lookup
scheme erroneous input may trigger a few extra reductions before the
error is detected — but never an extra *shift*, so no input is ever
wrongly accepted, and the error position can move only past reductions,
never past consumed tokens.  This is the same contract Bison documents.
Here that deferred-detection behaviour lives only in the Symbol-keyed
:meth:`CompressedTable.action` lookup; the code arrays the engine drives
are the source table's, with every default still in the cells it was
folded from, so engine error *messages and positions* are identical to
the uncompressed table (the expected-set regression tests pin this down).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..grammar.symbols import Symbol
from .table import Action, ParseTable, Reduce


class CompressedTable:
    """A ParseTable plus per-state default reduce actions.

    Exposes the same ``action``/``goto`` interface as ParseTable, so the
    parse engine can drive either interchangeably.

    Two lookup surfaces with deliberately different default semantics:

    - :meth:`action` (the Symbol-keyed slow path) consults the row
      default on any miss — the classic yacc storage scheme, where
      erroneous lookaheads may trigger a few extra reductions before
      the error surfaces.
    - ``action_codes`` (what the engine drives) are the source table's
      own, so each default stays in exactly the cells it
      was folded *from*; genuine error cells stay empty.  The engine
      therefore detects errors in the identical state, at the identical
      position, with the identical expected set as the uncompressed
      table — compression is a storage measure (:meth:`size_cells`),
      never a diagnostics change.
    """

    def __init__(self, table: ParseTable):
        self.grammar = table.grammar
        self.method = table.method + "+default-reductions"
        self.gotos = table.gotos
        self.conflicts = table.conflicts
        eof = self.grammar.eof
        if not any(
            action is not None and action.kind == "accept"
            for row in table.actions
            for terminal, action in row.items()
            if terminal is eof
        ):
            # Without this guard a default reduce in the $end column
            # would silently stand in for the missing accept and the
            # parser would reduce forever at end of input.
            raise ValueError(
                "cannot compress a table with no accept action on "
                f"{eof.name}: a column default would mask the missing accept"
            )
        self.defaults: List[Optional[Reduce]] = []
        self.actions: List[Dict[Symbol, Action]] = []
        self._compress(table)
        # The source table's own code arrays, i.e. every folded default
        # still in its original cells and nothing else.
        self.action_codes = table.action_codes
        self.goto_codes = table.goto_codes
        self.row_order = table.row_order

    def _compress(self, table: ParseTable) -> None:
        for row in table.actions:
            reduces = Counter(
                action for action in row.values() if action.kind == "reduce"
            )
            if not reduces:
                self.defaults.append(None)
                self.actions.append(dict(row))
                continue
            default, _count = reduces.most_common(1)[0]
            kept = {
                terminal: action
                for terminal, action in row.items()
                if action != default
            }
            self.defaults.append(default)
            self.actions.append(kept)

    @property
    def n_states(self) -> int:
        return len(self.actions)

    @property
    def is_deterministic(self) -> bool:
        return not self.unresolved_conflicts

    @property
    def unresolved_conflicts(self):
        return [c for c in self.conflicts if not c.resolved_by_precedence]

    def action(self, state: int, terminal: Symbol) -> Optional[Action]:
        explicit = self.actions[state].get(terminal)
        if explicit is not None:
            return explicit
        return self.defaults[state]

    def goto(self, state: int, nonterminal: Symbol) -> Optional[int]:
        return self.gotos[state].get(nonterminal)

    def size_cells(self) -> int:
        """Populated cells after compression (defaults count as one each)."""
        return (
            sum(len(row) for row in self.actions)
            + sum(len(row) for row in self.gotos)
            + sum(1 for default in self.defaults if default is not None)
        )


def compress(table: ParseTable) -> CompressedTable:
    """Apply default-reduction compression to *table*."""
    return CompressedTable(table)


def compression_ratio(table: ParseTable) -> float:
    """Original cells / compressed cells (>1 means savings)."""
    compressed_cells = compress(table).size_cells()
    return table.size_cells() / compressed_cells if compressed_cells else 1.0
