"""Conflict-list view of a parse table — the GLR engine's fuel.

A :class:`~repro.tables.table.ParseTable` keeps exactly one action per
ACTION cell (the yacc-default winner) and records the losers in its
``conflicts`` log.  :class:`NondeterministicTable` merges the two back
together: every cell becomes a *tuple of actions* — a 1-tuple for the
clean cells, the full competing set for cells with unresolved conflicts
— plus the unchanged dense GOTO rows.  The RNGLR engine
(:mod:`repro.parser.glr`) forks its graph-structured stack on exactly
these tuples.

Two deliberate choices:

- **Precedence resolutions stay resolved.**  A cell settled by
  ``%left``/``%right``/``%nonassoc`` keeps only its winner (or stays
  empty for a %nonassoc erasure): the user *declared* that resolution,
  so the GLR engine honours it exactly like the deterministic engine.
  Only *unresolved* conflicts fork.
- **Canonical cell order.**  Within a conflicted cell the actions are
  ordered accept, shift, then reduces by ascending production index —
  a pure function of the action set, independent of conflict-discovery
  order, so a table reloaded from an artifact drives the GLR engine
  identically to a freshly built one.

The view works over any table object carrying ``grammar``,
``action_rows``/``goto_rows`` and ``conflicts`` — a ParseTable, a
:class:`~repro.tables.binfmt.BinaryTable`, or a table loaded from the
JSON format.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .table import Action

__all__ = ["NondeterministicTable", "nondet_view"]


def _cell_order(action: Action) -> "Tuple[int, int]":
    """Canonical within-cell sort key: accept, shift, reduces ascending."""
    if action.kind == "accept":
        return (0, 0)
    if action.kind == "shift":
        return (1, action.state)
    return (2, action.production)


class NondeterministicTable:
    """Per-cell action *tuples* merged from a table's rows + conflicts.

    Attributes:
        table: The underlying single-winner table.
        grammar: The (augmented) grammar the table was built for.
        rows: ``rows[state][terminal_id]`` is a tuple of actions (empty
            = syntax error); at most one cell per unresolved conflict
            holds more than one.
        goto_rows: The underlying table's GOTO rows, as a list.
        conflict_cells: How many cells hold more than one action.
    """

    def __init__(self, table):
        self.table = table
        self.grammar = table.grammar
        self.method = table.method
        ids = self.grammar.ids
        terminal_id = ids.terminal_id

        merged: "Dict[Tuple[int, int], List[Action]]" = {}
        for conflict in table.conflicts:
            if conflict.resolved_by_precedence:
                continue
            key = (conflict.state, terminal_id(conflict.terminal))
            bucket = merged.setdefault(key, [])
            for action in conflict.actions:
                if action not in bucket:
                    bucket.append(action)

        rows: "List[List[tuple]]" = []
        for state in range(table.n_states):
            source = table.action_rows[state]
            rows.append([
                () if action is None else (action,) for action in source
            ])
        for (state, tid), bucket in merged.items():
            # The cell's winner is one of the competing actions by
            # construction, but fold it in defensively (a %nonassoc
            # erasure followed by a later conflict could drift).
            winner = table.action_rows[state][tid]
            if winner is not None and winner not in bucket:
                bucket.append(winner)
            rows[state][tid] = tuple(sorted(bucket, key=_cell_order))
        self.rows = rows
        self.goto_rows = list(table.goto_rows)
        self.conflict_cells = len(merged)

    @property
    def n_states(self) -> int:
        return len(self.rows)

    @property
    def is_deterministic(self) -> bool:
        """True iff no cell forks (every tuple has at most one action)."""
        return self.conflict_cells == 0

    def actions_for(self, state: int, terminal_id: int) -> tuple:
        """The competing actions for (state, lookahead id); () = error."""
        return self.rows[state][terminal_id]


def nondet_view(table) -> NondeterministicTable:
    """The memoized :class:`NondeterministicTable` for *table*.

    Mirrors :func:`repro.tables.specialize.specialized_view`: the view is
    built once per table object and cached on it, so tables coming off
    the service's hot LRU pay the merge exactly once.
    """
    view = getattr(table, "_nondet_view", None)
    if view is None or view.table is not table:
        view = NondeterministicTable(table)
        try:
            table._nondet_view = view
        except AttributeError:  # pragma: no cover - exotic table objects
            pass
    return view
