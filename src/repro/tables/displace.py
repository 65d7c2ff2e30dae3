"""Displacement (comb / double-offset) parse-table compression.

The classic table-compaction scheme used by real generators (yacc's
``yytable``/``yycheck``, bison, and booze-tools' compaction pass): all
ACTION rows are merged into one shared ``value`` array by sliding each
row to a per-row *displacement* where its populated columns fall into
slots no other row claimed.  A parallel ``check`` array records which row
owns each slot, so a lookup is::

    slot = displacement[state] + column
    hit  = 0 <= slot < len(check) and check[slot] == state

Storage drops from ``n_states * n_columns`` dense cells to roughly the
number of *populated* cells (plus comb gaps), while lookup stays O(1).
GOTO rows are packed the same way into their own comb.

Everything observable is unchanged: :class:`DisplacedTable` keeps the
source table's code arrays and views, so the parse engine drives it like
the plain :class:`~repro.tables.table.ParseTable`; the packed arrays are
an encoding of those codes (what ``packing_stats``, the compression
report and the ``displace`` codegen style consume), checked cell for
cell against the dense rows by ``tests/test_displace.py``.

The packed values are a :class:`~repro.tables.table.ParseTable`'s
``action_codes`` cells, in the integer **action encoding** defined in
:mod:`repro.tables.table` (and re-exported here) that the binary table
format and the array-backed generated parsers share::

    0                    error / absent cell
    (state << 2) | 1     shift to ``state``
    (production << 2) | 2reduce by ``production``
    3                    accept

Packing is deterministic: rows are placed densest-first (ties by row
index) with first-fit displacement search, so the packed arrays — and
any artifact serialised from them — are a pure function of the table.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

from .table import (  # noqa: F401 - the encoding is re-exported from here
    ACTION_ACCEPT,
    ACTION_ERROR,
    ACTION_REDUCE,
    ACTION_SHIFT,
    ActionDecoder,
    ParseTable,
    encode_action,
)

__all__ = [
    "ACTION_ERROR",
    "ACTION_SHIFT",
    "ACTION_REDUCE",
    "ACTION_ACCEPT",
    "ActionDecoder",
    "DisplacedTable",
    "displace",
    "encode_action",
    "pack_rows",
]


def pack_rows(
    rows: "Sequence[Sequence[int]]", empty: int = 0
) -> "Tuple[array, array, array]":
    """Comb-pack dense integer *rows* (cells equal to *empty* are absent).

    Returns ``(displacements, check, values)`` — three ``array('i')``:
    ``values[displacements[r] + c]`` holds row *r*'s cell *c* whenever
    ``check`` at that slot equals *r*; any other slot is a miss (the cell
    is *empty*).  Placement is densest-row-first with a first-fit
    displacement scan, which keeps the comb short and is deterministic.
    """
    n_rows = len(rows)
    displacements = array("i", [0]) * n_rows if n_rows else array("i")
    check: List[int] = []
    values: List[int] = []
    populated = [
        [(col, cell) for col, cell in enumerate(row) if cell != empty]
        for row in rows
    ]
    order = sorted(range(n_rows), key=lambda r: (-len(populated[r]), r))
    for row_id in order:
        cells = populated[row_id]
        if not cells:
            displacements[row_id] = 0
            continue
        cols = [col for col, _ in cells]
        displacement = 0
        limit = len(check)
        while True:
            if all(
                displacement + col >= limit or check[displacement + col] == -1
                for col in cols
            ):
                break
            displacement += 1
        displacements[row_id] = displacement
        need = displacement + cols[-1] + 1
        if need > limit:
            check.extend([-1] * (need - limit))
            values.extend([empty] * (need - len(values)))
        for col, cell in cells:
            check[displacement + col] = row_id
            values[displacement + col] = cell
    return displacements, array("i", check), array("i", values)


class DisplacedTable(ParseTable):
    """A ParseTable plus its displacement (comb) packing.

    It keeps the source table's code arrays, conflicts and views, and
    adds the packed ``action_*``/``goto_*`` displacement, check and value
    arrays, so it is a storage *encoding* of the same table, never a
    semantics change.
    """

    def __init__(self, table: ParseTable):
        super().__init__(
            table.grammar,
            table.method + "+displacement",
            table.action_codes,
            table.goto_codes,
            table.conflicts,
            table.row_order,
        )
        width, n_nts = self.num_terminals, self.num_nonterminals
        n_states = self.n_states
        (
            self.action_displacements,
            self.action_check,
            self.action_values,
        ) = pack_rows(_code_rows(self.action_codes, width, n_states), ACTION_ERROR)
        (
            self.goto_displacements,
            self.goto_check,
            self.goto_values,
        ) = pack_rows(_code_rows(self.goto_codes, n_nts, n_states), empty=-1)
        #: Dense cells of the source table, for the compression report.
        self._dense_cells = n_states * (width + n_nts)
        self._populated_cells = table.size_cells()

    # -- compression accounting ----------------------------------------

    def size_cells(self) -> int:
        """Slots the packed representation stores (combs + displacements)."""
        return (
            len(self.action_values)
            + len(self.goto_values)
            + len(self.action_displacements)
            + len(self.goto_displacements)
        )

    def packing_stats(self) -> Dict[str, int]:
        """Machine-independent packing figures (bench drift asserts on
        these): dense cells, populated cells, comb slots, wasted gaps."""
        comb_slots = len(self.action_values) + len(self.goto_values)
        gaps = sum(1 for c in self.action_check if c == -1) + sum(
            1 for c in self.goto_check if c == -1
        )
        return {
            "dense_cells": self._dense_cells,
            "populated_cells": self._populated_cells,
            "action_comb_slots": len(self.action_values),
            "goto_comb_slots": len(self.goto_values),
            "comb_slots": comb_slots,
            "comb_gaps": gaps,
            "stored_cells": self.size_cells(),
        }


def _code_rows(codes, width: int, n_states: int) -> "List[Sequence[int]]":
    """A flat code array cut into its per-state rows."""
    return [codes[base : base + width] for base in range(0, n_states * width, width)]


def displace(table: ParseTable) -> DisplacedTable:
    """Apply displacement (comb) compression to *table*."""
    return DisplacedTable(table)


def displacement_ratio(table: ParseTable) -> float:
    """Dense cells / displacement-stored cells (>1 means savings)."""
    packed = DisplacedTable(table)
    stored = packed.size_cells()
    return packed._dense_cells / stored if stored else 1.0
