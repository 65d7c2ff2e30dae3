"""Parse-table representation shared by all four constructions.

A :class:`ParseTable` stores two flat ``int32`` code arrays plus the
conflict log:

- ``action_codes[state * num_terminals + terminal_id]`` — the ACTION
  matrix in the shared integer encoding: ``0`` error / absent cell,
  ``(state << 2) | 1`` shift, ``(production << 2) | 2`` reduce, ``3``
  accept;
- ``goto_codes[state * num_nonterminals + nt_id]`` — the GOTO matrix,
  ``-1`` = absent.

Table fill (:mod:`repro.tables.build`) writes these arrays straight from
the look-ahead bitmasks, the binary artifact (:mod:`repro.tables.binfmt`)
is these arrays byte for byte, and the parse engine indexes (list copies
of) them directly.  Everything Symbol- or :class:`Action`-shaped is a
lazy view for diagnostics, formatting, the JSON artifact and the GLR
engine, decoded one state at a time on first touch by :class:`LazyRows`:

- ``action_rows[state][terminal_id]`` — an :class:`Action` or None;
- ``goto_rows[state][nt_id]`` — the successor state or ``-1``;
- ``actions[state][terminal]`` / ``gotos[state][nonterminal]`` — the
  classic Symbol-keyed ACTION/GOTO dicts (diagnostics, formatting, the
  JSON artifact).

Conflicts found while filling a cell are recorded (see
:mod:`repro.tables.conflicts`), a deterministic winner is kept in the
table (yacc's tie-breaks), and ``table.is_deterministic`` tells whether the
grammar was conflict-free for the construction used.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol
from .conflicts import Conflict

#: Tag bits of the shared integer action encoding.
ACTION_ERROR = 0
ACTION_SHIFT = 1
ACTION_REDUCE = 2
ACTION_ACCEPT = 3


class Action:
    """Base class for parse actions (sum type: Shift | Reduce | Accept)."""

    __slots__ = ()

    kind = "action"


class Shift(Action):
    """Shift the lookahead and move to ``state``."""

    __slots__ = ("state",)

    kind = "shift"

    def __init__(self, state: int):
        self.state = state

    def __repr__(self) -> str:
        return f"s{self.state}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Shift) and other.state == self.state

    def __hash__(self) -> int:
        return hash(("shift", self.state))


class Reduce(Action):
    """Reduce by production ``production`` (an index into the grammar)."""

    __slots__ = ("production",)

    kind = "reduce"

    def __init__(self, production: int):
        self.production = production

    def __repr__(self) -> str:
        return f"r{self.production}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reduce) and other.production == self.production

    def __hash__(self) -> int:
        return hash(("reduce", self.production))


class Accept(Action):
    """Accept the input."""

    __slots__ = ()

    kind = "accept"

    def __repr__(self) -> str:
        return "acc"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Accept)

    def __hash__(self) -> int:
        return hash("accept")


ACCEPT = Accept()


def encode_action(action: "Optional[Action]") -> int:
    """The integer encoding of *action* (0 for an empty/error cell)."""
    if action is None:
        return ACTION_ERROR
    kind = action.kind
    if kind == "shift":
        return (action.state << 2) | ACTION_SHIFT
    if kind == "reduce":
        return (action.production << 2) | ACTION_REDUCE
    if kind == "accept":
        return ACTION_ACCEPT
    raise ValueError(f"cannot encode action {action!r}")


class ActionDecoder(dict):
    """Encoded action ints -> shared :class:`Action` objects (``0`` -> None).

    A memo dict: each distinct code is decoded once and the same object
    comes back ever after, so a hit is a C-level dict lookup and a whole
    row decodes with ``map(decoder.__getitem__, codes)``.  Invalid codes
    raise :class:`ValueError` and are not cached.
    """

    __slots__ = ()

    def __missing__(self, encoded: int) -> "Optional[Action]":
        tag = encoded & 3
        if encoded == ACTION_ERROR:
            action = None
        elif encoded < 0:
            raise ValueError(f"invalid encoded action {encoded!r}")
        elif tag == ACTION_SHIFT:
            action = Shift(encoded >> 2)
        elif tag == ACTION_REDUCE:
            action = Reduce(encoded >> 2)
        elif encoded == ACTION_ACCEPT:
            action = ACCEPT
        else:
            raise ValueError(f"invalid encoded action {encoded!r}")
        self[encoded] = action
        return action

    def decode(self, encoded: int) -> "Optional[Action]":
        return self[encoded]


def placement_order(row: "Sequence[int]") -> List[int]:
    """Terminal IDs of *row*'s populated cells in canonical order.

    Shift and accept cells come first by terminal ID, then reduce cells
    by (production, terminal ID): the order in which the LR(0)-based fill
    places a conflict-free row whose reductions are listed by ascending
    production.  A table records an explicit order (``row_order``) only
    for the rows that differ.
    """
    first: List[int] = []
    reduces = []
    for terminal_id in compress(range(len(row)), row):
        code = row[terminal_id]
        if code & 3 == ACTION_REDUCE:
            reduces.append((code, terminal_id))
        else:
            first.append(terminal_id)
    if reduces:
        reduces.sort()
        first += [terminal_id for _code, terminal_id in reduces]
    return first


class LazyRows:
    """A read-only sequence of per-state rows, each decoded on first touch.

    Indexes like a list: a negative index counts from the end and an out
    of range one raises :class:`IndexError`.  Every table representation
    serves its ``action_rows``/``goto_rows``/``actions``/``gotos``
    through this one class.
    """

    __slots__ = ("decoded", "_decode")

    def __init__(self, n_states: int, decode: "Callable[[int], object]"):
        #: The rows decoded so far, None for the others.
        self.decoded: list = [None] * n_states
        self._decode = decode

    def __len__(self) -> int:
        return len(self.decoded)

    def __getitem__(self, state: int):
        row = self.decoded[state]
        if row is None:
            if state < 0:
                state += len(self.decoded)
            row = self.decoded[state] = self._decode(state)
        return row

    def __iter__(self):
        for state in range(len(self.decoded)):
            yield self[state]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (LazyRows, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]


def _action_row(codes, width: int, decoder: ActionDecoder, state: int):
    base = state * width
    return list(map(decoder.__getitem__, codes[base : base + width]))


def _goto_row(codes, width: int, state: int):
    base = state * width
    return list(codes[base : base + width])


def action_cells(codes, width: int, row_order, state: int) -> "List[Tuple[int, int]]":
    """``(terminal ID, code)`` of a state's populated ACTION cells, in
    placement order (``row_order``, else :func:`placement_order`)."""
    base = state * width
    row = codes[base : base + width]
    order = row_order.get(state)
    if order is None:
        order = placement_order(row)
    return [(tid, row[tid]) for tid in order]


def goto_cells(codes, width: int, state: int) -> "List[Tuple[int, int]]":
    """``(nonterminal ID, target)`` of a state's populated GOTO cells."""
    base = state * width
    row = codes[base : base + width]
    return [(nt_id, row[nt_id]) for nt_id in range(width) if row[nt_id] >= 0]


def _action_dict(codes, width: int, row_order, terminals, decoder, state: int):
    return {
        terminals[tid]: decoder[code]
        for tid, code in action_cells(codes, width, row_order, state)
    }


def _goto_dict(codes, width: int, nonterminals, state: int):
    return {nonterminals[nt]: target for nt, target in goto_cells(codes, width, state)}


def _count_populated(codes, absent: int) -> int:
    """Cells of a flat code array that differ from *absent* (no decoding)."""
    if isinstance(codes, memoryview):
        codes = array("i", codes.tobytes())
    return len(codes) - codes.count(absent)


class ParseTable:
    """ACTION/GOTO code arrays plus conflict metadata for one construction.

    Args:
        grammar: The (augmented) grammar whose ID layout indexes the rows.
        method: Which construction produced the table: "lr0", "slr1",
            "lalr1", "clr1".
        action_codes: ``n_states x num_terminals`` encoded actions.
        goto_codes: ``n_states x num_nonterminals`` targets (``-1`` absent).
        conflicts: The conflict log, in discovery order.
        row_order: For the few states whose cells were placed in another
            order than :func:`placement_order`, their terminal IDs in
            placement order.  It fixes the key order of ``actions`` (and
            so of the JSON artifact) and nothing else.
    """

    def __init__(
        self,
        grammar: Grammar,
        method: str,
        action_codes,
        goto_codes,
        conflicts: List[Conflict],
        row_order: "Optional[Dict[int, List[int]]]" = None,
    ):
        self.grammar = grammar
        self.method = method
        self.action_codes = action_codes
        self.goto_codes = goto_codes
        self.conflicts = conflicts
        self.row_order: Dict[int, List[int]] = {} if row_order is None else row_order
        ids = grammar.ids
        width = self.num_terminals = ids.num_terminals
        n_nts = self.num_nonterminals = ids.num_nonterminals
        n_states = self.n_states = (
            len(action_codes) // width if width else len(goto_codes) // n_nts
        )
        decoder = self.decoder = ActionDecoder()
        # Partials over the arrays, not bound methods: no reference cycle,
        # so a table mapped from a file is released as soon as it is
        # dropped.
        self.action_rows = LazyRows(
            n_states, partial(_action_row, action_codes, width, decoder)
        )
        self.goto_rows = LazyRows(n_states, partial(_goto_row, goto_codes, n_nts))
        self.actions = LazyRows(
            n_states,
            partial(
                _action_dict,
                action_codes,
                width,
                self.row_order,
                ids.terminals,
                decoder,
            ),
        )
        self.gotos = LazyRows(
            n_states, partial(_goto_dict, goto_codes, n_nts, ids.nonterminals)
        )

    @property
    def is_deterministic(self) -> bool:
        """True iff no *unresolved* conflicts remain.

        Conflicts settled by precedence/associativity declarations do not
        count against determinism (they are resolutions, as in yacc).
        """
        return not self.unresolved_conflicts

    @property
    def unresolved_conflicts(self) -> List[Conflict]:
        return [c for c in self.conflicts if not c.resolved_by_precedence]

    def action(self, state: int, terminal: Symbol) -> Optional[Action]:
        """The parse action for (state, lookahead), or None (error)."""
        return self.actions[state].get(terminal)

    def goto(self, state: int, nonterminal: Symbol) -> Optional[int]:
        return self.gotos[state].get(nonterminal)

    def action_by_id(self, state: int, terminal_id: int) -> Optional[Action]:
        """The parse action for (state, terminal ID) — no Symbol hashing."""
        return self.action_rows[state][terminal_id]

    def goto_by_id(self, state: int, nt_id: int) -> int:
        """The goto target for (state, nonterminal ID), or -1."""
        return self.goto_rows[state][nt_id]

    def conflict_summary(self) -> Dict[str, int]:
        """Counts by conflict kind (shift/reduce vs reduce/reduce)."""
        summary = {"shift_reduce": 0, "reduce_reduce": 0, "resolved": 0}
        for conflict in self.conflicts:
            if conflict.resolved_by_precedence:
                summary["resolved"] += 1
            elif conflict.kind == "shift/reduce":
                summary["shift_reduce"] += 1
            else:
                summary["reduce_reduce"] += 1
        return summary

    def size_cells(self) -> int:
        """Number of populated table cells (actions + gotos)."""
        return _count_populated(self.action_codes, ACTION_ERROR) + _count_populated(
            self.goto_codes, -1
        )

    def format(self, max_states: int = 0) -> str:
        """Render the table as aligned text (like the tables in parsing
        textbooks); *max_states* truncates large tables for display."""
        terminals = [t for t in self.grammar.terminals]
        nonterminals = [
            nt for nt in self.grammar.nonterminals if nt is not self.grammar.start
        ]
        header = ["state"] + [t.name for t in terminals] + [
            nt.name for nt in nonterminals
        ]
        rows: List[List[str]] = [header]
        states = range(self.n_states if not max_states else min(self.n_states, max_states))
        for state in states:
            row = [str(state)]
            for terminal in terminals:
                action = self.actions[state].get(terminal)
                row.append(repr(action) if action is not None else "")
            for nonterminal in nonterminals:
                target = self.gotos[state].get(nonterminal)
                row.append(str(target) if target is not None else "")
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        if max_states and self.n_states > max_states:
            lines.append(f"... ({self.n_states - max_states} more states)")
        return "\n".join(lines)
