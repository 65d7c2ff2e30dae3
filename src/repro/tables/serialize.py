"""Parse-table (de)serialisation — the generator's cache format.

Real parser generators persist their tables so application startup skips
the construction.  :func:`table_to_dict` / :func:`table_from_dict` give a
JSON-safe round-trip for any LR(0)-based table, guarded by a **grammar
fingerprint**: loading against a grammar whose rules changed raises
instead of silently mis-parsing.

The format carries the table's full conflict log — precedence-resolved
cells (part of ``conflict_summary()["resolved"]``) *and* unresolved
conflicts, which the GLR engine's :func:`~repro.tables.nondet
.nondet_view` re-expands into nondeterministic cells.  The section is
omitted entirely for conflict-free tables, so the common artifact keeps
its exact bytes.  The dense rows always store the single yacc-default
winner per cell; the conflict section is what preserves the losers.
"""

from __future__ import annotations

import json
import os
import tempfile
from array import array
from typing import Dict, List

from ..grammar.errors import SymbolError
from ..grammar.fingerprint import grammar_fingerprint
from ..grammar.grammar import Grammar
from .conflicts import Conflict
from .table import (
    ACCEPT,
    ACTION_ACCEPT,
    ACTION_REDUCE,
    ACTION_SHIFT,
    Action,
    ParseTable,
    Reduce,
    Shift,
    action_cells,
    encode_action,
    goto_cells,
    placement_order,
)

#: Bumped to 2 with the integer-interned symbol core: tables now carry
#: dense ID-indexed rows derived from the grammar's ID layout, so
#: format-1 entries (pre-ID era) must be evicted and rebuilt.
#: Bumped to 3 when the format grew the ``resolved`` conflict section:
#: format-2 entries would reload precedence-resolved tables with an
#: empty conflict log (``conflict_summary()["resolved"] == 0``), a
#: round-trip infidelity the serving layer's bit-identity contract
#: surfaced — evict and rebuild those too.
#: Bumped to 4 when the ``resolved`` section became the ``conflicts``
#: section carrying *unresolved* conflicts too (each record gains a
#: resolved flag), so conflicted tables — the GLR engine's input — are
#: cacheable at all.  Format-3 readers must not see format-4 artifacts
#: (they would reject the unknown section silently-absent) and format-3
#: artifacts under-report conflicted tables, so both directions evict.
FORMAT_VERSION = 4


class TableCacheError(ValueError):
    """A cached table is unusable: corrupt, truncated, from another
    format version, or built from a different grammar.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; cache layers catch this type specifically and
    fall back to rebuilding the table instead of crashing.
    """


# grammar_fingerprint now lives in repro.grammar.fingerprint (shared with
# the incremental pipeline and the fuzz corpus); re-exported here because
# this module has always been its public home for cache users.
__all__ = [
    "FORMAT_VERSION",
    "TableCacheError",
    "grammar_fingerprint",
    "table_to_dict",
    "table_from_dict",
    "save_table",
    "load_table",
]


def _json_cell(code: int) -> "List":
    """An encoded action as its JSON cell."""
    tag = code & 3
    if tag == ACTION_SHIFT:
        return ["s", code >> 2]
    if tag == ACTION_REDUCE:
        return ["r", code >> 2]
    return ["a"]


def _cell_code(encoded: "List") -> int:
    """A JSON cell back into its integer code."""
    kind = encoded[0] if encoded else None
    if kind == "s" and len(encoded) == 2 and isinstance(encoded[1], int):
        return (encoded[1] << 2) | ACTION_SHIFT
    if kind == "r" and len(encoded) == 2 and isinstance(encoded[1], int):
        return (encoded[1] << 2) | ACTION_REDUCE
    if kind == "a" and len(encoded) == 1:
        return ACTION_ACCEPT
    # Anything else — including a *list* of actions, the way a future
    # format might carry a conflicted cell — is rejected outright: a
    # loaded table must never claim conflict-freedom it does not have.
    raise TableCacheError(f"unknown action encoding {encoded!r}")


def _decode_action(encoded: "List") -> Action:
    code = _cell_code(encoded)
    if code & 3 == ACTION_SHIFT:
        return Shift(code >> 2)
    if code & 3 == ACTION_REDUCE:
        return Reduce(code >> 2)
    return ACCEPT


def _decode_conflict(encoded: "List", symbols) -> Conflict:
    """One ``conflicts`` record back into a Conflict (resolved or not)."""
    if not isinstance(encoded, list) or len(encoded) != 6:
        raise TableCacheError(f"malformed conflict record {encoded!r}")
    state, terminal_name, kind, actions, chosen, resolved = encoded
    if (
        kind not in ("shift/reduce", "reduce/reduce")
        or not isinstance(state, int)
        or not isinstance(resolved, bool)
    ):
        raise TableCacheError(f"malformed conflict record {encoded!r}")
    return Conflict(
        state,
        symbols[terminal_name],
        kind,
        [_decode_action(action) for action in actions],
        None if chosen is None else _decode_action(chosen),
        resolved_by_precedence=resolved,
    )


def table_to_dict(table: ParseTable) -> Dict:
    """A JSON-safe dict capturing *table*, conflicts and all, read
    straight off its code arrays."""
    terminals = table.grammar.ids.terminals
    nonterminals = table.grammar.ids.nonterminals
    payload = {
        "format": FORMAT_VERSION,
        "method": table.method,
        "fingerprint": grammar_fingerprint(table.grammar),
        "actions": [
            {
                terminals[tid].name: _json_cell(code)
                for tid, code in action_cells(
                    table.action_codes, table.num_terminals, table.row_order, state
                )
            }
            for state in range(table.n_states)
        ],
        "gotos": [
            {
                nonterminals[nt_id].name: target
                for nt_id, target in goto_cells(
                    table.goto_codes, table.num_nonterminals, state
                )
            }
            for state in range(table.n_states)
        ],
    }
    if table.conflicts:
        # The full conflict log, in discovery order, so the loaded table
        # reports the same conflict_summary() — and re-expands the same
        # nondeterministic cells for the GLR engine — as the freshly
        # built one.  Omitted when empty: the common conflict-free
        # artifact keeps its exact bytes.
        payload["conflicts"] = [
            [
                conflict.state,
                conflict.terminal.name,
                conflict.kind,
                [_json_cell(encode_action(action)) for action in conflict.actions],
                None if conflict.chosen is None
                else _json_cell(encode_action(conflict.chosen)),
                conflict.resolved_by_precedence,
            ]
            for conflict in table.conflicts
        ]
    return payload


def table_from_dict(data: Dict, grammar: Grammar) -> ParseTable:
    """Rebuild a ParseTable against *grammar*, verifying the fingerprint.

    Raises :class:`TableCacheError` on any structural defect (wrong
    format version, fingerprint mismatch, truncated or malformed rows) so
    callers can treat every failure mode uniformly as "rebuild".
    """
    if not isinstance(data, dict):
        raise TableCacheError(f"table payload is {type(data).__name__}, not an object")
    if data.get("format") != FORMAT_VERSION:
        raise TableCacheError(f"unsupported table format {data.get('format')!r}")
    fingerprint = grammar_fingerprint(grammar)
    if data.get("fingerprint") != fingerprint:
        raise TableCacheError(
            "grammar fingerprint mismatch: the table was built from a "
            "different grammar (rebuild instead of loading the cache)"
        )
    try:
        action_rows = data["actions"]
        goto_rows = data["gotos"]
        method = data["method"]
        conflicts = [
            _decode_conflict(encoded, grammar.symbols)
            for encoded in data.get("conflicts", [])
        ]
        if len(action_rows) != len(goto_rows):
            raise TableCacheError(
                f"malformed table payload: {len(action_rows)} ACTION rows but "
                f"{len(goto_rows)} GOTO rows"
            )
        action_codes, row_order = _action_codes(action_rows, grammar)
        goto_codes = _goto_codes(goto_rows, grammar)
    except TableCacheError:
        raise
    except (KeyError, TypeError, AttributeError, IndexError, SymbolError) as error:
        raise TableCacheError(f"truncated or malformed table payload: {error}") from error
    # The code arrays hold one winner per cell; unresolved entries in
    # the carried conflict log are what make the loaded table report
    # is_deterministic=False and fuel the GLR engine's nondet view.
    return ParseTable(grammar, method, action_codes, goto_codes, conflicts, row_order)


def _action_codes(rows: "List[Dict]", grammar: Grammar):
    """The ACTION rows as a code array plus the ``row_order`` of rows
    whose key order is not canonical.

    Rejects what a well-formed payload can still carry wrongly — a
    nonterminal in a row, a shift target or reduce production out of
    range — with :class:`TableCacheError`, so every failure mode stays
    uniformly "evict and rebuild" for the cache layers.
    """
    symbols = grammar.symbols
    terminal_id = grammar.ids.terminal_id
    width = grammar.ids.num_terminals
    n_states = len(rows)
    n_productions = len(grammar.productions)
    codes = array("i", bytes(4 * width * n_states))
    row_order: Dict[int, List[int]] = {}
    for state, row in enumerate(rows):
        base = state * width
        order = []
        for name, encoded in row.items():
            symbol = symbols[name]
            if symbol.is_nonterminal:
                raise TableCacheError(
                    f"malformed table payload: nonterminal {symbol.name!r} "
                    f"in ACTION row {state}"
                )
            code = _cell_code(encoded)
            target = code >> 2
            if code & 3 == ACTION_SHIFT and not 0 <= target < n_states:
                raise TableCacheError(
                    f"malformed table payload: shift target {target} "
                    f"out of range in ACTION row {state}"
                )
            if code & 3 == ACTION_REDUCE and not 0 <= target < n_productions:
                raise TableCacheError(
                    f"malformed table payload: reduce production "
                    f"{target} out of range in ACTION row {state}"
                )
            tid = terminal_id(symbol)
            codes[base + tid] = code
            order.append(tid)
        if order != placement_order(codes[base : base + width]):
            row_order[state] = order
    return codes, row_order


def _goto_codes(rows: "List[Dict]", grammar: Grammar) -> array:
    """The GOTO rows as a code array (``-1`` absent), range-checked."""
    symbols = grammar.symbols
    width = grammar.ids.num_nonterminals
    offset = grammar.ids.num_terminals
    n_states = len(rows)
    codes = array("i", [-1]) * (width * n_states)
    for state, row in enumerate(rows):
        base = state * width - offset
        for name, target in row.items():
            symbol = symbols[name]
            if symbol.is_terminal:
                raise TableCacheError(
                    f"malformed table payload: terminal {symbol.name!r} "
                    f"in GOTO row {state}"
                )
            if not isinstance(target, int) or isinstance(target, bool) or not (
                0 <= target < n_states
            ):
                raise TableCacheError(
                    f"malformed table payload: GOTO target {target!r} "
                    f"out of range in row {state}"
                )
            codes[base + grammar.ids.sid(symbol)] = target
    return codes


def save_table(table: ParseTable, path: str) -> None:
    """Serialise *table* as JSON to *path*, atomically.

    The payload is written to a temporary file in the destination
    directory and moved into place with :func:`os.replace`, so a crash
    mid-write leaves either the old file or no file — never a truncated
    one readers would choke on.
    """
    payload = table_to_dict(table)
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def load_table(path: str, grammar: Grammar) -> ParseTable:
    """Load a table cached by :func:`save_table` for *grammar*.

    Raises :class:`TableCacheError` (not a raw ``JSONDecodeError``) when
    the file is corrupt or truncated; ``FileNotFoundError`` propagates
    unchanged so callers can distinguish "missing" from "damaged".
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise TableCacheError(f"corrupt table file {path!r}: {error}") from error
    return table_from_dict(data, grammar)
