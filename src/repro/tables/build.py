"""Parse-table construction for the four LR variants.

All four builders share one cell-filling engine and differ only in *which
lookaheads gate each reduction*:

- **LR(0)**: every terminal (reduce regardless of lookahead);
- **SLR(1)**: FOLLOW(lhs) — :class:`repro.baselines.slr.SlrAnalysis`;
- **LALR(1)**: the DeRemer–Pennello LA sets (default) or any baseline's
  equivalent table;
- **CLR(1)**: per-LR(1)-state item lookaheads (the table lives on the
  canonical LR(1) automaton, so it is typically much larger).

The accept action is installed on ``$end`` in any state containing the
item ``S' -> S . $end``; the reduction by production 0 therefore never
fires and carries no lookaheads anywhere in the library.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, partial
from typing import Dict, FrozenSet, List, Optional

from ..automaton.lr0 import LR0Automaton
from ..automaton.lr1 import LR1Automaton
from ..baselines.slr import SlrAnalysis
from ..core import instrument
from ..core.bitset import popcount
from ..core.lalr import LalrAnalysis
from ..core.relations import ReductionSite
from ..grammar.grammar import Grammar
from ..grammar.symbols import Symbol
from .conflicts import Conflict, resolve_shift_reduce
from .table import (
    ACCEPT,
    ACTION_ACCEPT,
    ACTION_REDUCE,
    ACTION_SHIFT,
    Action,
    ParseTable,
    Reduce,
    Shift,
    encode_action,
    placement_order,
)


def build_lr0_table(
    grammar: Grammar, automaton: "LR0Automaton | None" = None, budget=None
) -> ParseTable:
    """The LR(0) table: final items reduce on *every* terminal."""
    with instrument.span("table.build.lr0"):
        if automaton is None:
            automaton = LR0Automaton(grammar, budget=budget)
        all_mask = (1 << automaton.ids.num_terminals) - 1

        def lookahead_mask(site: ReductionSite) -> int:
            return all_mask

        return _fill_lr0_based(automaton, "lr0", lookahead_mask, budget)


def build_slr_table(
    grammar: Grammar, automaton: "LR0Automaton | None" = None, budget=None
) -> ParseTable:
    """The SLR(1) table: reduce on FOLLOW of the production's lhs."""
    with instrument.span("table.build.slr1"):
        if automaton is None:
            automaton = LR0Automaton(grammar, budget=budget)
        analysis = SlrAnalysis(grammar, automaton)
        mask_of = _symbol_set_masker(automaton.ids)

        def lookahead_mask(site: ReductionSite) -> int:
            return mask_of(analysis.lookahead(*site))

        return _fill_lr0_based(automaton, "slr1", lookahead_mask, budget)


def build_lalr_table(
    grammar: Grammar,
    automaton: "LR0Automaton | None" = None,
    lookahead_table: "Dict[ReductionSite, FrozenSet[Symbol]] | None" = None,
    budget=None,
    la_masks: "Dict[ReductionSite, int] | None" = None,
) -> ParseTable:
    """The LALR(1) table.

    By default lookaheads come straight from the DeRemer–Pennello
    analysis's LA bitmasks (no Symbol round-trip); pass *lookahead_table*
    (e.g. from a baseline) to build from other sources — the classifier
    and the equivalence tests use this hook — or *la_masks* to reuse an
    already-computed analysis's masks without paying for a second one
    (the session pipeline's path).  A *budget* governs the whole build
    (automaton, analysis and fill share one deadline).
    """
    with instrument.span("table.build.lalr1"):
        if automaton is None:
            automaton = LR0Automaton(grammar, budget=budget)
        if lookahead_table is None:
            if la_masks is None:
                la_masks = LalrAnalysis(grammar, automaton, budget=budget).la_masks
            site_masks = la_masks

            def lookahead_mask(site: ReductionSite) -> int:
                return site_masks.get(site, 0)

        else:
            mask_of = _symbol_set_masker(automaton.ids)

            def lookahead_mask(site: ReductionSite) -> int:
                return mask_of(lookahead_table.get(site, frozenset()))

        return _fill_lr0_based(automaton, "lalr1", lookahead_mask, budget)


def _symbol_set_masker(ids) -> "callable":
    """Symbol-set -> terminal-ID bitmask converter (memoised per set).

    Follow/LA sets are shared, long-lived objects (one per lhs, site or
    LR(1) item), so the memoisation makes the conversion one pass per
    distinct set.
    """
    terminal_id = ids.terminal_id
    cache: Dict[int, int] = {}

    def mask_of(terminals: FrozenSet[Symbol]) -> int:
        key = id(terminals)
        mask = cache.get(key)
        if mask is None:
            mask = 0
            for terminal in terminals:
                mask |= 1 << terminal_id(terminal)
            cache[key] = mask
        return mask

    return mask_of


class _CodeFiller:
    """Appends whole ACTION/GOTO code rows to a table under construction.

    A conflict-free state — no terminal in two of its shift/reduce masks
    — is written row-wise.  The look-ahead masks are widened to one
    selector byte per terminal (a C-level ``format``/``translate`` pass
    each), and the selector is translated into each byte lane of the
    int32 row by extended-slice assignment.  Shifts and gotos (from
    ``out_sids``) are then set cell by cell.  A
    state whose masks overlap takes the per-cell :func:`_place` path
    instead, so its conflicts, their order, precedence resolutions and
    yacc winners are exactly those of the classic dict fill; its dict row
    is then encoded.  So does the rare state whose reductions are not
    listed by ascending production, whose placement order ``row_order``
    must then record.
    """

    def __init__(self, grammar: Grammar):
        ids = grammar.ids
        self.grammar = grammar
        self.symbol_of = ids.by_sid
        self.terminal_id = ids.terminal_id
        self.num_terminals = ids.num_terminals
        self.num_nonterminals = ids.num_nonterminals
        self.eof_sid = ids.terminal_id(grammar.eof)
        self.action_codes = array("i")
        self.goto_codes = array("i")
        self.conflicts: List[Conflict] = []
        #: Action cells written by add_state (``table.action_cells``).
        self.populated = 0
        self.row_order: Dict[int, List[int]] = {}
        self._blank_row = bytes(4 * self.num_terminals)
        self._blank_gotos = array("i", [-1]) * self.num_nonterminals
        self._bits = "0%db" % self.num_terminals

    def table(self, method: str) -> ParseTable:
        return ParseTable(
            self.grammar,
            method,
            self.action_codes,
            self.goto_codes,
            self.conflicts,
            self.row_order,
        )

    def copy_rows(self, old: ParseTable, start: int, stop: int) -> None:
        """Append states ``[start, stop)`` of *old* unchanged."""
        width, n_nts = self.num_terminals, self.num_nonterminals
        self.action_codes.extend(old.action_codes[start * width : stop * width])
        self.goto_codes.extend(old.goto_codes[start * n_nts : stop * n_nts])
        for state, order in old.row_order.items():
            if start <= state < stop:
                self.row_order[state] = order

    def add_state(self, state_id: int, out_sids, targets, reductions) -> None:
        """Append one state's rows: its transitions (*out_sids* in
        declaration order, successors in *targets*) and its reductions as
        ``(production, look-ahead mask)`` pairs."""
        num_terminals = self.num_terminals
        action_codes = self.action_codes
        goto_codes = self.goto_codes
        base = len(action_codes)
        goto_base = len(goto_codes) - num_terminals
        goto_codes.extend(self._blank_gotos)
        shifts = []
        placed = 0
        # Declaration order puts terminals in ID order, so shifts do too.
        for sid in out_sids:
            successor = targets[sid]
            if sid >= num_terminals:
                goto_codes[goto_base + sid] = successor
            else:
                placed |= 1 << sid
                # goto on $end exists only from the item S' -> S . $end.
                code = (
                    ACTION_ACCEPT
                    if sid == self.eof_sid
                    else (successor << 2) | ACTION_SHIFT
                )
                shifts.append((sid, code))
        overlap = False
        for _production, mask in reductions:
            overlap = overlap or bool(placed & mask)
            placed |= mask
        reductions = [reduction for reduction in reductions if reduction[1]]
        productions = [production for production, _mask in reductions]
        if overlap or len(reductions) > 255 or productions != sorted(productions):
            # Conflicts, more reductions than a selector byte tells apart,
            # or a placement order that row_order must record.
            self._add_placed_row(state_id, shifts, reductions)
            return
        self.populated += popcount(placed)
        action_codes.frombytes(
            self._reduce_row(reductions) if reductions else self._blank_row
        )
        for terminal_id, code in shifts:
            action_codes[base + terminal_id] = code

    def _reduce_row(self, reductions: "List[tuple]") -> bytearray:
        """The native-endian int32 row holding every reduction's code at
        the terminals of its mask (the masks are disjoint)."""
        bits = self._bits
        selector = 0
        for rank, (_production, mask) in enumerate(reductions, 1):
            spread = int.from_bytes(
                format(mask, bits).encode("ascii").translate(_BIT_BYTES), "big"
            )
            selector += spread if rank == 1 else rank * spread
        selector_bytes = selector.to_bytes(self.num_terminals, "little")
        lanes = _lane_tables(
            tuple((production << 2) | ACTION_REDUCE for production, _ in reductions)
        )
        row = bytearray(self._blank_row)
        for lane, table in lanes:
            row[lane::4] = selector_bytes.translate(table)
        return row

    def _add_placed_row(self, state_id: int, shifts, reductions) -> None:
        """Place every reduce cell through :func:`_place` (a conflict
        state), then encode the dict row."""
        symbol_of = self.symbol_of
        action_row: Dict[Symbol, Action] = {}
        for terminal_id, code in shifts:
            action_row[symbol_of[terminal_id]] = (
                ACCEPT if code == ACTION_ACCEPT else Shift(code >> 2)
            )
        for production, mask in reductions:
            reduce_action = Reduce(production)
            while mask:
                low_bit = mask & -mask
                mask ^= low_bit
                _place(
                    self.grammar,
                    actions_row=action_row,
                    state_id=state_id,
                    terminal=symbol_of[low_bit.bit_length() - 1],
                    new_action=reduce_action,
                    conflicts=self.conflicts,
                )
        self.populated += len(action_row)
        base = len(self.action_codes)
        self.action_codes.frombytes(self._blank_row)
        order = _encode_row(
            self.action_codes, base, self.num_terminals, action_row, self.terminal_id
        )
        if order is not None:
            self.row_order[state_id] = order


#: ASCII '0'/'1' -> byte 0/1.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=1024)
def _lane_tables(codes: tuple) -> tuple:
    """``((byte lane, table), ...)`` for the nonzero byte lanes of a
    native int32: ``table`` maps selector value ``rank`` to that byte of
    ``codes[rank - 1]`` (and 0 to 0)."""
    code_bytes = [code.to_bytes(4, sys.byteorder) for code in codes]
    ranks = bytes(range(1, len(codes) + 1))
    return tuple(
        (lane, bytes.maketrans(ranks, bytes(b[lane] for b in code_bytes)))
        for lane in range(4)
        if any(b[lane] for b in code_bytes)
    )


def _encode_row(
    action_codes, base: int, width: int, row: "Dict[Symbol, Action]", terminal_id
) -> "Optional[List[int]]":
    """Write a Symbol-keyed ACTION dict row into *action_codes* at *base*.

    Returns the row's key order as terminal IDs when it differs from
    :func:`placement_order`, else None (for the table's ``row_order``).
    """
    order = []
    for terminal, action in row.items():
        tid = terminal_id(terminal)
        action_codes[base + tid] = encode_action(action)
        order.append(tid)
    if len(order) > 1 and order != placement_order(action_codes[base : base + width]):
        return order
    return None


def _fill_lr0_based(
    automaton: LR0Automaton,
    method: str,
    lookahead_mask_for: "callable",
    budget=None,
) -> ParseTable:
    """Fill the ACTION/GOTO code arrays walking the automaton's integer
    core, one state row at a time (see :class:`_CodeFiller`)."""
    return _fill(
        automaton.grammar,
        method,
        automaton.states,
        partial(_lr0_row, lookahead_mask_for),
        budget,
    )


def _lr0_row(lookahead_mask_for: "callable", state) -> tuple:
    """An LR(0) state's ``add_state`` arguments."""
    state_id = state.state_id
    return (
        state_id,
        state.out_sids,
        state.targets,
        [
            (item.production, lookahead_mask_for((state_id, item.production)))
            for item in state.reductions
            if item.production != 0
        ],
    )


def _fill(grammar: Grammar, method: str, states, row_of, budget) -> ParseTable:
    """The fill loop every construction shares: one ``budget.tick()``
    and one :meth:`_CodeFiller.add_state` per state."""
    filler = _CodeFiller(grammar)
    if budget is not None:
        budget.enter_phase("table.fill")
    with instrument.span("table.fill"):
        for state in states:
            if budget is not None:
                budget.tick()
            filler.add_state(*row_of(state))
    if budget is not None:
        budget.publish()
    if instrument.enabled():
        instrument.count("table.states", len(states))
        instrument.count("table.action_cells", filler.populated)
        instrument.count("table.conflicts", len(filler.conflicts))
    return filler.table(method)


def refill_lalr_table(
    old_table: ParseTable,
    automaton: LR0Automaton,
    la_masks: Dict[ReductionSite, int],
    old_la_masks: Dict[ReductionSite, int],
    dirty: bytearray,
) -> ParseTable:
    """Rebuild only the table rows an rhs edit can have changed.

    A state's ACTION/GOTO row is a function of its transition row, its
    reduction items' LA masks, and the grammar's precedence
    declarations.  After a splice, a state that is not *dirty* shares
    its transition row object with the old automaton, and rhs-delta
    eligibility keeps grammar-level precedence fixed; so its row can be
    reused verbatim iff none of its reduction sites' LA masks changed.
    (A changed production's ``%prec`` cannot affect a clean state either:
    any state reducing by that production contains one of its items and
    is dirty by definition.)  Everything is assembled in state order, so
    the code arrays and the conflict list come out exactly as a
    from-scratch fill; clean runs of states are copied by slice.
    """
    states = automaton.states
    n_states = len(states)
    refill = bytearray(dirty)
    # Sites that appear or disappear belong to recomputed (dirty, hence
    # already marked) states, so scanning the old site list is enough.
    la_get = la_masks.get
    for site, old_mask in old_la_masks.items():
        if la_get(site) != old_mask:
            refill[site[0]] = 1

    def lookahead_mask(site: ReductionSite) -> int:
        return la_masks.get(site, 0)

    filler = _CodeFiller(automaton.grammar)
    conflicts = filler.conflicts
    reused = 0
    # ``old_table.conflicts`` is in state order (so is our output), so a
    # single pointer walks it: clean runs copy their slice of old
    # conflicts, a refilled state skips its old entries and regenerates.
    old_conflicts = old_table.conflicts
    n_old_conflicts = len(old_conflicts)
    conflict_ptr = 0
    with instrument.span("table.refill"):
        state_id = 0
        while state_id < n_states:
            boundary = refill.find(1, state_id)
            if boundary < 0:
                boundary = n_states
            if boundary > state_id:
                # Clean run [state_id, boundary): rows copied verbatim.
                filler.copy_rows(old_table, state_id, boundary)
                while (
                    conflict_ptr < n_old_conflicts
                    and old_conflicts[conflict_ptr].state < boundary
                ):
                    conflicts.append(old_conflicts[conflict_ptr])
                    conflict_ptr += 1
                reused += boundary - state_id
                state_id = boundary
                if state_id >= n_states:
                    break
            while (
                conflict_ptr < n_old_conflicts
                and old_conflicts[conflict_ptr].state <= state_id
            ):
                conflict_ptr += 1
            filler.add_state(*_lr0_row(lookahead_mask, states[state_id]))
            state_id += 1
    if instrument.enabled():
        instrument.count("phase.table.rows_reused", reused)
        instrument.count("phase.table.rows_refilled", n_states - reused)
    return filler.table("lalr1")


def build_clr_table(
    grammar: Grammar, lr1: "LR1Automaton | None" = None, budget=None
) -> ParseTable:
    """The canonical LR(1) table (Knuth), on the LR(1) automaton's states."""
    with instrument.span("table.build.clr1"):
        if lr1 is None:
            lr1 = LR1Automaton(
                grammar.augmented() if not grammar.is_augmented else grammar,
                budget=budget,
            )
        sid = lr1.grammar.ids.sid
        mask_of = _symbol_set_masker(lr1.grammar.ids)

        def clr_row(state) -> tuple:
            targets = {
                sid(symbol): successor
                for symbol, successor in state.transitions.items()
            }
            reductions = [
                (production, mask_of(lookaheads))
                for production, lookaheads in lr1.reductions(state.state_id)
                if production != 0
            ]
            return state.state_id, sorted(targets), targets, reductions

        return _fill(lr1.grammar, "clr1", lr1.states, clr_row, budget)


def _place(
    grammar: Grammar,
    actions_row: Dict[Symbol, Action],
    state_id: int,
    terminal: Symbol,
    new_action: Action,
    conflicts: List[Conflict],
) -> None:
    """Install *new_action* into a cell, resolving/recording conflicts."""
    existing = actions_row.get(terminal)
    if existing is None:
        actions_row[terminal] = new_action
        return
    if existing == new_action:
        return
    if existing.kind == "shift" and new_action.kind == "reduce":
        winner, resolved = resolve_shift_reduce(grammar, terminal, existing, new_action)
        conflicts.append(
            Conflict(state_id, terminal, "shift/reduce", [existing, new_action], winner, resolved)
        )
        if winner is None:
            del actions_row[terminal]
        else:
            actions_row[terminal] = winner
        return
    if existing.kind == "reduce" and new_action.kind == "reduce":
        # yacc rule: the earlier production wins; never precedence-resolved.
        winner = existing if existing.production <= new_action.production else new_action
        conflicts.append(
            Conflict(state_id, terminal, "reduce/reduce", [existing, new_action], winner, False)
        )
        actions_row[terminal] = winner
        return
    # reduce placed first, then shift discovered — normalise the ordering.
    if existing.kind == "reduce" and new_action.kind == "shift":
        winner, resolved = resolve_shift_reduce(grammar, terminal, new_action, existing)
        conflicts.append(
            Conflict(state_id, terminal, "shift/reduce", [new_action, existing], winner, resolved)
        )
        if winner is None:
            del actions_row[terminal]
        else:
            actions_row[terminal] = winner
        return
    if existing.kind == "accept" or new_action.kind == "accept":
        # Only cyclic grammars (S =>+ S) can pit accept against a reduce;
        # keep accept and report it as an unresolved shift/reduce-style
        # conflict so the classifier rejects such grammars.
        winner = existing if existing.kind == "accept" else new_action
        conflicts.append(
            Conflict(state_id, terminal, "shift/reduce", [existing, new_action], winner, False)
        )
        actions_row[terminal] = winner
        return
    raise AssertionError(
        f"impossible action pair in state {state_id}: {existing!r} vs {new_action!r}"
    )
