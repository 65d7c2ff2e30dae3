"""Standalone-parser code generation.

What makes a library a parser *generator*: emit a self-contained Python
module — tables plus a driver, no ``repro`` import — from any
:class:`~repro.tables.table.ParseTable`.  The emitted module exposes:

- ``parse(tokens, reduce_fn=None, shift_fn=None)`` — the LR driver;
  tokens are ``(terminal_name, value)`` pairs or bare terminal names,
  consumed **lazily** from the iterable (unbounded generators work;
  memory stays O(parse stack)).  Without callbacks it returns nested
  ``(production_index, children...)`` tuples; leaves are token values.
- ``PRODUCTIONS`` — ``(lhs_name, rhs_length, rhs_names)`` per production,
  so reduce callbacks can dispatch (identical across styles).
- ``SyntaxErrorLR`` — the error type, carrying position and expected
  set.  Expected sets hold *display* names: the end marker is spelled
  ``"end of input"``, matching the engine's diagnostics exactly (the
  test suite asserts message parity on the corpus).
- ``accepts(tokens)`` — True iff the input is a sentence.

Three table **styles** (``generate_parser_module(..., style=...)``):

- ``"dict"`` — per-state dicts keyed by symbol name (``ACTIONS`` /
  ``GOTOS``), the most readable output;
- ``"dense"`` — flat ``array('i')`` ACTION/GOTO matrices indexed by
  ``state * width + id`` with the integer action encoding of
  :mod:`repro.tables.displace`;
- ``"displace"`` — the dense matrices comb-packed into shared
  check/value arrays with per-state displacements (the smallest output
  on large grammars).

The emitted text is deterministic for a given (table, style), making
generated parsers diff-friendly — and letting the test suite assert
reproducibility.
"""

from __future__ import annotations

import io
from array import array
from typing import List

from .displace import DisplacedTable
from .table import ParseTable

#: Styles accepted by :func:`generate_parser_module`.
STYLES = ("dict", "dense", "displace")

_COMMON = '''
class SyntaxErrorLR(Exception):
    """Raised on invalid input: position, offending name, expected names.

    ``expected`` holds display names: the end marker is spelled
    "end of input", never the internal terminal name.
    """

    def __init__(self, position, token_name, expected):
        super().__init__(
            "syntax error at position %d: unexpected %s; expected one of: %s"
            % (position, token_name, ", ".join(sorted(expected)) or "<nothing>")
        )
        self.position = position
        self.token_name = token_name
        self.expected = expected


def _display(name):
    return "end of input" if name == END else name


def _stream(tokens):
    # Lazily normalise the token iterable: tokens are pulled one at a
    # time, so unbounded generators work and peak memory stays
    # O(parse stack), never O(input length).  The end marker is appended
    # without materialising the input.
    for token in tokens:
        if isinstance(token, str):
            yield token, token
        else:
            name, value = token
            yield name, value
    yield END, None


def accepts(tokens):
    """True iff the token iterable is a sentence of the grammar."""
    try:
        parse(tokens)
    except SyntaxErrorLR:
        return False
    return True
'''

_DICT_DRIVER = '''
def _expected(state):
    return set(map(_display, ACTIONS[state]))


def parse(tokens, reduce_fn=None, shift_fn=None):
    """Parse a token iterable; see the module docstring for conventions."""
    if reduce_fn is None:
        reduce_fn = lambda production_index, children: tuple(
            [production_index] + list(children)
        )
    if shift_fn is None:
        shift_fn = lambda name, value: value

    stream = _stream(tokens)
    state_stack = [0]
    value_stack = []
    position = 0
    name, value = next(stream)
    while True:
        action = ACTIONS[state_stack[-1]].get(name)
        if action is None:
            raise SyntaxErrorLR(
                position, _display(name), _expected(state_stack[-1])
            )
        kind = action[0]
        if kind == "s":
            value_stack.append(shift_fn(name, value))
            state_stack.append(action[1])
            position += 1
            name, value = next(stream)
        elif kind == "r":
            production_index = action[1]
            lhs_name, arity, _ = PRODUCTIONS[production_index]
            if arity:
                children = value_stack[-arity:]
                del value_stack[-arity:]
                del state_stack[-arity:]
            else:
                children = []
            value_stack.append(reduce_fn(production_index, children))
            state_stack.append(GOTOS[state_stack[-1]][lhs_name])
        else:  # accept
            return value_stack[0]
'''

_DENSE_LOOKUPS = '''
def _action(state, tid):
    return ACTIONS[state * T_COUNT + tid]


def _goto(state, nt_id):
    return GOTOS[state * N_COUNT + nt_id]
'''

_DISPLACE_LOOKUPS = '''
def _action(state, tid):
    slot = ACTION_DISP[state] + tid
    if 0 <= slot < ACTION_SLOTS and ACTION_CHECK[slot] == state:
        return ACTION_VALUE[slot]
    return 0


def _goto(state, nt_id):
    slot = GOTO_DISP[state] + nt_id
    if 0 <= slot < GOTO_SLOTS and GOTO_CHECK[slot] == state:
        return GOTO_VALUE[slot]
    return -1
'''

_PACKED_DRIVER = '''
def _expected(state):
    return {
        _display(TERMINALS[t]) for t in range(T_COUNT) if _action(state, t)
    }


def parse(tokens, reduce_fn=None, shift_fn=None):
    """Parse a token iterable; see the module docstring for conventions."""
    if reduce_fn is None:
        reduce_fn = lambda production_index, children: tuple(
            [production_index] + list(children)
        )
    if shift_fn is None:
        shift_fn = lambda name, value: value

    stream = _stream(tokens)
    state_stack = [0]
    value_stack = []
    position = 0
    name, value = next(stream)
    tid = TERMINAL_ID.get(name)
    while True:
        code = _action(state_stack[-1], tid) if tid is not None else 0
        if not code:
            raise SyntaxErrorLR(
                position, _display(name), _expected(state_stack[-1])
            )
        tag = code & 3
        if tag == 1:  # shift
            value_stack.append(shift_fn(name, value))
            state_stack.append(code >> 2)
            position += 1
            name, value = next(stream)
            tid = TERMINAL_ID.get(name)
        elif tag == 2:  # reduce
            production_index = code >> 2
            arity = PRODUCTIONS[production_index][1]
            if arity:
                children = value_stack[-arity:]
                del value_stack[-arity:]
                del state_stack[-arity:]
            else:
                children = []
            value_stack.append(reduce_fn(production_index, children))
            state_stack.append(_goto(state_stack[-1], LHS_NT[production_index]))
        else:  # accept
            return value_stack[0]
'''


def _emit_int_array(out: "io.StringIO", name: str, values: "array | List[int]") -> None:
    cells = list(values)
    if not cells:
        out.write(f"{name} = array('i', [])\n")
        return
    out.write(f"{name} = array('i', [\n")
    for start in range(0, len(cells), 12):
        chunk = ", ".join(str(v) for v in cells[start : start + 12])
        out.write(f"    {chunk},\n")
    out.write("])\n")


def _emit_productions(out: "io.StringIO", table: ParseTable) -> None:
    out.write("PRODUCTIONS = [\n")
    for production in table.grammar.productions:
        rhs_names = tuple(s.name for s in production.rhs)
        out.write(
            f"    ({production.lhs.name!r}, {len(production.rhs)}, {rhs_names!r}),\n"
        )
    out.write("]\n\n")


def _emit_dict_tables(out: "io.StringIO", table: ParseTable) -> None:
    out.write("ACTIONS = [\n")
    for state in range(table.n_states):
        cells: List[str] = []
        for terminal, action in sorted(
            table.actions[state].items(), key=lambda kv: kv[0].name
        ):
            if action.kind == "shift":
                cells.append(f"{terminal.name!r}: ('s', {action.state})")
            elif action.kind == "reduce":
                cells.append(f"{terminal.name!r}: ('r', {action.production})")
            else:
                cells.append(f"{terminal.name!r}: ('a',)")
        out.write("    {" + ", ".join(cells) + "},\n")
    out.write("]\n\n")

    out.write("GOTOS = [\n")
    for state in range(table.n_states):
        cells = [
            f"{nonterminal.name!r}: {target}"
            for nonterminal, target in sorted(
                table.gotos[state].items(), key=lambda kv: kv[0].name
            )
        ]
        out.write("    {" + ", ".join(cells) + "},\n")
    out.write("]\n\n")


def _emit_packed_prelude(out: "io.StringIO", table: ParseTable) -> None:
    """The symbol/production metadata both packed styles share."""
    ids = table.grammar.ids
    out.write("from array import array\n\n")
    out.write(f"T_COUNT = {ids.num_terminals}\n")
    out.write(f"N_COUNT = {ids.num_nonterminals}\n\n")
    names = ", ".join(repr(t.name) for t in ids.terminals)
    out.write(f"TERMINALS = [{names}]\n")
    out.write(
        "TERMINAL_ID = {name: tid for tid, name in enumerate(TERMINALS)}\n\n"
    )
    num_terminals = ids.num_terminals
    lhs_nt = [p.lhs_sid - num_terminals for p in table.grammar.productions]
    _emit_int_array(out, "LHS_NT", lhs_nt)
    out.write("\n")


def _emit_dense_tables(out: "io.StringIO", table: ParseTable) -> None:
    _emit_int_array(out, "ACTIONS", table.action_codes)
    out.write("\n")
    _emit_int_array(out, "GOTOS", table.goto_codes)
    out.write("\n")


def _emit_displaced_tables(out: "io.StringIO", table: ParseTable) -> None:
    packed = DisplacedTable(table)
    for label, section in [
        ("ACTION_DISP", packed.action_displacements),
        ("ACTION_CHECK", packed.action_check),
        ("ACTION_VALUE", packed.action_values),
        ("GOTO_DISP", packed.goto_displacements),
        ("GOTO_CHECK", packed.goto_check),
        ("GOTO_VALUE", packed.goto_values),
    ]:
        _emit_int_array(out, label, section)
        out.write("\n")
    out.write(f"ACTION_SLOTS = {len(packed.action_check)}\n")
    out.write(f"GOTO_SLOTS = {len(packed.goto_check)}\n\n")


def generate_parser_module(
    table: ParseTable, name: str = "", style: str = "dict"
) -> str:
    """Render *table* as standalone Python source text.

    *style* selects the table representation: ``"dict"`` (per-state
    dicts), ``"dense"`` (flat ``array('i')`` matrices) or ``"displace"``
    (comb-packed arrays).  Parse results and diagnostics are identical
    across styles; only storage and lookup mechanics differ.
    """
    if style not in STYLES:
        raise ValueError(f"unknown codegen style {style!r} (known: {STYLES})")
    grammar = table.grammar
    if not grammar.is_augmented:
        raise ValueError("code generation expects a table over an augmented grammar")
    if table.unresolved_conflicts:
        raise ValueError(
            f"refusing to generate from a table with "
            f"{len(table.unresolved_conflicts)} unresolved conflicts"
        )

    out = io.StringIO()
    title = name or grammar.name or "grammar"
    out.write(f'"""LR parser for {title!r} — GENERATED, do not edit.\n\n')
    out.write(f"method: {table.method}; states: {table.n_states}; ")
    out.write(f"productions: {len(grammar.productions)}; style: {style}.\n")
    out.write('"""\n\n')
    out.write(f"END = {grammar.eof.name!r}\n\n")

    if style == "dict":
        _emit_productions(out, table)
        _emit_dict_tables(out, table)
        out.write(_COMMON.lstrip("\n"))
        out.write("\n")
        out.write(_DICT_DRIVER.lstrip("\n"))
    else:
        _emit_packed_prelude(out, table)
        _emit_productions(out, table)
        if style == "dense":
            _emit_dense_tables(out, table)
            lookups = _DENSE_LOOKUPS
        else:
            _emit_displaced_tables(out, table)
            lookups = _DISPLACE_LOOKUPS
        out.write(_COMMON.lstrip("\n"))
        out.write("\n")
        out.write(lookups.lstrip("\n"))
        out.write("\n")
        out.write(_PACKED_DRIVER.lstrip("\n"))
    return out.getvalue()


def write_parser_module(
    table: ParseTable, path: str, name: str = "", style: str = "dict"
) -> None:
    """Generate and write the module to *path*."""
    source = generate_parser_module(table, name, style=style)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
