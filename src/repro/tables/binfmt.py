"""Versioned binary parse-table format — the zero-copy startup path.

JSON table entries (:mod:`repro.tables.serialize`) pay a full parse +
Symbol-dict reconstruction on every load.  This module stores the same
information — the table's code arrays plus the full conflict log,
resolved and unresolved alike — as a **packed binary artifact** that a
service worker can attach to instantly:

- a fixed header (magic, format version, ID-layout version, dimensions,
  a CRC-32 of the payload) plus the grammar fingerprint and method name;
- two ``int32`` sections — a :class:`~repro.tables.table.ParseTable`'s
  ``action_codes`` (``n_states x num_terminals``) and ``goto_codes``
  (``n_states x num_nonterminals``, ``-1`` = absent) exactly as they
  sit in memory — written little-endian, then the conflict section.

Saving writes the arrays' buffers as they are: no per-cell encoding and
no payload copy on little-endian hosts.  Loading ``mmap``\\ s the file
and casts the sections to flat int views (`memoryview.cast`) without
parsing anything; a :class:`BinaryTable` is a ParseTable over those
views, so its rows decode lazily, on first touch, through the same
views a freshly built table uses, and the engine and diagnostics cannot
tell the two apart.

Every defect — bad magic, foreign format or ID-layout version, grammar
fingerprint mismatch, truncation, payload corruption (CRC), dimension
mismatch — raises :class:`~repro.tables.serialize.TableCacheError`, so
the cache layer treats binary entries exactly like JSON ones: evict and
rebuild, never crash.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import tempfile
import zlib
from array import array
from typing import List, Optional, Tuple

from ..grammar.grammar import Grammar
from ..grammar.symbols import ID_LAYOUT_VERSION
from .conflicts import Conflict
from .serialize import TableCacheError, grammar_fingerprint
from .table import ActionDecoder, ParseTable, encode_action

__all__ = [
    "BINARY_FORMAT_VERSION",
    "BINARY_SUFFIX",
    "BinaryTable",
    "load_binary_table",
    "save_binary_table",
    "table_from_bytes",
    "table_to_bytes",
]

#: Bump on any layout change; readers reject foreign versions outright.
#: Bumped to 2 when the payload grew the trailing resolved-conflicts
#: section: version-1 artifacts reload precedence-resolved tables with
#: ``conflict_summary()["resolved"] == 0`` — evict and rebuild.
#: Bumped to 3 when the trailing section started carrying *unresolved*
#: conflicts too (each record gained a resolved flag), making conflicted
#: tables — the GLR engine's input — cacheable; version-2 artifacts
#: cannot represent them, so both directions evict and rebuild.
BINARY_FORMAT_VERSION = 3

#: File extension the cache uses to select the binary backend.
BINARY_SUFFIX = ".rtb"

_MAGIC = b"RPTB"
#: magic, format version, id-layout version, n_states, num_terminals,
#: num_nonterminals, n_productions, method length, payload CRC-32.
_HEADER = struct.Struct("<4sHHiiiiiI")
_FINGERPRINT_LEN = 64


def _le_section(codes):
    """*codes* as a little-endian int32 buffer — the array itself (no
    copy) on little-endian hosts."""
    if sys.byteorder == "little" and isinstance(codes, (array, memoryview)):
        return codes
    section = array("i", codes)
    if sys.byteorder == "big":  # pragma: no cover - exercised on BE hosts
        section.byteswap()
    return section


def _conflict_section(table: ParseTable) -> array:
    """The trailing variable-length section: the full conflict log.

    One record per conflict — [state, terminal_id, kind_tag,
    resolved_flag, chosen, n, *actions] (kind_tag 0 = shift/reduce, 1 =
    reduce/reduce; resolved_flag 1 = settled by precedence; chosen 0 =
    the cell was erased, %nonassoc-style).  Unresolved records are what
    let the GLR engine's nondet view rebuild its forked cells from a
    cache hit.  Empty for conflict-free tables, so their artifacts keep
    their exact bytes.
    """
    terminal_id = table.grammar.ids.terminal_id
    section = array("i")
    for conflict in table.conflicts:
        section.append(conflict.state)
        section.append(terminal_id(conflict.terminal))
        section.append(0 if conflict.kind == "shift/reduce" else 1)
        section.append(1 if conflict.resolved_by_precedence else 0)
        section.append(encode_action(conflict.chosen))
        section.append(len(conflict.actions))
        section.extend(encode_action(action) for action in conflict.actions)
    return section


def _artifact(table: ParseTable) -> "Tuple[bytes, list]":
    """(header + fingerprint + method, payload sections) of *table*'s
    artifact; the header's CRC-32 runs over the sections in turn."""
    ids = table.grammar.ids
    sections = [
        _le_section(table.action_codes),
        _le_section(table.goto_codes),
        _le_section(_conflict_section(table)),
    ]
    crc = 0
    for section in sections:
        crc = zlib.crc32(section, crc)
    method = table.method.encode("utf-8")
    fingerprint = grammar_fingerprint(table.grammar).encode("ascii")
    assert len(fingerprint) == _FINGERPRINT_LEN
    header = _HEADER.pack(
        _MAGIC,
        BINARY_FORMAT_VERSION,
        ID_LAYOUT_VERSION,
        table.n_states,
        ids.num_terminals,
        ids.num_nonterminals,
        len(table.grammar.productions),
        len(method),
        crc,
    )
    return header + fingerprint + method, sections


def table_to_bytes(table: ParseTable) -> bytes:
    """Serialise *table* into the binary artifact format."""
    head, sections = _artifact(table)
    return b"".join([head, *sections])


class BinaryTable(ParseTable):
    """A :class:`ParseTable` whose code arrays are ``int32`` views straight
    into a binary artifact (usually an mmap'd file): nothing is decoded
    until a row view is touched.  The conflict log (resolved and
    unresolved alike) is loaded eagerly, so a conflicted table off the
    cache drives the GLR engine exactly like a fresh build.
    """

    def __init__(
        self,
        grammar: Grammar,
        method: str,
        action_codes,
        goto_codes,
        conflicts: "List[Conflict]",
        backing: "Optional[object]" = None,
    ):
        super().__init__(grammar, method, action_codes, goto_codes, conflicts)
        # Keep the mmap (and its file) alive as long as the table: the
        # code arrays are views straight into it.
        self._backing = backing

    def close(self) -> None:
        """Detach from the backing mmap (the table becomes unusable for
        states not yet decoded); idempotent."""
        backing = self._backing
        self._backing = None
        if backing is not None:
            backing.close()


def _flat_int_view(buffer: "memoryview"):
    """*buffer* (little-endian int32 bytes) as an indexable int sequence.

    On little-endian hosts this is a zero-copy ``memoryview.cast('i')``;
    big-endian hosts fall back to one byte-swapped ``array('i')`` copy.
    """
    if sys.byteorder == "little":
        return buffer.cast("i")
    section = array("i")  # pragma: no cover - exercised on BE hosts
    section.frombytes(buffer.tobytes())
    section.byteswap()
    return section


def table_from_bytes(
    data: "bytes | memoryview",
    grammar: Grammar,
    backing: "Optional[object]" = None,
) -> BinaryTable:
    """Attach a :class:`BinaryTable` to *data*, verifying every header
    field against *grammar*.  Raises :class:`TableCacheError` on any
    structural defect; *backing* (an open mmap) is kept alive by the
    returned table."""
    view = memoryview(data)
    if len(view) < _HEADER.size + _FINGERPRINT_LEN:
        raise TableCacheError(
            f"truncated binary table: {len(view)} bytes is smaller than the header"
        )
    (
        magic,
        format_version,
        id_layout,
        n_states,
        num_terminals,
        num_nonterminals,
        n_productions,
        method_len,
        payload_crc,
    ) = _HEADER.unpack_from(view, 0)
    if magic != _MAGIC:
        raise TableCacheError(f"not a binary parse table (magic {magic!r})")
    if format_version != BINARY_FORMAT_VERSION:
        raise TableCacheError(
            f"unsupported binary table format {format_version!r}"
        )
    if id_layout != ID_LAYOUT_VERSION:
        raise TableCacheError(
            f"binary table uses ID layout {id_layout}, current is {ID_LAYOUT_VERSION}"
        )
    offset = _HEADER.size
    fingerprint = bytes(view[offset : offset + _FINGERPRINT_LEN]).decode(
        "ascii", "replace"
    )
    if fingerprint != grammar_fingerprint(grammar):
        raise TableCacheError(
            "grammar fingerprint mismatch: the binary table was built from "
            "a different grammar (rebuild instead of loading the cache)"
        )
    offset += _FINGERPRINT_LEN
    ids = grammar.ids
    if (
        n_states < 0
        or num_terminals != ids.num_terminals
        or num_nonterminals != ids.num_nonterminals
        or n_productions != len(grammar.productions)
    ):
        raise TableCacheError(
            f"binary table dimensions ({n_states} states, "
            f"{num_terminals}x{num_nonterminals} symbols, "
            f"{n_productions} productions) do not match the grammar"
        )
    if method_len < 0 or len(view) < offset + method_len:
        raise TableCacheError("truncated binary table: method name cut short")
    method = bytes(view[offset : offset + method_len]).decode("utf-8", "replace")
    offset += method_len
    action_bytes = 4 * n_states * num_terminals
    goto_bytes = 4 * n_states * num_nonterminals
    conflict_bytes = len(view) - offset - action_bytes - goto_bytes
    if conflict_bytes < 0 or conflict_bytes % 4:
        raise TableCacheError(
            f"truncated binary table: expected at least "
            f"{offset + action_bytes + goto_bytes} bytes, have {len(view)}"
        )
    payload = view[offset:]
    if zlib.crc32(payload) != payload_crc:
        raise TableCacheError("corrupt binary table: payload CRC mismatch")
    actions_flat = _flat_int_view(payload[:action_bytes])
    gotos_flat = _flat_int_view(payload[action_bytes : action_bytes + goto_bytes])
    conflicts = _decode_conflict_section(
        _flat_int_view(payload[action_bytes + goto_bytes :]), grammar
    )
    return BinaryTable(grammar, method, actions_flat, gotos_flat, conflicts, backing)


def _decode_conflict_section(flat, grammar: Grammar) -> "List[Conflict]":
    """The trailing conflict records back into Conflict objects."""
    terminals = grammar.ids.terminals
    decoder = ActionDecoder()
    conflicts: "List[Conflict]" = []
    index = 0
    try:
        while index < len(flat):
            state, terminal_id, kind_tag, resolved, chosen, count = flat[
                index : index + 6
            ]
            index += 6
            if count < 2 or resolved not in (0, 1) or index + count > len(flat):
                raise TableCacheError(
                    "corrupt binary table: malformed conflict record"
                )
            conflicts.append(
                Conflict(
                    state,
                    terminals[terminal_id],
                    "shift/reduce" if kind_tag == 0 else "reduce/reduce",
                    [decoder.decode(flat[index + i]) for i in range(count)],
                    decoder.decode(chosen),
                    resolved_by_precedence=bool(resolved),
                )
            )
            index += count
    except (ValueError, IndexError) as error:
        raise TableCacheError(
            f"corrupt binary table: bad conflict section ({error})"
        ) from error
    return conflicts


def save_binary_table(table: ParseTable, path: str) -> int:
    """Write *table* to *path* in the binary format, atomically (temp
    file + ``os.replace``, mirroring the JSON writer).  Returns the
    artifact size in bytes."""
    head, sections = _artifact(table)
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    size = len(head)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(head)
            for section in sections:
                handle.write(section)
                size += memoryview(section).nbytes
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return size


class _MmapBacking:
    """Owns the (file, mmap) pair a loaded table reads through."""

    __slots__ = ("_file", "map")

    def __init__(self, path: str):
        self._file = open(path, "rb")
        try:
            self.map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # Empty or unmappable file: fall back to an in-memory read so
            # the format checks produce the usual TableCacheError.
            self.map = self._file.read()

    def close(self) -> None:
        if isinstance(self.map, mmap.mmap):
            try:
                self.map.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
        self._file.close()


def load_binary_table(path: str, grammar: Grammar) -> BinaryTable:
    """Load a table written by :func:`save_binary_table` for *grammar*.

    The file is mapped, not parsed: beyond one CRC pass over the payload,
    load cost is independent of table size.  Raises
    :class:`TableCacheError` for a damaged or foreign file;
    ``FileNotFoundError`` propagates unchanged so callers can distinguish
    "missing" from "damaged".
    """
    backing = _MmapBacking(path)
    try:
        return table_from_bytes(backing.map, grammar, backing=backing)
    except TableCacheError:
        backing.close()
        raise
