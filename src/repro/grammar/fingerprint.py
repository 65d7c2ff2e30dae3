"""Content fingerprints for grammars and productions — one hashing home.

Three subsystems used to hash grammars independently: the table cache
keyed entries on :func:`grammar_fingerprint` (then private to
:mod:`repro.tables.serialize`), the fuzz corpus derived failure
identities from the grammar's arrow text, and the incremental pipeline
needs per-production content hashes to compose per-phase input keys.
This module is the single source for all of them.

Stability contracts:

- :func:`grammar_fingerprint` is **byte-for-byte stable** with the
  payload the table cache has always used — existing on-disk cache
  entries keep hitting across this refactor (asserted by the cache-key
  stability test).
- :func:`text_fingerprint` reproduces the corpus failure-identity digest
  (``sha256(part1 + b"\\x00" + part2 + ...)``) so persisted corpus
  filenames stay valid.

Per-production fingerprints are *content* hashes: they cover the rule
itself (lhs, rhs spelling, effective precedence symbol) but not the
production's index, so reordering-insensitive comparisons and the
writer/reader roundtrip test can reason per rule.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

from .grammar import Grammar
from .production import Production
from .symbols import ID_LAYOUT_VERSION

__all__ = [
    "grammar_fingerprint",
    "grammar_content_key",
    "grammar_text",
    "production_fingerprint",
    "production_fingerprints",
    "text_fingerprint",
]


def grammar_fingerprint(grammar: Grammar) -> str:
    """A stable hash of the grammar's rules, start symbol and precedence.

    The symbol-ID layout version is part of the payload: a change to how
    dense IDs are assigned re-keys every cached table, because the
    ID-indexed rows rebuilt at load time must match the layout the table
    was validated under.

    The digest is computed once per grammar object (grammars are
    immutable after construction) and kept on it, keyed by the layout
    version it was taken under.
    """
    cached = grammar._fingerprint
    if cached is not None and cached[0] == ID_LAYOUT_VERSION:
        return cached[1]
    payload = {
        "id_layout": ID_LAYOUT_VERSION,
        "start": grammar.start.name,
        "productions": [
            [p.lhs.name, [s.name for s in p.rhs],
             p.prec_symbol.name if p.prec_symbol else None]
            for p in grammar.productions
        ],
        "precedence": sorted(
            (s.name, prec.level, prec.assoc.value)
            for s, prec in grammar.precedence.items()
        ),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()
    grammar._fingerprint = (ID_LAYOUT_VERSION, digest)
    return digest


#: The in-memory session memo key is the same digest: one sha256 over one
#: serialised blob, cheap enough to compute per edit.
grammar_content_key = grammar_fingerprint


def production_fingerprint(production: Production) -> str:
    """Content hash of one rule: lhs, rhs spelling, effective %prec.

    Index-free on purpose — two grammars that state the same rule at
    different positions yield the same per-rule digest, which is what the
    writer/reader roundtrip and delta diagnostics compare.
    """
    payload = [
        production.lhs.name,
        [s.name for s in production.rhs],
        production.prec_symbol.name if production.prec_symbol else None,
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def production_fingerprints(grammar: Grammar) -> List[str]:
    """Per-production content hashes, in production order."""
    return [production_fingerprint(p) for p in grammar.productions]


def text_fingerprint(*parts: str) -> str:
    """sha256 over *parts* joined by NUL bytes — the corpus identity shape.

    ``text_fingerprint(oracle, text)`` reproduces the historical failure
    fingerprint ``sha256(oracle + b"\\x00" + text)`` exactly.
    """
    digest = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            digest.update(b"\x00")
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def grammar_text(grammar: Grammar) -> str:
    """The grammar's canonical arrow text minus ``%name`` lines.

    This is the *structural* spelling fuzz-failure identities hash: the
    grammar name carries the generating seed and must not distinguish
    otherwise-identical failures.
    """
    from .writer import write_arrow

    return "\n".join(
        line
        for line in write_arrow(grammar).splitlines()
        if not line.startswith("%name ")
    )
