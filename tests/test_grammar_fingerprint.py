"""Unit tests: content fingerprints and the writer/reader roundtrip.

``repro.grammar.fingerprint`` is the single hashing authority: the
on-disk table cache key, the in-memory session memo key and the fuzz
failure-corpus identity all derive from it.  These tests pin the
properties those consumers rely on — content-only (names and object
identity don't matter), layout-versioned, and preserved bit-for-bit by
a ``write_arrow`` → ``load_grammar`` roundtrip.
"""

import hashlib

import pytest

from repro.grammar import load_grammar, write_arrow
from repro.grammar.delta import replace_rhs
from repro.grammar.fingerprint import (
    grammar_content_key,
    grammar_fingerprint,
    grammar_text,
    production_fingerprint,
    production_fingerprints,
    text_fingerprint,
)
from repro.grammars import corpus
from repro.grammars.random_gen import random_grammar

EXPR = """
E -> E + T | T
T -> T * F | F
F -> ( E ) | id
"""


class TestGrammarFingerprint:
    def test_content_equal_means_fingerprint_equal(self):
        first = load_grammar(EXPR, name="one")
        second = load_grammar(EXPR, name="two")
        assert grammar_fingerprint(first) == grammar_fingerprint(second)

    def test_name_is_not_part_of_the_content(self):
        # Generated grammars carry their seed in the name; cache hits
        # across runs require the digest to ignore it.
        first = load_grammar(EXPR, name="seed-1")
        second = load_grammar(EXPR, name="seed-2")
        assert grammar_fingerprint(first) == grammar_fingerprint(second)

    def test_rhs_edit_changes_the_fingerprint(self):
        grammar = load_grammar(EXPR).augmented()
        edited = replace_rhs(grammar, 6, ["("])
        assert grammar_fingerprint(grammar) != grammar_fingerprint(edited)

    def test_production_order_matters(self):
        first = load_grammar("S -> a\nS -> b")
        second = load_grammar("S -> b\nS -> a")
        assert grammar_fingerprint(first) != grammar_fingerprint(second)

    def test_memo_key_is_the_same_digest(self):
        assert grammar_content_key is grammar_fingerprint

    def test_hex_shape(self):
        digest = grammar_fingerprint(load_grammar(EXPR))
        assert len(digest) == 64
        int(digest, 16)


def _count_grammar_hashes(monkeypatch) -> list:
    """Record every sha256 the fingerprint module takes from here on."""
    from types import SimpleNamespace

    from repro.grammar import fingerprint

    calls = []

    def sha256(blob=b""):
        calls.append(blob)
        return hashlib.sha256(blob)

    monkeypatch.setattr(fingerprint, "hashlib", SimpleNamespace(sha256=sha256))
    return calls


class TestFingerprintOncePerGrammar:
    def test_repeat_calls_reuse_the_digest(self, monkeypatch):
        calls = _count_grammar_hashes(monkeypatch)
        grammar = load_grammar(EXPR).augmented()
        first = grammar_fingerprint(grammar)
        assert grammar_fingerprint(grammar) == first
        assert grammar_fingerprint(load_grammar(EXPR).augmented()) == first
        assert len(calls) == 2  # once per grammar object

    @pytest.mark.parametrize("backend", ["json", "bin"])
    def test_a_compile_miss_hashes_the_grammar_once(self, monkeypatch, tmp_path, backend):
        # TableCache.load, TableCache.store, the artifact writer and the
        # /compile body all need the digest.
        from repro.service import compile_result
        from repro.tables import TableCache

        cache = TableCache(str(tmp_path), backend=backend)
        calls = _count_grammar_hashes(monkeypatch)
        result = compile_result(load_grammar(EXPR, name="expr"), cache=cache)
        assert cache.stores == 1
        assert len(calls) == 1
        assert result["fingerprint"] == hashlib.sha256(calls[0]).hexdigest()


class TestProductionFingerprint:
    def test_index_free(self):
        # The same rule stated at different positions hashes the same.
        first = load_grammar("S -> a\nS -> b")
        second = load_grammar("S -> b\nS -> a")
        assert set(production_fingerprints(first)) == set(
            production_fingerprints(second)
        )
        assert production_fingerprints(first) != production_fingerprints(second)

    def test_in_production_order(self):
        grammar = load_grammar(EXPR)
        assert production_fingerprints(grammar) == [
            production_fingerprint(p) for p in grammar.productions
        ]


class TestTextFingerprint:
    def test_reproduces_the_historical_corpus_identity(self):
        # The corpus has hashed sha256(oracle + b"\x00" + grammar_text)
        # since its first commit; dedupe against old entries requires
        # the shared helper to produce the identical digest.
        oracle, text = "lalr-vs-clr", "S -> a S | b\n"
        expected = hashlib.sha256(
            oracle.encode() + b"\x00" + text.encode()
        ).hexdigest()
        assert text_fingerprint(oracle, text) == expected

    def test_parts_are_not_concatenated_blindly(self):
        assert text_fingerprint("ab", "c") != text_fingerprint("a", "bc")

    def test_grammar_text_strips_name_lines(self):
        grammar = load_grammar(EXPR, name="seed-42")
        assert "%name" not in grammar_text(grammar)


def _roundtrip_case_names():
    return [entry.name for entry in corpus.all_entries()]


class TestWriterRoundtripPreservesFingerprints:
    """Satellite property: serialising a grammar and reading it back
    preserves every per-production fingerprint *and their order* —
    i.e. the writer is lossless for everything the content hash sees."""

    @pytest.mark.parametrize("name", _roundtrip_case_names())
    def test_corpus_roundtrip(self, name):
        original = corpus.load(name)
        reparsed = load_grammar(write_arrow(original))
        assert production_fingerprints(reparsed) == production_fingerprints(
            original
        )
        assert grammar_fingerprint(reparsed) == grammar_fingerprint(original)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_grammar_roundtrip(self, seed):
        original = random_grammar(seed)
        reparsed = load_grammar(write_arrow(original))
        assert production_fingerprints(reparsed) == production_fingerprints(
            original
        )
        assert grammar_fingerprint(reparsed) == grammar_fingerprint(original)
