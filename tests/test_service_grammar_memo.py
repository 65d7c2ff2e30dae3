"""The service's corpus-grammar memo.

Corpus specs (``{"corpus": name}``) resolve to one shared, already
augmented and fingerprinted :class:`Grammar` per serving process (and
per pool worker).  These tests pin what that sharing must not change:
sessions edit a private copy, concurrent first requests build exactly
one grammar (and mint exactly one start symbol), and every request is
counted as shared or ingested in ``/metrics``, in-process and from pool
workers.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.grammar.fingerprint import grammar_fingerprint
from repro.grammar.symbols import AUGMENTED_START_SUFFIX, SymbolTable
from repro.grammars import corpus
from repro.service import (
    Client,
    ServiceThread,
    canonical_json,
    compile_result,
    fork_available,
    parse_result,
)
from repro.service.app import GrammarMemo, _grammar_from_spec


def _counters(client) -> dict:
    return client.get("/metrics?format=json").json()["counters"]


class TestSessionIsolation:
    def test_session_edits_never_reach_the_shared_grammar(self, tmp_path):
        with ServiceThread(cache_dir=str(tmp_path), hot_capacity=8) as thread:
            client = Client(thread.port)
            assert client.post("/parse", {"corpus": "expr", "input": "id"}).status == 200
            memo = thread.service.grammars
            shared = memo.corpus("expr")
            symbols_before = len(shared.symbols)
            fingerprint_before = grammar_fingerprint(shared.augmented())

            # ``F -> zork``: the edit interns a brand-new terminal.
            response = client.post("/analyze", {
                "session": "iso", "corpus": "expr",
                "edits": [{"op": "set", "index": 6, "rhs": "zork"}],
            })
            assert response.status == 200
            assert "7 terminals" in response.json()["updates"][0]

            assert memo.corpus("expr") is shared
            assert len(shared.symbols) == symbols_before
            assert "zork" not in shared.symbols
            assert grammar_fingerprint(shared.augmented()) == fingerprint_before

            for text in ("id + id * id", "zork", "id + zork", "( id"):
                served = client.post("/parse", {"corpus": "expr", "input": text})
                direct = parse_result(corpus.load("expr"), text.split())
                assert served.body == canonical_json(direct), text
            served = client.post("/compile", {"corpus": "expr"})
            assert served.body == canonical_json(compile_result(corpus.load("expr")))

    def test_session_opened_first_does_not_leak_its_symbols(self, tmp_path):
        # The session builds and stores expr's table before any shared
        # request: later /parse requests get that table from the hot LRU,
        # bound to the session's base grammar, whose SymbolTable the edit
        # then grows.
        with ServiceThread(cache_dir=str(tmp_path), hot_capacity=8) as thread:
            client = Client(thread.port)
            response = client.post("/analyze", {
                "session": "first", "corpus": "expr",
                "edits": [{"op": "add", "lhs": "F", "rhs": "zork"}],
            })
            assert response.status == 200
            for text in ("zork", "id * zork"):
                served = client.post("/parse", {"corpus": "expr", "input": text})
                direct = parse_result(corpus.load("expr"), text.split())
                assert served.body == canonical_json(direct), text
            assert "zork" not in thread.service.grammars.corpus("expr").symbols


class TestConcurrentFirstRequests:
    def test_eight_threads_share_one_grammar_and_one_start_symbol(self, monkeypatch):
        # Widen the augmentation window so a resolution that augmented
        # outside the lock would mint several primed start symbols.
        mint = SymbolTable.fresh_nonterminal

        def slow_mint(self, base):
            time.sleep(0.005)
            return mint(self, base)

        monkeypatch.setattr(SymbolTable, "fresh_nonterminal", slow_mint)
        loads = []
        load = corpus.load

        def counted_load(name, augment=False):
            loads.append(name)
            time.sleep(0.005)
            return load(name, augment)

        monkeypatch.setattr(corpus, "load", counted_load)

        memo = GrammarMemo()
        barrier = threading.Barrier(8)
        results = [None] * 8

        def resolve(slot):
            barrier.wait()
            grammar = _grammar_from_spec({"corpus": "toy_java"}, memo)
            augmented = grammar.augmented()
            results[slot] = (grammar, augmented, grammar_fingerprint(augmented))

        threads = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

        assert loads == ["toy_java"]
        assert len({id(grammar) for grammar, _, _ in results}) == 1
        assert len({id(augmented) for _, augmented, _ in results}) == 1
        assert len({fingerprint for _, _, fingerprint in results}) == 1
        grammar = results[0][0]
        primed = [s.name for s in grammar.symbols if s.name.endswith(AUGMENTED_START_SUFFIX)]
        assert primed == [grammar.start.name + AUGMENTED_START_SUFFIX]


class TestMemoCounters:
    def test_shared_and_ingested_counts_in_process(self, tmp_path):
        with ServiceThread(cache_dir=str(tmp_path)) as thread:
            client = Client(thread.port)
            for _ in range(3):
                client.post("/parse", {"corpus": "expr", "input": "id + id"})
            client.post("/compile", {"corpus": "expr"})
            client.post("/analyze", {"corpus": "json"})
            client.post("/compile", {"grammar": "S -> a S | b", "name": "text"})
            client.post("/analyze", {"session": "s", "corpus": "expr"})
            assert client.post("/compile", {"corpus": "nope"}).status == 422
            counters = _counters(client)
        # expr: one ingestion, three shared; json: one ingestion; the
        # text spec and the session's private copy are ingested; the
        # unknown name counts as neither.
        assert counters["service.grammar.shared"] == 3
        assert counters["service.grammar.ingested"] == 4

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_pool_workers_fold_their_counts_back(self, tmp_path):
        with ServiceThread(
            cache_dir=str(tmp_path), cache_backend="bin", pool_workers=2
        ) as thread:
            client = Client(thread.port)
            for _ in range(6):
                response = client.post("/parse", {"corpus": "expr", "input": "id"})
                assert response.status == 200
            counters = _counters(client)
        # Round-robin: three requests per worker, each worker ingests once.
        assert counters["service.grammar.ingested"] == 2
        assert counters["service.grammar.shared"] == 4
