"""The serve phase: ``repro serve`` in its own process, two closed-loop
clients on keep-alive connections, and (traced run only) an in-process
replay of the same requests through the layers the service calls.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import statistics
import subprocess
import sys
import threading
from typing import Dict, List, Optional

from repro.core.lalr import LalrAnalysis
from repro.grammar import load_grammar
from repro.grammar.delta import replace_rhs
from repro.grammar.fingerprint import grammar_fingerprint
from repro.grammars import corpus
from repro.parser import GlrParser, ParseError, Parser
from repro.pipeline import AnalysisSession
from repro.service.protocol import canonical_json
from repro.tables import TableCache, build_lalr_table, specialized_view

import pb_inputs
from pb_trace import Pace, Tracer, clock

CLIENTS = 2
#: Request blocks per round.  A round sends every corpus grammar through
#: each request kind a whole number of times, so runs of whole rounds
#: have the same mix whatever the seed.  The unit of work (and of pacing)
#: is one block per client, so that the pace is probed every ~0.1 s.
ROUND_BLOCKS = 20
#: Blocks per client replayed in-process by the traced run.
REPLAY_BLOCKS = 12


def die_with_parent() -> None:
    """In a child: ask Linux to SIGTERM it when the benchmark dies."""
    try:
        import ctypes
        import signal

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


class Server:
    """``python -m repro serve`` on a free port with a fresh cache dir."""

    def __init__(self, root: str, workdir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env.pop("REPRO_TABLE_CACHE", None)
        env.pop("REPRO_NO_TABLE_CACHE", None)
        self.log_path = os.path.join(workdir, "server.log")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", os.path.join(workdir, "server-cache"), "--workers", "1"],
            stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=root,
            preexec_fn=die_with_parent,
        )
        try:
            self.port = self._read_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(timeout):
                raise RuntimeError("server did not announce its port")
            line = self.proc.stdout.readline().decode()
        finally:
            selector.close()
        if "serving on http://" not in line:
            raise RuntimeError(f"unexpected server output {line!r}")
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()
        self._log.close()


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: "Optional[bytes]" = None):
        """``(status, body bytes, send end, receive end)``; reconnects and
        re-raises on a transport error."""
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            sent = clock()
            response = self.conn.getresponse()
            data = response.read()
            return response.status, data, sent, clock()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            raise

    def metrics(self) -> dict:
        status, data, _, _ = self.call("GET", "/metrics?format=json")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def reference_answers() -> "Dict[str, dict]":
    """Per corpus grammar: the conflict verdict its hand-written class
    implies, the state count and the reads-cycle verdict."""
    answers = {}
    for name in corpus.names():
        table = build_lalr_table(corpus.load(name).augmented())
        answers[name] = {
            "deterministic": pb_inputs.expected_deterministic(name),
            "states": table.n_states,
            "not_lr_k": corpus.entry(name).expected_not_lr_k,
        }
    return answers


#: Most states one session edit may recompute.  Small splices keep the
#: cost of an edit alike across seeds.
MAX_DIRTY_STATES = 8


def session_plans() -> "Dict[int, dict]":
    """Each client's edit cycle, with the from-scratch answer for every
    version; the first cycle whose edits all splice at most
    :data:`MAX_DIRTY_STATES` states is kept."""
    plans = {}
    for client in range(CLIENTS):
        name = pb_inputs.SESSION_GRAMMARS[client % len(pb_inputs.SESSION_GRAMMARS)]
        base = corpus.load(name).augmented()
        for index, versions in pb_inputs.session_cycle(base, client):
            session = AnalysisSession(base)
            # The clients' order: versions 1..9, 0, 1, ...
            for step in range(1, len(versions) + 2):
                rhs = versions[step % len(versions)].split()
                report = session.update(replace_rhs(session.grammar, index, rhs))
                if report.strategy != "splice" or report.dirty_states > MAX_DIRTY_STATES:
                    break
            else:
                break
        else:
            raise RuntimeError(f"no splicing edit cycle found for {name}")
        expected = []
        for rhs in versions:
            table = build_lalr_table(replace_rhs(base, index, rhs.split()))
            summary = table.conflict_summary()
            expected.append({
                "states": table.n_states,
                "deterministic": table.is_deterministic,
                "conflicts": {k: summary[k] for k in ("shift_reduce", "reduce_reduce", "resolved")},
            })
        plans[client] = {"grammar": name, "id": f"client{client}-{name}",
                         "production": index, "versions": versions, "expected": expected}
    return plans


def check_reply(spec: "pb_inputs.ServeSpec", client: int, op: dict, status: int, data: dict) -> str:
    """Empty when the reply is right, else why not."""
    if status != 200:
        return f"{op['kind']} {op['name']}: HTTP {status}"
    kind = op["kind"]
    ref = spec.reference[op["name"]]
    if kind == "parse":
        good = data.get("valid") is True and (ref["deterministic"] or data.get("trees", 0) >= 1)
    elif kind in ("hit", "miss"):
        good = data.get("deterministic") == ref["deterministic"] and data.get("states") == ref["states"]
    elif kind == "analyze":
        good = data.get("lr0_states") == ref["states"] and data.get("not_lr_k") == ref["not_lr_k"]
    else:  # "edit", or "open" for the request that opens the session
        expected = spec.sessions[client]["expected"][op["version"]]
        updates = data.get("updates") or [""]
        good = (all(data.get(k) == v for k, v in expected.items())
                and (kind == "open" or updates[0].startswith("splice")))
    return "" if good else f"{kind} {op['name']}: wrong reply {json.dumps(data)[:200]}"


class ServePhase:
    def __init__(self, root: str, workdir: str, seed: int, traced: bool, failures,
                 pace: Pace):
        self.pace = pace
        self.spec = pb_inputs.ServeSpec(seed, reference_answers(), session_plans())
        self.server = Server(root, workdir)
        self.connections = [Connection(self.server.port) for _ in range(CLIENTS)]
        try:
            self._warm_up(failures)
        except BaseException:
            self.close()
            raise
        self.replay: "Optional[Replay]" = (
            Replay(self.spec, os.path.join(workdir, "replay-cache")) if traced else None
        )
        self._streams = [self.spec.blocks(client) for client in range(CLIENTS)]
        self._block_index = [0] * CLIENTS
        # (kind, wall ms, pace unit) per completed request
        self.latencies: List[tuple] = []
        # (pace unit, wall seconds) per block, per client
        self.block_seconds: List[List[tuple]] = [[] for _ in range(CLIENTS)]
        #: Blocks each client has sent.
        self.blocks_done = 0
        self.bodies: Dict[tuple, bytes] = {}
        self.before: dict = {}
        self.after: dict = {}

    def _warm_up(self, failures) -> None:
        """Every corpus grammar compiled and parsed once, and each
        client's session opened: the store and the code paths are warm."""
        conn = self.connections[0]
        for name in self.spec.names:
            ref = self.spec.reference[name]
            op = {"kind": "hit", "name": name, "path": "/compile",
                  "payload": {"corpus": name}}
            self._warm_call(conn, 0, op, failures)
            payload = {"corpus": name, "input": self.spec.sentences[name][0]}
            if not ref["deterministic"]:
                payload["engine"] = "glr"
            op = {"kind": "parse", "name": name, "path": "/parse", "payload": payload}
            self._warm_call(conn, 0, op, failures)
        for client, plan in self.spec.sessions.items():
            op = {"kind": "open", "name": plan["grammar"], "path": "/analyze",
                  "version": 0, "payload": {"session": plan["id"], "corpus": plan["grammar"]}}
            self._warm_call(self.connections[client], client, op, failures)

    def _warm_call(self, conn, client, op, failures) -> None:
        status, data, _, _ = conn.call("POST", op["path"], pb_inputs.ServeSpec.body(op))
        reply = json.loads(data)
        reason = check_reply(self.spec, client, op, status, reply)
        failures.record(not reason, f"warm-up: {reason}")

    def close(self) -> None:
        for conn in self.connections:
            conn.close()
        self.server.stop()

    def begin(self) -> None:
        """Snapshot ``/metrics`` before the first round."""
        self.before = self.connections[0].metrics()

    def step(self, failures, tracer: Tracer, traced: bool) -> None:
        """Every client sends its next block of requests, all clients at
        once."""
        results: List[dict] = [dict() for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._client, args=(c, traced, results[c]))
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.blocks_done += 1
        b0 = clock()
        unit = self.pace.unit
        for client, result in enumerate(results):
            if "error" in result:
                failures.record(False, f"client {client} stopped: {result['error']}")
            self.latencies.extend((kind, ms, unit) for kind, ms in result["latencies"])
            self.block_seconds[client].append((unit, result["seconds"]))
            self.bodies.update(result["bodies"])
            for ok, reason in result["checks"]:
                failures.record(ok, reason)
            for t0, sent, t1, t2 in result["spans"]:
                op = tracer.op("http", t0, t2)
                tracer.child(op, "http.request", t0, sent)
                tracer.child(op, "http.response", sent, t1)
                tracer.child(op, "http.decode", t1, t2)
        if traced:
            tracer.charge(b0)

    def latencies_ms(self, kind: "Optional[str]" = None) -> List[float]:
        """Client-side ms per request (of *kind*), at the reference pace."""
        return [ms * self.pace.factor(unit) for k, ms, unit in self.latencies
                if kind is None or k == kind]

    def requests_per_second(self) -> float:
        """Each client's requests per block over its median block time at
        the reference pace, summed over the clients."""
        per_block = len(pb_inputs.BLOCK_MIX)
        return sum(
            per_block / statistics.median(seconds * self.pace.factor(unit)
                                          for unit, seconds in blocks)
            for blocks in self.block_seconds
        )

    def finish(self, failures, tracer: Tracer, traced: bool) -> None:
        """Snapshot ``/metrics`` after the last block; replay (traced)."""
        self.after = self.connections[0].metrics()
        if traced and self.replay is not None:
            self.replay.run(self, tracer, failures)

    def _client(self, client: int, traced: bool, result: dict) -> None:
        conn = self.connections[client]
        stream = self._streams[client]
        latencies, checks, spans, bodies = [], [], [], {}
        result.update(latencies=latencies, checks=checks, spans=spans, bodies=bodies)
        start = clock()
        try:
            block_index = self._block_index[client]
            self._block_index[client] += 1
            for offset, op in enumerate(next(stream)):
                body = pb_inputs.ServeSpec.body(op)
                t0 = clock()
                try:
                    status, data, sent, t1 = conn.call("POST", op["path"], body)
                    reply = json.loads(data)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    checks.append((False, f"{op['kind']} {op['name']}: {error!r}"))
                    continue
                t2 = clock()
                latencies.append((op["kind"], (t1 - t0) * 1e3))
                if traced:
                    spans.append((t0, sent, t1, t2))
                if block_index < REPLAY_BLOCKS:
                    bodies[(client, block_index, offset)] = data
                reason = check_reply(self.spec, client, op, status, reply)
                checks.append((not reason, reason))
        except Exception as error:  # noqa: BLE001 - reported as a failed op
            result["error"] = repr(error)
        result["seconds"] = clock() - start

    # -- /metrics deltas ---------------------------------------------------

    def delta(self, section: str, name: str) -> float:
        return self.after.get(section, {}).get(name, 0) - self.before.get(section, {}).get(name, 0)

    def counters(self) -> "Dict[str, int]":
        """Exact per-block counters: stores and splices per request block."""
        blocks = max(self.blocks_done * CLIENTS, 1)
        stores = self.delta("cache", "stores")
        splices = self.delta("sessions", "splice")
        return {"stores_per_block": stores / blocks,
                "splices_per_block": splices / blocks}


class Replay:
    """The serve mix replayed in-process through the layers the service
    calls, each call a span (traced run only)."""

    def __init__(self, spec: "pb_inputs.ServeSpec", cache_dir: str):
        self.spec = spec
        self.cache = TableCache(cache_dir, hot_capacity=32)
        for name in spec.names:
            self.cache.load_or_build(corpus.load(name).augmented(), "lalr1", build_lalr_table)
        self.sessions = {
            client: AnalysisSession(corpus.load(plan["grammar"]).augmented(), table_cache=self.cache)
            for client, plan in spec.sessions.items()
        }
        self.ops = 0
        self.duplicate_fingerprint = 0.0

    def run(self, phase: ServePhase, tracer: Tracer, failures) -> None:
        blocks_per_client = min(REPLAY_BLOCKS, phase.blocks_done)
        for client in range(CLIENTS):
            stream = self.spec.blocks(client)
            for block_index in range(blocks_per_client):
                block = next(stream)
                for offset, op in enumerate(block):
                    body = self._replay(client, op, tracer)
                    served = phase.bodies.get((client, block_index, offset))
                    if served is not None:
                        failures.record(body == served, f"replayed {op['kind']} {op['name']} "
                                                        f"differs from the served bytes")

    def _replay(self, client: int, op: dict, tracer: Tracer) -> bytes:
        kind = op["kind"]
        payload = op["payload"]
        marks = []
        t0 = clock()
        if kind == "edit":
            session = self.sessions[client]
            edit = payload["edits"][0]
            edited = replace_rhs(session.grammar, edit["index"], edit["rhs"].split())
            marks.append(("grammar.edit", clock()))
            report = session.update(edited)
            marks.append(("pipeline.update", clock()))
            table = session.table
            summary = table.conflict_summary()
            result = {
                "session": payload["session"], "grammar": session.grammar.name,
                "states": table.n_states, "deterministic": table.is_deterministic,
                "conflicts": {k: summary[k] for k in ("shift_reduce", "reduce_reduce", "resolved")},
                "updates": [report.describe()], "strategies": dict(session.strategy_counts),
            }
        else:
            if kind == "miss":
                grammar = load_grammar(payload["grammar"], name=payload["name"])
            else:
                grammar = corpus.load(op["name"])
            marks.append(("grammar.ingest", clock()))
            augmented = grammar.augmented()
            t_aug = clock()
            fingerprint = grammar_fingerprint(augmented) if kind != "analyze" else None
            marks.append(("grammar.fingerprint", clock()))
            if kind == "parse":
                self.duplicate_fingerprint += marks[-1][1] - t_aug
            if kind == "analyze":
                analysis = LalrAnalysis(augmented)
                result = {"grammar": grammar.name, "lr0_states": len(analysis.automaton),
                          "not_lr_k": analysis.not_lr_k, "lookaheads": analysis.describe()}
                marks.append(("core.analyze", clock()))
            else:
                table = self.cache.load_or_build(augmented, "lalr1", build_lalr_table)
                marks.append(("tables.lookup" if kind != "miss" else "tables.miss_build", clock()))
                if kind == "parse":
                    result = self._parse(grammar, table, payload, marks)
                else:
                    summary = table.conflict_summary()
                    result = {
                        "grammar": grammar.name, "method": "lalr1", "fingerprint": fingerprint,
                        "states": table.n_states, "deterministic": table.is_deterministic,
                        "conflicts": {k: summary[k] for k in ("shift_reduce", "reduce_reduce", "resolved")},
                    }
        body = canonical_json(result)
        marks.append(("service.encode", clock()))
        b0 = clock()
        self.ops += 1
        span = tracer.op("replay", t0, marks[-1][1])
        start = t0
        for name, end in marks:
            tracer.child(span, name, start, end)
            start = end
        tracer.charge(b0)
        return body

    @staticmethod
    def _parse(grammar, table, payload, marks) -> dict:
        tokens = payload["input"].split()
        if payload.get("engine") == "glr":
            try:
                forest = GlrParser(table).parse_forest(tokens)
            except ParseError as error:
                result = {"grammar": grammar.name, "valid": False, "error": str(error)}
            else:
                result = {"grammar": grammar.name, "valid": True,
                          "trees": forest.tree_count(limit=1000)}
            marks.append(("parser.serve_parse", clock()))
            return result
        view = specialized_view(table)
        marks.append(("tables.specialize", clock()))
        try:
            Parser(view).parse(tokens)
            result = {"grammar": grammar.name, "valid": True}
        except ParseError as error:
            result = {"grammar": grammar.name, "valid": False, "error": str(error)}
        marks.append(("parser.serve_parse", clock()))
        return result
