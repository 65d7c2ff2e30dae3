"""The build and parse phases: grammar text -> stored artifact, and
document text -> tree.

Each op calls the program's public functions in the order the program
itself calls them, reading the clock between calls.  A traced op turns
those readings into spans; an untraced op only sums them.  Every op's
output is checked right after it is timed, outside the timing.
"""

from __future__ import annotations

import os
import random
import statistics
from typing import Dict, List

from repro.automaton.lr0 import LR0Automaton
from repro.baselines.propagation import PropagationAnalysis
from repro.baselines.slr import SlrAnalysis
from repro.core import instrument
from repro.core.lalr import LalrAnalysis
from repro.grammar import load_grammar
from repro.grammars import corpus
from repro.parser import ParseError, Parser
from repro.parser.errors import LexError
from repro.tables import TableCache
from repro.tables.binfmt import load_binary_table, save_binary_table
from repro.tables.build import build_lalr_table

import pb_inputs
from pb_trace import Pace, Tracer, clock

#: instrument span -> per-layer child name.
CORE_CHILDREN = {
    "lalr.relations": "core.relations",
    "lalr.digraph.reads": "core.digraph_reads",
    "lalr.digraph.includes": "core.digraph_includes",
    "lalr.la": "core.la",
}


class Failures:
    """Ops attempted and ops failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


# ---------------------------------------------------------------------------
# Build: text -> LR(0) -> look-aheads -> table -> stored binary artifact
# ---------------------------------------------------------------------------


class BuildPhase:
    def __init__(self, workload: str, seed: int, workdir: str, failures: Failures,
                 pace: Pace):
        self.pace = pace
        self.entries = pb_inputs.build_inputs(workload, seed)
        self.cache = TableCache(os.path.join(workdir, "build"), backend="bin")
        self.failures = failures
        #: Per finished pass: (pace unit, wall seconds) per grammar.
        self.passes: List[List[tuple]] = []
        self.counters: "Dict[str, int] | None" = None
        self._checked: set = set()
        self._next = 0
        self._pass_steps: List[tuple] = []
        self._pass_counters = self._zero_counters()

    @staticmethod
    def _zero_counters() -> "Dict[str, int]":
        return {"grammars": 0, "states": 0, "edges": 0, "populated_cells": 0,
                "dense_cells": 0, "artifact_bytes": 0}

    def step(self, tracer: Tracer, traced: bool) -> None:
        """Build the next grammar of the current pass; a finished pass
        goes to :attr:`passes`."""
        entry = self.entries[self._next]
        seconds = self._build(entry, tracer, traced, self._pass_counters)
        self._pass_steps.append((self.pace.unit, seconds))
        self._next += 1
        if self._next < len(self.entries):
            return
        counters = self._pass_counters
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self.failures.record(False, f"build counters changed between passes: "
                                        f"{self.counters} vs {counters}")
        self.passes.append(self._pass_steps)
        self._next, self._pass_steps, self._pass_counters = 0, [], self._zero_counters()

    def run_pass(self, tracer: Tracer, traced: bool) -> None:
        """One whole pass over the workload's grammars."""
        passes = len(self.passes)
        while len(self.passes) == passes:
            self.step(tracer, traced)

    def pass_seconds(self) -> List[float]:
        """Seconds per finished pass, at the reference pace."""
        return [sum(seconds * self.pace.factor(unit) for unit, seconds in steps)
                for steps in self.passes]

    def _build(self, entry: dict, tracer: Tracer, traced: bool, counters: dict) -> float:
        text = entry["text"]
        t0 = clock()
        grammar = load_grammar(text)
        t1 = clock()
        augmented = grammar.augmented()
        t2 = clock()
        automaton = LR0Automaton(augmented)
        t3 = clock()
        if traced:
            with instrument.profile() as core_prof:
                analysis = LalrAnalysis(augmented, automaton)
        else:
            analysis = LalrAnalysis(augmented, automaton)
        t4 = clock()
        if traced:
            with instrument.profile() as table_prof:
                table = build_lalr_table(augmented, automaton, la_masks=analysis.la_masks)
        else:
            table = build_lalr_table(augmented, automaton, la_masks=analysis.la_masks)
        t5 = clock()
        stored = self.cache.store(table)
        t6 = clock()

        if traced:
            b0 = clock()
            op = tracer.op("build", t0, t6)
            tracer.child(op, "grammar.ingest", t0, t1)
            tracer.child(op, "grammar.augment", t1, t2)
            tracer.child(op, "automaton.lr0", t2, t3)
            core = tracer.child(op, "core.lookahead", t3, t4)
            phases = core_prof.phase_totals()
            for source, name in CORE_CHILDREN.items():
                tracer.sub(core, name, phases.get(source, 0.0))
            build = tracer.child(op, "tables.build", t4, t5)
            fill = table_prof.phase_totals().get("table.fill", 0.0)
            tracer.sub(build, "tables.fill", fill)
            tracer.sub(build, "tables.construct", (t5 - t4) - fill)
            tracer.child(op, "tables.store", t5, t6)
            tracer.charge(b0)

        # -- checks and exact counters, outside the timing --
        ids = augmented.ids
        stats = analysis.relations.stats()
        path = self.cache.path_for(augmented, "lalr1")
        counters["grammars"] += 1
        counters["states"] += len(automaton.states)
        counters["edges"] += stats["reads_edges"] + stats["includes_edges"] + stats["lookback_edges"]
        counters["populated_cells"] += table.size_cells()
        counters["dense_cells"] += table.n_states * (ids.num_terminals + ids.num_nonterminals)
        counters["artifact_bytes"] += os.path.getsize(path) if stored else 0
        ok = stored and table.is_deterministic == entry["deterministic"]
        reason = f"{entry['label']}: stored={stored} deterministic={table.is_deterministic}"
        if ok and entry["label"] not in self._checked:
            # Once per grammar per run: the artifact here, the look-ahead
            # sets by compare_lookaheads in a child process.
            self._checked.add(entry["label"])
            entry["la_masks"] = [[s, p, m] for (s, p), m in analysis.la_masks.items()]
            ok, reason = self._check_artifact(entry, augmented, table, path)
        self.failures.record(ok, reason)
        return t6 - t0

    @staticmethod
    def instrument_cost(pairs: int = 40) -> float:
        """Seconds a traced build op spends on the program's own
        ``instrument`` spans: the median of interleaved traced - untraced
        builds of the JSON grammar (the spans per build do not grow with
        the grammar)."""
        augmented = corpus.load("json").augmented()
        automaton = LR0Automaton(augmented)
        differences = []
        for _ in range(pairs):
            t0 = clock()
            with instrument.profile():
                analysis = LalrAnalysis(augmented, automaton)
            with instrument.profile():
                build_lalr_table(augmented, automaton, la_masks=analysis.la_masks)
            t1 = clock()
            analysis = LalrAnalysis(augmented, automaton)
            build_lalr_table(augmented, automaton, la_masks=analysis.la_masks)
            differences.append((t1 - t0) - (clock() - t1))
        return statistics.median(differences)

    @staticmethod
    def _check_artifact(entry, augmented, table, path):
        """The stored artifact loads back equal to the table."""
        loaded = load_binary_table(path, augmented)
        try:
            n = table.n_states
            states = range(n) if n <= 256 else random.Random(n).sample(range(n), 256)
            same = loaded.n_states == n and all(
                list(loaded.action_rows[s]) == list(table.action_rows[s])
                and list(loaded.goto_rows[s]) == list(table.goto_rows[s])
                for s in states
            )
        finally:
            loaded.close()
        if not same:
            return False, f"{entry['label']}: stored artifact differs from the table"
        return True, ""


def reference_lookaheads(kind: str, text: str) -> "Dict[tuple, int]":
    """LA masks of *text* from an analysis independent of DeRemer-Pennello.

    ``expression_family`` uses SLR(1) FOLLOW sets, which equal its LALR(1)
    sets on every site: PropagationAnalysis takes about a minute there.
    """
    augmented = load_grammar(text).augmented()
    automaton = LR0Automaton(augmented)
    if kind == "expression_family":
        reference = SlrAnalysis(augmented, automaton)
    else:
        reference = PropagationAnalysis(augmented, automaton)
    terminal_id = augmented.ids.terminal_id
    masks = {}
    for site, terminals in reference.lookahead_table().items():
        mask = 0
        for terminal in terminals:
            mask |= 1 << terminal_id(terminal)
        masks[site] = mask
    return masks


def compare_lookaheads(entries: "List[dict]") -> "List[str]":
    """Problems found comparing each entry's LA masks with the reference."""
    problems = []
    for entry in entries:
        ours = {(s, p): m for s, p, m in entry["la_masks"]}
        theirs = reference_lookaheads(entry["kind"], entry["text"])
        bad = [site for site in set(ours) | set(theirs)
               if ours.get(site, 0) != theirs.get(site, 0)]
        if bad:
            problems.append(f"{entry['label']}: {len(bad)} LA sets differ from the reference")
    return problems


# ---------------------------------------------------------------------------
# Parse: text -> tokens -> tree, on tables loaded from artifacts
# ---------------------------------------------------------------------------


def json_fold(root):
    """The Python value a JSON parse tree denotes (iterative: long lists
    make left-recursive trees deeper than the recursion limit)."""
    constants = {"true": True, "false": False, "null": None}
    results: Dict[int, object] = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if not done:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
            continue
        name = node.symbol.name
        kids = node.children
        if node.is_leaf:
            value = constants.get(name, node.value)
        elif name == "value":
            value = results.pop(id(kids[0]))
        elif name in ("object", "array"):
            items = results.pop(id(kids[1]))
            value = dict(items) if name == "object" else items
            results.pop(id(kids[0]), None)
            results.pop(id(kids[2]), None)
        elif name in ("members", "elements"):
            value = results.pop(id(kids[0])) if kids else []
        elif name in ("member_list", "element_list"):
            if len(kids) == 1:
                value = [results.pop(id(kids[0]))]
            else:
                value = results.pop(id(kids[0]))
                results.pop(id(kids[1]), None)
                value.append(results.pop(id(kids[2])))
        elif name == "member":
            results.pop(id(kids[0]), None)
            results.pop(id(kids[1]), None)
            value = (kids[0].value, results.pop(id(kids[2])))
        else:
            raise ValueError(f"unexpected node {name}")
        results[id(node)] = value
    return results[id(root)]


def tree_yield(root) -> str:
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(node.value)
        else:
            stack.extend(reversed(node.children))
    return " ".join(out)


class ParsePhase:
    def __init__(self, seed: int, n_blocks: int, workdir: str, failures: Failures,
                 tracer: Tracer, pace: Pace):
        self.failures = failures
        self.pace = pace
        self.parsers: Dict[str, Parser] = {}
        self.lexers = {}
        self.loaded = []
        directory = os.path.join(workdir, "parse")
        os.makedirs(directory, exist_ok=True)
        users = {}
        for name in pb_inputs.PARSE_GRAMMARS:
            grammar = corpus.load(name)
            users[name] = grammar
            augmented = grammar.augmented()
            path = os.path.join(directory, f"{name}.rtb")
            save_binary_table(build_lalr_table(augmented), path)
            t0 = clock()
            table = load_binary_table(path, augmented)
            t1 = clock()
            if tracer.enabled:
                tracer.child(tracer.op("setup.load", t0, t1), "tables.load", t0, t1)
            self.loaded.append(table)
            self.parsers[name] = Parser(table)
            self.lexers[name] = pb_inputs.make_lexer(name, augmented)
        self.blocks = pb_inputs.parse_blocks(seed, n_blocks, users)
        self.docs = [doc for block in self.blocks for doc in block]
        self.blocks_done = 0
        # Per-op records: (wall ms, tokens, lex seconds, parse seconds,
        # rejected, traced, pace unit); one block is one pace unit.
        self.records: List[tuple] = []
        self._seen: Dict[int, tuple] = {}

    def close(self) -> None:
        for table in self.loaded:
            table.close()

    def run_block(self, tracer: Tracer, traced: bool) -> None:
        index = self.blocks_done % len(self.blocks)
        self.blocks_done += 1
        for offset, doc in enumerate(self.blocks[index]):
            self._parse(index * 1000 + offset, doc, tracer, traced)

    def block_rates(self) -> List[float]:
        """Tokens per second of lex + parse time at the reference pace,
        per block."""
        blocks: Dict[int, list] = {}
        for _, tokens, lex_s, parse_s, _, _, unit in self.records:
            block = blocks.setdefault(unit, [0, 0.0])
            block[0] += tokens
            block[1] += lex_s + parse_s
        return [tokens / (seconds * self.pace.factor(unit))
                for unit, (tokens, seconds) in blocks.items()]

    def doc_ms(self) -> List[float]:
        """Milliseconds per document at the reference pace."""
        return [r[0] * self.pace.factor(r[6]) for r in self.records]

    def _parse(self, key: int, doc: dict, tracer: Tracer, traced: bool) -> None:
        lexer = self.lexers[doc["grammar"]]
        parser = self.parsers[doc["grammar"]]
        text = doc["text"]
        tree = None
        problem = ""
        t0 = clock()
        try:
            tokens = lexer.tokenize(text)
        except LexError as error:
            tokens, problem = [], f"lex error: {error}"
        t1 = clock()
        try:
            tree = parser.parse(tokens)
        except ParseError:
            pass
        t2 = clock()
        rejected = tree is None
        if traced:
            b0 = clock()
            op = tracer.op("parse", t0, t2)
            tracer.child(op, "parser.lex", t0, t1)
            tracer.child(op, "parser.reject" if rejected else "parser.parse", t1, t2)
            tracer.charge(b0)
        self.records.append(((t2 - t0) * 1e3, len(tokens), t1 - t0, t2 - t1, rejected, traced,
                             self.pace.unit))

        # -- checks, outside the timing --
        if problem:
            ok = False
        elif rejected != (not doc["accept"]):
            ok, problem = False, f"verdict {'reject' if rejected else 'accept'}, reference says otherwise"
        elif rejected:
            ok = True
        elif doc["grammar"] == "json":
            ok = json_fold(tree) == doc["value"]
            problem = "JSON fold differs from json.loads"
        else:
            ok = tree_yield(tree) == text
            problem = "tree yield differs from the input"
        observed = (len(tokens), rejected)
        if self._seen.setdefault(key, observed) != observed:
            ok, problem = False, "a document gave different tokens or verdict on a second visit"
        self.failures.record(ok, f"{doc['grammar']}: {problem}")

    def count_pass(self) -> "Dict[str, int]":
        """Exact counters over one cycle of the document pool, with the
        engine's ``parse.*`` counters on (outside any timing)."""
        counters = {"docs": 0, "tokens": 0, "shifts": 0, "reduces": 0, "rejects": 0}
        for doc in self.docs:
            tokens = self.lexers[doc["grammar"]].tokenize(doc["text"])
            with instrument.profile() as prof:
                try:
                    self.parsers[doc["grammar"]].parse(tokens)
                except ParseError:
                    counters["rejects"] += 1
            counters["docs"] += 1
            counters["tokens"] += len(tokens)
            counters["shifts"] += prof.counters.get("parse.shifts", 0)
            counters["reduces"] += prof.counters.get("parse.reduces", 0)
        return counters


def percentile(values: "List[float]", q: float) -> float:
    """The *q*-quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values):
    return statistics.median(values) if values else float("nan")
