"""Seeded inputs for every workload.

Everything the program receives is generated here from ``(workload,
seed)``: grammar texts, documents and sentences to parse, and the HTTP
request mix.  The seed changes names, values and order; it never
changes the *shape* of the work (the same grammar structures, the same
document size ladder, the same request mix per block), so runs with
different seeds measure the same amount of work.

The expected outcome of every input comes from a reference that is not
the code under test: stdlib ``json`` for JSON documents, the CYK
recogniser for token sentences, the corpus's hand-written classes for
``/compile``.
"""

from __future__ import annotations

import json
import random
import re
from typing import Dict, List, Tuple

from repro.analysis.derive import SentenceGenerator
from repro.grammar.symbols import EOF_NAME
from repro.grammar.writer import write_arrow
from repro.grammars import corpus, families
from repro.parser.cyk import CykRecognizer
from repro.parser.lexer import Lexer
from repro.tables.classify import GrammarClass

# ---------------------------------------------------------------------------
# Grammar texts for the build phase
# ---------------------------------------------------------------------------

#: Grammars each workload turns from text into a stored artifact.
BUILD_SETS: "Dict[str, List[Tuple[str, object]]]" = {
    "build-wide": [
        ("keyword_statement_family", 200),
        ("keyword_statement_family", 400),
        ("keyword_statement_family", 800),
        ("keyword_statement_family", 1600),
        ("nullable_chain_family", 1000),
    ],
    "build-deep": [
        ("expression_family", 300),
        ("unit_chain_family", 250),
        ("state_explosion_family", 12),
    ],
    "parse-text": [("corpus", "json"), ("corpus", "toy_java"), ("corpus", "algol_like")],
    "serve-mixed": [("corpus", name) for name in corpus.names()],
}

#: Grammar classes whose LALR(1) table has no unresolved conflict.
_LALR_CLASSES = (GrammarClass.LR0, GrammarClass.SLR1, GrammarClass.LALR1)


def expected_deterministic(name: str) -> bool:
    """Whether corpus grammar *name* should compile to a conflict-free
    LALR(1) table, from its hand-written class: LR(0)/SLR(1)/LALR(1), or
    a grammar whose precedence declarations settle every conflict."""
    entry = corpus.entry(name)
    return entry.expected_class in _LALR_CLASSES or "precedence" in entry.tags


def source_grammar(kind: str, arg):
    """The unrenamed grammar object behind one build-set entry."""
    if kind == "corpus":
        return corpus.load(arg)
    return getattr(families, kind)(arg)


def renamed_text(grammar, tag: str) -> str:
    """*grammar* in arrow format with every nonterminal renamed by *tag*.

    Renaming changes the text and the fingerprint but not the structure,
    so every seed builds automata and tables of identical size.
    """
    nonterminals = {s.name for s in grammar.nonterminals}
    lines = []
    for line in write_arrow(grammar).splitlines():
        words = line.split(" ")
        lines.append(
            " ".join(f"{w}_{tag}" if w in nonterminals else w for w in words)
        )
    return "\n".join(lines) + "\n"


def seed_tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))


def build_inputs(workload: str, seed: int) -> "List[dict]":
    """One entry per grammar of the workload's build pass."""
    rng = random.Random(f"{seed}:build:{workload}")
    entries = []
    for kind, arg in BUILD_SETS[workload]:
        grammar = source_grammar(kind, arg)
        label = arg if kind == "corpus" else f"{kind.replace('_family', '')}({arg})"
        entries.append(
            {
                "label": label,
                "kind": kind,
                "text": renamed_text(grammar, seed_tag(rng)),
                "deterministic": (
                    expected_deterministic(arg) if kind == "corpus" else True
                ),
            }
        )
    return entries


# ---------------------------------------------------------------------------
# Documents and sentences for the parse phase
# ---------------------------------------------------------------------------

#: Target token counts: JSON documents and token sentences per block.
#: Five 128-token JSON documents sit in the middle of every block's
#: latency order, so the median lands inside that cluster and not in a
#: gap between two size classes, where it would jump between runs.
JSON_SIZES = (8, 16, 32, 64, 128, 128, 128, 128, 128, 256, 512, 1024, 2048, 4096)
SENTENCE_SIZES = (16, 32, 64, 128, 256)
#: Sentence mutants come from these sizes, so the CYK reference stays cheap.
MUTANT_SENTENCE_SIZES = (16, 32, 64)
PARSE_GRAMMARS = ("json", "toy_java", "algol_like")
_SENTENCE_GRAMMARS = ("toy_java", "algol_like")
#: Grammars whose start symbol derives a list of items (toy_java's
#: compilation unit is a list of class declarations).
_CONCATENABLE = ("toy_java",)

_JSON_LEXEME = re.compile(
    r'"(?:\\.|[^"\\])*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|true|false|null|[{}\[\],:]'
)
_INDENTS = (None, 1, 2)
_JSON_MUTANT_MENU = ("{", "}", "[", "]", ",", ":", "0", '"k"', "true", "null")
_WORDS = ("alpha", "beta", "gamma", "delta", "lalr", "reads", "includes",
          "lookback", "digraph", "scc", "state", "item", "kernel", "goto")
_WORD_RE = re.compile(r"[A-Za-z]+")
_LEXEME_CLASSES = {"ID", "NUM", "STRING", "STRINGLIT"}


def make_lexer(name: str, grammar) -> Lexer:
    """The text -> token lexer for one parse grammar."""
    lexer = Lexer(grammar).skip(r"\s+")
    if name == "json":
        return (
            lexer.token("STRING", r'"(\\.|[^"\\])*"', convert=json.loads)
            .token(
                "NUMBER",
                r"-?\d+(\.\d+)?([eE][+-]?\d+)?",
                convert=lambda s: float(s) if any(c in s for c in ".eE") else int(s),
            )
            .keywords("true", "false", "null")
            .with_literals("{", "}", "[", "]", ",", ":")
        )
    words = [
        t.name for t in grammar.terminals
        if _WORD_RE.fullmatch(t.name) and t.name not in _LEXEME_CLASSES
    ]
    lexer.keywords(*words)
    lexer.token("ID", r"[A-Za-z_][A-Za-z0-9_]*")
    lexer.token("NUM", r"[0-9]+")
    string_class = "STRING" if "STRING" in grammar.symbols else "STRINGLIT"
    lexer.token(string_class, r'"[^"]*"')
    return lexer.with_literals()


def _json_scalar(rng: random.Random):
    roll = rng.random()
    if roll < 0.3:
        return rng.randint(-10**6, 10**6)
    if roll < 0.45:
        return round(rng.uniform(-1, 1) * 10 ** rng.randint(-4, 6), 4)
    if roll < 0.9:
        word = rng.choice(_WORDS)
        extra = rng.choice(("", "\n", '"q"', "\u00e9", "\\", " x"))
        return word + extra
    return rng.choice((True, False, None))


def _json_value(rng: random.Random, budget: int, depth: int = 0):
    """A JSON value of about *budget* tokens."""
    if budget < 6 or depth >= 9:
        return _json_scalar(rng)
    children = rng.randint(2, 8)
    as_object = rng.random() < 0.5
    per_child = 3 if as_object else 1  # key + ':' + ',' vs ','
    inner = budget - 2 - children * per_child
    if inner < children:
        children = max(1, (budget - 2) // (per_child + 1))
        inner = budget - 2 - children * per_child
    weights = [rng.random() + 0.1 for _ in range(children)]
    total = sum(weights)
    parts = [max(1, int(inner * w / total)) for w in weights]
    values = [_json_value(rng, part, depth + 1) for part in parts]
    if as_object:
        return {f"{rng.choice(_WORDS)}{i}": v for i, v in enumerate(values)}
    return values


def _mutate(rng: random.Random, items: list, menu) -> list:
    """One single-token edit in the last tenth of *items*: delete,
    duplicate, replace or swap.  Late errors make a rejected mutant cost
    about what its original costs, so mutants keep the latency order."""
    items = list(items)
    if not items:
        return [rng.choice(menu)]
    i = rng.randrange(len(items) * 9 // 10, len(items))
    op = rng.randrange(4)
    if op == 0:
        del items[i]
    elif op == 1:
        items.insert(i, items[i])
    elif op == 2:
        items[i] = rng.choice(menu)
    elif len(items) > 1:
        j = i + 1 if i + 1 < len(items) else i - 1
        items[i], items[j] = items[j], items[i]
    else:
        del items[i]
    return items


def _json_tokens(value) -> int:
    return len(_JSON_LEXEME.findall(json.dumps(value)))


def _json_sized(rng: random.Random, size: int) -> list:
    """A JSON array of exactly *size* tokens (*size* >= 3)."""
    budget = int(size * 0.8)
    while True:
        value = [_json_value(rng, budget)]
        count = _json_tokens(value)
        if count + 3 <= size or count == size:
            break
        budget = max(1, int(budget * 0.8))
    if (size - count) % 2:
        value.append([])  # ',' '[' ']'
        count += 3
    while count < size:
        value.append(_json_scalar(rng))  # ',' scalar
        count += 2
    return value


def _json_doc(rng: random.Random, size: int, mutant: bool, indent) -> dict:
    value = _json_sized(rng, size)
    text = json.dumps(value, indent=indent)
    if mutant:
        text = " ".join(_mutate(rng, _JSON_LEXEME.findall(text), _JSON_MUTANT_MENU))
    try:
        expected = json.loads(text)
        accept = True
    except ValueError:
        expected, accept = None, False
    return {"grammar": "json", "text": text, "accept": accept, "value": expected,
            "mutant": mutant}


class _SentenceSource:
    """Seeded terminal sentences of one grammar, rendered as text."""

    def __init__(self, name: str, grammar, rng: random.Random):
        self.name = name
        self.grammar = grammar
        self.rng = rng
        self.generator = SentenceGenerator(grammar, seed=rng.randrange(2**31))
        self.terminals = [t for t in grammar.terminals if t.name != EOF_NAME]
        self.cyk = None

    def names(self, size: int) -> "List[str]":
        """A derived sentence of about *size* terminals: within 10% (25%
        above 64 terminals) when one turns up in 100 draws."""
        tolerance = (0.1 if size <= 64 else 0.25) * size
        if self.name in _CONCATENABLE:
            # Sentences of these grammars are lists of items, so derived
            # sentences concatenate into longer ones.
            names: "List[str]" = []
            for _ in range(400):
                if len(names) >= size - tolerance:
                    break
                piece = self.generator.sentence(min(30, size - len(names)))
                if len(names) + len(piece) <= size + tolerance:
                    names.extend(s.name for s in piece)
            return names
        best = None
        budget = size
        for _ in range(100):
            names = [s.name for s in self.generator.sentence(max(1, int(budget)))]
            if best is None or abs(len(names) - size) < abs(len(best) - size):
                best = names
            if abs(len(names) - size) <= tolerance:
                break
            budget = min(budget * 1.05, 2 * size) if len(names) < size else max(budget * 0.95, 1)
        return best

    def lexeme(self, name: str) -> str:
        rng = self.rng
        if name == "ID":
            return "x" + "".join(rng.choice("abcdefghij") for _ in range(rng.randint(1, 4)))
        if name == "NUM":
            return str(rng.randint(0, 99999))
        if name in ("STRING", "STRINGLIT"):
            return f'"{rng.choice(_WORDS)}"'
        return name

    def doc(self, grammar_name: str, size: int, mutant: bool) -> dict:
        names = self.names(size)
        if mutant:
            names = _mutate(self.rng, names, [t.name for t in self.terminals])
            if self.cyk is None:
                self.cyk = CykRecognizer(self.grammar)
            accept = self.cyk.accepts(names)
        else:
            accept = True  # derived from the grammar
        text = " ".join(self.lexeme(name) for name in names)
        return {"grammar": grammar_name, "text": text, "accept": accept,
                "value": None, "mutant": mutant}


def parse_blocks(seed: int, n_blocks: int, grammars: "Dict[str, object]") -> "List[List[dict]]":
    """*n_blocks* blocks of documents; every block holds one document per
    size class of each grammar, two of them (one JSON, one sentence)
    replaced by single-token mutants, in seeded order.  Any run of whole
    blocks therefore has the same size distribution; *n_blocks* should
    be a multiple of three (the JSON layouts rotate)."""
    rng = random.Random(f"{seed}:parse")
    sources = {
        name: _SentenceSource(name, grammars[name], random.Random(f"{seed}:{name}"))
        for name in _SENTENCE_GRAMMARS
    }
    blocks = []
    for number in range(n_blocks):
        json_mutant = rng.randrange(len(JSON_SIZES))
        sentence_mutant = (rng.choice(_SENTENCE_GRAMMARS), rng.choice(MUTANT_SENTENCE_SIZES))
        # Compact and indented layouts rotate, so every three blocks give
        # each size every layout once (whitespace costs lexing time).
        block = [
            _json_doc(rng, size, i == json_mutant, _INDENTS[(number + i) % len(_INDENTS)])
            for i, size in enumerate(JSON_SIZES)
        ]
        for name in _SENTENCE_GRAMMARS:
            for size in SENTENCE_SIZES:
                block.append(
                    sources[name].doc(name, size, (name, size) == sentence_mutant)
                )
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# The HTTP request mix for the serve phase
# ---------------------------------------------------------------------------

#: One block of requests per client: ~70% parse, 10% compile hits,
#: 10% compile misses, 5% sessionless analyze, 5% session edits.
BLOCK_MIX = ("parse",) * 14 + ("hit",) * 2 + ("miss",) * 2 + ("analyze", "edit")
#: Grammars whose per-client session takes the single-production edits.
SESSION_GRAMMARS = ("toy_java", "algol_like")
#: Distinct grammar versions in one session's edit cycle; more than the
#: session memo holds (8), so every edit is a real splice.
SESSION_VERSIONS = 10
SENTENCES_PER_GRAMMAR = 32


class ServeSpec:
    """The seeded, per-client request streams and their expected answers.

    ``expect`` holds what each corpus grammar must compile to: its state
    count and conflict verdict.  ``sessions`` holds each client's edit
    cycle: the production edited, the rhs of every version, and the
    from-scratch answer for every version.
    """

    def __init__(self, seed: int, reference: "Dict[str, dict]", sessions: "Dict[int, dict]"):
        self.seed = seed
        self.names = corpus.names()
        self.reference = reference
        self.sessions = sessions
        rng = random.Random(f"{seed}:sentences")
        self.sentences = {}
        for name in self.names:
            generator = SentenceGenerator(corpus.load(name), seed=rng.randrange(2**31))
            self.sentences[name] = [
                " ".join(s.name for s in generator.sentence(30))
                for _ in range(SENTENCES_PER_GRAMMAR)
            ]

    def blocks(self, client: int):
        """An endless stream of request blocks for *client*."""
        rng = random.Random(f"{self.seed}:client:{client}")
        cycles = {kind: list(self.names) for kind in ("parse", "hit", "miss", "analyze")}
        for order in cycles.values():
            rng.shuffle(order)
        position = {kind: 0 for kind in cycles}
        version = 0
        block_index = 0
        while True:
            kinds = list(BLOCK_MIX)
            rng.shuffle(kinds)
            ops = []
            for kind in kinds:
                if kind == "edit":
                    version = (version + 1) % SESSION_VERSIONS
                    ops.append(self._edit_op(client, version))
                    continue
                order = cycles[kind]
                name = order[position[kind] % len(order)]
                position[kind] += 1
                ops.append(self._op(kind, name, rng, client, block_index))
            yield ops
            block_index += 1

    def _op(self, kind: str, name: str, rng: random.Random, client: int, block: int) -> dict:
        ref = self.reference[name]
        if kind == "parse":
            payload = {"corpus": name, "input": rng.choice(self.sentences[name])}
            if not ref["deterministic"]:
                payload["engine"] = "glr"
            return {"kind": kind, "name": name, "path": "/parse", "payload": payload}
        if kind == "hit":
            return {"kind": kind, "name": name, "path": "/compile",
                    "payload": {"corpus": name}}
        if kind == "miss":
            tag = f"c{client}b{block}{seed_tag(rng)}"
            return {"kind": kind, "name": name, "path": "/compile",
                    "payload": {"grammar": renamed_text(corpus.load(name), tag),
                                "name": f"{name}_{tag}"}}
        return {"kind": kind, "name": name, "path": "/analyze",
                "payload": {"corpus": name}}

    def _edit_op(self, client: int, version: int) -> dict:
        session = self.sessions[client]
        edit = {"op": "set", "index": session["production"],
                "rhs": session["versions"][version]}
        return {"kind": "edit", "name": session["grammar"], "path": "/analyze",
                "version": version,
                "payload": {"session": session["id"], "edits": [edit]}}

    @staticmethod
    def body(op: dict) -> bytes:
        return json.dumps(op["payload"], sort_keys=True).encode("utf-8")


def session_cycle(grammar, client: int):
    """A cycle of single-terminal substitutions on one production.

    Returns ``(production index, [rhs text per version])``; version 0 is
    the original rhs, so the cycle closes.  The caller keeps the first
    candidate whose edits all splice.  The candidates do not depend on
    the workload seed: checking them takes a session per candidate, and
    with a seeded order that search took 0.25-0.6 s of set-up depending
    on the seed.
    """
    rng = random.Random(f"session:{client}")
    terminals = sorted(t.name for t in grammar.terminals if t.name != EOF_NAME)
    candidates = []
    for production in grammar.productions[1:]:
        positions = [i for i, s in enumerate(production.rhs) if s.is_terminal]
        if positions:
            candidates.append((production.index, positions))
    rng.shuffle(candidates)
    for index, positions in candidates:
        rhs = [s.name for s in grammar.productions[index].rhs]
        position = rng.choice(positions)
        substitutes = [t for t in terminals if t != rhs[position]]
        rng.shuffle(substitutes)
        versions = [" ".join(rhs)]
        for terminal in substitutes[: SESSION_VERSIONS - 1]:
            edited = list(rhs)
            edited[position] = terminal
            versions.append(" ".join(edited))
        if len(versions) == SESSION_VERSIONS:
            yield index, versions
