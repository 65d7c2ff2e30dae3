#!/usr/bin/env python3
"""One benchmark for the whole system.

Run from the root of a checkout:

    python3 perfbench/run.py --workload build-wide --seed 1 --seconds 17 --trace 0

Every workload runs the same three phases, each loading different
layers, and gives each phase a different share of the run:

- build: grammar text -> LR(0) -> look-aheads -> table -> stored binary
  artifact (``grammar``, ``automaton``, ``core``, ``tables``);
- parse: document text -> tokens -> tree on tables loaded from artifacts
  (``tables``, ``parser``);
- serve: two closed-loop clients against ``repro serve`` in its own
  process (``service``, ``pipeline`` and everything below them).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from benchmark-side spans.  The last line of standard
output is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Share of the run each phase gets, and document blocks in the pool.
WORKLOADS = {
    "build-wide": {"shares": (0.7, 0.15, 0.15), "parse_blocks": 6},
    "build-deep": {"shares": (0.7, 0.15, 0.15), "parse_blocks": 6},
    "parse-text": {"shares": (0.15, 0.7, 0.15), "parse_blocks": 12},
    "serve-mixed": {"shares": (0.15, 0.15, 0.7), "parse_blocks": 6},
}
SETUP_PROBES = 3
PROBE_TIMEOUT = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=17.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "counters", "lookaheads"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the server is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from pb_trace import pin_to_one_cpu

    pin_to_one_cpu()
    if args.probe == "lookaheads":
        from pb_layers import compare_lookaheads

        print(json.dumps(compare_lookaheads(json.load(sys.stdin))))
        return 0
    if args.probe:
        return probe(args)
    return run(args)


# ---------------------------------------------------------------------------
# Set-up: every phase's inputs, artifacts and the server
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, workload: str, seed: int, traced: bool):
        from pb_layers import BuildPhase, Failures, ParsePhase
        from pb_serve import ServePhase
        from pb_trace import Pace, Tracer

        self.workload = workload
        self.traced = traced
        self.tracer = Tracer(traced)
        self.pace = Pace(not traced)
        self.failures = Failures()
        work_root = os.path.join(ROOT, ".perfbench_work")
        self.workdir = os.path.join(work_root, f"{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.workdir)
        self.build = self.parse = self.serve = None
        try:
            self.build = BuildPhase(workload, seed, self.workdir, self.failures, self.pace)
            self.parse = ParsePhase(seed, WORKLOADS[workload]["parse_blocks"],
                                    self.workdir, self.failures, self.tracer, self.pace)
            self.serve = ServePhase(ROOT, self.workdir, seed, traced, self.failures, self.pace)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.serve is not None:
            self.serve.close()
        if self.parse is not None:
            self.parse.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass

    def counters(self, with_serve: bool = True) -> dict:
        counters = {"build": dict(self.build.counters or {}),
                    "parse": self.parse.count_pass()}
        if with_serve:
            counters["serve"] = self.serve.counters()
        return counters


def probe(args) -> int:
    """Child process: set up, say READY, optionally compute the exact
    counters of one build pass and one document-pool cycle, tear down."""
    bench = Bench(args.workload, args.seed, traced=False)
    try:
        print("READY", flush=True)
        if args.probe == "counters":
            bench.build.run_pass(bench.tracer, traced=False)
            print("COUNTERS " + json.dumps(bench.counters(with_serve=False), sort_keys=True),
                  flush=True)
        failures = bench.failures
        print(f"FAILED {failures.failed} {json.dumps(failures.reasons)}", flush=True)
    finally:
        bench.close()
    return 0


def run_probe(args, kind: str):
    """``(seconds from process start to READY, probe output lines)``."""
    from pb_serve import die_with_parent

    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--probe", kind]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                            preexec_fn=die_with_parent)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=PROBE_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if ready.strip() != b"READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, rest.decode().splitlines()


# ---------------------------------------------------------------------------
# The measured run
# ---------------------------------------------------------------------------


def check_lookaheads(args, build, failures) -> None:
    """Each grammar's first-pass LA sets against an independent analysis,
    in a child process so its memory stays out of ``peak_rss_mb``."""
    entries = [
        {k: entry[k] for k in ("label", "kind", "text", "la_masks")}
        for entry in build.entries if "la_masks" in entry
    ]
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--probe", "lookaheads"]
    result = subprocess.run(command, input=json.dumps(entries).encode(), cwd=ROOT,
                            stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT)
    problems = json.loads(result.stdout) if result.returncode == 0 else [
        f"look-ahead reference check exited {result.returncode}"]
    for entry in entries:
        failures.record(not any(p.startswith(entry["label"] + ":") for p in problems),
                        f"{entry['label']}: LA sets differ from the reference")
    for problem in problems:
        if problem.startswith("look-ahead"):
            failures.record(False, problem)


def run_phases(bench, seconds: float, shares, traced: bool) -> None:
    """Interleave the three phases in whole units (one grammar build, one
    document block, one request block per client), each time running the
    phase furthest behind its share of the time spent, until *seconds*
    are spent and every phase has its minimum: two whole build passes,
    two document blocks and whole request rounds, at least one.

    Interleaving spreads every phase's samples over the whole run, so a
    stretch of a few seconds in which the machine runs slow shifts all
    the metrics a little instead of one light phase a lot.  The pace is
    probed between units, outside the time the units are charged.
    """
    from pb_serve import ROUND_BLOCKS

    tracer = bench.tracer
    serve = bench.serve
    phases = [
        (lambda: bench.build.step(tracer, traced), lambda: len(bench.build.passes) >= 2),
        (lambda: bench.parse.run_block(tracer, traced), lambda: bench.parse.blocks_done >= 2),
        (lambda: serve.step(bench.failures, tracer, traced),
         lambda: serve.blocks_done >= ROUND_BLOCKS and serve.blocks_done % ROUND_BLOCKS == 0),
    ]
    pace = bench.pace
    spent = [0.0] * len(phases)
    while True:
        total = sum(spent)
        wanting = [i for i, (_, enough) in enumerate(phases) if not enough()]
        if total >= seconds:
            if not wanting:
                pace.probe()
                return
        else:
            wanting = range(len(phases))
        i = max(wanting, key=lambda k: shares[k] * total - spent[k])
        pace.probe()
        start = time.perf_counter()
        phases[i][0]()
        end = time.perf_counter()
        spent[i] += end - start
        pace.add_unit(start, end)


def run(args) -> int:
    import pb_inputs

    traced = bool(args.trace)
    setup_samples = []
    probe_counters = None
    probe_failures = 0
    kinds = ["counters"] if traced else ["setup"] * SETUP_PROBES
    for kind in kinds:
        elapsed, lines = run_probe(args, kind)
        setup_samples.append(elapsed)
        for line in lines:
            if line.startswith("COUNTERS "):
                probe_counters = json.loads(line[len("COUNTERS "):])
            elif line.startswith("FAILED "):
                probe_failures += int(line.split()[1])

    bench = Bench(args.workload, args.seed, traced)
    # Keep the set-up objects out of the collector's full passes, whose
    # cost would otherwise grow with the benchmark's own inputs.
    gc.collect()
    gc.freeze()
    try:
        tracer = bench.tracer
        bench.serve.begin()
        run_phases(bench, args.seconds, WORKLOADS[args.workload]["shares"], traced)
        bench.serve.finish(bench.failures, tracer, traced)
        counters = bench.counters()
        if args.workload == "serve-mixed":
            peak_rss = bench.serve.server.peak_rss_mb()
        else:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        bench.close()

    failures = bench.failures
    check_lookaheads(args, bench.build, failures)
    serve_counters = counters["serve"]
    expected_stores = pb_inputs.BLOCK_MIX.count("miss")
    failures.record(serve_counters["stores_per_block"] == expected_stores,
                    f"{serve_counters['stores_per_block']} stores per block, "
                    f"expected {expected_stores}")
    failures.record(serve_counters["splices_per_block"] == 1,
                    f"{serve_counters['splices_per_block']} splices per block, expected 1")
    if probe_counters is not None:
        mine = {k: counters[k] for k in probe_counters}
        failures.record(mine == probe_counters,
                        f"counters differ from a second process: {probe_counters} vs {mine}")
    failures.record(probe_failures == 0, f"{probe_failures} failed checks in set-up probes")

    lines = []
    if traced:
        metrics = layer_metrics(bench, counters, lines)
        path = os.path.join(ROOT, ".perfbench_out",
                            f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path)
        lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end_metrics(bench, setup_samples, peak_rss)
        from pb_trace import REFERENCE_KERNEL_S

        kernels = [kernel for _, kernel in bench.pace.probes]
        lines.append(f"pace: {bench.pace.unit} units, {len(kernels)} probes, median kernel "
                     f"{statistics.median(kernels) * 1e3:.3f} ms; timings rescaled to a "
                     f"{REFERENCE_KERNEL_S * 1e3:g} ms kernel")
    for name, metric in metrics.items():
        failures.record(math.isfinite(metric["value"]), f"metric {name} is not a finite number")
    fail_ratio = failures.failed / max(failures.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':34s} {fail_ratio:.6g} 1")
    for line in lines:
        print(f"  {line}")
    print("counters " + json.dumps(counters, sort_keys=True))
    for reason in failures.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(bench, setup_samples, peak_rss) -> dict:
    from pb_layers import median, percentile

    parse = bench.parse
    serve = bench.serve
    doc_ms = parse.doc_ms()
    all_ms = serve.latencies_ms()
    # Both rates are medians over units of work (document blocks, request
    # blocks), so one slow stretch of the machine moves them less.
    return {
        "setup_s": _metric(median(setup_samples), "s"),
        "peak_rss_mb": _metric(peak_rss, "MB"),
        "build_s": _metric(median(bench.build.pass_seconds()), "s"),
        "parse_tokens_per_s": _metric(median(parse.block_rates()), "tok/s"),
        "parse_doc_ms_p50": _metric(percentile(doc_ms, 0.5), "ms"),
        "parse_doc_ms_p99": _metric(percentile(doc_ms, 0.99), "ms"),
        "serve_rps": _metric(serve.requests_per_second(), "req/s"),
        "serve_ms_p50": _metric(percentile(all_ms, 0.5), "ms"),
        "serve_ms_p90": _metric(percentile(all_ms, 0.9), "ms"),
        "serve_parse_ms_p50": _metric(percentile(serve.latencies_ms("parse"), 0.5), "ms"),
        "serve_compile_miss_ms_p50": _metric(percentile(serve.latencies_ms("miss"), 0.5), "ms"),
    }


def layer_metrics(bench, counters, lines) -> dict:
    tracer = bench.tracer
    build_c = counters["build"]
    parse_c = counters["parse"]
    serve = bench.serve
    replay = serve.replay
    metrics = {}

    def ms(total: float, ops: int) -> float:
        return total * 1e3 / max(ops, 1)

    # build ops: one grammar, text -> stored artifact
    b = tracer.totals("build")
    build_ops = len(tracer.ops("build"))
    passes = len(bench.build.passes)
    metrics["automaton.lr0_ms"] = _metric(ms(b["automaton.lr0"], build_ops), "ms")
    metrics["automaton.states"] = _metric(build_c["states"], "count")
    metrics["automaton.ns_per_state"] = _metric(
        b["automaton.lr0"] * 1e9 / (build_c["states"] * passes), "ns")
    for name in ("core.lookahead", "core.relations", "core.digraph_reads",
                 "core.digraph_includes", "core.la"):
        metrics[f"{name}_ms"] = _metric(ms(b[name], build_ops), "ms")
    metrics["core.edges"] = _metric(build_c["edges"], "count")
    metrics["core.ns_per_edge"] = _metric(
        b["core.lookahead"] * 1e9 / (build_c["edges"] * passes), "ns")
    for name in ("tables.build", "tables.fill", "tables.construct", "tables.store"):
        metrics[f"{name}_ms"] = _metric(ms(b[name], build_ops), "ms")
    metrics["tables.populated_cells"] = _metric(build_c["populated_cells"], "count")
    metrics["tables.dense_cells"] = _metric(build_c["dense_cells"], "count")
    metrics["tables.ns_per_populated_cell"] = _metric(
        b["tables.build"] * 1e9 / (build_c["populated_cells"] * passes), "ns")
    metrics["tables.artifact_bytes"] = _metric(build_c["artifact_bytes"], "B")
    s = tracer.totals("setup.load")
    metrics["tables.load_ms"] = _metric(ms(s["tables.load"], len(tracer.ops("setup.load"))), "ms")

    # parse ops: one document, text -> tree
    p = tracer.totals("parse")
    parse_ops = len(tracer.ops("parse"))
    traced_tokens = sum(r[1] for r in bench.parse.records if r[5])
    parse_s = p.get("parser.parse", 0.0)
    reject_s = p.get("parser.reject", 0.0)
    metrics["parser.lex_ms"] = _metric(ms(p["parser.lex"], parse_ops), "ms")
    metrics["parser.lex_ns_per_token"] = _metric(p["parser.lex"] * 1e9 / traced_tokens, "ns")
    metrics["parser.parse_ms"] = _metric(ms(parse_s, parse_ops), "ms")
    metrics["parser.parse_ns_per_token"] = _metric((parse_s + reject_s) * 1e9 / traced_tokens, "ns")
    metrics["parser.reject_ms"] = _metric(ms(reject_s, parse_ops), "ms")
    metrics["parser.tokens"] = _metric(parse_c["tokens"], "count")
    metrics["parser.shifts"] = _metric(parse_c["shifts"], "count")
    metrics["parser.reduces"] = _metric(parse_c["reduces"], "count")

    # serve: in-process replay of the mix, and /metrics deltas
    r = tracer.totals("replay")
    n = replay.ops
    for name in ("grammar.ingest", "grammar.fingerprint", "tables.lookup",
                 "tables.specialize", "parser.serve_parse", "pipeline.update",
                 "service.encode"):
        metrics[f"{name}_ms"] = _metric(ms(r.get(name, 0.0), n), "ms")
    updates = serve.delta("sessions", "updates")
    metrics["pipeline.splice_ratio"] = _metric(serve.delta("sessions", "splice") / updates, "1")
    requests = serve.delta("counters", "service.requests") - 1  # the first /metrics GET
    server_ms = serve.delta("counters", "service.request_ns") / requests / 1e6
    client_ms = statistics.mean(serve.latencies_ms())
    layer_sum = (sum(r.values()) - replay.duplicate_fingerprint) * 1e3 / max(n, 1)
    metrics["service.server_ms"] = _metric(server_ms, "ms")
    metrics["service.transport_ms"] = _metric(client_ms - server_ms, "ms")
    metrics["service.unaccounted_ms"] = _metric(server_ms - layer_sum, "ms")
    hot = serve.delta("cache", "hot_hits")
    lookups = hot + serve.delta("cache", "hits") + serve.delta("cache", "misses")
    metrics["tables.cache_hot_ratio"] = _metric(hot / lookups, "1")
    metrics["tables.cache_stores"] = _metric(counters["serve"]["stores_per_block"], "count")

    # the trace itself: coverage of every op, and what tracing cost
    coverage = tracer.coverage()
    low = [c for c in coverage if c[0] < 0.95]
    metrics["trace.min_coverage"] = _metric(min(c[0] for c in coverage), "1")
    for share, name, op_id in sorted(low)[:10]:
        lines.append(f"LOW COVERAGE: op {op_id} ({name}) children cover {share:.1%}")
    lines.append(f"{len(coverage)} op spans, {len(low)} below 95% coverage")
    # Traced parse, HTTP and replay ops run the same statements as
    # untraced ones, so what tracing costs them is the span bookkeeping,
    # timed directly.  Traced build ops also switch the program's own
    # instrument spans on; their cost per op is measured separately.
    per_build = bench.build.instrument_cost()
    build_extra = per_build * len(tracer.ops("build"))
    op_time = sum(tracer.spans[i][3] - tracer.spans[i][2] for i in tracer.ops())
    overhead = build_extra + tracer.cost
    lines.append(f"tracing overhead: {overhead * 1e3:.1f} ms over {op_time * 1e3:.0f} ms of "
                 f"traced ops (program instrument spans {per_build * 1e6:+.1f} us per build, "
                 f"span bookkeeping {tracer.cost * 1e3:.1f} ms)")
    metrics["trace.overhead_pct"] = _metric(100.0 * overhead / op_time, "%")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
