"""Scale-out bench: pooled serving vs the single-process service.

Boots a real :class:`~repro.service.ServiceThread` twice — once
in-process (``pool_workers=1``) and once over an N-worker process pool
sharing one ``bin`` artifact store — and drives the same
compile-then-parse recipe against both from several concurrent client
threads.  Reports aggregate parse requests/second per tier —
**informational**, they depend on the runner and its core count (a
single-core machine cannot show pool speedup; CI runners can) — plus
machine-independent counters that are pure functions of the serving
contract:

- ``parse_bytes`` per grammar — responses are canonical JSON, so the
  pooled tier must serve the *same bytes* the in-process tier does;
  ``bytes_identical`` is 1 only when every grammar matched;
- ``requests`` — the recipe itself;
- ``pool_every_worker_served`` / ``pool_spread`` — round-robin routing
  is deterministic, so K pooled requests land ceil/floor(K/N) per
  worker no matter how the clients raced.

``--baseline`` fails on any counter drift::

    python -m repro.bench.scaleout --write-baseline BENCH_scaleout.json
    python -m repro.bench.scaleout --baseline BENCH_scaleout.json
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Sequence, Tuple

from .service import grammar_tokens

SCALEOUT_BASELINE_FORMAT = 1

DEFAULT_GRAMMARS = ["expr", "json", "mini_c", "toy_java"]
DEFAULT_WORKERS = 4


def _drive(
    port: int,
    grammars: "Sequence[str]",
    requests: int,
    clients: int,
) -> "Tuple[Dict[str, bytes], float, int]":
    """Compile each grammar, then hammer /parse from *clients* threads
    (with the GLR engine where ``/compile`` reports conflicts).

    Returns (parse body per grammar, elapsed seconds, total parses).
    """
    from ..service import Client

    jobs: "List[Tuple[str, dict]]" = []
    for name in grammars:
        response = Client(port).post("/compile", {"corpus": name})
        assert response.status == 200, (name, response.status)
        payload = {"corpus": name, "input": grammar_tokens(name)}
        if not response.json()["deterministic"]:
            # The LR engine refuses conflicted tables (HTTP 422).
            payload["engine"] = "glr"
        jobs.extend((name, payload) for _ in range(requests))

    bodies: "Dict[str, bytes]" = {}
    failures: "List[str]" = []
    lock = threading.Lock()
    cursor = iter(range(len(jobs)))

    def worker() -> None:
        client = Client(port)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            name, payload = jobs[index]
            response = client.post("/parse", payload)
            with lock:
                if response.status != 200:
                    failures.append(f"{name}: HTTP {response.status}")
                else:
                    bodies[name] = response.body

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not failures, failures[:5]
    return bodies, elapsed, len(jobs)


def scaleout_snapshot(
    grammars: "Sequence[str]",
    workers: int = DEFAULT_WORKERS,
    requests: int = 24,
    clients: int = 8,
) -> Dict:
    from ..service import ServiceThread, fork_available

    tiers: "Dict[str, Dict]" = {}
    reference_bodies: "Dict[str, bytes]" = {}
    pooled_possible = fork_available() and workers > 1

    for label, pool_workers in (("single", 1), (f"pool{workers}", workers)):
        if pool_workers > 1 and not pooled_possible:
            break
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-scaleout-")
        try:
            with ServiceThread(
                cache_dir=cache_dir,
                cache_backend="bin",
                pool_workers=pool_workers,
            ) as thread:
                bodies, elapsed, total = _drive(
                    thread.port, grammars, requests, clients
                )
                counters: "Dict[str, int]" = {
                    "requests": total,
                    "workers": pool_workers,
                }
                for name in grammars:
                    counters[f"parse_bytes_{name}"] = len(bodies[name])
                if pool_workers == 1:
                    reference_bodies = bodies
                else:
                    counters["bytes_identical"] = int(
                        all(
                            bodies[name] == reference_bodies.get(name)
                            for name in grammars
                        )
                    )
                    from ..service import Client

                    pool = Client(thread.port).get(
                        "/metrics?format=json"
                    ).json()["pool"]
                    served = [
                        pool[f"worker_{i}_served"] for i in range(pool_workers)
                    ]
                    counters["pool_every_worker_served"] = int(
                        all(count >= 1 for count in served)
                    )
                    counters["pool_spread"] = max(served) - min(served)
                    counters["pool_accounted"] = int(
                        sum(served) == pool["completed"] == pool["dispatched"]
                    )
                tiers[label] = {
                    "counters": counters,
                    "throughput": {
                        "parse_requests_per_sec": total / elapsed
                        if elapsed > 0
                        else 0.0,
                        "elapsed_seconds": elapsed,
                    },
                }
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return {"format": SCALEOUT_BASELINE_FORMAT, "tiers": tiers}


def compare_scaleout_baseline(
    current: Dict, baseline: Dict
) -> "Tuple[List[List], List[str]]":
    """``(rows, drift)``: informational rate rows, counter drift."""
    rows: "List[List]" = []
    drift: "List[str]" = []
    if current.get("format") != baseline.get("format"):
        drift.append(
            f"baseline format {baseline.get('format')!r} != "
            f"current {current.get('format')!r}"
        )
    base_tiers = baseline.get("tiers", {})
    for label, entry in current.get("tiers", {}).items():
        base = base_tiers.get(label)
        if base is None:
            drift.append(f"{label}: not present in baseline")
            continue
        for key, base_value in sorted(base.get("counters", {}).items()):
            value = entry["counters"].get(key)
            if value != base_value:
                drift.append(f"{label}: counter {key} {base_value} -> {value}")
        base_throughput = base.get("throughput", {})
        for metric, value in sorted(entry.get("throughput", {}).items()):
            rows.append([label, metric, base_throughput.get(metric, 0.0), value])
    for label in base_tiers:
        if label not in current.get("tiers", {}):
            drift.append(f"{label}: in baseline but not measured")
    return rows, drift


def main(argv: "Sequence[str] | None" = None) -> int:
    """``python -m repro.bench.scaleout`` — see the module docstring."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.bench.scaleout")
    parser.add_argument("grammars", nargs="*", default=DEFAULT_GRAMMARS,
                        help="corpus grammar names "
                             f"(default: {' '.join(DEFAULT_GRAMMARS)})")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                        metavar="N",
                        help="pool size for the scaled tier (default 4)")
    parser.add_argument("--requests", type=int, default=24, metavar="N",
                        help="parse requests per grammar (default 24)")
    parser.add_argument("--clients", type=int, default=8, metavar="N",
                        help="concurrent client threads (default 8)")
    parser.add_argument("--baseline", default="",
                        help="compare against a snapshot JSON "
                             "(exit 1 on counter drift)")
    parser.add_argument("--write-baseline", default="",
                        help="write a snapshot JSON instead of reporting")
    args = parser.parse_args(argv)

    snapshot = scaleout_snapshot(
        args.grammars,
        workers=args.workers,
        requests=args.requests,
        clients=args.clients,
    )

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.write_baseline} ({len(snapshot['tiers'])} tiers)")
        return 0

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        rows, drift = compare_scaleout_baseline(snapshot, baseline)
        print(f"{'tier':10s} {'metric':26s} {'baseline':>12s} {'now':>12s}")
        for label, metric, base_value, value in rows:
            print(f"{label:10s} {metric:26s} {base_value:12,.2f} {value:12,.2f}")
        if drift:
            print("scale-out counter drift (serving contract changed?):")
            for message in drift:
                print(f"  {message}")
            return 1
        print("scale-out counters match the baseline")
        return 0

    single = snapshot["tiers"].get("single")
    for label, entry in snapshot["tiers"].items():
        throughput = entry["throughput"]
        rate = throughput["parse_requests_per_sec"]
        note = ""
        if single is not None and label != "single":
            base_rate = single["throughput"]["parse_requests_per_sec"]
            note = f" ({rate / base_rate:.2f}x aggregate)" if base_rate else ""
            spread = entry["counters"].get("pool_spread")
            note += f" spread={spread}"
        print(f"{label:10s} {rate:10,.1f} parse req/s{note}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
