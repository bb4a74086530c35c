"""Shard scaling A/B: sharded bulk load vs. the single-process engine.

Run as a script to (re)generate ``BENCH_shard_scaling.json``::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py

For each multi-document class the artifact records, at the default
bench scale (divisor 1000, "large"):

* ``single_seconds`` — one native engine parsing the whole corpus;
* per-transport sharded loads (``shm`` = shared-memory segment +
  offset triples, what the engine does; ``pipe`` = inline pickled
  payloads, its fallback, measured by making segment creation fail),
  each with end-to-end ``wall_seconds``, the actual
  ``pipe_bytes`` that crossed the worker pipes, and the encode / ship
  (attach) / decode (worker load) phase split;
* ``per_shard_seconds`` — each shard's partition loaded sequentially
  in isolation.  ``max(per_shard_seconds)`` is the critical path: the
  wall time a machine with >= N free cores converges to, independent
  of how oversubscribed the measuring host is;
* ``snapshot`` — the warm-start path: corpus pre-encoded into an RXSN
  snapshot (``repro snapshot build``), then loaded by decoding node
  arrays instead of parsing XML, single-process and sharded-over-shm
  (contended wall = best of 3 full starts, plus a per-shard decode
  critical path mirroring ``per_shard_seconds``).

``projected_speedup = single_seconds / critical_path_seconds`` is the
honest scaling number; ``measured_speedup`` is the contended one.  On a
single-core container the measured number is *below* 1.0 for parse
loads while the projection holds — which is why both are recorded,
along with ``cpu_count``.  The snapshot rows are where a one-core box
can beat the parse baseline for real: decoding is far cheaper than
parsing, so ``snapshot.sharded_speedup`` (sharded warm start vs.
single-process re-parse) clears 1x even fully contended.

``gate-snapshot`` mode (used by CI) builds a snapshot for one class
and fails unless the warm start beats re-parsing::

    PYTHONPATH=src python benchmarks/bench_shard_scaling.py \
        gate-snapshot --class dcmd --min-speedup 1.0
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from contextlib import nullcontext
from unittest import mock

from repro.core.benchmark import BenchmarkConfig, XBench
from repro.core.corpus_io import open_snapshot_corpus, \
    snapshot_filename, write_snapshot
from repro.core.shard import ShardedEngine, shard_of
from repro.engines import create
from repro.obs import Recorder, observing

SHARDS = 4
SCALE = "large"
CLASSES = ("dcmd", "tcmd")
SEED = 42
ARTIFACT = os.path.join(os.path.dirname(__file__),
                        "BENCH_shard_scaling.json")


def _timed_single_load(db_class, corpus) -> float:
    engine = create("native")
    start = time.perf_counter()
    engine.timed_load(db_class, corpus)
    elapsed = time.perf_counter() - start
    engine.close()
    return elapsed


def _no_shared_memory(size):
    raise OSError("segment creation disabled for the pipe row")


def _measure_transport(scenario, texts, transport: str,
                       single: float) -> dict:
    """One sharded bulk load over ``transport``, with the obs recorder
    capturing what actually crossed the pipes.  The engine picks shm
    whenever a segment can be built, so the pipe row takes that away."""
    segments = (mock.patch("repro.core.shm.OwnedSegment",
                           _no_shared_memory)
                if transport == "pipe" else nullcontext())
    with observing(Recorder()) as recorder, segments:
        sharded = ShardedEngine("native", shards=SHARDS)
        start = time.perf_counter()
        sharded.timed_load(scenario.db_class, list(texts))
        wall = time.perf_counter() - start
        report = sharded.last_load_report
        sharded.close()
        pipe_bytes = recorder.counters.get("shard.pipe_bytes")
    workers = [phases for phases in report["workers"] if phases]
    row = {
        "transport": report["transport"],
        "wall_seconds": wall,
        "measured_speedup": single / wall,
        "pipe_bytes": pipe_bytes,
        "phases": {
            "encode_seconds": report["encode_seconds"],
            "attach_seconds_max": max(
                (w["attach_seconds"] for w in workers), default=None),
            "worker_load_seconds_max": max(
                (w["load_seconds"] for w in workers), default=None),
        },
        "segment_bytes": report["segment_bytes"],
    }
    return row


def _measure_snapshot(scenario, single: float, directory: str,
                      repeats: int = 3) -> dict:
    """Warm-start timings: snapshot build once, then decode-loads."""
    db_class = scenario.db_class
    documents = db_class.generate(scenario.units, seed=SEED)
    path = os.path.join(directory,
                        snapshot_filename(db_class.key, scenario.units))
    start = time.perf_counter()
    meta = write_snapshot(path, documents,
                          meta={"class": db_class.key,
                                "units": scenario.units, "seed": SEED})
    build = time.perf_counter() - start

    warm_single = min(
        _timed_single_load(db_class,
                           open_snapshot_corpus(directory, db_class.key,
                                                scenario.units, SEED))
        for __ in range(repeats))

    # Contended wall time: best of ``repeats`` full sharded warm
    # starts (fork + segment build + attach + decode), since worker
    # spawn cost is noisy on an oversubscribed host.
    warm_sharded = float("inf")
    for __ in range(repeats):
        corpus = open_snapshot_corpus(directory, db_class.key,
                                      scenario.units, SEED)
        sharded = ShardedEngine("native", shards=SHARDS)
        start = time.perf_counter()
        sharded.timed_load(db_class, corpus)
        warm_sharded = min(warm_sharded, time.perf_counter() - start)
        transport = sharded.last_load_report["transport"]
        sharded.close()

    # Warm critical path: each shard's decode partition loaded
    # sequentially in isolation, mirroring ``per_shard_seconds`` on
    # the parse path.  ``single / max(...)`` is what a host with >=
    # SHARDS free cores converges to.
    corpus = list(open_snapshot_corpus(directory, db_class.key,
                                       scenario.units, SEED))
    replicated = set(db_class.replicated_documents)
    partitions: dict[int, list] = {i: [] for i in range(SHARDS)}
    for name, payload in corpus:
        if name not in replicated:
            partitions[shard_of(name, SHARDS)].append((name, payload))
    broadcast = [(name, payload) for name, payload in corpus
                 if name in replicated]
    warm_per_shard = [
        _timed_single_load(db_class, partitions[index] + broadcast)
        for index in range(SHARDS)]
    warm_critical = max(warm_per_shard)

    return {
        "build_seconds": build,
        "encoded_bytes": meta["payload_bytes"],
        "warm_single_seconds": warm_single,
        "warm_sharded_wall_seconds": warm_sharded,
        "warm_sharded_transport": transport,
        "warm_per_shard_seconds": warm_per_shard,
        "warm_critical_path_seconds": warm_critical,
        # Snapshot decode vs. XML re-parse, both single-process.
        "warm_speedup": single / warm_single,
        # The headline: sharded warm start vs. the single-process
        # parse baseline, as contended on this machine.
        "sharded_speedup": single / warm_sharded,
        # Same comparison at the shard critical path (>= SHARDS cores).
        "projected_sharded_speedup": single / warm_critical,
    }


def _measure_class(bench: XBench, class_key: str,
                   snapshot_dir: str) -> dict:
    scenario = bench.corpus.scenario(class_key, SCALE)
    texts = list(scenario.texts)

    single = _timed_single_load(scenario.db_class, list(texts))

    transports = {
        transport: _measure_transport(scenario, texts, transport,
                                      single)
        for transport in ("pipe", "shm")}

    replicated = set(scenario.db_class.replicated_documents)
    partitions: dict[int, list] = {i: [] for i in range(SHARDS)}
    for name, text in texts:
        if name not in replicated:
            partitions[shard_of(name, SHARDS)].append((name, text))
    broadcast = [(name, text) for name, text in texts
                 if name in replicated]
    per_shard = []
    for index in range(SHARDS):
        per_shard.append(_timed_single_load(
            scenario.db_class, partitions[index] + broadcast))
    critical = max(per_shard)

    wall = transports["shm"]["wall_seconds"]
    return {
        "class": class_key,
        "scale": SCALE,
        "documents": len(texts),
        "bytes": sum(len(text) for __, text in texts),
        "replicated_documents": sorted(replicated),
        "single_seconds": single,
        "wall_seconds": wall,
        "transports": transports,
        "per_shard_seconds": per_shard,
        "critical_path_seconds": critical,
        "measured_speedup": single / wall,
        "projected_speedup": single / critical,
        "snapshot": _measure_snapshot(scenario, single, snapshot_dir),
    }


def run_bench() -> int:
    bench = XBench(BenchmarkConfig(scale_divisor=1000))
    with tempfile.TemporaryDirectory(prefix="xbench-snap-") as snaps:
        record = {
            "schema": "xbench-shard-scaling/2",
            "shards": SHARDS,
            "scale_divisor": 1000,
            "cpu_count": os.cpu_count(),
            "classes": [_measure_class(bench, key, snaps)
                        for key in CLASSES],
        }
    with open(ARTIFACT, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    failures = []
    for row in record["classes"]:
        pipe = row["transports"]["pipe"]["pipe_bytes"]
        shm = row["transports"]["shm"]["pipe_bytes"]
        snap = row["snapshot"]
        print(f"{row['class']}: single {row['single_seconds']:.3f}s, "
              f"critical path {row['critical_path_seconds']:.3f}s "
              f"-> projected {row['projected_speedup']:.2f}x "
              f"(measured {row['measured_speedup']:.2f}x on "
              f"{record['cpu_count']} cpu)")
        print(f"  pipe bytes {pipe} -> {shm} over shm "
              f"({pipe / max(1, shm):.0f}x less); snapshot warm "
              f"{snap['warm_speedup']:.2f}x single, "
              f"{snap['sharded_speedup']:.2f}x sharded vs re-parse "
              f"({snap['projected_sharded_speedup']:.2f}x at the "
              "shard critical path)")
        if row["projected_speedup"] < 1.5:
            failures.append(f"{row['class']}: projected "
                            f"{row['projected_speedup']:.2f}x < 1.5x")
        if shm * 10 > pipe:
            failures.append(f"{row['class']}: shm shipped {shm} pipe "
                            f"bytes vs {pipe} inline (< 10x cut)")
        if snap["warm_speedup"] < 3.0:
            failures.append(f"{row['class']}: snapshot warm start "
                            f"{snap['warm_speedup']:.2f}x < 3x "
                            "faster than re-parse")
        if snap["projected_sharded_speedup"] < 1.2:
            failures.append(
                f"{row['class']}: sharded warm start "
                f"{snap['projected_sharded_speedup']:.2f}x < 1.2x "
                "at the shard critical path")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"ok: wrote {ARTIFACT}")
    return 0


def gate_snapshot(args: argparse.Namespace) -> int:
    """CI gate: a snapshot warm start must beat re-parsing."""
    bench = XBench(BenchmarkConfig(scale_divisor=args.divisor))
    scenario = bench.corpus.scenario(args.class_key, args.scale)
    texts = list(scenario.texts)
    directory = args.snapshot_dir or tempfile.mkdtemp(
        prefix="xbench-snap-gate-")
    db_class = scenario.db_class
    path = os.path.join(directory,
                        snapshot_filename(db_class.key, scenario.units))
    if not os.path.exists(path):
        write_snapshot(path, db_class.generate(scenario.units,
                                               seed=SEED),
                       meta={"class": db_class.key,
                             "units": scenario.units, "seed": SEED})
    cold = min(_timed_single_load(db_class, list(texts))
               for __ in range(args.repeats))
    warm = min(_timed_single_load(
                   db_class,
                   open_snapshot_corpus(directory, db_class.key,
                                        scenario.units, SEED))
               for __ in range(args.repeats))
    speedup = cold / warm
    print(f"{args.class_key}: re-parse {cold:.3f}s, snapshot warm "
          f"start {warm:.3f}s -> {speedup:.2f}x "
          f"(gate: >= {args.min_speedup:.2f}x)")
    if speedup < args.min_speedup:
        print(f"FAIL: warm start only {speedup:.2f}x")
        return 1
    print("ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode")
    gate = sub.add_parser("gate-snapshot",
                          help="fail unless snapshot warm start beats "
                               "re-parsing")
    gate.add_argument("--class", dest="class_key", default="dcmd")
    gate.add_argument("--scale", default=SCALE)
    gate.add_argument("--divisor", type=int, default=1000)
    gate.add_argument("--repeats", type=int, default=3)
    gate.add_argument("--min-speedup", type=float, default=1.0)
    gate.add_argument("--snapshot-dir", default=None,
                      help="reuse/build snapshots here (e.g. a CI "
                           "cache); default: fresh temp dir")
    args = parser.parse_args()
    if args.mode == "gate-snapshot":
        return gate_snapshot(args)
    return run_bench()


if __name__ == "__main__":
    raise SystemExit(main())
