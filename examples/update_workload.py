#!/usr/bin/env python
"""Update workload: the paper's planned extension #2, across engines.

The first XBench version covers only queries and bulk loading; the paper
plans "update workloads" as future work.  This example runs a mixed
stream of document inserts, value updates (order status changes) and
document deletes against every engine that supports DC/MD, and prints
per-operation means — showing the architectural split: native trees
ingest cheaply, shredded rows update cheaply, Xcolumn rewrites whole
CLOBs.

Run:  python examples/update_workload.py
"""

from __future__ import annotations

from repro.core import BenchmarkConfig, XBench
from repro.core.indexes import indexes_for
from repro.engines import PAPER_ENGINE_KEYS, create
from repro.workload import bind_params
from repro.workload.updates import make_update_stream, run_update_stream

CLASS_KEY = "dcmd"

bench = XBench(BenchmarkConfig(scale_divisor=1000))
scenario = bench.corpus.scenario(CLASS_KEY, "normal")
stream = make_update_stream(CLASS_KEY, scenario.units, count=40, seed=7)
mix = {}
for op in stream:
    mix[op.kind] = mix.get(op.kind, 0) + 1
print(f"database: {scenario.name} ({len(scenario.texts)} documents, "
      f"{scenario.bytes / 1024:.0f} KB)")
print(f"stream: {len(stream)} operations "
      + ", ".join(f"{kind}={count}" for kind, count in sorted(mix.items())))

print(f"\n{'System':<12}{'insert(ms)':>12}{'update(ms)':>12}"
      f"{'delete(ms)':>12}")
snapshots = {}
# The native engine goes first: its answers are the oracle.
for engine in [create(key) for key in
               sorted(PAPER_ENGINE_KEYS, key=lambda k: k != "native")]:
    engine.timed_load(scenario.db_class, scenario.texts)
    engine.create_indexes(list(indexes_for(CLASS_KEY)))
    stats = run_update_stream(engine, CLASS_KEY, stream)
    print(f"{engine.row_label:<12}"
          f"{stats.mean_ms('insert'):>12.3f}"
          f"{stats.mean_ms('update'):>12.3f}"
          f"{stats.mean_ms('delete'):>12.3f}")
    # Snapshot a few point queries to confirm all engines converged.
    probes = []
    for probe_id in ("3", str(scenario.units + 1)):
        params = dict(bind_params("Q5", CLASS_KEY, scenario.units),
                      id=probe_id)
        probes.append(tuple(engine.execute("Q5", params)))
    snapshots[engine.row_label] = tuple(probes)

agree = len(set(snapshots.values())) == 1
print(f"\npost-stream state identical across engines: {agree}")
assert agree, snapshots
