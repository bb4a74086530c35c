#!/usr/bin/env python
"""Compare the four storage architectures on one database scenario.

Loads a chosen (class, scale) into every supported engine, creates the
paper's Table 3 indexes, runs the experiment queries and prints load
times, query times and correctness against the native oracle.

Run:  python examples/compare_engines.py [class] [scale]
      python examples/compare_engines.py dcmd normal
"""

from __future__ import annotations

import sys

from repro.core import BenchmarkConfig, XBench
from repro.core.indexes import indexes_for
from repro.engines import PAPER_ENGINE_KEYS, create
from repro.errors import UnsupportedConfiguration, UnsupportedQuery
from repro.workload import bind_params
from repro.workload.queries import EXPERIMENT_QUERIES, QUERIES_BY_ID

class_key = sys.argv[1] if len(sys.argv) > 1 else "dcmd"
scale = sys.argv[2] if len(sys.argv) > 2 else "normal"

bench = XBench(BenchmarkConfig(scale_divisor=1000))
scenario = bench.corpus.scenario(class_key, scale)
print(f"scenario {scenario.name}: {scenario.db_class.label} at "
      f"{scale} scale -> {len(scenario.texts)} documents, "
      f"{scenario.bytes / 1024:.0f} KB "
      f"({scenario.db_class.size_parameter}={scenario.units})")
print(f"Table 3 indexes for {scenario.db_class.label}: "
      f"{', '.join(indexes_for(class_key)) or '(none)'}")

oracle: dict[str, list[str]] = {}
rows = []
# The native engine goes first: its answers are the oracle.
for engine in [create(key) for key in
               sorted(PAPER_ENGINE_KEYS, key=lambda k: k != "native")]:
    try:
        engine.check_supported(scenario.db_class, scale)
    except UnsupportedConfiguration as exc:
        rows.append((engine.row_label, None, {}, str(exc)))
        continue
    stats = engine.timed_load(scenario.db_class, scenario.texts)
    engine.create_indexes(list(indexes_for(class_key)))
    timings = {}
    for qid in EXPERIMENT_QUERIES:
        params = bind_params(qid, class_key, scenario.units)
        try:
            outcome = engine.timed_execute(qid, params)
        except UnsupportedQuery:
            timings[qid] = (None, None)
            continue
        if engine.key == "native":
            oracle[qid] = outcome.values
        correct = outcome.values == oracle.get(qid)
        timings[qid] = (outcome.seconds * 1000, correct)
    rows.append((engine.row_label, stats.seconds, timings, ""))

print(f"\n{'System':<12}{'load(s)':>9}", end="")
for qid in EXPERIMENT_QUERIES:
    print(f"{qid + '(ms)':>12}", end="")
print()
for label, load_seconds, timings, note in rows:
    if load_seconds is None:
        print(f"{label:<12}{'-':>9}  ({note[:58]}...)")
        continue
    print(f"{label:<12}{load_seconds:>9.3f}", end="")
    for qid in EXPERIMENT_QUERIES:
        millis, correct = timings.get(qid, (None, None))
        if millis is None:
            print(f"{'-':>12}", end="")
        else:
            star = "" if correct else "*"
            print(f"{millis:>11.2f}{star or ' '}", end="")
    print()
print("\n* = result set differs from the native oracle "
      "(relational mapping infidelity, see paper Section 3.1.3)")

for qid in EXPERIMENT_QUERIES:
    query = QUERIES_BY_ID[qid]
    print(f"\n{qid} ({query.functionality}): {query.description}")
    print(f"  XQuery: {query.text_for(class_key)}")
