#!/usr/bin/env python
"""Text-search workload (Q17/Q18): the IR side of XBench.

The paper highlights text search as the weak spot of every system tested
("none of the systems does well on Q17").  This example runs the
uni-gram (Q17) and phrase (Q18) searches over the text-centric classes on
every supported engine, showing both the times and the result
divergence caused by SQL Server's dropped mixed content.

Run:  python examples/text_search_workload.py
"""

from __future__ import annotations

from repro.core import BenchmarkConfig, XBench
from repro.core.indexes import indexes_for
from repro.engines import PAPER_ENGINE_KEYS, NativeEngine, create
from repro.errors import UnsupportedConfiguration, UnsupportedQuery
from repro.workload import bind_params
from repro.workload.queries import QUERIES_BY_ID

bench = XBench(BenchmarkConfig(scale_divisor=1000))

for class_key in ("tcsd", "tcmd"):
    scenario = bench.corpus.scenario(class_key, "normal")
    label = scenario.db_class.label
    print(f"\n=== {label} ({scenario.bytes / 1024:.0f} KB) ===")

    # The native engine goes first: its answers are the oracle.
    engines = [create(key) for key in
               sorted(PAPER_ENGINE_KEYS, key=lambda k: k != "native")]
    loaded = []
    for engine in engines:
        try:
            engine.check_supported(scenario.db_class, "normal")
        except UnsupportedConfiguration:
            continue
        engine.timed_load(scenario.db_class, scenario.texts)
        engine.create_indexes(list(indexes_for(class_key)))
        loaded.append(engine)

    for qid in ("Q17", "Q18"):
        query = QUERIES_BY_ID[qid]
        if not query.applies_to(class_key):
            continue
        params = bind_params(qid, class_key, scenario.units)
        term = params.get("word") or params.get("phrase")
        print(f"\n{qid} ({query.functionality}), term {term!r}:")
        oracle = None
        for engine in loaded:
            try:
                outcome = engine.timed_execute(qid, params)
            except UnsupportedQuery:
                print(f"  {engine.row_label:<12} (no translation)")
                continue
            if isinstance(engine, NativeEngine):
                oracle = outcome.values
            note = ""
            if oracle is not None and outcome.values != oracle:
                note = (f"  ** {len(outcome.values)} hits vs oracle "
                        f"{len(oracle)} - mixed content dropped")
            print(f"  {engine.row_label:<12}{outcome.seconds * 1000:8.2f} ms"
                  f"  {len(outcome.values):>4} hits{note}")

print("\nNo engine has a full-text index (the paper excludes X-Hive's "
      "because the relational systems cannot match it); every search "
      "above is a scan, which is exactly Experiment 2's conclusion.")
