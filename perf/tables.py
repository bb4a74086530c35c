"""The two in-process workloads: the paper's Table 4 (bulk load) and
Tables 5-9 (cold and warm Q5/Q8/Q12/Q14/Q17 cells) on generated
corpora, for a configured list of (engine, class) cells.

Everything is timed from outside through ``repro.engines.create`` and
the public ``Engine`` methods; results are checked against the native
oracle, the committed list of starred cells and, for the default seed,
the pinned digests.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time

from common import (DEFAULT_SEED, PERF, QUERIES, Spans, geomean,
                    load_indexed, make_corpus, median, peak_rss_mb)


def digest(values: list[str]) -> str:
    return hashlib.sha256("\x1f".join(values).encode()).hexdigest()[:16]


def native_oracle(corpora: dict, units: dict) -> dict:
    """(class, qid) -> the native engine's result, the reference the
    relational cells are compared with."""
    from repro.engines import create
    from repro.workload import bind_params
    oracle = {}
    for class_key, texts in corpora.items():
        with create("native") as engine:
            load_indexed(engine, class_key, texts)
            for qid in QUERIES:
                params = bind_params(qid, class_key, units[class_key])
                oracle[class_key, qid] = engine.execute(qid, params)
    return oracle


def run(cfg: dict) -> dict:
    from repro import obs
    from repro.core.indexes import indexes_for
    from repro.databases import CLASSES_BY_KEY
    from repro.engines import create
    from repro.workload import bind_params

    seed, units = cfg["seed"], cfg["units"]
    cells = [tuple(cell) for cell in cfg["cells"]]
    used = {key: units[key] for key in dict.fromkeys(c for __, c in cells)}
    spans = Spans(cfg["traced"])
    problems: list[str] = []
    attempted = failed = 0

    setup_s = []
    for __ in range(cfg["setups"]):
        start = time.perf_counter()
        corpora = {key: make_corpus(key, count, seed)
                   for key, count in used.items()}
        setup_s.append(time.perf_counter() - start)
    xml_bytes = {key: sum(len(text.encode()) for __, text in texts)
                 for key, texts in corpora.items()}

    load_s = {cell: [] for cell in cells}
    index_s = {cell: [] for cell in cells}
    rows = {cell: 0 for cell in cells}
    cold = {(*cell, qid): [] for cell in cells for qid in QUERIES}
    warm = {key: [] for key in cold}
    results: dict = {}
    result_rows = 0

    recorder = obs.Recorder(name="perf") if cfg["traced"] else None
    if recorder is not None:
        obs.install(recorder)
    try:
        # Cells take turns until the window is used up, each at least
        # once: a fresh engine, load, index, then every query cold once
        # and warm `repeats` times.
        started = time.perf_counter()
        visits = 0
        while visits < len(cells) \
                or time.perf_counter() - started < cfg["seconds"]:
            cell = engine_key, class_key = cells[visits % len(cells)]
            op = f"{engine_key}/{class_key}/{visits // len(cells)}"
            visits += 1
            # Garbage of the previous cell is not this cell's cost.
            gc.collect()
            with create(engine_key) as engine:
                with spans.span("engines.load", op):
                    stats = engine.timed_load(
                        CLASSES_BY_KEY[class_key], corpora[class_key])
                start = time.perf_counter()
                with spans.span("engines.index", op):
                    engine.create_indexes(list(indexes_for(class_key)))
                index_s[cell].append(time.perf_counter() - start)
                load_s[cell].append(stats.seconds)
                rows[cell] = stats.rows
                attempted += 1
                for qid in QUERIES:
                    key = (*cell, qid)
                    params = bind_params(qid, class_key, units[class_key])
                    for n in range(1 + cfg["repeats"]):
                        with spans.span("engines.execute",
                                        f"{op}/{qid}/{n}", parent=op):
                            outcome = engine.timed_execute(qid, params)
                        (warm if n else cold)[key].append(outcome.seconds)
                        attempted += 1
                        result_rows += len(outcome.values)
                        first = results.setdefault(key, outcome.values)
                        if outcome.values != first:
                            failed += 1
                            problems.append(f"{'/'.join(key)}: result "
                                            "changed between executions")
    finally:
        if recorder is not None:
            obs.uninstall()
    # Memory is read before the oracle below loads anything the
    # measured workload did not.
    rss = peak_rss_mb([os.getpid()])

    digests = {f"{e}/{c}/{units[c]}/{q}": digest(values)
               for (e, c, q), values in results.items()}
    stars = []
    if cfg["verify"] and any(engine != "native" for engine, __ in cells):
        oracle = native_oracle(corpora, used)
        stars = sorted("/".join(key) for key, values in results.items()
                       if key[0] != "native"
                       and values != oracle[key[1], key[2]])
        expected = json.loads((PERF / "expected_stars.json").read_text())
        wrong = set(stars) ^ set(expected[cfg["profile"]])
        if wrong:
            failed += len(wrong)
            problems.append("cells that differ from the native oracle are "
                            "not the expected starred cells: "
                            + ", ".join(sorted(wrong)))
    if cfg["verify"] and seed == DEFAULT_SEED:
        golden = json.loads((PERF / "golden.json").read_text())
        for key, value in digests.items():
            pinned = golden["digests"].get(key)
            if pinned is not None and pinned != value:
                failed += 1
                problems.append(f"{key}: digest {value} is not the "
                                f"pinned {pinned}")

    warm_all = [s for samples in warm.values() for s in samples]
    total_load = sum(median(load_s[cell]) + median(index_s[cell])
                     for cell in cells)
    metrics = {
        "setup_s": median(setup_s),
        "load_mb_s": sum(xml_bytes[c] for __, c in cells) / 1e6 / total_load,
        "query_cold_ms": 1000 * geomean(median(s) for s in cold.values()),
        "query_warm_ms": 1000 * geomean(median(s) for s in warm.values()),
        "throughput_qps": len(warm_all) / sum(warm_all),
        "peak_rss_mb": rss,
    }
    out = {"metrics": metrics, "attempted": attempted, "failed": failed,
           "problems": problems, "digests": digests, "stars": stars,
           "samples": {"setup_s": len(setup_s), "load_mb_s": visits,
                       "query_cold_ms": len(QUERIES) * visits,
                       "query_warm_ms": len(warm_all),
                       "throughput_qps": len(warm_all)},
           "layers": {}, "spans": spans.records, "counters": {}}
    if recorder is not None:
        counters = recorder.counters.snapshot()
        out["counters"] = counters
        out["layers"] = _layers(cells, load_s, index_s, rows, cold, warm,
                                result_rows, counters)
    return out


def _layers(cells, load_s, index_s, rows, cold, warm, result_rows,
            counters) -> dict:
    """Per-layer figures of a traced pass: the program's own counters
    over the times measured from outside."""
    layers = {}
    for engine_key in dict.fromkeys(e for e, __ in cells):
        mine = [cell for cell in cells if cell[0] == engine_key]
        layers[f"engines.{engine_key}.load_s"] = sum(
            median(load_s[cell]) for cell in mine)
        layers[f"engines.{engine_key}.index_s"] = sum(
            median(index_s[cell]) for cell in mine)
    shredded = [cell for cell in cells if rows[cell]]
    if shredded:
        layers["engines.shred_rows_per_s"] = (
            sum(rows[cell] * len(load_s[cell]) for cell in shredded)
            / sum(sum(load_s[cell]) for cell in shredded))
    execute_s = sum(sum(samples) for table in (cold, warm)
                    for samples in table.values())
    visited = counters.get("xquery.nodes_visited", 0)
    if visited:
        layers["xquery.eval_nodes_per_s"] = visited / execute_s
    if result_rows:
        # Each pass runs native-only or relational-only cells, so the
        # counter's denominator is this pass's own result rows.
        if visited:
            layers["xquery.nodes_visited_per_result"] = (
                visited / result_rows)
        if "relstore.rows_scanned" in counters:
            layers["relstore.rows_scanned_per_result"] = (
                counters["relstore.rows_scanned"] / result_rows)
    lookups = (counters.get("xquery.cache.hit", 0)
               + counters.get("xquery.cache.miss", 0))
    if lookups:
        layers["xquery.cache_hit_ratio"] = (
            counters.get("xquery.cache.hit", 0) / lookups)
    plans = (counters.get("planner.index_plans", 0)
             + counters.get("planner.scan_plans", 0))
    if plans:
        layers["engines.index_plan_ratio"] = (
            counters.get("planner.index_plans", 0) / plans)
    return layers
