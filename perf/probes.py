"""Micro-probes of single layers, run in every traced run: each times a
public function of one module in a tight loop, or reads what an
in-process ``ShardedEngine`` already reports about itself.

The probes give every per-layer metric a value on every workload; a
workload's own traced pass overrides the ones it measures itself.
"""

from __future__ import annotations

import socket
import time
from pathlib import Path

from common import (DEFAULT_SEED, QUERIES, SERVED_CLASS as CLASS_KEY,
                    load_indexed, make_corpus, median, tree_bytes)


def _timed(function, repeats: int = 5) -> float:
    """Median seconds of ``repeats`` calls."""
    samples = []
    for __ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return median(samples)


def xml_probes(units: int) -> dict:
    from repro.xml.binary import decode_document, encode_document
    from repro.xml.parser import parse_document
    from repro.xml.serializer import serialize
    texts = [text for __, text in
             make_corpus(CLASS_KEY, units, DEFAULT_SEED)]
    megabytes = sum(len(text.encode()) for text in texts) / 1e6
    parsed = [parse_document(text) for text in texts]
    encoded = [encode_document(doc) for doc in parsed]
    return {
        "xml.parse_mb_s": megabytes / _timed(
            lambda: [parse_document(text) for text in texts]),
        "xml.serialize_mb_s": megabytes / _timed(
            lambda: [serialize(doc) for doc in parsed]),
        "xml.rxb1_encode_mb_s": megabytes / _timed(
            lambda: [encode_document(doc) for doc in parsed]),
        "xml.rxb1_decode_mb_s": megabytes / _timed(
            lambda: [decode_document(data) for data in encoded]),
    }


def xquery_probes() -> dict:
    from repro.workload.queries import QUERIES_BY_ID
    from repro.xquery.parser import parse_query
    texts = [text for qid in QUERIES
             for text in QUERIES_BY_ID[qid].xquery.values()]
    seconds = _timed(lambda: [parse_query(text) for text in texts])
    return {"xquery.compile_ms": 1000 * seconds / len(texts)}


def relstore_probes(rows: int) -> dict:
    """Insert, scan and index lookup on a table shaped like the
    shredded DC/MD order-line table."""
    from repro.relstore.database import Database
    from repro.relstore.table import Column
    from repro.relstore.types import ColumnType

    def build() -> Database:
        database = Database("probe")
        database.create_table("order_line", [
            Column("doc_id", ColumnType.INTEGER),
            Column("line_id", ColumnType.INTEGER),
            Column("item_id", ColumnType.TEXT),
            Column("quantity", ColumnType.INTEGER),
            Column("discount", ColumnType.DECIMAL),
            Column("comments", ColumnType.TEXT)])
        database.create_index("order_line", "doc_id", kind="hash")
        for n in range(rows):
            database.insert_row("order_line", {
                "doc_id": n // 4, "line_id": n, "item_id": f"I{n % 997}",
                "quantity": n % 7, "discount": 0.05,
                "comments": "word_3 in a short comment"})
        return database

    insert_s = _timed(build, repeats=3)
    database = build()
    scan_s = _timed(lambda: sum(1 for __ in database.scan("order_line")))
    lookups = range(0, rows // 4, 7)
    lookup_s = _timed(lambda: [list(database.lookup("order_line", "doc_id", n))
                              for n in lookups])
    return {"relstore.insert_rows_per_s": rows / insert_s,
            "relstore.scan_rows_per_s": rows / scan_s,
            "relstore.lookup_us": 1e6 * lookup_s / len(lookups)}


def wal_probes(tmp: Path, appends: int) -> dict:
    from repro.core.wal import WriteAheadLog
    op = ("update_value", "order/@id", "17", "order_status", "t42-closed0-9")
    out = {}
    for policy in ("always", "batch", "off"):
        with WriteAheadLog(tmp / f"wal-{policy}", 0, fsync=policy) as log:
            start = time.perf_counter()
            for seq in range(1, appends + 1):
                log.append(seq, op)
            out[f"wal.append_us.{policy}"] = (
                1e6 * (time.perf_counter() - start) / appends)
    return out


def server_probes(calls: int) -> dict:
    """Frame encode/decode and admission, without a server."""
    from repro.server.admission import AdmissionController, Request
    from repro.server.protocol import encode_frame, recv_message
    message = {"op": "query", "qid": "Q12", "tenant": "default",
               "params": {"id": "100", "name": "order100.xml",
                          "word": "word_3", "from": "2002-01-01",
                          "to": "2002-12-31"}}
    encode_s = _timed(lambda: [encode_frame(message) for __ in range(calls)])
    frame = encode_frame(message)
    left, right = socket.socketpair()
    try:
        def decode() -> None:
            for __ in range(calls):
                left.sendall(frame)
                recv_message(right)
        # The socket write is part of the loop but not of the metric's
        # claim; it is the same on both sides of any comparison.
        decode_s = _timed(decode)
    finally:
        left.close()
        right.close()

    def admit() -> None:
        controller = AdmissionController(capacity=64, executors=1)
        for __ in range(calls):
            controller.submit(Request(tenant="default"))
            controller.next_ready()

    return {"server.frame_encode_us": 1e6 * encode_s / calls,
            "server.frame_decode_us": 1e6 * decode_s / calls,
            "server.admission_us": 1e6 * _timed(admit) / calls}


def shard_probes(tmp: Path, units: int, updates: int) -> tuple[dict, list]:
    """An in-process two-shard durable engine beside a single-process
    one: load report, RPC overhead, answer equality, WAL and checkpoint
    counters, then an aborted engine's recovery."""
    from repro import obs
    from repro.core.shard import ShardedEngine
    from repro.engines import create
    from repro.workload import bind_params
    from repro.workload.updates import UPDATE_TARGETS
    texts = make_corpus(CLASS_KEY, units, DEFAULT_SEED)
    params = {qid: bind_params(qid, CLASS_KEY, units) for qid in QUERIES}
    id_path, target_tag, __ = UPDATE_TARGETS[CLASS_KEY]
    data_dir = tmp / "shard-probe"
    layers: dict = {}
    problems: list[str] = []
    recorder = obs.Recorder(name="perf-probe")

    def point_ms(engine) -> float:
        return 1000 * _timed(lambda: engine.execute("Q5", params["Q5"]),
                            repeats=40)

    with create("native") as single:
        load_indexed(single, CLASS_KEY, texts)
        single_ms = point_ms(single)
        sharded = ShardedEngine("native", shards=2, data_dir=data_dir,
                                fsync="always")
        try:
            with obs.observing(recorder):
                stats = load_indexed(sharded, CLASS_KEY, texts)
                report = sharded.last_load_report
                workers = [phases for phases in report["workers"] if phases]
                layers["shard.bulk_load_s"] = stats.seconds
                layers["shard.encode_s"] = report["encode_seconds"]
                # A worker's timed load is the decode of its RXB1 slices.
                for name, phase in (("attach", "attach_seconds"),
                                    ("decode", "load_seconds")):
                    layers[f"shard.{name}_s"] = max(
                        (w[phase] for w in workers), default=0.0)
                layers["shard.pipe_bytes"] = recorder.counters.snapshot() \
                    .get("shard.pipe_bytes", 0)
                for qid in QUERIES:
                    if sharded.execute(qid, params[qid]) \
                            != single.execute(qid, params[qid]):
                        problems.append(f"sharded native {qid} differs "
                                        "from single-process native")
                layers["shard.rpc_overhead_ms"] = \
                    point_ms(sharded) - single_ms
                before = recorder.counters.snapshot()
                for n in range(updates):
                    sharded.update_value(id_path, str(1 + n % units),
                                         target_tag, f"probe-{n}")
                moved = recorder.counters.delta(before)
                layers["wal.fsyncs_per_update"] = \
                    moved.get("wal.fsyncs", 0) / updates
                layers["wal.bytes_per_update"] = \
                    tree_bytes(data_dir) / updates
                checkpoint = sharded.checkpoint()
                layers["checkpoint.seconds"] = checkpoint["seconds"]
                layers["checkpoint.bytes"] = sum(
                    path.stat().st_size
                    for path in data_dir.rglob(
                        f"ckpt-{checkpoint['seq']:012d}-*"))
                layers["checkpoint.count"] = recorder.counters.snapshot() \
                    .get("shard.checkpoints", 0)
                for n in range(updates):
                    sharded.update_value(id_path, str(1 + n % units),
                                         target_tag, f"suffix-{n}")
            sharded.abort()
        except BaseException:
            sharded.close()
            raise
    recovered = ShardedEngine("native", shards=2, recover_dir=data_dir,
                              fsync="always")
    try:
        recovery = recovered.last_recovery_report
        layers["wal.recovery_s"] = recovery["seconds"]
        layers["wal.replay_records_per_s"] = \
            recovery["wal_records"] / recovery["seconds"]
        if recovery["committed_seq"] != 2 * updates:
            problems.append(f"recovered to seq {recovery['committed_seq']},"
                            f" not the {2 * updates} written")
    finally:
        recovered.close()
    return layers, problems


def run(cfg: dict) -> dict:
    tmp = Path(cfg["tmp"])
    layers = {}
    layers.update(xml_probes(cfg["units"]))
    layers.update(xquery_probes())
    layers.update(relstore_probes(cfg["rows"]))
    layers.update(wal_probes(tmp, cfg["appends"]))
    layers.update(server_probes(cfg["calls"]))
    shard_layers, problems = shard_probes(tmp, cfg["units"], cfg["updates"])
    layers.update(shard_layers)
    return {"layers": layers, "attempted": len(QUERIES) + 1,
            "failed": len(problems), "problems": problems}
