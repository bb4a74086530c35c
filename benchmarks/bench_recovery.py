"""Crash-recovery benchmark: recovery time vs journal length, plus the
checkpoint-compaction disk bound.

Run as a script to (re)generate ``BENCH_recovery.json``::

    PYTHONPATH=src python benchmarks/bench_recovery.py

Three measurements over the durable sharded engine:

* **Recovery curve** — load a corpus into a fresh data directory (the
  load takes the baseline checkpoint), apply N acknowledged writes with
  checkpointing disabled so all N land in the WAL suffix, hard-kill the
  engine (:meth:`ShardedEngine.abort`, kill -9 semantics) and time the
  cold start.  Recovery time should grow roughly linearly with the
  replayed journal length — the curve is the argument for checkpoint
  compaction.
* **Compaction bound** — the same write stream with periodic
  checkpoints: after the final checkpoint the on-disk WAL must stay
  under ``KEEP * segment_bytes``, whatever the shard count (the
  manifest keeps ``KEEP`` checkpoints, so only the segments above the
  oldest retained one survive, plus the live segment the final
  checkpoint left empty).  The bound is a hard gate: exceeding it
  exits non-zero (CI runs this).
* **fsyncs per acknowledged update** — the ``wal.fsyncs`` counter over
  a run of updates under ``fsync="always"``, at 2 and at 4 shards.
  The engine keeps one log, so both figures must be exactly 1; anything
  else also exits non-zero, so a per-shard append cannot creep back.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile

from repro.core.checkpoint import CheckpointManager
from repro.core.shard import ShardedEngine
from repro.databases import CLASSES_BY_KEY
from repro.obs import Recorder, observing
from repro.xml.serializer import serialize

CLASS_KEY = "dcmd"
UNITS = 24
SHARDS = 2
SEED = 11
FSYNC = "always"
JOURNAL_LENGTHS = [0, 16, 64, 160]
COMPACTION_WRITES = 96
COMPACTION_CHECKPOINT_EVERY = 24
FSYNC_SHARD_COUNTS = (2, 4)
FSYNC_UPDATES = 32
SEGMENT_BYTES = 64 * 1024
UPDATE = ("order/@id", "order_status")
ARTIFACT = os.path.join(os.path.dirname(__file__),
                        "BENCH_recovery.json")


def corpus_texts():
    db_class = CLASSES_BY_KEY[CLASS_KEY]
    documents = db_class.generate(UNITS, seed=SEED)
    return db_class, [(doc.name, serialize(doc))
                      for doc in documents]


def durable_engine(db_class, texts, data_dir, shards=SHARDS, **kwargs):
    engine = ShardedEngine("native", shards=shards, data_dir=data_dir,
                           fsync=FSYNC,
                           wal_segment_bytes=SEGMENT_BYTES, **kwargs)
    engine.timed_load(db_class, list(texts))
    return engine


def write(engine, step: int) -> None:
    engine.update_value(UPDATE[0], str(step % UNITS + 1), UPDATE[1],
                        f"tok{step}")


def recovery_point(db_class, texts, journal_records: int) -> dict:
    """One curve point: N-record WAL suffix -> timed cold start."""
    data_dir = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        engine = durable_engine(db_class, texts, data_dir)
        for step in range(journal_records):
            write(engine, step)
        wal_bytes = engine.wal_disk_bytes()
        engine.abort()

        recovered = ShardedEngine("native", shards=SHARDS,
                                  recover_dir=data_dir, fsync=FSYNC,
                                  wal_segment_bytes=SEGMENT_BYTES)
        report = recovered.last_recovery_report
        recovered.close()
        assert report["committed_seq"] == journal_records
        return {
            "journal_records": journal_records,
            "wal_records_replayed": report["wal_records"],
            "wal_disk_bytes": wal_bytes,
            "recovery_seconds": round(report["seconds"], 4),
            "committed_seq": report["committed_seq"],
            "documents": report["documents"],
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def compaction_run(db_class, texts) -> dict:
    """Checkpointed write stream -> post-compaction WAL disk bound."""
    data_dir = tempfile.mkdtemp(prefix="bench-compaction-")
    try:
        engine = durable_engine(db_class, texts, data_dir)
        peak_bytes = 0
        for step in range(COMPACTION_WRITES):
            write(engine, step)
            peak_bytes = max(peak_bytes, engine.wal_disk_bytes())
            if (step + 1) % COMPACTION_CHECKPOINT_EVERY == 0:
                engine.checkpoint()
        final_bytes = engine.wal_disk_bytes()
        journal_bytes = engine.journal_bytes()
        engine.close()
        bound = CheckpointManager.KEEP * SEGMENT_BYTES
        return {
            "writes": COMPACTION_WRITES,
            "checkpoint_every": COMPACTION_CHECKPOINT_EVERY,
            "segment_bytes": SEGMENT_BYTES,
            "peak_wal_disk_bytes": peak_bytes,
            "post_compaction_wal_disk_bytes": final_bytes,
            "post_compaction_journal_bytes": journal_bytes,
            "bound_bytes": bound,
            "within_bound": final_bytes <= bound,
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def fsyncs_per_acked_update(db_class, texts, shards: int) -> float:
    """``wal.fsyncs`` per update over a checkpoint-free run (the
    recorder goes in after the load, whose checkpoint also syncs)."""
    data_dir = tempfile.mkdtemp(prefix="bench-fsyncs-")
    try:
        engine = durable_engine(db_class, texts, data_dir, shards=shards)
        with observing(Recorder()) as recorder:
            for step in range(FSYNC_UPDATES):
                write(engine, step)
            fsyncs = recorder.counters.get("wal.fsyncs")
        engine.close()
        return fsyncs / FSYNC_UPDATES
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=ARTIFACT,
                        help="artifact path (default: the committed "
                             "benchmarks/BENCH_recovery.json)")
    args = parser.parse_args()

    db_class, texts = corpus_texts()
    curve = [recovery_point(db_class, texts, length)
             for length in JOURNAL_LENGTHS]
    compaction = compaction_run(db_class, texts)
    fsyncs = {str(shards): fsyncs_per_acked_update(db_class, texts,
                                                   shards)
              for shards in FSYNC_SHARD_COUNTS}

    artifact = {
        "schema": "xbench-recovery/1",
        "config": {
            "class": CLASS_KEY, "units": UNITS, "shards": SHARDS,
            "fsync": FSYNC, "segment_bytes": SEGMENT_BYTES,
            "journal_lengths": JOURNAL_LENGTHS, "seed": SEED,
        },
        "recovery_curve": curve,
        "compaction": compaction,
        "fsyncs_per_acked_update": fsyncs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print("recovery time vs journal length:")
    print(f"  {'records':>8} {'replayed':>9} {'wal bytes':>10} "
          f"{'seconds':>8}")
    for point in curve:
        print(f"  {point['journal_records']:>8} "
              f"{point['wal_records_replayed']:>9} "
              f"{point['wal_disk_bytes']:>10} "
              f"{point['recovery_seconds']:>8.4f}")
    print(f"compaction: peak {compaction['peak_wal_disk_bytes']} B, "
          f"final {compaction['post_compaction_wal_disk_bytes']} B "
          f"(bound {compaction['bound_bytes']} B)")
    print("fsyncs per acked update: "
          + ", ".join(f"{value:g} at {shards} shards"
                      for shards, value in fsyncs.items()))
    print(f"wrote {args.out}")
    status = 0
    if not compaction["within_bound"]:
        print("FAIL: post-compaction WAL disk exceeds "
              f"{compaction['bound_bytes']} bytes")
        status = 1
    if any(value != 1 for value in fsyncs.values()):
        print("FAIL: an acknowledged update must cost exactly one "
              f"fsync at every shard count, got {fsyncs}")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
