"""Sharded multi-process execution service (``repro.core.shard``).

XBench 1.0 is "a single machine benchmark"; the paper names distributed
operation as a planned extension, and our own multiuser harness admits
that the GIL serializes all CPU work.  This module is the first layer
that scales with cores: a :class:`ShardedEngine` partitions a
multi-document corpus across N worker *processes* by document-name hash,
each worker owning a fully loaded engine instance built through the
registry factory (:func:`repro.engines.create`), with scatter-gather
``bulk_load`` / ``execute`` / update operations over a pipe-based RPC
protocol.

Correctness model
-----------------

The single-process native engine is the oracle, and its inter-document
order is parse order (:class:`~repro.xml.nodes.Document` serials).  The
service reproduces that order exactly:

* every main document receives a **global ordinal** at partition time;
* *document-selection* queries (the default) are evaluated **per
  document** on each shard (:meth:`Engine.execute_per_document`) and
  reassembled in ordinal order — byte-identical to a whole-collection
  scan;
* queries with explicit merge metadata on the workload
  (:meth:`WorkloadQuery.merge_for`) use cheaper plans: ``point`` queries
  (unique document id) run whole-shard and concatenate, ``sorted``
  queries re-sort per-document results by their order-by key,
  ``regroup`` queries re-aggregate per-shard ``<group>`` fragments, and
  ``route`` queries go straight to the shard owning the named document;
* reference documents named by
  :attr:`DatabaseClass.replicated_documents` (DC/MD's flat tables) are
  replicated to every shard so cross-document joins (Q19) still resolve;
* single-document classes route everything to one *home* shard.

Robustness
----------

Every RPC has a per-call timeout enforced with a poll loop that also
watches worker liveness, so a killed worker is detected in ~50 ms rather
than hanging.  A dead or timed-out worker is respawned and its state
replayed — bulk load, index state and the journal's value updates —
and the call retried under a
:class:`~repro.faults.policy.RetryPolicy` (exponential backoff with
deterministic jitter and a cumulative retry budget); exhausted retries
raise :class:`~repro.errors.ShardError`.  Each shard has a
:class:`~repro.faults.policy.CircuitBreaker`: K consecutive
infrastructure failures trip it, further calls fail fast with
:class:`~repro.errors.CircuitOpen` until a cooldown probe succeeds.
With ``degraded="partial"`` the fan-out merges answer from the healthy
shards and annotate the query with a
:class:`~repro.errors.PartialResult` incident record instead of failing
it.  Incidents are recorded on :attr:`ShardedEngine.incidents`
(surfaced in benchmark reports) and counted on the ``shard.respawns`` /
``shard.retries`` / ``shard.breaker_trips`` / ``shard.partial_results``
obs counters.  Application-level errors raised inside a worker (e.g.
``UnsupportedQuery``) are re-raised under their own exception type and
never retried.

Deadlines travel with the RPC: when a
:class:`~repro.faults.deadline.Deadline` is active on the calling
thread, its remaining budget is sent as ``("deadline", remaining,
message)`` and installed around the worker-side op, so the worker's
evaluator cancels cooperatively (:class:`~repro.errors.QueryTimeout`)
while the parent bounds its pipe wait by the same remainder plus a
grace period (the typed reply should win the race against the
infrastructure timeout).

Transport
---------

Bulk-load corpora ship through ``multiprocessing.shared_memory``: the
parent packs every payload — XML text, or pre-encoded
:class:`~repro.xml.binary.EncodedDocument` node arrays when loading
from a snapshot — into one segment, and the load RPC carries only
``(segment name, offset, length)`` triples, so the pipe cost of scatter
is independent of corpus size.  Workers attach read-only (unregistering
from their resource tracker so a crash can never unlink the parent's
segment — :mod:`repro.core.shm`), copy their slices out, and detach; a
respawned worker re-attaches the same segment instead of re-shipping.
The parent owns the segment via a reference count and unlinks it on
the next ``bulk_load`` or ``close()``.  There is no knob: when the
segment cannot be built (no shared memory on the host) the load falls
back to inline pipe payloads and says so in an incident.  Documents
inserted after load ride inline as ``extras`` in the respawn replay.
:attr:`ShardedEngine.last_load_report` records the transport used,
parent-side encode/copy time, segment size and per-worker attach/load
phase timings; the ``shard.pipe_bytes`` / ``shard.shm_segments`` /
``shard.shm_bytes`` obs counters quantify what actually crossed each
medium.

Replication
-----------

``replicas=N`` gives every shard ``N`` read replicas, organised as
*rows*: replica row ``r`` holds one replica worker per shard, so a
whole read fan-out can run against one row without touching the
primaries.  Primaries acknowledge writes as before; each acknowledged
write appends **one sequence-numbered** entry to the engine's journal
(``_committed_seq`` is the global write sequence).  A replica of shard
``i`` is shipped the entries that touch shard ``i`` — every
``update_value``, and the inserts/deletes of documents ``shard_of``
places there (:meth:`ShardedEngine._journal_for`) — over the same pipe
RPC as a ``("replay", upto_seq, entries)`` batch: synchronously after
each write by default, or batched by a background thread every
``ship_interval`` seconds.  Replicas suppress duplicate sequences and
report their ``applied_seq`` back, so lag is observable
(``shard.replica_lag`` gauge, :meth:`replication_state`).

Read-only queries route by consistency tier
(:mod:`repro.api`): ``strong`` pins to the primaries,
``read_your_writes`` needs a row that has applied the session's last
write, ``bounded_staleness`` tolerates a bounded write lag and
``eventual`` takes any live row — among eligible rows the one with the
fewest outstanding reads wins, and with no eligible row the read falls
back to the primaries (``shard.consistency_fallbacks``).  A replica
failure mid-read marks the row deficient (repaired by respawn on the
next lease or flush) and the read retries on the primaries.

When a *primary* dies and replicas exist, recovery prefers **failover**
over respawn-and-replay: the freshest replica of that shard is caught
up from the journal, promoted in place (re-tagged to the primary
namespace), and its old row slot becomes a deficit to backfill —
``shard.failovers`` counts these, and the shard's breaker closes on
the successful promotion instead of burning its retry budget.

Fault-injection sites (:mod:`repro.faults.plan`, free when no plan is
installed): ``shard.rpc`` (worker side, per op — including ``replay``,
which the replica-lag chaos scenario delays), ``shard.pipe`` (parent
side, per send) and ``shard.result`` (worker-side result payload).
The WAL adds ``wal.append`` and ``wal.fsync`` (:mod:`repro.core.wal`).

Durability
----------

``data_dir=`` makes acknowledged writes survive the process: every
write appends once to the engine's one
:class:`~repro.core.wal.WriteAheadLog` (fsync policy
``always|batch|off`` — one fsync per ack under ``always``, whatever the
shard count) before the call returns, and
:meth:`ShardedEngine.checkpoint` — manual, or periodic via
``checkpoint_interval`` — exports every shard's *current* engine state
through the ``snapshot`` worker op into per-shard RXSN files, records
the cut in a :class:`~repro.core.checkpoint.CheckpointManager`
manifest, compacts WAL segments below the oldest retained checkpoint
and truncates the in-memory journal to the uncompacted suffix
(``shard.journal_bytes`` gauges the bound).  A checkpoint also
refreshes the parent's ``mains`` with the exported payloads, so primary
respawns and replica rebuilds load checkpoint state + journal suffix
instead of original text + full history — replicas that fall below the
journal floor (their entries were compacted) are rebuilt the same way
(``shard.snapshot_catchups``), which is exactly snapshot-based catch-up
after a long partition.  ``ShardedEngine(recover_dir=...)`` cold-starts
from the newest *valid* checkpoint (damaged ones fall back to the
previous) plus one in-order pass over the log to the exact committed
sequence; a corrupt WAL record is skipped with a typed
:class:`~repro.errors.WalCorruption` incident naming it — that one
write is lost, the rest replay, never a crash.
"""

from __future__ import annotations

import builtins
import gc
import itertools
import multiprocessing
import pickle
import threading
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .. import api as _api
from .. import errors as _errors_module
from ..databases import CLASSES_BY_KEY
from ..databases.base import DatabaseClass
from ..engines import create
from ..engines.base import Engine, LoadStats
from ..errors import (
    CircuitOpen,
    FaultInjected,
    QueryTimeout,
    RecoveryError,
    ShardError,
    UnsupportedOperation,
)
from ..faults import deadline as _deadline
from ..faults import plan as _faults
from ..faults.policy import CircuitBreaker, RetryPolicy
from ..obs import recorder as _obs
from ..obs import trace as _trace
from ..obs.export import trace_records as _trace_records
from ..workload.queries import QUERIES_BY_ID
from ..xml.binary import EncodedDocument, encode_document
from ..xml.nodes import Text
from ..xml.parser import parse_document
from ..xml.serializer import serialize
from . import shm as _shm
from .checkpoint import MANIFEST_FORMAT, CheckpointManager
from .corpus_io import write_snapshot_payloads
from .wal import DEFAULT_SEGMENT_BYTES, FSYNC_POLICIES, WriteAheadLog

#: Default per-RPC timeout (seconds).  Bulk loads at large scales are
#: the slowest calls; queries finish orders of magnitude faster.
DEFAULT_TIMEOUT = 120.0

#: extra pipe-wait past a propagated deadline, so a worker's typed
#: QueryTimeout reply beats the parent's infrastructure timeout.
DEADLINE_GRACE = 0.25


def shard_of(name: str, shards: int) -> int:
    """The shard owning document ``name``.

    Uses ``crc32`` rather than the builtin ``hash`` because the latter
    is salted per process — partitioning must agree across runs (and
    across parent/worker processes).
    """
    return zlib.crc32(name.encode("utf-8")) % shards


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------

def _shard_worker(conn, engine_key: str, shard_index: int = 0,
                  generation: int = 0, tag: str | None = None) -> None:
    """Worker process main loop: one engine, one duplex pipe.

    Replies ``("ok", result)``, ``("okt", result, span_records)`` for
    traced calls, or ``("error", type_name, message)``; the parent
    reconstructs exceptions from :mod:`repro.errors` (or builtins) by
    type name.  Messages may arrive wrapped as ``("trace", ctx,
    inner)`` and/or ``("deadline", remaining, inner)`` (trace
    outermost): the remaining budget is installed as a
    :class:`~repro.faults.deadline.Deadline` around the op so
    evaluation cancels cooperatively, and a trace context makes the op
    record a ``shard.worker`` span (plus any engine spans) into a
    per-call collector whose exported records ride back on the reply —
    workers write no files, so span export stays atomic at the parent.
    """
    # The worker is forked from the parent, which may have an obs
    # recorder installed; observations recorded here would die with the
    # process, so drop the inherited recorder and make the hooks no-op.
    _obs.uninstall()
    # Span gids exported from this process are namespaced by (shard,
    # respawn generation) — replicas carry a row marker too
    # ("w<shard>r<row>.g<gen>") — so a respawned worker can never
    # collide with spans its predecessor already shipped for the same
    # trace.  A promoted replica is re-tagged via the "promote" op.
    tag = tag or f"w{shard_index}.g{generation}"
    _trace.set_process_tag(tag)
    # The fork also inherits any installed FaultPlan.  Re-key the
    # decision namespace per (shard, respawn generation): decisions stay
    # deterministic, but a respawned worker's retried call draws a fresh
    # decision instead of replaying the crash that killed its
    # predecessor.
    _faults.set_namespace(tag)
    # Under the fork start method the worker inherits the parent's
    # entire heap copy-on-write.  The first collections in the child
    # would traverse the gc headers of every inherited object, faulting
    # those shared pages into private copies — a large, pure overhead
    # tax on the first bulk load.  Freeze the inherited heap into the
    # permanent generation (an O(1) list splice) so the collector never
    # traverses it; everything this worker allocates is still collected
    # normally.
    gc.freeze()
    # One span-id counter for the whole worker lifetime: each traced
    # call gets a fresh collector, so without this the ids (and hence
    # the exported gids) would restart at 1 on every call and collide.
    span_ids = itertools.count(1)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        # Every request is (call_id, payload); the id is echoed in the
        # reply so the parent can discard replies to calls it abandoned
        # (e.g. a deadline fired while the worker was still computing).
        call_id, message = message
        trace_ctx = None
        if message[0] == "trace":
            __, trace_wire, message = message
            trace_ctx = _trace.from_wire(trace_wire)
        deadline = None
        if message[0] == "deadline":
            __, remaining, message = message
            deadline = _deadline.Deadline(remaining)
        op = message[0]
        try:
            with _deadline.deadline_scope(deadline):
                if trace_ctx is not None:
                    collector = _obs.Recorder(name="shard-worker")
                    collector.tracer._ids = span_ids
                    with _obs.observing(collector), \
                            _trace.trace_scope(trace_ctx):
                        with _obs.span("shard.worker", op=op,
                                       shard=shard_index):
                            result = _run_worker_op(
                                engine_key, shard_index, op, message,
                                deadline)
                    reply = ("okt", result, _trace_records(collector))
                else:
                    result = _run_worker_op(engine_key, shard_index,
                                            op, message, deadline)
                    reply = ("ok", result)
        except _WorkerStop:
            try:
                conn.send((call_id, ("ok", None)))
            except (OSError, ValueError):
                pass
            break
        except Exception as exc:  # noqa: BLE001 - forwarded to parent
            try:
                conn.send((call_id,
                           ("error", type(exc).__name__, str(exc))))
            except (OSError, ValueError):
                break
            continue
        try:
            conn.send((call_id, reply))
        except (OSError, ValueError):
            break
    conn.close()


class _WorkerStop(Exception):
    """Internal: the worker received ``stop`` and should exit."""


def _run_worker_op(engine_key: str, shard_index: int, op: str,
                   message: tuple, deadline):
    """Dispatch one worker op and return its result.

    Split out of the loop so the whole op — injection site, deadline
    check and dispatch — sits under one ``deadline_scope`` / error
    handler (and, when traced, inside the ``shard.worker`` span, which
    must close before the reply is serialized so its duration rides
    along).  ``stop`` raises :class:`_WorkerStop`; the loop acks it.
    """
    global _worker_engine, _worker_applied_seq
    engine = _worker_engine
    _faults.inject("shard.rpc", op=op, shard=shard_index)
    if deadline is not None:
        # A delay fault may already have consumed the budget; fail
        # typed before doing any work.
        deadline.check("rpc dispatch")
    if op == "load":
        engine = _worker_engine = create(engine_key)
        _worker_applied_seq = 0
        db_class = CLASSES_BY_KEY[message[1]]
        if isinstance(message[2], dict):
            texts, phases = _read_segment_corpus(message[2])
        else:
            __, __class_key, mains, replicated = message
            texts = [(name, text) for __ord, name, text in mains]
            texts.extend(replicated)
            phases = None
        stats = engine.timed_load(db_class, texts)
        result = {"documents": stats.documents,
                  "bytes": stats.bytes, "rows": stats.rows,
                  "seconds": stats.seconds}
        if phases is not None:
            phases["load_seconds"] = stats.seconds
            result["phases"] = phases
    elif op == "indexes":
        engine.create_indexes(list(message[1]))
        result = None
    elif op == "drop_indexes":
        engine.drop_indexes()
        result = None
    elif op == "execute":
        __, qid, params = message
        result = engine.execute(qid, dict(params))
    elif op == "execute_per_doc":
        __, qid, params, names = message
        try:
            parts = engine.execute_per_document(
                qid, dict(params), list(names))
            result = {"mode": "per_doc", "parts": parts}
        except UnsupportedOperation:
            result = {"mode": "whole",
                      "values": engine.execute(qid, dict(params))}
    elif op == "adhoc":
        __, text, params = message
        result = engine.adhoc(text, dict(params)).values
    elif op == "insert":
        __, name, text = message
        engine.insert_document(name, text)
        result = None
    elif op == "delete":
        engine.delete_document(message[1])
        result = None
    elif op == "update_value":
        __, id_path, id_value, target_tag, new_value = message
        result = engine.update_value(id_path, id_value,
                                     target_tag, new_value)
    elif op == "replay":
        # Journal shipping: apply sequence-numbered write entries,
        # suppressing any sequence already applied (duplicate batches
        # are harmless), then advance to ``upto_seq`` — an empty batch
        # is how a freshly-loaded replica gets stamped as caught up.
        __, upto_seq, entries = message
        applied = _worker_applied_seq
        for seq, entry in entries:
            if seq <= applied:
                continue
            _apply_journal_op(engine, entry)
            applied = seq
        _worker_applied_seq = max(applied, int(upto_seq))
        result = _worker_applied_seq
    elif op == "snapshot":
        # Checkpoint: export the engine's *current* documents (the
        # parent's ``mains`` text is stale the moment an update_value
        # lands worker-side) as RXB1 payloads.  The parent assembles
        # them into per-shard RXSN snapshot files and refreshes its
        # own state from the same payloads.
        result = [(document.name, encode_document(document))
                  for document in engine.export_documents()]
    elif op == "promote":
        # Failover: this replica is now shard ``shard_index``'s
        # primary.  Re-tag span gids and the fault namespace so spans
        # and chaos decisions attribute to its new role.
        _trace.set_process_tag(message[1])
        _faults.set_namespace(message[1])
        result = None
    elif op == "ping":
        result = "pong"
    elif op == "stop":
        raise _WorkerStop
    else:
        raise ShardError(f"unknown worker op {op!r}")
    return _faults.corrupt_value("shard.result", result, op=op,
                                 shard=shard_index)


def _payload_from(buf, name: str, kind: str, offset: int, length: int):
    """One load payload copied out of a shared-memory segment.

    Kind ``"b"`` is an RXB1 node array (stays encoded; the engine's
    ``materialize`` decodes it without parsing), ``"t"`` is UTF-8 XML
    text.  Both copy, so the segment can be detached immediately.
    """
    raw = bytes(buf[offset:offset + length])
    if kind == "b":
        return EncodedDocument(name, raw)
    return raw.decode("utf-8")


def _read_segment_corpus(spec: dict) -> tuple[list, dict]:
    """Materialize a worker's corpus from the shm load ``spec``.

    Attaches the named segment, copies this shard's slices out and
    detaches *before* the timed load, so a worker never holds the
    parent's segment open past the RPC that shipped it.  Returns the
    ``(name, payload)`` list (mains in ordinal order, then ``extras``
    inserted after the original load, then replicated documents) plus
    an ``attach_seconds`` phase timing.
    """
    start = time.perf_counter()
    segment = _shm.attach_segment(spec["segment"])
    try:
        buf = segment.buf
        mains = [(ordinal, name,
                  _payload_from(buf, name, kind, offset, length))
                 for ordinal, name, kind, offset, length
                 in spec["entries"]]
        replicated = [(name,
                       _payload_from(buf, name, kind, offset, length))
                      for name, kind, offset, length
                      in spec["replicated"]]
    finally:
        _shm.detach_segment(segment)
    mains.extend(spec.get("extras", ()))
    mains.sort(key=lambda entry: entry[0])
    texts = [(name, payload) for __ord, name, payload in mains]
    texts.extend(replicated)
    return texts, {"attach_seconds": time.perf_counter() - start}


def _apply_journal_op(engine: Engine, entry: tuple) -> None:
    """Apply one shipped journal entry to a replica's engine."""
    op = entry[0]
    if op == "insert":
        engine.insert_document(entry[1], entry[2])
    elif op == "delete":
        engine.delete_document(entry[1])
    elif op == "update_value":
        engine.update_value(entry[1], entry[2], entry[3], entry[4])
    else:
        raise ShardError(f"unknown journal op {op!r}")


#: the worker process's engine instance (one worker per process).
_worker_engine: Engine | None = None

#: highest journal sequence this worker has applied (replicas only;
#: reset on every load, advanced by ``replay`` batches).
_worker_applied_seq: int = 0


def _rebuild_error(type_name: str, message: str) -> Exception:
    """Reconstruct a worker-side exception by type name."""
    for namespace in (_errors_module, builtins):
        cls = getattr(namespace, type_name, None)
        if isinstance(cls, type) and issubclass(cls, Exception):
            try:
                return cls(message)
            except TypeError:
                break
    return ShardError(f"worker raised {type_name}: {message}")


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------

class _WorkerFailure(Exception):
    """Internal: an RPC failed at the infrastructure level (worker dead,
    pipe broken, or call timed out) — eligible for respawn + retry."""


@dataclass
class _Worker:
    """Parent-side handle of one worker process."""

    index: int
    process: multiprocessing.process.BaseProcess
    conn: object  # multiprocessing.connection.Connection
    #: RPC sequence counter; each call's id is echoed in its reply so
    #: replies to abandoned calls are recognisably stale.
    calls: int = 0
    #: highest journal sequence this worker has acknowledged applying
    #: (replicas only; primaries are by definition at the committed
    #: sequence).  Parent-side mirror of the worker's own counter.
    applied_seq: int = 0

    def next_call_id(self) -> int:
        self.calls += 1
        return self.calls


@dataclass
class _ShardState:
    """Everything needed to (re)build one shard's engine."""

    #: main documents owned by this shard: (ordinal, name, payload) —
    #: XML text at load time, refreshed to RXB1
    #: :class:`~repro.xml.binary.EncodedDocument` payloads at each
    #: checkpoint so respawns load checkpoint state, not original text.
    mains: list[tuple[int, str, str]] = field(default_factory=list)


class ShardedEngine(Engine):
    """Engine facade that scatter-gathers over N worker processes.

    Satisfies the full :class:`Engine` contract — ``timed_load`` /
    ``timed_execute`` / updates / ``adhoc`` / context manager — so the
    benchmark driver, the multiuser harness and the CLI treat it exactly
    like a local engine.  Public operations are serialized by an RLock
    (concurrent streams queue at the service); each operation still fans
    out across all workers in parallel.
    """

    #: accepted values for the ``degraded`` policy knob.
    DEGRADED_MODES = ("fail", "partial")

    def __init__(self, engine_key: str = "native", shards: int = 2,
                 timeout: float | None = DEFAULT_TIMEOUT,
                 retries: int = 1, *, degraded: str = "fail",
                 seed: int = 0, backoff_base: float = 0.05,
                 retry_budget: float = 30.0,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 5.0,
                 replicas: int = 0,
                 ship_interval: float = 0.0,
                 default_consistency="strong",
                 service_floor: float = 0.0,
                 data_dir: str | Path | None = None,
                 recover_dir: str | Path | None = None,
                 fsync: str = "batch",
                 wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 checkpoint_interval: float = 0.0) -> None:
        super().__init__()
        if shards < 1:
            raise ShardError(f"shards must be >= 1, got {shards}")
        if replicas < 0:
            raise ShardError(f"replicas must be >= 0, got {replicas}")
        if fsync not in FSYNC_POLICIES:
            raise ShardError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if recover_dir is not None:
            if data_dir is not None \
                    and Path(data_dir) != Path(recover_dir):
                raise ShardError(
                    "pass either data_dir or recover_dir, not both")
            data_dir = recover_dir
        if degraded not in self.DEGRADED_MODES:
            raise ShardError(
                f"degraded must be one of {self.DEGRADED_MODES}, "
                f"got {degraded!r}")
        inner = create(engine_key)   # metadata + check_supported proxy
        self._inner = inner
        self.engine_key = engine_key
        self.shards = shards
        self.timeout = DEFAULT_TIMEOUT if timeout is None else timeout
        self.retries = retries
        self.degraded = degraded
        self.key = engine_key
        self.replicas = replicas
        self.ship_interval = ship_interval
        self._default_consistency = _api.Consistency.parse(
            default_consistency)
        #: minimum wall time a query holds its lease (primary lock or
        #: replica row lock) — models a per-row service-time floor so
        #: read scale-out is measurable on any core count.
        self.service_floor = service_floor
        suffix = f" +{replicas}r" if replicas else ""
        self.row_label = f"{inner.row_label} x{shards}{suffix}"
        self.description = (f"{inner.description} — sharded across "
                            f"{shards} worker processes")
        #: infrastructure incidents (respawns, retries) for the report.
        self.incidents: list[str] = []
        #: partial-result records: {"qid", "failed_shards", "reason"}.
        self.partials: list[dict] = []
        self._retry = RetryPolicy(retries=retries, base=backoff_base,
                                  budget_seconds=retry_budget,
                                  seed=seed)
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._breakers = self._new_breakers()
        self._lock = threading.RLock()
        self._ctx = multiprocessing.get_context("fork")
        self._workers: list[_Worker | None] = [None] * shards
        self._generations = [0] * shards
        self._states = [_ShardState() for __ in range(shards)]
        self._replicated: list[tuple[str, str]] = []
        self._ordinals: dict[str, int] = {}
        self._next_ordinal = 0
        self._index_paths: list[str] = []
        self._class_key: str | None = None
        self._home: int | None = None   # single-document classes
        #: perf_counter of the first reply of the current execute()
        #: fan-out — the raw material of time-to-first-result.
        self._first_reply_ts: float | None = None
        self._segment: _shm.OwnedSegment | None = None
        self._segment_entries: list[dict] = [dict()
                                             for __ in range(shards)]
        self._replicated_entries: list[tuple] = []
        #: transport + phase timings of the most recent bulk load
        #: (None before the first load).
        self.last_load_report: dict | None = None
        # -- replication state --
        #: global write sequence: bumped once per acknowledged write.
        self._committed_seq = 0
        #: acknowledged writes since the last checkpoint as ``(seq,
        #: op)`` entries, in sequence order — the one replication log.
        #: Read per shard through :meth:`_journal_for`.
        self._journal: list[tuple[int, tuple]] = []
        #: highest sequence *truncated out of* the journal (the last
        #: checkpoint's cut).  The journal holds exactly the entries
        #: with ``seq > _journal_floor``; a replica whose applied
        #: sequence fell below the floor cannot catch up incrementally
        #: and is rebuilt from the checkpoint-refreshed ``mains``.
        self._journal_floor = 0
        #: replica row r (1-based) lives at _replica_rows[r - 1]: one
        #: worker per shard, or None where the slot is dead.
        self._replica_rows: list[list[_Worker | None]] = [
            [None] * shards for __ in range(replicas)]
        self._replica_generations = [[0] * shards
                                     for __ in range(replicas)]
        #: one lock per replica row; a replica read leases the whole
        #: row so its pipes never interleave with another reader.
        #: Lock order is always self._lock -> row locks ascending.
        self._row_locks = [threading.RLock() for __ in range(replicas)]
        #: in-flight reads per row (index 0 = primaries) — the
        #: least-outstanding routing signal.  Plain int bumps; races
        #: only skew load estimates, never correctness.
        self._row_outstanding = [0] * (replicas + 1)
        #: (row, shard) slots that need a respawn (died mid-read or
        #: mid-ship); repaired lazily at the next lease or flush.
        self._replica_deficits: set[tuple[int, int]] = set()
        self._replicas_loaded = False
        #: completed primary->replica promotions (see _try_failover).
        self.failovers = 0
        self._ship_thread: threading.Thread | None = None
        self._ship_stop = threading.Event()
        # -- durability state --
        self._data_dir = Path(data_dir) if data_dir is not None else None
        self._fsync = fsync
        self._wal_segment_bytes = wal_segment_bytes
        self.checkpoint_interval = checkpoint_interval
        self._wal: WriteAheadLog | None = None
        self._checkpoint_manager = (
            CheckpointManager(self._data_dir)
            if self._data_dir is not None else None)
        self._checkpoint_thread: threading.Thread | None = None
        self._checkpoint_stop = threading.Event()
        #: the last checkpoint's committed sequence (0 = none yet).
        self.last_checkpoint_seq = 0
        #: what the last :meth:`recover` rebuilt (None before one).
        self.last_recovery_report: dict | None = None
        #: set while close() tears the engine down, so a replication
        #: flush or background tick racing shutdown becomes a no-op
        #: instead of touching a half-released engine.
        self._closing = False
        if recover_dir is not None:
            self.recover()

    @staticmethod
    def can_recover(data_dir: str | Path) -> bool:
        """Whether ``data_dir`` holds a checkpoint manifest to
        cold-start from (the server's recover-vs-fresh-load fork)."""
        return CheckpointManager.exists(data_dir)

    def _new_breakers(self) -> list[CircuitBreaker]:
        return [CircuitBreaker(threshold=self._breaker_threshold,
                               cooldown=self._breaker_cooldown,
                               name=f"shard {index} breaker")
                for index in range(self.shards)]

    # -- configuration gating ------------------------------------------------

    def check_supported(self, db_class: DatabaseClass,
                        scale_name: str) -> None:
        self._inner.check_supported(db_class, scale_name)

    # -- live telemetry ------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (for resource sampling)."""
        pids = [worker.process.pid for worker in self._workers
                if worker is not None and worker.process.is_alive()]
        for row_workers in self._replica_rows:
            pids.extend(worker.process.pid for worker in row_workers
                        if worker is not None
                        and worker.process.is_alive())
        return pids

    @property
    def committed_seq(self) -> int:
        """The global write sequence (last acknowledged write)."""
        return self._committed_seq

    def replication_state(self) -> dict:
        """Replica-row snapshot: liveness, applied sequence and lag."""
        with self._lock:
            committed = self._committed_seq
            rows = []
            for row in range(1, self.replicas + 1):
                workers = self._replica_rows[row - 1]
                alive = all(worker is not None
                            and worker.process.is_alive()
                            for worker in workers)
                applied = min((worker.applied_seq for worker in workers
                               if worker is not None), default=0)
                rows.append({"row": row, "alive": alive,
                             "applied_seq": applied,
                             "lag": max(0, committed - applied),
                             "outstanding": self._row_outstanding[row]})
            return {"replicas": self.replicas,
                    "committed_seq": committed,
                    "ship_interval": self.ship_interval,
                    "failovers": self.failovers,
                    "rows": rows}

    def breaker_states(self) -> list[dict]:
        """Per-shard circuit-breaker snapshot for the stats surface."""
        return [{"shard": index, "state": breaker.state,
                 "consecutive_failures": breaker.consecutive_failures,
                 "trips": breaker.trips}
                for index, breaker in enumerate(self._breakers)]

    # -- partitioning --------------------------------------------------------

    def shard_of(self, name: str) -> int:
        """The shard owning main document ``name``."""
        if self._home is not None:
            return self._home
        return shard_of(name, self.shards)

    def _partition(self, db_class: DatabaseClass, texts) -> None:
        replicated_names = set(db_class.replicated_documents)
        for name, text in texts:
            if name in replicated_names:
                self._replicated.append((name, text))
                continue
            if db_class.single_document and self._home is None:
                # All of a single-document class lives on one shard.
                self._home = shard_of(name, self.shards)
            ordinal = self._next_ordinal
            self._next_ordinal += 1
            self._ordinals[name] = ordinal
            self._states[self.shard_of(name)].mains.append(
                (ordinal, name, text))

    # -- lifecycle -----------------------------------------------------------

    @contextmanager
    def _exclusive(self):
        """Global lock plus every row lock, in ascending order.

        Every state mutation (load, indexes, writes, shipping, close)
        runs under this, so a reader holding only its row lock sees
        stable corpus state for the duration of its lease."""
        with ExitStack() as stack:
            stack.enter_context(self._lock)
            for lock in self._row_locks:
                stack.enter_context(lock)
            yield

    def bulk_load(self, db_class: DatabaseClass, texts) -> LoadStats:
        # Background threads are joined before the locks are taken:
        # they acquire the same locks with a bounded wait, so joining
        # under _exclusive() would make shutdown latency worst-case,
        # and a tick racing the reload must not see torn state.
        self._halt_background()
        with self._exclusive():
            self._closing = False
            self._reset_state()
            self._class_key = db_class.key
            self._partition(db_class, texts)
            transport, encode_seconds = self._stage_corpus()
            try:
                with _obs.span("shard.bulk_load", shards=self.shards,
                               engine=self.engine_key,
                               transport=transport):
                    for index in range(self.shards):
                        self._spawn(index)
                    replies = self._scatter(range(self.shards),
                                            self._load_message)
                if self.replicas:
                    self._load_replica_rows()
            except BaseException:
                self._release_segment()
                raise
            if self._data_dir is not None:
                # Durable mode: open the log and establish the
                # load-time checkpoint — the baseline every
                # recovery starts from (WAL replay alone cannot
                # recreate the bulk-loaded corpus).
                self._open_wal()
                self._checkpoint_locked()
                self._start_checkpoint_thread()
            self.last_load_report = {
                "transport": transport,
                "encode_seconds": encode_seconds,
                "segment_bytes": (self._segment.size
                                  if self._segment is not None else 0),
                "workers": [reply.get("phases") for reply in replies],
            }
            documents = self._next_ordinal + len(self._replicated)
            loaded_bytes = (sum(len(t) for __, __n, t in
                                self._iter_mains())
                            + sum(len(t) for __, t in self._replicated))
            return LoadStats(
                documents=documents, bytes=loaded_bytes,
                rows=sum(reply["rows"] for reply in replies),
                notes=[f"sharded across {self.shards} workers "
                       f"({self.engine_key})"])

    def _iter_mains(self):
        for state in self._states:
            yield from state.mains

    def _stage_corpus(self) -> tuple[str, float]:
        """Put the partitioned corpus where worker loads will read it.

        Shared memory when a segment can be built, otherwise the load
        messages carry the payloads inline over the pipes (recorded as
        an incident).  Returns ``(transport, encode_seconds)``."""
        try:
            return "shm", self._build_segment()
        except (OSError, ValueError) as exc:
            self.incidents.append(
                f"shared memory unavailable ({exc}); "
                "falling back to pipe transport")
            self._release_segment()
            return "pipe", 0.0

    def _build_segment(self) -> float:
        """Pack every partitioned payload into one shm segment.

        Per document the segment stores either UTF-8 XML text (kind
        ``"t"`` — workers still parse, but in parallel) or an RXB1
        node array (kind ``"b"``, snapshot-fed corpora — workers skip
        parsing entirely).  ``_segment_entries[shard][name]`` maps to
        ``(kind, offset, length)``; replicated documents are stored
        once and referenced by every shard's load message.  Returns
        the parent-side encode+copy wall time.
        """
        start = time.perf_counter()
        blobs: list[bytes] = []
        offset = 0
        entries: list[dict] = [dict() for __ in range(self.shards)]

        def place(payload) -> tuple[str, int, int]:
            nonlocal offset
            if isinstance(payload, EncodedDocument):
                kind, data = "b", payload.tobytes()
            else:
                kind, data = "t", payload.encode("utf-8")
            blobs.append(data)
            entry = (kind, offset, len(data))
            offset += len(data)
            return entry

        for index, state in enumerate(self._states):
            for __ordinal, name, payload in state.mains:
                entries[index][name] = place(payload)
        replicated = [(name,) + place(payload)
                      for name, payload in self._replicated]
        segment = _shm.OwnedSegment(max(1, offset))
        cursor = 0
        buf = segment.buf
        for data in blobs:
            buf[cursor:cursor + len(data)] = data
            cursor += len(data)
        self._segment = segment
        self._segment_entries = entries
        self._replicated_entries = replicated
        _obs.count("shard.shm_segments")
        _obs.count("shard.shm_bytes", offset)
        return time.perf_counter() - start

    def _load_message(self, index: int) -> tuple:
        mains = sorted(self._states[index].mains,
                       key=lambda entry: entry[0])
        if self._segment is None:
            return ("load", self._class_key, mains,
                    list(self._replicated))
        placed = self._segment_entries[index]
        entries = []
        extras = []
        for ordinal, name, payload in mains:
            entry = placed.get(name)
            if entry is not None:
                entries.append((ordinal, name) + entry)
            else:
                # Inserted after the segment was built — ships inline
                # (and replays inline on respawn).
                extras.append((ordinal, name, payload))
        return ("load", self._class_key,
                {"segment": self._segment.name,
                 "entries": entries,
                 "extras": extras,
                 "replicated": list(self._replicated_entries)})

    def _release_segment(self) -> None:
        if self._segment is not None:
            self._segment.release()
            self._segment = None
        self._segment_entries = [dict() for __ in range(self.shards)]
        self._replicated_entries = []

    def _reset_state(self) -> None:
        self._stop_ship_thread()
        self._stop_checkpoint_thread()
        self._stop_workers()
        self._release_segment()
        self._close_wal()
        self._states = [_ShardState() for __ in range(self.shards)]
        self._replicated = []
        self._ordinals = {}
        self._next_ordinal = 0
        self._index_paths = []
        self._class_key = None
        self._home = None
        self.incidents = []
        self.partials = []
        self._breakers = self._new_breakers()
        self.last_load_report = None
        self._committed_seq = 0
        self._journal = []
        self._journal_floor = 0
        self._replica_deficits = set()
        self._row_outstanding = [0] * (self.replicas + 1)
        self._replicas_loaded = False
        self.failovers = 0
        self.last_checkpoint_seq = 0

    def _halt_background(self) -> None:
        """Join the ship and checkpoint threads *without* holding the
        engine locks.  Both loops take the global lock with a bounded
        wait, so stopping them from under ``_exclusive()`` works — but
        it serializes shutdown behind their current tick, and a flush
        arriving between the join and the teardown would race a
        half-torn-down engine.  Stopping first, outside the locks,
        closes that window."""
        self._stop_ship_thread()
        self._stop_checkpoint_thread()

    def _release(self) -> None:
        self._closing = True
        self._halt_background()
        with self._exclusive():
            self._reset_state()

    def abort(self) -> None:
        """Hard-stop without clean shutdown — the in-process stand-in
        for ``kill -9`` used by the recovery tests and the restart-storm
        chaos scenario.

        Worker processes are killed outright (no ``stop`` op, no
        journal ship, no final checkpoint or WAL sync beyond what each
        acknowledged write already wrote), and parent-owned OS
        resources (pipes, the shm segment, WAL file handles) are
        released so the *simulating* process does not leak them.  The
        on-disk WAL/checkpoint state is left exactly as a real SIGKILL
        would leave it; recover from it with
        ``ShardedEngine(recover_dir=...)``.
        """
        self._closing = True
        self._halt_background()
        for slots in (self._workers, *self._replica_rows):
            for index, worker in enumerate(slots):
                if worker is None:
                    continue
                try:
                    worker.conn.close()
                except OSError:
                    pass
                if worker.process.is_alive():
                    worker.process.kill()
                worker.process.join(timeout=2.0)
                slots[index] = None
        self._release_segment()
        self._close_wal()
        self.loaded = False
        self.db_class = None

    def _stop_workers(self) -> None:
        """Stop every worker process: primaries, then replica rows."""
        for slots in (self._workers, *self._replica_rows):
            for index, worker in enumerate(slots):
                if worker is None:
                    continue
                try:
                    call_id = worker.next_call_id()
                    worker.conn.send((call_id, ("stop",)))
                    self._recv(worker, time.monotonic() + 2.0, 2.0,
                               call_id)
                except (_WorkerFailure, OSError, ValueError):
                    pass
                self._terminate(worker)
                slots[index] = None

    @staticmethod
    def _terminate(worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)

    # -- indexes -------------------------------------------------------------

    def create_indexes(self, paths: list[str]) -> None:
        with self._exclusive():
            self._index_paths.extend(
                path for path in paths if path not in self._index_paths)
            self._scatter(range(self.shards),
                          lambda __: ("indexes", list(paths)))
            self._mirror_to_replicas(("indexes", list(paths)))

    def drop_indexes(self) -> None:
        with self._exclusive():
            self._index_paths = []
            self._scatter(range(self.shards),
                          lambda __: ("drop_indexes",))
            self._mirror_to_replicas(("drop_indexes",))

    def _mirror_to_replicas(self, message: tuple) -> None:
        """Best-effort copy of an index op to every replica; a slot
        that fails becomes a deficit and is rebuilt with the index
        state replayed, so nothing is lost."""
        if not self._replicas_loaded:
            return
        for row in range(1, self.replicas + 1):
            for index, worker in enumerate(self._replica_rows[row - 1]):
                if worker is None:
                    self._replica_deficits.add((row, index))
                    continue
                try:
                    self._call_worker(worker, message)
                except _WorkerFailure:
                    self._replica_deficits.add((row, index))

    # -- query execution -----------------------------------------------------

    def execute(self, qid: str, params: dict) -> list[str]:
        consistency = (_api.current_consistency()
                       or self._default_consistency)
        row = self._lease_read_row(consistency)
        if row:
            try:
                with self._row_locks[row - 1]:
                    return self._execute_replica(qid, params, row)
            except _WorkerFailure as failure:
                # The row died mid-read; its deficit is already
                # recorded.  Reads are side-effect free, so retry the
                # whole query on the primaries.
                _obs.count("shard.replica_fallbacks")
                self.incidents.append(
                    f"replica row {row} failed mid-read ({failure}); "
                    "read retried on primaries")
            finally:
                self._row_outstanding[row] -= 1
            self._row_outstanding[0] += 1
        with self._lock:
            try:
                return self._execute_primary(qid, params)
            finally:
                self._row_outstanding[0] -= 1

    def _lease_read_row(self, consistency: _api.Consistency) -> int:
        """Pick the row this read runs on: ``0`` for the primaries or
        a 1-based replica row.

        Only fully-alive rows whose slowest shard satisfies the tier's
        required sequence are eligible; among those the one with the
        fewest outstanding reads wins.  No eligible row falls back to
        the primaries (``shard.consistency_fallbacks``)."""
        if consistency.tier == "strong" or not self.replicas:
            self._row_outstanding[0] += 1
            return 0
        with self._lock:
            if not self._replicas_loaded:
                self._row_outstanding[0] += 1
                return 0
            if self._replica_deficits:
                self._repair_replicas_locked()
            committed = self._committed_seq
            if consistency.tier == "read_your_writes":
                # Clamp: a session sequence from before a reload can
                # exceed the new corpus's committed sequence; a fully
                # caught-up replica is always an acceptable answer.
                required = min(consistency.min_seq, committed)
            elif consistency.tier == "bounded_staleness":
                required = max(0, committed - consistency.max_lag)
            else:
                required = 0
            best, best_load, max_lag = 0, None, 0
            for row in range(1, self.replicas + 1):
                workers = self._replica_rows[row - 1]
                if any(worker is None or not worker.process.is_alive()
                       for worker in workers):
                    continue
                applied = min(worker.applied_seq for worker in workers)
                max_lag = max(max_lag, committed - applied)
                if applied < required:
                    continue
                load = self._row_outstanding[row]
                if best_load is None or load < best_load:
                    best, best_load = row, load
            _obs.gauge("shard.replica_lag", max_lag)
            if best:
                _obs.count("shard.replica_reads")
            else:
                _obs.count("shard.consistency_fallbacks")
            self._row_outstanding[best] += 1
            return best

    def _execute_primary(self, qid: str, params: dict) -> list[str]:
        self._require_loaded()
        assert self.db_class is not None
        spec = QUERIES_BY_ID[qid].merge_for(self.db_class.key)
        if self.db_class.single_document:
            spec = {"kind": "home"}
        kind = spec["kind"]
        _obs.count("shard.fanout_calls")
        self._first_reply_ts = None
        start = time.perf_counter()
        with _obs.span("shard.fanout", shards=self.shards,
                       merge=kind, qid=qid):
            with _obs.plan_node("shard.fanout", shards=self.shards,
                                merge=kind, qid=qid) as node:
                values = self._execute_merged(qid, params, spec)
                node.add(rows_out=len(values))
        first = self._first_reply_ts
        self.last_ttfr_seconds = (
            (first - start) if first is not None
            else time.perf_counter() - start)
        self._pad_service_floor(start)
        return values

    def _execute_replica(self, qid: str, params: dict,
                         row: int) -> list[str]:
        """One read against replica row ``row`` (row lock held).

        Same merge plans as the primary path, but every RPC goes to
        the row's workers and any infrastructure failure raises
        :class:`_WorkerFailure` (after marking the slot deficient) so
        the caller can retry on the primaries — replica reads never
        respawn inline."""
        self._require_loaded()
        assert self.db_class is not None
        spec = QUERIES_BY_ID[qid].merge_for(self.db_class.key)
        if self.db_class.single_document:
            spec = {"kind": "home"}
        kind = spec["kind"]
        _obs.count("shard.fanout_calls")
        start = time.perf_counter()
        with _obs.span("shard.fanout", shards=self.shards,
                       merge=kind, qid=qid, replica_row=row):
            with _obs.plan_node("shard.fanout", shards=self.shards,
                                merge=kind, qid=qid) as node:
                values = self._execute_merged(
                    qid, params, spec,
                    call=lambda index, message:
                        self._replica_row_call(row, index, message),
                    fanout=lambda shard_ids, message_for:
                        self._replica_row_fanout(row, shard_ids,
                                                 message_for))
                node.add(rows_out=len(values))
        self._pad_service_floor(start)
        return values

    def _pad_service_floor(self, start: float) -> None:
        """Hold the current lease until ``service_floor`` has elapsed.

        Sleeping *inside* the lease is the point: it models a per-row
        service-time floor, so ``strong`` traffic saturates at ~1/floor
        QPS while replica rows multiply read capacity — measurable
        even on a single core."""
        if self.service_floor <= 0:
            return
        remaining = self.service_floor - (time.perf_counter() - start)
        active = _deadline.current()
        if active is not None:
            remaining = min(remaining, active.remaining())
        if remaining > 0:
            time.sleep(remaining)
        if active is not None:
            active.check("service floor")

    def _execute_merged(self, qid: str, params: dict, spec: dict,
                        call=None, fanout=None) -> list[str]:
        if call is None:
            call = self._call
        if fanout is None:
            fanout = lambda shard_ids, message_for: self._fanout(  # noqa: E731
                shard_ids, message_for, qid=qid)
        kind = spec["kind"]
        if kind == "home":
            home = self._home if self._home is not None else 0
            return call(home, ("execute", qid, dict(params)))
        if kind == "route":
            name = str(params[spec["param"]])
            return call(self.shard_of(name),
                        ("execute", qid, dict(params)))
        if kind == "point":
            pairs = fanout(range(self.shards),
                           lambda __: ("execute", qid, dict(params)))
            with _obs.span("shard.merge", kind="point"):
                return [value for __, values in pairs
                        for value in values]
        if kind == "regroup":
            pairs = fanout(range(self.shards),
                           lambda __: ("execute", qid, dict(params)))
            with _obs.span("shard.merge", kind="regroup"):
                return self._merge_regroup(
                    [values for __, values in pairs], spec)
        # concat / sorted: per-document evaluation on every shard.
        pairs = fanout(
            range(self.shards),
            lambda index: ("execute_per_doc", qid, dict(params),
                           [name for __, name in
                            self._shard_names(index)]))
        with _obs.span("shard.merge", kind=kind):
            merged = self._merge_per_document(pairs)
            if kind == "sorted":
                merged = _stable_sort_by_key(merged, spec["key"])
        return merged

    def _shard_names(self, index: int) -> list[tuple[int, str]]:
        return sorted((ordinal, name) for ordinal, name, __ in
                      self._states[index].mains)

    def _merge_per_document(
            self, pairs: list[tuple[int, dict]]) -> list[str]:
        """Reassemble per-document results in global ordinal order.

        ``pairs`` carries ``(shard, reply)`` (degraded fan-outs may
        omit shards).  Shards whose engine cannot scope evaluation per
        document fall back to whole-shard results; those blocks are
        ordered by the shard's smallest ordinal — correct only when
        results do not interleave across shards (hence the native
        engine, which supports per-document evaluation, is the
        sharding default).
        """
        keyed: list[tuple[int, int, list[str]]] = []
        for index, reply in pairs:
            if reply["mode"] == "per_doc":
                for name, values in reply["parts"]:
                    ordinal = self._ordinals.get(name)
                    if ordinal is not None and values:
                        keyed.append((ordinal, 0, values))
            else:
                names = self._shard_names(index)
                block_ordinal = names[0][0] if names else index
                keyed.append((block_ordinal, 1, reply["values"]))
        keyed.sort(key=lambda entry: (entry[0], entry[1]))
        return [value for __, __m, values in keyed for value in values]

    def _merge_regroup(self, replies: list[list[str]],
                       spec: dict) -> list[str]:
        """Re-aggregate per-shard ``<group>`` fragments.

        Each fragment carries a ``group_by`` child (the key) and a
        ``total`` child (the per-shard count); keys are unioned, totals
        summed, and the first fragment seen for a key is re-serialized
        with the summed total — matching the oracle's ``order by`` on
        the group key.
        """
        group_tag, total_tag = spec["group_by"], spec["total"]
        groups: dict[str, tuple[object, object, int]] = {}
        for values in replies:
            for value in values:
                root = parse_document(value).root_element
                key_el = _first_descendant(root, group_tag)
                total_el = _first_descendant(root, total_tag)
                key = key_el.text_content() if key_el is not None else ""
                total = int(total_el.text_content()) \
                    if total_el is not None else 0
                if key in groups:
                    rep, rep_total_el, seen = groups[key]
                    groups[key] = (rep, rep_total_el, seen + total)
                else:
                    groups[key] = (root, total_el, total)
        out = []
        for key in sorted(groups):
            root, total_el, total = groups[key]
            if total_el is not None:
                replacement = Text(str(total))
                replacement.parent = total_el
                total_el.children = [replacement]
            out.append(serialize(root))
        return out

    # -- ad-hoc queries ------------------------------------------------------

    def _adhoc(self, text: str, params: dict) -> list[str]:
        # Ad-hoc reads honor the same consistency routing as the
        # workload queries: replica rows serve tiers they satisfy,
        # with primary fallback on mid-read failure.
        consistency = (_api.current_consistency()
                       or self._default_consistency)
        row = self._lease_read_row(consistency)
        if row:
            try:
                with self._row_locks[row - 1]:
                    return self._adhoc_on_row(text, params, row)
            except _WorkerFailure as failure:
                _obs.count("shard.replica_fallbacks")
                self.incidents.append(
                    f"replica row {row} failed mid-read ({failure}); "
                    "adhoc retried on primaries")
            finally:
                self._row_outstanding[row] -= 1
            self._row_outstanding[0] += 1
        with self._lock:
            try:
                if self._home is not None:
                    return self._call(self._home,
                                      ("adhoc", text, params))
                pairs = self._fanout(
                    range(self.shards),
                    lambda __: ("adhoc", text, params), qid="adhoc")
                return [value for __, values in pairs
                        for value in values]
            finally:
                self._row_outstanding[0] -= 1

    def _adhoc_on_row(self, text: str, params: dict,
                      row: int) -> list[str]:
        """One ad-hoc read against replica row ``row`` (row lock
        held); infrastructure failures raise :class:`_WorkerFailure`
        for the primary-fallback path."""
        self._require_loaded()
        if self._home is not None:
            return self._replica_row_call(row, self._home,
                                          ("adhoc", text, params))
        pairs = self._replica_row_fanout(
            row, range(self.shards),
            lambda __: ("adhoc", text, params))
        return [value for __, values in pairs for value in values]

    # -- update workload -----------------------------------------------------

    def insert_document(self, name: str, text: str) -> None:
        with self._exclusive():
            self._require_loaded()
            ordinal = self._next_ordinal
            self._next_ordinal += 1
            self._ordinals[name] = ordinal
            index = self.shard_of(name)
            self._states[index].mains.append((ordinal, name, text))
            try:
                self._call(index, ("insert", name, text))
            except Exception:
                # Keep parent bookkeeping consistent with the worker.
                self._states[index].mains.pop()
                del self._ordinals[name]
                self._next_ordinal = ordinal
                raise
            self._commit(("insert", name, text))

    def delete_document(self, name: str) -> None:
        with self._exclusive():
            self._require_loaded()
            index = self.shard_of(name)
            self._call(index, ("delete", name))
            self._ordinals.pop(name, None)
            self._states[index].mains = [
                entry for entry in self._states[index].mains
                if entry[1] != name]
            self._commit(("delete", name))

    def update_value(self, id_path: str, id_value: str, target_tag: str,
                     new_value: str) -> int:
        with self._exclusive():
            self._require_loaded()
            message = ("update_value", id_path, id_value, target_tag,
                       new_value)
            replies = self._scatter(range(self.shards),
                                    lambda __: message)
            self._commit(message)
            return sum(replies)

    def _commit(self, op: tuple) -> None:
        """Sequence one write the primaries just applied: journal it,
        log it, then ship it — the single tail of every write path.

        The log append (one frame, one fsync under ``always``; a no-op
        without a data dir) runs *before* the write returns, so
        acknowledged == logged.  A failed append (disk fault) raises —
        the caller sees a failed write — but the sequence stays
        consumed and the journal entry stays: the op already applied
        worker-side, and an unacknowledged write is allowed to land or
        vanish, never to corrupt sequencing.

        Shipping follows the acknowledgement: with no ship interval
        the entry goes to the replicas synchronously; otherwise the
        ship thread batches it.
        """
        self._committed_seq += 1
        seq = self._committed_seq
        self._journal.append((seq, op))
        if self._wal is not None:
            try:
                self._wal.append(seq, op)
            except (FaultInjected, ShardError) as exc:
                _obs.count("wal.append_failures")
                self.incidents.append(
                    f"wal append failed for seq {seq}: {exc}")
                raise
        _obs.gauge("shard.journal_bytes", self.journal_bytes())
        if self._replicas_loaded and self.ship_interval <= 0:
            self._ship_pending_locked()

    def _journal_for(self, index: int, after_seq: int = 0, *,
                     updates_only: bool = False) -> list:
        """The journal entries past ``after_seq`` that shard ``index``
        has to apply — the one filter every per-shard consumer reads
        the journal through.

        An ``update_value`` applies to every shard; an insert or
        delete applies to the shard that owns the named document, and
        :meth:`shard_of` is a pure function of the name (and ``_home``,
        fixed at load).  A worker freshly loaded from ``mains`` passes
        ``updates_only``: ``mains`` already reflects the structural
        entries, so only value updates separate it from the primaries.
        """
        return [(seq, op) for seq, op in self._journal
                if seq > after_seq
                and (op[0] == "update_value"
                     or (not updates_only
                         and self.shard_of(op[1]) == index))]

    # -- durability: WAL, checkpoints, recovery ------------------------------

    def _open_wal(self) -> None:
        self._close_wal()
        assert self._data_dir is not None
        # One log for the whole engine; the ``shard`` slot of the WAL
        # layout (``<data_dir>/shard-0/wal``) is simply 0.
        self._wal = WriteAheadLog(
            self._data_dir, 0, fsync=self._fsync,
            segment_bytes=self._wal_segment_bytes)

    def _close_wal(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def journal_bytes(self) -> int:
        """Approximate in-memory size of the replication journal —
        string payload bytes plus a small per-entry overhead.  The
        observable side of the checkpoint bound (``shard.journal_bytes``
        gauge): without checkpoints it grows with every write, after
        one it holds only the uncompacted suffix."""
        return sum(16 + sum(len(part) if isinstance(part, str) else 8
                            for part in op)
                   for __seq, op in self._journal)

    def wal_disk_bytes(self) -> int:
        """On-disk WAL size (0 without a data dir) — what checkpoint
        compaction bounds."""
        return self._wal.disk_bytes() if self._wal is not None else 0

    def durability_state(self) -> dict | None:
        """Durability snapshot for the stats surface (None when the
        engine runs memory-only)."""
        if self._data_dir is None:
            return None
        with self._lock:
            return {"data_dir": str(self._data_dir),
                    "fsync": self._fsync,
                    "committed_seq": self._committed_seq,
                    "last_checkpoint_seq": self.last_checkpoint_seq,
                    "checkpoint_interval": self.checkpoint_interval,
                    "wal_bytes": self.wal_disk_bytes(),
                    "journal_bytes": self.journal_bytes()}

    def staleness_by_tier(self, bound: int = 8) -> dict:
        """Per-consistency-tier view of replica staleness: for each
        tier, how many rows could serve a read right now and the worst
        ``committed_seq - applied_seq`` such a read could observe.
        ``bound`` parameterizes the ``bounded_staleness:K`` line.  The
        multiuser report renders this as its replication table."""
        with self._lock:
            committed = self._committed_seq
            lags = []
            for row in range(1, self.replicas + 1):
                workers = self._replica_rows[row - 1]
                if any(worker is None or not worker.process.is_alive()
                       for worker in workers):
                    continue
                applied = min(worker.applied_seq for worker in workers)
                lags.append(max(0, committed - applied))
            caught_up = [lag for lag in lags if lag == 0]
            within = [lag for lag in lags if lag <= bound]
            tiers = {
                "strong": {"rows": 1, "max_staleness": 0},
                "read_your_writes": {"rows": 1 + len(caught_up),
                                     "max_staleness": 0},
                f"bounded_staleness:{bound}": {
                    "rows": 1 + len(within),
                    "max_staleness": max(within, default=0)},
                "eventual": {"rows": 1 + len(lags),
                             "max_staleness": max(lags, default=0)},
            }
            return {"committed_seq": committed,
                    "replicas": self.replicas,
                    "live_rows": len(lags),
                    "tiers": tiers}

    def checkpoint(self) -> dict:
        """Take one checkpoint now: snapshot every shard's engine
        state, persist it (with a data dir), compact the WAL below the
        oldest retained checkpoint, and truncate the in-memory journal
        to the suffix.  Works without a data dir too — then it is
        purely the journal-bound operation."""
        with self._exclusive():
            self._require_loaded()
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> dict:
        seq = self._committed_seq
        start = time.perf_counter()
        with _obs.span("shard.checkpoint", seq=seq):
            exports = self._scatter(range(self.shards),
                                    lambda __: ("snapshot",))
            # Parent ``mains`` must be refreshed whenever value
            # updates are about to leave the journal: respawns replay
            # only the journal's update_value entries over ``mains``,
            # so dropped updates must already be baked in.  Structural
            # entries are in ``mains`` by construction, so a journal
            # with no updates needs no refresh (and the load-time
            # checkpoint keeps its shm segment).
            if any(op[0] == "update_value"
                   for __seq, op in self._journal):
                self._refresh_from_exports(exports)
                self._release_segment()
            if self._checkpoint_manager is not None:
                paths = self._write_checkpoint_snapshots(seq, exports)
                self._checkpoint_manager.record(
                    seq=seq, class_key=self._class_key or "",
                    engine_key=self.engine_key, shards=self.shards,
                    snapshot_paths=paths,
                    index_paths=list(self._index_paths),
                    next_ordinal=self._next_ordinal, home=self._home)
                if self._wal is not None:
                    # Compact below the *oldest retained* checkpoint:
                    # the previous one stays recoverable (manifest
                    # fallback) only while its WAL suffix survives.
                    cutoff = (self._checkpoint_manager
                              .oldest_retained_seq())
                    self._wal.truncate_below(cutoff)
                    self._wal.sync()
            self._journal = [entry for entry in self._journal
                             if entry[0] > seq]
            self._journal_floor = max(self._journal_floor, seq)
        self.last_checkpoint_seq = seq
        _obs.count("shard.checkpoints")
        _obs.gauge("shard.journal_bytes", self.journal_bytes())
        return {"seq": seq,
                "seconds": time.perf_counter() - start,
                "journal_bytes": self.journal_bytes(),
                "wal_bytes": self.wal_disk_bytes()}

    def _refresh_from_exports(self, exports: list) -> None:
        """Swap parent-side payloads for the workers' exported RXB1
        state (checkpoint cut).  After this, ``mains`` + the journal
        suffix reproduce the current worker state exactly — which is
        what respawns, replica rebuilds and failover catch-up rely
        on once pre-checkpoint entries are gone."""
        replicated_names = {name for name, __ in self._replicated}
        for index, export in enumerate(exports):
            encoded = {name: payload for name, payload in export}
            state = self._states[index]
            state.mains = [
                (ordinal, name,
                 EncodedDocument(name, encoded[name])
                 if name in encoded else payload)
                for ordinal, name, payload in state.mains]
        if self._replicated and exports:
            encoded = {name: payload for name, payload in exports[0]
                       if name in replicated_names}
            self._replicated = [
                (name,
                 EncodedDocument(name, encoded[name])
                 if name in encoded else payload)
                for name, payload in self._replicated]

    def _write_checkpoint_snapshots(self, seq: int,
                                    exports: list) -> list[Path]:
        """One RXSN file per shard from the exported payloads, with
        ``ordinal``/``replicated`` carried in each directory entry."""
        manager = self._checkpoint_manager
        assert manager is not None
        replicated_names = {name for name, __ in self._replicated}
        paths = []
        for index, export in enumerate(exports):
            entries = []
            for name, payload in export:
                if name in replicated_names:
                    extra = {"ordinal": -1, "replicated": True}
                else:
                    ordinal = self._ordinals.get(name)
                    if ordinal is None:
                        continue
                    extra = {"ordinal": ordinal, "replicated": False}
                entries.append((name, payload, extra))
            path = manager.snapshot_path(seq, index)
            write_snapshot_payloads(
                path, entries,
                {"class": self._class_key, "shard": index,
                 "checkpoint_seq": seq})
            paths.append(path)
        return paths

    def recover(self) -> dict:
        """Cold-start from the data directory: newest valid checkpoint
        + WAL replay to the exact committed sequence.

        Rebuilds the partition map from the checkpoint snapshots,
        replays WAL records past the checkpoint into parent state (the
        journal suffix, ``mains`` for structural ops) skipping corrupt
        records with :class:`~repro.errors.WalCorruption` incidents,
        then spawns and loads workers — primaries and replica rows —
        and applies the update suffix so every process sits at the
        committed sequence.  Raises
        :class:`~repro.errors.RecoveryError` when there is nothing
        usable to recover from."""
        if self._checkpoint_manager is None:
            raise RecoveryError("no data directory configured")
        self._halt_background()
        with self._exclusive():
            self._closing = False
            return self._recover_locked()

    def _recover_locked(self) -> dict:
        manager = self._checkpoint_manager
        start = time.perf_counter()
        manifest = manager.load()
        if manifest is None:
            raise RecoveryError(
                f"{self._data_dir}: no {MANIFEST_FORMAT} checkpoint "
                "manifest (other manifest formats are refused, not "
                "migrated)")
        if manifest.get("shards") != self.shards:
            raise RecoveryError(
                f"{self._data_dir}: manifest has "
                f"{manifest.get('shards')} shards, engine has "
                f"{self.shards}")
        if manifest.get("engine") != self.engine_key:
            raise RecoveryError(
                f"{self._data_dir}: manifest engine "
                f"{manifest.get('engine')!r} != {self.engine_key!r}")
        class_key = manifest.get("class")
        db_class = CLASSES_BY_KEY.get(class_key)
        if db_class is None:
            raise RecoveryError(
                f"{self._data_dir}: unknown class {class_key!r}")
        found = manager.latest_valid()
        if found is None:
            raise RecoveryError(
                f"{self._data_dir}: no usable checkpoint (all "
                "snapshot files missing or corrupt)")
        entry, snapshots, fallbacks = found
        self._reset_state()
        self.incidents.extend(fallbacks)
        checkpoint_seq = int(entry.get("seq", 0))
        self._class_key = class_key
        try:
            for index, snapshot in enumerate(snapshots):
                for meta in snapshot.entries:
                    payload = EncodedDocument(
                        meta["name"], bytes(snapshot.payload(meta)))
                    if meta.get("replicated"):
                        # Stored in every shard's file (each worker
                        # holds them); take one copy.
                        if index == 0:
                            self._replicated.append(
                                (meta["name"], payload))
                        continue
                    ordinal = int(meta.get("ordinal", -1))
                    self._states[index].mains.append(
                        (ordinal, meta["name"], payload))
                    self._ordinals[meta["name"]] = ordinal
        finally:
            for snapshot in snapshots:
                snapshot.close()
        fallback_ordinal = 1 + max(self._ordinals.values(), default=-1)
        self._next_ordinal = int(
            entry.get("next_ordinal", fallback_ordinal))
        home = entry.get("home")
        self._home = int(home) if home is not None else None
        self._index_paths = list(entry.get("index_paths", ()))
        self._committed_seq = checkpoint_seq
        self._journal_floor = checkpoint_seq

        # WAL replay into parent state: one pass in log (= commit)
        # order.  Structural ops re-apply to the partition map —
        # ordinals are assigned in commit order — and update_value
        # entries stay journal-only, exactly like the live write path.
        self._open_wal()
        self._journal = self._wal.records(after_seq=checkpoint_seq)
        self.incidents.extend(f"WalCorruption: {incident}"
                              for incident in self._wal.incidents)
        corrupt_records = len(self._wal.incidents)
        wal_records = len(self._journal)
        for seq, op in self._journal:
            self._committed_seq = max(self._committed_seq, seq)
            if op[0] == "insert":
                ordinal = self._next_ordinal
                self._next_ordinal += 1
                self._ordinals[op[1]] = ordinal
                self._states[self.shard_of(op[1])].mains.append(
                    (ordinal, op[1], op[2]))
            elif op[0] == "delete":
                self._ordinals.pop(op[1], None)
                state = self._states[self.shard_of(op[1])]
                state.mains = [main for main in state.mains
                               if main[1] != op[1]]

        # Spawn and load workers from the rebuilt state, then replay
        # the update suffix so worker state reaches the committed seq.
        self._stage_corpus()
        with _obs.span("shard.recover", shards=self.shards,
                       checkpoint_seq=checkpoint_seq,
                       wal_records=wal_records):
            for index in range(self.shards):
                self._spawn(index)
            self._scatter(range(self.shards), self._load_message)
            if self._index_paths:
                self._scatter(
                    range(self.shards),
                    lambda __: ("indexes", list(self._index_paths)))
            for index in range(self.shards):
                for __seq, op in self._journal_for(
                        index, updates_only=True):
                    self._call(index, op)
            if self.replicas:
                self._load_replica_rows()
                self._catch_up_replicas_locked()
        self.db_class = db_class
        self.loaded = True
        self._start_checkpoint_thread()
        report = {
            "data_dir": str(self._data_dir),
            "class": class_key,
            "checkpoint_seq": checkpoint_seq,
            "committed_seq": self._committed_seq,
            "wal_records": wal_records,
            "corrupt_records": corrupt_records,
            "checkpoint_fallbacks": len(fallbacks),
            "documents": self._next_ordinal,
            "seconds": time.perf_counter() - start,
        }
        self.last_recovery_report = report
        _obs.count("shard.recoveries")
        return report

    def _catch_up_replicas_locked(self) -> None:
        """Stamp freshly loaded replica rows at the committed sequence.

        After a recovery load the rows hold checkpoint-state ``mains``
        (structural suffix included), so only the journal's
        update_value entries separate them from the primaries — replay
        those and stamp.  ``_ship_pending_locked`` cannot do this: the
        journal floor sits at the checkpoint, and a floor gap normally
        (correctly) forces a rebuild."""
        committed = self._committed_seq
        for row in range(1, self.replicas + 1):
            for index, worker in enumerate(
                    self._replica_rows[row - 1]):
                if worker is None:
                    continue
                updates = self._journal_for(index, updates_only=True)
                try:
                    worker.applied_seq = int(self._call_worker(
                        worker, ("replay", committed, updates)))
                except _WorkerFailure as failure:
                    self._replica_deficits.add((row, index))
                    self.incidents.append(
                        f"replica row {row} shard {index} recovery "
                        f"catch-up failed: {failure}")

    def _start_checkpoint_thread(self) -> None:
        if self.checkpoint_interval <= 0 or self._data_dir is None \
                or self._checkpoint_thread is not None:
            return
        self._checkpoint_stop = threading.Event()
        self._checkpoint_thread = threading.Thread(
            target=self._checkpoint_loop, name="repro-checkpoint",
            daemon=True)
        self._checkpoint_thread.start()

    def _checkpoint_loop(self) -> None:
        # Same shutdown contract as the ship loop: bounded lock
        # acquire, so a closer holding the locks never deadlocks
        # against this thread's tick.
        while not self._checkpoint_stop.wait(self.checkpoint_interval):
            if not self._lock.acquire(timeout=0.2):
                continue
            try:
                if self._checkpoint_stop.is_set() or self._closing \
                        or not self.loaded:
                    continue
                with ExitStack() as stack:
                    for lock in self._row_locks:
                        stack.enter_context(lock)
                    if self._committed_seq > self.last_checkpoint_seq:
                        self._checkpoint_locked()
            except Exception as exc:  # noqa: BLE001 - keep ticking
                self.incidents.append(
                    f"background checkpoint failed: {exc}")
            finally:
                self._lock.release()

    def _stop_checkpoint_thread(self) -> None:
        if self._checkpoint_thread is None:
            return
        self._checkpoint_stop.set()
        self._checkpoint_thread.join(timeout=10.0)
        self._checkpoint_thread = None

    # -- RPC plumbing --------------------------------------------------------

    def _spawn_process(self, index: int, generation: int,
                       tag: str | None, name: str) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker,
            args=(child_conn, self.engine_key, index, generation, tag),
            name=name, daemon=True)
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def _spawn(self, index: int) -> None:
        self._workers[index] = self._spawn_process(
            index, self._generations[index], None,
            f"repro-shard-{index}")

    def _respawn(self, index: int, reason: str) -> None:
        """Replace a dead worker and replay its state."""
        _obs.count("shard.respawns")
        incident = f"shard {index} respawned: {reason}"
        self.incidents.append(incident)
        worker = self._workers[index]
        if worker is not None:
            self._terminate(worker)
        self._generations[index] += 1
        self._spawn(index)
        if self._class_key is None:
            return
        self._call_raw(index, self._load_message(index))
        if self._index_paths:
            self._call_raw(index, ("indexes", list(self._index_paths)))
        # The load message already reflects structural inserts/deletes
        # (``mains`` is current), so only value updates replay.
        for __seq, op in self._journal_for(index, updates_only=True):
            self._call_raw(index, op)

    def _record_failure(self, index: int) -> None:
        """Account one infrastructure failure on the shard's breaker."""
        if self._breakers[index].record_failure():
            _obs.count("shard.breaker_trips")
            self.incidents.append(
                f"shard {index} breaker opened after "
                f"{self._breakers[index].consecutive_failures} "
                f"consecutive failures")

    def _call(self, index: int, message: tuple):
        """One RPC with breaker gating and respawn-and-retry on
        infrastructure failure."""
        self._breakers[index].allow()
        try:
            result = self._call_raw(index, message)
        except _WorkerFailure as failure:
            return self._retry_after_failure(index, message, failure)
        self._breakers[index].record_success()
        return result

    def _retry_after_failure(self, index: int, message: tuple,
                             failure: _WorkerFailure):
        """The shared recovery path: account the failure, back off,
        respawn, re-call — until the retry policy or an active deadline
        says stop.

        With replicas, recovery first attempts a **failover**: the
        freshest live replica of the shard is caught up from the
        journal and promoted to primary — much cheaper than a respawn
        (no reload), it consumes no retry attempt, and its success
        closes the shard's breaker.

        Raises :class:`~repro.errors.ShardError` when retries are
        exhausted, :class:`~repro.errors.CircuitOpen` when this
        failure (or an earlier one) tripped the breaker, and
        :class:`~repro.errors.QueryTimeout` when the caller's deadline
        expired while recovering.
        """
        attempt = 0
        while True:
            self._record_failure(index)
            active = _deadline.current()
            if active is not None and active.expired():
                raise QueryTimeout(
                    f"shard {index}: deadline expired during "
                    f"recovery ({failure})",
                    budget_seconds=active.budget) from None
            if self._try_failover(index, str(failure)):
                self._breakers[index].record_success()
            else:
                if not self._retry.allow_retry(attempt):
                    raise ShardError(
                        f"{failure} (after {attempt + 1} "
                        f"attempt{'s' if attempt else ''})") from None
                _obs.count("shard.retries")
                self._retry.pause(attempt)
                self._breakers[index].allow()   # may have tripped above
                try:
                    self._respawn(index, str(failure))
                except _WorkerFailure as again:
                    failure = again
                    attempt += 1
                    continue
            try:
                result = self._call_raw(index, message)
            except _WorkerFailure as again:
                failure = again
                attempt += 1
                continue
            self._breakers[index].record_success()
            return result

    def _try_failover(self, index: int, reason: str) -> bool:
        """Promote the freshest live replica of shard ``index`` to
        primary.  Returns False (leaving respawn as the fallback) when
        no replica is promotable.

        The candidate is detached from its row under the row lock (the
        slot becomes a deficit to backfill), caught up from the
        journal — structural entries included, since unlike a respawn
        it keeps its loaded corpus — then re-tagged to the primary
        namespace under a bumped generation and installed."""
        if not self.replicas or not self._replicas_loaded:
            return False
        best_row, best = 0, None
        for row in range(1, self.replicas + 1):
            worker = self._replica_rows[row - 1][index]
            if worker is None or not worker.process.is_alive():
                continue
            if best is None or worker.applied_seq > best.applied_seq:
                best_row, best = row, worker
        if best is None:
            return False
        if best.applied_seq < self._journal_floor:
            # The journal no longer reaches back far enough to catch
            # this candidate up (entries below the checkpoint floor
            # were compacted) — fall back to a respawn, which reloads
            # from the checkpoint-refreshed mains.
            self.incidents.append(
                f"shard {index} failover skipped: freshest replica "
                f"(applied_seq {best.applied_seq}) is behind the "
                f"checkpoint floor {self._journal_floor}")
            return False
        with self._row_locks[best_row - 1]:
            self._replica_rows[best_row - 1][index] = None
        self._replica_deficits.add((best_row, index))
        with _obs.span("shard.failover", shard=index, row=best_row):
            try:
                entries = self._journal_for(index, best.applied_seq)
                best.applied_seq = int(self._call_worker(
                    best, ("replay", self._committed_seq, entries)))
                self._generations[index] += 1
                self._call_worker(
                    best,
                    ("promote",
                     f"w{index}.g{self._generations[index]}"))
            except Exception as exc:  # noqa: BLE001 - abort, fall back
                self._terminate(best)
                self.incidents.append(
                    f"shard {index} failover from replica row "
                    f"{best_row} aborted: {exc}")
                return False
        old = self._workers[index]
        self._workers[index] = best
        if old is not None:
            self._terminate(old)
        self.failovers += 1
        _obs.count("shard.failovers")
        self.incidents.append(
            f"shard {index} failed over to replica row {best_row} "
            f"(applied_seq {best.applied_seq}): {reason}")
        return True

    def _call_raw(self, index: int, message: tuple):
        worker = self._workers[index]
        if worker is None or not worker.process.is_alive():
            raise _WorkerFailure(f"shard {index}: worker not running")
        return self._call_worker(worker, message, f"shard {index}")

    def _call_worker(self, worker: _Worker, message: tuple,
                     label: str | None = None):
        """One deadline/trace-wrapped RPC on an explicit worker handle
        (primary or replica)."""
        wire, budget = self._wire(label or f"shard {worker.index}",
                                  message)
        wire = self._trace_wire(wire)
        call_id = worker.next_call_id()
        self._send(worker, (call_id, wire), op=message[0])
        return self._recv(worker, time.monotonic() + budget, budget,
                          call_id)

    def _trace_wire(self, wire: tuple) -> tuple:
        """Wrap an on-pipe message as ``("trace", ctx, wire)`` when a
        trace is being recorded.

        Requires *both* an ambient :class:`~repro.obs.trace.TraceContext`
        and an installed recorder: without a recorder the worker's span
        records would come back with nowhere to land, and without a
        context there is no trace to join — either way the wire stays
        untouched and the worker takes its untraced fast path.  The
        worker parents under the calling thread's innermost open span
        (the ``shard.fanout``), or the context's own remote parent for
        direct calls.
        """
        ctx = _trace.current()
        recorder = _obs.active()
        if ctx is None or recorder is None:
            return wire
        parent = recorder.tracer.current_span()
        parent_gid = (_trace.gid_of(parent.span_id)
                      if parent is not None else ctx.parent_gid)
        return ("trace", {"trace_id": ctx.trace_id,
                          "parent": parent_gid}, wire)

    def _wire(self, label: str, message: tuple) -> tuple[tuple, float]:
        """The on-pipe form of ``message`` plus the pipe-wait budget.

        With an active deadline the message is wrapped as
        ``("deadline", remaining, message)`` and the pipe wait is
        bounded by the remainder plus :data:`DEADLINE_GRACE`, so the
        worker's cooperative :class:`~repro.errors.QueryTimeout` beats
        the parent's infrastructure timeout.
        """
        active = _deadline.current()
        if active is None:
            return message, self.timeout
        remaining = active.remaining()
        if remaining <= 0:
            raise QueryTimeout(
                f"{label}: deadline expired before dispatch",
                budget_seconds=active.budget)
        return (("deadline", remaining, message),
                min(self.timeout, remaining + DEADLINE_GRACE))

    @staticmethod
    def _send(worker: _Worker, message: tuple,
              op: str | None = None) -> None:
        try:
            _faults.inject("shard.pipe", op=op, shard=worker.index)
            if _obs.active() is not None:
                # What actually crosses the pipe (the connection
                # pickles the same message); priced only while a
                # recorder observes, since it serializes twice.
                try:
                    _obs.count("shard.pipe_bytes",
                               len(pickle.dumps(
                                   message,
                                   protocol=pickle.HIGHEST_PROTOCOL)))
                except (pickle.PicklingError, TypeError,
                        AttributeError):
                    pass
            worker.conn.send(message)
        except FaultInjected as exc:
            raise _WorkerFailure(
                f"shard {worker.index}: {exc}") from None
        except (OSError, ValueError) as exc:
            raise _WorkerFailure(
                f"shard {worker.index}: send failed: {exc}") from None

    def _recv(self, worker: _Worker, deadline: float,
              budget: float | None = None,
              call_id: int | None = None):
        """Receive one reply, watching liveness every 50 ms.

        ``budget`` is the actual wait this call was given (callers may
        use less than ``self.timeout``, e.g. the 2 s stop/ping waits or
        a deadline-bounded query), so the timeout message reports the
        real number.  Replies carrying a different ``call_id`` belong
        to abandoned calls (deadline fired, parent timed out first) and
        are discarded, keeping the pipe aligned without killing a
        worker that is merely slow.
        """
        if budget is None:
            budget = self.timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerFailure(
                    f"shard {worker.index}: call timed out after "
                    f"{budget:.1f}s")
            try:
                ready = worker.conn.poll(min(0.05, remaining))
            except (OSError, ValueError) as exc:
                raise _WorkerFailure(
                    f"shard {worker.index}: pipe broken: "
                    f"{exc}") from None
            if ready:
                try:
                    reply_id, reply = worker.conn.recv()
                except (EOFError, OSError) as exc:
                    raise _WorkerFailure(
                        f"shard {worker.index}: recv failed: "
                        f"{exc}") from None
                if call_id is not None and reply_id != call_id:
                    continue    # stale reply from an abandoned call
                if reply[0] == "error":
                    raise _rebuild_error(reply[1], reply[2])
                if reply[0] == "okt":
                    # Traced reply: adopt the worker's span records
                    # into the installed recorder.
                    _obs.adopt_spans(reply[2])
                if self._first_reply_ts is None:
                    self._first_reply_ts = time.perf_counter()
                return reply[1]
            if not worker.process.is_alive():
                raise _WorkerFailure(
                    f"shard {worker.index}: worker died (exit code "
                    f"{worker.process.exitcode})")

    def _scatter(self, shard_ids, message_for) -> list:
        """Strict fan-out: every shard must answer or the call fails.

        Used by lifecycle and update operations, where silently
        skipping a shard would diverge parent and worker state."""
        return [reply for __, reply in
                self._fanout(shard_ids, message_for, qid=None)]

    def _fanout(self, shard_ids, message_for,
                qid: str | None = None) -> list[tuple[int, object]]:
        """Fan out and return ``(shard, reply)`` pairs in shard order.

        With ``degraded="partial"`` and a ``qid`` (i.e. a read-only
        query fan-out), pure infrastructure failures drop their shard
        from the answer: the healthy pairs are returned and the query
        is annotated on :attr:`partials` / :attr:`incidents` and the
        ``shard.partial_results`` counter.  Application-level errors —
        and any failure in strict mode — raise as before.
        """
        shard_ids = list(shard_ids)
        replies, failures = self._scatter_impl(shard_ids, message_for)
        if failures:
            infra_only = all(isinstance(exc, ShardError)
                             for __, exc in failures)
            if not (qid is not None and self.degraded == "partial"
                    and infra_only):
                for __, exc in failures:
                    if isinstance(exc, QueryTimeout):
                        raise exc
                raise failures[0][1]
            failed = sorted(index for index, __ in failures)
            reason = "; ".join(f"shard {index}: {exc}"
                               for index, exc in failures)
            _obs.count("shard.partial_results")
            self.partials.append({"qid": qid, "failed_shards": failed,
                                  "reason": reason,
                                  "trace_id": _trace.current_trace_id()})
            self.incidents.append(
                f"PartialResult: {qid} answered without shard(s) "
                f"{failed}: {reason}")
        return [(index, replies[index]) for index in shard_ids
                if index in replies]

    def _scatter_impl(self, shard_ids, message_for):
        """Send to every shard, then collect every reply.

        The send phase is non-blocking (pipes buffer), so workers
        compute in parallel; the collect phase reads each reply with
        the per-call deadline.  Infrastructure failures go through the
        shared breaker/backoff/respawn recovery; the collect phase
        always drains every live shard before reporting, keeping pipes
        message-aligned.  Returns ``(replies, failures)`` where
        ``replies`` maps shard -> result and ``failures`` lists
        ``(shard, exception)`` for everything else.
        """
        # Resolve any active deadline once, before the first send, so a
        # pre-expired deadline cannot abort the loop with replies still
        # in flight (which would misalign the pipes).
        remaining = None
        budget = self.timeout
        active = _deadline.current()
        if active is not None:
            remaining = active.remaining()
            if remaining <= 0:
                raise QueryTimeout(
                    "deadline expired before shard fan-out",
                    budget_seconds=active.budget)
            budget = min(self.timeout, remaining + DEADLINE_GRACE)
        sent: dict[int, tuple] = {}
        call_ids: dict[int, int] = {}
        failed: dict[int, _WorkerFailure] = {}
        skipped: set[int] = set()
        results: dict[int, object] = {}
        failures: list[tuple[int, Exception]] = []
        for index in shard_ids:
            message = message_for(index)
            sent[index] = message
            try:
                self._breakers[index].allow()
            except CircuitOpen as exc:
                skipped.add(index)
                failures.append((index, exc))
                continue
            worker = self._workers[index]
            try:
                if worker is None or not worker.process.is_alive():
                    raise _WorkerFailure(
                        f"shard {index}: worker not running")
                wire = (message if remaining is None
                        else ("deadline", remaining, message))
                wire = self._trace_wire(wire)
                call_ids[index] = worker.next_call_id()
                self._send(worker, (call_ids[index], wire),
                           op=message[0])
            except _WorkerFailure as failure:
                failed[index] = failure
        deadline = time.monotonic() + budget
        for index in shard_ids:
            if index in failed or index in skipped:
                continue
            try:
                results[index] = self._recv(self._workers[index],
                                            deadline, budget,
                                            call_ids[index])
            except _WorkerFailure as failure:
                failed[index] = failure
            except Exception as exc:  # application-level, not retried
                failures.append((index, exc))
            else:
                self._breakers[index].record_success()
        # Recover infrastructure failures on respawned workers.
        for index, failure in failed.items():
            try:
                results[index] = self._retry_after_failure(
                    index, sent[index], failure)
            except Exception as exc:
                failures.append((index, exc))
        return results, failures

    # -- replication plumbing ------------------------------------------------

    def _spawn_replica(self, row: int, index: int) -> _Worker:
        generation = self._replica_generations[row - 1][index]
        worker = self._spawn_process(
            index, generation, f"w{index}r{row}.g{generation}",
            f"repro-shard-{index}-r{row}")
        self._replica_rows[row - 1][index] = worker
        return worker

    def _load_replica_rows(self) -> None:
        """Spawn and load every replica row (bulk-load tail).

        Loads are pipelined per row like the primary scatter; the shm
        segment is still owned by the parent, so replicas attach to
        the same segment instead of re-shipping the corpus.  A fresh
        corpus is at sequence 0, so new workers are born caught up.
        Replica load failures are strict: a half-provisioned row would
        otherwise silently serve nothing."""
        self._replicas_loaded = False
        try:
            for row in range(1, self.replicas + 1):
                workers = [self._spawn_replica(row, index)
                           for index in range(self.shards)]
                call_ids = {}
                for index, worker in enumerate(workers):
                    call_ids[index] = worker.next_call_id()
                    wire = self._trace_wire(self._load_message(index))
                    self._send(worker, (call_ids[index], wire),
                               op="load")
                deadline = time.monotonic() + self.timeout
                for index, worker in enumerate(workers):
                    self._recv(worker, deadline, self.timeout,
                               call_ids[index])
                if self._index_paths:
                    for worker in workers:
                        self._call_worker(
                            worker,
                            ("indexes", list(self._index_paths)))
        except _WorkerFailure as failure:
            raise ShardError(
                f"replica load failed: {failure}") from None
        self._replicas_loaded = True
        self._start_ship_thread()

    def _respawn_replica(self, row: int, index: int,
                         reason: str) -> None:
        """Rebuild one replica slot: load the current corpus, replay
        value updates (the load message carries original document
        text), then stamp it caught up at the committed sequence."""
        _obs.count("shard.replica_respawns")
        self.incidents.append(
            f"replica row {row} shard {index} respawned: {reason}")
        old = self._replica_rows[row - 1][index]
        if old is not None:
            self._terminate(old)
        self._replica_generations[row - 1][index] += 1
        worker = self._spawn_replica(row, index)
        if self._class_key is None:
            return
        self._call_worker(worker, self._load_message(index))
        if self._index_paths:
            self._call_worker(worker,
                              ("indexes", list(self._index_paths)))
        updates = self._journal_for(index, updates_only=True)
        worker.applied_seq = int(self._call_worker(
            worker, ("replay", self._committed_seq, updates)))

    def _repair_replicas_locked(self) -> None:
        """Respawn every deficient replica slot (global lock held; the
        affected row locks are taken per slot so an in-flight read on
        another row is untouched).  A slot that fails to come back
        stays dead and deficient — the next lease retries."""
        failed = []
        while True:
            try:
                # Atomic pop: a reader may add deficits concurrently
                # (it holds only its row lock), and none may be lost.
                row, index = self._replica_deficits.pop()
            except KeyError:
                break
            with self._row_locks[row - 1]:
                try:
                    self._respawn_replica(row, index, "deficit repair")
                except (_WorkerFailure, ShardError, OSError) as exc:
                    failed.append((row, index))
                    self.incidents.append(
                        f"replica row {row} shard {index} repair "
                        f"failed: {exc}")
        self._replica_deficits.update(failed)

    def _ship_pending_locked(self) -> None:
        """Ship journal entries past each replica's applied sequence
        (exclusive lock held).

        Batches are idempotent — the worker suppresses duplicate
        sequences — and an empty batch still advances ``applied_seq``
        for replicas whose shard saw no writes.  A failed endpoint
        becomes a deficit; shipping never blocks the write that
        triggered it beyond this one pass."""
        committed = self._committed_seq
        max_lag = 0
        for row in range(1, self.replicas + 1):
            workers = self._replica_rows[row - 1]
            row_applied = committed
            for index in range(self.shards):
                worker = workers[index]
                if worker is None or not worker.process.is_alive():
                    self._replica_deficits.add((row, index))
                    row_applied = 0
                    continue
                if worker.applied_seq < committed:
                    floor = self._journal_floor
                    if worker.applied_seq < floor:
                        # Checkpoint compaction dropped entries this
                        # replica still needs — incremental ship can
                        # no longer catch it up.  Snapshot catch-up
                        # instead: the deficit repair reloads the slot
                        # from the checkpoint-refreshed ``mains`` and
                        # replays only the journal suffix.
                        _obs.count("shard.snapshot_catchups")
                        self.incidents.append(
                            f"replica row {row} shard {index} behind "
                            f"the checkpoint floor "
                            f"({worker.applied_seq} < {floor}); "
                            "snapshot catch-up scheduled")
                        self._replica_deficits.add((row, index))
                        row_applied = 0
                        continue
                    entries = self._journal_for(index,
                                                worker.applied_seq)
                    try:
                        worker.applied_seq = int(self._call_worker(
                            worker, ("replay", committed, entries)))
                        _obs.count("shard.journal_shipped",
                                   len(entries))
                    except _WorkerFailure as failure:
                        self._replica_deficits.add((row, index))
                        self.incidents.append(
                            f"replica row {row} shard {index} ship "
                            f"failed: {failure}")
                        row_applied = 0
                        continue
                row_applied = min(row_applied, worker.applied_seq)
            max_lag = max(max_lag, committed - row_applied)
        _obs.gauge("shard.replica_lag", max_lag)

    def flush_replication(self) -> None:
        """Ship all pending journal entries and repair deficits now.

        The synchronous form of what the ship thread does every
        ``ship_interval``; tests and the chaos harness call it to
        bound lag deterministically.  Ships first (which is also how
        dead slots are *noticed* and recorded as deficits), then
        repairs and re-ships, so one flush leaves every repairable
        row alive and caught up."""
        with self._exclusive():
            if self._closing or not self._replicas_loaded:
                return
            self._ship_pending_locked()
            if self._replica_deficits:
                self._repair_replicas_locked()
                self._ship_pending_locked()

    def _start_ship_thread(self) -> None:
        if self.ship_interval <= 0 or self._ship_thread is not None:
            return
        self._ship_stop = threading.Event()
        self._ship_thread = threading.Thread(
            target=self._ship_loop, name="repro-journal-ship",
            daemon=True)
        self._ship_thread.start()

    def _ship_loop(self) -> None:
        # The bounded lock acquire keeps shutdown deadlock-free: the
        # stopper holds the global lock while joining, so this thread
        # must never block on it unconditionally.
        while not self._ship_stop.wait(max(self.ship_interval, 0.01)):
            if not self._lock.acquire(timeout=0.2):
                continue
            try:
                if self._ship_stop.is_set() or self._closing \
                        or not self._replicas_loaded:
                    continue
                with ExitStack() as stack:
                    for lock in self._row_locks:
                        stack.enter_context(lock)
                    if self._replica_deficits:
                        self._repair_replicas_locked()
                    self._ship_pending_locked()
            except Exception as exc:  # noqa: BLE001 - keep shipping
                self.incidents.append(f"journal ship failed: {exc}")
            finally:
                self._lock.release()

    def _stop_ship_thread(self) -> None:
        if self._ship_thread is None:
            return
        self._ship_stop.set()
        self._ship_thread.join(timeout=5.0)
        self._ship_thread = None

    def _replica_row_call(self, row: int, index: int, message: tuple):
        """One RPC against replica ``(row, index)``; infrastructure
        failures mark the slot deficient and raise
        :class:`_WorkerFailure` for the primary-fallback path."""
        worker = self._replica_rows[row - 1][index]
        if worker is None or not worker.process.is_alive():
            self._replica_deficits.add((row, index))
            raise _WorkerFailure(
                f"replica row {row} shard {index}: not running")
        try:
            return self._call_worker(worker, message,
                                     f"replica row {row} shard {index}")
        except _WorkerFailure:
            self._replica_deficits.add((row, index))
            raise

    def _replica_row_fanout(self, row: int, shard_ids,
                            message_for) -> list[tuple[int, object]]:
        """Strict pipelined fan-out across one replica row.

        No degraded mode and no inline recovery: any infrastructure
        failure marks its slot deficient and raises, and the caller
        retries the whole read on the primaries.  Abandoned replies
        from the failed fan-out are discarded by call-id on the row's
        next lease, so the pipes stay aligned."""
        shard_ids = list(shard_ids)
        workers = self._replica_rows[row - 1]
        remaining = None
        budget = self.timeout
        active = _deadline.current()
        if active is not None:
            remaining = active.remaining()
            if remaining <= 0:
                raise QueryTimeout(
                    f"deadline expired before replica row {row} "
                    "fan-out", budget_seconds=active.budget)
            budget = min(self.timeout, remaining + DEADLINE_GRACE)
        call_ids: dict[int, int] = {}
        for index in shard_ids:
            worker = workers[index]
            message = message_for(index)
            try:
                if worker is None or not worker.process.is_alive():
                    raise _WorkerFailure(
                        f"replica row {row} shard {index}: "
                        "not running")
                wire = (message if remaining is None
                        else ("deadline", remaining, message))
                wire = self._trace_wire(wire)
                call_ids[index] = worker.next_call_id()
                self._send(worker, (call_ids[index], wire),
                           op=message[0])
            except _WorkerFailure:
                self._replica_deficits.add((row, index))
                raise
        deadline = time.monotonic() + budget
        results = []
        for index in shard_ids:
            try:
                results.append((index, self._recv(
                    workers[index], deadline, budget,
                    call_ids[index])))
            except _WorkerFailure:
                self._replica_deficits.add((row, index))
                raise
        return results


def _first_descendant(element, tag: str):
    """The first descendant element with ``tag`` (document order)."""
    for child in element.children:
        if getattr(child, "kind", None) != "element":
            continue
        if child.tag == tag:
            return child
        found = _first_descendant(child, tag)
        if found is not None:
            return found
    return None


_UNESCAPES = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
              ("&apos;", "'"), ("&amp;", "&"))


def _sort_key_of(value: str, tag: str) -> str:
    """Extract the order-by key from one serialized result fragment."""
    marker = f"<{tag}>"
    start = value.find(marker)
    if start < 0:
        return ""
    start += len(marker)
    end = value.find(f"</{tag}>", start)
    if end < 0:
        return ""
    key = value[start:end]
    for entity, char in _UNESCAPES:
        key = key.replace(entity, char)
    return key


def _stable_sort_by_key(values: list[str], tag: str) -> list[str]:
    """Stable re-sort of ordinal-ordered fragments by their sort key.

    Reproduces XQuery ``order by`` semantics: the input is already in
    document order (global ordinals), and Python's ``sorted`` is
    stable, so equal keys keep document order — exactly the oracle's
    tie-breaking.
    """
    return sorted(values, key=lambda value: _sort_key_of(value, tag))


__all__ = ["ShardedEngine", "shard_of", "DEFAULT_TIMEOUT"]
