"""The persistent query server: warm engines behind an asyncio socket.

Every CLI ``repro query``/``suite`` run pays cold corpus generation,
parsing and indexing before the first query; "multiuser" was threads
inside one such process.  :class:`QueryServer` separates the system
under test from its workload driver: it owns loaded engines across
requests (the millions-of-users serving shape), speaks the
length-prefixed JSON protocol of :mod:`~repro.server.protocol`, and
runs every query through the admission-controlled weighted-fair queue
of :mod:`~repro.server.admission`.

Flow of one query (``║`` = under the admission lock)::

    client ── hello ──▶ engine cache (load once, reuse warm)
    client ── query ──▶ event loop: decode ─▶ ║ submit + notify
                                                │ full / doomed deadline
                                                │   ─▶ typed ServerOverloaded
                                                ▼
                        executor thread ║ next_ready + drain_expired,
                        (one of N,      ║ in_flight += 1
                         long-lived)        │ expired in queue ─▶ typed
                                            │                   QueryTimeout
                                            ▼
                                deadline_scope(engine.execute)
                                            │
                                        ║ in_flight -= 1, EWMA
                                            ▼
                          loop.call_soon_threadsafe(_finish)
                                            ▼
    client ◀── {ok, rows, seconds, queued_ms} ── event loop: counters,
                                                 queue span, reply

The event loop only frames, decodes and admits; the ``executors``
threads take work straight from the admission queue and hand each
outcome back with exactly one thread-safe callback, so a served
request costs one loop wake-up beyond its socket reads and writes.

Backpressure rides the PR 5 machinery: a request's wire ``deadline``
becomes a :class:`~repro.faults.deadline.Deadline` at admission time,
so queue wait consumes the same budget the evaluator's cooperative
checkpoints (and the sharded RPC wire) enforce, and a sharded engine
keeps its per-shard :class:`~repro.faults.policy.CircuitBreaker` and
:class:`~repro.faults.policy.RetryPolicy` underneath the server
untouched.

Graceful drain: SIGTERM (or :meth:`QueryServer.request_drain`) stops
accepting sessions and queries, finishes everything already admitted,
answers each waiting client, then exits — no query is abandoned
mid-flight.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field

from ..api import (
    Consistency,
    QueryRequest,
    SessionOptions,
    consistency_scope,
)
from ..databases import CLASSES_BY_KEY
from ..engines import create, engine_keys
from ..errors import (
    BadRequest,
    QueryTimeout,
    ReproError,
    ServerDraining,
    ServerError,
    ServerOverloaded,
    UnsupportedOperation,
    UnsupportedQuery,
)
from ..faults.deadline import Deadline, deadline_scope
from ..obs import recorder as _obs
from ..obs import trace as _trace
from ..obs.export import trace_records, write_ndjson
from ..obs.resources import ResourceSampler
from ..workload import bind_params
from ..workload.queries import QUERIES_BY_ID
from ..xml.serializer import serialize
from .admission import AdmissionController, Request
from .protocol import error_response, read_message, write_message

#: corpus generation seed shared with the CLI defaults, so a server
#: corpus matches what `repro query` would have built.
CORPUS_SEED = 42


@dataclass(frozen=True)
class EngineSpec:
    """One warm-engine cache key: what a session asked to query."""

    engine: str = "native"
    class_key: str = "dcmd"
    units: int = 24
    shards: int = 0
    replicas: int = 0

    def validate(self) -> None:
        if self.engine not in engine_keys():
            raise ServerError(
                f"unknown engine {self.engine!r}; registered: "
                f"{', '.join(sorted(engine_keys()))}")
        if self.class_key not in CLASSES_BY_KEY:
            raise ServerError(
                f"unknown database class {self.class_key!r}; choose "
                f"from {', '.join(sorted(CLASSES_BY_KEY))}")
        if self.units < 1:
            raise ServerError(f"units must be >= 1, got {self.units}")
        if self.replicas and self.shards < 2:
            raise ServerError(
                "replicas require a sharded engine (shards >= 2)")


@dataclass
class ServerConfig:
    """Knobs of one server instance."""

    host: str = "127.0.0.1"
    #: 0 = ephemeral; the bound port is on :attr:`QueryServer.port`.
    port: int = 0
    #: default session spec, preloaded at startup when ``preload``.
    engine: str = "native"
    class_key: str = "dcmd"
    units: int = 24
    shards: int = 0
    #: read replicas per shard for the default spec (requires shards).
    replicas: int = 0
    #: bounded request queue: beyond this, shed with ServerOverloaded.
    max_queue: int = 64
    #: concurrent query executor slots (threads).
    executors: int = 1
    #: per-tenant fair-scheduling weights (unlisted tenants get 1.0).
    tenant_weights: dict = field(default_factory=dict)
    #: deadline applied to requests that do not send one (None = none).
    default_deadline: float | None = None
    #: per-RPC timeout handed to a sharded engine.
    rpc_timeout: float | None = None
    #: sharded degradation policy (partial keeps serving around a dead
    #: shard, annotating answers instead of failing them).
    degraded: str = "partial"
    seed: int = 0
    #: warm engines kept before least-recently-used eviction.
    max_engines: int = 4
    #: load the default spec before accepting connections.
    preload: bool = True
    #: artificial per-query service-time floor (seconds).  A load-test
    #: knob: tiny test corpora answer in microseconds, which makes
    #: saturation unreachable for a socket-bound driver; a floor of a
    #: few ms gives rate sweeps a realistic, controllable knee.
    throttle_seconds: float = 0.0
    #: record cross-process spans for every request (implied by
    #: ``trace_spans``); each reply then carries its ``trace_id``.
    trace: bool = False
    #: NDJSON path the server's span log is written to (atomically) at
    #: drain; enables tracing.
    trace_spans: str | None = None
    #: sample CPU/RSS of the server and its shard workers (pilot-run
    #: calibrated interval), surfaced in ``stats`` responses.
    sample_resources: bool = True
    #: directory of ``repro snapshot build`` artifacts; cold engine
    #: loads whose (class, units, CORPUS_SEED) snapshot exists skip
    #: generation + parsing and mmap-load pre-encoded node arrays.
    snapshot_dir: str | None = None
    #: durable-mode root: each sharded spec journals its writes under
    #: ``<data_dir>/<engine>-<class>-u<units>-s<shards>`` and a restart
    #: against the same directory recovers to the exact committed
    #: sequence instead of reloading a fresh corpus.
    data_dir: str | None = None
    #: WAL fsync policy for durable specs ("always"/"batch"/"off").
    fsync: str = "batch"
    #: background checkpoint period in seconds (0 = checkpoint only at
    #: load time; the WAL then grows until an explicit checkpoint).
    checkpoint_interval: float = 0.0

    def default_spec(self) -> EngineSpec:
        return EngineSpec(self.engine, self.class_key, self.units,
                          self.shards, self.replicas)


class _EngineCache:
    """Warm engines keyed by :class:`EngineSpec`, LRU-bounded.

    Loads run on the event loop's default thread pool, off the loop
    (they can take seconds); the lock
    serializes loads and keeps eviction consistent.  Evicted engines
    are closed, which reaps a sharded engine's worker processes.
    """

    def __init__(self, config: ServerConfig) -> None:
        self._config = config
        self._engines: OrderedDict[EngineSpec, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_load(self, spec: EngineSpec):
        """Return ``(engine, warm)``; loads cold specs on this thread."""
        with self._lock:
            engine = self._engines.get(spec)
            if engine is not None:
                self._engines.move_to_end(spec)
                self.hits += 1
                return engine, True
            self.misses += 1
            engine = self._load(spec)
            self._engines[spec] = engine
            while len(self._engines) > self._config.max_engines:
                __, evicted = self._engines.popitem(last=False)
                self.evictions += 1
                evicted.close()
            return engine, False

    def worker_pids(self) -> list[int]:
        """Shard-worker PIDs of every cached engine (for sampling)."""
        with self._lock:
            engines = list(self._engines.values())
        pids: list[int] = []
        for engine in engines:
            getter = getattr(engine, "worker_pids", None)
            if getter is not None:
                pids.extend(getter())
        return pids

    def snapshot(self) -> dict:
        """Hit/miss counters plus one record per warm engine."""
        with self._lock:
            items = list(self._engines.items())
        warm = []
        for spec, engine in items:
            record = {"engine": spec.engine, "class": spec.class_key,
                      "units": spec.units, "shards": spec.shards,
                      "replicas": spec.replicas}
            breakers = getattr(engine, "breaker_states", None)
            if breakers is not None:
                record["breakers"] = breakers()
            pids = getattr(engine, "worker_pids", None)
            if pids is not None:
                record["worker_pids"] = pids()
            if spec.replicas:
                replication = getattr(engine, "replication_state", None)
                if replication is not None:
                    record["replication"] = replication()
                record["failovers"] = getattr(engine, "failovers", 0)
            durability = getattr(engine, "durability_state", None)
            if durability is not None:
                state = durability()
                if state is not None:
                    record["durability"] = state
            warm.append(record)
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "warm": warm}

    def _spec_data_dir(self, spec: EngineSpec):
        """The durable subdirectory of one engine spec (None when the
        server runs memory-only or the spec is not sharded)."""
        if self._config.data_dir is None or spec.shards <= 1:
            return None
        from pathlib import Path
        return (Path(self._config.data_dir)
                / f"{spec.engine}-{spec.class_key}"
                  f"-u{spec.units}-s{spec.shards}")

    def _load(self, spec: EngineSpec):
        db_class = CLASSES_BY_KEY[spec.class_key]
        data_dir = self._spec_data_dir(spec)
        if spec.shards > 1:
            from ..core.shard import ShardedEngine
            # With replicas, the service floor moves *into* the engine
            # (the sleep holds the row lease), so concurrency across
            # primary + replica rows is what a rate sweep measures;
            # the server-side throttle is skipped for such engines.
            floor = (self._config.throttle_seconds
                     if spec.replicas else 0.0)
            if data_dir is not None \
                    and ShardedEngine.can_recover(data_dir):
                # A previous server journaled this spec: recover to
                # the committed sequence instead of reloading — the
                # crash-recovery CI job greps for this announcement.
                engine = ShardedEngine(
                    spec.engine, shards=spec.shards,
                    timeout=self._config.rpc_timeout,
                    degraded=self._config.degraded,
                    seed=self._config.seed, replicas=spec.replicas,
                    service_floor=floor, recover_dir=data_dir,
                    fsync=self._config.fsync,
                    checkpoint_interval=(
                        self._config.checkpoint_interval))
                report = engine.last_recovery_report or {}
                print(f"repro serve: recovered {spec.engine} "
                      f"{spec.class_key} u{spec.units} from "
                      f"{data_dir} (committed_seq "
                      f"{report.get('committed_seq', 0)}, "
                      f"{report.get('wal_records', 0)} wal records, "
                      f"{report.get('corrupt_records', 0)} corrupt)",
                      flush=True)
                return engine
            engine = ShardedEngine(
                spec.engine, shards=spec.shards,
                timeout=self._config.rpc_timeout,
                degraded=self._config.degraded,
                seed=self._config.seed,
                replicas=spec.replicas,
                service_floor=floor, data_dir=data_dir,
                fsync=self._config.fsync,
                checkpoint_interval=self._config.checkpoint_interval)
        else:
            engine = create(spec.engine)
        try:
            engine.check_supported(db_class, "small")
            corpus = None
            if self._config.snapshot_dir is not None:
                from ..core.corpus_io import open_snapshot_corpus
                corpus = open_snapshot_corpus(
                    self._config.snapshot_dir, spec.class_key,
                    spec.units, CORPUS_SEED)
            if corpus is None:
                documents = db_class.generate(spec.units,
                                              seed=CORPUS_SEED)
                corpus = [(d.name, serialize(d)) for d in documents]
            engine.timed_load(db_class, corpus)
            from ..core.indexes import indexes_for
            engine.create_indexes(list(indexes_for(spec.class_key)))
        except BaseException:
            engine.close()
            raise
        return engine

    def close(self) -> None:
        with self._lock:
            while self._engines:
                __, engine = self._engines.popitem(last=False)
                engine.close()


@dataclass
class _Session:
    """One connection's handshake state."""

    spec: EngineSpec
    engine: object
    tenant: str = "default"
    #: session-default consistency tier for reads (from the hello).
    consistency: Consistency = field(
        default_factory=lambda: Consistency())
    #: highest write sequence this session was acknowledged — the
    #: server-side fallback ``min_seq`` for ``read_your_writes``
    #: requests that do not pin one themselves.
    last_seq: int = 0


@dataclass
class _Pending:
    """The admission-queue payload: everything one request needs."""

    session: _Session
    qid: str
    params: dict
    tenant: str
    future: asyncio.Future
    #: "query" or "update" — what the executor thread runs.
    kind: str = "query"
    #: per-request consistency override (None = session default).
    consistency: Consistency | None = None
    #: update-op operands (kind == "update").
    update_id: str = ""
    update_value: str | None = None
    #: trace identity when the server is tracing: the request's trace
    #: id and its open ``server.request`` root span (a manual span —
    #: the event loop interleaves requests, so the thread-local
    #: context-manager stack cannot hold it).
    trace_id: str | None = None
    root: object = None


class QueryServer:
    """Asyncio socket server owning warm engines across requests."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.admission = AdmissionController(
            capacity=self.config.max_queue,
            weights=dict(self.config.tenant_weights),
            executors=self.config.executors)
        #: guards ``admission`` (and ``_draining`` / ``_executors_live``)
        #: between the event loop, which submits, and the executor
        #: threads, which dequeue and account; waited on by idle
        #: executors.
        self._cond = threading.Condition()
        self._cache = _EngineCache(self.config)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._draining = False
        self._executors: list[threading.Thread] = []
        self._executors_live = 0
        #: resolved by the last executor thread to exit after a drain.
        self._drained: asyncio.Future | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._sessions = 0
        self.port: int | None = None
        self.counters: dict[str, int] = {
            "sessions": 0, "queries": 0, "completed": 0,
            "failed": 0, "timeouts": 0, "partials": 0,
            "rejected": 0, "unhandled": 0, "refused_draining": 0,
        }
        self.per_tenant: dict[str, int] = {}
        #: the span recorder driving distributed tracing (None = off).
        self.recorder: _obs.Recorder | None = None
        #: CPU/RSS sampler over this process + shard workers.
        self.sampler: ResourceSampler | None = None
        self.started_at: float | None = None
        # background-thread harness (tests, embedded use)
        self._thread: threading.Thread | None = None
        self._thread_loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind, preload the default engine, start executor threads."""
        self._loop = asyncio.get_running_loop()
        if self.config.trace or self.config.trace_spans is not None:
            self.recorder = _obs.Recorder(name="serve")
            _obs.install(self.recorder)
        if self.config.preload:
            spec = self.config.default_spec()
            spec.validate()
            await self._loop.run_in_executor(
                None, self._cache.get_or_load, spec)
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.sample_resources:
            import os
            self.sampler = ResourceSampler(
                lambda: [os.getpid()] + self._cache.worker_pids())
            self.sampler.start()    # calibrates on first start
        self.started_at = time.monotonic()
        self._drained = self._loop.create_future()
        self._executors_live = self.admission.executors
        self._executors = [
            threading.Thread(target=self._executor_loop, daemon=True,
                             name=f"repro-serve_{index}")
            for index in range(self.admission.executors)]
        for thread in self._executors:
            thread.start()

    async def serve_until_drained(self) -> None:
        """Serve until :meth:`request_drain` finishes the queue.

        Executor threads only exit once draining was requested and the
        queue is empty, and each posts its last outcome before it
        leaves, so the future the last one resolves *is* the drain
        barrier: every admitted request has been settled."""
        await self._drained
        for thread in self._executors:
            thread.join()
        await self._close_connections()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.sampler is not None:
            self.sampler.stop()
        if self.recorder is not None:
            if self.config.trace_spans is not None:
                write_ndjson(trace_records(self.recorder),
                             self.config.trace_spans)
            # Only drop the global hook if it is still ours — a test
            # harness may have installed its own recorder since.
            if _obs.active() is self.recorder:
                _obs.uninstall()
        self._cache.close()

    def request_drain(self) -> None:
        """Begin graceful shutdown: refuse new work, finish admitted.

        Safe to call from a signal handler on the server's loop."""
        if self._draining:
            return
        with self._cond:
            self._draining = True
            self._cond.notify_all()
        if self._server is not None:
            self._server.close()

    async def _close_connections(self) -> None:
        for writer in list(self._writers):
            with contextlib.suppress(OSError):
                writer.close()
        self._writers.clear()

    async def run(self) -> int:
        """CLI entry: start, announce, install signal handlers, drain."""
        import signal
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.request_drain)
        spec = self.config.default_spec()
        print(f"repro serve: listening on {self.config.host}:"
              f"{self.port} (engine {spec.engine}, class "
              f"{spec.class_key}, units {spec.units}, shards "
              f"{spec.shards}, queue {self.config.max_queue}, "
              f"executors {self.config.executors})", flush=True)
        await self.serve_until_drained()
        snapshot = self.stats()
        if self.config.trace_spans is not None:
            print(f"repro serve: trace spans written to "
                  f"{self.config.trace_spans}", flush=True)
        print("repro serve: drained — "
              f"{snapshot['completed']} completed, "
              f"{snapshot['rejected']} rejected, "
              f"{snapshot['timeouts']} timeouts, "
              f"{snapshot['unhandled']} unhandled", flush=True)
        return 0 if snapshot["unhandled"] == 0 else 1

    # -- background-thread harness -------------------------------------------

    def start_background(self) -> "QueryServer":
        """Run the server on a private event-loop thread (tests and
        in-process harnesses); returns once the port is bound."""
        started = threading.Event()
        startup: list[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._thread_loop = loop
            try:
                loop.run_until_complete(self._background_main(started,
                                                              startup))
            finally:
                started.set()
                loop.close()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not started.wait(timeout=60.0):
            raise ServerError("server failed to start within 60s")
        if startup:
            raise startup[0]
        return self

    async def _background_main(self, started: threading.Event,
                               startup: list) -> None:
        try:
            await self.start()
        except BaseException as exc:    # surfaced on the caller thread
            startup.append(exc)
            return
        started.set()
        await self.serve_until_drained()
        loop = asyncio.get_running_loop()
        await loop.shutdown_default_executor()

    def stop_background(self, timeout: float = 30.0) -> None:
        """Drain the background server and join its thread."""
        if self._thread_loop is not None and self._thread is not None:
            with contextlib.suppress(RuntimeError):
                self._thread_loop.call_soon_threadsafe(
                    self.request_drain)
            self._thread.join(timeout)

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        session: _Session | None = None
        try:
            while True:
                try:
                    message = await read_message(reader)
                except BadRequest as exc:
                    # A whole frame arrived but its body is not a JSON
                    # object: answer it, then close.
                    reply, done = error_response(exc), True
                except ServerError:
                    break               # broken framing: nothing to answer
                else:
                    if message is None:
                        break
                    try:
                        reply, done = await self._respond(message, session)
                    except Exception as exc:  # noqa: BLE001 - counted
                        reply, done = self._internal_error(exc), True
                if isinstance(reply, tuple):
                    session, reply = reply
                try:
                    write_message(writer, reply)
                    await writer.drain()
                except (OSError, ConnectionError):
                    break
                if done:
                    break
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(OSError):
                writer.close()

    async def _respond(self, message: dict,
                       session: _Session | None):
        """Route one request; returns ``(reply | (session, reply),
        close_connection)``."""
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}, False
        if op == "stats":
            return {"ok": True, "stats": self.stats()}, False
        if op == "bye":
            return {"ok": True, "bye": True}, True
        if op == "hello":
            return await self._on_hello(message), False
        if op == "query":
            return await self._on_query(message, session), False
        if op == "update":
            return await self._on_update(message, session), False
        return error_response(BadRequest(f"unknown op {op!r}")), True

    async def _on_hello(self, message: dict):
        if self._draining:
            self.counters["refused_draining"] += 1
            return error_response(
                ServerDraining("server is draining; not accepting "
                               "new sessions"))
        defaults = self.config
        payload = dict(message)
        payload.setdefault("engine", defaults.engine)
        payload.setdefault("class", defaults.class_key)
        payload.setdefault("units", defaults.units)
        payload.setdefault("shards", defaults.shards)
        try:
            options = SessionOptions.from_wire(payload)
            spec = EngineSpec(engine=options.engine,
                              class_key=options.class_key,
                              units=options.units,
                              shards=options.shards,
                              replicas=options.replicas)
            spec.validate()
            engine, warm = await self._loop.run_in_executor(
                None, self._cache.get_or_load, spec)
        except ReproError as exc:
            return error_response(exc)
        session = _Session(spec, engine, tenant=options.tenant,
                           consistency=options.consistency)
        self._sessions += 1
        self._count("sessions")
        reply = {"ok": True, "session": self._sessions, "warm": warm,
                 "engine": spec.engine, "class": spec.class_key,
                 "units": spec.units, "shards": spec.shards,
                 "replicas": spec.replicas,
                 "consistency": options.consistency.tier,
                 "row_label": getattr(engine, "row_label", spec.engine)}
        return (session, reply)

    async def _on_query(self, message: dict,
                        session: _Session | None) -> dict:
        if session is None:
            return error_response(
                BadRequest("query before hello handshake"))
        if self._draining:
            self.counters["refused_draining"] += 1
            return error_response(
                ServerDraining("server is draining; not accepting "
                               "new queries"))
        try:
            parsed = QueryRequest.from_wire(message)
        except ReproError as exc:
            return error_response(exc)
        qid = parsed.qid.upper()
        query = QUERIES_BY_ID.get(qid)
        if query is None or not query.applies_to(session.spec.class_key):
            return error_response(
                UnsupportedQuery(f"{qid or '<missing qid>'} is not "
                                 f"defined for "
                                 f"{session.spec.class_key}"))
        params = parsed.params
        if not params:
            params = dict(bind_params(qid, session.spec.class_key,
                                      session.spec.units))
        tenant = parsed.tenant or session.tenant
        trace_id, root = self._open_trace(message, qid, tenant)
        pending = _Pending(session, qid, dict(params), tenant,
                           self._loop.create_future(),
                           consistency=parsed.consistency,
                           trace_id=trace_id, root=root)
        return await self._admit(pending, parsed.deadline)

    async def _on_update(self, message: dict,
                         session: _Session | None) -> dict:
        """Route one acknowledged write through the same admission
        queue the reads ride — an update that returns ``ok`` has been
        committed on every shard (and journaled for the replicas)."""
        if session is None:
            return error_response(
                BadRequest("update before hello handshake"))
        if self._draining:
            self.counters["refused_draining"] += 1
            return error_response(
                ServerDraining("server is draining; not accepting "
                               "new updates"))
        id_value = str(message.get("id", "")).strip()
        if not id_value:
            return error_response(
                BadRequest("update requires an 'id' field"))
        try:
            # Same decoder as a query frame, for deadline and tenant.
            parsed = QueryRequest.from_wire(message)
        except ReproError as exc:
            return error_response(exc)
        tenant = parsed.tenant or session.tenant
        trace_id, root = self._open_trace(message, "UPDATE", tenant)
        pending = _Pending(session, "UPDATE", {}, tenant,
                           self._loop.create_future(), kind="update",
                           update_id=id_value,
                           update_value=message.get("value"),
                           trace_id=trace_id, root=root)
        return await self._admit(pending, parsed.deadline)

    async def _admit(self, pending: _Pending,
                     deadline_seconds: float | None) -> dict:
        """Submit one decoded request to admission, wake an idle
        executor thread, and await the reply it posts back."""
        if deadline_seconds is None:
            deadline_seconds = self.config.default_deadline
        deadline = (Deadline(deadline_seconds)
                    if deadline_seconds is not None else None)
        self._count("queries")
        request = Request(tenant=pending.tenant, payload=pending,
                          deadline=deadline)
        try:
            with self._cond:
                self.admission.submit(request)
                self._cond.notify()
        except ServerOverloaded as exc:
            self._count("rejected")
            self._settle(pending, error_response(exc))
        return await pending.future

    def _open_trace(self, message: dict, qid: str, tenant: str):
        """Open the request's ``server.request`` root span when tracing.

        Joins the client's trace when the message carries a ``trace``
        field (continuing its trace id under its ``parent`` gid), or
        starts a server-rooted trace otherwise, so untraced clients
        still reassemble.  Returns ``(trace_id, root_span)`` — both
        None with tracing off.
        """
        recorder = self.recorder
        if recorder is None:
            return None, None
        ctx = _trace.from_wire(message.get("trace"))
        trace_id = (ctx.trace_id if ctx is not None
                    else _trace.new_trace_id())
        root = recorder.tracer.start_span(
            "server.request", trace_id=trace_id,
            parent_gid=ctx.parent_gid if ctx is not None else None,
            qid=qid, tenant=tenant)
        return trace_id, root

    # -- dispatch ------------------------------------------------------------

    def _executor_loop(self) -> None:
        """Body of one executor thread: take the next admitted request
        straight from the admission queue, run it, and post its outcome
        to the event loop with one thread-safe callback; exit once a
        drain has emptied the queue."""
        cond, admission = self._cond, self.admission
        post = self._loop.call_soon_threadsafe
        while True:
            with cond:
                while True:
                    request = admission.next_ready()
                    expired = admission.drain_expired()
                    if request is not None or expired:
                        break
                    if self._draining:
                        self._executors_live -= 1
                        if not self._executors_live:
                            post(self._drained.set_result, None)
                        return
                    cond.wait()
                if request is not None:
                    admission.in_flight += 1
            if expired:
                post(self._settle_expired, expired)
            if request is None:
                continue
            queued = request.queued_seconds(time.monotonic())
            dequeued = time.perf_counter()
            try:
                outcome = self._execute(request.payload, request.deadline)
            except Exception as exc:  # noqa: BLE001 - classified in _finish
                outcome = exc
            with cond:
                admission.in_flight -= 1
                if not isinstance(outcome, Exception):
                    admission.note_service_time(outcome[1])
            post(self._finish, request.payload, queued, dequeued, outcome)

    def _settle_expired(self, requests: list[Request]) -> None:
        for request in requests:
            pending: _Pending = request.payload
            self.counters["timeouts"] += 1
            _obs.count("server.expired_in_queue")
            self._settle(pending, error_response(QueryTimeout(
                "deadline expired while queued",
                budget_seconds=request.deadline.budget,
                trace_id=pending.trace_id)))

    def _finish(self, pending: _Pending, queued: float, dequeued: float,
                outcome) -> None:
        """Settle one executed request on the loop thread.

        ``outcome`` is :meth:`_execute`'s result tuple or the exception
        it raised; ``queued`` is the admission wait in seconds and
        ``dequeued`` the ``perf_counter`` instant it ended."""
        if pending.root is not None:
            # Admission wait is only known at dequeue; backfill it as a
            # finished span ending there, under the request root.
            self.recorder.tracer.record_span(
                "server.queue", start=dequeued - queued, end=dequeued,
                parent_id=pending.root.span_id,
                trace_id=pending.trace_id, tenant=pending.tenant)
        if isinstance(outcome, QueryTimeout):
            self._count("timeouts")
            self._settle(pending, error_response(outcome))
            return
        if isinstance(outcome, ReproError):
            self._count("failed")
            self._settle(pending, error_response(outcome))
            return
        if isinstance(outcome, Exception):
            self._settle(pending, self._internal_error(outcome))
            return
        rows, seconds, partial, ttfr, seq = outcome
        self._count("completed")
        if partial:
            self._count("partials")
        self.per_tenant[pending.tenant] = (
            self.per_tenant.get(pending.tenant, 0) + 1)
        _obs.record_latency("server.service", seconds)
        _obs.record_latency("server.ttfr", ttfr)
        if pending.kind == "update" and seq:
            # The session's read-your-writes floor advances with every
            # acknowledged write it issued.
            pending.session.last_seq = max(pending.session.last_seq,
                                           seq)
        reply = {
            "ok": True, "qid": pending.qid, "rows": rows,
            "seconds": seconds, "queued_ms": queued * 1000.0,
            "ttfr_ms": ttfr * 1000.0,
            "tenant": pending.tenant, "partial": partial}
        if seq:
            reply["seq"] = seq
        self._settle(pending, reply)

    def _count(self, key: str) -> None:
        """Bump one outcome counter and its ``server.<key>`` metric."""
        self.counters[key] += 1
        _obs.count(f"server.{key}")

    def _internal_error(self, exc: Exception) -> dict:
        """Count an exception no typed path caught, log its traceback,
        and shape the ``InternalError`` reply the client still gets."""
        self._count("unhandled")
        traceback.print_exception(exc, file=sys.stderr)
        return error_response("InternalError",
                              f"{type(exc).__name__}: {exc}")

    def _execute(self, pending: _Pending, deadline: Deadline | None):
        """Run one admitted request on an executor thread.

        When tracing, the engine call runs inside a ``server.execute``
        span under a trace scope parented on the request root, so a
        sharded engine's RPC layer propagates the context to its
        workers.  Reads run under the request's (or session's)
        consistency tier; a ``read_your_writes`` request that did not
        pin a ``min_seq`` inherits the session's last acknowledged
        write sequence.
        """
        engine = pending.session.engine
        if pending.kind == "update":
            return self._execute_update(pending, deadline)
        partials_before = len(getattr(engine, "partials", ()))
        ctx = None
        if pending.root is not None:
            ctx = _trace.TraceContext(
                pending.trace_id,
                parent_gid=_trace.gid_of(pending.root.span_id))
        consistency = (pending.consistency
                       or pending.session.consistency)
        if (consistency.tier == "read_your_writes"
                and not consistency.min_seq):
            consistency = consistency.with_min_seq(
                pending.session.last_seq)
        start = time.perf_counter()
        with _trace.trace_scope(ctx), deadline_scope(deadline), \
                consistency_scope(consistency), \
                _obs.span("server.execute", qid=pending.qid,
                          tenant=pending.tenant):
            values = engine.execute(pending.qid, pending.params)
            floor = self.config.throttle_seconds
            if floor > 0.0 and getattr(engine, "service_floor",
                                       0.0) <= 0.0:
                # Engines with their own service floor pad inside the
                # row lease; padding again here would double-count.
                remaining = floor - (time.perf_counter() - start)
                if remaining > 0.0:
                    time.sleep(remaining)
                if deadline is not None:
                    deadline.check("throttled service")
        elapsed = time.perf_counter() - start
        # A sharded engine stamps its first shard reply; locals fall
        # back to "first result arrived when the query finished".
        ttfr = getattr(engine, "last_ttfr_seconds", None)
        if ttfr is None or ttfr > elapsed:
            ttfr = elapsed
        partial = (len(getattr(engine, "partials", ()))
                   > partials_before)
        return len(values), elapsed, partial, ttfr, 0

    def _execute_update(self, pending: _Pending,
                        deadline: Deadline | None):
        """Run one admitted ``update`` on an executor thread: set the
        class's canonical update target (``order_status`` /
        ``date_of_publication``) on the document matching ``id``."""
        from ..workload.updates import UPDATE_TARGETS
        spec = pending.session.spec
        target = UPDATE_TARGETS.get(spec.class_key)
        if target is None:
            raise UnsupportedOperation(
                f"updates are defined for multi-document classes, "
                f"not {spec.class_key!r}")
        id_path, target_tag, default_value = target
        new_value = (pending.update_value
                     if pending.update_value is not None
                     else default_value)
        engine = pending.session.engine
        ctx = None
        if pending.root is not None:
            ctx = _trace.TraceContext(
                pending.trace_id,
                parent_gid=_trace.gid_of(pending.root.span_id))
        start = time.perf_counter()
        with _trace.trace_scope(ctx), deadline_scope(deadline), \
                _obs.span("server.update", tenant=pending.tenant):
            changed = engine.update_value(id_path, pending.update_id,
                                          target_tag, str(new_value))
        elapsed = time.perf_counter() - start
        seq = getattr(engine, "committed_seq", 0)
        _obs.count("server.updates")
        return changed, elapsed, False, elapsed, seq

    def _settle(self, pending: _Pending, reply: dict) -> None:
        """Resolve a request's future — the one funnel every outcome
        (reply, rejection, timeout, failure) passes through, so it also
        attaches the trace id to the reply and closes the request's
        root span exactly once."""
        if pending.trace_id is not None:
            reply.setdefault("trace_id", pending.trace_id)
        root = pending.root
        if root is not None:
            pending.root = None
            root.attrs["outcome"] = (
                "ok" if reply.get("ok") else
                str(reply.get("error", "error")))
            if "ttfr_ms" in reply:
                root.attrs["ttfr_ms"] = reply["ttfr_ms"]
            self.recorder.tracer.end_span(root)
        if not pending.future.done():
            pending.future.set_result(reply)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        snapshot = dict(self.counters)
        with self._cond:
            snapshot["admission"] = self.admission.snapshot()
        snapshot["per_tenant"] = dict(self.per_tenant)
        snapshot["draining"] = self._draining
        snapshot["uptime_seconds"] = (
            time.monotonic() - self.started_at
            if self.started_at is not None else None)
        snapshot["engines"] = self._cache.snapshot()
        snapshot["resources"] = (self.sampler.summary()
                                 if self.sampler is not None else None)
        snapshot["trace"] = {
            "enabled": self.recorder is not None,
            "spans_recorded": (len(self.recorder.tracer.spans)
                               + len(self.recorder.foreign_spans)
                               if self.recorder is not None else 0),
        }
        return snapshot
