"""Exception hierarchy shared by every XBench subsystem.

All library errors derive from :class:`ReproError` so applications can catch
one base class.  Engine-specific "this configuration cannot run" conditions
(the ``-`` cells in the paper's tables) raise
:class:`UnsupportedConfiguration`, which the benchmark report layer renders
as ``-`` exactly like the paper does.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the XBench reproduction."""


class XMLError(ReproError):
    """Base class for XML document-model and parsing errors."""


class XMLParseError(XMLError):
    """Raised when a document is not well-formed.

    Carries the 1-based ``line`` and ``column`` of the offending input.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XQueryError(ReproError):
    """Base class for all XQuery engine errors."""


class XQuerySyntaxError(XQueryError):
    """Raised by the XQuery lexer/parser on malformed query text."""

    def __init__(self, message: str, position: int = -1):
        self.position = position
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class XQueryTypeError(XQueryError):
    """Raised when a value has the wrong type for an operation (err:XPTY)."""


class XQueryEvalError(XQueryError):
    """Raised for dynamic evaluation errors (unknown function, bad cast...)."""


class GenerationError(ReproError):
    """Raised when a ToXgene template cannot be instantiated."""


class RelStoreError(ReproError):
    """Base class for the mini relational engine."""


class SchemaError(RelStoreError):
    """Raised on invalid table/index definitions or constraint violations."""


class EngineError(ReproError):
    """Base class for DBMS engine analogue errors."""


class UnsupportedConfiguration(EngineError):
    """The engine cannot run this (class, scale) combination.

    Mirrors the ``-`` cells of the paper's tables, e.g. DB2 Xcolumn on
    single-document classes, or DB2 Xcollection beyond the small scale on
    single-document classes (1024-row decomposition limit).
    """


class LoadError(EngineError):
    """Raised when bulk loading a document collection fails."""


class UnsupportedOperation(EngineError):
    """The engine does not support this update operation on this class.

    The first XBench version is query-only; the update workload is this
    reproduction's implementation of the paper's planned extension #2
    ("update workloads"), and applies to the multi-document classes.
    """


class UnsupportedQuery(EngineError):
    """The engine has no translation for this workload query.

    The paper hand-translates only the experiment subset (Q5, Q8, Q12,
    Q14, Q17) to SQL; the relational analogues mirror that scope.
    """


class ShardError(EngineError):
    """Raised by the sharded execution service for infrastructure
    failures: a worker process died and could not be respawned, an RPC
    call timed out, or retries were exhausted.  Application-level errors
    raised *inside* a worker (e.g. :class:`UnsupportedQuery`) are
    re-raised under their own type, not this one.
    """


class CircuitOpen(ShardError):
    """A shard's circuit breaker is open: the shard failed ``K``
    consecutive RPCs at the infrastructure level, so further calls fail
    fast instead of waiting out another timeout.  After the breaker's
    cooldown one probe call is let through (half-open); a success closes
    the circuit again.  Surfaced in benchmark reports exactly like
    :class:`ShardError` incidents.
    """


class WalCorruption(EngineError):
    """A write-ahead-log record failed its CRC32 check.

    Recovery treats corruption as data loss, not as a crash: a torn
    final frame is truncated (the write it held was never acknowledged
    under ``fsync="always"``), and a corrupt record in the middle of a
    segment is *skipped* — replay continues with the next frame and the
    incident is recorded on the recovering engine.  Carries the segment
    path and the byte ``offset`` of the bad frame so the incident is
    actionable.
    """

    def __init__(self, message: str, path: str | None = None,
                 offset: int | None = None):
        self.path = path
        self.offset = offset
        if path is not None:
            where = path if offset is None else f"{path}@{offset}"
            message = f"{message} ({where})"
        super().__init__(message)


class RecoveryError(EngineError):
    """Cold-start recovery from a data directory cannot proceed.

    Raised when the directory has no usable checkpoint manifest, when
    every recorded checkpoint's snapshot files are missing or corrupt,
    or when the manifest disagrees with the recovering engine's
    configuration (shard count, database class).  Distinct from
    :class:`WalCorruption`: a bad WAL *record* is skipped and recovery
    continues; this type means there is nothing to recover onto.
    """


class QueryTimeout(ReproError):
    """A query exceeded its :class:`~repro.faults.deadline.Deadline`.

    Raised cooperatively: the XQuery evaluator and the edge path
    compiler check the thread-local deadline every N evaluation steps,
    so a runaway (or fault-delayed) query aborts with this typed error
    instead of hanging the harness.  Crossing the sharded RPC boundary,
    the remaining budget travels with the call and the worker-side
    evaluator raises this same type; it is an application-level error —
    never retried, never respawned.  When the failed query was traced,
    ``trace_id`` joins the error against the span logs.
    """

    def __init__(self, message: str, budget_seconds: float | None = None,
                 trace_id: str | None = None):
        self.budget_seconds = budget_seconds
        self.trace_id = trace_id
        if budget_seconds is not None:
            message = f"{message} (deadline {budget_seconds:.3f}s)"
        super().__init__(message)


class PartialResult(EngineError):
    """A sharded query was answered from the healthy shards only.

    In ``degraded="partial"`` mode the merge planner drops shards whose
    RPCs exhausted retries (or whose breaker is open) and annotates the
    query with an incident record instead of failing it outright.  This
    type names that outcome: it carries the merged ``values`` from the
    healthy shards and the ``failed_shards`` indices, and its name is
    what the benchmark report's incident column shows.  When the query
    was traced, ``trace_id`` joins the incident against the span logs.
    """

    def __init__(self, message: str, values: list | None = None,
                 failed_shards: tuple = (), trace_id: str | None = None):
        self.values = list(values or [])
        self.failed_shards = tuple(failed_shards)
        self.trace_id = trace_id
        super().__init__(message)


class ServerError(ReproError):
    """Base class for the persistent query server's typed failures.

    The server never lets an exception escape a connection handler:
    every failure crosses the wire as a typed error response, and the
    client library re-raises (or counts) it under one of these types.
    """


class ServerOverloaded(ServerError):
    """The server shed this request at admission time.

    Raised (and sent as a typed response) when the bounded request
    queue is full, or when the request carries a deadline that the
    predicted in-queue wait would already exhaust — shedding early is
    cheaper than queueing work that is doomed to time out.
    """


class BadRequest(ServerError):
    """A request the server cannot decode: an unknown ``op``, a query
    before the ``hello`` handshake, a field of the wrong type (a
    non-numeric ``deadline``, ``params`` that are not an object, a
    non-integer ``units``), or a frame body that is not a UTF-8 JSON
    object.  Answered as a typed error; never executed.
    """


class ServerDraining(ServerError):
    """The server is shutting down gracefully (SIGTERM drain).

    In-flight and already-admitted queries complete; new sessions and
    new queries are refused with this type.
    """


class ConsistencyError(ReproError):
    """An invalid consistency tier or tier argument was requested.

    Raised when parsing a consistency specification (an unknown tier
    name, a negative ``max_lag``, a malformed ``tier:arg`` string) and
    when a request asks for a guarantee the engine cannot express —
    e.g. ``read_your_writes`` with a session sequence from a different
    corpus generation.
    """


class FaultInjected(ReproError):
    """An error deliberately injected by an active
    :class:`~repro.faults.plan.FaultPlan` rule of kind ``"error"``.

    Distinct from every organic error type so tests and the chaos
    scorecard can tell injected failures from real bugs.
    """


class BenchmarkError(ReproError):
    """Raised by the benchmark driver for invalid experiment requests."""
