"""Typed request/response/session surface shared by client, server and CLI.

Every hop of the serving stack used to build the same wire dicts by hand:
``server/protocol`` documented them, ``loadgen.ServingClient`` assembled
them, ``cli.py`` assembled them again, and the server unpacked them with
``payload.get(...)`` defaults sprinkled per call site.  This module is the
single definition: frozen dataclasses with explicit defaults, validation
at construction time, and ``to_wire``/``from_wire`` converters so the
JSON framing layer stays dumb.

The ``from_wire`` classmethods are the wire decoders: ``server.py``
decodes every hello, query and update frame through them and
``loadgen/client.py`` every reply, filling absent fields with the
dataclass defaults.  A present field of the wrong type (a string
``deadline``, list ``params``, non-integer ``units``) raises
:class:`~repro.errors.BadRequest` rather than a bare ``ValueError``.
In-process code constructs the dataclasses directly.

The module also owns the consistency-tier vocabulary for replica reads
(see ``docs/replication.md``):

``strong``
    Primary only.  Always sees every acknowledged write.
``read_your_writes``
    A replica may answer only if it has applied the session's last
    acknowledged write sequence (``min_seq``).
``bounded_staleness``
    A replica may answer if it is at most ``max_lag`` acknowledged
    writes behind the primary.
``eventual``
    Any live replica may answer, regardless of lag.

Only :mod:`repro.errors` may be imported here; everything else imports
*us* (the shard engine reads the thread-local scope, the server parses
requests, the client serializes them).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from .errors import BadRequest, ConsistencyError

CONSISTENCY_TIERS = ("strong", "read_your_writes", "bounded_staleness",
                     "eventual")


@dataclass(frozen=True)
class Consistency:
    """A consistency tier plus its arguments.

    ``max_lag`` only applies to ``bounded_staleness`` (maximum number of
    acknowledged writes a replica may be behind).  ``min_seq`` only
    applies to ``read_your_writes`` (the session's last acknowledged
    write sequence; ``0`` means "no writes yet", which any replica
    satisfies).
    """

    tier: str = "strong"
    max_lag: int = 0
    min_seq: int = 0

    def __post_init__(self):
        if self.tier not in CONSISTENCY_TIERS:
            raise ConsistencyError(
                f"unknown consistency tier {self.tier!r}; "
                f"expected one of {', '.join(CONSISTENCY_TIERS)}")
        if self.max_lag < 0:
            raise ConsistencyError(
                f"bounded_staleness max_lag must be >= 0, got {self.max_lag}")
        if self.min_seq < 0:
            raise ConsistencyError(
                f"read_your_writes min_seq must be >= 0, got {self.min_seq}")

    @classmethod
    def parse(cls, value) -> "Consistency":
        """Accept a Consistency, ``None``, a tier string (optionally
        ``bounded_staleness:K``), or a wire dict."""
        if value is None:
            return STRONG
        if isinstance(value, Consistency):
            return value
        if isinstance(value, dict):
            return cls.from_wire(value)
        if isinstance(value, str):
            tier, _, arg = value.partition(":")
            tier = tier.strip()
            if not arg:
                return cls(tier=tier)
            try:
                number = int(arg)
            except ValueError:
                raise ConsistencyError(
                    f"bad consistency argument {arg!r} in {value!r}") from None
            if tier == "bounded_staleness":
                return cls(tier=tier, max_lag=number)
            if tier == "read_your_writes":
                return cls(tier=tier, min_seq=number)
            raise ConsistencyError(
                f"tier {tier!r} takes no {arg!r} argument")
        raise ConsistencyError(
            f"cannot parse consistency from {type(value).__name__}")

    def with_min_seq(self, min_seq: int) -> "Consistency":
        return replace(self, min_seq=min_seq)

    def to_wire(self) -> dict:
        wire = {"tier": self.tier}
        if self.max_lag:
            wire["max_lag"] = self.max_lag
        if self.min_seq:
            wire["min_seq"] = self.min_seq
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "Consistency":
        if not isinstance(wire, dict):
            raise ConsistencyError(
                f"consistency wire form must be a dict, got "
                f"{type(wire).__name__}")
        try:
            return cls(tier=wire.get("tier", "strong"),
                       max_lag=int(wire.get("max_lag", 0)),
                       min_seq=int(wire.get("min_seq", 0)))
        except (TypeError, ValueError) as exc:
            raise ConsistencyError(
                f"bad consistency wire form {wire!r}: {exc}") from None


STRONG = Consistency(tier="strong")
EVENTUAL = Consistency(tier="eventual")


def read_your_writes(min_seq: int = 0) -> Consistency:
    return Consistency(tier="read_your_writes", min_seq=min_seq)


def bounded_staleness(max_lag: int) -> Consistency:
    return Consistency(tier="bounded_staleness", max_lag=max_lag)


_SCOPE = threading.local()


def current_consistency() -> Consistency | None:
    """The consistency requested by the innermost active scope, if any."""
    return getattr(_SCOPE, "value", None)


@contextmanager
def consistency_scope(consistency):
    """Thread-local scope the shard engine consults when routing reads."""
    resolved = Consistency.parse(consistency)
    previous = getattr(_SCOPE, "value", None)
    _SCOPE.value = resolved
    try:
        yield resolved
    finally:
        _SCOPE.value = previous


def _wire_int(payload: dict, key: str, default: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{key!r} must be an integer, got {value!r}")
    return value


def _wire_str(payload: dict, key: str, default: str | None) -> str | None:
    value = payload.get(key)
    if value is None:
        return default
    if not isinstance(value, str):
        raise BadRequest(f"{key!r} must be a string, got {value!r}")
    return value


def _wire_seconds(payload: dict, key: str) -> float | None:
    value = payload.get(key)
    if value is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise BadRequest(
            f"{key!r} must be a number of seconds, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SessionOptions:
    """Everything a ``hello`` establishes for a server session."""

    engine: str = "native"
    class_key: str = "dcsd"
    units: int = 50
    shards: int = 0
    replicas: int = 0
    tenant: str = "default"
    consistency: Consistency = STRONG
    deadline: float | None = None
    trace: bool = False

    def __post_init__(self):
        if not isinstance(self.consistency, Consistency):
            object.__setattr__(self, "consistency",
                               Consistency.parse(self.consistency))
        if self.shards < 0:
            raise ConsistencyError(f"shards must be >= 0, got {self.shards}")
        if self.replicas < 0:
            raise ConsistencyError(
                f"replicas must be >= 0, got {self.replicas}")
        if self.replicas and self.shards < 2:
            raise ConsistencyError(
                "replicas require a sharded engine (shards >= 2)")

    def to_wire(self) -> dict:
        wire = {"op": "hello", "engine": self.engine, "class": self.class_key,
                "units": self.units, "shards": self.shards,
                "tenant": self.tenant}
        if self.replicas:
            wire["replicas"] = self.replicas
        if self.consistency != STRONG:
            wire["consistency"] = self.consistency.to_wire()
        if self.deadline is not None:
            wire["deadline"] = self.deadline
        if self.trace:
            wire["trace"] = True
        return wire

    @classmethod
    def from_wire(cls, payload: dict) -> "SessionOptions":
        # Decodes a hello frame; absent fields take the session defaults
        # and a mistyped one is a BadRequest.
        return cls(engine=_wire_str(payload, "engine", "native"),
                   class_key=_wire_str(payload, "class", "dcsd"),
                   units=_wire_int(payload, "units", 50),
                   shards=_wire_int(payload, "shards", 0),
                   replicas=_wire_int(payload, "replicas", 0),
                   tenant=_wire_str(payload, "tenant", "default"),
                   consistency=Consistency.parse(payload.get("consistency")),
                   deadline=_wire_seconds(payload, "deadline"),
                   trace=bool(payload.get("trace", False)))


@dataclass(frozen=True)
class QueryRequest:
    """One query (or update) as the server admission layer sees it."""

    qid: str
    params: dict = field(default_factory=dict)
    deadline: float | None = None
    tenant: str | None = None
    consistency: Consistency | None = None
    trace: bool = False

    def __post_init__(self):
        if (self.consistency is not None
                and not isinstance(self.consistency, Consistency)):
            object.__setattr__(self, "consistency",
                               Consistency.parse(self.consistency))

    def to_wire(self) -> dict:
        wire = {"op": "query", "qid": self.qid}
        if self.params:
            wire["params"] = dict(self.params)
        if self.deadline is not None:
            wire["deadline"] = self.deadline
        if self.tenant is not None:
            wire["tenant"] = self.tenant
        if self.consistency is not None:
            wire["consistency"] = self.consistency.to_wire()
        if self.trace:
            wire["trace"] = True
        return wire

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryRequest":
        # Decodes a query (or update) frame; absent fields take the
        # request defaults and a mistyped one is a BadRequest.
        consistency = payload.get("consistency")
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequest(f"'params' must be an object, got {params!r}")
        return cls(qid=str(payload.get("qid", "")),
                   params=dict(params),
                   deadline=_wire_seconds(payload, "deadline"),
                   tenant=_wire_str(payload, "tenant", None),
                   consistency=(None if consistency is None
                                else Consistency.parse(consistency)),
                   trace=bool(payload.get("trace", False)))


@dataclass(frozen=True)
class QueryResponse:
    """A settled query: either rows or a typed error, never both."""

    ok: bool
    qid: str = ""
    rows: int = 0
    seconds: float = 0.0
    queued_ms: float = 0.0
    ttfr_ms: float | None = None
    tenant: str = "default"
    partial: bool = False
    error: str | None = None
    message: str | None = None
    trace_id: str | None = None
    seq: int = 0

    def to_wire(self) -> dict:
        if not self.ok:
            wire = {"ok": False, "error": self.error or "ServerError",
                    "message": self.message or ""}
            if self.trace_id:
                wire["trace_id"] = self.trace_id
            return wire
        wire = {"ok": True, "qid": self.qid, "rows": self.rows,
                "seconds": self.seconds, "queued_ms": self.queued_ms,
                "tenant": self.tenant, "partial": self.partial}
        if self.ttfr_ms is not None:
            wire["ttfr_ms"] = self.ttfr_ms
        if self.trace_id:
            wire["trace_id"] = self.trace_id
        if self.seq:
            wire["seq"] = self.seq
        return wire

    @classmethod
    def from_wire(cls, payload: dict) -> "QueryResponse":
        # Decodes a reply frame (the typed client methods call this).
        return cls(ok=bool(payload.get("ok")),
                   qid=str(payload.get("qid", "")),
                   rows=int(payload.get("rows", 0)),
                   seconds=float(payload.get("seconds", 0.0)),
                   queued_ms=float(payload.get("queued_ms", 0.0)),
                   ttfr_ms=payload.get("ttfr_ms"),
                   tenant=str(payload.get("tenant", "default")),
                   partial=bool(payload.get("partial", False)),
                   error=payload.get("error"),
                   message=payload.get("message"),
                   trace_id=payload.get("trace_id"),
                   seq=int(payload.get("seq", 0)))
