"""Wire protocol of the query server: length-prefixed JSON frames.

Every message — request or response, client or server side — is one
frame: a 4-byte big-endian unsigned length followed by that many bytes
of UTF-8 JSON.  JSON keeps the protocol debuggable (``nc`` + a hex
header gets you a session) and engine results are result *counts* plus
timings rather than the serialized fragments themselves, so frames stay
small under load.

Requests carry an ``op``:

``hello``   open a session: engine/class/units/shards/``replicas``
            selection plus a ``tenant`` label for fair scheduling and
            an optional session-default ``consistency`` tier (a string
            or :meth:`repro.api.Consistency.to_wire` dict).  The
            server loads (or reuses, warm) the matching engine and
            replies with corpus metadata.  The typed form of this
            message is :class:`repro.api.SessionOptions`.
``query``   run one workload query: ``qid``, optional ``params``
            (server binds defaults otherwise), optional ``deadline``
            seconds, optional per-request ``tenant`` override, an
            optional per-request ``consistency`` override (tier
            string or wire dict; replicated sessions route the read
            accordingly — see ``docs/replication.md``), and an
            optional ``trace`` object ``{"trace_id": "<16 hex>",
            "parent": "<process>:<span_id>"}`` joining the request to
            the client's distributed trace (see
            :mod:`repro.obs.trace`); a traced reply echoes
            ``trace_id`` and adds ``ttfr_ms``.  The typed form is
            :class:`repro.api.QueryRequest` /
            :class:`repro.api.QueryResponse`.
``update``  run one acknowledged write: set the class's canonical
            update target on the document whose ``id`` matches
            (optional ``value`` overrides the canonical new value).
            Rides the same admission queue as queries; an ``ok``
            reply means the write committed on every shard and
            carries ``seq``, the engine's committed write sequence —
            feed it back as ``read_your_writes`` ``min_seq`` (the
            server also tracks it per session as the default floor).
``stats``   the live telemetry snapshot: completion counters,
            admission state (queue depth, capacity, EWMA service
            time, per-tenant queues), per-tenant completions,
            warm-engine cache (hits/misses/evictions, per-engine
            circuit-breaker states and worker PIDs), CPU/RSS from the
            resource sampler, and trace status.
``ping``    liveness probe.
``bye``     close the session.

Responses are ``{"ok": true, ...}`` or a typed error
``{"ok": false, "error": "<TypeName>", "message": "..."}`` whose
``error`` field names an exception type from :mod:`repro.errors`
(``ServerOverloaded``, ``ServerDraining``, ``QueryTimeout``,
``BadRequest``, ...), so clients classify outcomes without parsing
prose.  A frame whose body is not a UTF-8 JSON object is answered with
``BadRequest`` and the connection closed; broken framing (a length
beyond :data:`MAX_FRAME`, EOF mid-frame) closes it without a reply.
"""

from __future__ import annotations

import json
import socket
import struct

from ..errors import BadRequest, ServerError

#: frame header: 4-byte big-endian unsigned payload length.
_HEADER = struct.Struct(">I")

#: refuse frames beyond this size (a corrupt header must not allocate
#: gigabytes).
MAX_FRAME = 16 * 1024 * 1024


def encode_frame(message: dict) -> bytes:
    """One message as a complete wire frame (header + JSON body)."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ServerError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


def _decode_body(body: bytes) -> dict:
    """A frame body as a message; anything but a UTF-8 JSON object is
    a typed :class:`~repro.errors.BadRequest`."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:     # incl. UnicodeError
        raise BadRequest(
            f"protocol violation: frame body is not UTF-8 JSON "
            f"({exc})") from None
    if not isinstance(message, dict):
        raise BadRequest(
            f"protocol violation: expected a JSON object, got "
            f"{type(message).__name__}")
    return message


def _frame_length(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ServerError(
            f"frame length {length} exceeds MAX_FRAME "
            f"({MAX_FRAME} bytes)")
    return length


# -- synchronous (client-side) helpers --------------------------------------

def send_message(sock: socket.socket, message: dict) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ServerError(
                "connection closed mid-frame "
                f"({count - remaining} of {count} bytes)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one frame from a blocking socket; None on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    body = _recv_exact(sock, _frame_length(header))
    if body is None:
        raise ServerError("connection closed after frame header")
    return _decode_body(body)


# -- asyncio (server-side) helpers -------------------------------------------

async def read_message(reader) -> dict | None:
    """Read one frame from an asyncio StreamReader; None on clean EOF."""
    import asyncio
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServerError("connection closed mid-header") from None
    try:
        body = await reader.readexactly(_frame_length(header))
    except asyncio.IncompleteReadError:
        raise ServerError("connection closed mid-frame") from None
    return _decode_body(body)


def write_message(writer, message: dict) -> None:
    """Queue one frame on an asyncio StreamWriter (caller drains)."""
    writer.write(encode_frame(message))


# -- response shaping ---------------------------------------------------------

def error_response(error: Exception | str, message: str = "") -> dict:
    """The typed error response for an exception (or a type name)."""
    if isinstance(error, Exception):
        return {"ok": False, "error": type(error).__name__,
                "message": str(error)}
    return {"ok": False, "error": error, "message": message}
