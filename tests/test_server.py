"""Query-server tests: protocol framing, admission-control policy
(transport-free), and end-to-end serving over real sockets.

The policy contracts under test: a bounded queue sheds the burst
beyond its capacity with a typed ``ServerOverloaded``; a request whose
deadline cannot survive the predicted queue wait is rejected at
admission (microseconds, not after a doomed queue ride); a request
whose deadline expires *while* queued fails fast instead of executing;
stride scheduling splits service between tenants in proportion to
their weights; a draining server finishes every admitted query —
in flight or still queued — before exiting; ``executors`` threads
overlap requests while keeping exact accounting under contention; and
a malformed frame or field gets one typed reply, never a bare
traceback.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import pytest

from repro.errors import ServerError, ServerOverloaded
from repro.faults.deadline import Deadline
from repro.loadgen import ServingClient
from repro.server import (
    AdmissionController,
    QueryServer,
    Request,
    ServerConfig,
    encode_frame,
    error_response,
    recv_message,
    send_message,
)

# -- protocol framing ---------------------------------------------------------


def test_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        message = {"op": "query", "qid": "Q5", "params": {"id": "3"}}
        send_message(left, message)
        assert recv_message(right) == message
        left.close()
        assert recv_message(right) is None      # clean EOF
    finally:
        right.close()


def test_frame_rejects_oversized_length():
    left, right = socket.socketpair()
    try:
        left.sendall((16 * 1024 * 1024 + 1).to_bytes(4, "big"))
        with pytest.raises(ServerError):
            recv_message(right)
    finally:
        left.close()
        right.close()


def test_frame_mid_frame_eof_is_an_error():
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame({"op": "ping"})[:-2])
        left.close()
        with pytest.raises(ServerError):
            recv_message(right)
    finally:
        right.close()


def test_error_response_names_the_exception_type():
    reply = error_response(ServerOverloaded("queue full"))
    assert reply == {"ok": False, "error": "ServerOverloaded",
                     "message": "queue full"}


# -- admission policy (no sockets) --------------------------------------------


def test_bounded_queue_sheds_burst_beyond_capacity():
    admission = AdmissionController(capacity=2)
    admission.submit(Request(tenant="t"))
    admission.submit(Request(tenant="t"))
    with pytest.raises(ServerOverloaded):
        admission.submit(Request(tenant="t"))
    assert admission.counters["admitted"] == 2
    assert admission.counters["rejected_capacity"] == 1
    assert admission.size == 2


def test_doomed_deadline_rejected_at_admission():
    admission = AdmissionController(capacity=16, executors=1)
    admission.note_service_time(1.0)
    admission.submit(Request(tenant="t"))
    admission.submit(Request(tenant="t"))
    # Predicted wait: 2 queued x 1.0s EWMA / 1 executor = 2s.
    with pytest.raises(ServerOverloaded):
        admission.submit(Request(tenant="t",
                                 deadline=Deadline(0.5)))
    assert admission.counters["rejected_deadline"] == 1
    # A generous deadline still gets in.
    admission.submit(Request(tenant="t", deadline=Deadline(60.0)))
    assert admission.counters["admitted"] == 3


def test_in_flight_work_counts_toward_predicted_wait():
    admission = AdmissionController(capacity=16, executors=1)
    admission.note_service_time(1.0)
    admission.in_flight = 3
    assert admission.predicted_wait() == pytest.approx(3.0)
    with pytest.raises(ServerOverloaded):
        admission.submit(Request(tenant="t", deadline=Deadline(1.0)))


def test_deadline_expired_in_queue_fails_fast():
    admission = AdmissionController(capacity=16)
    doomed = Request(tenant="t", deadline=Deadline(0.001))
    admission.submit(doomed)
    admission.submit(Request(tenant="t"))
    time.sleep(0.01)
    ready = admission.next_ready()
    assert ready is not None and ready.deadline is None
    assert admission.drain_expired() == [doomed]
    assert admission.counters["expired_in_queue"] == 1
    assert admission.drain_expired() == []      # cleared on read


def test_weighted_fair_split_is_proportional():
    admission = AdmissionController(
        capacity=64, weights={"gold": 2.0, "bronze": 1.0})
    for __ in range(20):
        admission.submit(Request(tenant="gold"))
        admission.submit(Request(tenant="bronze"))
    served = [admission.next_ready().tenant for __ in range(15)]
    assert served.count("gold") == 10
    assert served.count("bronze") == 5


def test_idle_tenant_cannot_bank_credit():
    admission = AdmissionController(
        capacity=64, weights={"gold": 1.0, "late": 1.0})
    for __ in range(10):
        admission.submit(Request(tenant="gold"))
    for __ in range(6):
        admission.next_ready()
    # "late" arrives after gold already consumed 6 slots; equal
    # weights must now alternate rather than let late catch up 6-0.
    for __ in range(6):
        admission.submit(Request(tenant="late"))
    served = [admission.next_ready().tenant for __ in range(4)]
    assert served.count("late") == 2


# -- end-to-end over sockets --------------------------------------------------

UNITS = 4


def start_server(**overrides) -> QueryServer:
    config = ServerConfig(class_key="dcmd", units=UNITS, **overrides)
    return QueryServer(config).start_background()


@pytest.fixture(scope="module")
def server():
    instance = start_server(executors=2)
    yield instance
    instance.stop_background()


def test_roundtrip_and_warm_engine_reuse(server):
    with ServingClient(port=server.port) as client:
        hello = client.hello()
        assert hello["ok"] and hello["warm"]    # preloaded at startup
        reply = client.query("Q5")
        assert reply["ok"] and reply["qid"] == "Q5"
        assert reply["rows"] >= 1
        assert reply["seconds"] >= 0.0
        assert reply["tenant"] == "default"
    with ServingClient(port=server.port) as client:
        assert client.hello()["warm"]           # cache survived
        stats = client.stats()
        assert stats["completed"] >= 1
        assert stats["unhandled"] == 0


def test_query_before_hello_is_a_bad_request(server):
    with ServingClient(port=server.port) as client:
        reply = client.query("Q5")
        assert not reply["ok"]
        assert reply["error"] == "BadRequest"


def test_unknown_query_is_typed_unsupported(server):
    with ServingClient(port=server.port) as client:
        client.hello()
        reply = client.query("Q99")
        assert not reply["ok"]
        assert reply["error"] == "UnsupportedQuery"


def _raw_frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


@pytest.mark.parametrize("hello, frame, error", [
    (True, encode_frame({"op": "query", "qid": "Q5", "deadline": "abc"}),
     "BadRequest"),
    (True, encode_frame({"op": "query", "qid": "Q5", "params": "x"}),
     "BadRequest"),
    (True, encode_frame({"op": "query", "qid": "Q5", "tenant": ["t"]}),
     "BadRequest"),
    (True, encode_frame({"op": "update", "id": "1", "deadline": "soon"}),
     "BadRequest"),
    (True, encode_frame({"op": "query", "qid": "Q5", "consistency": {
        "tier": "bounded_staleness", "max_lag": "x"}}),
     "ConsistencyError"),
    (False, encode_frame({"op": "hello", "units": "abc"}), "BadRequest"),
    (False, encode_frame({"op": "hello", "class": ["dcmd"]}), "BadRequest"),
    (False, _raw_frame(b"\xff\xfe{}"), "BadRequest"),
    (False, _raw_frame(b"{not json"), "BadRequest"),
    (False, _raw_frame(b"[1, 2]"), "BadRequest"),
], ids=["query-deadline", "query-params", "query-tenant",
        "update-deadline", "consistency-max-lag", "hello-units",
        "hello-class", "body-not-utf8", "body-not-json",
        "body-not-object"])
def test_malformed_request_gets_one_typed_reply(server, hello, frame,
                                                error):
    unhandled = server.counters["unhandled"]
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10.0) as sock:
        if hello:
            send_message(sock, {"op": "hello"})
            assert recv_message(sock)["ok"]
        sock.sendall(frame)
        reply = recv_message(sock)
    assert reply["ok"] is False
    assert reply["error"] == error
    assert reply["message"]
    assert server.counters["unhandled"] == unhandled == 0


def _concurrent_queries(server: QueryServer, count: int,
                        **query) -> tuple[list[dict], float]:
    """``count`` sessions send one Q5 each at the same instant; returns
    the replies and the wall time until the last one arrived."""
    replies: list[dict] = []
    lock = threading.Lock()
    barrier = threading.Barrier(count + 1)

    def one() -> None:
        with ServingClient(port=server.port) as client:
            client.hello()
            barrier.wait()
            reply = client.query("Q5", **query)
        with lock:
            replies.append(reply)

    workers = [threading.Thread(target=one) for __ in range(count)]
    for worker in workers:
        worker.start()
    barrier.wait(timeout=30.0)
    start = time.monotonic()
    for worker in workers:
        worker.join(timeout=30.0)
        assert not worker.is_alive()
    return replies, time.monotonic() - start


def test_executor_accounting_survives_contention():
    """More executor threads and clients than cores, with the switch
    interval shortened: a lost update of the shared admission or
    outcome state would leave ``in_flight`` or a counter off."""
    clients, each = 8, 25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    server = start_server(executors=4)
    try:
        def hammer(index: int) -> None:
            with ServingClient(port=server.port) as client:
                client.hello(tenant=f"t{index % 3}")
                for __ in range(each):
                    assert client.query("Q5")["ok"]

        workers = [threading.Thread(target=hammer, args=(index,))
                   for index in range(clients)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
            assert not worker.is_alive()
        total = clients * each
        assert server.counters["completed"] == total
        assert sum(server.per_tenant.values()) == total
        with server._cond:
            assert server.admission.in_flight == 0
            assert server.admission.size == 0
            assert server.admission.counters["admitted"] == total
        assert server.counters["unhandled"] == 0
    finally:
        sys.setswitchinterval(interval)
        server.stop_background()


@pytest.mark.parametrize("executors", [1, 2])
def test_executor_threads_overlap_requests(executors):
    server = start_server(executors=executors, throttle_seconds=0.2)
    try:
        replies, wall = _concurrent_queries(server, 2)
        assert [reply["ok"] for reply in replies] == [True, True]
        if executors == 2:
            assert wall < 0.3               # both ran at once
        else:
            assert wall >= 0.4              # one after the other
            assert max(reply["queued_ms"] for reply in replies) >= 150
    finally:
        server.stop_background()


def test_drain_answers_requests_still_queued():
    server = start_server(executors=1, throttle_seconds=0.2)
    try:
        result: list = []
        driver = threading.Thread(
            target=lambda: result.append(_concurrent_queries(server, 3)))
        driver.start()
        stop = time.monotonic() + 5.0
        while server.admission.size < 2 and time.monotonic() < stop:
            time.sleep(0.005)
        assert server.admission.size == 2   # one in flight, two queued
        server.stop_background()
        driver.join(timeout=10.0)
        replies, __ = result[0]
        assert len(replies) == 3
        assert all(reply["ok"] for reply in replies), replies
        assert server.counters["completed"] == 3
        assert server.counters["unhandled"] == 0
    finally:
        server.stop_background()


def test_deadline_expiring_in_queue_is_a_typed_timeout():
    server = start_server(executors=1, throttle_seconds=0.3)
    try:
        # No completion yet, so the EWMA cannot predict the wait and
        # admission lets the doomed request in; it expires queued.
        occupied = threading.Thread(target=_one_slow_query,
                                    args=(server,))
        occupied.start()
        stop = time.monotonic() + 5.0
        while server.admission.in_flight < 1 \
                and time.monotonic() < stop:
            time.sleep(0.005)
        with ServingClient(port=server.port) as client:
            client.hello()
            reply = client.query("Q5", deadline=0.1)
        occupied.join()
        assert not reply["ok"]
        assert reply["error"] == "QueryTimeout"
        assert "while queued" in reply["message"]
        assert server.counters["timeouts"] == 1
        assert server.admission.counters["expired_in_queue"] == 1
        assert server.counters["completed"] == 1
        assert server.counters["unhandled"] == 0
    finally:
        server.stop_background()


def test_burst_beyond_queue_is_shed_with_typed_rejection():
    server = start_server(executors=1, max_queue=2,
                          throttle_seconds=0.2)
    try:
        replies: list[dict] = []
        lock = threading.Lock()

        def one_query() -> None:
            with ServingClient(port=server.port) as client:
                client.hello()
                reply = client.query("Q5")
            with lock:
                replies.append(reply)

        workers = [threading.Thread(target=one_query)
                   for __ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        ok = [reply for reply in replies if reply["ok"]]
        shed = [reply for reply in replies
                if reply.get("error") == "ServerOverloaded"]
        assert len(ok) + len(shed) == 8         # every burst answered
        assert ok and shed                      # some of each
        assert server.counters["rejected"] == len(shed)
        assert server.counters["unhandled"] == 0
    finally:
        server.stop_background()


def test_doomed_deadline_rejected_without_queueing():
    server = start_server(executors=1, throttle_seconds=0.3)
    try:
        server.admission.note_service_time(0.3)
        with ServingClient(port=server.port) as client:
            client.hello()
            # Occupy the single executor with a throttled query.
            occupied = threading.Thread(target=_one_slow_query,
                                        args=(server,))
            occupied.start()
            time.sleep(0.05)
            start = time.monotonic()
            reply = client.query("Q5", deadline=0.05)
            elapsed = time.monotonic() - start
            occupied.join()
        assert not reply["ok"]
        assert reply["error"] == "ServerOverloaded"
        assert elapsed < 0.15                   # no doomed queue ride
        assert "deadline" in reply["message"]
    finally:
        server.stop_background()


def _one_slow_query(server: QueryServer) -> None:
    with ServingClient(port=server.port) as client:
        client.hello()
        client.query("Q5")


def test_weighted_fair_tenants_split_under_contention():
    server = start_server(executors=1, throttle_seconds=0.02,
                          tenant_weights={"gold": 4.0, "bronze": 1.0})
    try:
        stop = time.monotonic() + 1.2

        def hammer(tenant: str) -> None:
            with ServingClient(port=server.port) as client:
                client.hello(tenant=tenant)
                while time.monotonic() < stop:
                    client.query("Q5")

        workers = [threading.Thread(target=hammer, args=(tenant,))
                   for tenant in ("gold", "bronze") for __ in range(3)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        gold = server.per_tenant.get("gold", 0)
        bronze = server.per_tenant.get("bronze", 0)
        assert gold and bronze                  # nobody starved
        assert gold > bronze * 1.5              # 4:1 weights bite
        assert server.counters["unhandled"] == 0
    finally:
        server.stop_background()


def test_graceful_drain_completes_in_flight_queries():
    server = start_server(executors=1, throttle_seconds=0.3)
    try:
        replies: list[dict] = []

        def slow_query() -> None:
            with ServingClient(port=server.port) as client:
                client.hello()
                replies.append(client.query("Q5"))

        worker = threading.Thread(target=slow_query)
        worker.start()
        time.sleep(0.1)                         # query now in flight
        server.stop_background()
        worker.join(timeout=10.0)
        assert replies and replies[0]["ok"]     # finished, not dropped
        assert server.counters["completed"] >= 1
        # The drained server no longer accepts connections.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", server.port),
                                     timeout=1.0).close()
    finally:
        server.stop_background()
