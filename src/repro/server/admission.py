"""Admission control: a bounded queue with weighted fair scheduling.

The server's serving discipline in one transport-free object, so the
policies are unit-testable without sockets or an event loop:

* **Bounded queue.**  At most ``capacity`` requests wait; request
  ``capacity + 1`` is shed immediately with
  :class:`~repro.errors.ServerOverloaded` instead of queueing
  unboundedly (queueing past saturation only converts throughput
  overload into latency overload).

* **Deadline-aware admission.**  A request carrying a
  :class:`~repro.faults.deadline.Deadline` is compared against the
  predicted in-queue wait (queue depth plus in-flight work, times an
  EWMA of observed service time, divided by executor slots).  A
  request whose budget the wait would already exhaust is rejected at
  admission — the client learns in microseconds instead of after a
  doomed multi-second queue ride.  Requests whose deadline has expired
  by the time they are dequeued are failed fast on
  :meth:`AdmissionController.drain_expired` rather than executed.

* **Weighted fair scheduling.**  Requests queue per ``tenant`` and are
  dequeued by stride scheduling: each tenant has a virtual time that
  advances by ``1 / weight`` per dequeued request, and the tenant with
  the smallest virtual time goes next.  A tenant with weight 2 gets
  twice the service of a weight-1 tenant under contention while an
  idle tenant loses nothing (its virtual time is brought up to the
  global watermark when it returns, so it cannot hoard credit).

Locking rule: the controller holds no lock of its own, so every call
— and every read or write of ``in_flight`` — must happen under one
lock its owner supplies.  The server uses a single
``threading.Condition``: the event loop calls :meth:`submit` (and
notifies) under it; each executor thread calls :meth:`next_ready` and
:meth:`drain_expired`, bumps ``in_flight``, and later decrements it
and calls :meth:`note_service_time`, all under it; ``stats`` takes
:meth:`snapshot` under it.  No engine work runs while it is held.
Tests drive the controller directly from one thread.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from ..errors import ServerError, ServerOverloaded
from ..faults.deadline import Deadline


@dataclass
class Request:
    """One queued unit of work; ``payload`` is opaque to the policy."""

    tenant: str
    payload: object = None
    deadline: Deadline | None = None
    enqueued_at: float = 0.0

    def queued_seconds(self, now: float) -> float:
        return max(0.0, now - self.enqueued_at)


@dataclass
class _TenantLane:
    """One tenant's FIFO plus its stride-scheduling state."""

    weight: float = 1.0
    vtime: float = 0.0
    queue: deque = field(default_factory=deque)


class AdmissionController:
    """Bounded, deadline-aware, weighted-fair request queue."""

    def __init__(self, capacity: int = 64,
                 weights: dict[str, float] | None = None,
                 default_weight: float = 1.0, executors: int = 1,
                 ewma_alpha: float = 0.25,
                 clock=time.monotonic) -> None:
        if capacity < 1:
            raise ServerError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.executors = max(1, executors)
        self.default_weight = default_weight
        self._weights = dict(weights or {})
        self._lanes: dict[str, _TenantLane] = {}
        self._global_vtime = 0.0
        self._size = 0
        self._clock = clock
        self._ewma_alpha = ewma_alpha
        #: EWMA of observed service seconds (None until the first
        #: completion, during which deadline prediction stays humble).
        self.ewma_service: float | None = None
        #: requests the server reported as currently executing.
        self.in_flight = 0
        self._expired: list[Request] = []
        self.counters: dict[str, int] = {
            "admitted": 0,
            "rejected_capacity": 0,
            "rejected_deadline": 0,
            "expired_in_queue": 0,
        }

    # -- sizing ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Requests currently queued (excluding in-flight)."""
        return self._size

    def weight_of(self, tenant: str) -> float:
        weight = self._weights.get(tenant, self.default_weight)
        return weight if weight > 0 else self.default_weight

    # -- service-time model ---------------------------------------------------

    def note_service_time(self, seconds: float) -> None:
        """Fold one observed execution into the EWMA."""
        if self.ewma_service is None:
            self.ewma_service = seconds
        else:
            alpha = self._ewma_alpha
            self.ewma_service = (alpha * seconds
                                 + (1.0 - alpha) * self.ewma_service)

    def predicted_wait(self) -> float:
        """Estimated queue wait for a request admitted now."""
        if self.ewma_service is None:
            return 0.0
        backlog = self._size + self.in_flight
        return backlog * self.ewma_service / self.executors

    # -- admission ------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Admit ``request`` or raise
        :class:`~repro.errors.ServerOverloaded` (queue full, or its
        deadline cannot survive the predicted wait)."""
        if self._size >= self.capacity:
            self.counters["rejected_capacity"] += 1
            raise ServerOverloaded(
                f"request queue full ({self.capacity} waiting)")
        if request.deadline is not None:
            remaining = request.deadline.remaining()
            wait = self.predicted_wait()
            if remaining <= wait:
                self.counters["rejected_deadline"] += 1
                raise ServerOverloaded(
                    f"deadline would expire in queue (predicted wait "
                    f"{wait:.3f}s >= remaining {remaining:.3f}s)")
        lane = self._lanes.get(request.tenant)
        if lane is None:
            lane = self._lanes[request.tenant] = _TenantLane(
                weight=self.weight_of(request.tenant))
        if not lane.queue:
            # Returning from idle: no banked credit past the watermark.
            lane.vtime = max(lane.vtime, self._global_vtime)
        if request.enqueued_at == 0.0:
            request.enqueued_at = self._clock()
        lane.queue.append(request)
        self._size += 1
        self.counters["admitted"] += 1

    # -- dispatch -------------------------------------------------------------

    def next_ready(self) -> Request | None:
        """Dequeue the weighted-fair next request whose deadline still
        holds; expired ones accumulate for :meth:`drain_expired`."""
        while True:
            lane = self._min_lane()
            if lane is None:
                return None
            request = lane.queue.popleft()
            self._size -= 1
            lane.vtime += 1.0 / lane.weight
            self._global_vtime = max(self._global_vtime, lane.vtime)
            if (request.deadline is not None
                    and request.deadline.expired()):
                self.counters["expired_in_queue"] += 1
                self._expired.append(request)
                continue
            return request

    def _min_lane(self) -> _TenantLane | None:
        best: _TenantLane | None = None
        best_key: tuple[float, str] | None = None
        for tenant, lane in self._lanes.items():
            if not lane.queue:
                continue
            key = (lane.vtime, tenant)
            if best_key is None or key < best_key:
                best, best_key = lane, key
        return best

    def drain_expired(self) -> list[Request]:
        """Requests whose deadline expired while queued, for the caller
        to fail fast (cleared on read)."""
        expired, self._expired = self._expired, []
        return expired

    def snapshot(self) -> dict:
        """Counters plus live state, for ``stats`` responses."""
        return {
            **self.counters,
            "capacity": self.capacity,
            "executors": self.executors,
            "queued": self._size,
            "in_flight": self.in_flight,
            "predicted_wait_ms": self.predicted_wait() * 1000.0,
            "ewma_service_ms": (self.ewma_service * 1000.0
                                if self.ewma_service is not None
                                else None),
            "tenants": {tenant: len(lane.queue)
                        for tenant, lane in self._lanes.items()
                        if lane.queue},
        }
