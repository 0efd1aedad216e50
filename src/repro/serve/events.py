"""Progress-event stream of the serving front door.

Every state change of a :class:`~repro.serve.queue.JobQueue` job —
``queued → assigned → running → measured(n) → done/failed/cancelled`` — is
published as one immutable :class:`ProgressEvent` through an
:class:`EventBus`.  A job stays ``queued`` until a worker takes it, which is
when ``assigned`` fires.  Subscriptions are live queues: subscribe to one
job (its history so far is replayed, and the subscription completes itself
after the job's terminal event) or pool-wide (every job's events until the
bus closes).

Events carry a bus-global, strictly increasing ``seq`` so the interleaving
the subscriber observed is the interleaving that happened.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Iterator

from repro.utils.serialization import fields_to_json

#: Event kinds that end a job's stream (mirror :class:`repro.api.JobStatus`).
TERMINAL_KINDS = frozenset({"done", "failed", "cancelled", "rejected"})


@dataclass(frozen=True)
class ProgressEvent:
    """One observable state change of a serving job."""

    #: Bus-global, strictly increasing sequence number.
    seq: int
    #: Job the event belongs to.
    job_id: str
    #: ``queued`` / ``assigned`` / ``running`` / ``measured`` /
    #: ``retrying`` / ``done`` / ``failed`` / ``cancelled``.
    kind: str
    #: Wall-clock timestamp (``time.time``).
    timestamp: float
    #: Worker that took the job (assigned/running/terminal events), if any.
    worker: str | None = None
    #: Cumulative candidate measurements at emission (``measured`` events).
    measured: int = 0
    #: Free-form annotation (``"store-hit"``, an error message, ...).
    detail: str = ""
    #: Verifier rule codes behind this event (``invalidated`` events carry
    #: the diagnostics that killed a store hit; terminal events repeat them).
    rules: tuple = ()
    #: Retries consumed so far (``retrying`` events carry the new attempt
    #: count; 0 on first-attempt events).
    attempt: int = 0
    #: The terminal event of a job restored from the journal after a
    #: restart (its live stream died with the previous server process).
    replayed: bool = False

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_KINDS

    def as_dict(self) -> dict:
        """JSON-able projection (streamed over HTTP by :mod:`repro.remote`)."""
        return fields_to_json(self)


class EventSubscription:
    """A live, thread-safe feed of :class:`ProgressEvent`\\ s.

    Iteration yields events until the stream completes (the subscribed job
    reached a terminal event, the bus closed, or :meth:`close` was called).
    """

    _DONE = object()

    def __init__(self, bus: "EventBus", job_id: str | None):
        self._bus = bus
        self.job_id = job_id
        self._queue: "queue.Queue" = queue.Queue()
        self._finished = False

    # -- producer side (bus-internal) -----------------------------------
    def _offer(self, event: ProgressEvent) -> None:
        if self._finished:
            return
        if self.job_id is not None and event.job_id != self.job_id:
            return
        self._queue.put(event)
        if self.job_id is not None and event.terminal:
            self._finish()

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._queue.put(self._DONE)

    # -- consumer side --------------------------------------------------
    def get(self, timeout: float | None = None) -> ProgressEvent | None:
        """The next event, or ``None`` once the stream has completed.

        Raises :class:`TimeoutError` when ``timeout`` elapses first.
        """
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"no progress event within {timeout}s"
            ) from None
        if item is self._DONE:
            self._queue.put(self._DONE)  # keep later gets non-blocking
            return None
        return item

    def __iter__(self) -> Iterator[ProgressEvent]:
        while True:
            event = self.get()
            if event is None:
                return
            yield event

    def close(self) -> None:
        """Stop receiving; pending events already queued remain readable."""
        self._bus._unsubscribe(self)
        self._finish()


class EventBus:
    """Thread-safe publisher fanning job events out to subscriptions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._seq = 0
        self._subscriptions: list[EventSubscription] = []
        self._closed = False

    def publish(self, history: list, **fields) -> ProgressEvent:
        """Stamp, record and fan out one event.

        ``history`` is the owning job's event list; appending under the bus
        lock keeps per-job history ordered exactly like global ``seq``.
        """
        with self._lock:
            self._seq += 1
            event = ProgressEvent(seq=self._seq, timestamp=time.time(), **fields)
            history.append(event)
            if not self._closed:
                for subscription in self._subscriptions:
                    subscription._offer(event)
                if event.terminal:
                    # The job's own subscriptions completed at this event.
                    self._subscriptions = [
                        subscription for subscription in self._subscriptions
                        if not subscription._finished
                    ]
        return event

    def subscribe(
        self, job_id: str | None = None, history: list | None = None
    ) -> EventSubscription:
        """A new live subscription; ``history`` (the job's events so far) is
        replayed first so late subscribers still see the whole stream.  A
        per-job subscription is registered only while its job runs: one
        whose history already ended is complete at once, and a live one is
        dropped at its job's terminal event."""
        subscription = EventSubscription(self, job_id)
        with self._lock:
            for event in history or ():
                subscription._offer(event)
            if self._closed:
                subscription._finish()
            elif not subscription._finished:
                self._subscriptions.append(subscription)
        return subscription

    def _unsubscribe(self, subscription: EventSubscription) -> None:
        with self._lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)

    def close(self) -> None:
        """Complete every open subscription; later publishes only record."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscriptions, self._subscriptions = self._subscriptions, []
        for subscription in subscriptions:
            subscription._finish()
