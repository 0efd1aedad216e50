"""How fast the host runs the server, sampled through a run.

The benchmark shares its host with other tenants, and they slow its CPUs by
up to half for seconds at a time.  On the reference host, a 2-vCPU Xeon VM, a
fixed pure-Python loop's medians over 3-second windows ranged from 4.5 to
8.4 ms within one minute, while its fastest run stayed at 4.3 ms.  Ten
greedy-search runs doing identical work spread 25-49% of their median
latency.  The two vCPUs are not slowed together: a probe on the client's CPU
left greedy-search's spread at 23-27%.

So a :class:`HostProbe` measures the host's speed where and when the server
runs.  A thread of the client wakes every ``PERIOD_S``, pauses the server
(``SIGSTOP``, then waits until all its threads have stopped), times a fixed
pure-Python loop on the server's CPUs, and resumes the server (``SIGCONT``).
The loop runs none of the program under test, so a change to the program
cannot move it, and the paused server cannot compete with it.  A span of the
server's work then counts its wall time minus the pauses inside it, scaled
by ``REFERENCE_S`` over the mean loop time near it: it reads as if measured
on a host that runs the loop in ``REFERENCE_S``.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time

#: Seconds between two samples.  A sample pauses the server for about 3 ms.
PERIOD_S = 0.08
#: Samples that start this close to a span (before or after it) are near it.
NEAR_S = 0.2
#: The loop's typical duration on the reference host, in seconds.
REFERENCE_S = 0.002


def _loop() -> float:
    """Seconds one fixed pure-Python loop takes."""
    counts: dict[int, int] = {}
    started = time.perf_counter()
    for i in range(12000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - started


class HostProbe:
    """Samples the loop on ``probe_cpus`` while the ``target`` process is paused.

    ``target`` is the pid of the server to pause (a child of this process),
    or None when no server runs.  Use as a context manager: the sampling
    thread runs inside the ``with`` block.
    """

    def __init__(self, probe_cpus: set[int], home_cpus: set[int]):
        self.target: int | None = None
        self._probe_cpus, self._home_cpus = probe_cpus, home_cpus
        #: ``(paused_from, paused_until, loop_s)`` per sample, monotonic.
        self._samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe", daemon=True)

    def __enter__(self) -> HostProbe:
        self._samples.append(self._sample(None))
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._samples.append(self._sample(self.target))

    def _sample(self, pid: int | None) -> tuple[float, float, float]:
        started = time.monotonic()
        paused = False
        try:
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGSTOP)
                    paused = True
                    os.waitpid(pid, os.WUNTRACED)
                except (ProcessLookupError, ChildProcessError):
                    pass  # the server has just exited
            os.sched_setaffinity(0, self._probe_cpus)
            try:
                took = _loop()
            finally:
                os.sched_setaffinity(0, self._home_cpus)
        finally:
            if paused:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
        return started, time.monotonic(), took

    def paused(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` the server spent paused by the probe."""
        return sum(
            max(0.0, min(end, until) - max(start, since))
            for since, until, _ in self._samples[:]
        )

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference host the loop ran near the span."""
        samples = self._samples[:]
        near = [took for since, _, took in samples if start - NEAR_S <= since <= end + NEAR_S]
        return statistics.fmean(near or [took for _, _, took in samples]) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds the span ``[start, end]`` would take on the reference host."""
        return (end - start - self.paused(start, end)) / self.slowdown(start, end)
