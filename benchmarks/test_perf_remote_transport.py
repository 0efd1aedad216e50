"""Perf gate: connections the HTTP front door opens per client thread.

A cheap request (a result read, a status poll, a store-hit submit) costs the
app well under a tenth of a millisecond; the rest of its client-side time is
transport.  ``RemoteClient`` keeps one HTTP/1.1 connection per calling
thread and the server keeps it alive, so after the first request a thread
pays no connection setup and the server spawns no thread.  The gate counts
the connections the server accepts: a mix of requests from one client
thread must open exactly one, and two threads two.  A transport that opens
a connection per request (HTTP/1.0 and ``urllib``, before keep-alive) opens
one per request and fails it.  ``benchmarks/run_timing_bench.py`` reports
the client-side medians (``remote`` in ``BENCH_timing.json``); its smoke
test here bounds the read at 20 ms, which a server without ``TCP_NODELAY``
fails (its body write waits for the client's delayed ACK: 44 ms per read on
a 2-vCPU host, against ~1 ms with it).
"""

import threading

import pytest

from repro.api import CacheConfig, RemoteConfig
from repro.pool import SessionPool
from repro.remote import RemoteApp, RemoteClient, RemoteServer
from repro.remote import server as server_module

from run_timing_bench import REMOTE_CONFIG, REMOTE_KERNEL, bench_remote

#: Requests per client thread in the gate.
REQUESTS = 12


@pytest.fixture()
def served(monkeypatch):
    """A finished job on an in-process server, and the server's accept count."""
    accepted = []
    setup = server_module._Handler.setup

    def counting_setup(handler):
        accepted.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(server_module._Handler, "setup", counting_setup)
    with SessionPool(["A100-sim"], config=REMOTE_CONFIG, cache=CacheConfig(enabled=False)) as pool:
        with RemoteApp(pool, remote=RemoteConfig(journal=False)) as app:
            with RemoteServer(app) as server, RemoteClient(server.url) as client:
                job = client.submit(REMOTE_KERNEL)
                job.result(timeout=300)
                accepted.clear()
                yield server.url, job.job_id, accepted
                app.queue.join(timeout=300)


def _requests(client: RemoteClient, job_id: str) -> None:
    """``REQUESTS`` cheap requests: reads, polls and store-hit submits."""
    for index in range(REQUESTS):
        kind = index % 3
        if kind == 0:
            client.result(job_id, timeout=0.0)
        elif kind == 1:
            assert client.status(job_id).job_id == job_id
        else:
            client.submit(REMOTE_KERNEL)


def test_one_client_thread_opens_one_connection(served):
    url, job_id, accepted = served
    with RemoteClient(url) as client:
        _requests(client, job_id)
    assert len(accepted) == 1, f"{REQUESTS} requests opened {len(accepted)} connections"


def test_two_client_threads_open_two_connections(served):
    url, job_id, accepted = served
    failures = []

    def work(client: RemoteClient) -> None:
        try:
            _requests(client, job_id)
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    with RemoteClient(url) as client:
        threads = [threading.Thread(target=work, args=(client,)) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads) and not failures
    assert len(accepted) == 2, f"2x{REQUESTS} requests opened {len(accepted)} connections"


def test_remote_bench_entry(benchmark):
    result = benchmark.pedantic(lambda: bench_remote(rounds=20), rounds=1, iterations=1)
    print(
        f"\nremote: result read {result['read_ms']:.3f} ms, "
        f"store-hit submit {result['store_hit_submit_ms']:.3f} ms"
    )
    assert 0.0 < result["read_ms"] < 20.0
    assert 0.0 < result["store_hit_submit_ms"] < 20.0
