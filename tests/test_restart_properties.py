"""Restart round trip: a server booted on a journal serves what it folds.

Hypothesis draws journals of terminal records and result-store entries.  A
:class:`~repro.remote.RemoteApp` booted on each one must list exactly the
records that ``job_ttl_s`` and ``max_records`` keep, in journal order and
marked ``replayed``; count them in ``/metrics``; mint a fresh job's id above
every replayed one; and, after compaction and a second boot, list the same
records again (plus the fresh job, under the same cap).  Only terminal
entries are drawn, so no search runs.
"""

import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    CacheConfig,
    JobStatus,
    OptimizationConfig,
    RemoteConfig,
    ServeConfig,
    StrategyOutcome,
    register_strategy,
)
from repro.api.report import JobRecord, RunReport
from repro.pool import SessionPool
from repro.remote import JobJournal, RemoteApp

_TTL_S = 3600.0
_MAX_RECORDS = 4
_SERVE = ServeConfig(job_ttl_s=_TTL_S, max_records=_MAX_RECORDS)
_TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED, JobStatus.REJECTED)


@register_strategy("restart-instant")
class _Instant:
    """Returns the seed schedule at once: a fresh job that searches nothing."""

    name = "restart-instant"

    def run(self, context):
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=1.0,
            best_time_ms=1.0,
            best_kernel=context.compiled.kernel,
            evaluations=1,
        )


@pytest.fixture(scope="module")
def pool():
    config = OptimizationConfig(
        strategy="restart-instant", scale="test", autotune=False, verify=False
    )
    with SessionPool(["A100-sim"], config=config, cache=CacheConfig(enabled=False)) as pool:
        yield pool


def _report(kernel: str) -> RunReport:
    return RunReport(
        kernel=kernel, gpu="A100-80GB-PCIe", strategy="greedy", shapes={"n": 8},
        config={}, baseline_time_ms=2.0, best_time_ms=1.0, evaluations=3,
        verified=True, cache_key=f"key-{kernel}",
    )


@st.composite
def _journals(draw):
    """``(records, store)``: more terminal records than the cap, with
    distinct ids in any order and ``finished_at`` offsets (seconds before
    boot) on both sides of the TTL, far enough from it not to cross it
    between two boots; and a few store entries."""
    numbers = draw(
        st.lists(st.integers(1, 999), min_size=_MAX_RECORDS + 1, max_size=10, unique=True)
    )
    records = [
        (
            f"j{number:05d}",
            draw(st.sampled_from(_TERMINAL)),
            draw(
                st.one_of(
                    st.floats(0.0, _TTL_S - 600.0),
                    st.floats(_TTL_S + 600.0, 10 * _TTL_S),
                )
            ),
        )
        for number in numbers
    ]
    store = draw(st.lists(st.sampled_from(["k1", "k2", "k3"]), unique=True, max_size=3))
    return records, store


def _listing(app) -> list[tuple]:
    return [
        (record.job_id, record.status, record.finished_at, record.replayed)
        for record in app.jobs()
    ]


def _kept(listing: list[tuple], now: float) -> list[tuple]:
    """What the record bounds keep: the unexpired records, newest ``cap``."""
    alive = [entry for entry in listing if now - entry[2] < _TTL_S]
    return alive[-_MAX_RECORDS:]


@settings(max_examples=25, deadline=None)
@given(journal=_journals())
def test_restart_serves_the_records_the_bounds_keep(pool, journal):
    records, store = journal
    now = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        writer = JobJournal(path)
        for job_id, status, age_s in records:
            record = JobRecord(
                job_id=job_id, kernel="softmax", backend=None, status=status,
                worker="A100-sim#0", cost=1.0, submitted_at=now - age_s - 1.0,
                finished_at=now - age_s,
            )
            report = _report("softmax") if status is JobStatus.DONE else None
            writer.record_terminal(record, report)
        for key in store:
            writer.record_store(key, _report(key))
        writer.close()
        folded = [(job_id, status, now - age_s, True) for job_id, status, age_s in records]
        remote = RemoteConfig(journal_path=path)

        with RemoteApp(pool, serve=_SERVE, remote=remote) as app:
            assert _listing(app) == _kept(folded, now)
            assert app.metrics()["queue"]["records"] == len(app.jobs())
            assert sorted(key for key, _ in app.queue.store.items()) == sorted(store)
            # One ``minted`` line keeps the highest id when the bounds dropped it.
            highest = max(int(job_id[1:]) for job_id, _, _ in records)
            kept = max((int(record.job_id[1:]) for record in app.jobs()), default=0)
            minted = 1 if highest > kept else 0
            assert app.compact() == len(app.jobs()) + len(store) + minted

            fresh = app.submit({"kernel": "softmax"})
            assert int(fresh.job_id[1:]) > highest
            app.result(fresh.job_id, timeout=60)
            before = [entry[:3] + (True,) for entry in _listing(app)]
            stored = sorted(key for key, _ in app.queue.store.items())

        with RemoteApp(pool, serve=_SERVE, remote=remote) as again:
            assert _listing(again) == _kept(before, time.time())
            assert sorted(key for key, _ in again.queue.store.items()) == stored
            assert again.metrics()["queue"]["records"] == len(again.jobs())
