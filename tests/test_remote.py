"""Tests for the remote serving layer: journal, quotas, GC, HTTP front door."""

import dataclasses
import json
import threading
import time

import pytest

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
from repro.errors import AdmissionError, JobCancelled, QuotaExceeded, RemoteError
from repro.faults import FaultPlan
from repro.pool import SessionPool
from repro.remote import (
    JobJournal,
    RemoteApp,
    RemoteClient,
    RemoteServer,
    TenantQuota,
)

_FAST = OptimizationConfig(
    strategy="greedy", scale="test", search_budget=12, episode_length=8,
    autotune=False, verify=False,
)
_NO_CACHE = CacheConfig(enabled=False)
_NO_JOURNAL = RemoteConfig(journal=False)

#: Cross-thread signals for the blocking test strategy.
_GATE = threading.Event()
_STARTED = threading.Event()


@pytest.fixture(autouse=True)
def _reset_strategy_signals():
    _GATE.clear()
    _STARTED.clear()
    yield
    _GATE.set()  # never leave a worker thread stuck on the gate


@register_strategy("remote-block")
class _BlockUntilGate:
    """Signals it started, then blocks until the test opens the gate."""

    name = "remote-block"

    def run(self, context):
        _STARTED.set()
        assert _GATE.wait(timeout=30), "test never opened the gate"
        return StrategyOutcome(
            strategy=self.name,
            baseline_time_ms=1.0,
            best_time_ms=1.0,
            best_kernel=context.compiled.kernel,
            evaluations=1,
        )


def _single_worker_pool():
    return SessionPool(["A100-sim"], config=_FAST, cache=_NO_CACHE)


def _done_report(kernel="softmax"):
    return RunReport(
        kernel=kernel, gpu="A100-80GB-PCIe", strategy="greedy",
        shapes={"n": 8}, config={"warps": 4},
        baseline_time_ms=2.0, best_time_ms=1.0, evaluations=7,
        verified=True, cache_key=f"key-{kernel}", cached=True,
    )


def _record(job_id, status=JobStatus.DONE, *, finished_at=None, kernel="softmax"):
    terminal = status in (
        JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED, JobStatus.REJECTED
    )
    return JobRecord(
        job_id=job_id, kernel=kernel, backend=None, status=status,
        worker=None, cost=1.0, submitted_at=100.0,
        finished_at=(finished_at if finished_at is not None else (200.0 if terminal else None)),
    )


# ---------------------------------------------------------------------------
# RunReport / JobRecord round-trips
# ---------------------------------------------------------------------------
def test_run_report_summary_roundtrip():
    report = _done_report()
    clone = RunReport.from_summary(report.summary())
    assert clone.kernel == report.kernel
    assert clone.best_time_ms == report.best_time_ms
    assert clone.evaluations == report.evaluations
    assert clone.verified is True
    assert clone.cache_key == report.cache_key
    assert clone.artifact is None  # artifacts never ride the journal
    # And the clone summarises identically (modulo the dropped details).
    assert clone.summary() == report.summary()


def test_job_record_dict_roundtrip():
    record = dataclasses.replace(
        _record("j00042"), tenant="alice", invalidation_rules=("V101",), worker="w0"
    )
    clone = JobRecord.from_dict(record.as_dict())
    assert clone == record
    assert clone.status is JobStatus.DONE
    assert clone.invalidation_rules == ("V101",)


# ---------------------------------------------------------------------------
# Journal: replay, corruption, compaction
# ---------------------------------------------------------------------------
def test_journal_replay_latest_wins(tmp_path):
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.record_submitted(_record("j00001", JobStatus.QUEUED))
    journal.record_submitted(_record("j00002", JobStatus.QUEUED))
    journal.record_terminal(_record("j00002"), _done_report())
    journal.record_store("some-key", _done_report("rmsnorm"))
    journal.close()

    replay = JobJournal(tmp_path / "j.jsonl").replay()
    assert replay.skipped == 0 and replay.lines == 4
    assert set(replay.records) == {"j00001", "j00002"}
    assert replay.records["j00001"].status is JobStatus.QUEUED
    assert replay.records["j00002"].status is JobStatus.DONE
    assert all(record.replayed for record in replay.records.values())
    assert replay.reports["j00002"].evaluations == 7
    assert replay.store["some-key"].kernel == "rmsnorm"
    assert replay.max_job_number == 2


def test_journal_skips_corrupt_trailing_line(tmp_path, caplog):
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    journal.record_terminal(_record("j00001"), _done_report())
    journal.close()
    with path.open("a", encoding="utf8") as fh:
        fh.write('{"kind": "terminal", "record": {"job_id": "j000')  # torn write

    with caplog.at_level("WARNING"):
        replay = JobJournal(path).replay()
    assert replay.skipped == 1
    assert list(replay.records) == ["j00001"]  # the good line survived
    assert any("skipping" in message for message in caplog.messages)


def test_journal_append_after_torn_tail_keeps_new_entry(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    journal.record_terminal(_record("j00001"), _done_report())
    journal.record_submitted(_record("j00002", JobStatus.QUEUED))
    journal.close()
    path.write_bytes(path.read_bytes()[:-20])  # a crash tore the last line

    restarted = JobJournal(path)
    assert restarted.replay().skipped == 1
    restarted.record_submitted(_record("j00003", JobStatus.QUEUED))
    restarted.close()

    replay = JobJournal(path).replay()
    assert replay.skipped == 1  # the torn fragment only
    assert set(replay.records) == {"j00001", "j00003"}


def test_journal_survives_a_crash_at_every_byte_offset(tmp_path):
    """Truncate a journal after every byte, restart, append, and restart again."""
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    # A compacted file (terminal records and the store), then live appends.
    journal.compact(
        [(_record("j00001"), _done_report()), (_record("j00002", JobStatus.CANCELLED), None)],
        [("key-softmax", _done_report())],
    )
    journal.record_submitted(_record("j00003", JobStatus.RUNNING), request={"kernel": "softmax"})
    journal.record_checkpoint("j00003", {"evaluations": 5})
    journal.close()
    data = path.read_bytes()
    line_ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    assert len(line_ends) == 5

    # What replay must show once each line is complete, in file order.
    survives = (
        lambda r: r.records["j00001"].status is JobStatus.DONE
        and r.reports["j00001"].evaluations == 7,
        lambda r: r.records["j00002"].status is JobStatus.CANCELLED,
        lambda r: r.store["key-softmax"].best_time_ms == 1.0,
        lambda r: r.requests["j00003"] == {"kernel": "softmax"},
        lambda r: r.checkpoints["j00003"] == {"evaluations": 5},
    )

    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        restarted = JobJournal(path)
        first = restarted.replay()
        restarted.record_submitted(_record("j00004", JobStatus.QUEUED))
        restarted.close()
        again = JobJournal(path).replay()

        for replay in (first, again):
            assert replay.skipped <= 1, cut
            cancelled = replay.records.get("j00002")
            assert cancelled is None or cancelled.status is JobStatus.CANCELLED, cut
            for entry, end in enumerate(line_ends):
                if end <= cut:
                    assert survives[entry](replay), (cut, entry)
        assert again.records["j00004"].status is JobStatus.QUEUED, cut


class _FailingWriter:
    """A temp file whose write of line ``lines + 1`` fails, as a full disk would."""

    def __init__(self, fh, lines):
        self.fh = fh
        self.lines = lines

    def write(self, text):
        if self.lines == 0:
            raise OSError("no space left on device")
        self.lines -= 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _replay_state(replay):
    return (
        {job_id: record.status for job_id, record in replay.records.items()},
        {job_id: report.summary() for job_id, report in replay.reports.items()},
        {key: report.summary() for key, report in replay.store.items()},
        replay.requests,
        replay.checkpoints,
        replay.skipped,
    )


# The live state handed to compact: j00001 was GC'd and k2 is new, so a
# replayed temp file would show in the journal's state.
_LIVE = (
    [(_record("j00002", JobStatus.RUNNING), None), (_record("j00003"), _done_report())],
    [("k1", _done_report()), ("k2", _done_report("rmsnorm"))],
)
_RESUME = {"j00002": {"request": {"kernel": "softmax"}, "checkpoint": {"evaluations": 3}}}
_COMPACTED_LINES = 5  # j00002, its checkpoint, j00003, k1, k2


@pytest.mark.parametrize(
    "crash",
    ["os.replace"] + [f"write after {n} lines" for n in range(_COMPACTED_LINES)],
)
def test_journal_survives_a_crash_during_compaction(tmp_path, monkeypatch, crash):
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    journal.record_terminal(_record("j00001"), _done_report())
    journal.record_submitted(_record("j00002", JobStatus.RUNNING), request={"kernel": "softmax"})
    journal.record_checkpoint("j00002", {"evaluations": 3})
    journal.record_terminal(_record("j00003"), _done_report())
    journal.record_store("k1", _done_report())
    before = _replay_state(JobJournal(path).replay())
    leftover = path.with_name(path.name + ".compact")

    with monkeypatch.context() as patch:
        if crash == "os.replace":

            def failing_replace(src, dst):
                raise OSError("crashed before the rename")

            patch.setattr("repro.remote.journal.os.replace", failing_replace)
        else:
            lines = int(crash.split()[2])
            real_open = type(path).open

            def open_failing_temp(self, *args, **kwargs):
                fh = real_open(self, *args, **kwargs)
                return _FailingWriter(fh, lines) if self == leftover else fh

            patch.setattr(type(path), "open", open_failing_temp)
        with pytest.raises(OSError):
            journal.compact(*_LIVE, resume=_RESUME)

    # The old journal replays every entry it held; the temp file is ignored.
    assert leftover.exists()
    assert _replay_state(JobJournal(path).replay()) == before
    # Appends still land in the old journal ...
    journal.record_submitted(_record("j00004", JobStatus.QUEUED))
    replay = JobJournal(path).replay()
    assert replay.records["j00004"].status is JobStatus.QUEUED
    assert "k2" not in replay.store and "j00001" in replay.records

    # ... and the next compaction succeeds and replaces the leftover.
    assert journal.compact(*_LIVE, resume=_RESUME) == _COMPACTED_LINES
    journal.close()
    assert not leftover.exists()
    replay = JobJournal(path).replay()
    assert set(replay.records) == {"j00002", "j00003"} and set(replay.store) == {"k1", "k2"}
    assert replay.checkpoints == {"j00002": {"evaluations": 3}}
    assert replay.requests["j00002"] == {"kernel": "softmax"}


def test_journal_unknown_kind_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"kind": "mystery", "v": 99}\n', encoding="utf8")
    replay = JobJournal(path).replay()
    assert replay.skipped == 1 and replay.records == {}


def test_journal_compaction_roundtrip(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    for _ in range(5):  # superseded entries bloat the file
        journal.record_submitted(_record("j00001", JobStatus.QUEUED))
    journal.record_terminal(_record("j00001"), _done_report())
    journal.record_store("k1", _done_report())
    assert journal.appends == 7

    written = journal.compact(
        [(_record("j00001"), _done_report())], [("k1", _done_report())]
    )
    assert written == 2  # one terminal record + one store entry
    assert journal.appends == 0 and journal.compactions == 1

    replay = JobJournal(path).replay()
    assert replay.lines == 2
    assert replay.records["j00001"].status is JobStatus.DONE
    assert replay.reports["j00001"].best_time_ms == 1.0
    assert list(replay.store) == ["k1"]
    journal.close()


def test_journal_replay_missing_file_is_empty(tmp_path):
    replay = JobJournal(tmp_path / "nope.jsonl").replay()
    assert replay.records == {} and replay.store == {} and replay.lines == 0


# ---------------------------------------------------------------------------
# Queue-level TTL / GC (the in-process leak fix)
# ---------------------------------------------------------------------------
def test_gc_evicts_expired_terminal_records():
    with _single_worker_pool() as pool:
        queue = pool.serve(ServeConfig(job_ttl_s=60.0))
        handle = queue.submit("softmax")
        handle.result(timeout=300)
        assert queue.status(handle.job_id).status is JobStatus.DONE

        assert queue.gc(now=time.time() + 30) == 0  # too young
        assert queue.gc(now=time.time() + 61) == 1  # past the TTL
        with pytest.raises(KeyError):
            queue.status(handle.job_id)
        assert queue.stats["expired"] == 1
        queue.close()


def test_gc_never_evicts_inflight_jobs():
    with _single_worker_pool() as pool:
        queue = pool.serve(ServeConfig(job_ttl_s=0.001, max_records=0))
        handle = queue.submit("softmax", strategy="remote-block")
        assert _STARTED.wait(timeout=30)
        # Both bounds are maximally aggressive, yet the running job stays.
        assert queue.gc(now=time.time() + 3600) == 0
        assert queue.status(handle.job_id).status is JobStatus.RUNNING
        _GATE.set()
        handle.result(timeout=30)
        # Now terminal, the same bounds evict it.
        assert queue.gc(now=time.time() + 3600) == 1
        queue.close()


def test_gc_max_records_evicts_oldest_terminal_first():
    with _single_worker_pool() as pool:
        queue = pool.serve(ServeConfig(max_records=2, result_store=False))
        handles = [queue.submit("softmax") for _ in range(3)]
        for handle in handles:
            handle.result(timeout=300)
        assert queue.gc() == 1  # 3 records, cap 2 -> oldest evicted
        with pytest.raises(KeyError):
            queue.status(handles[0].job_id)
        assert queue.status(handles[2].job_id).status is JobStatus.DONE
        queue.close()


# ---------------------------------------------------------------------------
# Admission control: bounded pending queue
# ---------------------------------------------------------------------------
def test_max_pending_rejects_with_observable_record():
    with _single_worker_pool() as pool:
        queue = pool.serve(ServeConfig(max_pending=1, steal=False))
        feed = queue.subscribe()
        blocker = queue.submit("softmax", strategy="remote-block")
        assert _STARTED.wait(timeout=30)
        waiting = queue.submit("rmsnorm")  # 1 pending: at the bound now

        with pytest.raises(AdmissionError) as excinfo:
            queue.submit("bmm")
        rejected_id = excinfo.value.job_id
        assert excinfo.value.reason == "pending-queue-full"

        # The refusal is a first-class terminal record and event.
        record = queue.status(rejected_id)
        assert record.status is JobStatus.REJECTED
        with pytest.raises(AdmissionError):
            queue.handle(rejected_id).result(timeout=1)
        assert queue.stats["rejected"] == 1

        _GATE.set()
        blocker.result(timeout=30)
        waiting.result(timeout=300)
        queue.close()
        kinds = [(event.job_id, event.kind) for event in feed]
        assert (rejected_id, "rejected") in kinds


def test_rejected_events_are_terminal_for_subscribers():
    with _single_worker_pool() as pool:
        queue = pool.serve()
        handle = queue.reject("softmax", reason="because the test says so")
        assert handle.status is JobStatus.REJECTED
        events = list(queue.subscribe(handle.job_id))  # completes: terminal kind
        assert [event.kind for event in events] == ["rejected"]
        assert events[0].detail == "because the test says so"
        queue.close()


# ---------------------------------------------------------------------------
# Tenant quotas
# ---------------------------------------------------------------------------
def test_tenant_quota_bucket_and_refill():
    clock = [0.0]
    quota = TenantQuota(2.0, 1.0, clock=lambda: clock[0])
    assert quota.try_charge("alice") and quota.try_charge("alice")
    assert not quota.try_charge("alice")  # empty
    assert quota.try_charge("bob")  # independent bucket
    clock[0] = 1.5  # 1.5 tokens refilled
    assert quota.remaining("alice") == pytest.approx(1.5)
    assert quota.try_charge("alice")
    with pytest.raises(QuotaExceeded):
        quota.charge("alice")
    snapshot = quota.snapshot()
    assert snapshot["charged"] == 4 and snapshot["rejected"] == 2
    assert set(snapshot["tenants"]) == {"alice", "bob"}


def test_tenant_quota_validates_config():
    with pytest.raises(ValueError):
        TenantQuota(0)
    with pytest.raises(ValueError):
        TenantQuota(1, -1)


# ---------------------------------------------------------------------------
# RemoteApp: durability across restarts
# ---------------------------------------------------------------------------
def test_restart_replays_terminal_records_and_store(tmp_path):
    remote = RemoteConfig(journal_path=tmp_path / "j.jsonl")
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=remote) as app:
            record = app.submit({"kernel": "softmax"})
            first_id = record.job_id
            final, report = app.result(first_id, timeout=300)
            assert final.status is JobStatus.DONE and report is not None
            searched = report.evaluations

        # "Restart": a fresh app over the same journal path.
        with RemoteApp(pool, remote=remote) as app2:
            replayed = app2.status(first_id)
            assert replayed.status is JobStatus.DONE and replayed.replayed
            rec, rep = app2.result(first_id, timeout=1)
            assert rep is not None and rep.kernel == "softmax"
            events = list(app2.events(first_id))
            assert len(events) == 1 and events[0]["kind"] == "done"
            assert events[0]["replayed"] is True

            # Same submission again: instant result-store hit, no re-search.
            again = app2.submit({"kernel": "softmax"})
            assert again.job_id != first_id  # ids never collide across restarts
            final2, report2 = app2.result(again.job_id, timeout=300)
            assert final2.from_store is True
            assert report2.evaluations == searched  # the stored report, re-served
            assert app2.queue.stats["store_hits"] == 1


def test_restart_marks_lost_inflight_jobs_failed(tmp_path):
    # With resume_inflight off, lost in-flight jobs surface as failed
    # (the pre-resume behavior, still available as an operator choice).
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    journal.record_submitted(_record("j00007", JobStatus.RUNNING))
    journal.close()

    with _single_worker_pool() as pool:
        remote = RemoteConfig(journal_path=path, resume_inflight=False)
        with RemoteApp(pool, remote=remote) as app:
            record = app.status("j00007")
            assert record.status is JobStatus.FAILED
            assert "restart" in (record.error or "").lower()
            assert app.cancel("j00007") is False  # already terminal
            # New ids mint above the replayed one.
            fresh = app.submit({"kernel": "softmax"})
            assert int(fresh.job_id[1:]) > 7
            app.result(fresh.job_id, timeout=300)


def test_restart_resumes_lost_inflight_jobs(tmp_path):
    # The resume default: a journaled in-flight job is re-queued under its
    # original id and runs to a verifier-clean terminal state.
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    journal.record_submitted(
        _record("j00007", JobStatus.RUNNING), request={"strategy": "greedy"}
    )
    journal.close()

    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=RemoteConfig(journal_path=path)) as app:
            record = app.status("j00007")
            assert not record.status.terminal
            assert record.resumed is True
            final, report = app.result("j00007", timeout=300)
            assert final.status is JobStatus.DONE
            assert report is not None and not report.failed
            assert app.metrics()["server"]["resumed_jobs"] == 1
            assert app.queue.stats["resumed"] == 1


def test_restart_applies_ttl_to_replayed_records(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = JobJournal(path)
    journal.record_terminal(
        _record("j00001", finished_at=time.time() - 9999), _done_report()
    )
    journal.record_terminal(
        _record("j00002", finished_at=time.time()), _done_report()
    )
    journal.close()

    with _single_worker_pool() as pool:
        serve = ServeConfig(job_ttl_s=3600.0)
        with RemoteApp(pool, serve=serve, remote=RemoteConfig(journal_path=path)) as app:
            with pytest.raises(KeyError):
                app.status("j00001")  # expired while the server was down
            assert app.status("j00002").status is JobStatus.DONE


def test_app_quota_mints_observable_rejection(tmp_path):
    remote = RemoteConfig(journal_path=tmp_path / "j.jsonl", tenant_tokens=1.0)
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=remote) as app:
            app.submit({"kernel": "softmax"}, tenant="alice")
            with pytest.raises(QuotaExceeded) as excinfo:
                app.submit({"kernel": "softmax"}, tenant="alice")
            rejected = app.status(excinfo.value.job_id)
            assert rejected.status is JobStatus.REJECTED
            assert rejected.tenant == "alice"
            assert app.submit({"kernel": "softmax"}, tenant="bob")  # unaffected
            app.queue.join(timeout=300)


def test_app_compaction_keeps_journal_bounded(tmp_path):
    remote = RemoteConfig(journal_path=tmp_path / "j.jsonl", compact_every=3)
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=remote) as app:
            for _ in range(4):
                record = app.submit({"kernel": "softmax"})
                app.result(record.job_id, timeout=300)
            assert app.journal.compactions >= 1
        # Post-close compaction leaves a replayable file.
        replay = JobJournal(tmp_path / "j.jsonl").replay()
        assert replay.skipped == 0
        assert len(replay.records) == 4
        assert all(rec.status is JobStatus.DONE for rec in replay.records.values())


def test_app_without_journal_still_serves():
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=_NO_JOURNAL) as app:
            assert app.journal is None
            record = app.submit({"kernel": "softmax"})
            final, report = app.result(record.job_id, timeout=300)
            assert final.status is JobStatus.DONE and report is not None
            assert app.compact() == 0


def test_app_rejects_malformed_payloads():
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=_NO_JOURNAL) as app:
            with pytest.raises(ValueError):
                app.submit([])
            with pytest.raises(ValueError):
                app.submit({})
            with pytest.raises(ValueError):
                app.submit({"kernel": "softmax", "shapes": "wat"})
            outcomes = app.submit_many([{"kernel": "softmax"}, {"bad": 1}])
            assert "job_id" in outcomes[0]
            assert outcomes[1]["error"]["code"] == "bad-request"
            app.queue.join(timeout=300)


# ---------------------------------------------------------------------------
# HTTP end-to-end
# ---------------------------------------------------------------------------
@pytest.fixture()
def http_stack(tmp_path):
    remote = RemoteConfig(journal_path=tmp_path / "j.jsonl", tenant_tokens=50.0)
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=remote) as app:
            with RemoteServer(app) as server:  # port 0 -> ephemeral
                yield RemoteClient(server.url, tenant="pytest"), app


def test_http_submit_stream_result(http_stack):
    client, _app = http_stack
    assert client.healthy()
    handle = client.submit("softmax")
    kinds = [event["kind"] for event in handle.events()]
    assert kinds[0] == "queued" and kinds[-1] == "done"
    report = handle.result(timeout=300)
    assert report.kernel == "softmax" and not report.failed
    record = handle.record()
    assert record.status is JobStatus.DONE and record.tenant == "pytest"
    assert handle.done()
    assert any(job.job_id == handle.job_id for job in client.jobs())


def test_http_cancel_roundtrip(http_stack):
    client, _app = http_stack
    blocker = client.submit("softmax", strategy="remote-block")
    assert _STARTED.wait(timeout=30)
    victim = client.submit("rmsnorm")  # queued behind the blocker
    assert victim.cancel() is True
    with pytest.raises(JobCancelled):
        victim.result(timeout=30)
    assert victim.record().status is JobStatus.CANCELLED
    _GATE.set()
    blocker.result(timeout=300)


def test_http_error_mapping(http_stack):
    client, _app = http_stack
    with pytest.raises(KeyError):
        client.status("j99999")
    with pytest.raises(ValueError):
        client._request("POST", "/v1/jobs", {"kernel": 5})
    with pytest.raises(KeyError):
        client._request("GET", "/no/such/route")


def test_http_refuses_an_unknown_verify_mode(http_stack):
    client, app = http_stack
    with pytest.raises(ValueError, match="frantic"):
        client.submit("softmax", verify="frantic")
    assert app.queue.jobs() == []


def test_http_batch_mixed_outcomes(http_stack):
    client, _app = http_stack
    outcomes = client.submit_many([{"kernel": "softmax"}, {"oops": True}])
    assert "job_id" in outcomes[0]
    assert outcomes[1]["error"]["code"] == "bad-request"
    client.result(outcomes[0]["job_id"], timeout=300)


def test_http_quota_429(http_stack):
    client, app = http_stack
    assert app.quota is not None
    # Drain this tenant's bucket without queueing work for it.
    while app.quota.try_charge("pytest"):
        pass
    with pytest.raises(QuotaExceeded) as excinfo:
        client.submit("softmax")
    assert excinfo.value.job_id is not None
    assert client.status(excinfo.value.job_id).status is JobStatus.REJECTED


def test_http_metrics_shape(http_stack):
    client, _app = http_stack
    handle = client.submit("softmax")
    handle.result(timeout=300)
    metrics = client.metrics()
    queue = metrics["queue"]
    assert queue["records"] >= 1 and "pending" in queue and "rejected" in queue
    workers = metrics["pool"]["workers"]
    assert len(workers) == 1
    assert {"backend", "backlog", "jobs_run", "evals_per_sec"} <= set(workers[0])
    assert "hits" in metrics["store"]
    assert metrics["server"]["journal"]["path"].endswith("j.jsonl")
    assert metrics["quota"]["capacity"] == 50.0


def test_http_replayed_job_events_close_immediately(tmp_path):
    """Streaming events for a journal-replayed terminal job serves one
    synthesized terminal event and closes — no 30s idle hang."""
    remote = RemoteConfig(journal_path=tmp_path / "j.jsonl")
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=remote) as app:
            job_id = app.submit({"kernel": "softmax"}).job_id
            app.result(job_id, timeout=300)
        with RemoteApp(pool, remote=remote) as revived:
            with RemoteServer(revived) as server:
                client = RemoteClient(server.url)
                start = time.monotonic()
                events = list(client.events(job_id))
                assert time.monotonic() - start < 10.0
    assert len(events) == 1
    assert events[0]["kind"] == "done" and events[0].get("replayed") is True


def test_client_get_retries_transient_failures(monkeypatch):
    """GETs retry transient transport failures; POSTs never do (not
    idempotent — a lost response may mean the job WAS accepted)."""

    class _Resp:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def read(self):
            return b'{"ok": true}'

    calls = []

    def _flaky_open(self, method, path, body=None, query=None, *, timeout=None):
        calls.append(method)
        if len([m for m in calls if m == calls[-1]]) <= 2:
            raise RemoteError("connection refused")  # status 0 -> transient
        return _Resp()

    client = RemoteClient("http://127.0.0.1:1", retry_attempts=3, retry_backoff_s=0.001)
    monkeypatch.setattr(RemoteClient, "_open", _flaky_open)

    assert client._request("GET", "/healthz") == {"ok": True}
    assert calls.count("GET") == 3  # two transient failures, then success

    calls.clear()
    with pytest.raises(RemoteError):
        client._request("POST", "/v1/jobs", {"kernel": "softmax"})
    assert calls.count("POST") == 1  # never auto-retried

    calls.clear()

    def _server_error(self, method, path, body=None, query=None, *, timeout=None):
        calls.append(method)
        raise RemoteError("boom", status=500)

    monkeypatch.setattr(RemoteClient, "_open", _server_error)
    with pytest.raises(RemoteError):
        client._request("GET", "/metrics")
    assert calls.count("GET") == 1  # the server answered: not transient


def test_http_stream_drop_fault(tmp_path):
    """An injected SSE drop truncates one stream cleanly; a fresh stream on
    the same job still reaches the terminal event."""
    plan = FaultPlan(seed=5).drop_stream(after_events=1)
    remote = RemoteConfig(journal_path=tmp_path / "j.jsonl")
    with _single_worker_pool() as pool:
        with RemoteApp(pool, remote=remote, faults=plan) as app:
            with RemoteServer(app) as server:
                client = RemoteClient(server.url)
                handle = client.submit("softmax", strategy="remote-block")
                assert _STARTED.wait(timeout=30)
                # HTTP/1.0 responses are close-delimited, so the injected
                # drop reads as a clean, truncated stream: queued only.
                truncated = list(handle.events())
                assert [event["kind"] for event in truncated] == ["queued"]
                _GATE.set()
                handle.result(timeout=300)
                kinds = [event["kind"] for event in handle.events()]
                assert kinds[-1] == "done"
    assert [entry["fault"] for entry in plan.fired] == ["stream-drop"]


# ---------------------------------------------------------------------------
# Verifier diagnostics surfaced through serve events (store invalidation)
# ---------------------------------------------------------------------------
def test_store_invalidation_surfaces_rule_codes():
    from repro.analysis.verify import verify_schedule

    config = dataclasses.replace(_FAST, verify=True)
    with SessionPool(["A100-sim"], config=config, cache=_NO_CACHE) as pool:
        queue = pool.serve()
        first = queue.submit("softmax")
        first.result(timeout=300)
        key = first.record().cache_key
        hit = queue.store.get(key)
        assert hit is not None and hit.artifact is not None

        # Poison the stored artifact with a dependence-breaking swap.
        art = hit.artifact
        seed = art.compiled.kernel
        bad_kernel = None
        expected_rules = ()
        for i in range(len(seed.lines) - 1):
            candidate = art.optimized.kernel.swap(i, i + 1)
            result = verify_schedule(seed, candidate, include_warnings=False)
            if not result.ok:
                bad_kernel = candidate
                expected_rules = tuple(sorted({diag.rule for diag in result.errors}))
                break
        assert bad_kernel is not None and expected_rules
        queue.store.put(key, dataclasses.replace(
            hit,
            artifact=dataclasses.replace(
                art, optimized=dataclasses.replace(art.optimized, kernel=bad_kernel)
            ),
        ))

        feed = queue.subscribe()
        again = queue.submit("softmax")
        again.result(timeout=300)
        record = again.record()
        assert record.from_store is False
        # The triggering rule codes ride the record and the event stream.
        assert record.invalidation_rules == expected_rules
        queue.close()
        events = list(feed)
        invalidated = [event for event in events if event.kind == "invalidated"]
        assert len(invalidated) == 1
        assert tuple(invalidated[0].rules) == expected_rules
        assert "rules" in invalidated[0].as_dict()
        terminal = [event for event in events if event.job_id == again.job_id][-1]
        assert terminal.kind == "done"
        assert tuple(terminal.rules) == expected_rules


# ---------------------------------------------------------------------------
# CLI arg plumbing (no sockets)
# ---------------------------------------------------------------------------
def test_cli_configs_from_args():
    from repro.remote.serve import build_parser, configs_from_args

    args = build_parser().parse_args([
        "--strategy", "greedy", "--scale", "test", "--budget", "9",
        "--no-autotune", "--no-verify", "--max-pending", "4",
        "--job-ttl-s", "12.5", "--tenant-tokens", "3",
        "--journal-path", "/tmp/x.jsonl", "--compact-every", "7",
    ])
    optimization, serve, remote = configs_from_args(args)
    assert optimization.strategy == "greedy" and optimization.search_budget == 9
    assert optimization.autotune is False and optimization.verify is False
    assert serve.max_pending == 4 and serve.job_ttl_s == 12.5
    assert remote.tenant_tokens == 3.0 and remote.compact_every == 7
    assert str(remote.journal_path) == "/tmp/x.jsonl"


def test_event_as_dict_is_json_able():
    from repro.serve import ProgressEvent

    event = ProgressEvent(
        seq=3, job_id="j00001", kind="invalidated", timestamp=1.0,
        worker="w0", rules=("V101",),
    )
    payload = json.loads(json.dumps(event.as_dict()))
    assert payload["rules"] == ["V101"] and payload["kind"] == "invalidated"
