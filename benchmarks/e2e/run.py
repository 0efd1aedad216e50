"""End-to-end benchmark of the serving stack: boot, drive, measure, check.

    PYTHONPATH=src python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR] [--quick]

For each workload (all four by default) it:

1. cold-boots the real HTTP server (``server.py``) five times; ``setup_s``
   is the median of spawn -> READY -> /healthz -> one fixed warm-up job done;
2. keeps the last server, runs the remaining warm-up jobs untimed, then one
   job of the other search strategy and one store hit;
3. drives the timed window from this one process: a closed loop (one client
   waits for each result, then reads one earlier result) over the
   workload's committed key set in the seed's order (the first
   ``--seconds / run_seconds`` of it), or an open loop (seeded Poisson
   writes and reads on two threads) for ``--seconds``.  ``--seconds``
   defaults to BENCHMARK.json's ``run_seconds``;
4. checks the outputs untimed: every fresh job verified within its budget,
   every store hit equal to its warm original, and a seeded sample of 16
   done keys deployed from the server's cache, run on the simulator and
   compared with the kernel's numpy reference (rtol = atol = 2e-2).

It prints one row of end-to-end metrics per workload, and with ``--trace 1``
(a separate, traced run) the per-layer metrics, which cover every call the
last server made, warm-up included (see ``layers.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end without tracing, per-layer with it; names are
prefixed ``<workload>.`` when several workloads ran).  The exit code is
non-zero when any output is wrong.  ``--out DIR`` keeps a JSON result per
run (and the spans when tracing) for ``compare.py``, as
``<workload>-seed<N>-trace<0|1>-run<K>.json`` with ``K`` the first number
not yet taken, so repeated runs never overwrite each other.  Server
directories live in a temporary directory under the repository root,
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from host import HostProbe  # noqa: E402
from layers import counter_metrics, percentile, span_metrics  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.api.config import CacheConfig  # noqa: E402
from repro.api.report import JobRecord, RunReport  # noqa: E402
from repro.errors import AdmissionError, JobCancelled, RemoteError  # noqa: E402
from repro.remote.client import RemoteClient  # noqa: E402
from repro.triton.spec import get_spec  # noqa: E402
from workloads import BY_NAME, GENERATOR_LATE_P99_LIMIT_MS, Key, Workload  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
BOOTS = 5
CHECK_SAMPLE = 16
TOLERANCE = 2e-2
JOB_TIMEOUT_S = 120.0
#: Earlier results a closed-loop client reads after each job.
READS_PER_JOB = 4
#: The client and the server each get their own CPUs (when there are two or
#: more), so neither migrates onto the other's between runs.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS, SERVER_CPUS = {_CPUS[0]}, set(_CPUS[1:] or _CPUS)
#: Every way one request can fail from the client's side.
REQUEST_ERRORS = (RemoteError, AdmissionError, JobCancelled, TimeoutError, KeyError,
                  ValueError, OSError)


class Server:
    """One launcher subprocess with a fresh cache dir, driven over HTTP."""

    def __init__(self, workload: Workload, workdir: Path, trace: bool, probe: HostProbe):
        self._probe = probe
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
        self.cache_dir = self.dir / "cache"
        #: Untimed jobs by key: ``(job_id, report)``.
        self.warm: dict[Key, tuple[str, RunReport]] = {}
        command = [
            sys.executable, str(HERE / "server.py"), "--workload", workload.name,
            "--cache-dir", str(self.cache_dir), "--out-dir", str(self.dir),
        ] + (["--trace"] if trace else [])
        pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), TMPDIR=str(self.dir))
        self._log = (self.dir / "server.log").open("wb")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT,
            # Before the launcher starts, so its threads (and numpy's BLAS
            # pool, sized at import) see only the server's CPUs.
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS),
        )
        probe.target = self.proc.pid
        try:
            self.client = RemoteClient(self._await_ready(timeout=60.0), request_timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _await_ready(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            readable, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if readable:
                line = self.proc.stdout.readline().decode()
                if line.startswith("READY "):
                    return dict(part.split("=", 1) for part in line.split()[1:])["url"]
                if not line:
                    break
        tail = (self.dir / "server.log").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"server did not become ready; its log ends:\n{tail}")

    def optimize(self, key: Key, strategy: str | None = None) -> tuple[str, RunReport]:
        handle = self.client.submit(key.kernel, shapes=key.shape_dict, strategy=strategy)
        return handle.job_id, handle.result(timeout=JOB_TIMEOUT_S)

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server process has used."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait for the launcher's clean exit (or kill it)."""
        self._probe.target = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def boot(workload: Workload, workdir: Path, trace: bool,
         probe: HostProbe) -> tuple[Server, tuple[float, float]]:
    """Spawn -> READY -> /healthz -> the fixed warm-up job; returns its span."""
    started = time.monotonic()
    server = Server(workload, workdir, trace, probe)
    try:
        while not server.client.healthy():
            if time.monotonic() - started > 60.0:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.01)
        server.warm[workload.warmup[0]] = server.optimize(workload.warmup[0])
    except BaseException:
        server.stop()
        raise
    return server, (started, time.monotonic())


@dataclass
class Write:
    """One timed submission."""

    key: Key
    fresh: bool
    #: When it was due, and when its job finished, in ``time.monotonic()`` seconds.
    due: float
    end: float | None = None
    job_id: str | None = None
    report: RunReport | None = None
    record: JobRecord | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None and self.record is not None
            and self.record.status.value == "done"
            and self.report is not None and not self.report.failed
        )


@dataclass
class Window:
    """What one timed window produced."""

    writes: list[Write]
    start: float
    wall_start: float
    #: When every timed job was terminal (monotonic).
    end: float = 0.0
    #: ``(due, end)`` per read, monotonic; ``end`` is None when it failed.
    reads: list[tuple[float, float | None]] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)


def _sleep_until(when: float) -> None:
    delay = when - time.monotonic()
    if delay > 0:
        time.sleep(delay)


def _read(client: RemoteClient, job_id: str, due: float, window: Window) -> None:
    """One ``GET /v1/jobs/<id>/result?timeout=0``, timed from ``due``."""
    try:
        client.result(job_id, timeout=0.0)
    except TimeoutError:
        pass  # the job is still running: the read itself succeeded
    except REQUEST_ERRORS:
        window.reads.append((due, None))
        return
    window.reads.append((due, time.monotonic()))


def closed_loop(server: Server, workload: Workload, seed: int, jobs: int) -> Window:
    """One client: submit, wait for the result, then read earlier results."""
    rng = random.Random(seed + 1)
    readable = [job_id for job_id, _ in server.warm.values()]
    window = Window(writes=[], start=time.monotonic(), wall_start=time.time())
    for key in workload.timed_keys(seed, jobs):
        write = Write(key, fresh=True, due=time.monotonic())
        window.writes.append(write)
        try:
            write.job_id, write.report = server.optimize(key)
            write.end = time.monotonic()
            readable.append(write.job_id)
        except REQUEST_ERRORS as exc:
            write.error = f"{type(exc).__name__}: {exc}"
        for _ in range(READS_PER_JOB):
            _read(server.client, rng.choice(readable), time.monotonic(), window)
    window.end = time.monotonic()
    return window


def open_loop(server: Server, workload: Workload, seed: int, seconds: float) -> Window:
    """Seeded Poisson writes (one thread) beside seeded Poisson reads (this one).

    The arrival counts are fixed (rate x seconds) and only the times are
    random, so every seed offers the same load.  The writes go through the
    warm keys in seeded rounds that use each warm key once, so every seed
    re-submits the same mix of store hits.
    """
    write_rate, read_rate = workload.open_loop
    rng = random.Random(seed)
    write_due = sorted(rng.uniform(0.0, seconds) for _ in range(round(write_rate * seconds)))
    read_due = sorted(rng.uniform(0.0, seconds) for _ in range(round(read_rate * seconds)))
    warm = workload.warmup[1:]
    keys = [k for _ in range(0, len(write_due), len(warm)) for k in rng.sample(warm, len(warm))]
    start, wall_start = time.monotonic(), time.time()
    window = Window(
        writes=[Write(k, False, start + due) for k, due in zip(keys, write_due)],
        start=start,
        wall_start=wall_start,
    )
    read_picks = [rng.random() for _ in read_due]
    readable = [job_id for job_id, _ in server.warm.values()]

    def write_all() -> None:
        for write in window.writes:
            _sleep_until(write.due)
            window.lateness_s.append(time.monotonic() - write.due)
            try:
                handle = server.client.submit(write.key.kernel, shapes=write.key.shape_dict)
            except REQUEST_ERRORS as exc:
                write.error = f"{type(exc).__name__}: {exc}"
                continue
            write.job_id = handle.job_id
            readable.append(handle.job_id)

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="writer") as writer:
        writing = writer.submit(write_all)
        for due, pick in zip(read_due, read_picks):
            _sleep_until(start + due)
            _read(server.client, readable[int(pick * len(readable))], start + due, window)
        writing.result()
    return window


def drain(server: Server, window: Window, open_loop: bool) -> None:
    """Wait until every timed job is terminal, then attach its record.

    An open-loop write runs from when it was due to its record's
    ``finished_at``, so a late generator or a queue still counts.  Jobs still
    running are awaited on the long-poll result endpoint, one at a time,
    rather than by polling the job list.
    """
    records = {record.job_id: record for record in server.client.jobs()}
    running = [
        write.job_id for write in window.writes
        if write.job_id is not None and not records[write.job_id].status.terminal
    ]
    deadline = time.monotonic() + JOB_TIMEOUT_S
    for job_id in running:
        try:
            server.client.result(job_id, timeout=max(0.0, deadline - time.monotonic()))
        except TimeoutError:
            raise TimeoutError(f"timed job {job_id} did not finish") from None
        except REQUEST_ERRORS:
            pass  # terminal without a report: its record says why
    if not window.end:
        window.end = time.monotonic()
    if running:
        records = {record.job_id: record for record in server.client.jobs()}
    for write in window.writes:
        if write.job_id is not None:
            write.record = records[write.job_id]
            if open_loop and write.record.finished_at is not None:
                write.end = window.start + write.record.finished_at - window.wall_start


def check_outputs(server: Server, workload: Workload, window: Window, backend: str,
                  seed: int) -> list[str]:
    """Untimed correctness checks; returns one line per mismatch."""
    mismatches = []
    for write in window.writes:
        if write.record is None or write.record.status.value != "done":
            continue
        if write.report is None:
            try:
                write.report = server.client.result(write.job_id, timeout=JOB_TIMEOUT_S)
            except REQUEST_ERRORS as exc:
                write.error = f"{type(exc).__name__}: {exc}"
                continue
        report = write.report
        if write.fresh:
            if report.failed or report.verified is not True:
                mismatches.append(f"{write.key}: not verified ({report.error})")
            if report.evaluations > workload.budget + 1:
                mismatches.append(f"{write.key}: {report.evaluations} evaluations "
                                  f"> budget {workload.budget} + 1")
            continue
        warm = server.warm[write.key][1]
        if (report.best_time_ms, report.cache_key) != (warm.best_time_ms, warm.cache_key):
            mismatches.append(f"{write.key}: store hit differs from its warm original")

    done = sorted({write.key for write in window.writes if write.ok} | set(server.warm))
    sample = random.Random(seed + 2).sample(done, min(CHECK_SAMPLE, len(done)))
    (namespace,) = [path for path in server.cache_dir.iterdir() if path.is_dir()]
    deployer = Session(
        gpu=backend, config=workload.config,
        cache=CacheConfig(directory=namespace, readonly=True),
    )
    for key in sample:
        spec = get_spec(key.kernel)
        inputs = spec.make_inputs(np.random.default_rng(seed), key.shape_dict)
        expected = spec.reference(inputs, key.shape_dict)
        outputs = deployer.deploy(key.kernel, shapes=key.shape_dict).run(
            deployer.simulator, inputs
        ).outputs
        for name in spec.output_names:
            got = np.asarray(outputs[name], dtype=np.float32)
            want = np.asarray(expected[name], dtype=np.float32)
            if got.shape != want.shape or not np.allclose(
                got, want, rtol=TOLERANCE, atol=TOLERANCE
            ):
                mismatches.append(f"{key}: output {name!r} differs from the reference")
    return mismatches


def _speedup_geomean(window: Window) -> float:
    """Over the done timed writes."""
    reports = [write.report for write in window.writes if write.ok]
    if not reports:
        return 1.0
    return math.exp(statistics.fmean(math.log(report.speedup) for report in reports))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 quick: bool, workdir: Path, out: Path | None, probe: HostProbe) -> dict:
    boots, server = [], None
    try:
        for _ in range(1 if quick else BOOTS):
            if server is not None:
                server.stop()
                shutil.rmtree(server.dir, ignore_errors=True)
                server = None
            server, span = boot(workload, workdir, trace, probe)
            boots.append(span)
        for key in workload.warmup[1:]:
            server.warm[key] = server.optimize(key)
        # So that every layer runs before timing (and a traced run times it):
        # a job of the other strategy, and a store hit, whose audit runs too.
        server.optimize(workload.other_strategy[1], strategy=workload.other_strategy[0])
        server.optimize(workload.warmup[0])

        before, cpu_before = server.client.metrics(), server.cpu_s()
        if workload.open_loop is None:
            jobs = max(1, round(len(workload.keys) * seconds / DECLARED["run_seconds"]))
            window = closed_loop(server, workload, seed, jobs)
        else:
            window = open_loop(server, workload, seed, seconds)
        drain(server, window, open_loop=workload.open_loop is not None)
        after, cpu_after = server.client.metrics(), server.cpu_s()
        peak_rss_mb = server.peak_rss_mb()
        backend = after["pool"]["workers"][0]["backend"]
        mismatches = check_outputs(server, workload, window, backend, seed)
    finally:
        if server is not None:
            server.stop()

    writes = window.writes
    done = [write for write in writes if write.ok]
    read_errors = sum(1 for _, end in window.reads if end is None)
    failed = len(writes) - len(done) + read_errors
    attempted = len(writes) + len(window.reads)
    # Every time is the server's, on the reference host (see host.py).
    scaled, slowdown = probe.scaled, probe.slowdown(window.start, window.end)
    if workload.open_loop is None:
        elapsed = scaled(window.start, window.end)
    else:
        # The arrival schedule, not the host, sets an open loop's pace.
        elapsed = max(w.end for w in done) - window.start if done else 0.0
    latencies_ms = [scaled(w.due, w.end) * 1e3 if w.ok else math.inf for w in writes]
    reads_ms = [
        scaled(due, end) * 1e3 if end is not None else math.inf for due, end in window.reads
    ]
    end_to_end = {
        "setup_s": statistics.median(scaled(*span) for span in boots),
        "jobs_per_s": len(done) / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "read_p50_ms": percentile(reads_ms, 50),
        "speedup_geomean": _speedup_geomean(window),
        "success_ratio": 1.0 - failed / attempted if attempted else 0.0,
        "server_cpu_s_per_job": (
            (cpu_after - cpu_before) / slowdown / len(done) if done else 0.0
        ),
        "server_peak_rss_mb": peak_rss_mb,
    }

    memo = json.loads((server.dir / "memo.json").read_text())
    per_layer = counter_metrics(
        [w.record.as_dict() for w in writes if w.record is not None],
        before, after, memo, window.end - window.start,
    )
    spans_path = server.dir / "spans.jsonl"
    if trace:
        per_layer.update(span_metrics(
            [json.loads(line) for line in spans_path.read_text().splitlines()]
        ))

    late_p99_ms = percentile([s * 1e3 for s in window.lateness_s], 99)
    stem, run = f"{workload.name}-seed{seed}-trace{int(trace)}", 1
    while out is not None and (out / f"{stem}-run{run}.json").exists():
        run += 1
    result = {
        "workload": workload.name,
        "seed": seed,
        "run": run,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        # Reported, not bounded: on a shared host these tails spread wider
        # than any bound BENCHMARK.json allows.
        "tails": {"latency_p95_ms": percentile(latencies_ms, 95),
                  "read_p95_ms": percentile(reads_ms, 95)},
        "host": {"slowdown": slowdown,
                 "paused_share": probe.paused(window.start, window.end)
                 / (window.end - window.start)},
        "samples": {"setup": len(boots), "jobs": len(writes), "done": len(done),
                    "reads": len(window.reads)},
        "generator_late_p99_ms": late_p99_ms,
        "valid": late_p99_ms <= GENERATOR_LATE_P99_LIMIT_MS,
        "mismatches": mismatches,
    }
    if out is not None:
        with (out / f"{stem}-run{run}.json").open("x") as file:
            json.dump(result, file, indent=1)
        if trace:
            shutil.copy(spans_path, out / f"{stem}-run{run}-spans.jsonl")
    shutil.rmtree(server.dir, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(BY_NAME),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(DECLARED["run_seconds"]),
                        help="timed window; closed loops run seconds / run_seconds "
                             "of their key set (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: a traced run reporting the per-layer metrics")
    parser.add_argument("--out", type=Path, help="keep result JSON (and spans) here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one boot and 3 s windows")
    args = parser.parse_args(argv)
    names = args.workload or list(BY_NAME)
    seconds = 3.0 if args.quick else args.seconds
    declared_metrics = DECLARED["per_layer" if args.trace else "end_to_end"]

    os.sched_setaffinity(0, CLIENT_CPUS)
    # SIGTERM unwinds like an error, so every server is stopped and awaited.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    results = []
    with (HostProbe(SERVER_CPUS, CLIENT_CPUS) as probe,
          tempfile.TemporaryDirectory(prefix=".e2e_bench-", dir=ROOT) as workdir):
        for name in names:
            result = run_workload(BY_NAME[name], args.seed, seconds, bool(args.trace),
                                  args.quick, Path(workdir), args.out, probe)
            results.append(result)
            _print_rows(result)

    metrics = {}
    for result in results:
        measured = result["per_layer" if args.trace else "end_to_end"]
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for metric in declared_metrics:
            metrics[prefix + metric["name"]] = {
                "value": measured[metric["name"]], "unit": metric["unit"]
            }
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if all(result["correct"] for result in results) else 1


def _print_rows(result: dict) -> None:
    name = result["workload"]
    cells = [
        f"{metric['name']}={result['end_to_end'][metric['name']]:.6g} {metric['unit']}"
        for metric in DECLARED["end_to_end"]
    ]
    print(f"{name}: " + "  ".join(cells))
    samples = ", ".join(f"{key}={value}" for key, value in result["samples"].items())
    tails = "  ".join(f"{key}={value:.6g}" for key, value in result["tails"].items())
    print(f"{name}: {tails}; host slowdown {result['host']['slowdown']:.3g}x, "
          f"paused {result['host']['paused_share']:.1%}")
    print(f"{name}: samples {samples}; failed {result['failed']}/{result['attempted']}; "
          f"generator late p99 {result['generator_late_p99_ms']:.3g} ms")
    if not result["valid"]:
        print(f"{name}: INVALID: generator lateness above "
              f"{GENERATOR_LATE_P99_LIMIT_MS} ms", file=sys.stderr)
    for mismatch in result["mismatches"]:
        print(f"{name}: MISMATCH {mismatch}", file=sys.stderr)
    if result["trace"]:
        for metric in DECLARED["per_layer"]:
            value = result["per_layer"][metric["name"]]
            print(f"{name}:   {metric['name']} = {value:.6g} {metric['unit']}")


if __name__ == "__main__":
    raise SystemExit(main())
