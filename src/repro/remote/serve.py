"""``python -m repro.remote.serve`` — boot the remote optimization service.

Builds a :class:`~repro.pool.SessionPool` over the requested backends, wires
the durable :class:`~repro.remote.app.RemoteApp` (journal replay, quotas,
GC) on top and serves the HTTP API in the foreground until SIGINT/SIGTERM.
On startup it prints one machine-readable ready line::

    READY url=http://127.0.0.1:8731 journal=/path/to/serve-journal.jsonl

so wrappers (the CI smoke, ``examples/serve_http.py``) can bind ``--port 0``
and discover the ephemeral port.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.api.config import OptimizationConfig, RemoteConfig, RetryPolicy, ServeConfig
from repro.faults import FaultPlan
from repro.pool import SessionPool
from repro.remote.app import RemoteApp
from repro.remote.server import RemoteServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.remote.serve",
        description="HTTP front door over a SessionPool: submit SASS schedule "
        "optimization jobs, stream progress, survive restarts via the job journal.",
    )
    net = parser.add_argument_group("network")
    net.add_argument("--host", default="127.0.0.1", help="listen address")
    net.add_argument(
        "--port", type=int, default=0, help="listen port (0 = ephemeral, printed on READY)"
    )

    pool = parser.add_argument_group("pool")
    pool.add_argument(
        "--backend",
        action="append",
        dest="backends",
        metavar="NAME",
        help="worker backend; repeat for more workers (default: one A100)",
    )
    pool.add_argument("--cache-dir", default=None, help="cubin cache / journal directory")

    opt = parser.add_argument_group("optimization defaults")
    opt.add_argument("--strategy", default=None, help="default search strategy")
    opt.add_argument("--scale", default=None, help="problem scale (e.g. test, paper)")
    opt.add_argument("--budget", type=int, default=None, help="search budget")
    opt.add_argument(
        "--no-autotune", action="store_true", help="disable launch-config autotuning"
    )
    opt.add_argument(
        "--no-verify", action="store_true", help="disable schedule verification"
    )

    queue = parser.add_argument_group("queue")
    queue.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission control: reject submissions beyond this many queued jobs",
    )
    queue.add_argument(
        "--job-ttl-s",
        type=float,
        default=3600.0,
        help="evict terminal job records after this many seconds (default 3600)",
    )
    queue.add_argument(
        "--max-records",
        type=int,
        default=10000,
        help="hard cap on retained job records (default 10000)",
    )

    durable = parser.add_argument_group("durability")
    durable.add_argument(
        "--no-journal", action="store_true", help="disable the durable job journal"
    )
    durable.add_argument(
        "--journal-path",
        default=None,
        help="journal file (default: serve-journal.jsonl beside the cubin cache)",
    )
    durable.add_argument(
        "--compact-every",
        type=int,
        default=2048,
        help="compact the journal after this many appended lines",
    )

    quota = parser.add_argument_group("quotas")
    quota.add_argument(
        "--tenant-tokens",
        type=float,
        default=None,
        help="per-tenant token-bucket capacity (default: quotas off)",
    )
    quota.add_argument(
        "--tenant-refill",
        type=float,
        default=0.0,
        help="bucket refill rate in tokens/second",
    )

    retry = parser.add_argument_group("retry")
    retry.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        help="max attempts per job on infrastructure failures (1 = no retries)",
    )
    retry.add_argument(
        "--retry-backoff-s",
        type=float,
        default=0.05,
        help="base exponential-backoff delay between attempts",
    )

    chaos = parser.add_argument_group(
        "chaos (deterministic fault injection for resilience testing)"
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=None,
        help="enable fault injection with this plan seed",
    )
    chaos.add_argument(
        "--fault-crash-worker", type=int, default=None, metavar="INDEX",
        help="crash this worker once (-1 = whichever worker measures first)",
    )
    chaos.add_argument(
        "--fault-crash-after", type=int, default=1, metavar="EVALS",
        help="crash after this many measurements (with --fault-crash-worker/--fault-seed)",
    )
    chaos.add_argument(
        "--fault-journal-fail", type=int, default=None, metavar="N",
        help="fail the N-th journal append",
    )
    chaos.add_argument(
        "--fault-delay-ms", type=float, default=None,
        help="delay every measurement by this many milliseconds",
    )
    chaos.add_argument(
        "--fault-drop-events", type=int, default=None, metavar="N",
        help="drop the SSE connection after N streamed events",
    )
    return parser


def configs_from_args(args) -> tuple[OptimizationConfig | None, ServeConfig, RemoteConfig]:
    overrides = {}
    if args.strategy is not None:
        overrides["strategy"] = args.strategy
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.budget is not None:
        overrides["search_budget"] = args.budget
    if args.no_autotune:
        overrides["autotune"] = False
    if args.no_verify:
        overrides["verify"] = False
    optimization = OptimizationConfig(**overrides) if overrides else None

    retry = None
    if args.retry_attempts > 1:
        retry = RetryPolicy(
            max_attempts=args.retry_attempts,
            backoff_base_s=args.retry_backoff_s,
        )
    serve = ServeConfig(
        max_pending=args.max_pending,
        job_ttl_s=args.job_ttl_s,
        max_records=args.max_records,
        retry=retry,
    )
    remote = RemoteConfig(
        host=args.host,
        port=args.port,
        journal=not args.no_journal,
        journal_path=args.journal_path,
        compact_every=args.compact_every,
        tenant_tokens=args.tenant_tokens,
        tenant_refill_per_s=args.tenant_refill,
    )
    return optimization, serve, remote


def faults_from_args(args) -> FaultPlan | None:
    """The chaos :class:`FaultPlan` the flags describe, or ``None``.

    Kept separate from :func:`configs_from_args` (which stays a pure
    3-tuple of configs): fault plans carry mutable counters and never
    belong in frozen config dataclasses.
    """
    if args.fault_seed is None:
        return None
    plan = FaultPlan(seed=args.fault_seed)
    if args.fault_crash_worker is not None:
        worker = None if args.fault_crash_worker < 0 else args.fault_crash_worker
        plan.crash_worker(worker=worker, after_evals=args.fault_crash_after)
    if args.fault_journal_fail is not None:
        plan.fail_journal_append(at_append=args.fault_journal_fail)
    if args.fault_delay_ms is not None:
        plan.delay_measurement(delay_s=args.fault_delay_ms / 1000.0)
    if args.fault_drop_events is not None:
        plan.drop_stream(after_events=args.fault_drop_events)
    return plan


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    optimization, serve, remote = configs_from_args(args)
    faults = faults_from_args(args)

    # Foreground servers are killed with SIGTERM by process managers (and the
    # CI smoke); route it through the same KeyboardInterrupt path as Ctrl-C
    # so teardown (final journal compaction, socket close) always runs.
    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)

    pool = SessionPool(
        backends=args.backends, cache_dir=args.cache_dir, config=optimization
    )
    try:
        app = RemoteApp(pool, serve=serve, remote=remote, faults=faults)
        try:
            server = RemoteServer(app)
            journal = "-" if app.journal is None else str(app.journal.path)
            print(f"READY url={server.url} journal={journal}", flush=True)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                print("shutting down", file=sys.stderr, flush=True)
            finally:
                server.close()
        finally:
            app.close()
    finally:
        pool.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
