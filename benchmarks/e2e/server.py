"""Launcher: boot the real HTTP server for one benchmark workload.

Builds the pool, app and server the way ``python -m repro.remote.serve``
does (one A100 worker and the CLI's serving defaults), except that the
optimization defaults are the workload's full ``OptimizationConfig``.  With
``--trace`` the layer wrappers of :mod:`tracer` are installed first.

Prints ``READY url=...`` once it serves, and runs until SIGTERM or SIGINT.
On exit it writes ``memo.json`` (the shared-memo snapshot) and, when
tracing, ``spans.jsonl`` into ``--out-dir``.  It writes nothing outside
``--cache-dir`` and ``--out-dir``.

    PYTHONPATH=src python3 benchmarks/e2e/server.py --workload greedy-search \\
        --cache-dir DIR/cache --out-dir DIR
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.pool import SessionPool  # noqa: E402
from repro.remote.app import RemoteApp  # noqa: E402
from repro.remote.serve import build_parser, configs_from_args  # noqa: E402
from repro.remote.server import RemoteServer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BY_NAME  # noqa: E402


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--cache-dir", required=True, type=Path)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    # The serving defaults of `python -m repro.remote.serve` with no flags.
    _, serve, remote = configs_from_args(build_parser().parse_args([]))
    signal.signal(signal.SIGTERM, _stop)

    pool = SessionPool(cache_dir=args.cache_dir, config=BY_NAME[args.workload].config)
    try:
        app = RemoteApp(pool, serve=serve, remote=remote)
        try:
            server = RemoteServer(app)
            print(f"READY url={server.url}", flush=True)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.close()
        finally:
            app.close()
    finally:
        memo = pool.shared_memo.snapshot() if pool.shared_memo is not None else {}
        pool.close()
        (args.out_dir / "memo.json").write_text(json.dumps(memo))
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.out_dir / "spans.jsonl")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
