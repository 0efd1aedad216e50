"""Per-layer metrics of one run, named after the ``repro`` packages.

Two sources feed them:

* counters every run has, over the timed window: the timed jobs' records
  (``submitted_at``, ``started_at``, ``finished_at``) and ``/metrics`` read
  at both ends of the window; and the shared-memo snapshot the launcher
  writes at exit, which covers the server's whole life;
* spans from a traced run (see :mod:`tracer`): every span the last server
  recorded, from its readiness job through the warm-up (which runs both
  search strategies and a store hit on every workload) and the timed window
  to the journal compaction at shutdown.  So every layer is timed on every
  workload, though on some only by warm-up jobs.  A span's self time is its
  duration minus the time its child spans cover.

Call counts are per job the server optimized (``Session.optimize`` calls),
except journal appends, which are per submission.  A metric with no samples
reads 0.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; ``inf`` propagates."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    if math.isinf(ordered[lo]) or math.isinf(ordered[hi]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


#: Median duration in ms, by metric, of the spans with this name.
_P50_MS = {
    "remote.submit_ms_p50": "remote.submit",
    "remote.result_ms_p50": "remote.result",
    "remote.journal_append_ms_p50": "remote.journal_append",
    "serve.store_audit_ms_p50": "serve.store_audit",
    "api.optimize_ms_p50": "api.optimize",
    "api.cache_store_ms_p50": "api.cache_store",
    "api.compile_ms_p50": "api.compile",
    "api.verify_ms_p50": "api.verify",
    "triton.compile_ms_p50": "triton.compile",
    "triton.lower_ms_p50": "triton.lower",
    "triton.ptxas_ms_p50": "triton.ptxas",
    "sass.splice_ms_p50": "sass.splice",
    "analysis.verifier_build_ms_p50": "analysis.verifier_build",
    "analysis.verify_ms_p50": "analysis.verify",
    "analysis.pregame_ms_p50": "analysis.pregame",
    "core.env_setup_ms_p50": "core.env_setup",
    "core.mask_ms_p50": "core.mask",
    "rl.act_ms_p50": "rl.act",
    "sim.measure_ms_p50": "sim.measure",
    "sim.decode_ms_p50": "sim.decode",
    "sim.functional_run_ms_p50": "sim.functional_run",
}
#: Median self time in ms.
_SELF_P50_MS = {
    "core.step_self_ms_p50": "core.step",
    "baselines.search_self_ms_p50": "baselines.greedy",
    "rl.train_self_ms_p50": "rl.train",
}
#: Calls per optimized job.
_PER_JOB = {
    "triton.compiles_per_job": "triton.compile",
    "analysis.is_legal_calls": "analysis.is_legal",
    "core.steps_per_job": "core.step",
    "rl.acts_per_job": "rl.act",
    "sim.measurements_per_job": "sim.measure",
}


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = span["end"] - span["start"] - covered
    return result


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """The traced (T) metrics from the spans of one server."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name: str) -> list[float]:
        return [span["end"] - span["start"] for span in by_name.get(name, ())]

    def per(name: str, unit: str) -> float:
        units = len(by_name.get(unit, ()))
        return len(by_name.get(name, ())) / units if units else 0.0

    self_time = _self_times(spans)
    metrics = {
        metric: percentile(durations(name), 50) * 1e3 for metric, name in _P50_MS.items()
    }
    for metric, name in _SELF_P50_MS.items():
        metrics[metric] = percentile(
            [self_time[span["id"]] for span in by_name.get(name, ())], 50
        ) * 1e3
    for metric, name in _PER_JOB.items():
        metrics[metric] = per(name, "api.optimize")
    metrics["remote.journal_appends"] = per("remote.journal_append", "remote.submit")

    metrics["remote.journal_compact_ms_max"] = max(
        durations("remote.journal_compact"), default=0.0
    ) * 1e3
    metrics["analysis.is_legal_us_p50"] = percentile(durations("analysis.is_legal"), 50) * 1e6
    measures = by_name.get("sim.measure", [])
    measure_s = sum(durations("sim.measure"))
    metrics["sim.evals_per_s"] = len(measures) / measure_s if measure_s else 0.0
    metrics["sim.cycles_per_s"] = (
        sum(span["value"] for span in measures) / measure_s if measure_s else 0.0
    )
    return metrics


def counter_metrics(
    records: list[dict],
    before: dict,
    after: dict,
    memo: dict,
    window_s: float,
) -> dict[str, float]:
    """The counters (U) every run has, over the timed jobs' records."""
    started = [r for r in records if r["started_at"] is not None]
    finished = [r for r in started if r["finished_at"] is not None]
    done = [r for r in records if r["status"] == "done"]

    workers = len(after["pool"]["workers"]) or 1
    busy = sum(w["busy_s"] for w in after["pool"]["workers"]) - sum(
        w["busy_s"] for w in before["pool"]["workers"]
    )
    waits = [(r["started_at"] - r["submitted_at"]) * 1e3 for r in started]
    return {
        "serve.queue_wait_ms_p50": percentile(waits, 50),
        "serve.queue_wait_ms_p90": percentile(waits, 90),
        "serve.service_ms_p50": percentile(
            [(r["finished_at"] - r["started_at"]) * 1e3 for r in finished], 50
        ),
        "serve.store_hit_ratio": (
            sum(1 for r in done if r["from_store"]) / len(done) if done else 0.0
        ),
        "pool.worker_busy_ratio": busy / (workers * window_s) if window_s > 0 else 0.0,
        "pool.memo_hit_ratio": memo["hits"] / memo["lookups"] if memo.get("lookups") else 0.0,
    }
