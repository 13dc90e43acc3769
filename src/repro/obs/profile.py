"""Profiling helpers: file writers, per-phase timing, digest lines.

The glue between the tracing/metrics core and its consumers: the
``--trace-out``/``--metrics-out`` CLI flags, the ``repro profile``
subcommand, the bench job's ``BENCH_obs.json``, and the one-line
metrics digest ``dse``/``tune`` always print.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.obs import metrics, trace
from repro.obs.exporters import SpanLike, span_summary, to_perfetto, to_prometheus

#: The span names the engine phases of :func:`repro.engines.analyze_layer`
#: record — the per-phase axis of BENCH_obs.json and the overhead gate.
ENGINE_PHASES = (
    "engine.binding",
    "engine.tensor_analysis",
    "engine.reuse",
    "engine.performance",
    "engine.accounting",
)


def write_trace(
    path: Union[str, Path], spans: Optional[Iterable[SpanLike]] = None
) -> Path:
    """Write the trace buffer (or ``spans``) as Perfetto-loadable JSON."""
    path = Path(path)
    payload = to_perfetto(trace.spans() if spans is None else spans)
    path.write_text(json.dumps(payload, indent=1))
    return path


def write_metrics(
    path: Union[str, Path], snapshot: Optional[Mapping[str, Any]] = None
) -> Path:
    """Write the metrics registry (or ``snapshot``) as Prometheus text."""
    path = Path(path)
    path.write_text(to_prometheus(metrics.snapshot() if snapshot is None else snapshot))
    return path


def phase_timings(
    spans: Optional[Iterable[SpanLike]] = None,
    phases: Iterable[str] = ENGINE_PHASES,
) -> Dict[str, Dict[str, float]]:
    """Per-phase self-time aggregate plus each phase's share of the total.

    Shares are fractions of the summed phase self-time, which makes them
    comparable across machines — the property the bench job's per-phase
    regression check relies on.
    """
    summary = span_summary(trace.spans() if spans is None else spans)
    phases = list(phases)
    total = sum(summary.get(name, {}).get("self_ns", 0.0) for name in phases) or 1.0
    report: Dict[str, Dict[str, float]] = {}
    for name in phases:
        entry = summary.get(name, {"count": 0, "self_ns": 0.0, "cpu_ns": 0.0})
        report[name] = {
            "count": int(entry.get("count", 0)),
            "self_ns": float(entry.get("self_ns", 0.0)),
            "cpu_ns": float(entry.get("cpu_ns", 0.0)),
            "share": float(entry.get("self_ns", 0.0)) / total,
        }
    return report


def digest_line(
    *,
    evaluated: int,
    cost_model_calls: int,
    cache_hits: int,
    pruned: Mapping[str, int],
    wall_seconds: float,
) -> str:
    """The one-line metrics digest ``dse``/``tune`` print unconditionally.

    ``pruned`` holds the rejects of every enabled screen, by screen name
    (:func:`repro.screens.enabled_rejects`), printed in its order as
    ``pruned-by-<name>=N``. Sourced from the sweep's own statistics (not
    the obs registry), so it is accurate with tracing disabled — the
    default.
    """
    hit_rate = cache_hits / cost_model_calls * 100.0 if cost_model_calls else 0.0
    screens = "".join(f"pruned-by-{name}={count} " for name, count in pruned.items())
    return (
        f"metrics: evaluated={evaluated} cache-hit={hit_rate:.1f}% "
        f"{screens}wall={wall_seconds:.2f}s"
    )
