"""The traced run: spans around each stack layer and the self-time ledger.

:func:`install_wrappers` turns on the spans :mod:`repro.obs` already
records (engine phases, ``dse.*``, ``tuner.*``, ``exec.*``,
``serve.shard``) and, for layers that record none, wraps their public
functions where they are called. The module attribute of the call site
is patched, because ``dse/explorer.py`` and ``tuner/search.py`` import
some of these functions by name. The wrappers open ordinary
:func:`repro.obs.span` spans, so process-pool workers (forked with the
patched modules) ship them home with the program's own spans.

:func:`self_times` turns a span list into per-layer self time. With one
thread, a span's self time is its duration minus the part of it that
its child spans cover. Threads, worker processes and the server's
concurrent requests overlap, so each instant of the window is split
evenly between the innermost spans open at that instant; the shares,
plus the time no span covers, add up to the window. For a server, the
time no span covers and no request is in flight is ``idle``; the rest
of it is ``other``.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Span name -> ledger row. Several spans may feed one row.
ROWS: Dict[str, str] = {
    "engine.binding": "engines.binding",
    "engine.tensor_analysis": "engines.tensor",
    "engine.reuse": "engines.reuse",
    "engine.performance": "engines.performance",
    "engine.accounting": "engines.accounting",
    "engines.analyze": "engines.analyze",
    "vector.lower": "vector.lower",
    "vector.eval": "vector.eval",
    "dse.explore": "dse.explore",
    "dse.evaluate": "dse.explore",
    "dse.bnb": "dse.explore",
    "dse.enumerate": "dse.enumerate",
    "dse.fold": "dse.fold",
    "dse.pareto": "dse.pareto",
    "lint": "lint",
    "dse.static_screen": "screen.lint",
    "screen.verify": "screen.verify",
    "dse.verify_screen": "screen.verify",
    "tuner.verify_screen": "screen.verify",
    "tuner.symbolic_screen": "screen.symbolic",
    "screen.comm": "screen.comm",
    "dse.comm_screen": "screen.comm",
    "tuner.comm_screen": "screen.comm",
    "screen.equiv": "screen.equiv",
    "dse.equiv_screen": "screen.equiv",
    "tuner.equiv_screen": "screen.equiv",
    "screen.capacity": "screen.capacity",
    "tuner.capacity_screen": "screen.capacity",
    "exec.evaluate": "exec",
    "exec.serial_evaluate": "exec",
    "exec.vector_evaluate": "exec",
    "exec.vector_group": "exec",
    "exec.cache_lookup": "exec.cache",
    "exec.cache_store": "exec.cache",
    "exec.cache.get": "exec.cache",
    "exec.cache.put": "exec.cache",
    "exec.cache.key": "exec.cache.key",
    "exec.process_pool": "exec.process",
    "exec.worker_chunk": "exec.process",
    "tuner.tune": "tuner",
    "tuner.enumerate": "tuner",
    "tuner.evaluate": "tuner",
    "tuner.score": "tuner",
    "serve.http": "serve.http",
    "serve.validate": "serve.validate",
    "serve.job": "serve.job",
    "serve.shards": "serve.shards",
    "serve.shard": "serve.shards",
    "bench.op": "bench",
    "bench.check": "bench",
}

#: Every ledger row, in report order; ``other`` is time no span covers,
#: ``idle`` the part of it in which a server had no request in flight.
LEDGER_ROWS: Tuple[str, ...] = tuple(dict.fromkeys(ROWS.values())) + ("other", "idle")


def _wrap(owner: Any, attr: str, name: str) -> None:
    original = getattr(owner, attr)
    from repro import obs

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, traced)


def _wrap_async(owner: Any, attr: str, name: str) -> None:
    original = getattr(owner, attr)
    from repro import obs

    @functools.wraps(original)
    async def traced(*args: Any, **kwargs: Any) -> Any:
        with obs.span(name):
            return await original(*args, **kwargs)

    setattr(owner, attr, traced)


class _ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks inherit the submitter's span context."""

    def submit(self, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def install_wrappers() -> None:
    """Enable :mod:`repro.obs` and wrap the layers that record no span."""
    import repro.capacity
    import repro.comm
    import repro.dse.explorer
    import repro.equiv
    import repro.exec.backend
    import repro.lint
    import repro.tuner.search
    import repro.verify
    from repro import obs
    from repro.exec import AnalysisCache, BatchEvaluator

    obs.configure(enabled=True, reset=True)
    _wrap(repro.lint, "lint_dataflow", "lint")
    _wrap(repro.dse.explorer, "static_errors", "lint")
    _wrap(repro.tuner.search, "static_errors", "lint")
    _wrap(repro.verify, "verify_dataflow", "screen.verify")
    _wrap(repro.equiv, "canonicalize", "screen.equiv")
    _wrap(repro.capacity, "capacity_requirements", "screen.capacity")
    _wrap(repro.capacity, "compute_capacity_bounds", "screen.capacity")
    _wrap(repro.comm, "reduction_demand", "screen.comm")
    _wrap(repro.exec.backend, "cache_key", "exec.cache.key")
    _wrap(repro.exec.backend, "lower_group", "vector.lower")
    _wrap(repro.exec.backend, "evaluate_grid", "vector.eval")
    _wrap(repro.exec.backend, "analyze_layer", "engines.analyze")
    _wrap(AnalysisCache, "get", "exec.cache.get")
    _wrap(AnalysisCache, "put", "exec.cache.put")
    _wrap(repro.dse.explorer.DSEResult, "pareto", "dse.pareto")

    evaluate = BatchEvaluator.evaluate

    @functools.wraps(evaluate)
    def counted(self: Any, points: Any) -> Any:
        result = evaluate(self, points)
        obs.inc(f"perfbench.exec.points.{result.stats.executor}", result.stats.evaluated)
        return result

    BatchEvaluator.evaluate = counted  # type: ignore[method-assign]


def install_serve_wrappers() -> None:
    """The server-side wrappers, on top of :func:`install_wrappers`."""
    import repro.serve.app
    import repro.serve.protocol
    import repro.serve.shards
    from repro import obs
    from repro.serve.app import AnalysisServer

    install_wrappers()
    _wrap(repro.serve.protocol, "validate", "serve.validate")
    _wrap(repro.serve.app, "sharded_explore", "serve.shards")
    _wrap(repro.serve.shards, "explore", "dse.explore")
    # Shard threads would otherwise start with an empty span context and
    # their sweeps would not nest under the job that waits for them.
    repro.serve.shards.ThreadPoolExecutor = _ContextThreadPool  # type: ignore[misc]
    for work in ("_work_analyze", "_work_lint", "_work_verify", "_work_tune", "_work_dse"):
        _wrap(AnalysisServer, work, "serve.job")
    _wrap_async(AnalysisServer, "_handle_connection", "serve.http")

    start = AnalysisServer.start

    @functools.wraps(start)
    async def start_with_queue_clock(self: Any) -> None:
        slots = self._slots
        acquire = slots.acquire

        async def timed_acquire() -> bool:
            began = time.perf_counter_ns()
            try:
                return await acquire()
            finally:
                obs.inc("perfbench.serve.queue_wait_ns", time.perf_counter_ns() - began)

        slots.acquire = timed_acquire
        await start(self)

    AnalysisServer.start = start_with_queue_clock  # type: ignore[method-assign]


@dataclass(frozen=True)
class SpanView:
    """The part of a span record the ledger needs."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    end_ns: int


def as_views(records: Iterable[Mapping[str, Any]]) -> List[SpanView]:
    """Span dicts (as :func:`repro.obs.export_spans` writes them) as views."""
    return [
        SpanView(
            span_id=r["span_id"],
            parent_id=r.get("parent_id"),
            name=r["name"],
            start_ns=r["start_ns"],
            end_ns=r["start_ns"] + r["dur_ns"],
        )
        for r in records
    ]


def self_times(
    spans: List[SpanView],
    window: Tuple[int, int],
    in_flight: Optional[List[Tuple[int, int]]] = None,
) -> Dict[str, float]:
    """Seconds of ``window`` attributed to each span name, plus ``other``.

    At every instant the innermost open spans (open spans with no open
    child) share the instant evenly; instants no span covers go to
    ``other``. For one thread this is each span's duration minus the
    time its children cover, and the result always sums to the window.

    ``in_flight`` (for a server) lists the intervals in which the client
    had a request outstanding; instants that neither a span nor one of
    these covers go to ``idle`` instead of ``other``.
    """
    lo, hi = window
    by_id = {span.span_id: span for span in spans}
    depth: Dict[int, int] = {}
    for span in spans:
        chain = []
        node: Optional[SpanView] = span
        while node is not None and node.span_id not in depth:
            chain.append(node.span_id)
            node = by_id.get(node.parent_id) if node.parent_id is not None else None
        base = depth[node.span_id] + 1 if node is not None else 0
        for offset, span_id in enumerate(reversed(chain)):
            depth[span_id] = base + offset
    events: List[Tuple[int, int, int, int, SpanView]] = []
    for span in spans:
        start, end = max(span.start_ns, lo), min(span.end_ns, hi)
        if start < end:
            # Same instant: closes before opens, parents open first and
            # close last.
            level = depth[span.span_id]
            events.append((start, 1, -end, level, span))
            events.append((end, 0, -start, -level, span))
    events.sort(key=lambda event: event[:4])
    totals: Dict[str, float] = {"other": 0.0}
    open_children: Dict[int, int] = {}
    nested: set = set()  # open spans counted as an open child of their parent
    leaves: Dict[int, SpanView] = {}
    cursor = lo
    for when, opening, _, _, span in events:
        if when > cursor:
            share = (when - cursor) / 1e9
            if leaves:
                share /= len(leaves)
                for leaf in leaves.values():
                    totals[leaf.name] = totals.get(leaf.name, 0.0) + share
            else:
                totals["other"] += share
            cursor = when
        parent = span.parent_id
        if opening:
            open_children[span.span_id] = 0
            leaves[span.span_id] = span
            if parent in open_children:
                open_children[parent] += 1
                nested.add(span.span_id)
                leaves.pop(parent, None)
        else:
            del open_children[span.span_id]
            leaves.pop(span.span_id, None)
            if span.span_id in nested:
                nested.discard(span.span_id)
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves[parent] = by_id[parent]
    if hi > cursor:
        totals["other"] += (hi - cursor) / 1e9
    if in_flight is not None:
        covered = [(span.start_ns, span.end_ns) for span in spans] + list(in_flight)
        totals["idle"] = uncovered_seconds(covered, window)
        totals["other"] -= totals["idle"]
    return totals


def uncovered_seconds(intervals: List[Tuple[int, int]], window: Tuple[int, int]) -> float:
    """Seconds of ``window`` that none of ``intervals`` (in ns) covers."""
    lo, hi = window
    free, cursor = 0, lo
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        if start > cursor:
            free += min(start, hi) - cursor
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    return (free + max(0, hi - cursor)) / 1e9


def row_self_times(by_name: Mapping[str, float]) -> Dict[str, float]:
    """Per-span-name seconds folded into :data:`LEDGER_ROWS`.

    A span name missing from :data:`ROWS` counts as ``other``: time the
    ledger cannot attribute to a layer. ``idle`` stays its own row.
    """
    rows = dict.fromkeys(LEDGER_ROWS, 0.0)
    for name, seconds in by_name.items():
        rows["idle" if name == "idle" else ROWS.get(name, "other")] += seconds
    return rows


SCREENS = ("lint", "verify", "symbolic", "comm", "equiv", "capacity")

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER: Dict[str, str] = {
    **{f"{row}.self_s": "s" for row in LEDGER_ROWS},
    "trace.wall_s": "s",
    "lint.calls": "count",
    "engines.layers_analyzed": "count",
    "vector.points": "count",
    "vector.fallback_ratio": "ratio",
    "dse.cost_model_calls": "count",
    "dse.calls_avoided_ratio": "ratio",
    **{f"screen.{screen}.rejects": "count" for screen in SCREENS},
    **{f"screen.{screen}.reject_ratio": "ratio" for screen in SCREENS},
    "exec.points": "count",
    "exec.points.serial": "count",
    "exec.points.process": "count",
    "exec.points.vector": "count",
    "exec.cache.hit_ratio": "ratio",
    "exec.cache.puts": "count",
    "exec.singleflight_hits": "count",
    "tuner.candidates": "count",
    "tuner.rejects": "count",
    "serve.queue_wait_s": "s",
    "serve.singleflight_hits": "count",
    "serve.status_non2xx": "count",
    "serve.analyze_p95_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.late_p95_ms": "ms",
    "obs.trace_overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    spans: List[SpanView],
    window: Tuple[int, int],
    counters: Mapping[str, float],
    counts: Mapping[str, int],
    extra: Mapping[str, float],
    in_flight: Optional[List[Tuple[int, int]]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``counters`` is the :mod:`repro.obs` registry of the process that
    did the work, ``counts`` the workload's own tallies (screen
    rejects, sweep calls), ``extra`` what only the caller knows
    (load-generator figures, tracing overhead, failures), ``in_flight``
    a server's busy intervals (see :func:`self_times`).
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for row, seconds in row_self_times(self_times(spans, window, in_flight)).items():
        metrics[f"{row}.self_s"] = seconds
    metrics["trace.wall_s"] = (window[1] - window[0]) / 1e9
    names = [span.name for span in spans if window[0] <= span.start_ns < window[1]]
    metrics["lint.calls"] = names.count("lint")
    metrics["engines.layers_analyzed"] = names.count("engine.binding")
    metrics["exec.cache.puts"] = names.count("exec.cache.put")
    vectorized = counters.get("exec.vector.points_vectorized", 0)
    fallback = counters.get("exec.vector.points_fallback", 0)
    metrics["vector.points"] = vectorized
    metrics["vector.fallback_ratio"] = _ratio(fallback, vectorized + fallback)
    calls = counts.get("dse.cost_model_calls", 0)
    metrics["dse.cost_model_calls"] = calls
    explored = counts.get("dse.explored", 0)
    metrics["dse.calls_avoided_ratio"] = _ratio(explored - calls, explored)
    for screen in SCREENS:
        rejects = counts.get(f"screen.{screen}.rejects", 0)
        metrics[f"screen.{screen}.rejects"] = rejects
        metrics[f"screen.{screen}.reject_ratio"] = _ratio(
            rejects, counts.get(f"screen.{screen}.screened", 0)
        )
    metrics["exec.points"] = counters.get("exec.points_submitted", 0)
    for executor in ("serial", "process", "vector"):
        metrics[f"exec.points.{executor}"] = counters.get(
            f"perfbench.exec.points.{executor}", 0
        )
    hits = counters.get("cache.memory_hits", 0) + counters.get("cache.disk_hits", 0)
    metrics["exec.cache.hit_ratio"] = _ratio(hits, hits + counters.get("cache.misses", 0))
    metrics["exec.singleflight_hits"] = counters.get("exec.cache.singleflight_hits", 0)
    metrics["tuner.candidates"] = counts.get("tuner.candidates", 0)
    metrics["tuner.rejects"] = counts.get("tuner.rejects", 0)
    metrics["serve.queue_wait_s"] = counters.get("perfbench.serve.queue_wait_ns", 0) / 1e9
    metrics["serve.singleflight_hits"] = counters.get("serve.singleflight_hits", 0)
    metrics["serve.status_non2xx"] = sum(
        value
        for name, value in counters.items()
        if name.startswith("serve.responses.") and not name.rsplit(".", 1)[1].startswith("2")
    )
    metrics.update(extra)
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return metrics


def write_artifacts(stem: str, spans: List[Mapping[str, Any]], metrics: Mapping[str, float]) -> Path:
    """The Perfetto trace and the per-layer table, written once per run."""
    from common import OUT
    from repro.obs.exporters import to_perfetto

    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.perfetto.json").write_text(json.dumps(to_perfetto(spans)))
    table = OUT / f"{stem}.ledger.txt"
    table.write_text(format_ledger(metrics))
    return table


def format_ledger(metrics: Mapping[str, float]) -> str:
    """Self time per layer, largest first, with its share of the window."""
    wall = metrics["trace.wall_s"] or 1.0
    rows = sorted(
        (value, name[: -len(".self_s")])
        for name, value in metrics.items()
        if name.endswith(".self_s")
    )
    lines = [f"{'layer':<22}{'self_s':>10}{'share':>8}"]
    lines += [
        f"{name:<22}{value:>10.3f}{value / wall:>8.1%}"
        for value, name in reversed(rows)
        if value > 0
    ]
    lines.append(f"{'window':<22}{wall:>10.3f}")
    return "\n".join(lines) + "\n"
