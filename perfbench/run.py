"""The repository's benchmark: one workload, one seed, checked outputs.

Usage::

    python3 perfbench/run.py --workload {dse-grid,tune-mapping,serve-mixed} \\
        --seed N --seconds S --trace {0,1}

Prints every metric by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(tracing off); with ``--trace 1`` the run is repeated with tracing on
and the metrics are the per-layer ledger. Every operation's output is
compared with the digest recorded in ``digests.json``; a mismatch or an
error counts as a failed operation and the command exits 1.

See ``README.md`` in this directory for what each workload and metric
measures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import (
    HERE,
    NUMPY_IMPORT,
    READY,
    Op,
    calibrate,
    children_peak_rss_mb,
    host_factor,
    load_digests,
    numpy_import_seconds,
    p50_s,
    peak_rss_mb,
    percentile,
    points_per_s,
    supported_percentile,
    time_until_ready,
    use_checkout_sources,
)

WORKLOADS = ("dse-grid", "tune-mapping", "serve-mixed")

#: The end-to-end metrics and their units (see BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: Server boots timed per run for ``setup_s``; a fresh server serves the load.
SERVER_BOOTS = 7
#: The latency percentile the traced serve run reports (see serve_load.MIN_ANALYZE).
TAIL = 95.0


@dataclass
class Pass:
    """A sequence of operations and the wall-clock window they ran in."""

    ops: List[Op]
    window_ns: Tuple[int, int]


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    errors: List[str]
    #: Unscaled figures behind scaled metrics, printed for the reader.
    raw: Dict[str, float] = field(default_factory=dict)


def run_op(workload: Any, key: str, expected: Dict[str, Any]) -> Op:
    from repro import obs

    with obs.span("bench.op", key=key):
        try:
            began = time.perf_counter()
            output = workload.run(key)
            seconds = time.perf_counter() - began
        except Exception as error:  # a failed op is counted; the run goes on
            return Op(key, 0.0, 0, False, error=f"{type(error).__name__}: {error}")
        with obs.span("bench.check"):
            got = workload.digest(output)
        ok = got == expected.get(key)
        return Op(
            key,
            seconds,
            workload.points(output),
            ok,
            workload.counts(key, output),
            None if ok else f"digest {got} != {expected.get(key)}",
        )


def run_pass(workload: Any, keys: List[str], expected: Dict[str, Any], scale: bool) -> Pass:
    """Run ``keys`` in order; if ``scale``, sample the host's speed around each op."""
    start_ns = time.time_ns()
    ops = []
    before = calibrate() if scale else 0.0
    for key in keys:
        op = run_op(workload, key, expected)
        if scale:
            after = calibrate()
            op.factor = host_factor(before, after)
            before = after
        ops.append(op)
    return Pass(ops, (start_ns, time.time_ns()))


def timed_start(start: Callable[[], Tuple[float, float]]) -> Op:
    """One set-up probe, as an op: host seconds to ready net of numpy's import.

    ``start`` starts a process and returns its seconds to ready and the
    seconds it reported for ``import numpy`` (see ``common.NUMPY_IMPORT``);
    the host's speed is sampled on either side.
    """
    before = calibrate()
    seconds, numpy_import = start()
    op = Op("setup", seconds - numpy_import, 0, True)
    op.factor = host_factor(before, calibrate())
    return op


def summed(ops: List[Op]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for op in ops:
        for name, value in op.counts.items():
            totals[name] = totals.get(name, 0) + value
    return totals


def errors_of(ops: List[Op]) -> List[str]:
    return [f"{op.key}: {op.error}" for op in ops if op.error]


def run_inprocess(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    from inproc import WORKLOADS as INPROC

    expected = load_digests()[name]
    workload = INPROC[name]()
    # The same seed always does the same work: as many whole rounds as
    # fit in ``seconds`` on the reference machine.
    keys = workload.schedule(seed, max(1, round(seconds / workload.ROUND_SECONDS)))
    # Traced, the untraced pass only prices the tracing overhead, so the
    # first half of the keys is enough.
    plain = run_pass(workload, keys[: len(keys) // 2] if trace else keys, expected, not trace)
    ops = plain.ops
    if not trace:
        # The process-pool workers have ended; the set-up probes below
        # are children too, so read the peak before they start.
        rss = max(peak_rss_mb(), children_peak_rss_mb())
        probe = [sys.executable, str(HERE / "run.py"), "--setup-probe", name]

        def start() -> Tuple[float, float]:
            seconds, lines = time_until_ready(probe, READY)
            return seconds, numpy_import_seconds(lines)

        starts = [timed_start(start) for _ in range(SETUP_PROBES)]
        # Ops that raised did no measurable work; wrong outputs are timed.
        timed = [op for op in ops if op.points]

        def figures(scaled: bool) -> Dict[str, float]:
            return {
                "setup_s": p50_s(starts, scaled),
                "points_per_s": points_per_s(timed, scaled),
                "op_p50_ms": p50_s(timed, scaled) * 1e3,
            }

        failed = sum(not op.ok for op in ops)
        metrics = {**figures(True), "peak_rss_mb": rss}
        return Outcome(len(ops), failed, metrics, END_TO_END, errors_of(ops), figures(False))

    from ledger import PER_LAYER, as_views, install_wrappers, per_layer_metrics, write_artifacts
    from repro import obs

    install_wrappers()
    traced = run_pass(workload, keys, expected, scale=False)
    ops = plain.ops + traced.ops
    failed = sum(not op.ok for op in ops)
    spans = obs.export_spans()
    metrics = per_layer_metrics(
        as_views(spans),
        traced.window_ns,
        obs.metrics_snapshot()["counters"],
        summed(traced.ops),
        {
            "obs.trace_overhead_ratio": sum(op.seconds for op in traced.ops[: len(plain.ops)])
            / sum(op.seconds for op in plain.ops),
            "failed_ratio": failed / len(ops),
        },
    )
    write_artifacts(f"{name}-seed{seed}", spans, metrics)
    return Outcome(len(ops), failed, metrics, PER_LAYER, errors_of(ops))


def run_serve(seed: int, seconds: float, trace: bool) -> Outcome:
    from serve_load import BOOT_PROBE, Server, drive, make_schedule, traced_server

    expected = load_digests()["serve-mixed"]
    schedule = make_schedule(seed, seconds, list(expected["analyze"]), list(expected["dse"]))
    if not trace:

        def boot() -> Tuple[float, float]:
            server = Server(BOOT_PROBE)
            server.stop()
            return server.boot_seconds, server.numpy_import_seconds

        boots = [timed_start(boot) for _ in range(SERVER_BOOTS)]
        server = Server()
        try:
            load = drive(server.port, schedule, expected)
            rss = server.peak_rss_mb()
        finally:
            server.stop()

        def figures(scaled: bool) -> Dict[str, float]:
            return {
                "setup_s": p50_s(boots, scaled),
                "points_per_s": points_per_s(load.dse, scaled),
                "op_p50_ms": p50_s(load.analyze, scaled) * 1e3,
            }

        metrics = {**figures(True), "peak_rss_mb": rss}
        return Outcome(
            load.attempted, load.failed, metrics, END_TO_END, load.errors, figures(False)
        )

    from common import OUT
    from ledger import PER_LAYER, as_views, per_layer_metrics, write_artifacts

    # The untraced pass only prices the tracing overhead (dse throughput
    # with and without spans), so half the schedule is enough.
    server = Server()
    try:
        plain = drive(server.port, schedule.first_half(), expected)
    finally:
        server.stop()
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"serve-mixed-seed{seed}.server.json"
    server = Server(traced_server(dump))
    try:
        traced = drive(server.port, schedule, expected)
    finally:
        server.stop()
    recorded = json.loads(dump.read_text())
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    latencies = [op.seconds for op in traced.analyze]
    if (supported_percentile(len(latencies)) or 0.0) < TAIL:
        raise RuntimeError(f"{len(latencies)} requests cannot support a p{TAIL:g}")
    metrics = per_layer_metrics(
        as_views(recorded["spans"]),
        traced.window_ns,
        recorded["metrics"]["counters"],
        traced.counts,
        {
            "serve.analyze_p95_ms": percentile(latencies, TAIL) * 1e3,
            "loadgen.sent": len(traced.lateness),
            "loadgen.late_p95_ms": percentile(traced.lateness, TAIL) * 1e3,
            # Tracing slows the dse stream; the analyze schedule is fixed.
            # Both fresh servers ran the same first jobs.
            "obs.trace_overhead_ratio": points_per_s(plain.dse, False)
            / points_per_s(traced.dse[: len(plain.dse)], False),
            "failed_ratio": failed / attempted,
        },
        traced.in_flight_ns,
    )
    write_artifacts(f"serve-mixed-seed{seed}", recorded["spans"], metrics)
    return Outcome(attempted, failed, metrics, PER_LAYER, plain.errors + traced.errors)


def setup_probe(name: str) -> int:
    """What a fresh process does before it can run ``name``: imports, zoo builds.

    numpy's import is timed on its own first (see ``common.NUMPY_IMPORT``).
    """
    began = time.perf_counter()
    import numpy  # noqa: F401

    print(f"{NUMPY_IMPORT} {time.perf_counter() - began!r}", flush=True)
    from inproc import WORKLOADS as INPROC

    INPROC[name]()
    print(READY, flush=True)
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS[:2], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload == "serve-mixed":
        outcome = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in outcome.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for name, value in outcome.raw.items():
        print(f"{'unscaled ' + name:<32} {value:>16.6g} {outcome.units[name]}")
    for name, value in outcome.metrics.items():
        print(f"{name:<32} {value:>16.6g} {outcome.units[name]}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": outcome.units[name]}
                    for name, value in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
