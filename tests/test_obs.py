"""Tests for the observability subsystem (repro.obs).

Covers the tracing core (nesting, the disabled no-op path, cross-process
re-parenting), the metrics registry (counters, gauges, histograms,
snapshot/merge), the exporters (Perfetto structure, the Prometheus
round trip), and the wiring: the five engine phases recorded under
``analyze_layer``, worker spans adopted across a real process pool, and
the CLI surface (``profile``, ``--trace-out``/``--metrics-out``, the
always-on digest line).
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.dataflow.library import kc_partitioned, yr_partitioned
from repro.engines.analysis import analyze_layer
from repro.exec import BatchEvaluator, EvalPoint
from repro.hardware.accelerator import Accelerator, NoC
from repro.model.layer import conv2d
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.exporters import (
    metrics_table,
    parse_prometheus,
    prometheus_name,
    span_summary,
    span_summary_table,
    span_tree,
    to_perfetto,
    to_prometheus,
)
from repro.obs.profile import (
    ENGINE_PHASES,
    digest_line,
    phase_timings,
    write_metrics,
    write_trace,
)


@pytest.fixture(autouse=True)
def obs_disabled_after():
    """Every test leaves the process-global registry off and empty."""
    yield
    obs.configure(enabled=False, reset=True)


@pytest.fixture
def enabled():
    obs.configure(enabled=True, reset=True)


@pytest.fixture
def layer():
    return conv2d("obs-t", k=16, c=16, y=12, x=12, r=3, s=3)


@pytest.fixture
def accel():
    return Accelerator(num_pes=64, noc=NoC(bandwidth=32, avg_latency=2))


class TestTraceCore:
    def test_disabled_by_default_records_nothing(self):
        assert not obs.is_enabled()
        with obs.span("never", k=1):
            pass
        assert obs.spans() == []

    def test_disabled_span_is_the_shared_noop_singleton(self):
        assert obs.span("a") is obs.NOOP_SPAN
        assert obs.span("b", x=1) is obs.NOOP_SPAN
        assert obs.NOOP_SPAN.set(x=2) is obs.NOOP_SPAN

    def test_nesting_builds_the_parent_chain(self, enabled):
        with obs.span("outer"):
            with obs.span("inner"):
                assert obs.current_span_id() is not None
        assert obs.current_span_id() is None
        inner, outer = obs.spans()  # finish order: inner first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.dur_ns >= inner.dur_ns >= 0
        assert outer.cpu_ns >= 0

    def test_attrs_and_set(self, enabled):
        with obs.span("s", layer="CONV1") as live:
            live.set(extra=3)
        (record,) = obs.spans()
        assert record.attrs == {"layer": "CONV1", "extra": 3}

    def test_exception_still_records_and_unwinds(self, enabled):
        with pytest.raises(RuntimeError):
            with obs.span("broken"):
                raise RuntimeError("boom")
        (record,) = obs.spans()
        assert record.name == "broken"
        assert obs.current_span_id() is None

    def test_configure_reset_clears_both_registries(self, enabled):
        with obs.span("s"):
            obs.inc("c")
        obs.configure(enabled=True, reset=True)
        assert obs.spans() == []
        assert obs.counter_value("c") == 0

    def test_record_dict_roundtrip(self, enabled):
        with obs.span("s", k=1):
            pass
        (record,) = obs.spans()
        assert obs.SpanRecord.from_dict(record.to_dict()) == record


class TestAdoptSpans:
    def test_remaps_ids_and_reparents_roots(self, enabled):
        # A fake worker export with its own (colliding) id space.
        worker = [
            {"span_id": 1, "parent_id": None, "name": "w.root", "start_ns": 10,
             "dur_ns": 5, "pid": 999},
            {"span_id": 2, "parent_id": 1, "name": "w.child", "start_ns": 11,
             "dur_ns": 3, "pid": 999},
        ]
        with obs.span("driver.pool") as live:
            assert obs.adopt_spans(worker) == 2
            driver_id = live.record.span_id
        by_name = {record.name: record for record in obs.spans()}
        root, child = by_name["w.root"], by_name["w.child"]
        assert root.parent_id == driver_id  # re-parented under the driver
        assert child.parent_id == root.span_id  # internal edge remapped
        ids = {record.span_id for record in obs.spans()}
        assert len(ids) == 3  # fresh ids, no collisions

    def test_explicit_parent_wins(self, enabled):
        worker = [{"span_id": 7, "parent_id": None, "name": "w", "start_ns": 0}]
        obs.adopt_spans(worker, parent_id=42)
        (record,) = obs.spans()
        assert record.parent_id == 42


class TestMetrics:
    def test_counters_add_and_default_to_zero(self, enabled):
        assert obs.counter_value("c") == 0
        obs.inc("c")
        obs.inc("c", 4)
        assert obs.counter_value("c") == 5

    def test_disabled_writers_are_noops(self):
        obs.inc("c")
        obs.set_gauge("g", 2.0)
        obs.observe("h", 0.5)
        snap = obs.metrics_snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_gauges_last_writer_wins(self, enabled):
        obs.set_gauge("g", 3.0)
        obs.set_gauge("g", 1.0)
        assert obs.gauge_value("g") == 1.0

    def test_histogram_buckets_are_le_inclusive(self, enabled):
        obs.observe("h", 1e-3)  # exactly a bound: falls in that bucket
        obs.observe("h", 5e-3)
        obs.observe("h", 99.0)  # above every bound: +Inf slot
        hist = obs.metrics_snapshot()["histograms"]["h"]
        bounds = hist["buckets"]
        assert hist["counts"][bounds.index(1e-3)] == 1
        assert hist["counts"][bounds.index(1e-2)] == 1
        assert hist["counts"][-1] == 1
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(1e-3 + 5e-3 + 99.0)

    def test_merge_folds_a_worker_snapshot(self, enabled):
        obs.inc("c", 2)
        obs.set_gauge("g", 1.0)
        obs.observe("h", 0.5)
        worker = {
            "counters": {"c": 3, "new": 1},
            "gauges": {"g": 9.0},
            "histograms": {
                "h": {
                    "buckets": list(obs_metrics.DEFAULT_BUCKETS),
                    "counts": [0] * len(obs_metrics.DEFAULT_BUCKETS) + [1],
                    "sum": 50.0,
                    "count": 1,
                }
            },
        }
        obs.merge_metrics(worker)
        assert obs.counter_value("c") == 5
        assert obs.counter_value("new") == 1
        assert obs.gauge_value("g") == 9.0
        hist = obs.metrics_snapshot()["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(50.5)


class TestExporters:
    def test_perfetto_structure(self, enabled):
        with obs.span("engine.reuse", layer="CONV1"):
            pass
        payload = to_perfetto(obs.spans())
        assert payload["displayTimeUnit"] == "ms"
        (event,) = payload["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "engine.reuse"
        assert event["cat"] == "engine"
        assert event["args"]["layer"] == "CONV1"
        assert event["dur"] >= 0
        json.dumps(payload)  # loadable = serializable

    def test_prometheus_round_trip(self, enabled):
        obs.inc("cache.hits", 7)
        obs.set_gauge("exec.chunk_queue_depth", 3.0)
        obs.observe("eval.seconds", 2e-3)
        obs.observe("eval.seconds", 42.0)
        text = to_prometheus(obs.metrics_snapshot())
        parsed = parse_prometheus(text)
        assert parsed["counters"][prometheus_name("cache.hits")] == 7
        assert parsed["gauges"][prometheus_name("exec.chunk_queue_depth")] == 3.0
        hist = parsed["histograms"][prometheus_name("eval.seconds")]
        original = obs.metrics_snapshot()["histograms"]["eval.seconds"]
        assert hist["buckets"] == original["buckets"]
        assert hist["counts"] == original["counts"]
        assert hist["count"] == original["count"]
        assert hist["sum"] == pytest.approx(original["sum"])

    def test_prometheus_name_sanitizes(self):
        assert prometheus_name("dse.mappings-evaluated") == (
            "repro_dse_mappings_evaluated"
        )

    def test_span_summary_self_time_excludes_children(self):
        spans = [
            {"span_id": 2, "parent_id": 1, "name": "child", "start_ns": 0,
             "dur_ns": 30, "cpu_ns": 0},
            {"span_id": 1, "parent_id": None, "name": "parent", "start_ns": 0,
             "dur_ns": 100, "cpu_ns": 0},
        ]
        summary = span_summary(spans)
        assert summary["parent"]["self_ns"] == 70
        assert summary["parent"]["total_ns"] == 100
        assert summary["child"]["self_ns"] == 30

    def test_text_renderers_smoke(self, enabled):
        with obs.span("outer", k=1):
            with obs.span("inner"):
                pass
        obs.inc("c")
        obs.observe("h", 0.1)
        assert "outer" in span_summary_table(obs.spans())
        tree = span_tree(obs.spans())
        assert tree.index("outer") < tree.index("  inner")
        assert "c" in metrics_table(obs.metrics_snapshot())


class TestProfileHelpers:
    def test_write_trace_and_metrics(self, enabled, tmp_path):
        with obs.span("s"):
            obs.inc("c")
        trace_path = write_trace(tmp_path / "t.json")
        loaded = json.loads(trace_path.read_text())
        assert loaded["traceEvents"][0]["name"] == "s"
        metrics_path = write_metrics(tmp_path / "m.prom")
        assert parse_prometheus(metrics_path.read_text())["counters"] == {
            prometheus_name("c"): 1
        }

    def test_phase_timings_shares_sum_to_one(self, enabled, layer, accel):
        analyze_layer(layer, kc_partitioned(c_tile=8), accel)
        report = phase_timings()
        assert set(report) == set(ENGINE_PHASES)
        assert all(entry["count"] == 1 for entry in report.values())
        assert sum(entry["share"] for entry in report.values()) == pytest.approx(1.0)

    def test_digest_line_format(self):
        line = digest_line(
            evaluated=10, cost_model_calls=20, cache_hits=5,
            pruned={"lint": 3, "verify": 1, "capacity": 7}, wall_seconds=0.5,
        )
        assert line == (
            "metrics: evaluated=10 cache-hit=25.0% "
            "pruned-by-lint=3 pruned-by-verify=1 pruned-by-capacity=7 wall=0.50s"
        )
        assert digest_line(
            evaluated=0, cost_model_calls=0, cache_hits=0,
            pruned={}, wall_seconds=0.0,
        ) == "metrics: evaluated=0 cache-hit=0.0% wall=0.00s"


class TestEngineInstrumentation:
    def test_analyze_layer_records_all_five_phases(self, enabled, layer, accel):
        analyze_layer(layer, kc_partitioned(c_tile=8), accel)
        names = [record.name for record in obs.spans()]
        assert list(ENGINE_PHASES) == [n for n in names if n in ENGINE_PHASES]
        assert obs.counter_value("engine.layers_analyzed") == 1
        assert obs.counter_value("binding.dataflows_bound") >= 1
        assert obs.counter_value("reuse.levels_analyzed") >= 1

    def test_results_bit_identical_enabled_vs_disabled(self, layer, accel):
        flow = yr_partitioned()
        baseline = analyze_layer(layer, flow, accel)
        obs.configure(enabled=True, reset=True)
        traced = analyze_layer(layer, flow, accel)
        assert traced == baseline


class TestProcessPoolReparenting:
    def test_worker_spans_adopted_into_the_driver_trace(self, layer, accel):
        points = [
            EvalPoint(layer, flow, accel)
            for flow in (kc_partitioned(c_tile=8), yr_partitioned())
            for _ in range(2)
        ]
        obs.configure(enabled=True, reset=True)
        result = BatchEvaluator(executor="process", jobs=2, cache=False).evaluate(
            points
        )
        assert all(outcome.ok for outcome in result)
        records = obs.spans()
        by_name = {}
        for record in records:
            by_name.setdefault(record.name, []).append(record)
        (pool,) = by_name["exec.process_pool"]
        worker_chunks = by_name["exec.worker_chunk"]
        assert worker_chunks  # spans crossed the process boundary
        driver_pid = pool.pid
        for chunk in worker_chunks:
            # Re-parented under the driver's pool span despite the
            # foreign pid and remapped ids.
            assert chunk.parent_id == pool.span_id
            assert chunk.pid != driver_pid
        # The workers' engine-phase spans came along and stayed nested.
        chunk_ids = {chunk.span_id for chunk in worker_chunks}
        worker_pids = {chunk.pid for chunk in worker_chunks}
        engine_spans = [
            record for record in records
            if record.name == "engine.binding" and record.pid in worker_pids
        ]
        assert engine_spans
        ids = {record.span_id for record in records}
        assert len(ids) == len(records)  # no id collisions after adoption
        assert chunk_ids <= ids
        # Worker metrics merged into the driver registry.
        assert obs.counter_value("engine.layers_analyzed") == len(points)
        assert obs.counter_value("exec.chunks_submitted") == len(worker_chunks)


class TestCli:
    def test_profile_smoke(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main([
            "profile", "--model", "alexnet", "--layer", "CONV2",
            "--dataflow", "KC-P", "--repeat", "2",
            "--trace-out", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        for phase in ENGINE_PHASES:
            assert phase in out
        assert "engine.layers_analyzed" in out
        payload = json.loads(trace_path.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert set(ENGINE_PHASES) <= names

    def test_dse_trace_and_metrics_out(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        assert main([
            "dse", "--model", "vgg16", "--layer", "CONV1",
            "--max-pes", "64", "--pe-step", "32", "--executor", "serial",
            "--no-cache",
            "--trace-out", str(trace_path), "--metrics-out", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics: evaluated=" in out
        assert "ui.perfetto.dev" in out
        names = {
            event["name"]
            for event in json.loads(trace_path.read_text())["traceEvents"]
        }
        assert set(ENGINE_PHASES) <= names
        assert "dse.enumerate" in names and "exec.evaluate" in names
        parsed = parse_prometheus(metrics_path.read_text())
        assert parsed["counters"][prometheus_name("dse.mappings_evaluated")] > 0

    def test_tune_digest_line_without_flags(self, capsys):
        assert main([
            "tune", "--model", "vgg16", "--layer", "CONV1",
            "--strategy", "random", "--budget", "10", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics: evaluated=" in out
        assert "pruned-by-lint=" in out and "wall=" in out
        # The digest comes from sweep statistics, not the obs registry:
        # tracing stayed off.
        assert not obs.is_enabled()
        assert obs_trace.spans() == []
