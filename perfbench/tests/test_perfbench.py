"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402

common.use_checkout_sources()


def test_percentile_rule_keeps_ten_samples_beyond():
    assert common.supported_percentile(200) == 95.0
    assert common.supported_percentile(199) == 90.0
    assert common.supported_percentile(1000) == 99.0
    assert common.supported_percentile(20) == 50.0
    assert common.supported_percentile(19) is None
    values = list(range(1, 201))
    p95 = common.percentile(values, 95.0)
    assert p95 == 190
    assert sum(value > p95 for value in values) == 10


def span(span_id, parent, name, start, end):
    return ledger.SpanView(span_id, parent, name, int(start * 1e9), int(end * 1e9))


def test_self_time_of_nested_spans_is_duration_minus_children():
    spans = [
        span(1, None, "root", 0, 10),
        span(2, 1, "child", 2, 5),
        span(3, 2, "grandchild", 3, 4),
        span(4, 1, "sibling", 6, 8),
    ]
    times = ledger.self_times(spans, (int(-2e9), int(12e9)))
    assert times["root"] == pytest.approx(10 - 3 - 2)
    assert times["child"] == pytest.approx(3 - 1)
    assert times["grandchild"] == pytest.approx(1)
    assert times["sibling"] == pytest.approx(2)
    assert times["other"] == pytest.approx(4)
    assert sum(times.values()) == pytest.approx(14)


def test_server_time_outside_spans_is_idle_unless_a_request_is_in_flight():
    spans = [span(1, None, "serve.http", 1, 3), span(2, None, "serve.http", 6, 7)]
    window = (0, int(10e9))
    plain = ledger.self_times(spans, window)
    assert plain["other"] == pytest.approx(7) and "idle" not in plain
    in_flight = [(int(0.5e9), int(3.5e9)), (int(5e9), int(8e9))]
    times = ledger.self_times(spans, window, in_flight)
    assert times["serve.http"] == pytest.approx(3)
    assert times["other"] == pytest.approx(0.5 + 0.5 + 1 + 1)
    assert times["idle"] == pytest.approx(0.5 + 1.5 + 2)
    assert sum(times.values()) == pytest.approx(10)
    rows = ledger.row_self_times(times)
    assert rows["idle"] == pytest.approx(4) and rows["other"] == pytest.approx(3)


def test_concurrent_innermost_spans_share_the_window():
    spans = [
        span(1, None, "pool", 0, 4),
        span(2, 1, "worker", 0, 4),
        span(3, 1, "worker", 2, 4),
    ]
    times = ledger.self_times(spans, (0, int(4e9)))
    assert times["worker"] == pytest.approx(4)
    assert times.get("pool", 0.0) == pytest.approx(0)
    assert sum(times.values()) == pytest.approx(4)


def test_same_seed_same_inputs():
    from inproc import WORKLOADS
    from serve_load import make_schedule

    recorded = common.load_digests()
    analyze, dse = list(recorded["serve-mixed"]["analyze"]), list(recorded["serve-mixed"]["dse"])
    first = make_schedule(7, 30, analyze, dse)
    assert first == make_schedule(7, 30, analyze, dse)
    assert first != make_schedule(8, 30, analyze, dse)
    assert len(first.arrivals) >= 200
    assert {key for _, key in first.arrivals} <= set(analyze)
    for workload_type in WORKLOADS.values():
        workload = workload_type()
        keys = workload.schedule(3, 2)
        assert keys == workload.schedule(3, 2)
        assert keys != workload.schedule(4, 2)
        assert set(keys) <= set(recorded[workload.name])


def test_serve_schedules_of_every_seed_last_as_long():
    from serve_load import ANALYZE_RATE, MIN_ANALYZE, make_schedule

    recorded = common.load_digests()["serve-mixed"]
    analyze, dse = list(recorded["analyze"]), list(recorded["dse"])
    length = MIN_ANALYZE / ANALYZE_RATE
    schedules = [make_schedule(seed, 0, analyze, dse) for seed in range(5)]
    for schedule in schedules:
        dues = [due for due, _ in schedule.arrivals]
        assert len(dues) == MIN_ANALYZE
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] <= length
        first = [key for _, key in schedule.arrivals[: MIN_ANALYZE // 2]]
        assert 0.3 < len(set(first)) / len(first) < 0.8
        half = schedule.first_half()
        assert all(due <= half.arrivals[-1][0] for due, _ in half.dse_jobs)
    # Same pacing of the dse jobs for every seed; seeded order.
    assert len({tuple(due for due, _ in s.dse_jobs) for s in schedules}) == 1
    assert len({tuple(key for _, key in s.dse_jobs) for s in schedules}) > 1


def test_benchmark_json_matches_the_command():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == ledger.PER_LAYER


def test_wrong_digest_fails_the_command(monkeypatch, capsys):
    recorded = common.load_digests()
    wrong = {name: dict(ops) for name, ops in recorded.items()}
    wrong["dse-grid"] = {key: {"points": "0" * 16} for key in recorded["dse-grid"]}
    monkeypatch.setattr(run, "load_digests", lambda: wrong)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "dse-grid", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_host_scaling_moves_times_and_rates_opposite_ways():
    reference = common.CALIBRATION_REFERENCE_S
    slow_host = common.host_factor(2 * reference, 2 * reference)
    assert slow_host == pytest.approx(0.5)
    ops = [
        common.Op("a", 0.1, 1, True, factor=slow_host),
        common.Op("b", 0.3, 3, True, factor=slow_host),
    ]
    assert common.points_per_s(ops, scaled=False) == pytest.approx(10.0)
    assert common.points_per_s(ops, scaled=True) == pytest.approx(20.0)
    assert common.p50_s(ops, scaled=False) == pytest.approx(0.2)
    assert common.p50_s(ops, scaled=True) == pytest.approx(0.1)


def test_setup_probe_counts_its_start_net_of_numpys_import(monkeypatch):
    lines = ["noise\n", f"{common.NUMPY_IMPORT} 0.125\n", f"{common.READY}\n"]
    assert common.numpy_import_seconds(lines) == 0.125
    monkeypatch.setattr(run, "calibrate", lambda: 2 * common.CALIBRATION_REFERENCE_S)
    op = run.timed_start(lambda: (0.625, 0.125))
    assert op.seconds == pytest.approx(0.5)
    assert common.p50_s([op], scaled=True) == pytest.approx(0.25)
