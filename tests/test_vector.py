"""Tests for the vector executor backend and the benchmark gate's errors.

The load-bearing property mirrors the rest of the backend suite: the
``vector`` executor is a pure performance knob — outcomes (reports,
rejection types, rejection messages, dict iteration order) are
bit-identical to the serial uncached loop, and everything it cannot
express falls back to the scalar engines, visibly counted.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import spatial_map, temporal_map
from repro.dataflow.library import kc_partitioned, yr_partitioned
from repro.exec import BatchEvaluator, BatchStats, EvalPoint
from repro.exec.backend import (
    EXECUTORS,
    VECTOR_AUTO_MIN_GROUP,
    VECTOR_MIN_GROUP,
)
from repro.hardware.accelerator import Accelerator, NoC
from repro.model.layer import conv2d
from repro.vector import VectorLoweringError, group_key
from repro.verify.differential import run_vector

REGRESSION_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"


def _load_check_regression():
    spec = importlib.util.spec_from_file_location("check_regression", REGRESSION_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layer():
    return conv2d("vec-t", k=16, c=16, y=12, x=12, r=3, s=3)


@pytest.fixture(scope="module")
def grid():
    return [
        Accelerator(num_pes=pes, noc=NoC(bandwidth=bw))
        for pes in (2, 8, 32, 64, 256)
        for bw in (1, 8, 64)
    ]


def _points(layer, flow, grid):
    return [EvalPoint(layer, flow, accelerator) for accelerator in grid]


def test_vector_is_a_known_executor():
    assert "vector" in EXECUTORS
    assert VECTOR_MIN_GROUP <= VECTOR_AUTO_MIN_GROUP


def test_vector_matches_serial_including_rejections(layer, grid):
    """Feasible points, infeasible points, and their exact messages agree."""
    points = _points(layer, kc_partitioned(c_tile=8), grid)
    serial = BatchEvaluator(executor="serial", cache=False).evaluate(points)
    vector = BatchEvaluator(executor="vector", cache=False).evaluate(points)
    assert vector.stats.executor == "vector"
    assert vector.stats.vector_points == len(points)
    assert vector.stats.vector_fallbacks == 0
    assert list(vector.outcomes) == list(serial.outcomes)
    # The grid includes PE counts below the cluster hierarchy's needs,
    # so rejection parity (type and message) is actually exercised.
    assert any(not outcome.ok for outcome in serial.outcomes)
    assert any(outcome.ok for outcome in serial.outcomes)


def test_vector_groups_by_layer_dataflow_and_template(layer, grid):
    """One batch, two dataflows, two templates -> four vectorized groups."""
    other = conv2d("vec-t2", k=8, c=8, y=10, x=10, r=3, s=3)
    flows = [kc_partitioned(c_tile=8), yr_partitioned()]
    small_l1 = [Accelerator(num_pes=a.num_pes, noc=a.noc, l1_size=512) for a in grid]
    points = []
    for flow in flows:
        points.extend(_points(layer, flow, grid))
        points.extend(_points(other, flow, small_l1))
    keys = {group_key(p.layer, p.dataflow, p.accelerator, p.energy_model) for p in points}
    assert len(keys) == 4

    serial = BatchEvaluator(executor="serial", cache=False).evaluate(points)
    vector = BatchEvaluator(executor="vector", cache=False).evaluate(points)
    assert vector.stats.vector_points == len(points)
    assert list(vector.outcomes) == list(serial.outcomes)


def _unlowerable_flow():
    """Rejected by the scalar binding independently of the grid axes,
    so ``lower_group`` wraps the ``BindingError`` into a
    ``VectorLoweringError`` and the whole group falls back."""
    return Dataflow(
        name="dup-k",
        directives=(
            temporal_map(size=4, offset=4, dim="K"),
            temporal_map(size=2, offset=2, dim="K"),
            spatial_map(size=1, offset=1, dim="C"),
        ),
    )


def test_forced_fallback_on_unlowerable_group(layer, grid):
    """A group the lowering rejects falls back point-wise to scalar."""
    bad = _unlowerable_flow()
    with pytest.raises(VectorLoweringError):
        run_vector(layer, bad, grid)

    points = _points(layer, bad, grid)
    serial = BatchEvaluator(executor="serial", cache=False).evaluate(points)
    vector = BatchEvaluator(executor="vector", cache=False).evaluate(points)
    assert vector.stats.executor == "vector"
    assert vector.stats.vector_points == 0
    assert vector.stats.vector_fallbacks == len(points)
    # The scalar fallback reproduces the binding rejections exactly.
    assert list(vector.outcomes) == list(serial.outcomes)
    assert all(not outcome.ok for outcome in vector.outcomes)


def test_small_groups_run_scalar(layer):
    accelerators = [Accelerator(num_pes=64, noc=NoC(bandwidth=b)) for b in (1, 8)]
    points = _points(layer, kc_partitioned(c_tile=8), accelerators)
    assert len(points) < VECTOR_MIN_GROUP
    result = BatchEvaluator(executor="vector", cache=False).evaluate(points)
    assert result.stats.vector_points == 0
    assert result.stats.vector_fallbacks == len(points)


def test_auto_selects_vector_for_grid_shaped_batches(layer):
    flow = kc_partitioned(c_tile=8)
    big = [
        EvalPoint(layer, flow, Accelerator(num_pes=pes, noc=NoC(bandwidth=bw)))
        for pes in range(8, 8 + VECTOR_AUTO_MIN_GROUP // 2)
        for bw in (1, 8)
    ]
    result = BatchEvaluator(executor="auto", cache=False).evaluate(big)
    assert result.stats.executor == "vector"

    small = big[: VECTOR_AUTO_MIN_GROUP - 1]
    result = BatchEvaluator(executor="auto", cache=False, jobs=1).evaluate(small)
    assert result.stats.executor == "serial"


def test_vector_composes_with_cache(layer, grid):
    from repro.exec import AnalysisCache

    cache = AnalysisCache()
    points = _points(layer, kc_partitioned(c_tile=8), grid)
    first = BatchEvaluator(executor="vector", cache=cache).evaluate(points)
    assert first.stats.vector_points == len(points)
    second = BatchEvaluator(executor="vector", cache=cache).evaluate(points)
    assert second.stats.cache_hits == len(points)
    assert second.stats.vector_points == 0
    assert [o.report for o in second.outcomes] == [o.report for o in first.outcomes]


def test_batchstats_vector_fields_default_to_zero():
    stats = BatchStats(
        submitted=1,
        cache_hits=0,
        evaluated=1,
        failures=0,
        executor="serial",
        jobs=1,
        wall_seconds=0.0,
    )
    assert stats.vector_points == 0
    assert stats.vector_fallbacks == 0


def test_obs_counts_vectorized_and_fallback_points(layer, grid):
    bad = _unlowerable_flow()
    points = _points(layer, kc_partitioned(c_tile=8), grid)
    points += _points(layer, bad, grid)
    obs.configure(enabled=True, reset=True)
    try:
        BatchEvaluator(executor="vector", cache=False).evaluate(points)
        snapshot = obs.metrics_snapshot()["counters"]
        assert snapshot["exec.vector.points_vectorized"] == len(grid)
        assert snapshot["exec.vector.points_fallback"] == len(grid)
        assert snapshot["exec.vector.lowering_failures"] == 1
        spans = obs.export_spans()
        assert any(span["name"] == "exec.vector_group" for span in spans)
    finally:
        obs.configure(enabled=False, reset=True)


# ----------------------------------------------------------------------
# check_regression.py: the one-line-error contract.
# ----------------------------------------------------------------------
def test_missing_report_fails_with_one_line_error(tmp_path):
    check = _load_check_regression()
    with pytest.raises(SystemExit) as excinfo:
        check.main([str(tmp_path / "nope.json")])
    message = str(excinfo.value.code)
    assert message.startswith("error:")
    assert "\n" not in message
    assert "nope.json" in message


def test_malformed_report_fails_with_one_line_error(tmp_path):
    check = _load_check_regression()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as excinfo:
        check.main([str(bad)])
    message = str(excinfo.value.code)
    assert message.startswith("error:")
    assert "\n" not in message

    # A syntactically valid report missing required keys is also a
    # one-line error, not a KeyError stack trace.
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(SystemExit) as excinfo:
        check.main([str(empty)])
    assert str(excinfo.value.code).startswith("error:")
