"""Tests for the vector executor backend and the benchmark gate's errors.

The load-bearing property mirrors the rest of the backend suite: the
``vector`` executor is a pure performance knob — outcomes (reports,
rejection types, rejection messages, dict iteration order) are
bit-identical to the serial uncached loop, and everything it cannot
express falls back to the scalar engines, visibly counted.
"""

import dataclasses
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import spatial_map, temporal_map
from repro.dataflow.library import kc_partitioned, yr_partitioned
from repro.dse import explore
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
    yr_partitioned_variants,
)
from repro.engines.analysis import analyze_layer, figures_of
from repro.exec import AnalysisCache, BatchEvaluator, BatchStats, EvalPoint
from repro.exec.backend import (
    EXECUTORS,
    VECTOR_AUTO_MIN_GROUP,
    VECTOR_MIN_GROUP,
)
from repro.hardware.accelerator import Accelerator, NoC
from repro.model.layer import conv2d
from repro.model.zoo import build
from repro.vector import VectorLoweringError, group_key
from repro.vector.engine import GridBlock
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
# The columnar fold: explore reads vector lanes' figures, and a lane's
# report is built only when someone reads it.
# ----------------------------------------------------------------------
#: The dse-grid pruner sets that run on the vector path.
PRUNER_SETS = {
    "none": {},
    "equiv": {"equiv_prune": True},
    "capacity": {"capacity_prune": True},
    "equiv+capacity": {"equiv_prune": True, "capacity_prune": True},
    "comm-noreduce": {"comm_prune": True, "spatial_reduction": False},
}

#: Small Fig-13 sweeps, one dse-grid layer per family on which the comm
#: screen passes points: four tile variants plus a renamed copy of the
#: first (an equivalence twin), 8 PE counts x 8 bandwidths.
FAMILIES = {
    "KC-P": (
        ("mobilenet_v2", "BN3_1_dw"),
        lambda: kc_partitioned_variants(c_tiles=(16, 64), spatial_tiles=((1, 1), (4, 4))),
    ),
    "YR-P": (
        ("mobilenet_v2", "BN2_1_expand"),
        lambda: yr_partitioned_variants(ck_tiles=((1, 1), (4, 4)), x_tiles=(1, 14)),
    ),
}


def _fig13_sweep(family):
    (model, layer), variants = FAMILIES[family]
    variants = variants()
    label, flow = variants[0]
    variants.append((f"{label}/twin", Dataflow(name=f"{flow.name}-twin", directives=flow.directives)))
    space = DesignSpace(default_pe_counts(max_pes=512, step=64), default_bandwidths(128), variants)
    return build(model).layer(layer), space


def _sweep_digest(result):
    stats = {
        name: value
        for name, value in dataclasses.asdict(result.statistics).items()
        if name not in ("elapsed_seconds", "eval_wall_seconds", "executor")
    }
    optima = (result.throughput_optimal, result.energy_optimal, result.edp_optimal)
    # repr keeps each number's type: an int runtime must not turn float.
    return repr((result.points, result.pareto(), optima, stats))


@pytest.mark.parametrize("pruners", sorted(PRUNER_SETS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_explore_vector_matches_serial(family, pruners):
    layer, space = _fig13_sweep(family)
    runs = {
        executor: explore(
            layer, space, 16.0, 450.0, executor=executor, cache=False, **PRUNER_SETS[pruners]
        )
        for executor in ("serial", "vector")
    }
    assert runs["vector"].statistics.executor == "vector"
    assert runs["serial"].statistics.executor == "serial"
    assert runs["serial"].points
    assert bool(runs["serial"].statistics.equiv_replays) == ("equiv" in pruners)
    assert _sweep_digest(runs["vector"]) == _sweep_digest(runs["serial"])


@pytest.fixture
def builds(monkeypatch):
    """Every vector block whose reports were built, once per build."""
    built = []
    build_reports = GridBlock._build_reports

    def counted(self):
        built.append(self)
        return build_reports(self)

    monkeypatch.setattr(GridBlock, "_build_reports", counted)
    return built


def test_vector_sweep_builds_no_report_until_read(layer, grid, builds):
    result = explore(
        *_fig13_sweep("KC-P"),
        16.0,
        450.0,
        executor="vector",
        cache=AnalysisCache(),
        equiv_prune=True,
        capacity_prune=True,
    )
    assert result.points and result.statistics.executor == "vector"
    assert result.statistics.equiv_replays
    assert builds == []

    # Cache puts and hits, single-flight followers and the name restore
    # of an equivalent twin's entry do not build a report either.
    flow = kc_partitioned(c_tile=8)
    twin = Dataflow(name="twin", directives=flow.directives)
    cache = AnalysisCache()
    first = BatchEvaluator(executor="vector", cache=cache).evaluate(
        _points(layer, flow, grid) + _points(layer, twin, grid)
    )
    assert first.stats.singleflight_hits > 0
    assert {o.dataflow_name for o in first.outcomes[len(grid) :] if o.ok} == {"twin"}
    hits = BatchEvaluator(executor="vector", cache=cache).evaluate(_points(layer, twin, grid))
    assert hits.stats.equiv_twin_hits == sum(outcome.ok for outcome in hits.outcomes) > 0
    assert all(outcome.cached for outcome in hits.outcomes)
    assert builds == []

    lane = next(outcome for outcome in hits.outcomes if outcome.ok)
    assert lane.report.dataflow_name == "twin"
    assert lane.report is lane.report
    assert len(builds) == 1


def test_cached_lane_reports_match_the_scalar_engine(layer, grid):
    cache = AnalysisCache()
    points = _points(layer, kc_partitioned(c_tile=8), grid)
    BatchEvaluator(executor="vector", cache=cache).evaluate(points)
    hits = BatchEvaluator(executor="vector", cache=cache).evaluate(points)
    assert hits.stats.cache_hits == len(points)
    checked = 0
    for point, outcome in zip(points, hits.outcomes):
        if not outcome.ok:
            continue
        expected = analyze_layer(point.layer, point.dataflow, point.accelerator)

        def types(report):
            return (
                type(report.runtime),
                type(report.l1_buffer_req),
                type(report.l2_buffer_req),
                [type(req) for req in report.intermediate_buffer_reqs],
                [type(stats.upstream_buffer_req) for stats in report.level_stats],
                [type(value) for value in figures_of(report)],
            )

        assert outcome.figures == figures_of(expected)
        assert [type(value) for value in outcome.figures] == types(expected)[-1]
        report = outcome.report
        assert report == expected
        assert types(report) == types(expected)
        checked += 1
    assert checked


def test_threads_reading_shared_lanes_get_one_report_each(layer, grid, builds):
    """Shard threads share cached lanes: every reader of a lane gets the
    same report object, equal to the scalar engine's, and the block is
    built once."""
    cache = AnalysisCache()
    points = _points(layer, kc_partitioned(c_tile=8), grid)
    BatchEvaluator(executor="vector", cache=cache).evaluate(points)
    hits = BatchEvaluator(executor="vector", cache=cache).evaluate(points)
    pairs = [(point, lane) for point, lane in zip(points, hits.outcomes) if lane.ok]
    lanes = [lane for _, lane in pairs] + [lane.renamed("twin") for _, lane in pairs]
    assert pairs and all(lane.cached for lane in lanes) and builds == []
    readers = 8
    barrier = threading.Barrier(readers)
    seen = [[] for _ in range(readers)]

    def read(index):
        barrier.wait()
        seen[index].extend(lane.report for lane in lanes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1
    assert all(len(reports) == len(lanes) for reports in seen)
    for reports in seen[1:]:
        assert all(mine is first for mine, first in zip(reports, seen[0]))
    expected = [analyze_layer(p.layer, p.dataflow, p.accelerator) for p, _ in pairs]
    assert seen[0][: len(pairs)] == expected
    assert [report.dataflow_name for report in seen[0][len(pairs) :]] == ["twin"] * len(pairs)


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
