"""Differential parity: vectorized whole-grid engine vs scalar pipeline.

Sweeps every structurally-distinct layer in the model zoo against every
library dataflow (the same matrix the lint-coverage suite uses,
including its ``KNOWN_COVERAGE_GAPS`` envelopes) on a hardware grid
that includes infeasible PE counts, and requires bit-identical results
— zero tolerance, including int-vs-float type drift and rejection
messages. A Hypothesis fuzz case widens the layer-shape space; the
weekly CI lane re-runs it with ``REPRO_VECTOR_FUZZ_EXAMPLES=500``.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.analysis import analyze_layer
from repro.errors import BindingError, DataflowError
from repro.hardware.accelerator import Accelerator, NoC
from repro.model.layer import conv2d
from repro.model.zoo import MODELS, build
from repro.dataflow.library import stock_dataflows
from repro.vector import VectorLoweringError
from repro.verify.differential import run_vector
from tests.test_lint_library import KNOWN_COVERAGE_GAPS

# Small but representative: power-of-two PEs spanning infeasible-to-
# ample, crossed with a slow and a fast NoC.
GRID = [
    Accelerator(num_pes=pes, noc=NoC(bandwidth=bw))
    for pes in (2, 16, 128, 1024)
    for bw in (1, 32)
]


def _zoo_layers():
    """One exemplar per distinct (dim sizes, operator) structure."""
    seen = {}
    for model_name in MODELS:
        for layer in build(model_name).layers:
            signature = (
                tuple(sorted(layer.all_dim_sizes().items())),
                layer.operator,
            )
            seen.setdefault(signature, (f"{model_name}:{layer.name}", layer))
    return list(seen.values())


ZOO_LAYERS = _zoo_layers()
FLOWS = stock_dataflows()


def _assert_parity(layer, dataflow, grid, sample=None):
    """Crosscheck, treating a lowering refusal as valid only if honest.

    ``VectorLoweringError`` is the fallback contract: the batch backend
    would run those points through the scalar engines, so parity holds
    by construction — but only if the scalar pipeline genuinely rejects
    grid-independently (otherwise the lowering refused work it should
    have expressed, which we flag as a coverage loss, not a soundness
    bug — asserted here to keep the expressible set from silently
    shrinking).
    """
    try:
        report = run_vector(layer, dataflow, grid, sample=sample)
    except VectorLoweringError:
        for accelerator in grid[:2]:
            with pytest.raises((BindingError, DataflowError)):
                analyze_layer(layer, dataflow, accelerator)
        return None
    assert not report.mismatches, report.mismatches[0]
    return report


@pytest.mark.parametrize("flow_name", sorted(FLOWS), ids=lambda name: name.replace(" ", "_"))
def test_parity_across_zoo_layers(flow_name):
    dataflow = FLOWS[flow_name]
    gap = KNOWN_COVERAGE_GAPS.get(flow_name)
    checked = 0
    gap_cases = 0
    for label, layer in ZOO_LAYERS:
        if gap is not None and not gap(layer):
            # Outside the mapping's declared envelope: the scalar
            # pipeline may reject or produce an un-proven result —
            # either way the vector engine must agree exactly.
            gap_cases += 1
        report = _assert_parity(layer, dataflow, GRID, sample=2)
        if report is not None:
            checked += report.counts["points_checked"]
    assert checked > 0 or gap_cases > 0
    if gap is not None:
        assert gap_cases > 0, "envelope gap never exercised"


def test_parity_full_grid_no_sampling(small_conv):
    """Every grid point scalar-checked, not a sample, on one layer."""
    for name, dataflow in FLOWS.items():
        report = _assert_parity(small_conv, dataflow, GRID)
        if report is not None:
            assert report.counts["points_checked"] == len(GRID)


def test_parity_under_hardware_feature_toggles(small_conv):
    """Template fields (not just the grid axes) all reach the lowering."""
    toggled = [
        Accelerator(num_pes=64, noc=NoC(bandwidth=8, multicast=False)),
        Accelerator(num_pes=64, noc=NoC(bandwidth=8, avg_latency=0)),
        Accelerator(num_pes=64, noc=NoC(bandwidth=8), spatial_reduction=False),
        Accelerator(num_pes=64, noc=NoC(bandwidth=8), double_buffered=False),
        Accelerator(num_pes=64, noc=NoC(bandwidth=8), l1_size=256, l2_size=4096),
        Accelerator(num_pes=64, noc=NoC(bandwidth=8), vector_width=4),
        Accelerator(num_pes=128, noc=NoC(bandwidth=8), dram_bandwidth=16.0),
    ]
    for variant in toggled:
        grid = [
            Accelerator(
                num_pes=pes,
                noc=variant.noc,
                l1_size=variant.l1_size,
                l2_size=variant.l2_size,
                spatial_reduction=variant.spatial_reduction,
                double_buffered=variant.double_buffered,
                vector_width=variant.vector_width,
                dram_bandwidth=variant.dram_bandwidth,
            )
            for pes in (8, 64, 512)
        ]
        for dataflow in FLOWS.values():
            _assert_parity(small_conv, dataflow, grid)


@settings(
    max_examples=int(os.environ.get("REPRO_VECTOR_FUZZ_EXAMPLES", "25")),
    deadline=None,
)
@given(
    k=st.integers(min_value=1, max_value=96),
    c=st.integers(min_value=1, max_value=96),
    y=st.integers(min_value=3, max_value=48),
    x=st.integers(min_value=3, max_value=48),
    r=st.sampled_from([1, 3, 5, 7]),
    s=st.sampled_from([1, 3, 5, 7]),
    stride=st.sampled_from([1, 2]),
    flow_name=st.sampled_from(sorted(FLOWS)),
    pes=st.sampled_from([4, 32, 256, 2048]),
    bandwidth=st.sampled_from([1, 8, 64]),
)
def test_parity_fuzz(k, c, y, x, r, s, stride, flow_name, pes, bandwidth):
    if r > y or s > x:
        return
    layer = conv2d("fuzz", k=k, c=c, y=y, x=x, r=r, s=s, stride=stride)
    grid = [
        Accelerator(num_pes=p, noc=NoC(bandwidth=b))
        for p in (pes, pes * 2)
        for b in (bandwidth, bandwidth * 2)
    ]
    _assert_parity(layer, FLOWS[flow_name], grid)
