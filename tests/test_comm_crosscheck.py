"""Differential validation of the communication classifier.

Golden suite: every stock library mapping and every example DSL file
must classify identically to both independent oracles (the reuse
engine and brute-force PE access-set enumeration). Property suite:
Hypothesis builds randomized small mappings (<= 64 PEs) and the
closed-form fan-in/fan-out degrees must equal the literal per-element
maxima of the enumerated access sets.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import bind_for_comm, brute_force_level, classify_bound
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import St, Sz, spatial_map, temporal_map
from repro.dataflow.library import stock_dataflows
from repro.dataflow.parser import parse_dataflow
from repro.model.layer import conv2d
from repro.tensors import dims as D
from repro.verify.differential import run

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "dataflows").glob("*.df")
)

LAYERS = [
    conv2d("verify-default", k=8, c=8, y=18, x=18, r=3, s=3),
    conv2d("verify-strided", k=8, c=8, y=19, x=19, r=3, s=3, stride=2),
]


def _check(flow, layer):
    (report,) = run("comm", [(layer, flow)])
    return report


@pytest.mark.parametrize("name", sorted(stock_dataflows()))
@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_library_golden_crosscheck(name, layer):
    report = _check(stock_dataflows()[name], layer)
    assert report.ok, report.render()
    assert report.counts["levels_checked"] >= 1


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_example_golden_crosscheck(path, layer):
    flow = parse_dataflow(path.read_text(), name=path.stem)
    report = _check(flow, layer)
    assert report.ok, report.render()


def test_goldens_actually_compare_degrees():
    """The suite must not pass vacuously: the stock catalog exercises
    brute-forced levels and exact degree comparisons."""
    brute_forced = degrees = 0
    for flow in stock_dataflows().values():
        report = _check(flow, LAYERS[0])
        brute_forced += report.counts["brute_forced_levels"]
        degrees += report.counts["degrees_compared"]
    assert brute_forced >= 10
    assert degrees >= 30


# --- randomized mappings -------------------------------------------------
#
# One spatial level over a stride-1 conv layer. The spatial dimension,
# chunk size, and offset vary; offsets <= sizes keep chunks coverage-
# friendly, and offset < size produces overlap (forwarding/reduction).

channel_spatial = st.builds(
    lambda dim, size, offset: (dim, size, offset),
    dim=st.sampled_from([D.K, D.C]),
    size=st.integers(1, 3),
    offset=st.integers(1, 3),
).filter(lambda t: t[2] <= t[1])

def _window_choice(dim, n, m):
    kernel = D.R if dim == D.Y else D.S
    if n == 1:
        size = Sz(kernel)
    else:
        size = f"({n}-1)*St({dim})+Sz({kernel})"
    return (dim, size, f"{m}*St({dim})")


window_spatial = st.builds(
    _window_choice,
    dim=st.sampled_from([D.Y, D.X]),
    n=st.integers(1, 3),
    m=st.integers(1, 3),
)

spatial_choices = st.one_of(channel_spatial, window_spatial)

layers = st.builds(
    lambda k, c, yx, rs: conv2d(
        "prop", k=k, c=c, y=max(yx, rs + 1), x=max(yx, rs + 1), r=rs, s=rs
    ),
    k=st.integers(2, 12),
    c=st.integers(2, 12),
    yx=st.integers(6, 14),
    rs=st.integers(2, 3),
)


def _build_mapping(spatial):
    """A full 7-dim mapping with one spatial directive at the top level."""
    dim, size, offset = spatial
    directives = [temporal_map(1, 1, D.N)]
    for d in (D.K, D.C):
        if d == dim:
            directives.append(spatial_map(size, offset, d))
        else:
            directives.append(temporal_map(1, 1, d))
    for d, kernel in ((D.Y, D.R), (D.X, D.S)):
        if d == dim:
            directives.append(spatial_map(size, offset, d))
        else:
            directives.append(temporal_map(Sz(kernel), St(d), d))
    directives.append(temporal_map(Sz(D.R), Sz(D.R), D.R))
    directives.append(temporal_map(Sz(D.S), Sz(D.S), D.S))
    return Dataflow(name="prop-comm", directives=tuple(directives))


@settings(max_examples=80, deadline=None)
@given(layer=layers, spatial=spatial_choices)
def test_random_mapping_crosschecks(layer, spatial):
    """Both oracles agree with the classifier on random small mappings."""
    flow = _build_mapping(spatial)
    report = _check(flow, layer)
    assert report.ok, report.render()


@settings(max_examples=80, deadline=None)
@given(layer=layers, spatial=spatial_choices)
def test_random_degrees_match_enumeration(layer, spatial):
    """Closed-form fan-in/fan-out equals the literal per-element maximum
    on every brute-forceable level with integral shifts (stride is 1
    here, so sliding windows are contiguous and degrees are exact)."""
    from repro.engines.tensor_analysis import analyze_tensors

    flow = _build_mapping(spatial)
    bound = bind_for_comm(flow, layer, max_width=64)
    tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    analysis = classify_bound(bound, tensors)
    for level, level_comm in zip(bound.levels, analysis.levels):
        if level_comm.degenerate:
            continue
        truth = brute_force_level(level, tensors, max_units=64)
        if truth is None:
            continue
        for comm in level_comm.tensors:
            assert comm.pattern is truth[comm.tensor].pattern, comm
            if not comm.integral_shifts:
                continue
            assert comm.degree == truth[comm.tensor].degree, comm
            expected_fan = truth[comm.tensor].degree
            if comm.is_output:
                assert comm.fan_in == expected_fan and comm.fan_out == 1
            else:
                assert comm.fan_out == expected_fan and comm.fan_in == 1
