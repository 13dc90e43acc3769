"""The symbolic abstract interpreter: interval domain algebra, point-box
exactness against the concrete cost model, Hypothesis-driven interval
soundness over random shape boxes, the DF2xx range-certificate lints,
the differential cross-check, and the tuner's symbolic screen keeping
the same winner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.absint import (
    AbstractDomainError,
    HardwareBox,
    IntervalFloat,
    IntervalInt,
    ShapeBox,
    abstract_analyze,
    abstract_bind,
)
from repro.absint.interval import (
    i_ceil_div,
    i_max,
    i_min,
    i_num_chunks,
    tri_all,
    tri_any,
    tri_gt,
    tri_not,
)
from repro.capacity import compute_capacity_bounds
from repro.dataflow.library import stock_dataflows, table3_dataflows
from repro.engines.analysis import analyze_layer
from repro.errors import BindingError, DataflowError, LayerError
from repro.hardware.accelerator import Accelerator, NoC
from repro.lint import Severity, lint_symbolic
from repro.lint.symbolic import PROVEN_FOR_RANGE, SYMBOLIC_RULES
from repro.model.layer import conv2d
from repro.model.zoo import build
from repro.tensors import dims as D
from repro.tuner.templates import (
    SCHEDULES,
    SPATIAL_DIMS,
    CandidateSpec,
    enumerate_candidates,
)
from repro.verify.differential import run_abstract

LAYER = conv2d("absint-layer", k=64, c=32, y=18, x=18, r=3, s=3)

#: Quantities every soundness check compares (concrete attr == abstract attr).
QUANTITIES = (
    "runtime",
    "total_ops",
    "utilization",
    "throughput",
    "l1_buffer_req",
    "l2_buffer_req",
    "noc_bw_req_elems",
    "energy_total",
    "edp",
)

#: Relative slack for float comparisons: corner evaluation replays the
#: same IEEE-754 operation trees, so only representation noise remains.
REL_TOL = 1e-9


def assert_contained(concrete, abstract):
    for name in QUANTITIES:
        value = getattr(concrete, name)
        interval = getattr(abstract, name)
        slack = REL_TOL * max(abs(float(interval.lo)), abs(float(interval.hi)), 1.0)
        assert interval.lo - slack <= value <= interval.hi + slack, (
            f"{name} = {value} escapes [{interval.lo}, {interval.hi}]"
        )


# ----------------------------------------------------------------------
# Interval domain algebra
# ----------------------------------------------------------------------
def test_interval_int_basic_algebra():
    a = IntervalInt(2, 5)
    b = IntervalInt(-1, 3)
    assert a + b == IntervalInt(1, 8)
    assert a - b == IntervalInt(-1, 6)
    assert a * b == IntervalInt(-5, 15)
    assert 2 * a == IntervalInt(4, 10)
    assert (1 + a) == IntervalInt(3, 6)
    assert a.hull(b) == IntervalInt(-1, 5)
    assert a.contains(3) and not a.contains(6)
    assert IntervalInt.point(7).is_point


def test_interval_validation_and_errors():
    with pytest.raises(AbstractDomainError):
        IntervalInt(3, 2)
    with pytest.raises(AbstractDomainError):
        IntervalFloat(1.0, 2.0) / IntervalFloat(0.0, 1.0)  # divisor spans 0
    with pytest.raises(AbstractDomainError):
        IntervalInt(1, 2) * True  # bools are not sizes


def test_ceil_div_and_num_chunks_corner_soundness():
    num = IntervalInt(7, 23)
    den = IntervalInt(2, 5)
    result = i_ceil_div(num, den)
    for n in range(num.lo, num.hi + 1):
        for d in range(den.lo, den.hi + 1):
            assert result.contains(-(-n // d))
    total = IntervalInt(5, 12)
    size = IntervalInt(2, 4)
    offset = IntervalInt(1, 3)
    chunks = i_num_chunks(total, size, offset)
    from repro.engines.binding import num_chunks

    for t in range(total.lo, total.hi + 1):
        for s in range(size.lo, size.hi + 1):
            for o in range(offset.lo, offset.hi + 1):
                assert chunks.contains(num_chunks(t, s, o))


def test_min_max_and_tribool_helpers():
    a, b = IntervalInt(2, 6), IntervalInt(4, 9)
    assert i_min(a, b) == IntervalInt(2, 6)
    assert i_max(a, b) == IntervalInt(4, 9)
    assert tri_gt(IntervalInt(5, 9), 4) is True
    assert tri_gt(IntervalInt(1, 3), 4) is False
    assert tri_gt(IntervalInt(3, 5), 4) is None
    assert tri_not(None) is None and tri_not(True) is False
    assert tri_any((False, None)) is None
    assert tri_any((True, None)) is True
    assert tri_all((True, None)) is None
    assert tri_all((True, True)) is True


# ----------------------------------------------------------------------
# ShapeBox construction and concretization
# ----------------------------------------------------------------------
def test_shape_box_out_extents_and_containment():
    box = ShapeBox.from_layer(LAYER, ranges={D.Y: (10, 34), D.R: (1, 3)})
    assert box.out_y.lo == (10 - 3) // 1 + 1
    assert box.out_y.hi == 34
    member = box.concretize(
        {D.N: 1, D.K: 64, D.C: 32, D.Y: 20, D.X: 18, D.R: 3, D.S: 3}
    )
    assert box.contains(member)
    assert not box.contains(conv2d("other", k=64, c=32, y=40, x=18, r=3, s=3))
    with pytest.raises(LayerError):
        box.concretize({D.N: 1, D.K: 64, D.C: 32, D.Y: 99, D.X: 18, D.R: 3, D.S: 3})


def test_shape_box_rejects_impossible_family():
    with pytest.raises(LayerError):
        ShapeBox.from_layer(LAYER, ranges={D.Y: (1, 2), D.R: (3, 3)})


def test_corner_layers_are_valid_members():
    box = ShapeBox.from_layer(LAYER, ranges={D.K: (32, 128), D.C: (16, 64)})
    corners = list(box.corner_layers())
    assert len(corners) == 4
    assert all(box.contains(layer) for layer in corners)


# ----------------------------------------------------------------------
# Point boxes reproduce the concrete model exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(table3_dataflows()))
def test_point_box_is_exact(name):
    dataflow = table3_dataflows()[name]
    accelerator = Accelerator(num_pes=64, noc=NoC(bandwidth=32))
    concrete = analyze_layer(LAYER, dataflow, accelerator)
    abstract = abstract_analyze(
        ShapeBox.from_layer(LAYER),
        dataflow,
        HardwareBox.from_accelerator(accelerator),
    )
    assert not abstract.caveats
    assert_contained(concrete, abstract)
    # And the envelope collapses: a one-member family has exact answers.
    assert abstract.runtime.lo == pytest.approx(abstract.runtime.hi)
    assert abstract.runtime.lo == pytest.approx(concrete.runtime)
    assert abstract.l1_buffer_req.is_point
    assert abstract.l1_buffer_req.lo == concrete.l1_buffer_req


# ----------------------------------------------------------------------
# The capacity analyzer's exact requirements against the full analysis's
# buffer intervals
# ----------------------------------------------------------------------
BUFFER_LAYERS = [
    ("vgg16", "CONV2"),
    ("resnet50", "CONV2_1b"),
    ("mobilenet_v2", "BN2_1_dw"),
    ("unet", "DOWN3_1"),
]


def _buffer_parity_flows():
    flows = list(stock_dataflows().values())
    for spec in list(enumerate_candidates())[::37]:
        try:
            flows.append(spec.build())
        except (BindingError, DataflowError):
            continue
    return flows


def assert_buffer_parity(layer, flow, accelerator):
    """On a point box ``abstract_analyze``'s three buffer intervals are
    points equal to :func:`~repro.capacity.compute_capacity_bounds`'s
    peaks, or both raise the same error; returns whether they bound."""
    box = ShapeBox.from_layer(layer)
    hw = HardwareBox.from_accelerator(accelerator)
    try:
        bounds = compute_capacity_bounds(flow, layer, accelerator)
    except DataflowError as error:
        with pytest.raises(DataflowError) as raised:
            abstract_analyze(box, flow, hw)
        assert type(raised.value) is type(error), flow.name
        assert str(raised.value) == str(error), flow.name
        return False
    analysis = abstract_analyze(box, flow, hw)
    claims = [(analysis.l1_buffer_req, bounds.l1), (analysis.l2_buffer_req, bounds.l2)]
    claims += zip(analysis.intermediate_buffer_reqs, bounds.intermediates)
    assert len(analysis.intermediate_buffer_reqs) == len(bounds.intermediates), flow.name
    for interval, peak in claims:
        assert (interval.lo, interval.hi) == (peak.peak_bytes,) * 2, flow.name
    return True


@pytest.mark.parametrize("num_pes", [8, 64, 256])
@pytest.mark.parametrize("model,layer_name", BUFFER_LAYERS)
def test_buffer_reqs_equal_full_analysis(model, layer_name, num_pes):
    """On 8 PEs some cluster hierarchies cannot bind, so both analyzers
    must raise the same error; on 64 and 256 most mappings bind."""
    layer = build(model).layer(layer_name)
    accelerator = Accelerator(num_pes=num_pes)
    outcomes = [assert_buffer_parity(layer, flow, accelerator) for flow in _buffer_parity_flows()]
    assert sum(outcomes) >= 30
    assert num_pes > 8 or not all(outcomes)


def test_buffer_reqs_equal_full_analysis_on_interval_box():
    """A K range and a PE range widen the intervals; every bindable
    corner member's exact requirements stay inside them."""
    box = ShapeBox.from_layer(LAYER, ranges={D.K: (32, 256)})
    hw = HardwareBox.from_accelerator(
        Accelerator(num_pes=32, noc=NoC(bandwidth=32)), num_pes=IntervalInt(32, 128)
    )
    members = [Accelerator(num_pes=pes, noc=NoC(bandwidth=32)) for pes in (32, 128)]
    widened = checked = 0
    for flow in _buffer_parity_flows():
        try:
            analysis = abstract_analyze(box, flow, hw)
        except (DataflowError, ValueError):
            continue
        l1, l2 = analysis.l1_buffer_req, analysis.l2_buffer_req
        widened += not l2.is_point
        for layer in box.corner_layers():
            for accelerator in members:
                try:
                    bounds = compute_capacity_bounds(flow, layer, accelerator)
                except DataflowError:
                    continue
                assert l1.lo <= bounds.l1.peak_bytes <= l1.hi, flow.name
                assert l2.lo <= bounds.l2.peak_bytes <= l2.hi, flow.name
                checked += 1
    assert widened > 0
    assert checked >= 100


# ----------------------------------------------------------------------
# Hypothesis: interval soundness over random boxes and members
# ----------------------------------------------------------------------
specs = st.builds(
    lambda outer_spatial, schedule, c_tile, k_tile, y_tile, x_tile, cluster: (
        CandidateSpec(
            outer_spatial=outer_spatial,
            schedule=schedule,
            c_tile=c_tile,
            k_tile=k_tile,
            y_tile=y_tile,
            x_tile=x_tile,
            cluster_size=cluster,
            inner_spatial=(
                None if cluster is None else (D.C if outer_spatial != D.C else D.K)
            ),
        )
    ),
    outer_spatial=st.sampled_from(SPATIAL_DIMS),
    schedule=st.sampled_from(SCHEDULES),
    c_tile=st.sampled_from([1, 2, 4]),
    k_tile=st.sampled_from([1, 2, 4]),
    y_tile=st.sampled_from([1, 2]),
    x_tile=st.sampled_from([1, 2]),
    cluster=st.sampled_from([None, 2, 4]),
)

dim_boxes = st.fixed_dictionaries(
    {
        D.K: st.tuples(st.integers(1, 16), st.integers(1, 4)),
        D.C: st.tuples(st.integers(1, 16), st.integers(1, 4)),
        D.Y: st.tuples(st.integers(6, 20), st.integers(1, 2)),
        D.X: st.tuples(st.integers(6, 20), st.integers(1, 2)),
        D.R: st.tuples(st.integers(1, 3), st.integers(1, 2)),
        D.S: st.tuples(st.integers(1, 3), st.integers(1, 2)),
    }
)


@settings(max_examples=60, deadline=None)
@given(
    spec=specs,
    dims=dim_boxes,
    pes=st.sampled_from([4, 16, 64]),
    pes_widen=st.sampled_from([1, 2]),
    bw=st.sampled_from([4, 32]),
    bw_widen=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_concrete_member_inside_abstract_interval(
    spec, dims, pes, pes_widen, bw, bw_widen, data
):
    """For any concrete (layer, accelerator) inside the (box, hardware)
    family, every cost-model quantity lies in the abstract interval —
    and a definite abstract binding failure implies the concrete model
    fails too."""
    try:
        flow = spec.build()
    except (BindingError, DataflowError):
        return
    ranges = {dim: (lo, lo * widen) for dim, (lo, widen) in dims.items()}
    # Keep the activation plane at least as large as the kernel window.
    r_hi, s_hi = ranges[D.R][1], ranges[D.S][1]
    ranges[D.Y] = (max(ranges[D.Y][0], r_hi), max(ranges[D.Y][1], r_hi))
    ranges[D.X] = (max(ranges[D.X][0], s_hi), max(ranges[D.X][1], s_hi))
    base = conv2d(
        "prop",
        k=ranges[D.K][1],
        c=ranges[D.C][1],
        y=ranges[D.Y][1],
        x=ranges[D.X][1],
        r=ranges[D.R][0],
        s=ranges[D.S][0],
    )
    box = ShapeBox.from_layer(base, ranges=ranges)
    hw = HardwareBox(
        num_pes=IntervalInt(pes, pes * pes_widen),
        bandwidth=IntervalInt(bw, bw * bw_widen),
    )

    # A concrete member: each dimension drawn inside its interval, the
    # window constraint respected by construction of the box.
    sizes = {D.N: 1}
    for dim, iv in box.dims.items():
        if dim == D.N:
            continue
        sizes[dim] = data.draw(st.integers(iv.lo, iv.hi), label=f"size[{dim}]")
    sizes[D.Y] = max(sizes[D.Y], sizes[D.R])
    sizes[D.X] = max(sizes[D.X], sizes[D.S])
    layer = box.concretize(sizes)
    accelerator = Accelerator(
        num_pes=data.draw(st.integers(hw.num_pes.lo, hw.num_pes.hi), label="pes"),
        noc=NoC(
            bandwidth=data.draw(
                st.integers(hw.bandwidth.lo, hw.bandwidth.hi), label="bw"
            )
        ),
    )

    try:
        abstract = abstract_analyze(box, flow, hw)
    except (BindingError, DataflowError):
        # Definite failure: *every* member must fail concretely too.
        with pytest.raises((BindingError, DataflowError)):
            analyze_layer(layer, flow, accelerator)
        return
    try:
        concrete = analyze_layer(layer, flow, accelerator)
    except (BindingError, DataflowError):
        return  # partial-range failure: intervals only cover bindable members
    assert_contained(concrete, abstract)


@settings(max_examples=40, deadline=None)
@given(
    spec=specs,
    pes=st.sampled_from([4, 16, 64]),
    bw=st.sampled_from([4, 32]),
)
def test_abstract_bind_point_hardware_matches_concrete(spec, pes, bw):
    """On a point box + point hardware, abstract_bind fails exactly when
    concrete binding fails."""
    try:
        flow = spec.build()
    except (BindingError, DataflowError):
        return
    from repro.engines.binding import bind_dataflow

    accelerator = Accelerator(num_pes=pes, noc=NoC(bandwidth=bw))
    box = ShapeBox.from_layer(LAYER)
    try:
        bind_dataflow(flow, LAYER, accelerator)
        concrete_ok = True
    except (BindingError, DataflowError):
        concrete_ok = False
    try:
        bound = abstract_bind(flow, box, IntervalInt.point(pes))
        abstract_ok = not bound.caveats
    except (BindingError, DataflowError):
        abstract_ok = False
    assert abstract_ok == concrete_ok


# ----------------------------------------------------------------------
# DF2xx symbolic lint certificates
# ----------------------------------------------------------------------
def box_with_k_range():
    return ShapeBox.from_layer(LAYER, ranges={D.K: (64, 2048)})


def test_df201_error_info_and_straddle():
    flow = table3_dataflows()["KC-P"]
    box = box_with_k_range()

    def verdict(l1_size):
        hw = HardwareBox(
            num_pes=IntervalInt.point(64),
            bandwidth=IntervalInt.point(32),
            l1_size=l1_size,
        )
        report = lint_symbolic(flow, box, hw)
        return [d for d in report.diagnostics if d.code == "DF201"]

    errors = verdict(16)
    assert errors and errors[0].severity is Severity.ERROR
    assert errors[0].provenance == PROVEN_FOR_RANGE
    assert "every shape in the range" in errors[0].message

    certificates = verdict(4096)
    assert certificates and certificates[0].severity is Severity.INFO
    assert certificates[0].provenance == PROVEN_FOR_RANGE

    assert verdict(None) == []  # no capacity -> nothing to certify


def test_df202_underutilization_proven_for_range():
    # 64 PEs spatial over C=32: at most half the array can ever be busy.
    # Point box: over wide ranges utilization decorrelates (ops.lo pairs
    # with runtime.hi) and the under-utilization proof obligation fails.
    flow = table3_dataflows()["C-P"]
    box = ShapeBox.from_layer(LAYER)
    hw = HardwareBox(num_pes=IntervalInt.point(64), bandwidth=IntervalInt.point(32))
    report = lint_symbolic(flow, box, hw)
    found = [d for d in report.diagnostics if d.code == "DF202"]
    assert found and found[0].severity is Severity.WARNING
    assert found[0].provenance == PROVEN_FOR_RANGE


def test_df203_bandwidth_certificate_on_point_box():
    flow = table3_dataflows()["C-P"]
    box = ShapeBox.from_layer(LAYER)
    hw = HardwareBox(num_pes=IntervalInt.point(32), bandwidth=IntervalInt.point(32))
    report = lint_symbolic(flow, box, hw)
    found = [d for d in report.diagnostics if d.code == "DF203"]
    assert found and found[0].severity is Severity.INFO
    assert "fits the provisioned" in found[0].message


def test_df200_definitely_unbindable_range():
    flow = table3_dataflows()["KC-P"]  # needs a 64-PE cluster hierarchy
    box = ShapeBox.from_layer(LAYER)
    hw = HardwareBox(num_pes=IntervalInt.point(32), bandwidth=IntervalInt.point(32))
    report = lint_symbolic(flow, box, hw)
    assert report.has_errors
    codes = {d.code for d in report.diagnostics}
    assert codes == {"DF200"}


def test_symbolic_registry_is_df2xx():
    assert set(SYMBOLIC_RULES) == {"DF200", "DF201", "DF202", "DF203"}
    assert all(code.startswith("DF2") for code in SYMBOLIC_RULES)


# ----------------------------------------------------------------------
# Differential cross-check
# ----------------------------------------------------------------------
def test_crosscheck_passes_on_library_dataflows():
    box = ShapeBox.from_layer(LAYER, ranges={D.K: (32, 256), D.C: (16, 64)})
    hw = HardwareBox(num_pes=IntervalInt(32, 128), bandwidth=IntervalInt(16, 64))
    for name, flow in table3_dataflows().items():
        report = run_abstract(box, flow, hw)
        assert report.ok, f"{name}: {[m.describe() for m in report.mismatches]}"
        assert report.counts["samples"] > 0


def test_crosscheck_rejects_foreign_sample():
    box = ShapeBox.from_layer(LAYER)
    hw = HardwareBox(num_pes=IntervalInt.point(64), bandwidth=IntervalInt.point(32))
    outsider = conv2d("outsider", k=999, c=32, y=18, x=18, r=3, s=3)
    with pytest.raises(ValueError):
        run_abstract(box, table3_dataflows()["C-P"], hw, layers=[outsider])


def test_crosscheck_propagates_non_binding_errors(monkeypatch):
    """Only typed model rejections count as bind failures; a bug in the
    concrete engine surfaces instead of hiding in the count."""
    from repro.verify import differential

    box = ShapeBox.from_layer(LAYER)
    hw = HardwareBox(num_pes=IntervalInt.point(64), bandwidth=IntervalInt.point(32))
    flow = table3_dataflows()["C-P"]

    def rejects(*args):
        raise BindingError("planted rejection")

    monkeypatch.setattr(differential, "analyze_layer", rejects)
    report = run_abstract(box, flow, hw)
    assert report.ok and report.counts["bind_failures"] == report.counts["samples"] > 0

    def crashes(*args):
        raise RuntimeError("planted bug")

    monkeypatch.setattr(differential, "analyze_layer", crashes)
    with pytest.raises(RuntimeError, match="planted bug"):
        run_abstract(box, flow, hw)


# ----------------------------------------------------------------------
# The tuner's symbolic screen: same winner, fewer cost-model calls
# ----------------------------------------------------------------------
def test_tuner_symbolic_prune_same_winner_and_rejects():
    from repro.tuner.search import tune_layer

    accelerator = Accelerator(num_pes=64)
    base = tune_layer(
        LAYER, accelerator, objective="edp", max_l1_bytes=256, cache=False
    )
    pruned = tune_layer(
        LAYER,
        accelerator,
        objective="edp",
        max_l1_bytes=256,
        symbolic_prune=True,
        cache=False,
    )
    assert pruned.best.spec == base.best.spec
    assert pruned.best.score == base.best.score
    assert pruned.rejected == base.rejected
    assert pruned.symbolic_rejected > 0
    assert pruned.cost_model_calls < base.cost_model_calls
