"""The static mapping analyzer: one focused test per rule code, the
report renderers, error plumbing, and the lint-accepted ⇒ analyzable
soundness property."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.dataflow import Dataflow, dataflow
from repro.dataflow.directives import (
    ClusterDirective,
    spatial_map,
    temporal_map,
)
from repro.engines.analysis import analyze_layer
from repro.engines.binding import bind_dataflow
from repro.errors import BindingError, DataflowError
from repro.hardware.accelerator import Accelerator, NoC
from repro.lint import (
    RULES,
    Severity,
    lint_dataflow,
    lint_directives,
    lint_text,
    static_errors,
)
from repro.model.layer import conv2d
from repro.tensors import dims as D
from repro.tuner.templates import SCHEDULES, SPATIAL_DIMS, CandidateSpec

LAYER = conv2d("lint-layer", k=8, c=8, y=16, x=16, r=3, s=3)
ACC4 = Accelerator(num_pes=4)


def codes_of(report):
    return set(report.codes())


# ----------------------------------------------------------------------
# Construction rules surface through Dataflow with diagnostics attached
# ----------------------------------------------------------------------
def test_df001_empty_dataflow():
    with pytest.raises(DataflowError) as exc:
        Dataflow(name="empty", directives=())
    assert "at least one directive" in str(exc.value)
    assert [d.code for d in exc.value.diagnostics] == ["DF001"]


def test_df002_unexpected_directive():
    with pytest.raises(DataflowError) as exc:
        Dataflow(name="junk", directives=("not-a-directive",))
    assert "unexpected directive" in str(exc.value)
    assert "DF002" in {d.code for d in exc.value.diagnostics}


def test_df002_syntax_errors_collected_leniently():
    report = lint_text("SpatialMap(1,1) K\ngarbage line\nSpatialMap(1,1) Q\n")
    syntax = [d for d in report.diagnostics if d.code == "DF002"]
    assert len(syntax) == 2
    assert all(d.span is not None for d in syntax)
    assert {d.span.line for d in syntax} == {2, 3}


def test_dedupe_keeps_span_copy_and_stable_order():
    """Diagnostics firing identically from the construction and rule
    passes collapse to one entry: the span-carrying copy survives, at
    the position of the first occurrence."""
    from repro.lint.diagnostics import Diagnostic, SourceSpan
    from repro.lint.engine import _dedupe

    span = SourceSpan(line=2, column=1, end_column=5, source="dup line")
    first = Diagnostic(code="DF001", severity=Severity.ERROR, message="other")
    spanless = Diagnostic(code="DF002", severity=Severity.ERROR, message="dup")
    spanned = Diagnostic(
        code="DF002", severity=Severity.ERROR, message="dup", span=span
    )
    tail = Diagnostic(code="DF009", severity=Severity.WARNING, message="last")

    result = _dedupe([first, spanless, tail, spanned])
    assert [d.code for d in result] == ["DF001", "DF002", "DF009"]
    assert result[1].span is span  # span copy won, first-occurrence slot
    # Same code but different message is NOT a duplicate.
    other = Diagnostic(code="DF002", severity=Severity.ERROR, message="dup2")
    assert len(_dedupe([spanless, other])) == 2


def test_lint_text_has_no_duplicates_and_stable_order():
    text = "SpatialMap(1,1) K\ngarbage line\nSpatialMap(1,1) K\nCluster(3)\n"
    reports = [
        lint_text(text, layer=LAYER, accelerator=ACC4) for _ in range(2)
    ]
    for report in reports:
        keys = [
            (d.code, str(d.severity), d.message, d.directive_index)
            for d in report.diagnostics
        ]
        assert len(keys) == len(set(keys))
    assert [d.headline() for d in reports[0].diagnostics] == [
        d.headline() for d in reports[1].diagnostics
    ]
    errors = static_errors(
        dataflow("d", spatial_map(1, 1, D.K), temporal_map(1, 1, D.C)),
        LAYER,
        ACC4,
    )
    keys = [(d.code, d.message, d.directive_index) for d in errors]
    assert len(keys) == len(set(keys))


def test_df003_trailing_cluster():
    with pytest.raises(DataflowError) as exc:
        dataflow("t", spatial_map(1, 1, D.K), ClusterDirective(4))
    assert "must be followed by maps" in str(exc.value)
    assert "DF003" in {d.code for d in exc.value.diagnostics}


def test_df004_mixed_coordinates():
    with pytest.raises(DataflowError) as exc:
        dataflow("m", temporal_map(1, 1, D.Y), temporal_map(1, 1, D.YP))
    assert "pick one coordinate system" in str(exc.value)
    assert "DF004" in {d.code for d in exc.value.diagnostics}


# ----------------------------------------------------------------------
# Lint-time rules, one minimal offender each
# ----------------------------------------------------------------------
def test_df005_duplicate_dim_in_level():
    flow = dataflow("dup", temporal_map(2, 2, D.K), temporal_map(4, 4, D.K))
    report = lint_dataflow(flow)
    assert "DF005" in codes_of(report)
    assert report.has_errors
    # Same dim in *different* levels is fine.
    flow = dataflow(
        "ok", temporal_map(2, 2, D.K), ClusterDirective(2), temporal_map(1, 1, D.K)
    )
    assert "DF005" not in codes_of(lint_dataflow(flow))


def test_df006_unmapped_dimension():
    flow = dataflow("cov", spatial_map(1, 1, D.K))
    report = lint_dataflow(flow, LAYER)
    hits = [d for d in report.diagnostics if d.code == "DF006"]
    assert {d.message.split("dimension ")[1].split(" ")[0] for d in hits} == {
        "C", "Y", "X", "R", "S",
    }
    assert all(d.severity is Severity.INFO for d in hits)


def test_df007_cluster_exceeds_pes():
    flow = dataflow(
        "big", spatial_map(1, 1, D.K), ClusterDirective(1000), spatial_map(1, 1, D.C)
    )
    report = lint_dataflow(flow, accelerator=Accelerator(num_pes=256))
    assert "DF007" in codes_of(report)
    with pytest.raises(BindingError):
        bind_dataflow(flow, LAYER, Accelerator(num_pes=256))


def test_df008_indivisible_cluster():
    flow = dataflow(
        "odd", spatial_map(1, 1, D.K), ClusterDirective(48), spatial_map(1, 1, D.C)
    )
    report = lint_dataflow(flow, accelerator=Accelerator(num_pes=64))
    hits = [d for d in report.diagnostics if d.code == "DF008"]
    assert len(hits) == 1 and "idle" in hits[0].message
    assert "DF008" not in codes_of(
        lint_dataflow(flow, accelerator=Accelerator(num_pes=96))
    )


def test_df009_spatial_underutilization_with_fixit():
    flow = dataflow("u", spatial_map(3, 3, D.K), temporal_map(8, 8, D.C))
    report = lint_dataflow(flow, LAYER, ACC4)
    hits = [d for d in report.diagnostics if d.code == "DF009"]
    assert len(hits) == 1
    assert hits[0].fixit is not None
    assert hits[0].fixit.replacement == "SpatialMap(2,2) K"
    # The suggested size really does fill every fold.
    fixed = dataflow("u2", spatial_map(2, 2, D.K), temporal_map(8, 8, D.C))
    assert "DF009" not in codes_of(lint_dataflow(fixed, LAYER, ACC4))


def test_df010_halo_on_non_sliding_dim():
    flow = dataflow("h", spatial_map(1, 1, D.K), temporal_map(4, 2, D.C))
    report = lint_dataflow(flow, LAYER, ACC4)
    assert "DF010" in codes_of(report)
    # Halo on Y is the convolutional-reuse idiom — never flagged.
    flow = dataflow("ok", spatial_map(1, 1, D.K), temporal_map(3, 1, D.Y))
    assert "DF010" not in codes_of(lint_dataflow(flow, LAYER, ACC4))


def test_df011_non_positive_size():
    report_codes = {d.code for d in lint_directives("z", [temporal_map(0, 1, D.K)])}
    assert "DF011" in report_codes
    assert {d.code for d in lint_directives("z", [temporal_map(1, 0, D.K)])} >= {"DF011"}


def test_df012_unresolvable_expression():
    # A raw-string size dodges SizeExpr's construction-time syntax check,
    # so DF012 (and binding) are what catch it.
    flow = dataflow("e", temporal_map("1+", 1, D.K))
    report = lint_dataflow(flow, LAYER)
    assert "DF012" in codes_of(report)
    assert report.has_errors
    with pytest.raises(DataflowError):
        bind_dataflow(flow, LAYER, ACC4)


def test_df013_l1_overflow():
    # The retired DF013 (tile footprint over L1) is DF500 or DF502 now.
    flow = dataflow("b", spatial_map(1, 1, D.K), temporal_map(8, 8, D.C))
    tiny = Accelerator(num_pes=4, l1_size=4)
    report = lint_dataflow(flow, LAYER, tiny)
    hits = [d for d in report.diagnostics if d.code in ("DF500", "DF502")]
    assert len(hits) == 1 and hits[0].is_error
    roomy = Accelerator(num_pes=4, l1_size=1 << 20)
    assert not {"DF500", "DF502"} & codes_of(lint_dataflow(flow, LAYER, roomy))


def test_df014_l2_overflow():
    # The retired DF014 (working set over L2) is DF501 now.
    flow = dataflow("b", spatial_map(1, 1, D.K), temporal_map(8, 8, D.C))
    tiny = Accelerator(num_pes=4, l2_size=8)
    report = lint_dataflow(flow, LAYER, tiny)
    hits = [d for d in report.diagnostics if d.code == "DF501"]
    assert len(hits) == 1 and hits[0].severity is Severity.WARNING


def test_df015_spatial_reduction_unsupported():
    flow = dataflow("r", spatial_map(1, 1, D.C), temporal_map(2, 2, D.K))
    no_reduce = Accelerator(num_pes=4, spatial_reduction=False)
    assert "DF015" in codes_of(lint_dataflow(flow, LAYER, no_reduce))
    # A K-spatial mapping has no cross-PE reduction: Table 5 says fine.
    flow = dataflow("ok", spatial_map(1, 1, D.K), temporal_map(2, 2, D.C))
    assert "DF015" not in codes_of(lint_dataflow(flow, LAYER, no_reduce))


def test_df016_multicast_unsupported():
    no_mcast = Accelerator(num_pes=4, noc=NoC(multicast=False))
    flow = dataflow("m", spatial_map(1, 1, D.K), temporal_map(2, 2, D.C))
    report = lint_dataflow(flow, LAYER, no_mcast)
    hits = [d for d in report.diagnostics if d.code == "DF016"]
    assert len(hits) == 1 and "I" in hits[0].message


def test_df017_coverage_gap():
    flow = dataflow("g", spatial_map(1, 1, D.K), temporal_map(2, 4, D.C))
    report = lint_dataflow(flow, LAYER, ACC4)
    hits = [d for d in report.diagnostics if d.code == "DF017"]
    assert len(hits) == 1
    assert hits[0].fixit.replacement == "TemporalMap(2,2) C"


def test_df018_idle_level():
    flow = dataflow("i", temporal_map(2, 2, D.K), temporal_map(2, 2, D.C))
    report = lint_dataflow(flow, LAYER, ACC4)
    hits = [d for d in report.diagnostics if d.code == "DF018"]
    assert len(hits) == 1 and "3 of them" in hits[0].message
    assert "DF018" not in codes_of(
        lint_dataflow(flow, LAYER, Accelerator(num_pes=1))
    )


# ----------------------------------------------------------------------
# Registry and report plumbing
# ----------------------------------------------------------------------
def test_rule_registry_is_complete():
    # DF013/DF014 are retired: DF500/DF502 and DF501 report the same overflows.
    expected = [f"DF{i:03d}" for i in range(1, 19) if i not in (13, 14)]
    expected += ["DF101", "DF102", "DF103"]  # verifier-backed coverage codes
    expected += ["DF300", "DF301", "DF302", "DF303"]  # communication codes
    expected += ["DF400", "DF401", "DF402", "DF403"]  # equivalence/dominance
    expected += ["DF500", "DF501", "DF502", "DF503", "DF504"]  # capacity/roofline
    assert sorted(RULES) == expected
    construction = {c for c, r in RULES.items() if r.construction}
    assert construction == {"DF001", "DF002", "DF003", "DF004"}
    binding_equivalent = {c for c, r in RULES.items() if r.binding_equivalent}
    assert binding_equivalent == {"DF005", "DF007", "DF011", "DF012"}


def test_render_rustc_style():
    report = lint_text(
        "SpatialMap(1,1) K\nSpatialMap(1,1) Q\n", name="demo", source="demo.df"
    )
    text = report.render()
    assert "error[DF002]" in text
    assert "--> demo.df:2:1" in text
    assert "^" in text
    assert "error(s)" in text


def test_json_roundtrip():
    flow = dataflow("j", spatial_map(3, 3, D.K), temporal_map(4, 2, D.C))
    report = lint_dataflow(flow, LAYER, ACC4)
    payload = json.loads(report.to_json())
    assert payload["subject"] == "j"
    assert payload["warnings"] >= 1
    codes = {d["code"] for d in payload["diagnostics"]}
    assert codes == set(report.codes())
    fixits = [d["fixit"] for d in payload["diagnostics"] if d["fixit"]]
    assert all("description" in f for f in fixits)


def test_errors_carry_diagnostics_in_str():
    error = DataflowError("boom")
    assert str(error) == "boom"
    with pytest.raises(DataflowError) as exc:
        Dataflow(name="empty", directives=())
    assert "[DF001]" in str(exc.value)


def test_static_errors_subset_is_sound():
    # Statically rejected => binding raises; statically clean => binds.
    bad = dataflow("dup", temporal_map(2, 2, D.K), temporal_map(4, 4, D.K))
    assert static_errors(bad, LAYER)
    with pytest.raises(BindingError):
        bind_dataflow(bad, LAYER, ACC4)
    good = dataflow("ok", spatial_map(1, 1, D.K), temporal_map(4, 4, D.C))
    assert static_errors(good, LAYER, ACC4) == []
    bind_dataflow(good, LAYER, ACC4)


# ----------------------------------------------------------------------
# Property: linter-accepted mappings never raise in the cost model
# ----------------------------------------------------------------------
layers = st.builds(
    lambda k, c, yx, rs, stride: conv2d(
        "prop", k=k, c=c, y=max(yx, rs + stride), x=max(yx, rs + stride),
        r=rs, s=rs, stride=stride,
    ),
    k=st.integers(1, 32),
    c=st.integers(1, 32),
    yx=st.integers(4, 20),
    rs=st.integers(1, 5),
    stride=st.integers(1, 2),
)

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
    cluster=st.sampled_from([None, 2, 4, 64]),
)

accelerators = st.builds(
    lambda pes, bw: Accelerator(num_pes=pes, noc=NoC(bandwidth=bw)),
    pes=st.sampled_from([4, 16, 64]),
    bw=st.sampled_from([4, 32]),
)


@settings(max_examples=80, deadline=None)
@given(layer=layers, spec=specs, accelerator=accelerators)
def test_lint_accepted_never_raises(layer, spec, accelerator):
    try:
        flow = spec.build()
    except (BindingError, DataflowError):
        return
    report = lint_dataflow(flow, layer, accelerator)
    if report.has_errors:
        return
    analyze_layer(layer, flow, accelerator)  # must not raise


@settings(max_examples=80, deadline=None)
@given(layer=layers, spec=specs, accelerator=accelerators)
def test_static_errors_match_binding(layer, spec, accelerator):
    """static_errors is exactly the set binding rejects (both ways)."""
    try:
        flow = spec.build()
    except (BindingError, DataflowError):
        return
    errors = static_errors(flow, layer, accelerator)
    try:
        bind_dataflow(flow, layer, accelerator)
        bound = True
    except (BindingError, DataflowError):
        bound = False
    assert bound == (not errors)
