"""Tests for the iteration-space coverage verifier (repro.verify).

The core contract: ``verify_dataflow`` must PROVE every sound library
mapping, REFUTE every seeded mutant with a concrete counterexample that
the independent brute-force executor confirms, and never disagree with
brute force about a verdict.
"""

import pytest

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import spatial_map, temporal_map
from repro.dataflow.library import (
    fig5_playground,
    output_stationary_1level,
    row_stationary_fig6,
    table3_dataflows,
    weight_stationary_1level,
)
from repro.dataflow.loopnest import Loop, loopnest_to_dataflow
from repro.errors import DataflowError
from repro.model.layer import conv2d, dwconv, fc
from repro.model.zoo import build
from repro.tensors import dims as D
from repro.tuner.templates import enumerate_candidates
from repro.verify import (
    REFERENCE_DIMS,
    RuleAudit,
    Verdict,
    audit_rules,
    brute_force_counts,
    total_cells,
    verify_dataflow,
)


def reference_count_at(counts, coordinate):
    key = tuple(coordinate.get(dim, 0) for dim in REFERENCE_DIMS)
    return counts.get(key, 0)


def assert_reference_all_ones(flow, layer):
    counts = brute_force_counts(flow, layer)
    assert len(counts) == total_cells(layer)
    assert all(count == 1 for count in counts.values())


# ----------------------------------------------------------------------
# The library is proven covered exactly once
# ----------------------------------------------------------------------
class TestLibraryProven:
    @pytest.mark.parametrize("name", sorted(table3_dataflows()))
    def test_table3(self, name, small_conv):
        result = verify_dataflow(table3_dataflows()[name], small_conv)
        assert result.verdict is Verdict.PROVEN, result.render()

    @pytest.mark.parametrize(
        "factory",
        [weight_stationary_1level, output_stationary_1level, row_stationary_fig6],
    )
    def test_single_level_stationary(self, factory, small_conv):
        result = verify_dataflow(factory(), small_conv)
        assert result.verdict is Verdict.PROVEN, result.render()

    @pytest.mark.parametrize("key", sorted(fig5_playground()))
    def test_fig5_on_conv1d(self, key, conv1d_layer):
        result = verify_dataflow(fig5_playground()[key], conv1d_layer)
        assert result.verdict is Verdict.PROVEN, result.render()

    def test_proven_agrees_with_brute_force(self, small_conv):
        for flow in (
            table3_dataflows()["KC-P"],
            table3_dataflows()["YR-P"],
            row_stationary_fig6(),
        ):
            assert verify_dataflow(flow, small_conv).proven
            assert_reference_all_ones(flow, small_conv)

    def test_fc_layer(self):
        layer = fc("fc", k=16, c=32)
        result = verify_dataflow(table3_dataflows()["KC-P"], layer)
        assert result.verdict is Verdict.PROVEN, result.render()


# ----------------------------------------------------------------------
# Seeded mutants are refuted with reference-confirmed counterexamples
# ----------------------------------------------------------------------
MUTANTS = {
    "double-K": (temporal_map(2, 1, D.K), spatial_map(1, 1, D.C)),
    "missed-C": (spatial_map(1, 1, D.K), temporal_map(1, 2, D.C)),
    "missed-Y-gap": (temporal_map(1, 1, D.K), temporal_map(3, 4, D.YP)),
    "double-Y-overlap": (temporal_map(1, 1, D.K), spatial_map(4, 3, D.YP)),
}


class TestMutantsRefuted:
    @pytest.mark.parametrize("label", sorted(MUTANTS))
    def test_refuted_with_concrete_counterexample(self, label, small_conv):
        flow = Dataflow(name=label, directives=MUTANTS[label])
        result = verify_dataflow(flow, small_conv)
        assert result.verdict is Verdict.REFUTED, result.render()
        counterexample = result.counterexample
        assert counterexample is not None
        counts = brute_force_counts(flow, small_conv)
        actual = reference_count_at(counts, counterexample.coordinate)
        assert actual == counterexample.count
        if counterexample.kind == "missed":
            assert actual == 0
        else:
            assert counterexample.kind == "double"
            assert actual >= 2

    def test_kernel_shorter_than_span_is_refuted(self, small_conv):
        # Sliding lattice's complete subcase: innermost input tile is
        # narrower than the kernel span, so (out=0, every tap) is missed.
        flow = Dataflow(
            name="short-window",
            directives=(temporal_map(1, 1, D.K), temporal_map(2, 2, D.X)),
        )
        result = verify_dataflow(flow, small_conv)
        assert result.verdict is Verdict.REFUTED
        counts = brute_force_counts(flow, small_conv)
        actual = reference_count_at(counts, result.counterexample.coordinate)
        assert actual == result.counterexample.count


# ----------------------------------------------------------------------
# Library defects the verifier discovered (true positives)
# ----------------------------------------------------------------------
class TestKnownLibraryGaps:
    def test_yrp_strided_proven_after_offset_fix(self):
        """YR-P's inner diagonal row walk used to be stride-scaled at
        every level and skipped input rows on strided layers. Offsets
        are input-unit quantities now (the outer walk spells St(Y)
        explicitly), so strided layers are proven — and the brute-force
        reference agrees: every MAC exactly once."""
        layer = conv2d("strided", k=2, c=2, y=13, x=13, r=3, s=3, stride=2)
        flow = table3_dataflows()["YR-P"]
        result = verify_dataflow(flow, layer)
        assert result.verdict is Verdict.PROVEN
        counts = brute_force_counts(flow, layer)
        assert set(counts.values()) == {1}

    def test_rs_fig6_strided_3x3_proven_after_offset_fix(self):
        """RS shares YR-P's diagonal walk; inside its 3x3 envelope the
        stride no longer refutes it."""
        layer = conv2d("strided3", k=2, c=3, y=13, x=13, r=3, s=3, stride=2)
        result = verify_dataflow(row_stationary_fig6(), layer)
        assert result.verdict is Verdict.PROVEN

    def test_rs_fig6_wrong_kernel_size(self):
        """RS hardcodes Figure 6's 3x3 tiles; a 5x5 kernel both misses
        and double-counts MACs."""
        layer = conv2d("r5", k=2, c=2, y=11, x=11, r=5, s=5)
        result = verify_dataflow(row_stationary_fig6(), layer)
        assert result.verdict is Verdict.REFUTED
        counts = brute_force_counts(row_stationary_fig6(), layer)
        actual = reference_count_at(counts, result.counterexample.coordinate)
        assert actual == result.counterexample.count


# ----------------------------------------------------------------------
# The point query under nested generators
# ----------------------------------------------------------------------
class TestNestedPointQuery:
    """An inner generator's chunk offsets are relative to its outer
    chunk, so the point query must not narrow them against the target's
    absolute window. The tuner's y4x4 tiles on stride-2 layers overlap
    (a plane tile steps by ``y_tile`` input rows, not ``y_tile*St(Y)``),
    and their double-counted cells sit past the first outer chunk."""

    @pytest.mark.parametrize(
        "name",
        [
            "tuned-CXx32-activation-c1k1y4x4",
            "tuned-CYx32-reduction-c1k1y4x4",
            "tuned-KYx8-reduction-c1k1y4x4",
        ],
    )
    def test_refutation_matches_brute_force(self, name):
        layer = dwconv("strided-dw", c=2, y=19, x=19, r=3, s=3, stride=2)
        flow = next(spec.build() for spec in enumerate_candidates() if spec.name == name)
        result = verify_dataflow(flow, layer)
        assert result.verdict is Verdict.REFUTED, result.render()
        assert result.counterexample.kind == "double"
        counts = brute_force_counts(flow, layer)
        actual = reference_count_at(counts, result.counterexample.coordinate)
        assert actual == result.counterexample.count == 2

    def test_tuner_grid_on_strided_depthwise_layer(self):
        """Every one of the 1,344 candidates on BN2_1_dw verifies, and
        every y4 tile on this stride-2 layer is refuted, including the
        288 with an X or Y cluster, whose doubled cells lie past the
        first outer chunk."""
        layer = build("mobilenet_v2").layer("BN2_1_dw")
        specs = list(enumerate_candidates())
        verdicts = {spec.name: verify_dataflow(spec.build(), layer).verdict for spec in specs}
        assert len(verdicts) == 1344
        refuted = {name for name, verdict in verdicts.items() if verdict is Verdict.REFUTED}
        assert refuted == {spec.name for spec in specs if spec.y_tile == 4}
        nested = {
            spec.name
            for spec in specs
            if spec.y_tile == 4 and spec.inner_spatial in (D.X, D.Y)
        }
        assert len(nested) == 288
        assert set(verdicts.values()) == {Verdict.PROVEN, Verdict.REFUTED}


# ----------------------------------------------------------------------
# Verdict plumbing: INVALID, UNDECIDED, method agreement, serialization
# ----------------------------------------------------------------------
class TestVerdicts:
    def test_unbindable_mapping_is_invalid(self, small_conv):
        flow = Dataflow(
            name="bad-expr",
            directives=(temporal_map("1+", 1, D.K), spatial_map(1, 1, D.C)),
        )
        result = verify_dataflow(flow, small_conv)
        assert result.verdict is Verdict.INVALID
        assert "does not bind" in result.message

    def test_tiny_budget_is_undecided(self, small_conv):
        result = verify_dataflow(row_stationary_fig6(), small_conv, budget=10)
        assert result.verdict is Verdict.UNDECIDED

    def test_forced_enumeration_agrees_with_auto(self, small_conv):
        for name, flow in table3_dataflows().items():
            auto = verify_dataflow(flow, small_conv)
            enum = verify_dataflow(flow, small_conv, method="enumeration")
            assert auto.verdict == enum.verdict == Verdict.PROVEN, name

    def test_unknown_method_rejected(self, small_conv):
        with pytest.raises(ValueError):
            verify_dataflow(table3_dataflows()["KC-P"], small_conv, method="magic")

    def test_render_and_to_dict(self, small_conv):
        result = verify_dataflow(table3_dataflows()["KC-P"], small_conv)
        text = result.render()
        assert "PROVEN" in text
        payload = result.to_dict()
        assert payload["verdict"] == "proven"
        assert payload["total_macs"] == small_conv.total_ops()
        assert payload["groups"]

        mutant = Dataflow(name="m", directives=MUTANTS["double-K"])
        refuted = verify_dataflow(mutant, small_conv)
        payload = refuted.to_dict()
        assert payload["counterexample"]["kind"] == "double"
        assert "is executed" in refuted.counterexample.describe()


# ----------------------------------------------------------------------
# Loopnest round-trip coverage check
# ----------------------------------------------------------------------
class TestLoopnestVerification:
    def test_sound_nest_passes(self, small_conv):
        flow = loopnest_to_dataflow(
            [Loop(D.K, 2), Loop(D.C, 4, parallel=True)],
            verify_against=small_conv,
        )
        assert flow.name == "from-loopnest"

    def test_gapped_nest_raises_with_counterexample(self, small_conv):
        with pytest.raises(DataflowError) as excinfo:
            loopnest_to_dataflow(
                [Loop(D.K, 1, step=2), Loop(D.C, 4, parallel=True)],
                name="gapped",
                verify_against=small_conv,
            )
        assert "exactly once" in str(excinfo.value)
        assert "MAC" in str(excinfo.value)

    def test_no_layer_skips_verification(self):
        # Without verify_against the (gapped) nest still converts.
        flow = loopnest_to_dataflow([Loop(D.K, 1, step=2)])
        assert flow.directives[0].offset == 2


# ----------------------------------------------------------------------
# Rule audit
# ----------------------------------------------------------------------
class TestAudit:
    def test_audit_covers_every_rule(self):
        from repro.lint.rules import RULES

        audits = audit_rules()
        assert set(audits) == set(RULES)
        assert all(isinstance(audit, RuleAudit) for audit in audits.values())

    def test_categories(self):
        audits = audit_rules()
        by_category = {}
        for audit in audits.values():
            by_category.setdefault(audit.category, set()).add(audit.code)
        assert by_category["construction-sound"] == {"DF001", "DF002", "DF003", "DF004"}
        assert by_category["binding-sound"] == {"DF005", "DF007", "DF011", "DF012"}
        assert by_category["coverage-refutable"] == {"DF010", "DF017"}
        assert by_category["verifier"] == {"DF101", "DF102", "DF103"}

    def test_coverage_rules_are_certified_by_corpus(self):
        audits = audit_rules()
        for code in ("DF010", "DF017"):
            audit = audits[code]
            assert audit.certified, audit.evidence
            assert any("refuted" in line for line in audit.evidence)
        # ... and the benign inner-level variant shows DF010 must stay
        # a heuristic warning rather than a proven error.
        assert any("proven" in line for line in audits["DF010"].evidence)

    def test_to_dict(self):
        audit = next(iter(audit_rules().values()))
        payload = audit.to_dict()
        assert set(payload) == {"code", "title", "category", "certified", "evidence"}
