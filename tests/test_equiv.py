"""Canonical forms, symmetry quotienting, dominance, and equiv pruning.

Unit tests pin the three canonicalization theorems on hand-built
spellings and the DF400-DF403 lints on mappings that trip them;
Hypothesis properties fuzz idempotence, transposition invariance, and
cache-key collision of symmetric twins over the tuner template space;
parity tests prove ``equiv_prune`` bit-identical in both search loops.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import ClusterDirective, MapDirective
from repro.dataflow.library import kc_partitioned, stock_dataflows
from repro.dse import explore
from repro.dse.space import DesignSpace, kc_partitioned_variants
from repro.engines.analysis import analyze_layer
from repro.equiv import (
    canonical_dataflow,
    canonical_key,
    canonicalize,
    dominance_certificate,
    integral_active,
    layer_symmetries,
    orbit_key,
    transpose_dataflow,
)
from repro.exec import dataflow_cache_payload
from repro.hardware.accelerator import Accelerator, NoC
from repro.lint import lint_dataflow
from repro.model.layer import conv2d
from repro.model.zoo import build
from repro.tuner import tune_layer
from repro.tuner.templates import SCHEDULES, SPATIAL_DIMS, CandidateSpec
from repro.verify.differential import run

SQUARE = conv2d("square", k=16, c=16, y=12, x=12, r=3, s=3)
SEQUENTIAL_K = Dataflow(
    name="sequential-K",
    directives=(MapDirective(dim="K", size=1, offset=1, spatial=False),),
)


def codes(report):
    return {diagnostic.code for diagnostic in report.diagnostics}


class TestCanonicalForm:
    def test_single_chunk_temporal_elided(self):
        # KC-P spells TemporalMap(Sz(R)) R / TemporalMap(Sz(S)) S: one
        # chunk each, provably inert.
        form = canonicalize(kc_partitioned(c_tile=8), SQUARE)
        assert not form.fallback
        assert len(form.elided) >= 2

    def test_redundant_spelling_shares_key(self):
        flow = kc_partitioned(c_tile=8)
        slimmed = Dataflow(
            name="KC-P-slim",
            directives=tuple(
                d
                for d in flow.directives
                if not (
                    isinstance(d, MapDirective) and not d.spatial and d.dim == "R"
                )
            ),
        )
        assert canonical_key(flow, SQUARE) == canonical_key(slimmed, SQUARE)

    def test_spatial_slot_order_shares_key(self):
        def flow(first, second):
            return Dataflow(
                name="two-spatial",
                directives=(
                    MapDirective(dim=first, size=1, offset=1, spatial=True),
                    MapDirective(dim=second, size=1, offset=1, spatial=True),
                    ClusterDirective(4),
                    MapDirective(dim="C", size=1, offset=1, spatial=True),
                ),
            )

        key_kc = canonical_key(flow("K", "Y"), SQUARE)
        key_ck = canonical_key(flow("Y", "K"), SQUARE)
        assert key_kc == key_ck
        assert key_kc[0] == "canon"

    def test_distinct_mappings_keep_distinct_keys(self):
        assert canonical_key(kc_partitioned(c_tile=8), SQUARE) != canonical_key(
            kc_partitioned(c_tile=16), SQUARE
        )

    def test_duplicate_dim_falls_back(self):
        # Binding raises for a twice-mapped dim; canonicalization must
        # refuse to certify it rather than guess.
        form = canonicalize(
            Dataflow(
                name="dup",
                directives=(
                    MapDirective(dim="K", size=2, offset=2, spatial=False),
                    MapDirective(dim="K", size=4, offset=4, spatial=False),
                ),
            ),
            SQUARE,
        )
        assert form.fallback
        assert form.key[0] == "raw"

    def test_fully_elided_spelling_falls_back(self):
        # Every directive is a single-chunk TemporalMap: the canonical
        # spelling would be empty (DF001).
        flow = Dataflow(
            name="inert",
            directives=(MapDirective(dim="K", size="Sz(K)", offset="Sz(K)", spatial=False),),
        )
        assert canonicalize(flow, SQUARE).fallback

    def test_elided_last_level_falls_back(self):
        # The inner level's only map is inert: the canonical spelling
        # would end with the Cluster (DF003).
        flow = Dataflow(
            name="inert-inner",
            directives=(
                MapDirective(dim="K", size=1, offset=1, spatial=True),
                ClusterDirective(4),
                MapDirective(dim="C", size="Sz(C)", offset="Sz(C)", spatial=False),
            ),
        )
        assert canonicalize(flow, SQUARE).fallback

    def test_canonical_dataflow_realizes(self):
        flow = kc_partitioned(c_tile=8)
        canonical = canonical_dataflow(flow, SQUARE)
        assert canonical.name == flow.name
        assert len(canonical.directives) < len(flow.directives)


class TestSymmetry:
    def test_square_layer_has_transpose_symmetry(self):
        assert layer_symmetries(SQUARE)
        # Non-square activation: no transposition symmetry.
        assert not layer_symmetries(
            conv2d("rect", k=16, c=16, y=24, x=12, r=3, s=3)
        )

    def test_transposed_twin_shares_orbit(self):
        flow = kc_partitioned(c_tile=8)
        twin = transpose_dataflow(flow)
        symmetries = layer_symmetries(SQUARE)
        assert canonical_key(flow, SQUARE) != canonical_key(twin, SQUARE)
        assert orbit_key(canonical_key(flow, SQUARE), symmetries) == orbit_key(
            canonical_key(twin, SQUARE), symmetries
        )

    def test_integral_active_rejects_fractional_folds(self):
        # K=3 chunks over 2 PEs fold as 2 + 1: avg_active 1.5.
        flow = Dataflow(
            name="three-over-two",
            directives=(MapDirective(dim="K", size=1, offset=1, spatial=True),),
        )
        layer = conv2d("tiny", k=3, c=2, y=4, x=4, r=1, s=1)
        form = canonicalize(flow, layer)
        assert integral_active(form, 2) is False
        assert integral_active(form, 3) is True


class TestDominance:
    HW = Accelerator(num_pes=256)

    def test_library_flow_dominates_sequential(self):
        layer = build("vgg16").layer("CONV3")
        flow = stock_dataflows(include_playground=False)["KC-P"]
        certificate = dominance_certificate(flow, SEQUENTIAL_K, layer, self.HW)
        assert certificate is not None
        assert certificate.dominator == "KC-P"
        assert "dominates sequential-K" in certificate.describe()
        for _, a, b in certificate.bounds:
            assert a <= b

    def test_no_self_dominance(self):
        layer = build("vgg16").layer("CONV3")
        assert (
            dominance_certificate(SEQUENTIAL_K, SEQUENTIAL_K, layer, self.HW)
            is None
        )

    def test_bounds_are_the_cost_models_values(self):
        # The interval interpreter put this pair's energy a few ulps
        # below analyze_layer's; the certificate quotes the cost model.
        layer = build("unet").layer("UPCONV3")
        flows = stock_dataflows(include_playground=False)
        dominator, dominated = flows["KC-P"], flows["C-P"]
        certificate = dominance_certificate(dominator, dominated, layer, self.HW)
        assert certificate is not None
        a = analyze_layer(layer, dominator, self.HW)
        b = analyze_layer(layer, dominated, self.HW)
        assert [name for name, _, _ in certificate.bounds] == [
            "runtime",
            "energy_total",
            "edp",
        ]
        for name, a_value, b_value in certificate.bounds:
            assert a_value == getattr(a, name)
            assert b_value == getattr(b, name)
        assert "256 PEs, bw 32" in certificate.describe()


class TestLints:
    ACCELERATOR = Accelerator(num_pes=256)

    def test_df400_fires_on_inert_temporal(self):
        report = lint_dataflow(kc_partitioned(c_tile=8), SQUARE)
        assert "DF400" in codes(report)

    def test_df401_fires_on_unsorted_spatial_slots(self):
        flow = Dataflow(
            name="unsorted",
            directives=(
                MapDirective(dim="Y", size=1, offset=1, spatial=True),
                MapDirective(dim="K", size=1, offset=1, spatial=True),
            ),
        )
        report = lint_dataflow(flow, SQUARE)
        assert "DF401" in codes(report)
        fixits = [d.fixit for d in report.diagnostics if d.code == "DF401"]
        assert fixits and fixits[0].replacement is not None

    def test_df402_fires_on_transposed_library_twin(self):
        report = lint_dataflow(transpose_dataflow(kc_partitioned()), SQUARE)
        assert "DF402" in codes(report)

    def test_df403_fires_on_dominated_mapping(self):
        layer = build("vgg16").layer("CONV3")
        report = lint_dataflow(SEQUENTIAL_K, layer, self.ACCELERATOR)
        assert "DF403" in codes(report)

    def test_clean_mapping_stays_clean(self):
        report = lint_dataflow(
            canonical_dataflow(kc_partitioned(c_tile=8), SQUARE), SQUARE
        )
        assert {"DF400", "DF401"}.isdisjoint(codes(report))


class TestCrosscheck:
    def test_library_on_one_layer_bit_identical(self):
        layer = build("vgg16").layer("CONV3")
        pairs = [
            (layer, flow) for _, flow in sorted(stock_dataflows().items())
        ]
        reports = run("equiv", pairs)
        assert all(report.ok for report in reports), [
            report.mismatches for report in reports
        ]
        assert len(reports) == len(pairs)
        assert sum(report.counts["canonical_changed"] for report in reports) > 0
        assert sum(report.counts["transposed_checked"] for report in reports) > 0


def _changed_forms(pairs):
    """The non-fallback canonical forms of ``pairs`` that respell the mapping."""
    forms = []
    for layer, flow in pairs:
        form = canonicalize(flow, layer)
        if not form.fallback and form.changed:
            forms.append(form)
    return forms


@pytest.mark.parametrize("corpus", ["zoo-library", "tuner-grid"])
def test_changed_forms_build_as_dataflows(corpus):
    """Canonicalization no longer constructs the canonical spelling; it
    checks the only two construction lints that spelling can fail. The
    construction lints themselves are the oracle here, over the zoo x
    stock library and the tuner grid x the tune-mapping layers."""
    from repro.lint.engine import construction_diagnostics
    from repro.model.zoo import MODELS

    from tests.test_tuner_keying import TUNE_MAPPING_LAYERS, tuner_grid

    if corpus == "zoo-library":
        flows = list(stock_dataflows().values())
        layers = [layer for model in sorted(MODELS) for layer in build(model).layers]
    else:
        flows = tuner_grid()
        layers = [build(model).layer(name) for model, name in TUNE_MAPPING_LAYERS]
    forms = _changed_forms((layer, flow) for layer in layers for flow in flows)
    assert len(forms) > 100
    for form in forms:
        assert not [d for d in construction_diagnostics(form.name, form.directives) if d.is_error]
        assert Dataflow(name=form.name, directives=form.directives).directives == form.directives


def enriched_space():
    base = kc_partitioned_variants(c_tiles=(8, 16), spatial_tiles=((1, 1), (1, 4)))
    variants = list(base)
    for label, flow in base:
        variants.append((f"{label}~T", transpose_dataflow(flow)))
    return DesignSpace(
        pe_counts=(64, 256),
        noc_bandwidths=(32,),
        dataflow_variants=variants,
    )


class TestEquivPruneParity:
    def test_dse_bit_identical_with_fewer_calls(self):
        layer = conv2d("sq", k=16, c=16, y=12, x=12, r=3, s=3)
        space = enriched_space()
        plain = explore(
            layer, space, area_budget=16.0, power_budget=450.0, cache=False
        )
        pruned = explore(
            layer, space, area_budget=16.0, power_budget=450.0, cache=False,
            equiv_prune=True,
        )
        assert pruned.points == plain.points
        assert pruned.throughput_optimal == plain.throughput_optimal
        assert pruned.energy_optimal == plain.energy_optimal
        assert pruned.edp_optimal == plain.edp_optimal
        assert pruned.statistics.equiv_replays > 0
        assert (
            pruned.statistics.cost_model_calls < plain.statistics.cost_model_calls
        )

    def test_tuner_bit_identical_with_fewer_calls(self):
        layer = conv2d("sq", k=8, c=8, y=10, x=10, r=3, s=3)
        accelerator = Accelerator(num_pes=16, noc=NoC(bandwidth=8))
        plain = tune_layer(layer, accelerator, cache=False)
        pruned = tune_layer(layer, accelerator, cache=False, equiv_prune=True)
        assert [(c.spec.name, c.score) for c in pruned.top] == [
            (c.spec.name, c.score) for c in plain.top
        ]
        assert [c.report for c in pruned.top] == [c.report for c in plain.top]
        assert pruned.equiv_replayed > 0
        assert pruned.cost_model_calls < plain.cost_model_calls


layers = st.builds(
    lambda k, c, yx, rs: conv2d(
        "prop", k=k, c=c, y=max(yx, rs + 1), x=max(yx, rs + 1), r=rs, s=rs
    ),
    k=st.integers(2, 16),
    c=st.integers(2, 16),
    yx=st.sampled_from([6, 8, 12]),
    rs=st.sampled_from([1, 3]),
)

specs = st.builds(
    CandidateSpec,
    outer_spatial=st.sampled_from(SPATIAL_DIMS),
    schedule=st.sampled_from(SCHEDULES),
    c_tile=st.sampled_from([1, 2, 4]),
    k_tile=st.sampled_from([1, 2, 4]),
    y_tile=st.sampled_from([1, 2]),
    x_tile=st.sampled_from([1, 2]),
)


@settings(max_examples=50, deadline=None)
@given(layer=layers, spec=specs)
def test_canonicalization_is_idempotent(layer, spec):
    flow = spec.build()
    form = canonicalize(flow, layer)
    again = canonicalize(canonical_dataflow(flow, layer), layer)
    assert again.key == form.key
    if not form.fallback:
        assert not again.changed


@settings(max_examples=50, deadline=None)
@given(layer=layers, spec=specs)
def test_transposition_preserves_orbit(layer, spec):
    symmetries = layer_symmetries(layer)
    assume(symmetries)
    flow = spec.build()
    form = canonicalize(flow, layer)
    twin_form = canonicalize(transpose_dataflow(flow), layer)
    assume(not form.fallback and not twin_form.fallback)
    assert orbit_key(form.key, symmetries) == orbit_key(
        twin_form.key, symmetries
    )


@settings(max_examples=50, deadline=None)
@given(layer=layers, spec=specs, num_pes=st.sampled_from([16, 64, 256]))
def test_symmetric_twins_collide_in_cache(layer, spec, num_pes):
    symmetries = layer_symmetries(layer)
    assume(symmetries)
    flow = spec.build()
    form = canonicalize(flow, layer)
    assume(not form.fallback)
    assume(integral_active(form, num_pes))
    twin = transpose_dataflow(flow)
    assert dataflow_cache_payload(flow, layer, num_pes) == dataflow_cache_payload(
        twin, layer, num_pes
    )
    # The exact tier merges redundant spellings unconditionally.
    respelled = canonical_dataflow(flow, layer, name=flow.name)
    assert dataflow_cache_payload(
        respelled, layer, num_pes
    ) == dataflow_cache_payload(flow, layer, num_pes)


@settings(max_examples=25, deadline=None)
@given(layer=layers, spec=specs)
def test_canonical_twin_analyzes_bit_identically(layer, spec):
    """The exactness claim itself, fuzzed over the template space."""
    from repro.engines.analysis import analyze_layer

    flow = spec.build()
    form = canonicalize(flow, layer)
    assume(not form.fallback and form.changed)
    accelerator = Accelerator(num_pes=16, noc=NoC(bandwidth=8))
    original = analyze_layer(layer, flow, accelerator)
    canonical = analyze_layer(layer, canonical_dataflow(flow, layer), accelerator)
    assert canonical.runtime == original.runtime
    assert canonical.energy_total == original.energy_total
    assert canonical.l2_reads == original.l2_reads
    assert canonical.reuse_factors == original.reuse_factors


def test_unknown_explain_rule_lists_families():
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["lint", "--explain", "DF999"])
    message = str(excinfo.value)
    assert message.startswith("error: unknown lint rule 'DF999'")
    assert "DF4" in message
