"""Tests for the static capacity analyzer (repro.capacity).

Covers the four certified claims the subsystem makes:

- the closed-form occupancy bounds reproduce the cost engine's buffer
  sizing bit-for-bit (engine parity);
- the bounds are monotone in the mapping's tile sizes (Hypothesis);
- the roofline floors never exceed the engine's modeled runtime;
- capacity-based search pruning is sound — DSE and tuner results are
  bit-identical with and without the screen, whose one binding per
  mapping variant (``VariantCapacity``) answers every PE count exactly
  as a binding at that count does.

Plus the DF5xx lint rules and the ``nearest_rule`` suggestion helper.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.capacity import (
    CAPACITY_PROVENANCE,
    VariantCapacity,
    classify_roofline,
    compute_capacity_bounds,
)
from repro.dataflow.library import kc_partitioned, table3_dataflows
from repro.dataflow.parser import parse_dataflow
from repro.engines.analysis import analyze_layer
from repro.errors import BindingError
from repro.hardware.accelerator import Accelerator, NoC
from repro.model.layer import conv2d
from repro.model.zoo import build
from repro.vector.lower import lower_group
from repro.verify.differential import run


@pytest.fixture(scope="module")
def layer():
    return build("vgg16").layer("CONV11")


@pytest.fixture(scope="module")
def accelerator():
    return Accelerator(num_pes=64)


class TestEngineParity:
    """The bounds reproduce the engine's buffer sizing bit-for-bit."""

    @pytest.mark.parametrize("flow_name", sorted(table3_dataflows()))
    def test_table3_flows_match_engine(self, layer, accelerator, flow_name):
        flow = table3_dataflows()[flow_name]
        bounds = compute_capacity_bounds(flow, layer, accelerator)
        report = analyze_layer(layer, flow, accelerator)
        assert bounds.l1.peak_bytes == report.l1_buffer_req
        assert bounds.l2.peak_bytes == report.l2_buffer_req
        assert tuple(lvl.peak_bytes for lvl in bounds.intermediates) == tuple(
            report.intermediate_buffer_reqs
        )

    def test_single_buffered_halves_peak(self, layer):
        flow = kc_partitioned()
        double = compute_capacity_bounds(flow, layer, Accelerator(num_pes=64))
        single = compute_capacity_bounds(
            flow, layer, Accelerator(num_pes=64, double_buffered=False)
        )
        assert double.l1.peak_bytes == 2 * single.l1.peak_bytes
        assert double.l2.peak_bytes == 2 * single.l2.peak_bytes

    def test_capacity_verdicts_respect_declared_sizes(self, layer):
        sized = Accelerator(num_pes=64, l1_size=16)
        bounds = compute_capacity_bounds(kc_partitioned(), layer, sized)
        assert not bounds.l1.fits
        assert not bounds.feasible
        roomy = Accelerator(num_pes=64, l1_size=1 << 20, l2_size=1 << 24)
        bounds = compute_capacity_bounds(kc_partitioned(), layer, roomy)
        assert bounds.feasible


class TestMonotonicity:
    """Peak bounds never shrink when a temporal tile dimension grows.

    Only the activation tiles (``y_tile``/``x_tile``) carry a
    monotonicity guarantee: they grow every level's chunk without
    changing the cluster structure. The cluster size ``c_tile`` does
    *not* — it trades K-parallelism for C-parallelism across the
    array, so the shared-L2 footprint can go either way.
    """

    TILES = st.tuples(
        st.sampled_from([2, 4, 8, 16, 32, 64]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4]),
    )

    @settings(max_examples=40, deadline=None)
    @given(small=TILES, grow=st.tuples(st.booleans(), st.booleans()))
    def test_bounds_monotone_in_activation_tiles(self, small, grow):
        layer = conv2d("mono", k=64, c=64, y=16, x=16, r=3, s=3, padding=1)
        accelerator = Accelerator(num_pes=128)
        c_tile, y_tile, x_tile = small
        big = (
            c_tile,
            y_tile * 2 if grow[0] else y_tile,
            x_tile * 2 if grow[1] else x_tile,
        )
        assume(big != small)

        def bounds_for(tiles):
            flow = kc_partitioned(
                c_tile=tiles[0], y_tile=tiles[1], x_tile=tiles[2]
            )
            try:
                return compute_capacity_bounds(flow, layer, accelerator)
            except Exception:
                return None

        lo, hi = bounds_for(small), bounds_for(big)
        assume(lo is not None and hi is not None)
        assert lo.l1.peak_bytes <= hi.l1.peak_bytes
        assert lo.l2.peak_bytes <= hi.l2.peak_bytes
        for lo_level, hi_level in zip(lo.intermediates, hi.intermediates):
            assert lo_level.peak_bytes <= hi_level.peak_bytes


class TestRoofline:
    """Floors are sound and the crossover bandwidth is consistent."""

    def test_floors_below_engine_runtime(self, layer, accelerator):
        for name, flow in sorted(table3_dataflows().items()):
            certificate = classify_roofline(flow, layer, accelerator)
            report = analyze_layer(layer, flow, accelerator)
            sweep = report.level_stats[0].runtime_sweep
            assert certificate.compute_floor_cycles <= sweep * (1 + 1e-9), name
            assert certificate.comm_floor_cycles <= sweep * (1 + 1e-9), name

    def test_bandwidth_bound_below_crossover(self, layer):
        flow = kc_partitioned()
        starved = Accelerator(num_pes=64, noc=NoC(bandwidth=1))
        certificate = classify_roofline(flow, layer, starved)
        assert certificate.verdict == "bandwidth-bound"
        assert certificate.crossover_bandwidth > 1
        rich = Accelerator(
            num_pes=64, noc=NoC(bandwidth=certificate.crossover_bandwidth)
        )
        assert classify_roofline(flow, layer, rich).verdict == "compute-bound"

    def test_infeasible_dominates(self, layer):
        tiny = Accelerator(num_pes=64, l1_size=16)
        certificate = classify_roofline(kc_partitioned(), layer, tiny)
        assert certificate.verdict == "capacity-infeasible"


class TestCrosscheck:
    """Differential verification against engine + occupancy simulation."""

    @pytest.mark.parametrize("flow_name", sorted(table3_dataflows()))
    def test_zoo_sample_agrees(self, layer, flow_name):
        flow = table3_dataflows()[flow_name]
        (report,) = run("capacity", [(layer, flow)])
        assert report.ok, report.render()
        assert report.counts["engine_exact"]
        assert report.counts["absint_exact"]
        # The vector lowering's constant requirements are the engine's too.
        for double_buffered in (True, False):
            accelerator = Accelerator(num_pes=64, double_buffered=double_buffered)
            engine = analyze_layer(layer, flow, accelerator)
            lowered = lower_group(layer, flow, accelerator)
            assert lowered.l1_req == engine.l1_buffer_req
            assert lowered.intermediate_reqs == engine.intermediate_buffer_reqs

    def test_render_mentions_verdict(self, layer):
        (report,) = run("capacity", [(layer, kc_partitioned())])
        assert "AGREE" in report.render()
        assert report.to_dict()["ok"] is True

    def test_pair_neither_analyzer_binds_agrees_as_unbound(self, layer):
        """A hierarchy wider than the 64 checked PEs binds in neither
        analyzer: the pair agrees instead of aborting the run."""
        flow = parse_dataflow("SpatialMap(1,1) K\nCluster(128)\nSpatialMap(1,1) C", name="wide")
        (report,) = run("capacity", [(layer, flow)])
        assert report.ok, report.render()
        assert report.counts == {"unbound": 1}

    def test_a_variant_fact_off_at_one_pe_count_is_a_mismatch(self, layer, monkeypatch):
        """The check replays the screen's one-binding fact at 16, 64, 256
        and 512 PEs; a fact wrong at one of them is reported there."""
        peak_bytes = VariantCapacity.peak_bytes

        def off_at_256(self, accelerator):
            l1, l2 = peak_bytes(self, accelerator)
            return (l1, l2 + 1) if accelerator.num_pes == 256 else (l1, l2)

        monkeypatch.setattr(VariantCapacity, "peak_bytes", off_at_256)
        (report,) = run("capacity", [(layer, kc_partitioned())])
        assert [(m.subject, m.quantity) for m in report.mismatches] == [
            ("256 PEs", "variant peaks")
        ]

    def test_a_variant_fact_that_binds_where_the_bounds_raise_is_a_mismatch(
        self, layer, monkeypatch
    ):
        import repro.capacity.bounds

        flow = parse_dataflow("SpatialMap(1,1) K\nCluster(128)\nSpatialMap(1,1) C", name="wide")
        def never_raises(dataflow, layer, pes_per_top, num_pes):
            return max(num_pes // pes_per_top, 1)

        monkeypatch.setattr(repro.capacity.bounds, "top_level_width", never_raises)
        (report,) = run("capacity", [(layer, flow)])
        assert {(m.subject, m.oracle) for m in report.mismatches} == {
            ("16 PEs", "raises"),
            ("64 PEs", "raises"),
        }

    def test_interval_bind_failure_alone_is_a_mismatch(self, layer, monkeypatch):
        import repro.absint

        def unbindable(*args, **kwargs):
            raise BindingError("planted")

        monkeypatch.setattr(repro.absint, "abstract_analyze", unbindable)
        (report,) = run("capacity", [(layer, kc_partitioned())])
        assert [m.quantity for m in report.mismatches] == ["binds"]
        assert report.counts["absint_exact"] == 0


class TestDsePruning:
    """dse --capacity-prune: bit-identical results, fewer cost-model calls."""

    @pytest.fixture(scope="class")
    def space(self):
        from repro.dse.space import DesignSpace, kc_partitioned_variants

        return DesignSpace(
            pe_counts=[16, 32, 64, 128, 256],
            noc_bandwidths=[4, 16, 64],
            dataflow_variants=kc_partitioned_variants(
                c_tiles=(8, 16), spatial_tiles=((1, 1), (4, 4))
            ),
        )

    def test_bit_identical_under_tight_budget(self, layer, space):
        from repro.dse import explore

        base = explore(layer, space, area_budget=3.0, power_budget=1e9)
        pruned = explore(
            layer, space, area_budget=3.0, power_budget=1e9, capacity_prune=True
        )
        assert base.points == pruned.points
        assert base.throughput_optimal == pruned.throughput_optimal
        assert base.energy_optimal == pruned.energy_optimal
        assert base.edp_optimal == pruned.edp_optimal
        assert pruned.statistics.capacity_rejects > 0
        assert (
            pruned.statistics.cost_model_calls
            == base.statistics.cost_model_calls
            - pruned.statistics.capacity_rejects
        )

    def test_noop_without_flag(self, layer, space):
        from repro.dse import explore

        result = explore(layer, space, area_budget=3.0, power_budget=1e9)
        assert result.statistics.capacity_rejects == 0


#: The layers of the benchmark's dse-grid workload (every slot's choices).
DSE_GRID_LAYERS = (
    ("vgg16", "CONV2"),
    ("vgg16", "CONV11"),
    ("resnet50", "CONV2_1b"),
    ("resnet50", "CONV3_2a"),
    ("resnet50", "CONV4_1b"),
    ("mobilenet_v2", "BN2_1_expand"),
    ("mobilenet_v2", "BN3_1_dw"),
    ("unet", "DOWN2_1"),
    ("unet", "DOWN4_1"),
    ("unet", "UP2_2"),
)


def _peaks_or_raise(compute):
    try:
        return compute()
    except BindingError:
        return "raises"


class TestVariantCapacity:
    """One binding per mapping answers every PE count bit-for-bit."""

    @pytest.mark.parametrize("model,layer_name", DSE_GRID_LAYERS)
    def test_equals_the_bounds_at_every_swept_pe_count(self, model, layer_name):
        from repro.dse.space import kc_partitioned_variants, yr_partitioned_variants

        layer = build(model).layer(layer_name)
        raised = 0
        for _, flow in kc_partitioned_variants() + yr_partitioned_variants():
            capacity = VariantCapacity(flow, layer, Accelerator(num_pes=16))
            for pes in range(16, 513, 16):
                accelerator = Accelerator(num_pes=pes)

                def bounds():
                    bounds = compute_capacity_bounds(flow, layer, accelerator)
                    return bounds.l1.peak_bytes, bounds.l2.peak_bytes

                oracle = _peaks_or_raise(bounds)
                claimed = _peaks_or_raise(lambda: capacity.peak_bytes(accelerator))
                assert claimed == oracle, (flow.name, pes)
                raised += oracle == "raises"
        # The four 64-PE KC-P hierarchies do not fit 16, 32 or 48 PEs, and
        # the four 32-PE ones do not fit 16.
        assert raised == 4 * 3 + 4

    def test_raises_only_where_the_hierarchy_does_not_fit(self, layer):
        flow = parse_dataflow(
            "SpatialMap(1,1) K\nTemporalMap(64,64) C\nCluster(64)\nSpatialMap(1,1) C",
            name="wide",
        )
        capacity = VariantCapacity(flow, layer, Accelerator(num_pes=16))
        for pes in (16, 32, 63, 64, 100, 128, 256):
            for double_buffered in (True, False):
                accelerator = Accelerator(num_pes=pes, double_buffered=double_buffered)

                def bounds():
                    bounds = compute_capacity_bounds(flow, layer, accelerator)
                    return bounds.l1.peak_bytes, bounds.l2.peak_bytes

                oracle = _peaks_or_raise(bounds)
                assert _peaks_or_raise(lambda: capacity.peak_bytes(accelerator)) == oracle
                assert (oracle == "raises") == (pes < 64)

    def test_a_mapping_that_never_binds_raises_on_construction(self, layer):
        flow = parse_dataflow("SpatialMap(1,1) K\nSpatialMap(1,1) K", name="twice")
        with pytest.raises(BindingError):
            compute_capacity_bounds(flow, layer, Accelerator(num_pes=64))
        with pytest.raises(BindingError):
            VariantCapacity(flow, layer, Accelerator(num_pes=64))

    def test_a_capacity_sweep_binds_each_variant_once(self, monkeypatch):
        import repro.capacity.bounds
        from repro.dse import explore
        from repro.dse.space import (
            DesignSpace,
            default_bandwidths,
            default_pe_counts,
            kc_partitioned_variants,
        )

        layer = build("vgg16").layer("CONV2")
        variants = kc_partitioned_variants()
        space = DesignSpace(default_pe_counts(512, 16), default_bandwidths(128), variants)
        bound = []
        bind = repro.capacity.bounds.bind_dataflow

        def counting(dataflow, layer, accelerator):
            bound.append(dataflow.name)
            return bind(dataflow, layer, accelerator)

        monkeypatch.setattr(repro.capacity.bounds, "bind_dataflow", counting)
        result = explore(layer, space, 16.0, 450.0, cache=False, capacity_prune=True)
        assert result.statistics.capacity_rejects > 0
        assert sorted(bound) == sorted(flow.name for _, flow in variants)

    def test_a_sweeps_facts_share_the_layers_tensor_analyses(self, monkeypatch):
        """One tensor analysis per coordinate representation, not one per
        variant: a tune holds hundreds of capacity facts at once."""
        import repro.capacity.bounds
        from repro.dse import explore
        from repro.dse.space import (
            DesignSpace,
            kc_partitioned_variants,
            yr_partitioned_variants,
        )

        layer = build("vgg16").layer("CONV2")
        variants = kc_partitioned_variants() + yr_partitioned_variants()
        space = DesignSpace([64, 256], [4, 64], variants)
        resolved = []
        analyze = repro.capacity.bounds.analyze_tensors

        def counting(layer, row_rep, col_rep):
            resolved.append((row_rep, col_rep))
            return analyze(layer, row_rep, col_rep)

        monkeypatch.setattr(repro.capacity.bounds, "analyze_tensors", counting)
        explore(layer, space, 16.0, 450.0, cache=False, capacity_prune=True)
        assert 0 < len(resolved) == len(set(resolved)) < len(variants)

    def test_explorer_keeps_points_whose_pe_count_cannot_bind(self, layer):
        """Without the lint screen, the capacity screen meets PE counts
        the hierarchy does not fit: it counts them uncertified and keeps
        them, and the sweep is unchanged."""
        from repro import obs
        from repro.dse import explore
        from repro.dse.space import DesignSpace

        flow = parse_dataflow(
            "SpatialMap(1,1) K\nTemporalMap(64,64) C\nCluster(32)\nSpatialMap(1,1) C",
            name="wide",
        )
        space = DesignSpace([16, 32, 64, 128], [4, 16], [("wide", flow)])
        plain = explore(layer, space, 3.0, 1e9, cache=False, static_lint=False)
        obs.configure(enabled=True, reset=True)
        try:
            screened = explore(
                layer, space, 3.0, 1e9, cache=False, static_lint=False, capacity_prune=True
            )
            uncertified = obs.counter_value("screen.uncertified.capacity")
        finally:
            obs.configure(enabled=False, reset=True)
        assert screened.points == plain.points
        assert uncertified == 2  # 16 PEs x 2 bandwidths
        assert screened.statistics.capacity_rejects > 0


class TestTunerPruning:
    """tune --capacity-prune: pre-empts the buffer-cap filter exactly."""

    def test_bit_identical_with_caps(self, layer, accelerator):
        from repro.tuner import tune_layer

        kwargs = dict(max_l1_bytes=2000, max_l2_bytes=2_000_000)
        base = tune_layer(layer, accelerator, **kwargs)
        pruned = tune_layer(layer, accelerator, capacity_prune=True, **kwargs)
        assert base.best.dataflow.name == pruned.best.dataflow.name
        assert base.best.score == pruned.best.score
        assert [(c.dataflow.name, c.score) for c in base.top] == [
            (c.dataflow.name, c.score) for c in pruned.top
        ]
        assert base.evaluated == pruned.evaluated
        assert base.rejected == pruned.rejected
        assert pruned.capacity_rejected > 0
        assert (
            pruned.cost_model_calls
            == base.cost_model_calls - pruned.capacity_rejected
        )

    def test_screen_idle_without_caps(self, layer, accelerator):
        from repro.tuner import tune_layer

        result = tune_layer(layer, accelerator, capacity_prune=True)
        assert result.capacity_rejected == 0


class TestLintRules:
    """DF500-DF504 fire with the right severities and fix-its."""

    def _codes(self, accelerator, layer):
        from repro.lint import lint_dataflow

        report = lint_dataflow(kc_partitioned(), layer, accelerator)
        return {d.code: d for d in report.diagnostics}

    def test_df500_l1_overflow(self, layer):
        codes = self._codes(Accelerator(num_pes=64, l1_size=16), layer)
        assert "DF500" in codes
        diagnostic = codes["DF500"]
        assert diagnostic.is_error
        assert diagnostic.fixit is not None
        assert diagnostic.provenance == CAPACITY_PROVENANCE

    def test_df501_l2_overflow(self, layer):
        codes = self._codes(
            Accelerator(num_pes=64, l1_size=100_000, l2_size=2048), layer
        )
        assert "DF501" in codes
        assert not codes["DF501"].is_error

    def test_df502_double_buffering_infeasible(self, layer):
        # steady fits (38 B) but the double-buffered peak (76 B) does not.
        codes = self._codes(Accelerator(num_pes=64, l1_size=50), layer)
        assert "DF502" in codes
        assert codes["DF502"].is_error
        assert "double_buffered=False" in codes["DF502"].fixit.description
        assert "DF500" not in codes

    def test_df503_low_utilization(self, layer):
        codes = self._codes(
            Accelerator(num_pes=64, l1_size=100_000, l2_size=1 << 24), layer
        )
        assert "DF503" in codes

    def test_df504_bandwidth_bound(self, layer):
        codes = self._codes(Accelerator(num_pes=64, noc=NoC(bandwidth=1)), layer)
        assert "DF504" in codes
        assert "break-even" in codes["DF504"].message

    def test_silent_when_unsized_and_compute_bound(self, layer):
        codes = self._codes(Accelerator(num_pes=64), layer)
        assert not {"DF500", "DF501", "DF502", "DF504"} & set(codes)


class TestExplainAndSuggest:
    """lint --explain knows DF5xx; typos get a nearest-rule hint."""

    def test_explain_df500(self):
        from repro.lint import explain_rule

        text = explain_rule("DF500")
        assert "DF500" in text
        assert "capacity" in text.lower()

    def test_nearest_rule_prefers_family(self):
        from repro.lint import nearest_rule

        assert nearest_rule("DF599") in {
            "DF500",
            "DF501",
            "DF502",
            "DF503",
            "DF504",
        }

    def test_unknown_rule_suggests(self):
        from repro.lint import explain_rule

        with pytest.raises(KeyError, match="did you mean"):
            explain_rule("DF501x")

    def test_wildly_wrong_code_no_suggestion(self):
        from repro.lint import nearest_rule

        assert nearest_rule("ZZZZZZZZZZ") is None
