"""Tests for the reuse-analysis engine: transition classes and volumes."""

import pytest

from repro.dataflow.dataflow import dataflow
from repro.dataflow.directives import Sz, spatial_map, temporal_map
from repro.engines.binding import bind_dataflow
from repro.engines.reuse import analyze_level_reuse, build_odometer, level_unique_volumes
from repro.engines.tensor_analysis import analyze_tensors
from repro.errors import BindingError, DataflowError
from repro.hardware.accelerator import Accelerator
from repro.model.layer import conv2d
from repro.tensors import dims as D
from repro.verify.differential import corpus


def analyze(flow, layer, num_pes):
    bound = bind_dataflow(flow, layer, Accelerator(num_pes=num_pes))
    tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    return [analyze_level_reuse(level, tensors) for level in bound.levels], bound


@pytest.fixture
def layer():
    return conv2d("l", k=16, c=8, y=18, x=18, r=3, s=3)


class TestOdometer:
    def test_counts_sum_to_total_transitions(self, layer):
        flow = dataflow(
            "f",
            temporal_map(1, 1, D.K),
            temporal_map(2, 2, D.C),
            spatial_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
        )
        reuses, bound = analyze(flow, layer, 8)
        reuse = reuses[0]
        total = bound.levels[0].sweep_steps
        assert 1 + sum(cls.count for cls in reuse.classes) == total

    def test_spatial_directives_share_one_fold_entry(self, layer):
        flow = dataflow(
            "f",
            temporal_map(1, 1, D.K),
            spatial_map(1, 1, D.Y),
            spatial_map(1, 1, D.R),
        )
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        entries = build_odometer(bound.levels[0])
        folds = [e for e in entries if e.is_fold]
        assert len(folds) == 1
        assert set(folds[0].advancing_offsets) == {D.Y, D.R}

    def test_fold_offsets_scaled_by_width(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        entries = build_odometer(bound.levels[0])
        assert entries[-1].advancing_offsets[D.K] == 4

    def test_single_step_directives_skipped(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K), temporal_map(Sz(D.R), Sz(D.R), D.R))
        reuses, _ = analyze(flow, layer, 16)
        labels = [cls.label for cls in reuses[0].classes]
        assert all("R" not in label for label in labels)


class TestStationarity:
    def test_weight_stationary_under_activation_sweep(self, layer):
        """K outer, X inner: W is stationary across X transitions."""
        flow = dataflow(
            "f",
            temporal_map(1, 1, D.K),
            spatial_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
        )
        reuses, _ = analyze(flow, layer, 16)
        x_class = next(c for c in reuses[0].classes if c.label == "X")
        assert x_class.traffic["W"].stationary
        assert not x_class.traffic["I"].stationary

    def test_output_stationary_under_reduction_sweep(self, layer):
        """C innermost: outputs are stationary across C transitions."""
        flow = dataflow(
            "f",
            spatial_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
            temporal_map(1, 1, D.C),
        )
        reuses, _ = analyze(flow, layer, 16)
        c_class = next(c for c in reuses[0].classes if c.label == "C")
        assert c_class.traffic["O"].stationary
        assert not c_class.outputs_advance

    def test_halo_delta_on_sliding_window(self, layer):
        """X advance with offset 1 fetches only the new input column."""
        flow = dataflow(
            "f",
            temporal_map(1, 1, D.K),
            temporal_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
        )
        reuses, _ = analyze(flow, layer, 1)
        x_class = next(c for c in reuses[0].classes if c.label == "X")
        traffic = x_class.traffic["I"]
        # 1 new column x 3 rows x 8 channels.
        assert traffic.fetch == pytest.approx(1 * 3 * 8)

    def test_inner_reset_forces_full_refetch(self, layer):
        """Y advance with X sweeping inside refetches the whole chunk.

        The retained halo along Y is stale because the PE's buffer holds
        the end of the previous X sweep (the bug exposed by the
        reference simulator during validation).
        """
        flow = dataflow(
            "f",
            temporal_map(1, 1, D.K),
            temporal_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
        )
        reuses, _ = analyze(flow, layer, 1)
        y_class = next(c for c in reuses[0].classes if c.label == "Y")
        traffic = y_class.traffic["I"]
        # Full chunk: 3 rows x 3 cols x 8 channels, not just one new row.
        assert traffic.fetch == pytest.approx(3 * 3 * 8)


class TestSpatialUniqueness:
    def test_multicast_tensor_unique_equals_fetch(self, layer):
        """Spatial K: inputs identical on all PEs (multicast)."""
        flow = dataflow("f", spatial_map(1, 1, D.K), temporal_map(1, 1, D.C))
        reuses, _ = analyze(flow, layer, 16)
        reuse = reuses[0]
        assert "I" in reuse.multicast_tensors
        c_class = next(c for c in reuse.classes if c.label == "C")
        assert c_class.traffic["I"].unique == pytest.approx(
            c_class.traffic["I"].fetch
        )
        assert c_class.traffic["I"].delivered == pytest.approx(
            c_class.traffic["I"].fetch * 16
        )

    def test_halo_overlap_across_pes(self, layer):
        """Spatial Y with offset 1 and size 3: adjacent PEs share 2 rows."""
        flow = dataflow(
            "f", spatial_map(Sz(D.R), 1, D.Y), temporal_map(1, 1, D.K)
        )
        reuses, _ = analyze(flow, layer, 16)
        init = reuses[0].init
        # 16 PEs, 3-row chunks shifted by 1: 3 + 15 = 18 unique rows.
        per_pe = init.traffic["I"].fetch
        assert init.traffic["I"].unique == pytest.approx(per_pe / 3 * 18)


class TestPsumFactor:
    def test_reduction_outside_output_sweep(self, layer):
        """C outer of the output sweep: every output revisited per C step."""
        flow = dataflow(
            "f",
            temporal_map(2, 2, D.C),  # 4 steps, outer
            spatial_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
        )
        reuses, _ = analyze(flow, layer, 16)
        assert reuses[0].psum_factor == 4

    def test_reduction_inside_output_sweep(self, layer):
        """C innermost: outputs finish before moving on."""
        flow = dataflow(
            "f",
            spatial_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
            temporal_map(2, 2, D.C),
        )
        reuses, _ = analyze(flow, layer, 16)
        assert reuses[0].psum_factor == 1

    def test_egress_volumes(self, layer):
        flow = dataflow(
            "f",
            temporal_map(2, 2, D.C),
            spatial_map(Sz(D.R), 1, D.Y),
            temporal_map(Sz(D.S), 1, D.X),
        )
        reuses, _ = analyze(flow, layer, 16)
        reuse = reuses[0]
        outputs = reuse.outputs_per_sweep
        assert reuse.egress_per_sweep == pytest.approx(outputs * 4)
        assert reuse.psum_readback_per_sweep == pytest.approx(outputs * 3)


class TestSpatialReduction:
    def test_spatial_c_exposes_reduction(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.C), temporal_map(1, 1, D.K))
        reuses, _ = analyze(flow, layer, 8)
        assert reuses[0].output_spatially_reduced

    def test_spatial_k_does_not(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K), temporal_map(1, 1, D.C))
        reuses, _ = analyze(flow, layer, 8)
        assert not reuses[0].output_spatially_reduced

    def test_diagonal_yr_exposes_reduction(self, layer):
        """Joint Y+R spatial maps: output shift cancels (Eyeriss diagonal)."""
        flow = dataflow(
            "f",
            temporal_map(1, 1, D.K),
            spatial_map(1, 1, D.Y),
            spatial_map(1, 1, D.R),
        )
        reuses, _ = analyze(flow, layer, 3)
        assert reuses[0].output_spatially_reduced


@pytest.mark.parametrize("num_pes", [16, 256])
def test_level_unique_volumes_equal_reuse_analysis(num_pes):
    """The buffer-sizing shortcut is the reuse pass's own volumes: same
    values, same key order, on every level; and each equals the union of
    the sub-units' first chunks (the init class's ``unique``)."""
    accelerator = Accelerator(num_pes=num_pes)
    levels = 0
    for layer, flow in corpus(models=["vgg16", "mobilenet_v2"])[::5]:
        try:
            bound = bind_dataflow(flow, layer, accelerator)
        except (BindingError, DataflowError):
            continue
        tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
        for level in bound.levels:
            reuse = analyze_level_reuse(level, tensors)
            volumes = level_unique_volumes(level, tensors)
            assert list(volumes.items()) == list(reuse.unique_chunk_volumes.items())
            assert volumes == {
                name: traffic.unique for name, traffic in reuse.init.traffic.items()
            }
            levels += 1
    assert levels >= 100
