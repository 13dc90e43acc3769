"""Tests for the cluster-analysis engine (dataflow binding)."""

import pytest

from repro.dataflow.dataflow import dataflow
from repro.dataflow.directives import St, Sz, spatial_map, temporal_map
from repro.dataflow.library import kc_partitioned, yr_partitioned, yx_partitioned
from repro.engines.binding import bind_dataflow, fold_geometry, pes_per_top_cluster
from repro.errors import BindingError
from repro.hardware.accelerator import Accelerator
from repro.model.layer import conv2d
from repro.tensors import dims as D


@pytest.fixture
def layer():
    return conv2d("l", k=16, c=8, y=18, x=18, r=3, s=3)


class TestWidths:
    def test_single_level_width_is_num_pes(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K), temporal_map(1, 1, D.C))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=64))
        assert bound.num_levels == 1
        assert bound.levels[0].width == 64

    def test_two_level_widths(self, layer):
        bound = bind_dataflow(kc_partitioned(c_tile=8), layer, Accelerator(num_pes=64))
        assert bound.levels[0].width == 8  # 64 / Cluster(8)
        assert bound.levels[1].width == 8

    def test_cluster_larger_than_pes_rejected(self, layer):
        with pytest.raises(BindingError):
            bind_dataflow(kc_partitioned(c_tile=64), layer, Accelerator(num_pes=32))

    def test_non_divisible_pes_leaves_idle(self, layer):
        bound = bind_dataflow(kc_partitioned(c_tile=8), layer, Accelerator(num_pes=60))
        assert bound.levels[0].width == 7
        assert bound.used_pes == 56

    def test_symbolic_cluster_size(self, layer):
        bound = bind_dataflow(yr_partitioned(), layer, Accelerator(num_pes=63))
        assert bound.levels[1].width == 3  # Cluster(Sz(R))
        assert bound.levels[0].width == 21


class TestDirectiveBinding:
    def test_symbolic_sizes_resolve(self, layer):
        flow = dataflow(
            "f",
            spatial_map(1, 1, D.K),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
        )
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        assert bound.levels[0].directive_for(D.R).size == 3

    def test_size_clamped_to_local(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K), temporal_map(64, 64, D.C))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        # C is only 8 in the layer.
        assert bound.levels[0].directive_for(D.C).size == 8
        assert bound.levels[0].directive_for(D.C).steps == 1

    def test_temporal_steps_counted(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K), temporal_map(2, 2, D.C))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        assert bound.levels[0].directive_for(D.C).steps == 4

    def test_missing_dims_inferred_single_step(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        level = bound.levels[0]
        assert level.directive_for(D.C).steps == 1
        assert level.directive_for(D.C).size == 8
        assert level.directive_for(D.Y).size == 18

    def test_duplicate_dim_rejected(self, layer):
        flow = dataflow("f", temporal_map(1, 1, D.K), temporal_map(2, 2, D.K))
        with pytest.raises(BindingError):
            bind_dataflow(flow, layer, Accelerator(num_pes=4))

    def test_local_sizes_flow_to_inner_level(self, layer):
        bound = bind_dataflow(kc_partitioned(c_tile=8), layer, Accelerator(num_pes=64))
        assert bound.levels[1].local_sizes[D.C] == 8
        assert bound.levels[1].local_sizes[D.K] == 1


class TestSpatialFolding:
    def test_folds_when_chunks_exceed_width(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.K))  # 16 chunks
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        level = bound.levels[0]
        assert level.spatial_chunks == 16
        assert level.folds == 4
        assert level.directive_for(D.K).steps == 4

    def test_partial_last_fold_average_activity(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.C))  # 8 chunks on 6 PEs
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=6))
        level = bound.levels[0]
        assert level.folds == 2
        assert level.avg_active == pytest.approx(4.0)

    def test_under_filled_array(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.C))  # 8 chunks on 64 PEs
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=64))
        assert bound.levels[0].avg_active == pytest.approx(8.0)

    def test_no_spatial_map_means_one_active(self, layer):
        flow = dataflow("f", temporal_map(1, 1, D.K))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=16))
        assert bound.levels[0].avg_active == 1.0

    def test_joint_spatial_maps_fold_together(self, layer):
        bound = bind_dataflow(yr_partitioned(), layer, Accelerator(num_pes=9))
        inner = bound.levels[1]
        assert inner.folds == 1
        assert inner.spatial_offsets[D.Y] == 1
        assert inner.spatial_offsets[D.R] == 1


    @pytest.mark.parametrize("chunks,width", [(16, 4), (8, 6), (8, 64), (1, 16), (7, 1)])
    def test_fold_geometry(self, chunks, width):
        folds, avg_active = fold_geometry(chunks, width)
        assert folds == -(-chunks // width)
        assert avg_active == (chunks / folds if width > 1 else 1.0)
        assert avg_active <= width

    @pytest.mark.parametrize(
        "flow", [kc_partitioned(c_tile=8), yr_partitioned(), yx_partitioned()],
        ids=["KC-P", "YR-P", "YX-P"],
    )
    def test_top_level_at_another_width_equals_its_binding(self, layer, flow):
        """Only the top level's fold geometry depends on the PE count."""
        base = bind_dataflow(flow, layer, Accelerator(num_pes=64))
        per_top = pes_per_top_cluster(flow, layer)
        for pes in (per_top, 2 * per_top + 1, 100, 256, 1024):
            bound = bind_dataflow(flow, layer, Accelerator(num_pes=pes))
            assert base.levels[0].at_width(pes // per_top) == bound.levels[0]
            assert base.levels[1:] == bound.levels[1:]


class TestStrideHandling:
    def test_explicit_st_offset_advances_one_output_row(self):
        layer = conv2d("s", k=4, c=4, y=227, x=227, r=11, s=11, stride=4)
        flow = dataflow(
            "f", spatial_map(Sz(D.R), St(D.Y), D.Y), temporal_map(1, 1, D.K)
        )
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=8))
        directive = bound.levels[0].directive_for(D.Y)
        assert directive.offset == 4
        # chunks = output rows = 55
        assert directive.chunks == 55

    def test_literal_offsets_stay_in_input_units(self):
        # Offsets are never scaled implicitly: a literal 1 on Y advances
        # one *input* row even on a strided layer (the diagonal-walk
        # spelling YR-P's inner cluster relies on).
        layer = conv2d("s", k=4, c=4, y=227, x=227, r=11, s=11, stride=4)
        flow = dataflow("f", spatial_map(Sz(D.R), 1, D.Y), temporal_map(1, 1, D.K))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=8))
        assert bound.levels[0].directive_for(D.Y).offset == 1

    def test_output_dim_offsets_unscaled(self):
        layer = conv2d("s", k=4, c=4, y=227, x=227, r=11, s=11, stride=4)
        flow = dataflow("f", spatial_map(1, 1, D.YP), temporal_map(1, 1, D.K))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=8))
        assert bound.levels[0].directive_for(D.YP).offset == 1


class TestRepresentation:
    def test_input_representation_detected(self, layer):
        bound = bind_dataflow(kc_partitioned(c_tile=8), layer, Accelerator(num_pes=64))
        assert bound.row_rep == "input"
        assert bound.col_rep == "input"

    def test_output_representation_detected(self, layer):
        flow = dataflow("f", spatial_map(1, 1, D.XP), temporal_map(1, 1, D.S))
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=4))
        assert bound.col_rep == "output"
        assert bound.row_rep == "input"


class TestSweepCounts:
    def test_sweep_steps_product(self, layer):
        flow = dataflow(
            "f",
            temporal_map(1, 1, D.K),  # 16 steps
            temporal_map(2, 2, D.C),  # 4 steps
            spatial_map(1, 1, D.YP),  # 16 chunks / 8 PEs = 2 folds
        )
        bound = bind_dataflow(flow, layer, Accelerator(num_pes=8))
        assert bound.levels[0].sweep_steps == 16 * 4 * 2

    def test_utilization_accounts_for_folds(self, layer):
        bound = bind_dataflow(yx_partitioned(), layer, Accelerator(num_pes=64))
        assert 0 < bound.average_utilization() <= 1
