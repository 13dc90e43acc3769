"""Tests for the Dataflow container: levels, validation, helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataflow.dataflow as dataflow_module
from repro.dataflow.dataflow import Dataflow, dataflow
from repro.dataflow.directives import (
    ClusterDirective,
    MapDirective,
    spatial_map,
    temporal_map,
)
from repro.dataflow.library import (
    fig5_playground,
    kc_partitioned,
    row_stationary_fig6,
    table3_dataflows,
    yr_partitioned,
)
from repro.errors import DataflowError
from repro.lint.engine import construction_diagnostics
from repro.tensors import dims as D
from repro.tuner import enumerate_candidates


class TestLevels:
    def test_single_level(self):
        flow = dataflow("f", temporal_map(1, 1, D.K), spatial_map(1, 1, D.C))
        levels = flow.levels()
        assert len(levels) == 1
        assert levels[0].cluster_size is None
        assert len(levels[0].maps) == 2

    def test_two_levels(self):
        flow = kc_partitioned()
        levels = flow.levels()
        assert len(levels) == 2
        assert levels[0].cluster_size == 64
        assert levels[1].cluster_size is None
        assert levels[1].maps[0].dim == D.C

    def test_fig6_row_stationary_two_levels(self):
        levels = row_stationary_fig6().levels()
        assert len(levels) == 2
        inner_spatial = [m.dim for m in levels[1].maps if m.spatial]
        assert inner_spatial == [D.Y, D.R]


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(DataflowError):
            Dataflow(name="bad", directives=())

    def test_trailing_cluster_rejected(self):
        with pytest.raises(DataflowError):
            dataflow("bad", temporal_map(1, 1, D.K), ClusterDirective(4))

    def test_mixed_row_coordinates_rejected(self):
        with pytest.raises(DataflowError):
            dataflow("bad", temporal_map(1, 1, D.Y), temporal_map(1, 1, D.YP))

    def test_mixed_col_coordinates_rejected(self):
        with pytest.raises(DataflowError):
            dataflow("bad", spatial_map(1, 1, D.X), temporal_map(1, 1, D.XP))

    def test_same_axis_same_coordinate_ok(self):
        flow = dataflow(
            "ok", spatial_map(3, 1, D.Y), temporal_map(3, 1, D.X)
        )
        assert not flow.uses_output_coordinates("row")


def _outcome(name, directives):
    """The construction verdict: ``None``, or the raised error's diagnostics."""
    try:
        Dataflow(name=name, directives=directives)
    except DataflowError as error:
        return error.diagnostics
    return None


#: Directive lists over a few dims, sizes and Cluster positions.
directive_lists = st.lists(
    st.one_of(
        st.builds(
            MapDirective,
            dim=st.sampled_from([D.K, D.C, D.Y, D.YP, D.X, D.XP]),
            size=st.sampled_from([1, 3, "Sz(R)"]),
            offset=st.sampled_from([1, 2]),
            spatial=st.booleans(),
        ),
        st.builds(ClusterDirective, st.sampled_from([2, 8])),
    ),
    max_size=6,
).map(tuple)


class TestConstructionMemo:
    """``Dataflow`` runs the construction lints (DF001-DF004) once per
    directive shape: each directive's type and, for a map, its dim."""

    def test_clean_shapes_are_structurally_valid(self, monkeypatch):
        """No shape in the memo admits an empty list, a trailing
        Cluster, a foreign directive or a Y/Y' (X/X') mix."""
        monkeypatch.setattr(dataflow_module, "_CLEAN_SHAPES", set())
        for spec in enumerate_candidates():
            spec.build()
        for flow in list(table3_dataflows().values()) + list(fig5_playground().values()):
            Dataflow(name=flow.name, directives=flow.directives)
        shapes = set(dataflow_module._CLEAN_SHAPES)
        assert len(shapes) > 30
        for shape in shapes:
            assert shape
            assert not issubclass(shape[-1][0], ClusterDirective)
            assert all(issubclass(kind, (MapDirective, ClusterDirective)) for kind, _ in shape)
            dims = {dim for _, dim in shape}
            assert not {D.Y, D.YP} <= dims and not {D.X, D.XP} <= dims

    @settings(max_examples=200, deadline=None)
    @given(directives=directive_lists, other=directive_lists)
    def test_memo_verdict_equals_the_lints(self, directives, other):
        """Construction raises exactly when the lints report an error,
        with their diagnostics, whether or not a list of the same shape
        (or another list) was built before."""
        expected = construction_diagnostics("f", directives)
        errors = any(d.is_error for d in expected)
        for _ in range(2):
            _outcome("g", other)
            assert _outcome("f", directives) == (expected if errors else None)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(dataflow_module, "_CLEAN_SHAPES", set())
        monkeypatch.setattr(dataflow_module, "_CLEAN_SHAPES_MAX", 2)
        for dim in (D.K, D.C, D.N):
            dataflow("f", temporal_map(1, 1, dim))
        assert len(dataflow_module._CLEAN_SHAPES) <= 2


class TestHelpers:
    def test_uses_output_coordinates(self):
        playground = fig5_playground()
        assert playground["A"].uses_output_coordinates("col")
        assert not kc_partitioned().uses_output_coordinates("col")

    def test_map_directives_excludes_clusters(self):
        flow = yr_partitioned()
        assert all(not isinstance(d, ClusterDirective) for d in flow.map_directives())

    def test_describe_mentions_every_directive(self):
        flow = kc_partitioned()
        text = flow.describe()
        assert "SpatialMap(1,1) K" in text
        assert "Cluster(64)" in text

    def test_table3_names(self):
        assert set(table3_dataflows()) == {"C-P", "X-P", "YX-P", "YR-P", "KC-P"}

    def test_playground_has_six(self):
        assert set(fig5_playground()) == set("ABCDEF")
