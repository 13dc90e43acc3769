"""Sharded sweep correctness: partitioning, parity, cancellation."""

from __future__ import annotations

import threading
from dataclasses import fields

import pytest

import repro.serve.shards
from repro import obs
from repro.dse.explorer import DSEStatistics, explore
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
)
from repro.exec import AnalysisCache
from repro.serve.shards import (
    ShardUpdate,
    SweepCancelled,
    merge_shard_results,
    shard_pe_counts,
    shard_spaces,
    sharded_explore,
)


AREA, POWER = 16.0, 450.0


@pytest.fixture(scope="module")
def small_space():
    return DesignSpace(
        pe_counts=default_pe_counts(max_pes=64, step=16),
        noc_bandwidths=default_bandwidths(16),
        dataflow_variants=kc_partitioned_variants(),
    )


@pytest.fixture(scope="module")
def wide_space():
    """Reaches PE counts where the capacity screen rejects points."""
    return DesignSpace(
        pe_counts=default_pe_counts(max_pes=256, step=16),
        noc_bandwidths=default_bandwidths(16),
        dataflow_variants=kc_partitioned_variants(),
    )


PRUNER_SETS = {
    "none": {},
    "verify": {"verify_coverage": True},
    "equiv": {"equiv_prune": True},
    "capacity": {"capacity_prune": True},
}


@pytest.fixture(scope="module")
def conv_layer(vgg16):
    return vgg16.layer("CONV1")


class TestPartitioning:
    def test_blocks_are_contiguous_and_complete(self):
        counts = list(range(8, 264, 8))
        blocks = shard_pe_counts(counts, 5)
        assert [pe for block in blocks for pe in block] == counts
        assert len(blocks) == 5
        sizes = [len(block) for block in blocks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_points_collapses(self):
        blocks = shard_pe_counts([8, 16], 16)
        assert blocks == [[8], [16]]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_pe_counts([8], 0)

    def test_shard_spaces_keep_other_axes(self, small_space):
        spaces = shard_spaces(small_space, 3)
        assert len(spaces) == 3
        for shard in spaces:
            assert shard.noc_bandwidths == small_space.noc_bandwidths
            assert shard.dataflow_variants == small_space.dataflow_variants
        assert sum(s.size for s in spaces) == small_space.size


class TestParity:
    """The tentpole invariant: sharded == whole-space, bit for bit."""

    @pytest.mark.parametrize(
        "pruners,shards",
        [
            # The unpruned cases keep their plain shard-count ids.
            pytest.param(pruners, shards, id=str(shards) if pruners == "none" else None)
            for pruners in PRUNER_SETS
            for shards in (1, 2, 3, 4)
        ],
    )
    def test_front_and_optima_bit_identical(
        self, conv_layer, small_space, wide_space, pruners, shards
    ):
        space = small_space if pruners == "none" else wide_space
        kwargs = PRUNER_SETS[pruners]
        direct = explore(conv_layer, space, AREA, POWER, cache=False, **kwargs)
        sharded = sharded_explore(
            conv_layer,
            space,
            area_budget=AREA,
            power_budget=POWER,
            shards=shards,
            cache=False,
            **kwargs,
        )
        assert sharded.points == direct.points
        assert sharded.pareto() == direct.pareto()
        assert sharded.throughput_optimal == direct.throughput_optimal
        assert sharded.energy_optimal == direct.energy_optimal
        assert sharded.edp_optimal == direct.edp_optimal
        stats, direct_stats = sharded.statistics, direct.statistics
        assert stats.explored == direct_stats.explored == space.size
        for field in fields(DSEStatistics):
            if field.type in ("int", int):
                assert getattr(stats, field.name) == getattr(direct_stats, field.name), field.name
        if pruners == "capacity":
            assert stats.capacity_rejects > 0

    def test_shared_cache_across_shards(self, conv_layer, small_space):
        cache = AnalysisCache(max_entries=4096)
        first = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=2,
            cache=cache,
        )
        second = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=3,
            cache=cache,
        )
        assert second.pareto() == first.pareto()
        # The second sweep re-used the first sweep's outcomes entirely.
        assert second.statistics.cache_hits == second.statistics.cost_model_calls

    def test_merge_preserves_executor_label(self, conv_layer, small_space):
        result = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=2,
            cache=False,
        )
        assert result.statistics.executor.startswith("sharded[2]/")


class TestAnytimeUpdates:
    def test_updates_cover_all_shards(self, conv_layer, small_space):
        updates = []
        result = sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=3,
            cache=False,
            on_update=updates.append,
        )
        assert [u.shards_done for u in updates] == [1, 2, 3]
        assert all(isinstance(u, ShardUpdate) for u in updates)
        assert all(u.shards_total == 3 for u in updates)
        # Explored counts are monotone and end at the full space.
        explored = [u.points_explored for u in updates]
        assert explored == sorted(explored)
        assert explored[-1] == small_space.size
        # The last anytime front is the final front.
        assert list(updates[-1].front) == result.pareto()

    def test_single_shard_still_reports(self, conv_layer, small_space):
        updates = []
        sharded_explore(
            conv_layer,
            small_space,
            area_budget=AREA,
            power_budget=POWER,
            shards=1,
            cache=False,
            on_update=updates.append,
        )
        assert len(updates) == 1
        assert updates[0].shards_done == updates[0].shards_total == 1


class TestCancellation:
    def test_pre_set_cancel_aborts_immediately(self, conv_layer, small_space):
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(SweepCancelled):
            sharded_explore(
                conv_layer,
                small_space,
                area_budget=AREA,
                power_budget=POWER,
                shards=2,
                cache=False,
                cancel=cancel,
            )

    def test_cancel_stops_before_the_next_shard(
        self, conv_layer, small_space, monkeypatch
    ):
        """Shards run in order, so a cancel set at the first anytime
        update leaves the other three shard sweeps unstarted."""
        calls = []
        sweep = repro.serve.shards.explore

        def counted(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(repro.serve.shards, "explore", counted)
        cancel = threading.Event()
        with pytest.raises(SweepCancelled, match="after 1/4 shards"):
            sharded_explore(
                conv_layer,
                small_space,
                area_budget=AREA,
                power_budget=POWER,
                shards=4,
                cache=False,
                on_update=lambda update: cancel.set(),
                cancel=cancel,
            )
        assert len(calls) == 1

    def test_cancel_after_first_shard(self, conv_layer, small_space):
        cancel = threading.Event()

        def cancel_on_first(update: ShardUpdate) -> None:
            cancel.set()

        with pytest.raises(SweepCancelled):
            sharded_explore(
                conv_layer,
                small_space,
                area_budget=AREA,
                power_budget=POWER,
                shards=4,
                cache=False,
                on_update=cancel_on_first,
                cancel=cancel,
            )


def test_shard_spans_nest_under_the_callers_span(conv_layer, small_space):
    enabled = obs.is_enabled()
    obs.configure(enabled=True)
    try:
        before = len(obs.spans())
        with obs.span("job"):
            job_id = obs.current_span_id()
            sharded_explore(
                conv_layer,
                small_space,
                area_budget=AREA,
                power_budget=POWER,
                shards=3,
                cache=False,
            )
        shard_spans = [r for r in obs.spans()[before:] if r.name == "serve.shard"]
    finally:
        obs.configure(enabled=enabled)
    assert [r.parent_id for r in shard_spans] == [job_id] * 3
    assert [r.attrs["shard"] for r in shard_spans] == [0, 1, 2]


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        merge_shard_results([], 0.0)
