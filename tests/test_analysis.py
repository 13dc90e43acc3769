"""Tests for the performance/cost analysis engine."""

import pytest

from repro.dataflow.library import (
    c_partitioned,
    kc_partitioned,
    table3_dataflows,
    weight_stationary_1level,
    x_partitioned,
    yr_partitioned,
    yx_partitioned,
)
from repro.engines.analysis import analyze_layer, analyze_network
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.energy import EnergyModel
from repro.model.layer import conv2d


@pytest.fixture
def layer():
    return conv2d("l", k=32, c=16, y=30, x=30, r=3, s=3)


ALL_DATAFLOWS = list(table3_dataflows().items())


class TestBasicInvariants:
    @pytest.mark.parametrize("name,flow", ALL_DATAFLOWS)
    def test_runtime_at_least_ideal(self, layer, name, flow):
        acc = Accelerator(num_pes=64)
        report = analyze_layer(layer, flow, acc)
        ideal = layer.total_ops() / (acc.num_pes * acc.vector_width)
        assert report.runtime >= ideal * 0.999

    @pytest.mark.parametrize("name,flow", ALL_DATAFLOWS)
    def test_utilization_in_unit_interval(self, layer, name, flow):
        report = analyze_layer(layer, flow, Accelerator(num_pes=64))
        assert 0 < report.utilization <= 1.0

    @pytest.mark.parametrize("name,flow", ALL_DATAFLOWS)
    def test_macs_exact(self, layer, name, flow):
        report = analyze_layer(layer, flow, Accelerator(num_pes=64))
        assert report.total_ops == layer.total_ops()

    @pytest.mark.parametrize("name,flow", ALL_DATAFLOWS)
    def test_counts_non_negative(self, layer, name, flow):
        report = analyze_layer(layer, flow, Accelerator(num_pes=64))
        for counter in (
            report.l1_reads, report.l1_writes, report.l2_reads,
            report.l2_writes, report.dram_reads, report.dram_writes,
        ):
            assert all(v >= 0 for v in counter.values())
        assert report.energy_total > 0

    @pytest.mark.parametrize("name,flow", ALL_DATAFLOWS)
    def test_reuse_factor_bounded_by_algorithmic_max(self, layer, name, flow):
        report = analyze_layer(layer, flow, Accelerator(num_pes=64))
        for tensor, factor in report.reuse_factors.items():
            assert factor <= report.max_reuse_factors[tensor] * 1.001

    @pytest.mark.parametrize("name,flow", ALL_DATAFLOWS)
    def test_l2_reads_at_least_tensor_volume(self, layer, name, flow):
        """Every input element must cross the NoC at least once."""
        report = analyze_layer(layer, flow, Accelerator(num_pes=64))
        for tensor in ("W", "I"):
            assert report.l2_reads[tensor] >= layer.tensor_volume(tensor) * 0.999

    @pytest.mark.parametrize("name,flow", ALL_DATAFLOWS)
    def test_output_writes_at_least_output_volume(self, layer, name, flow):
        report = analyze_layer(layer, flow, Accelerator(num_pes=64))
        assert report.l2_writes["O"] >= layer.tensor_volume("O") * 0.999

    def test_buffer_requirements_positive(self, layer):
        report = analyze_layer(layer, kc_partitioned(c_tile=16), Accelerator(num_pes=64))
        assert report.l1_buffer_req > 0
        assert report.l2_buffer_req > 0
        assert len(report.intermediate_buffer_reqs) == 1


class TestHardwareSensitivity:
    def test_runtime_nonincreasing_with_bandwidth(self, layer):
        flow = x_partitioned()
        runtimes = []
        for bandwidth in (1, 4, 16, 64):
            acc = Accelerator(num_pes=64, noc=NoC(bandwidth=bandwidth))
            runtimes.append(analyze_layer(layer, flow, acc).runtime)
        assert runtimes == sorted(runtimes, reverse=True)
        assert runtimes[0] > runtimes[-1]

    def test_more_pes_never_hurt_much(self, layer):
        flow = kc_partitioned(c_tile=16)
        r64 = analyze_layer(layer, flow, Accelerator(num_pes=64)).runtime
        r256 = analyze_layer(layer, flow, Accelerator(num_pes=256)).runtime
        assert r256 <= r64 * 1.001

    def test_no_multicast_increases_l2_reads(self, layer):
        """Table 5's 'No multicast' row: more expensive fetches."""
        flow = kc_partitioned(c_tile=8)
        base = Accelerator(num_pes=64)
        no_mc = base.with_noc(multicast=False)
        with_mc = analyze_layer(layer, flow, base)
        without = analyze_layer(layer, flow, no_mc)
        assert without.total(without.l2_reads) > with_mc.total(with_mc.l2_reads)
        assert without.energy_total > with_mc.energy_total

    def test_no_spatial_reduction_increases_output_traffic(self, layer):
        """Table 5's 'No Sp. reduction' row."""
        flow = c_partitioned()  # outputs spatially reduced across C
        base = Accelerator(num_pes=16)
        no_red = Accelerator(num_pes=16, spatial_reduction=False)
        with_red = analyze_layer(layer, flow, base)
        without = analyze_layer(layer, flow, no_red)
        assert without.l2_writes["O"] > with_red.l2_writes["O"]
        assert without.energy_total > with_red.energy_total

    def test_double_buffering_ablation(self, layer):
        """Serialized stages are slower; single buffering halves needs."""
        flow = x_partitioned()
        buffered = analyze_layer(layer, flow, Accelerator(num_pes=64))
        serial = analyze_layer(
            layer, flow, Accelerator(num_pes=64, double_buffered=False)
        )
        assert serial.runtime > buffered.runtime
        assert serial.l1_buffer_req == buffered.l1_buffer_req // 2

    def test_single_buffering_halves_upstream_requirement(self, layer):
        """Each level's upstream requirement follows the buffering factor
        like every other Figure-8 size, and the vector and interval
        engines report the same single-buffered value."""
        from repro.absint import HardwareBox, ShapeBox, abstract_analyze
        from repro.verify.differential import run_vector

        flow = kc_partitioned()
        single = Accelerator(num_pes=64, double_buffered=False)
        buffered = analyze_layer(layer, flow, Accelerator(num_pes=64))
        serial = analyze_layer(layer, flow, single)
        halves = [stats.upstream_buffer_req // 2 for stats in buffered.level_stats]
        assert len(halves) == 2 and all(halves)
        assert [stats.upstream_buffer_req for stats in serial.level_stats] == halves

        grid = [Accelerator(num_pes=pes, double_buffered=False) for pes in (16, 64, 256)]
        report = run_vector(layer, flow, grid)
        assert report.ok and report.counts["points_checked"] == 3, report.render()

        abstract = abstract_analyze(
            ShapeBox.from_layer(layer), flow, HardwareBox.from_accelerator(single)
        )
        assert [
            (stats.upstream_buffer_req.lo, stats.upstream_buffer_req.hi)
            for stats in abstract.level_stats
        ] == [(half, half) for half in halves]

    def test_vector_width_speeds_compute_bound(self, layer):
        flow = yr_partitioned()
        slow = analyze_layer(layer, flow, Accelerator(num_pes=27))
        fast = analyze_layer(layer, flow, Accelerator(num_pes=27, vector_width=4))
        assert fast.runtime < slow.runtime


class TestSparsity:
    def test_density_scales_ops(self):
        dense = conv2d("d", k=16, c=16, y=14, x=14, r=3, s=3)
        sparse = conv2d(
            "s", k=16, c=16, y=14, x=14, r=3, s=3, densities={"W": 0.5}
        )
        acc = Accelerator(num_pes=64)
        flow = kc_partitioned(c_tile=16)
        dense_report = analyze_layer(dense, flow, acc)
        sparse_report = analyze_layer(sparse, flow, acc)
        assert sparse_report.total_ops == pytest.approx(dense_report.total_ops * 0.5)
        assert sparse_report.energy_total < dense_report.energy_total
        assert sparse_report.l2_reads["W"] == pytest.approx(
            dense_report.l2_reads["W"] * 0.5, rel=0.01
        )

    def test_density_reduces_runtime(self):
        dense = conv2d("d", k=16, c=16, y=14, x=14, r=3, s=3)
        sparse = conv2d(
            "s", k=16, c=16, y=14, x=14, r=3, s=3,
            densities={"W": 0.25, "I": 0.5},
        )
        acc = Accelerator(num_pes=64)
        flow = yx_partitioned()
        assert (
            analyze_layer(sparse, flow, acc).runtime
            < analyze_layer(dense, flow, acc).runtime
        )


class TestEnergyModel:
    def test_custom_energy_model_scales(self, layer):
        flow = weight_stationary_1level()
        acc = Accelerator(num_pes=64)
        cheap = analyze_layer(layer, flow, acc, EnergyModel(dram=0.0001))
        expensive = analyze_layer(layer, flow, acc, EnergyModel(dram=2000.0))
        assert expensive.energy_total > cheap.energy_total
        assert expensive.runtime == cheap.runtime  # energy model is orthogonal

    def test_breakdown_components_present(self, layer):
        report = analyze_layer(layer, kc_partitioned(c_tile=16), Accelerator(num_pes=64))
        assert {"MAC", "L1 read", "L1 write", "L2 read", "L2 write", "DRAM"} <= set(
            report.energy_breakdown
        )
        assert report.energy_breakdown["MAC"] == pytest.approx(report.total_ops)


class TestGroupedConvolution:
    def test_grouped_counts_scale(self):
        plain = conv2d("p", k=32, c=32, y=14, x=14, r=3, s=3)
        grouped = conv2d("g", k=32, c=32, y=14, x=14, r=3, s=3, groups=2)
        acc = Accelerator(num_pes=64)
        flow = yx_partitioned()
        plain_report = analyze_layer(plain, flow, acc)
        grouped_report = analyze_layer(grouped, flow, acc)
        assert grouped_report.total_ops == pytest.approx(plain_report.total_ops / 2)


class TestNetworkAnalysis:
    def test_aggregates_match_layer_sums(self, vgg16):
        acc = Accelerator(num_pes=64)
        result = analyze_network(
            vgg16, yx_partitioned(), acc, layers=["CONV1", "CONV2", "CONV3"]
        )
        assert len(result.layer_reports) == 3
        assert result.runtime == pytest.approx(
            sum(r.runtime for r in result.layer_reports)
        )
        assert result.energy_total == pytest.approx(
            sum(r.energy_total for r in result.layer_reports)
        )

    def test_breakdown_aggregation(self, vgg16):
        acc = Accelerator(num_pes=64)
        result = analyze_network(vgg16, yx_partitioned(), acc, layers=["CONV1"])
        breakdown = result.energy_breakdown()
        assert breakdown == dict(result.layer_reports[0].energy_breakdown)


class TestOperatorCoverage:
    """The engine must handle every operator class end-to-end."""

    @pytest.mark.parametrize(
        "layer_name",
        ["CONV1", "BN2_1_expand", "BN2_1_dw", "BN3_2_add", "FC1000"],
    )
    def test_mobilenet_layers_analyze(self, mobilenet_v2, layer_name):
        layer = mobilenet_v2.layer(layer_name)
        report = analyze_layer(layer, yx_partitioned(), Accelerator(num_pes=64))
        assert report.runtime > 0
        assert report.energy_total > 0

    def test_pooling_analyzes(self, alexnet):
        layer = alexnet.layer("POOL1")
        report = analyze_layer(layer, yx_partitioned(), Accelerator(num_pes=64))
        assert report.runtime > 0

    def test_transposed_conv_analyzes(self):
        from repro.model.zoo import build

        layer = build("dcgan").layer("CONV2")
        report = analyze_layer(layer, kc_partitioned(c_tile=16), Accelerator(num_pes=64))
        assert report.runtime > 0
