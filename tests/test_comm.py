"""Tests for the spatial communication analyzer (repro.comm) and its
integrations: classification goldens, the DF300-DF303 lint rules,
``explain_rule``, hardware capability fields, search-loop pruning, and
the CLI surface."""

import json

import pytest

from repro.cli import main
from repro.comm import (
    CommPattern,
    classify_dataflow,
    reduction_demand,
    render_comm_summary,
    render_comm_table,
)
from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import St, Sz, spatial_map, temporal_map
from repro.dataflow.library import (
    kc_partitioned,
    output_stationary_1level,
    row_stationary_fig6,
    table3_dataflows,
    weight_stationary_1level,
)
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.topologies import (
    Bus,
    Crossbar,
    HierarchicalBus,
    Mesh2D,
    SystolicChain,
)
from repro.lint import RULES, SYMBOLIC_RULES, explain_rule, lint_dataflow
from repro.model.layer import conv2d
from repro.model.zoo import build
from repro.tensors import dims as D


@pytest.fixture(scope="module")
def layer():
    return conv2d("comm-layer", k=8, c=8, y=18, x=18, r=3, s=3)


def patterns(analysis, level):
    return {t.tensor: t.pattern for t in analysis.levels[level].tensors}


class TestClassificationGoldens:
    def test_kcp_nvdla_golden(self, layer):
        """The NVDLA-like KC-P flow: input multicast across the K level,
        output reduction fan-in across the inner C cluster."""
        analysis = classify_dataflow(kc_partitioned(), layer)
        assert patterns(analysis, 0) == {
            "W": CommPattern.UNICAST,
            "I": CommPattern.MULTICAST,
            "O": CommPattern.UNICAST,
        }
        assert patterns(analysis, 1) == {
            "W": CommPattern.UNICAST,
            "I": CommPattern.UNICAST,
            "O": CommPattern.REDUCTION,
        }
        assert analysis.requires_spatial_reduction
        assert analysis.requires_multicast
        output = analysis.levels[1].output_comm
        assert output.exact_overlap
        assert output.fan_in == min(
            analysis.levels[1].width, analysis.levels[1].spatial_chunks
        )

    def test_weight_stationary_input_multicast(self, layer):
        analysis = classify_dataflow(weight_stationary_1level(), layer)
        assert patterns(analysis, 0)["I"] is CommPattern.MULTICAST
        assert patterns(analysis, 0)["W"] is CommPattern.UNICAST
        assert not analysis.requires_spatial_reduction

    def test_output_stationary_forwarding(self, layer):
        """OS-YX spatially slides Y: weights identical (multicast),
        overlapping input rows forward between neighbors, outputs stay
        private."""
        analysis = classify_dataflow(output_stationary_1level(), layer)
        got = patterns(analysis, 0)
        assert got["W"] is CommPattern.MULTICAST
        assert got["I"] is CommPattern.FORWARDING
        assert got["O"] is CommPattern.UNICAST
        # Sliding window Sz(R)=3, offset St(Y)=1: 3 neighbors share a row.
        forwarding = next(
            t for t in analysis.levels[0].tensors if t.tensor == "I"
        )
        assert forwarding.degree == 3

    def test_row_stationary_inner_reduction(self, layer):
        analysis = classify_dataflow(row_stationary_fig6(), layer)
        outer = patterns(analysis, 0)
        assert outer["W"] is CommPattern.MULTICAST
        assert outer["I"] is CommPattern.FORWARDING
        inner = analysis.levels[1]
        assert inner.output_comm.pattern is CommPattern.REDUCTION
        assert inner.output_comm.fan_in == 3

    def test_every_library_flow_classifies(self, layer):
        flows = dict(table3_dataflows())
        flows["RS"] = row_stationary_fig6()
        flows["WS"] = weight_stationary_1level()
        flows["OS"] = output_stationary_1level()
        for name, flow in flows.items():
            analysis = classify_dataflow(flow, layer)
            assert analysis.levels, name
            for level in analysis.levels:
                for tensor in level.tensors:
                    assert tensor.provenance.startswith("static:"), name
                    assert tensor.degree_formula, name

    def test_to_dict_and_render(self, layer):
        analysis = classify_dataflow(kc_partitioned(), layer)
        payload = analysis.to_dict()
        assert payload["requires_spatial_reduction"] is True
        assert payload["pattern_counts"]["multicast"] >= 1
        json.dumps(payload)  # must be JSON-serializable
        table = render_comm_table(analysis)
        assert "multicast" in table and "reduction" in table
        assert "needs reduction tree" in render_comm_summary(analysis)

    def test_reduction_demand_kcp(self, layer):
        demand = reduction_demand(kc_partitioned(), layer)
        assert demand.inner  # the C cluster races at any PE count
        assert demand.races_on(demand.required_pes)
        assert demand.races_on(4 * demand.required_pes)

    def test_reduction_demand_top_only(self, layer):
        demand = reduction_demand(output_stationary_1level(), layer)
        assert not demand.inner
        assert not demand.races_on(demand.required_pes)


class TestCommRules:
    def racy_hw(self, **kwargs):
        return Accelerator(num_pes=256, spatial_reduction=False, **kwargs)

    def test_df300_fires_without_reduction_support(self, layer):
        report = lint_dataflow(kc_partitioned(), layer, self.racy_hw())
        found = [d for d in report.diagnostics if d.code == "DF300"]
        assert len(found) == 1
        assert found[0].is_error
        assert "write-write race" in found[0].message
        assert found[0].fixit is not None
        assert "TemporalMap" in found[0].fixit.description

    def test_df300_silent_on_capable_hardware(self, layer):
        report = lint_dataflow(
            kc_partitioned(), layer, Accelerator(num_pes=256)
        )
        assert not [d for d in report.diagnostics if d.code == "DF300"]

    def test_df301_reports_duplication_factor(self, layer):
        accelerator = Accelerator(num_pes=256).with_noc(multicast=False)
        report = lint_dataflow(kc_partitioned(), layer, accelerator)
        found = [d for d in report.diagnostics if d.code == "DF301"]
        assert found and "I x4" in found[0].message

    def test_df301_silent_with_multicast(self, layer):
        report = lint_dataflow(
            kc_partitioned(), layer, Accelerator(num_pes=256)
        )
        assert not [d for d in report.diagnostics if d.code == "DF301"]

    def test_df302_degenerate_joint_spatial(self):
        layer = conv2d("deg", k=8, c=1, y=12, x=12, r=3, s=3)
        flow = Dataflow(
            name="joint",
            directives=(
                temporal_map(1, 1, D.N),
                spatial_map(1, 1, D.K),
                spatial_map(1, 1, D.C),  # C extent 1: single chunk
                temporal_map(Sz(D.R), St(D.Y), D.Y),
                temporal_map(Sz(D.S), St(D.X), D.X),
                temporal_map(Sz(D.R), Sz(D.R), D.R),
                temporal_map(Sz(D.S), Sz(D.S), D.S),
            ),
        )
        report = lint_dataflow(flow, layer, Accelerator(num_pes=64))
        found = [d for d in report.diagnostics if d.code == "DF302"]
        assert found and "SpatialMap on C" in found[0].message
        assert found[0].fixit.replacement == "TemporalMap(1,1) C"

    def test_df303_chain_longer_than_row(self):
        layer = conv2d("chain", k=4, c=4, y=18, x=18, r=3, s=3)
        report = lint_dataflow(
            output_stationary_1level(), layer, Accelerator(num_pes=4)
        )
        found = [d for d in report.diagnostics if d.code == "DF303"]
        assert found and "forwards I" in found[0].message

    def test_df303_silent_when_chain_fits(self):
        layer = conv2d("chain", k=4, c=4, y=18, x=18, r=3, s=3)
        report = lint_dataflow(
            output_stationary_1level(), layer, Accelerator(num_pes=1024)
        )
        assert not [d for d in report.diagnostics if d.code == "DF303"]


class TestExplain:
    @pytest.mark.parametrize(
        "code", sorted(set(RULES) | set(SYMBOLIC_RULES))
    )
    def test_every_rule_explains(self, code):
        text = explain_rule(code)
        assert text.startswith(code)
        assert "severity:" in text
        assert "provenance:" in text
        # every registered check carries a real docstring
        assert len(text.splitlines()) > 5, f"{code} has no documentation"

    def test_case_insensitive(self):
        assert explain_rule("df300") == explain_rule("DF300")

    def test_unknown_code_raises(self):
        with pytest.raises(KeyError, match="DF300"):
            explain_rule("DF999")


class TestCapabilities:
    def test_defaults(self):
        accelerator = Accelerator(num_pes=64)
        assert accelerator.reduction_support
        assert accelerator.multicast_support
        assert accelerator.capabilities() == {
            "reduction_support": True,
            "multicast_support": True,
        }

    def test_single_source_of_truth(self):
        accelerator = Accelerator(
            num_pes=64,
            spatial_reduction=False,
            noc=NoC(bandwidth=32, multicast=False),
        )
        assert not accelerator.reduction_support
        assert not accelerator.multicast_support
        flipped = accelerator.with_noc(multicast=True)
        assert flipped.multicast_support
        assert not flipped.reduction_support

    @pytest.mark.parametrize(
        "topology,expected",
        [
            (Bus(8), False),
            (HierarchicalBus(8), True),
            (Crossbar(8), False),
            (Mesh2D(4, 4), False),
            (SystolicChain(16), True),
        ],
    )
    def test_topology_presets(self, topology, expected):
        assert topology.supports_reduction() is expected
        accelerator = topology.as_accelerator(64)
        assert accelerator.reduction_support is expected
        assert accelerator.capabilities()["reduction_support"] is expected

    def test_topology_override(self):
        accelerator = Bus(8).as_accelerator(64, spatial_reduction=True)
        assert accelerator.reduction_support


class TestSearchPruning:
    @pytest.fixture(scope="class")
    def space(self):
        from repro.dse.space import (
            DesignSpace,
            default_bandwidths,
            kc_partitioned_variants,
        )

        return DesignSpace(
            pe_counts=(32, 64, 128),
            noc_bandwidths=default_bandwidths(64),
            dataflow_variants=kc_partitioned_variants(),
        )

    def test_dse_bit_identical_on_capable_hardware(self, space):
        from repro.dse import explore

        layer = build("vgg16").layer("CONV11")
        plain = explore(layer, space, area_budget=16.0, power_budget=450.0)
        pruned = explore(
            layer, space, area_budget=16.0, power_budget=450.0, comm_prune=True
        )
        assert pruned.statistics.comm_rejects == 0
        assert pruned.throughput_optimal == plain.throughput_optimal
        assert pruned.energy_optimal == plain.energy_optimal
        assert pruned.edp_optimal == plain.edp_optimal

    def test_dse_prunes_races_on_reduction_free_hardware(self, space):
        from repro.dse import explore

        layer = build("vgg16").layer("CONV11")
        result = explore(
            layer,
            space,
            area_budget=16.0,
            power_budget=450.0,
            spatial_reduction=False,
            comm_prune=True,
        )
        # every KC-P variant spatially reduces C, so everything not
        # already lint-rejected is a proven write-race
        stats = result.statistics
        assert stats.comm_rejects > 0
        assert stats.cost_model_calls == 0
        assert stats.evaluated == 0

    def test_tuner_identical_on_capable_hardware(self):
        from repro.tuner import tune_layer

        layer = conv2d("tune", k=16, c=8, y=12, x=12, r=3, s=3)
        accelerator = Accelerator(num_pes=64)
        plain = tune_layer(layer, accelerator, strategy="random", budget=30)
        pruned = tune_layer(
            layer, accelerator, strategy="random", budget=30, comm_prune=True
        )
        assert pruned.comm_rejected == 0
        assert pruned.best.spec == plain.best.spec
        assert pruned.best.score == plain.best.score

    def test_tuner_screens_races(self):
        from repro.tuner import tune_layer

        layer = conv2d("tune", k=16, c=8, y=12, x=12, r=3, s=3)
        accelerator = Accelerator(num_pes=64, spatial_reduction=False)
        result = tune_layer(
            layer, accelerator, strategy="random", budget=30, comm_prune=True
        )
        assert result.comm_rejected > 0
        # every survivor is certified race-free on this hardware
        for candidate in result.top:
            analysis = classify_dataflow(candidate.dataflow, layer, accelerator)
            assert not analysis.requires_spatial_reduction


class TestCommCLI:
    def test_lint_explain(self, capsys):
        assert main(["lint", "--explain", "DF300"]) == 0
        out = capsys.readouterr().out
        assert "DF300" in out and "reduction tree" in out

    def test_lint_explain_unknown_exits(self):
        with pytest.raises(SystemExit, match="unknown lint rule"):
            main(["lint", "--explain", "DF999"])

    def test_lint_requires_target_or_explain(self):
        with pytest.raises(SystemExit, match="--explain"):
            main(["lint"])

    def test_lint_comm_view(self, capsys):
        code = main(
            ["lint", "KC-P", "--model", "vgg16", "--comm",
             "--no-spatial-reduction"]
        )
        assert code == 1  # DF300 is an error
        out = capsys.readouterr().out
        assert "DF300" in out
        assert "communication: KC-P" in out

    def test_analyze_comm_json(self, capsys):
        code = main(
            ["analyze", "--model", "vgg16", "--layer", "CONV1",
             "--dataflow", "KC-P", "--comm", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["requires_spatial_reduction"] is True

    def test_analyze_comm_symbolic_conflict(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                ["analyze", "--model", "vgg16", "--dataflow", "KC-P",
                 "--comm", "--symbolic"]
            )

    def test_verify_comm(self, capsys):
        assert main(["verify", "--check", "comm", "KC-P", "OS-YX"]) == 0
        out = capsys.readouterr().out
        assert "AGREE" in out and "DISAGREE" not in out

    def test_dse_comm_prune_flags(self, capsys):
        code = main(
            ["dse", "--model", "vgg16", "--layer", "CONV13",
             "--dataflow", "KC-P", "--max-pes", "64", "--pe-step", "32",
             "--no-spatial-reduction", "--comm-prune"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "comm-race pruned" in out

    def test_tune_comm_prune_flags(self, capsys):
        code = main(
            ["tune", "--model", "vgg16", "--layer", "CONV13", "--pes", "64",
             "--strategy", "random", "--budget", "20",
             "--no-spatial-reduction", "--comm-prune"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "comm-race screened" in out
