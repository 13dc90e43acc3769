"""The screen registry (:mod:`repro.screens`) and its runner.

Pins what the registry unifies: its order and metadata match the public
keywords, statistics fields, CLI flags and serve fields; its factored
lint and comm decisions equal the direct per-candidate analyzer calls
they replaced; the interval bounds of a point box equal the capacity
analyzer's exact requirements, which is why the tuner's symbolic screen
reads the capacity fact; and an analyzer that raises keeps the candidate
and is counted as uncertified.
"""

import inspect
from dataclasses import fields

import pytest

from repro import obs
from repro.cli import build_parser
from repro.comm import classify_dataflow
from repro.dse.explorer import DSEStatistics, explore
from repro.dse.space import DesignSpace, default_bandwidths, kc_partitioned_variants
from repro.exec import cache_key
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL
from repro.lint.engine import static_errors
from repro.model.zoo import build
from repro.screens import (
    OPTIONS,
    SCREENS,
    ScreenContext,
    ScreenRunner,
    enabled_rejects,
)
from repro.serve.protocol import DSE_PRUNERS
from repro.tuner import TunerResult, tune_layer
from repro.tuner.templates import enumerate_candidates

PARITY_LAYERS = [
    ("resnet50", "CONV2_1b"),
    ("mobilenet_v2", "BN2_1_dw"),
    ("unet", "DOWN3_1"),
]


@pytest.fixture(autouse=True)
def obs_disabled_after():
    yield
    obs.configure(enabled=False, reset=True)


@pytest.fixture(scope="module")
def candidates():
    return [spec.build() for spec in enumerate_candidates()]


def _runner(layer, keyword, reduction_support=True):
    context = ScreenContext(layer, reduction_support, None)
    return ScreenRunner("tuner", context, {keyword: True})


class TestRegistry:
    def test_order(self):
        assert [screen.name for screen in SCREENS] == [
            "lint",
            "verify",
            "comm",
            "capacity",
            "symbolic",
        ]

    def test_keywords_and_defaults_match_the_callers(self):
        for caller, scope in ((explore, "dse"), (tune_layer, "tuner")):
            parameters = inspect.signature(caller).parameters
            for option in OPTIONS:
                if not option.field(scope):
                    assert option.keyword not in parameters
                    continue
                # Only the flagless static_lint is on by default.
                assert parameters[option.keyword].default is (option.flag is None)

    def test_fields_name_real_statistics(self):
        dse_fields = {field.name for field in fields(DSEStatistics)}
        tuner_fields = {field.name for field in fields(TunerResult)}
        for option in OPTIONS:
            assert option.dse_field is None or option.dse_field in dse_fields
            assert option.tuner_field in tuner_fields
        assert [s.name for s in SCREENS if s.dse_field is None] == ["symbolic"]

    def test_cli_flags_come_from_the_registry(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions if action.dest == "command"
        ).choices
        for command, scope in (("dse", "dse"), ("tune", "tuner")):
            flags = {
                option: action
                for action in subparsers[command]._actions
                for option in action.option_strings
            }
            for option in OPTIONS:
                if not option.flag:
                    continue
                if not option.field(scope):
                    assert option.flag not in flags
                    continue
                assert flags[option.flag].dest == option.keyword
                assert flags[option.flag].help == option.help
        common = ["--model", "vgg16", "--layer", "CONV2", "--symbolic-prune"]
        with pytest.raises(SystemExit) as rejected:
            parser.parse_args(["dse", *common])
        assert rejected.value.code == 2
        assert parser.parse_args(["tune", *common]).symbolic_prune is True

    def test_serve_pruners_are_registry_keywords(self):
        assert set(DSE_PRUNERS) <= {option.keyword for option in OPTIONS}

    def test_enabled_rejects_lists_enabled_screens_in_order(self):
        stats = DSEStatistics(
            explored=0, evaluated=0, valid=0, pruned=0, elapsed_seconds=0.0,
            static_rejects=3, coverage_rejects=1, capacity_rejects=7,
        )
        assert enabled_rejects("dse", stats, {"capacity_prune": True}) == {
            "lint": 3,
            "capacity": 7,
        }
        assert enabled_rejects(
            "dse", stats, {"static_lint": False, "verify_coverage": True}
        ) == {"verify": 1}


@pytest.mark.parametrize("num_pes", [64, 256])
@pytest.mark.parametrize("model,layer_name", PARITY_LAYERS)
class TestParityWithDirectCalls:
    """The factored per-variant decisions equal the per-candidate calls."""

    def test_lint(self, candidates, model, layer_name, num_pes):
        layer = build(model).layer(layer_name)
        accelerator = Accelerator(num_pes=num_pes)
        runner = _runner(layer, "static_lint")
        for dataflow in candidates:
            direct = bool(static_errors(dataflow, layer, accelerator))
            assert runner.reject(dataflow.name, dataflow, accelerator) == direct

    def test_comm_on_reduction_free_hardware(self, candidates, model, layer_name, num_pes):
        layer = build(model).layer(layer_name)
        accelerator = Accelerator(num_pes=num_pes, spatial_reduction=False)
        runner = _runner(layer, "comm_prune", reduction_support=False)
        for dataflow in candidates:
            if static_errors(dataflow, layer, accelerator):
                continue  # the tuner never classifies a lint reject
            direct = classify_dataflow(dataflow, layer, accelerator).requires_spatial_reduction
            assert runner.reject(dataflow.name, dataflow, accelerator) == direct


def test_point_box_intervals_equal_certified_peaks(candidates):
    """On one layer and one accelerator the interval interpreter's L1/L2
    requirements are points equal to the capacity analyzer's exact peaks.

    So the tuner's symbolic screen, which reads the capacity fact,
    rejects what the interval lower bounds would reject.
    """
    from repro.absint import HardwareBox, ShapeBox, abstract_analyze
    from repro.capacity import compute_capacity_bounds

    accelerator = Accelerator(num_pes=256)
    hardware = HardwareBox.from_accelerator(accelerator)
    checked = 0
    for model, layer_name in PARITY_LAYERS:
        layer = build(model).layer(layer_name)
        box = ShapeBox.from_layer(layer)
        for dataflow in candidates[::9]:
            if static_errors(dataflow, layer, accelerator):
                continue
            bounds = compute_capacity_bounds(dataflow, layer, accelerator)
            analysis = abstract_analyze(box, dataflow, hardware)
            l1, l2 = analysis.l1_buffer_req, analysis.l2_buffer_req
            assert (l1.lo, l1.hi) == (bounds.l1.peak_bytes,) * 2, dataflow.name
            assert (l2.lo, l2.hi) == (bounds.l2.peak_bytes,) * 2, dataflow.name
            checked += 1
    assert checked >= 300


class TestUncertified:
    """An analyzer that raises keeps the candidate and is counted."""

    @staticmethod
    def _raise(*args, **kwargs):
        raise RuntimeError("analyzer bug")

    def test_tuner_keeps_candidates_when_verify_raises(self, monkeypatch):
        import repro.verify

        layer = build("vgg16").layer("CONV2")
        accelerator = Accelerator(num_pes=64)
        specs = list(enumerate_candidates())[:24]
        plain = tune_layer(layer, accelerator, candidates=specs, cache=False)
        monkeypatch.setattr(repro.verify, "verify_dataflow", self._raise)
        obs.configure(enabled=True, reset=True)
        screened = tune_layer(
            layer, accelerator, candidates=specs, cache=False, verify_coverage=True
        )
        assert screened.coverage_rejected == 0
        assert screened.evaluated == plain.evaluated
        assert screened.top == plain.top
        reached = len(specs) - plain.statically_rejected
        assert obs.counter_value("screen.uncertified.verify") == reached > 0

    def test_tuner_keeps_candidates_when_symbolic_raises(self, monkeypatch):
        """The symbolic screen's fact is the capacity fact: alone or beside
        the capacity screen, a raising analyzer rejects nothing, and with
        both screens on it is called once per cache-key class of the
        candidates the lint screen passes (each candidate still counts as
        uncertified)."""
        import repro.capacity

        layer = build("vgg16").layer("CONV2")
        accelerator = Accelerator(num_pes=64)
        specs = list(enumerate_candidates())[:24]
        caps = {"max_l1_bytes": 256}
        plain = tune_layer(layer, accelerator, candidates=specs, cache=False, **caps)
        reached = len(specs) - plain.statically_rejected
        lint = SCREENS[0]
        context = ScreenContext(layer, True, None)
        classes = {
            cache_key(layer, flow, accelerator, DEFAULT_ENERGY_MODEL)
            for flow in (spec.build() for spec in specs)
            if not lint.rejects(lint.fact(flow, accelerator, context), accelerator, context)
        }
        assert len(classes) < reached
        calls = []

        def raising(*args, **kwargs):
            calls.append(args)
            self._raise()

        monkeypatch.setattr(repro.capacity, "compute_capacity_bounds", raising)
        for screens in ({"symbolic_prune": True}, {"symbolic_prune": True, "capacity_prune": True}):
            calls.clear()
            obs.configure(enabled=True, reset=True)
            screened = tune_layer(
                layer, accelerator, candidates=specs, cache=False, **screens, **caps
            )
            assert screened.symbolic_rejected == screened.capacity_rejected == 0
            assert screened.evaluated == plain.evaluated
            assert screened.rejected == plain.rejected
            assert screened.top == plain.top
            assert len(calls) == len(classes) > 0
            for keyword, name in (("symbolic_prune", "symbolic"), ("capacity_prune", "capacity")):
                expected = reached if keyword in screens else 0
                assert obs.counter_value(f"screen.uncertified.{name}") == expected

    def test_explorer_keeps_points_when_capacity_raises(self, monkeypatch):
        import repro.capacity

        layer = build("vgg16").layer("CONV2")
        space = DesignSpace(
            pe_counts=[16, 32, 64],
            noc_bandwidths=default_bandwidths(8),
            dataflow_variants=kc_partitioned_variants(c_tiles=(4, 16)),
        )
        plain = explore(layer, space, 16.0, 450.0, cache=False)
        monkeypatch.setattr(repro.capacity, "compute_capacity_bounds", self._raise)
        obs.configure(enabled=True, reset=True)
        screened = explore(layer, space, 16.0, 450.0, cache=False, capacity_prune=True)
        assert screened.statistics.capacity_rejects == 0
        assert screened.points == plain.points
        reached = plain.statistics.cost_model_calls
        assert obs.counter_value("screen.uncertified.capacity") == reached > 0


@pytest.mark.parametrize(
    "model,layer_name,rejected",
    [
        ("resnet50", "CONV2_1b", 590),
        ("resnet50", "CONV3_1a", 226),
        ("mobilenet_v2", "BN2_1_dw", 426),
    ],
)
def test_tuner_buffer_screens_reject_the_same_candidates(model, layer_name, rejected):
    """Regression pin for the perfbench tune-mapping caps on a standard,
    a pointwise and a depthwise slot: the symbolic and capacity screens
    reject the same candidates of 1,344, and neither changes the result."""
    layer = build(model).layer(layer_name)
    accelerator = Accelerator(num_pes=256)
    caps = {"max_l1_bytes": 512, "max_l2_bytes": 200_000}
    plain = tune_layer(layer, accelerator, cache=False, **caps)
    symbolic = tune_layer(layer, accelerator, cache=False, symbolic_prune=True, **caps)
    capacity = tune_layer(layer, accelerator, cache=False, capacity_prune=True, **caps)
    assert symbolic.symbolic_rejected == capacity.capacity_rejected == rejected
    for screened in (symbolic, capacity):
        assert screened.top == plain.top
        assert screened.evaluated == plain.evaluated
        assert screened.rejected == plain.rejected
