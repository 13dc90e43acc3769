"""Wall-clock floors: vector-engine speedup, engine phase shares, and the
weekly large-size floors (the last include the zoo x tuner grid twin
check, which the weekly workflow runs as its own job, and the zoo-wide
digests of the canonical forms and bindings).

These floors depend on timing, or take too long for the tier-1 suite.
The deterministic floors they extend are defined once, in
``tests/test_floors.py`` (pruner parity and skip shares) and
``tests/test_vector_parity.py`` (vector parity, no fallbacks), and
imported from there. Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_floors.py -k "not weekly"
    PYTHONPATH=src python -m pytest benchmarks/bench_floors.py -k weekly
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import obs
from repro.dataflow.library import table3_dataflows
from repro.dse import explore
from repro.dse.space import DesignSpace, default_pe_counts, kc_partitioned_variants
from repro.engines.analysis import analyze_layer
from repro.errors import BindingError, DataflowError
from repro.hardware.energy import DEFAULT_ENERGY_MODEL
from repro.model.zoo import MODELS, build
from repro.obs.profile import phase_timings
from repro.vector import evaluate_grid, lower_group
from tests.test_floors import assert_floor
from tests.test_template_golden import forms_and_bindings_digests
from tests.test_tuner_keying import assert_twins_share_screen_facts, tuner_grid
from tests.test_vector_parity import assert_fig13_parity, fig13_grid

#: Least points/s ratio of the vector engine over the scalar engines.
VECTOR_MIN_SPEEDUP = 20.0
#: Most any engine phase's share of phase self-time may drift from
#: ``baseline_obs.json``.
PHASE_SHARE_TOLERANCE = 0.15
REPEATS = 7
SCALAR_SAMPLE = 32


def _best_of(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _vector_seconds_per_point(layer, dataflow, grid) -> float:
    """Best-of-N whole-grid evaluation; the lowering is paid once, untimed.

    Every lane's report is read inside the timed call, so the floor
    compares full ``LayerAnalysis`` output with the scalar engines', not
    lanes whose reports were never built.
    """
    lowered = lower_group(layer, dataflow, grid[0], DEFAULT_ENERGY_MODEL)

    def run():
        for outcome in evaluate_grid(layer, dataflow, grid, lowered=lowered).outcomes:
            outcome.report

    return _best_of(run) / len(grid)


def _scalar_seconds_per_point(layer, dataflow, grid) -> float:
    """Best-of-N scalar analyses of an evenly spaced sample of the grid."""
    points = grid[:: max(1, len(grid) // SCALAR_SAMPLE)]

    def run():
        for accelerator in points:
            try:
                analyze_layer(layer, dataflow, accelerator)
            except (BindingError, DataflowError):
                pass

    return _best_of(run) / len(points)


@pytest.mark.parametrize(
    "max_pes", [pytest.param(16384, id="ci"), pytest.param(65536, id="weekly")]
)
def test_vector_speedup(max_pes):
    layer = build("vgg16").layer("CONV11")
    grid = fig13_grid(max_pes)
    vector = scalar = 0.0
    for dataflow in table3_dataflows().values():
        assert_fig13_parity(dataflow, max_pes)
        vector += _vector_seconds_per_point(layer, dataflow, grid)
        scalar += _scalar_seconds_per_point(layer, dataflow, grid)
    print(f"vector engine x{scalar / vector:.1f} over scalar ({max_pes} PEs max)")
    assert scalar / vector >= VECTOR_MIN_SPEEDUP


@pytest.mark.parametrize("max_pes", [pytest.param(1024, id="weekly")])
def test_equiv_floor(max_pes):
    assert_floor("equiv", max_pes)


@pytest.mark.parametrize(
    "num_pes", [pytest.param(64, id="weekly-64"), pytest.param(256, id="weekly-256")]
)
def test_zoo_tuner_grid_twins_share_screen_facts(num_pes):
    """The equiv check, screen facts included, on every zoo layer x the
    whole tuner grid: the tuner screens once per cache-key class."""
    grid = tuner_grid()
    pairs = [
        (layer, flow) for model in sorted(MODELS) for layer in build(model).layers for flow in grid
    ]
    assert assert_twins_share_screen_facts(pairs, num_pes) > 0


@pytest.mark.parametrize(
    "expected",
    [
        pytest.param(
            (
                "9914ab7465dfc050c36e7b4ea2ef145615d4dbb0de57eaf02429ac2bcc3f7676",
                "17c2b7e7b57b21ff047db4c7a0262ce1ab8c6839e9f61e05b0f9eff2fb8a3086",
            ),
            id="weekly",
        )
    ],
)
def test_zoo_forms_and_bindings_match_golden(expected):
    """The canonical forms and 256-PE bindings of every zoo layer x
    (tuner grid + stock library), 430,486 pairs, digested as
    ``tests/test_template_golden.py`` digests its six layers: the shape
    plans and the per-directive memo change no output."""
    layers = [layer for model in sorted(MODELS) for layer in build(model).layers]
    assert forms_and_bindings_digests(layers) == expected


def test_phase_shares_match_baseline():
    """Engine phase shares of one traced sweep stay near the committed ones.

    Shares are fractions of summed phase self-time, so they compare
    across machines where absolute times do not.
    """
    baseline = json.loads((Path(__file__).parent / "baseline_obs.json").read_text())
    space = DesignSpace(
        pe_counts=default_pe_counts(max_pes=128, step=32),
        noc_bandwidths=[8, 32],
        dataflow_variants=kc_partitioned_variants(c_tiles=(16,), spatial_tiles=((1, 1),)),
    )
    obs.configure(enabled=True, reset=True)
    try:
        explore(
            build("vgg16").layer("CONV11"),
            space,
            area_budget=16.0,
            power_budget=450.0,
            cache=False,
        )
        shares = {name: entry["share"] for name, entry in phase_timings().items()}
    finally:
        obs.configure(enabled=False, reset=True)
    for name, entry in baseline["phases"].items():
        print(f"{name}: share {entry['share']:.1%} -> {shares[name]:.1%}")
        assert abs(shares[name] - entry["share"]) <= PHASE_SHARE_TOLERANCE, name
