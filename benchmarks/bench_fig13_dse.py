"""Figure 13: hardware design-space exploration under the Eyeriss budget.

KC-P and YR-P accelerators for VGG16 CONV2 (early) and CONV11 (late),
16 mm^2 / 450 mW: the DSE statistics table (Figure 13 c), the
throughput- and energy-optimized design points (the stars/crosses of
Figure 13 a/b), and the area-throughput / buffer-throughput series.
"""

import pytest

from repro.dse import explore
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
    yr_partitioned_variants,
)
from repro.model.zoo import build
from repro.util.text_table import format_table

AREA_BUDGET = 16.0
POWER_BUDGET = 450.0


def spaces():
    return {
        "KC-P": DesignSpace(
            pe_counts=default_pe_counts(max_pes=512, step=16),
            noc_bandwidths=default_bandwidths(128),
            dataflow_variants=kc_partitioned_variants(),
        ),
        "YR-P": DesignSpace(
            pe_counts=default_pe_counts(max_pes=512, step=16),
            noc_bandwidths=default_bandwidths(128),
            dataflow_variants=yr_partitioned_variants(),
        ),
    }


@pytest.fixture(scope="module")
def dse_results():
    vgg16 = build("vgg16")
    results = {}
    for flow_name, space in spaces().items():
        for layer_name in ("CONV2", "CONV11"):
            layer = vgg16.layer(layer_name)
            results[(flow_name, layer_name)] = explore(
                layer, space, area_budget=AREA_BUDGET, power_budget=POWER_BUDGET
            )
    return results


def test_fig13c_dse_statistics(dse_results, emit_result):
    rows = []
    for (flow_name, layer_name), result in dse_results.items():
        stats = result.statistics
        rows.append(
            [
                f"{flow_name}/{layer_name}",
                stats.valid,
                stats.explored,
                stats.pruned,
                f"{stats.elapsed_seconds:.2f}",
                f"{stats.effective_rate:,.0f}",
            ]
        )
    emit_result(
        "fig13c_dse_statistics",
        format_table(
            ["DSE setting", "valid designs", "explored", "pruned", "time (s)", "designs/s"],
            rows,
            title="Figure 13(c) — DSE statistics (paper: 0.17M designs/s in C++)",
        ),
    )


def test_fig13_optimal_points(dse_results, emit_result):
    rows = []
    for (flow_name, layer_name), result in dse_results.items():
        for objective, point in (
            ("throughput", result.throughput_optimal),
            ("energy", result.energy_optimal),
            ("edp", result.edp_optimal),
        ):
            if point is None:
                continue
            rows.append(
                [
                    f"{flow_name}/{layer_name}",
                    objective,
                    point.tile_label,
                    point.num_pes,
                    point.noc_bandwidth,
                    point.l1_size * point.num_pes + point.l2_size,
                    f"{point.throughput:.1f}",
                    f"{point.energy:.4e}",
                    f"{point.area:.2f}",
                    f"{point.power:.0f}",
                ]
            )
    emit_result(
        "fig13_optimal_designs",
        format_table(
            [
                "setting", "objective", "tile", "PEs", "BW",
                "total buffer (B)", "MAC/cyc", "energy", "mm^2", "mW",
            ],
            rows,
            title="Figure 13(a,b) — throughput-/energy-/EDP-optimized designs",
        ),
    )


def test_fig13_area_throughput_series(dse_results, emit_result):
    """The area-vs-throughput scatter, binned for a textual rendering."""
    lines = []
    for (flow_name, layer_name), result in dse_results.items():
        best_by_bin = {}
        for point in result.points:
            area_bin = round(point.area)
            best_by_bin[area_bin] = max(
                best_by_bin.get(area_bin, 0.0), point.throughput
            )
        series = " ".join(
            f"({area},{thpt:.0f})" for area, thpt in sorted(best_by_bin.items())
        )
        lines.append(f"{flow_name}/{layer_name}: {series}")
    emit_result(
        "fig13_area_throughput",
        "Figure 13 — max throughput per area bin (mm^2, MAC/cycle)\n"
        + "\n".join(lines),
    )


def test_fig13_shape_claims(dse_results):
    for (flow_name, layer_name), result in dse_results.items():
        stats = result.statistics
        assert stats.valid > 0
        assert stats.pruned > 0, "the pruning optimization must engage"
        # Every valid design respects the budget.
        for point in result.points:
            assert point.area <= AREA_BUDGET and point.power <= POWER_BUDGET

    # KC-P reaches a much higher peak throughput than YR-P on the late
    # layer (Figure 13 a vs b, where YR-P saturates near ~50 MACs/cycle
    # because Y-parallelism is capped at 14 rows).
    kc_best = dse_results[("KC-P", "CONV11")].throughput_optimal.throughput
    yr_best = dse_results[("YR-P", "CONV11")].throughput_optimal.throughput
    assert kc_best > 2 * yr_best

    # Early and late layers prefer different hardware (Section 5.2).
    early = dse_results[("KC-P", "CONV2")].throughput_optimal
    late = dse_results[("KC-P", "CONV11")].throughput_optimal
    assert (early.num_pes, early.noc_bandwidth, early.tile_label) != (
        late.num_pes, late.noc_bandwidth, late.tile_label,
    )


def test_fig13_static_lint_pruning(dse_results, emit_result):
    """The static-analyzer win: cost-model calls and wall-clock saved.

    Re-runs every Figure 13 sweep with ``static_lint=False`` and
    compares; optima must be identical (the lint reject set is
    binding-equivalent) while the linted sweep pays strictly fewer
    cost-model evaluations wherever any variant is unbindable.
    """
    import time

    vgg16 = build("vgg16")
    rows = []
    for flow_name, space in spaces().items():
        for layer_name in ("CONV2", "CONV11"):
            layer = vgg16.layer(layer_name)
            linted = dse_results[(flow_name, layer_name)]
            # Both sweeps are timed here and uncached: the fixture's
            # sweeps filled the default cache, so a cached rerun would
            # time cache lookups, not evaluations.
            start = time.perf_counter()
            explore(
                layer, space, area_budget=AREA_BUDGET,
                power_budget=POWER_BUDGET, cache=False,
            )
            lint_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            brute = explore(
                layer, space, area_budget=AREA_BUDGET,
                power_budget=POWER_BUDGET, static_lint=False, cache=False,
            )
            brute_elapsed = time.perf_counter() - start

            # Identical surviving designs and optima.
            assert len(linted.points) == len(brute.points)
            assert linted.throughput_optimal == brute.throughput_optimal
            assert linted.energy_optimal == brute.energy_optimal
            assert linted.edp_optimal == brute.edp_optimal
            if linted.statistics.static_rejects:
                assert (
                    linted.statistics.cost_model_calls
                    < brute.statistics.cost_model_calls
                )

            saved = brute_elapsed - lint_elapsed
            rows.append(
                [
                    f"{flow_name}/{layer_name}",
                    linted.statistics.static_rejects,
                    linted.statistics.cost_model_calls,
                    brute.statistics.cost_model_calls,
                    f"{lint_elapsed:.2f}",
                    f"{brute_elapsed:.2f}",
                    f"{saved:+.2f}",
                ]
            )
    emit_result(
        "fig13_static_lint_pruning",
        format_table(
            [
                "DSE setting", "lint rejects", "cost-model calls (lint)",
                "cost-model calls (brute)", "lint time (s)",
                "brute time (s)", "saved (s)",
            ],
            rows,
            title="Static mapping analyzer — DSE pruning win (identical optima)",
        ),
    )


def test_fig13_dse_rate_benchmark(benchmark):
    """Timed kernel: one pruned sweep over a small space.

    ``cache=False`` keeps the kernel honest: with memoization on, every
    round after the first would measure cache lookups, not the model.
    """
    layer = build("vgg16").layer("CONV11")
    space = DesignSpace(
        pe_counts=default_pe_counts(max_pes=128, step=32),
        noc_bandwidths=[8, 32],
        dataflow_variants=kc_partitioned_variants(c_tiles=(16,), spatial_tiles=((1, 1),)),
    )
    result = benchmark(explore, layer, space, AREA_BUDGET, POWER_BUDGET, cache=False)
    assert result.statistics.explored == space.size


def test_fig13_backend_speedup(emit_result):
    """The acceptance experiment for the batch-evaluation backend.

    One Figure 13 sweep, three ways: serial with the cache off (the
    pre-backend behavior), a cold run that fills a fresh cache, and a
    warm rerun with ``jobs=$(nproc)``. The warm rerun must return the
    identical result at >= 2x the serial-cold speed.
    """
    import os
    import time

    from repro.exec import AnalysisCache

    layer = build("vgg16").layer("CONV11")
    space = spaces()["KC-P"]
    jobs = os.cpu_count() or 1

    start = time.perf_counter()
    serial_cold = explore(
        layer, space, area_budget=AREA_BUDGET, power_budget=POWER_BUDGET,
        executor="serial", cache=False,
    )
    serial_seconds = time.perf_counter() - start

    shared = AnalysisCache()
    start = time.perf_counter()
    fill = explore(
        layer, space, area_budget=AREA_BUDGET, power_budget=POWER_BUDGET,
        executor="auto", jobs=jobs, cache=shared,
    )
    fill_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = explore(
        layer, space, area_budget=AREA_BUDGET, power_budget=POWER_BUDGET,
        executor="auto", jobs=jobs, cache=shared,
    )
    warm_seconds = time.perf_counter() - start

    for other in (fill, warm):
        assert other.points == serial_cold.points
        assert other.throughput_optimal == serial_cold.throughput_optimal
        assert other.energy_optimal == serial_cold.energy_optimal
    assert warm.statistics.cache_hits == warm.statistics.cost_model_calls > 0

    speedup = serial_seconds / warm_seconds
    rows = [
        ["serial, cache off", "serial", 0, f"{serial_seconds:.3f}", "1.0x"],
        [
            f"cold, jobs={jobs}", fill.statistics.executor,
            fill.statistics.cache_hits, f"{fill_seconds:.3f}",
            f"{serial_seconds / fill_seconds:.1f}x",
        ],
        [
            f"warm, jobs={jobs}", warm.statistics.executor,
            warm.statistics.cache_hits, f"{warm_seconds:.3f}", f"{speedup:.1f}x",
        ],
    ]
    emit_result(
        "fig13_backend_speedup",
        format_table(
            ["run", "executor", "cache hits", "time (s)", "speedup"],
            rows,
            title=(
                "Batch-evaluation backend — Fig 13 KC-P/CONV11 sweep "
                "(identical results, warm cache)"
            ),
        ),
    )
    assert speedup >= 2.0, f"warm-cache sweep only {speedup:.2f}x over serial cold"
