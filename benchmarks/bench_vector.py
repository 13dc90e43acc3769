"""Vector-engine throughput + parity benchmark: Figure-13 grid, two ways.

Evaluates the Figure-13-style hardware grid (PE counts x NoC
bandwidths) for every Table-3 dataflow on a VGG-16 layer through the
vectorized whole-grid engine (``repro.vector``) and through the scalar
``analyze_layer`` pipeline, then writes ``BENCH_vector.json`` recording
points/sec for both, the speedup, the fallback rate, and the result of
a zero-tolerance differential parity check over every grid point.

Timing uses best-of-N minima (the standard noise-resistant estimator
for microbenchmarks), and the speedup is a ratio of same-machine
timings, so ``check_regression.py --vector`` gates on it directly; the
parity-violation count is deterministic.

Usage::

    PYTHONPATH=src python benchmarks/bench_vector.py \
        [--out BENCH_vector.json] [--max-pes 16384] [--repeats 7] \
        [--scalar-sample 32]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.dataflow.library import table3_dataflows
from repro.engines.analysis import analyze_layer
from repro.errors import BindingError, DataflowError
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.energy import DEFAULT_ENERGY_MODEL
from repro.model.zoo import build
from repro.vector import VectorLoweringError, evaluate_grid, lower_group
from repro.verify.differential import run_vector

BANDWIDTHS = (1, 2, 4, 8, 16, 32, 64, 128)


def fig13_grid(max_pes: int) -> list:
    """The Fig-13-style grid: power-of-two PE counts x NoC bandwidths."""
    pe_counts = []
    pes = 4
    while pes <= max_pes:
        pe_counts.append(pes)
        pes *= 2
    return [Accelerator(num_pes=p, noc=NoC(bandwidth=b)) for p in pe_counts for b in BANDWIDTHS]


def time_vector(layer, dataflow, grid, repeats: int) -> float:
    """Best-of-N seconds per point through the whole-grid engine.

    The lowering is shared across repeats exactly as the batch backend
    shares it across a group, but the first call pays it so cold-start
    cost is included in the worst sample and excluded from the best.
    """
    lowered = lower_group(layer, dataflow, grid[0], DEFAULT_ENERGY_MODEL)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        evaluate_grid(layer, dataflow, grid, lowered=lowered)
        best = min(best, time.perf_counter() - start)
    return best / len(grid)


def time_scalar(layer, dataflow, grid, sample: int, repeats: int) -> float:
    """Best-of-N seconds per point through the scalar pipeline.

    Replaying a deterministic evenly-spaced sample keeps the benchmark
    fast while covering the full PE/bandwidth range (scalar cost is
    near-constant across grid points for one dataflow).
    """
    stride = max(1, len(grid) // sample)
    points = grid[::stride]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for accelerator in points:
            try:
                analyze_layer(layer, dataflow, accelerator)
            except (BindingError, DataflowError):
                pass
        best = min(best, time.perf_counter() - start)
    return best / len(points)


def run_benchmark(max_pes: int, repeats: int, scalar_sample: int) -> dict:
    layer = build("vgg16").layer("CONV11")
    grid = fig13_grid(max_pes)
    flows = table3_dataflows()

    per_dataflow = {}
    total_vector = 0.0
    total_scalar = 0.0
    parity_violations = 0
    parity_points = 0
    fallbacks = 0
    points = 0
    for name, dataflow in flows.items():
        points += len(grid)
        # Parity first (full grid, zero tolerance): the speedup is
        # meaningless if the vectorized results are wrong.
        try:
            report = run_vector(layer, dataflow, grid)
        except VectorLoweringError:
            fallbacks += len(grid)
            per_dataflow[name] = {"vectorized": False}
            continue
        parity_points += report.counts["points_checked"]
        parity_violations += len(report.mismatches)

        vector_spp = time_vector(layer, dataflow, grid, repeats)
        scalar_spp = time_scalar(layer, dataflow, grid, scalar_sample, repeats)
        total_vector += vector_spp
        total_scalar += scalar_spp
        per_dataflow[name] = {
            "vectorized": True,
            "vector_points_per_sec": 1.0 / vector_spp,
            "scalar_points_per_sec": 1.0 / scalar_spp,
            "speedup": scalar_spp / vector_spp,
            "parity_mismatches": len(report.mismatches),
        }

    return {
        "sweep": f"fig13 grid CONV11 x Table-3 dataflows ({max_pes} PEs max)",
        "points": points,
        "grid_points": len(grid),
        "dataflows": len(flows),
        "vector_points_per_sec": len(flows) / total_vector if total_vector else 0.0,
        "scalar_points_per_sec": len(flows) / total_scalar if total_scalar else 0.0,
        "speedup": total_scalar / total_vector if total_vector else 0.0,
        "fallback_points": fallbacks,
        "fallback_rate": fallbacks / points if points else 0.0,
        "parity_points_checked": parity_points,
        "parity_violations": parity_violations,
        "per_dataflow": per_dataflow,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("BENCH_vector.json"))
    parser.add_argument("--max-pes", type=int, default=16384)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--scalar-sample", type=int, default=32)
    args = parser.parse_args(argv)

    report = run_benchmark(args.max_pes, args.repeats, args.scalar_sample)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"{report['sweep']}: speedup x{report['speedup']:.1f} "
        f"({report['vector_points_per_sec']:,.0f} vs "
        f"{report['scalar_points_per_sec']:,.0f} points/s), "
        f"{report['parity_violations']} parity violations over "
        f"{report['parity_points_checked']} points, "
        f"fallback rate {report['fallback_rate']:.1%}"
    )
    print(f"[written to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
