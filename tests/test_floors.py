"""Pruning floors on the paper's Figure-13 design-space sweep.

Every sound pruner must leave the sweep's answer unchanged and still
skip a minimum share of the plain sweep's cost-model calls. The sweep
is VGG-16 CONV11 over the KC-P mapping axis, PEs <= 256 in steps of 8,
NoC bandwidths up to 128, a 16 mm^2 / 450 mW budget and the cache off,
so every figure below is a deterministic count.

``FLOORS`` holds one row per (pruner, hardware, budget). The plain
sweep a row is compared against is computed once per (mapping axis,
hardware, budget) and shared by the rows that need it. The weekly lane
re-runs the ``equiv`` row at 1,024 PEs through :func:`assert_floor`
(``benchmarks/bench_floors.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import pytest

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import MapDirective
from repro.dse import explore
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
)
from repro.equiv import transpose_dataflow
from repro.model.zoo import build
from repro.tensors import dims as D

AREA_BUDGET = 16.0
POWER_BUDGET = 450.0


def enriched_variants() -> list:
    """Stock KC-P variants plus transposed twins and redundant spellings.

    A twin renames R<->S, Y<->X and Y'<->X'; a redundant spelling drops
    the inert single-chunk ``TemporalMap(Sz(R)) R`` directive (binding
    infers the same whole-extent iterator). Both map to an existing
    variant's equivalence class.
    """
    base = kc_partitioned_variants()
    variants = list(base)
    for label, flow in base:
        variants.append((f"{label}~T", transpose_dataflow(flow)))
        slimmed = tuple(
            d
            for d in flow.directives
            if not (isinstance(d, MapDirective) and not d.spatial and d.dim == D.R)
        )
        if len(slimmed) < len(flow.directives):
            variants.append((f"{label}~red", Dataflow(name=f"{flow.name}~red", directives=slimmed)))
    return variants


AXES = {"kc": kc_partitioned_variants, "enriched": enriched_variants}


@dataclass(frozen=True)
class Floor:
    """One pruner run against the plain sweep on the same hardware and budget.

    With ``same``, the valid points and all three optima must be
    bit-identical to the plain sweep's. The share of the plain sweep's
    cost-model calls the pruner avoids must lie within
    ``[min_skip, max_skip]``.
    """

    prune: str  # the explore() keyword that turns the pruner on
    same: bool
    min_skip: float = 0.0
    max_skip: float = 1.0
    axis: str = "kc"
    area: float = AREA_BUDGET
    spatial_reduction: bool = True


FLOORS = {
    # With a reduction tree the comm screen never runs.
    "comm-capable": Floor("comm_prune", True, max_skip=0.0),
    "comm-reduction-free": Floor("comm_prune", False, min_skip=0.20, spatial_reduction=False),
    "equiv": Floor("equiv_prune", True, min_skip=0.25, axis="enriched"),
    "capacity-area16": Floor("capacity_prune", True),
    "capacity-area4": Floor("capacity_prune", True, min_skip=0.20, area=4.0),
}


def _sweep(axis: str, area: float, spatial_reduction: bool, max_pes: int, **prune):
    space = DesignSpace(
        pe_counts=default_pe_counts(max_pes=max_pes, step=8),
        noc_bandwidths=default_bandwidths(128),
        dataflow_variants=AXES[axis](),
    )
    return explore(
        build("vgg16").layer("CONV11"),
        space,
        area_budget=area,
        power_budget=POWER_BUDGET,
        cache=False,
        spatial_reduction=spatial_reduction,
        **prune,
    )


_plain = lru_cache(maxsize=None)(_sweep)


def _optima(result) -> tuple:
    return (result.throughput_optimal, result.energy_optimal, result.edp_optimal)


def assert_floor(name: str, max_pes: int = 256) -> float:
    """Check one ``FLOORS`` row at ``max_pes``; returns its skip share."""
    floor = FLOORS[name]
    setting = (floor.axis, floor.area, floor.spatial_reduction, max_pes)
    plain = _plain(*setting)
    pruned = _sweep(*setting, **{floor.prune: True})
    if floor.same:
        assert pruned.points == plain.points
        assert _optima(pruned) == _optima(plain)
    calls = plain.statistics.cost_model_calls
    skip = (calls - pruned.statistics.cost_model_calls) / calls
    assert floor.min_skip <= skip <= floor.max_skip, f"{name}: skip {skip:.1%}"
    return skip


@pytest.mark.parametrize("name", FLOORS)
def test_floor(name):
    assert_floor(name)
