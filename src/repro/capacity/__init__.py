"""Static buffer-capacity and roofline feasibility analysis.

``repro.capacity`` derives **certified** per-level occupancy bounds —
steady-state and peak under double buffering — and a roofline
classification certificate (compute-bound vs. NoC-bandwidth-bound vs.
capacity-infeasible, with the closed-form crossover bandwidth) for any
(dataflow, layer, accelerator) triple, from the mapping's tile chunks
alone: no cost-model call, no simulation.

The bounds call the analytical engine's own Figure-8 buffer sizing
functions on the same bound mapping, so "static bound >= engine
requirement" holds with equality by construction; the roofline floors,
built from the engine's per-step compute delay and NoC volumes, are
provable lower bounds of the engine's performance recursion.
Both facts are continuously re-checked by ``repro verify --check
capacity`` (:mod:`repro.verify.differential`) against the analytical
engine and the simulator's double-buffer occupancy walk.

Consumers:

- DF500-DF504 lints (:mod:`repro.lint.rules`) with fix-its;
- ``repro analyze --capacity`` / ``repro lint --capacity`` views;
- sound ``--capacity-prune`` for ``dse``/``tune``/``serve``
  (the capacity screen of :mod:`repro.screens`), bit-identical optima
  guaranteed.
"""

from repro.capacity.bounds import (
    CAPACITY_PROVENANCE,
    CapacityBounds,
    LevelOccupancy,
    VariantCapacity,
    compute_capacity_bounds,
)
from repro.capacity.prune import capacity_requirements
from repro.capacity.report import (
    capacity_rows,
    render_capacity_summary,
    render_capacity_table,
)
from repro.capacity.roofline import (
    RooflineCertificate,
    classify_roofline,
)

__all__ = [
    "CAPACITY_PROVENANCE",
    "CapacityBounds",
    "LevelOccupancy",
    "RooflineCertificate",
    "VariantCapacity",
    "capacity_requirements",
    "capacity_rows",
    "classify_roofline",
    "compute_capacity_bounds",
    "render_capacity_summary",
    "render_capacity_table",
]
