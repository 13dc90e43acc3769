"""Roofline classification certificates from closed-form floors.

The engine's Figure-8 recursion makes every step of a level cost at
least ``max(ingress_delay, egress_delay, t_inner)`` cycles under double
buffering (and their *sum* without it), where ``t_inner`` is the full
sweep runtime of the level below. Two sound lower bounds on the
top-level sweep runtime follow directly:

- **compute floor** — one sweep walks every odometer state of every
  level, and each innermost state costs at least the MAC delay:
  ``compute_delay * prod(odometer_states(level))``;
- **communication floor** — each top-level step's delay is at least its
  ingress (+ partial-sum readback) NoC delay, and
  ``sum(ceil(v_i / bw)) >= total_volume / bw``, so the whole-sweep
  ingress volume over the NoC bandwidth bounds the sweep from below.

Whichever floor is higher names the certified bottleneck, and equating
the two yields the closed-form **crossover bandwidth** — the smallest
NoC width at which communication can hide under compute. When a
declared buffer capacity cannot admit the peak occupancy bound the
verdict is ``capacity-infeasible`` regardless of the floors.

Both floors are provable lower bounds of
``LayerAnalysis.level_stats[0].runtime_sweep``; the differential check
(``repro verify --check capacity``) enforces exactly that against the real
engine on every corpus pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.capacity.bounds import CapacityBounds, _bind, _bounds_from
from repro.engines.analysis import compute_delay, egress_volume, ingress_volume
from repro.engines.binding import BoundDataflow, BoundLevel
from repro.engines.reuse import analyze_level_reuse, build_odometer
from repro.engines.tensor_analysis import analyze_tensors
from repro.dataflow.dataflow import Dataflow
from repro.hardware.accelerator import Accelerator
from repro.model.layer import Layer

#: Verdict labels.
COMPUTE_BOUND = "compute-bound"
BANDWIDTH_BOUND = "bandwidth-bound"
CAPACITY_INFEASIBLE = "capacity-infeasible"


@dataclass(frozen=True)
class RooflineCertificate:
    """Certified bottleneck classification for one triple.

    ``compute_floor_cycles`` and ``comm_floor_cycles`` lower-bound one
    top-level sweep (``runtime / layer.groups`` in engine terms);
    ``crossover_bandwidth`` is the smallest integer NoC bandwidth
    (elements/cycle) whose communication floor no longer exceeds the
    compute floor.
    """

    dataflow_name: str
    layer_name: str
    num_pes: int
    noc_bandwidth: int
    verdict: str
    compute_floor_cycles: float
    comm_floor_cycles: float
    ingress_elems: float
    crossover_bandwidth: int
    bounds: CapacityBounds

    @property
    def bandwidth_bound(self) -> bool:
        return self.verdict == BANDWIDTH_BOUND

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataflow": self.dataflow_name,
            "layer": self.layer_name,
            "num_pes": self.num_pes,
            "noc_bandwidth": self.noc_bandwidth,
            "verdict": self.verdict,
            "compute_floor_cycles": self.compute_floor_cycles,
            "comm_floor_cycles": self.comm_floor_cycles,
            "ingress_elems": self.ingress_elems,
            "crossover_bandwidth": self.crossover_bandwidth,
            "bounds": self.bounds.to_dict(),
        }


def _odometer_states(level: BoundLevel) -> int:
    """Temporal states of one sweep (temporal steps x spatial folds)."""
    states = 1
    for entry in build_odometer(level):
        states *= entry.steps
    return states


def classify_roofline(
    dataflow: Dataflow,
    layer: Layer,
    accelerator: Accelerator,
    bound: Optional[BoundDataflow] = None,
) -> RooflineCertificate:
    """Classify one triple as compute/bandwidth-bound or infeasible.

    ``bound`` is the mapping already bound to ``layer`` and
    ``accelerator``, when the caller has it (the lint context does);
    without it the mapping is bound here. Raises whatever
    :func:`bind_dataflow` raises when the mapping cannot bind (no
    certificate exists for an unbindable mapping).
    """
    if bound is None:
        bound, tensors = _bind(dataflow, layer, accelerator)
    else:
        tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    bounds = _bounds_from(bound, tensors, accelerator, dataflow.name, layer.name)

    # Compute floor: the engine's MAC delay per innermost state, odometer
    # states per level, multiplied out across the hierarchy.
    compute_floor = compute_delay(tensors, bound.innermost().chunk_sizes(), accelerator)
    for level in bound.levels:
        compute_floor *= _odometer_states(level)

    # Communication floor: total top-level ingress (+ readback) volume
    # per sweep, from the engine's per-step volumes.
    top_reuse = analyze_level_reuse(bound.levels[0], tensors)
    multicast = accelerator.noc.multicast
    out_name = top_reuse.output_name
    volume = ingress_volume(top_reuse.init.traffic, out_name, multicast)
    readback_total = top_reuse.psum_readback_per_sweep
    spill = top_reuse.output_spatially_reduced and not accelerator.spatial_reduction
    for cls in top_reuse.classes:
        volume += cls.count * ingress_volume(cls.traffic, out_name, multicast)
        if cls.outputs_advance and readback_total > 0:
            volume += cls.count * egress_volume(cls.traffic, out_name, spill)
    bandwidth = accelerator.noc.bandwidth
    comm_floor = volume / bandwidth if bandwidth > 0 else float("inf")

    crossover = max(1, int(math.ceil(volume / compute_floor)))

    if not bounds.feasible:
        verdict = CAPACITY_INFEASIBLE
    elif comm_floor > compute_floor:
        verdict = BANDWIDTH_BOUND
    else:
        verdict = COMPUTE_BOUND

    return RooflineCertificate(
        dataflow_name=dataflow.name,
        layer_name=layer.name,
        num_pes=accelerator.num_pes,
        noc_bandwidth=bandwidth,
        verdict=verdict,
        compute_floor_cycles=compute_floor,
        comm_floor_cycles=comm_floor,
        ingress_elems=volume,
        crossover_bandwidth=crossover,
        bounds=bounds,
    )
