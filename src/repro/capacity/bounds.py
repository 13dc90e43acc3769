"""Certified per-level occupancy bounds from the bound mapping alone.

The analytical engine (:mod:`repro.engines.analysis`) sizes buffers with
Figure 8's ``2 * max(working set)`` rule *after* running the full
performance recursion. This module calls the engine's own sizing
functions (:func:`~repro.engines.analysis.working_set`,
:func:`~repro.engines.analysis.l2_working_set`,
:func:`~repro.engines.analysis.buffer_req`) on the exact same
:func:`bind_dataflow` output — binding plus the top level's unique-chunk
volumes, no transition classes and no cost-model call — so the static
peak bounds equal ``LayerAnalysis.l1_buffer_req`` / ``l2_buffer_req`` /
``intermediate_buffer_reqs`` bit-for-bit. Soundness ("static >= engine
and >= any instantaneous simulator occupancy") therefore holds with
equality against the engine, and with the engine's own double-buffer
margin against the simulator walk (see
:mod:`repro.verify.differential`).

The PE count enters a binding only through the top level's width, and
so only through its fold geometry; the tiles, and with them every
working set but L2's, do not depend on it. :class:`VariantCapacity`
binds a mapping once and answers the L1/L2 peaks of every PE count from
that binding: the capacity screens of :mod:`repro.screens` compute one
such fact per mapping variant of a sweep.

Monotonicity: every bound is a sum of products of per-dimension clamped
tile extents (times density), so enlarging any directive size — holding
the layer fixed — never shrinks a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.engines.analysis import buffer_req, buffering_factor, l2_working_set, working_set
from repro.engines.binding import (
    BoundDataflow,
    bind_dataflow,
    pes_per_top_cluster,
    top_level_width,
)
from repro.engines.reuse import level_unique_volumes
from repro.engines.tensor_analysis import TensorAnalysis, analyze_tensors
from repro.dataflow.dataflow import Dataflow
from repro.hardware.accelerator import Accelerator
from repro.model.layer import Layer

#: Provenance string attached to every DF5xx diagnostic: these bounds
#: are closed-form consequences of the clamped-tile binding, not
#: heuristics.
CAPACITY_PROVENANCE = "certified: closed-form occupancy bound (Fig. 8 sizing rule)"

#: Below this peak-to-capacity ratio DF503 flags the buffer as
#: over-provisioned.
UTILIZATION_FLOOR = 0.25


@dataclass(frozen=True)
class LevelOccupancy:
    """Occupancy bound for one buffer level.

    ``steady_bytes`` is the single-buffered working set (one live tile
    set); ``peak_bytes`` scales it by the buffering factor (2 under
    double buffering) and is the capacity the level must provision.
    ``capacity_bytes`` is the declared capacity, ``None`` when the
    accelerator sizes the buffer from the requirement.
    """

    label: str
    steady_bytes: int
    peak_bytes: int
    capacity_bytes: Optional[int]

    @property
    def fits(self) -> bool:
        """Whether the peak bound fits the declared capacity (or is unsized)."""
        return self.capacity_bytes is None or self.peak_bytes <= self.capacity_bytes

    @property
    def steady_fits(self) -> bool:
        """Whether even a single buffer slot fits the declared capacity."""
        return self.capacity_bytes is None or self.steady_bytes <= self.capacity_bytes

    @property
    def utilization(self) -> Optional[float]:
        """Peak occupancy as a fraction of the declared capacity."""
        if self.capacity_bytes is None or self.capacity_bytes <= 0:
            return None
        return self.peak_bytes / self.capacity_bytes

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "steady_bytes": self.steady_bytes,
            "peak_bytes": self.peak_bytes,
            "capacity_bytes": self.capacity_bytes,
            "fits": self.fits,
            "utilization": self.utilization,
        }


@dataclass(frozen=True)
class CapacityBounds:
    """Certified occupancy bounds for one (dataflow, layer, accelerator)."""

    dataflow_name: str
    layer_name: str
    num_pes: int
    element_bytes: int
    double_buffered: bool
    l1: LevelOccupancy
    l2: LevelOccupancy
    #: Cluster-boundary buffers of multi-level mappings: entry ``d``
    #: holds the level-``d`` chunk staged per depth-``d+1`` sub-cluster
    #: (mirrors ``LayerAnalysis.intermediate_buffer_reqs``).
    intermediates: Tuple[LevelOccupancy, ...]

    @property
    def buffering(self) -> int:
        return buffering_factor(self.double_buffered)

    @property
    def feasible(self) -> bool:
        """Whether every declared capacity admits its peak bound."""
        return (
            self.l1.fits
            and self.l2.fits
            and all(level.fits for level in self.intermediates)
        )

    def levels(self) -> Tuple[LevelOccupancy, ...]:
        """All bounded levels, innermost (L1) first."""
        return (self.l1, *reversed(self.intermediates), self.l2)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dataflow": self.dataflow_name,
            "layer": self.layer_name,
            "num_pes": self.num_pes,
            "element_bytes": self.element_bytes,
            "double_buffered": self.double_buffered,
            "feasible": self.feasible,
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "intermediates": [level.to_dict() for level in self.intermediates],
        }


def _bind(
    dataflow: Dataflow, layer: Layer, accelerator: Accelerator
) -> Tuple[BoundDataflow, TensorAnalysis]:
    bound = bind_dataflow(dataflow, layer, accelerator)
    tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    return bound, tensors


def _occupancy(
    label: str, elems: int, accelerator: Accelerator, capacity: Optional[int]
) -> LevelOccupancy:
    return LevelOccupancy(
        label=label,
        steady_bytes=elems * accelerator.element_bytes,
        peak_bytes=buffer_req(elems, accelerator),
        capacity_bytes=capacity,
    )


def _bounds_from(
    bound: BoundDataflow,
    tensors: TensorAnalysis,
    accelerator: Accelerator,
    dataflow_name: str,
    layer_name: str,
) -> CapacityBounds:
    """The engine's Figure-8 sizing of every buffer level."""
    # L1 (per PE): every tensor's clamped innermost chunk.
    l1 = _occupancy(
        "L1 (per PE)",
        working_set(tensors, bound.innermost().chunk_sizes()),
        accelerator,
        accelerator.l1_size,
    )
    # L2 (shared): the array-wide unique top-level chunk, dense-indexed.
    top_unique = level_unique_volumes(bound.levels[0], tensors)
    l2 = _occupancy(
        "L2 (shared)",
        l2_working_set(tensors, top_unique),
        accelerator,
        accelerator.l2_size,
    )
    # Cluster-boundary buffers: the level-d chunk per depth-(d+1) sub-cluster.
    total_levels = len(bound.levels)
    intermediates = tuple(
        _occupancy(
            f"cluster level {level.index}/{total_levels - 1} chunk "
            f"(per depth-{level.index + 1} sub-cluster)",
            working_set(tensors, level.chunk_sizes()),
            accelerator,
            None,
        )
        for level in bound.levels[:-1]
    )
    return CapacityBounds(
        dataflow_name=dataflow_name,
        layer_name=layer_name,
        num_pes=accelerator.num_pes,
        element_bytes=accelerator.element_bytes,
        double_buffered=accelerator.double_buffered,
        l1=l1,
        l2=l2,
        intermediates=intermediates,
    )


def compute_capacity_bounds(
    dataflow: Dataflow, layer: Layer, accelerator: Accelerator
) -> CapacityBounds:
    """Certified occupancy bounds for one (dataflow, layer, accelerator).

    Peak bounds equal the engine's ``l1_buffer_req`` /
    ``l2_buffer_req`` / ``intermediate_buffer_reqs`` bit-for-bit (same
    binding, same sizing functions) at a fraction of the cost: binding, tensor
    analysis, and the top level's unique-chunk volumes
    (:func:`~repro.engines.reuse.level_unique_volumes`) — no transition
    classes and no performance recursion.

    Raises whatever :func:`bind_dataflow` raises when the mapping cannot
    bind; callers that prune must treat that as "uncertified, do not
    prune".
    """
    bound, tensors = _bind(dataflow, layer, accelerator)
    return _bounds_from(bound, tensors, accelerator, dataflow.name, layer.name)


class VariantCapacity:
    """One mapping's certified L1/L2 peaks on one layer, at every PE count.

    Binds once, at ``accelerator``'s PE count or, where the cluster
    hierarchy does not fit it, at the
    :func:`~repro.engines.binding.pes_per_top_cluster` PEs one top-level
    sub-cluster spans. The L1 requirement, the innermost chunk's working
    set, is PE-independent. The L2 requirement depends on the PE count
    only through the top level's width ``W = num_pes //
    pes_per_top_cluster``: it is computed once per ``W``, on the bound
    top level moved to that width
    (:meth:`~repro.engines.binding.BoundLevel.at_width`). ``tensors``,
    when given, holds ``layer``'s tensor analyses by coordinate
    representation; facts of one run share them through it.

    :meth:`peak_bytes` equals ``compute_capacity_bounds(dataflow, layer,
    accelerator)``'s ``(l1.peak_bytes, l2.peak_bytes)`` bit for bit, and
    raises where it raises: construction raises where binding fails at
    every PE count, and :meth:`peak_bytes` raises
    :class:`~repro.errors.BindingError` where the cluster hierarchy does
    not fit the PE count. It reads the buffering and element size of
    the accelerator it is given. ``verify --check capacity`` replays
    this equality at 16, 64, 256 and 512 PEs.
    """

    def __init__(
        self,
        dataflow: Dataflow,
        layer: Layer,
        accelerator: Accelerator,
        tensors: Optional[Dict[Tuple[str, str], TensorAnalysis]] = None,
    ) -> None:
        self._dataflow = dataflow
        self._layer = layer
        self._pes_per_top = pes_per_top_cluster(dataflow, layer)
        if accelerator.num_pes < self._pes_per_top:
            accelerator = replace(accelerator, num_pes=self._pes_per_top)
        bound = bind_dataflow(dataflow, layer, accelerator)
        reps = (bound.row_rep, bound.col_rep)
        if tensors is None:
            tensors = {}
        if reps not in tensors:
            tensors[reps] = analyze_tensors(layer, *reps)
        self._tensors = tensors[reps]
        self._top = bound.levels[0]
        self._l1 = working_set(self._tensors, bound.innermost().chunk_sizes())
        #: Top-level width -> L2 working set (elements).
        self._l2: Dict[int, int] = {}

    def peak_bytes(self, accelerator: Accelerator) -> Tuple[int, int]:
        """The ``(L1, L2)`` peak bytes on ``accelerator``."""
        width = top_level_width(
            self._dataflow, self._layer, self._pes_per_top, accelerator.num_pes
        )
        l2 = self._l2.get(width)
        if l2 is None:
            top = self._top if width == self._top.width else self._top.at_width(width)
            l2 = self._l2[width] = l2_working_set(
                self._tensors, level_unique_volumes(top, self._tensors)
            )
        return buffer_req(self._l1, accelerator), buffer_req(l2, accelerator)
