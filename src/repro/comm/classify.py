"""Static inter-PE communication classification from directives alone.

The paper's data-centric claim (Section 3, Table 2) is that the
directive list determines spatial reuse — which tensors are multicast
across PEs, which outputs need a reduction fan-in — without running
anything. This module makes the classification explicit and certified:
for every cluster level and tensor it derives, purely from the bound
directives,

- the *spatial access relation*: sub-unit ``p`` of a level reads the
  tensor elements whose axis intervals start at ``p * sigma_a`` with
  width ``e_a`` (``sigma_a`` is the axis shift induced by the level's
  spatial offsets, ``e_a`` the axis extent of one mapped chunk);
- the *pairwise overlap structure* between sub-units, which along each
  axis is ``max(0, e_a - |i - j| * sigma_a)`` shared elements; and
- the resulting :class:`CommPattern` with an exact per-element sharing
  degree (fan-out for reads, fan-in for output writes).

The classification is a closed form over ``(e_a, sigma_a)`` pairs:

========================  =============================================
all ``sigma_a == 0``      every sub-unit touches the *same* chunk —
                          ``MULTICAST`` for inputs, ``REDUCTION``
                          fan-in for the output (a reduction-carried
                          dimension is spatially mapped);
some ``sigma_a >= e_a``   adjacent chunks are disjoint along that axis,
                          hence fully disjoint — ``UNICAST``;
otherwise                 chunks overlap partially (``0 < sigma_a <
                          e_a``): neighbor ``FORWARDING`` chains for
                          inputs (store-and-forward halo reuse), a
                          partial-overlap ``REDUCTION`` for the output.
========================  =============================================

The sharing degree of one element is the number of sub-units whose
chunk covers it: ``min(active, min_a floor((e_a - 1) / sigma_a) + 1)``
over the axes with ``sigma_a > 0`` (unconstrained axes are shared by
everyone), where ``active = min(width, spatial_chunks)`` is the number
of concurrently active sub-units in one fold. Every
:class:`TensorComm` carries this formula spelled out plus a provenance
string; :mod:`repro.verify.differential` replays each claim against the
reuse engine and against brute-force PE access-set enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataflow.dataflow import Dataflow
    from repro.engines.binding import BoundDataflow, BoundLevel
    from repro.engines.tensor_analysis import TensorAnalysis, TensorInfo
    from repro.hardware.accelerator import Accelerator
    from repro.model.layer import Layer

__all__ = [
    "STATIC_PROVENANCE",
    "CommAnalysis",
    "CommPattern",
    "LevelComm",
    "ReductionDemand",
    "TensorComm",
    "bind_for_comm",
    "classify_bound",
    "classify_dataflow",
    "reduction_demand",
]

#: Provenance stamped on every classification: the verdict is a closed
#: form over the bound directives, no cost model or simulation involved.
STATIC_PROVENANCE = "static: derived from directives (Table 2 closed form)"

#: Default cap on the synthetic top-level width used when classifying
#: without a concrete accelerator; matches the brute-force enumeration
#: budget of the differential cross-check (<= 64 PEs per level).
DEFAULT_MAX_WIDTH = 64


class CommPattern(Enum):
    """The four inter-PE communication patterns of a (level, tensor)."""

    MULTICAST = "multicast"
    UNICAST = "unicast"
    FORWARDING = "forwarding"
    REDUCTION = "reduction"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TensorComm:
    """Certified communication pattern of one tensor at one level.

    ``degree`` is the maximum per-element sharing degree across the
    level's concurrently active sub-units: the multicast fan-out for
    read tensors, the reduction fan-in for the output. ``axis_profile``
    records the ``(extent, shift)`` pair of every tensor axis — the
    entire input to the classification — and ``degree_formula`` spells
    the closed form so the degree stays auditable as a function of the
    cluster size. ``exact_overlap`` is true when every sub-unit touches
    the identical chunk (all shifts zero); a partial-overlap reduction
    (``exact_overlap=False``) still implies concurrent writes to the
    shared elements.
    """

    tensor: str
    is_output: bool
    pattern: CommPattern
    degree: int
    chain_length: int
    overlap_volume: int
    exact_overlap: bool
    integral_shifts: bool
    axis_profile: Tuple[Tuple[int, float], ...]
    degree_formula: str
    provenance: str = STATIC_PROVENANCE

    @property
    def fan_out(self) -> int:
        """Sub-units receiving each delivered element (reads)."""
        return 1 if self.is_output else self.degree

    @property
    def fan_in(self) -> int:
        """Sub-units contributing writes per output element."""
        return self.degree if self.is_output else 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "tensor": self.tensor,
            "is_output": self.is_output,
            "pattern": self.pattern.value,
            "degree": self.degree,
            "fan_in": self.fan_in,
            "fan_out": self.fan_out,
            "chain_length": self.chain_length,
            "overlap_volume": self.overlap_volume,
            "exact_overlap": self.exact_overlap,
            "degree_formula": self.degree_formula,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class LevelComm:
    """Communication structure of one cluster level.

    A *degenerate* level (width 1 or a single joint spatial chunk) has
    no inter-PE concurrency at all: ``tensors`` is empty and no pattern
    is claimed.
    """

    index: int
    width: int
    spatial_chunks: int
    active: int
    spatial_dims: Tuple[str, ...]
    degenerate: bool
    tensors: Tuple[TensorComm, ...]

    @property
    def multicast_tensors(self) -> Tuple[str, ...]:
        """Read tensors every sub-unit receives identically."""
        return tuple(
            t.tensor for t in self.tensors if t.pattern is CommPattern.MULTICAST
        )

    @property
    def output_comm(self) -> Optional[TensorComm]:
        for tensor in self.tensors:
            if tensor.is_output:
                return tensor
        return None

    @property
    def requires_reduction(self) -> bool:
        """Concurrent sub-units write overlapping output elements."""
        output = self.output_comm
        return output is not None and output.pattern is CommPattern.REDUCTION

    @property
    def requires_multicast(self) -> bool:
        return bool(self.multicast_tensors)

    def to_dict(self) -> Dict[str, object]:
        return {
            "level": self.index,
            "width": self.width,
            "spatial_chunks": self.spatial_chunks,
            "active": self.active,
            "spatial_dims": list(self.spatial_dims),
            "degenerate": self.degenerate,
            "tensors": [t.to_dict() for t in self.tensors],
        }


@dataclass(frozen=True)
class CommAnalysis:
    """Per-level communication classification of one bound mapping."""

    dataflow_name: str
    layer_name: str
    num_pes: int
    levels: Tuple[LevelComm, ...]

    @property
    def requires_spatial_reduction(self) -> bool:
        """Some level spatially maps a reduction-carried output overlap."""
        return any(level.requires_reduction for level in self.levels)

    @property
    def requires_multicast(self) -> bool:
        return any(level.requires_multicast for level in self.levels)

    def pattern_counts(self) -> Dict[str, int]:
        """How many (level, tensor) pairs landed on each pattern."""
        counts = {pattern.value: 0 for pattern in CommPattern}
        for level in self.levels:
            for tensor in level.tensors:
                counts[tensor.pattern.value] += 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "dataflow": self.dataflow_name,
            "layer": self.layer_name,
            "num_pes": self.num_pes,
            "requires_spatial_reduction": self.requires_spatial_reduction,
            "requires_multicast": self.requires_multicast,
            "pattern_counts": self.pattern_counts(),
            "levels": [level.to_dict() for level in self.levels],
        }


def _classify_tensor(
    tensor: "TensorInfo", level: "BoundLevel", active: int
) -> TensorComm:
    """Apply the closed-form classification to one tensor at one level."""
    sizes = level.chunk_sizes()
    offsets = level.spatial_offsets
    extents = [axis.extent(sizes) for axis in tensor.axes]
    sigmas = [abs(axis.shift(offsets)) for axis in tensor.axes]
    profile = tuple(zip(extents, sigmas))
    integral = all(float(sigma).is_integer() for sigma in sigmas)

    if any(extent <= 0 for extent in extents):
        # The mapped chunk produces/touches nothing along some axis
        # (e.g. an input window narrower than the kernel): no elements,
        # no communication.
        return TensorComm(
            tensor=tensor.name,
            is_output=tensor.is_output,
            pattern=CommPattern.UNICAST,
            degree=0,
            chain_length=active,
            overlap_volume=0,
            exact_overlap=False,
            integral_shifts=integral,
            axis_profile=profile,
            degree_formula="0 (empty chunk: some axis extent is 0)",
        )

    overlap_volume = 1
    for extent, sigma in profile:
        overlap_volume *= max(0, extent - int(math.ceil(sigma)))

    if all(sigma == 0 for sigma in sigmas):
        pattern = CommPattern.REDUCTION if tensor.is_output else CommPattern.MULTICAST
        return TensorComm(
            tensor=tensor.name,
            is_output=tensor.is_output,
            pattern=pattern,
            degree=active,
            chain_length=active,
            overlap_volume=overlap_volume,
            exact_overlap=True,
            integral_shifts=True,
            axis_profile=profile,
            degree_formula=(
                f"active = min(width={level.width}, "
                f"chunks={level.spatial_chunks}) = {active}"
            ),
        )

    if any(sigma >= extent for extent, sigma in profile):
        # Disjoint along at least one axis => disjoint overall for every
        # pair of sub-units (|i - j| * sigma >= sigma >= extent).
        return TensorComm(
            tensor=tensor.name,
            is_output=tensor.is_output,
            pattern=CommPattern.UNICAST,
            degree=1,
            chain_length=active,
            overlap_volume=0,
            exact_overlap=False,
            integral_shifts=integral,
            axis_profile=profile,
            degree_formula="1 (some axis shift >= its extent: disjoint chunks)",
        )

    # Partial overlap on every shifted axis: a neighbor-forwarding chain
    # for reads, overlapping concurrent writes (partial reduction) for
    # the output. Per-axis cover of one element: floor((e-1)/sigma) + 1.
    covers = [
        int(math.floor((extent - 1) / sigma)) + 1
        for extent, sigma in profile
        if sigma > 0
    ]
    degree = min([active] + covers)
    cover_text = ", ".join(
        f"floor(({extent}-1)/{sigma:g})+1={int(math.floor((extent - 1) / sigma)) + 1}"
        for extent, sigma in profile
        if sigma > 0
    )
    pattern = CommPattern.REDUCTION if tensor.is_output else CommPattern.FORWARDING
    return TensorComm(
        tensor=tensor.name,
        is_output=tensor.is_output,
        pattern=pattern,
        degree=degree,
        chain_length=active,
        overlap_volume=overlap_volume,
        exact_overlap=False,
        integral_shifts=integral,
        axis_profile=profile,
        degree_formula=f"min(active={active}, {cover_text}) = {degree}",
    )


def classify_level(level: "BoundLevel", tensors: "TensorAnalysis") -> LevelComm:
    """Classify every tensor's communication pattern at one bound level."""
    spatial_dims = tuple(d.dim for d in level.directives if d.spatial)
    active = min(level.width, level.spatial_chunks)
    degenerate = level.width <= 1 or level.spatial_chunks <= 1
    classified: Tuple[TensorComm, ...] = ()
    if not degenerate:
        classified = tuple(
            _classify_tensor(tensor, level, active) for tensor in tensors.tensors
        )
    return LevelComm(
        index=level.index,
        width=level.width,
        spatial_chunks=level.spatial_chunks,
        active=active,
        spatial_dims=spatial_dims,
        degenerate=degenerate,
        tensors=classified,
    )


def classify_bound(bound: "BoundDataflow", tensors: "TensorAnalysis") -> CommAnalysis:
    """Classify every level of an already-bound mapping."""
    levels = tuple(classify_level(level, tensors) for level in bound.levels)
    analysis = CommAnalysis(
        dataflow_name=bound.dataflow.name,
        layer_name=bound.layer.name,
        num_pes=bound.layer_pes(),
        levels=levels,
    )
    obs.inc("comm.mappings_classified")
    for level in levels:
        for tensor in level.tensors:
            obs.inc(f"comm.pattern.{tensor.pattern.value}")
    return analysis


def bind_for_comm(
    dataflow: "Dataflow",
    layer: "Layer",
    accelerator: "Optional[Accelerator]" = None,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> "BoundDataflow":
    """Bind for communication analysis.

    With a concrete ``accelerator`` this is plain binding. Without one,
    the synthetic accelerator that exactly fits the cluster hierarchy
    (the verifier's choice) would leave the *top* level with width 1 —
    degenerate, hiding its communication structure entirely. So the
    probe binds twice: once to read the top level's joint spatial chunk
    count (which is width-independent), then for real with a top width
    of ``min(max_width, spatial_chunks)`` so every fold-free sub-unit
    is visible to the classifier.
    """
    from repro.engines.binding import bind_dataflow
    from repro.hardware.accelerator import Accelerator
    from repro.lint.rules import required_pes

    if accelerator is not None:
        return bind_dataflow(dataflow, layer, accelerator)
    base = required_pes(dataflow, layer)
    probe = bind_dataflow(dataflow, layer, Accelerator(num_pes=base))
    width = max(1, min(max_width, probe.levels[0].spatial_chunks))
    if width == 1:
        return probe
    return bind_dataflow(dataflow, layer, Accelerator(num_pes=base * width))


def classify_dataflow(
    dataflow: "Dataflow",
    layer: "Layer",
    accelerator: "Optional[Accelerator]" = None,
    max_width: int = DEFAULT_MAX_WIDTH,
) -> CommAnalysis:
    """Bind ``dataflow`` to ``layer`` and classify every level.

    See :func:`bind_for_comm` for how the accelerator defaults; raises
    :class:`~repro.errors.BindingError` (as binding would) when the
    mapping cannot bind at all.
    """
    from repro.engines.tensor_analysis import analyze_tensors

    bound = bind_for_comm(dataflow, layer, accelerator, max_width)
    tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    return classify_bound(bound, tensors)


@dataclass(frozen=True)
class ReductionDemand:
    """Where a mapping needs spatial-reduction hardware, PE-count-wise.

    ``inner`` races are independent of the PE count (inner level widths
    are the fixed cluster sizes); a ``top`` race appears exactly when
    the PE array fits two or more top-level clusters. This lets a
    search loop decide :meth:`races_on` for every grid point from one
    probe classification.
    """

    required_pes: int
    inner: bool
    top: bool

    def races_on(self, num_pes: int) -> bool:
        """Whether the mapping needs a spatial reduction at ``num_pes`` PEs."""
        return self.inner or (self.top and num_pes // self.required_pes >= 2)


def reduction_demand(dataflow: "Dataflow", layer: "Layer") -> ReductionDemand:
    """Probe-classify a mapping's spatial-reduction needs once.

    Binds with a synthetic two-cluster accelerator so the top level's
    communication structure is visible, then splits the reduction
    requirement into the PE-count-independent ``inner`` part and the
    ``top`` part that materializes once ``num_pes >= 2 * required_pes``.
    """
    from repro.engines.tensor_analysis import analyze_tensors
    from repro.engines.binding import bind_dataflow
    from repro.hardware.accelerator import Accelerator
    from repro.lint.rules import required_pes

    base = required_pes(dataflow, layer)
    bound = bind_dataflow(dataflow, layer, Accelerator(num_pes=2 * base))
    tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    analysis = classify_bound(bound, tensors)
    inner = any(
        level.requires_reduction for level in analysis.levels if level.index > 0
    )
    top = analysis.levels[0].requires_reduction
    return ReductionDemand(required_pes=base, inner=inner, top=top)
