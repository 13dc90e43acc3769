"""Reuse analysis: per-transition-class data movement at each level.

The paper's Reuse Analysis (RA) engine, formulated over *transition
classes*. Executing a level is an odometer sweep over its directives;
every step transition is classified by the outermost directive that
advances. For a level with entries ``e_1 .. e_m`` (outer to inner) with
``n_i`` steps each, class ``i`` occurs ``(n_i - 1) * prod_{j<i} n_j``
times, plus one initialization step — exactly the paper's Init / Steady
/ Edge data-iteration cases.

For each class and tensor we compute:

- ``fetch`` — new elements one sub-unit must receive (its chunk delta
  along the advancing dims; the full chunk if an inner coupled directive
  resets; zero if the tensor is stationary across the transition);
- ``unique`` — the union of all sub-units' new data (halo-aware), i.e.
  what must cross the level boundary when multicast is available;
- ``delivered`` — ``fetch`` summed over active sub-units, i.e. the
  traffic without multicast and the writes into sub-unit buffers.

All volumes are scaled by tensor density (uniform sparsity model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.engines.binding import BoundLevel
from repro.obs import inc
from repro.engines.tensor_analysis import TensorAnalysis, TensorInfo


@dataclass(frozen=True)
class OdometerEntry:
    """One iterator of a level's sweep.

    Temporal directives iterate alone; all spatial directives of a level
    share a single *fold* entry (they are distributed jointly), whose
    advance shifts every spatially mapped dim by ``width * offset``.
    """

    position: int
    steps: int
    advancing_offsets: Mapping[str, int]
    is_fold: bool


@dataclass(frozen=True)
class TensorTraffic:
    """Per-class data movement of one tensor (elements, density-scaled)."""

    fetch: float
    unique: float
    delivered: float
    stationary: bool


@dataclass(frozen=True)
class TransitionClass:
    """One transition class: which entry advances, how often, traffic."""

    label: str
    count: int
    traffic: Mapping[str, TensorTraffic]
    outputs_advance: bool


@dataclass(frozen=True)
class LevelReuse:
    """Reuse analysis result for one level."""

    level: BoundLevel
    init: TransitionClass
    classes: Tuple[TransitionClass, ...]
    output_name: str
    chunk_volumes: Mapping[str, float]
    unique_chunk_volumes: Mapping[str, float]
    outputs_per_sweep: float
    psum_factor: int
    output_spatially_reduced: bool
    multicast_tensors: Tuple[str, ...]

    @property
    def egress_per_sweep(self) -> float:
        """Output elements leaving the level per sweep (incl. partials)."""
        return self.outputs_per_sweep * self.psum_factor

    @property
    def psum_readback_per_sweep(self) -> float:
        """Partial sums re-read from the upper buffer per sweep."""
        return self.outputs_per_sweep * (self.psum_factor - 1)


def build_odometer(level: BoundLevel) -> List[OdometerEntry]:
    """Collapse a level's directives into odometer entries."""
    entries: List[OdometerEntry] = []
    fold_offsets: Dict[str, int] = {}
    fold_position = None
    for position, directive in enumerate(level.directives):
        if directive.spatial:
            fold_offsets[directive.dim] = directive.offset * level.width
            if fold_position is None:
                fold_position = position
        else:
            entries.append(
                OdometerEntry(
                    position=position,
                    steps=directive.steps,
                    advancing_offsets={directive.dim: directive.offset},
                    is_fold=False,
                )
            )
    if fold_offsets:
        entries.append(
            OdometerEntry(
                position=fold_position if fold_position is not None else 0,
                steps=level.folds,
                advancing_offsets=fold_offsets,
                is_fold=True,
            )
        )
        entries.sort(key=lambda entry: entry.position)
    return entries


def _moves_tensor(tensor: TensorInfo, offsets: Mapping[str, int]) -> bool:
    """Whether shifting chunk starts by ``offsets`` moves the tensor's data."""
    return any(abs(axis.shift(offsets)) > 0 for axis in tensor.axes)


def _tensor_traffic(
    tensor: TensorInfo,
    sizes: Mapping[str, int],
    spatial_offsets: Mapping[str, int],
    active: float,
    advancing: Mapping[str, int],
    inner_entries: "Tuple[OdometerEntry, ...]",
) -> TensorTraffic:
    """Traffic of one tensor for one transition class.

    When an *inner* iterator that moves the tensor resets on this
    transition, the retained overlap from the previous step is stale
    (the sub-unit buffers hold the end of the previous inner sweep, not
    its beginning), so the whole chunk must be refetched. Only when no
    inner reset touches the tensor does the halo delta apply.
    """
    inner_reset_moves = any(
        entry.steps > 1 and _moves_tensor(tensor, entry.advancing_offsets)
        for entry in inner_entries
    )

    advance_delta: Dict[int, int] = {}
    if inner_reset_moves:
        # Full chunk refetch: no advance_delta entries, all axes at extent.
        pass
    else:
        for axis_index, axis in enumerate(tensor.axes):
            if not any(dim in advancing for dim in axis.dims):
                continue
            shift = abs(axis.shift(advancing))
            if shift <= 0:
                continue
            extent = axis.extent(sizes)
            advance_delta[axis_index] = min(int(math.ceil(shift)), extent)
        if not advance_delta:
            return TensorTraffic(0.0, 0.0, 0.0, stationary=True)

    fetch = 1.0
    unique = 1.0
    for axis_index, axis in enumerate(tensor.axes):
        extent = axis.extent(sizes)
        sigma = abs(axis.shift(spatial_offsets))
        term = advance_delta.get(axis_index, extent)
        fetch *= term
        unique *= term + (active - 1.0) * min(sigma, float(term))

    fetch *= tensor.density
    unique *= tensor.density
    delivered = fetch * active
    return TensorTraffic(fetch=fetch, unique=unique, delivered=delivered, stationary=False)


def _full_chunk_traffic(
    tensor: TensorInfo,
    sizes: Mapping[str, int],
    spatial_offsets: Mapping[str, int],
    active: float,
) -> TensorTraffic:
    """Init-step traffic: the whole first chunk for every tensor."""
    fetch = 1.0
    unique = 1.0
    for axis in tensor.axes:
        extent = axis.extent(sizes)
        sigma = abs(axis.shift(spatial_offsets))
        fetch *= extent
        unique *= extent + (active - 1.0) * min(sigma, float(extent))
    fetch *= tensor.density
    unique *= tensor.density
    return TensorTraffic(fetch, unique, fetch * active, stationary=False)


def level_unique_volumes(level: BoundLevel, tensors: TensorAnalysis) -> Dict[str, float]:
    """The array-wide unique chunk volume of every tensor at one level.

    The union of all active sub-units' first chunks (halo-aware,
    density-scaled), keyed in ``tensors.tensors`` order. At level 0 this
    is the working set the Figure-8 rule sizes L2 from; it needs none of
    the transition classes, so buffer sizing can run it alone.
    """
    sizes = level.chunk_sizes()
    spatial_offsets = level.spatial_offsets
    active = level.avg_active
    return {
        t.name: _full_chunk_traffic(t, sizes, spatial_offsets, active).unique
        for t in tensors.tensors
    }


def analyze_level_reuse(level: BoundLevel, tensors: TensorAnalysis) -> LevelReuse:
    """Run reuse analysis for one bound level."""
    inc("reuse.levels_analyzed")
    sizes = level.chunk_sizes()
    spatial_offsets = level.spatial_offsets
    active = level.avg_active
    entries = build_odometer(level)

    init_traffic = {
        t.name: _full_chunk_traffic(t, sizes, spatial_offsets, active)
        for t in tensors.tensors
    }
    init = TransitionClass(
        label="init", count=1, traffic=init_traffic, outputs_advance=False
    )

    classes: List[TransitionClass] = []
    outer_product = 1
    for index, entry in enumerate(entries):
        if entry.steps > 1:
            count = (entry.steps - 1) * outer_product
            inner_entries = tuple(entries[index + 1 :])
            traffic = {
                t.name: _tensor_traffic(
                    t,
                    sizes,
                    spatial_offsets,
                    active,
                    entry.advancing_offsets,
                    inner_entries,
                )
                for t in tensors.tensors
            }
            output_name = tensors.output.name
            outputs_advance = not traffic[output_name].stationary
            label = "+".join(sorted(entry.advancing_offsets)) + (
                " (fold)" if entry.is_fold else ""
            )
            classes.append(
                TransitionClass(
                    label=label,
                    count=count,
                    traffic=traffic,
                    outputs_advance=outputs_advance,
                )
            )
        outer_product *= entry.steps

    chunk_volumes = {
        t.name: t.volume(sizes) * t.density for t in tensors.tensors
    }
    unique_chunk_volumes = level_unique_volumes(level, tensors)

    output = tensors.output
    outputs_per_sweep = output.volume(level.local_sizes) * output.density
    psum_factor = _psum_factor(entries, tensors)
    output_sigma_zero = all(
        abs(axis.shift(spatial_offsets)) == 0 for axis in output.axes
    )
    output_spatially_reduced = (
        level.width > 1 and level.spatial_chunks > 1 and output_sigma_zero
    )
    multicast_tensors = tuple(
        t.name
        for t in tensors.tensors
        if not t.is_output
        and level.width > 1
        and all(abs(axis.shift(spatial_offsets)) == 0 for axis in t.axes)
    )

    return LevelReuse(
        level=level,
        init=init,
        classes=tuple(classes),
        output_name=output.name,
        chunk_volumes=chunk_volumes,
        unique_chunk_volumes=unique_chunk_volumes,
        outputs_per_sweep=outputs_per_sweep,
        psum_factor=psum_factor,
        output_spatially_reduced=output_spatially_reduced,
        multicast_tensors=multicast_tensors,
    )


def _psum_factor(entries: List[OdometerEntry], tensors: TensorAnalysis) -> int:
    """How many times each output leaves the level per sweep.

    Outputs leave once unless a reduction-dimension iterator sits *outer*
    to the innermost output-advancing iterator, in which case every
    output tile is revisited (written up as partial sums and read back)
    once per outer reduction step.
    """
    output = tensors.output

    def advances_output(entry: OdometerEntry) -> bool:
        return any(
            abs(axis.shift(entry.advancing_offsets)) > 0 for axis in output.axes
        )

    innermost_output_pos = None
    for index, entry in enumerate(entries):
        if entry.steps > 1 and advances_output(entry):
            innermost_output_pos = index
    if innermost_output_pos is None:
        return 1
    factor = 1
    for index, entry in enumerate(entries[:innermost_output_pos]):
        if entry.steps > 1 and not advances_output(entry):
            if set(entry.advancing_offsets) & tensors.reduction_dims:
                factor *= entry.steps
    return factor
