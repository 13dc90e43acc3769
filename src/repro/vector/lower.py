"""Lowering: partially evaluate the cost model against a grid template.

A *grid group* is a set of evaluation points that share one layer, one
dataflow, one energy model, and one accelerator **template** — every
hardware field except ``num_pes`` and the NoC ``bandwidth``, the two
axes the paper's Figure 13 DSE sweeps. For such a group, almost the
entire analytical pipeline is a constant:

- the memoized :class:`~repro.dataflow.directives.SizeExpr` closure
  trees evaluate to plain integers (directive sizes, offsets, chunk
  counts, cluster sizes) — this is the "lower the closure trees" step:
  symbolic sizes become literals before any per-point work happens;
- every cluster level *below* the top has a constant width (the
  cluster sizes), so its binding and reuse analysis are computed once
  here with the unmodified scalar engines;
- the top level's directive geometry is constant too; only its spatial
  fold count, average active width, and fold advance offsets depend on
  ``num_pes`` (through the top width ``W = num_pes // pes_per_cluster``)
  and are left symbolic for :mod:`repro.vector.engine` to evaluate as
  arrays.

Anything the lowering cannot express raises
:class:`VectorLoweringError`; the batch backend then falls back to the
scalar engines point by point, so the lowering never has to be
complete — only honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import evaluate_size
from repro.engines.analysis import buffer_req, compute_delay, working_set
from repro.engines.binding import BoundLevel, _bind_level, layer_facts
from repro.engines.reuse import LevelReuse, analyze_level_reuse
from repro.engines.tensor_analysis import TensorAnalysis, analyze_tensors
from repro.errors import BindingError, DataflowError
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.layer import Layer
from repro.tensors.axes import Axis, ConvOutputAxis, PlainAxis, SlidingInputAxis
from repro.util.intmath import num_chunks, prod


class VectorLoweringError(Exception):
    """The group cannot be lowered to an array program.

    Raised for heterogeneous templates, unsupported axis kinds, or any
    mapping the constant stage of the scalar pipeline already rejects
    (the per-point scalar fallback reproduces those rejections exactly).
    """


def accelerator_template(accelerator: Accelerator) -> Tuple[Any, ...]:
    """The hashable grid template: every field but ``num_pes``/bandwidth.

    Two accelerators with equal templates differ only along the grid
    axes, so their evaluation points can share one lowered program.
    """
    return (
        accelerator.l1_size,
        accelerator.l2_size,
        accelerator.noc.avg_latency,
        accelerator.noc.multicast,
        accelerator.spatial_reduction,
        accelerator.double_buffered,
        accelerator.vector_width,
        accelerator.element_bytes,
        accelerator.clock_ghz,
        accelerator.dram_bandwidth,
    )


#: The hashable partition key ``group_key`` returns.
GroupKey = Tuple[Any, ...]


def group_key(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel,
) -> GroupKey:
    """Partition key for grid grouping inside a batch of points.

    Layer and dataflow are keyed by identity (sweeps share the objects
    across grid points); the energy model is a small frozen dataclass
    and is keyed by value.
    """
    return (id(layer), id(dataflow), energy_model, accelerator_template(accelerator))


@dataclass(frozen=True)
class LoweredDirective:
    """One top-level map directive with all sizes folded to integers.

    ``steps`` is the temporal step count for temporal directives and
    ``None`` for spatial directives (their step count is the per-point
    fold count ``ceil(spatial_chunks / W)``).
    """

    dim: str
    spatial: bool
    size: int
    offset: int
    chunks: int
    steps: Optional[int]
    edge_size: int


@dataclass(frozen=True)
class LoweredTopLevel:
    """The top cluster level with the width left symbolic."""

    directives: Tuple[LoweredDirective, ...]
    local_sizes: Mapping[str, int]
    spatial_offsets: Mapping[str, int]
    spatial_chunks: int
    has_spatial: bool

    def chunk_sizes(self) -> Dict[str, int]:
        return {d.dim: d.size for d in self.directives}


@dataclass(frozen=True)
class AxisTable:
    """Per-tensor constants the array program reads per top-level axis."""

    extents: Tuple[int, ...]
    sigmas: Tuple[float, ...]  # |shift| under the level's spatial offsets


@dataclass(frozen=True)
class LoweredGroup:
    """Everything grid-constant, precomputed once per group."""

    layer: Layer
    dataflow: Dataflow
    energy_model: EnergyModel
    template: Tuple[Any, ...]
    # Template hardware fields (never read num_pes / noc.bandwidth).
    l1_size: Optional[int]
    l2_size: Optional[int]
    noc_latency: int
    multicast: bool
    spatial_reduction: bool
    double_buffered: bool
    vector_width: int
    element_bytes: int
    clock_ghz: float
    dram_bandwidth: Optional[int]
    # Binding constants.
    row_rep: str
    col_rep: str
    cluster_sizes: Tuple[int, ...]
    ppc: int  # PEs per top-level cluster
    top: LoweredTopLevel
    inner_levels: Tuple[BoundLevel, ...]
    inner_reuses: Tuple[LevelReuse, ...]
    tensors: TensorAnalysis
    axis_tables: Mapping[str, AxisTable]
    compute_delay: float
    # Innermost-chunk constants for the accounting stage.
    l1_req: int
    intermediate_reqs: Tuple[int, ...]

    @property
    def num_levels(self) -> int:
        return 1 + len(self.inner_levels)


def axis_shift(axis: Axis, offsets: Mapping[str, Any]) -> Any:
    """Replicate :meth:`Axis.shift` for scalar *or array* offsets.

    The scalar implementations wrap the result in ``float(...)``, which
    rejects arrays; this helper performs the identical arithmetic (same
    operations, same order, hence bit-identical float results) while
    accepting NumPy arrays as offset values.
    """
    import numpy as np

    def as_float(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return value.astype(np.float64)
        return float(value)

    if isinstance(axis, PlainAxis):
        return as_float(offsets.get(axis.dim, 0))
    if isinstance(axis, SlidingInputAxis):
        return as_float(
            offsets.get(axis.out_dim, 0) * axis.stride
            + offsets.get(axis.kernel_dim, 0) * axis.dilation
        )
    if isinstance(axis, ConvOutputAxis):
        numerator = (
            offsets.get(axis.in_dim, 0)
            - offsets.get(axis.kernel_dim, 0) * axis.dilation
        )
        return numerator / axis.stride
    raise VectorLoweringError(f"unsupported axis kind {type(axis).__name__}")


def _check_axes_supported(tensors: TensorAnalysis) -> None:
    for info in tensors.tensors:
        for axis in info.axes:
            if not isinstance(axis, (PlainAxis, SlidingInputAxis, ConvOutputAxis)):
                raise VectorLoweringError(
                    f"tensor {info.name} uses unsupported axis kind "
                    f"{type(axis).__name__}"
                )


def _lower_top_level(
    spec_maps: Tuple[Any, ...],
    local_sizes: Mapping[str, int],
    full_sizes: Mapping[str, int],
    dims: List[str],
    strides: Mapping[str, int],
    context: str,
) -> LoweredTopLevel:
    """The width-independent half of ``_bind_level`` for the top level.

    Mirrors :func:`repro.engines.binding._bind_level` exactly, except
    that spatial step counts (which depend on the top width) are left
    symbolic. All raised errors are width-independent, so they apply to
    every point of the grid — the caller turns them into a lowering
    failure and the scalar fallback reproduces them per point.
    """
    bound: List[LoweredDirective] = []
    seen: Dict[str, int] = {}
    spatial_offsets: Dict[str, int] = {dim: 0 for dim in dims}
    spatial_chunk_counts: List[int] = []

    for directive in spec_maps:
        if directive.dim not in dims:
            raise BindingError(
                f"{context}: dimension {directive.dim} is not part of this "
                f"binding's dimension set {dims}"
            )
        if directive.dim in seen:
            raise BindingError(
                f"{context}: dimension {directive.dim} mapped twice in one level"
            )
        local = local_sizes.get(directive.dim, 1)
        size = min(evaluate_size(directive.size, full_sizes, strides), local)
        offset = evaluate_size(directive.offset, full_sizes, strides)
        if size < 1 or offset < 1:
            raise BindingError(
                f"{context}: non-positive size/offset on {directive.dim} "
                f"(size={size}, offset={offset})"
            )
        chunks = num_chunks(local, size, offset)
        if directive.spatial:
            spatial_offsets[directive.dim] = offset
            spatial_chunk_counts.append(chunks)
        edge_size = local - (chunks - 1) * offset if chunks > 1 else size
        bound.append(
            LoweredDirective(
                dim=directive.dim,
                spatial=directive.spatial,
                size=size,
                offset=offset,
                chunks=chunks,
                steps=None if directive.spatial else chunks,
                edge_size=max(1, edge_size),
            )
        )
        seen[directive.dim] = size

    spatial_chunks = max(spatial_chunk_counts) if spatial_chunk_counts else 1

    inferred = [
        LoweredDirective(
            dim=dim,
            spatial=False,
            size=local_sizes.get(dim, 1),
            offset=local_sizes.get(dim, 1),
            chunks=1,
            steps=1,
            edge_size=local_sizes.get(dim, 1),
        )
        for dim in dims
        if dim not in seen
    ]

    return LoweredTopLevel(
        directives=tuple(inferred) + tuple(bound),
        local_sizes={dim: local_sizes.get(dim, 1) for dim in dims},
        spatial_offsets=spatial_offsets,
        spatial_chunks=spatial_chunks,
        has_spatial=bool(spatial_chunk_counts),
    )


def lower_group(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> LoweredGroup:
    """Lower one grid group to its constant program.

    ``accelerator`` supplies the template fields only; its ``num_pes``
    and NoC bandwidth are never read. Raises :class:`VectorLoweringError`
    when the group is outside the expressible space (including mappings
    the scalar binding rejects independently of the grid axes).
    """
    try:
        return _lower_group(layer, dataflow, accelerator, energy_model)
    except VectorLoweringError:
        raise
    except (BindingError, DataflowError) as error:
        raise VectorLoweringError(str(error)) from error


def _lower_group(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel,
) -> LoweredGroup:
    from repro.engines.binding import _relevant_dims

    dims, row_rep, col_rep = _relevant_dims(dataflow, layer)
    full_sizes = layer.all_dim_sizes()
    level_specs = dataflow.levels()

    cluster_sizes = []
    for spec in level_specs[:-1]:
        size = evaluate_size(spec.cluster_size, full_sizes)
        if size < 1:
            raise BindingError(
                f"{dataflow.name} on {layer.name}: cluster size {size} < 1"
            )
        cluster_sizes.append(size)
    ppc = prod(cluster_sizes)

    strides = {"Y": layer.stride[0], "X": layer.stride[1]}

    local_sizes: Dict[str, int] = {dim: full_sizes[dim] for dim in dims}
    top = _lower_top_level(
        spec_maps=level_specs[0].maps,
        local_sizes=local_sizes,
        full_sizes=full_sizes,
        dims=dims,
        strides=strides,
        context=f"{dataflow.name} on {layer.name}, level 0",
    )

    # Inner levels have constant widths (the cluster sizes): bind and
    # reuse-analyze them once with the unmodified scalar engines.
    inner_levels: List[BoundLevel] = []
    sizes = top.chunk_sizes()
    for index, spec in enumerate(level_specs[1:], start=1):
        level = _bind_level(
            index=index,
            spec_maps=spec.maps,
            width=cluster_sizes[index - 1],
            local_sizes=sizes,
            dims=dims,
            facts=layer_facts(layer),
            context=f"{dataflow.name} on {layer.name}, level {index}",
        )
        inner_levels.append(level)
        sizes = level.chunk_sizes()

    tensors = analyze_tensors(layer, row_rep, col_rep)
    _check_axes_supported(tensors)
    inner_reuses = tuple(analyze_level_reuse(level, tensors) for level in inner_levels)

    # Per-tensor axis constants under the top level's chunk geometry.
    top_sizes = top.chunk_sizes()
    axis_tables = {
        info.name: AxisTable(
            extents=tuple(axis.extent(top_sizes) for axis in info.axes),
            sigmas=tuple(
                abs(axis.shift(top.spatial_offsets)) for axis in info.axes
            ),
        )
        for info in tensors.tensors
    }

    # The scalar engine's ``bound.levels`` chunk sizes, outermost first:
    # the innermost sizes L1, the others the intermediate buffers.
    *outer_sizes, innermost_sizes = [top_sizes] + [
        level.chunk_sizes() for level in inner_levels
    ]

    return LoweredGroup(
        layer=layer,
        dataflow=dataflow,
        energy_model=energy_model,
        template=accelerator_template(accelerator),
        l1_size=accelerator.l1_size,
        l2_size=accelerator.l2_size,
        noc_latency=accelerator.noc.avg_latency,
        multicast=accelerator.noc.multicast,
        spatial_reduction=accelerator.spatial_reduction,
        double_buffered=accelerator.double_buffered,
        vector_width=accelerator.vector_width,
        element_bytes=accelerator.element_bytes,
        clock_ghz=accelerator.clock_ghz,
        dram_bandwidth=accelerator.dram_bandwidth,
        row_rep=row_rep,
        col_rep=col_rep,
        cluster_sizes=tuple(cluster_sizes),
        ppc=ppc,
        top=top,
        inner_levels=tuple(inner_levels),
        inner_reuses=inner_reuses,
        tensors=tensors,
        axis_tables=axis_tables,
        compute_delay=compute_delay(tensors, innermost_sizes, accelerator),
        l1_req=buffer_req(working_set(tensors, innermost_sizes), accelerator),
        intermediate_reqs=tuple(
            buffer_req(working_set(tensors, sizes), accelerator) for sizes in outer_sizes
        ),
    )


__all__ = [
    "VectorLoweringError",
    "LoweredGroup",
    "LoweredDirective",
    "LoweredTopLevel",
    "AxisTable",
    "accelerator_template",
    "group_key",
    "axis_shift",
    "lower_group",
]
