"""Cluster analysis: bind a symbolic dataflow to a layer and a PE count.

This engine implements the paper's Cluster Analysis (CLA) stage: it
splits the directive list into cluster levels, evaluates symbolic sizes
against the layer, infers omitted directives, clamps over-sized
mappings, counts temporal steps and spatial folds, and derives each
level's *local* dimension extents (the chunk handed down by the level
above).

Joint spatial distribution (several ``SpatialMap`` directives in one
level) is supported with aligned semantics: sub-cluster ``i`` takes
chunk ``i`` along every spatially mapped dimension, which expresses
Eyeriss-style diagonal mappings (Figure 6, Table 3's YR-P).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.dataflow.dataflow import Dataflow, LevelSpec
from repro.obs import inc
from repro.dataflow.directives import MapDirective, evaluate_size
from repro.errors import BindingError
from repro.hardware.accelerator import Accelerator
from repro.model.layer import Layer
from repro.tensors import dims as D
from repro.util.intmath import ceil_div, num_chunks, prod


@dataclass(frozen=True)
class BoundDirective:
    """A map directive with concrete sizes and iteration counts.

    ``steps`` is the number of *temporal* iterations the directive
    contributes at its level: chunk count for temporal maps, fold count
    for spatial maps. ``chunks`` is the raw chunk count along the
    dimension. ``edge_size`` is the size of the last (possibly partial)
    chunk.
    """

    dim: str
    spatial: bool
    size: int
    offset: int
    chunks: int
    steps: int
    edge_size: int

    @property
    def temporal_steps(self) -> int:
        return self.steps


@dataclass(frozen=True)
class BoundLevel:
    """One bound cluster level.

    Attributes
    ----------
    width:
        Number of sub-units (sub-clusters or PEs) the level maps across.
    directives:
        Bound map directives, outermost first, including inferred ones.
    local_sizes:
        The dimension extents this level iterates over (the chunk the
        parent level maps onto one sub-unit; full layer dims at level 0).
    spatial_offsets:
        Per-dimension chunk shift between adjacent sub-units (0 for
        dimensions that are not spatially mapped).
    spatial_chunks:
        Joint spatial chunk count (1 when nothing is spatially mapped).
    folds:
        Temporal folds of the spatial distribution
        (``ceil(spatial_chunks / width)``).
    avg_active:
        Average number of active sub-units per step, accounting for the
        partially filled last fold.
    """

    index: int
    width: int
    directives: Tuple[BoundDirective, ...]
    local_sizes: Mapping[str, int]
    spatial_offsets: Mapping[str, int]
    spatial_chunks: int
    folds: int
    avg_active: float

    @property
    def sweep_steps(self) -> int:
        """Total temporal steps for one full sweep of this level."""
        return prod(d.steps for d in self.directives)

    def chunk_sizes(self) -> Dict[str, int]:
        """Per-step, per-sub-unit mapped chunk size for every dimension."""
        return {d.dim: d.size for d in self.directives}

    def at_width(self, width: int) -> "BoundLevel":
        """This level spread over ``width`` sub-units instead.

        Only the fold geometry (the spatial directives' steps, ``folds``
        and ``avg_active``) depends on the width; chunk sizes and offsets
        do not. So the top level of a binding at one PE count, moved to
        the width another PE count gives it, equals that binding's top
        level.
        """
        folds, avg_active = fold_geometry(self.spatial_chunks, width)
        return replace(
            self,
            width=width,
            directives=_folded(self.directives, folds),
            folds=folds,
            avg_active=avg_active,
        )

    def directive_for(self, dim: str) -> BoundDirective:
        for directive in self.directives:
            if directive.dim == dim:
                return directive
        raise KeyError(f"level {self.index} has no directive for {dim}")


@dataclass(frozen=True)
class BoundDataflow:
    """A dataflow bound to a layer and accelerator: all levels resolved."""

    dataflow: Dataflow
    layer: Layer
    levels: Tuple[BoundLevel, ...]
    row_rep: str  # "input" or "output": coordinate system of the row axis
    col_rep: str
    used_pes: int  # PEs covered by the cluster hierarchy (<= num_pes)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def innermost(self) -> BoundLevel:
        return self.levels[-1]

    def total_steps(self) -> int:
        """PE-level time steps for the whole layer (all levels)."""
        return prod(level.sweep_steps for level in self.levels)

    def average_utilization(self) -> float:
        """Average fraction of PEs doing useful work (spatial folds only)."""
        utilization = self.used_pes / self.layer_pes()
        for level in self.levels:
            utilization *= level.avg_active / level.width
        return utilization

    def layer_pes(self) -> int:
        return self._num_pes

    # populated by bind_dataflow
    _num_pes: int = 0


#: At most this many memoized directive facts per layer; the memo is
#: cleared when full.
_MAX_FACTS = 256

#: A map directive's evaluated fact over one local extent:
#: ``(size, offset, chunks, bound, directive)``, where ``bound`` is the
#: directive bound at ``steps == chunks`` (``None`` when binding raises).
DirectiveFact = Tuple[int, int, int, Optional[BoundDirective], MapDirective]


class LayerFacts:
    """One layer's extents and strides, and the map directives evaluated against them.

    A map directive's evaluated fact depends only on the layer, the
    directive and the local extent it maps: its size and offset are
    evaluated against the layer's full extents and strides, the size is
    clamped to the local extent, and the chunk count and edge size
    follow from those three numbers. :meth:`fact` computes it, and the
    bound directive built from it, once per (directive, local extent).
    The binder and the canonical walk (:mod:`repro.equiv.canonical`)
    read the same facts, so the tiles of one tuner template, which
    share their directive objects, evaluate each directive once per
    extent. :func:`layer_facts` hands out one instance per layer.

    The memo is keyed by the directive's identity and holds a reference
    to the directive, so no id can be recycled while its entry lives.
    It is bounded: cleared when it holds ``_MAX_FACTS`` entries.
    """

    def __init__(self, layer: Layer) -> None:
        self.full_sizes: Dict[str, int] = layer.all_dim_sizes()
        self.strides: Dict[str, int] = {D.Y: layer.stride[0], D.X: layer.stride[1]}
        self._facts: Dict[Tuple[int, int], DirectiveFact] = {}

    def fact(self, directive: MapDirective, local: int) -> DirectiveFact:
        """``directive`` over a local extent of ``local``.

        ``size`` is clamped to ``local``. When ``size`` or ``offset`` is
        below 1, binding raises: ``chunks`` is 0 and ``bound`` ``None``.
        Raises what :func:`~repro.dataflow.directives.evaluate_size`
        raises for a size that cannot be evaluated.
        """
        key = (id(directive), local)
        fact = self._facts.get(key)
        if fact is None:
            size = min(evaluate_size(directive.size, self.full_sizes, self.strides), local)
            offset = evaluate_size(directive.offset, self.full_sizes, self.strides)
            chunks = 0
            bound: Optional[BoundDirective] = None
            if size >= 1 and offset >= 1:
                chunks = num_chunks(local, size, offset)
                edge_size = max(1, local - (chunks - 1) * offset) if chunks > 1 else size
                bound = BoundDirective(
                    directive.dim, directive.spatial, size, offset, chunks, chunks, edge_size
                )
            if len(self._facts) >= _MAX_FACTS:
                self._facts.clear()
            fact = self._facts[key] = (size, offset, chunks, bound, directive)
        return fact


@functools.lru_cache(maxsize=64)
def layer_facts(layer: Layer) -> LayerFacts:
    """The :class:`LayerFacts` of ``layer`` (one per equal layer, 64 at most)."""
    return LayerFacts(layer)


def _relevant_dims(dataflow: Dataflow, layer: Layer) -> Tuple[List[str], str, str]:
    """The dimension names this binding tracks, plus axis representations."""
    row_rep = "output" if dataflow.uses_output_coordinates("row") else "input"
    col_rep = "output" if dataflow.uses_output_coordinates("col") else "input"
    dims = [D.N, D.K, D.C]
    dims.append(D.YP if row_rep == "output" else D.Y)
    dims.append(D.XP if col_rep == "output" else D.X)
    dims.extend([D.R, D.S])
    return dims, row_rep, col_rep


def _cluster_sizes(
    dataflow: Dataflow, layer: Layer, level_specs: List[LevelSpec], full_sizes: Mapping[str, int]
) -> List[int]:
    """The evaluated ``Cluster`` sizes, outermost first."""
    sizes = []
    for spec in level_specs[:-1]:
        size = evaluate_size(spec.cluster_size, full_sizes)
        if size < 1:
            raise BindingError(
                f"{dataflow.name} on {layer.name}: cluster size {size} < 1"
            )
        sizes.append(size)
    return sizes


def pes_per_top_cluster(dataflow: Dataflow, layer: Layer) -> int:
    """PEs one top-level sub-cluster spans: the product of the cluster sizes.

    The only part of the cluster hierarchy the PE count does not set;
    raises :class:`BindingError` where :func:`bind_dataflow` would
    whatever the PE count.
    """
    return prod(_cluster_sizes(dataflow, layer, dataflow.levels(), layer_facts(layer).full_sizes))


def top_level_width(dataflow: Dataflow, layer: Layer, pes_per_top: int, num_pes: int) -> int:
    """Top-level sub-clusters on ``num_pes`` PEs; raises when not even one fits."""
    if pes_per_top > num_pes:
        raise BindingError(
            f"{dataflow.name} on {layer.name}: cluster hierarchy needs "
            f"{pes_per_top} PEs but only {num_pes} exist"
        )
    return num_pes // pes_per_top


def fold_geometry(spatial_chunks: int, width: int) -> Tuple[int, float]:
    """``(folds, avg_active)`` of ``spatial_chunks`` joint chunks over ``width`` sub-units.

    The chunks fold ``ceil(spatial_chunks / width)`` times in time, and
    ``avg_active`` sub-units do useful work per fold on average,
    counting the partially filled last fold. A level with no spatial map
    has one chunk, so one fold and one active sub-unit: nothing
    distinguishes its sub-units. With ``width == 1`` every fold holds
    one chunk. ``spatial_chunks / folds`` never exceeds ``width``, so no
    clamp is needed.
    """
    folds = ceil_div(spatial_chunks, width)
    return folds, spatial_chunks / folds


def bind_dataflow(
    dataflow: Dataflow, layer: Layer, accelerator: Accelerator
) -> BoundDataflow:
    """Bind ``dataflow`` to ``layer`` on ``accelerator``; see module doc."""
    inc("binding.dataflows_bound")
    dims, row_rep, col_rep = _relevant_dims(dataflow, layer)
    facts = layer_facts(layer)
    full_sizes = facts.full_sizes
    level_specs = dataflow.levels()

    cluster_sizes = _cluster_sizes(dataflow, layer, level_specs, full_sizes)
    pes_per_top_cluster = prod(cluster_sizes)
    top_width = top_level_width(dataflow, layer, pes_per_top_cluster, accelerator.num_pes)
    widths = [top_width] + cluster_sizes
    used_pes = top_width * pes_per_top_cluster

    # Sizes and offsets on the *input* coordinates Y/X are expressed in
    # input-index units. Stride-portable mappings spell the layer stride
    # explicitly with ``St(Y)``/``St(X)`` (the paper's Figure 7 "apply
    # stride" step, made visible in the directive), exactly as tile
    # sizes already do with ``(4-1)*St(Y)+Sz(R)``. Offsets used to be
    # multiplied by the stride implicitly at *every* cluster level,
    # which broke diagonal inner walks (YR-P/row-stationary map Y and R
    # jointly with a unit offset meaning "next input row"): on strided
    # layers the inner walk advanced ``stride`` rows per PE and skipped
    # output rows — the coverage gap the iteration-space verifier
    # refuted on all strided zoo layers. ``facts.strides`` holds the
    # layer stride that ``St(Y)``/``St(X)`` read.
    local_sizes: Dict[str, int] = {dim: full_sizes[dim] for dim in dims}
    levels: List[BoundLevel] = []
    for index, spec in enumerate(level_specs):
        level = _bind_level(
            index=index,
            spec_maps=spec.maps,
            width=widths[index],
            local_sizes=local_sizes,
            dims=dims,
            facts=facts,
            context=f"{dataflow.name} on {layer.name}, level {index}",
        )
        levels.append(level)
        local_sizes = level.chunk_sizes()

    bound = BoundDataflow(
        dataflow=dataflow,
        layer=layer,
        levels=tuple(levels),
        row_rep=row_rep,
        col_rep=col_rep,
        used_pes=used_pes,
    )
    object.__setattr__(bound, "_num_pes", accelerator.num_pes)
    return bound


def _bind_level(
    index: int,
    spec_maps: Tuple[MapDirective, ...],
    width: int,
    local_sizes: Mapping[str, int],
    dims: List[str],
    facts: LayerFacts,
    context: str,
) -> BoundLevel:
    """Bind one cluster level's maps over ``local_sizes`` on ``width`` sub-units.

    Each directive's size, offset, chunk count and edge size come from
    ``facts`` (:meth:`LayerFacts.fact`), the memo the canonical walk
    reads too; checks and errors follow the directive order.
    """
    bound: List[BoundDirective] = []
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
        size, offset, chunks, bound_directive, _ = facts.fact(
            directive, local_sizes.get(directive.dim, 1)
        )
        if bound_directive is None:
            raise BindingError(
                f"{context}: non-positive size/offset on {directive.dim} "
                f"(size={size}, offset={offset})"
            )
        if directive.spatial:
            spatial_offsets[directive.dim] = offset
            spatial_chunk_counts.append(chunks)
        bound.append(bound_directive)
        seen[directive.dim] = size

    # Joint spatial distribution: aligned joint maps normally have
    # matching chunk counts (YR-P); a mismatch folds on the largest.
    spatial_chunks = max(spatial_chunk_counts, default=1)
    folds, avg_active = fold_geometry(spatial_chunks, width)

    # Inferred directives for unmapped dims: a single full-size chunk,
    # placed outermost (position is irrelevant because steps == 1).
    inferred = tuple(
        [_whole_extent(dim, local_sizes.get(dim, 1)) for dim in dims if dim not in seen]
    )

    return BoundLevel(
        index=index,
        width=width,
        # Every spatial directive folds together: its steps are the folds.
        directives=inferred + _folded(bound, folds),
        local_sizes=dict(local_sizes),
        spatial_offsets=spatial_offsets,
        spatial_chunks=spatial_chunks,
        folds=folds,
        avg_active=avg_active,
    )


@functools.lru_cache(maxsize=1024)
def _whole_extent(dim: str, local: int) -> BoundDirective:
    """The directive binding infers for an unmapped ``dim``: one chunk of
    its whole local extent (shared: bound directives are immutable)."""
    return BoundDirective(dim, False, local, local, 1, 1, local)


def _folded(directives: Iterable[BoundDirective], folds: int) -> Tuple[BoundDirective, ...]:
    """``directives`` with every spatial directive's steps set to ``folds``."""
    return tuple(
        BoundDirective(d.dim, True, d.size, d.offset, d.chunks, folds, d.edge_size)
        if d.spatial
        else d
        for d in directives
    )
