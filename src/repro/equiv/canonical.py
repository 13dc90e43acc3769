"""Canonical forms for mappings: the exact equivalence tier.

Many directive-list spellings describe the *same* schedule. Three
normalizations are exact with respect to the cluster-analysis and reuse
engines (each is a theorem about :mod:`repro.engines`, empirically
re-proven bit-for-bit by ``verify --check equiv``, see
:mod:`repro.verify.differential`, over the full zoo × library corpus):

1. **Size evaluation + clamping.** Binding evaluates every symbolic
   size/offset against the layer and clamps map sizes to the local
   extent cascading down the cluster hierarchy
   (``size = min(eval(size), local)``). Spelling the evaluated, clamped
   integers directly binds to the identical
   :class:`~repro.engines.binding.BoundDataflow`.

2. **Single-chunk temporal elision.** A ``TemporalMap`` whose clamped
   size covers its whole local extent produces one chunk and one step.
   The binding engine *infers* exactly such a directive for every
   unmapped dimension, and the reuse engine's odometer
   (:func:`repro.engines.reuse.build_odometer` and every consumer of
   its entries) filters on ``steps > 1``, so a one-step iterator is
   inert regardless of its position or offset: the directive can be
   removed. Guard: the last directive naming ``Y'``/``X'`` is kept even
   when single-chunk, because its *presence* selects the output
   coordinate representation
   (:meth:`~repro.dataflow.dataflow.Dataflow.uses_output_coordinates`).

3. **Spatial slot sorting.** All spatial directives of one level
   distribute *jointly*: the odometer collapses them into a single fold
   entry at the first spatial position with their offsets in a dict,
   and every other consumer reads them through dicts
   (``chunk_sizes()``, ``spatial_offsets``). Permuting which spatial
   directive occupies which of the level's spatial slots is therefore
   unobservable; the canonical form sorts them by dimension name.

Anything the walk cannot prove safe — unevaluable expressions,
conditions under which :func:`~repro.engines.binding.bind_dataflow`
would raise, a canonical spelling that fails construction lints — falls
back to the *identity* form, keyed on the raw directive spelling, so
canonicalization never groups mappings it cannot certify. The walk
never builds a ``Dataflow`` for the canonical spelling: that spelling
holds only map and ``Cluster`` directives and one coordinate system per
axis, so of the construction lints (DF001-DF004) only DF001 (every
directive elided) and DF003 (the list ends with a ``Cluster``) can
reject it, and both fire exactly when the last level keeps no map.

The canonical :attr:`CanonicalForm.key` is accelerator-independent
(chunk counts never depend on the PE count; only fold counts do, and
folds are not part of the key), which lets DSE group mapping variants
once per layer and reuse the grouping across the whole hardware grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import (
    ClusterDirective,
    Directive,
    MapDirective,
    evaluate_size,
)
from repro.engines.binding import layer_facts
from repro.errors import DataflowError
from repro.model.layer import Layer
from repro.tensors import dims as D
from repro.util.intmath import prod

#: A hashable, JSON-representable structural key. Canonical keys are
#: ``("canon", <levels...>)`` with one
#: ``(cluster_size_or_-1, ((kind, dim, size, offset), ...))`` tuple per
#: level; fallback keys are ``("raw", (str(directive), ...))``.
Key = Tuple[object, ...]

#: Diagnostic provenance for findings backed by the canonical-form
#: theorems (DF400/DF401/DF402).
EQUIV_PROVENANCE = "exact: canonical-form equivalence (repro.equiv)"


@dataclass(frozen=True)
class CanonicalLevel:
    """One cluster level of a canonical form.

    ``cluster_size`` is the evaluated size of the ``Cluster`` directive
    closing the level (``None`` for the innermost level);
    ``maps`` the kept directives as ``(kind, dim, size, offset)`` with
    kind ``"S"``/``"T"``; ``spatial_chunk_counts`` the chunk counts of
    the spatial directives (the input to the integer-activity
    certificate of :mod:`repro.equiv.symmetry` — accelerator-independent
    because chunk counts never depend on the PE count).
    """

    cluster_size: Optional[int]
    maps: Tuple[Tuple[str, str, int, int], ...]
    spatial_chunk_counts: Tuple[int, ...]

    def key_entry(self) -> Tuple[object, ...]:
        return (self.cluster_size if self.cluster_size is not None else -1, self.maps)


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical form of one ``(dataflow, layer)`` pair."""

    name: str
    levels: Tuple[CanonicalLevel, ...]
    elided: Tuple[int, ...]  # original directive indices removed
    #: spatial maps whose slot content changed: (original index, new
    #: ``(kind, dim, size, offset)`` occupying that slot)
    slot_changes: Tuple[Tuple[int, Tuple[str, str, int, int]], ...]
    fallback: bool
    #: The raw directive list of a fallback form (empty otherwise).
    spelling: Tuple[Directive, ...] = ()

    @functools.cached_property
    def directives(self) -> Tuple[Directive, ...]:
        """The canonical spelling (the raw one for a fallback form),
        built on first read."""
        if self.fallback:
            return self.spelling
        directives: List[Directive] = []
        for level in self.levels:
            directives.extend(
                MapDirective(dim=dim, size=size, offset=offset, spatial=kind == "S")
                for kind, dim, size, offset in level.maps
            )
            if level.cluster_size is not None:
                directives.append(ClusterDirective(level.cluster_size))
        return tuple(directives)

    @property
    def cluster_pes(self) -> int:
        """PEs the cluster hierarchy needs: the product of its evaluated
        cluster sizes, as binding computes it (a non-fallback form only)."""
        return prod(
            [level.cluster_size for level in self.levels if level.cluster_size is not None]
        )

    @property
    def reordered(self) -> Tuple[int, ...]:
        """Original indices of spatial maps whose slot content changed."""
        return tuple(index for index, _ in self.slot_changes)

    @property
    def key(self) -> Key:
        """Structural identity: equal keys = provably identical schedules."""
        if self.fallback:
            return ("raw", tuple(str(d) for d in self.directives))
        return ("canon", tuple(level.key_entry() for level in self.levels))

    @property
    def changed(self) -> bool:
        return bool(self.elided) or bool(self.reordered)


def _map_kind(spatial: bool) -> str:
    return "S" if spatial else "T"


def _fallback(dataflow: Dataflow) -> CanonicalForm:
    return CanonicalForm(
        name=dataflow.name,
        levels=(),
        elided=(),
        slot_changes=(),
        fallback=True,
        spelling=tuple(dataflow.directives),
    )


#: A directive list's *shape*: per directive, ``(dim, spatial)`` for a
#: map and ``None`` for a ``Cluster``. Sizes and offsets are not part of
#: it, so the tiles of one tuner template share one shape.
_Shape = Tuple[Optional[Tuple[str, bool]], ...]


@dataclass(frozen=True)
class _LevelPlan:
    """One cluster level of a :class:`_ShapePlan`."""

    #: The level's maps as ``(directive index, dim, spatial, kind, names
    #: Y'/X')``, in directive order.
    maps: Tuple[Tuple[int, str, bool, str, bool], ...]
    #: Index of the ``Cluster`` directive closing the level (``None``
    #: for the innermost level).
    cluster: Optional[int]
    #: Whether sorting the spatial slots by dimension moves any of them.
    reorders: bool


@dataclass(frozen=True)
class _ShapePlan:
    """Everything the canonical walk knows from a shape alone."""

    #: The coordinate dims binding tracks (Y'/X' where a map names them).
    dims: Tuple[str, ...]
    #: How many maps name Y' and X' (the guard's starting counts).
    rep_counts: Tuple[Tuple[str, int], ...]
    levels: Tuple[_LevelPlan, ...]


def _shape(directives: Tuple[Directive, ...]) -> _Shape:
    return tuple(
        [
            None if isinstance(d, ClusterDirective) else (d.dim, d.spatial)  # type: ignore[attr-defined]
            for d in directives
        ]
    )


@functools.lru_cache(maxsize=1024)
def _plan(shape: _Shape) -> Optional[_ShapePlan]:
    """The walk's plan for ``shape``, or ``None`` where binding raises for
    every directive list of that shape (a map on a dim outside the
    coordinate dims, or one dim mapped twice in a level)."""
    rep_counts = {D.YP: 0, D.XP: 0}
    for entry in shape:
        if entry is not None and entry[0] in rep_counts:
            rep_counts[entry[0]] += 1
    dims = (
        D.N,
        D.K,
        D.C,
        D.YP if rep_counts[D.YP] else D.Y,
        D.XP if rep_counts[D.XP] else D.X,
        D.R,
        D.S,
    )
    levels: List[_LevelPlan] = []
    maps: List[Tuple[int, str, bool, str, bool]] = []
    for index, entry in enumerate(shape + (None,)):
        if entry is not None:
            dim, spatial = entry
            if dim not in dims or any(m[1] == dim for m in maps):
                return None
            maps.append((index, dim, spatial, _map_kind(spatial), dim in rep_counts))
            continue
        spatial_dims = [m[1] for m in maps if m[2]]
        levels.append(
            _LevelPlan(
                maps=tuple(maps),
                cluster=index if index < len(shape) else None,
                reorders=spatial_dims != sorted(spatial_dims),
            )
        )
        maps = []
    return _ShapePlan(
        dims=dims,
        rep_counts=tuple((dim, n) for dim, n in rep_counts.items() if n),
        levels=tuple(levels),
    )


def canonicalize(dataflow: Dataflow, layer: Layer) -> CanonicalForm:
    """Compute the canonical form of ``dataflow`` bound to ``layer``.

    Exact: analyzing the canonical form is bit-identical to analyzing
    the original on every accelerator (see the module docstring for the
    argument, :mod:`repro.verify.differential` for the empirical proof).
    Falls back to the identity form whenever exactness cannot be
    certified.

    The walk is planned once per directive shape (:func:`_plan`: the
    level split, the coordinate dims, the Y'/X' guard's counts and
    whether the spatial slots move), and each directive's evaluated
    fact comes from the per-layer memo the binder reads
    (:class:`~repro.engines.binding.LayerFacts`). The candidates of one
    tuner template therefore pay only per-tile lookups.
    """
    try:
        return _canonicalize(dataflow, layer)
    except (DataflowError, ValueError, KeyError, TypeError):
        return _fallback(dataflow)


def _canonicalize(dataflow: Dataflow, layer: Layer) -> CanonicalForm:
    directives = dataflow.directives
    plan = _plan(_shape(directives))
    if plan is None:
        return _fallback(dataflow)  # binding raises for this spelling
    facts = layer_facts(layer)
    full_sizes = facts.full_sizes
    local_sizes: Dict[str, int] = {dim: full_sizes[dim] for dim in plan.dims}
    # Representation-selecting directives must survive elision: the
    # guard keeps the last map naming Y'/X' even when single-chunk.
    rep_counts = dict(plan.rep_counts)
    canonical_levels: List[CanonicalLevel] = []
    elided: List[int] = []
    slot_changes: List[Tuple[int, Tuple[str, str, int, int]]] = []

    for level in plan.levels:
        #: (directive index, kind, dim, size, offset) of each kept map.
        kept: List[Tuple[int, str, str, int, int]] = []
        spatial_counts: List[int] = []
        # Mirror BoundLevel.chunk_sizes(): mapped dims carry their
        # clamped size, unmapped (and elided) dims their local extent.
        next_local = dict(local_sizes)
        for index, dim, spatial, kind, names_rep in level.maps:
            size, offset, chunks, bound, _ = facts.fact(
                directives[index], local_sizes[dim]  # type: ignore[arg-type]
            )
            if bound is None:
                return _fallback(dataflow)  # binding raises for this spelling
            next_local[dim] = size
            if chunks == 1 and not spatial:
                if not names_rep or rep_counts[dim] > 1:
                    if names_rep:
                        rep_counts[dim] -= 1
                    elided.append(index)
                    continue
                # Keep the representation-selecting directive; its
                # presence (not its values) picks the Y'/X' axes.
            elif spatial:
                spatial_counts.append(chunks)
            kept.append((index, kind, dim, size, offset))

        if level.reorders:
            # Sort the spatial directives into their existing slots by
            # (dim, size, offset).
            spatial_entries = [entry for entry in kept if entry[1] == "S"]
            ordered = sorted(spatial_entries, key=lambda entry: entry[2:])
            slot_changes.extend(
                (orig[0], new[1:])
                for orig, new in zip(spatial_entries, ordered)
                if orig[1:] != new[1:]
            )
            slot = iter(ordered)
            kept = [next(slot) if entry[1] == "S" else entry for entry in kept]

        cluster_size: Optional[int] = None
        if level.cluster is not None:
            cluster_size = evaluate_size(directives[level.cluster].size, full_sizes)  # type: ignore[attr-defined]
            if cluster_size < 1:
                return _fallback(dataflow)  # binding raises for this spelling

        canonical_levels.append(
            CanonicalLevel(
                cluster_size=cluster_size,
                maps=tuple(entry[1:] for entry in kept),
                spatial_chunk_counts=tuple(spatial_counts),
            )
        )
        local_sizes = next_local

    # The canonical spelling must itself be constructible to serve as a
    # shared representative. Only DF001 and DF003 can reject it (see the
    # module docstring), exactly when its last level kept no map.
    if not canonical_levels[-1].maps:
        return _fallback(dataflow)
    return CanonicalForm(
        name=dataflow.name,
        levels=tuple(canonical_levels),
        elided=tuple(elided),
        slot_changes=tuple(slot_changes),
        fallback=False,
    )


def canonical_key(dataflow: Dataflow, layer: Layer) -> Key:
    """The canonical structural key of ``dataflow`` on ``layer``."""
    return canonicalize(dataflow, layer).key


def canonical_dataflow(dataflow: Dataflow, layer: Layer, name: Optional[str] = None) -> Dataflow:
    """Realize the canonical form as a ``Dataflow`` (identity on fallback)."""
    form = canonicalize(dataflow, layer)
    if form.fallback or not form.changed:
        if name is None or name == dataflow.name:
            return dataflow
        return Dataflow(name=name, directives=tuple(dataflow.directives))
    return Dataflow(name=name or dataflow.name, directives=form.directives)


def key_to_json(key: Key) -> object:
    """A JSON-stable rendering of a key (tuples become lists)."""

    def convert(value: object) -> object:
        if isinstance(value, tuple):
            return [convert(item) for item in value]
        return value

    return convert(key)


__all__ = [
    "CanonicalForm",
    "CanonicalLevel",
    "Key",
    "canonical_dataflow",
    "canonical_key",
    "canonicalize",
    "key_to_json",
]
