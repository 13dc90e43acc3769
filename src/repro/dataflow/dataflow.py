"""The :class:`Dataflow` container: an ordered directive list.

A dataflow is split into *cluster levels* by its ``Cluster`` directives:
directives above the first ``Cluster`` form level 0 (mapped across the
top-level clusters), directives between the first and second ``Cluster``
form level 1, and so on. Multiple ``SpatialMap`` directives inside one
level distribute their dimensions *jointly* (aligned): sub-cluster ``i``
takes chunk ``i`` along every spatially mapped dimension, which is how
the paper expresses Eyeriss' diagonal row-stationary mapping (Figure 6
and Table 3's YR-P).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple, Type

from repro.dataflow.directives import (
    ClusterDirective,
    Directive,
    MapDirective,
    SizeLike,
)
from repro.errors import DataflowError
from repro.tensors import dims as D


@dataclass(frozen=True)
class LevelSpec:
    """One cluster level: its map directives and the cluster size below.

    ``cluster_size`` is the argument of the ``Cluster`` directive that
    *closes* this level (i.e. the size of the sub-clusters the next level
    runs across); ``None`` for the innermost level.
    """

    maps: Tuple[MapDirective, ...]
    cluster_size: "SizeLike | None"


#: A directive list's *shape*: each directive's type and, for a map, its
#: dimension.
_Shape = Tuple[Tuple[Type[object], Optional[str]], ...]

#: Shapes that passed the construction lints. DF001-DF004 read nothing
#: but the shape (no size, offset or name), so every directive list of a
#: clean shape is clean: the tiles of one tuner template share one lint
#: run. Bounded: cleared when full.
_CLEAN_SHAPES: Set[_Shape] = set()
_CLEAN_SHAPES_MAX = 4096


def _shape(directives: Tuple[Directive, ...]) -> _Shape:
    """The shape the construction lints read (see :data:`_CLEAN_SHAPES`)."""
    return tuple(
        (type(d), d.dim if isinstance(d, MapDirective) else None) for d in directives
    )


@dataclass(frozen=True)
class Dataflow:
    """A named, ordered list of mapping directives."""

    name: str
    directives: Tuple[Directive, ...]

    def __post_init__(self) -> None:
        # Structural validation is delegated to the static mapping
        # analyzer's construction rules (DF001-DF004), once per shape;
        # the raised error keeps the legacy message of the first finding
        # and carries the full diagnostic list.
        shape = _shape(self.directives)
        if shape in _CLEAN_SHAPES:
            return
        from repro.lint.engine import construction_diagnostics

        diagnostics = construction_diagnostics(self.name, self.directives)
        errors = [d for d in diagnostics if d.is_error]
        if errors:
            raise DataflowError(errors[0].message, diagnostics=diagnostics)
        if len(_CLEAN_SHAPES) >= _CLEAN_SHAPES_MAX:
            _CLEAN_SHAPES.clear()
        _CLEAN_SHAPES.add(shape)

    def levels(self) -> List[LevelSpec]:
        """Split the directive list into cluster levels."""
        levels: List[LevelSpec] = []
        current: List[MapDirective] = []
        for directive in self.directives:
            if isinstance(directive, ClusterDirective):
                levels.append(LevelSpec(maps=tuple(current), cluster_size=directive.size))
                current = []
            else:
                current.append(directive)
        levels.append(LevelSpec(maps=tuple(current), cluster_size=None))
        return levels

    def map_directives(self) -> List[MapDirective]:
        """All map directives, in order, ignoring level boundaries."""
        return [d for d in self.directives if isinstance(d, MapDirective)]

    def uses_output_coordinates(self, axis: str) -> bool:
        """Whether the row (``axis='row'``) or column axis uses Y'/X'."""
        target = D.YP if axis == "row" else D.XP
        return any(
            isinstance(d, MapDirective) and d.dim == target for d in self.directives
        )

    def describe(self) -> str:
        """Multi-line, human-readable rendering of the directive list."""
        lines = [f"Dataflow {self.name}:"]
        indent = 0
        for directive in self.directives:
            lines.append("  " * (indent + 1) + str(directive))
            if isinstance(directive, ClusterDirective):
                indent += 1
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def dataflow(name: str, *directives: Directive) -> Dataflow:
    """Convenience constructor: ``dataflow("x", tmap(...), smap(...))``."""
    return Dataflow(name=name, directives=tuple(directives))
