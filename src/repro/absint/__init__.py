"""Symbolic abstract interpretation of mappings over parametric shapes.

The package lifts the whole data-centric cost model to sound interval
semantics: :mod:`~repro.absint.interval` is the abstract domain,
:class:`~repro.absint.shapes.ShapeBox` the symbolic layer,
:mod:`~repro.absint.binding` the lifted cluster analysis, and
:mod:`~repro.absint.engine` the lifted reuse/performance/cost engines.
See ``docs/symbolic-analysis.md`` for the semantics and the
monotonicity audit behind each transfer function.
"""

from repro.absint.binding import (
    AbstractBinding,
    AbstractDirective,
    AbstractLevel,
    abstract_bind,
)
from repro.absint.engine import (
    AbstractAnalysis,
    AbstractLevelReuse,
    AbstractLevelStats,
    HardwareBox,
    abstract_analyze,
)
from repro.absint.interval import (
    AbstractDomainError,
    IntervalFloat,
    IntervalInt,
    TriBool,
)
from repro.absint.shapes import ShapeBox

__all__ = [
    "AbstractAnalysis",
    "AbstractBinding",
    "AbstractDirective",
    "AbstractDomainError",
    "AbstractLevel",
    "AbstractLevelReuse",
    "AbstractLevelStats",
    "HardwareBox",
    "IntervalFloat",
    "IntervalInt",
    "ShapeBox",
    "TriBool",
    "abstract_analyze",
    "abstract_bind",
]
