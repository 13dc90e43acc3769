"""Static dominance certificates over declared hardware boxes.

Built on the interval abstract interpreter (:mod:`repro.absint`):
mapping ``A`` statically dominates mapping ``B`` over a hardware box
when ``A``'s *pessimistic* bound beats ``B``'s *optimistic* bound on
every compared objective — i.e. for every concretization of the box on
which both bind, ``A`` is no worse than ``B``, with strict advantage on
at least one objective. Soundness is inherited from the abstract
interpreter's over-approximation (PR 5's monotonicity audit): interval
bounds contain the concrete values, so a worst-vs-best comparison can
never be invalidated by any point of the box.

Dominance is reported only when both analyses are caveat-free: a
caveat marks a subrange where binding partially fails, and there the
interval bounds still cover only the *binding* concretizations — the
two mappings may fail on different subranges, so the pointwise claim
would not follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.absint import AbstractAnalysis, HardwareBox, ShapeBox, abstract_analyze
from repro.dataflow.dataflow import Dataflow
from repro.errors import DataflowError
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.layer import Layer

#: Objectives compared, all lower-is-better.
OBJECTIVES: Tuple[str, ...] = ("runtime", "energy_total", "edp")

#: Diagnostic provenance for dominance-backed findings (DF403).
DOMINANCE_PROVENANCE = "interval-certified: absint worst-vs-best bounds"


@dataclass(frozen=True)
class DominanceCertificate:
    """A proof that one mapping is statically no worse than another.

    ``bounds`` holds, per objective, the dominator's worst case and the
    dominated mapping's best case (worst <= best for all, strictly for
    at least one).
    """

    dominator: str
    dominated: str
    bounds: Tuple[Tuple[str, float, float], ...]
    hardware: str

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}: {worst:.4g} <= {best:.4g}" for name, worst, best in self.bounds
        )
        return (
            f"{self.dominator} dominates {self.dominated} over {self.hardware} ({parts})"
        )


def _objective_interval(analysis: object, name: str) -> Tuple[float, float]:
    interval = getattr(analysis, name)
    return float(interval.lo), float(interval.hi)


def dominance_certificate(
    dominator: Dataflow,
    dominated: Dataflow,
    layer: Layer,
    hw: HardwareBox,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> Optional[DominanceCertificate]:
    """Certify ``dominator`` no-worse than ``dominated`` over ``hw``.

    Returns ``None`` when no certificate can be established — either
    mapping fails to analyze, an analysis carries caveats, or some
    objective's worst case exceeds the other's best case.
    """
    box = ShapeBox.from_layer(layer)
    try:
        a = abstract_analyze(box, dominator, hw, energy_model)
        b = abstract_analyze(box, dominated, hw, energy_model)
    except (DataflowError, ValueError):
        return None
    return certify_dominance(dominator, a, dominated, b, hw)


def certify_dominance(
    dominator: Dataflow,
    dominator_analysis: AbstractAnalysis,
    dominated: Dataflow,
    dominated_analysis: AbstractAnalysis,
    hw: HardwareBox,
) -> Optional[DominanceCertificate]:
    """:func:`dominance_certificate` from the two mappings' analyses.

    Lets a caller comparing one mapping against many analyze each
    mapping once (DF403 does).
    """
    a, b = dominator_analysis, dominated_analysis
    if a.caveats or b.caveats:
        return None

    bounds: List[Tuple[str, float, float]] = []
    strict = False
    for name in OBJECTIVES:
        _, a_worst = _objective_interval(a, name)
        b_best, _ = _objective_interval(b, name)
        if a_worst > b_best:
            return None
        if a_worst < b_best:
            strict = True
        bounds.append((name, a_worst, b_best))
    if not strict:
        return None

    if hw.num_pes.is_point and hw.bandwidth.is_point:
        hardware = f"{hw.num_pes.lo} PEs, bw {hw.bandwidth.lo}"
    else:
        hardware = (
            f"PEs [{hw.num_pes.lo}, {hw.num_pes.hi}], "
            f"bw [{hw.bandwidth.lo}, {hw.bandwidth.hi}]"
        )
    return DominanceCertificate(
        dominator=dominator.name,
        dominated=dominated.name,
        bounds=tuple(bounds),
        hardware=hardware,
    )


__all__ = [
    "DOMINANCE_PROVENANCE",
    "OBJECTIVES",
    "DominanceCertificate",
    "certify_dominance",
    "dominance_certificate",
]
