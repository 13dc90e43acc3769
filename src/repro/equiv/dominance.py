"""Dominance certificates from the cost model's own objectives.

Mapping ``A`` dominates mapping ``B`` on one layer and one accelerator
when :func:`~repro.engines.analysis.analyze_layer` gives ``A`` a
runtime, energy and EDP no higher than ``B``'s, strictly lower on at
least one. The compared numbers are exactly the ones the cost model
reports for the two mappings, so the certificate quotes values the
analysis produced and needs no soundness argument of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dataflow.dataflow import Dataflow
from repro.engines.analysis import LayerAnalysis, analyze_layer
from repro.errors import DataflowError
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.layer import Layer

#: Objectives compared, all lower-is-better.
OBJECTIVES: Tuple[str, ...] = ("runtime", "energy_total", "edp")

#: Diagnostic provenance for dominance-backed findings (DF403).
DOMINANCE_PROVENANCE = (
    "cost-model-certified: concrete runtime/energy/EDP on this layer and accelerator"
)

#: A mapping's :data:`OBJECTIVES` values, in that order.
Objectives = Tuple[float, ...]


@dataclass(frozen=True)
class DominanceCertificate:
    """A proof that one mapping is no worse than another.

    ``bounds`` holds, per objective, the dominator's value and the
    dominated mapping's value (``<=`` for all, strictly for at least
    one).
    """

    dominator: str
    dominated: str
    bounds: Tuple[Tuple[str, float, float], ...]
    hardware: str

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}: {a:.4g} <= {b:.4g}" for name, a, b in self.bounds
        )
        return (
            f"{self.dominator} dominates {self.dominated} over {self.hardware} ({parts})"
        )


def objectives(analysis: LayerAnalysis) -> Objectives:
    """The :data:`OBJECTIVES` values of one analysis."""
    return tuple(float(getattr(analysis, name)) for name in OBJECTIVES)


def dominance_certificate(
    dominator: Dataflow,
    dominated: Dataflow,
    layer: Layer,
    accelerator: Accelerator,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> Optional[DominanceCertificate]:
    """Certify ``dominator`` no worse than ``dominated`` on ``layer`` and
    ``accelerator``.

    Returns ``None`` when either mapping fails to analyze or some
    objective of ``dominator`` exceeds ``dominated``'s.
    """
    try:
        a = analyze_layer(layer, dominator, accelerator, energy_model)
        b = analyze_layer(layer, dominated, accelerator, energy_model)
    except (DataflowError, ValueError):
        return None
    return certify_dominance(
        dominator.name, objectives(a), dominated.name, objectives(b), accelerator
    )


def certify_dominance(
    dominator: str,
    dominator_objectives: Objectives,
    dominated: str,
    dominated_objectives: Objectives,
    accelerator: Accelerator,
) -> Optional[DominanceCertificate]:
    """:func:`dominance_certificate` from the two mappings' objectives.

    Lets a caller comparing one mapping against many analyze each
    mapping once (DF403 does).
    """
    bounds: List[Tuple[str, float, float]] = []
    strict = False
    for name, a, b in zip(OBJECTIVES, dominator_objectives, dominated_objectives):
        if a > b:
            return None
        strict = strict or a < b
        bounds.append((name, a, b))
    if not strict:
        return None
    return DominanceCertificate(
        dominator=dominator,
        dominated=dominated,
        bounds=tuple(bounds),
        hardware=f"{accelerator.num_pes} PEs, bw {accelerator.noc.bandwidth}",
    )


__all__ = [
    "DOMINANCE_PROVENANCE",
    "OBJECTIVES",
    "DominanceCertificate",
    "certify_dominance",
    "dominance_certificate",
    "objectives",
]
