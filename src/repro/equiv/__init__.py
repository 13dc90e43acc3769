"""Mapping equivalence & dominance analysis.

The package quotients the mapping axis: :mod:`~repro.equiv.canonical`
computes an exact canonical form per ``(dataflow, layer)`` (evaluated
sizes, single-chunk temporal elision, spatial slot sorting — each a
theorem about the binding/reuse engines), :mod:`~repro.equiv.symmetry`
detects the layer's row/column transposition symmetry and decides when
quotienting by it is bit-exact, :mod:`~repro.equiv.dominance` issues
no-worse-than certificates on one layer and accelerator from the cost
model's runtime, energy and EDP, and ``verify --check equiv``
(:mod:`repro.verify.differential`) re-proves the exactness claims over
the shipped corpus. The canonical
key is the exec cache's content address, and DSE/tune use the quotient
for sound ``--equiv-prune`` replay. See ``docs/equivalence-analysis.md``.
"""

from repro.equiv.canonical import (
    EQUIV_PROVENANCE,
    CanonicalForm,
    CanonicalLevel,
    Key,
    canonical_dataflow,
    canonical_key,
    canonicalize,
    key_to_json,
)
from repro.equiv.dominance import (
    DOMINANCE_PROVENANCE,
    OBJECTIVES,
    DominanceCertificate,
    dominance_certificate,
)
from repro.equiv.symmetry import (
    TRANSPOSE,
    TRANSPOSE_DIMS,
    DimSymmetry,
    integral_active,
    layer_symmetries,
    operator_transposable,
    orbit_key,
    transpose_dataflow,
    transpose_key,
)

__all__ = [
    "DOMINANCE_PROVENANCE",
    "CanonicalForm",
    "CanonicalLevel",
    "DimSymmetry",
    "DominanceCertificate",
    "EQUIV_PROVENANCE",
    "Key",
    "OBJECTIVES",
    "TRANSPOSE",
    "TRANSPOSE_DIMS",
    "canonical_dataflow",
    "canonical_key",
    "canonicalize",
    "dominance_certificate",
    "integral_active",
    "key_to_json",
    "layer_symmetries",
    "operator_transposable",
    "orbit_key",
    "transpose_dataflow",
    "transpose_key",
]
