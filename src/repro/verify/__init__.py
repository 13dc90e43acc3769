"""Sound iteration-space verifier for data-centric mappings.

Proves — or refutes with a concrete MAC coordinate — that a mapping's
clamped-tile schedule covers the layer's compute space exactly once.
:func:`verify_dataflow` is the entry point; :mod:`repro.verify.audit`
classifies which lint rules the verifier certifies as sound, and
:mod:`repro.verify.reference` is the independent brute-force executor
the differential tests compare against. :mod:`repro.verify.differential`
replays the other analyzers' closed forms against their oracles
(``verify --check``).
"""

from repro.verify.audit import RuleAudit, audit_rules
from repro.verify.engine import DEFAULT_BUDGET, count_group_point, verify_dataflow
from repro.verify.reference import REFERENCE_DIMS, brute_force_counts, total_cells
from repro.verify.result import (
    Counterexample,
    GroupReport,
    Verdict,
    VerifyResult,
)
from repro.verify.schedule import bind_for_verification, required_pes

__all__ = [
    "DEFAULT_BUDGET",
    "REFERENCE_DIMS",
    "Counterexample",
    "GroupReport",
    "RuleAudit",
    "Verdict",
    "VerifyResult",
    "audit_rules",
    "bind_for_verification",
    "brute_force_counts",
    "count_group_point",
    "required_pes",
    "total_cells",
    "verify_dataflow",
]
