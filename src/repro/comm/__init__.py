"""Static inter-PE communication & concurrency analysis.

Classifies, from directives alone, each (level, tensor) pair into
multicast / unicast / neighbor-forwarding / reduction fan-in with an
exact sharing degree (:mod:`repro.comm.classify`), validates every
claim against brute-force PE access-set enumeration
(:mod:`repro.comm.enumerate`) and the reuse engine via the
differential check ``verify --check comm``
(:mod:`repro.verify.differential`), and renders
the results for the CLI (:mod:`repro.comm.report`). The DF300-series
lint rules and the DSE/tuner ``comm_prune`` capability screens are
built on these classifications.
"""

from repro.comm.classify import (
    DEFAULT_MAX_WIDTH,
    STATIC_PROVENANCE,
    CommAnalysis,
    CommPattern,
    LevelComm,
    ReductionDemand,
    TensorComm,
    bind_for_comm,
    classify_bound,
    classify_dataflow,
    classify_level,
    reduction_demand,
)
from repro.comm.enumerate import (
    DEFAULT_MAX_UNITS,
    BruteForceComm,
    brute_force_level,
    sub_unit_access_sets,
)
from repro.comm.report import comm_rows, render_comm_summary, render_comm_table

__all__ = [
    "DEFAULT_MAX_UNITS",
    "DEFAULT_MAX_WIDTH",
    "STATIC_PROVENANCE",
    "BruteForceComm",
    "CommAnalysis",
    "CommPattern",
    "LevelComm",
    "ReductionDemand",
    "TensorComm",
    "bind_for_comm",
    "brute_force_level",
    "classify_bound",
    "classify_dataflow",
    "classify_level",
    "comm_rows",
    "reduction_demand",
    "render_comm_summary",
    "render_comm_table",
    "sub_unit_access_sets",
]
