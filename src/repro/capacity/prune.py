"""The buffer sizes the DSE provisions, from the certified capacity bounds.

The explorer's ``fold_point`` provisions each surviving design's buffers
from the engine-reported requirement (``l1 = max(l1_buffer_req, 1)``,
``l2 = max(l2_buffer_req, 1)``). Because :func:`compute_capacity_bounds`
computes those requirements with the engine's sizing functions from the
binding alone,
:func:`capacity_requirements` knows the sizes before any cost-model
call. The ``--capacity-prune`` screen that decides on them, and its
soundness argument, live in :mod:`repro.screens`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.capacity.bounds import compute_capacity_bounds
from repro.dataflow.dataflow import Dataflow
from repro.hardware.accelerator import Accelerator
from repro.model.layer import Layer


def capacity_requirements(
    dataflow: Dataflow, layer: Layer, accelerator: Accelerator
) -> Optional[Tuple[int, int]]:
    """The ``(l1_size, l2_size)`` the DSE would provision, or ``None``.

    Returns exactly what ``fold_point`` computes from the engine report
    (``max(req, 1)`` each), or ``None`` when the mapping cannot be
    certified — callers must not prune in that case.
    """
    try:
        bounds = compute_capacity_bounds(dataflow, layer, accelerator)
    except Exception:
        return None
    return max(bounds.l1.peak_bytes, 1), max(bounds.l2.peak_bytes, 1)
