"""Brute-force PE access-set enumeration: ground truth for the classifier.

The closed-form classifier (:mod:`repro.comm.classify`) never looks at
individual elements; this module does. For every concurrently active
sub-unit of a level it materializes the *exact* set of tensor-element
coordinates the sub-unit touches during one fold step — walking the
same chunk semantics the cluster-analysis engine binds (sub-unit ``p``
takes chunk ``p`` along every spatially mapped dimension, temporal
dimensions sit at their first chunk) and the same window relations the
tensor axes encode (``in = out * stride + k * dilation`` and the
full-window output rule). Classification then falls out of plain set
algebra:

- all sets identical      -> multicast (reads) / reduction (output)
- pairwise disjoint       -> unicast
- otherwise               -> forwarding (reads) / reduction (output)

and the sharing degree is the literal maximum, over elements, of how
many sub-units touch the element. The differential cross-check
(:mod:`repro.verify.differential`) compares these ground-truth verdicts
with the classifier's closed form on every golden mapping and on
randomized mappings in the property-test suite.

Enumeration is budgeted: levels with more than ``max_units`` active
sub-units, or joint spatial distributions whose per-dimension chunk
counts disagree (sub-units past the short dimension execute nothing —
outside the aligned-chunk model), return ``None`` instead of a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.tensors.axes import Axis, ConvOutputAxis, PlainAxis, SlidingInputAxis

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engines.binding import BoundLevel
    from repro.engines.tensor_analysis import TensorAnalysis, TensorInfo

from repro.comm.classify import CommPattern

__all__ = [
    "DEFAULT_MAX_UNITS",
    "BruteForceComm",
    "brute_force_level",
    "sub_unit_access_sets",
]

#: Enumeration budget: levels wider than this are not brute-forced.
DEFAULT_MAX_UNITS = 64

#: One tensor-element coordinate: a value per tensor axis.
Element = Tuple[int, ...]


@dataclass(frozen=True)
class BruteForceComm:
    """Ground-truth verdict for one tensor at one level."""

    tensor: str
    is_output: bool
    pattern: CommPattern
    degree: int
    sub_units: int


def _dim_ranges(level: "BoundLevel", sub_unit: int) -> Dict[str, range]:
    """The dimension-index window sub-unit ``p`` covers in one fold step.

    Spatially mapped dimensions give sub-unit ``p`` their chunk ``p``
    (``[p * offset, p * offset + size)`` clamped to the level's local
    extent); every temporal dimension sits at its first chunk.
    """
    ranges: Dict[str, range] = {}
    for directive in level.directives:
        local = level.local_sizes.get(directive.dim, 1)
        if directive.spatial:
            start = sub_unit * directive.offset
            stop = min(start + directive.size, local)
        else:
            start = 0
            stop = min(directive.size, local)
        ranges[directive.dim] = range(start, max(start, stop))
    return ranges


def _axis_elements(axis: Axis, ranges: Dict[str, range]) -> FrozenSet[int]:
    """Exact element indices one dimension window touches along ``axis``."""
    if isinstance(axis, PlainAxis):
        return frozenset(ranges.get(axis.dim, range(1)))
    if isinstance(axis, SlidingInputAxis):
        outs = ranges.get(axis.out_dim, range(1))
        kernels = ranges.get(axis.kernel_dim, range(1))
        return frozenset(
            out * axis.stride + k * axis.dilation for out in outs for k in kernels
        )
    if isinstance(axis, ConvOutputAxis):
        ins = ranges.get(axis.in_dim, range(1))
        kernels = ranges.get(axis.kernel_dim, range(1))
        if len(ins) == 0 or len(kernels) == 0:
            return frozenset()
        # Outputs whose full kernel window lies inside the input window
        # (the extent rule of ConvOutputAxis, element by element):
        # o*stride + kb*dil >= in_lo  and  o*stride + (ke-1)*dil <= in_hi.
        in_lo, in_hi = ins[0], ins[-1]
        k_lo, k_hi = kernels[0], kernels[-1]
        lo = -(-(in_lo - k_lo * axis.dilation) // axis.stride)  # ceil div
        hi = (in_hi - k_hi * axis.dilation) // axis.stride
        return frozenset(range(lo, hi + 1))
    raise NotImplementedError(f"unknown axis kind {type(axis).__name__}")


def _tensor_elements(
    tensor: "TensorInfo", ranges: Dict[str, range]
) -> FrozenSet[Element]:
    """The exact element-coordinate set of one tensor for one window."""
    per_axis = [_axis_elements(axis, ranges) for axis in tensor.axes]
    if any(len(values) == 0 for values in per_axis):
        return frozenset()
    elements: List[Element] = [()]
    for values in per_axis:
        elements = [prefix + (v,) for prefix in elements for v in sorted(values)]
    return frozenset(elements)


def sub_unit_access_sets(
    level: "BoundLevel",
    tensors: "TensorAnalysis",
    max_units: int = DEFAULT_MAX_UNITS,
) -> Optional[Dict[str, List[FrozenSet[Element]]]]:
    """Per-tensor, per-sub-unit element sets, or ``None`` over budget.

    Returns ``None`` for degenerate levels (nothing concurrent), levels
    wider than ``max_units``, and misaligned joint distributions (a
    spatial dimension with fewer chunks than active sub-units).
    """
    active = min(level.width, level.spatial_chunks)
    if active <= 1 or active > max_units:
        return None
    for directive in level.directives:
        if directive.spatial and directive.chunks < active:
            return None
    sets: Dict[str, List[FrozenSet[Element]]] = {
        tensor.name: [] for tensor in tensors.tensors
    }
    for sub_unit in range(active):
        ranges = _dim_ranges(level, sub_unit)
        for tensor in tensors.tensors:
            sets[tensor.name].append(_tensor_elements(tensor, ranges))
    return sets


def _classify_sets(
    tensor: "TensorInfo", access: List[FrozenSet[Element]]
) -> BruteForceComm:
    """Set-algebra classification plus the literal max sharing degree."""
    non_empty = [s for s in access if s]
    counts: Dict[Element, int] = {}
    for s in non_empty:
        for element in s:
            counts[element] = counts.get(element, 0) + 1
    degree = max(counts.values()) if counts else 0

    if len(non_empty) <= 1 or degree <= 1:
        pattern = CommPattern.UNICAST
    elif all(s == non_empty[0] for s in non_empty) and len(non_empty) == len(access):
        pattern = (
            CommPattern.REDUCTION if tensor.is_output else CommPattern.MULTICAST
        )
    else:
        pattern = (
            CommPattern.REDUCTION if tensor.is_output else CommPattern.FORWARDING
        )
    return BruteForceComm(
        tensor=tensor.name,
        is_output=tensor.is_output,
        pattern=pattern,
        degree=degree,
        sub_units=len(access),
    )


def brute_force_level(
    level: "BoundLevel",
    tensors: "TensorAnalysis",
    max_units: int = DEFAULT_MAX_UNITS,
) -> Optional[Dict[str, BruteForceComm]]:
    """Ground-truth classification of one level, or ``None`` over budget."""
    sets = sub_unit_access_sets(level, tensors, max_units)
    if sets is None:
        return None
    return {
        tensor.name: _classify_sets(tensor, sets[tensor.name])
        for tensor in tensors.tensors
    }
