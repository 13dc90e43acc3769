"""The coverage verifier: exactly-once MAC coverage, with counterexamples.

:func:`verify_dataflow` decides whether a mapping executes every MAC of
a layer's compute space exactly once, under the clamped-tile semantics
of :mod:`repro.engines.binding`:

* chunk ``j`` of a generator spans ``[j*offset, j*offset + size)``
  clamped to its parent tile (a chunk starting at or beyond the parent
  end executes nothing);
* aligned joint spatial distribution: sub-cluster ``j`` takes chunk
  ``j`` along *every* spatially mapped dimension of its level, and a
  dimension with fewer chunks than the level's joint count executes
  nothing for the excess indices;
* a step holding input chunk ``[a, a_end)`` and kernel chunk
  ``[b, b_end)`` on a sliding axis executes the MACs whose full dilated
  window fits the input chunk (see
  :class:`repro.verify.schedule.SlidingAxis`).

The compute space factorizes into independent axis groups (separate
chunk iterators), so the multiplicity of a MAC coordinate is the product
of per-group multiplicities and each group is decided on its own: first
symbolically (:mod:`repro.verify.lattice`), then by exact enumeration
under a cell-update ``budget``. Every counterexample is re-checked with
an independent exact point query before it is reported.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dataflow.dataflow import Dataflow
from repro.errors import ReproError
from repro.hardware.accelerator import Accelerator
from repro.model.layer import Layer
from repro.util.intmath import prod


def _ceil_div_signed(a: int, b: int) -> int:
    """Ceiling division that tolerates a negative dividend (b > 0)."""
    return -((-a) // b)
from repro.verify.lattice import decide_plain, decide_sliding, trivial_axis
from repro.verify.result import Counterexample, GroupReport, Verdict, VerifyResult
from repro.verify.schedule import (
    Axis,
    DimSchedule,
    PlainAxis,
    TileGen,
    bind_for_verification,
    build_axes,
    extract_schedules,
    group_axes,
)

DEFAULT_BUDGET = 2_000_000
"""Default enumeration budget, in compute-cell updates."""

_IterKey = Tuple[str, object]
"""Iterator key: ``("joint", level)`` or ``("free", (dim, gen_index))``."""


def verify_dataflow(
    dataflow: Dataflow,
    layer: Layer,
    accelerator: Optional[Accelerator] = None,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> VerifyResult:
    """Verify exactly-once MAC coverage of ``dataflow`` on ``layer``.

    ``method`` is ``"auto"`` (lattice first, enumeration fallback) or
    ``"enumeration"`` (force exact enumeration everywhere — used by the
    differential tests to cross-check the lattice).
    """
    if method not in ("auto", "enumeration"):
        raise ValueError(f"unknown verification method {method!r}")
    try:
        bound = bind_for_verification(dataflow, layer, accelerator)
    except ReproError as error:
        return VerifyResult(
            dataflow_name=dataflow.name,
            layer_name=layer.name,
            verdict=Verdict.INVALID,
            total_macs=0,
            message=f"mapping does not bind: {error}",
        )
    schedules, joint_counts = extract_schedules(bound)
    axes = build_axes(bound)
    axes.extend(_orphan_axes(axes, schedules))
    groups = group_axes(axes, schedules)

    reports: List[GroupReport] = []
    refuted: List[Tuple[int, Dict[str, int]]] = []
    undecided_detail = ""
    for group in groups:
        report, cell = _decide_group(group, schedules, joint_counts, budget, method)
        reports.append(report)
        if report.verdict is Verdict.REFUTED and cell is not None:
            refuted.append((len(reports) - 1, cell))
        elif report.verdict is Verdict.UNDECIDED and not undecided_detail:
            undecided_detail = report.detail

    total_macs = prod(axis.cells for axis in axes)
    if refuted:
        counterexample = _compose_counterexample(
            groups, reports, refuted[0], schedules, joint_counts
        )
        return VerifyResult(
            dataflow_name=dataflow.name,
            layer_name=layer.name,
            verdict=Verdict.REFUTED,
            total_macs=total_macs,
            groups=tuple(reports),
            counterexample=counterexample,
        )
    if any(report.verdict is Verdict.UNDECIDED for report in reports):
        return VerifyResult(
            dataflow_name=dataflow.name,
            layer_name=layer.name,
            verdict=Verdict.UNDECIDED,
            total_macs=total_macs,
            groups=tuple(reports),
            message=undecided_detail,
        )
    return VerifyResult(
        dataflow_name=dataflow.name,
        layer_name=layer.name,
        verdict=Verdict.PROVEN,
        total_macs=total_macs,
        groups=tuple(reports),
    )


def _orphan_axes(axes: Sequence[Axis], schedules: Dict[str, DimSchedule]) -> List[Axis]:
    """Unit axes for scheduled dims outside the operator's compute space.

    A dimension the operator does not compute over (extent 1, e.g. ``Y``
    under FC) can still appear in an active joint-spatial class; its
    "chunk 1 executes nothing" constraint must survive into the group,
    so it gets a one-cell plain axis.
    """
    owned = {dim for axis in axes for dim in axis.dims}
    return [
        PlainAxis(name=dim, dim=dim, extent=schedule.extent)
        for dim, schedule in schedules.items()
        if schedule.gens and dim not in owned
    ]


def _decide_group(
    group: List[Axis],
    schedules: Dict[str, DimSchedule],
    joint_counts: Dict[int, int],
    budget: int,
    method: str,
) -> Tuple[GroupReport, Optional[Dict[str, int]]]:
    coords = tuple(coord for axis in group for coord in axis.coords)
    cells = prod(axis.cells for axis in group)
    if all(trivial_axis(axis, schedules) for axis in group):
        return (
            GroupReport(
                dims=coords,
                verdict=Verdict.PROVEN,
                method="trivial",
                cells=cells,
                detail="single full-extent chunk on every dimension",
            ),
            None,
        )
    if method == "auto" and len(group) == 1:
        axis = group[0]
        if isinstance(axis, PlainAxis):
            decision = decide_plain(axis, schedules[axis.dim])
        else:
            decision = decide_sliding(
                axis, schedules[axis.in_dim], schedules[axis.k_dim]
            )
        if decision is not None:
            if decision.verdict == "proven":
                return (
                    GroupReport(
                        dims=coords,
                        verdict=Verdict.PROVEN,
                        method="lattice",
                        cells=cells,
                        detail=decision.detail,
                    ),
                    None,
                )
            cell = dict(decision.cell or {})
            count = count_group_point(group, schedules, joint_counts, cell)
            if count != 1:
                return (
                    GroupReport(
                        dims=coords,
                        verdict=Verdict.REFUTED,
                        method="lattice",
                        cells=cells,
                        detail=decision.detail,
                    ),
                    cell,
                )
            # The symbolic refutation failed its exact re-check; fall
            # through to enumeration rather than report a bogus cell.
    return _enumerate_group(group, schedules, joint_counts, budget, coords, cells)


def _group_iterators(
    group: List[Axis],
    schedules: Dict[str, DimSchedule],
    joint_counts: Dict[int, int],
) -> "List[Tuple[_IterKey, int]]":
    """Chunk iterators of a group: one per joint class, one per free gen."""
    iterators: "List[Tuple[_IterKey, int]]" = []
    seen_joint: "set[int]" = set()
    for axis in group:
        for dim in axis.dims:
            for index, gen in enumerate(schedules[dim].gens):
                if gen.joint is None:
                    iterators.append((("free", (dim, index)), gen.chunks))
                elif gen.joint not in seen_joint:
                    seen_joint.add(gen.joint)
                    iterators.append((("joint", gen.joint), joint_counts[gen.joint]))
    return iterators


def _chunk_interval(
    dim: str,
    extent: int,
    gens: Sequence[TileGen],
    assignment: Dict[_IterKey, int],
) -> Optional[Tuple[int, int]]:
    """Absolute interval executed along ``dim`` for one chunk assignment.

    Returns ``None`` when some chunk index is out of range or clamped to
    emptiness — the step executes nothing at all.
    """
    start = 0
    end = extent
    for index, gen in enumerate(gens):
        key: _IterKey = (
            ("joint", gen.joint) if gen.joint is not None else ("free", (dim, index))
        )
        j = assignment[key]
        if j >= gen.chunks:
            return None
        start = start + j * gen.offset
        if start >= end:
            return None
        end = min(start + gen.size, end)
    return (start, end)


def _axis_cells(
    axis: Axis,
    schedules: Dict[str, DimSchedule],
    assignment: Dict[_IterKey, int],
) -> Optional[List[int]]:
    """Local cell indices the axis executes for one chunk assignment."""
    if isinstance(axis, PlainAxis):
        interval = _chunk_interval(
            axis.dim, axis.extent, schedules[axis.dim].gens, assignment
        )
        if interval is None:
            return None
        return list(range(interval[0], interval[1]))
    in_interval = _chunk_interval(
        axis.in_dim, axis.in_extent, schedules[axis.in_dim].gens, assignment
    )
    if in_interval is None:
        return None
    k_interval = _chunk_interval(
        axis.k_dim, axis.k_extent, schedules[axis.k_dim].gens, assignment
    )
    if k_interval is None:
        return None
    a, a_end = in_interval
    b, b_end = k_interval
    dilation = axis.dilation
    low = max(0, _ceil_div_signed(a - b * dilation, axis.stride))
    high = (a_end - 1 - (b_end - 1) * dilation) // axis.stride
    high = min(high, axis.out_extent - 1)
    if high < low:
        return []
    cells = []
    for out in range(low, high + 1):
        base = out * axis.k_extent
        cells.extend(range(base + b, base + b_end))
    return cells


def _enumerate_group(
    group: List[Axis],
    schedules: Dict[str, DimSchedule],
    joint_counts: Dict[int, int],
    budget: int,
    coords: Tuple[str, ...],
    cells: int,
) -> Tuple[GroupReport, Optional[Dict[str, int]]]:
    iterators = _group_iterators(group, schedules, joint_counts)
    keys = [key for key, _ in iterators]
    combos = prod(count for _, count in iterators)
    per_combo_bound = prod(_steady_cell_bound(axis, schedules) for axis in group)
    if cells > budget or combos * per_combo_bound > budget:
        return (
            GroupReport(
                dims=coords,
                verdict=Verdict.UNDECIDED,
                method="enumeration",
                cells=cells,
                detail=(
                    f"enumeration needs ~{combos * per_combo_bound} cell updates, "
                    f"budget is {budget}"
                ),
            ),
            None,
        )

    strides = _axis_strides(group)
    counts = [0] * cells
    updates = 0
    for combo in itertools.product(*(range(count) for _, count in iterators)):
        assignment = dict(zip(keys, combo))
        axis_cells: List[List[int]] = []
        dead = False
        for axis in group:
            local = _axis_cells(axis, schedules, assignment)
            if local is None or not local:
                dead = True
                break
            axis_cells.append(local)
        if dead:
            continue
        updates += prod(len(local) for local in axis_cells)
        if updates > budget:
            return (
                GroupReport(
                    dims=coords,
                    verdict=Verdict.UNDECIDED,
                    method="enumeration",
                    cells=cells,
                    detail=f"enumeration exceeded its budget of {budget} cell updates",
                ),
                None,
            )
        for locals_ in itertools.product(*axis_cells):
            index = 0
            for local, stride in zip(locals_, strides):
                index += local * stride
            counts[index] += 1

    first_missed = None
    first_double = None
    for index, count in enumerate(counts):
        if count == 0 and first_missed is None:
            first_missed = index
        elif count > 1 and first_double is None:
            first_double = index
        if first_missed is not None:
            break
    bad = first_missed if first_missed is not None else first_double
    if bad is None:
        return (
            GroupReport(
                dims=coords,
                verdict=Verdict.PROVEN,
                method="enumeration",
                cells=cells,
                detail=f"exhaustive: all {cells} cells covered exactly once",
            ),
            None,
        )
    cell = _decode_cell(group, strides, bad)
    observed = counts[bad]
    check = count_group_point(group, schedules, joint_counts, cell)
    assert check == observed, (
        f"point query ({check}) disagrees with enumeration ({observed}) at {cell}"
    )
    kind = "missed" if observed == 0 else "double"
    return (
        GroupReport(
            dims=coords,
            verdict=Verdict.REFUTED,
            method="enumeration",
            cells=cells,
            detail=f"cell {cell} covered {observed} times ({kind})",
        ),
        cell,
    )


def _steady_cell_bound(axis: Axis, schedules: Dict[str, DimSchedule]) -> int:
    """Upper bound on cells one chunk assignment touches on this axis."""
    if isinstance(axis, PlainAxis):
        gens = schedules[axis.dim].gens
        return gens[-1].size if gens else axis.extent
    in_gens = schedules[axis.in_dim].gens
    k_gens = schedules[axis.k_dim].gens
    in_size = in_gens[-1].size if in_gens else axis.in_extent
    k_size = k_gens[-1].size if k_gens else axis.k_extent
    return (in_size // axis.stride + 1) * k_size


def _axis_strides(group: Sequence[Axis]) -> List[int]:
    strides = [1] * len(group)
    for index in range(len(group) - 2, -1, -1):
        strides[index] = strides[index + 1] * group[index + 1].cells
    return strides


def _decode_cell(
    group: Sequence[Axis], strides: Sequence[int], index: int
) -> Dict[str, int]:
    cell: Dict[str, int] = {}
    for axis, stride in zip(group, strides):
        local = (index // stride) % axis.cells
        if isinstance(axis, PlainAxis):
            cell[axis.name] = local
        else:
            cell[axis.out_name] = local // axis.k_extent
            cell[axis.k_name] = local % axis.k_extent
    return cell


def count_group_point(
    group: List[Axis],
    schedules: Dict[str, DimSchedule],
    joint_counts: Dict[int, int],
    cell: Dict[str, int],
) -> int:
    """Exact multiplicity of one group cell, by pruned chunk search.

    Candidate chunk indices per generator are computed from the target
    cell (a superset; clamping is re-checked exactly), so the search
    space stays tiny even when full enumeration would not.
    """
    iterators = _group_iterators(group, schedules, joint_counts)
    candidates: Dict[_IterKey, "set[int] | None"] = {key: None for key, _ in iterators}

    def narrow(key: _IterKey, allowed: Iterable[int]) -> None:
        allowed_set = set(allowed)
        current = candidates[key]
        candidates[key] = allowed_set if current is None else current & allowed_set

    for axis in group:
        targets = _dim_targets(axis, cell)
        for dim, (low, high) in targets.items():
            # The parent tile starts somewhere in [start_lo, start_hi]:
            # an inner generator's offsets are relative to it.
            start_lo = start_hi = 0
            for index, gen in enumerate(schedules[dim].gens):
                key: _IterKey = (
                    ("joint", gen.joint)
                    if gen.joint is not None
                    else ("free", (dim, index))
                )
                # Chunk j can only matter if [s + j*offset, s + j*offset
                # + size) intersects the target's absolute window
                # [low, high] for some parent start s.
                j_low = max(0, _ceil_div_signed(low - gen.size + 1 - start_hi, gen.offset))
                j_high = min(gen.chunks - 1, (high - start_lo) // gen.offset)
                narrow(key, range(j_low, j_high + 1))
                start_lo += j_low * gen.offset
                start_hi += j_high * gen.offset

    lists: List[List[int]] = []
    for key, count in iterators:
        chosen = candidates[key]
        lists.append(sorted(chosen) if chosen is not None else list(range(count)))

    keys = [key for key, _ in iterators]
    total = 0
    for combo in itertools.product(*lists):
        assignment = dict(zip(keys, combo))
        if all(_axis_covers(axis, schedules, assignment, cell) for axis in group):
            total += 1
    return total


def _dim_targets(axis: Axis, cell: Dict[str, int]) -> Dict[str, Tuple[int, int]]:
    """Per-dimension absolute index windows relevant to a target cell."""
    if isinstance(axis, PlainAxis):
        target = cell[axis.name]
        return {axis.dim: (target, target)}
    out = cell[axis.out_name]
    k = cell[axis.k_name]
    window_start = out * axis.stride
    window_end = window_start + axis.kernel_span - 1
    return {
        axis.in_dim: (window_start, window_end),
        axis.k_dim: (k, k),
    }


def _axis_covers(
    axis: Axis,
    schedules: Dict[str, DimSchedule],
    assignment: Dict[_IterKey, int],
    cell: Dict[str, int],
) -> bool:
    if isinstance(axis, PlainAxis):
        interval = _chunk_interval(
            axis.dim, axis.extent, schedules[axis.dim].gens, assignment
        )
        if interval is None:
            return False
        return interval[0] <= cell[axis.name] < interval[1]
    in_interval = _chunk_interval(
        axis.in_dim, axis.in_extent, schedules[axis.in_dim].gens, assignment
    )
    if in_interval is None:
        return False
    k_interval = _chunk_interval(
        axis.k_dim, axis.k_extent, schedules[axis.k_dim].gens, assignment
    )
    if k_interval is None:
        return False
    k = cell[axis.k_name]
    if not (k_interval[0] <= k < k_interval[1]):
        return False
    out = cell[axis.out_name]
    if not (0 <= out < axis.out_extent):
        return False
    a, a_end = in_interval
    b, b_end = k_interval
    position = out * axis.stride
    return (
        position + b * axis.dilation >= a
        and position + (b_end - 1) * axis.dilation <= a_end - 1
    )


def _compose_counterexample(
    groups: List[List[Axis]],
    reports: List[GroupReport],
    refutation: Tuple[int, Dict[str, int]],
    schedules: Dict[str, DimSchedule],
    joint_counts: Dict[int, int],
) -> Counterexample:
    """Extend a refuted group's cell to a full compute-space coordinate.

    Proven sibling groups cover every cell exactly once, so filling them
    with zeros multiplies the count by one; for (rare) undecided
    siblings the zero cell's exact count is computed, keeping the
    product — and hence the reported multiplicity — exact.
    """
    group_index, cell = refutation
    coordinate: Dict[str, int] = {}
    count = count_group_point(
        groups[group_index], schedules, joint_counts, cell
    )
    coordinate.update(cell)
    for index, group in enumerate(groups):
        if index == group_index:
            continue
        zero_cell = {coord: 0 for axis in group for coord in axis.coords}
        coordinate.update(zero_cell)
        if reports[index].verdict is Verdict.PROVEN:
            continue
        count *= count_group_point(group, schedules, joint_counts, zero_cell)
    kind = "missed" if count == 0 else "double"
    return Counterexample(kind=kind, coordinate=coordinate, count=count)
