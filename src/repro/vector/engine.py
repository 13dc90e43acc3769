"""Structure-of-arrays evaluation of a lowered grid group.

Given a :class:`~repro.vector.lower.LoweredGroup` and the two grid axes
(``num_pes`` and NoC bandwidth as integer arrays), this module runs the
whole reuse/performance/accounting pipeline with NumPy arrays in place
of per-point scalars into a :class:`GridBlock`: the arrays, plus the
figures a sweep folds per grid point. The block builds one
:class:`~repro.engines.analysis.LayerAnalysis` per grid point only when
a point's report is first read.

Parity contract — the reason this file looks the way it does: every
array expression replicates the *exact* scalar arithmetic of
``repro.engines`` (same operations, same order, same accumulation
starts), because IEEE-754 float64 ops are identical between CPython and
NumPy. Per-point conditionals become ``np.where`` over both branches;
structural branches (which transition classes exist, which axes move)
are provably grid-independent, so the class structure is computed once.
The only per-point structural case — a spatial fold collapsing to one
step (``folds == 1``) — keeps its transition class with ``count == 0``,
which is inert in every downstream sum. The differential check asserts
bit-identical agreement, not just tolerance.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engines.analysis import (
    EvalOutcome,
    Figures,
    LayerAnalysis,
    LevelStats,
    buffering_factor,
)
from repro.engines.reuse import LevelReuse
from repro.engines.tensor_analysis import TensorInfo
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.layer import Layer
from repro.dataflow.dataflow import Dataflow
from repro.vector.lower import (
    AxisTable,
    LoweredGroup,
    VectorLoweringError,
    accelerator_template,
    axis_shift,
    lower_group,
)

#: A grid-varying number: a Python scalar (grid-constant) or an ndarray
#: with one element per feasible grid point. ``Any`` is deliberate — the
#: whole point of the helpers below is that both spellings flow through
#: the same arithmetic.
Value = Any


# ----------------------------------------------------------------------
# Scalar-or-array helpers. Each replicates the exact scalar operation.
# ----------------------------------------------------------------------
def _is_arr(value: Value) -> bool:
    return isinstance(value, np.ndarray)


def _where(cond: Value, true_value: Value, false_value: Value) -> Value:
    if _is_arr(cond):
        return np.where(cond, true_value, false_value)
    return true_value if cond else false_value


def _and(a: Value, b: Value) -> Value:
    if _is_arr(a) or _is_arr(b):
        return np.logical_and(a, b)
    return bool(a and b)


def _or(a: Value, b: Value) -> Value:
    if _is_arr(a) or _is_arr(b):
        return np.logical_or(a, b)
    return bool(a or b)


def _not(a: Value) -> Value:
    if _is_arr(a):
        return np.logical_not(a)
    return not a


def _minimum(a: Value, b: Value) -> Value:
    if _is_arr(a) or _is_arr(b):
        return np.minimum(a, b)
    return min(a, b)


def _maximum(a: Value, b: Value) -> Value:
    if _is_arr(a) or _is_arr(b):
        return np.maximum(a, b)
    return max(a, b)


def _as_float(value: Value) -> Value:
    if _is_arr(value):
        return value.astype(np.float64)
    return float(value)


def _ceil_int(value: Value) -> Value:
    """``int(math.ceil(x))`` for scalars or arrays (values are >= 0)."""
    if _is_arr(value):
        return np.ceil(value).astype(np.int64)
    return int(math.ceil(value))


def _trunc_int(value: Value) -> Value:
    """``int(x)`` truncation for non-negative scalars or arrays."""
    if _is_arr(value):
        return value.astype(np.int64)
    return int(value)


def _ceil_div(a: Value, b: Value) -> Value:
    """``ceil_div`` from :mod:`repro.util.intmath` for Values (b > 0)."""
    return -(-a // b)


def _vsum(values: Sequence[Value]) -> Value:
    """``sum(values)``: same zero start, same accumulation order."""
    acc: Value = 0
    for value in values:
        acc = acc + value
    return acc


def _noc_delay(volume: Value, bandwidth: Value, latency: int) -> Value:
    """:meth:`NoC.delay` over integer Values."""
    if _is_arr(volume) or _is_arr(bandwidth):
        delay = _ceil_div(volume, bandwidth) + latency
        return np.where(volume <= 0, 0, delay)
    if volume <= 0:
        return 0
    return _ceil_div(volume, bandwidth) + latency


# ----------------------------------------------------------------------
# Grid-valued mirrors of the reuse structures.
# ----------------------------------------------------------------------
@dataclass
class _VTraffic:
    fetch: Value
    unique: Value
    delivered: Value
    stationary: Value  # bool Value


@dataclass
class _VClass:
    count: Value
    traffic: Dict[str, _VTraffic]
    outputs_advance: Value  # bool Value


@dataclass
class _VReuse:
    """Grid-valued ``LevelReuse`` (or a wrapped constant one)."""

    index: int
    sweep_steps: Value
    avg_active: Value
    init: _VClass
    classes: List[_VClass]
    output_name: str
    unique_chunk_volumes: Dict[str, Value]
    outputs_per_sweep: float
    psum_factor: Value
    output_spatially_reduced: Value  # bool Value

    @property
    def egress_per_sweep(self) -> Value:
        return self.outputs_per_sweep * self.psum_factor

    @property
    def psum_readback_per_sweep(self) -> Value:
        return self.outputs_per_sweep * (self.psum_factor - 1)


@dataclass
class _VEntry:
    """Odometer entry whose step count / offsets may be grid-valued.

    ``repr_advancing`` carries representative (grid-constant) offsets
    with the same zero/non-zero structure as ``advancing`` — for the
    fold entry the actual offsets scale linearly with the top width, so
    whether an axis moves is width-independent for any width >= 1.
    """

    position: int
    steps: Value
    advancing: Dict[str, Value]
    repr_advancing: Dict[str, int]
    is_fold: bool


@dataclass
class _VLevelStats:
    index: int
    runtime_sweep: Value
    runtime_is_int: Value  # bool Value: scalar engine would hold a Python int
    compute_bound_fraction: Value
    ingress_per_sweep: Dict[str, Value]
    delivered_per_sweep: Dict[str, Value]
    egress_per_sweep: Value
    psum_readback_per_sweep: Value
    upstream_buffer_req: Value
    peak_bw_elems_per_cycle: Value


def _wrap_scalar_traffic(traffic: Mapping[str, Any]) -> Dict[str, _VTraffic]:
    return {
        name: _VTraffic(tt.fetch, tt.unique, tt.delivered, tt.stationary)
        for name, tt in traffic.items()
    }


def _wrap_scalar_reuse(reuse: LevelReuse) -> _VReuse:
    """View a constant inner-level ``LevelReuse`` through the Value API."""
    return _VReuse(
        index=reuse.level.index,
        sweep_steps=reuse.level.sweep_steps,
        avg_active=reuse.level.avg_active,
        init=_VClass(
            count=1,
            traffic=_wrap_scalar_traffic(reuse.init.traffic),
            outputs_advance=False,
        ),
        classes=[
            _VClass(
                count=cls.count,
                traffic=_wrap_scalar_traffic(cls.traffic),
                outputs_advance=cls.outputs_advance,
            )
            for cls in reuse.classes
        ],
        output_name=reuse.output_name,
        unique_chunk_volumes=dict(reuse.unique_chunk_volumes),
        outputs_per_sweep=reuse.outputs_per_sweep,
        psum_factor=reuse.psum_factor,
        output_spatially_reduced=reuse.output_spatially_reduced,
    )


# ----------------------------------------------------------------------
# Level-0 reuse, vectorized over the top width W.
# ----------------------------------------------------------------------
def _moves_tensor_repr(info: TensorInfo, offsets: Mapping[str, int]) -> bool:
    return any(abs(axis.shift(offsets)) > 0 for axis in info.axes)


def _v_init_traffic(info: TensorInfo, table: AxisTable, active: Value) -> _VTraffic:
    """``_full_chunk_traffic`` with a grid-valued active-unit count."""
    fetch: Value = 1.0
    unique: Value = 1.0
    for extent, sigma in zip(table.extents, table.sigmas):
        fetch = fetch * extent
        unique = unique * (extent + (active - 1.0) * min(sigma, float(extent)))
    fetch = fetch * info.density
    unique = unique * info.density
    return _VTraffic(fetch, unique, fetch * active, False)


def _v_inner_reset_moves(
    info: TensorInfo, inner_entries: Sequence[_VEntry]
) -> Value:
    moves: Value = False
    for entry in inner_entries:
        if not _moves_tensor_repr(info, entry.repr_advancing):
            continue
        moves = _or(moves, entry.steps > 1)
    return moves


def _v_class_traffic(
    info: TensorInfo,
    table: AxisTable,
    active: Value,
    entry: _VEntry,
    inner_entries: Sequence[_VEntry],
    init_tt: _VTraffic,
) -> _VTraffic:
    """``_tensor_traffic`` with grid-valued offsets/active/reset flags.

    The full-refetch branch is arithmetically identical to the init
    traffic (every axis term is the full extent), so the init values are
    reused for it rather than recomputed.
    """
    irm = _v_inner_reset_moves(info, inner_entries)

    if not _is_arr(irm) and irm:
        # Constant full-refetch everywhere on the grid.
        return _VTraffic(init_tt.fetch, init_tt.unique, init_tt.delivered, False)

    advance_delta: Dict[int, Value] = {}
    for axis_index, axis in enumerate(info.axes):
        if not any(dim in entry.repr_advancing for dim in axis.dims):
            continue
        if abs(axis.shift(entry.repr_advancing)) <= 0:
            continue
        shift = abs(axis_shift(axis, entry.advancing))
        advance_delta[axis_index] = _minimum(
            _ceil_int(shift), table.extents[axis_index]
        )
    if not advance_delta:
        halo = _VTraffic(0.0, 0.0, 0.0, True)
    else:
        fetch: Value = 1.0
        unique: Value = 1.0
        for axis_index in range(len(info.axes)):
            extent = table.extents[axis_index]
            sigma = table.sigmas[axis_index]
            term = advance_delta.get(axis_index, extent)
            fetch = fetch * term
            unique = unique * (
                term + (active - 1.0) * _minimum(sigma, _as_float(term))
            )
        fetch = fetch * info.density
        unique = unique * info.density
        halo = _VTraffic(fetch, unique, fetch * active, False)

    if not _is_arr(irm):
        return halo

    return _VTraffic(
        fetch=_where(irm, init_tt.fetch, halo.fetch),
        unique=_where(irm, init_tt.unique, halo.unique),
        delivered=_where(irm, init_tt.delivered, halo.delivered),
        stationary=_where(irm, False, halo.stationary),
    )


def _v_psum_factor(
    entries: Sequence[_VEntry],
    output: TensorInfo,
    reduction_dims: Any,
) -> Value:
    """``_psum_factor`` with grid-valued fold step counts."""

    def advances_output(entry: _VEntry) -> bool:
        return any(
            abs(axis.shift(entry.repr_advancing)) > 0 for axis in output.axes
        )

    pos: Value = -1
    for index, entry in enumerate(entries):
        if not advances_output(entry):
            continue
        pos = _where(entry.steps > 1, index, pos)

    factor: Value = 1
    for index, entry in enumerate(entries):
        if advances_output(entry):
            continue
        if not (set(entry.repr_advancing) & reduction_dims):
            continue
        cond = _and(index < pos, entry.steps > 1)
        factor = factor * _where(cond, entry.steps, 1)
    return factor


def _v_level0_reuse(lowered: LoweredGroup, width: np.ndarray) -> _VReuse:
    """Level-0 ``analyze_level_reuse`` over the whole width axis at once."""
    top = lowered.top
    tensors = lowered.tensors
    spatial_chunks = top.spatial_chunks

    if top.has_spatial:
        folds: Value = _ceil_div(spatial_chunks, width)
        avg_active: Value = np.where(width > 1, spatial_chunks / folds, 1.0)
        avg_active = np.minimum(width.astype(np.float64), avg_active)
    else:
        folds = np.ones_like(width)
        avg_active = 1.0

    sweep_steps: Value = 1
    for directive in top.directives:
        sweep_steps = sweep_steps * (folds if directive.spatial else directive.steps)

    # Odometer entries (temporal directives + one joint fold entry).
    entries: List[_VEntry] = []
    fold_base: Dict[str, int] = {}
    fold_position: Optional[int] = None
    for position, directive in enumerate(top.directives):
        if directive.spatial:
            fold_base[directive.dim] = directive.offset
            if fold_position is None:
                fold_position = position
        else:
            assert directive.steps is not None
            entries.append(
                _VEntry(
                    position=position,
                    steps=directive.steps,
                    advancing={directive.dim: directive.offset},
                    repr_advancing={directive.dim: directive.offset},
                    is_fold=False,
                )
            )
    if fold_base:
        entries.append(
            _VEntry(
                position=fold_position if fold_position is not None else 0,
                steps=folds,
                advancing={dim: off * width for dim, off in fold_base.items()},
                repr_advancing=dict(fold_base),
                is_fold=True,
            )
        )
        entries.sort(key=lambda entry: entry.position)

    init_traffic = {
        info.name: _v_init_traffic(info, lowered.axis_tables[info.name], avg_active)
        for info in tensors.tensors
    }
    init = _VClass(count=1, traffic=init_traffic, outputs_advance=False)

    classes: List[_VClass] = []
    outer_product: Value = 1
    for index, entry in enumerate(entries):
        # A fold entry's step count is per-point; its class exists
        # wherever folds > 1 and is kept with count 0 elsewhere (inert
        # in every downstream accumulation). Grid-constant entries keep
        # the scalar structure exactly.
        generate = (
            spatial_chunks > 1 if entry.is_fold else entry.steps > 1
        )
        if generate:
            count = (entry.steps - 1) * outer_product
            inner_entries = tuple(entries[index + 1 :])
            traffic = {
                info.name: _v_class_traffic(
                    info,
                    lowered.axis_tables[info.name],
                    avg_active,
                    entry,
                    inner_entries,
                    init_traffic[info.name],
                )
                for info in tensors.tensors
            }
            outputs_advance = _not(traffic[tensors.output.name].stationary)
            classes.append(
                _VClass(
                    count=count,
                    traffic=traffic,
                    outputs_advance=outputs_advance,
                )
            )
        outer_product = outer_product * entry.steps

    unique_chunk_volumes = {
        info.name: init_traffic[info.name].unique for info in tensors.tensors
    }

    output = tensors.output
    outputs_per_sweep = output.volume(top.local_sizes) * output.density
    psum_factor = _v_psum_factor(entries, output, tensors.reduction_dims)
    out_table = lowered.axis_tables[output.name]
    output_sigma_zero = all(sigma == 0 for sigma in out_table.sigmas)
    if spatial_chunks > 1 and output_sigma_zero:
        output_spatially_reduced: Value = width > 1
    else:
        output_spatially_reduced = False

    return _VReuse(
        index=0,
        sweep_steps=sweep_steps,
        avg_active=avg_active,
        init=init,
        classes=classes,
        output_name=output.name,
        unique_chunk_volumes=unique_chunk_volumes,
        outputs_per_sweep=outputs_per_sweep,
        psum_factor=psum_factor,
        output_spatially_reduced=output_spatially_reduced,
    )


def _v_avg_step_change_ratio(vreuse: _VReuse) -> Dict[str, Value]:
    """``_avg_step_change_ratio`` over Values, same accumulation order."""
    steps = vreuse.sweep_steps
    ratios: Dict[str, Value] = {}
    for name, init_traffic in vreuse.init.traffic.items():
        full = init_traffic.fetch
        if full <= 0:
            ratios[name] = 0.0
            continue
        total = init_traffic.fetch + _vsum(
            [cls.count * cls.traffic[name].fetch for cls in vreuse.classes]
        )
        ratios[name] = _minimum(1.0, (total / steps) / full)
    return ratios


# ----------------------------------------------------------------------
# Performance recursion, grid-valued.
# ----------------------------------------------------------------------
def _v_level_performance(
    vreuse: _VReuse,
    lowered: LoweredGroup,
    bandwidth: Value,
    t_inner: Value,
    t_inner_is_int: Value,
    serial_init: bool,
    init_scale: Optional[Dict[str, Value]],
) -> _VLevelStats:
    """``_analyze_level_performance`` with Values everywhere.

    ``t_inner_is_int`` tracks a type subtlety of the scalar engine:
    Python's ``max`` returns its first maximal *argument*, so a sweep
    runtime stays a Python ``int`` wherever NoC delays (ints) dominate
    the (float) compute delay. The values agree either way — integer
    arithmetic is exact in float64 well past any modeled magnitude —
    but the materializer restores the exact Python type so reports are
    bit-identical under serialization too.
    """
    multicast = lowered.multicast
    latency = lowered.noc_latency
    out_name = vreuse.output_name
    hw_reduction = lowered.spatial_reduction

    def init_factor(name: str) -> Value:
        if init_scale is None:
            return 1.0
        return init_scale.get(name, 1.0)

    def ingress_volume(traffic: Dict[str, _VTraffic]) -> Value:
        total: Value = 0.0
        for name, tt in traffic.items():
            if name == out_name:
                continue
            total = total + (tt.unique if multicast else tt.delivered)
        return total

    def egress_volume(traffic: Dict[str, _VTraffic]) -> Value:
        tt = traffic[out_name]
        if hw_reduction:
            return tt.unique
        return _where(vreuse.output_spatially_reduced, tt.delivered, tt.unique)

    ingress_sweep: Dict[str, Value] = {}
    delivered_sweep: Dict[str, Value] = {}
    for name, tt in vreuse.init.traffic.items():
        if name == out_name:
            continue
        factor = init_factor(name)
        ingress_sweep[name] = (tt.unique if multicast else tt.delivered) * factor
        delivered_sweep[name] = tt.delivered * factor

    init_ingress = _vsum(list(ingress_sweep.values()))
    init_delay = _noc_delay(_ceil_int(init_ingress), bandwidth, latency)
    if serial_init:
        runtime: Value = init_delay + t_inner
        runtime_is_int: Value = t_inner_is_int
    else:
        runtime = _maximum(init_delay, t_inner)
        runtime_is_int = _or(init_delay >= t_inner, t_inner_is_int)
    compute_steps: Value = 1.0
    total_steps: Value = 1.0

    comm_volume: Value = init_ingress

    if hw_reduction:
        egress_hw_factor: Value = 1.0
    else:
        egress_hw_factor = _where(
            vreuse.output_spatially_reduced, vreuse.avg_active, 1.0
        )
    egress_total = vreuse.egress_per_sweep * egress_hw_factor
    readback_total = vreuse.psum_readback_per_sweep

    for cls in vreuse.classes:
        ingress = ingress_volume(cls.traffic)
        egress = _where(cls.outputs_advance, egress_volume(cls.traffic), 0.0)
        readback = _where(
            _and(cls.outputs_advance, readback_total > 0), egress, 0.0
        )
        ingress_delay = _noc_delay(_ceil_int(ingress + readback), bandwidth, latency)
        egress_delay = _noc_delay(_ceil_int(egress), bandwidth, latency)
        if lowered.double_buffered:
            step_delay = _maximum(
                _maximum(ingress_delay, egress_delay), t_inner
            )
            # max(int, int, float) yields the float only when it wins
            # strictly (earlier arguments win ties).
            step_is_int = _where(
                t_inner > _maximum(ingress_delay, egress_delay),
                t_inner_is_int,
                True,
            )
        else:
            step_delay = ingress_delay + egress_delay + t_inner
            step_is_int = t_inner_is_int
        runtime = runtime + cls.count * step_delay
        # A count-0 class (a spatial fold collapsed to one step at this
        # point) does not exist in the scalar engine, so it must not
        # influence the result type either.
        runtime_is_int = _where(
            cls.count > 0, _and(runtime_is_int, step_is_int), runtime_is_int
        )
        compute_steps = compute_steps + _where(step_delay == t_inner, cls.count, 0)
        total_steps = total_steps + cls.count
        comm_volume = comm_volume + cls.count * (ingress + readback + egress)
        for name, tt in cls.traffic.items():
            if name == out_name:
                continue
            volume = tt.unique if multicast else tt.delivered
            ingress_sweep[name] = ingress_sweep.get(name, 0.0) + cls.count * volume
            delivered_sweep[name] = (
                delivered_sweep.get(name, 0.0) + cls.count * tt.delivered
            )

    compute_fraction = compute_steps / total_steps
    egress_unaccounted = (
        egress_total
        + readback_total
        - _vsum(
            [
                _where(
                    cls.outputs_advance,
                    cls.count * egress_volume(cls.traffic),
                    0.0,
                )
                for cls in vreuse.classes
            ]
        )
    )
    peak_bw = (comm_volume + _maximum(0.0, egress_unaccounted)) / _maximum(
        total_steps * t_inner, 1.0
    )

    upstream_req = (
        buffering_factor(lowered.double_buffered)
        * _trunc_int(_vsum(list(vreuse.unique_chunk_volumes.values())))
        * lowered.element_bytes
    )

    return _VLevelStats(
        index=vreuse.index,
        runtime_sweep=runtime,
        runtime_is_int=runtime_is_int,
        compute_bound_fraction=compute_fraction,
        ingress_per_sweep=ingress_sweep,
        delivered_per_sweep=delivered_sweep,
        egress_per_sweep=egress_total,
        psum_readback_per_sweep=readback_total,
        upstream_buffer_req=upstream_req,
        peak_bw_elems_per_cycle=peak_bw,
    )


# ----------------------------------------------------------------------
# The whole-grid pipeline + materialization.
# ----------------------------------------------------------------------
def _column(value: Value, n: int) -> List[Any]:
    """Convert a Value to a per-point Python list (exact conversions)."""
    if _is_arr(value):
        return value.tolist()
    return [value] * n


_ROW_BUILDERS: Dict[Tuple[str, ...], Any] = {}


def _row_builder(keys: Tuple[str, ...]) -> Any:
    """Code-generate ``f(col0, col1, ...) -> [ {k0: v0, ...}, ... ]``.

    A dict literal inside a generated list comprehension beats
    ``dict(zip(keys, row))`` by ~2x (single BUILD_MAP opcode, no zip
    object per row) — and this is the hottest loop of report building.
    Builders are cached per key tuple, which recur across layers.
    """
    builder = _ROW_BUILDERS.get(keys)
    if builder is None:
        params = ", ".join(f"c{i}" for i in range(len(keys)))
        entries = ", ".join(f"{key!r}: c{i}" for i, key in enumerate(keys))
        target = params if len(keys) > 1 else params + ","
        source = (
            f"def build({params}):\n"
            f"    return [{{{entries}}} for {target} in zip({params})]\n"
        )
        namespace: Dict[str, Any] = {}
        exec(source, namespace)  # noqa: S102 - static template, keys repr'd
        builder = namespace["build"]
        _ROW_BUILDERS[keys] = builder
    return builder


def _dict_rows(values: Dict[str, Value], n: int) -> List[Dict[str, Any]]:
    """Transpose a dict of columns into one plain dict per grid point.

    Grid-constant dicts (no array-valued entry) are built once and
    shared across all points — reports are plain read-only data, so
    aliasing is safe and skips the dominant per-point allocation.
    """
    if not any(_is_arr(value) for value in values.values()):
        return [dict(values)] * n
    builder = _row_builder(tuple(values))
    return builder(*(_column(value, n) for value in values.values()))


def _field_column(value: Any, n: int) -> List[Any]:
    """One report field as a per-point list: a dict of Values becomes
    one dict per point, and a Python list is already a typed column."""
    if isinstance(value, dict):
        return _dict_rows(value, n)
    if isinstance(value, list):
        return value
    return _column(value, n)


def _typed_column(values: Value, is_int: Value, n: int) -> List[Any]:
    """A column with the scalar engine's per-point int/float type restored."""
    columns = _column(values, n)
    flags = _column(is_int, n)
    return [int(v) if f else v for v, f in zip(columns, flags)]


def _make(
    cls: type,
    fields: Dict[str, Any],
    _new: Any = object.__new__,
    _set: Any = object.__setattr__,
) -> Any:
    """Fast frozen-dataclass construction: bypass __init__'s per-field
    object.__setattr__ by installing the field dict directly. Equality,
    hashing, and pickling are unaffected (they read __dict__/fields)."""
    obj = _new(cls)
    _set(obj, "__dict__", fields)
    return obj


class GridBlock:
    """One evaluated grid group, kept as columns.

    ``outcomes`` holds one :class:`EvalOutcome` per input accelerator,
    in input order. A feasible point's outcome is a lane of the block:
    its :data:`~repro.engines.analysis.Figures` are computed with the
    block, and the block's reports are built, all in one transposing
    pass, only when a lane's ``report`` is first read — at most once per
    lane, under the block's lock, so shard threads may share lanes.
    ``fields`` maps every report field to a Value (``level_stats`` to
    one field map per level), in ``LayerAnalysis`` field order; a Python
    list there is a column already in the scalar engine's per-point
    types.
    """

    def __init__(self, fields: Dict[str, Any], figures: List[Figures]) -> None:
        self.outcomes: List[EvalOutcome] = []
        self.figures = figures
        self.lock = threading.Lock()
        self._fields = fields
        self._reports: Optional[List[LayerAnalysis]] = None

    def reports(self) -> List[LayerAnalysis]:
        """Every feasible point's report, built on the first call."""
        reports = self._reports
        if reports is None:
            with self.lock:
                if self._reports is None:
                    self._reports = self._build_reports()
                reports = self._reports
        return reports

    def _build_reports(self) -> List[LayerAnalysis]:
        # Columns are transposed into per-point rows with C-level zip,
        # then zipped straight into field dicts: no per-point Python
        # comprehension in the loop.
        n = len(self.figures)
        columns = dict(self._fields)
        level_rows = [
            [
                _make(LevelStats, dict(zip(level, row)))
                for row in zip(*(_field_column(value, n) for value in level.values()))
            ]
            for level in self._fields["level_stats"]
        ]
        columns["level_stats"] = list(zip(*level_rows))
        names = tuple(columns)
        return [
            _make(LayerAnalysis, dict(zip(names, row)))
            for row in zip(*(_field_column(value, n) for value in columns.values()))
        ]


class _Lane:
    """One feasible point of a :class:`GridBlock` (a ``ReportSource``).

    A lane under an equivalent twin's name (:meth:`renamed`) copies the
    block's report once, under the block's lock, with its own name.
    """

    __slots__ = ("block", "position", "dataflow_name", "figures", "_renamed")

    def __init__(
        self, block: GridBlock, position: int, dataflow_name: str, figures: Figures
    ) -> None:
        self.block = block
        self.position = position
        self.dataflow_name = dataflow_name
        self.figures = figures
        self._renamed: Optional[LayerAnalysis] = None

    def report(self) -> LayerAnalysis:
        report = self.block.reports()[self.position]
        if report.dataflow_name == self.dataflow_name:
            return report
        with self.block.lock:
            if self._renamed is None:
                self._renamed = replace(report, dataflow_name=self.dataflow_name)
            return self._renamed

    def renamed(self, dataflow_name: str) -> "_Lane":
        return _Lane(self.block, self.position, dataflow_name, self.figures)


def _evaluate_feasible(
    lowered: LoweredGroup,
    num_pes: np.ndarray,
    bandwidth: np.ndarray,
) -> GridBlock:
    """Evaluate every feasible grid point of one lowered group."""
    layer = lowered.layer
    n = int(num_pes.shape[0])
    width = num_pes // lowered.ppc

    vreuse0 = _v_level0_reuse(lowered, width)
    vreuses: List[_VReuse] = [vreuse0] + [
        _wrap_scalar_reuse(reuse) for reuse in lowered.inner_reuses
    ]

    num_levels = lowered.num_levels
    level_stats: List[_VLevelStats] = []
    t_inner: Value = lowered.compute_delay
    t_inner_is_int: Value = False
    for index in range(num_levels - 1, -1, -1):
        if index == 0:
            init_scale = None
        else:
            init_scale = _v_avg_step_change_ratio(vreuses[index - 1])
        stats = _v_level_performance(
            vreuses[index],
            lowered,
            bandwidth,
            t_inner,
            t_inner_is_int,
            serial_init=index == 0,
            init_scale=init_scale,
        )
        level_stats.append(stats)
        t_inner = stats.runtime_sweep
        t_inner_is_int = stats.runtime_is_int
    level_stats.reverse()
    runtime: Value = level_stats[0].runtime_sweep * layer.groups
    runtime_is_int: Value = level_stats[0].runtime_is_int

    # ------------------------------------------------------------------
    # Accounting (mirrors analyze_layer's accounting block).
    # ------------------------------------------------------------------
    tensors = lowered.tensors
    total_ops = layer.effective_ops()
    group_factor = layer.groups

    multipliers: List[Value] = [1.0]
    running: Value = 1.0
    for vreuse in vreuses[:-1]:
        running = running * (vreuse.sweep_steps * vreuse.avg_active)
        multipliers.append(running)

    l2_reads: Dict[str, Value] = {}
    l2_writes: Dict[str, Value] = {}
    l1_reads: Dict[str, Value] = {}
    l1_writes: Dict[str, Value] = {}
    intermediate_reads: Value = 0.0
    intermediate_writes: Value = 0.0

    top = level_stats[0]
    out_name = tensors.output.name
    for name, volume in top.ingress_per_sweep.items():
        l2_reads[name] = volume * group_factor
    l2_reads[out_name] = (
        l2_reads.get(out_name, 0.0) + top.psum_readback_per_sweep * group_factor
    )
    l2_writes[out_name] = top.egress_per_sweep * group_factor

    bottom = level_stats[-1]
    bottom_multiplier = multipliers[-1] * group_factor
    for name, volume in bottom.delivered_per_sweep.items():
        l1_writes[name] = volume * bottom_multiplier
    has_reduction = bool(tensors.reduction_dims)
    for info in tensors.inputs:
        l1_reads[info.name] = l1_reads.get(info.name, 0.0) + total_ops
    l1_reads[out_name] = total_ops if has_reduction else 0.0
    l1_writes[out_name] = l1_writes.get(out_name, 0.0) + total_ops

    for depth in range(1, len(level_stats)):
        stats = level_stats[depth]
        above = level_stats[depth - 1]
        multiplier = multipliers[depth] * group_factor
        multiplier_above = multipliers[depth - 1] * group_factor
        intermediate_reads = intermediate_reads + (
            _vsum(list(stats.ingress_per_sweep.values()))
            + stats.psum_readback_per_sweep
        ) * multiplier
        intermediate_writes = intermediate_writes + (
            _vsum(list(above.delivered_per_sweep.values())) * multiplier_above
        )
        intermediate_reads = intermediate_reads + stats.egress_per_sweep * multiplier
        intermediate_writes = intermediate_writes + stats.egress_per_sweep * multiplier

    element_bytes = lowered.element_bytes
    buffering = buffering_factor(lowered.double_buffered)
    l1_req = lowered.l1_req
    l2_req = (
        buffering
        * _trunc_int(
            _vsum(
                [
                    vreuse0.unique_chunk_volumes[info.name]
                    / max(info.density, 1e-12)
                    for info in tensors.tensors
                ]
            )
        )
        * element_bytes
    )
    intermediate_reqs = lowered.intermediate_reqs

    dram_reads: Dict[str, Value] = {}
    dram_writes: Dict[str, Value] = {}
    if lowered.l2_size is None:
        l2_fits: Value = True
    else:
        l2_fits = lowered.l2_size >= l2_req
    for info in tensors.inputs:
        streamed: Value = layer.touched_tensor_volume(info.name) * info.density
        if l2_fits is not True:
            streamed = _where(
                l2_fits,
                streamed,
                _maximum(streamed, l2_reads.get(info.name, 0.0)),
            )
        dram_reads[info.name] = streamed
    dram_writes[out_name] = layer.tensor_volume(out_name) * tensors.output.density
    for name, volume in dram_reads.items():
        l2_writes[name] = l2_writes.get(name, 0.0) + volume

    reuse_factors: Dict[str, Value] = {}
    max_reuse_factors: Dict[str, Value] = {}
    for info in tensors.inputs:
        fetched = l2_reads.get(info.name, 0.0)
        if _is_arr(fetched):
            safe = np.where(fetched != 0.0, fetched, 1.0)
            reuse_factors[info.name] = np.where(
                fetched != 0.0, total_ops / safe, float("inf")
            )
        else:
            reuse_factors[info.name] = (
                total_ops / fetched if fetched else float("inf")
            )
        volume = layer.touched_tensor_volume(info.name) * info.density
        max_reuse_factors[info.name] = (
            total_ops / volume if volume else float("inf")
        )

    noc_bw_req = top.peak_bw_elems_per_cycle
    noc_bw_req_gbps = noc_bw_req * element_bytes * lowered.clock_ghz

    energy_model = lowered.energy_model
    l1_capacity = lowered.l1_size if lowered.l1_size is not None else max(l1_req, 1)
    e_l1_read = energy_model.sram_access(l1_capacity)
    e_l1_write = energy_model.sram_write(l1_capacity)
    if lowered.l2_size is not None:
        e_l2_read: Value = energy_model.sram_access(lowered.l2_size)
        e_l2_write: Value = energy_model.sram_write(lowered.l2_size)
    else:
        l2_capacity = _maximum(l2_req, 1)
        e_l2_read = energy_model.sram_base + energy_model.sram_sqrt * np.sqrt(
            l2_capacity
        )
        e_l2_write = e_l2_read * energy_model.sram_write_factor
    noc_traffic = (
        _vsum(list(l2_reads.values())) + top.egress_per_sweep * group_factor
    )
    energy_breakdown: Dict[str, Value] = {
        "MAC": total_ops * energy_model.mac,
        "L1 read": _vsum(list(l1_reads.values())) * e_l1_read,
        "L1 write": _vsum(list(l1_writes.values())) * e_l1_write,
        "L2 read": _vsum(list(l2_reads.values())) * e_l2_read,
        "L2 write": _vsum(list(l2_writes.values())) * e_l2_write,
        "intermediate": (
            intermediate_reads * e_l1_read + intermediate_writes * e_l1_write
        ),
        "NoC": noc_traffic * energy_model.noc_hop,
        "DRAM": (
            _vsum(list(dram_reads.values())) + _vsum(list(dram_writes.values()))
        )
        * energy_model.dram,
    }

    if lowered.dram_bandwidth is not None:
        dram_traffic = _vsum(list(dram_reads.values())) + _vsum(
            list(dram_writes.values())
        )
        dram_floor = dram_traffic / lowered.dram_bandwidth
        runtime_is_int = _and(runtime_is_int, runtime >= dram_floor)
        runtime = _maximum(runtime, dram_floor)

    utilization = _minimum(
        1.0, total_ops / (runtime * num_pes * lowered.vector_width)
    )

    # ------------------------------------------------------------------
    # The block: every report field as a Value, plus the figures a sweep
    # folds, per lane. ``energy_total`` is the builtin ``sum`` of each
    # lane's breakdown in breakdown order, exactly as the report sums it.
    # ------------------------------------------------------------------
    runtime_column = _typed_column(runtime, runtime_is_int, n)
    l1_req_int = int(l1_req)
    figures = list(
        zip(
            runtime_column,
            [total_ops / value if value else 0.0 for value in runtime_column],
            map(sum, zip(*(_column(value, n) for value in energy_breakdown.values()))),
            [l1_req_int] * n,
            _column(l2_req, n),
        )
    )
    levels = [
        {
            "index": stats.index,
            "runtime_sweep": _typed_column(stats.runtime_sweep, stats.runtime_is_int, n),
            "compute_bound_fraction": stats.compute_bound_fraction,
            "bottleneck": _where(
                stats.compute_bound_fraction >= 0.5, "compute", "communication"
            ),
            "ingress_per_sweep": stats.ingress_per_sweep,
            "delivered_per_sweep": stats.delivered_per_sweep,
            "egress_per_sweep": stats.egress_per_sweep,
            "psum_readback_per_sweep": stats.psum_readback_per_sweep,
            "upstream_buffer_req": stats.upstream_buffer_req,
            "peak_bw_elems_per_cycle": stats.peak_bw_elems_per_cycle,
        }
        for stats in level_stats
    ]
    fields: Dict[str, Any] = {
        "layer_name": layer.name,
        "dataflow_name": lowered.dataflow.name,
        "num_pes": num_pes,
        "runtime": runtime_column,
        "total_ops": total_ops,
        "utilization": utilization,
        "level_stats": levels,
        "l2_reads": l2_reads,
        "l2_writes": l2_writes,
        "l1_reads": l1_reads,
        "l1_writes": l1_writes,
        "intermediate_reads": intermediate_reads,
        "intermediate_writes": intermediate_writes,
        "dram_reads": dram_reads,
        "dram_writes": dram_writes,
        "l1_buffer_req": l1_req_int,
        "l2_buffer_req": l2_req,
        "intermediate_buffer_reqs": tuple(intermediate_reqs),
        "noc_bw_req_elems": noc_bw_req,
        "noc_bw_req_gbps": noc_bw_req_gbps,
        "reuse_factors": reuse_factors,
        "max_reuse_factors": max_reuse_factors,
        "energy_breakdown": energy_breakdown,
    }
    return GridBlock(fields, figures)


def evaluate_grid(
    layer: Layer,
    dataflow: Dataflow,
    accelerators: Sequence[Accelerator],
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    lowered: Optional[LoweredGroup] = None,
) -> GridBlock:
    """Evaluate one grid group into a :class:`GridBlock`.

    The block's ``outcomes`` come back in input order. Every accelerator
    must share one template (all hardware fields but ``num_pes`` and NoC
    bandwidth); pass ``lowered`` to reuse a lowering across calls.
    Points whose PE count cannot host the dataflow's cluster hierarchy
    come back as ``BindingError`` outcomes with the exact scalar
    message. Raises :class:`VectorLoweringError` when the group itself
    cannot be lowered (callers fall back to the scalar engines point by
    point).
    """
    accelerators = list(accelerators)
    if not accelerators:
        return GridBlock({}, [])
    if lowered is None:
        lowered = lower_group(layer, dataflow, accelerators[0], energy_model)
    template = lowered.template
    for accelerator in accelerators:
        if accelerator_template(accelerator) != template:
            raise VectorLoweringError(
                "grid group mixes accelerator templates; only num_pes and "
                "NoC bandwidth may vary within a vectorized group"
            )

    num_pes = np.array([a.num_pes for a in accelerators], dtype=np.int64)
    bandwidth = np.array([a.noc.bandwidth for a in accelerators], dtype=np.int64)
    feasible = num_pes >= lowered.ppc
    feasible_indices = np.flatnonzero(feasible)
    if feasible_indices.size:
        block = _evaluate_feasible(
            lowered, num_pes[feasible_indices], bandwidth[feasible_indices]
        )
    else:
        block = GridBlock({}, [])
    name = lowered.dataflow.name
    lanes = (
        EvalOutcome.deferred(_Lane(block, position, name, figures))
        for position, figures in enumerate(block.figures)
    )
    message = (
        f"{dataflow.name} on {layer.name}: cluster hierarchy needs "
        f"{lowered.ppc} PEs but only {{pes}} exist"
    )
    block.outcomes = [
        next(lanes)
        if fits
        else EvalOutcome(
            report=None,
            error_type="BindingError",
            error_message=message.format(pes=pes),
        )
        for pes, fits in zip(num_pes.tolist(), feasible.tolist())
    ]
    return block


__all__ = ["GridBlock", "evaluate_grid", "Value"]
