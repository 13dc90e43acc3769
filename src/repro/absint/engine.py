"""Abstract performance analysis: the cost model lifted to intervals.

The interval counterpart of :func:`repro.engines.analyze_layer`,
parametric over *both* the layer shape (a :class:`ShapeBox`) and the
hardware point (a :class:`HardwareBox` with interval PE count and NoC
bandwidth). One engine therefore serves the two consumers the paper's
analytical framing motivates:

- **shape-range certification** (``DF2xx`` lint rules, ``analyze
  --symbolic``): concrete hardware, interval shapes — one pass proves a
  buffer-fit or bandwidth property for an entire layer family;
- **point-box buffer certification** (``verify --check capacity``):
  concrete shape, concrete hardware — the L1/L2 intervals collapse to
  the exact requirements, the equality the tuner's ``symbolic_prune``
  screen relies on when it reads the capacity analyzer's fact.

Soundness contract (the property ``tests/test_absint.py`` fuzzes): for
every concrete ``(layer, accelerator)`` drawn from the boxes on which
:func:`~repro.engines.binding.bind_dataflow` succeeds, each quantity of
the concrete :class:`~repro.engines.analysis.LayerAnalysis` lies inside
the corresponding interval reported here. The lifting mirrors the
concrete engines statement by statement; every data-dependent branch is
taken three-valued (hulling both arms when undecided over the box), and
every scalar primitive is evaluated at its monotone corner assignments
(see the audit table in ``docs/symbolic-analysis.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.absint.binding import AbstractBinding, AbstractLevel, abstract_bind
from repro.absint.interval import (
    FLOAT_ONE,
    FLOAT_ZERO,
    INT_ONE,
    AbstractDomainError,
    IntervalFloat,
    IntervalInt,
    TriBool,
    f_max,
    f_max_many,
    f_min,
    f_sum,
    i_max,
    i_min,
    i_prod,
    i_sum,
    tri_all,
    tri_any,
    tri_f_gt,
    tri_gt,
    tri_not,
)
from repro.absint.shapes import ShapeBox
from repro.dataflow.dataflow import Dataflow
from repro.engines.analysis import buffering_factor
from repro.engines.tensor_analysis import TensorAnalysis, TensorInfo, analyze_tensors
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.tensors import dims as D
from repro.tensors.axes import Axis, ConvOutputAxis, PlainAxis, SlidingInputAxis
from repro.tensors.operators import COL_IN, COL_OUT, ROW_IN, ROW_OUT
from repro.util.intmath import ceil_div

_INT_ZERO = IntervalInt(0, 0)


# ----------------------------------------------------------------------
# Hardware box
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HardwareBox:
    """An :class:`~repro.hardware.accelerator.Accelerator` family.

    ``num_pes`` and the NoC ``bandwidth`` are intervals (the two axes the
    Figure-13 DSE grids sweep); every other knob stays concrete.
    """

    num_pes: IntervalInt
    bandwidth: IntervalInt
    avg_latency: int = 2
    multicast: bool = True
    l1_size: Optional[int] = None
    l2_size: Optional[int] = None
    spatial_reduction: bool = True
    double_buffered: bool = True
    vector_width: int = 1
    element_bytes: int = 2
    clock_ghz: float = 1.0
    dram_bandwidth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.num_pes.lo < 1:
            raise AbstractDomainError(f"num_pes range {self.num_pes} must be >= 1")
        if self.bandwidth.lo < 1:
            raise AbstractDomainError(
                f"bandwidth range {self.bandwidth} must be >= 1"
            )

    @staticmethod
    def from_accelerator(
        accelerator: Accelerator,
        num_pes: Optional[IntervalInt] = None,
        bandwidth: Optional[IntervalInt] = None,
    ) -> "HardwareBox":
        return HardwareBox(
            num_pes=num_pes or IntervalInt.point(accelerator.num_pes),
            bandwidth=bandwidth or IntervalInt.point(accelerator.noc.bandwidth),
            avg_latency=accelerator.noc.avg_latency,
            multicast=accelerator.noc.multicast,
            l1_size=accelerator.l1_size,
            l2_size=accelerator.l2_size,
            spatial_reduction=accelerator.spatial_reduction,
            double_buffered=accelerator.double_buffered,
            vector_width=accelerator.vector_width,
            element_bytes=accelerator.element_bytes,
            clock_ghz=accelerator.clock_ghz,
            dram_bandwidth=accelerator.dram_bandwidth,
        )

    def contains(self, accelerator: Accelerator) -> bool:
        return (
            self.num_pes.contains(accelerator.num_pes)
            and self.bandwidth.contains(accelerator.noc.bandwidth)
            and self.avg_latency == accelerator.noc.avg_latency
            and self.multicast == accelerator.noc.multicast
            and self.l1_size == accelerator.l1_size
            and self.l2_size == accelerator.l2_size
            and self.spatial_reduction == accelerator.spatial_reduction
            and self.double_buffered == accelerator.double_buffered
            and self.vector_width == accelerator.vector_width
            and self.element_bytes == accelerator.element_bytes
            and self.clock_ghz == accelerator.clock_ghz
            and self.dram_bandwidth == accelerator.dram_bandwidth
        )

    def delay(self, volume: IntervalFloat) -> IntervalFloat:
        """The NoC pipe delay lifted.

        ``delay(ceil(v))`` is nondecreasing in ``v`` and nonincreasing in
        the bandwidth, so the sound corners are ``(v.lo, bw.hi)`` and
        ``(v.hi, bw.lo)`` — each evaluated with the exact scalar code of
        :meth:`repro.hardware.accelerator.NoC.delay`.
        """

        def scalar(volume_f: float, bw: int) -> float:
            v = int(math.ceil(volume_f))
            if v <= 0:
                return 0.0
            return float(ceil_div(v, bw) + self.avg_latency)

        return IntervalFloat(
            scalar(volume.lo, self.bandwidth.hi),
            scalar(volume.hi, self.bandwidth.lo),
        )


# ----------------------------------------------------------------------
# Axis lifting
# ----------------------------------------------------------------------
def _conv_out_extent(s_in: int, s_k: int, stride: int, dilation: int) -> int:
    k_ext = (s_k - 1) * dilation + 1
    if s_in < k_ext:
        return 0
    return (s_in - k_ext) // stride + 1


def axis_extent(axis: Axis, sizes: Mapping[str, IntervalInt]) -> IntervalInt:
    """``axis.extent`` lifted (exact: every kind is monotone per argument)."""
    if isinstance(axis, PlainAxis):
        return sizes[axis.dim]
    if isinstance(axis, SlidingInputAxis):
        s_out = sizes[axis.out_dim]
        s_k = sizes[axis.kernel_dim]
        return (s_out - 1) * axis.stride + (s_k - 1) * axis.dilation + 1
    if isinstance(axis, ConvOutputAxis):
        s_in = sizes[axis.in_dim]
        s_k = sizes[axis.kernel_dim]
        # Nondecreasing in the input chunk, nonincreasing in the kernel
        # chunk (incl. the zero branch), hence the two corners.
        return IntervalInt(
            _conv_out_extent(s_in.lo, s_k.hi, axis.stride, axis.dilation),
            _conv_out_extent(s_in.hi, s_k.lo, axis.stride, axis.dilation),
        )
    raise AbstractDomainError(f"unknown axis kind {type(axis).__name__}")


def axis_shift_abs(axis: Axis, offsets: Mapping[str, IntervalInt]) -> IntervalFloat:
    """``abs(axis.shift(offsets))`` lifted."""
    if isinstance(axis, PlainAxis):
        signed = offsets.get(axis.dim, _INT_ZERO).to_float()
    elif isinstance(axis, SlidingInputAxis):
        signed = (
            offsets.get(axis.out_dim, _INT_ZERO) * axis.stride
            + offsets.get(axis.kernel_dim, _INT_ZERO) * axis.dilation
        ).to_float()
    elif isinstance(axis, ConvOutputAxis):
        numerator = (
            offsets.get(axis.in_dim, _INT_ZERO)
            - offsets.get(axis.kernel_dim, _INT_ZERO) * axis.dilation
        )
        signed = IntervalFloat(
            numerator.lo / axis.stride, numerator.hi / axis.stride
        )
    else:
        raise AbstractDomainError(f"unknown axis kind {type(axis).__name__}")
    return signed.abs()


def _tri_zero(value: IntervalFloat) -> TriBool:
    """``value == 0`` for a non-negative interval, three-valued."""
    if value.hi <= 0.0:
        return True
    if value.lo > 0.0:
        return False
    return None


# ----------------------------------------------------------------------
# Reuse analysis lifted
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _AbsOdometerEntry:
    position: int
    steps: IntervalInt
    advancing_offsets: Mapping[str, IntervalInt]
    is_fold: bool


@dataclass(frozen=True)
class AbstractTraffic:
    """Interval counterpart of :class:`~repro.engines.reuse.TensorTraffic`."""

    fetch: IntervalFloat
    unique: IntervalFloat
    delivered: IntervalFloat
    stationary: TriBool


@dataclass(frozen=True)
class AbstractTransitionClass:
    label: str
    count: IntervalInt  # lo may be 0: the class may not occur for some shapes
    traffic: Mapping[str, AbstractTraffic]
    outputs_advance: TriBool


@dataclass(frozen=True)
class AbstractLevelReuse:
    """Interval counterpart of :class:`~repro.engines.reuse.LevelReuse`."""

    level: AbstractLevel
    init: AbstractTransitionClass
    classes: Tuple[AbstractTransitionClass, ...]
    output_name: str
    chunk_volumes: Mapping[str, IntervalFloat]
    unique_chunk_volumes: Mapping[str, IntervalFloat]
    outputs_per_sweep: IntervalFloat
    psum_factor: IntervalInt
    output_spatially_reduced: TriBool

    @property
    def egress_per_sweep(self) -> IntervalFloat:
        return self.outputs_per_sweep * self.psum_factor.to_float()

    @property
    def psum_readback_per_sweep(self) -> IntervalFloat:
        return self.outputs_per_sweep * (self.psum_factor - 1).to_float()


def _abs_build_odometer(level: AbstractLevel) -> List[_AbsOdometerEntry]:
    """Mirror of :func:`repro.engines.reuse.build_odometer`."""
    entries: List[_AbsOdometerEntry] = []
    fold_offsets: Dict[str, IntervalInt] = {}
    fold_position = None
    for position, directive in enumerate(level.directives):
        if directive.spatial:
            fold_offsets[directive.dim] = directive.offset * level.width
            if fold_position is None:
                fold_position = position
        else:
            entries.append(
                _AbsOdometerEntry(
                    position=position,
                    steps=directive.steps,
                    advancing_offsets={directive.dim: directive.offset},
                    is_fold=False,
                )
            )
    if fold_offsets:
        entries.append(
            _AbsOdometerEntry(
                position=fold_position if fold_position is not None else 0,
                steps=level.folds,
                advancing_offsets=fold_offsets,
                is_fold=True,
            )
        )
        entries.sort(key=lambda entry: entry.position)
    return entries


def _abs_moves_tensor(
    tensor: TensorInfo, offsets: Mapping[str, IntervalInt]
) -> TriBool:
    return tri_any(
        tri_f_gt(axis_shift_abs(axis, offsets), 0.0) for axis in tensor.axes
    )


def _abs_full_chunk_traffic(
    tensor: TensorInfo,
    sizes: Mapping[str, IntervalInt],
    spatial_offsets: Mapping[str, IntervalInt],
    active: IntervalFloat,
) -> AbstractTraffic:
    fetch = FLOAT_ONE
    unique = FLOAT_ONE
    for axis in tensor.axes:
        extent = axis_extent(axis, sizes).to_float()
        sigma = axis_shift_abs(axis, spatial_offsets)
        fetch = fetch * extent
        unique = unique * (extent + (active - 1.0) * f_min(sigma, extent))
    fetch = fetch * tensor.density
    unique = unique * tensor.density
    return AbstractTraffic(fetch, unique, fetch * active, stationary=False)


def _abs_delta_traffic(
    tensor: TensorInfo,
    sizes: Mapping[str, IntervalInt],
    spatial_offsets: Mapping[str, IntervalInt],
    active: IntervalFloat,
    advancing: Mapping[str, IntervalInt],
) -> AbstractTraffic:
    """The halo-delta branch of ``_tensor_traffic`` lifted."""
    terms: List[IntervalInt] = []
    contributes: List[TriBool] = []
    for axis in tensor.axes:
        extent = axis_extent(axis, sizes)
        coupled = any(dim in advancing for dim in axis.dims)
        if not coupled:
            terms.append(extent)
            contributes.append(False)
            continue
        shift = axis_shift_abs(axis, advancing)
        positive = tri_f_gt(shift, 0.0)
        if positive is False:
            terms.append(extent)
        else:
            delta = i_min(shift.ceil_int(), extent)
            terms.append(delta if positive is True else delta.hull(extent))
        contributes.append(positive)

    has_delta = tri_any(contributes)
    if has_delta is False:
        return AbstractTraffic(FLOAT_ZERO, FLOAT_ZERO, FLOAT_ZERO, stationary=True)

    fetch = FLOAT_ONE
    unique = FLOAT_ONE
    for axis, term in zip(tensor.axes, terms):
        term_f = term.to_float()
        sigma = axis_shift_abs(axis, spatial_offsets)
        fetch = fetch * term_f
        unique = unique * (term_f + (active - 1.0) * f_min(sigma, term_f))
    fetch = fetch * tensor.density
    unique = unique * tensor.density
    delivered = fetch * active
    if has_delta is None:
        # The stationary early-return may apply to part of the box.
        return AbstractTraffic(
            fetch.hull(FLOAT_ZERO),
            unique.hull(FLOAT_ZERO),
            delivered.hull(FLOAT_ZERO),
            stationary=None,
        )
    return AbstractTraffic(fetch, unique, delivered, stationary=False)


def _traffic_hull(a: AbstractTraffic, b: AbstractTraffic) -> AbstractTraffic:
    stationary: TriBool
    if a.stationary is b.stationary and a.stationary is not None:
        stationary = a.stationary
    else:
        stationary = None
    return AbstractTraffic(
        a.fetch.hull(b.fetch),
        a.unique.hull(b.unique),
        a.delivered.hull(b.delivered),
        stationary=stationary,
    )


def _abs_tensor_traffic(
    tensor: TensorInfo,
    sizes: Mapping[str, IntervalInt],
    spatial_offsets: Mapping[str, IntervalInt],
    active: IntervalFloat,
    advancing: Mapping[str, IntervalInt],
    inner_entries: Sequence[_AbsOdometerEntry],
) -> AbstractTraffic:
    inner_reset_moves = tri_any(
        tri_all(
            (
                tri_gt(entry.steps, 1),
                _abs_moves_tensor(tensor, entry.advancing_offsets),
            )
        )
        for entry in inner_entries
    )
    if inner_reset_moves is True:
        return _abs_full_chunk_traffic(tensor, sizes, spatial_offsets, active)
    delta = _abs_delta_traffic(
        tensor, sizes, spatial_offsets, active, advancing
    )
    if inner_reset_moves is False:
        return delta
    full = _abs_full_chunk_traffic(tensor, sizes, spatial_offsets, active)
    return _traffic_hull(full, delta)


def _abs_psum_factor(
    entries: Sequence[_AbsOdometerEntry], tensors: TensorAnalysis
) -> IntervalInt:
    """``_psum_factor`` lifted.

    The concrete function multiplies the steps of every reduction-dim
    iterator sitting outer to the *last* output-advancing iterator. Under
    intervals the last advancing position itself may be uncertain; the
    sound bounds bracket it between the last *definite* advancing entry
    (everything outer to it is definitely counted when its own condition
    definitely holds) and the last *possible* one.
    """
    output = tensors.output

    def advances(entry: _AbsOdometerEntry) -> TriBool:
        return tri_any(
            tri_f_gt(axis_shift_abs(axis, entry.advancing_offsets), 0.0)
            for axis in output.axes
        )

    adv = [advances(entry) for entry in entries]
    flags = [
        tri_all((tri_gt(entry.steps, 1), adv[index]))
        for index, entry in enumerate(entries)
    ]
    definite = [index for index, flag in enumerate(flags) if flag is True]
    possible = [index for index, flag in enumerate(flags) if flag is not False]
    if not possible:
        return INT_ONE

    def contribution(index: int) -> TriBool:
        entry = entries[index]
        if not (set(entry.advancing_offsets) & tensors.reduction_dims):
            return False
        return tri_all((tri_gt(entry.steps, 1), tri_not(adv[index])))

    lo = 1
    if definite:
        for index in range(max(definite)):
            if contribution(index) is True:
                lo *= entries[index].steps.lo
    hi = 1
    for index in range(max(possible)):
        if contribution(index) is not False:
            hi *= entries[index].steps.hi
    return IntervalInt(lo, max(lo, hi))


def abstract_level_reuse(
    level: AbstractLevel, tensors: TensorAnalysis
) -> AbstractLevelReuse:
    """Mirror of :func:`repro.engines.reuse.analyze_level_reuse`."""
    sizes = level.chunk_sizes()
    spatial_offsets = level.spatial_offsets
    active = level.avg_active
    entries = _abs_build_odometer(level)

    init_traffic = {
        t.name: _abs_full_chunk_traffic(t, sizes, spatial_offsets, active)
        for t in tensors.tensors
    }
    init = AbstractTransitionClass(
        label="init", count=INT_ONE, traffic=init_traffic, outputs_advance=False
    )

    classes: List[AbstractTransitionClass] = []
    outer_product = INT_ONE
    for index, entry in enumerate(entries):
        if entry.steps.hi > 1:
            # count = (steps - 1) * outer_product; a zero lower bound
            # soundly covers the shapes where the class does not occur.
            count = (entry.steps - 1) * outer_product
            inner_entries = entries[index + 1 :]
            traffic = {
                t.name: _abs_tensor_traffic(
                    t,
                    sizes,
                    spatial_offsets,
                    active,
                    entry.advancing_offsets,
                    inner_entries,
                )
                for t in tensors.tensors
            }
            output_name = tensors.output.name
            outputs_advance = tri_not(traffic[output_name].stationary)
            label = "+".join(sorted(entry.advancing_offsets)) + (
                " (fold)" if entry.is_fold else ""
            )
            classes.append(
                AbstractTransitionClass(
                    label=label,
                    count=count,
                    traffic=traffic,
                    outputs_advance=outputs_advance,
                )
            )
        outer_product = outer_product * entry.steps

    chunk_volumes = {
        t.name: i_prod(axis_extent(axis, sizes) for axis in t.axes).to_float()
        * t.density
        for t in tensors.tensors
    }
    unique_chunk_volumes = {
        t.name: _abs_full_chunk_traffic(t, sizes, spatial_offsets, active).unique
        for t in tensors.tensors
    }

    output = tensors.output
    outputs_per_sweep = (
        i_prod(axis_extent(axis, level.local_sizes) for axis in output.axes).to_float()
        * output.density
    )
    psum_factor = _abs_psum_factor(entries, tensors)
    output_sigma_zero = tri_all(
        _tri_zero(axis_shift_abs(axis, spatial_offsets)) for axis in output.axes
    )
    output_spatially_reduced = tri_all(
        (
            tri_gt(level.width, 1),
            tri_gt(level.spatial_chunks, 1),
            output_sigma_zero,
        )
    )

    return AbstractLevelReuse(
        level=level,
        init=init,
        classes=tuple(classes),
        output_name=output.name,
        chunk_volumes=chunk_volumes,
        unique_chunk_volumes=unique_chunk_volumes,
        outputs_per_sweep=outputs_per_sweep,
        psum_factor=psum_factor,
        output_spatially_reduced=output_spatially_reduced,
    )


def _abs_avg_step_change_ratio(
    parent_reuse: AbstractLevelReuse,
) -> Dict[str, IntervalFloat]:
    """``_avg_step_change_ratio`` lifted; each ratio stays inside [0, 1]."""
    steps = parent_reuse.level.sweep_steps.to_float()
    ratios: Dict[str, IntervalFloat] = {}
    for name, init_traffic in parent_reuse.init.traffic.items():
        full = init_traffic.fetch
        if full.hi <= 0.0:
            ratios[name] = FLOAT_ZERO
            continue
        total = f_sum(
            [full]
            + [
                cls.count.to_float() * cls.traffic[name].fetch
                for cls in parent_reuse.classes
            ]
        )
        if full.lo > 0.0:
            ratio = f_min(FLOAT_ONE, (total / steps) / full).clamp_low(0.0)
        else:
            # The zero-fetch branch may apply to part of the box; the
            # concrete ratio is min(1, nonneg) either way.
            ratio = IntervalFloat(0.0, 1.0)
        ratios[name] = ratio
    return ratios


# ----------------------------------------------------------------------
# Performance recursion lifted
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AbstractLevelStats:
    """Interval counterpart of :class:`~repro.engines.analysis.LevelStats`."""

    index: int
    runtime_sweep: IntervalFloat
    ingress_per_sweep: Mapping[str, IntervalFloat]
    delivered_per_sweep: Mapping[str, IntervalFloat]
    egress_per_sweep: IntervalFloat
    psum_readback_per_sweep: IntervalFloat
    upstream_buffer_req: IntervalInt
    peak_bw_elems_per_cycle: IntervalFloat


def _branch3(cond: TriBool, if_true: IntervalFloat, if_false: IntervalFloat) -> IntervalFloat:
    if cond is True:
        return if_true
    if cond is False:
        return if_false
    return if_true.hull(if_false)


def _abs_level_performance(
    reuse: AbstractLevelReuse,
    hw: HardwareBox,
    t_inner: IntervalFloat,
    serial_init: bool,
    init_scale: Optional[Dict[str, IntervalFloat]],
) -> AbstractLevelStats:
    """Mirror of ``analysis._analyze_level_performance``."""
    multicast = hw.multicast
    out_name = reuse.output_name

    def init_factor(name: str) -> IntervalFloat:
        if init_scale is None:
            return FLOAT_ONE
        return init_scale.get(name, FLOAT_ONE)

    def ingress_volume(traffic: Mapping[str, AbstractTraffic]) -> IntervalFloat:
        return f_sum(
            (tt.unique if multicast else tt.delivered)
            for name, tt in traffic.items()
            if name != out_name
        )

    # spatial reduction support is a concrete switch; only the
    # output_spatially_reduced predicate is three-valued.
    osr_no_hw: TriBool = (
        False if hw.spatial_reduction else reuse.output_spatially_reduced
    )

    def egress_volume(traffic: Mapping[str, AbstractTraffic]) -> IntervalFloat:
        tt = traffic[out_name]
        return _branch3(osr_no_hw, tt.delivered, tt.unique)

    ingress_sweep: Dict[str, IntervalFloat] = {}
    delivered_sweep: Dict[str, IntervalFloat] = {}
    for name, tt in reuse.init.traffic.items():
        if name == out_name:
            continue
        factor = init_factor(name)
        ingress_sweep[name] = (tt.unique if multicast else tt.delivered) * factor
        delivered_sweep[name] = tt.delivered * factor

    init_ingress = f_sum(ingress_sweep.values()) if ingress_sweep else FLOAT_ZERO
    init_delay = hw.delay(init_ingress)
    if serial_init:
        runtime = init_delay + t_inner
    else:
        runtime = f_max(init_delay, t_inner)
    total_steps = FLOAT_ONE
    comm_volume = init_ingress

    egress_hw_factor = _branch3(osr_no_hw, reuse.level.avg_active, FLOAT_ONE)
    egress_total = reuse.egress_per_sweep * egress_hw_factor
    readback_total = reuse.psum_readback_per_sweep
    readback_positive = tri_f_gt(readback_total, 0.0)

    accounted_egress = FLOAT_ZERO
    for cls in reuse.classes:
        ingress = ingress_volume(cls.traffic)
        ev = egress_volume(cls.traffic)
        egress = _branch3(cls.outputs_advance, ev, FLOAT_ZERO)
        readback = _branch3(
            tri_all((cls.outputs_advance, readback_positive)), egress, FLOAT_ZERO
        )
        ingress_delay = hw.delay(ingress + readback)
        egress_delay = hw.delay(egress)
        if hw.double_buffered:
            step_delay = f_max_many((ingress_delay, egress_delay, t_inner))
        else:
            step_delay = ingress_delay + egress_delay + t_inner
        count_f = cls.count.to_float()
        runtime = runtime + count_f * step_delay
        total_steps = total_steps + count_f
        comm_volume = comm_volume + count_f * (ingress + readback + egress)
        accounted_egress = accounted_egress + _branch3(
            cls.outputs_advance, count_f * ev, FLOAT_ZERO
        )
        for name, tt in cls.traffic.items():
            if name == out_name:
                continue
            volume = tt.unique if multicast else tt.delivered
            ingress_sweep[name] = (
                ingress_sweep.get(name, FLOAT_ZERO) + count_f * volume
            )
            delivered_sweep[name] = (
                delivered_sweep.get(name, FLOAT_ZERO) + count_f * tt.delivered
            )

    egress_unaccounted = egress_total + readback_total - accounted_egress
    peak_bw = (comm_volume + f_max(FLOAT_ZERO, egress_unaccounted)) / f_max(
        FLOAT_ONE, total_steps * t_inner
    )

    upstream_sum = f_sum(reuse.unique_chunk_volumes.values()).clamp_low(0.0)
    upstream_req = upstream_sum.floor_int() * (
        buffering_factor(hw.double_buffered) * hw.element_bytes
    )

    return AbstractLevelStats(
        index=reuse.level.index,
        runtime_sweep=runtime,
        ingress_per_sweep=ingress_sweep,
        delivered_per_sweep=delivered_sweep,
        egress_per_sweep=egress_total,
        psum_readback_per_sweep=readback_total,
        upstream_buffer_req=upstream_req,
        peak_bw_elems_per_cycle=peak_bw,
    )


# ----------------------------------------------------------------------
# Whole-layer analysis lifted
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AbstractAnalysis:
    """Interval counterpart of :class:`~repro.engines.analysis.LayerAnalysis`."""

    layer_name: str
    dataflow_name: str
    num_pes: IntervalInt
    runtime: IntervalFloat
    total_ops: IntervalFloat
    utilization: IntervalFloat
    level_stats: Tuple[AbstractLevelStats, ...]
    l1_buffer_req: IntervalInt
    l2_buffer_req: IntervalInt
    intermediate_buffer_reqs: Tuple[IntervalInt, ...]
    noc_bw_req_elems: IntervalFloat
    noc_bw_req_gbps: IntervalFloat
    energy_breakdown: Mapping[str, IntervalFloat]
    binding: AbstractBinding
    caveats: Tuple[str, ...]

    @property
    def throughput(self) -> IntervalFloat:
        return self.total_ops / self.runtime

    @property
    def energy_total(self) -> IntervalFloat:
        return f_sum(self.energy_breakdown.values())

    @property
    def edp(self) -> IntervalFloat:
        return self.energy_total * self.runtime


def _abs_total_ops(box: ShapeBox) -> IntervalInt:
    """``Layer.total_ops`` lifted over the box's dimension intervals."""
    sizes = box.all_dim_sizes()
    factors: List[IntervalInt] = []
    for template in box.operator.compute_templates:
        if template == ROW_OUT:
            factors.append(sizes[D.YP])
        elif template == COL_OUT:
            factors.append(sizes[D.XP])
        elif template == ROW_IN:
            factors.append(sizes[D.Y])
        elif template == COL_IN:
            factors.append(sizes[D.X])
        else:
            factors.append(sizes[template])
    return i_prod(factors) * box.groups


def _abs_touched_extent(
    in_extent: IntervalInt,
    out_extent: IntervalInt,
    kernel: IntervalInt,
    stride: int,
    dilation: int,
) -> IntervalInt:
    """``operators._touched_extent`` lifted via interval composition."""
    k_ext = (kernel - 1) * dilation + 1
    touched = out_extent * i_min(IntervalInt.point(stride), k_ext) + i_max(
        _INT_ZERO, k_ext - stride
    )
    return i_min(in_extent, touched)


def _abs_tensor_volume(box: ShapeBox, tensor_name: str, touched: bool) -> IntervalInt:
    """``Layer.tensor_volume`` / ``Layer.touched_tensor_volume`` lifted."""
    sizes = box.all_dim_sizes()
    template = box.operator.tensor(tensor_name)
    factors: List[IntervalInt] = []
    for axis_template in template.axis_templates:
        if axis_template == ROW_IN:
            if touched:
                factors.append(
                    _abs_touched_extent(
                        sizes[D.Y], sizes[D.YP], sizes[D.R],
                        box.stride[0], box.dilation[0],
                    )
                )
            else:
                factors.append(sizes[D.Y])
        elif axis_template == COL_IN:
            if touched:
                factors.append(
                    _abs_touched_extent(
                        sizes[D.X], sizes[D.XP], sizes[D.S],
                        box.stride[1], box.dilation[1],
                    )
                )
            else:
                factors.append(sizes[D.X])
        elif axis_template == ROW_OUT:
            factors.append(sizes[D.YP])
        elif axis_template == COL_OUT:
            factors.append(sizes[D.XP])
        else:
            factors.append(sizes[axis_template])
    return i_prod(factors) * box.groups


def abstract_analyze(
    box: ShapeBox,
    dataflow: Dataflow,
    hw: HardwareBox,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> AbstractAnalysis:
    """Analyze a shape family under a dataflow on a hardware family.

    Raises :class:`~repro.errors.BindingError` when binding provably
    fails for every concretization; otherwise the result covers exactly
    the concretizations on which :func:`~repro.engines.bind_dataflow`
    succeeds (partial-failure subranges are reported in ``caveats``).
    """
    bound = abstract_bind(dataflow, box, hw.num_pes)
    representative = box.representative_layer()
    tensors = analyze_tensors(representative, bound.row_rep, bound.col_rep)
    reuses = [abstract_level_reuse(level, tensors) for level in bound.levels]

    input_density = 1.0
    for info in tensors.inputs:
        input_density *= info.density

    # Performance recursion, innermost level outward.
    innermost = bound.innermost()
    ops_per_step = (
        i_prod(
            axis_extent(axis, innermost.chunk_sizes())
            for axis in tensors.compute_axes
        ).to_float()
        * input_density
    )
    compute_delay = f_max(FLOAT_ONE, ops_per_step / hw.vector_width)

    level_stats: List[AbstractLevelStats] = []
    t_inner = compute_delay
    for level, reuse in zip(reversed(bound.levels), reversed(reuses)):
        if level.index == 0:
            init_scale = None
        else:
            init_scale = _abs_avg_step_change_ratio(reuses[level.index - 1])
        stats = _abs_level_performance(
            reuse,
            hw,
            t_inner,
            serial_init=level.index == 0,
            init_scale=init_scale,
        )
        level_stats.append(stats)
        t_inner = stats.runtime_sweep
    level_stats.reverse()
    runtime = level_stats[0].runtime_sweep * box.groups

    # Activity counts (only the ones feeding energy / reported bounds).
    total_ops = _abs_total_ops(box).to_float() * input_density

    multipliers: List[IntervalFloat] = [FLOAT_ONE]
    running = FLOAT_ONE
    for level in bound.levels[:-1]:
        running = running * (level.sweep_steps.to_float() * level.avg_active)
        multipliers.append(running)
    group_factor = box.groups

    l2_reads: Dict[str, IntervalFloat] = {}
    l2_writes: Dict[str, IntervalFloat] = {}
    l1_reads: Dict[str, IntervalFloat] = {}
    l1_writes: Dict[str, IntervalFloat] = {}
    intermediate_reads = FLOAT_ZERO
    intermediate_writes = FLOAT_ZERO

    top = level_stats[0]
    out_name = tensors.output.name
    for name, volume in top.ingress_per_sweep.items():
        l2_reads[name] = volume * group_factor
    l2_reads[out_name] = (
        l2_reads.get(out_name, FLOAT_ZERO)
        + top.psum_readback_per_sweep * group_factor
    )
    l2_writes[out_name] = top.egress_per_sweep * group_factor

    bottom = level_stats[-1]
    bottom_multiplier = multipliers[-1] * group_factor
    for name, volume in bottom.delivered_per_sweep.items():
        l1_writes[name] = volume * bottom_multiplier
    has_reduction = bool(tensors.reduction_dims)
    for info in tensors.inputs:
        l1_reads[info.name] = l1_reads.get(info.name, FLOAT_ZERO) + total_ops
    l1_reads[out_name] = total_ops if has_reduction else FLOAT_ZERO
    l1_writes[out_name] = l1_writes.get(out_name, FLOAT_ZERO) + total_ops

    for depth in range(1, len(level_stats)):
        stats = level_stats[depth]
        above = level_stats[depth - 1]
        multiplier = multipliers[depth] * group_factor
        multiplier_above = multipliers[depth - 1] * group_factor
        intermediate_reads = intermediate_reads + (
            f_sum(stats.ingress_per_sweep.values())
            + stats.psum_readback_per_sweep
        ) * multiplier
        intermediate_writes = intermediate_writes + (
            f_sum(above.delivered_per_sweep.values()) * multiplier_above
        )
        intermediate_reads = intermediate_reads + stats.egress_per_sweep * multiplier
        intermediate_writes = intermediate_writes + stats.egress_per_sweep * multiplier

    # Buffer requirements (double buffering).
    element_bytes = hw.element_bytes
    buffering = buffering_factor(hw.double_buffered)
    l1_req = i_sum(
        i_prod(axis_extent(axis, innermost.chunk_sizes()) for axis in info.axes)
        for info in tensors.tensors
    ) * (buffering * element_bytes)
    l2_sum = f_sum(
        reuses[0].unique_chunk_volumes[t.name] / max(t.density, 1e-12)
        for t in tensors.tensors
    ).clamp_low(0.0)
    l2_req = l2_sum.floor_int() * (buffering * element_bytes)
    intermediate_reqs = tuple(
        i_sum(
            i_prod(axis_extent(axis, level.chunk_sizes()) for axis in info.axes)
            for info in tensors.tensors
        )
        * (buffering * element_bytes)
        for level in bound.levels[:-1]
    )

    # DRAM traffic.
    dram_reads: Dict[str, IntervalFloat] = {}
    dram_writes: Dict[str, IntervalFloat] = {}
    if hw.l2_size is None:
        l2_fits: TriBool = True
    elif hw.l2_size >= l2_req.hi:
        l2_fits = True
    elif hw.l2_size < l2_req.lo:
        l2_fits = False
    else:
        l2_fits = None
    for info in tensors.inputs:
        streamed = _abs_tensor_volume(box, info.name, touched=True).to_float() * (
            info.density
        )
        spilled = f_max(streamed, l2_reads.get(info.name, FLOAT_ZERO))
        dram_reads[info.name] = _branch3(l2_fits, streamed, spilled)
    dram_writes[out_name] = (
        _abs_tensor_volume(box, out_name, touched=False).to_float()
        * tensors.output.density
    )
    for name, volume in dram_reads.items():
        l2_writes[name] = l2_writes.get(name, FLOAT_ZERO) + volume

    noc_bw_req = top.peak_bw_elems_per_cycle
    noc_bw_req_gbps = noc_bw_req * (element_bytes * hw.clock_ghz)

    # Energy.
    def sram_energies(
        size: Optional[int], req: IntervalInt
    ) -> Tuple[IntervalFloat, IntervalFloat]:
        if size is not None:
            read = IntervalFloat.point(energy_model.sram_access(size))
        else:
            capacity = i_max(INT_ONE, req)
            # sram_access grows monotonically with capacity.
            read = IntervalFloat(
                energy_model.sram_access(capacity.lo),
                energy_model.sram_access(capacity.hi),
            )
        write = read * energy_model.sram_write_factor
        return read, write

    e_l1_read, e_l1_write = sram_energies(hw.l1_size, l1_req)
    e_l2_read, e_l2_write = sram_energies(hw.l2_size, l2_req)
    noc_traffic = f_sum(l2_reads.values()) + top.egress_per_sweep * group_factor
    energy_breakdown = {
        "MAC": total_ops * energy_model.mac,
        "L1 read": f_sum(l1_reads.values()) * e_l1_read,
        "L1 write": f_sum(l1_writes.values()) * e_l1_write,
        "L2 read": f_sum(l2_reads.values()) * e_l2_read,
        "L2 write": f_sum(l2_writes.values()) * e_l2_write,
        "intermediate": (
            intermediate_reads * e_l1_read + intermediate_writes * e_l1_write
        ),
        "NoC": noc_traffic * energy_model.noc_hop,
        "DRAM": (f_sum(dram_reads.values()) + f_sum(dram_writes.values()))
        * energy_model.dram,
    }

    if hw.dram_bandwidth is not None:
        dram_traffic = f_sum(dram_reads.values()) + f_sum(dram_writes.values())
        runtime = f_max(runtime, dram_traffic / hw.dram_bandwidth)

    utilization = f_min(
        FLOAT_ONE,
        total_ops
        / (runtime * hw.num_pes.to_float() * float(hw.vector_width)),
    ).clamp_low(0.0)

    return AbstractAnalysis(
        layer_name=box.name,
        dataflow_name=dataflow.name,
        num_pes=hw.num_pes,
        runtime=runtime,
        total_ops=total_ops,
        utilization=utilization,
        level_stats=tuple(level_stats),
        l1_buffer_req=l1_req,
        l2_buffer_req=l2_req,
        intermediate_buffer_reqs=intermediate_reqs,
        noc_bw_req_elems=noc_bw_req,
        noc_bw_req_gbps=noc_bw_req_gbps,
        energy_breakdown=energy_breakdown,
        binding=bound,
        caveats=bound.caveats,
    )


__all__ = [
    "AbstractAnalysis",
    "AbstractLevelReuse",
    "AbstractLevelStats",
    "AbstractTraffic",
    "AbstractTransitionClass",
    "HardwareBox",
    "abstract_analyze",
    "abstract_level_reuse",
    "axis_extent",
    "axis_shift_abs",
]
