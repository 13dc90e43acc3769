"""Performance and cost analysis: MAESTRO's outer engines (Figure 8).

``analyze_layer`` runs the full pipeline — tensor analysis, cluster
analysis (binding), per-level reuse analysis — then folds the results
into runtime, activity counts, buffer requirements, bandwidth
requirements, reuse factors, and energy, recursively from the innermost
cluster level outward:

- the *outstanding delay* of a step is ``max(ingress, egress, compute)``
  under double buffering, with the initialization step paying the full
  serialized latency (exactly the paper's Figure 8 pseudocode);
- one step of level ``l`` is a full sweep of level ``l+1``, so the inner
  sweep's runtime is the outer level's compute delay;
- buffer requirements are the per-step working set times the buffering
  factor (two under double buffering), per Figure 8's ``2 * max(...)``
  rule.

The per-step formulas and the sizing rule are plain functions here
(:func:`compute_delay`, :func:`ingress_volume`, :func:`egress_volume`,
:func:`working_set`, :func:`l2_working_set`, :func:`buffer_req`), the one
definition the capacity analyzer and the vector lowering call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.engines.binding import BoundDataflow, BoundLevel, bind_dataflow
from repro.engines.reuse import LevelReuse, TensorTraffic, analyze_level_reuse
from repro.engines.tensor_analysis import TensorAnalysis, analyze_tensors
from repro.dataflow.dataflow import Dataflow
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.layer import Layer
from repro.model.network import Network
from repro.obs import inc, span


@dataclass(frozen=True)
class LevelStats:
    """Per-level performance/traffic summary (one sweep of one instance)."""

    index: int
    runtime_sweep: float
    compute_bound_fraction: float
    bottleneck: str
    ingress_per_sweep: Mapping[str, float]
    delivered_per_sweep: Mapping[str, float]
    egress_per_sweep: float
    psum_readback_per_sweep: float
    upstream_buffer_req: int
    peak_bw_elems_per_cycle: float


@dataclass(frozen=True)
class LayerAnalysis:
    """Full analysis report for one layer under one dataflow."""

    layer_name: str
    dataflow_name: str
    num_pes: int
    runtime: float
    total_ops: float
    utilization: float
    level_stats: Tuple[LevelStats, ...]
    l2_reads: Mapping[str, float]
    l2_writes: Mapping[str, float]
    l1_reads: Mapping[str, float]
    l1_writes: Mapping[str, float]
    intermediate_reads: float
    intermediate_writes: float
    dram_reads: Mapping[str, float]
    dram_writes: Mapping[str, float]
    l1_buffer_req: int
    l2_buffer_req: int
    intermediate_buffer_reqs: Tuple[int, ...]
    noc_bw_req_elems: float
    noc_bw_req_gbps: float
    reuse_factors: Mapping[str, float]
    max_reuse_factors: Mapping[str, float]
    energy_breakdown: Mapping[str, float]

    @property
    def throughput(self) -> float:
        """Average MACs (ops) per cycle."""
        return self.total_ops / self.runtime if self.runtime else 0.0

    @property
    def energy_total(self) -> float:
        return sum(self.energy_breakdown.values())

    @property
    def edp(self) -> float:
        """Energy-delay product (MAC-energy units x cycles)."""
        return self.energy_total * self.runtime

    def total(self, counter: Mapping[str, float]) -> float:
        return sum(counter.values())


@dataclass(frozen=True)
class NetworkAnalysis:
    """Aggregated analysis over a network's layers."""

    network_name: str
    dataflow_name: str
    layer_reports: Tuple[LayerAnalysis, ...]

    @property
    def runtime(self) -> float:
        return sum(report.runtime for report in self.layer_reports)

    @property
    def total_ops(self) -> float:
        return sum(report.total_ops for report in self.layer_reports)

    @property
    def energy_total(self) -> float:
        return sum(report.energy_total for report in self.layer_reports)

    def energy_breakdown(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for report in self.layer_reports:
            for component, value in report.energy_breakdown.items():
                totals[component] = totals.get(component, 0.0) + value
        return totals


#: What a sweep folds from one evaluated point: ``(runtime, throughput,
#: energy_total, l1_buffer_req, l2_buffer_req)``, each equal (value and
#: type) to the report's field or property of that name.
Figures = Tuple[float, float, float, int, int]


def figures_of(report: LayerAnalysis) -> Figures:
    """The :data:`Figures` of a built report."""
    return (
        report.runtime,
        report.throughput,
        report.energy_total,
        report.l1_buffer_req,
        report.l2_buffer_req,
    )


class ReportSource(Protocol):
    """A report built on first read: one lane of a vector-engine block."""

    dataflow_name: str
    figures: Figures

    def report(self) -> LayerAnalysis: ...

    def renamed(self, dataflow_name: str) -> "ReportSource": ...


class EvalOutcome:
    """The result of evaluating one point: a report or a model rejection.

    ``error_type``/``error_message`` record rejections the sweep
    consumers treat as "candidate is infeasible" (``BindingError`` /
    ``DataflowError``); any other exception propagates out of the
    backend instead of becoming an outcome. ``cached`` tells whether the
    outcome came from the memoization cache rather than a fresh
    cost-model run.

    A success holds its report, or a :class:`ReportSource` (see
    :meth:`deferred`) that builds it the first time :attr:`report` is
    read. ``ok``, :attr:`figures`, :attr:`dataflow_name`,
    :meth:`as_cached`, :meth:`uncached` and :meth:`renamed` never build
    it; ``report``, equality and pickling do.
    """

    __slots__ = ("_report", "_source", "error_type", "error_message", "cached")

    def __init__(
        self,
        report: Optional[LayerAnalysis],
        error_type: Optional[str] = None,
        error_message: Optional[str] = None,
        cached: bool = False,
    ) -> None:
        self._report = report
        self._source: Optional[ReportSource] = None
        self.error_type = error_type
        self.error_message = error_message
        self.cached = cached

    @classmethod
    def deferred(cls, source: ReportSource, cached: bool = False) -> "EvalOutcome":
        """A success whose report ``source`` builds on first read."""
        outcome = cls.__new__(cls)
        outcome._report = None
        outcome._source = source
        outcome.error_type = None
        outcome.error_message = None
        outcome.cached = cached
        return outcome

    @property
    def report(self) -> Optional[LayerAnalysis]:
        source = self._source
        return self._report if source is None else source.report()

    @property
    def ok(self) -> bool:
        return self._report is not None or self._source is not None

    @property
    def figures(self) -> Figures:
        """The folded figures of a success, without building its report."""
        source = self._source
        if source is not None:
            return source.figures
        assert self._report is not None, "a rejection has no figures"
        return figures_of(self._report)

    @property
    def dataflow_name(self) -> Optional[str]:
        """The report's mapping name (``None`` for a rejection)."""
        source = self._source
        if source is not None:
            return source.dataflow_name
        return self._report.dataflow_name if self._report is not None else None

    def _with(self, cached: bool) -> "EvalOutcome":
        if self._source is not None:
            return EvalOutcome.deferred(self._source, cached)
        return EvalOutcome(self._report, self.error_type, self.error_message, cached)

    def as_cached(self) -> "EvalOutcome":
        return self if self.cached else self._with(True)

    def uncached(self) -> "EvalOutcome":
        return self._with(False) if self.cached else self

    def renamed(self, dataflow_name: str) -> "EvalOutcome":
        """This success under another (equivalent) mapping's name — the
        only report field the equivalence quotient changes."""
        source = self._source
        if source is not None:
            return EvalOutcome.deferred(source.renamed(dataflow_name), self.cached)
        assert self._report is not None, "a rejection has no mapping name"
        return EvalOutcome(
            replace(self._report, dataflow_name=dataflow_name), cached=self.cached
        )

    def _fields(self) -> Tuple[Any, ...]:
        return (self.report, self.error_type, self.error_message, self.cached)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvalOutcome):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> Tuple[Any, ...]:
        return (EvalOutcome, self._fields())

    def __repr__(self) -> str:
        return (
            f"EvalOutcome(report={self.report!r}, error_type={self.error_type!r}, "
            f"error_message={self.error_message!r}, cached={self.cached!r})"
        )


# ----------------------------------------------------------------------
# Figure 8's per-step and sizing formulas. The capacity analyzer, the
# roofline certificate and the vector lowering call these rather than
# restating them, so every consumer sizes a mapping exactly as the
# engine does.
# ----------------------------------------------------------------------
def compute_delay(
    tensors: TensorAnalysis, innermost_sizes: Mapping[str, int], accelerator: Accelerator
) -> float:
    """Cycles of one innermost step: the chunk's effective MACs over the
    vector width, at least one.

    Spatial reduction hardware (adder tree / forwarding chain) is fully
    pipelined: its depth adds latency but does not reduce steady-state
    throughput, so no per-step penalty is modeled.
    """
    input_density = 1.0
    for info in tensors.inputs:
        input_density *= info.density
    ops_per_step = tensors.ops_per_chunk(innermost_sizes) * input_density
    return max(1.0, ops_per_step / accelerator.vector_width)


def ingress_volume(traffic: Mapping[str, TensorTraffic], out_name: str, multicast: bool) -> float:
    """Input elements one transition moves over the NoC: each tensor's
    unique volume under multicast, its delivered volume otherwise."""
    total = 0.0
    for name, tensor_traffic in traffic.items():
        if name == out_name:
            continue
        total += tensor_traffic.unique if multicast else tensor_traffic.delivered
    return total


def egress_volume(traffic: Mapping[str, TensorTraffic], out_name: str, spill: bool) -> float:
    """Output elements one transition moves over the NoC. ``spill``: the
    level reduces outputs spatially without reduction hardware, so every
    sub-unit's partial sums travel separately."""
    tensor_traffic = traffic[out_name]
    return tensor_traffic.delivered if spill else tensor_traffic.unique


def buffering_factor(double_buffered: bool) -> int:
    """Live tile sets per buffer: Figure 8's ``2 *`` under double
    buffering, one slot without it."""
    return 2 if double_buffered else 1


def working_set(tensors: TensorAnalysis, chunk_sizes: Mapping[str, int]) -> int:
    """Elements of one live tile set: every tensor's clamped chunk.

    The innermost level's chunk sizes L1 (per PE); level ``d``'s chunk
    sizes the cluster-boundary buffer of each depth-``d+1`` sub-cluster.
    """
    return sum(info.volume(chunk_sizes) for info in tensors.tensors)


def l2_working_set(tensors: TensorAnalysis, unique_volumes: Mapping[str, float]) -> int:
    """Elements of the shared L2's tile set: the array-wide unique
    top-level chunk, dense-indexed (a sparse tensor is stored at its
    full index range, so its density-scaled volume is divided back)."""
    return int(sum(unique_volumes[t.name] / max(t.density, 1e-12) for t in tensors.tensors))


def buffer_req(elems: int, accelerator: Accelerator) -> int:
    """Bytes a buffer holding ``elems``-element tile sets must provision."""
    return buffering_factor(accelerator.double_buffered) * elems * accelerator.element_bytes


def analyze_layer(
    layer: Layer,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> LayerAnalysis:
    """Analyze one layer under one dataflow on one accelerator."""
    with span("engine.binding", layer=layer.name, dataflow=dataflow.name):
        bound = bind_dataflow(dataflow, layer, accelerator)
    with span("engine.tensor_analysis"):
        tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    with span("engine.reuse"):
        reuses = [analyze_level_reuse(level, tensors) for level in bound.levels]

    # ------------------------------------------------------------------
    # Performance recursion, innermost level outward.
    # ------------------------------------------------------------------
    with span("engine.performance"):
        level_stats: List[LevelStats] = []
        t_inner = compute_delay(tensors, bound.innermost().chunk_sizes(), accelerator)
        for level, reuse in zip(reversed(bound.levels), reversed(reuses)):
            if level.index == 0:
                init_scale = None
            else:
                init_scale = _avg_step_change_ratio(reuses[level.index - 1])
            stats = _analyze_level_performance(
                level,
                reuse,
                accelerator,
                t_inner,
                serial_init=level.index == 0,
                init_scale=init_scale,
            )
            level_stats.append(stats)
            t_inner = stats.runtime_sweep
        level_stats.reverse()
        runtime = level_stats[0].runtime_sweep * layer.groups

    # ------------------------------------------------------------------
    # Activity counts (whole layer, all groups).
    # ------------------------------------------------------------------
    with span("engine.accounting"):
        total_ops = layer.effective_ops()

        multipliers = _sweep_multipliers(bound)  # executions of each level's sweep
        group_factor = layer.groups

        l2_reads: Dict[str, float] = {}
        l2_writes: Dict[str, float] = {}
        l1_reads: Dict[str, float] = {}
        l1_writes: Dict[str, float] = {}
        intermediate_reads = 0.0
        intermediate_writes = 0.0

        top = level_stats[0]
        out_name = tensors.output.name
        for name, volume in top.ingress_per_sweep.items():
            l2_reads[name] = volume * group_factor
        l2_reads[out_name] = (
            l2_reads.get(out_name, 0.0) + top.psum_readback_per_sweep * group_factor
        )
        l2_writes[out_name] = top.egress_per_sweep * group_factor

        # Writes into the innermost (PE L1) buffers: the innermost level's
        # delivered ingress, once per execution of its sweep.
        bottom = level_stats[-1]
        bottom_multiplier = multipliers[-1] * group_factor
        for name, volume in bottom.delivered_per_sweep.items():
            l1_writes[name] = volume * bottom_multiplier
        # Compute-side L1 activity: every op reads each input operand and
        # (when the operator reduces) read-modify-writes a partial sum.
        has_reduction = bool(tensors.reduction_dims)
        for info in tensors.inputs:
            l1_reads[info.name] = l1_reads.get(info.name, 0.0) + total_ops
        l1_reads[out_name] = total_ops if has_reduction else 0.0
        l1_writes[out_name] = l1_writes.get(out_name, 0.0) + total_ops

        # Intermediate cluster buffers (multi-level dataflows): ingress reads
        # at inner level boundaries, delivered writes from the level above,
        # and pass-through output traffic.
        for depth in range(1, len(level_stats)):
            stats = level_stats[depth]
            above = level_stats[depth - 1]
            multiplier = multipliers[depth] * group_factor
            multiplier_above = multipliers[depth - 1] * group_factor
            intermediate_reads += (
                sum(stats.ingress_per_sweep.values()) + stats.psum_readback_per_sweep
            ) * multiplier
            intermediate_writes += (
                sum(above.delivered_per_sweep.values()) * multiplier_above
            )
            intermediate_reads += stats.egress_per_sweep * multiplier
            intermediate_writes += stats.egress_per_sweep * multiplier

        # ------------------------------------------------------------------
        # Buffer requirements (Figure 8's sizing rule).
        # ------------------------------------------------------------------
        l1_req = buffer_req(working_set(tensors, bound.innermost().chunk_sizes()), accelerator)
        l2_req = buffer_req(l2_working_set(tensors, reuses[0].unique_chunk_volumes), accelerator)
        intermediate_reqs = tuple(
            buffer_req(working_set(tensors, level.chunk_sizes()), accelerator)
            for level in bound.levels[:-1]
        )

        # ------------------------------------------------------------------
        # DRAM traffic.
        # ------------------------------------------------------------------
        dram_reads: Dict[str, float] = {}
        dram_writes: Dict[str, float] = {}
        l2_fits = accelerator.l2_size is None or accelerator.l2_size >= l2_req
        for info in tensors.inputs:
            streamed = layer.touched_tensor_volume(info.name) * info.density
            if not l2_fits:
                streamed = max(streamed, l2_reads.get(info.name, 0.0))
            dram_reads[info.name] = streamed
        dram_writes[out_name] = layer.tensor_volume(out_name) * tensors.output.density
        # Whatever enters L2 from DRAM is also written into L2 once.
        for name, volume in dram_reads.items():
            l2_writes[name] = l2_writes.get(name, 0.0) + volume

        # ------------------------------------------------------------------
        # Reuse factors and bandwidth requirement.
        # ------------------------------------------------------------------
        reuse_factors: Dict[str, float] = {}
        max_reuse_factors: Dict[str, float] = {}
        for info in tensors.inputs:
            fetched = l2_reads.get(info.name, 0.0)
            reuse_factors[info.name] = total_ops / fetched if fetched else float("inf")
            volume = layer.touched_tensor_volume(info.name) * info.density
            max_reuse_factors[info.name] = total_ops / volume if volume else float("inf")

        noc_bw_req = top.peak_bw_elems_per_cycle
        noc_bw_req_gbps = noc_bw_req * accelerator.element_bytes * accelerator.clock_ghz

        # ------------------------------------------------------------------
        # Energy.
        # ------------------------------------------------------------------
        l1_capacity = accelerator.l1_size if accelerator.l1_size is not None else max(
            l1_req, 1
        )
        l2_capacity = accelerator.l2_size if accelerator.l2_size is not None else max(
            l2_req, 1
        )
        e_l1_read = energy_model.sram_access(l1_capacity)
        e_l1_write = energy_model.sram_write(l1_capacity)
        e_l2_read = energy_model.sram_access(l2_capacity)
        e_l2_write = energy_model.sram_write(l2_capacity)
        noc_traffic = sum(l2_reads.values()) + top.egress_per_sweep * group_factor
        energy_breakdown = {
            "MAC": total_ops * energy_model.mac,
            "L1 read": sum(l1_reads.values()) * e_l1_read,
            "L1 write": sum(l1_writes.values()) * e_l1_write,
            "L2 read": sum(l2_reads.values()) * e_l2_read,
            "L2 write": sum(l2_writes.values()) * e_l2_write,
            "intermediate": (intermediate_reads * e_l1_read + intermediate_writes * e_l1_write),
            "NoC": noc_traffic * energy_model.noc_hop,
            "DRAM": (sum(dram_reads.values()) + sum(dram_writes.values()))
            * energy_model.dram,
        }

        # Off-chip roofline: DRAM must stream the layer's working set within
        # the runtime (only binding when `dram_bandwidth` is configured).
        if accelerator.dram_bandwidth is not None:
            dram_traffic = sum(dram_reads.values()) + sum(dram_writes.values())
            runtime = max(runtime, dram_traffic / accelerator.dram_bandwidth)

        utilization = min(
            1.0,
            total_ops
            / (runtime * accelerator.num_pes * accelerator.vector_width),
        )

    inc("engine.layers_analyzed")
    return LayerAnalysis(
        layer_name=layer.name,
        dataflow_name=dataflow.name,
        num_pes=accelerator.num_pes,
        runtime=runtime,
        total_ops=total_ops,
        utilization=utilization,
        level_stats=tuple(level_stats),
        l2_reads=l2_reads,
        l2_writes=l2_writes,
        l1_reads=l1_reads,
        l1_writes=l1_writes,
        intermediate_reads=intermediate_reads,
        intermediate_writes=intermediate_writes,
        dram_reads=dram_reads,
        dram_writes=dram_writes,
        l1_buffer_req=int(l1_req),
        l2_buffer_req=int(l2_req),
        intermediate_buffer_reqs=tuple(int(v) for v in intermediate_reqs),
        noc_bw_req_elems=noc_bw_req,
        noc_bw_req_gbps=noc_bw_req_gbps,
        reuse_factors=reuse_factors,
        max_reuse_factors=max_reuse_factors,
        energy_breakdown=energy_breakdown,
    )


def _sweep_multipliers(bound: BoundDataflow) -> List[float]:
    """How many times each level's sweep executes across the layer.

    Level 0 sweeps once; each deeper level sweeps once per step of every
    outer level, on every active sub-unit of every outer level.
    """
    multipliers = [1.0]
    running = 1.0
    for level in bound.levels[:-1]:
        running *= level.sweep_steps * level.avg_active
        multipliers.append(running)
    return multipliers


def _avg_step_change_ratio(parent_reuse: LevelReuse) -> Dict[str, float]:
    """Fraction of each tensor's chunk that changes per parent step.

    A child level's per-sweep initialization only needs to (re)distribute
    what its parent actually delivered that step; tensors stationary at
    the parent level stay resident in the child's buffers across sweeps.
    The ratio averages the parent's per-step fetch over the full chunk.
    """
    steps = parent_reuse.level.sweep_steps
    ratios: Dict[str, float] = {}
    for name, init_traffic in parent_reuse.init.traffic.items():
        full = init_traffic.fetch
        if full <= 0:
            ratios[name] = 0.0
            continue
        total = init_traffic.fetch + sum(
            cls.count * cls.traffic[name].fetch for cls in parent_reuse.classes
        )
        ratios[name] = min(1.0, (total / steps) / full)
    return ratios


def _analyze_level_performance(
    level: BoundLevel,
    reuse: LevelReuse,
    accelerator: Accelerator,
    t_inner: float,
    serial_init: bool = True,
    init_scale: "Optional[Dict[str, float]]" = None,
) -> LevelStats:
    """Fold one level's transition classes into a sweep runtime."""
    noc = accelerator.noc
    multicast = noc.multicast
    out_name = reuse.output_name

    def init_factor(name: str) -> float:
        if init_scale is None:
            return 1.0
        return init_scale.get(name, 1.0)

    spill = reuse.output_spatially_reduced and not accelerator.spatial_reduction

    ingress_sweep: Dict[str, float] = {}
    delivered_sweep: Dict[str, float] = {}
    for name, tensor_traffic in reuse.init.traffic.items():
        if name == out_name:
            continue
        factor = init_factor(name)
        ingress_sweep[name] = (
            tensor_traffic.unique if multicast else tensor_traffic.delivered
        ) * factor
        delivered_sweep[name] = tensor_traffic.delivered * factor

    init_ingress = sum(ingress_sweep.values())
    init_delay = noc.delay(int(math.ceil(init_ingress)))
    if serial_init:
        # Pipeline fill at the top level: nothing overlaps the first fetch.
        runtime = init_delay + t_inner
    else:
        # Inner levels are double-buffered against the level above: the
        # first distribution overlaps the previous outer step.
        runtime = max(init_delay, t_inner)
    compute_steps = 1.0
    total_steps = 1.0

    comm_volume = init_ingress

    egress_hw_factor = reuse.level.avg_active if spill else 1.0
    egress_total = reuse.egress_per_sweep * egress_hw_factor
    readback_total = reuse.psum_readback_per_sweep

    for cls in reuse.classes:
        ingress = ingress_volume(cls.traffic, out_name, multicast)
        egress = egress_volume(cls.traffic, out_name, spill) if cls.outputs_advance else 0.0
        readback = 0.0
        if cls.outputs_advance and readback_total > 0:
            readback = egress  # partial sums come back before accumulation
        ingress_delay = noc.delay(int(math.ceil(ingress + readback)))
        egress_delay = noc.delay(int(math.ceil(egress)))
        if accelerator.double_buffered:
            step_delay = max(ingress_delay, egress_delay, t_inner)
        else:
            # Without double buffering nothing overlaps: serialize.
            step_delay = ingress_delay + egress_delay + t_inner
        runtime += cls.count * step_delay
        if step_delay == t_inner:
            compute_steps += cls.count
        total_steps += cls.count
        comm_volume += cls.count * (ingress + readback + egress)
        for name, tensor_traffic in cls.traffic.items():
            if name == out_name:
                continue
            volume = tensor_traffic.unique if multicast else tensor_traffic.delivered
            ingress_sweep[name] = ingress_sweep.get(name, 0.0) + cls.count * volume
            delivered_sweep[name] = (
                delivered_sweep.get(name, 0.0) + cls.count * tensor_traffic.delivered
            )

    compute_fraction = compute_steps / total_steps
    bottleneck = "compute" if compute_fraction >= 0.5 else "communication"
    # Sustained bandwidth to keep communication hidden under compute:
    # total moved volume over the compute time of the whole sweep.
    egress_unaccounted = egress_total + readback_total - sum(
        cls.count * egress_volume(cls.traffic, out_name, spill)
        for cls in reuse.classes
        if cls.outputs_advance
    )
    peak_bw = (comm_volume + max(0.0, egress_unaccounted)) / max(
        total_steps * t_inner, 1.0
    )

    upstream_req = buffer_req(int(sum(reuse.unique_chunk_volumes.values())), accelerator)

    return LevelStats(
        index=level.index,
        runtime_sweep=runtime,
        compute_bound_fraction=compute_fraction,
        bottleneck=bottleneck,
        ingress_per_sweep=ingress_sweep,
        delivered_per_sweep=delivered_sweep,
        egress_per_sweep=egress_total,
        psum_readback_per_sweep=readback_total,
        upstream_buffer_req=upstream_req,
        peak_bw_elems_per_cycle=peak_bw,
    )


def analyze_network(
    network: Network,
    dataflow: Dataflow,
    accelerator: Accelerator,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    layers: Optional[List[str]] = None,
) -> NetworkAnalysis:
    """Analyze every (or the named) layer of a network under one dataflow."""
    reports = []
    for layer in network.layers:
        if layers is not None and layer.name not in layers:
            continue
        reports.append(analyze_layer(layer, dataflow, accelerator, energy_model))
    return NetworkAnalysis(
        network_name=network.name,
        dataflow_name=dataflow.name,
        layer_reports=tuple(reports),
    )
