"""The pruned design-space sweep (the paper's DSE tool, Section 5.2).

For every (PEs, bandwidth, dataflow-variant) triple the explorer:

1. prunes by lower-bound area/power *before* touching the cost model —
   if PEs + NoC alone exceed the budget, every buffer choice above them
   does too, so the whole subspace is skipped (the optimization behind
   the paper's 0.17M designs/second effective rate);
2. rejects, through the sound screens of :mod:`repro.screens`, points
   the sweep would discard anyway (unbindable, refuted, write-racy or
   over-budget mappings);
3. evaluates every surviving candidate through the batch-evaluation
   backend (:mod:`repro.exec`): memoized against previous sweeps and,
   for large miss sets, fanned out over worker processes — results are
   bit-identical to the serial loop, in the same order;
4. sizes L1/L2 exactly to the model's reported requirement and applies
   the area/power constraint to the resulting concrete design;
5. records the point and maintains throughput-, energy-, and
   EDP-optimized leaders plus the full valid set for Pareto analysis.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.dse.space import DesignPoint, DesignSpace
from repro.exec import AnalysisCache, BatchEvaluator, EvalOutcome, EvalPoint
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.area import DEFAULT_AREA_MODEL, AreaModel
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.lint.engine import static_errors  # noqa: F401 - traced by name (perfbench/ledger.py)
from repro.model.layer import Layer
from repro.screens import ScreenContext, ScreenRunner, equiv_quotient
from repro.util.pareto import pareto_front

#: One grid point that reaches the cost model: (tile label, dataflow,
#: the point's hardware).
_Candidate = Tuple[str, Dataflow, Accelerator]
#: A candidate with its enumeration index.
_Indexed = Tuple[int, _Candidate]


@dataclass(frozen=True)
class DSEStatistics:
    """Sweep statistics, the paper's Figure 13(c) table.

    ``pruned`` includes every screen's rejects (``static_rejects``,
    ``coverage_rejects``, ``comm_rejects``, ``capacity_rejects``; see
    :mod:`repro.screens`): points rejected without a cost-model run.
    ``cost_model_calls`` counts the points that needed a cost-model
    answer — memoized (``cache_hits``) or freshly evaluated (including
    evaluations that were rejected by binding) — so the lint pruning win
    stays measurable with the cache on. With ``symbolic_prune`` two more
    buckets appear: ``symbolic_rejects`` (points in hardware regions the
    abstract interpreter proved over-budget — they could never become
    valid designs) and ``bnb_pruned`` (points in regions whose interval
    bounds are dominated by the running incumbents on *all* objectives —
    they could never become an optimum). With ``equiv_prune``,
    ``equiv_replays`` counts grid points satisfied by replaying an
    equivalent candidate's outcome instead of a cost-model call. The
    sweep invariant checked by :func:`explore`::

        explored == space.size
        cost_model_calls + pruned + symbolic_rejects + bnb_pruned
            + equiv_replays == explored
        evaluated <= cost_model_calls  (failures are the difference)
    """

    explored: int
    evaluated: int
    valid: int
    pruned: int
    elapsed_seconds: float
    static_rejects: int = 0
    coverage_rejects: int = 0
    cost_model_calls: int = 0
    cache_hits: int = 0
    executor: str = "serial"
    eval_wall_seconds: float = 0.0
    #: Points inside hardware regions the symbolic branch-and-bound
    #: proved infeasible (interval lower-bound area/power over budget).
    symbolic_rejects: int = 0
    #: Points inside hardware regions dominated by the incumbents on
    #: every objective simultaneously (interval upper/lower bounds).
    bnb_pruned: int = 0
    #: Points the comm screen rejected (``comm_prune``).
    comm_rejects: int = 0
    #: Points answered by replaying an equivalence-class representative's
    #: outcome (``equiv_prune``): same canonical key at the same grid
    #: point, so the cost model's answer is provably identical.
    equiv_replays: int = 0
    #: Points the capacity screen rejected (``capacity_prune``).
    capacity_rejects: int = 0

    @property
    def effective_rate(self) -> float:
        """Explored designs per second (pruned subspaces included)."""
        return self.explored / self.elapsed_seconds if self.elapsed_seconds else 0.0


@dataclass(frozen=True)
class DSEResult:
    """All valid designs plus the per-objective optima."""

    points: Tuple[DesignPoint, ...]
    statistics: DSEStatistics
    throughput_optimal: Optional[DesignPoint]
    energy_optimal: Optional[DesignPoint]
    edp_optimal: Optional[DesignPoint]

    def pareto(self) -> List[DesignPoint]:
        """Throughput/energy Pareto front of the valid designs."""
        return pareto_front(
            list(self.points),
            objectives=[lambda p: -p.throughput, lambda p: p.energy],
        )


def explore(
    layer: Layer,
    space: DesignSpace,
    area_budget: float,
    power_budget: float,
    area_model: AreaModel = DEFAULT_AREA_MODEL,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    noc_latency: int = 2,
    static_lint: bool = True,
    verify_coverage: bool = False,
    executor: str = "auto",
    jobs: Optional[int] = None,
    cache: Union[bool, AnalysisCache, None] = True,
    symbolic_prune: bool = False,
    symbolic_block: int = 8,
    spatial_reduction: bool = True,
    noc_multicast: bool = True,
    comm_prune: bool = False,
    equiv_prune: bool = False,
    capacity_prune: bool = False,
) -> DSEResult:
    """Sweep ``space`` for ``layer`` under the given budgets.

    Before any cost-model call, each grid point runs through the sound
    screens of :mod:`repro.screens`, in registry order: ``static_lint``
    (on by default), ``verify_coverage``, ``comm_prune`` (only on
    hardware without ``spatial_reduction``) and ``capacity_prune``. Each
    rejects only points the sweep would discard anyway, so the valid
    set, Pareto front and optima are bit-identical with or without it;
    the argument for each is on its registry entry. Rejects count into
    ``pruned`` and into the screen's own statistics field.

    ``executor``/``jobs``/``cache`` configure the batch-evaluation
    backend (:mod:`repro.exec`); every combination returns bit-identical
    results, so they are pure performance knobs. Grid-shaped sweeps
    auto-select the ``vector`` executor, which evaluates a whole
    hardware grid per (layer, dataflow) through the NumPy engine
    (:mod:`repro.vector`); the screens compose with it by shrinking the
    groups before they reach the backend.

    With ``equiv_prune`` the mapping axis is quotiented by
    :func:`repro.screens.equiv_quotient`: at every (PEs, bandwidth) grid
    point only one representative per equivalence class pays a
    cost-model call, and the other members replay its outcome
    (``equiv_replays``), provably equal to what the cost model would
    have returned.

    With ``symbolic_prune`` the surviving representatives go through a
    sound branch-and-bound over the hardware grid: candidates are
    grouped into regions of up to ``symbolic_block`` PE counts per
    (variant, bandwidth), each region is abstract-interpreted once with
    the PE count as an interval (:mod:`repro.absint`), and the region is
    discarded without any cost-model call when either (a) its interval
    *lower-bound* area/power already busts the budget
    (``symbolic_rejects``) or (b) its interval bounds are beaten by the
    running incumbents on throughput, energy, *and* EDP simultaneously
    (``bnb_pruned``). Because the interval bounds enclose every concrete
    outcome in the region (and dominance is strict), the three reported
    optima are bit-identical to the exhaustive sweep; only the Pareto
    set may lose dominated interior points. Regions the abstract engine
    cannot certify are never pruned. A replay takes its
    representative's fate.

    ``spatial_reduction`` and ``noc_multicast`` set the communication
    capabilities of every swept accelerator (the Table 5 switches).
    """
    start = time.perf_counter()
    explored = pruned = 0

    def size(
        accelerator: Accelerator, l1_req: int, l2_req: int
    ) -> Optional[Tuple[Accelerator, float, float]]:
        """The requirement-sized design, its area and power; ``None`` over budget."""
        design = replace(accelerator, l1_size=max(l1_req, 1), l2_size=max(l2_req, 1))
        area = area_model.area(design)
        power = area_model.power(design)
        if area > area_budget or power > power_budget:
            return None
        return design, area, power

    screens = ScreenRunner(
        "dse",
        ScreenContext(
            layer,
            reduction_support=spatial_reduction,
            over_budget=lambda accelerator, l1, l2: size(accelerator, l1, l2) is None,
        ),
        {
            "static_lint": static_lint,
            "verify_coverage": verify_coverage,
            "comm_prune": comm_prune,
            "capacity_prune": capacity_prune,
        },
    )

    # ------------------------------------------------------------------
    # Phase 1 — enumerate: classify every grid point as budget-pruned,
    # rejected by a screen, or a candidate for the cost model.
    # ------------------------------------------------------------------
    candidates: List[_Candidate] = []
    with obs.span("dse.enumerate"):
        min_bw = min(space.noc_bandwidths)
        for num_pes in space.pe_counts:
            # Prune the whole PE row if even the cheapest NoC busts the budget.
            if (
                area_model.min_area(num_pes, min_bw) > area_budget
                or area_model.min_power(num_pes, min_bw) > power_budget
            ):
                pruned += len(space.noc_bandwidths) * len(space.dataflow_variants)
                explored += len(space.noc_bandwidths) * len(space.dataflow_variants)
                continue
            for bandwidth in space.noc_bandwidths:
                if (
                    area_model.min_area(num_pes, bandwidth) > area_budget
                    or area_model.min_power(num_pes, bandwidth) > power_budget
                ):
                    pruned += len(space.dataflow_variants)
                    explored += len(space.dataflow_variants)
                    continue
                accelerator = Accelerator(
                    num_pes=num_pes,
                    noc=NoC(bandwidth=bandwidth, avg_latency=noc_latency, multicast=noc_multicast),
                    spatial_reduction=spatial_reduction,
                )
                for label, dataflow in space.dataflow_variants:
                    explored += 1
                    if screens.reject((label, dataflow.name), dataflow, accelerator):
                        pruned += 1
                    else:
                        candidates.append((label, dataflow, accelerator))

    def fold_point(candidate: _Candidate, report) -> Optional[DesignPoint]:
        """Size the buffers, apply the budget, build the design point."""
        label, dataflow, accelerator = candidate
        sized = size(accelerator, report.l1_buffer_req, report.l2_buffer_req)
        if sized is None:
            return None
        design, area, power = sized
        return DesignPoint(
            num_pes=design.num_pes,
            noc_bandwidth=design.noc.bandwidth,
            dataflow_name=dataflow.name,
            tile_label=label,
            l1_size=design.l1_size,
            l2_size=design.l2_size,
            area=area,
            power=power,
            throughput=report.throughput,
            runtime=report.runtime,
            energy=report.energy_total,
        )

    # ------------------------------------------------------------------
    # Phase 2 — evaluate one representative per equivalence class
    # through the batch backend, either exhaustively or region-by-region
    # under the symbolic branch-and-bound, then replay the twins. Valid
    # points are collected with their original enumeration index so the
    # final fold order is identical either way.
    # ------------------------------------------------------------------
    replay_of: Dict[int, int] = {}
    if equiv_prune:
        replay_of = equiv_quotient(
            "dse",
            layer,
            (
                (dataflow, acc.num_pes, (acc.num_pes, acc.noc.bandwidth))
                for _, dataflow, acc in candidates
            ),
        )
    representatives = [
        (index, candidate)
        for index, candidate in enumerate(candidates)
        if index not in replay_of
    ]
    evaluator = BatchEvaluator(executor=executor, jobs=jobs, cache=cache)
    indexed_points: List[Tuple[int, DesignPoint]] = []
    outcome_at: Dict[int, EvalOutcome] = {}
    fate: Dict[int, str] = {}  # skipped representative -> its statistics field
    evaluated = calls_submitted = cache_hits = 0
    executor_name = "serial"
    eval_wall = 0.0
    # The running incumbents the branch-and-bound tests regions against.
    interim: Dict[str, Optional[DesignPoint]] = {"throughput": None, "energy": None, "edp": None}

    def evaluate(indexed: List[_Indexed]) -> None:
        nonlocal evaluated, calls_submitted, cache_hits, executor_name, eval_wall
        batch = evaluator.evaluate(
            EvalPoint(
                layer=layer, dataflow=dataflow, accelerator=accelerator, energy_model=energy_model
            )
            for _, (_, dataflow, accelerator) in indexed
        )
        calls_submitted += batch.stats.submitted
        cache_hits += batch.stats.cache_hits
        executor_name = batch.stats.executor
        eval_wall += batch.stats.wall_seconds
        with obs.span("dse.fold"):
            for (index, candidate), outcome in zip(indexed, batch):
                outcome_at[index] = outcome
                if not outcome.ok:
                    continue
                evaluated += 1
                point = fold_point(candidate, outcome.report)
                if point is not None:
                    indexed_points.append((index, point))
                    _update_leaders(interim, point)

    if not symbolic_prune:
        with obs.span("dse.evaluate", candidates=len(representatives)):
            evaluate(representatives)
    else:
        regions = _pe_regions(representatives, symbolic_block)
        with obs.span("dse.bnb", regions=len(regions)):
            for region in regions:
                verdict = _region_bounds(
                    layer,
                    region,
                    noc_latency,
                    area_model,
                    energy_model,
                    area_budget,
                    power_budget,
                )
                if verdict is _INFEASIBLE:
                    fate.update((index, "symbolic_rejects") for index, _ in region)
                elif verdict is not None and _dominated(verdict, interim):
                    fate.update((index, "bnb_pruned") for index, _ in region)
                else:
                    evaluate(region)

    skipped = {"symbolic_rejects": 0, "bnb_pruned": 0, "equiv_replays": 0}
    with obs.span("dse.fold"):
        for index, representative in replay_of.items():
            skipped[fate.get(representative, "equiv_replays")] += 1
            outcome = outcome_at.get(representative)
            if outcome is not None and outcome.ok:
                point = fold_point(candidates[index], outcome.report)
                if point is not None:
                    indexed_points.append((index, point))
    for field in fate.values():
        skipped[field] += 1

    # ------------------------------------------------------------------
    # Phase 3 — fold the surviving valid points in their original
    # enumeration order: the leaders are first-achiever-stable, so this
    # reproduces the exhaustive sweep's optima exactly.
    # ------------------------------------------------------------------
    indexed_points.sort(key=lambda pair: pair[0])
    points: List[DesignPoint] = []
    best: Dict[str, Optional[DesignPoint]] = {"throughput": None, "energy": None, "edp": None}
    for _, point in indexed_points:
        points.append(point)
        _update_leaders(best, point)

    # The ExploreResult invariant, explicit: every grid point is
    # accounted for exactly once — budget-pruned, rejected by a screen,
    # symbolically discarded, replayed, or answered by the cost model
    # (evaluated successfully or failed).
    rejects = screens.finish()
    failures = calls_submitted - evaluated
    budget_pruned = pruned - sum(rejects.values())
    assert explored == space.size, (
        f"enumeration drift: walked {explored} of {space.size} grid points"
    )
    assert evaluated + failures + pruned + sum(skipped.values()) == space.size, (
        f"statistics drift: evaluated={evaluated} failures={failures} "
        f"budget_pruned={budget_pruned} {rejects} {skipped} "
        f"do not partition the {space.size}-point grid"
    )

    elapsed = time.perf_counter() - start
    obs.inc("dse.points_explored", explored)
    obs.inc("dse.mappings_evaluated", evaluated)
    obs.inc("dse.pruned_by_symbolic", skipped["symbolic_rejects"] + skipped["bnb_pruned"])
    statistics = DSEStatistics(
        explored=explored,
        evaluated=evaluated,
        valid=len(points),
        pruned=pruned,
        elapsed_seconds=elapsed,
        cost_model_calls=calls_submitted,
        cache_hits=cache_hits,
        executor=executor_name,
        eval_wall_seconds=eval_wall,
        **rejects,
        **skipped,
    )
    return DSEResult(
        points=tuple(points),
        statistics=statistics,
        throughput_optimal=best["throughput"],
        energy_optimal=best["energy"],
        edp_optimal=best["edp"],
    )


#: Region verdict sentinel: every point in the region is over budget.
_INFEASIBLE = object()


def _pe_regions(candidates: List[_Indexed], block: int) -> List[List[_Indexed]]:
    """Group indexed candidates into branch-and-bound regions.

    A region holds up to ``block`` candidates that share a bandwidth and
    a dataflow variant and differ only in PE count (the enumeration is
    PE-major, so each region's PE counts are increasing). One abstract
    interpretation with the PE count as an interval then bounds every
    candidate in the region at once. Regions come back ordered by their
    first candidate's enumeration index, so incumbents grow in a
    deterministic order.
    """
    grouped: Dict[Tuple[int, str, int], List[List[_Indexed]]] = {}
    for index, candidate in candidates:
        label, dataflow, accelerator = candidate
        key = (accelerator.noc.bandwidth, label, id(dataflow))
        blocks = grouped.setdefault(key, [])
        if not blocks or len(blocks[-1]) >= max(1, block):
            blocks.append([])
        blocks[-1].append((index, candidate))
    regions = [region for blocks in grouped.values() for region in blocks]
    regions.sort(key=lambda region: region[0][0])
    return regions


def _region_bounds(
    layer: Layer,
    region: List[_Indexed],
    noc_latency: int,
    area_model: AreaModel,
    energy_model: EnergyModel,
    area_budget: float,
    power_budget: float,
):
    """Abstract-interpret one region; classify it or return its bounds.

    Returns ``_INFEASIBLE`` when the interval lower-bound area/power of
    the cheapest configuration in the region already busts the budget
    (so no point inside can pass the phase-3 check), the region's
    :class:`~repro.absint.engine.AbstractAnalysis` when bounds are
    available for the dominance test, or ``None`` when the abstract
    engine cannot certify the region (it is then evaluated in full —
    soundness over speed).
    """
    from repro.absint.engine import HardwareBox, abstract_analyze
    from repro.absint.interval import IntervalInt
    from repro.absint.shapes import ShapeBox

    pes = [accelerator.num_pes for _, (_, _, accelerator) in region]
    _, dataflow, first = region[0][1]
    bandwidth = first.noc.bandwidth
    try:
        analysis = abstract_analyze(
            ShapeBox.from_layer(layer),
            dataflow,
            HardwareBox(
                num_pes=IntervalInt(min(pes), max(pes)),
                bandwidth=IntervalInt.point(bandwidth),
                avg_latency=noc_latency,
            ),
            energy_model=energy_model,
        )
    except Exception:
        return None
    if analysis.caveats:
        return None  # partial binding failures: bounds cover only a subfamily
    cheapest = Accelerator(
        num_pes=min(pes),
        l1_size=max(analysis.l1_buffer_req.lo, 1),
        l2_size=max(analysis.l2_buffer_req.lo, 1),
        noc=NoC(bandwidth=bandwidth, avg_latency=noc_latency),
    )
    if (
        area_model.area(cheapest) > area_budget
        or area_model.power(cheapest) > power_budget
    ):
        return _INFEASIBLE
    return analysis


def _dominated(analysis, interim: dict) -> bool:
    """Whether the incumbents beat the whole region on every objective.

    Strict inequalities keep first-achiever tie-breaking intact: a
    region containing a point that merely *ties* an incumbent is still
    evaluated, so the final optima match the exhaustive sweep exactly.
    """
    best_tp = interim["throughput"]
    best_en = interim["energy"]
    best_edp = interim["edp"]
    if best_tp is None or best_en is None or best_edp is None:
        return False
    return (
        analysis.throughput.hi < best_tp.throughput
        and analysis.energy_total.lo > best_en.energy
        and analysis.edp.lo > best_edp.edp
    )


def _update_leaders(best: dict, point: DesignPoint) -> None:
    if best["throughput"] is None or point.throughput > best["throughput"].throughput:
        best["throughput"] = point
    if best["energy"] is None or point.energy < best["energy"].energy:
        best["energy"] = point
    if best["edp"] is None or point.edp < best["edp"].edp:
        best["edp"] = point
