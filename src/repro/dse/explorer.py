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
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True)
class DSEStatistics:
    """Sweep statistics, the paper's Figure 13(c) table.

    ``pruned`` includes every screen's rejects (``static_rejects``,
    ``coverage_rejects``, ``comm_rejects``, ``capacity_rejects``; see
    :mod:`repro.screens`): points rejected without a cost-model run.
    ``cost_model_calls`` counts the points that needed a cost-model
    answer — memoized (``cache_hits``) or freshly evaluated (including
    evaluations that were rejected by binding) — so the lint pruning win
    stays measurable with the cache on. With ``equiv_prune``,
    ``equiv_replays`` counts grid points satisfied by replaying an
    equivalent candidate's outcome instead of a cost-model call. The
    sweep invariant checked by :func:`explore`::

        explored == space.size
        cost_model_calls + pruned + equiv_replays == explored
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
    #: Always 0: no code sets them. The dse-grid digest of
    #: ``perfbench/inproc.py`` reads both with ``getattr``, so deleting
    #: them would fail every dse-grid op; they go when the benchmark
    #: drops them from its digest.
    symbolic_rejects: int = 0
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

    @classmethod
    def from_points(
        cls, points: Sequence[DesignPoint], statistics: DSEStatistics
    ) -> "DSEResult":
        """The result of ``points`` (in enumeration order) with their
        first-achiever optima: ``max``/``min`` keep the first of equal
        values, so ties resolve as a sequential sweep would."""
        return cls(
            points=tuple(points),
            statistics=statistics,
            throughput_optimal=max(points, key=attrgetter("throughput"), default=None),
            energy_optimal=min(points, key=attrgetter("energy"), default=None),
            edp_optimal=min(points, key=attrgetter("edp"), default=None),
        )

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

    ``spatial_reduction`` and ``noc_multicast`` set the communication
    capabilities of every swept accelerator (the Table 5 switches).
    """
    start = time.perf_counter()
    explored = pruned = 0

    def size(
        num_pes: int, bandwidth: int, l1_req: int, l2_req: int
    ) -> Optional[Tuple[int, int, float, float]]:
        """The requirement-sized L1/L2 bytes, area and power; ``None``
        over budget."""
        l1_size = max(l1_req, 1)
        l2_size = max(l2_req, 1)
        area = area_model.area_of(num_pes, bandwidth, l1_size, l2_size)
        power = area_model.power_of(num_pes, bandwidth, l1_size, l2_size)
        if area > area_budget or power > power_budget:
            return None
        return l1_size, l2_size, area, power

    screens = ScreenRunner(
        "dse",
        ScreenContext(
            layer,
            reduction_support=spatial_reduction,
            over_budget=lambda accelerator, l1, l2: (
                size(accelerator.num_pes, accelerator.noc.bandwidth, l1, l2) is None
            ),
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

    # ------------------------------------------------------------------
    # Phase 2 — evaluate one representative per equivalence class in one
    # batch; phase 3 replays the twins from their representatives.
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
    with obs.span("dse.evaluate", candidates=len(representatives)):
        batch = evaluator.evaluate(
            EvalPoint(
                layer=layer, dataflow=dataflow, accelerator=accelerator, energy_model=energy_model
            )
            for _, (_, dataflow, accelerator) in representatives
        )

    # ------------------------------------------------------------------
    # Phase 3 — fold every answered point in enumeration order from its
    # outcome's figures (a vector lane's report is never built): size the
    # buffers, apply the budget, build the design point. The leaders are
    # first-achiever-stable, so this reproduces the exhaustive sweep's
    # optima exactly.
    # ------------------------------------------------------------------
    points: List[DesignPoint] = []
    with obs.span("dse.fold"):
        outcome_at: List[Optional[EvalOutcome]] = [None] * len(candidates)
        for (index, _), outcome in zip(representatives, batch):
            outcome_at[index] = outcome
        for index, representative in replay_of.items():
            outcome_at[index] = outcome_at[representative]
        for (label, dataflow, accelerator), outcome in zip(candidates, outcome_at):
            assert outcome is not None
            if not outcome.ok:
                continue
            runtime, throughput, energy, l1_req, l2_req = outcome.figures
            num_pes = accelerator.num_pes
            bandwidth = accelerator.noc.bandwidth
            sized = size(num_pes, bandwidth, l1_req, l2_req)
            if sized is None:
                continue
            l1_size, l2_size, area, power = sized
            points.append(
                DesignPoint(
                    num_pes=num_pes,
                    noc_bandwidth=bandwidth,
                    dataflow_name=dataflow.name,
                    tile_label=label,
                    l1_size=l1_size,
                    l2_size=l2_size,
                    area=area,
                    power=power,
                    throughput=throughput,
                    runtime=runtime,
                    energy=energy,
                )
            )

    # The ExploreResult invariant, explicit: every grid point is
    # accounted for exactly once — budget-pruned, rejected by a screen,
    # replayed, or answered by the cost model (evaluated successfully or
    # failed).
    rejects = screens.finish()
    failures = batch.stats.failures
    evaluated = batch.stats.submitted - failures
    equiv_replays = len(replay_of)
    budget_pruned = pruned - sum(rejects.values())
    assert explored == space.size, (
        f"enumeration drift: walked {explored} of {space.size} grid points"
    )
    assert evaluated + failures + pruned + equiv_replays == space.size, (
        f"statistics drift: evaluated={evaluated} failures={failures} "
        f"budget_pruned={budget_pruned} {rejects} equiv_replays={equiv_replays} "
        f"do not partition the {space.size}-point grid"
    )

    elapsed = time.perf_counter() - start
    obs.inc("dse.points_explored", explored)
    obs.inc("dse.mappings_evaluated", evaluated)
    statistics = DSEStatistics(
        explored=explored,
        evaluated=evaluated,
        valid=len(points),
        pruned=pruned,
        elapsed_seconds=elapsed,
        cost_model_calls=batch.stats.submitted,
        cache_hits=batch.stats.cache_hits,
        executor=batch.stats.executor,
        eval_wall_seconds=batch.stats.wall_seconds,
        equiv_replays=equiv_replays,
        **rejects,
    )
    return DSEResult.from_points(points, statistics)
