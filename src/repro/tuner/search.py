"""Search strategies for the dataflow auto-tuner."""

from __future__ import annotations

import time
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.engines.analysis import LayerAnalysis
from repro.errors import BindingError, DataflowError
from repro.exec import AnalysisCache, BatchEvaluator, BatchKeyer, EvalPoint
from repro.hardware.accelerator import Accelerator
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.lint.engine import static_errors  # noqa: F401 - traced by name (perfbench/ledger.py)
from repro.model.layer import Layer
from repro.model.network import Network
from repro.screens import ScreenContext, ScreenRunner, equiv_quotient
from repro.tuner.templates import CandidateSpec, enumerate_candidates

#: Objectives: report -> score to minimize.
OBJECTIVES: Dict[str, Callable[[LayerAnalysis], float]] = {
    "runtime": lambda report: report.runtime,
    "energy": lambda report: report.energy_total,
    "edp": lambda report: report.edp,
}


@dataclass(frozen=True)
class ScoredCandidate:
    """One evaluated candidate."""

    spec: CandidateSpec
    dataflow: Dataflow
    report: LayerAnalysis
    score: float


@dataclass(frozen=True)
class TunerResult:
    """Outcome of tuning one layer."""

    layer_name: str
    objective: str
    best: ScoredCandidate
    top: Tuple[ScoredCandidate, ...]
    evaluated: int
    rejected: int
    #: How many of ``rejected`` each screen of :mod:`repro.screens`
    #: caught before any cost-model evaluation: lint (``static_lint``),
    #: ``verify_coverage``, ``symbolic_prune``, ``comm_prune`` and
    #: ``capacity_prune`` (``symbolic_prune`` reads the same exact buffer
    #: requirements, so beside ``capacity_prune`` it rejects nothing).
    statically_rejected: int = 0
    coverage_rejected: int = 0
    symbolic_rejected: int = 0
    comm_rejected: int = 0
    #: How many candidates were scored by replaying an equivalent
    #: candidate's outcome instead of a cost-model call (``equiv_prune``).
    equiv_replayed: int = 0
    capacity_rejected: int = 0
    #: How many cost-model answers came from the memoization cache
    #: (free on tuner restarts and overlapping candidate grids).
    cache_hits: int = 0
    #: Points that needed a cost-model answer, memoized or fresh.
    cost_model_calls: int = 0
    #: Wall-clock seconds the whole tuning run took.
    elapsed_seconds: float = 0.0

    @property
    def best_dataflow(self) -> Dataflow:
        return self.best.dataflow

    @property
    def best_report(self) -> LayerAnalysis:
        return self.best.report


#: One candidate that passed the screens: its spec, mapping and cache key.
_Runnable = Tuple[CandidateSpec, Dataflow, str]


def _screened_candidates(
    specs: List[CandidateSpec],
    layer: Layer,
    accelerator: Accelerator,
    energy_model: EnergyModel,
    context: ScreenContext,
    enabled: Dict[str, bool],
    equiv_prune: bool,
) -> Tuple[List[_Runnable], Dict[int, int], int, Dict[str, int]]:
    """Phase 1 of :func:`tune_layer`: the candidates that pass the screens.

    Returns them, the equivalence quotient's replay map over them (empty
    without ``equiv_prune``), how many candidates were rejected and the
    rejects per screen statistics field. Each candidate is keyed once
    and its cache key names its screen variant, so every screen computes
    one fact per cache-key class (the soundness argument is in
    :mod:`repro.screens`); the lint screen and the quotient read the
    keyer's canonical forms. The keyer is dropped on return, so the cost
    model reuses its memory.
    """
    with obs.span("tuner.enumerate", specs=len(specs)):
        rejected = 0
        built: List[Tuple[CandidateSpec, Dataflow]] = []
        for spec in specs:
            try:
                built.append((spec, spec.build()))
            except (BindingError, DataflowError):
                rejected += 1
        keyer = BatchKeyer()
        keys = keyer.keys((layer, dataflow, accelerator, energy_model) for _, dataflow in built)
        screens = ScreenRunner("tuner", replace(context, keyer=keyer), enabled)
        runnable: List[_Runnable] = []
        for (spec, dataflow), key in zip(built, keys):
            if screens.reject(key, dataflow, accelerator):
                rejected += 1
                continue
            runnable.append((spec, dataflow, key))

    replay_of: Dict[int, int] = {}
    if equiv_prune:
        replay_of = equiv_quotient(
            "tuner",
            layer,
            ((dataflow, accelerator.num_pes, None) for _, dataflow, _ in runnable),
            keyer,
        )
    return runnable, replay_of, rejected, screens.finish()


def tune_layer(
    layer: Layer,
    accelerator: Accelerator,
    objective: str = "runtime",
    candidates: Optional[Iterable[CandidateSpec]] = None,
    strategy: str = "exhaustive",
    budget: int = 200,
    max_l1_bytes: Optional[int] = None,
    max_l2_bytes: Optional[int] = None,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    top_k: int = 5,
    seed: int = 0,
    static_lint: bool = True,
    verify_coverage: bool = False,
    symbolic_prune: bool = False,
    comm_prune: bool = False,
    equiv_prune: bool = False,
    capacity_prune: bool = False,
    executor: str = "auto",
    jobs: Optional[int] = None,
    cache: Union[bool, AnalysisCache, None] = True,
) -> TunerResult:
    """Find the best dataflow for ``layer`` on ``accelerator``.

    ``strategy`` is ``"exhaustive"`` (walk the whole candidate grid) or
    ``"random"`` (sample ``budget`` candidates uniformly). Candidates
    whose buffer requirements exceed ``max_l1_bytes``/``max_l2_bytes``
    or that fail to bind are rejected.

    Before any cost-model call, each candidate runs through the sound
    screens of :mod:`repro.screens`, in registry order: ``static_lint``
    (on by default), ``verify_coverage``, ``comm_prune`` (only on an
    accelerator without ``reduction_support``), then ``capacity_prune``
    and ``symbolic_prune`` (both only with a buffer cap; both check it
    against the capacity analyzer's exact L1/L2 requirements). Each
    rejects only candidates the tuner would reject anyway, so the winner
    is unchanged; the argument for each is on its registry entry. Every
    candidate is keyed once, before the screens, and each screen's fact
    is computed once per cache-key class (one capacity fact per class
    when both buffer screens are on); each candidate still gets its own
    decision and reject credit.

    With ``equiv_prune`` the survivors are quotiented by
    :func:`repro.screens.equiv_quotient`, which reuses the canonical
    forms of the keying pass: only one representative per equivalence
    class pays a cost-model call, and the rest replay its report with
    their own mapping name restored (``equiv_replayed``).

    Surviving candidates are scored through the batch-evaluation backend
    (:mod:`repro.exec`), which reuses their keys: ``executor``/``jobs``/
    ``cache`` are pure performance knobs — every combination scores the
    identical set. ``executor="vector"`` gains nothing here: every
    mapping is its own vector group, smaller than
    :data:`~repro.exec.backend.VECTOR_MIN_GROUP`, so it falls back to the
    scalar engines point by point (ROADMAP item 3).
    """
    start = time.perf_counter()
    try:
        score_fn = OBJECTIVES[objective]
    except KeyError:
        raise KeyError(f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}")

    specs = list(candidates) if candidates is not None else list(enumerate_candidates())
    if strategy == "random":
        rng = random.Random(seed)
        if len(specs) > budget:
            specs = rng.sample(specs, budget)
    elif strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")

    def over_caps(accelerator: Accelerator, l1_req: int, l2_req: int) -> bool:
        return (max_l1_bytes is not None and l1_req > max_l1_bytes) or (
            max_l2_bytes is not None and l2_req > max_l2_bytes
        )

    capped = max_l1_bytes is not None or max_l2_bytes is not None
    context = ScreenContext(
        layer,
        reduction_support=accelerator.reduction_support,
        over_budget=over_caps if capped else None,
    )
    enabled = {
        "static_lint": static_lint,
        "verify_coverage": verify_coverage,
        "comm_prune": comm_prune,
        "capacity_prune": capacity_prune,
        "symbolic_prune": symbolic_prune,
    }

    # Phase 1 — enumerate: build, key, screen and quotient the candidates.
    runnable, replay_of, rejected, screen_rejects = _screened_candidates(
        specs, layer, accelerator, energy_model, context, enabled, equiv_prune
    )
    eval_indices = [index for index in range(len(runnable)) if index not in replay_of]

    # Phase 2 — evaluate through the backend (memoized, parallelizable).
    evaluator = BatchEvaluator(executor=executor, jobs=jobs, cache=cache)
    with obs.span("tuner.evaluate", candidates=len(eval_indices)):
        batch = evaluator.evaluate(
            EvalPoint(
                layer=layer,
                dataflow=runnable[index][1],
                accelerator=accelerator,
                energy_model=energy_model,
                known_key=runnable[index][2],
            )
            for index in eval_indices
        )
    outcome_at = dict(zip(eval_indices, batch))

    # Phase 3 — filter and score, in enumeration order.
    with obs.span("tuner.score"):
        scored: List[ScoredCandidate] = []
        for index, (spec, dataflow, _) in enumerate(runnable):
            outcome = outcome_at.get(index)
            if outcome is None:
                outcome = outcome_at[replay_of[index]]
                if outcome.ok and outcome.dataflow_name != dataflow.name:
                    outcome = outcome.renamed(dataflow.name)
            if not outcome.ok:
                rejected += 1
                continue
            report = outcome.report
            if over_caps(accelerator, report.l1_buffer_req, report.l2_buffer_req):
                rejected += 1
                continue
            scored.append(
                ScoredCandidate(spec=spec, dataflow=dataflow, report=report, score=score_fn(report))
            )
        if not scored:
            raise DataflowError(f"no tuner candidate is feasible for layer {layer.name!r}")
        scored.sort(key=lambda candidate: candidate.score)
    obs.inc("tuner.candidates_evaluated", len(scored))
    return TunerResult(
        layer_name=layer.name,
        objective=objective,
        best=scored[0],
        top=tuple(scored[:top_k]),
        evaluated=len(scored),
        rejected=rejected,
        equiv_replayed=len(replay_of),
        cache_hits=batch.stats.cache_hits,
        cost_model_calls=batch.stats.submitted,
        elapsed_seconds=time.perf_counter() - start,
        **screen_rejects,
    )


def tune_network(
    network: Network,
    accelerator: Accelerator,
    objective: str = "runtime",
    **kwargs,
) -> Dict[str, TunerResult]:
    """Tune every layer of a network independently."""
    return {
        layer.name: tune_layer(layer, accelerator, objective, **kwargs)
        for layer in network.layers
    }
