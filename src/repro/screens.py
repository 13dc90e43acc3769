"""The ordered registry of sound screens that run before the cost model.

MAESTRO's DSE tool gets its designs/s by rejecting invalid subspaces
before the cost model runs (Section 5.2). Every such screen lives in
:data:`SCREENS`, in the order :func:`repro.dse.explore` and
:func:`repro.tuner.tune_layer` apply it: lint, verify, comm, capacity,
then symbolic (tuner only: it reads the capacity screen's exact
requirements). A rejected candidate is credited to the first screen
that rejects it. A screen with no statistics field in a scope
(:meth:`Option.field`) has no keyword or CLI flag there.

Each :class:`Screen` computes one *fact* per mapping variant (per
variant and PE count for the monotone buffer screens) and makes a cheap
per-point decision from it on the point's
:class:`~repro.hardware.accelerator.Accelerator`; screens with the same
fact function share it. A :class:`ScreenRunner` owns the order, the
memo of facts, the ``screen.<name>`` span around each fact, the
``{dse,tuner}.pruned_by_<name>`` counters, and the one soundness catch:
an analyzer that raises never rejects. The candidate is kept and counted
under ``screen.uncertified.<name>``.

Every screen is sound: it rejects only candidates whose cost-model
answer the caller would throw away, so the valid set, the Pareto front
and every optimum are bit-identical with or without it. The argument
for each screen is written once, above its entry.

Points that name the same *variant* share each screen's fact. The
explorer names a variant by its tile label and mapping name. The tuner
names each candidate by its cache key (:mod:`repro.exec.cache`), so a
fact is computed once per cache-key class and every member still gets
its own decision and its own reject credit. That is sound because:

- equal cache keys mean bit-identical cost-model outcomes: that is the
  cache's own contract, which ``verify --check equiv`` enforces by
  replaying each mapping's canonical twin and its certified transposed
  twin;
- the same check compares the lint, verify, comm and capacity facts of
  each mapping with those of both twins, so a class shares each
  screen's decision as well as its outcome (0 mismatches over the zoo
  × tuner grid at 64 and 256 PEs);
- fallback forms, which nothing is proven about, and mappings whose
  cluster hierarchy exceeds the PE count carry the mapping name in
  their key, so they stay singletons.

The equivalence quotient (:func:`equiv_quotient`) is not a screen: it
rejects nothing, it lets one representative per equivalence class pay
the cost-model call for its twins.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.errors import DataflowError
from repro.exec.cache import BatchKeyer
from repro.hardware.accelerator import Accelerator
from repro.model.layer import Layer

_LOG = logging.getLogger(__name__)

#: The caller's own post-evaluation buffer filter: given a point's
#: hardware and raw (L1, L2) requirements, whether the point is thrown
#: away. The capacity and symbolic screens pass their certified
#: requirements to it, so they decide exactly what it decides.
BufferFilter = Callable[[Accelerator, int, int], bool]


@dataclass(frozen=True)
class ScreenContext:
    """What every screen of one ``explore``/``tune_layer`` run reads."""

    layer: Layer
    #: Whether the swept hardware has spatial reduction.
    reduction_support: bool
    #: The caller's buffer filter, or ``None`` when it checks no buffers.
    over_budget: Optional[BufferFilter]


@dataclass(frozen=True)
class Option:
    """One pruning option: its keyword, CLI flag and statistics fields."""

    name: str
    #: The ``explore``/``tune_layer`` keyword (and serve field) that
    #: enables it.
    keyword: str
    #: The ``dse``/``tune`` flag that enables it; ``None`` for the one
    #: option on by default, ``static_lint``.
    flag: Optional[str]
    help: str
    #: Its count in :class:`~repro.dse.explorer.DSEStatistics`, or
    #: ``None`` where the explorer has no such screen.
    dse_field: Optional[str]
    #: Its count in :class:`~repro.tuner.search.TunerResult`.
    tuner_field: str

    def field(self, scope: str) -> Optional[str]:
        """The statistics field in ``scope`` (``"dse"`` or ``"tuner"``)."""
        return self.dse_field if scope == "dse" else self.tuner_field


@dataclass(frozen=True)
class Screen(Option):
    """A sound screen: a per-variant fact and a per-point decision."""

    #: ``(dataflow, accelerator, context) -> fact``; may raise, which
    #: leaves the variant uncertified.
    fact: Callable[[Dataflow, Accelerator, ScreenContext], Any]
    #: ``(fact, accelerator, context) -> reject?`` on one point.
    rejects: Callable[[Any, Accelerator, ScreenContext], bool]
    #: Whether the screen applies to a run at all.
    when: Callable[[ScreenContext], bool] = lambda ctx: True
    #: The fact depends on the PE count, and a reject at (P PEs, B
    #: bandwidth) implies a reject at every point with more PEs and at
    #: least as much bandwidth.
    monotone: bool = False


def _lint_fact(
    dataflow: Dataflow, accelerator: Accelerator, context: ScreenContext
) -> Optional[int]:
    """PEs the mapping needs, or ``None`` when it can never bind on the layer."""
    from repro.lint.engine import required_pes, static_errors

    try:
        needed = required_pes(dataflow, context.layer)
    except DataflowError:
        return None
    return None if static_errors(dataflow, context.layer) else needed


def _verify_fact(dataflow: Dataflow, accelerator: Accelerator, context: ScreenContext) -> bool:
    from repro.verify import Verdict, verify_dataflow

    return verify_dataflow(dataflow, context.layer).verdict is Verdict.REFUTED


def _comm_fact(dataflow: Dataflow, accelerator: Accelerator, context: ScreenContext) -> Any:
    from repro.comm import reduction_demand

    return reduction_demand(dataflow, context.layer)


def _capacity_fact(
    dataflow: Dataflow, accelerator: Accelerator, context: ScreenContext
) -> Tuple[int, int]:
    from repro.capacity import compute_capacity_bounds

    bounds = compute_capacity_bounds(dataflow, context.layer, accelerator)
    return bounds.l1.peak_bytes, bounds.l2.peak_bytes


def _over_budget(
    requirements: Tuple[int, int], accelerator: Accelerator, context: ScreenContext
) -> bool:
    assert context.over_budget is not None
    return context.over_budget(accelerator, *requirements)


def _has_budget(context: ScreenContext) -> bool:
    return context.over_budget is not None


#: The registry, in the order every caller applies it.
SCREENS: Tuple[Screen, ...] = (
    # Lint: the binding-equivalent static rules (DF005, DF011, DF012)
    # once per variant, plus the PE demand of the cluster hierarchy
    # (DF007) compared per point. Each error corresponds to a condition
    # under which binding raises, so the screen drops exactly the points
    # the cost model would reject, and the surviving set is identical.
    Screen(
        name="lint",
        keyword="static_lint",
        flag=None,
        help="reject mappings the static analyzer proves cannot bind",
        dse_field="static_rejects",
        tuner_field="statically_rejected",
        fact=_lint_fact,
        rejects=lambda needed, acc, ctx: needed is None or needed > acc.num_pes,
    ),
    # Verify: the iteration-space verifier, once per variant (the layer
    # is fixed). Only mappings refuted with a concrete missed or
    # double-counted MAC are dropped, so the optima over *correct*
    # mappings are unchanged, and bit-identical when every variant is
    # sound.
    Screen(
        name="verify",
        keyword="verify_coverage",
        flag="--verify-coverage",
        help="soundly prune mappings the iteration-space verifier "
        "refutes (proven missed/double-counted MACs)",
        dse_field="coverage_rejects",
        tuner_field="coverage_rejected",
        fact=_verify_fact,
        rejects=lambda refuted, acc, ctx: bool(refuted),
    ),
    # Comm: on reduction-free hardware only, a point whose mapping
    # spatially maps a reduction-carried dimension races its output
    # writes (DF300). One probe per variant splits the demand into a
    # PE-independent inner race and a top-level race that needs two or
    # more top clusters, so the probe decides every PE count. On
    # reduction-capable hardware the screen never runs.
    Screen(
        name="comm",
        keyword="comm_prune",
        flag="--comm-prune",
        help="on hardware without spatial-reduction support, soundly "
        "skip mappings the communication classifier proves write-racy "
        "(DF300); on reduction-capable hardware the screen never runs, "
        "so optima are bit-identical",
        dse_field="comm_rejects",
        tuner_field="comm_rejected",
        fact=_comm_fact,
        rejects=lambda demand, acc, ctx: bool(demand.races_on(acc.num_pes)),
        when=lambda ctx: not ctx.reduction_support,
    ),
    # Capacity: the static occupancy analyzer reproduces the engine's
    # L1/L2 requirements bit-for-bit from the binding alone, and they go
    # to the caller's own buffer filter, so the screen rejects exactly
    # the points the filter would reject after evaluation. The bounds
    # never read the NoC, so one fact serves every bandwidth. Area and
    # power grow with bandwidth and PE count while L1 is PE-independent
    # and L2 never shrinks as the array grows, so a reject also covers
    # every larger point of the same variant (``monotone``).
    Screen(
        name="capacity",
        keyword="capacity_prune",
        flag="--capacity-prune",
        help="soundly skip cost-model calls using the certified "
        "occupancy bounds from the static capacity analyzer "
        "(repro.capacity; optima are bit-identical)",
        dse_field="capacity_rejects",
        tuner_field="capacity_rejected",
        fact=_capacity_fact,
        rejects=_over_budget,
        when=_has_budget,
        monotone=True,
    ),
    # Symbolic (tuner only): the tuner analyzes one layer on one
    # accelerator, a point box on which the abstract interpreter's L1/L2
    # intervals collapse to the exact requirements (``verify --check
    # capacity`` pins this on every zoo x library pair). So the screen
    # reads the capacity fact under the capacity argument above, and a
    # run with both screens computes that fact once.
    Screen(
        name="symbolic",
        keyword="symbolic_prune",
        flag="--symbolic-prune",
        help="soundly skip cost-model calls for candidates whose exact "
        "L1/L2 requirements (repro.capacity) exceed the buffer caps "
        "(optima are bit-identical)",
        dse_field=None,
        tuner_field="symbolic_rejected",
        fact=_capacity_fact,
        rejects=_over_budget,
        when=_has_budget,
        monotone=True,
    ),
)

#: The equivalence quotient's option; see :func:`equiv_quotient`.
EQUIV = Option(
    name="equiv",
    keyword="equiv_prune",
    flag="--equiv-prune",
    help="evaluate one representative per canonical-form "
    "equivalence class and replay its result to the symmetric "
    "twins (repro.equiv; optima are bit-identical)",
    dse_field="equiv_replays",
    tuner_field="equiv_replayed",
)

#: Every pruning option, screens first.
OPTIONS: Tuple[Option, ...] = SCREENS + (EQUIV,)

_MISSING = object()
_UNCERTIFIED = object()


class ScreenRunner:
    """Applies the enabled screens, in registry order, to one run's points.

    ``scope`` is ``"dse"`` or ``"tuner"``; ``enabled`` maps keywords to
    their values in the call.
    """

    def __init__(self, scope: str, context: ScreenContext, enabled: Mapping[str, bool]) -> None:
        self.scope = scope
        self.context = context
        self.screens = tuple(
            screen
            for screen in SCREENS
            if screen.field(scope) and enabled.get(screen.keyword) and screen.when(context)
        )
        #: Rejects per enabled screen name.
        self.rejects: Dict[str, int] = {screen.name: 0 for screen in self.screens}
        #: (fact function, variant[, PE count]) -> fact; screens that
        #: share a fact function share its entries.
        self._facts: Dict[Hashable, Any] = {}
        #: (screen, variant) -> bandwidth -> smallest rejected PE count.
        self._floors: Dict[Hashable, Dict[int, int]] = {}

    def reject(self, variant: Hashable, dataflow: Dataflow, accelerator: Accelerator) -> bool:
        """Whether an enabled screen rejects ``dataflow`` on ``accelerator``.

        Points naming the same ``variant`` share each screen's fact.
        """
        for screen in self.screens:
            if screen.monotone:
                rejected = self._monotone_rejects(screen, variant, dataflow, accelerator)
            else:
                rejected = self._rejects(screen, (screen.fact, variant), dataflow, accelerator)
            if rejected:
                self.rejects[screen.name] += 1
                return True
        return False

    def _rejects(
        self, screen: Screen, key: Hashable, dataflow: Dataflow, accelerator: Accelerator
    ) -> bool:
        fact = self._facts.get(key, _MISSING)
        if fact is _MISSING:
            with obs.span(f"screen.{screen.name}"):
                try:
                    fact = screen.fact(dataflow, accelerator, self.context)
                except Exception:  # soundness: an analyzer failure never prunes
                    _LOG.debug("%s: %s uncertified", screen.name, dataflow.name, exc_info=True)
                    fact = _UNCERTIFIED
            self._facts[key] = fact
        if fact is _UNCERTIFIED:
            obs.inc(f"screen.uncertified.{screen.name}")
            return False
        return screen.rejects(fact, accelerator, self.context)

    def _monotone_rejects(
        self, screen: Screen, variant: Hashable, dataflow: Dataflow, accelerator: Accelerator
    ) -> bool:
        pes, bandwidth = accelerator.num_pes, accelerator.noc.bandwidth
        floors = self._floors.setdefault((screen.name, variant), {})
        if any(b <= bandwidth and p <= pes for b, p in floors.items()):
            return True
        if not self._rejects(screen, (screen.fact, variant, pes), dataflow, accelerator):
            return False
        floors[bandwidth] = min(floors.get(bandwidth, pes), pes)
        return True

    def finish(self) -> Dict[str, int]:
        """Publish the per-screen counters; return rejects by statistics field."""
        counts: Dict[str, int] = {}
        for screen in SCREENS:
            field = screen.field(self.scope)
            if field:
                counts[field] = self.rejects.get(screen.name, 0)
                obs.inc(f"{self.scope}.pruned_by_{screen.name}", counts[field])
        return counts


def enabled_rejects(scope: str, result: object, enabled: Mapping[str, bool]) -> Dict[str, int]:
    """Rejects per screen of a finished run, for each screen ``enabled`` turns on.

    A keyword missing from ``enabled`` takes its default: on for the
    flagless ``static_lint``, off for the rest.
    """
    rejects: Dict[str, int] = {}
    for screen in SCREENS:
        field = screen.field(scope)
        if field and enabled.get(screen.keyword, screen.flag is None):
            rejects[screen.name] = getattr(result, field)
    return rejects


def equiv_quotient(
    scope: str,
    layer: Layer,
    candidates: Iterable[Tuple[Dataflow, int, Hashable]],
    keyer: Optional[BatchKeyer] = None,
) -> Dict[int, int]:
    """Map each replayable candidate's index to its representative's.

    ``candidates`` yields ``(dataflow, num_pes, site)``. At one ``site``
    (a hardware point), candidates in the same equivalence class share
    one cost-model call: the first pays it, the others replay its
    outcome. Classes use the exact canonical key of :mod:`repro.equiv`,
    extended to the layer's symmetry orbit only where the
    integer-activity certificate proves transposed twins bit-identical
    at that PE count, so every replayed outcome equals what the cost
    model would have returned. ``keyer`` is a batch keyer that has
    already canonicalized the candidates (the tuner's); by default a
    fresh one canonicalizes each distinct mapping once.
    """
    keyer = keyer if keyer is not None else BatchKeyer()
    replay_of: Dict[int, int] = {}
    with obs.span("screen.equiv"):
        representatives: Dict[Hashable, int] = {}
        for index, (dataflow, num_pes, site) in enumerate(candidates):
            class_key = keyer.keying(layer, dataflow).class_key(num_pes)
            representative = representatives.setdefault((site, class_key), index)
            if representative != index:
                replay_of[index] = representative
    obs.inc(f"{scope}.pruned_by_equiv", len(replay_of))
    return replay_of
