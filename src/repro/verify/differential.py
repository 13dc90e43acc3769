"""Differential verification: every closed form against an independent oracle.

The analyzers make exact claims from closed forms; each check here
replays those claims against a second, independent computation and
reports every disagreement as a :class:`Mismatch`:

- ``abstract`` — the interval abstract interpreter (:mod:`repro.absint`)
  claims *soundness*: the concrete cost model's answer for every member
  of a ``ShapeBox × HardwareBox`` lies inside the abstract interval.
  Checked on the box corners (where monotone corner evaluation is
  exercised hardest) plus the representative layer;
  ``analyze --symbolic --crosscheck`` runs it.
- ``vector`` — the whole-grid vector engine (:mod:`repro.vector`)
  claims bit-identity with the scalar ``analyze_layer`` on every point
  of a PE × bandwidth grid. The tolerance is *zero*: the vector engine
  replicates the scalar arithmetic operation for operation, so floats
  must match bit for bit (IEEE-754 float64 ops are identical between
  CPython and NumPy).
- ``equiv`` — the canonicalizer (:mod:`repro.equiv`) claims a mapping's
  canonical twin (and, when the layer is transpose-symmetric and the
  integer-activity certificate holds, its transposed twin) analyzes
  bit-identically. Every claim it makes about the engines ("a one-step
  iterator is inert", "spatial slots commute") is re-proven with the
  same zero-tolerance comparator as ``vector``, and each twin's lint,
  verify, comm and capacity screen facts must equal the original's
  (the tuner screens once per cache-key class, :mod:`repro.screens`).
- ``comm`` — the communication classifier (:mod:`repro.comm`) is
  replayed against the reuse engine's spatial-reuse verdicts and
  against brute-force PE access-set enumeration.
- ``capacity`` — the static buffer bounds and roofline floors
  (:mod:`repro.capacity`) are replayed against the analytical engine's
  sizing and runtime, against the simulator's occupancy walk, and
  against the interval interpreter's point-box L1/L2 requirements,
  which must be the same exact points; the capacity screen's
  one-binding-per-mapping fact is replayed against the bounds at
  16/64/256/512 PEs.
- ``gate`` — the serve lint gate's errors-only pass
  (:func:`~repro.lint.engine.lint_errors`) claims the full lint's
  verdict; it is replayed against ``lint_dataflow`` at several PE
  counts, on a default and on a constrained accelerator.

``equiv``, ``comm``, ``capacity`` and ``gate`` take (layer, dataflow) pairs and
form the :data:`CHECKS` registry behind ``verify --check NAME``;
:func:`run` sweeps one over pairs, e.g. the zoo × library
:func:`corpus`. ``abstract`` and ``vector`` have their own subjects
(a box pair, a hardware grid) and entries, :func:`run_abstract` and
:func:`run_vector`. Every oracle returns only its counts and
mismatches; the runner wraps them in a :class:`DifferentialReport` and
counts ``differential.<check>.pairs`` / ``.mismatches`` in
:mod:`repro.obs`. A clean report is the acceptance evidence that a
claim is *certified*, not just plausible.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.dataflow.dataflow import Dataflow
from repro.engines.analysis import EvalOutcome, analyze_layer
from repro.errors import BindingError, DataflowError, ReproError
from repro.hardware.accelerator import Accelerator, NoC
from repro.hardware.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.model.layer import Layer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.absint.engine import AbstractAnalysis, HardwareBox
    from repro.absint.shapes import ShapeBox
    from repro.capacity.bounds import CapacityBounds
    from repro.capacity.roofline import RooflineCertificate
    from repro.comm.classify import LevelComm, TensorComm
    from repro.engines.tensor_analysis import TensorAnalysis, TensorInfo

__all__ = [
    "CHECKS",
    "HALO_TOLERANCE",
    "MAX_MISMATCHES",
    "DifferentialReport",
    "Mismatch",
    "compare_outcomes",
    "corpus",
    "run",
    "run_abstract",
    "run_vector",
]

#: Mismatches kept per report; the verdict and the obs counter see all.
MAX_MISMATCHES = 32

#: Relative slack for the abstract check's float quantities: the
#: abstract engine evaluates the *same* IEEE-754 operation trees at
#: interval corners, so bounds hold exactly up to reassociation-free
#: rounding; the slack only absorbs representation noise in the
#: comparison itself.
_REL_TOL = 1e-9

#: The L2 union footprint may exceed the closed-form unique-volume bound
#: by the sliding-window halo the closed form elides — an engine
#: property, not a static-bound one (the static L2 peak equals the
#: engine's bit-for-bit). Observed at most ~7.5% across the zoo x
#: library corpus (YX-P on depthwise layers, where the Y-halo is large
#: relative to the tiny per-channel working set); the PR 4 Fig-9 suite
#: saw at most ~3%.
HALO_TOLERANCE = 0.08

#: Occupancy-walk states per capacity check: the first ``_SEQUENTIAL``
#: odometer states, then ``_SAMPLED`` seeded random ones.
_SEQUENTIAL = 32
_SAMPLED = 16


@dataclass(frozen=True)
class Mismatch:
    """One claim an oracle disagreed with."""

    check: str
    subject: str
    quantity: str
    claimed: Any
    oracle: Any

    def describe(self) -> str:
        return (
            f"[{self.subject}] {self.quantity}: claimed {self.claimed!r}, "
            f"oracle says {self.oracle!r}"
        )


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one check on one subject."""

    check: str
    dataflow: str
    layer: str
    counts: Mapping[str, int]
    mismatches: Tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        verdict = "AGREE" if self.ok else "DISAGREE"
        counts = ", ".join(f"{value} {name}" for name, value in self.counts.items())
        lines = [f"{verdict}: {self.dataflow} on {self.layer} [{self.check}] — {counts}"]
        lines.extend(f"  {mismatch.describe()}" for mismatch in self.mismatches)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "dataflow": self.dataflow,
            "layer": self.layer,
            "ok": self.ok,
            "counts": dict(self.counts),
            "mismatches": [mismatch.describe() for mismatch in self.mismatches],
        }


#: What every oracle returns: its counts and its mismatches.
Outcome = Tuple[Dict[str, int], List[Mismatch]]


def _report(
    check: str, dataflow: str, layer: str, outcome: Outcome
) -> DifferentialReport:
    counts, mismatches = outcome
    obs.inc(f"differential.{check}.pairs")
    if mismatches:
        obs.inc(f"differential.{check}.mismatches", len(mismatches))
    return DifferentialReport(
        check=check,
        dataflow=dataflow,
        layer=layer,
        counts=counts,
        mismatches=tuple(mismatches[:MAX_MISMATCHES]),
    )


# ----------------------------------------------------------------------
# Strict outcome comparison (vector, equiv)
# ----------------------------------------------------------------------
def _compare(path: str, a: Any, b: Any, out: List[Tuple[str, Any, Any]]) -> None:
    if isinstance(a, Mapping) or isinstance(b, Mapping):
        if not (isinstance(a, Mapping) and isinstance(b, Mapping)):
            out.append((path, a, b))
            return
        # Key *order* is part of the contract (serialization preserves it).
        if list(a.keys()) != list(b.keys()):
            out.append((path + ".keys", list(a.keys()), list(b.keys())))
            return
        for key in a:
            _compare(f"{path}[{key!r}]", a[key], b[key], out)
        return
    if isinstance(a, (tuple, list)) or isinstance(b, (tuple, list)):
        if type(a) is not type(b) or len(a) != len(b):
            out.append((path, a, b))
            return
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            _compare(f"{path}[{index}]", item_a, item_b, out)
        return
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            out.append((path, type(a), type(b)))
            return
        for field in dataclasses.fields(a):
            _compare(
                f"{path}.{field.name}",
                getattr(a, field.name),
                getattr(b, field.name),
                out,
            )
        return
    if isinstance(a, bool) or isinstance(b, bool):
        if bool(a) is not bool(b):
            out.append((path, a, b))
        return
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            out.append((path, a, b))
            return
        # int-vs-float type drift is a mismatch too: serialization and
        # downstream formatting depend on it.
        if isinstance(a, float) is not isinstance(b, float):
            out.append((path + ".type", type(a).__name__, type(b).__name__))
            return
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                out.append((path, a, b))
        elif a != b:
            out.append((path, a, b))
        return
    if a != b:
        out.append((path, a, b))


def compare_outcomes(
    expected: EvalOutcome, actual: EvalOutcome
) -> List[Tuple[str, Any, Any]]:
    """All field-level differences between two outcomes (empty = bit-identical)."""
    diffs: List[Tuple[str, Any, Any]] = []
    if expected.ok != actual.ok:
        diffs.append(("ok", expected.ok, actual.ok))
        return diffs
    if not expected.ok:
        _compare("error_type", expected.error_type, actual.error_type, diffs)
        _compare("error_message", expected.error_message, actual.error_message, diffs)
        return diffs
    _compare("report", expected.report, actual.report, diffs)
    return diffs


def _scalar_outcome(
    layer: Layer, dataflow: Dataflow, accelerator: Accelerator
) -> EvalOutcome:
    """The scalar cost model's answer; model rejections become outcomes."""
    try:
        report = analyze_layer(layer, dataflow, accelerator, DEFAULT_ENERGY_MODEL)
    except (BindingError, DataflowError) as error:
        return EvalOutcome(
            report=None, error_type=type(error).__name__, error_message=str(error)
        )
    return EvalOutcome(report=report)


# ----------------------------------------------------------------------
# abstract: interval bounds vs concrete corner samples
# ----------------------------------------------------------------------
#: The cost quantities checked per abstract sample.
_ABSTRACT_QUANTITIES = (
    "runtime",
    "total_ops",
    "utilization",
    "throughput",
    "l1_buffer_req",
    "l2_buffer_req",
    "noc_bw_req_elems",
    "energy_total",
    "edp",
)


def _hardware_samples(hw: "HardwareBox") -> List[Accelerator]:
    """The accelerator corners of a hardware box."""
    return [
        Accelerator(
            num_pes=num_pes,
            l1_size=hw.l1_size,
            l2_size=hw.l2_size,
            noc=NoC(
                bandwidth=bandwidth,
                avg_latency=hw.avg_latency,
                multicast=hw.multicast,
            ),
            spatial_reduction=hw.spatial_reduction,
            double_buffered=hw.double_buffered,
            vector_width=hw.vector_width,
            element_bytes=hw.element_bytes,
            clock_ghz=hw.clock_ghz,
            dram_bandwidth=hw.dram_bandwidth,
        )
        for num_pes, bandwidth in itertools.product(
            sorted({hw.num_pes.lo, hw.num_pes.hi}),
            sorted({hw.bandwidth.lo, hw.bandwidth.hi}),
        )
    ]


def _abstract(
    box: "ShapeBox",
    dataflow: Dataflow,
    hw: "HardwareBox",
    analysis: "Optional[AbstractAnalysis]",
    layers: Optional[Sequence[Layer]],
    energy_model: EnergyModel,
) -> Outcome:
    """Sampled concrete members against the abstract intervals.

    Concrete samples that fail to bind (a :class:`ReproError`) are
    counted, not treated as mismatches — the abstract engine only
    promises its intervals cover the members the concrete model can
    answer for. Any other exception is a bug and propagates.
    """
    from repro.absint.engine import abstract_analyze

    if analysis is None:
        analysis = abstract_analyze(box, dataflow, hw, energy_model=energy_model)
    if layers is None:
        layers = list(box.corner_layers())
        representative = box.representative_layer()
        if all(layer.dims != representative.dims for layer in layers):
            layers.append(representative)

    samples = bind_failures = 0
    mismatches: List[Mismatch] = []
    for layer in layers:
        if not box.contains(layer):
            raise ValueError(
                f"cross-check sample {layer.name} is not a member of {box}"
            )
        for accelerator in _hardware_samples(hw):
            samples += 1
            try:
                report = analyze_layer(layer, dataflow, accelerator, energy_model)
            except ReproError:
                bind_failures += 1
                continue
            for name in _ABSTRACT_QUANTITIES:
                concrete = getattr(report, name)
                interval = getattr(analysis, name)
                slack = _REL_TOL * max(abs(interval.lo), abs(interval.hi), 1.0)
                if interval.lo - slack <= concrete <= interval.hi + slack:
                    continue
                mismatches.append(
                    Mismatch(
                        check="abstract",
                        subject=(
                            f"{layer.name} @ {accelerator.num_pes} PEs / "
                            f"bw {accelerator.noc.bandwidth}"
                        ),
                        quantity=name,
                        claimed=[float(interval.lo), float(interval.hi)],
                        oracle=float(concrete),
                    )
                )
    return {"samples": samples, "bind_failures": bind_failures}, mismatches


def run_abstract(
    box: "ShapeBox",
    dataflow: Dataflow,
    hw: "HardwareBox",
    analysis: "Optional[AbstractAnalysis]" = None,
    layers: Optional[Sequence[Layer]] = None,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
) -> DifferentialReport:
    """Check sampled members of ``box`` × ``hw`` against the intervals.

    ``analysis`` may be passed when already computed (with the same
    ``energy_model``); ``layers`` overrides the default sample set (box
    corners + representative) and must lie inside ``box``.
    """
    outcome = _abstract(box, dataflow, hw, analysis, layers, energy_model)
    return _report("abstract", dataflow.name, box.name, outcome)


# ----------------------------------------------------------------------
# vector: whole-grid engine vs scalar replays
# ----------------------------------------------------------------------
def _vector(
    layer: Layer,
    dataflow: Dataflow,
    accelerators: Sequence[Accelerator],
    sample: Optional[int],
) -> Outcome:
    from repro.vector.engine import evaluate_grid

    vector_outcomes = evaluate_grid(layer, dataflow, accelerators, DEFAULT_ENERGY_MODEL).outcomes
    indices: Sequence[int] = range(len(accelerators))
    if sample is not None and 0 < sample < len(accelerators):
        stride = len(accelerators) / sample
        indices = sorted({int(i * stride) for i in range(sample)})

    mismatches = [
        Mismatch("vector", f"point {index}", path, claimed=vector, oracle=scalar)
        for index in indices
        for path, scalar, vector in compare_outcomes(
            _scalar_outcome(layer, dataflow, accelerators[index]),
            vector_outcomes[index],
        )
    ]
    return {"points_checked": len(indices)}, mismatches


def run_vector(
    layer: Layer,
    dataflow: Dataflow,
    accelerators: Sequence[Accelerator],
    sample: Optional[int] = None,
) -> DifferentialReport:
    """Differentially verify the vector engine on one grid group.

    ``sample`` limits how many points are replayed through the scalar
    engines (evenly spaced over the grid, deterministic); the vector
    engine always evaluates the full grid so materialization itself is
    exercised. Raises :class:`~repro.vector.lower.VectorLoweringError`
    if the group cannot be lowered — the caller decides whether that is
    expected (fallback coverage) or a bug.
    """
    outcome = _vector(layer, dataflow, list(accelerators), sample)
    return _report("vector", dataflow.name, layer.name, outcome)


# ----------------------------------------------------------------------
# equiv: canonical and transposed twins vs bit-exact replays
# ----------------------------------------------------------------------
def _screen_facts(dataflow: Dataflow, layer: Layer, accelerator: Accelerator) -> Dict[str, Any]:
    """The lint, verify, comm and capacity facts of one mapping.

    Each is computed by its :data:`repro.screens.SCREENS` entry (the
    symbolic screen reads the capacity fact, so it adds none), and read
    at ``accelerator``'s PE count where the entry has ``at_pes``. An
    analyzer that raises reads as its exception type, whatever the type:
    the screen runner keeps such a candidate, and its twins must raise
    alike.
    """
    from repro.screens import SCREENS, ScreenContext

    context = ScreenContext(layer, accelerator.reduction_support, None)
    facts: Dict[str, Any] = {}
    computed: List[Callable[..., Any]] = []
    for screen in SCREENS:
        if screen.fact in computed:
            continue
        computed.append(screen.fact)
        try:
            fact = screen.fact(dataflow, accelerator, context)
            if screen.at_pes is not None:
                fact = screen.at_pes(fact, accelerator)
            facts[screen.name] = fact
        except Exception as error:  # the screen runner's soundness catch, mirrored
            facts[screen.name] = f"raises {type(error).__name__}"
    return facts


def _lint_form_mismatches(variant: str, dataflow: Dataflow, layer: Layer) -> List[Mismatch]:
    """The lint fact read off the canonical form against the rules' own.

    :func:`repro.screens.lint_fact` certifies the lint screen's fact
    from a non-fallback canonical form instead of running
    ``required_pes`` and ``static_errors``; the two must agree
    (``screen.lint.form``). A raise reads as its exception type, as in
    :func:`_screen_facts`.
    """
    from repro.equiv.canonical import canonicalize
    from repro.screens import lint_fact

    facts: List[Any] = []
    for form in (canonicalize(dataflow, layer), None):
        try:
            facts.append(lint_fact(dataflow, layer, form))
        except Exception as error:  # the screen runner's soundness catch, mirrored
            facts.append(f"raises {type(error).__name__}")
    if facts[0] == facts[1]:
        return []
    return [Mismatch("equiv", variant, "screen.lint.form", claimed=facts[0], oracle=facts[1])]


def _equiv(dataflow: Dataflow, layer: Layer, num_pes: int = 256) -> Outcome:
    """Canonical/transposed twins on ``num_pes`` PEs against the mapping as spelled.

    The canonical twin keeps the original's name, so the comparison is
    total — any field difference, including type drift, is a mismatch.
    The transposed twin is only compared when the layer is symmetric
    and :func:`~repro.equiv.symmetry.integral_active` certifies
    bit-exactness at the accelerator's PE count; it is compared with
    its ``dataflow_name`` restored (the only field the quotient
    legitimately changes). Each twin's lint, verify, comm and capacity
    screen facts must also equal the original's: the tuner computes
    each fact once per cache-key class, and twins share a cache key.
    The original and each twin must also have the same lint fact
    whether it is read off their canonical form or computed by the
    rules (:func:`_lint_form_mismatches`): the tuner reads it off the
    form.
    """
    from repro.equiv.canonical import canonicalize
    from repro.equiv.symmetry import (
        integral_active,
        layer_symmetries,
        transpose_dataflow,
    )

    accelerator = Accelerator(num_pes=num_pes)
    original = _scalar_outcome(layer, dataflow, accelerator)
    form = canonicalize(dataflow, layer)
    mismatches = _lint_form_mismatches("original", dataflow, layer)
    facts: Dict[str, Any] = {}

    def record(variant: str, twin_flow: Dataflow, twin: EvalOutcome) -> None:
        for path, a, b in compare_outcomes(original, twin):
            mismatches.append(Mismatch("equiv", variant, path, claimed=b, oracle=a))
        mismatches.extend(_lint_form_mismatches(variant, twin_flow, layer))
        if not facts:
            facts.update(_screen_facts(dataflow, layer, accelerator))
        for name, fact in _screen_facts(twin_flow, layer, accelerator).items():
            if fact != facts[name]:
                mismatches.append(
                    Mismatch("equiv", variant, f"screen.{name}", claimed=fact, oracle=facts[name])
                )

    canonical_changed = int(not form.fallback and form.changed)
    if canonical_changed:
        # A non-fallback form's spelling is constructible, so this never
        # raises (tests/test_equiv.py pins it).
        twin_flow = Dataflow(name=dataflow.name, directives=form.directives)
        record("canonical", twin_flow, _scalar_outcome(layer, twin_flow, accelerator))

    transposed_checked = 0
    if (
        not form.fallback
        and layer_symmetries(layer)
        and integral_active(form, accelerator.num_pes)
    ):
        try:
            transposed: Optional[Dataflow] = transpose_dataflow(dataflow, name=dataflow.name)
        except DataflowError:
            transposed = None
        if transposed is not None:
            transposed_checked = 1
            twin = _scalar_outcome(layer, transposed, accelerator)
            if twin.ok:
                twin = twin.renamed(dataflow.name)
            record("transposed", transposed, twin)

    counts = {
        "canonical_changed": canonical_changed,
        "transposed_checked": transposed_checked,
    }
    return counts, mismatches


# ----------------------------------------------------------------------
# comm: classifier vs reuse engine and brute-force access sets
# ----------------------------------------------------------------------
def _degree_is_exact(tensor_info: "TensorInfo", comm: "TensorComm", sizes: dict) -> bool:
    """Where the closed-form degree is exact against literal enumeration.

    Fractional shifts (strided output axes) and gapped sliding windows
    (stride wider than the kernel window) are interval-model
    smoothings; the pattern still holds but the per-element count may
    differ, so those degrees are excluded from the exact comparison.
    """
    from repro.tensors.axes import SlidingInputAxis

    if not comm.integral_shifts:
        return False
    for axis in tensor_info.axes:
        if isinstance(axis, SlidingInputAxis):
            k_ext = (sizes[axis.kernel_dim] - 1) * axis.dilation + 1
            if axis.stride > k_ext:
                return False
    return True


def _check_against_reuse(
    level_comm: "LevelComm", level, tensors: "TensorAnalysis"
) -> List[Mismatch]:
    """Oracle 1: the reuse engine's spatial-reuse verdicts.

    The two implementations share the axis abstraction but derive the
    verdicts independently (the reuse engine from traffic formulas, the
    classifier from the overlap closed form).
    """
    from repro.comm.classify import CommPattern
    from repro.engines.reuse import analyze_level_reuse

    reuse = analyze_level_reuse(level, tensors)
    subject = f"reuse-engine level {level_comm.index}"
    mismatches: List[Mismatch] = []

    claimed = sorted(level_comm.multicast_tensors)
    truth = sorted(reuse.multicast_tensors)
    if claimed != truth:
        mismatches.append(Mismatch("comm", subject, "multicast set", claimed, truth))

    output = level_comm.output_comm
    claimed_reduced = (
        output is not None
        and output.pattern is CommPattern.REDUCTION
        and output.exact_overlap
    )
    if claimed_reduced != reuse.output_spatially_reduced:
        mismatches.append(
            Mismatch(
                "comm",
                f"{subject}, tensor {reuse.output_name}",
                "exact spatial reduction",
                claimed_reduced,
                reuse.output_spatially_reduced,
            )
        )
    return mismatches


def _comm(dataflow: Dataflow, layer: Layer) -> Outcome:
    """The communication classification against its two oracles.

    1. The reuse engine: the classifier's multicast set must equal
       ``LevelReuse.multicast_tensors`` and its exact-overlap output
       reduction must equal ``LevelReuse.output_spatially_reduced``,
       level by level.
    2. Brute-force PE access-set enumeration: on levels within the
       enumeration budget, the pattern must match the literal set
       algebra and the claimed sharing degree must equal the literal
       per-element maximum. Degrees are compared only where the closed
       form is exact: integral axis shifts and contiguous sliding
       windows (a stride wider than the kernel window leaves gaps the
       interval model deliberately smooths over); patterns are
       compared always.

    The mapping is bound by :func:`~repro.comm.classify.bind_for_comm`'s
    probe accelerator.
    """
    from repro.comm.classify import bind_for_comm, classify_bound
    from repro.comm.enumerate import brute_force_level
    from repro.engines.tensor_analysis import analyze_tensors

    bound = bind_for_comm(dataflow, layer)
    tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
    analysis = classify_bound(bound, tensors)

    levels_checked = brute_forced = degrees_compared = 0
    mismatches: List[Mismatch] = []
    for level, level_comm in zip(bound.levels, analysis.levels):
        if level_comm.degenerate:
            continue
        levels_checked += 1
        mismatches.extend(_check_against_reuse(level_comm, level, tensors))

        ground_truth = brute_force_level(level, tensors)
        if ground_truth is None:
            continue
        brute_forced += 1
        sizes = level.chunk_sizes()
        for comm in level_comm.tensors:
            truth = ground_truth[comm.tensor]
            subject = f"brute-force level {level_comm.index}, tensor {comm.tensor}"
            if truth.pattern is not comm.pattern:
                mismatches.append(
                    Mismatch(
                        "comm",
                        subject,
                        "pattern",
                        comm.pattern.value,
                        truth.pattern.value,
                    )
                )
                continue
            if _degree_is_exact(tensors.tensor(comm.tensor), comm, sizes):
                degrees_compared += 1
                if truth.degree != comm.degree:
                    mismatches.append(
                        Mismatch(
                            "comm", subject, "sharing degree", comm.degree, truth.degree
                        )
                    )

    counts = {
        "levels_checked": levels_checked,
        "brute_forced_levels": brute_forced,
        "degrees_compared": degrees_compared,
    }
    return counts, mismatches


# ----------------------------------------------------------------------
# capacity: static bounds vs engine sizing and the occupancy walk
# ----------------------------------------------------------------------
def _covered_length(
    start: float, stop: float, shifts: List[Tuple[float, int]]
) -> float:
    """Exact 1-D union length of ``[start, stop)`` shifted by every
    active sub-unit combination of the given ``(shift, active)`` levels."""
    if not shifts:
        return stop - start
    intervals = []
    for units in itertools.product(*(range(max(1, active)) for _, active in shifts)):
        offset = sum(unit * shift for unit, (shift, _) in zip(units, shifts))
        intervals.append((start + offset, stop + offset))
    intervals.sort()
    covered = 0.0
    cursor = float("-inf")
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class _OccupancyWalk:
    """The joint odometer walk of one bound configuration.

    A lightweight port of the PR 4 occupancy suite's walk: per-PE
    footprints from :func:`tensor_box`, array-wide footprints from the
    exact per-axis union of every active sub-unit's shifted footprint
    (``array_union_box`` itself only promises an over-approximating
    bounding box — an allocator convenience, not an occupancy), states
    addressed through the mixed-radix odometer so edge tiles and offset
    wraparound are exercised.
    """

    def __init__(
        self, dataflow: Dataflow, layer: Layer, accelerator: Accelerator
    ) -> None:
        from repro.engines.binding import bind_dataflow
        from repro.engines.reuse import build_odometer
        from repro.engines.tensor_analysis import analyze_tensors

        bound = bind_dataflow(dataflow, layer, accelerator)
        self.tensors = analyze_tensors(layer, bound.row_rep, bound.col_rep)
        self.inner_sizes = bound.innermost().chunk_sizes()
        self.shift_sets: List[Tuple[Mapping[str, int], int]] = [
            (level.spatial_offsets, int(round(level.avg_active)))
            for level in bound.levels
            if level.width > 1
        ]
        self.entries: List[Tuple[int, Dict[str, int]]] = []
        for level in bound.levels:
            for entry in build_odometer(level):
                if entry.steps > 1:
                    self.entries.append((entry.steps, dict(entry.advancing_offsets)))
        self.total_states = 1
        for steps, _ in self.entries:
            self.total_states *= steps
        self.element_bytes = accelerator.element_bytes

    @property
    def dense(self) -> bool:
        """Whether the box volumes are comparable to the closed form."""
        return all(info.density >= 1.0 for info in self.tensors.tensors)

    def starts_at(self, state: int) -> Dict[str, int]:
        digits = []
        for steps, _ in reversed(self.entries):
            digits.append(state % steps)
            state //= steps
        digits.reverse()
        acc = {dim: 0 for dim in self.inner_sizes}
        for (steps, offsets), digit in zip(self.entries, digits):
            for dim, offset in offsets.items():
                acc[dim] = acc.get(dim, 0) + digit * offset
        return acc

    def sample_states(self) -> List[int]:
        states = list(range(min(self.total_states, _SEQUENTIAL)))
        if self.total_states > _SEQUENTIAL:
            rng = random.Random(0)
            states += sorted(rng.randrange(self.total_states) for _ in range(_SAMPLED))
        return states

    def l1_bytes(self, starts: Mapping[str, int]) -> int:
        from repro.simulator.regions import tensor_box

        return self.element_bytes * sum(
            tensor_box(info.axes, starts, self.inner_sizes).volume()
            for info in self.tensors.tensors
        )

    def l2_bytes(self, starts: Mapping[str, int]) -> float:
        """The array's exact union footprint at ``starts``, in bytes.

        Per tensor and axis, the 1-D union of every active sub-unit
        combination's shifted interval is merged exactly (gaps between
        strided sub-units are *not* counted); per-axis coverages
        multiply. This matches the closed-form unique-volume
        accounting's per-axis factorization while staying a literal
        enumeration of what the array holds.
        """
        from repro.simulator.regions import axis_interval

        total = 0.0
        for info in self.tensors.tensors:
            volume = 1.0
            for axis in info.axes:
                base = axis_interval(axis, starts, self.inner_sizes)
                if base.length <= 0:
                    volume = 0.0
                    break
                shifts = [
                    (float(axis.shift(offsets)), active)
                    for offsets, active in self.shift_sets
                    if abs(axis.shift(offsets)) > 1e-9
                ]
                volume *= _covered_length(base.start, base.stop, shifts)
            total += volume
        return self.element_bytes * total


def _check_engine(
    bounds: "CapacityBounds",
    roofline: "RooflineCertificate",
    dataflow: Dataflow,
    layer: Layer,
    accelerator: Accelerator,
) -> Tuple[bool, List[Mismatch]]:
    """Oracle 1: the analytical engine's requirements and runtime.

    The static peak bounds must be at least the engine's reported
    requirements (they are in fact bit-identical — equality is recorded
    separately), and the roofline floors must never exceed the engine's
    top-level sweep runtime.
    """
    report = analyze_layer(layer, dataflow, accelerator)
    mismatches: List[Mismatch] = []

    claims = [
        ("l1_buffer_req", bounds.l1.peak_bytes, report.l1_buffer_req),
        ("l2_buffer_req", bounds.l2.peak_bytes, report.l2_buffer_req),
    ]
    for depth, requirement in enumerate(report.intermediate_buffer_reqs):
        static = (
            bounds.intermediates[depth].peak_bytes
            if depth < len(bounds.intermediates)
            else -1
        )
        claims.append((f"intermediate_buffer_reqs[{depth}]", static, requirement))

    exact = True
    for quantity, static, engine in claims:
        if static < engine:
            mismatches.append(Mismatch("capacity", "engine", quantity, static, engine))
        if static != engine:
            exact = False

    sweep_runtime = report.level_stats[0].runtime_sweep
    tolerance = 1e-9 * max(1.0, sweep_runtime)
    for quantity, floor in (
        ("compute_floor_cycles", roofline.compute_floor_cycles),
        ("comm_floor_cycles", roofline.comm_floor_cycles),
    ):
        if floor > sweep_runtime + tolerance:
            mismatches.append(
                Mismatch(
                    "capacity",
                    "engine",
                    quantity,
                    floor,
                    f"runtime_sweep {sweep_runtime:.3f}",
                )
            )
    return exact, mismatches


def _check_simulator(
    bounds: "CapacityBounds",
    dataflow: Dataflow,
    layer: Layer,
    accelerator: Accelerator,
) -> Tuple[int, List[Mismatch]]:
    """Oracle 2: the simulator's instantaneous occupancy walk.

    The per-PE footprint scaled by the buffering factor, and the sum of
    any two consecutive footprints, must stay within the static L1
    peak; the array-wide footprint must stay within the static L2 peak
    up to :data:`HALO_TOLERANCE`. Only run for dense tensors (the
    interval arithmetic counts dense elements; the closed form
    density-scales).
    """
    walk = _OccupancyWalk(dataflow, layer, accelerator)
    if not walk.dense:
        return 0, []
    buffering = bounds.buffering
    l1_peak = bounds.l1.peak_bytes
    l2_margin = bounds.l2.peak_bytes * (1 + HALO_TOLERANCE)
    # Exact-union enumeration is exponential in concurrent spatial
    # levels; cap the combination count (never reached by the corpus).
    combos = 1
    for _, active in walk.shift_sets:
        combos *= max(1, active)
    check_l2 = combos <= 4096
    mismatches: List[Mismatch] = []
    states = walk.sample_states()
    prev_l1: Optional[int] = None
    for state in states:
        subject = f"simulator state {state}"
        starts = walk.starts_at(state)
        l1_now = walk.l1_bytes(starts)
        if buffering * l1_now > l1_peak:
            mismatches.append(
                Mismatch(
                    "capacity", subject, "L1 occupancy", l1_peak, f"{buffering} * {l1_now}"
                )
            )
        if prev_l1 is not None and l1_now + prev_l1 > l1_peak:
            mismatches.append(
                Mismatch(
                    "capacity",
                    subject,
                    "L1 double-buffer slots",
                    l1_peak,
                    f"{prev_l1} + {l1_now}",
                )
            )
        if check_l2:
            l2_now = walk.l2_bytes(starts)
            if buffering * l2_now > l2_margin:
                mismatches.append(
                    Mismatch(
                        "capacity",
                        subject,
                        "L2 occupancy (halo-tolerant)",
                        bounds.l2.peak_bytes,
                        f"{buffering} * {l2_now:.0f}",
                    )
                )
        prev_l1 = l1_now
    return len(states), mismatches


def _check_abstract(
    bounds: "Optional[CapacityBounds]", dataflow: Dataflow, layer: Layer, accelerator: Accelerator
) -> List[Mismatch]:
    """Oracle 3: the interval interpreter on the point box binds exactly
    where the bounds do (``bounds`` is ``None`` where they cannot), and
    its L1/L2 intervals are points equal to the static peaks: the
    equality the tuner's symbolic screen relies on."""
    from repro.absint import HardwareBox, ShapeBox, abstract_analyze

    try:
        analysis = abstract_analyze(
            ShapeBox.from_layer(layer), dataflow, HardwareBox.from_accelerator(accelerator)
        )
    except (DataflowError, ValueError) as error:
        binds = bounds is not None
        return [Mismatch("capacity", "absint", "binds", binds, repr(error))] if binds else []
    if bounds is None:
        return [Mismatch("capacity", "absint", "binds", False, True)]
    claims = (
        ("l1_buffer_req", analysis.l1_buffer_req, bounds.l1.peak_bytes),
        ("l2_buffer_req", analysis.l2_buffer_req, bounds.l2.peak_bytes),
    )
    return [
        Mismatch("capacity", "absint", quantity, peak, f"[{interval.lo}, {interval.hi}]")
        for quantity, interval, peak in claims
        if (interval.lo, interval.hi) != (peak, peak)
    ]


#: PE counts at which the capacity check replays the screen's
#: one-binding fact against a binding at each count.
VARIANT_PES = (16, 64, 256, 512)


def _or_raises(compute: Callable[[], Any]) -> Any:
    """``compute()``, or ``"raises"`` where the mapping cannot bind."""
    try:
        return compute()
    except DataflowError:
        return "raises"


def _check_variant(dataflow: Dataflow, layer: Layer) -> List[Mismatch]:
    """Oracle 4: the capacity screen's fact, one binding per mapping
    (:class:`~repro.capacity.VariantCapacity`), against
    :func:`~repro.capacity.compute_capacity_bounds` at each of
    :data:`VARIANT_PES`: equal ``(L1, L2)`` peaks, and a raise at the
    same PE counts (``variant peaks``)."""
    from repro.capacity import CapacityBounds, VariantCapacity, compute_capacity_bounds

    capacity = _or_raises(
        lambda: VariantCapacity(dataflow, layer, Accelerator(num_pes=VARIANT_PES[0]))
    )
    mismatches: List[Mismatch] = []
    for pes in VARIANT_PES:
        accelerator = Accelerator(num_pes=pes)
        claimed = capacity
        if isinstance(capacity, VariantCapacity):
            claimed = _or_raises(lambda: capacity.peak_bytes(accelerator))
        oracle = bounds = _or_raises(lambda: compute_capacity_bounds(dataflow, layer, accelerator))
        if isinstance(bounds, CapacityBounds):
            oracle = (bounds.l1.peak_bytes, bounds.l2.peak_bytes)
        if claimed != oracle:
            mismatches.append(
                Mismatch("capacity", f"{pes} PEs", "variant peaks", claimed, oracle)
            )
    return mismatches


def _capacity(dataflow: Dataflow, layer: Layer) -> Outcome:
    """The capacity bounds and roofline floors on 64 PEs against the
    analytical engine, the simulator's occupancy walk and the interval
    interpreter's point-box requirements, and the screen's per-mapping
    fact against the bounds at :data:`VARIANT_PES`."""
    from repro.capacity.roofline import classify_roofline

    accelerator = Accelerator(num_pes=64)
    variant_mismatches = _check_variant(dataflow, layer)
    try:
        roofline = classify_roofline(dataflow, layer, accelerator)
    except DataflowError:
        return {"unbound": 1}, (
            variant_mismatches + _check_abstract(None, dataflow, layer, accelerator)
        )
    bounds = roofline.bounds
    engine_exact, mismatches = _check_engine(
        bounds, roofline, dataflow, layer, accelerator
    )
    states, sim_mismatches = _check_simulator(bounds, dataflow, layer, accelerator)
    absint_mismatches = _check_abstract(bounds, dataflow, layer, accelerator)
    counts = {
        "engine_exact": int(engine_exact),
        "occupancy_states": states,
        "absint_exact": int(not absint_mismatches),
    }
    return counts, mismatches + sim_mismatches + absint_mismatches + variant_mismatches


# ----------------------------------------------------------------------
# gate: the serve lint gate's errors-only pass vs the full lint
# ----------------------------------------------------------------------
#: PE counts the gate check lints every pair at.
GATE_PES = (16, 64, 256, 1024)


def _gate_accelerators(pes: int) -> List[Tuple[str, Accelerator]]:
    """A default machine, and one whose declared 64 B L1 and 4 KiB L2,
    missing reduction tree and unicast NoC make the capacity (DF500,
    DF502) and race (DF300) errors fire beside the binding ones."""
    constrained = Accelerator(
        num_pes=pes,
        l1_size=64,
        l2_size=4096,
        spatial_reduction=False,
        noc=NoC(bandwidth=8, avg_latency=2, multicast=False),
    )
    return [(f"{pes} PEs", Accelerator(num_pes=pes)), (f"{pes} PEs constrained", constrained)]


def _gate(dataflow: Dataflow, layer: Layer) -> Outcome:
    """:func:`~repro.lint.engine.lint_errors` (the serve lint gate's
    verdict) against the full :func:`~repro.lint.engine.lint_dataflow`.

    The gate skips every rule that cannot emit an ERROR, so both its
    verdict and the codes of its errors must equal the full report's.
    """
    from repro.lint.engine import lint_dataflow, lint_errors

    lints = rejected = 0
    mismatches: List[Mismatch] = []
    for pes in GATE_PES:
        for subject, accelerator in _gate_accelerators(pes):
            errors = lint_errors(dataflow, layer, accelerator)
            report = lint_dataflow(dataflow, layer, accelerator)
            lints += 1
            rejected += report.has_errors
            if bool(errors) != report.has_errors:
                mismatches.append(
                    Mismatch("gate", subject, "verdict", bool(errors), report.has_errors)
                )
            claimed = sorted({d.code for d in errors})
            oracle = sorted({d.code for d in report.diagnostics if d.is_error})
            if claimed != oracle:
                mismatches.append(Mismatch("gate", subject, "error codes", claimed, oracle))
    return {"lints": lints, "rejected": rejected}, mismatches


# ----------------------------------------------------------------------
# The (layer, dataflow) registry and runner
# ----------------------------------------------------------------------
#: The checks ``verify --check NAME`` runs over (layer, dataflow) pairs.
CHECKS: Dict[str, Callable[[Dataflow, Layer], Outcome]] = {
    "comm": _comm,
    "capacity": _capacity,
    "equiv": _equiv,
    "gate": _gate,
}


def run(
    check: str, pairs: Iterable[Tuple[Layer, Dataflow]]
) -> List[DifferentialReport]:
    """Run one registered check over (layer, dataflow) pairs, in order."""
    oracle = CHECKS[check]
    return [
        _report(check, dataflow.name, layer.name, oracle(dataflow, layer))
        for layer, dataflow in pairs
    ]


def corpus(models: Optional[Sequence[str]] = None) -> List[Tuple[Layer, Dataflow]]:
    """Every zoo layer × stock library dataflow pair (the acceptance corpus).

    ``models`` restricts the zoo models (default: all, sorted).
    """
    from repro.dataflow.library import stock_dataflows
    from repro.model.zoo import MODELS, build

    flows = list(stock_dataflows().values())
    names = list(models) if models is not None else sorted(MODELS)
    return [
        (layer, flow)
        for name in names
        for layer in build(name).layers
        for flow in flows
    ]
