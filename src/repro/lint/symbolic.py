"""Symbolic lint rules: certify a mapping over an entire shape range.

The ``DF0xx`` rules judge one mapping against one concrete layer. The
``DF2xx`` family lifts the three hardware-facing checks — L1 buffer
fit, PE utilization, and NoC bandwidth — to a
:class:`~repro.absint.shapes.ShapeBox`: one abstract-interpretation
pass over interval dimension extents decides the property for *every*
layer in the box at once. A negative finding here means the property
fails for every member (the interval lower bound already violates the
budget); a positive certificate means it holds for every member (the
interval upper bound fits). Both carry provenance
``"symbolic: proven-for-range"`` — they are theorems about the whole
family, not spot checks. Range-straddling outcomes (the interval
crosses the budget) are reported with provenance
``"symbolic: range-dependent"`` where actionable, and suppressed where
silence is the honest answer.

Entry point: :func:`lint_symbolic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
)

from repro.lint.diagnostics import Diagnostic, FixIt, LintReport, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.absint.engine import AbstractAnalysis, HardwareBox
    from repro.absint.shapes import ShapeBox
    from repro.dataflow.dataflow import Dataflow

__all__ = [
    "PROVEN_FOR_RANGE",
    "RANGE_DEPENDENT",
    "SYMBOLIC_RULES",
    "SymbolicRule",
    "SymbolicRuleContext",
    "lint_symbolic",
]

PROVEN_FOR_RANGE = "symbolic: proven-for-range"
RANGE_DEPENDENT = "symbolic: range-dependent"

#: Utilization at or above this fraction counts as "full" (matches the
#: concrete DF009 threshold, tolerant of float accumulation).
_FULL_UTILIZATION = 0.999


@dataclass
class SymbolicRuleContext:
    """Shared state for one symbolic lint pass.

    The abstract analysis is computed lazily and at most once; a
    :class:`~repro.errors.ReproError` or
    :class:`~repro.absint.interval.AbstractDomainError` is remembered as
    :attr:`failure` (the abstract engine only raises those when *every*
    concretization in the box fails to bind, so a failure here is itself
    a range-wide theorem — surfaced as ``DF200``). Any other exception
    is an analyzer bug, not a theorem, and propagates.
    """

    dataflow: "Dataflow"
    box: "ShapeBox"
    hw: "HardwareBox"
    _analysis: "Optional[AbstractAnalysis]" = field(
        default=None, init=False, repr=False
    )
    _failure: Optional[str] = field(default=None, init=False, repr=False)
    _tried: bool = field(default=False, init=False, repr=False)

    @property
    def analysis(self) -> "Optional[AbstractAnalysis]":
        if not self._tried:
            self._tried = True
            from repro.absint.engine import abstract_analyze
            from repro.absint.interval import AbstractDomainError
            from repro.errors import ReproError

            try:
                self._analysis = abstract_analyze(self.box, self.dataflow, self.hw)
            except (ReproError, AbstractDomainError) as exc:
                self._failure = str(exc)
        return self._analysis

    @property
    def failure(self) -> Optional[str]:
        self.analysis  # noqa: B018 - force the lazy evaluation
        return self._failure

    def range_note(self) -> str:
        """Suffix qualifying certificates when binding caveats exist."""
        analysis = self.analysis
        if analysis is None or not analysis.caveats:
            return ""
        return (
            f" [{len(analysis.caveats)} binding caveat(s): the certificate "
            f"covers the bindable subfamily of the box]"
        )

    def diag(
        self,
        code: str,
        message: str,
        severity: Optional[Severity] = None,
        fixit: Optional[FixIt] = None,
        provenance: str = PROVEN_FOR_RANGE,
    ) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=severity or SYMBOLIC_RULES[code].default_severity,
            message=message,
            fixit=fixit,
            provenance=provenance,
        )


@dataclass(frozen=True)
class SymbolicRule:
    """Registry entry for one ``DF2xx`` diagnostic code."""

    code: str
    title: str
    default_severity: Severity
    check: Callable[[SymbolicRuleContext], Iterator[Diagnostic]]


SYMBOLIC_RULES: Dict[str, SymbolicRule] = {}

_SymbolicCheck = Callable[[SymbolicRuleContext], Iterator[Diagnostic]]


def symbolic_rule(
    code: str, title: str, severity: Severity
) -> Callable[[_SymbolicCheck], _SymbolicCheck]:
    def register(fn: _SymbolicCheck) -> _SymbolicCheck:
        if code in SYMBOLIC_RULES:  # pragma: no cover - registry misuse guard
            raise ValueError(f"duplicate symbolic lint rule code {code}")
        SYMBOLIC_RULES[code] = SymbolicRule(
            code=code, title=title, default_severity=severity, check=fn
        )
        return fn

    return register


@symbolic_rule(
    "DF200",
    "mapping cannot bind for any shape in the range",
    Severity.ERROR,
)
def _check_definitely_unbindable(
    ctx: SymbolicRuleContext,
) -> Iterator[Diagnostic]:
    """Binding fails for every concretization of the shape box.

    The abstract engine only raises when no member of the box can
    bind, so this failure is itself a range-wide theorem.
    """
    if ctx.failure is not None:
        yield ctx.diag(
            "DF200",
            f"{ctx.dataflow.name} on {ctx.box}: binding fails for every "
            f"shape in the box: {ctx.failure}",
        )


@symbolic_rule(
    "DF201",
    "per-PE tile footprint vs. L1 capacity over the shape range",
    Severity.ERROR,
)
def _check_l1_fit_symbolic(ctx: SymbolicRuleContext) -> Iterator[Diagnostic]:
    """L1 fit decided for the whole shape range by interval bounds.

    Lower bound above capacity: every member overflows (error). Upper
    bound within capacity: every member fits (info certificate).
    Straddling intervals warn with range-dependent provenance.
    """
    analysis = ctx.analysis
    if analysis is None or ctx.hw.l1_size is None:
        return
    req = analysis.l1_buffer_req
    l1 = ctx.hw.l1_size
    if req.lo > l1:
        yield ctx.diag(
            "DF201",
            f"{ctx.dataflow.name} on {ctx.box}: per-PE tile footprint is at "
            f"least {req.lo} B — it exceeds the L1 capacity of {l1} B for "
            f"every shape in the range",
            fixit=FixIt(
                f"shrink the innermost mapping sizes, or provision "
                f"l1_size >= {req.lo} B"
            ),
        )
    elif req.hi <= l1:
        yield ctx.diag(
            "DF201",
            f"{ctx.dataflow.name} on {ctx.box}: per-PE tile footprint "
            f"<= {req.hi} B fits the L1 capacity of {l1} B for every shape "
            f"in the range{ctx.range_note()}",
            severity=Severity.INFO,
        )
    else:
        yield ctx.diag(
            "DF201",
            f"{ctx.dataflow.name} on {ctx.box}: per-PE tile footprint spans "
            f"[{req.lo}, {req.hi}] B across the range; shapes near the upper "
            f"corner exceed the L1 capacity of {l1} B",
            severity=Severity.WARNING,
            provenance=RANGE_DEPENDENT,
        )


@symbolic_rule(
    "DF202",
    "PE utilization over the shape range",
    Severity.WARNING,
)
def _check_utilization_symbolic(
    ctx: SymbolicRuleContext,
) -> Iterator[Diagnostic]:
    """PE utilization bounded over the range: under-use or full, proven.

    Warns when even the optimistic corner under-utilizes; certifies
    full utilization when even the pessimistic corner is full.
    """
    analysis = ctx.analysis
    if analysis is None:
        return
    util = analysis.utilization
    if util.hi < _FULL_UTILIZATION:
        yield ctx.diag(
            "DF202",
            f"{ctx.dataflow.name} on {ctx.box}: PE utilization is at most "
            f"{100.0 * util.hi:.0f}% for every shape in the range "
            f"({analysis.num_pes} PEs)",
            fixit=FixIt(
                "align spatial sizes so the chunk count fills every fold, "
                "or map a larger dimension spatially"
            ),
        )
    elif util.lo >= _FULL_UTILIZATION:
        yield ctx.diag(
            "DF202",
            f"{ctx.dataflow.name} on {ctx.box}: full PE utilization proven "
            f"for every shape in the range{ctx.range_note()}",
            severity=Severity.INFO,
        )


@symbolic_rule(
    "DF203",
    "required NoC bandwidth vs. provisioned bandwidth over the shape range",
    Severity.WARNING,
)
def _check_noc_bandwidth_symbolic(
    ctx: SymbolicRuleContext,
) -> Iterator[Diagnostic]:
    """NoC demand vs. provisioned bandwidth over the whole range.

    Warns when the least demanding shape already exceeds the most
    generous provisioning; certifies fit when the peak demand fits the
    minimum provisioning.
    """
    analysis = ctx.analysis
    if analysis is None:
        return
    req = analysis.noc_bw_req_elems
    provisioned = ctx.hw.bandwidth
    if req.lo > provisioned.hi:
        yield ctx.diag(
            "DF203",
            f"{ctx.dataflow.name} on {ctx.box}: the mapping needs at least "
            f"{req.lo:.1f} elems/cycle of NoC bandwidth but at most "
            f"{provisioned.hi} is provisioned; the NoC throttles delivery "
            f"for every shape in the range",
            fixit=FixIt(
                f"provision NoC bandwidth >= {req.lo:.0f} elems/cycle, or "
                f"restructure the mapping for more reuse per delivered byte"
            ),
        )
    elif req.hi <= provisioned.lo:
        yield ctx.diag(
            "DF203",
            f"{ctx.dataflow.name} on {ctx.box}: peak NoC demand "
            f"<= {req.hi:.1f} elems/cycle fits the provisioned "
            f"{provisioned.lo} elems/cycle for every shape in the "
            f"range{ctx.range_note()}",
            severity=Severity.INFO,
        )


def lint_symbolic(
    dataflow: "Dataflow",
    box: "ShapeBox",
    hw: "HardwareBox",
    codes: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the ``DF2xx`` symbolic rules over a mapping and a shape box.

    One abstract-interpretation pass certifies (or refutes) each
    property for every layer in ``box`` and every accelerator in
    ``hw`` simultaneously. Results come back in rule-code order.
    """
    context = SymbolicRuleContext(dataflow=dataflow, box=box, hw=hw)
    selected = None if codes is None else set(codes)
    diagnostics: List[Diagnostic] = []
    for code in sorted(SYMBOLIC_RULES):
        if selected is not None and code not in selected:
            continue
        diagnostics.extend(SYMBOLIC_RULES[code].check(context))
    return LintReport.from_list(dataflow.name, diagnostics)
