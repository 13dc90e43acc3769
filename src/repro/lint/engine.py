"""The lint engine: select applicable rules and run them over a mapping.

Three entry points cover the three ways a mapping shows up:

- :func:`lint_directives` — the low-level pass over a raw directive
  list (possibly malformed — this is what construction validation uses);
- :func:`lint_dataflow` — lint a constructed
  :class:`~repro.dataflow.dataflow.Dataflow`, optionally against a
  :class:`~repro.model.layer.Layer` and an
  :class:`~repro.hardware.accelerator.Accelerator` (more context
  enables more rules);
- :func:`lint_text` — lint DSL text *leniently*: every syntax error
  becomes a diagnostic with a source span instead of aborting the parse.

:func:`static_errors` is the fast subset the DSE explorer and the
auto-tuner call: only *binding-equivalent* error rules run, so a
non-empty result guarantees :func:`~repro.engines.binding.bind_dataflow`
would raise for the same mapping — rejecting it statically can never
change which candidates survive a search. :func:`lint_errors` runs
every rule that can emit an ERROR and no other, so its verdict is the
full lint's: the serve lint gate's fast path. Both select their rules
through :func:`error_rule_codes`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.diagnostics import Diagnostic, LintReport, SourceSpan
from repro.lint.rules import RULES, Rule, RuleContext, required_pes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataflow.dataflow import Dataflow
    from repro.dataflow.directives import Directive
    from repro.hardware.accelerator import Accelerator
    from repro.model.layer import Layer

__all__ = [
    "construction_diagnostics",
    "error_rule_codes",
    "explain_rule",
    "lint_dataflow",
    "lint_directives",
    "lint_errors",
    "lint_text",
    "nearest_rule",
    "required_pes",
    "rule_families",
    "static_errors",
]

#: Provenance family per rule-code prefix, for ``explain_rule``.
_FAMILIES = {
    "DF0": "concrete heuristic/cost rules over one (mapping, layer, hardware)",
    "DF1": "coverage verdicts emitted from the repro.verify enumeration engine",
    "DF2": "symbolic range certificates from the abstract interpreter",
    "DF3": "certified communication classifications from repro.comm",
    "DF4": "equivalence/dominance findings from the repro.equiv canonical-form analyzer",
    "DF5": "certified capacity/roofline feasibility bounds from repro.capacity",
}


def nearest_rule(code: str) -> Optional[str]:
    """The registered rule code closest to ``code`` by edit distance.

    Used by error paths (``lint --explain`` on a typo) to suggest what
    the user probably meant. Returns ``None`` when no registry is
    loadable or the best match is further than half the code's length
    (suggesting something wildly unrelated helps nobody).
    """
    from repro.lint.rules import RULES as concrete
    from repro.lint.symbolic import SYMBOLIC_RULES

    code = code.upper()
    known = sorted(set(concrete) | set(SYMBOLIC_RULES))
    if not known:
        return None
    # Ties prefer the queried family (DF5xx typos suggest DF5xx rules).
    best = min(
        known,
        key=lambda candidate: (
            _edit_distance(code, candidate),
            candidate[:3] != code[:3],
            candidate,
        ),
    )
    if _edit_distance(code, best) > max(1, len(code) // 2):
        return None
    return best


def _edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance (small strings, no need for bands)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (char_a != char_b),
                )
            )
        previous = current
    return previous[-1]


def rule_families() -> Dict[str, str]:
    """Registered rule-code prefixes mapped to their provenance family.

    Exposed so CLI error paths can list the valid families (``DF0``,
    ``DF1``, ...) without enumerating every individual rule code.
    """
    return dict(_FAMILIES)


def explain_rule(code: str) -> str:
    """Human-readable explanation of one registered rule.

    Looks ``code`` up in both registries (concrete ``RULES`` and the
    symbolic ``SYMBOLIC_RULES``), and renders its title, severity,
    category flags, requirements, provenance family, and the check
    function's full docstring. Raises ``KeyError`` for unknown codes.
    """
    import inspect

    from repro.lint.rules import RULES as concrete

    code = code.upper()
    lines: List[str] = []
    rule = concrete.get(code)
    if rule is not None:
        category = []
        if rule.construction:
            category.append("construction-time")
        if rule.binding_equivalent:
            category.append("binding-equivalent")
        lines = [
            f"{rule.code}: {rule.title}",
            f"  severity:   {rule.default_severity}",
            f"  category:   {', '.join(category) or 'lint-time'}",
            f"  requires:   {', '.join(sorted(rule.requires)) or 'directives only'}",
        ]
        check = rule.check
    else:
        from repro.lint.symbolic import SYMBOLIC_RULES

        symbolic = SYMBOLIC_RULES.get(code)
        if symbolic is None:
            known = sorted(set(concrete) | set(SYMBOLIC_RULES))
            suggestion = nearest_rule(code)
            hint = f"did you mean {suggestion}? " if suggestion else ""
            raise KeyError(
                f"unknown lint rule {code!r}; {hint}"
                f"known rules: {', '.join(known)}"
            )
        lines = [
            f"{symbolic.code}: {symbolic.title}",
            f"  severity:   {symbolic.default_severity}",
            "  category:   symbolic (shape-range)",
            "  requires:   shape box + hardware box",
        ]
        check = symbolic.check
    family = _FAMILIES.get(code[:3], "unknown family")
    lines.append(f"  provenance: {family}")
    doc = inspect.getdoc(check)
    if doc:
        lines.append("")
        lines.extend(f"  {line}".rstrip() for line in doc.splitlines())
    return "\n".join(lines)


def _dedupe(diagnostics: "Sequence[Diagnostic]") -> List[Diagnostic]:
    """Collapse diagnostics that fire identically from more than one pass.

    The same finding can be produced twice — once by the construction
    pass (via scanner/``Dataflow.__post_init__`` replay, no source span)
    and once by the regular rule pass (span attached). Two diagnostics
    are duplicates when code, severity, message, and directive index all
    match; the span-carrying copy wins, and the survivor keeps the list
    position of the *first* occurrence so ordering stays stable.
    """
    keyed: Dict[Tuple[str, str, str, Optional[int]], int] = {}
    result: List[Diagnostic] = []
    for diagnostic in diagnostics:
        key = (
            diagnostic.code,
            str(diagnostic.severity),
            diagnostic.message,
            diagnostic.directive_index,
        )
        if key in keyed:
            index = keyed[key]
            if result[index].span is None and diagnostic.span is not None:
                result[index] = diagnostic
            continue
        keyed[key] = len(result)
        result.append(diagnostic)
    return result


def lint_directives(
    name: str,
    directives: "Sequence[Directive]",
    layer: "Optional[Layer]" = None,
    accelerator: "Optional[Accelerator]" = None,
    spans: "Optional[Sequence[Optional[SourceSpan]]]" = None,
    dataflow: object = None,
    codes: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Run every applicable rule over a raw directive list.

    Rules whose requirements (``layer``, ``accelerator``) are not met
    are skipped silently; ``codes`` restricts the pass to a subset of
    rule codes. Results come back in rule-code order (stable).
    """
    context = RuleContext(
        name=name,
        directives=tuple(directives),
        layer=layer,
        accelerator=accelerator,
        dataflow=dataflow,
        spans=tuple(spans) if spans is not None else None,
    )
    available = set()
    if layer is not None:
        available.add("layer")
    if accelerator is not None:
        available.add("accelerator")
    selected = None if codes is None else set(codes)
    diagnostics: List[Diagnostic] = []
    for code in sorted(RULES):
        rule = RULES[code]
        if selected is not None and code not in selected:
            continue
        if not rule.requires <= available:
            continue
        context.running = code
        diagnostics.extend(rule.check(context))
    return diagnostics


def construction_diagnostics(
    name: str, directives: "Sequence[Directive]"
) -> List[Diagnostic]:
    """The structural checks ``Dataflow.__post_init__`` enforces.

    Only rules flagged ``construction`` run — they need no layer or
    hardware context and their errors make the object unbuildable.
    """
    codes = [code for code, rule in RULES.items() if rule.construction]
    return lint_directives(name, directives, codes=codes)


def lint_dataflow(
    dataflow: "Dataflow",
    layer: "Optional[Layer]" = None,
    accelerator: "Optional[Accelerator]" = None,
) -> LintReport:
    """Lint a constructed dataflow; more context enables more rules."""
    diagnostics = lint_directives(
        dataflow.name,
        dataflow.directives,
        layer=layer,
        accelerator=accelerator,
        dataflow=dataflow,
    )
    return LintReport.from_list(dataflow.name, diagnostics)


def lint_text(
    text: str,
    name: str = "parsed",
    source: Optional[str] = None,
    layer: "Optional[Layer]" = None,
    accelerator: "Optional[Accelerator]" = None,
) -> LintReport:
    """Lint DSL text leniently, with source spans on every diagnostic.

    Unlike :func:`~repro.dataflow.parser.parse_dataflow`, syntax errors
    do not abort: every unparsable line becomes a ``DF002`` diagnostic
    and the remaining well-formed directives are still checked by the
    semantic rules.
    """
    from repro.dataflow.parser import scan_dataflow

    scan = scan_dataflow(text, name=name)
    diagnostics = list(scan.diagnostics)
    diagnostics.extend(
        lint_directives(
            name,
            scan.directives,
            layer=layer,
            accelerator=accelerator,
            spans=scan.spans,
        )
    )
    return LintReport.from_list(name, _dedupe(diagnostics), source=source)


def error_rule_codes(keep: Callable[[Rule], bool] = lambda rule: True) -> List[str]:
    """Codes of the registered rules that can emit an ERROR and pass ``keep``."""
    return [code for code, rule in RULES.items() if rule.can_error and keep(rule)]


# Every rule registers when repro.lint.rules is imported, so the two
# selections are fixed here rather than rebuilt on every (hot) call.
_BINDING_ERROR_CODES = frozenset(error_rule_codes(lambda rule: rule.binding_equivalent))
_ERROR_CODES = frozenset(error_rule_codes())


def _errors(
    dataflow: "Dataflow",
    layer: "Layer",
    accelerator: "Optional[Accelerator]",
    codes: Iterable[str],
) -> List[Diagnostic]:
    diagnostics = lint_directives(
        dataflow.name,
        dataflow.directives,
        layer=layer,
        accelerator=accelerator,
        dataflow=dataflow,
        codes=codes,
    )
    return [d for d in _dedupe(diagnostics) if d.is_error]


def static_errors(
    dataflow: "Dataflow",
    layer: "Layer",
    accelerator: "Optional[Accelerator]" = None,
) -> List[Diagnostic]:
    """Binding-equivalent errors only: the search-pruning fast path.

    Every diagnostic returned here corresponds to a condition under
    which :func:`~repro.engines.binding.bind_dataflow` raises, so a
    search loop may skip the candidate without evaluating it and still
    visit exactly the same set of valid designs.
    """
    return _errors(dataflow, layer, accelerator, _BINDING_ERROR_CODES)


def lint_errors(
    dataflow: "Dataflow",
    layer: "Layer",
    accelerator: "Optional[Accelerator]" = None,
) -> List[Diagnostic]:
    """The errors :func:`lint_dataflow` reports, from the error rules only.

    A rule emits only its own code at its registered severity, so the
    rules skipped here (warnings and infos) cannot change the verdict:
    ``bool(lint_errors(...)) == lint_dataflow(...).has_errors``, at a
    fraction of the cost (no DF403 dominance search, no DF4xx
    canonicalization, no advisory DF5xx checks).
    """
    return _errors(dataflow, layer, accelerator, _ERROR_CODES)
