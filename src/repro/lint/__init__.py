"""Static mapping analyzer: lint dataflows before any cost-model run.

The paper's core claim is that data-centric directives make mapping
properties *statically analyzable*: validity, PE utilization, tile
footprint vs. buffer capacity, and required hardware support (Table 5)
can all be decided from the directives alone. This package turns those
decisions into structured diagnostics — each with a stable ``DF0xx``
code, a severity, the offending directive (with a source span when the
mapping came from DSL text), and an optional machine-applicable fix-it.

Entry points:

- :func:`lint_dataflow` — lint a :class:`~repro.dataflow.dataflow.Dataflow`
  object, optionally against a layer and an accelerator;
- :func:`lint_text` — lint DSL text leniently (collects *all* syntax
  errors instead of stopping at the first) with source locations;
- :func:`static_errors` — the fast, binding-equivalent error subset the
  DSE explorer and auto-tuner use to reject candidates before paying a
  cost-model evaluation;
- :func:`lint_errors` — every rule that can emit an ERROR and no other:
  the full lint's verdict, the analysis server's lint gate.
"""

from repro.lint.diagnostics import (
    Diagnostic,
    FixIt,
    LintReport,
    Severity,
    SourceSpan,
)
from repro.lint.engine import (
    construction_diagnostics,
    explain_rule,
    lint_dataflow,
    lint_directives,
    lint_errors,
    lint_text,
    nearest_rule,
    required_pes,
    rule_families,
    static_errors,
)
from repro.lint.rules import RULES, Rule
from repro.lint.symbolic import (
    SYMBOLIC_RULES,
    SymbolicRule,
    lint_symbolic,
)

__all__ = [
    "Diagnostic",
    "FixIt",
    "LintReport",
    "Severity",
    "SourceSpan",
    "RULES",
    "Rule",
    "SYMBOLIC_RULES",
    "SymbolicRule",
    "construction_diagnostics",
    "explain_rule",
    "lint_dataflow",
    "lint_directives",
    "lint_errors",
    "lint_symbolic",
    "lint_text",
    "nearest_rule",
    "required_pes",
    "rule_families",
    "static_errors",
]
