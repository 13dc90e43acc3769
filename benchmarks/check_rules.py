"""CI self-lint: every registered lint rule and screen is documented.

The lint engine's contract is that every ``DFxxx`` code a user can see
in a diagnostic can also be looked up: ``repro lint --explain DFxxx``
must render its full documentation, and ``docs/mapping-lints.md`` must
describe it (either a ``## DFxxx — ...`` section or a ``| DFxxx |``
summary-table row). This script walks both rule registries (concrete
``RULES`` and symbolic ``SYMBOLIC_RULES``) and fails CI when a rule was
registered without holding up that contract — the failure mode this
guards against is adding a new rule family and forgetting the docs.

The screen registry (:data:`repro.screens.OPTIONS`) holds the same
contract: every option off by default must have its flag, with help
text, on each of ``dse`` and ``tune`` whose scope gives it a statistics
field (:meth:`repro.screens.Option.field`) and on no other, and every
option must have a row in the screens table of
``docs/observability.md``.

Usage::

    PYTHONPATH=src python benchmarks/check_rules.py \
        [--docs docs/mapping-lints.md] [--screen-docs docs/observability.md]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

DEFAULT_DOCS = Path(__file__).resolve().parent.parent / "docs" / "mapping-lints.md"
DEFAULT_SCREEN_DOCS = DEFAULT_DOCS.with_name("observability.md")


def registered_codes() -> list:
    """Every rule code either registry knows, sorted."""
    from repro.lint import RULES, SYMBOLIC_RULES

    return sorted(set(RULES) | set(SYMBOLIC_RULES))


def documented_codes(docs_text: str) -> set:
    """Codes with a ``## DFxxx`` heading or a ``| DFxxx |`` table row."""
    headings = re.findall(r"^##\s+(DF\d+)\b", docs_text, flags=re.MULTILINE)
    rows = re.findall(r"^\|\s*(DF\d+)\s*\|", docs_text, flags=re.MULTILINE)
    return set(headings) | set(rows)


def check(docs_path: Path) -> list:
    """Failure messages, empty when every rule holds the contract."""
    from repro.lint import explain_rule

    try:
        docs_text = docs_path.read_text()
    except OSError as error:
        return [f"cannot read docs file {docs_path}: {error.strerror or error}"]

    documented = documented_codes(docs_text)
    failures = []
    for code in registered_codes():
        try:
            explanation = explain_rule(code)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            failures.append(f"{code}: explain_rule raised {error!r}")
            continue
        if not explanation.strip():
            failures.append(f"{code}: explain_rule returned an empty explanation")
        if "unknown family" in explanation:
            failures.append(
                f"{code}: no provenance family registered for prefix "
                f"{code[:3]} (add it to repro.lint.engine._FAMILIES)"
            )
        if code not in documented:
            failures.append(
                f"{code}: not documented in {docs_path.name} "
                f"(add a '## {code} — ...' section or a '| {code} |' row)"
            )
    return failures


def check_screens(docs_path: Path) -> list:
    """Failure messages, empty when every registry option holds the contract."""
    import inspect

    from repro.cli import build_parser
    from repro.dse import explore
    from repro.screens import OPTIONS

    try:
        docs_text = docs_path.read_text()
    except OSError as error:
        return [f"cannot read docs file {docs_path}: {error.strerror or error}"]

    commands = next(
        action for action in build_parser()._actions if action.dest == "command"
    ).choices
    defaults = inspect.signature(explore).parameters
    documented = set(re.findall(r"^\|\s*`(\w+)`\s*\|", docs_text, flags=re.MULTILINE))
    failures = []
    for option in OPTIONS:
        if option.name not in documented:
            failures.append(
                f"screen {option.name}: no '| `{option.name}` |' row in {docs_path.name}"
            )
        if option.flag is None:
            if defaults[option.keyword].default is not True:
                failures.append(f"screen {option.name}: off by default but has no CLI flag")
            continue
        for command, scope in (("dse", "dse"), ("tune", "tuner")):
            helps = {
                flag: action.help
                for action in commands[command]._actions
                for flag in action.option_strings
            }
            if not option.field(scope):
                if option.flag in helps:
                    failures.append(
                        f"screen {option.name}: '{command}' has {option.flag} "
                        f"but no {scope} statistics field"
                    )
            elif option.flag not in helps:
                failures.append(f"screen {option.name}: '{command}' has no {option.flag} flag")
            elif not (helps[option.flag] or "").strip():
                failures.append(f"screen {option.name}: '{command} {option.flag}' has no help")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=Path, default=DEFAULT_DOCS)
    parser.add_argument("--screen-docs", type=Path, default=DEFAULT_SCREEN_DOCS)
    args = parser.parse_args(argv)

    codes = registered_codes()
    failures = check(args.docs) + check_screens(args.screen_docs)
    if failures:
        print(
            f"{len(failures)} registry contract violation(s) "
            f"across {len(codes)} registered rules and the screens:",
            file=sys.stderr,
        )
        for message in failures:
            print(f"  {message}", file=sys.stderr)
        return 1
    print(
        f"all {len(codes)} registered lint rules are explainable and "
        f"documented in {args.docs.name}; every screen has its flags and "
        f"a row in {args.screen_docs.name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
