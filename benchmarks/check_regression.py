"""Benchmark regression gate for CI.

Compares a fresh ``pytest-benchmark --benchmark-json`` report against
the committed baseline and fails (exit 1) when any shared benchmark's
mean time regressed by more than the tolerance.

Raw wall-clock comparisons across different machines are meaningless,
so when both reports contain the pure-Python calibration benchmark
(``test_bench_calibration`` in ``bench_exec_backend.py``), every mean
is first normalized by that machine's calibration time. Benchmarks
present in only one report are listed but never fail the gate.

``--only SUBSTR`` restricts the gate to matching benchmarks — how CI
applies a tight tolerance to just the tracing-overhead kernel.

A missing or malformed report file fails with a one-line error, not a
stack trace.

The subsystem floors (pruner skip shares, vector parity and speedup,
serve cache hits and latency, engine phase shares) are pytest
assertions: ``tests/test_floors.py``, ``tests/test_vector_parity.py``,
``tests/test_serve.py`` and ``benchmarks/bench_floors.py``.

Usage::

    python benchmarks/check_regression.py current.json \
        [--baseline benchmarks/baseline.json] [--tolerance 0.25] \
        [--only SUBSTR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

CALIBRATION = "test_bench_calibration"
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def load_means(path: Path) -> dict:
    """Map benchmark fullname -> mean seconds from a benchmark-json report.

    A missing or malformed report is an operator mistake (wrong path,
    interrupted bench run), not a bug in this gate — so it exits with a
    single clear message instead of a stack trace.
    """
    try:
        text = path.read_text()
    except OSError as error:
        raise SystemExit(f"error: cannot read benchmark report {path}: {error.strerror or error}")
    try:
        report = json.loads(text)
        return {bench["fullname"]: bench["stats"]["mean"] for bench in report["benchmarks"]}
    except ValueError as error:
        raise SystemExit(f"error: malformed JSON in benchmark report {path}: {error}")
    except (KeyError, TypeError) as error:
        raise SystemExit(
            f"error: malformed benchmark report {path}: missing or mistyped key {error}"
        )


def calibration_time(means: dict) -> float:
    for fullname, mean in means.items():
        if CALIBRATION in fullname:
            return mean
    return 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="fresh --benchmark-json report")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional slowdown (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--only", default=None, metavar="SUBSTR",
        help="gate only benchmarks whose fullname contains SUBSTR",
    )
    args = parser.parse_args(argv)

    baseline = load_means(args.baseline)
    current = load_means(args.current)
    base_cal = calibration_time(baseline)
    cur_cal = calibration_time(current)
    print(f"calibration: baseline {base_cal:.6f}s, current {cur_cal:.6f}s")

    failures = []
    for fullname in sorted(set(baseline) | set(current)):
        if CALIBRATION in fullname:
            continue
        if args.only is not None and args.only not in fullname:
            continue
        if fullname not in baseline:
            print(f"  NEW      {fullname} (no baseline, skipped)")
            continue
        if fullname not in current:
            print(f"  MISSING  {fullname} (not in current run, skipped)")
            continue
        ratio = (current[fullname] / cur_cal) / (baseline[fullname] / base_cal)
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSED"
            failures.append((fullname, ratio))
        print(
            f"  {verdict:10s}{fullname}: {baseline[fullname]:.6f}s -> "
            f"{current[fullname]:.6f}s (normalized x{ratio:.2f})"
        )

    if failures:
        print(
            f"\n{len(failures)} benchmark(s) regressed beyond "
            f"{args.tolerance:.0%}:", file=sys.stderr,
        )
        for fullname, ratio in failures:
            print(f"  {fullname}: x{ratio:.2f}", file=sys.stderr)
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
