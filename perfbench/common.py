"""Helpers shared by the benchmark's workloads: paths, digests, statistics.

Nothing here imports :mod:`repro`; the workload modules do, after
:func:`use_checkout_sources` has put the checkout's ``src/`` first on
``sys.path`` (the benchmark always measures the code next to it, never
an installed copy).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run artefacts (Perfetto traces, ledgers, server dumps); git-ignored.
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

#: Percentiles a latency may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: What a started process prints once it is ready.
READY = "perfbench-ready"
#: What a set-up probe prints, with the seconds its own ``import numpy``
#: took, before it imports the program. Set-up is counted net of that
#: import: it takes 0.1-0.22 s on the reference machine and swings with
#: the host's state (it starts BLAS threads) far more than the
#: interpreter's start or the program's imports and zoo builds do.
NUMPY_IMPORT = "perfbench-numpy-import"


def use_checkout_sources() -> None:
    """Import :mod:`repro` from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: checkout sources, no disk cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    # The disk tier would read and write outside the checkout and carry
    # results from one run into the next.
    env.pop("REPRO_CACHE_DIR", None)
    return env


def digest(value: Any) -> str:
    """A short content hash of a JSON-serialisable value (exact floats)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(path: Path = DIGESTS) -> Dict[str, Dict[str, Any]]:
    """The expected outputs recorded at the commit that defined the benchmark."""
    return json.loads(path.read_text())


def supported_percentile(count: int) -> Optional[float]:
    """The highest percentile of :data:`PERCENTILES` with >= 10 samples beyond it."""
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Seconds :func:`calibrate` takes on the reference machine (median).
CALIBRATION_REFERENCE_S = 0.015


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    The reference machine's speed swings by about a third over seconds
    to minutes (other tenants, frequency). Sampling this loop right
    before and right after each measured piece of work lets the
    benchmark report that work's time in reference seconds (see
    :attr:`Op.factor`). Samples are taken only while the program is
    idle and the loop runs no program code, so the program's own load
    never slows a sample: a change to the program moves the scaled
    figures as it moves the raw ones.
    """
    began = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value
    return time.perf_counter() - began


def host_factor(before: float, after: float) -> float:
    """Multiply a host time by this to express it in reference seconds.

    ``before`` and ``after`` are :func:`calibrate` samples taken on
    either side of the work.
    """
    return 2.0 * CALIBRATION_REFERENCE_S / (before + after)


@dataclass
class Op:
    """One measured operation."""

    key: str
    #: Host seconds.
    seconds: float
    #: Design points or candidate mappings it covered (0 for a request).
    points: int
    ok: bool
    counts: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    #: Reference seconds per host second while it ran (:func:`host_factor`).
    factor: float = 1.0


def points_per_s(ops: Sequence[Op], scaled: bool) -> float:
    """Points per second over ``ops``, in host or reference seconds."""
    seconds = sum(op.seconds * (op.factor if scaled else 1.0) for op in ops)
    return sum(op.points for op in ops) / seconds if seconds else 0.0


def p50_s(ops: Sequence[Op], scaled: bool) -> float:
    """Median op time, in host or reference seconds."""
    return median([op.seconds * (op.factor if scaled else 1.0) for op in ops])


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def children_peak_rss_mb() -> float:
    """Peak resident set size of the largest child that has ended, in MiB.

    Process-pool workers are joined when their batch ends, so after an
    operation this covers the workers it used.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def numpy_import_seconds(lines: Sequence[str]) -> float:
    """The seconds a probe reported for its ``import numpy`` (:data:`NUMPY_IMPORT`)."""
    for line in lines:
        if line.startswith(NUMPY_IMPORT):
            return float(line.split()[1])
    raise RuntimeError(f"the probe did not report {NUMPY_IMPORT}")


def time_until_ready(
    cmd: List[str], marker: str, timeout: float = 60.0
) -> Tuple[float, List[str]]:
    """Seconds from spawning ``cmd`` until it prints a line containing ``marker``.

    Also returns the lines it printed up to that one. The child is
    expected to exit on its own after printing the marker.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    lines = []
    try:
        assert child.stdout is not None
        for line in child.stdout:
            lines.append(line)
            if marker in line:
                elapsed = time.perf_counter() - start
                break
        else:
            raise RuntimeError(f"{cmd[:3]} exited before reporting ready")
        child.wait(timeout=timeout)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    return elapsed, lines
