"""``repro serve`` with numpy's import timed first: serve-mixed's set-up probe.

Usage: ``python perfbench/serve_boot.py ARGS...`` prints
``perfbench-numpy-import SECONDS`` (how long ``import numpy`` took in
this process), then runs ``repro serve ARGS``. ``setup_s`` counts a boot
net of that import (see ``common.NUMPY_IMPORT``).
"""

import time

began = time.perf_counter()
import numpy  # noqa: E402,F401

NUMPY_SECONDS = time.perf_counter() - began

import sys  # noqa: E402

from common import NUMPY_IMPORT, use_checkout_sources  # noqa: E402


def main() -> int:
    print(f"{NUMPY_IMPORT} {NUMPY_SECONDS!r}", flush=True)
    use_checkout_sources()
    from repro.cli import main as cli

    return cli(["serve", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
