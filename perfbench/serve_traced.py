"""Traced ``repro serve``: install the ledger's wrappers, then serve.

Usage: ``python perfbench/serve_traced.py DUMP.json``. Runs the server
with the arguments the untraced run passes to ``repro serve``; on
SIGTERM it drains, then writes its spans and counters to ``DUMP.json``
once (they stay in memory until then).
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

from common import use_checkout_sources


def main() -> int:
    dump = Path(sys.argv[1])
    use_checkout_sources()
    from ledger import install_serve_wrappers

    install_serve_wrappers()
    from repro import obs
    from repro.serve.app import ServeConfig, serve_main

    # Same settings as `repro serve --port 0 --max-concurrency 2 --shards 2`.
    asyncio.run(serve_main(ServeConfig(port=0, max_concurrency=2, default_shards=2)))
    dump.write_text(
        json.dumps({"spans": obs.export_spans(), "metrics": obs.metrics_snapshot()})
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
