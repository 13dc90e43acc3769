"""DSE-as-a-service: the async analysis server (:mod:`repro.serve`).

The package turns the repo's analytical stack — cost model, lint,
verification, tuner, and the design-space explorer — into a long-lived
HTTP/JSON service:

- :class:`AnalysisServer` / :class:`ServeConfig` — the asyncio server
  (``repro serve`` on the CLI);
- :class:`ThreadedServer` — run a real server on a background thread
  (tests, benchmarks, embedding);
- :class:`~repro.serve.client.ServeClient` — a thin stdlib-socket
  client speaking the same protocol;
- :func:`sharded_explore` — a sweep in PE-contiguous shards run in
  order on the calling thread, with an anytime Pareto-front callback
  and a cancel check between shards, bit-identical to the in-process
  explorer;
- :mod:`repro.serve.protocol` — request validation and the normalized
  job documents both sides of the wire agree on.

See ``docs/serving.md`` for the API reference and deployment notes.
"""

from repro.serve.app import AnalysisServer, ServeConfig, ThreadedServer, serve_main
from repro.serve.client import ServeClient, ServeError
from repro.serve.http import HttpError
from repro.serve.shards import (
    ShardUpdate,
    SweepCancelled,
    merge_shard_results,
    shard_spaces,
    sharded_explore,
)

__all__ = [
    "AnalysisServer",
    "HttpError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ShardUpdate",
    "SweepCancelled",
    "ThreadedServer",
    "merge_shard_results",
    "serve_main",
    "shard_spaces",
    "sharded_explore",
]
