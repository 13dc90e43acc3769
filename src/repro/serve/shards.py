"""Sharded design-space sweeps with anytime Pareto-front updates.

The explorer's enumeration is PE-major and every grid point is folded
independently (phase 2 of :func:`repro.dse.explorer.explore` has no
cross-point state outside the leader fold, which is order-restored in
phase 3). Partitioning the PE axis into contiguous blocks therefore
yields shards whose *concatenated* point lists are exactly the
whole-space sweep's point list — the invariant this module's
bit-identical merge (and the CI parity gate) rests on.

:func:`sharded_explore` runs one :func:`explore` per shard, in PE
order, on the calling thread (each shard's batch backend still
auto-selects the vectorized whole-grid engine for grid-shaped miss
sets, or fans out worker processes). Shards are not a speed-up: one
``explore`` over the whole space is faster. They are the sweep's
progress and cancel points — ``on_update`` receives the *anytime*
Pareto front after every shard, a cancel event is honoured before the
next one — and the shard results merge into a single
:class:`~repro.dse.explorer.DSEResult` whose points, Pareto front and
per-objective optima are bit-identical to the in-process sweep.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.dse.explorer import DSEResult, DSEStatistics, explore
from repro.dse.space import DesignPoint, DesignSpace
from repro.exec import AnalysisCache
from repro.model.layer import Layer
from repro.util.pareto import pareto_front


class SweepCancelled(Exception):
    """Raised when a sharded sweep is cancelled between shards."""


@dataclass(frozen=True)
class ShardUpdate:
    """One anytime progress event: the front after a shard landed."""

    shards_done: int
    shards_total: int
    points_explored: int
    points_valid: int
    front: Tuple[DesignPoint, ...]


def shard_pe_counts(pe_counts: Sequence[int], shards: int) -> List[List[int]]:
    """Partition the PE axis into up to ``shards`` contiguous blocks."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    count = min(shards, len(pe_counts))
    base, extra = divmod(len(pe_counts), count)
    blocks: List[List[int]] = []
    cursor = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        blocks.append(list(pe_counts[cursor : cursor + size]))
        cursor += size
    return blocks


def shard_spaces(space: DesignSpace, shards: int) -> List[DesignSpace]:
    """Split ``space`` into PE-contiguous shard spaces.

    Every shard keeps the full bandwidth and mapping axes — the
    grid-partition invariant that makes shard results concatenate into
    the whole-space sweep.
    """
    return [
        replace(space, pe_counts=block)
        for block in shard_pe_counts(space.pe_counts, shards)
    ]


def _front(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    return pareto_front(
        list(points), objectives=[lambda p: -p.throughput, lambda p: p.energy]
    )


def merge_shard_results(
    results: Sequence[DSEResult], elapsed_seconds: float
) -> DSEResult:
    """Fold per-shard results (in shard order) into one :class:`DSEResult`.

    Points are concatenated in shard order — the whole-space enumeration
    order — and the per-objective leaders are re-folded over that
    sequence, so first-achiever tie-breaking (and therefore every
    optimum) matches the unsharded sweep exactly.
    """
    if not results:
        raise ValueError("no shard results to merge")
    points: List[DesignPoint] = []
    for result in results:
        points.extend(result.points)
    # Every integer statistic is a count over the grid, so shard counts add.
    totals = {
        field.name: sum(getattr(result.statistics, field.name) for result in results)
        for field in fields(DSEStatistics)
        if field.type in ("int", int)
    }
    eval_wall = sum(result.statistics.eval_wall_seconds for result in results)
    executors = [result.statistics.executor for result in results]
    executor = executors[0] if len(set(executors)) == 1 else "mixed"
    statistics = DSEStatistics(
        elapsed_seconds=elapsed_seconds,
        executor=f"sharded[{len(results)}]/{executor}" if len(results) > 1 else executor,
        eval_wall_seconds=eval_wall,
        **totals,
    )
    return DSEResult.from_points(points, statistics)


def sharded_explore(
    layer: Layer,
    space: DesignSpace,
    *,
    shards: int = 1,
    cache: Union[bool, AnalysisCache, None] = True,
    on_update: Optional[Callable[[ShardUpdate], None]] = None,
    cancel: Optional[threading.Event] = None,
    **explore_kwargs: object,
) -> DSEResult:
    """Sweep ``space`` in PE-contiguous shards, one after another.

    ``cancel`` is checked before each shard starts; a set event raises
    :class:`SweepCancelled`. ``on_update`` fires after every shard with
    the Pareto front of every point seen so far (the *anytime* front:
    it only ever grows toward the final front). Shards run on the
    calling thread, so their ``serve.shard`` spans nest under the
    caller's open span. Blocking call — run it on a worker thread from
    async contexts.
    """
    start = time.perf_counter()
    spaces = shard_spaces(space, shards)
    results: List[DSEResult] = []
    front: List[DesignPoint] = []
    explored = valid = 0
    for index, shard in enumerate(spaces):
        if cancel is not None and cancel.is_set():
            raise SweepCancelled(f"cancelled after {index}/{len(spaces)} shards")
        with obs.span("serve.shard", shard=index, points=shard.size):
            result = explore(layer, shard, cache=cache, **explore_kwargs)
        results.append(result)
        if on_update is not None:
            explored += result.statistics.explored
            valid += result.statistics.valid
            # The front of (earlier front + this shard's points) is the
            # front of every point so far, ties kept in shard order.
            front = _front([*front, *result.points])
            on_update(
                ShardUpdate(
                    shards_done=index + 1,
                    shards_total=len(spaces),
                    points_explored=explored,
                    points_valid=valid,
                    front=tuple(front),
                )
            )
    return merge_shard_results(results, time.perf_counter() - start)
