"""Candidate dataflow templates for the auto-tuner.

A :class:`CandidateSpec` names one point in a structured dataflow
space:

- which dimension is spatially distributed at the top level (and,
  optionally, which second dimension inside a PE cluster of a chosen
  size) — the *partitioning strategy* in the paper's Table 3 sense;
- the temporal schedule family: ``reduction_inner`` sweeps C/R/S
  innermost (output-stationary flavor) or ``activation_inner`` sweeps
  the activation plane innermost (weight-stationary flavor);
- channel and activation tile sizes (the mapping sizes the paper's DSE
  identifies as the buffer-efficiency lever).

``build()`` materializes the spec as a :class:`Dataflow`; binding may
still reject a candidate on a given layer/PE count (e.g. cluster larger
than the array), which the search treats as invalid. Builds share their
map directive objects: the candidates of one template (every field but
the four tiles) differ only in their K, C, Y and X temporal maps, and
the construction lints run once per directive shape.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import (
    ClusterDirective,
    Directive,
    MapDirective,
    SizeLike,
    Sz,
)
from repro.tensors import dims as D

#: Dimensions a spatial map may target.
SPATIAL_DIMS: Tuple[str, ...] = (D.K, D.C, D.Y, D.X)

#: Temporal schedule families.
SCHEDULES: Tuple[str, ...] = ("reduction_inner", "activation_inner")

_SZ_R = Sz(D.R)
_SZ_S = Sz(D.S)


@functools.lru_cache(maxsize=1024, typed=True)
def _map(size: SizeLike, offset: SizeLike, dim: str, spatial: bool = False) -> MapDirective:
    """One shared directive object per spelling (directives are immutable)."""
    return MapDirective(dim=dim, size=size, offset=offset, spatial=spatial)


@dataclass(frozen=True)
class CandidateSpec:
    """One auto-tuner candidate; see the module docstring."""

    outer_spatial: str
    schedule: str
    c_tile: int = 1
    k_tile: int = 1
    y_tile: int = 1
    x_tile: int = 1
    cluster_size: Optional[int] = None
    inner_spatial: Optional[str] = None

    def __post_init__(self) -> None:
        if self.outer_spatial not in SPATIAL_DIMS:
            raise ValueError(f"bad outer_spatial {self.outer_spatial!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"bad schedule {self.schedule!r}")
        if (self.cluster_size is None) != (self.inner_spatial is None):
            raise ValueError("cluster_size and inner_spatial go together")
        if self.inner_spatial is not None:
            if self.inner_spatial == self.outer_spatial:
                raise ValueError("inner and outer spatial dims must differ")
            if self.inner_spatial not in SPATIAL_DIMS:
                raise ValueError(f"bad inner_spatial {self.inner_spatial!r}")

    @property
    def name(self) -> str:
        label = f"{self.outer_spatial}"
        if self.inner_spatial:
            label += f"{self.inner_spatial}x{self.cluster_size}"
        label += (
            f"-{self.schedule.split('_')[0]}"
            f"-c{self.c_tile}k{self.k_tile}y{self.y_tile}x{self.x_tile}"
        )
        return f"tuned-{label}"

    def build(self) -> Dataflow:
        """Materialize the candidate as a Dataflow."""
        directives: List[Directive] = [self._spatial_directive(self.outer_spatial)]
        channel_maps = [
            _map(self.k_tile, self.k_tile, D.K),
            _map(self.c_tile, self.c_tile, D.C),
        ]
        kernel_maps = [_map(_SZ_R, _SZ_R, D.R), _map(_SZ_S, _SZ_S, D.S)]
        activation_maps = [
            _map(self._plane_size("y"), self.y_tile, D.Y),
            _map(self._plane_size("x"), self.x_tile, D.X),
        ]
        if self.schedule == "reduction_inner":
            order = activation_maps + [channel_maps[0], kernel_maps[0], kernel_maps[1], channel_maps[1]]
        else:  # activation_inner: weights held while the plane sweeps
            order = [channel_maps[0], channel_maps[1]] + kernel_maps + activation_maps
        # The outer spatial dim is fully distributed; every other dim
        # (including the inner-spatial one, whose top-level temporal tile
        # the cluster then distributes, KC-P style) keeps its schedule.
        directives.extend(d for d in order if d.dim != self.outer_spatial)
        if self.cluster_size is not None:
            directives.append(ClusterDirective(self.cluster_size))
            directives.append(self._spatial_directive(self.inner_spatial))
        return Dataflow(name=self.name, directives=tuple(directives))

    def _plane_size(self, axis: str) -> SizeLike:
        if axis == "y":
            return _SZ_R if self.y_tile == 1 else f"({self.y_tile}-1)*St(Y)+Sz(R)"
        return _SZ_S if self.x_tile == 1 else f"({self.x_tile}-1)*St(X)+Sz(S)"

    def _spatial_directive(self, dim: str) -> MapDirective:
        if dim == D.Y:
            return _map(_SZ_R, 1, D.Y, True)
        if dim == D.X:
            return _map(_SZ_S, 1, D.X, True)
        return _map(1, 1, dim, True)


def enumerate_candidates(
    c_tiles: Sequence[int] = (1, 4, 16, 64),
    k_tiles: Sequence[int] = (1, 4, 16),
    plane_tiles: Sequence[int] = (1, 4),
    cluster_sizes: Sequence[int] = (8, 32),
    two_level: bool = True,
) -> Iterator[CandidateSpec]:
    """Yield the structured candidate grid (single- then two-level)."""
    for outer, schedule, c_tile, k_tile, plane in itertools.product(
        SPATIAL_DIMS, SCHEDULES, c_tiles, k_tiles, plane_tiles
    ):
        yield CandidateSpec(
            outer_spatial=outer,
            schedule=schedule,
            c_tile=c_tile,
            k_tile=k_tile,
            y_tile=plane,
            x_tile=plane,
        )
        if not two_level:
            continue
        for inner, cluster in itertools.product(SPATIAL_DIMS, cluster_sizes):
            if inner == outer:
                continue
            yield CandidateSpec(
                outer_spatial=outer,
                schedule=schedule,
                c_tile=c_tile,
                k_tile=k_tile,
                y_tile=plane,
                x_tile=plane,
                cluster_size=cluster,
                inner_spatial=inner,
            )
