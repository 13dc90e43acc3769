"""The paper's dataflow library.

Contains:

- the five evaluation dataflows of Table 3 (C-P, X-P, YX-P, YR-P, KC-P),
  motivated by input-channel-parallel accelerators, 1-D weight-stationary
  designs, ShiDianNao, Eyeriss, and NVDLA respectively;
- the six 1-D convolution playground dataflows of Figure 5 (A-F);
- the extended row-stationary example of Figure 6;
- simple generic weight- and output-stationary dataflows for examples.

All Table 3 dataflows are written with symbolic ``Sz(...)`` sizes so they
bind to any convolution layer, and with explicit ``St(...)`` offsets on
the input coordinates Y/X so they stay stride-portable: an offset of
``St(Y)`` advances one *output* row per step, while a literal ``1``
advances one *input* row — the spelling the diagonal (Y, R) walks of
YR-P and row-stationary rely on.
"""

from __future__ import annotations

from typing import Dict

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.directives import ClusterDirective, St, Sz, spatial_map, temporal_map
from repro.tensors import dims as D


def c_partitioned() -> Dataflow:
    """C-P: input-channel parallelism, large spatial reduction (Table 3)."""
    return Dataflow(
        name="C-P",
        directives=(
            temporal_map(1, 1, D.K),
            temporal_map(Sz(D.R), St(D.Y), D.Y),
            temporal_map(Sz(D.S), St(D.X), D.X),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
            temporal_map(Sz(D.S), Sz(D.S), D.S),
            spatial_map(1, 1, D.C),
        ),
    )


def x_partitioned() -> Dataflow:
    """X-P: input-column parallelism, weight-stationary (Table 3)."""
    return Dataflow(
        name="X-P",
        directives=(
            temporal_map(1, 1, D.K),
            temporal_map(1, 1, D.C),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
            temporal_map(Sz(D.S), Sz(D.S), D.S),
            temporal_map(Sz(D.R), St(D.Y), D.Y),
            spatial_map(Sz(D.S), St(D.X), D.X),
        ),
    )


def yx_partitioned(tile_x: int = 8) -> Dataflow:
    """YX-P: 2-D activation parallelism, ShiDianNao-style (Table 3)."""
    return Dataflow(
        name="YX-P",
        directives=(
            temporal_map(1, 1, D.K),
            spatial_map(Sz(D.R), St(D.Y), D.Y),
            temporal_map(f"({tile_x}-1)*St(X)+Sz(S)", f"{tile_x}*St(X)", D.X),
            temporal_map(1, 1, D.C),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
            temporal_map(Sz(D.S), Sz(D.S), D.S),
            ClusterDirective(tile_x),
            spatial_map(Sz(D.S), St(D.X), D.X),
        ),
    )


def yr_partitioned(c_tile: int = 2, k_tile: int = 2, x_tile: int = 1) -> Dataflow:
    """YR-P: row-stationary, Eyeriss-style (Table 3).

    The inner cluster distributes Y and R *jointly* across ``Sz(R)`` PEs:
    PE ``i`` takes input row ``y0 + i`` and filter row ``i``, so every PE
    in the cluster produces partial sums for the same output row
    (spatial reduction), and inputs are reused diagonally.

    ``c_tile``/``k_tile``/``x_tile`` are the mapping (tile) sizes the
    paper's DSE sweeps; larger tiles need larger buffers but expose more
    temporal reuse.

    The outer Y/X offsets carry explicit ``St(...)`` factors (advance
    whole output positions); the *inner* cluster's joint (Y, R) offsets
    stay a literal 1 — adjacent input row paired with adjacent filter
    row — which is what keeps the diagonal sound on strided layers.
    """
    x_size = Sz(D.S) if x_tile == 1 else f"({x_tile}-1)*St(X)+Sz(S)"
    return Dataflow(
        name="YR-P",
        directives=(
            temporal_map(c_tile, c_tile, D.C),
            temporal_map(k_tile, k_tile, D.K),
            spatial_map(Sz(D.R), St(D.Y), D.Y),
            temporal_map(x_size, f"{x_tile}*St(X)", D.X),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
            temporal_map(Sz(D.S), Sz(D.S), D.S),
            ClusterDirective(Sz(D.R)),
            spatial_map(1, 1, D.Y),
            spatial_map(1, 1, D.R),
        ),
    )


def kc_partitioned(c_tile: int = 64, y_tile: int = 1, x_tile: int = 1) -> Dataflow:
    """KC-P: output/input-channel parallelism, NVDLA-style (Table 3).

    ``c_tile`` is the inner cluster size (input channels reduced
    spatially); ``y_tile``/``x_tile`` grow the activation chunk each
    step maps (bigger buffers, more convolutional reuse) — the tiling
    levers the paper's DSE explores.
    """
    y_size = Sz(D.R) if y_tile == 1 else f"({y_tile}-1)*St(Y)+Sz(R)"
    x_size = Sz(D.S) if x_tile == 1 else f"({x_tile}-1)*St(X)+Sz(S)"
    return Dataflow(
        name="KC-P",
        directives=(
            spatial_map(1, 1, D.K),
            temporal_map(c_tile, c_tile, D.C),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
            temporal_map(Sz(D.S), Sz(D.S), D.S),
            temporal_map(y_size, f"{y_tile}*St(Y)", D.Y),
            temporal_map(x_size, f"{x_tile}*St(X)", D.X),
            ClusterDirective(c_tile),
            spatial_map(1, 1, D.C),
        ),
    )


#: The five dataflows of Table 3, by partitioning-strategy name.
def table3_dataflows() -> Dict[str, Dataflow]:
    """Fresh instances of the five Table 3 dataflows."""
    return {
        "C-P": c_partitioned(),
        "X-P": x_partitioned(),
        "YX-P": yx_partitioned(),
        "YR-P": yr_partitioned(),
        "KC-P": kc_partitioned(),
    }


# ----------------------------------------------------------------------
# Figure 5: the 1-D convolution dataflow playground
# ----------------------------------------------------------------------
def fig5_playground() -> Dict[str, Dataflow]:
    """The six 1-D convolution dataflows of Figure 5.

    All run the Figure 4 workload (X' = 12, S = 6) on 3 PEs (6 for F):

    - A — output-stationary, outputs spatially partitioned;
    - B — A with the directive order interchanged: weight-stationary;
    - C — collaborative weight-stationary (S spatially mapped);
    - D — collaborative output-stationary (spatial reduction);
    - E — SpatialMap(2,2) S: partial temporal reuse of inputs;
    - F — clustered/tiled collaborative weight-stationary.
    """
    return {
        "A": Dataflow(
            "fig5-A",
            (spatial_map(1, 1, D.XP), temporal_map(1, 1, D.S)),
        ),
        "B": Dataflow(
            "fig5-B",
            (temporal_map(1, 1, D.S), spatial_map(1, 1, D.XP)),
        ),
        "C": Dataflow(
            "fig5-C",
            (spatial_map(1, 1, D.S), temporal_map(1, 1, D.XP)),
        ),
        "D": Dataflow(
            "fig5-D",
            (temporal_map(1, 1, D.XP), spatial_map(1, 1, D.S)),
        ),
        "E": Dataflow(
            "fig5-E",
            (spatial_map(2, 2, D.S), temporal_map(1, 1, D.XP)),
        ),
        "F": Dataflow(
            "fig5-F",
            (
                temporal_map(3, 3, D.S),
                spatial_map(1, 1, D.XP),
                ClusterDirective(3),
                spatial_map(1, 1, D.S),
                temporal_map(1, 1, D.XP),
            ),
        ),
    }


def row_stationary_fig6() -> Dataflow:
    """The extended row-stationary example of Figure 6 (six PEs).

    Hardcodes Figure 6's 3x3 tile sizes (the design envelope), but the
    Y/X walks carry explicit ``St(...)`` offsets, and the inner (Y, R)
    diagonal keeps unit input-row offsets, so the mapping stays sound on
    strided 3x3 layers.
    """
    return Dataflow(
        name="row-stationary-fig6",
        directives=(
            temporal_map(1, 1, D.N),
            temporal_map(3, 3, D.C),
            temporal_map(2, 2, D.K),
            spatial_map(3, St(D.Y), D.Y),
            temporal_map(3, St(D.X), D.X),
            temporal_map(3, 3, D.R),
            temporal_map(3, 3, D.S),
            ClusterDirective(3),
            temporal_map(1, 1, D.N),
            temporal_map(1, 1, D.C),
            temporal_map(1, 1, D.K),
            spatial_map(1, 1, D.Y),
            spatial_map(1, 1, D.R),
            temporal_map(3, St(D.X), D.X),
            temporal_map(3, 3, D.S),
        ),
    )


# ----------------------------------------------------------------------
# Generic single-level dataflows for examples and tests
# ----------------------------------------------------------------------
def weight_stationary_1level() -> Dataflow:
    """Hold one filter chunk per PE while sweeping the activation plane.

    Weight dims (K spatial, C/R/S outer temporal) enclose the Y/X sweep,
    so weights stay put across the innermost steps — the classic
    weight-stationary schedule.
    """
    return Dataflow(
        name="WS-K",
        directives=(
            temporal_map(1, 1, D.N),
            spatial_map(1, 1, D.K),
            temporal_map(1, 1, D.C),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
            temporal_map(Sz(D.S), Sz(D.S), D.S),
            temporal_map(Sz(D.R), St(D.Y), D.Y),
            temporal_map(Sz(D.S), St(D.X), D.X),
        ),
    )


def output_stationary_1level() -> Dataflow:
    """Hold one output pixel set per PE; sweep reductions innermost."""
    return Dataflow(
        name="OS-YX",
        directives=(
            temporal_map(1, 1, D.N),
            temporal_map(1, 1, D.K),
            spatial_map(Sz(D.R), St(D.Y), D.Y),
            temporal_map(Sz(D.S), St(D.X), D.X),
            temporal_map(1, 1, D.C),
            temporal_map(Sz(D.R), Sz(D.R), D.R),
            temporal_map(Sz(D.S), Sz(D.S), D.S),
        ),
    )


# ----------------------------------------------------------------------
# The stock catalog
# ----------------------------------------------------------------------
def stock_dataflows(include_playground: bool = True) -> Dict[str, Dataflow]:
    """Every mapping the library ships, keyed by catalog name.

    Keys equal the dataflow names except the Figure 6 row-stationary
    mapping, keyed ``"RS"`` (its name is ``row-stationary-fig6``).
    ``include_playground=False`` drops the Figure 5 teaching mappings —
    useful where the catalog serves as a quality reference (DF403)
    rather than a coverage corpus.
    """
    flows = table3_dataflows()
    if include_playground:
        flows.update({f"fig5-{key}": flow for key, flow in fig5_playground().items()})
    flows["RS"] = row_stationary_fig6()
    flows["WS-K"] = weight_stationary_1level()
    flows["OS-YX"] = output_stationary_1level()
    return flows
