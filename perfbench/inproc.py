"""The in-process workloads: ``dse-grid`` and ``tune-mapping``.

Each workload is a catalog of operations, a seeded way to draw a round
of them, a way to run one, and a digest of its output. An operation's
key names everything it depends on, so the digest recorded for the key
at the commit that defined the benchmark is the expected output on
every later commit.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from common import digest
from repro import obs
from repro.dse.explorer import DSEResult, explore
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
    yr_partitioned_variants,
)
from repro.exec import AnalysisCache, analysis_to_dict
from repro.hardware.accelerator import Accelerator
from repro.model.zoo import build
from repro.tuner import TunerResult, tune_layer

Counts = Dict[str, int]

#: The Eyeriss budget of the paper's Figure 13.
AREA_BUDGET = 16.0
POWER_BUDGET = 450.0


def _layers(names: Tuple[Tuple[str, str], ...]) -> Dict[str, Any]:
    networks = {model: build(model) for model in dict.fromkeys(m for m, _ in names)}
    return {f"{model}/{layer}": networks[model].layer(layer) for model, layer in names}


def point_row(point: Any) -> List[Any]:
    return [
        point.num_pes, point.noc_bandwidth, point.dataflow_name, point.tile_label,
        point.l1_size, point.l2_size, point.area, point.power,
        point.throughput, point.runtime, point.energy,
    ]


class DseGrid:
    """Fig-13 sweeps in process: one op is one ``explore`` call plus its front."""

    name = "dse-grid"
    #: Seconds one round takes on the reference machine (see README).
    ROUND_SECONDS = 27.0
    #: Layer slots: VGG16 CONV2 or CONV11 (the paper's Figure 13), then
    #: one conv layer each of ResNet-50, MobileNetV2 and UNet; the seed
    #: picks the layer of each slot. The alternatives in a slot sweep in
    #: about the same time, so seeds vary the inputs, not the work.
    SLOTS = (
        (("vgg16", "CONV2"), ("vgg16", "CONV11")),
        (("resnet50", "CONV2_1b"), ("resnet50", "CONV3_2a"), ("resnet50", "CONV4_1b")),
        (("mobilenet_v2", "BN2_1_expand"), ("mobilenet_v2", "BN3_1_dw")),
        (("unet", "DOWN2_1"), ("unet", "DOWN4_1"), ("unet", "UP2_2")),
    )
    FAMILIES = ("KC-P", "YR-P")
    PRUNERS: Dict[str, Dict[str, Any]] = {
        "none": {},
        "verify": {"verify_coverage": True},
        "equiv": {"equiv_prune": True},
        "capacity": {"capacity_prune": True},
        "equiv+capacity": {"equiv_prune": True, "capacity_prune": True},
        # The comm screen only runs on hardware without spatial reduction.
        "comm-noreduce": {"comm_prune": True, "spatial_reduction": False},
    }

    def __init__(self) -> None:
        self.layers = _layers(tuple(layer for slot in self.SLOTS for layer in slot))
        pes = default_pe_counts(max_pes=512, step=16)
        bandwidths = default_bandwidths(128)
        self.spaces = {
            "KC-P": DesignSpace(pes, bandwidths, kc_partitioned_variants()),
            "YR-P": DesignSpace(pes, bandwidths, yr_partitioned_variants()),
        }

    def catalog(self) -> List[str]:
        return [
            f"{layer}|{family}|{pruner}"
            for layer in self.layers
            for family in self.FAMILIES
            for pruner in self.PRUNERS
        ]

    def schedule(self, seed: int, rounds: int) -> List[str]:
        """``rounds`` rounds of every (slot, family, pruner set), in seeded order.

        Each round draws one layer per slot; every round holds the same
        mix of families and pruner sets.
        """
        rng = random.Random(seed)
        keys: List[str] = []
        for _ in range(rounds):
            layers = ["/".join(rng.choice(slot)) for slot in self.SLOTS]
            ops = [
                f"{layer}|{family}|{pruner}"
                for layer in layers
                for family in self.FAMILIES
                for pruner in self.PRUNERS
            ]
            rng.shuffle(ops)
            keys += ops
        return keys

    def run(self, key: str) -> Tuple[DSEResult, list]:
        layer, family, pruner = key.split("|")
        with obs.span("dse.explore"):
            result = explore(
                self.layers[layer],
                self.spaces[family],
                AREA_BUDGET,
                POWER_BUDGET,
                cache=AnalysisCache(),
                **self.PRUNERS[pruner],
            )
        return result, result.pareto()

    @staticmethod
    def digest(output: Tuple[DSEResult, list]) -> Dict[str, Any]:
        result, front = output
        stats = result.statistics
        optima = [result.throughput_optimal, result.energy_optimal, result.edp_optimal]
        partition = {
            name: getattr(stats, name)
            for name in (
                "explored", "evaluated", "valid", "pruned", "static_rejects",
                "coverage_rejects", "cost_model_calls", "cache_hits",
                "symbolic_rejects", "bnb_pruned", "comm_rejects",
                "equiv_replays", "capacity_rejects",
            )
        }
        return {
            "points": digest([point_row(p) for p in result.points]),
            "front": digest([point_row(p) for p in front]),
            "optima": digest([point_row(p) if p else None for p in optima]),
            "statistics": digest(partition),
        }

    @staticmethod
    def points(output: Tuple[DSEResult, list]) -> int:
        return output[0].statistics.explored

    def counts(self, key: str, output: Tuple[DSEResult, list]) -> Counts:
        return dse_counts(output[0].statistics, self.PRUNERS[key.split("|")[2]])


def dse_counts(stats: Any, pruners: Dict[str, Any]) -> Counts:
    """Sweep counters, with what each screen saw and rejected.

    The explorer screens each grid point in the order lint, verify,
    comm, capacity; the equivalence quotient then replays candidates.
    A screen sees the points that survived the budget and the screens
    before it.
    """
    budget_pruned = stats.pruned - (
        stats.static_rejects + stats.coverage_rejects
        + stats.comm_rejects + stats.capacity_rejects
    )
    counts: Counts = {
        "dse.explored": stats.explored,
        "dse.cost_model_calls": stats.cost_model_calls,
    }
    stages = (
        ("lint", True, stats.static_rejects),
        ("verify", pruners.get("verify_coverage", False), stats.coverage_rejects),
        (
            "comm",
            pruners.get("comm_prune", False) and not pruners.get("spatial_reduction", True),
            stats.comm_rejects,
        ),
        ("capacity", pruners.get("capacity_prune", False), stats.capacity_rejects),
        ("equiv", pruners.get("equiv_prune", False), stats.equiv_replays),
    )
    return {**counts, **screen_counts(stats.explored - budget_pruned, stages)}


def screen_counts(remaining: int, stages: Tuple[Tuple[str, bool, int], ...]) -> Counts:
    """What each enabled screen saw and rejected, walking the screens in order.

    ``stages`` is ``(screen, enabled, rejects)`` in the order the screens
    run; a screen sees what the screens before it let through.
    """
    counts: Counts = {}
    for screen, enabled, rejects in stages:
        if enabled:
            counts[f"screen.{screen}.screened"] = remaining
            counts[f"screen.{screen}.rejects"] = rejects
            remaining -= rejects
    return counts


class TuneMapping:
    """Exhaustive mapping search in process: one op is one ``tune_layer`` call."""

    name = "tune-mapping"
    #: Seconds one round takes on the reference machine (see README).
    ROUND_SECONDS = 40.0
    #: Layer slots: a 3x3 conv, a pointwise and a depthwise layer, picked
    #: by the seed. Alternatives in a slot tune in about the same time.
    SLOTS = (
        (("resnet50", "CONV2_1b"), ("unet", "DOWN3_1")),
        (("resnet50", "CONV3_1a"), ("mobilenet_v2", "BN3_1_expand")),
        (("mobilenet_v2", "BN2_1_dw"), ("mobilenet_v2", "BN5_1_dw")),
    )
    PRUNERS: Dict[str, Dict[str, Any]] = {
        "none": {},
        "equiv+capacity": {"equiv_prune": True, "capacity_prune": True},
        "symbolic": {"symbolic_prune": True},
    }
    #: Buffer caps, so the capacity and symbolic screens have work to do.
    CAPS = {"max_l1_bytes": 512, "max_l2_bytes": 200_000}

    def __init__(self) -> None:
        self.layers = _layers(tuple(layer for slot in self.SLOTS for layer in slot))
        self.accelerator = Accelerator(num_pes=256)

    def catalog(self) -> List[str]:
        return [f"{layer}|{pruner}" for layer in self.layers for pruner in self.PRUNERS]

    def schedule(self, seed: int, rounds: int) -> List[str]:
        """``rounds`` rounds of every (slot, pruner set) twice, in seeded order.

        Each round draws two layers per slot; every round holds the same
        mix of pruner sets. Two draws per slot, not one, because an
        18-call round averages out the process pool's call-to-call noise.
        """
        rng = random.Random(seed)
        keys: List[str] = []
        for _ in range(rounds):
            layers = ["/".join(rng.choice(slot)) for slot in self.SLOTS for _ in range(2)]
            ops = [f"{layer}|{pruner}" for layer in layers for pruner in self.PRUNERS]
            rng.shuffle(ops)
            keys += ops
        return keys

    def run(self, key: str) -> TunerResult:
        layer, pruner = key.split("|")
        with obs.span("tuner.tune"):
            return tune_layer(
                self.layers[layer],
                self.accelerator,
                cache=AnalysisCache(),
                **self.CAPS,
                **self.PRUNERS[pruner],
            )

    @staticmethod
    def digest(output: TunerResult) -> Dict[str, Any]:
        return {
            "top": digest(
                [
                    [c.spec.name, c.dataflow.name, c.score, analysis_to_dict(c.report)]
                    for c in output.top
                ]
            )
        }

    @staticmethod
    def points(output: TunerResult) -> int:
        return output.evaluated + output.rejected

    def counts(self, key: str, output: TunerResult) -> Counts:
        """Tuner counters, with what each screen saw and rejected.

        The tuner screens candidates in the order lint, capacity,
        symbolic; the equivalence quotient then replays candidates.
        """
        pruners = self.PRUNERS[key.split("|")[1]]
        candidates = self.points(output)
        stages = (
            ("lint", True, output.statically_rejected),
            ("capacity", pruners.get("capacity_prune", False), output.capacity_rejected),
            ("symbolic", pruners.get("symbolic_prune", False), output.symbolic_rejected),
            ("equiv", pruners.get("equiv_prune", False), output.equiv_replayed),
        )
        return {
            "tuner.candidates": candidates,
            "tuner.rejects": output.rejected,
            **screen_counts(candidates, stages),
        }


WORKLOADS = {DseGrid.name: DseGrid, TuneMapping.name: TuneMapping}
