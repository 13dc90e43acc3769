"""Lossless (de)serialization of evaluation outcomes.

The disk tier of :class:`~repro.exec.cache.AnalysisCache` stores one
JSON document per outcome. Round-tripping must be *bit-identical*: every
float survives via ``repr`` round-trip (the ``json`` module's default),
and every mapping is written in insertion order so a report loaded from
disk iterates exactly like one computed in-process.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.engines.analysis import EvalOutcome, LayerAnalysis, LevelStats

#: Bumped when the serialized document layout changes (independent of the
#: model-version salt, which tracks the cost model itself).
FORMAT_VERSION = 1


def _level_stats_to_dict(stats: LevelStats) -> Dict[str, Any]:
    return {
        "index": stats.index,
        "runtime_sweep": stats.runtime_sweep,
        "compute_bound_fraction": stats.compute_bound_fraction,
        "bottleneck": stats.bottleneck,
        "ingress_per_sweep": dict(stats.ingress_per_sweep),
        "delivered_per_sweep": dict(stats.delivered_per_sweep),
        "egress_per_sweep": stats.egress_per_sweep,
        "psum_readback_per_sweep": stats.psum_readback_per_sweep,
        "upstream_buffer_req": stats.upstream_buffer_req,
        "peak_bw_elems_per_cycle": stats.peak_bw_elems_per_cycle,
    }


def _level_stats_from_dict(doc: Dict[str, Any]) -> LevelStats:
    return LevelStats(
        index=doc["index"],
        runtime_sweep=doc["runtime_sweep"],
        compute_bound_fraction=doc["compute_bound_fraction"],
        bottleneck=doc["bottleneck"],
        ingress_per_sweep=dict(doc["ingress_per_sweep"]),
        delivered_per_sweep=dict(doc["delivered_per_sweep"]),
        egress_per_sweep=doc["egress_per_sweep"],
        psum_readback_per_sweep=doc["psum_readback_per_sweep"],
        upstream_buffer_req=doc["upstream_buffer_req"],
        peak_bw_elems_per_cycle=doc["peak_bw_elems_per_cycle"],
    )


def analysis_to_dict(report: LayerAnalysis) -> Dict[str, Any]:
    """A JSON-able document preserving every field and mapping order."""
    return {
        "layer_name": report.layer_name,
        "dataflow_name": report.dataflow_name,
        "num_pes": report.num_pes,
        "runtime": report.runtime,
        "total_ops": report.total_ops,
        "utilization": report.utilization,
        "level_stats": [_level_stats_to_dict(s) for s in report.level_stats],
        "l2_reads": dict(report.l2_reads),
        "l2_writes": dict(report.l2_writes),
        "l1_reads": dict(report.l1_reads),
        "l1_writes": dict(report.l1_writes),
        "intermediate_reads": report.intermediate_reads,
        "intermediate_writes": report.intermediate_writes,
        "dram_reads": dict(report.dram_reads),
        "dram_writes": dict(report.dram_writes),
        "l1_buffer_req": report.l1_buffer_req,
        "l2_buffer_req": report.l2_buffer_req,
        "intermediate_buffer_reqs": list(report.intermediate_buffer_reqs),
        "noc_bw_req_elems": report.noc_bw_req_elems,
        "noc_bw_req_gbps": report.noc_bw_req_gbps,
        "reuse_factors": dict(report.reuse_factors),
        "max_reuse_factors": dict(report.max_reuse_factors),
        "energy_breakdown": dict(report.energy_breakdown),
    }


def analysis_from_dict(doc: Dict[str, Any]) -> LayerAnalysis:
    """Inverse of :func:`analysis_to_dict`."""
    return LayerAnalysis(
        layer_name=doc["layer_name"],
        dataflow_name=doc["dataflow_name"],
        num_pes=doc["num_pes"],
        runtime=doc["runtime"],
        total_ops=doc["total_ops"],
        utilization=doc["utilization"],
        level_stats=tuple(_level_stats_from_dict(s) for s in doc["level_stats"]),
        l2_reads=dict(doc["l2_reads"]),
        l2_writes=dict(doc["l2_writes"]),
        l1_reads=dict(doc["l1_reads"]),
        l1_writes=dict(doc["l1_writes"]),
        intermediate_reads=doc["intermediate_reads"],
        intermediate_writes=doc["intermediate_writes"],
        dram_reads=dict(doc["dram_reads"]),
        dram_writes=dict(doc["dram_writes"]),
        l1_buffer_req=doc["l1_buffer_req"],
        l2_buffer_req=doc["l2_buffer_req"],
        intermediate_buffer_reqs=tuple(doc["intermediate_buffer_reqs"]),
        noc_bw_req_elems=doc["noc_bw_req_elems"],
        noc_bw_req_gbps=doc["noc_bw_req_gbps"],
        reuse_factors=dict(doc["reuse_factors"]),
        max_reuse_factors=dict(doc["max_reuse_factors"]),
        energy_breakdown=dict(doc["energy_breakdown"]),
    )


def outcome_to_json(outcome: EvalOutcome) -> str:
    """Serialize an outcome (success or rejection) for the disk cache."""
    if outcome.ok:
        doc = {
            "format": FORMAT_VERSION,
            "status": "ok",
            "report": analysis_to_dict(outcome.report),
        }
    else:
        doc = {
            "format": FORMAT_VERSION,
            "status": "error",
            "error_type": outcome.error_type,
            "error_message": outcome.error_message,
        }
    return json.dumps(doc)


def outcome_from_json(text: str) -> EvalOutcome:
    """Parse a disk-cache document.

    Raises ``ValueError``/``KeyError``/``TypeError`` on truncated,
    malformed, or format-incompatible documents — the cache layer turns
    that into a counted warning, deletes the bad file, and recomputes
    (it must never be a silent permanent miss).
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"cache document is {type(doc).__name__}, not an object")
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"cache document format {doc.get('format')!r} != {FORMAT_VERSION!r}"
        )
    if doc["status"] == "ok":
        return EvalOutcome(report=analysis_from_dict(doc["report"]))
    return EvalOutcome(
        report=None,
        error_type=doc["error_type"],
        error_message=doc["error_message"],
    )
