"""Request schemas for the analysis server: validate, lint, normalize.

Every job kind the server accepts (``analyze`` / ``lint`` / ``verify``
/ ``dse`` / ``tune``) has a validator here that:

1. rejects unknown fields and mistyped/out-of-range values with a 400
   carrying the offending field name (typo safety for a JSON API);
2. fills defaults, producing a *normalized* document — the canonical
   form hashed into the job key for single-flight deduplication and
   result sharing;
3. resolves and **lints the mapping up front** where one is named:
   a request whose mapping cannot bind is rejected with a 422 carrying
   the rustc-style diagnostics, before it ever occupies a worker slot.

The job key is a SHA-256 over the normalized document plus the
cost-model version salt (:func:`repro.exec.cache.model_version_salt`),
so two tenants submitting the same work share one in-flight computation
and one cached answer, while a model-code change can never replay a
stale job result.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dataflow.dataflow import Dataflow
from repro.dataflow.library import table3_dataflows
from repro.dataflow.parser import parse_dataflow
from repro.dse.space import (
    DesignSpace,
    default_bandwidths,
    default_pe_counts,
    kc_partitioned_variants,
    yr_partitioned_variants,
)
from repro.errors import DataflowError
from repro.hardware.accelerator import Accelerator, NoC
from repro.model.layer import Layer
from repro.model.zoo import MODELS, build
from repro.serve.http import HttpError

#: DSE hardware-grid caps: a public endpoint must bound the work a
#: single request can demand (the paper-scale sweep is a batch job, not
#: one HTTP call).
MAX_PES_CAP = 4096
MAX_SHARDS = 64

JOB_KINDS = ("analyze", "lint", "verify", "dse", "tune")


def _bad(field: str, message: str) -> HttpError:
    return HttpError(400, f"bad field {field!r}: {message}")


def _check_unknown(doc: Dict[str, Any], allowed: Tuple[str, ...], kind: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise HttpError(
            400,
            f"unknown field(s) for {kind!r} job: {', '.join(unknown)}",
            details={"allowed": sorted(allowed)},
        )


def _get_str(
    doc: Dict[str, Any],
    field: str,
    default: Optional[str] = None,
    required: bool = False,
    choices: Optional[Tuple[str, ...]] = None,
) -> Optional[str]:
    if field not in doc:
        if required:
            raise _bad(field, "required")
        return default
    value = doc[field]
    if not isinstance(value, str):
        raise _bad(field, f"expected a string, got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise _bad(field, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _get_int(
    doc: Dict[str, Any],
    field: str,
    default: Optional[int] = None,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> Optional[int]:
    if field not in doc:
        return default
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(field, f"expected an integer, got {type(value).__name__}")
    if lo is not None and value < lo:
        raise _bad(field, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise _bad(field, f"must be <= {hi}, got {value}")
    return value


def _get_float(
    doc: Dict[str, Any], field: str, default: float, lo: Optional[float] = None
) -> float:
    if field not in doc:
        return default
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(field, f"expected a number, got {type(value).__name__}")
    if lo is not None and value < lo:
        raise _bad(field, f"must be >= {lo}, got {value}")
    return float(value)


def _get_bool(doc: Dict[str, Any], field: str, default: bool) -> bool:
    if field not in doc:
        return default
    value = doc[field]
    if not isinstance(value, bool):
        raise _bad(field, f"expected a boolean, got {type(value).__name__}")
    return value


# ----------------------------------------------------------------------
# Shared sub-documents
# ----------------------------------------------------------------------
ACCEL_FIELDS = (
    "pes",
    "bandwidth",
    "latency",
    "l1",
    "l2",
    "spatial_reduction",
    "multicast",
)


def normalize_accelerator(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Validate an ``accelerator`` sub-document and fill defaults."""
    _check_unknown(doc, ACCEL_FIELDS, "accelerator")
    return {
        "pes": _get_int(doc, "pes", default=256, lo=1, hi=MAX_PES_CAP),
        "bandwidth": _get_int(doc, "bandwidth", default=32, lo=1),
        "latency": _get_int(doc, "latency", default=2, lo=0),
        "l1": _get_int(doc, "l1", default=None, lo=1),
        "l2": _get_int(doc, "l2", default=None, lo=1),
        "spatial_reduction": _get_bool(doc, "spatial_reduction", True),
        "multicast": _get_bool(doc, "multicast", True),
    }


def build_accelerator(norm: Dict[str, Any]) -> Accelerator:
    """An :class:`Accelerator` from a normalized accelerator document."""
    kwargs: Dict[str, Any] = {}
    if norm["l1"] is not None:
        kwargs["l1_size"] = norm["l1"]
    if norm["l2"] is not None:
        kwargs["l2_size"] = norm["l2"]
    return Accelerator(
        num_pes=norm["pes"],
        spatial_reduction=norm["spatial_reduction"],
        noc=NoC(
            bandwidth=norm["bandwidth"],
            avg_latency=norm["latency"],
            multicast=norm["multicast"],
        ),
        **kwargs,
    )


def resolve_model(doc: Dict[str, Any]) -> str:
    name = _get_str(doc, "model", required=True)
    assert name is not None
    if name not in MODELS:
        raise _bad("model", f"unknown model (choose from {sorted(MODELS)})")
    return name


def resolve_layers(model: str, layer: Optional[str]) -> List[Layer]:
    network = build(model)
    if layer is None:
        return list(network.layers)
    try:
        return [network.layer(layer)]
    except KeyError:
        names = [lyr.name for lyr in network.layers]
        raise _bad("layer", f"unknown layer of {model!r} (choose from {names})")


def resolve_dataflow(doc: Dict[str, Any]) -> Tuple[Dataflow, Dict[str, Any]]:
    """Resolve ``dataflow`` (library name) or ``dataflow_text`` (DSL).

    Returns the dataflow plus the normalized fields describing it.
    """
    name = _get_str(doc, "dataflow")
    text = _get_str(doc, "dataflow_text")
    if (name is None) == (text is None):
        raise HttpError(
            400, "pass exactly one of 'dataflow' (library name) or 'dataflow_text'"
        )
    if name is not None:
        catalog = table3_dataflows()
        if name not in catalog:
            raise _bad(
                "dataflow", f"unknown library dataflow (choose from {sorted(catalog)})"
            )
        return catalog[name], {"dataflow": name, "dataflow_text": None}
    assert text is not None
    try:
        flow = parse_dataflow(text, name="request")
    except (DataflowError, ValueError) as error:
        raise HttpError(422, f"dataflow_text does not parse: {error}")
    return flow, {"dataflow": None, "dataflow_text": text}


def lint_gate(flow: Dataflow, layer: Layer, accelerator: Accelerator) -> None:
    """Reject (422 + diagnostics) mappings the static analyzer refutes.

    Only the rules that can emit an ERROR decide the verdict; a
    rejection then carries the full lint report, as ``/v1/lint`` would
    return it.
    """
    from repro import obs
    from repro.lint.engine import lint_dataflow, lint_errors

    with obs.span("lint"):
        if not lint_errors(flow, layer, accelerator):
            return
        report = lint_dataflow(flow, layer, accelerator)
    raise HttpError(
        422,
        f"mapping fails static lint against layer {layer.name!r}",
        details=report.to_dict(),
    )


# ----------------------------------------------------------------------
# Per-kind validators: doc -> normalized doc
# ----------------------------------------------------------------------
def validate_analyze(doc: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(
        doc, ("model", "layer", "dataflow", "dataflow_text", "accelerator"), "analyze"
    )
    model = resolve_model(doc)
    layer = _get_str(doc, "layer")
    flow, flow_fields = resolve_dataflow(doc)
    accel = normalize_accelerator(doc.get("accelerator") or {})
    layers = resolve_layers(model, layer)
    if layer is not None:
        # A single named layer is linted up front: a request that cannot
        # bind is rejected before it occupies a worker slot. Whole-model
        # sweeps report per-layer errors inline instead.
        lint_gate(flow, layers[0], build_accelerator(accel))
    return {"model": model, "layer": layer, "accelerator": accel, **flow_fields}


def validate_lint(doc: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(
        doc, ("model", "layer", "dataflow", "dataflow_text", "accelerator"), "lint"
    )
    layer = _get_str(doc, "layer")
    model = resolve_model(doc) if ("model" in doc or layer is not None) else None
    if layer is not None and model is None:
        raise _bad("layer", "requires 'model'")
    _, flow_fields = resolve_dataflow(doc)
    accel = normalize_accelerator(doc.get("accelerator") or {})
    if model is not None:
        resolve_layers(model, layer)
    return {"model": model, "layer": layer, "accelerator": accel, **flow_fields}


def validate_verify(doc: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(
        doc, ("model", "layer", "dataflow", "dataflow_text", "budget"), "verify"
    )
    layer = _get_str(doc, "layer")
    model = resolve_model(doc) if ("model" in doc or layer is not None) else None
    if layer is not None and model is None:
        raise _bad("layer", "requires 'model'")
    _, flow_fields = resolve_dataflow(doc)
    if model is not None:
        resolve_layers(model, layer)
    return {
        "model": model,
        "layer": layer,
        "budget": _get_int(doc, "budget", default=None, lo=1),
        **flow_fields,
    }


DSE_FAMILIES = ("KC-P", "YR-P")

#: The ``explore`` pruning keywords a dse job may set, same-named in JSON.
DSE_PRUNERS = ("verify_coverage", "equiv_prune", "capacity_prune")


def validate_dse(doc: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(
        doc,
        (
            "model",
            "layer",
            "dataflow",
            "area",
            "power",
            "max_pes",
            "pe_step",
            "max_bandwidth",
            "shards",
            "executor",
            "jobs",
            "stream",
            *DSE_PRUNERS,
            "spatial_reduction",
            "multicast",
        ),
        "dse",
    )
    model = resolve_model(doc)
    layer = _get_str(doc, "layer", required=True)
    resolve_layers(model, layer)
    max_pes = _get_int(doc, "max_pes", default=512, lo=1, hi=MAX_PES_CAP)
    pe_step = _get_int(doc, "pe_step", default=8, lo=1)
    assert max_pes is not None and pe_step is not None
    if pe_step > max_pes:
        raise _bad("pe_step", f"must be <= max_pes ({max_pes})")
    return {
        "model": model,
        "layer": layer,
        "dataflow": _get_str(doc, "dataflow", default="KC-P", choices=DSE_FAMILIES),
        "area": _get_float(doc, "area", default=16.0, lo=0.0),
        "power": _get_float(doc, "power", default=450.0, lo=0.0),
        "max_pes": max_pes,
        "pe_step": pe_step,
        "max_bandwidth": _get_int(doc, "max_bandwidth", default=128, lo=1),
        "shards": _get_int(doc, "shards", default=None, lo=1, hi=MAX_SHARDS),
        "executor": _get_str(
            doc,
            "executor",
            default="auto",
            choices=("auto", "serial", "process", "vector"),
        ),
        "jobs": _get_int(doc, "jobs", default=None, lo=1),
        "stream": _get_bool(doc, "stream", False),
        **{name: _get_bool(doc, name, False) for name in DSE_PRUNERS},
        "spatial_reduction": _get_bool(doc, "spatial_reduction", True),
        "multicast": _get_bool(doc, "multicast", True),
    }


def validate_tune(doc: Dict[str, Any]) -> Dict[str, Any]:
    _check_unknown(
        doc,
        (
            "model",
            "layer",
            "accelerator",
            "objective",
            "strategy",
            "budget",
            "top_k",
            "max_l1",
            "max_l2",
            "executor",
            "jobs",
        ),
        "tune",
    )
    model = resolve_model(doc)
    layer = _get_str(doc, "layer", required=True)
    resolve_layers(model, layer)
    return {
        "model": model,
        "layer": layer,
        "accelerator": normalize_accelerator(doc.get("accelerator") or {}),
        "objective": _get_str(
            doc, "objective", default="runtime", choices=("runtime", "energy", "edp")
        ),
        "strategy": _get_str(
            doc, "strategy", default="exhaustive", choices=("exhaustive", "random")
        ),
        "budget": _get_int(doc, "budget", default=200, lo=1, hi=100_000),
        "top_k": _get_int(doc, "top_k", default=5, lo=1, hi=100),
        "max_l1": _get_int(doc, "max_l1", default=None, lo=1),
        "max_l2": _get_int(doc, "max_l2", default=None, lo=1),
        "executor": _get_str(
            doc,
            "executor",
            default="auto",
            choices=("auto", "serial", "process", "vector"),
        ),
        "jobs": _get_int(doc, "jobs", default=None, lo=1),
    }


VALIDATORS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "analyze": validate_analyze,
    "lint": validate_lint,
    "verify": validate_verify,
    "dse": validate_dse,
    "tune": validate_tune,
}


def validate(kind: str, doc: Any) -> Dict[str, Any]:
    """Validate one job document; raises :class:`HttpError` on rejects."""
    if kind not in VALIDATORS:
        raise HttpError(404, f"unknown job kind {kind!r} (one of {list(JOB_KINDS)})")
    if not isinstance(doc, dict):
        raise HttpError(400, "request body must be a JSON object")
    return VALIDATORS[kind](doc)


def job_key(kind: str, normalized: Dict[str, Any]) -> str:
    """Content hash of a normalized job: the single-flight/reuse key."""
    from repro.exec.cache import model_version_salt

    payload = {"kind": kind, "job": normalized, "salt": model_version_salt()}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# DSE request -> explorer inputs, and result serializers
# ----------------------------------------------------------------------
def dse_inputs(norm: Dict[str, Any]) -> Tuple[Layer, DesignSpace, Dict[str, Any]]:
    """The (layer, space, explore-kwargs) triple a DSE job sweeps.

    Shared by the server and by parity checks: any consumer holding the
    normalized document can rebuild the exact in-process sweep.
    """
    layer = resolve_layers(norm["model"], norm["layer"])[0]
    variants = (
        kc_partitioned_variants()
        if norm["dataflow"] == "KC-P"
        else yr_partitioned_variants()
    )
    space = DesignSpace(
        pe_counts=default_pe_counts(max_pes=norm["max_pes"], step=norm["pe_step"]),
        noc_bandwidths=default_bandwidths(norm["max_bandwidth"]),
        dataflow_variants=variants,
    )
    kwargs = {
        "area_budget": norm["area"],
        "power_budget": norm["power"],
        **{name: norm[name] for name in DSE_PRUNERS},
        "spatial_reduction": norm["spatial_reduction"],
        "noc_multicast": norm["multicast"],
        "executor": norm["executor"],
        "jobs": norm["jobs"],
    }
    return layer, space, kwargs


def design_point_dict(point: Any) -> Dict[str, Any]:
    """One :class:`~repro.dse.space.DesignPoint` as a JSON document."""
    return {
        "num_pes": point.num_pes,
        "noc_bandwidth": point.noc_bandwidth,
        "dataflow_name": point.dataflow_name,
        "tile_label": point.tile_label,
        "l1_size": point.l1_size,
        "l2_size": point.l2_size,
        "area": point.area,
        "power": point.power,
        "throughput": point.throughput,
        "runtime": point.runtime,
        "energy": point.energy,
        "edp": point.edp,
    }


def statistics_dict(stats: Any) -> Dict[str, Any]:
    """A :class:`~repro.dse.explorer.DSEStatistics` as a JSON document."""
    from dataclasses import asdict

    return asdict(stats)
