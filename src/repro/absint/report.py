"""Shape-validity envelopes: the ``analyze --symbolic`` report payload.

One envelope summarizes what the abstract interpreter can prove about a
mapping over a whole :class:`~repro.absint.shapes.ShapeBox`: interval
bounds on every cost-model quantity, the ``DF2xx`` symbolic lint
verdicts, binding caveats, and (optionally) the differential
cross-check against sampled concrete members. The dict form is the
stable JSON surface the golden CI job diffs; the row form feeds the
CLI table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.absint.engine import HardwareBox
    from repro.absint.shapes import ShapeBox
    from repro.dataflow.dataflow import Dataflow
    from repro.hardware.energy import EnergyModel

__all__ = ["ENVELOPE_HEADERS", "envelope_row", "symbolic_envelope"]

ENVELOPE_HEADERS = [
    "layer",
    "dataflow",
    "cycles [lo, hi]",
    "util [lo, hi]",
    "L1 B [lo, hi]",
    "BW e/c [lo, hi]",
    "verdicts",
]


def _span(interval) -> List[float]:
    return [interval.lo, interval.hi]


def symbolic_envelope(
    box: "ShapeBox",
    dataflow: "Dataflow",
    hw: "HardwareBox",
    energy_model: "Optional[EnergyModel]" = None,
    crosscheck: bool = False,
) -> Dict[str, object]:
    """Analyze ``dataflow`` over ``box``/``hw`` into a JSON-ready dict."""
    from repro.absint.engine import abstract_analyze
    from repro.hardware.energy import DEFAULT_ENERGY_MODEL
    from repro.lint.symbolic import lint_symbolic

    model = energy_model if energy_model is not None else DEFAULT_ENERGY_MODEL
    payload: Dict[str, object] = {
        "layer": box.name,
        "dataflow": dataflow.name,
        "box": {dim: [iv.lo, iv.hi] for dim, iv in box.dims.items()},
        "hardware": {
            "num_pes": [hw.num_pes.lo, hw.num_pes.hi],
            "bandwidth": [hw.bandwidth.lo, hw.bandwidth.hi],
            "l1_size": hw.l1_size,
            "l2_size": hw.l2_size,
        },
    }
    lint_report = lint_symbolic(dataflow, box, hw)
    payload["diagnostics"] = [d.to_dict() for d in lint_report.diagnostics]
    try:
        analysis = abstract_analyze(box, dataflow, hw, energy_model=model)
    except ReproError as error:
        payload["status"] = "unbindable"
        payload["error"] = str(error)
        return payload
    payload["status"] = "ok"
    payload["caveats"] = list(analysis.caveats)
    payload["envelope"] = {
        "runtime": _span(analysis.runtime),
        "total_ops": _span(analysis.total_ops),
        "utilization": _span(analysis.utilization),
        "throughput": _span(analysis.throughput),
        "l1_buffer_req": _span(analysis.l1_buffer_req),
        "l2_buffer_req": _span(analysis.l2_buffer_req),
        "noc_bw_req_elems": _span(analysis.noc_bw_req_elems),
        "noc_bw_req_gbps": _span(analysis.noc_bw_req_gbps),
        "energy_total": _span(analysis.energy_total),
        "edp": _span(analysis.edp),
    }
    if crosscheck:
        from repro.verify.differential import run_abstract

        check = run_abstract(box, dataflow, hw, analysis=analysis, energy_model=model)
        payload["crosscheck"] = {
            "samples": check.counts["samples"],
            "bind_failures": check.counts["bind_failures"],
            "ok": check.ok,
            "violations": [m.describe() for m in check.mismatches],
        }
    return payload


def envelope_row(payload: Dict[str, object]) -> List[str]:
    """Render one envelope dict as a CLI table row."""
    diagnostics = payload.get("diagnostics") or []
    verdicts = " ".join(
        f"{d['code']}:{d['severity']}" for d in diagnostics  # type: ignore[index]
    )
    if payload.get("status") != "ok":
        return [
            str(payload["layer"]),
            str(payload["dataflow"]),
            "-",
            "-",
            "-",
            "-",
            verdicts or f"unbindable: {payload.get('error')}",
        ]
    envelope = payload["envelope"]
    assert isinstance(envelope, dict)
    runtime = envelope["runtime"]
    util = envelope["utilization"]
    l1 = envelope["l1_buffer_req"]
    bw = envelope["noc_bw_req_elems"]
    return [
        str(payload["layer"]),
        str(payload["dataflow"]),
        f"[{runtime[0]:.3e}, {runtime[1]:.3e}]",
        f"[{util[0]:.2f}, {util[1]:.2f}]",
        f"[{l1[0]}, {l1[1]}]",
        f"[{bw[0]:.1f}, {bw[1]:.1f}]",
        verdicts,
    ]
