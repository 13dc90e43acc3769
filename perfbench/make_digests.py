"""Record the expected output of every operation the workloads can draw.

Usage: ``python perfbench/make_digests.py`` writes ``perfbench/digests.json``.

The file is part of the benchmark: the digests are the outputs of the
commit that defined it, and every later commit must reproduce them bit
for bit (points, Pareto fronts, optima, statistics, top-k mappings,
served reports). Do not regenerate it to make a run pass.

Serve references are computed in process, the way the server's answer
must come out: analyze reports from ``analyze_layer`` serialised by
``repro.exec.serialize``, dse fronts from ``protocol.dse_inputs`` plus
``explore``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from common import DIGESTS, digest, use_checkout_sources

#: The analyze catalog: the 3x3-and-larger conv layers of three networks
#: under one dataflow, at four PE counts. The lint gate checks each of
#: these in about the same time (17-19 ms for nine in ten, at most 34 ms,
#: reference machine), so seeds vary the inputs, not the work. Over all
#: five dataflows and the pointwise and depthwise layers the gate's time
#: per key spreads from 8 to 130 ms in clusters, and the median cost of
#: a seeded draw moved by a fifth from seed to seed.
ANALYZE_MODELS = ("vgg16", "resnet50", "unet")
ANALYZE_OPERATORS = ("CONV2D",)
ANALYZE_DATAFLOWS = ("C-P",)
ANALYZE_PES = (64, 128, 256, 512)
#: The dse jobs a serve-mixed pool is drawn from.
DSE_LAYERS = (
    "vgg16/CONV2",
    "vgg16/CONV11",
    "resnet50/CONV3_1b",
    "mobilenet_v2/BN3_1_expand",
    "unet/DOWN3_1",
)


def serve_digests() -> Dict[str, Dict[str, Any]]:
    from repro.dataflow.library import table3_dataflows
    from repro.dse.explorer import explore
    from repro.engines.analysis import analyze_layer
    from repro.exec.serialize import analysis_to_dict
    from repro.model.zoo import build
    from repro.serve import protocol
    from repro.serve.http import HttpError
    from serve_load import analyze_doc, dse_doc

    analyze: Dict[str, Any] = {}
    for model in ANALYZE_MODELS:
        for layer in build(model).layers:
            if layer.operator.name not in ANALYZE_OPERATORS:
                continue
            for flow_name, flow in table3_dataflows().items():
                if flow_name not in ANALYZE_DATAFLOWS:
                    continue
                for pes in ANALYZE_PES:
                    key = f"{model}/{layer.name}|{flow_name}|{pes}"
                    try:
                        norm = protocol.validate("analyze", analyze_doc(key))
                    except HttpError:
                        continue  # refused by the lint gate: never drawn
                    accelerator = protocol.build_accelerator(norm["accelerator"])
                    report = analyze_layer(layer, flow, accelerator)
                    analyze[key] = digest(analysis_to_dict(report))
    dse: Dict[str, Any] = {}
    for layer in DSE_LAYERS:
        for family in ("KC-P", "YR-P"):
            key = f"{layer}|{family}"
            norm = protocol.validate("dse", dse_doc(key))
            swept, space, kwargs = protocol.dse_inputs(norm)
            result = explore(swept, space, cache=False, **kwargs)
            optima = {
                "throughput": result.throughput_optimal,
                "energy": result.energy_optimal,
                "edp": result.edp_optimal,
            }
            dse[key] = {
                "front": digest([protocol.design_point_dict(p) for p in result.pareto()]),
                "optima": digest(
                    {
                        name: protocol.design_point_dict(p) if p is not None else None
                        for name, p in optima.items()
                    }
                ),
            }
    return {"analyze": analyze, "dse": dse}


def main() -> int:
    use_checkout_sources()
    from inproc import WORKLOADS

    recorded: Dict[str, Any] = {}
    for name, workload_type in WORKLOADS.items():
        workload = workload_type()
        recorded[name] = {}
        for key in workload.catalog():
            recorded[name][key] = workload.digest(workload.run(key))
            print(f"{name} {key}", file=sys.stderr)
    recorded["serve-mixed"] = serve_digests()
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
