"""Golden lint check: every stock mapping the library ships must be
diagnostic-error-free against every model in the zoo, and its warning
profile must stay inside a reviewed golden set."""

import pytest

from repro.dataflow.library import stock_dataflows
from repro.hardware.accelerator import Accelerator
from repro.lint import lint_dataflow
from repro.model.zoo import MODELS, build

ACCELERATOR = Accelerator(num_pes=256)


#: Reviewed non-error codes each stock mapping may emit somewhere in the
#: zoo. DF009 (under-utilization) and DF018 (idle level) are expected:
#: small layers cannot fill 256 PEs. DF008 fires for RS/YR-P/fig5-F whose
#: cluster sizes track Sz(R), which rarely divides 256. The fig5 flows
#: deliberately map only a subset of dims (DF006). DF102 is the coverage
#: verifier's proven-covered INFO and fires on every sound mapping.
#: DF303 fires for the sliding-window flows whose input forwarding chain
#: outgrows a 16-PE row on large layers; RS adds DF302 on 1x1-kernel
#: layers where its joint SpatialMap over R degenerates to one chunk.
#: The equivalence analyzer adds DF400 wherever a flow spells an
#: explicit whole-extent TemporalMap (all stock flows except fig5-C/D/E
#: do, for readability), DF401 for RS/YR-P whose spatial slots are not
#: in canonical (dim, size, offset) order, and DF403 everywhere: on
#: small zoo layers some *other* stock flow certifiably dominates.
#: The capacity analyzer adds DF504 (certified bandwidth-bound, INFO)
#: on every flow that maps all dims: some zoo layer's communication
#: floor exceeds its compute floor at the default NoC bandwidth. The
#: fig5-C/D/E teaching flows replicate so much data that their compute
#: floor (schedule states x chunk delay) always dominates instead.
GOLDEN_WARNINGS = {
    "C-P": {"DF009", "DF018", "DF102", "DF400", "DF403", "DF504"},
    "X-P": {"DF009", "DF018", "DF102", "DF303", "DF400", "DF403", "DF504"},
    "YX-P": {"DF009", "DF018", "DF102", "DF303", "DF400", "DF403", "DF504"},
    "YR-P": {
        "DF008", "DF009", "DF018", "DF102", "DF303", "DF400", "DF401",
        "DF403", "DF504",
    },
    "KC-P": {"DF009", "DF018", "DF102", "DF400", "DF403", "DF504"},
    "RS": {
        "DF008", "DF009", "DF018", "DF101", "DF102", "DF302", "DF303",
        "DF400", "DF401", "DF403", "DF504",
    },
    "WS-K": {"DF009", "DF018", "DF102", "DF400", "DF403", "DF504"},
    "OS-YX": {"DF009", "DF018", "DF102", "DF303", "DF400", "DF403", "DF504"},
    "fig5-A": {"DF006", "DF009", "DF018", "DF102", "DF400", "DF403", "DF504"},
    "fig5-B": {"DF006", "DF009", "DF018", "DF102", "DF400", "DF403", "DF504"},
    "fig5-C": {"DF006", "DF009", "DF018", "DF102", "DF403"},
    "fig5-D": {"DF006", "DF009", "DF018", "DF102", "DF403"},
    "fig5-E": {"DF006", "DF009", "DF018", "DF102", "DF403"},
    "fig5-F": {
        "DF006", "DF008", "DF009", "DF018", "DF102", "DF303", "DF400",
        "DF403", "DF504",
    },
}

#: Latent coverage gaps the iteration-space verifier (repro.verify)
#: uncovered in the stock library, confirmed by brute-force execution
#: of the binding semantics. Each mapping is sound only inside its
#: design envelope; outside it, DF101 (a *proven* error) may fire:
#:
#: * RS hardcodes Figure 6's 3x3 tile sizes, so kernels other than 3x3
#:   are mis-tiled.
#:
#: YR-P used to carry a stride envelope here: the binding scaled Y/X
#: offsets by the layer stride at *every* cluster level, so the inner
#: diagonal (Y, R) walk advanced ``stride`` input rows per PE and
#: skipped output rows on all strided zoo layers. Offsets are now pure
#: input-unit quantities (library mappings spell ``St(Y)``/``St(X)``
#: explicitly where a walk advances output positions), which also
#: removed the stride clause from RS's envelope — strided 3x3 layers
#: are proven.
#:
#: ``envelope(layer) == True`` means the layer is inside the mapping's
#: design envelope and DF101 must NOT fire. Outside the envelope the
#: mapping may still cover degenerate layers, so only the implication
#: "DF101 => outside envelope" is asserted.
KNOWN_COVERAGE_GAPS = {
    "RS": lambda layer: (
        layer.dim_size("R") == 3 and layer.dim_size("S") == 3
    ),
}


def test_golden_covers_every_stock_mapping():
    assert set(GOLDEN_WARNINGS) == set(stock_dataflows())


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("flow_name", sorted(GOLDEN_WARNINGS))
def test_library_mapping_is_error_free(model_name, flow_name):
    flow = stock_dataflows()[flow_name]
    network = build(model_name)
    envelope = KNOWN_COVERAGE_GAPS.get(flow_name)
    observed = set()
    for layer in network.layers:
        report = lint_dataflow(flow, layer, ACCELERATOR)
        unexpected_errors = [
            d
            for d in report.errors
            if not (d.code == "DF101" and envelope is not None and not envelope(layer))
        ]
        assert not unexpected_errors, (
            f"{flow_name} on {model_name}/{layer.name}: "
            f"{[d.headline() for d in unexpected_errors]}"
        )
        observed |= set(report.codes())
    unexpected = observed - GOLDEN_WARNINGS[flow_name]
    assert not unexpected, (
        f"{flow_name} on {model_name} emits codes outside the golden set: "
        f"{sorted(unexpected)}"
    )
