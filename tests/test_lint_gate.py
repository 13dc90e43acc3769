"""The serve lint gate's errors-only pass and the lint facts it shares.

The gate (:func:`repro.serve.protocol.lint_gate`) decides with
:func:`repro.lint.engine.lint_errors`, which runs only the rules that
can emit an ERROR, and answers a rejection with the full report. These
tests pin that the verdict equals the full lint's, that a 422 body is
the full report byte for byte, that DF403 analyzes the linted mapping
once, and that the capacity and comm facts are computed once per lint.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.dataflow.library import stock_dataflows
from repro.dataflow.parser import parse_dataflow
from repro.engines.binding import bind_dataflow
from repro.hardware.accelerator import Accelerator, NoC
from repro.lint import RULES, Rule, Severity, lint_dataflow, lint_directives
from repro.lint.engine import error_rule_codes, lint_errors
from repro.model.zoo import MODELS, build
from repro.serve import ServeClient, ServeConfig, ThreadedServer, protocol
from repro.serve.http import HttpError
from repro.verify.differential import run

EXAMPLES = sorted(Path(__file__).resolve().parent.parent.glob("examples/dataflows/*.df"))

#: Tight buffers, no reduction tree, unicast NoC: every DF3xx/DF5xx rule reads its fact.
CONSTRAINED = Accelerator(
    num_pes=64,
    l1_size=64,
    l2_size=4096,
    spatial_reduction=False,
    noc=NoC(bandwidth=8, avg_latency=2, multicast=False),
)


def _mappings():
    flows = dict(stock_dataflows())
    for path in EXAMPLES:
        flows[path.name] = parse_dataflow(path.read_text(), name=path.name)
    return flows


# ----------------------------------------------------------------------
# Which rules the gate runs
# ----------------------------------------------------------------------
def test_error_rule_codes_are_the_error_severity_rules():
    expected = "DF001 DF002 DF003 DF004 DF005 DF007 DF011 DF012 DF013 DF101 DF300 DF500 DF502"
    assert error_rule_codes() == expected.split()
    binding = error_rule_codes(lambda rule: rule.binding_equivalent)
    assert binding == [code for code, rule in RULES.items() if rule.binding_equivalent]


def test_a_rule_cannot_emit_another_code(monkeypatch):
    def foreign(ctx):
        yield ctx.diag("DF001", "not mine")

    planted = Rule("DF999", "planted", Severity.WARNING, frozenset(), False, False, foreign)
    monkeypatch.setitem(RULES, "DF999", planted)
    flow = stock_dataflows()["KC-P"]
    with pytest.raises(ValueError, match="DF999 emitted DF001"):
        lint_directives(flow.name, flow.directives, codes=["DF999"])


# ----------------------------------------------------------------------
# Verdict equality (the whole-zoo sweep runs weekly via verify --check gate)
# ----------------------------------------------------------------------
def test_gate_verdict_equals_full_lint_on_a_seeded_zoo_sample():
    rng = random.Random(16)
    flows = list(_mappings().values())
    layers = [layer for name in sorted(MODELS) for layer in build(name).layers]
    pairs = [(rng.choice(layers), rng.choice(flows)) for _ in range(16)]
    reports = run("gate", pairs)
    assert all(report.ok for report in reports), [r.render() for r in reports if not r.ok]
    assert sum(report.counts["lints"] for report in reports) == 16 * 8
    assert sum(report.counts["rejected"] for report in reports) > 0


def test_gate_check_exits_1_on_a_planted_disagreement(monkeypatch, capsys):
    import repro.lint.engine as engine

    monkeypatch.setattr(engine, "lint_errors", lambda *args: [])
    from repro.cli import main

    assert main(["verify", "--check", "gate", "KC-P"]) == 1
    assert "DISAGREE" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The gate itself: verdict, span, and the 422 body
# ----------------------------------------------------------------------
def _analyze(**accelerator):
    return dict(model="vgg16", layer="CONV2", dataflow="KC-P", accelerator=accelerator)


def _full_report(doc):
    norm = protocol.normalize_accelerator(doc["accelerator"])
    layer = build(doc["model"]).layer(doc["layer"])
    flow = protocol.table3_dataflows()[doc["dataflow"]]
    return lint_dataflow(flow, layer, protocol.build_accelerator(norm))


@pytest.mark.parametrize(
    "accelerator, code",
    [({"l1": 32}, "DF500"), ({"l1": 64}, "DF502"), ({"pes": 16}, "DF007")],
    ids=["DF500", "DF502", "DF007"],
)
def test_gate_rejection_carries_the_full_report(accelerator, code):
    doc = _analyze(**accelerator)
    with pytest.raises(HttpError) as excinfo:
        protocol.validate("analyze", doc)
    report = _full_report(doc)
    assert excinfo.value.status == 422
    assert excinfo.value.details == report.to_dict()
    assert code in {d.code for d in report.diagnostics if d.is_error}


def test_gate_opens_one_lint_span_per_call():
    obs.configure(enabled=True, reset=True)
    try:
        protocol.validate("analyze", _analyze())
        with pytest.raises(HttpError):
            protocol.validate("analyze", _analyze(l1=32))
        names = [span["name"] for span in obs.export_spans()]
    finally:
        obs.configure(enabled=False, reset=True)
    assert names.count("lint") == 2


@pytest.fixture(scope="module")
def client():
    with ThreadedServer(ServeConfig(port=0, max_concurrency=1)) as server:
        yield ServeClient(port=server.port, timeout=300.0)
    obs.trace.clear()  # a stopped server keeps the spans it recorded


@pytest.mark.parametrize("accelerator", [{"l1": 32}, {"pes": 16}], ids=["DF500", "DF007"])
def test_served_422_body_is_the_full_lint_report_byte_for_byte(client, accelerator):
    doc = _analyze(**accelerator)
    response = client._open("POST", "/v1/analyze", doc)
    try:
        body = response.body()
    finally:
        response.close()
    expected = {
        "details": _full_report(doc).to_dict(),
        "error": "mapping fails static lint against layer 'CONV2'",
        "status": 422,
    }
    assert response.status == 422
    assert body == json.dumps(expected, sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
# DF403 analyzes the linted mapping once; shared facts are computed once
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, module, attr, fail=False):
    """Replace ``module.attr`` by a wrapper that records each call's
    positional arguments (and raises instead, with ``fail``)."""
    import importlib

    owner = importlib.import_module(module)
    original = getattr(owner, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if fail:
            raise RuntimeError("analyzer bug")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def _codes(report, prefix):
    return [d.code for d in report.diagnostics if d.code.startswith(prefix)]


def test_df403_analyzes_the_linted_mapping_once_per_lint(monkeypatch):
    calls = _count_calls(monkeypatch, "repro.absint", "abstract_analyze")
    layer = build("resnet50").layer("CONV2_1b")
    library = len(stock_dataflows(include_playground=False))
    for name, flow in _mappings().items():
        calls.clear()
        lint_dataflow(flow, layer, Accelerator(num_pes=256))
        analyzed = [args[1] for args in calls]
        assert sum(call is flow for call in analyzed) == 1, name
        others = [call.name for call in analyzed if call is not flow]
        assert len(others) == len(set(others)) <= library, name


def test_capacity_fact_is_computed_once_per_lint(monkeypatch):
    calls = _count_calls(monkeypatch, "repro.capacity", "classify_roofline")
    flow, layer = stock_dataflows()["KC-P"], build("vgg16").layer("CONV2")
    assert _codes(lint_dataflow(flow, layer, CONSTRAINED), "DF50")
    assert len(calls) == 1
    calls.clear()
    assert lint_errors(flow, layer, CONSTRAINED)
    assert len(calls) == 1  # DF500 and DF502 share it in the gate too


def test_comm_fact_is_computed_once_per_level(monkeypatch):
    calls = _count_calls(monkeypatch, "repro.comm.classify", "classify_level")
    flow, layer = stock_dataflows()["KC-P"], build("vgg16").layer("CONV2")
    assert _codes(lint_dataflow(flow, layer, CONSTRAINED), "DF30")
    assert len(calls) == len(bind_dataflow(flow, layer, CONSTRAINED).levels) == 2


@pytest.mark.parametrize(
    "module, attr, prefix",
    [
        ("repro.capacity", "classify_roofline", "DF50"),
        ("repro.comm.classify", "classify_level", "DF30"),
    ],
)
def test_a_fact_that_raises_yields_no_diagnostic(monkeypatch, module, attr, prefix):
    calls = _count_calls(monkeypatch, module, attr, fail=True)
    report = lint_dataflow(stock_dataflows()["KC-P"], build("vgg16").layer("CONV2"), CONSTRAINED)
    assert len(calls) == 1
    # DF302 reads the binding, not the comm classification.
    assert [code for code in _codes(report, prefix) if code != "DF302"] == []


# ----------------------------------------------------------------------
# Every package imports first in a fresh interpreter (no import cycle)
# ----------------------------------------------------------------------
def test_every_package_imports_on_its_own():
    root = Path(repro.__file__).resolve().parent
    packages = sorted(
        ".".join(("repro",) + path.parent.relative_to(root).parts)
        for path in root.rglob("__init__.py")
    )
    assert "repro.vector" in packages and "repro.exec" in packages
    env = {**os.environ, "PYTHONPATH": str(root.parent)}
    for package in packages:
        result = subprocess.run(
            [sys.executable, "-c", f"import {package}"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, f"{package}: {result.stderr.strip()}"
