"""The differential harness: registry-driven ``verify --check``, the shared
report types and comparator, the corpus, and the one stock catalog."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.cli import main
from repro.dataflow.library import stock_dataflows
from repro.exec.serialize import EvalOutcome
from repro.model.zoo import build
from repro.verify import differential
from repro.verify.differential import CHECKS, Mismatch, compare_outcomes, corpus, run


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_verify_check_agrees(check, capsys):
    assert main(["verify", "--check", check, "KC-P", "OS-YX"]) == 0
    out = capsys.readouterr().out
    assert "AGREE" in out and "DISAGREE" not in out
    assert f"4/4 mapping-layer pairs agree with the {check} oracles" in out

    assert main(["verify", "--check", check, "KC-P", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_ok"] is True
    assert [report["layer"] for report in payload["reports"]] == [
        "verify-default",
        "verify-strided",
    ]
    assert all(report["counts"] for report in payload["reports"])


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_verify_check_exits_1_on_a_planted_mismatch(check, capsys, monkeypatch):
    oracle = CHECKS[check]

    def planted(dataflow, layer):
        counts, mismatches = oracle(dataflow, layer)
        planted = Mismatch(check, "planted", "quantity", claimed=1, oracle=2)
        return counts, mismatches + [planted]

    monkeypatch.setitem(CHECKS, check, planted)
    assert main(["verify", "--check", check, "KC-P"]) == 1
    out = capsys.readouterr().out
    assert "DISAGREE" in out
    assert "[planted] quantity: claimed 1, oracle says 2" in out

    assert main(["verify", "--check", check, "KC-P", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"reports", "all_ok"}
    assert payload["all_ok"] is False
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        assert report["check"] == check and report["dataflow"] == "KC-P"
        assert report["ok"] is False
        assert report["mismatches"][-1] == "[planted] quantity: claimed 1, oracle says 2"


def test_runner_caps_mismatches_and_counts_them(monkeypatch):
    many = [Mismatch("comm", f"s{i}", "q", i, -i) for i in range(50)]
    monkeypatch.setitem(CHECKS, "comm", lambda dataflow, layer: ({"n": 1}, many))
    obs.configure(enabled=True, reset=True)
    try:
        (report,) = run("comm", corpus(["vgg16"])[:1])
        pairs = obs.counter_value("differential.comm.pairs")
        mismatches = obs.counter_value("differential.comm.mismatches")
    finally:
        obs.configure(enabled=False, reset=True)
    assert not report.ok
    assert len(report.mismatches) == differential.MAX_MISMATCHES
    assert (pairs, mismatches) == (1, 50)


def test_compare_outcomes_is_strict():
    ok = EvalOutcome(report=None, error_type="BindingError", error_message="x")
    assert compare_outcomes(ok, ok) == []
    other = EvalOutcome(report=None, error_type="BindingError", error_message="y")
    assert compare_outcomes(ok, other) == [("error_message", "x", "y")]
    diffs = []
    differential._compare("v", 1, 1.0, diffs)
    assert diffs == [("v.type", "int", "float")]
    diffs = []
    differential._compare("v", float("nan"), float("nan"), diffs)
    assert diffs == []
    differential._compare("v", 0.1 + 0.2, 0.3, diffs)
    assert diffs == [("v", 0.1 + 0.2, 0.3)]


def test_corpus_is_zoo_by_stock_catalog():
    flows = list(stock_dataflows().values())
    pairs = corpus(models=["vgg16"])
    layers = build("vgg16").layers
    assert len(pairs) == len(layers) * len(flows) == 294
    assert [flow.name for _, flow in pairs[: len(flows)]] == [f.name for f in flows]
    assert {layer.name for layer, _ in pairs} == {layer.name for layer in layers}


def test_stock_catalog_keys_are_dataflow_names():
    """DF402/DF403 print ``flow.name`` in sorted order; the catalog keys
    match the names except the row-stationary mapping's ``RS``."""
    flows = stock_dataflows()
    assert len(flows) == 14
    renamed = {key: flow.name for key, flow in flows.items() if key != flow.name}
    assert renamed == {"RS": "row-stationary-fig6"}
    quality = stock_dataflows(include_playground=False)
    assert sorted(quality) == ["C-P", "KC-P", "OS-YX", "RS", "WS-K", "X-P", "YR-P", "YX-P"]


def test_lint_does_not_load_the_vector_engine():
    """DF402/DF403 read the library catalog, not the differential harness,
    and compare the cost model's objectives, not interval bounds."""
    code = (
        "import sys\n"
        "from repro.dataflow.library import kc_partitioned\n"
        "from repro.hardware.accelerator import Accelerator\n"
        "from repro.lint import lint_dataflow\n"
        "from repro.model.zoo import build\n"
        "lint_dataflow(kc_partitioned(), build('vgg16').layer('CONV3'),"
        " Accelerator(num_pes=256))\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith(('repro.vector', 'numpy', 'repro.absint'))))\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env
    ).stdout
    assert out.strip() == "[]"
