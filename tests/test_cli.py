"""Tests for the command-line interface."""

import pytest

from repro.cli import main


#: A mapping whose cluster hierarchy needs 128 PEs: it binds on no
#: smaller accelerator.
WIDE = "SpatialMap(1,1) K\nTemporalMap(64,64) C\nCluster(128)\nSpatialMap(1,1) C\n"


class TestAnalyze:
    def test_single_layer(self, capsys):
        assert main(["analyze", "--model", "vgg16", "--layer", "CONV2",
                     "--dataflow", "KC-P", "--pes", "64"]) == 0
        out = capsys.readouterr().out
        assert "CONV2" in out
        assert "KC-P" in out

    def test_whole_model(self, capsys):
        assert main(["analyze", "--model", "alexnet", "--dataflow", "YX-P"]) == 0
        out = capsys.readouterr().out
        assert "CONV5" in out and "FC3" in out

    def test_dataflow_file(self, tmp_path, capsys):
        path = tmp_path / "flow.df"
        path.write_text("SpatialMap(1,1) K\nTemporalMap(1,1) C\n")
        assert main(["analyze", "--model", "vgg16", "--layer", "CONV1",
                     "--dataflow", str(path)]) == 0

    def test_unknown_dataflow_exits(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--model", "vgg16", "--dataflow", "nope"])

    def test_non_binding_mapping_prints_its_row(self, tmp_path, capsys):
        path = tmp_path / "wide.df"
        path.write_text(WIDE)
        assert main(["analyze", "--model", "alexnet", "--layer", "CONV1",
                     "--dataflow", str(path), "--pes", "64"]) == 0
        (row,) = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("CONV1")]
        assert "error:" in row and "needs 128 PEs" in row

    def test_an_analyzer_bug_propagates(self, monkeypatch):
        """Only a ``DataflowError`` is a per-layer row; any other
        exception out of the cost model is a bug."""
        import repro.cli

        def broken(*_args, **_kwargs):
            raise RuntimeError("analyzer bug")

        monkeypatch.setattr(repro.cli, "analyze_layer", broken)
        with pytest.raises(RuntimeError, match="analyzer bug"):
            main(["analyze", "--model", "alexnet", "--layer", "CONV1",
                  "--dataflow", "KC-P", "--pes", "64"])

    def test_detail_report(self, capsys):
        assert main(["analyze", "--model", "vgg16", "--layer", "CONV13",
                     "--dataflow", "YR-P", "--pes", "64", "--detail"]) == 0
        out = capsys.readouterr().out
        assert "per-level performance" in out
        assert "energy breakdown" in out


class TestOtherCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg16" in out and "unet" in out

    def test_dataflows(self, capsys):
        assert main(["dataflows"]) == 0
        out = capsys.readouterr().out
        assert "KC-P" in out and "Cluster(64)" in out

    def test_validate(self, capsys):
        assert main(["validate", "--model", "alexnet", "--layer", "CONV5",
                     "--dataflow", "YX-P", "--pes", "64"]) == 0
        out = capsys.readouterr().out
        assert "error" in out

    def test_adaptive(self, capsys):
        assert main(["adaptive", "--model", "alexnet", "--pes", "64"]) == 0
        out = capsys.readouterr().out
        assert "total runtime" in out

    def test_dse_small(self, capsys):
        assert main(["dse", "--model", "vgg16", "--layer", "CONV13",
                     "--dataflow", "KC-P", "--max-pes", "64", "--pe-step", "32"]) == 0
        out = capsys.readouterr().out
        assert "explored" in out
        assert "lint-rejected" in out


class TestLint:
    BROKEN = (
        "SpatialMap(1,1) K\n"
        "TemporalMap(64,64) C\n"
        "Cluster(9999)\n"
        "SpatialMap(1,1) Q\n"
    )

    def test_broken_file_exits_1_with_locations(self, tmp_path, capsys):
        path = tmp_path / "broken.df"
        path.write_text(self.BROKEN)
        assert main(["lint", str(path), "--model", "alexnet",
                     "--layer", "CONV1"]) == 1
        out = capsys.readouterr().out
        import re
        codes = set(re.findall(r"error\[(DF\d+)\]", out))
        assert len(codes) >= 2
        assert f"--> {path}:3:1" in out  # directive location
        assert "^" in out

    def test_json_roundtrips(self, tmp_path, capsys):
        import json
        path = tmp_path / "broken.df"
        path.write_text(self.BROKEN)
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] >= 2
        assert all("code" in d for d in payload["diagnostics"])

    def test_library_flow_is_clean(self, capsys):
        assert main(["lint", "KC-P", "--model", "alexnet",
                     "--layer", "CONV1"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_layer_requires_model(self):
        with pytest.raises(SystemExit):
            main(["lint", "KC-P", "--layer", "CONV1"])

    def test_unknown_dataflow_exits(self):
        with pytest.raises(SystemExit):
            main(["lint", "definitely-not-a-dataflow"])

    @pytest.mark.parametrize("flag", ["--comm", "--capacity"])
    def test_syntax_error_skips_the_analysis(self, tmp_path, capsys, flag):
        path = tmp_path / "syntax.df"
        path.write_text("SpatialMap(1,1 K\n")
        assert main(["lint", str(path), "--model", "alexnet",
                     "--layer", "CONV1", flag]) == 1
        analysis = flag.lstrip("-")
        assert f"{analysis}: mapping does not parse" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--comm", "--capacity"])
    def test_non_binding_mapping_prints_its_line(self, tmp_path, capsys, flag):
        path = tmp_path / "wide.df"
        path.write_text(WIDE)
        assert main(["lint", str(path), "--model", "alexnet",
                     "--layer", "CONV1", "--pes", "64", flag]) == 1
        analysis = flag.lstrip("-")
        out = capsys.readouterr().out
        assert f"{analysis}: mapping does not bind" in out
        assert "needs 128 PEs" in out

    @pytest.mark.parametrize(
        "flag,module,name",
        [("--comm", "repro.comm", "classify_dataflow"),
         ("--capacity", "repro.capacity", "classify_roofline")],
    )
    def test_an_analyzer_bug_propagates(self, monkeypatch, flag, module, name):
        """Only a ``DataflowError`` means "does not bind"."""
        import importlib

        def broken(*_args, **_kwargs):
            raise RuntimeError("analyzer bug")

        monkeypatch.setattr(importlib.import_module(module), name, broken)
        with pytest.raises(RuntimeError, match="analyzer bug"):
            main(["lint", "KC-P", "--model", "alexnet", "--layer", "CONV1", flag])

    def test_a_parser_bug_propagates(self, tmp_path, monkeypatch):
        """Only a ``DataflowError`` means "does not parse"; any other
        exception out of the parser is a bug, not a lint finding."""
        import repro.cli

        def broken(*_args, **_kwargs):
            raise RuntimeError("parser bug")

        monkeypatch.setattr(repro.cli, "parse_dataflow", broken)
        path = tmp_path / "flow.df"
        path.write_text("SpatialMap(1,1) K\nTemporalMap(64,64) C\n")
        with pytest.raises(RuntimeError, match="parser bug"):
            main(["lint", str(path), "--model", "alexnet", "--layer", "CONV1", "--comm"])
