"""Tests for the IR verifier, the CFG validation hooks and the lint CLI."""

import json
import types

import pytest

from repro.adl.platforms import generic_predictable_multicore
from repro.analysis import verify_function
from repro.cli import main
from repro.core.config import ToolchainConfig
from repro.core.pipeline import PipelineError, run_pipeline
from repro.ir import FunctionBuilder
from repro.ir.cfg import EDGE_KINDS, _CFGBuilder, build_cfg
from repro.ir.loops import describe_unbounded_loops
from repro.ir.types import INT
from repro.model import Diagram
from repro.transforms.registry import PassContext, available_passes, get_pass


def clean_function():
    fb = FunctionBuilder("clean")
    x = fb.input_array("x", (8,))
    y = fb.output_array("y", (8,))
    with fb.loop("i", 0, 8) as i:
        fb.assign(fb.at(y, i), fb.at(x, i) * 2.0)
    return fb.build()


def unbounded_function():
    fb = FunctionBuilder("badloop")
    m = fb.scalar_input("m", INT)
    y = fb.output_array("y", (4,))
    with fb.loop("i", 0, m) as i:
        fb.assign(fb.at(y, 0), 1.0)
    return fb.build(validate=False)


# ---------------------------------------------------------------------- #
# verifier
# ---------------------------------------------------------------------- #
class TestVerifyFunction:
    def test_clean_function_has_no_findings(self):
        report = verify_function(clean_function())
        assert report.ok
        assert report.checked["loops_bounded"] == 1
        assert report.checked["blocks_checked"] > 0

    def test_use_before_def(self):
        fb = FunctionBuilder("ubd")
        y = fb.output_array("y", (4,))
        t = fb.local("t")
        fb.assign(fb.at(y, 0), t)
        report = verify_function(fb.build())
        assert "ir.use-before-def" in [f.code for f in report.findings]
        assert report.count("error") == 1

    def test_dead_store_is_a_warning(self):
        fb = FunctionBuilder("ds")
        y = fb.output_array("y", (4,))
        acc = fb.local("acc")
        fb.assign(acc, 1.0)
        fb.assign(fb.at(y, 0), 2.0)
        report = verify_function(fb.build())
        codes = {f.code: f.severity for f in report.findings}
        assert codes.get("ir.dead-store") == "warning"
        assert report.count("error") == 0

    def test_unreferenced_local_is_a_warning(self):
        fb = FunctionBuilder("unref")
        y = fb.output_array("y", (4,))
        fb.local("ghost")
        fb.assign(fb.at(y, 0), 1.0)
        report = verify_function(fb.build())
        assert "ir.unused-variable" in [f.code for f in report.findings]

    def test_unbounded_loop_is_named(self):
        report = verify_function(unbounded_function())
        finding = next(f for f in report.findings if f.code == "ir.unbounded-loop")
        assert finding.subject == "loop over 'i'"
        assert finding.function == "badloop"


class TestVerifierPass:
    def test_registered(self):
        assert "ir_verifier" in available_passes()

    def test_reports_without_mutating(self):
        entry = get_pass("ir_verifier")
        verifier = entry.factory(PassContext(platform=None, config=None, model=None))
        func = clean_function()
        before = func.body.stmts
        report = verifier.run(func)
        assert report.changed is False
        assert report.details["findings"] == 0
        assert func.body.stmts is before

    def test_surfaces_first_finding(self):
        fb = FunctionBuilder("bad")
        y = fb.output_array("y", (4,))
        t = fb.local("t")
        fb.assign(fb.at(y, 0), t)
        verifier = get_pass("ir_verifier").factory(
            PassContext(platform=None, config=None, model=None)
        )
        report = verifier.run(fb.build())
        assert report.details["errors"] == 1
        assert "use-before-def" in report.details["first_finding"]


# ---------------------------------------------------------------------- #
# CFG validation and stable edge keys
# ---------------------------------------------------------------------- #
class TestCfgEdges:
    def test_unknown_edge_kind_is_rejected(self):
        builder = _CFGBuilder("f")
        a, b = builder.new_block("a"), builder.new_block("b")
        with pytest.raises(ValueError, match="unknown CFG edge kind"):
            builder.edge(a, b, "sideways")

    def test_all_builtin_kinds_are_accepted(self):
        builder = _CFGBuilder("f")
        a, b = builder.new_block("a"), builder.new_block("b")
        for kind in EDGE_KINDS:
            builder.edge(a, b, kind)
        assert len(builder.cfg.edges) == len(EDGE_KINDS)

    def test_edge_keys_are_stable_across_rebuilds(self):
        keys1 = [e.key for e in build_cfg(clean_function()).edges]
        keys2 = [e.key for e in build_cfg(clean_function()).edges]
        assert keys1 == keys2
        assert len(set(keys1)) == len(keys1)
        for src, dst, kind in keys1:
            assert isinstance(src, int) and isinstance(dst, int)
            assert kind in EDGE_KINDS


# ---------------------------------------------------------------------- #
# front-end loop-bound gate
# ---------------------------------------------------------------------- #
class TestFrontendGate:
    def test_describe_unbounded_loops_clean(self):
        assert describe_unbounded_loops(clean_function()) == []

    def test_describe_unbounded_loops_names_function_and_loop(self):
        problems = describe_unbounded_loops(unbounded_function())
        assert len(problems) == 1
        assert "'badloop'" in problems[0]
        assert "loop over 'i'" in problems[0]

    def test_pipeline_rejects_unbounded_model(self, monkeypatch):
        import repro.core.pipeline as pipeline_mod

        fake_model = types.SimpleNamespace(entry=unbounded_function())
        monkeypatch.setattr(
            pipeline_mod, "compile_diagram", lambda d, lowerings=None, facts=None: fake_model
        )
        with pytest.raises(PipelineError) as exc:
            run_pipeline(
                Diagram("d"), generic_predictable_multicore(), ToolchainConfig()
            )
        message = str(exc.value)
        assert "derivable worst-case trip count" in message
        assert "loop over 'i'" in message


# ---------------------------------------------------------------------- #
# lint CLI
# ---------------------------------------------------------------------- #
CLEAN_MODULE = """\
from repro.model import Diagram, library


def build_model():
    d = Diagram("tiny")
    d.add_block(library.gain("a", 2.0, size=8))
    d.add_block(library.saturation("b", 0.0, 10.0, size=8))
    d.connect("a", "y", "b", "u")
    d.mark_input("a", "u")
    d.mark_output("b", "y")
    return d
"""

BROKEN_MODULE = """\
from repro.core.exceptions import ToolchainError


def build_model():
    raise ToolchainError("deliberately broken model")
"""


class TestLintCli:
    def test_unknown_target_is_a_usage_error(self, capsys):
        assert main(["lint", "no_such_usecase"]) == 2
        assert "unknown lint target" in capsys.readouterr().err

    def test_module_without_build_model_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 2
        assert "build_model" in capsys.readouterr().err

    def test_clean_model_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "tiny.py"
        path.write_text(CLEAN_MODULE)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "0 finding(s)" in out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text(BROKEN_MODULE)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "pipeline.error" in out

    def test_json_report(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_text(BROKEN_MODULE)
        assert main(["lint", "--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == 1
        record = payload["targets"][0]
        assert record["ok"] is False
        assert record["reports"][0]["findings"][0]["code"] == "pipeline.error"
