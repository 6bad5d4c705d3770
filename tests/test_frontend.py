"""Tests for the model-to-IR front end (lowering + diagram compilation).

The key property: for any diagram, the model-level simulation (mini-Scilab
interpreter) and the execution of the generated IR (IR interpreter) must
produce the same outputs.
"""

import numpy as np
import pytest

from repro.frontend import compile_diagram, lower_script
from repro.frontend.lowering import ScilabLoweringError
from repro.ir import FunctionBuilder, to_c
from repro.ir.expressions import Const
from repro.ir.interpreter import run_function
from repro.model import Diagram, library
from repro.model.scilab import parse_script


class TestLowering:
    def _lower_and_run(self, src, bindings_spec, inputs):
        fb = FunctionBuilder("f")
        bindings = {}
        for name, spec in bindings_spec.items():
            if spec == "scalar_in":
                bindings[name] = fb.scalar_input(name)
            elif spec == "scalar_local":
                bindings[name] = fb.local(name)
            elif isinstance(spec, tuple) and spec[0] == "array_in":
                bindings[name] = fb.input_array(name, spec[1])
            elif isinstance(spec, tuple) and spec[0] == "array_out":
                bindings[name] = fb.output_array(name, spec[1])
            elif isinstance(spec, tuple) and spec[0] == "const":
                bindings[name] = Const(spec[1])
        lower_script(parse_script(src), fb, bindings)
        func = fb.build()
        return func, run_function(func, inputs)

    def test_scalar_expression(self):
        func, result = self._lower_and_run(
            "y = 2 * u + 1", {"u": "scalar_in", "y": "scalar_local"}, {"u": 3.0}
        )
        assert result.scalar("y") == pytest.approx(7.0)

    def test_one_based_indexing_translated(self):
        src = "for i = 1:4\n  y(i) = u(i) * k\nend"
        func, result = self._lower_and_run(
            src,
            {"u": ("array_in", (4,)), "y": ("array_out", (4,)), "k": ("const", 3.0)},
            {"u": np.array([1.0, 2.0, 3.0, 4.0])},
        )
        np.testing.assert_allclose(result.array("y"), [3, 6, 9, 12])
        text = to_c(func)
        assert "for (int i = 1; i < 5; i++)" in text

    def test_if_lowering(self):
        func, result = self._lower_and_run(
            "y = 0\nif u > 2 then\n  y = 1\nend",
            {"u": "scalar_in", "y": "scalar_local"},
            {"u": 5.0},
        )
        assert result.scalar("y") == 1

    def test_power_operator_becomes_pow(self):
        func, result = self._lower_and_run(
            "y = u ^ 2", {"u": "scalar_in", "y": "scalar_local"}, {"u": 3.0}
        )
        assert result.scalar("y") == pytest.approx(9.0)

    def test_temporaries_are_prefixed(self):
        fb = FunctionBuilder("f")
        u = fb.input_array("u", (3,))
        y = fb.local("y")
        lower_script(
            parse_script("acc = 0\nfor i = 1:3\n  acc = acc + u(i)\nend\ny = acc"),
            fb,
            {"u": u, "y": y},
            temp_prefix="blk__",
        )
        func = fb.build()
        names = {d.name for d in func.decls}
        assert "blk__acc" in names

    def test_unbound_read_rejected(self):
        fb = FunctionBuilder("f")
        with pytest.raises(ScilabLoweringError):
            lower_script(parse_script("y = nothere + 1"), fb, {"y": fb.local("y")})

    def test_whole_array_assignment_rejected(self):
        fb = FunctionBuilder("f")
        arr = fb.output_array("y", (4,))
        with pytest.raises(ScilabLoweringError):
            lower_script(parse_script("y = 0"), fb, {"y": arr})

    def test_wrong_dimensionality_rejected(self):
        fb = FunctionBuilder("f")
        arr = fb.input_array("A", (2, 2))
        y = fb.local("y")
        with pytest.raises(ScilabLoweringError):
            lower_script(parse_script("y = A(1)"), fb, {"A": arr, "y": y})

    def test_vector_literal_rejected_in_behavior(self):
        fb = FunctionBuilder("f")
        with pytest.raises(ScilabLoweringError):
            lower_script(parse_script("y = [1 2 3]"), fb, {"y": fb.local("y")})

    def test_negative_step_rejected(self):
        fb = FunctionBuilder("f")
        y = fb.output_array("y", (4,))
        with pytest.raises(ScilabLoweringError):
            lower_script(parse_script("for i = 4:-1:1\n  y(i) = 0\nend"), fb, {"y": y})


def build_pipeline_diagram(size=6):
    d = Diagram("pipeline")
    d.add_block(library.gain("pre", 2.0, size=size))
    d.add_block(library.fir_filter("smooth", np.array([0.5, 0.5]), size=size))
    d.add_block(library.saturation("clip", 0.0, 4.0, size=size))
    d.add_block(library.scalar_max("peak", size=size))
    d.connect("pre", "y", "smooth", "u")
    d.connect("smooth", "y", "clip", "u")
    d.connect("clip", "y", "peak", "u")
    d.mark_input("pre", "u")
    d.mark_output("peak", "y")
    return d


class TestCompileDiagram:
    def test_compiles_and_runs(self):
        model = compile_diagram(build_pipeline_diagram())
        assert model.entry.name == "pipeline_step"
        assert len(model.block_regions) >= 4
        u = np.array([0.1, 0.5, 1.0, 2.0, 3.0, 4.0])
        inputs = model.run_inputs({"pre.u": u})
        result = run_function(model.entry, inputs)
        assert result.scalar(model.output_key("peak", "y")) > 0

    def test_ir_matches_model_simulation(self):
        diagram = build_pipeline_diagram()
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 3, size=6)
        sim = diagram.simulate(steps=1, input_provider={"pre.u": u})[0]["peak.y"]

        model = compile_diagram(build_pipeline_diagram())
        result = run_function(model.entry, model.run_inputs({"pre.u": u}))
        ir_value = result.scalar(model.output_key("peak", "y"))
        assert ir_value == pytest.approx(sim, rel=1e-9)

    def test_stateful_block_compiles(self):
        d = Diagram("acc")
        d.add_block(library.add("sum", size=1))
        d.add_block(library.unit_delay("z"))
        d.connect("sum", "y", "z", "u")
        d.connect("z", "y", "sum", "b")
        d.mark_input("sum", "a")
        d.mark_output("sum", "y")
        model = compile_diagram(d)
        # state variable becomes a shared declaration
        state_decls = [v for v in model.state_values]
        assert any(name.startswith("st_z_") for name in state_decls)
        result = run_function(model.entry, model.run_inputs({"sum.a": 1.0}))
        assert result.scalar(model.output_key("sum", "y")) == pytest.approx(1.0)

    def test_array_params_become_inputs(self):
        model = compile_diagram(build_pipeline_diagram())
        assert any(name.startswith("p_smooth_") for name in model.parameter_values)

    def test_external_output_also_connected_gets_copy(self):
        d = Diagram("tap")
        d.add_block(library.gain("g", 2.0, size=3))
        d.add_block(library.scalar_max("m", size=3))
        d.connect("g", "y", "m", "u")
        d.mark_input("g", "u")
        d.mark_output("g", "y")  # observed AND connected
        d.mark_output("m", "y")
        model = compile_diagram(d)
        u = np.array([1.0, 5.0, 2.0])
        result = run_function(model.entry, model.run_inputs({"g.u": u}))
        np.testing.assert_allclose(result.array(model.output_key("g", "y")), 2 * u)
        assert result.scalar(model.output_key("m", "y")) == pytest.approx(10.0)

    def test_generated_c_is_printable(self):
        model = compile_diagram(build_pipeline_diagram())
        text = to_c(model.program)
        assert "void pipeline_step(" in text
        assert text.count("{") == text.count("}")

    def test_invalid_diagram_rejected(self):
        d = Diagram("bad")
        d.add_block(library.gain("g", 1.0))
        d.mark_output("g", "y")
        with pytest.raises(Exception):
            compile_diagram(d)


# ---------------------------------------------------------------------- #
# reusing an earlier compile
# ---------------------------------------------------------------------- #
def _ir(model):
    entry = model.entry
    return (
        to_c(entry.body),
        [(d.name, d.type, d.storage, d.initial) for d in entry.params],
        [(d.name, d.type, d.storage, d.initial) for d in entry.decls],
    )


class TestCompileReuse:
    """``compile_diagram(..., lowerings=memo)`` lowers only the blocks
    whose lowering inputs differ from the memo's and builds the IR a
    compile without a memo builds."""

    def _diagram(self, k=2.0):
        from repro.usecases.workloads import random_pipeline_diagram

        d = random_pipeline_diagram(stages=3, width=2, vector_size=8, seed=4)
        # an output both connected and observed gets a copy-out region
        d.add_block(library.gain("tap", k, size=8))
        source = sorted(d.blocks)[0]
        d.connect(source, d.blocks[source].outputs[0].name, "tap", "u")
        d.mark_output("tap", "y")
        d.mark_output(source, d.blocks[source].outputs[0].name)
        return d

    def test_unchanged_diagram_lowers_nothing_and_shares_every_region(self):
        memo = {}
        first = compile_diagram(self._diagram(), lowerings=memo)
        again = compile_diagram(self._diagram(), lowerings=memo)
        assert first.blocks_lowered == len(self._diagram().blocks)
        assert again.blocks_lowered == 0
        assert _ir(again) == _ir(first)
        assert all(
            new is old for new, old in zip(again.entry.body.stmts, first.entry.body.stmts)
        )
        assert any(label.endswith("__copyout") for label, _ in again.block_regions)

    def test_param_edit_lowers_the_edited_block_only(self):
        memo = {}
        first = compile_diagram(self._diagram(), lowerings=memo)
        edited = compile_diagram(self._diagram(k=3.0), lowerings=memo)
        assert edited.blocks_lowered == 1
        assert _ir(edited) == _ir(compile_diagram(self._diagram(k=3.0)))
        changed = [
            label
            for (label, new), (_, old) in zip(edited.block_regions, first.block_regions)
            if new is not old
        ]
        assert changed == ["tap"]

    def test_clashing_temporaries_are_lowered_again(self):
        """Block ``a``'s temporary ``b__t`` and block ``a__b``'s temporary
        ``t`` mangle to the same name, so ``a__b`` reads ``a``'s
        declaration: its lowering depends on ``a`` and is never reused."""
        from repro.model.blocks import Block, Port

        def diagram(first_temp):
            d = Diagram("clash")
            d.add_block(
                Block("a", "custom", inputs=[Port("u")], outputs=[Port("y")],
                      behavior=f"{first_temp} = u * 2\ny = {first_temp}")
            )
            d.add_block(
                Block("a__b", "custom", inputs=[Port("u")], outputs=[Port("y")],
                      behavior="t = u + 1\ny = t")
            )
            d.connect("a", "y", "a__b", "u")
            d.mark_input("a", "u")
            d.mark_output("a__b", "y")
            return d

        memo = {}
        first = compile_diagram(diagram("b__t"), lowerings=memo)
        assert set(memo) == {"a"}
        # ``a`` no longer declares the clashing name; ``a__b`` must declare it
        renamed = compile_diagram(diagram("v"), lowerings=memo)
        assert renamed.blocks_lowered == 2
        assert _ir(renamed) == _ir(compile_diagram(diagram("v")))
        assert "a__b__t" in {d.name for d in renamed.entry.decls}
        # and back: ``a__b``'s temporary is declared before it is reached,
        # so its stored lowering (which declares it) no longer applies
        clashing = compile_diagram(diagram("b__t"), lowerings=memo)
        assert clashing.blocks_lowered == 2
        assert _ir(clashing) == _ir(first)

    def test_assigned_behaviour_is_compiled_and_simulated(self):
        """A gain whose behaviour text is replaced after its script was
        read and lowered, in a cache whose lowering memo holds the old
        behaviour: the memo is keyed by the text and the script re-parsed,
        so the compiled step and the model both compute ``u * 5``."""
        from repro.wcet import WcetAnalysisCache

        cache = WcetAnalysisCache()
        d = Diagram("retuned")
        block = library.gain("g", 2.0)
        d.add_block(block)
        d.mark_input("g", "u")
        d.mark_output("g", "y")
        old = compile_diagram(d, lowerings=cache.lowerings)
        run = run_function(old.entry, old.run_inputs({"g.u": 1.0}))
        assert run.scalar(old.output_key("g", "y")) == 2.0
        assert "g" in cache.lowerings

        block.behavior = "y = u * 5"
        new = compile_diagram(d, lowerings=cache.lowerings)
        assert new.blocks_lowered == 1
        run = run_function(new.entry, new.run_inputs({"g.u": 1.0}))
        assert run.scalar(new.output_key("g", "y")) == 5.0
        assert d.simulate(steps=1, input_provider={"g.u": 1.0})[0]["g.y"] == 5.0
