"""Tests for the block library and dataflow diagrams."""

import numpy as np
import pytest

from repro.model import Diagram, DiagramValidationError, library
from repro.model.blocks import Block, BlockError, Port


class TestBlockLibrary:
    def test_gain_scalar_and_vector(self):
        g = library.gain("g", 3.0)
        assert g.evaluate({"u": 2.0})["y"] == pytest.approx(6.0)
        gv = library.gain("gv", 2.0, size=4)
        out = gv.evaluate({"u": np.array([1.0, 2.0, 3.0, 4.0])})["y"]
        np.testing.assert_allclose(out, [2, 4, 6, 8])

    def test_add_and_subtract(self):
        s = library.add("s", size=3)
        out = s.evaluate({"a": np.ones(3), "b": np.full(3, 2.0)})["y"]
        np.testing.assert_allclose(out, 3.0)
        d = library.add("d", size=3, sign_b=-1.0)
        out = d.evaluate({"a": np.full(3, 5.0), "b": np.ones(3)})["y"]
        np.testing.assert_allclose(out, 4.0)

    def test_saturation(self):
        sat = library.saturation("sat", -1.0, 1.0)
        assert sat.evaluate({"u": 5.0})["y"] == 1.0
        assert sat.evaluate({"u": -5.0})["y"] == -1.0
        assert sat.evaluate({"u": 0.5})["y"] == 0.5

    def test_threshold_vector(self):
        th = library.threshold("th", 0.5, size=4)
        out = th.evaluate({"u": np.array([0.1, 0.6, 0.5, 2.0])})["y"]
        np.testing.assert_allclose(out, [0, 1, 0, 1])

    def test_unit_delay_state(self):
        z = library.unit_delay("z")
        assert z.evaluate({"u": 7.0})["y"] == 0.0
        assert z.evaluate({"u": 9.0})["y"] == 7.0
        z.reset_state()
        assert z.evaluate({"u": 1.0})["y"] == 0.0

    def test_integrator(self):
        integ = library.discrete_integrator("i", dt=0.5)
        assert integ.evaluate({"u": 2.0})["y"] == pytest.approx(1.0)
        assert integ.evaluate({"u": 2.0})["y"] == pytest.approx(2.0)

    def test_fir_matches_numpy_convolution(self):
        taps = np.array([0.5, 0.3, 0.2])
        fir = library.fir_filter("f", taps, size=8)
        u = np.arange(1.0, 9.0)
        out = fir.evaluate({"u": u})["y"]
        expected = np.convolve(u, taps)[:8]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_dot_and_norm(self):
        dot = library.dot_product("d", 3)
        assert dot.evaluate({"a": np.array([1.0, 2, 3]), "b": np.array([4.0, 5, 6])})["y"] == 32.0
        nrm = library.vector_norm("n", 4)
        assert nrm.evaluate({"u": np.array([3.0, 4.0, 0.0, 0.0])})["y"] == pytest.approx(5.0)

    def test_matrix_vector(self):
        mv = library.matrix_vector("mv", 2, 3)
        A = np.arange(6, dtype=float).reshape(2, 3)
        x = np.array([1.0, 0.0, 2.0])
        out = mv.evaluate({"A": A, "x": x})["y"]
        np.testing.assert_allclose(out, A @ x)

    def test_elementwise_and_lookup(self):
        sq = library.elementwise("s", "sqrt", size=3)
        out = sq.evaluate({"u": np.array([1.0, 4.0, 9.0])})["y"]
        np.testing.assert_allclose(out, [1, 2, 3])
        with pytest.raises(ValueError):
            library.elementwise("bad", "nosuchfunc")
        lut = library.lookup_1d("l", np.array([10.0, 20.0, 30.0]))
        assert lut.evaluate({"u": 1.2})["y"] == 20.0
        assert lut.evaluate({"u": -5.0})["y"] == 10.0
        assert lut.evaluate({"u": 99.0})["y"] == 30.0

    def test_switch_and_reductions(self):
        sw = library.switch("sw", size=2)
        a, b = np.array([1.0, 1.0]), np.array([2.0, 2.0])
        np.testing.assert_allclose(sw.evaluate({"ctrl": 1.0, "a": a, "b": b})["y"], a)
        np.testing.assert_allclose(sw.evaluate({"ctrl": 0.0, "a": a, "b": b})["y"], b)
        mx = library.scalar_max("m", 4)
        assert mx.evaluate({"u": np.array([1.0, 9.0, 3.0, 2.0])})["y"] == 9.0
        mn = library.window_min("w", 4)
        assert mn.evaluate({"u": np.array([5.0, 2.0, 8.0, 4.0])})["y"] == 2.0

    def test_vector_source_and_constant(self):
        src = library.vector_source("v", 3, np.array([7.0, 8.0, 9.0]))
        np.testing.assert_allclose(src.evaluate({})["y"], [7, 8, 9])
        c = library.constant("c", 4.5)
        assert c.evaluate({})["y"] == 4.5

    def test_block_validation(self):
        bad = Block(name="b", kind="x", outputs=[Port("y")], behavior="z = 1")
        with pytest.raises(BlockError):
            bad.validate()
        with pytest.raises(BlockError):
            Block(name="", kind="x")
        with pytest.raises(BlockError):
            Block(name="b", kind="x", inputs=[Port("u")], outputs=[Port("u")])
        with pytest.raises(BlockError):
            Block(name="b", kind="x", inputs=[Port("u")], params={"u": 1.0})

    def test_missing_input_rejected(self):
        g = library.gain("g", 2.0)
        with pytest.raises(BlockError):
            g.evaluate({})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: library.moving_average("m", 0, 8),
            lambda: library.moving_average("m", -3, 8),
            lambda: library.fir_filter("f", np.array([]), 8),
            lambda: library.fir_filter("f", np.ones((2, 2)), 8),
            lambda: library.lookup_1d("l", np.array([])),
            lambda: library.lookup_1d("l", [], size=4),
            lambda: library.vector_source("v", 3, np.ones(2)),
            lambda: library.elementwise("e", "nosuchfunc"),
        ],
        ids=[
            "zero_window",
            "negative_window",
            "empty_taps",
            "matrix_taps",
            "empty_table",
            "empty_vector_table",
            "source_shape",
            "unknown_function",
        ],
    )
    def test_malformed_parameters_raise_block_error(self, build):
        with pytest.raises(BlockError):
            build()


def build_alarm_diagram(size=8):
    """distance sensor -> gain -> threshold -> max-reduce alarm."""
    d = Diagram("alarm")
    d.add_block(library.gain("scale", 0.5, size=size))
    d.add_block(library.threshold("detect", 1.0, size=size))
    d.add_block(library.scalar_max("alarm", size=size))
    d.connect("scale", "y", "detect", "u")
    d.connect("detect", "y", "alarm", "u")
    d.mark_input("scale", "u")
    d.mark_output("alarm", "y")
    return d


class TestDiagram:
    def test_validation_and_order(self):
        d = build_alarm_diagram()
        d.validate()
        order = d.execution_order()
        assert order.index("scale") < order.index("detect") < order.index("alarm")

    def test_shape_mismatch_rejected(self):
        d = Diagram("bad")
        d.add_block(library.gain("a", 1.0, size=4))
        d.add_block(library.gain("b", 1.0, size=8))
        with pytest.raises(DiagramValidationError):
            d.connect("a", "y", "b", "u")

    def test_double_driver_rejected(self):
        d = Diagram("bad")
        d.add_block(library.constant("c1", 1.0))
        d.add_block(library.constant("c2", 2.0))
        d.add_block(library.gain("g", 1.0))
        d.connect("c1", "y", "g", "u")
        with pytest.raises(DiagramValidationError):
            d.connect("c2", "y", "g", "u")

    def test_unconnected_input_detected(self):
        d = Diagram("bad")
        d.add_block(library.gain("g", 1.0))
        d.mark_output("g", "y")
        with pytest.raises(DiagramValidationError):
            d.validate()

    def test_duplicate_block_rejected(self):
        d = Diagram("dup")
        d.add_block(library.constant("c", 1.0))
        with pytest.raises(DiagramValidationError):
            d.add_block(library.constant("c", 2.0))

    def test_algebraic_loop_detected(self):
        d = Diagram("loop")
        d.add_block(library.gain("g1", 1.0))
        d.add_block(library.gain("g2", 1.0))
        d.connect("g1", "y", "g2", "u")
        d.connect("g2", "y", "g1", "u")
        with pytest.raises(DiagramValidationError):
            d.validate()

    def test_feedback_through_delay_allowed(self):
        d = Diagram("feedback")
        d.add_block(library.add("sum", size=1))
        d.add_block(library.unit_delay("z"))
        d.connect("sum", "y", "z", "u")
        d.connect("z", "y", "sum", "b")
        d.mark_input("sum", "a")
        d.mark_output("sum", "y")
        d.validate()
        # accumulator behaviour: y[t] = sum of inputs up to t
        outs = d.simulate(steps=4, input_provider={"sum.a": 1.0})
        values = [o["sum.y"] for o in outs]
        assert values == [1.0, 2.0, 3.0, 4.0]

    def test_simulation_of_alarm_pipeline(self):
        d = build_alarm_diagram(size=4)
        outs = d.simulate(
            steps=1, input_provider={"scale.u": np.array([0.0, 1.0, 3.0, 10.0])}
        )
        assert outs[0]["alarm.y"] == 1.0
        d.reset()
        outs = d.simulate(steps=1, input_provider={"scale.u": np.zeros(4)})
        assert outs[0]["alarm.y"] == 0.0

    def test_simulation_missing_input(self):
        d = build_alarm_diagram(size=4)
        with pytest.raises(DiagramValidationError):
            d.simulate(steps=1)

    def test_summary_mentions_blocks(self):
        text = build_alarm_diagram().summary()
        assert "scale" in text and "alarm" in text
