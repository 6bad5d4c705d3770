"""Tests for the IR node classes, builder, printer and type system."""

import copy

import pytest

from repro.ir import (
    INT,
    FLOAT,
    BOOL,
    ArrayType,
    Assign,
    BinOp,
    Block,
    Call,
    Const,
    For,
    FunctionBuilder,
    If,
    Return,
    ScalarKind,
    UnOp,
    Var,
    While,
    to_c,
)
from repro.ir.expressions import ArrayRef, substitute, try_evaluate_constant
from repro.ir.program import Function, Storage, VarDecl
from repro.ir.statements import collect_loops, count_statements
from repro.ir.types import is_array, is_scalar


class TestTypes:
    def test_scalar_sizes(self):
        assert INT.size_bytes == 4
        assert BOOL.size_bytes == 1
        assert str(FLOAT) == "float"

    def test_array_type_size(self):
        ty = ArrayType(FLOAT, (4, 8))
        assert ty.num_elements == 32
        assert ty.size_bytes == 128
        assert ty.ndim == 2
        assert "[4][8]" in str(ty)

    def test_array_type_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ArrayType(FLOAT, ())
        with pytest.raises(ValueError):
            ArrayType(FLOAT, (0,))

    def test_predicates(self):
        assert is_array(ArrayType(INT, (3,)))
        assert is_scalar(FLOAT)
        assert not is_scalar(ArrayType(INT, (3,)))


class TestExpressions:
    def test_const_type_inference(self):
        assert Const(True).type == BOOL
        assert Const(3).type.kind is ScalarKind.INT
        assert Const(3.5).type.kind is ScalarKind.FLOAT

    def test_binop_type_promotion(self):
        e = BinOp("+", Const(1), Const(2.0))
        assert e.type.kind is ScalarKind.FLOAT
        assert BinOp("<", Const(1), Const(2)).type == BOOL

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            BinOp("**", Const(1), Const(2))
        with pytest.raises(ValueError):
            UnOp("~", Const(1))
        with pytest.raises(ValueError):
            Call("not_an_intrinsic", (Const(1),))

    def test_variables_read(self):
        x, y = Var("x"), Var("y")
        expr = BinOp("+", BinOp("*", x, y), ArrayRef("buf", (Var("i", INT),)))
        assert expr.variables_read() == {"x", "y", "buf", "i"}

    def test_operation_count(self):
        expr = BinOp("+", BinOp("*", Var("x"), Var("y")), Call("sqrt", (Var("z"),)))
        counts = expr.operation_count()
        assert counts == {"+": 1, "*": 1, "sqrt": 1}

    def test_substitute_replaces_scalars_only(self):
        expr = BinOp("+", Var("i"), ArrayRef("a", (Var("i", INT),)))
        new = substitute(expr, {"i": Const(3)})
        assert "3" in str(new)
        assert new.variables_read() == {"a"}

    def test_constant_folding_helper(self):
        assert try_evaluate_constant(BinOp("+", Const(2), Const(3))) == 5
        assert try_evaluate_constant(BinOp("min", Const(2), Const(3))) == 2
        assert try_evaluate_constant(Call("max", (Const(2), Const(9)))) == 9
        assert try_evaluate_constant(BinOp("+", Var("x"), Const(3))) is None
        assert try_evaluate_constant(BinOp("/", Const(1), Const(0))) is None

    def test_operator_sugar(self):
        x = Var("x")
        expr = x * 2.0 + 1.0
        assert isinstance(expr, BinOp)
        assert expr.op == "+"
        assert isinstance(-x, UnOp)


class TestBuilderAndStatements:
    def test_builder_produces_valid_function(self):
        fb = FunctionBuilder("saxpy")
        x = fb.input_array("x", (16,))
        y = fb.output_array("y", (16,))
        a = fb.scalar_input("a")
        with fb.loop("i", 0, 16) as i:
            fb.assign(fb.at(y, i), fb.at(x, i) * a)
        func = fb.build()
        assert func.name == "saxpy"
        assert len(func.params) == 3
        loops = collect_loops(func.body)
        assert len(loops) == 1
        assert isinstance(loops[0], For)

    def test_builder_validation_catches_undeclared(self):
        fb = FunctionBuilder("bad")
        fb.assign(Var("undeclared"), Const(1.0))
        with pytest.raises(ValueError, match="undeclared"):
            fb.build()

    def test_if_else_builder(self):
        fb = FunctionBuilder("absval")
        x = fb.scalar_input("x")
        y = fb.local("y")
        with fb.if_then(BinOp("<", x, Const(0.0))):
            fb.assign(y, -x)
        with fb.orelse():
            fb.assign(y, x)
        func = fb.build()
        if_stmt = func.body.stmts[0]
        assert isinstance(if_stmt, If)
        assert len(if_stmt.then_body.stmts) == 1
        assert len(if_stmt.else_body.stmts) == 1

    def test_orelse_without_if_raises(self):
        fb = FunctionBuilder("f")
        with pytest.raises(ValueError):
            with fb.orelse():
                pass

    def test_nested_loops_and_count(self):
        fb = FunctionBuilder("mm")
        a = fb.input_array("a", (4, 4))
        b = fb.input_array("b", (4, 4))
        c = fb.output_array("c", (4, 4))
        acc = fb.local("acc")
        with fb.loop("i", 0, 4) as i:
            with fb.loop("j", 0, 4) as j:
                fb.assign(acc, 0.0)
                with fb.loop("k", 0, 4) as k:
                    fb.assign(acc, acc + fb.at(a, i, k) * fb.at(b, k, j))
                fb.assign(fb.at(c, i, j), acc)
        func = fb.build()
        assert len(collect_loops(func.body)) == 3
        assert count_statements(func.body) > 5

    def test_while_requires_bound(self):
        with pytest.raises(ValueError):
            While(cond=Const(True), body=Block(), max_trip_count=-1)

    def test_for_rejects_zero_step(self):
        with pytest.raises(ValueError):
            For(index=Var("i", INT), lower=Const(0), upper=Const(4), body=Block(), step=0)

    def test_statement_ids_unique(self):
        a = Assign(Var("x"), Const(1))
        b = Assign(Var("x"), Const(1))
        assert a.sid != b.sid

    def test_duplicate_declaration_conflict(self):
        fb = FunctionBuilder("f")
        fb.local("x", INT)
        with pytest.raises(ValueError):
            fb.local_array("x", (4,))


class TestPrinter:
    def test_prints_compilable_looking_c(self):
        fb = FunctionBuilder("kernel")
        x = fb.input_array("x", (8,))
        y = fb.output_array("y", (8,))
        with fb.loop("i", 0, 8) as i:
            with fb.if_then(BinOp(">", fb.at(x, i), Const(0.0))):
                fb.assign(fb.at(y, i), Call("sqrt", (fb.at(x, i),)))
            with fb.orelse():
                fb.assign(fb.at(y, i), Const(0.0))
        text = to_c(fb.build())
        assert "void kernel(" in text
        assert "for (int i = 0; i < 8; i++)" in text
        assert "sqrt(" in text
        assert text.count("{") == text.count("}")

    def test_prints_storage_qualifiers(self):
        fb = FunctionBuilder("f")
        fb.shared_array("buf", (32,))
        fb.assign(fb.at(Var("buf", ArrayType(FLOAT, (32,))), 0), 1.0)
        text = to_c(fb.build())
        assert "__shared" in text

    def test_prints_expression_and_return(self):
        assert to_c(BinOp("+", Var("a"), Const(1))) == "(a + 1)"
        assert to_c(Return(Var("a"))) == "return a;"


class TestDeclarationIndex:
    def test_lookup_sees_declare_and_direct_appends(self):
        func = Function("f")
        assert func.lookup("a") is None
        a = func.declare(VarDecl("a", FLOAT))
        assert func.lookup("a") is a
        # the front end and the builder append to the lists directly
        p = VarDecl("p", FLOAT, Storage.INPUT)
        func.params.append(p)
        d = VarDecl("d", ArrayType(FLOAT, (4,)), Storage.SHARED)
        func.decls.append(d)
        assert func.lookup("p") is p
        assert func.lookup("d") is d
        assert func.declare(VarDecl("d", ArrayType(FLOAT, (4,)))) is d
        # a replaced list is indexed afresh
        e = VarDecl("e", FLOAT)
        func.decls = [e]
        assert func.lookup("e") is e
        assert func.lookup("a") is None

    def test_first_match_wins_params_before_decls(self):
        local = VarDecl("x", FLOAT, Storage.LOCAL)
        func = Function("f", decls=[local, VarDecl("x", FLOAT, Storage.SHARED)])
        assert func.lookup("x") is local
        param = VarDecl("x", FLOAT, Storage.INPUT)
        func.params.append(param)
        assert func.lookup("x") is param
        func.params.append(VarDecl("x", FLOAT, Storage.OUTPUT))
        assert func.lookup("x") is param

    def test_deepcopy_indexes_its_own_declarations(self):
        func = Function("f", params=[VarDecl("p", FLOAT, Storage.INPUT)])
        assert func.lookup("p") is func.params[0]
        clone = copy.deepcopy(func)
        assert clone.lookup("p") is clone.params[0]
        assert clone.lookup("p") is not func.params[0]
        clone.decls.append(VarDecl("q", FLOAT))
        assert clone.lookup("q") is clone.decls[0]
        assert func.lookup("q") is None
