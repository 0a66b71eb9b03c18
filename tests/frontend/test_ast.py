"""Unit tests for the DSL AST conveniences."""

import pytest

from repro.frontend import ArrayRef, BinOp, Compare, Const, DoLoop, Scalar, Unary
from repro.frontend.ast import Assign, Index


def test_operator_overloading_builds_binops():
    expr = ArrayRef("x") + 2.0
    assert isinstance(expr, BinOp) and expr.op == "+"
    assert isinstance(expr.right, Const) and expr.right.value == 2.0


def test_reflected_operators():
    expr = 2.0 * ArrayRef("x")
    assert isinstance(expr, BinOp) and expr.op == "*"
    assert isinstance(expr.left, Const)


def test_comparison_operators_build_compares():
    cmp = Scalar("s") > 1.0
    assert isinstance(cmp, Compare) and cmp.op == ">"
    assert isinstance((Scalar("s") <= Scalar("t")), Compare)


def test_negation_builds_unary():
    expr = -ArrayRef("x")
    assert isinstance(expr, Unary) and expr.op == "neg"


def test_division_chain():
    expr = ArrayRef("x") / (ArrayRef("y") + 1.0)
    assert isinstance(expr, BinOp) and expr.op == "/"


def test_invalid_operand_type_rejected():
    with pytest.raises(TypeError):
        ArrayRef("x") + "nope"


def test_structural_equality():
    assert ArrayRef("x", -1) == ArrayRef("x", -1)
    assert ArrayRef("x", -1) != ArrayRef("x", 0)
    assert (ArrayRef("x") + 1.0) == (ArrayRef("x") + 1.0)


def test_max_element_accounts_for_stride_and_offset():
    program = DoLoop(
        "sizes",
        body=[Assign(ArrayRef("z", 3, 2), ArrayRef("z", -1))],
        arrays={"z": 10},
        start=2,
        trip=5,
    )
    # stride 2 * (start 2 + trip 5) + offset 3 = 17
    assert program.max_elements() == {"z": 17}


def test_index_is_singleton_like():
    assert Index() == Index()
