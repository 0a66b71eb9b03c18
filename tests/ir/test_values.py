"""Unit tests for IR values and operands."""

import pytest

from repro.ir import DType, LoopBody, Operand, ValueKind


def test_value_kinds():
    loop = LoopBody("t")
    variant = loop.new_value("v", DType.FLOAT)
    invariant = loop.invariant("n", DType.INT)
    constant = loop.constant(2.0)
    assert variant.is_variant
    assert invariant.is_invariant and not invariant.is_variant
    assert constant.is_constant and constant.literal == 2.0


def test_invariant_and_constant_are_interned():
    loop = LoopBody("t")
    assert loop.invariant("n", DType.INT) is loop.invariant("n", DType.INT)
    assert loop.constant(4.0) is loop.constant(4.0)
    assert loop.constant(4.0) is not loop.constant(5.0)
    assert loop.invariant("n", DType.INT) is not loop.invariant("m", DType.INT)


def test_value_ids_are_dense():
    loop = LoopBody("t")
    values = [loop.new_value(f"v{i}", DType.FLOAT) for i in range(5)]
    assert [v.vid for v in values] == list(range(5))


def test_operand_back_distance():
    loop = LoopBody("t")
    value = loop.new_value("v", DType.FLOAT)
    assert Operand(value, back=2).back == 2
    assert Operand(value).back == 0


def test_operand_rejects_negative_distance():
    loop = LoopBody("t")
    value = loop.new_value("v", DType.FLOAT)
    with pytest.raises(ValueError):
        Operand(value, back=-1)


def test_operand_rejects_carried_invariant():
    loop = LoopBody("t")
    invariant = loop.invariant("n", DType.INT)
    with pytest.raises(ValueError):
        Operand(invariant, back=1)


def test_predicate_dtype_routing():
    assert DType.PRED.is_predicate
    assert not DType.FLOAT.is_predicate
    loop = LoopBody("t")
    pred = loop.new_value("p", DType.PRED)
    assert pred.is_variant  # predicates live in the rotating ICR file
