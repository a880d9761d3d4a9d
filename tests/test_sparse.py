"""Sparse combinations: the accumulation step, the term printer and the
one Combination class under every element type."""

from fractions import Fraction

import pytest

from bigla.catalog import so3
from bigla.deformed import ConjSymPoly, EvenOddPoly, to_complex
from bigla.errors import BiglaError
from bigla.hc import Functional
from bigla.linear import Vector
from bigla.scalars import CycloScalar, I, ONE
from bigla.sparse import Combination, add_scaled, add_term, format_term, join_terms
from bigla.uea import EnvelopingAlgebra, TensorElement, UEAElement

ONE_PLUS_I = CycloScalar(1, 0, 1, 0)


def test_printed_sums_of_every_element_type():
    g = so3()
    U = EnvelopingAlgebra(g)
    sqrt2 = CycloScalar(0, 1, 0, -1)
    poly = EvenOddPoly({0: sqrt2 + 1, 1: -1, 2: sqrt2, 3: Fraction(5, 2)})
    cases = [
        (CycloScalar(Fraction(1, 2), -1, 0, Fraction(-3, 4)), "1/2 - z8 - 3/4*z8^3"),
        (CycloScalar(0, 0, -1), "-i"),
        (CycloScalar(-2, 1), "-2 + z8"),
        (CycloScalar(), "0"),
        (Vector(g.space, {0: ONE_PLUS_I, 1: -ONE, 2: CycloScalar(0, 0, -2)}),
         "(1 + i)*e1 - e2 - 2*i*e3"),
        (g.space.zero(), "0"),
        (UEAElement(U, {(): ONE_PLUS_I, (0, 1): -ONE, (2,): I,
                        (1,): CycloScalar(0, 0, 0, -1)}),
         "-e1*e2 - z8^3*e2 + i*e3 + (1 + i)"),
        (UEAElement(U, {(): -ONE, (0,): CycloScalar(3)}), "3*e1 - 1"),
        (UEAElement(U, {}), "0"),
        (TensorElement(U, 2, {((), ()): ONE_PLUS_I, ((0,), ()): -ONE,
                              ((1, 2), (0,)): CycloScalar(Fraction(2, 3)),
                              ((), (2,)): ONE}),
         "2/3*[e2*e3 (x) e1] - e1 (x) 1 + 1 (x) e3 + (1 + i)*[1 (x) 1]"),
        (TensorElement(U, 2, {}), "0"),
        (poly, "5/2*x^3 + (z8 - z8^3)*x^2 - x + (1 + z8 - z8^3)"),
        (to_complex(poly), "5/2*i*x^3 + (z8 - z8^3)*x^2 - i*x + (1 + z8 - z8^3)"),
        (EvenOddPoly({0: -1}), "-1"),
        (EvenOddPoly({}), "0"),
        (Functional(U, 2, {(): ONE, (0, 2): I}), "i*e1*e3 + 1"),
    ]
    for element, text in cases:
        assert element.pretty() == text


def test_add_term_and_add_scaled_drop_cancelled_keys():
    acc = {"a": Fraction(1), "b": Fraction(2)}
    add_term(acc, "a", Fraction(-1))
    add_term(acc, "c", Fraction(0))
    assert acc == {"b": 2}
    add_scaled(acc, {"b": Fraction(1), "d": Fraction(3)}, Fraction(-2))
    assert acc == {"d": -6}
    add_scaled(acc, {"d": Fraction(6), "e": Fraction(1, 2)})
    assert acc == {"e": Fraction(1, 2)}
    acc = {}
    add_scaled(acc, {"x": ONE_PLUS_I}, I)
    assert acc == {"x": CycloScalar(-1, 0, 1, 0)}


def test_format_term():
    assert format_term(ONE, "e1") == "e1"
    assert format_term(-ONE, "e1") == "-e1"
    assert format_term(ONE_PLUS_I, "e1") == "(1 + i)*e1"
    assert format_term(-ONE, None) == "-1"
    assert format_term(ONE_PLUS_I, None) == "(1 + i)"
    assert format_term(Fraction(-3, 2), "z8") == "-3/2*z8"
    assert format_term(ONE, ("e1", "1")) == "e1 (x) 1"
    assert format_term(I, ("e1", "1")) == "i*[e1 (x) 1]"
    assert join_terms([]) == "0"
    assert join_terms(["a", "-b", "2*c"]) == "a - b + 2*c"


ELEMENT_TYPES = (Vector, UEAElement, TensorElement, Functional, EvenOddPoly,
                 ConjSymPoly)

SHARED = ("_like", "_same", "__add__", "__sub__", "__neg__",
          "scale", "__eq__", "__bool__", "sorted_terms", "pretty", "__repr__")


def test_every_element_type_is_one_combination():
    """Each type inherits the linear structure, the printer and the
    operand check from Combination."""
    own = []
    for cls in ELEMENT_TYPES:
        assert issubclass(cls, Combination)
        for name in SHARED:
            if getattr(cls, name) is not getattr(Combination, name):
                own.append(f"{cls.__name__}.{name}")
    assert own == []


def test_addition_refuses_operands_over_different_bases():
    g = so3()
    U, V = EnvelopingAlgebra(g), EnvelopingAlgebra(g)
    t2 = TensorElement(U, 2, {((0,), ()): ONE})
    different = "^TensorElement and TensorElement over different bases$"
    for other in (TensorElement(V, 3, {((0,), (), ()): ONE}),
                  TensorElement(U, 3, {((0,), (), ()): ONE}),
                  TensorElement(V, 2, {((0,), ()): ONE})):
        with pytest.raises(BiglaError, match=different):
            t2 + other
        with pytest.raises(BiglaError, match=different):
            t2 * other
    with pytest.raises(BiglaError,
                       match="^EvenOddPoly and ConjSymPoly over different bases$"):
        EvenOddPoly({1: ONE}) + ConjSymPoly({1: I})
    with pytest.raises(BiglaError,
                       match="^UEAElement and UEAElement over different bases$"):
        UEAElement(U, {(0,): ONE}) - UEAElement(V, {(0,): ONE})
