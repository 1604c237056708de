"""Sparse multivariate polynomials with rational coefficients."""
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcheck.polynomials import Polynomial, PolynomialError, parse_polynomial

VARS = ("u", "x1", "x2")


def P(text):
    return parse_polynomial(text, VARS)


class TestParsing:
    def test_chart_polynomial(self):
        p = P("u*(x1^2 + 2*x2^2)")
        pt = (F(3), F(1, 2), F(2))
        assert p.evaluate(pt) == 3 * (F(1, 4) + 8)

    def test_rational_literal(self):
        assert P("3/4 * u").evaluate((F(2), 0, 0)) == F(3, 2)

    def test_caret_and_doublestar_powers(self):
        assert P("u^3") == P("u**3")

    def test_unary_minus(self):
        assert P("-u + u") == P("0")

    def test_constant_division(self):
        assert P("u / 2").evaluate((F(1), 0, 0)) == F(1, 2)

    def test_division_by_zero_rejected(self):
        with pytest.raises(PolynomialError):
            P("u / 0")

    def test_division_by_variable_rejected(self):
        with pytest.raises(PolynomialError):
            P("1 / u")

    def test_unknown_variable_rejected(self):
        with pytest.raises(PolynomialError):
            P("u + y")

    def test_malformed_rejected(self):
        with pytest.raises(PolynomialError):
            P("u +* 2")

    def test_calls_rejected(self):
        with pytest.raises(PolynomialError):
            P("abs(u)")

    @pytest.mark.parametrize("text", [
        "1e999 * u",                    # a float literal that is infinite
        "~u", "not u",                  # unary operators other than + and -
        "u\x00",                         # a null byte
        "-" * 3000 + "u",               # nesting too deep for ast.parse
        " + ".join(["u"] * 3000),
    ], ids=["infinite", "invert", "not", "null_byte", "deep_unary",
            "long_sum"])
    def test_malformed_input_raises_polynomial_error(self, text):
        with pytest.raises(PolynomialError):
            P(text)

    def test_sum_near_the_recursion_limit_parses_or_is_refused(self):
        # ast.parse accepts it; evaluating it may pass the recursion limit
        try:
            P(" + ".join(["u"] * 990))
        except PolynomialError:
            pass

    @pytest.mark.parametrize("text, needle", [
        ("(x1 + x2 + u + 1)^33", "exponent 33"),
        ("(u + x1)^32 * x2", "degree 33"),
        ("(u + x1 + x2 + 1)^12", "term count up to"),
        # 100 * 11 term pairs
        ("(u + x1)^9 * (x2 + 1)^9 * (u + x2)^10", "term count up to 1100"),
        ("((9^32)^32)^32", "constant size in bits"),
    ])
    def test_size_bounds_refused(self, text, needle):
        with pytest.raises(PolynomialError, match=re.escape(needle)):
            P(text)

    def test_sizes_at_the_bounds_accepted(self):
        assert P("(u + x1)^32").degree() == 32
        # 10 * 10 term pairs, then exactly 100 * 10
        assert P("(u + x1)^9 * (x2 + 1)^9 * (u + x2)^9").degree() == 27
        assert P("(2^32)^31 * u") == P("u") * 2 ** 992


class TestAlgebra:
    def test_derivative(self):
        p = P("u*x1^2")
        assert p.derivative("x1") == P("2*u*x1")
        assert p.derivative("x2") == P("0")

    def test_product_rule_spot(self):
        p, q = P("u + x1"), P("u*x2")
        lhs = (p * q).derivative("u")
        rhs = p.derivative("u") * q + p * q.derivative("u")
        assert lhs == rhs

    def test_degree_and_dependence(self):
        p = P("u*x1^2 + 1")
        assert p.degree() == 3
        assert p.depends_on("x1") and not p.depends_on("x2")

    def test_rename_into_superset_chart(self):
        p = P("u*x1").rename(("v", "u", "x1", "x2", "w"))
        assert p.evaluate((F(0), F(2), F(3), F(5), F(9))) == 6


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def poly_strategy():
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(monos, small_fracs, max_size=4).map(
        lambda d: Polynomial(VARS, d))


@settings(max_examples=50, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)


@settings(max_examples=50, deadline=None)
@given(poly_strategy(), poly_strategy(),
       st.tuples(small_fracs, small_fracs, small_fracs))
def test_evaluation_is_a_homomorphism(a, b, pt):
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
