"""Sparse multivariate polynomials with exact rational coefficients.

These are the carriers for metric components and pp-wave potentials.  All
coefficients are `fractions.Fraction`; conversion to binary floats happens
only when a jet is instantiated in float mode.
"""
from __future__ import annotations

import ast
import math
from fractions import Fraction
from typing import Iterable, Mapping


# Size bounds parse_polynomial holds every partial result to, each checked
# before the operation that could pass it.  A `^` exponent is the number of
# products that form the power.  A sum of a and b has at most
# len(a) + len(b) terms and a product at most len(a) * len(b), which is
# also the product's work.  A product's degree is the sum of its factors'.
# A product of constants has at most the sum of their bits.
MAX_EXPONENT = 32
MAX_TERMS = 1000
MAX_DEGREE = 32
MAX_CONSTANT_BITS = 1024


class PolynomialError(ValueError):
    """Malformed polynomial expression or incompatible operands."""


class Polynomial:
    """Polynomial over a fixed ordered tuple of chart variables.

    terms maps exponent tuples (one slot per variable) to nonzero Fraction
    coefficients.  Instances are immutable by convention.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, object] | None = None):
        self.variables = tuple(variables)
        nvars = len(self.variables)
        clean: dict[tuple, Fraction] = {}
        for mi, c in (terms or {}).items():
            mi = tuple(int(e) for e in mi)
            if len(mi) != nvars:
                raise PolynomialError(f"exponent tuple {mi} does not match variables {self.variables}")
            if any(e < 0 for e in mi):
                raise PolynomialError(f"negative exponent in {mi}")
            c = Fraction(c)
            if c:
                clean[mi] = clean.get(mi, Fraction(0)) + c
                if not clean[mi]:
                    del clean[mi]
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, variables, value) -> "Polynomial":
        variables = tuple(variables)
        zero = (0,) * len(variables)
        return cls(variables, {zero: value})

    @classmethod
    def variable(cls, variables, name) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise PolynomialError(f"unknown variable {name!r}; chart has {variables}")
        mi = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {mi: 1})

    # -- ring operations -------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise PolynomialError(
                f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for mi, c in other.terms.items():
            terms[mi] = terms.get(mi, Fraction(0)) + c
        return Polynomial(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {mi: -c for mi, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            return Polynomial(self.variables, {mi: v * c for mi, v in self.terms.items()})
        self._check(other)
        terms: dict[tuple, Fraction] = {}
        for mi1, c1 in self.terms.items():
            for mi2, c2 in other.terms.items():
                mi = tuple(a + b for a, b in zip(mi1, mi2))
                terms[mi] = terms.get(mi, Fraction(0)) + c1 * c2
        return Polynomial(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise PolynomialError(f"exponent must be a non-negative integer, got {k!r}")
        out = Polynomial.constant(self.variables, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus / queries ----------------------------------------------

    def derivative(self, name: str) -> "Polynomial":
        i = self.variables.index(name)
        terms: dict[tuple, Fraction] = {}
        for mi, c in self.terms.items():
            if mi[i] == 0:
                continue
            lowered = list(mi)
            lowered[i] -= 1
            terms[tuple(lowered)] = c * mi[i]
        return Polynomial(self.variables, terms)

    def evaluate(self, point):
        """Value at a point given as a sequence aligned with self.variables."""
        point = tuple(point)
        if len(point) != len(self.variables):
            raise PolynomialError("point dimension mismatch")
        total = None
        for mi, c in self.terms.items():
            term = c
            for p, e in zip(point, mi):
                for _ in range(e):
                    term = term * p
            total = term if total is None else total + term
        if total is None:
            sample = point[0] if point else Fraction(0)
            return 0.0 if isinstance(sample, float) else Fraction(0)
        return total

    def depends_on(self, name: str) -> bool:
        i = self.variables.index(name)
        return any(mi[i] > 0 for mi in self.terms)

    def degree(self) -> int:
        return max((sum(mi) for mi in self.terms), default=0)

    def rename(self, variables) -> "Polynomial":
        """Reinterpret over a superset chart, matching variables by name."""
        variables = tuple(variables)
        pos = []
        for v in self.variables:
            if v not in variables:
                raise PolynomialError(f"variable {v!r} missing from target chart {variables}")
            pos.append(variables.index(v))
        terms = {}
        for mi, c in self.terms.items():
            new = [0] * len(variables)
            for p, e in zip(pos, mi):
                new[p] = e
            terms[tuple(new)] = c
        return Polynomial(variables, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mi in sorted(self.terms, key=lambda m: (sum(m), m)):
            c = self.terms[mi]
            factors = [str(c)] if c != 1 or not any(mi) else []
            if c == 1 and not any(mi):
                factors = ["1"]
            for v, e in zip(self.variables, mi):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


# -- expression parser ----------------------------------------------------

_ALLOWED = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
            ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd)


def _terms(x) -> int:
    return len(x.terms) if isinstance(x, Polynomial) else 1


def _degree(x) -> int:
    return x.degree() if isinstance(x, Polynomial) else 0


def _bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse expressions like "u*(x1^2 + 2*x2^2)" or "3/4*x1" over a chart.

    `^` is accepted as the power operator.  Division is only allowed with a
    constant divisor (rational syntax "p/q").  An expression that would pass
    one of the size bounds above is refused before that work is done.
    """
    variables = tuple(variables)
    try:
        tree = ast.parse(text.replace("^", "**").strip(), mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as e:
        # ValueError: null bytes before Python 3.11; RecursionError and
        # MemoryError: nesting too deep for the parser
        raise PolynomialError(f"cannot parse polynomial {text!r}: "
                              f"{type(e).__name__}: {e}") from None

    def refuse(what, value, bound):
        raise PolynomialError(f"{what} {value} above the bound {bound} "
                              f"in {text!r}")

    def add(a, b):
        if _terms(a) + _terms(b) > MAX_TERMS:
            refuse("term count up to", _terms(a) + _terms(b), MAX_TERMS)
        return a + b

    def product(a, b):
        if isinstance(a, Polynomial) or isinstance(b, Polynomial):
            if _degree(a) + _degree(b) > MAX_DEGREE:
                refuse("degree", _degree(a) + _degree(b), MAX_DEGREE)
            if _terms(a) * _terms(b) > MAX_TERMS:
                refuse("term count up to", _terms(a) * _terms(b), MAX_TERMS)
        elif _bits(a) + _bits(b) > MAX_CONSTANT_BITS:
            refuse("constant size in bits", _bits(a) + _bits(b),
                   MAX_CONSTANT_BITS)
        return a * b

    def ev(node):
        if not isinstance(node, _ALLOWED):
            raise PolynomialError(f"disallowed syntax in polynomial {text!r}: {ast.dump(node)}")
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant):
            if (isinstance(node.value, bool)
                    or not isinstance(node.value, (int, float))
                    or not math.isfinite(node.value)):
                raise PolynomialError(f"bad constant {node.value!r} in {text!r}")
            # a float literal's exact binary value; write "p/q" for a
            # decimal
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            return Polynomial.variable(variables, node.id)
        if isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                raise PolynomialError(f"unsupported operator in {text!r}")
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        # BinOp
        left, right = ev(node.left), ev(node.right)
        if isinstance(node.op, ast.Add):
            return add(left, right)
        if isinstance(node.op, ast.Sub):
            return add(left, -right)
        if isinstance(node.op, ast.Mult):
            return product(left, right)
        if isinstance(node.op, ast.Div):
            if isinstance(right, Polynomial):
                raise PolynomialError(f"division by a polynomial in {text!r}")
            if right == 0:
                raise PolynomialError(f"division by zero in {text!r}")
            return product(left, 1 / right)
        if isinstance(node.op, ast.Pow):
            if isinstance(right, Polynomial) or right.denominator != 1 or right < 0:
                raise PolynomialError(f"exponent must be a non-negative integer in {text!r}")
            if right > MAX_EXPONENT:
                refuse("exponent", right, MAX_EXPONENT)
            out = (Polynomial.constant(variables, 1)
                   if isinstance(left, Polynomial) else Fraction(1))
            for _ in range(int(right)):
                out = product(out, left)
            return out
        raise PolynomialError(f"unsupported operator in {text!r}")

    try:
        out = ev(tree)
    except RecursionError:
        raise PolynomialError(
            f"polynomial {text!r} is nested too deeply") from None
    if not isinstance(out, Polynomial):
        out = Polynomial.constant(variables, out)
    return out
