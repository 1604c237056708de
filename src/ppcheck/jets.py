"""Truncated multivariate Taylor jets in a dense graded layout.

A jet of order K at a point stores the Taylor coefficients c[beta] =
d^beta f / beta! for |beta| <= K.  With that normalization products are
plain Cauchy products and no factorial bookkeeping is needed in hot loops.

Coefficients sit in one flat list indexed by a graded monomial index: the
monomial of degree 0, then those of degree 1, and so on up to K (the
homogeneous-degree storage of TaylorSeries.jl), so truncating to a lower
order is a prefix slice.  For each (dim, order) the index, a product table
(i, j) -> k holding only the pairs within the order, and a derivative table
per variable are built on first use and cached.

Every jet carries its arithmetic mode.  An exact jet holds integer
numerators over one positive common denominator in lowest terms
(gcd(den, *numerators) == 1), so an operation reduces its result with a
single `math.gcd` call instead of normalising a `Fraction` per coefficient.
A float jet holds 64-bit floats.  Combining a float jet with an exact one
gives a float jet.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cache

from .polynomials import Polynomial

EXACT = "exact"
FLOAT = "float"


class JetError(ValueError):
    """Structural mismatch between jets (dimension or order)."""


class SingularJetError(ZeroDivisionError):
    """Reciprocal of a jet whose constant term vanishes."""


class OrderBudgetError(RuntimeError):
    """A derivative was requested past the truncation order."""


def as_mode(value, mode):
    """Coerce a rational value to the arithmetic domain of `mode`."""
    if mode == FLOAT:
        return float(value)
    return Fraction(value)


def _monomials_of_degree(dim: int, degree: int):
    """Exponent tuples of total `degree` in `dim` variables, lexicographically
    descending."""
    if dim == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials_of_degree(dim - 1, degree - first):
            yield (first,) + rest


class _Tables:
    """Graded monomial index and operation tables for one (dim, order)."""

    __slots__ = ("dim", "order", "size", "monos", "index", "mul", "deriv",
                 "zero")

    def __init__(self, dim: int, order: int):
        monos = [mi for d in range(order + 1)
                 for mi in _monomials_of_degree(dim, d)]
        index = {mi: k for k, mi in enumerate(monos)}
        # ends[d]: number of monomials of degree <= d
        ends = [0] * (order + 1)
        for mi in monos:
            ends[sum(mi)] += 1
        for d in range(1, order + 1):
            ends[d] += ends[d - 1]
        self.dim = dim
        self.order = order
        self.size = len(monos)
        self.monos = monos
        self.index = index
        # mul[i][j] is the index of monos[i] * monos[j]; row i stops at the
        # last j that keeps the product within the order
        self.mul = [[index[tuple(a + b for a, b in zip(mi, mj))]
                     for mj in monos[:ends[order - sum(mi)]]]
                    for mi in monos]
        # deriv[v] = (src, factor): coefficient k of d/dx_v is
        # factor[k] * c[src[k]], for k over the order-1 index
        self.deriv = []
        if order > 0:
            lower = monos[:ends[order - 1]]
            for v in range(dim):
                src = [index[mi[:v] + (mi[v] + 1,) + mi[v + 1:]]
                       for mi in lower]
                self.deriv.append((src, [mi[v] + 1 for mi in lower]))
        self.zero = {EXACT: _raw(self, EXACT, [0] * self.size, 1, False),
                     FLOAT: _raw(self, FLOAT, [0.0] * self.size, 1, False)}


@cache
def _tables(dim: int, order: int) -> _Tables:
    return _Tables(dim, order)


def _raw(t: _Tables, mode: str, c: list, den: int, nz: bool) -> "Jet":
    """Assemble a jet from coefficients already in stored form."""
    jet = object.__new__(Jet)
    jet.dim = t.dim
    jet.order = t.order
    jet.mode = mode
    jet.c = c
    jet.den = den
    jet.nz = nz
    jet._t = t
    return jet


def _float(t: _Tables, c: list) -> "Jet":
    """Float jet of coefficients `c` (the shared zero jet if all vanish)."""
    if not any(c):
        return t.zero[FLOAT]
    return _raw(t, FLOAT, c, 1, True)


def _exact(t: _Tables, c: list, den: int) -> "Jet":
    """Exact jet of numerators `c` over `den` > 0, reduced to lowest terms
    (the shared zero jet if all vanish)."""
    if not any(c):
        return t.zero[EXACT]
    if den != 1:
        g = math.gcd(den, *c)
        if g != 1:
            c = [x // g for x in c]
            den //= g
    return _raw(t, EXACT, c, den, True)


class _CoeffView(Mapping):
    """Read-only mapping of a jet's nonzero coefficients by exponent tuple.

    Keys and the count come straight from the dense list; a value becomes a
    number only when it is read.
    """

    __slots__ = ("_jet",)

    def __init__(self, jet: "Jet"):
        self._jet = jet

    def __getitem__(self, mi):
        jet = self._jet
        k = jet._t.index.get(mi)
        if k is None or not jet.c[k]:
            raise KeyError(mi)
        return jet._scalar(jet.c[k])

    def __iter__(self):
        monos = self._jet._t.monos
        return (monos[k] for k, x in enumerate(self._jet.c) if x)

    def __len__(self):
        c = self._jet.c
        return len(c) - c.count(0)

    def __repr__(self):
        return repr(dict(self))


class Jet:
    """Truncated Taylor expansion in `dim` variables, immutable by convention.

    `c` lists the coefficients in graded monomial order.  In exact mode they
    are integer numerators over the positive denominator `den`, in lowest
    terms; in float mode they are floats and `den` is 1.  `nz` is false
    only for a jet whose coefficients all vanish.
    """

    __slots__ = ("dim", "order", "mode", "c", "den", "nz", "_t")

    def __init__(self, dim: int, order: int, coeffs=None, mode: str = EXACT):
        if order < 0:
            raise JetError(f"negative jet order {order}")
        if mode not in (EXACT, FLOAT):
            raise JetError(f"unknown arithmetic mode {mode!r}")
        t = _tables(dim, order)
        values = [0] * t.size
        for mi, v in (coeffs or {}).items():
            mi = tuple(mi)
            if len(mi) != dim:
                raise JetError(f"multi-index {mi} does not match dimension {dim}")
            if sum(mi) > order or not v:
                continue
            k = t.index.get(mi)
            if k is None:
                raise JetError(f"bad multi-index {mi}")
            values[k] = v
        if mode == FLOAT:
            c, den = [float(v) for v in values], 1
        else:
            values = [Fraction(v) for v in values]
            den = math.lcm(*(v.denominator for v in values))
            c = [v.numerator * (den // v.denominator) for v in values]
        self.dim = dim
        self.order = order
        self.mode = mode
        self.c = c
        self.den = den
        self.nz = any(c)
        self._t = t

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim, order, value, mode=EXACT):
        t = _tables(dim, order)
        if mode == FLOAT:
            c = [0.0] * t.size
            c[0] = float(value)
            return _float(t, c)
        value = Fraction(value)
        c = [0] * t.size
        c[0] = value.numerator
        return _exact(t, c, value.denominator)

    @classmethod
    def zero(cls, dim, order, mode=EXACT):
        return _tables(dim, order).zero[mode]

    # -- basic queries -------------------------------------------------------

    def _scalar(self, x):
        """A stored coefficient as a number: float, Fraction, or int 0."""
        if self.mode == FLOAT:
            return x
        return Fraction(x, self.den) if x else 0

    @property
    def value(self):
        """Constant term, i.e. the value of the field at the point."""
        return self._scalar(self.c[0])

    @property
    def coeffs(self) -> Mapping:
        """Nonzero coefficients keyed by exponent tuple, read-only."""
        return _CoeffView(self)

    def is_zero(self) -> bool:
        return not self.nz

    def coefficient(self, mi):
        k = self._t.index.get(tuple(mi))
        if k is None:
            return 0.0 if self.mode == FLOAT else 0
        return self._scalar(self.c[k])

    # -- arithmetic ----------------------------------------------------------

    def _to_float(self) -> "Jet":
        if self.mode == FLOAT:
            return self
        den = self.den
        return _float(self._t, [x / den for x in self.c])

    def _lift(self, value) -> "Jet":
        """A scalar operand as a constant jet; a float scalar is float mode."""
        mode = FLOAT if isinstance(value, float) else self.mode
        return Jet.constant(self.dim, self.order, value, mode)

    def _promote(self, other: "Jet"):
        """Both operands in one mode: float if either is float."""
        if other.dim != self.dim:
            raise JetError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return self._to_float(), other._to_float()

    def _combine(self, other, sign: int) -> "Jet":
        """self + sign * other."""
        if not isinstance(other, Jet):
            other = self._lift(other)
        a, b = self, other
        if a.mode != b.mode or a.dim != b.dim:
            a, b = self._promote(other)
        # operands of two orders: work on the lower one's prefix of each
        t = a._t if a.order <= b.order else b._t
        if not b.nz:
            return a.truncate(t.order)
        if not a.nz:
            return (b if sign > 0 else -b).truncate(t.order)
        if a.mode == FLOAT:
            if sign > 0:
                return _float(t, [x + y for x, y in zip(a.c, b.c)])
            return _float(t, [x - y for x, y in zip(a.c, b.c)])
        # numerators over lcm(da, db)
        da, db = a.den, b.den
        g = math.gcd(da, db)
        s, u = da // g, db // g
        ms = s if sign > 0 else -s
        return _exact(t, [x * u + y * ms for x, y in zip(a.c, b.c)], s * db)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if not self.nz:
            return self
        return _raw(self._t, self.mode, [-x for x in self.c], self.den, True)

    def _scale(self, s) -> "Jet":
        """Product with a scalar (int, Fraction or float)."""
        t = self._t
        if isinstance(s, float) or self.mode == FLOAT:
            s = float(s)
            if not self.nz or not s:
                return t.zero[FLOAT]
            den = self.den
            if self.mode == FLOAT:
                return _float(t, [x * s for x in self.c])
            return _float(t, [x / den * s for x in self.c])
        if not self.nz or not s:
            return t.zero[EXACT]
        p, q = s.numerator, s.denominator
        return _exact(t, [x * p for x in self.c], self.den * q)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(other)
        a, b = self, other
        if a.mode != b.mode or a.dim != b.dim:
            a, b = self._promote(other)
        t = a._t if a.order <= b.order else b._t
        if not (a.nz and b.nz):
            return t.zero[a.mode]
        bc = b.c
        if t.size == 1:
            out = [a.c[0] * bc[0]]
        else:
            nzb = [j for j, y in enumerate(bc) if y]
            out = [0.0 if a.mode == FLOAT else 0] * t.size
            for x, row in zip(a.c, t.mul):
                if not x:
                    continue
                lim = len(row)
                for j in nzb:
                    if j >= lim:
                        break
                    out[row[j]] += x * bc[j]
        if a.mode == FLOAT:
            return _float(t, out)
        return _exact(t, out, a.den * b.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not (isinstance(other, Jet) and self.dim == other.dim
                and self.order == other.order):
            return False
        if self.mode == other.mode:
            return self.den == other.den and self.c == other.c
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.order, frozenset(self.coeffs.items())))

    def __repr__(self):
        return (f"Jet(dim={self.dim}, order={self.order}, mode={self.mode}, "
                f"{self.coeffs!r})")

    # -- structure -------------------------------------------------------------

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        t = _tables(self.dim, order)
        if not self.nz:
            return t.zero[self.mode]
        c = self.c[:t.size]
        if self.mode == FLOAT:
            return _float(t, c)
        return _exact(t, c, self.den)

    def derivative(self, i: int, context: str = "") -> "Jet":
        """Partial derivative along coordinate i; drops the order by one."""
        if self.order == 0:
            what = f" (requested by {context})" if context else ""
            raise OrderBudgetError(f"jet order exhausted taking a derivative{what}")
        t = _tables(self.dim, self.order - 1)
        if not self.nz:
            return t.zero[self.mode]
        src, factor = self._t.deriv[i]
        c = self.c
        out = [c[k] * f for k, f in zip(src, factor)]
        if self.mode == FLOAT:
            return _float(t, out)
        return _exact(t, out, self.den)


# -- module-level operations (the stable surface used by the pipeline) --------

def jet_recip(a: Jet, name: str = "field") -> Jet:
    """Multiplicative inverse through the truncated geometric series.

    Requires a nonzero constant term; r satisfies a*r = 1 + O(K+1).
    """
    a0 = a.value
    if not a0:
        raise SingularJetError(f"cannot invert {name}: constant term vanishes")
    inv0 = (1 / a0) if a.mode == FLOAT else Fraction(1) / a0
    # b = 1 - a/a0 has zero constant term, so powers terminate at the order
    b = Jet.constant(a.dim, a.order, 1, a.mode) - a * inv0
    total = Jet.constant(a.dim, a.order, 1, a.mode)
    power = Jet.constant(a.dim, a.order, 1, a.mode)
    for _ in range(a.order):
        power = power * b
        if power.is_zero():
            break
        total = total + power
    return total * inv0


def jet_exp(a: Jet) -> Jet:
    """exp of a jet, float mode only (constant term exponentiated numerically)."""
    if a.mode != FLOAT:
        raise JetError("jet_exp requires float-mode jets; exact mode has no exp")
    a0 = a.value
    b = a - Jet.constant(a.dim, a.order, a0, FLOAT)
    total = Jet.constant(a.dim, a.order, 1.0, FLOAT)
    power = Jet.constant(a.dim, a.order, 1.0, FLOAT)
    for k in range(1, a.order + 1):
        power = power * b
        if power.is_zero():
            break
        total = total + power * (1.0 / math.factorial(k))
    return total * math.exp(a0)


def jet_from_polynomial(p: Polynomial, point, order: int, mode: str = EXACT) -> Jet:
    """Exact Taylor shift of a polynomial to `point`, truncated at `order`.

    The result's coefficient at beta is the Taylor coefficient of p about the
    point, i.e. d^beta p(point) / beta!.
    """
    point = tuple(point)
    dim = len(p.variables)
    if len(point) != dim:
        raise JetError(f"point has {len(point)} coordinates, chart has {dim}")
    point = tuple(as_mode(x, mode) for x in point)
    zero_mi = (0,) * dim
    coeffs: dict = {}
    for mono, c in p.terms.items():
        c = as_mode(c, mode)
        # expand prod_i (p_i + delta_i)^e_i by binomials, truncating on degree
        partial = {zero_mi: c}
        for i, e in enumerate(mono):
            if e == 0:
                continue
            nxt: dict = {}
            for k in range(0, e + 1):
                factor = as_mode(math.comb(e, k), mode) * point[i] ** (e - k)
                for mi, v in partial.items():
                    if sum(mi) + k > order:
                        continue
                    new = list(mi)
                    new[i] += k
                    new = tuple(new)
                    nxt[new] = nxt.get(new, 0) + v * factor
            partial = nxt
        for mi, v in partial.items():
            coeffs[mi] = coeffs.get(mi, 0) + v
    return Jet(dim, order, coeffs, mode)
