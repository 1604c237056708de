"""Truncated multivariate Taylor jets in a dense graded layout.

A jet of order K at a point stores the Taylor coefficients c[beta] =
d^beta f / beta! for |beta| <= K.  With that normalization products are
plain Cauchy products and no factorial bookkeeping is needed in hot loops.

Coefficients sit in one flat list indexed by a graded monomial index: the
monomial of degree 0, then those of degree 1, and so on up to K (the
homogeneous-degree storage of TaylorSeries.jl), so truncating to a lower
order is a prefix slice.  For each (dim, order) the index, a product table
(i, j) -> k holding only the pairs within the order, and a derivative table
per variable are built on first use and cached, the product table on the
first product at that order.

Every jet carries its arithmetic mode.  An exact jet holds integer
numerators over one positive common denominator in lowest terms
(gcd(den, *numerators) == 1), so an operation reduces its result with a
single `math.gcd` call instead of normalising a `Fraction` per coefficient.
A jet tensor (tensors.Tensor) holds such lists over one denominator for
all its entries, so a sum of products, such as the contraction g^{il}
Gamma_{l,jk}, is added up on its factors' lists as they are (`mac`, the
one product loop, which Jet.__mul__ shares), and the tensor of such sums
is reduced once.  A float jet holds 64-bit floats.  Jets combine only
with jets of the same dimension and mode, and a bare number only scales a
jet; anything else raises JetError.  A jet is made by `Jet.zero`,
`Jet.constant`, `jet_from_polynomial` (a jet of given coefficients is that
of their polynomial at the origin) or an operation on jets, never from a
coefficient dict.
"""
from __future__ import annotations

import math
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
    """Graded monomial index and operation tables for one (dim, order); the
    product table `mul` is built on its first read, as a run multiplies at
    fewer orders than it indexes."""

    __slots__ = ("dim", "order", "size", "monos", "index", "ends", "mul",
                 "deriv", "zero")

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
        self.ends = ends
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

    def __getattr__(self, name):        # only an unset slot reads here
        if name != "mul":
            raise AttributeError(name)
        # mul[i][j] is the index of monos[i] * monos[j]; row i stops at the
        # last j that keeps the product within the order
        monos, index, ends = self.monos, self.index, self.ends
        self.mul = [[index[tuple(a + b for a, b in zip(mi, mj))]
                     for mj in monos[:ends[self.order - sum(mi)]]]
                    for mi in monos]
        return self.mul


@cache
def _tables(dim: int, order: int) -> _Tables:
    return _Tables(dim, order)


def _checked_tables(dim: int, order: int, mode: str) -> _Tables:
    if order < 0:
        raise JetError(f"negative jet order {order}")
    if mode not in (EXACT, FLOAT):
        raise JetError(f"unknown arithmetic mode {mode!r}")
    return _tables(dim, order)


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


def from_numerators(t: _Tables, mode: str, c: list, den: int = 1) -> "Jet":
    """The jet of coefficients `c` at t's order: floats (over 1) or integer
    numerators over `den` > 0, reduced once; the zero jet if all vanish."""
    if not any(c):
        return t.zero[mode]
    if den != 1:
        g = math.gcd(den, *c)
        if g != 1:
            c = [x // g for x in c]
            den //= g
    return _raw(t, mode, c, den, True)


def mac(acc: list, t: _Tables, pairs) -> list:
    """acc += sum of a * b over the coefficient lists (a, b) in `pairs`,
    through t's product table, so to t's order (a and b may run past it);
    a None factor adds nothing.  Returns acc.

    Orders 0 and 1 need no table: at order 1, for a and b of t's length,
    acc[j] = acc[j] + a0*b[j] + a[j]*b0, summed left to right as the table
    adds the two products."""
    if t.size == 1:                 # order 0: a plain dot product
        s = acc[0]
        for a, b in pairs:
            if a and b:
                s += a[0] * b[0]
        acc[0] = s
        return acc
    size = t.size if t.order == 1 else None
    for a, b in pairs:
        if not (a and b):
            continue
        if size and len(a) >= size and len(b) >= size:
            a0, b0 = a[0], b[0]
            acc[0] += a0 * b0
            for j in range(1, size):
                acc[j] = acc[j] + a0 * b[j] + a[j] * b0
            continue
        nzb = [j for j, y in enumerate(b) if y]
        for x, row in zip(a, t.mul):
            if x:
                lim = len(row)
                for j in nzb:
                    if j >= lim:
                        break
                    acc[row[j]] += x * b[j]
    return acc


def derivative_numerators(c: list, dim: int, order: int, i: int,
                          scale=1) -> list:
    """The coefficients to `order` of d/dx_i of the coefficient list `c`
    (of a higher order), times `scale`."""
    src, factor = _tables(dim, order + 1).deriv[i]
    return [c[k] * (f * scale) for k, f in zip(src, factor)]


class Jet:
    """Truncated Taylor expansion in `dim` variables, never written to.

    `c` lists the coefficients in graded monomial order.  In exact mode they
    are integer numerators over the positive denominator `den`, in lowest
    terms; in float mode they are floats and `den` is 1.  `nz` is false
    only for a jet whose coefficients all vanish.
    """

    __slots__ = ("dim", "order", "mode", "c", "den", "nz", "_t")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim, order, value, mode=EXACT):
        t = _tables(dim, order)
        value, c = as_mode(value, mode), t.zero[mode].c.copy()
        c[0], den = ((value, 1) if mode == FLOAT else
                     (value.numerator, value.denominator))
        return from_numerators(t, mode, c, den)

    @classmethod
    def zero(cls, dim, order, mode=EXACT):
        return _checked_tables(dim, order, mode).zero[mode]

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
    def coeffs(self) -> dict:
        """A new dict of the nonzero coefficients keyed by exponent tuple."""
        monos = self._t.monos
        return {monos[k]: self._scalar(x) for k, x in enumerate(self.c) if x}

    def __bool__(self) -> bool:
        return self.nz

    # -- arithmetic ----------------------------------------------------------

    def _mismatch(self, other) -> JetError:
        """The error for an operand that is not a jet of this dimension and
        mode."""
        if not isinstance(other, Jet):
            return JetError(f"cannot combine a jet with {type(other).__name__}")
        return JetError(f"cannot combine a {self.mode} jet in {self.dim} "
                        f"variables with a {other.mode} jet in {other.dim}")

    def _combine(self, other, sign: int) -> "Jet":
        """self + sign * other."""
        if (not isinstance(other, Jet) or other.mode != self.mode
                or other.dim != self.dim):
            raise self._mismatch(other)
        a, b = self, other
        # operands of two orders: work on the lower one's prefix of each
        t = a._t if a.order <= b.order else b._t
        if not b.nz:
            return a.truncate(t.order)
        if not a.nz:
            return (b if sign > 0 else -b).truncate(t.order)
        if a.mode == FLOAT:
            return from_numerators(t, FLOAT, [x + y if sign > 0 else x - y
                                              for x, y in zip(a.c, b.c)])
        # numerators over lcm(da, db)
        da, db = a.den, b.den
        g = math.gcd(da, db)
        s, u = da // g, db // g
        ms = s if sign > 0 else -s
        return from_numerators(
            t, EXACT, [x * u + y * ms for x, y in zip(a.c, b.c)], s * db)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        if not self.nz:
            return self
        return _raw(self._t, self.mode, [-x for x in self.c], self.den, True)

    def _scale(self, s) -> "Jet":
        """Product with a scalar: int or Fraction for an exact jet, any of
        those or a float for a float jet."""
        t = self._t
        if self.mode == FLOAT:
            s = float(s)
            if not self.nz or not s:
                return t.zero[FLOAT]
            return from_numerators(t, FLOAT, [x * s for x in self.c])
        if isinstance(s, float):
            raise JetError("a float cannot scale an exact jet")
        if not self.nz or not s:
            return t.zero[EXACT]
        p, q = s.numerator, s.denominator
        return from_numerators(t, EXACT, [x * p for x in self.c],
                               self.den * q)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._scale(other)
        if other.mode != self.mode or other.dim != self.dim:
            raise self._mismatch(other)
        a, b = self, other
        t = a._t if a.order <= b.order else b._t
        if not (a.nz and b.nz):
            return t.zero[a.mode]
        return from_numerators(t, a.mode, mac(t.zero[a.mode].c.copy(), t,
                                              ((a.c, b.c),)), a.den * b.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.dim == other.dim
                and self.order == other.order and self.mode == other.mode
                and self.den == other.den and self.c == other.c)

    def __repr__(self):
        return (f"<Jet dim={self.dim} order={self.order} {self.mode} "
                f"{self.coeffs!r}>")

    # -- structure -------------------------------------------------------------

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        t = _tables(self.dim, order)
        if not self.nz:
            return t.zero[self.mode]
        return from_numerators(t, self.mode, self.c[:t.size], self.den)

    def derivative(self, i: int, context: str = "") -> "Jet":
        """Partial derivative along coordinate i; drops the order by one."""
        if self.order == 0:
            what = f" (requested by {context})" if context else ""
            raise OrderBudgetError(f"jet order exhausted taking a derivative{what}")
        t = _tables(self.dim, self.order - 1)
        if not self.nz:
            return t.zero[self.mode]
        return from_numerators(t, self.mode, derivative_numerators(
            self.c, self.dim, t.order, i), self.den)


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
        if not power:
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
        if not power:
            break
        total = total + power * (1.0 / math.factorial(k))
    return total * math.exp(a0)


def jet_from_polynomial(p: Polynomial, point, order: int, mode: str = EXACT) -> Jet:
    """Exact Taylor shift of a polynomial to `point`, truncated at `order`.

    The result's coefficient at beta is the Taylor coefficient of p about the
    point, i.e. d^beta p(point) / beta!: each term's binomial expansion of
    prod_i (p_i + delta_i)^e_i, truncated on degree.  In exact mode it is
    summed on integer numerators over one common denominator and reduced
    once; a polynomial with no terms gives the shared zero jet.
    """
    point = tuple(point)
    dim = len(p.variables)
    if len(point) != dim:
        raise JetError(f"point has {len(point)} coordinates, chart has {dim}")
    t = _checked_tables(dim, order, mode)
    if not p.terms:
        return t.zero[mode]
    point = tuple(as_mode(x, mode) for x in point)
    # with p_i = a_i / b_i (b_i = 1 for a float), a term c x^e is over
    # lc prod_i b_i^top_i (top_i: the highest power of x_i in p); its
    # numerator at delta^k is c lc prod_i b_i^(top_i - e_i) times
    # prod_i comb(e_i, k_i) a_i^(e_i - k_i) b_i^k_i
    exact = mode == EXACT
    ab = [(x.numerator, x.denominator) if exact else (x, 1) for x in point]
    top = [max(mono[i] for mono in p.terms) for i in range(dim)]
    lc = math.lcm(*(v.denominator for v in p.terms.values())) if exact else 1
    c = t.zero[mode].c.copy()
    factors = {}
    for mono, v in p.terms.items():
        num = v.numerator * (lc // v.denominator) if exact else float(v)
        # the terms of the expansion have distinct multi-indices
        partial = [((0,) * dim, 0, num * math.prod(
            b ** (m - e) for (_, b), e, m in zip(ab, mono, top)))]
        for i, e in enumerate(mono):
            if not e:
                continue
            fs = factors.get((i, e))
            if fs is None:
                a, b = ab[i]
                fs = factors[i, e] = [math.comb(e, k) * a ** (e - k) * b ** k
                                      for k in range(min(e, order) + 1)]
            partial = [(mi[:i] + (k,) + mi[i + 1:], d + k, x * f)
                       for mi, d, x in partial
                       for k, f in enumerate(fs) if d + k <= order]
        for mi, _, x in partial:
            c[t.index[mi]] += x
    return from_numerators(t, mode, c, lc * math.prod(
        b ** m for (_, b), m in zip(ab, top)))
