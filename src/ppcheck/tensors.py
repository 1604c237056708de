"""Sparse chart-component tensors over jets, and their sparse point values.

A Tensor holds jets as Values holds numbers, in one block: `num` maps the
row-major offset of each nonzero jet to its coefficient list (see jets)
over one denominator `den`, and every other entry is the zero jet of its
`order`; variance is a per-slot string of 'l' (covariant) or 'u'
(contravariant).  `[]` reads one entry as a Jet.  It is never written to,
and every jet stage leaves it in normal form (`Tensor.normal`).  Plain
numbers are Values (`Values.of`).

Values holds a tensor's point values sparsely: the dict `num` maps the
row-major offset of each entry a kernel wrote to its numerator over one
positive denominator `den`, or to its float in float mode.
`Tensor.values` and each stage of a curvature bundle (geometry.stage)
leave values in one normal form (`Values.normal`): no written zero, a
jet's zero elsewhere, and exact values in lowest terms; a kernel's own
result is not normalised, since a gcd on every transient costs more than
the smaller numbers save.  The kernels (all those below take Values)
iterate `num` and never visit an unwritten entry; a contraction costs its
products, as its sums go into a dict when they are few.  `tensordot` is
the one contraction of two tensors, a chart sum over a's last k slots and
b's first k, and `dot` the full one, returning a number; a vector contracted
with a tensor, a double trace and the inner products of a least-squares
fit are all one or the other.  `contract` and `raise_lower` are
`tensordot` too, after a `permute` that moves the summed slots to the
front, with the metric (or the identity, for a mixed trace); so one rule
orders every sum: each entry adds its nonzero terms in ascending order of
the summed index, from Fraction(0).  A number is made only for an entry that
leaves a kernel (via `entries`, `[]`, `sup_norm` or `dot`), of the type
the Fraction algebra on jet values gave it, so reports stay
byte-identical.  One rule gives that type:

- an entry missing from `num` leaves as the scalar `zero`: int 0 (a jet's
  exact zero, as Jet.value reads it), Fraction(0), or 0.0;
- an entry in `num` leaves as Fraction(numerator, den), so as Fraction(0)
  where the numerator is 0 (in float mode, as its float).

So a kernel whose Fraction form gives int 0 only where int zeros alone
met (a sum or product of such zeros) keeps each entry it touched, even
one that cancels to 0; one whose sums start from Fraction(0) has that
`zero` and may drop them.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import cache

from .jets import FLOAT, Jet, JetError, _tables, from_numerators

COV = "l"
CON = "u"
F0 = Fraction(0)


class TensorError(ValueError):
    pass


def _offset(dim, idx) -> int:
    if isinstance(idx, int):
        return idx
    off = 0
    for i in idx:
        off = off * dim + i
    return off


class Tensor:
    """Chart components of jets in one block (see module): integer
    numerators over one positive `den`, or floats over 1 in float mode.
    The entries of a symmetry orbit may share one list, or its negation."""

    __slots__ = ("dim", "variance", "num", "den", "order", "mode")

    def __init__(self, dim: int, variance: str, num: dict, den: int,
                 order: int, mode: str):
        self.dim, self.variance, self.num, self.den = dim, variance, num, den
        self.order, self.mode = order, mode

    @property
    def rank(self) -> int:
        return len(self.variance)

    def __getitem__(self, idx) -> Jet:
        t = _tables(self.dim, self.order)
        c = self.num.get(_offset(self.dim, idx))
        return t.zero[self.mode] if c is None else from_numerators(
            t, self.mode, c, self.den)

    def lists(self, order: int) -> dict:
        """`num`, for a kernel that reads it to `order`; JetError past the
        tensor's own order, where the coefficients are unknown, not 0."""
        if order > self.order:
            raise JetError(f"a jet of order {self.order} read to order {order}")
        return self.num

    def normal(self) -> "Tensor":
        """The same jets in normal form: no all-zero list, and exact ones
        in lowest terms, den and every coefficient divided by their gcd,
        taken once over each distinct list, so that lists shared by several
        offsets stay shared.  A tensor already in it is returned as it is."""
        lists = {id(c): c for c in self.num.values()}
        k = (math.gcd(self.den, *itertools.chain.from_iterable(
            lists.values())) if self.den != 1 else 1)
        if k == 1 and all(map(any, lists.values())):
            return self
        lists = {i: [x // k for x in c] if k != 1 else c
                 for i, c in lists.items() if any(c)}
        return Tensor(self.dim, self.variance,
                      {o: lists[id(c)] for o, c in self.num.items()
                       if id(c) in lists},
                      self.den // k, self.order, self.mode)

    def values(self) -> "Values":
        """Point values: the jets' constant terms, in normal form."""
        num = self.num
        return Values(self.dim, self.variance,
                      {o: num[o][0] for o in sorted(num) if num[o][0]},
                      self.den, 0.0 if self.mode == FLOAT else 0).normal()


class Values:
    """Point values of a tensor: numerators `num` over `den` (see module)."""

    __slots__ = ("dim", "variance", "num", "den", "zero")

    def __init__(self, dim: int, variance: str, num: dict, den: int = 1,
                 zero=0):
        self.dim = dim
        self.variance = variance
        self.num = num
        self.den = den
        self.zero = zero

    @classmethod
    def of(cls, dim: int, variance: str, numbers):
        """Values of plain numbers: Fractions and ints, or floats."""
        numbers = list(numbers)
        if len(numbers) != dim ** len(variance):
            raise TensorError(f"need {dim ** len(variance)} entries for "
                              f"rank {len(variance)}, got {len(numbers)}")
        if any(isinstance(x, float) for x in numbers):
            return cls(dim, variance,
                       {o: float(x) for o, x in enumerate(numbers) if x},
                       1, 0.0)
        # int zeros are left out; then a Fraction(0) must be written
        int0 = any(type(x) is int and not x for x in numbers)
        fr = {o: Fraction(x) for o, x in enumerate(numbers)
              if x or (int0 and type(x) is not int)}
        den = math.lcm(*(f.denominator for f in fr.values()))
        return cls(dim, variance,
                   {o: f.numerator * (den // f.denominator)
                    for o, f in fr.items()}, den, 0 if int0 else F0)

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def size(self) -> int:
        return self.dim ** len(self.variance)

    @property
    def exact(self) -> bool:
        return not isinstance(self.zero, float)

    def number(self, off: int):
        """Entry `off` as the number that leaves a kernel."""
        x = self.num.get(off)
        if x is None:
            return self.zero
        return Fraction(x, self.den) if self.exact else x

    @property
    def entries(self) -> list:
        out = [self.zero] * self.size
        for o, x in self.num.items():
            out[o] = Fraction(x, self.den) if self.exact else x
        return out

    def __getitem__(self, idx):
        return self.number(_offset(self.dim, idx))

    def __eq__(self, other):
        if not (isinstance(other, Values) and self.dim == other.dim
                and self.variance == other.variance):
            return False
        a, b = self.num, other.num
        return all(a.get(o, 0) * other.den == b.get(o, 0) * self.den
                   for o in a.keys() | b.keys())

    __hash__ = None

    def _combine(self, other: "Values", sign: int) -> "Values":
        if self.dim != other.dim or self.variance != other.variance:
            raise TensorError(
                f"tensor mismatch: ({self.dim},{self.variance}) vs "
                f"({other.dim},{other.variance})")
        a, b, den = _common(self, other)
        num = dict(a)                       # a cancelled sum stays written
        get = num.get
        if sign > 0:
            for o, y in b.items():
                num[o] = get(o, 0) + y
        else:
            for o, y in b.items():
                num[o] = get(o, 0) - y
        return Values(self.dim, self.variance, num, den, _meet(self, other))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c) -> "Values":
        """Every entry times the number c."""
        if not self.exact:
            return Values(self.dim, self.variance,
                          {o: x * c for o, x in self.num.items()}, 1, 0.0)
        c = Fraction(c)
        k = c.numerator
        return Values(self.dim, self.variance,
                      {o: x * k for o, x in self.num.items()} if k else {},
                      self.den * c.denominator, F0)

    def outer(self, other: "Values") -> "Values":
        """Outer product: the slots of self, then those of other."""
        a, b, size = self.num, other.num, other.size
        num = {oa * size + ob: x * y for oa, x in a.items()
               for ob, y in b.items()}
        zero = _meet(self, other)
        if type(zero) is int:       # a written factor makes a Fraction(0)
            for oa in a:
                for ob in range(size):
                    num.setdefault(oa * size + ob, 0)
            for ob in b:
                for oa in range(self.size):
                    num.setdefault(oa * size + ob, 0)
        return Values(self.dim, self.variance + other.variance, num,
                      self.den * other.den, zero)

    def normal(self) -> "Values":
        """The same values in normal form: no written zero, so every other
        entry reads as a jet's zero (int 0, or 0.0), and exact ones in
        lowest terms, den and every numerator divided by their gcd.  Values
        already in it are returned as they are."""
        zero = 0 if self.exact else 0.0
        k = math.gcd(self.den, *self.num.values()) if self.den != 1 else 1
        if k == 1 and type(self.zero) is type(zero) and all(self.num.values()):
            return self
        num = self.num.items()
        return Values(self.dim, self.variance,
                      {o: x // k for o, x in num if x} if k != 1 else
                      {o: x for o, x in num if x}, self.den // k, zero)

    def permute(self, perm) -> "Values":
        """Slot permutation: slot s of the result is slot perm[s] of self,
        that is, result[idx[perm[0]], idx[perm[1]], ...] = self[idx]."""
        perm = tuple(perm)
        n, r = self.dim, self.rank
        if perm == tuple(range(r)):
            return self                     # Values are never written to
        if sorted(perm) != list(range(r)):
            raise TensorError(f"bad permutation {perm}")
        w = [0] * r                         # weight of each slot of self
        for s, p in enumerate(perm):
            w[p] = n ** (r - 1 - s)
        m, hi, lo = _remap(n, tuple(w))
        return Values(n, "".join(self.variance[p] for p in perm),
                      {hi[o // m] + lo[o % m]: x for o, x in self.num.items()},
                      self.den, self.zero)


def _meet(a: Values, b: Values):
    """The zero of a kernel whose entries are sums or products of entries
    of a and b: int 0 where only int zeros met, so only if both have it."""
    if not a.exact:
        return 0.0
    return 0 if type(a.zero) is int and type(b.zero) is int else F0


def _common(a: Values, b: Values):
    """Numerators of a and b over one common denominator, and it."""
    if a.den == b.den:
        return a.num, b.num, a.den
    den = math.lcm(a.den, b.den)
    ka, kb = den // a.den, den // b.den
    return ({o: x * ka for o, x in a.num.items()} if ka != 1 else a.num,
            {o: x * kb for o, x in b.num.items()} if kb != 1 else b.num, den)


def _need_values(*ts):
    if not all(isinstance(t, Values) for t in ts if t is not None):
        raise TensorError("the kernel takes Values; use Tensor.values()")


def _flat_offsets(dim: int, weights) -> list:
    """Flat offsets sum_s idx[s] * weights[s] for idx in row-major order over
    range(dim) ** len(weights); [0] for no weights."""
    offsets = [0]
    for w in weights:
        steps = [i * w for i in range(dim)]
        offsets = [o + s for o in offsets for s in steps]
    return offsets


@cache
def _remap(dim: int, weights: tuple):
    """(m, hi, lo) with sum_s idx[s] * weights[s] = hi[off // m] +
    lo[off % m] for the row-major offset off of idx: two tables of about
    the square root of the tensor's size."""
    h = len(weights) // 2
    return (dim ** (len(weights) - h), _flat_offsets(dim, weights[:h]),
            _flat_offsets(dim, weights[h:]))


# -- kernels on Values ---------------------------------------------------------

def contract(t: Values, slot_a: int, slot_b: int, metric: Values | None = None):
    """Einstein contraction of two slots.

    Opposite-variance slots are traced directly; same-variance slots require
    the matching metric (inverse metric for two covariant slots, metric for
    two contravariant slots).  The two slots are moved to the front and
    contracted with the metric, or with the identity, by `tensordot`.
    """
    r = t.rank
    if not (0 <= slot_a < r and 0 <= slot_b < r) or slot_a == slot_b:
        raise TensorError(f"bad contraction slots ({slot_a},{slot_b}) for rank {r}")
    a, b = min(slot_a, slot_b), max(slot_a, slot_b)
    va, vb = t.variance[a], t.variance[b]
    if va == vb and metric is None:
        raise TensorError("same-variance contraction needs a metric")
    if va != vb and metric is not None:
        raise TensorError("mixed-variance contraction takes no metric")
    if metric is not None:
        want = CON * 2 if va == COV else COV * 2
        if metric.variance != want:
            raise TensorError(
                f"contraction of two '{va}' slots needs a '{want}' metric, "
                f"got '{metric.variance}'")
    _need_values(t, metric)
    n = t.dim
    if metric is None:
        metric = Values(n, va + vb, {p * (n + 1): 1 for p in range(n)}, 1,
                        t.zero)
    keep = [s for s in range(r) if s not in (a, b)]
    return tensordot(metric, t.permute([a, b] + keep), 2)


def raise_lower(t: Values, slot: int, metric: Values):
    """Flip the variance of one slot with the supplied metric or inverse:
    out[.. k ..] = sum_p metric[k, p] t[.. p ..], by `tensordot` with the
    slot moved to the front and back."""
    if not (0 <= slot < t.rank):
        raise TensorError(f"slot {slot} out of range")
    want = CON * 2 if t.variance[slot] == COV else COV * 2
    if metric.variance != want:
        raise TensorError(
            f"raising/lowering a '{t.variance[slot]}' slot needs a '{want}' metric")
    _need_values(t, metric)
    rest = [s for s in range(t.rank) if s != slot]
    out = tensordot(metric, t.permute([slot] + rest), 1)
    return out.permute([*range(1, slot + 1), 0, *range(slot + 1, t.rank)])


def cyclic_sum(t, slots):
    """t + its two cyclic rotations over three distinct equal-variance slots."""
    i, j, k = slots
    if len({i, j, k}) != 3:
        raise TensorError("cyclic_sum needs three distinct slots")
    if not (t.variance[i] == t.variance[j] == t.variance[k]):
        raise TensorError("cyclic_sum slots must share variance")
    perm1 = list(range(t.rank))
    # second term reads (i,j,k) from (j,k,i): out[idx] = t[idx with cycled slots]
    perm1[i], perm1[j], perm1[k] = j, k, i
    perm2 = list(range(t.rank))
    perm2[i], perm2[j], perm2[k] = k, i, j
    return t + t.permute(perm1) + t.permute(perm2)


def tensordot(a: Values, b: Values, k: int) -> Values:
    """out[I, J] = sum_P a[I, P] b[P, J], P over a's last k slots and b's
    first k: a chart sum, so the caller pairs the variances.  Each entry
    sums its nonzero terms in ascending P order, from Fraction(0), and is
    kept only if it is not zero.  The sums go into a list the size of the
    output, or into a dict when a quarter of the output outnumbers the
    products (at most a's entries times b's longest row), so that a
    contraction costs its products."""
    _need_values(a, b)
    if a.dim != b.dim or not 0 <= k <= min(a.rank, b.rank):
        raise TensorError(f"cannot contract {k} slots of ({a.dim},"
                          f"{a.variance}) with ({b.dim},{b.variance})")
    n, mp, mj = a.dim, a.dim ** k, b.dim ** (b.rank - k)
    rows = {}                               # P -> b's (J, entry)
    for o, y in b.num.items():
        if y:
            rows.setdefault(o // mj, []).append((o % mj, y))
    size = n ** (a.rank - k) * mj
    longest = max(map(len, rows.values()), default=0)
    out = (defaultdict(int) if 4 * len(a.num) * longest < size
           else [0] * size)
    for o, x in sorted(a.num.items()):
        if x:
            i, p = divmod(o, mp)
            base = i * mj
            for j, y in rows.get(p, ()):
                out[base + j] += x * y
    return Values(n, a.variance[:a.rank - k] + b.variance[k:],
                  {o: x for o, x in enumerate(out) if x}
                  if isinstance(out, list) else
                  {o: out[o] for o in sorted(out) if out[o]},
                  a.den * b.den, F0 if a.exact else 0.0)


def dot(a: Values, b: Values):
    """sum_O a[O] b[O] over two tensors of one shape, as a number (a
    Fraction, or a float), summed in ascending offset order."""
    an, bn = a.num, b.num
    acc = 0                 # not sum(), which compensates floats from 3.12
    for o in sorted(an.keys() & bn.keys()):
        acc += an[o] * bn[o]
    return Fraction(acc, a.den * b.den) if a.exact else float(acc)


def sup_norm(t: Values):
    """Max absolute value of t's entries; NaN if one is NaN, which `max`
    alone would skip unless it came first.

    All zero: entry 0's zero (int 0, Fraction(0) or 0.0), as the max over
    Fractions starting from entry 0 gave it.
    """
    best = max(map(abs, t.num.values()), default=0)
    if not t.exact and math.isnan(sum(map(abs, t.num.values()))):
        return math.nan
    if not best:
        return abs(t.number(0))
    return Fraction(best, t.den) if t.exact else best


def relative_residual(num_norm, *ref_norms):
    """sup-norm residual relative to the largest reference scale: NaN if
    a reference is NaN (nothing is known then), else zero for a zero
    numerator, and the absolute value for a zero reference."""
    if any(r != r for r in ref_norms):
        return math.nan
    ref = max(ref_norms, default=0)
    return num_norm / ref if num_norm and ref else num_norm


def _pow2(norm) -> float:
    """A power of two near 1/norm (1.0 for a zero or non-finite norm), at
    most 2^1023, so that it is finite for a subnormal norm too: scaling
    floats by it is exact, and keeps their products in range."""
    return math.ldexp(1.0, min(-math.frexp(norm)[1], 1023))


def extract_recurrence(t: Values, nabla_t: Values):
    """Least-squares recurrence covector for nabla T = alpha (x) T.

    alpha = N / D with the chart sums N_i = <nabla_i T, T> and D = <T, T>.
    Returns (alpha_components, residual); alpha is None when T vanishes
    (vacuous).  The residual is sup|D nabla T - N (x) T| / D, which is
    sup|nabla T - alpha (x) T|, relative to sup|nabla T| (0/0 -> 0).  Float
    mode first divides T and nabla T by a power of two near sup|T|, an
    exact scaling that alpha and the residual do not depend on, so that
    <T,T> cannot overflow.
    """
    if not t.exact and (top := sup_norm(t)):
        s = _pow2(top)
        t, nabla_t = t.scale(s), nabla_t.scale(s)
    d = dot(t, t)
    if not d:
        return None, None
    num = tensordot(nabla_t, t, t.rank)
    worst = sup_norm(nabla_t.scale(d) - num.outer(t)) / d
    return ([x / d for x in num.entries],
            relative_residual(worst, sup_norm(nabla_t)))
