"""Dense chart-component tensors over jets, and their point values.

A Tensor keeps its entries (jets, or plain numbers) in a flat row-major
list; variance is a per-slot string of 'l' (covariant) or 'u'
(contravariant).

Values holds a tensor's point values: in exact mode integer numerators
over one positive common denominator `den`, read straight from each jet's
c[0]/den, in float mode floats over 1.  The kernels run on those integers
or floats; a number is made only for an entry that leaves a kernel (via
`entries`, `[]` or `sup_norm`) as a witness or a reported residual, and
it has the type the Fraction algebra on jet values gave it, so reports
stay byte-identical: a Fraction, or for a zero entry `zero` -- int 0 for a
jet's exact zero (Jet.value reads those as int 0) and for a sum,
difference or product of such zeros only, Fraction(0) where a Fraction
took part or a contraction made the entry, 0.0 in float mode.  `zero` is
one number, or one per entry where a kernel mixes the two.

`raise_lower` and `contract` take either kind of tensor; `cyclic_sum`,
`sup_norm` and the fused `contract_outer` and `cyclic_sum_outer`, which
never form the outer product they stand for, take Values.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .jets import FLOAT, Jet

COV = "l"
CON = "u"
F0 = Fraction(0)


class TensorError(ValueError):
    pass


def zero_like(sample):
    if isinstance(sample, Jet):
        return Jet.zero(sample.dim, sample.order, sample.mode)
    if isinstance(sample, float):
        return 0.0
    return Fraction(0)


def _offset(dim, idx) -> int:
    if isinstance(idx, int):
        return idx
    off = 0
    for i in idx:
        off = off * dim + i
    return off


class Tensor:
    __slots__ = ("dim", "variance", "entries")

    def __init__(self, dim: int, variance: str, entries):
        self.dim = dim
        self.variance = str(variance)
        entries = list(entries)
        if len(entries) != dim ** len(self.variance):
            raise TensorError(
                f"need {dim ** len(self.variance)} entries for rank {len(self.variance)}, "
                f"got {len(entries)}")
        self.entries = entries

    @classmethod
    def zeros(cls, dim: int, variance: str, sample):
        z = zero_like(sample)
        return cls(dim, variance, [z] * (dim ** len(variance)))

    @property
    def rank(self) -> int:
        return len(self.variance)

    def __getitem__(self, idx):
        return self.entries[_offset(self.dim, idx)]

    def __setitem__(self, idx, value):
        self.entries[_offset(self.dim, idx)] = value

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.dim == other.dim
                and self.variance == other.variance
                and self.entries == other.entries)

    __hash__ = None

    def values(self) -> "Values":
        """Point values: the jets' constant terms, or the numbers held."""
        src = self.entries
        if not isinstance(src[0], Jet):
            return Values.of(self.dim, self.variance, src)
        if src[0].mode == FLOAT:
            return Values(self.dim, self.variance, [e.c[0] for e in src], 1,
                          0.0)
        den = math.lcm(*(e.den for e in src if e.c[0]))
        return Values(self.dim, self.variance,
                      [e.c[0] * (den // e.den) if e.c[0] else 0 for e in src],
                      den, 0)

    def truncate(self, order: int) -> "Tensor":
        return Tensor(self.dim, self.variance,
                      [e.truncate(order) if isinstance(e, Jet) else e
                       for e in self.entries])


class Values:
    """Point values of a tensor: numerators `num` over `den` (see module)."""

    __slots__ = ("dim", "variance", "num", "den", "zero")

    def __init__(self, dim: int, variance: str, num, den: int = 1, zero=0):
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
            return cls(dim, variance, [float(x) for x in numbers], 1, 0.0)
        fr = [Fraction(x) for x in numbers]
        den = math.lcm(*(f.denominator for f in fr))
        ints = {type(x) is int for x in numbers if not x}
        zero = (0 if ints == {True} else F0) if len(ints) < 2 else \
            [0 if type(x) is int else F0 for x in numbers]
        return cls(dim, variance,
                   [f.numerator * (den // f.denominator) for f in fr], den,
                   zero)

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def exact(self) -> bool:
        return not isinstance(self.zero, float)

    def number(self, off: int):
        """Entry `off` as the number that leaves a kernel."""
        x = self.num[off]
        if not self.exact:
            return x
        if x:
            return Fraction(x, self.den)
        return self.zero[off] if type(self.zero) is list else self.zero

    @property
    def entries(self) -> list:
        return [self.number(o) for o in range(len(self.num))]

    def __getitem__(self, idx):
        return self.number(_offset(self.dim, idx))

    def __eq__(self, other):
        return (isinstance(other, Values) and self.dim == other.dim
                and self.variance == other.variance
                and all(a * other.den == b * self.den
                        for a, b in zip(self.num, other.num)))

    __hash__ = None

    def _int_zeros(self):
        """Which entries leave as int 0; None when none do."""
        z = self.zero
        if type(z) is list:
            return [not x and type(y) is int for x, y in zip(self.num, z)]
        if type(z) is int:
            return [not x for x in self.num]
        return None

    def _combine(self, other: "Values", sign: int) -> "Values":
        if self.dim != other.dim or self.variance != other.variance:
            raise TensorError(
                f"tensor mismatch: ({self.dim},{self.variance}) vs "
                f"({other.dim},{other.variance})")
        a, b, den = _common(self, other)
        num = ([x + y for x, y in zip(a, b)] if sign > 0
               else [x - y for x, y in zip(a, b)])
        zero = 0.0
        if self.exact:
            fa, fb = self._int_zeros(), other._int_zeros()
            zero = F0 if fa is None or fb is None else \
                _zeros([x and y for x, y in zip(fa, fb)])
        return Values(self.dim, self.variance, num, den, zero)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c) -> "Values":
        """Every entry times the number c."""
        if not self.exact:
            return Values(self.dim, self.variance,
                          [x * c for x in self.num], 1, 0.0)
        c = Fraction(c)
        return Values(self.dim, self.variance,
                      [x * c.numerator for x in self.num],
                      self.den * c.denominator, F0)

    def outer(self, other: "Values") -> "Values":
        """Outer product: the slots of self, then those of other."""
        a, b = self.num, other.num
        zero = 0.0
        if self.exact:
            fa, fb = self._int_zeros(), other._int_zeros()
            zero = F0 if fa is None or fb is None else \
                _zeros([x and y for x in fa for y in fb])
        return Values(self.dim, self.variance + other.variance,
                      [x * y for x in a for y in b], self.den * other.den,
                      zero)

    def permute(self, perm) -> "Values":
        """Slot permutation: slot s of the result is slot perm[s] of self,
        that is, result[idx[perm[0]], idx[perm[1]], ...] = self[idx]."""
        offs = _permuted_offsets(self, perm)
        src, z = self.num, self.zero
        return Values(self.dim, "".join(self.variance[p] for p in perm),
                      [src[o] for o in offs], self.den,
                      [z[o] for o in offs] if type(z) is list else z)


def _zeros(int_zero):
    """The `zero` of Values whose entries flagged in int_zero leave as int 0
    and the rest as Fraction(0): one number when they agree."""
    if all(int_zero):
        return 0
    if not any(int_zero):
        return F0
    return [0 if f else F0 for f in int_zero]


def _common(a: Values, b: Values):
    """Numerators of a and b over one common denominator, and it."""
    if a.den == b.den:
        return a.num, b.num, a.den
    den = math.lcm(a.den, b.den)
    ka, kb = den // a.den, den // b.den
    return ([x * ka for x in a.num] if ka != 1 else a.num,
            [x * kb for x in b.num] if kb != 1 else b.num, den)


def _entries(t):
    """(entries, their zero) of a Tensor or the numerators of a Values
    tensor, for the kernels shared by both."""
    if isinstance(t, Values):
        return t.num, (0 if t.exact else 0.0)
    return t.entries, zero_like(t.entries[0])


def _same_kind(t, metric):
    if metric is not None and isinstance(t, Values) != isinstance(metric, Values):
        raise TensorError("a Values tensor needs a Values metric, a Tensor "
                          "a Tensor metric")


def _result(t, variance: str, entries, metric=None):
    """A kernel's output in the kind of t: a Values result is Fraction
    arithmetic in the old kernels, so its zeros leave as Fraction(0)."""
    if isinstance(t, Values):
        den = t.den * (metric.den if metric is not None else 1)
        return Values(t.dim, variance, entries, den, F0 if t.exact else 0.0)
    return Tensor(t.dim, variance, entries)


def _permuted_offsets(t, perm) -> list:
    perm = tuple(perm)
    if sorted(perm) != list(range(t.rank)):
        raise TensorError(f"bad permutation {perm}")
    n, r = t.dim, t.rank
    return _flat_offsets(n, [n ** (r - 1 - p) for p in perm])


def _flat_offsets(dim: int, weights) -> list:
    """Flat offsets sum_s idx[s] * weights[s] for idx in row-major order over
    range(dim) ** len(weights); [0] for no weights."""
    offsets = [0]
    for w in weights:
        steps = [i * w for i in range(dim)]
        offsets = [o + s for o in offsets for s in steps]
    return offsets


# -- kernels on Tensors and Values ---------------------------------------------

def contract(t, slot_a: int, slot_b: int, metric=None):
    """Einstein contraction of two slots.

    Opposite-variance slots are traced directly; same-variance slots require
    the matching metric (inverse metric for two covariant slots, metric for
    two contravariant slots).  Each output entry sums its nonzero terms in
    (p, q) order.
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
    _same_kind(t, metric)
    keep = [s for s in range(r) if s not in (a, b)]
    n = t.dim
    w = [n ** (r - 1 - s) for s in range(r)]     # weight of each slot in an offset
    src, zero = _entries(t)
    # (offset step, metric factor) for each (p, q) term, p then q, zeros dropped
    if metric is None:
        steps = [(p * (w[a] + w[b]), None) for p in range(n)]
    else:
        m = _entries(metric)[0]
        steps = [(p * w[a] + q * w[b], m[p * n + q]) for p in range(n)
                 for q in range(n) if m[p * n + q]]
    out = []
    for base in _flat_offsets(n, [w[s] for s in keep]):
        acc = None
        for step, g in steps:
            term = src[base + step]
            if not term:
                continue
            if g is not None:
                term = term * g
            acc = term if acc is None else acc + term
        out.append(zero if acc is None else acc)
    return _result(t, "".join(t.variance[s] for s in keep), out, metric)


def raise_lower(t, slot: int, metric):
    """Flip the variance of one slot with the supplied metric or inverse."""
    if not (0 <= slot < t.rank):
        raise TensorError(f"slot {slot} out of range")
    want = CON * 2 if t.variance[slot] == COV else COV * 2
    if metric.variance != want:
        raise TensorError(
            f"raising/lowering a '{t.variance[slot]}' slot needs a '{want}' metric")
    _same_kind(t, metric)
    n = t.dim
    new_var = (t.variance[:slot]
               + (CON if t.variance[slot] == COV else COV)
               + t.variance[slot + 1:])
    w = n ** (t.rank - 1 - slot)            # weight of the slot in an offset
    src, zero = _entries(t)
    m = _entries(metric)[0]
    col = [[(k, m[k * n + p]) for k in range(n) if m[k * n + p]]
           for p in range(n)]
    out = [zero] * len(src)
    for off, e in enumerate(src):
        if not e:
            continue
        p = off // w % n
        rest = off - p * w                  # offset with the slot cleared
        for k, g in col[p]:
            o = rest + k * w
            out[o] = out[o] + e * g
    return _result(t, new_var, out, metric)


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


def sup_norm(t: Values):
    """Max absolute value of t's entries.

    All zero: entry 0's zero (int 0, Fraction(0) or 0.0), as the max over
    Fractions starting from entry 0 gave it.
    """
    best = max(map(abs, t.num))
    if not best:
        return abs(t.number(0))
    return Fraction(best, t.den) if t.exact else best


# -- fused kernels on Values ---------------------------------------------------

def contract_outer(x: Values, t: Values, slot: int) -> Values:
    """contract(x (x) t, 0, slot + 1) for a vector x, without forming x (x) t:
    out[..] = sum_p x[p] t[.. p ..], over the nonzero x[p] in p order."""
    if x.rank != 1 or x.variance == t.variance[slot]:
        raise TensorError("contract_outer needs a vector of the opposite "
                          "variance to the slot")
    n, r = t.dim, t.rank
    w = n ** (r - 1 - slot)
    src = t.num
    bases = _flat_offsets(n, [n ** (r - 1 - s) for s in range(r) if s != slot])
    out = [0 if t.exact else 0.0] * len(bases)
    for p, xp in enumerate(x.num):
        if not xp:
            continue
        step = p * w
        for o, base in enumerate(bases):
            e = src[base + step]
            if e:
                out[o] = out[o] + xp * e
    return Values(n, t.variance[:slot] + t.variance[slot + 1:], out,
                  x.den * t.den, F0 if t.exact else 0.0)


def cyclic_sum_outer(x: Values, t: Values) -> Values:
    """cyclic_sum(x (x) t, (0, 1, 2)) for a covector x, without forming x (x) t.

    Entry (i, j, k, ...) is x_i t[j, k, ...] + x_k t[i, j, ...] +
    x_j t[k, i, ...], added in that order; only nonzero x entries and
    nonzero t entries meet.
    """
    if x.rank != 1 or t.rank < 2 or x.variance != t.variance[0] \
            or t.variance[0] != t.variance[1]:
        raise TensorError("cyclic_sum_outer needs a covector and a tensor "
                          "whose first two slots share its variance")
    n, r = t.dim, t.rank
    w0, w1, w2 = n ** r, n ** (r - 1), n ** (r - 2)
    src = t.num
    out = [0 if t.exact else 0.0] * (n * len(src))
    xs = [(a, xa) for a, xa in enumerate(x.num) if xa]
    ts = [(off // w1, off // w2 % n, off % w2, e)
          for off, e in enumerate(src) if e]
    for place in ((w0, w1, w2), (w2, w0, w1), (w1, w2, w0)):
        # (weight of the x index, of t's first, of t's second index)
        wx, wp, wq = place
        for a, xa in xs:
            for p, q, rest, e in ts:
                o = a * wx + p * wp + q * wq + rest
                out[o] = out[o] + xa * e
    zero = 0.0
    if t.exact:
        fx, ft = x._int_zeros(), t._int_zeros()
        zero = F0
        if fx is not None and ft is not None:
            zero = _zeros([fx[i] and fx[j] and fx[k]
                           and ft[(j * n + k) * w2 + rest]
                           and ft[(i * n + j) * w2 + rest]
                           and ft[(k * n + i) * w2 + rest]
                           for i in range(n) for j in range(n)
                           for k in range(n) for rest in range(w2)])
    return Values(n, x.variance + t.variance, out, x.den * t.den, zero)
