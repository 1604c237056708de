"""Dense chart-component tensors over jets or plain scalars.

Entries live in a flat row-major list; variance is a per-slot string of
'l' (covariant) or 'u' (contravariant).  Entries only need ring operations,
so Jet, Fraction and float all work.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from .jets import FLOAT, Jet

COV = "l"
CON = "u"


class TensorError(ValueError):
    pass


def zero_like(sample):
    if isinstance(sample, Jet):
        return Jet.zero(sample.dim, sample.order, sample.mode)
    if isinstance(sample, float):
        return 0.0
    return Fraction(0)


def scalar_value(entry):
    """Constant (value-at-point) part of an entry."""
    return entry.value if isinstance(entry, Jet) else entry


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

    # -- construction / indexing ------------------------------------------

    @classmethod
    def zeros(cls, dim: int, variance: str, sample):
        z = zero_like(sample)
        return cls(dim, variance, [z] * (dim ** len(variance)))

    @property
    def rank(self) -> int:
        return len(self.variance)

    def _offset(self, idx) -> int:
        off = 0
        for i in idx:
            off = off * self.dim + i
        return off

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return self.entries[self._offset(idx)]

    def __setitem__(self, idx, value):
        if isinstance(idx, int):
            idx = (idx,)
        self.entries[self._offset(idx)] = value

    def indices(self):
        return itertools.product(range(self.dim), repeat=self.rank)

    # -- pointwise algebra ---------------------------------------------------

    def _check(self, other: "Tensor"):
        if self.dim != other.dim or self.variance != other.variance:
            raise TensorError(
                f"tensor mismatch: ({self.dim},{self.variance}) vs "
                f"({other.dim},{other.variance})")

    def __add__(self, other):
        self._check(other)
        return Tensor(self.dim, self.variance,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check(other)
        return Tensor(self.dim, self.variance,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Tensor(self.dim, self.variance, [-a for a in self.entries])

    def scale(self, c):
        return Tensor(self.dim, self.variance, [a * c for a in self.entries])

    def map(self, fn):
        return Tensor(self.dim, self.variance, [fn(a) for a in self.entries])

    def __eq__(self, other):
        return (isinstance(other, Tensor) and self.dim == other.dim
                and self.variance == other.variance
                and self.entries == other.entries)

    __hash__ = None

    def values(self) -> "Tensor":
        """Tensor of constant parts (drops the jet structure)."""
        return self.map(scalar_value)

    def truncate(self, order: int) -> "Tensor":
        return self.map(lambda e: e.truncate(order) if isinstance(e, Jet) else e)

    def outer(self, other: "Tensor") -> "Tensor":
        if self.dim != other.dim:
            raise TensorError("dimension mismatch in outer product")
        entries = []
        for a in self.entries:
            for b in other.entries:
                entries.append(a * b)
        return Tensor(self.dim, self.variance + other.variance, entries)

    def permute(self, perm) -> "Tensor":
        """Slot permutation: slot s of the result is slot perm[s] of self.

        Entry-wise, result[idx[perm[0]], idx[perm[1]], ...] = self[idx].  The
        result's entries are gathered from self's by flat offset, so each is
        the same object as in self.
        """
        perm = tuple(perm)
        if sorted(perm) != list(range(self.rank)):
            raise TensorError(f"bad permutation {perm}")
        n, r = self.dim, self.rank
        src = self.entries
        return Tensor(n, "".join(self.variance[p] for p in perm),
                      [src[o] for o in
                       _flat_offsets(n, [n ** (r - 1 - p) for p in perm])])

    def is_zero(self) -> bool:
        return all(
            (e.is_zero() if isinstance(e, Jet) else not e) for e in self.entries)


# -- operations -------------------------------------------------------------

def contract(t: Tensor, slot_a: int, slot_b: int, metric: Tensor | None = None) -> Tensor:
    """Einstein contraction of two slots.

    Opposite-variance slots are traced directly; same-variance slots require
    the matching metric (inverse metric for two covariant slots, metric for
    two contravariant slots).
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
    keep = [s for s in range(r) if s not in (a, b)]
    n = t.dim
    w = [n ** (r - 1 - s) for s in range(r)]     # weight of each slot in an offset
    # (offset step, metric factor) for each (p, q) term, p then q, zeros dropped
    if metric is None:
        steps = [(p * (w[a] + w[b]), None) for p in range(n)]
    else:
        steps = [(p * w[a] + q * w[b], m) for p in range(n) for q in range(n)
                 for m in (metric.entries[p * n + q],) if not _is_zero_entry(m)]
    src = t.entries
    zero = zero_like(src[0])
    out = []
    for base in _flat_offsets(n, [w[s] for s in keep]):
        acc = None
        for step, m in steps:
            term = src[base + step]
            if _is_zero_entry(term):
                continue
            if m is not None:
                term = term * m
            acc = term if acc is None else acc + term
        out.append(zero if acc is None else acc)
    return Tensor(n, "".join(t.variance[s] for s in keep), out)


def _flat_offsets(dim: int, weights) -> list:
    """Flat offsets sum_s idx[s] * weights[s] for idx in row-major order over
    range(dim) ** len(weights); [0] for no weights."""
    offsets = [0]
    for w in weights:
        steps = [i * w for i in range(dim)]
        offsets = [o + s for o in offsets for s in steps]
    return offsets


def _is_zero_entry(e):
    return e.is_zero() if isinstance(e, Jet) else not e


def cyclic_sum(t: Tensor, slots) -> Tensor:
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


def sup_norm(t: Tensor):
    """Max absolute value of the constant parts of all entries."""
    best = None
    for e in t.entries:
        v = e.value if isinstance(e, Jet) else e
        if best is None:
            best = abs(v)
        elif v:                         # a zero never exceeds best
            v = abs(v)
            if v > best:
                best = v
    return best if best is not None else Fraction(0)


def raise_lower(t: Tensor, slot: int, metric: Tensor) -> Tensor:
    """Flip the variance of one slot with the supplied metric or inverse."""
    if not (0 <= slot < t.rank):
        raise TensorError(f"slot {slot} out of range")
    want = CON * 2 if t.variance[slot] == COV else COV * 2
    if metric.variance != want:
        raise TensorError(
            f"raising/lowering a '{t.variance[slot]}' slot needs a '{want}' metric")
    n = t.dim
    new_var = (t.variance[:slot]
               + (CON if t.variance[slot] == COV else COV)
               + t.variance[slot + 1:])
    w = n ** (t.rank - 1 - slot)            # weight of the slot in an offset
    col = [[(m, metric.entries[m * n + p]) for m in range(n)
            if not _is_zero_entry(metric.entries[m * n + p])] for p in range(n)]
    out = Tensor.zeros(n, new_var, t.entries[0]).entries
    for off, e in enumerate(t.entries):
        if _is_zero_entry(e):
            continue
        p = off // w % n
        rest = off - p * w                  # offset with the slot cleared
        for m, g in col[p]:
            o = rest + m * w
            out[o] = out[o] + e * g
    return Tensor(n, new_var, out)


def kronecker(dim: int, sample) -> Tensor:
    """Mixed identity tensor delta_i^j with entries shaped like `sample`."""
    if isinstance(sample, Jet):
        one = Jet.constant(sample.dim, sample.order, _unit_for(sample),
                           sample.mode)
    else:
        one = _unit_for(sample)
    t = Tensor.zeros(dim, COV + CON, sample)
    for i in range(dim):
        t[i, i] = one
    return t


def _unit_for(sample):
    if isinstance(sample, Jet):
        return 1.0 if sample.mode == FLOAT else Fraction(1)
    return 1.0 if isinstance(sample, float) else Fraction(1)
