"""Chart-component tensors: contraction, cyclic sums, index shuffling."""
import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import (NC4, jet, jet_tensor, make_ctx, naive_contract,
                      naive_raise_lower, poly, zero_of)
from ppcheck import EXACT, FLOAT, Jet, build_ppwave
from ppcheck.tensors import (Tensor, Values, contract, cyclic_sum, dot,
                             raise_lower, sup_norm, tensordot)


def _identity(n):
    """The mixed identity delta_i^j with Fraction entries."""
    return Values.of(n, "lu",
                     [F(int(i == j)) for i in range(n) for j in range(n)])


class TestContraction:
    def test_trace_of_identity(self):
        assert contract(_identity(4), 0, 1).entries[0] == 4

    def test_metric_times_inverse_is_identity(self, vacuum_ctx):
        m = vacuum_ctx.bundle.metric
        prod = raise_lower(m.g.values(), 1, m.g_inv.values())
        assert prod == _identity(4)

    def test_ppwave_scalar_curvature_vanishes(self, quartic_ctx):
        b = quartic_ctx.bundle
        ginv = b.metric.g_inv.values()
        assert not sup_norm(contract(b.ricci, 0, 1, ginv))

    def test_same_variance_needs_metric(self):
        t = Values.of(3, "ll", [F(0)] * 9)
        with pytest.raises(ValueError):
            contract(t, 0, 1)


class TestLowestTerms:
    """`Values.normal` drops written zeros, so every other entry reads as a
    jet's zero, and divides out the content of the numerators and den;
    `Tensor.values` leaves its values in that form."""

    def test_divides_out_the_content(self):
        v = Values(3, "l", {2: 6, 0: -4, 1: 0}, 10, F(0))
        r = v.normal()
        assert (r.num, r.den, r.zero) == ({2: 3, 0: -2}, 5, 0)
        assert list(r.num) == [2, 0] and type(r.zero) is int
        assert r.entries == v.entries
        assert [type(x) for x in r.entries] == [F, int, F]

    def test_zero_numerators_leave_over_one(self):
        for v in (Values(2, "l", {1: 0}, 12, F(0)), Values(2, "l", {}, 12)):
            r = v.normal()
            assert (r.num, r.den, r.zero) == ({}, 1, 0)
            assert type(r.zero) is int

    def test_float_zeros_leave_as_float_zero(self):
        r = Values(2, "l", {0: 0.5, 1: -0.0}, 1, 0.0).normal()
        assert r.num == {0: 0.5} and r.den == 1
        assert [type(x) for x in r.entries] == [float, float]

    def test_lowest_terms_and_float_values_are_kept(self):
        v = Values(2, "l", {0: 3, 1: 4}, 10, 0)
        f = Values(2, "l", {0: 0.5}, 1, 0.0)
        assert v.normal() is v and f.normal() is f
        # a Fraction(0) zero is not a jet's
        w = Values(2, "l", {0: 3}, 10, F(0))
        assert w.normal() is not w and type(w.normal().zero) is int

    def test_tensor_values(self, perturbed_ctx):
        b = perturbed_ctx.bundle
        for t in (b.metric.g, b.metric.g_inv, b.christoffels[1],
                  b.riemann_jets, b.nabla_riemann_jets):
            v = t.values()
            assert math.gcd(v.den, *v.num.values()) == 1
            assert v.entries == [e.value for e in t.entries]


class TestCyclicSum:
    def test_three_term_sum_on_unit_entry(self):
        t = Values.of(2, "lll", [F(int(o == 1)) for o in range(8)])
        s = cyclic_sum(t, (0, 1, 2))
        # entries at the three cyclic placements of the single unit
        assert s[0, 0, 1] == 1 and s[0, 1, 0] == 1 and s[1, 0, 0] == 1

    def test_zero_tensor(self):
        t = Values.of(3, "lll", [F(0)] * 27)
        assert not sup_norm(cyclic_sum(t, (0, 1, 2)))

    def test_olszak_cyclic_sum_on_wave(self, quartic_ctx):
        b = quartic_ctx.bundle
        x = Values.of(4, "l", [F(1), F(0), F(0), F(0)])
        s = cyclic_sum(x.outer(b.weyl), (0, 1, 2))
        assert not sup_norm(s)


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(Values.of(2, "l", [F(0), F(0)])) == 0

    def test_single_negative_entry(self):
        assert sup_norm(Values.of(2, "l", [F(0), F(-3)])) == 3

    def test_galaev_weyl_nonzero(self, flagship_ctx):
        assert sup_norm(flagship_ctx.bundle.weyl) > 0

    @pytest.mark.parametrize("items", [
        [(0, 1.0), (1, float("nan"))], [(1, float("nan")), (0, 1.0)],
        [(0, 0.0), (1, float("nan"))], [(1, float("nan")), (0, -0.0)],
        [(0, float("inf")), (1, float("nan"))]])
    def test_nan_entry_at_either_key_order(self, items):
        # max never replaces a value by a NaN it is compared with
        norm = sup_norm(Values(2, "l", dict(items), 1, 0.0))
        assert norm != norm


class TestRaiseLower:
    def test_involution(self, quartic_ctx):
        b = quartic_ctx.bundle
        g = b.metric.g.values()
        ginv = b.metric.g_inv.values()
        ric = b.ricci
        assert raise_lower(raise_lower(ric, 0, ginv), 0, g) == ric

    def test_lower_null_vector_on_wave(self, quartic_ctx):
        # X^k = g^{ku} lowers to delta_k^u in the null chart
        b = quartic_ctx.bundle
        ginv = b.metric.g_inv.values()
        xup = Values.of(4, "u", [ginv[k, 0] for k in range(4)])
        x = raise_lower(xup, 0, b.metric.g.values())
        assert list(x.entries) == [F(1), F(0), F(0), F(0)]

    def test_minkowski_flips_time_sign(self):
        eta = Values.of(4, "ll", [F(-1) if i == j == 0 else F(int(i == j))
                                  for i in range(4) for j in range(4)])
        v = Values.of(4, "u", [F(2), F(3), F(0), F(0)])
        low = raise_lower(v, 0, eta)
        assert list(low.entries) == [F(-2), F(3), F(0), F(0)]


def _random_entry(rng, kind):
    """A Fraction, float or jet entry; about a third of them are zero.

    Kind "int0" mixes the int 0 that stands for an exact zero jet's value
    with nonzero Fractions, as exact value tensors do.
    """
    if rng.random() < 0.35:
        return {"fraction": F(0), "int0": 0, "float": 0.0,
                "jet": Jet.zero(2, 2, EXACT),
                "float_jet": Jet.zero(2, 2, FLOAT)}[kind]
    if kind in ("fraction", "int0"):
        return F(rng.randint(-9, 9), rng.randint(1, 7))
    if kind == "float":
        return rng.uniform(-2.0, 2.0)
    mode = EXACT if kind == "jet" else FLOAT
    coeffs = {mi: (F(rng.randint(-5, 5), rng.randint(1, 4)) if mode == EXACT
                   else rng.uniform(-1.0, 1.0))
              for mi in ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2))
              if rng.random() < 0.6}
    return jet(2, 2, coeffs, mode)


class TestRaiseLowerReference:
    @pytest.mark.parametrize("kind", ["fraction", "float", "jet", "float_jet"])
    def test_matches_naive_loop(self, kind):
        rng = random.Random(kind)
        n = 3
        for rank in range(1, 6):
            for slot in range(rank):
                for flip in ("l", "u"):
                    variance = "".join(rng.choice("lu") for _ in range(rank))
                    variance = variance[:slot] + flip + variance[slot + 1:]
                    t = _random_tensor(rng, kind, n, variance)
                    # not symmetric, so a swapped metric index shows
                    metric = _random_tensor(rng, kind, n,
                                            "uu" if flip == "l" else "ll")
                    assert (raise_lower(_point(t), slot, _point(metric))
                            == _point(naive_raise_lower(t, slot, metric)))


class TestPermute:
    def test_riemann_antisymmetry(self, quartic_ctx):
        r = quartic_ctx.bundle.riemann
        swapped = r.permute((1, 0, 2, 3))
        assert not sup_norm(r + swapped)

    def test_slot_s_of_result_is_slot_perm_s(self):
        t = Values.of(3, "llu", [F(i) for i in range(27)])
        p = t.permute((1, 2, 0))
        assert p.variance == "lul"
        for a, b, c in itertools.product(range(3), repeat=3):
            assert p[a, b, c] == t[c, a, b]


ENTRY_KINDS = ["fraction", "int0", "float", "jet", "float_jet"]


def _naive_permute(t, perm):
    """result[J] = t[I] with I[perm[s]] = J[s]: slot s reads slot perm[s]."""
    out = []
    for idx in itertools.product(range(t.dim), repeat=t.rank):
        src = [0] * t.rank
        for s, p in enumerate(perm):
            src[p] = idx[s]
        out.append(t[tuple(src)])
    return Values.of(t.dim, "".join(t.variance[p] for p in perm), out)


def _naive_cyclic_sum(t, slots):
    """S[idx] = t[idx] + t[idx cycled once] + t[idx cycled twice]."""
    i, j, k = slots
    out = []
    for idx in itertools.product(range(t.dim), repeat=t.rank):
        once, twice = list(idx), list(idx)
        once[i], once[j], once[k] = idx[k], idx[i], idx[j]
        twice[i], twice[j], twice[k] = idx[j], idx[k], idx[i]
        out.append(t[idx] + t[tuple(once)] + t[tuple(twice)])
    return Values.of(t.dim, t.variance, out)


def _point(t):
    """The point values of a Tensor of jets; Values as they are."""
    return t.values() if isinstance(t, Tensor) else t


def _numbers(t):
    """The Values of the point values of t's entries, one by one (t itself
    for Values)."""
    if isinstance(t, Values):
        return t
    return Values.of(t.dim, t.variance, [e.value for e in t.entries])


def _random_tensor(rng, kind, n, variance):
    """A Tensor of random jets (kind "jet" or "float_jet") or the Values of
    random numbers."""
    entries = [_random_entry(rng, kind) for _ in range(n ** len(variance))]
    if kind in ("jet", "float_jet"):
        return jet_tensor(n, variance, entries,
                          Jet.zero(2, 2, EXACT if kind == "jet" else FLOAT))
    return Values.of(n, variance, entries)


class TestKernelReference:
    """Flat-offset kernels against tuple-indexed reference loops."""

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_permute_matches_naive_loop(self, kind):
        """Permuting a tensor's point values (jets are read at the point)."""
        rng = random.Random(f"permute-{kind}")
        for rank in range(1, 6):
            variance = "".join(rng.choice("lu") for _ in range(rank))
            t = _random_tensor(rng, kind, 3, variance)
            for perm in itertools.permutations(range(rank)):
                _assert_same_numbers(_point(t).permute(perm),
                                     _naive_permute(_numbers(t), perm))

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    @pytest.mark.parametrize("metric_kind", ["none", "g_inv", "g"])
    def test_contract_matches_naive_loop(self, kind, metric_kind):
        """Contracting a tensor's point values (jets are read at the
        point) against the tuple-indexed loop on those numbers."""
        rng = random.Random(f"contract-{kind}-{metric_kind}")
        n = 3
        for rank in range(2, 6):
            for a, b in itertools.combinations(range(rank), 2):
                variance = [rng.choice("lu") for _ in range(rank)]
                variance[a], variance[b] = {"none": ("l", "u"),
                                            "g_inv": ("l", "l"),
                                            "g": ("u", "u")}[metric_kind]
                t = _random_tensor(rng, kind, n, "".join(variance))
                metric = None if metric_kind == "none" else \
                    _random_tensor(rng, kind, n,
                                   "uu" if metric_kind == "g_inv" else "ll")
                mv = None if metric is None else _point(metric)
                want = naive_contract(_numbers(t), a, b,
                                      None if metric is None
                                      else _numbers(metric))
                _assert_same_numbers(contract(_point(t), a, b, mv), want)
                # the slot order of the call does not matter
                _assert_same_numbers(contract(_point(t), b, a, mv), want)

    def test_contract_to_rank_zero_of_int_zeros_is_fraction(self):
        t = Values.of(2, "lu", [0, F(3), 0, 0])
        tr = contract(t, 0, 1)
        assert tr.variance == "" and type(tr.entries[0]) is F

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_cyclic_sum_matches_naive_loop(self, kind):
        """Cyclic sums of a tensor's point values (jets are read at the
        point)."""
        rng = random.Random(f"cyclic-{kind}")
        for rank in range(3, 6):
            t = _random_tensor(rng, kind, 3, "l" * rank)
            for slots in itertools.permutations(range(rank), 3):
                _assert_same_numbers(cyclic_sum(_point(t), slots),
                                     _naive_cyclic_sum(_numbers(t), slots))


# -- value kernels against the Fraction kernels they replaced -------------------
#
# The oracles below are the flat-offset kernels that ran on Tensors of
# Fractions (int 0 for a jet's zero value) or floats before point values
# became integer numerators over one denominator.  Each value kernel must
# give the same numbers, of the same type, entry by entry.


def _oracle_outer(a, b):
    return Values.of(a.dim, a.variance + b.variance,
                     [x * y for x in a.entries for y in b.entries])


def _oracle_sub(a, b):
    return Values.of(a.dim, a.variance,
                     [x - y for x, y in zip(a.entries, b.entries)])


def _oracle_scale(a, c):
    return Values.of(a.dim, a.variance, [x * c for x in a.entries])


def _oracle_sup_norm(numbers):
    best = None
    for v in numbers:
        if best is None:
            best = abs(v)
        elif v:
            v = abs(v)
            if v > best:
                best = v
    return best


def _oracle_raise_lower(t, slot, metric):
    n = t.dim
    flip = "u" if t.variance[slot] == "l" else "l"
    w = n ** (t.rank - 1 - slot)
    col = [[(m, metric.entries[m * n + p]) for m in range(n)
            if metric.entries[m * n + p]] for p in range(n)]
    out = [zero_of(t.entries[0])] * len(t.entries)
    for off, e in enumerate(t.entries):
        if not e:
            continue
        p = off // w % n
        rest = off - p * w
        for m, g in col[p]:
            o = rest + m * w
            out[o] = out[o] + e * g
    return Values.of(n, t.variance[:slot] + flip + t.variance[slot + 1:], out)


def _oracle_cyclic_sum(t, slots):
    i, j, k = slots
    perm1 = list(range(t.rank))
    perm1[i], perm1[j], perm1[k] = j, k, i
    perm2 = list(range(t.rank))
    perm2[i], perm2[j], perm2[k] = k, i, j
    a = t.entries
    b, c = _naive_permute(t, perm1).entries, _naive_permute(t, perm2).entries
    return Values.of(t.dim, t.variance, [x + y + z for x, y, z in zip(a, b, c)])


VALUE_KINDS = ["fraction", "int0", "mixed", "float", "jet"]


def _number_tensor(rng, kind, n, variance):
    """(numbers, the oracle's Values of them, the kernels' Values): the
    two Values are made apart, the kernels' from jets for kind "jet".

    "int0" zeros are int 0 (a jet's zero value), "fraction" zeros are
    Fraction(0), "mixed" has both; "jet" reads exact jets' values.
    """
    size = n ** len(variance)
    if kind == "jet":
        jets = _random_tensor(rng, "jet", n, variance)
        numbers = [e.value for e in jets.entries]
        return numbers, Values.of(n, variance, numbers), jets.values()
    if kind == "mixed":
        numbers = [_random_entry(rng, rng.choice(["fraction", "int0"]))
                   for _ in range(size)]
    else:
        numbers = [_random_entry(rng, kind) for _ in range(size)]
    return (numbers, Values.of(n, variance, numbers),
            Values.of(n, variance, numbers))


def _assert_same_numbers(got, want):
    """A Values tensor against the oracle's: equal numbers of identical
    type, entry by entry."""
    assert isinstance(got, Values)
    assert (got.dim, got.variance) == (want.dim, want.variance)
    got_entries = got.entries
    assert len(got_entries) == len(want.entries)
    for a, b in zip(got_entries, want.entries):
        assert type(a) is type(b) and a == b, (a, b)


def _dims(rank):
    return 2 if rank >= 6 else 3


class TestValueKernels:
    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_values_read_back_the_numbers(self, kind):
        rng = random.Random(f"read-{kind}")
        for rank in range(0, 7):
            numbers, _, v = _number_tensor(rng, kind, _dims(rank), "l" * rank)
            assert [(type(x), x) for x in v.entries] == \
                [(type(x), x) for x in numbers]
            got, want = sup_norm(v), _oracle_sup_norm(numbers)
            assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_permute(self, kind):
        rng = random.Random(f"vpermute-{kind}")
        for rank in range(1, 7):
            variance = "".join(rng.choice("lu") for _ in range(rank))
            _, t, v = _number_tensor(rng, kind, _dims(rank), variance)
            perms = list(itertools.permutations(range(rank)))
            for perm in rng.sample(perms, min(len(perms), 12)):
                _assert_same_numbers(v.permute(perm), _naive_permute(t, perm))

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_raise_lower(self, kind):
        rng = random.Random(f"vraise-{kind}")
        for rank in range(1, 7):
            n = _dims(rank)
            for slot in range(rank):
                variance = "".join(rng.choice("lu") for _ in range(rank))
                _, t, v = _number_tensor(rng, kind, n, variance)
                _, mt, mv = _number_tensor(
                    rng, kind, n, "uu" if variance[slot] == "l" else "ll")
                _assert_same_numbers(raise_lower(v, slot, mv),
                                     _oracle_raise_lower(t, slot, mt))

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    @pytest.mark.parametrize("metric_kind", ["none", "g_inv", "g"])
    def test_contract(self, kind, metric_kind):
        rng = random.Random(f"vcontract-{kind}-{metric_kind}")
        for rank in range(2, 7):
            n = _dims(rank)
            for a, b in itertools.combinations(range(rank), 2):
                variance = [rng.choice("lu") for _ in range(rank)]
                variance[a], variance[b] = {"none": ("l", "u"),
                                            "g_inv": ("l", "l"),
                                            "g": ("u", "u")}[metric_kind]
                _, t, v = _number_tensor(rng, kind, n, "".join(variance))
                mt = mv = None
                if metric_kind != "none":
                    _, mt, mv = _number_tensor(
                        rng, kind, n, "uu" if metric_kind == "g_inv" else "ll")
                _assert_same_numbers(contract(v, a, b, mv),
                                     naive_contract(t, a, b, mt))

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_cyclic_sum(self, kind):
        rng = random.Random(f"vcyclic-{kind}")
        for rank in range(3, 7):
            _, t, v = _number_tensor(rng, kind, _dims(rank), "l" * rank)
            for slots in rng.sample(
                    list(itertools.permutations(range(rank), 3)), 6):
                _assert_same_numbers(cyclic_sum(v, slots),
                                     _oracle_cyclic_sum(t, slots))

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_sub_scale_outer(self, kind):
        rng = random.Random(f"vsub-{kind}")
        for rank in range(1, 4):
            n = _dims(rank)
            _, t, v = _number_tensor(rng, kind, n, "l" * rank)
            _, u, w = _number_tensor(rng, kind, n, "l" * rank)
            _assert_same_numbers(v - w, _oracle_sub(t, u))
            _assert_same_numbers(v - v, _oracle_sub(t, t))
            c = 0.75 if kind == "float" else F(-3, 4)
            _assert_same_numbers(v.scale(c), _oracle_scale(t, c))
            _assert_same_numbers(v.outer(w), _oracle_outer(t, u))

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_cyclic_sum_outer(self, kind):
        """cyclic_sum(x (x) t, (0, 1, 2)): the outer product holds only
        the written pairs."""
        rng = random.Random(f"vcyclic-outer-{kind}")
        for rank in range(2, 6):
            n = _dims(rank + 1)
            for _ in range(3):
                _, xt, xv = _number_tensor(rng, kind, n, "l")
                _, t, v = _number_tensor(rng, kind, n, "l" * rank)
                _assert_same_numbers(
                    cyclic_sum(xv.outer(v), (0, 1, 2)),
                    _oracle_cyclic_sum(_oracle_outer(xt, t), (0, 1, 2)))

    @pytest.mark.parametrize("kind", VALUE_KINDS)
    def test_contract_outer(self, kind):
        """A vector contracted with t's first or last slot, without forming
        the outer product: tensordot(x, t, 1) is contract(x (x) t, 0, 1),
        tensordot(t, x, 1) is contract(t (x) x, rank - 1, rank)."""
        rng = random.Random(f"vcontract-outer-{kind}")
        for rank in range(1, 6):
            n = _dims(rank + 1)
            variance = "".join(rng.choice("lu") for _ in range(rank))
            _, xt, xv = _number_tensor(rng, kind, n, "u")
            _, t, v = _number_tensor(rng, kind, n, variance)
            _assert_same_numbers(
                tensordot(xv, v, 1),
                naive_contract(_oracle_outer(xt, t), 0, 1))
            _assert_same_numbers(
                tensordot(v, xv, 1),
                naive_contract(_oracle_outer(t, xt), rank - 1, rank))

    def test_mixed_kinds_refused(self):
        """The kernels take Values: a Tensor of jets is refused, as tensor
        or as metric."""
        zero = Jet.zero(2, 0)
        one = Jet.constant(2, 0, 1)
        t = jet_tensor(2, "l", [one, one * 2], zero)
        g = jet_tensor(2, "uu", [one, zero, zero, one], zero)
        with pytest.raises(ValueError):
            raise_lower(t.values(), 0, g)
        with pytest.raises(ValueError):
            raise_lower(t, 0, g.values())


# -- zero kinds: every Values kernel against plain number lists -----------------
#
# An exact zero leaves a kernel as int 0 (a jet's exact zero, reported as 0)
# or Fraction(0) (reported as "0/1").  The references below run Python's own
# arithmetic on lists of Fractions, ints and floats, as the Fraction kernels
# did: a sum, difference or product is int 0 only where every number that
# met was int 0; scale multiplies by a Fraction, and contractions and
# raised slots are sums that start from Fraction(0).  Each kernel must give
# the reference's numbers and the type of every zero.


def _zk_numbers(rng, exact, size, density, style):
    """`size` numbers, about `density` of them nonzero; exact zeros are int
    0, Fraction(0) or either ("mixed")."""
    out = []
    for _ in range(size):
        if rng.random() < density:
            out.append(F(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 7)) if exact
                       else rng.uniform(-2.0, 2.0))
        elif not exact:
            out.append(0.0)
        else:
            out.append(rng.choice((0, F(0))) if style == "mixed"
                       else 0 if style == "int0" else F(0))
    return out


def _zk_canceller(rng, a, exact, style):
    """A list that is -a at about half of a's nonzero entries, random
    elsewhere, so that a + it cancels there."""
    fresh = _zk_numbers(rng, exact, len(a), 0.5, style)
    return [-x if x and rng.random() < 0.5 else y for x, y in zip(a, fresh)]


def _zk_offset(n, idx):
    off = 0
    for i in idx:
        off = off * n + i
    return off


def _zk_permute(n, r, a, perm):
    out = []
    for idx in itertools.product(range(n), repeat=r):
        src = [0] * r
        for s, p in enumerate(perm):
            src[p] = idx[s]
        out.append(a[_zk_offset(n, src)])
    return out


def _zk_contract(n, r, a, sa, sb, metric, zero):
    """Sum over p (and q, with a metric) of the nonzero terms, from zero."""
    keep = [s for s in range(r) if s not in (sa, sb)]
    out = []
    for kept in itertools.product(range(n), repeat=len(keep)):
        acc = zero
        for p in range(n):
            for q in (range(n) if metric is not None else (p,)):
                full = [0] * r
                for pos, s in enumerate(keep):
                    full[s] = kept[pos]
                full[sa], full[sb] = p, q
                term = a[_zk_offset(n, full)]
                if metric is not None:
                    term = term * metric[p * n + q]
                if term:
                    acc = acc + term
        out.append(acc)
    return out


def _zk_tensordot(n, ra, a, rb, b, k, zero):
    """out[I, J] = the nonzero a[I, P] b[P, J] summed over P in ascending
    order, from zero."""
    mp, mj = n ** k, n ** (rb - k)
    out = []
    for i in range(n ** (ra - k)):
        for j in range(mj):
            acc = zero
            for p in range(mp):
                term = a[i * mp + p] * b[p * mj + j]
                if term:
                    acc = acc + term
            out.append(acc)
    return out


def _zk_raise_lower(n, r, a, slot, metric, zero):
    out = []
    for idx in itertools.product(range(n), repeat=r):
        acc = zero
        for p in range(n):
            term = (a[_zk_offset(n, idx[:slot] + (p,) + idx[slot + 1:])]
                    * metric[idx[slot] * n + p])
            if term:
                acc = acc + term
        out.append(acc)
    return out


def _zk_cyclic_sum(n, r, a, slots):
    i, j, k = slots
    out = []
    for idx in itertools.product(range(n), repeat=r):
        once, twice = list(idx), list(idx)
        once[i], once[j], once[k] = idx[k], idx[i], idx[j]
        twice[i], twice[j], twice[k] = idx[j], idx[k], idx[i]
        out.append(a[_zk_offset(n, idx)] + a[_zk_offset(n, once)]
                   + a[_zk_offset(n, twice)])
    return out


def _zk_sup_norm(a):
    best = abs(a[0])
    for x in a:
        if x and abs(x) > best:
            best = abs(x)
    return best


def _relabel(v, slot, var):
    """v with the variance of one slot set to var, entries as they are."""
    return Values(v.dim, v.variance[:slot] + var + v.variance[slot + 1:],
                  v.num, v.den, v.zero)


def _zk_same(got, want):
    """got, a number or a Values tensor's entries, against the reference:
    equal, and of the same type, entry by entry."""
    if isinstance(got, Values):
        got = got.entries
    if not isinstance(want, list):
        got, want = [got], [want]
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y) and x == y, (x, y)


class TestZeroKindOracle:
    """Seeded random Values at n = 2..5 and ranks 1..4, sparse and dense,
    with int 0 and Fraction(0) zeros, in exact and float mode."""

    STYLES = ("int0", "fraction", "mixed")

    def _inputs(self, rng, exact, n, variance, density, style):
        """(Values, reference list) pairs: numbers read in with Values.of,
        and, in exact mode, a kernel sum of them that cancels in places.
        Float sums are left out: the references add in offset order, and a
        kernel's output need not hold its entries in that order."""
        size = n ** len(variance)
        a = _zk_numbers(rng, exact, size, density, style)
        v = Values.of(n, variance, a)
        pairs = [(v, a)]
        if exact:
            b = _zk_canceller(rng, a, exact, style)
            pairs.append((v + Values.of(n, variance, b),
                          [x + y for x, y in zip(a, b)]))
        return pairs

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_kernel(self, exact, n):
        rng = random.Random(f"zero-kinds-{n}-{exact}")
        zero = F(0) if exact else 0.0
        c = F(-3, 4) if exact else -0.75
        for rank in range(1, 5):
            for density in (0.15, 0.8):
                style = rng.choice(self.STYLES)
                variance = "".join(rng.choice("lu") for _ in range(rank))
                for v, a in self._inputs(rng, exact, n, variance, density,
                                         style):
                    _zk_same(v, a)
                    _zk_same(sup_norm(v), _zk_sup_norm(a))
                    for off in (0, len(a) - 1):
                        _zk_same(v.number(off), a[off])
                    _zk_same(v.normal(),
                             [x if x or not exact else 0 for x in a])
                    # + and -, with one another and with a second tensor
                    for w, b in self._inputs(rng, exact, n, variance,
                                             1 - density, style):
                        _zk_same(v + w, [x + y for x, y in zip(a, b)])
                        _zk_same(v - w, [x - y for x, y in zip(a, b)])
                        _zk_same(w - v, [y - x for x, y in zip(a, b)])
                    _zk_same(v - v, [x - x for x in a])
                    _zk_same(v.scale(c), [x * c for x in a])
                    _zk_same(v.scale(zero), [x * zero for x in a])
                    perm = list(range(rank))
                    rng.shuffle(perm)
                    _zk_same(v.permute(perm), _zk_permute(n, rank, a, perm))
                    # outer products with a vector, on either side
                    for xv, x in self._inputs(rng, exact, n, "l", density,
                                              rng.choice(self.STYLES)):
                        _zk_same(v.outer(xv), [p * q for p in a for q in x])
                        _zk_same(xv.outer(v), [p * q for p in x for q in a])
                    # raising a slot, with a metric of either density
                    slot = rng.randrange(rank)
                    mvar = "uu" if variance[slot] == "l" else "ll"
                    for mv, m in self._inputs(rng, exact, n, mvar,
                                              rng.choice((0.3, 0.9)), style):
                        _zk_same(raise_lower(v, slot, mv),
                                 _zk_raise_lower(n, rank, a, slot, m, zero))
                    if rank >= 2:
                        sa, sb = sorted(rng.sample(range(rank), 2))
                        flip = "u" if variance[sa] == "l" else "l"
                        _zk_same(contract(_relabel(v, sb, flip), sa, sb),
                                 _zk_contract(n, rank, a, sa, sb, None, zero))
                        same = _relabel(v, sb, variance[sa])
                        mvar = "uu" if variance[sa] == "l" else "ll"
                        for mv, m in self._inputs(rng, exact, n, mvar, 0.5,
                                                  style):
                            _zk_same(contract(same, sa, sb, mv),
                                     _zk_contract(n, rank, a, sa, sb, m,
                                                  zero))
                    # a vector contracted with the first or the last slot
                    for xv, x in self._inputs(rng, exact, n, "u", density,
                                              style):
                        _zk_same(tensordot(xv, v, 1),
                                 _zk_contract(n, rank + 1,
                                              [p * q for p in x for q in a],
                                              0, 1, None, zero))
                        _zk_same(tensordot(v, xv, 1),
                                 _zk_contract(n, rank + 1,
                                              [p * q for p in a for q in x],
                                              rank - 1, rank, None, zero))
                    low = Values(n, "l" * rank, v.num, v.den, v.zero)
                    if rank >= 3:
                        slots = tuple(rng.sample(range(rank), 3))
                        _zk_same(cyclic_sum(low, slots),
                                 _zk_cyclic_sum(n, rank, a, slots))
                    if rank >= 2:
                        for xv, x in self._inputs(rng, exact, n, "l",
                                                  rng.choice((0.2, 0.9)),
                                                  rng.choice(self.STYLES)):
                            _zk_same(cyclic_sum(xv.outer(low), (0, 1, 2)),
                                     _zk_cyclic_sum(
                                         n, rank + 1,
                                         [p * q for p in x for q in a],
                                         (0, 1, 2)))

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("fill", [1, 3, 0.05, 0.3, 1.0])
    def test_tensordot_holds_ascending_sums(self, exact, fill):
        """Whether the sums go into a list or, for few products, a dict,
        tensordot's numerators are each entry's nonzero terms added in
        ascending P order from 0, held in ascending offset order: the same
        numbers, bit for bit in float mode, and the same dict order."""
        rng = random.Random(f"tensordot-order-{exact}-{fill}")
        n = 4
        for ra, rb, k in ((2, 4, 1), (4, 2, 1), (3, 3, 1), (4, 4, 2),
                          (2, 5, 2), (1, 5, 1)):
            nums = []
            for rank in (ra, rb):
                size = n ** rank
                keys = (rng.sample(range(size), fill) if type(fill) is int else
                        [o for o in range(size) if rng.random() < fill])
                rng.shuffle(keys)           # held out of offset order
                nums.append({o: rng.randint(-9, 9) if exact
                             else rng.uniform(-1, 1) for o in keys})
            a, b = (Values(n, "l" * r, num, 3, 0 if exact else 0.0)
                    for r, num in zip((ra, rb), nums))
            got = tensordot(a, b, k)
            mp, mj = n ** k, n ** (rb - k)
            want = {}
            for i in range(n ** (ra - k)):
                for j in range(mj):
                    acc = 0
                    for p in range(mp):
                        x, y = a.num.get(i * mp + p), b.num.get(p * mj + j)
                        if x and y:
                            acc += x * y
                    if acc:
                        want[i * mj + j] = acc
            assert repr(list(got.num.items())) == repr(list(want.items()))
            assert got.den == 9

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_tensordot_and_dot(self, exact, n):
        """tensordot at every k, and dot, for ranks 0..4.  Each operand is
        also taken permuted, so its entries are held out of offset order,
        and float sums show whether they were added in offset order."""
        rng = random.Random(f"tensordot-{n}-{exact}")
        zero = F(0) if exact else 0.0
        for ra, rb in itertools.product(range(5), repeat=2):
            for k in range(min(ra, rb) + 1):
                if n ** (ra + rb - k) > 4096:   # the reference's loop count
                    continue
                va = "".join(rng.choice("lu") for _ in range(ra))
                vb = "".join(rng.choice("lu") for _ in range(rb))
                style = rng.choice(self.STYLES)
                perm_a, perm_b = list(range(ra)), list(range(rb))
                rng.shuffle(perm_a)
                rng.shuffle(perm_b)
                for v, a in self._inputs(rng, exact, n, va,
                                         rng.choice((0.15, 0.8)), style):
                    for w, b in self._inputs(rng, exact, n, vb,
                                             rng.choice((0.15, 0.8)), style):
                        for (v, a), (w, b) in (
                                ((v, a), (w, b)),
                                ((v.permute(perm_a),
                                  _zk_permute(n, ra, a, perm_a)),
                                 (w.permute(perm_b),
                                  _zk_permute(n, rb, b, perm_b)))):
                            got = tensordot(v, w, k)
                            assert got.variance == (v.variance[:ra - k]
                                                    + w.variance[k:])
                            _zk_same(got, _zk_tensordot(n, ra, a, rb, b, k,
                                                        zero))
                            if k == ra == rb:
                                _zk_same(dot(v, w),
                                         _zk_tensordot(n, ra, a, rb, b, k,
                                                       zero)[0])
