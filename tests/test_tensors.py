"""Chart-component tensors: contraction, cyclic sums, index shuffling."""
import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import NC4, make_ctx, poly
from ppcheck import EXACT, FLOAT, Jet, build_ppwave
from ppcheck.tensors import (Tensor, _is_zero_entry, contract, cyclic_sum,
                             kronecker, raise_lower, sup_norm, zero_like)


class TestContraction:
    def test_trace_of_identity(self):
        delta = kronecker(4, F(1))
        assert contract(delta, 0, 1).entries[0] == 4

    def test_metric_times_inverse_is_identity(self, vacuum_ctx):
        m = vacuum_ctx.bundle.metric
        prod = contract(m.g.values().outer(m.g_inv.values()), 1, 2)
        assert prod == kronecker(4, F(1))

    def test_ppwave_scalar_curvature_vanishes(self, quartic_ctx):
        b = quartic_ctx.bundle
        ric = b.ricci.values()
        ginv = b.metric.g_inv.values()
        assert not sup_norm(contract(ric, 0, 1, ginv))

    def test_kronecker_of_zero_float_jet_is_float(self):
        delta = kronecker(4, Jet.zero(4, 2, FLOAT))
        assert delta[1, 1] == Jet.constant(4, 2, 1.0, FLOAT)
        assert all(e.mode == FLOAT and isinstance(e.value, float)
                   for e in delta.entries)

    def test_same_variance_needs_metric(self):
        t = Tensor.zeros(3, "ll", F(0))
        with pytest.raises(ValueError):
            contract(t, 0, 1)


class TestCyclicSum:
    def test_three_term_sum_on_unit_entry(self):
        t = Tensor.zeros(2, "lll", F(0))
        t[0, 0, 1] = F(1)
        s = cyclic_sum(t, (0, 1, 2))
        # entries at the three cyclic placements of the single unit
        assert s[0, 0, 1] == 1 and s[0, 1, 0] == 1 and s[1, 0, 0] == 1

    def test_zero_tensor(self):
        t = Tensor.zeros(3, "lll", F(0))
        assert not sup_norm(cyclic_sum(t, (0, 1, 2)))

    def test_olszak_cyclic_sum_on_wave(self, quartic_ctx):
        b = quartic_ctx.bundle
        x = Tensor(4, "l", [F(1), F(0), F(0), F(0)])
        s = cyclic_sum(x.outer(b.weyl.values()), (0, 1, 2))
        assert not sup_norm(s)


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(Tensor.zeros(2, "l", F(0))) == 0

    def test_single_negative_entry(self):
        t = Tensor.zeros(2, "l", F(0))
        t[1] = F(-3)
        assert sup_norm(t) == 3

    def test_galaev_weyl_nonzero(self, flagship_ctx):
        assert sup_norm(flagship_ctx.bundle.weyl.values()) > 0


class TestRaiseLower:
    def test_involution(self, quartic_ctx):
        b = quartic_ctx.bundle
        g = b.metric.g.values()
        ginv = b.metric.g_inv.values()
        ric = b.ricci.values()
        assert raise_lower(raise_lower(ric, 0, ginv), 0, g) == ric

    def test_lower_null_vector_on_wave(self, quartic_ctx):
        # X^k = g^{ku} lowers to delta_k^u in the null chart
        b = quartic_ctx.bundle
        ginv = b.metric.g_inv.values()
        xup = Tensor(4, "u", [ginv[k, 0] for k in range(4)])
        x = raise_lower(xup, 0, b.metric.g.values())
        assert list(x.entries) == [F(1), F(0), F(0), F(0)]

    def test_minkowski_flips_time_sign(self):
        eta = Tensor(4, "ll", [F(0)] * 16)
        eta[0, 0] = F(-1)
        for i in range(1, 4):
            eta[i, i] = F(1)
        v = Tensor(4, "u", [F(2), F(3), F(0), F(0)])
        low = raise_lower(v, 0, eta)
        assert list(low.entries) == [F(-2), F(3), F(0), F(0)]


def _naive_raise_lower(t, slot, metric):
    """out[J] = sum_p t[J with p in the slot] * metric[J[slot], p]."""
    n = t.dim
    flip = "u" if t.variance[slot] == "l" else "l"
    out = Tensor.zeros(n, t.variance[:slot] + flip + t.variance[slot + 1:],
                       t.entries[0])
    for idx in itertools.product(range(n), repeat=t.rank):
        acc = out[idx]
        for p in range(n):
            e = t[idx[:slot] + (p,) + idx[slot + 1:]]
            acc = acc + e * metric[idx[slot], p]
        out[idx] = acc
    return out


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
    return Jet(2, 2, coeffs, mode)


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
                    t = Tensor(n, variance, [_random_entry(rng, kind)
                                             for _ in range(n ** rank)])
                    # not symmetric, so a swapped metric index shows
                    metric = Tensor(n, "uu" if flip == "l" else "ll",
                                    [_random_entry(rng, kind)
                                     for _ in range(n * n)])
                    assert (raise_lower(t, slot, metric)
                            == _naive_raise_lower(t, slot, metric))


class TestPermute:
    def test_riemann_antisymmetry(self, quartic_ctx):
        r = quartic_ctx.bundle.riemann.values()
        swapped = r.permute((1, 0, 2, 3))
        assert not sup_norm(r + swapped)

    def test_slot_s_of_result_is_slot_perm_s(self):
        t = Tensor(3, "llu", [F(i) for i in range(27)])
        p = t.permute((1, 2, 0))
        assert p.variance == "lul"
        for a, b, c in itertools.product(range(3), repeat=3):
            assert p[a, b, c] == t[c, a, b]


ENTRY_KINDS = ["fraction", "int0", "float", "jet", "float_jet"]


def _assert_same_entries(got, want):
    """Equal entries of identical type (and jet mode), slot by slot."""
    assert (got.dim, got.variance) == (want.dim, want.variance)
    assert len(got.entries) == len(want.entries)
    for a, b in zip(got.entries, want.entries):
        assert type(a) is type(b) and a == b
        if isinstance(a, Jet):
            assert a.mode == b.mode


def _naive_permute(t, perm):
    """result[J] = t[I] with I[perm[s]] = J[s]: slot s reads slot perm[s]."""
    out = Tensor.zeros(t.dim, "".join(t.variance[p] for p in perm),
                       t.entries[0])
    for idx in itertools.product(range(t.dim), repeat=t.rank):
        src = [0] * t.rank
        for s, p in enumerate(perm):
            src[p] = idx[s]
        out[idx] = t[tuple(src)]
    return out


def _naive_contract(t, a, b, metric=None):
    """Tuple-indexed contraction: p-then-q sums that skip zero factors and
    start from the first nonzero term; an empty sum is zero_like(entry 0)."""
    n, r = t.dim, t.rank
    keep = [s for s in range(r) if s not in (a, b)]
    entries = []
    for out_idx in itertools.product(range(n), repeat=len(keep)):
        acc = None
        for p in range(n):
            for q in (range(n) if metric is not None else (p,)):
                m = metric[p, q] if metric is not None else None
                if m is not None and _is_zero_entry(m):
                    continue
                full = [0] * r
                for pos, s in enumerate(keep):
                    full[s] = out_idx[pos]
                full[a], full[b] = p, q
                term = t[tuple(full)]
                if _is_zero_entry(term):
                    continue
                if m is not None:
                    term = term * m
                acc = term if acc is None else acc + term
        entries.append(zero_like(t.entries[0]) if acc is None else acc)
    return Tensor(n, "".join(t.variance[s] for s in keep), entries)


def _naive_cyclic_sum(t, slots):
    """S[idx] = t[idx] + t[idx cycled once] + t[idx cycled twice]."""
    i, j, k = slots
    out = Tensor.zeros(t.dim, t.variance, t.entries[0])
    for idx in itertools.product(range(t.dim), repeat=t.rank):
        once, twice = list(idx), list(idx)
        once[i], once[j], once[k] = idx[k], idx[i], idx[j]
        twice[i], twice[j], twice[k] = idx[j], idx[k], idx[i]
        out[idx] = t[idx] + t[tuple(once)] + t[tuple(twice)]
    return out


def _random_tensor(rng, kind, n, variance):
    return Tensor(n, variance, [_random_entry(rng, kind)
                                for _ in range(n ** len(variance))])


class TestKernelReference:
    """Flat-offset kernels against tuple-indexed reference loops."""

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_permute_matches_naive_loop(self, kind):
        rng = random.Random(f"permute-{kind}")
        for rank in range(1, 6):
            variance = "".join(rng.choice("lu") for _ in range(rank))
            t = _random_tensor(rng, kind, 3, variance)
            for perm in itertools.permutations(range(rank)):
                _assert_same_entries(t.permute(perm), _naive_permute(t, perm))

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    @pytest.mark.parametrize("metric_kind", ["none", "g_inv", "g"])
    def test_contract_matches_naive_loop(self, kind, metric_kind, monkeypatch):
        products = []
        mul = Jet.__mul__

        def counting_mul(x, y):
            products.append(1)
            return mul(x, y)

        monkeypatch.setattr(Jet, "__mul__", counting_mul)
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
                del products[:]
                got = contract(t, a, b, metric)
                got_products = len(products)
                del products[:]
                want = _naive_contract(t, a, b, metric)
                _assert_same_entries(got, want)
                assert got_products == len(products)
                # the slot order of the call does not matter
                _assert_same_entries(contract(t, b, a, metric), want)

    def test_contract_to_rank_zero_of_int_zeros_is_fraction(self):
        t = Tensor(2, "lu", [0, F(3), 0, 0])
        tr = contract(t, 0, 1)
        assert tr.variance == "" and type(tr.entries[0]) is F

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_cyclic_sum_matches_naive_loop(self, kind):
        rng = random.Random(f"cyclic-{kind}")
        for rank in range(3, 6):
            t = _random_tensor(rng, kind, 3, "l" * rank)
            for slots in itertools.permutations(range(rank), 3):
                _assert_same_entries(cyclic_sum(t, slots),
                                     _naive_cyclic_sum(t, slots))
