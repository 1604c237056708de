"""Chart-component tensors: contraction, cyclic sums, index shuffling."""
from fractions import Fraction as F

import pytest

from conftest import NC4, make_ctx, poly
from ppcheck import EXACT, FLOAT, Jet, build_ppwave
from ppcheck.tensors import (Tensor, contract, cyclic_sum, kronecker,
                             raise_lower, sup_norm)


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


class TestPermute:
    def test_riemann_antisymmetry(self, quartic_ctx):
        r = quartic_ctx.bundle.riemann.values()
        swapped = r.permute((1, 0, 2, 3))
        assert not sup_norm(r + swapped)
