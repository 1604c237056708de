"""Truncated Taylor jets: arithmetic, reciprocals, polynomial seeding."""
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jet as J
from ppcheck.geometry import OrderBudgetError
from ppcheck.jets import (EXACT, FLOAT, Jet, JetError, SingularJetError,
                          _tables, from_numerators, jet_from_polynomial,
                          jet_recip, mac, numerators)
from ppcheck.polynomials import Polynomial, parse_polynomial
from ppcheck.tensors import Tensor


class TestArithmetic:
    def test_square_of_one_plus_u(self):
        a = J(1, 2, {(0,): 1, (1,): 1})
        assert a * a == J(1, 2, {(0,): 1, (1,): 2, (2,): 1})

    def test_zero_annihilates(self):
        a = J(2, 3, {(1, 2): F(5, 7), (0, 0): 3})
        assert not a * Jet.zero(2, 3)

    def test_two_variable_product_truncates(self):
        a = J(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})   # 1 + x + y
        b = J(2, 2, {(0, 0): 1, (1, 0): -1})             # 1 - x
        expect = J(2, 2, {(0, 0): 1, (0, 1): 1, (2, 0): -1, (1, 1): -1})
        assert a * b == expect

    def test_mixed_order_product_takes_min(self):
        a = J(1, 3, {(0,): 1})
        b = J(1, 1, {(1,): 1})
        assert (a * b).order == 1

    def test_scalar_broadcast(self):
        a = J(1, 2, {(1,): 1})
        assert a * F(1, 2) == J(1, 2, {(1,): F(1, 2)})

    def test_results_in_lowest_terms(self):
        # denominators 6 and 2 share the factor 2, which the sums cancel
        a = J(1, 1, {(0,): F(1, 6), (1,): F(1, 6)})
        b = J(1, 1, {(0,): F(1, 2), (1,): F(-1, 2)})
        assert (a + b).den == 3 and (a - b).den == 3
        for r in (a + b, a - b, a * b, b * 4, a.derivative(0), a.truncate(0)):
            assert r.den > 0 and math.gcd(r.den, *r.c) == 1

    def test_derivative_drops_order(self):
        a = J(1, 2, {(2,): 1})
        d = a.derivative(0)
        assert d == J(1, 1, {(1,): 2}) and d.order == 1

    def test_derivative_budget_exhaustion(self):
        a = J(1, 0, {(0,): 1})
        with pytest.raises(OrderBudgetError):
            a.derivative(0, "test")


class TestReciprocal:
    def test_constant(self):
        assert jet_recip(J(1, 2, {(0,): 2})) == J(1, 2, {(0,): F(1, 2)})

    def test_geometric_series(self):
        a = J(1, 2, {(0,): 1, (1,): 1})
        assert jet_recip(a) == J(1, 2, {(0,): 1, (1,): -1, (2,): 1})

    def test_shifted_series(self):
        a = J(1, 1, {(0,): 2, (1,): 1})
        assert jet_recip(a) == J(1, 1, {(0,): F(1, 2), (1,): F(-1, 4)})

    def test_recip_is_inverse(self):
        a = J(2, 3, {(0, 0): 3, (1, 0): 1, (0, 2): F(-1, 2)})
        one = Jet.constant(2, 3, F(1))
        assert a * jet_recip(a) == one

    def test_zero_constant_term_rejected(self):
        with pytest.raises(SingularJetError):
            jet_recip(J(1, 2, {(1,): 1}))


class TestPolynomialSeeding:
    def test_monomial_at_origin(self):
        p = parse_polynomial("x^2", ("x",))
        assert jet_from_polynomial(p, (F(0),), 2, EXACT) == J(1, 2, {(2,): 1})

    def test_binomial_shift(self):
        p = parse_polynomial("x^2", ("x",))
        assert jet_from_polynomial(p, (F(3),), 2, EXACT) == \
            J(1, 2, {(0,): 9, (1,): 6, (2,): 1})

    def test_two_variable_shift(self):
        # u*x1^2 around (1, 2): (1+du)(2+dx)^2
        p = parse_polynomial("u*x1^2", ("u", "x1"))
        got = jet_from_polynomial(p, (F(1), F(2)), 3, EXACT)
        expect = J(2, 3, {(0, 0): 4, (1, 0): 4, (0, 1): 4,
                          (1, 1): 4, (0, 2): 1, (1, 2): 1})
        assert got == expect

    def test_truncation_drops_high_degree(self):
        p = parse_polynomial("x^3", ("x",))
        got = jet_from_polynomial(p, (F(1),), 2, EXACT)
        assert got == J(1, 2, {(0,): 1, (1,): 3, (2,): 3})

    def test_float_mode_produces_floats(self):
        p = parse_polynomial("x^2", ("x",))
        got = jet_from_polynomial(p, (F(1, 2),), 2, FLOAT)
        assert all(isinstance(c, float) for c in got.coeffs.values())


def jet_strategy(order=3):
    fracs = st.fractions(min_value=-2, max_value=2, max_denominator=5)
    monos = st.tuples(st.integers(0, order), st.integers(0, order)).filter(
        lambda mi: sum(mi) <= order)
    return st.dictionaries(monos, fracs, max_size=4).map(
        lambda d: J(2, order, d))


@settings(max_examples=40, deadline=None)
@given(jet_strategy(), jet_strategy(), jet_strategy())
def test_jet_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(jet_strategy())
def test_truncate_is_idempotent(a):
    assert a.truncate(2).truncate(2) == a.truncate(2)
    assert a.truncate(3) == a


# -- dense kernel against a naive dict reference --------------------------------


def _ref_add(a, b, order, sign=1):
    out = {m: x for m, x in a.items() if sum(m) <= order}
    for m, y in b.items():
        if sum(m) <= order:
            out[m] = out.get(m, 0) + sign * y
    return out


def _ref_mul(a, b, order):
    out = {}
    for m1, x in a.items():
        for m2, y in b.items():
            m = tuple(p + q for p, q in zip(m1, m2))
            if sum(m) <= order:
                out[m] = out.get(m, 0) + x * y
    return out


def _ref_derivative(a, i):
    out = {}
    for m, x in a.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = x * m[i]
    return out


@st.composite
def sparse_jet_pairs(draw):
    dim = draw(st.integers(1, 5))
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    if mode == EXACT:
        values = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    else:
        values = st.floats(min_value=-3, max_value=3)

    def sparse(order):
        # a monomial of degree <= order: a multiset of at most `order` variables
        mono = st.lists(st.integers(0, dim - 1), max_size=order).map(
            lambda vs: tuple(vs.count(i) for i in range(dim)))
        return draw(st.dictionaries(mono, values, max_size=6))

    oa, ob = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return dim, mode, (oa, sparse(oa)), (ob, sparse(ob)), draw(values)


def _assert_matches(jet, want, mode, order):
    assert jet.mode == mode and jet.order == order
    got = dict(jet.coeffs)
    want = {m: v for m, v in want.items() if v}
    if mode == EXACT:
        assert got == want
        assert jet.den > 0 and math.gcd(jet.den, *jet.c) == 1
    else:
        assert all(isinstance(v, float) for v in got.values())
        for m in set(got) | set(want):
            assert math.isclose(got.get(m, 0.0), want.get(m, 0.0),
                                rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(sparse_jet_pairs())
def test_dense_kernel_matches_dict_reference(case):
    dim, mode, (oa, da), (ob, db), s = case
    a, b = J(dim, oa, da, mode), J(dim, ob, db, mode)
    low = min(oa, ob)
    _assert_matches(a + b, _ref_add(da, db, low), mode, low)
    _assert_matches(a - b, _ref_add(da, db, low, -1), mode, low)
    _assert_matches(a * b, _ref_mul(da, db, low), mode, low)
    _assert_matches(b * a, _ref_mul(da, db, low), mode, low)
    _assert_matches(a * s, {m: x * s for m, x in da.items()}, mode, oa)
    _assert_matches(s * a, {m: x * s for m, x in da.items()}, mode, oa)
    for k in range(5):
        _assert_matches(a.truncate(k), _ref_add(da, {}, min(k, oa)), mode,
                        min(k, oa))
    if oa:
        for i in range(dim):
            _assert_matches(a.derivative(i), _ref_derivative(da, i), mode,
                            oa - 1)


class TestModes:
    def test_float_zero_constant_reads_float_zero(self):
        a = J(2, 2, {(1, 0): 1.5}, FLOAT)
        assert a.value == 0.0 and isinstance(a.value, float)
        two = Jet.constant(2, 2, 2.0, FLOAT)
        assert jet_recip(a + two).mode == FLOAT

    def test_mixing_modes_raises(self):
        a = J(2, 2, {(0, 0): 1, (1, 0): F(1, 3)})
        b = J(2, 2, {(0, 1): 0.5}, FLOAT)
        ops = (lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a,
               lambda: a * b, lambda: b * a, lambda: a * 0.5,
               lambda: a + 1, lambda: 1 + a, lambda: a - F(1, 2),
               lambda: b + 0.5, lambda: sum([a, a]), lambda: a + J(3, 2, {}))
        for op in ops:
            with pytest.raises(JetError):
                op()
        with pytest.raises(TypeError):
            1 - a
        assert (b * 2).coeffs == {(0, 1): 1.0}
        assert (a * F(3)).coeffs == {(0, 0): 3, (1, 0): 1}

    def test_zero_jet_shared_per_shape_and_mode(self):
        assert Jet.zero(3, 2) is Jet.zero(3, 2, EXACT)
        assert Jet.zero(3, 2, FLOAT) is not Jet.zero(3, 2)
        a = J(3, 2, {(1, 0, 0): 1})
        assert (a - a) is Jet.zero(3, 2)

    @pytest.mark.parametrize("args, match", [
        ((2, -1), "negative jet order -1"),
        ((2, 1, "fast"), "unknown arithmetic mode 'fast'"),
    ], ids=["negative_order", "unknown_mode"])
    def test_zero_validates_as_the_constructor(self, args, match):
        """Jet.zero refuses what jet_from_polynomial refuses."""
        dim, order, *mode = args
        one = Polynomial.constant(("x", "y")[:dim], 1)
        with pytest.raises(JetError, match=match):
            jet_from_polynomial(one, (0,) * dim, order, *mode)
        with pytest.raises(JetError, match=match):
            Jet.zero(*args)


class TestNumeratorKernel:
    """`mac` on `numerators`, reduced once by `from_numerators`, against the
    same sum of Jet.__mul__ products."""

    @staticmethod
    def _pairs(seed, mode):
        rng = random.Random(seed)
        dim, out = rng.randint(1, 4), rng.randint(0, 3)

        def jet(order):
            if rng.random() < 0.2:
                return Jet.zero(dim, order, mode)
            return J(dim, order, {
                mi: F(rng.randint(-30, 30), rng.randint(1, 12))
                for mi in _tables(dim, order).monos if rng.random() < 0.7},
                mode)

        pairs = [(jet(out + rng.randint(0, 2)), jet(out + rng.randint(0, 2)))
                 for _ in range(rng.randint(1, 8))]
        return dim, out, pairs, [rng.random() < 0.5 for _ in pairs]

    @staticmethod
    def _kernel(dim, out, pairs, negs, mode):
        t = _tables(dim, out)
        # a's run past the output order where all of them do (numerators
        # refuses to read a jet past its own order), b's are cut to it
        a, da = numerators(dict(enumerate(x for x, _ in pairs)),
                           min(x.order for x, _ in pairs))
        b, db = numerators(dict(enumerate(y for _, y in pairs)), out)
        # a product is subtracted as that of a negated factor
        pairs = [(a.get(k), [-v for v in y] if neg and y else y)
                 for k, neg in enumerate(negs) for y in (b.get(k),)]
        return from_numerators(t, mode, mac(t.zero[mode].c.copy(), t, pairs),
                               da * db)

    def test_a_jet_below_the_order_is_refused(self):
        # its coefficients past its order are unknown, not zero
        low = J(2, 1, {(0, 1): 1})
        with pytest.raises(JetError, match="order 1 read to order 2"):
            numerators({0: J(2, 3, {(1, 0): 1}), 1: low}, 2)
        with pytest.raises(JetError):
            numerators({0: Jet.zero(2, 1)}, 2)
        assert numerators({0: low}, 1) == ({0: [0, 0, 1]}, 1)
        # a sparse tensor's left-out entries are zero jets of its order
        with pytest.raises(JetError, match="order 1 read to order 2"):
            Tensor(2, "l", {}, Jet.zero(2, 1)).numerators(2)
        sparse = Tensor(2, "ll", {0: low, 3: low}, Jet.zero(2, 1))
        assert sparse.numerators(1) == ({0: [0, 0, 1], 3: [0, 0, 1]}, 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_sum_is_literally_the_sum_of_products(self, seed):
        dim, out, pairs, negs = self._pairs(seed, EXACT)
        want = Jet.zero(dim, out)
        for (x, y), neg in zip(pairs, negs):
            want = want - x * y if neg else want + x * y
        got = self._kernel(dim, out, pairs, negs, EXACT)
        assert (got.order, got.den, got.c) == (out, want.den, want.c)
        assert got.den > 0 and math.gcd(got.den, *got.c) == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_float_sum_agrees_with_the_sum_of_products(self, seed):
        dim, out, pairs, negs = self._pairs(seed, FLOAT)
        want = Jet.zero(dim, out, FLOAT)
        scale = 0.0
        for (x, y), neg in zip(pairs, negs):
            p = (x * y).truncate(out)
            want = want - p if neg else want + p
            scale += max(map(abs, p.c))
        got = self._kernel(dim, out, pairs, negs, FLOAT)
        assert got.order == out
        assert all(abs(g - w) <= 1e-15 * scale
                   for g, w in zip(got.c, want.c))


def _table_workout(dim):
    a = J(dim, 3, {(1,) + (0,) * (dim - 1): F(1, 3), (0,) * dim: 2})
    b = jet_recip(a) * a.derivative(0) - a.truncate(2)
    return dict(b.coeffs)


def test_tables_built_concurrently():
    """Threads that meet an uncached (dim, order) together get equal results."""
    want = {dim: _table_workout(dim) for dim in range(1, 6)}
    _tables.cache_clear()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [(dim, pool.submit(_table_workout, dim))
                       for _ in range(4) for dim in range(1, 6)]
            got = [(dim, f.result(timeout=60)) for dim, f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(result == want[dim] for dim, result in got)


def test_product_table_is_built_on_the_first_product():
    """`mul` is left unbuilt by indexing, derivatives and sums at an order,
    and built once by the first product there."""
    _tables.cache_clear()
    t = _tables(3, 4)
    unbuilt = type(t).__dict__["mul"]          # the slot, read directly
    a = J(3, 4, {(1, 0, 0): F(1, 3), (0, 2, 1): 2})
    b = (a + a * F(2)) - a - a
    with pytest.raises(AttributeError):
        unbuilt.__get__(t)
    assert (b * a).coeffs == {(2, 0, 0): F(1, 9), (1, 2, 1): F(4, 3)}
    assert a.derivative(0).coeffs == {(0, 0, 0): F(1, 3)}
    table = unbuilt.__get__(t)
    assert t.mul is table and len(table) == t.size
