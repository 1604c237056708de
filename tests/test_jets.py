"""Truncated Taylor jets: arithmetic, reciprocals, polynomial seeding."""
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcheck.geometry import OrderBudgetError
from ppcheck.jets import (EXACT, FLOAT, Jet, SingularJetError, _tables,
                          jet_from_polynomial, jet_recip)
from ppcheck.polynomials import parse_polynomial


def J(dim, order, coeffs):
    return Jet(dim, order, {k: F(v) for k, v in coeffs.items()})


class TestArithmetic:
    def test_square_of_one_plus_u(self):
        a = J(1, 2, {(0,): 1, (1,): 1})
        assert a * a == J(1, 2, {(0,): 1, (1,): 2, (2,): 1})

    def test_zero_annihilates(self):
        a = J(2, 3, {(1, 2): F(5, 7), (0, 0): 3})
        assert (a * Jet.zero(2, 3)).is_zero()

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
        lambda d: Jet(2, order, {k: v for k, v in d.items() if v}))


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
    a, b = Jet(dim, oa, da, mode), Jet(dim, ob, db, mode)
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
        a = Jet(2, 2, {(1, 0): 1.5}, FLOAT)
        assert a.value == 0.0 and isinstance(a.value, float)
        assert jet_recip(a + 2.0).mode == FLOAT

    def test_mixing_modes_gives_float(self):
        a = J(2, 2, {(0, 0): 1, (1, 0): F(1, 3)})
        b = Jet(2, 2, {(0, 1): 0.5}, FLOAT)
        for r in (a + b, b + a, a - b, a * b, b * a, a * 0.5):
            assert r.mode == FLOAT
        assert (a * b).coeffs == {(1, 1): 0.5 / 3, (0, 1): 0.5}

    def test_zero_jet_shared_per_shape_and_mode(self):
        assert Jet.zero(3, 2) is Jet.zero(3, 2, EXACT)
        assert Jet.zero(3, 2, FLOAT) is not Jet.zero(3, 2)
        a = J(3, 2, {(1, 0, 0): 1})
        assert (a - a) is Jet.zero(3, 2)


def _table_workout(dim):
    a = Jet(dim, 3, {(1,) + (0,) * (dim - 1): F(1, 3), (0,) * dim: 2})
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
