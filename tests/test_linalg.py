"""The one Gauss-Jordan routine: a·X = b over Fractions and floats."""
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entries, jet, jet_solve
from ppcheck import build_custom
from ppcheck.geometry import DegeneratePointError, metric_at_point
from ppcheck.jets import EXACT, Jet
from ppcheck.linalg import SingularMatrixError, solve
from ppcheck.polynomials import parse_polynomial


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def test_inverse_round_trip():
    a = [[F(2), F(1)], [F(1), F(1)]]
    assert matmul(a, solve(a, identity(2))) == identity(2)


def test_solve():
    a = [[F(2), F(0)], [F(1), F(3)]]
    assert solve(a, [[F(4)], [F(7)]]) == [[F(2)], [F(5, 3)]]


def test_float_entries():
    (x,), (y,) = solve([[2.0, 1.0], [1.0, 3.0]], [[3.0], [4.0]])
    assert (x, y) == pytest.approx((1.0, 1.0))


def test_singular_rejected():
    with pytest.raises(SingularMatrixError):
        solve([[F(1), F(2)], [F(2), F(4)]], identity(2))


@pytest.mark.parametrize("a", [
    [[F(0), F(0)], [F(0), F(0)]],
    [[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]],
    [[1.0, 2.0], [2.0, 4.0]],
])
def test_more_singular_matrices_rejected(a):
    with pytest.raises(SingularMatrixError):
        solve(a, identity(len(a)))


# The jet elimination is the tests' reference for the inverse metric series
# (conftest.jet_solve); `solve` itself takes numbers only.

def test_jet_with_zero_value_is_singular():
    # x is not a unit of the jet ring: its value at the point is 0
    x = jet(1, 2, {(1,): 1})
    with pytest.raises(SingularMatrixError):
        jet_solve([[x]], [[Jet.constant(1, 2, 1)]])
    coords = ("x",)
    spec = build_custom([[parse_polynomial("x", coords)]], coords)
    with pytest.raises(DegeneratePointError):
        metric_at_point(spec, (F(0),), 2, EXACT)


def test_jet_inverse_is_exact_to_the_order():
    # [[1 + x, y], [y, 2]]: a·X is the identity jet matrix, literally
    one, zero = Jet.constant(2, 3, 1), Jet.zero(2, 3)
    a = [[jet(2, 3, {(0, 0): 1, (1, 0): 1}), jet(2, 3, {(0, 1): 1})],
         [jet(2, 3, {(0, 1): 1}), Jet.constant(2, 3, 2)]]
    x = jet_solve(a, [[one, zero], [zero, one]])
    prod = [[a[i][0] * x[0][j] + a[i][1] * x[1][j] for j in range(2)]
            for i in range(2)]
    assert prod == [[one, zero], [zero, one]]
    assert all(e.mode == EXACT for row in x for e in row)
    # the same matrix as a metric at the origin: its series inverse is the
    # elimination's to order K - 2
    coords = ("x", "y")
    spec = build_custom([[parse_polynomial(t, coords) for t in row]
                         for row in (("1 + x", "y"), ("y", "2"))], coords)
    m = metric_at_point(spec, (F(0), F(0)), 3, EXACT)
    assert entries(m.g_inv) == [e.truncate(1) for row in x for e in row]


fractions = st.fractions(min_value=-8, max_value=8, max_denominator=9)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    a = [[draw(fractions) for _ in range(n)] for _ in range(n)]
    b = [[draw(fractions) for _ in range(m)] for _ in range(n)]
    return a, b


def leibniz_det(a):
    """det a as the signed sum over permutations, independent of elimination."""
    n = len(a)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


@settings(max_examples=60, deadline=None)
@given(systems())
def test_round_trip_on_fraction_matrices(system):
    a, b = system
    if leibniz_det(a) == 0:
        with pytest.raises(SingularMatrixError):
            solve(a, b)
    else:
        assert matmul(a, solve(a, b)) == b


@pytest.mark.parametrize("n", range(1, 7))
def test_singular_fraction_matrices_raise(n):
    # last row is the sum of the others (or zero, for n = 1)
    a = [[F(i * j + 1, j + 2) for j in range(n)] for i in range(n - 1)]
    a.append([sum(col, F(0)) for col in zip(*a)] if a else [F(0)])
    assert leibniz_det(a) == 0
    with pytest.raises(SingularMatrixError):
        solve(a, identity(n))
