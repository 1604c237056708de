"""Exact rational linear algebra: inversion, determinant, solve."""
from fractions import Fraction as F

import pytest

from ppcheck.linalg import SingularMatrixError, mat_det, mat_inverse, solve


def test_inverse_round_trip():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = mat_inverse(a)
    prod = [[sum(a[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_singular_rejected():
    with pytest.raises(SingularMatrixError):
        mat_inverse([[F(1), F(2)], [F(2), F(4)]])


def test_determinant():
    assert mat_det([[F(1), F(2)], [F(3), F(4)]]) == -2


def test_solve():
    a = [[F(2), F(0)], [F(1), F(3)]]
    x = solve(a, [F(4), F(7)])
    assert x == [F(2), F(5, 3)]
