"""Small exact linear algebra helpers on plain number matrices.

Matrices are lists of lists of Fractions (exact mode) or floats.  Sizes here
are at most 8x8, so Gaussian elimination with partial pivoting is plenty.
"""
from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ZeroDivisionError):
    pass


def _one(sample):
    return 1.0 if isinstance(sample, float) else Fraction(1)


def mat_inverse(m):
    """Inverse by Gauss-Jordan with partial pivoting on |entry|."""
    n = len(m)
    a = [list(row) for row in m]
    one = _one(a[0][0])
    inv = [[one * (i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if not a[pivot][col]:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        piv = a[col][col]
        a[col] = [x / piv for x in a[col]]
        inv[col] = [x / piv for x in inv[col]]
        for r in range(n):
            if r == col or not a[r][col]:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def mat_det(m):
    n = len(m)
    a = [list(row) for row in m]
    det = _one(a[0][0]) if n else _one(0.0)
    sign = 1
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if not a[pivot][col]:
            return det * 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        piv = a[col][col]
        det = det * piv
        for r in range(col + 1, n):
            if not a[r][col]:
                continue
            f = a[r][col] / piv
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det * sign


def solve(mat, rhs):
    """Solve a square linear system exactly; raises on singular systems."""
    n = len(mat)
    a = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if not a[pivot][col]:
            raise SingularMatrixError("linear system is singular")
        a[col], a[pivot] = a[pivot], a[col]
        piv = a[col][col]
        a[col] = [x / piv for x in a[col]]
        for r in range(n):
            if r == col or not a[r][col]:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]
