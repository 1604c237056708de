"""One Gauss-Jordan elimination: solve a·X = b for a square matrix a.

Entries are numbers: Fractions in exact mode, floats in float mode.  The
pivot of each column is the entry of largest absolute value, and a column
with no nonzero entry raises SingularMatrixError.  Its one use inverts the
metric at a point, at most 8x8, so partial pivoting is plenty; the inverse
metric jets are a series on that inverse (geometry.metric_at_point).
"""
from __future__ import annotations


class SingularMatrixError(ZeroDivisionError):
    pass


def solve(a, b):
    """X with a·X = b; `a` is n x n, `b` is n x m, both lists of rows."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        p = rows[pivot][col]
        if not p:
            raise SingularMatrixError("matrix is singular at the point")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / p for x in rows[col]]
        top = rows[col]
        for r in range(n):
            f = rows[r][col]
            if r == col or not f:
                continue
            rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    return [row[n:] for row in rows]
