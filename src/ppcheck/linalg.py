"""One Gauss-Jordan elimination: solve a·X = b for a square matrix a.

Entries are numbers (Fractions in exact mode, floats in float mode) or
jets.  A jet whose constant term is nonzero is a unit of the truncated jet
ring, so the same loop inverts a matrix of jets exactly to its order:
`solve(g, identity)` is the inverse metric jet.  The pivot of each column is
the entry of largest absolute value at the point (a jet's constant term),
and a jet pivot is inverted once, with `jet_recip`.  A column with no
nonzero value at the point raises SingularMatrixError.  Sizes are small
(the metric is at most 8x8, the Schimming normal equations at most 36x36),
so partial pivoting is plenty.
"""
from __future__ import annotations

from .jets import Jet, jet_recip


class SingularMatrixError(ZeroDivisionError):
    pass


def _at_point(x):
    return x.value if isinstance(x, Jet) else x


def solve(a, b):
    """X with a·X = b; `a` is n x n, `b` is n x m, both lists of rows."""
    n = len(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(_at_point(rows[r][col])))
        p = rows[pivot][col]
        if not _at_point(p):
            raise SingularMatrixError("matrix is singular at the point")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        if isinstance(p, Jet):
            inv = jet_recip(p)
            rows[col] = [x * inv for x in rows[col]]
        else:
            rows[col] = [x / p for x in rows[col]]
        top = rows[col]
        for r in range(n):
            f = rows[r][col]
            if r == col or not f:
                continue
            rows[r] = [x - f * y for x, y in zip(rows[r], top)]
    return [row[n:] for row in rows]
