"""Symbolic oracle: curvature at a point from textbook formulas, not jets.

sympy differentiates the metric's component polynomials and inverts the
metric at the point; Christoffel symbols, Riemann, Ricci, scalar curvature
and the Weyl tensor (the two-term formula with Ricci and R) then follow in
Fractions.  None of it goes through jets, `linalg` or `_weyl_part`, and
each must equal the bundle's point values exactly.
"""
import itertools
import json
from fractions import Fraction

import pytest

from ppcheck import CurvatureBundle, metric_at_point
from ppcheck.metrics import parse_metric_config, sample_points

sympy = pytest.importorskip("sympy")

CONFIGS = {
    "perturbed_minkowski_n4_seed7": {
        "family": "perturbed_minkowski", "n": 4,
        "params": {"seed": 7, "degree": 2}},
    "galaev_d3": {
        "family": "galaev", "d": 3,
        "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"}},
}


def _fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


def textbook_curvature(spec, point):
    """(Gamma^i_jk, R_jklm, R_kl, R, C_jklm) at the point, as Fractions."""
    n = spec.n
    xs = sympy.symbols(spec.coords)
    at = dict(zip(xs, map(_rational, point)))
    comp = [[sum((_rational(c) * sympy.Mul(*(x ** e for x, e in zip(xs, mi)))
                  for mi, c in spec.components[i][j].terms.items()),
                 sympy.Integer(0)) for j in range(n)] for i in range(n)]
    r = range(n)
    g = [[_fraction(comp[i][j].subs(at)) for j in r] for i in r]
    # dg[a][b][c] = d_c g_ab, ddg[a][b][c][d] = d_c d_d g_ab
    dg = [[[_fraction(sympy.diff(comp[a][b], xs[c]).subs(at)) for c in r]
           for b in r] for a in r]
    ddg = [[[[_fraction(sympy.diff(comp[a][b], xs[c], xs[d]).subs(at))
              for d in r] for c in r] for b in r] for a in r]
    inv = sympy.Matrix(n, n, lambda i, j: _rational(g[i][j])).inv()
    gi = [[_fraction(inv[i, j]) for j in r] for i in r]
    # d_m g^il = -g^ia d_m g_ab g^bl
    dgi = [[[-sum(gi[i][a] * dg[a][b][m] * gi[b][l] for a in r for b in r)
             for m in r] for l in r] for i in r]

    # Gamma_ljk = (d_j g_lk + d_k g_lj - d_l g_jk) / 2, and its derivative
    def first_kind(l, j, k):
        return (dg[l][k][j] + dg[l][j][k] - dg[j][k][l]) / 2

    def d_first_kind(l, j, k, m):
        return (ddg[l][k][j][m] + ddg[l][j][k][m] - ddg[j][k][l][m]) / 2

    gam = [[[sum(gi[i][l] * first_kind(l, j, k) for l in r) for k in r]
            for j in r] for i in r]
    # dgam[m][i][j][k] = d_m Gamma^i_jk
    dgam = [[[[sum(dgi[i][l][m] * first_kind(l, j, k)
                   + gi[i][l] * d_first_kind(l, j, k, m) for l in r)
               for k in r] for j in r] for i in r] for m in r]
    # R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
    #           + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    up = {(a, b, c, d): dgam[c][a][d][b] - dgam[d][a][c][b]
          + sum(gam[a][c][e] * gam[e][d][b] - gam[a][d][e] * gam[e][c][b]
                for e in r)
          for a, b, c, d in itertools.product(r, repeat=4)}
    riem = {(a, b, c, d): sum(g[a][e] * up[e, b, c, d] for e in r)
            for a, b, c, d in itertools.product(r, repeat=4)}
    ric = {(b, d): sum(up[a, b, a, d] for a in r) for b in r for d in r}
    scal = sum(gi[b][d] * ric[b, d] for b in r for d in r)
    weyl = {(j, k, l, m): riem[j, k, l, m]
            - (g[j][l] * ric[k, m] - g[j][m] * ric[k, l]
               - g[k][l] * ric[j, m] + g[k][m] * ric[j, l]) / (n - 2)
            + scal * (g[j][l] * g[k][m] - g[j][m] * g[k][l])
            / ((n - 1) * (n - 2))
            for j, k, l, m in itertools.product(r, repeat=4)}
    gamma = {(i, j, k): gam[i][j][k]
             for i, j, k in itertools.product(r, repeat=3)}
    return gamma, riem, ric, scal, weyl


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bundle_equals_textbook_curvature(name):
    spec, config = parse_metric_config(json.dumps(
        {**CONFIGS[name], "mode": "exact", "jet_order": 2}))
    point = sample_points(spec, config.points)[0]
    b = CurvatureBundle(metric_at_point(spec, point, 2))
    gamma, riem, ric, scal, weyl = textbook_curvature(spec, point)
    assert any(weyl.values()), "the oracle should see a nonzero Weyl tensor"
    for attr, want in (("gamma", gamma), ("riemann", riem), ("ricci", ric),
                       ("weyl", weyl)):
        got = b.values(attr)
        for idx, x in want.items():
            assert got[idx] == x, (attr, idx)
    assert b.scalar.value == scal
