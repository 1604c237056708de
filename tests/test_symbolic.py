"""Symbolic oracle: curvature at a point from textbook formulas, not jets.

sympy differentiates the metric's component polynomials up to third order
and inverts the metric at the point; Christoffel symbols, Riemann, Ricci,
scalar curvature and the Weyl tensor (the two-term formula with Ricci and
R) then follow in Fractions.  Their first partial derivatives come from the
same formulas evaluated on first-order dual numbers (a value with its
partial derivatives, under the sum and product rules), and the covariant
derivatives from the textbook Christoffel corrections.  None of it goes
through jets, `linalg` or `_weyl_part`, and each must equal the bundle's
point values exactly.
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


class Dual:
    """A number with its partial derivatives `d` at the point; zero terms
    are skipped, since most of a wave metric's are zero."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __bool__(self):
        return bool(self.v) or any(self.d)

    def __add__(self, o):
        if not o:
            return self
        if isinstance(o, Dual):
            if not self:
                return o
            return Dual(self.v + o.v, [a + b for a, b in zip(self.d, o.d)])
        return Dual(self.v + o, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, [-a for a in self.d])

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        if not (self and o):
            return Dual(0, [0] * len(self.d))
        if isinstance(o, Dual):
            return Dual(self.v * o.v,
                        [self.v * b + a * o.v for a, b in zip(self.d, o.d)])
        return Dual(self.v * o, [a * o for a in self.d])

    __rmul__ = __mul__

    def __truediv__(self, k):
        return Dual(self.v / k, [a / k for a in self.d])


def metric_derivatives(spec, point):
    """d(a, b, c1, .., ck): d_c1 .. d_ck g_ab at the point, as a Fraction."""
    xs = sympy.symbols(spec.coords)
    at = dict(zip(xs, map(_rational, point)))
    exprs, values = {}, {}

    def expr(key):
        if key not in exprs:
            a, b, cs = key
            if cs:
                exprs[key] = sympy.diff(expr((a, b, cs[:-1])), xs[cs[-1]])
            else:
                terms = spec.components[a][b].terms.items()
                exprs[key] = sum(
                    (_rational(c) * sympy.Mul(*(x ** e for x, e in zip(xs, mi)))
                     for mi, c in terms), sympy.Integer(0))
        return exprs[key]

    def d(a, b, *cs):
        key = (min(a, b), max(a, b), tuple(sorted(cs)))
        if key not in values:
            values[key] = _fraction(expr(key).subs(at))
        return values[key]

    return d


def curvature(n, g, dg, ddg, gi):
    """(Gamma^i_jk, R_jklm, R_kl, R, C_jklm) from the textbook formulas.

    g[a][b], dg[a][b][c] = d_c g_ab, ddg[a][b][c][d] = d_c d_d g_ab and the
    inverse gi are Fractions, or Duals for the partial derivatives too."""
    r = range(n)
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


def textbook_curvature(spec, point):
    """Gamma, Riemann, Ricci, R and Weyl at the point and the covariant
    derivatives of the last four, as {name: {index: Fraction}}, the
    derivative slot first."""
    n, d = spec.n, metric_derivatives(spec, point)
    r = range(n)
    inv = sympy.Matrix(n, n, lambda i, j: _rational(d(i, j))).inv()
    gi = [[_fraction(inv[i, j]) for j in r] for i in r]
    dgi = [[[-sum(gi[i][a] * d(a, b, m) * gi[b][l] for a in r for b in r)
             for m in r] for l in r] for i in r]

    def dual(*idx):
        return Dual(d(*idx), [d(*idx, f) for f in r])

    g = [[dual(a, b) for b in r] for a in r]
    dg = [[[dual(a, b, c) for c in r] for b in r] for a in r]
    ddg = [[[[dual(a, b, c, e) for e in r] for c in r] for b in r] for a in r]
    gid = [[Dual(gi[i][l], dgi[i][l]) for l in r] for i in range(n)]
    gamma, riem, ric, scal, weyl = curvature(n, g, dg, ddg, gid)
    gam = {k: x.v for k, x in gamma.items()}

    def nabla(t):
        """nabla_f t_idx = d_f t_idx - sum_s Gamma^p_{f idx_s} t_idx[s->p]."""
        out = {}
        for idx, x in t.items():
            for f in r:
                acc = x.d[f]
                for s, i in enumerate(idx):
                    for p in r:
                        if gam[p, f, i]:
                            swapped = idx[:s] + (p,) + idx[s + 1:]
                            acc -= gam[p, f, i] * t[swapped].v
                out[(f,) + idx] = acc
        return out

    out = {"gamma": gam, "scalar": {(): scal.v},
           "nabla_scalar": {(f,): scal.d[f] for f in r}}
    for name, t in (("riemann", riem), ("ricci", ric), ("weyl", weyl)):
        out[name] = {k: x.v for k, x in t.items()}
        out[f"nabla_{name}"] = nabla(t)
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bundle_equals_textbook_curvature(name):
    spec, config = parse_metric_config(json.dumps(
        {**CONFIGS[name], "mode": "exact", "jet_order": 3}))
    point = sample_points(spec, config.points)[0]
    b = CurvatureBundle(metric_at_point(spec, point, 3))
    want = textbook_curvature(spec, point)
    assert any(want["weyl"].values()), \
        "the oracle should see a nonzero Weyl tensor"
    assert any(want["nabla_weyl"].values()), \
        "the oracle should see a nonzero nabla Weyl"
    for attr, values in want.items():
        got = b.values(attr)
        for idx, x in values.items():
            assert got[idx] == x, (attr, idx)
