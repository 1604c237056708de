"""Symbolic oracle: curvature at a point from textbook formulas, not jets.

sympy differentiates the metric's component polynomials up to fourth order
and inverts the metric at the point; Christoffel symbols, Riemann, Ricci,
scalar curvature and the Weyl tensor (the two-term formula with Ricci and
R) then follow in Fractions.  Their first and second partial derivatives
come from the same formulas evaluated on second-order dual numbers (a
value with its gradient and Hessian, under the sum and product rules), and
the first and second covariant derivatives from the textbook Christoffel
corrections.  The second covariant derivative of the Weyl tensor is the
Weyl formula applied to those of Riemann, Ricci and R.  The Weyl
recurrence covector alpha_i = N_i / D, with N_i = <nabla_i C, C> and
D = <C, C>, follows from C's Duals and the first derivatives of nabla C,
its chart derivatives by the quotient rule, and nabla_j alpha_i =
d_j alpha_i - Gamma^p_ji alpha_p.  None of it goes through jets, `linalg`
or `_weyl_part`, and each must equal the bundle's point values exactly.
"""
import functools
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
        "params": {"lambda": [1, 1, -2], "a": "0", "F": "u^2"}},
}


def _fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _rational(x: Fraction):
    return sympy.Rational(x.numerator, x.denominator)


@functools.cache
def upper(n):
    """The index pairs (i, j), i <= j, of a Hessian's upper triangle, in
    the order of `Dual.h`."""
    return [(i, j) for i in range(n) for j in range(i, n)]


class Dual:
    """A number with its partial derivatives at the point: the gradient `d`
    and the Hessian `h`, its upper triangle as listed by `upper`.  Zero
    terms are skipped, since most of a wave metric's are zero."""

    __slots__ = ("v", "d", "h")

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    def __bool__(self):
        return bool(self.v) or any(self.d) or any(self.h)

    def __add__(self, o):
        if not o:
            return self
        if isinstance(o, Dual):
            if not self:
                return o
            return Dual(self.v + o.v, [a + b for a, b in zip(self.d, o.d)],
                        [a + b for a, b in zip(self.h, o.h)])
        return Dual(self.v + o, self.d, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, [-a for a in self.d], [-a for a in self.h])

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        if not (self and o):
            return Dual(0, [0] * len(self.d), [0] * len(self.h))
        if isinstance(o, Dual):
            # (fg)_ij = f_ij g + f_i g_j + f_j g_i + f g_ij
            v, d, w, e = self.v, self.d, o.v, o.d
            return Dual(v * w, [v * b + a * w for a, b in zip(d, e)],
                        [v * k + h * w + d[i] * e[j] + d[j] * e[i]
                         for h, k, (i, j) in zip(self.h, o.h, upper(len(d)))])
        return Dual(self.v * o, [a * o for a in self.d],
                    [a * o for a in self.h])

    __rmul__ = __mul__

    def __truediv__(self, k):
        return self * Fraction(1, k)


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


def antisymmetric(n, entry, zero, lead=0):
    """{pre + (j, k, l, m): entry(*pre, j, k, l, m)} over the `lead` slots
    pre, computed for j < k and l < m and filled in by antisymmetry in
    (j, k) and in (l, m), with `zero` where j = k or l = m."""
    r = range(n)
    out = dict.fromkeys(itertools.product(r, repeat=lead + 4), zero)
    for pre in itertools.product(r, repeat=lead):
        for (j, k), (l, m) in itertools.product(
                itertools.combinations(r, 2), repeat=2):
            x = entry(*pre, j, k, l, m)
            out[pre + (j, k, l, m)] = out[pre + (k, j, m, l)] = x
            out[pre + (k, j, l, m)] = out[pre + (j, k, m, l)] = -x
    return out


def weyl_formula(n, g, riem, ric, scal, lead=0):
    """C_jklm = R_jklm - (g_jl R_km - g_jm R_kl - g_kl R_jm + g_km R_jl)
    / (n-2) + R (g_jl g_km - g_jm g_kl) / ((n-1)(n-2)), after `lead`
    derivative slots that g does not see; `scal` is keyed by them."""
    def entry(*idx):
        pre, (j, k, l, m) = idx[:lead], idx[lead:]
        return (riem[idx] - (g[j][l] * ric[pre + (k, m)]
                             - g[j][m] * ric[pre + (k, l)]
                             - g[k][l] * ric[pre + (j, m)]
                             + g[k][m] * ric[pre + (j, l)]) / (n - 2)
                + scal[pre] * (g[j][l] * g[k][m] - g[j][m] * g[k][l])
                / ((n - 1) * (n - 2)))
    return antisymmetric(n, entry, 0 * riem[(0,) * (lead + 4)], lead)


def curvature(n, g, dg, ddg, gi):
    """(Gamma^i_jk, R_jklm, R_kl, R, C_jklm), as Duals, from the textbook
    formulas.

    g[a][b], dg[a][b][c] = d_c g_ab, ddg[a][b][c][d] = d_c d_d g_ab and the
    inverse gi are Duals.  Gamma^i_jk, symmetric in (j, k), is computed
    for j <= k, R^a_bcd, antisymmetric in (c, d), for c < d, and R_jklm
    and C_jklm by `antisymmetric`."""
    r = range(n)
    # d_m g^il = -g^ia d_m g_ab g^bl
    gi_dg = [[[sum(gi[i][a] * dg[a][b][m] for a in r) for m in r] for b in r]
             for i in r]
    dgi = [[[-sum(gi_dg[i][b][m] * gi[b][l] for b in r) for m in r]
            for l in r] for i in r]
    # Gamma_ljk = (d_j g_lk + d_k g_lj - d_l g_jk) / 2, and d_m of it
    gam = [[[None] * n for j in r] for i in r]
    dgam = [[[[None] * n for j in r] for i in r] for m in r]  # d_m G^i_jk
    for j, k in upper(n):
        fk = [(dg[l][k][j] + dg[l][j][k] - dg[j][k][l]) / 2 for l in r]
        dfk = [[(ddg[l][k][j][m] + ddg[l][j][k][m] - ddg[j][k][l][m]) / 2
                for m in r] for l in r]
        for i in r:
            gam[i][j][k] = gam[i][k][j] = sum(gi[i][l] * fk[l] for l in r)
            for m in r:
                dgam[m][i][j][k] = dgam[m][i][k][j] = sum(
                    dgi[i][l][m] * fk[l] + gi[i][l] * dfk[l][m] for l in r)
    # R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
    #           + Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb
    up = {}
    for a, b, (c, d) in itertools.product(r, r, itertools.combinations(r, 2)):
        x = dgam[c][a][d][b] - dgam[d][a][c][b] + sum(
            gam[a][c][e] * gam[e][d][b] - gam[a][d][e] * gam[e][c][b]
            for e in r)
        up[a, b, c, d], up[a, b, d, c] = x, -x
    riem = antisymmetric(n, lambda a, b, c, d: sum(
        g[a][e] * up[e, b, c, d] for e in r), 0 * g[0][0])
    ric = {(b, d): sum(up[a, b, a, d] for a in r if a != d)
           for b in r for d in r}
    scal = sum(gi[b][d] * ric[b, d] for b in r for d in r)
    gamma = {(i, j, k): gam[i][j][k]
             for i, j, k in itertools.product(r, repeat=3)}
    return gamma, riem, ric, scal, weyl_formula(n, g, riem, ric, {(): scal})


def textbook_curvature(spec, point):
    """Gamma, Riemann, Ricci, R and Weyl at the point and the first and
    second covariant derivatives of the last four (of R, the first), as
    {name: {index: Fraction}}, the derivative slots first, the outer one
    leading; and alpha and nabla alpha of the Weyl recurrence covector, as
    {stage name: {index: Fraction}}."""
    n, d = spec.n, metric_derivatives(spec, point)
    r = range(n)
    inv = sympy.Matrix(n, n, lambda i, j: _rational(d(i, j))).inv()
    gi = [[_fraction(inv[i, j]) for j in r] for i in r]

    def dual(*idx):
        return Dual(d(*idx), [d(*idx, f) for f in r],
                    [d(*idx, f, e) for f, e in upper(n)])

    g = [[dual(a, b) for b in r] for a in r]
    dg = [[[dual(a, b, c) for c in r] for b in r] for a in r]
    ddg = [[[[dual(a, b, c, e) for e in r] for c in r] for b in r] for a in r]
    # g^-1 to second order: with E = g - g(p), which vanishes at the point,
    # g^-1 = (1 - X + X X) gi for X = gi E, as X^3 is of third order
    x = [[sum(gi[i][a] * (g[a][l] - g[a][l].v) for a in r) for l in r]
         for i in r]
    xx = [[sum(x[i][a] * x[a][l] for a in r) for l in r] for i in r]
    gid = [[gi[i][l] + sum((xx[i][a] - x[i][a]) * gi[a][l] for a in r)
            for l in r] for i in r]
    gamma, riem, ric, scal, weyl = curvature(n, g, dg, ddg, gid)
    # Gamma^p_fi with its first partials, by (f, i), nonzero ones only
    conn = {(f, i): [(p, gamma[p, f, i].v, gamma[p, f, i].d) for p in r
                     if gamma[p, f, i]] for f in r for i in r}
    hess = {fe: s for s, fe in enumerate(upper(n))}

    def nabla(t):
        """nabla_f t_idx = d_f t_idx - sum_s Gamma^p_{f idx_s} t_idx[s->p]."""
        out = {}
        for idx, x in t.items():
            for f in r:
                acc = x.d[f]
                for s, i in enumerate(idx):
                    for p, gm, _ in conn[f, i]:
                        acc -= gm * t[idx[:s] + (p,) + idx[s + 1:]].v
                out[(f,) + idx] = acc
        return out

    def d_nabla(t, e, f, *idx):
        """d_e of nabla_f t_idx, by the product rule on each Christoffel
        term."""
        acc = t[idx].h[hess[min(e, f), max(e, f)]]
        for s, i in enumerate(idx):
            for p, gm, dgm in conn[f, i]:
                y = t[idx[:s] + (p,) + idx[s + 1:]]
                acc -= dgm[e] * y.v + gm * y.d[e]
        return acc

    def nabla2(t, nt, e, f, *idx):
        """nabla_e nabla_f t_idx: `d_nabla`, less the corrections of the
        slots (f,) + idx of nt = nabla(t)."""
        acc = d_nabla(t, e, f, *idx)
        fidx = (f,) + idx
        for s, i in enumerate(fidx):
            for p, gm, _ in conn[e, i]:
                acc -= gm * nt[fidx[:s] + (p,) + fidx[s + 1:]]
        return acc

    out = {"gamma": {k: x.v for k, x in gamma.items()},
           "scalar": {(): scal.v},
           "nabla_scalar": {(f,): scal.d[f] for f in r}}
    for name, t in (("riemann", riem), ("ricci", ric), ("weyl", weyl)):
        out[name] = {k: x.v for k, x in t.items()}
        out[f"nabla_{name}"] = nabla(t)
    out["nabla2_riemann"] = antisymmetric(n, lambda *idx: nabla2(
        riem, out["nabla_riemann"], *idx), 0, lead=2)
    out["nabla2_ricci"] = {idx: nabla2(ric, out["nabla_ricci"], *idx)
                           for idx in itertools.product(r, repeat=4)}
    nabla2_scal = {(e, f): nabla2({(): scal}, out["nabla_scalar"], e, f)
                   for e, f in itertools.product(r, repeat=2)}
    # nabla nabla C: the Weyl formula on nabla nabla of Riemann, Ricci, R
    out["nabla2_weyl"] = weyl_formula(
        n, [[x.v for x in row] for row in g], out["nabla2_riemann"],
        out["nabla2_ricci"], nabla2_scal, lead=2)
    # alpha_i = N_i / D, so D^2 d_j alpha_i = D d_j N_i - N_i d_j D
    nw, cs = out["nabla_weyl"], [(k, x) for k, x in weyl.items() if x]
    den = sum(x.v * x.v for _, x in cs)
    num = [sum(nw[(i,) + k] * x.v for k, x in cs) for i in r]
    d_den = [2 * sum(x.v * x.d[j] for _, x in cs) for j in r]
    d_num = {(j, i): sum((d_nabla(weyl, j, i, *k) * x.v if x.v else 0)
                         + nw[(i,) + k] * x.d[j] for k, x in cs)
             for j in r for i in r}
    alpha = [x / den for x in num]
    d_alpha = {(j, i): (den * d_num[j, i] - num[i] * d_den[j]) / den ** 2
               for j in r for i in r}
    return out, {"recurrence": {(i,): alpha[i] for i in r},
                 "nabla_alpha": {(j, i): d_alpha[j, i] - sum(
                     gamma[p, j, i].v * alpha[p] for p in r)
                     for j in r for i in r}}


@functools.cache
def textbook(name):
    """The exact K = 4 bundle at the first sample point of config `name`,
    and `textbook_curvature` there."""
    spec, config = parse_metric_config(json.dumps(
        {**CONFIGS[name], "mode": "exact", "jet_order": 4}))
    point = sample_points(spec, config.points)[0]
    return (CurvatureBundle(metric_at_point(spec, point, 4)),
            *textbook_curvature(spec, point))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bundle_equals_textbook_curvature(name):
    b, want, _ = textbook(name)
    for attr in ("weyl", "nabla_weyl", "nabla2_weyl"):
        assert any(want[attr].values()), \
            f"the oracle should see a nonzero {attr}"
    for attr, values in want.items():
        got = getattr(b, attr)
        for idx, x in values.items():
            assert got[idx] == x, (attr, idx)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_alpha_equals_textbook_quotient_rule(name):
    b, _, want = textbook(name)
    assert any(want["nabla_alpha"].values()), \
        "the oracle should see a nonzero nabla alpha"
    got = {"recurrence": b.recurrence[0], "nabla_alpha": b.nabla_alpha}
    for attr, values in want.items():
        for idx, x in values.items():
            assert got[attr][idx] == x, (attr, idx)
