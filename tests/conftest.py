"""Shared fixtures: metric specs and curvature contexts reused across tests."""
import itertools
import math
import operator
from fractions import Fraction as F

import pytest

from ppcheck import build_galaev, build_perturbed_minkowski, build_ppwave
from ppcheck.checks import PointContext
from ppcheck.geometry import (CurvatureBundle, OrderBudgetError, _orbits,
                              metric_at_point)
from ppcheck.jets import (EXACT, FLOAT, Jet, _tables, as_mode,
                          derivative_numerators, jet_from_polynomial,
                          jet_recip, mac)
from ppcheck.linalg import SingularMatrixError
from ppcheck.polynomials import Polynomial, parse_polynomial
from ppcheck.tensors import CON, COV, Tensor, Values

NC4 = ("u", "x1", "x2", "v")
NC5 = ("u", "x1", "x2", "x3", "v")


def poly(text, coords=NC4):
    return parse_polynomial(text, coords)


def make_ctx(spec, point, mode=EXACT, order=4, field_coeffs=(1, 1)):
    m = metric_at_point(spec, point, order, mode)
    return PointContext(spec=spec, point=point, mode=mode,
                        bundle=CurvatureBundle(m), field_coeffs=field_coeffs)


def jet(dim, order, coeffs, mode=EXACT):
    """The jet whose Taylor coefficients are `coeffs` (exponent tuple ->
    number): that of their polynomial at the origin."""
    chart = tuple(f"x{i}" for i in range(dim))
    return jet_from_polynomial(Polynomial(chart, coeffs), (0,) * dim, order,
                               mode)


def jet_block(dim, variance, jets: dict, order, mode):
    """The Tensor of jets keyed by offset, each of `order` or above, cut to
    `order` and put over the lcm of their denominators: one list for each
    nonzero jet, shared with no other offset."""
    jets = {o: e.truncate(order) for o, e in jets.items()}
    assert all(e.order == order and e.mode == mode for e in jets.values())
    jets = {o: e for o, e in jets.items() if e}
    den = 1 if mode == FLOAT else math.lcm(*(e.den for e in jets.values()))
    return Tensor(dim, variance, {o: [x * (den // e.den) for x in e.c]
                                  for o, e in jets.items()}, den, order, mode)


def jet_tensor(dim, variance, jets, zero):
    """The Tensor of a dense list of jets of the order and mode of `zero`,
    a zero jet."""
    return jet_block(dim, variance, dict(enumerate(jets)), zero.order,
                     zero.mode)


def entries(t):
    """A new dense list of t's entries: the jets of a Tensor, or the
    numbers of Values."""
    if isinstance(t, Values):
        return t.entries
    return [t[o] for o in range(t.dim ** t.rank)]


def dense(dim, variance, entries, zero):
    """Entries as what holds them: a Tensor of jets, `zero` (a zero jet)
    where one vanishes, or the Values of numbers."""
    if isinstance(zero, Jet):
        return jet_tensor(dim, variance, entries, zero)
    return Values.of(dim, variance, entries)


def du_jets(ctx):
    """X = du as a Tensor of constant jets at the bundle's order."""
    n, order = ctx.bundle.dim, ctx.bundle.metric.order
    return jet_block(n, COV, {0: Jet.constant(n, order, 1, ctx.mode)},
                     order, ctx.mode)


def zero_of(x):
    """The zero a sum of terms like x starts from: the zero jet of x's
    shape, 0.0, or Fraction(0) for an exact number."""
    if isinstance(x, Jet):
        return Jet.zero(x.dim, x.order, x.mode)
    return 0.0 if isinstance(x, float) else F(0)


def truncated(t, order):
    """The Tensor of t's jets truncated to `order`."""
    return jet_block(t.dim, t.variance, dict(enumerate(entries(t))), order,
                     t.mode)


def naive_raise_lower(t, slot, metric):
    """out[J] = sum_p t[J with p in the slot] * metric[J[slot], p], over a
    Tensor of jets or Values, tuple by tuple."""
    n, zero = t.dim, zero_of(entries(t)[0])
    out = []
    for idx in itertools.product(range(n), repeat=t.rank):
        acc = zero
        for p in range(n):
            e = t[idx[:slot] + (p,) + idx[slot + 1:]]
            acc = acc + e * metric[idx[slot], p]
        out.append(acc)
    flip = "u" if t.variance[slot] == "l" else "l"
    return dense(n, t.variance[:slot] + flip + t.variance[slot + 1:], out,
                 zero)


def naive_contract(t, a, b, metric=None):
    """Tuple-indexed contraction of a Tensor of jets or Values: p-then-q
    sums that skip zero factors and start from the first nonzero term; an
    empty sum is zero_of(entry 0)."""
    n, r = t.dim, t.rank
    keep = [s for s in range(r) if s not in (a, b)]
    out = []
    for out_idx in itertools.product(range(n), repeat=len(keep)):
        acc = None
        for p in range(n):
            for q in (range(n) if metric is not None else (p,)):
                m = metric[p, q] if metric is not None else None
                if m is not None and not m:
                    continue
                full = [0] * r
                for pos, s in enumerate(keep):
                    full[s] = out_idx[pos]
                full[a], full[b] = p, q
                term = t[tuple(full)]
                if not term:
                    continue
                if m is not None:
                    term = term * m
                acc = term if acc is None else acc + term
        out.append(zero_of(entries(t)[0]) if acc is None else acc)
    return dense(n, "".join(t.variance[s] for s in keep), out,
                 zero_of(entries(t)[0]))


def _at_point(x):
    return x.value if isinstance(x, Jet) else x


def jet_solve(a, b):
    """X with a·X = b by Gauss-Jordan elimination on a matrix of jets (or
    numbers), with partial pivoting on the values at the point.

    A jet whose constant term is nonzero is a unit of the truncated jet
    ring, so the loop inverts a jet matrix exactly to its order: each jet
    pivot is inverted with `jet_recip`, and every product reduces as it
    goes.  A column with no nonzero value at the point raises
    SingularMatrixError.  The reference for the inverse metric series of
    `metric_at_point`, by an independent algorithm."""
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


def reference_inverse(m):
    """g^{-1} as jets of g's own order K, by `jet_solve(g, identity)`."""
    n, order, mode = m.dim, m.order, m.mode
    one, zero = Jet.constant(n, order, 1, mode), Jet.zero(n, order, mode)
    inv = jet_solve([[m.g[i, j] for j in range(n)] for i in range(n)],
                    [[one if i == j else zero for j in range(n)]
                     for i in range(n)])
    return jet_tensor(n, CON * 2, [x for row in inv for x in row], zero)


def reference_gamma(m):
    """Gamma^i_jk = g^{il} (d_j g_lk + d_k g_lj - d_l g_jk) / 2 as jets of
    order K-1, one order above the bundle's, on the reference inverse and
    plain jet arithmetic."""
    n, order, mode = m.dim, m.order - 1, m.mode
    ginv = truncated(reference_inverse(m), order)
    half, zero = as_mode(F(1, 2), mode), Jet.zero(n, order, mode)
    out = []
    for i, j, k in itertools.product(range(n), repeat=3):
        acc = zero
        for l in range(n):
            acc = acc + ginv[i, l] * (m.g[l, k].derivative(j)
                                      + m.g[l, j].derivative(k)
                                      - m.g[j, k].derivative(l))
        out.append(acc * half)
    return jet_tensor(n, CON + COV * 2, out, zero)


def textbook_riemann_jets(b):
    """(R_jklm, R_ij) as jets, by the textbook route: the mixed

        R_jkl^m = d_k Gamma^m_jl - d_j Gamma^m_kl
                  + Gamma^m_kp Gamma^p_jl - Gamma^m_jp Gamma^p_kl

    from the jets of `reference_gamma`, lowered by g, and R_ij = -R_kij^k;
    a reference that goes through none of the bundle's Christoffel
    symbols, its inverse metric series or its orbit fill."""
    n, gam = b.dim, reference_gamma(b.metric)
    order = b.metric.order - 2
    trunc, zero = truncated(gam, order), Jet.zero(n, order, b.mode)
    mixed = []
    for j, k, l, m in itertools.product(range(n), repeat=4):
        acc = (gam[m, j, l].derivative(k, "reference")
               - gam[m, k, l].derivative(j, "reference"))
        for p in range(n):
            acc = (acc + trunc[m, k, p] * trunc[p, j, l]
                   - trunc[m, j, p] * trunc[p, k, l])
        mixed.append(acc)
    mixed = jet_tensor(n, COV * 3 + CON, mixed, zero)
    riem = naive_raise_lower(mixed, 3, truncated(b.metric.g, order))
    ric = naive_contract(mixed, 0, 3)
    return riem, jet_tensor(n, COV * 2, [-e for e in entries(ric)], zero)


def textbook_weyl_jets(b):
    """The bundle's Weyl tensor as jets, from the textbook two-term formula

        C_jklm = R_jklm - (g_jl R_km - g_jm R_kl - g_kl R_jm + g_km R_jl)/(n-2)
                 + R (g_jl g_km - g_jm g_kl) / ((n-1)(n-2))

    on the textbook Riemann and Ricci jets, with R the g_inv trace of the
    Ricci jets; a reference that does not go through the bundle's Weyl
    kernel or its curvature assembly."""
    n, mode = b.dim, b.mode
    riem, ric = textbook_riemann_jets(b)
    order = riem.order
    g = truncated(b.metric.g, order)
    scal = entries(naive_contract(ric, 0, 1,
                                  truncated(b.metric.g_inv, order)))[0]
    c1 = as_mode(F(1, n - 2), mode)
    c2 = as_mode(F(1, (n - 1) * (n - 2)), mode)
    return jet_tensor(n, COV * 4, [
        riem[j, k, l, m]
        - (g[j, l] * ric[k, m] - g[j, m] * ric[k, l]
           - g[k, l] * ric[j, m] + g[k, m] * ric[j, l]) * c1
        + scal * (g[j, l] * g[k, m] - g[j, m] * g[k, l]) * c2
        for j, k, l, m in itertools.product(range(n), repeat=4)],
        Jet.zero(n, order, mode))


def _dense_fill(out, base, images, a, neg):
    na = neg(a)
    for img, sign in images:
        out[base + img] = a if sign > 0 else na


def dense_covariant_derivative(t, gamma, context="covariant derivative",
                               riemann=False):
    """nabla t, the orbit gather over every (leading offset, orbit) pair,
    on t's and gamma's blocks, into a block of output jets or a dict of
    numerators.  With `riemann`, t's last four slots have Riemann's
    symmetries, and it is the reference for `geometry.covariant_derivative`:
    the same sums in the same order, so its results are equal to the sparse
    kernel's, and bit-equal in float mode.  Without, each offset is its own
    orbit, a covariant derivative of any jet tensor."""
    n, order, mode = t.dim, t.order, t.mode
    if order == 0:
        raise OrderBudgetError(
            f"jet order exhausted: {context} would need order >= 1")
    width, orbits = (4, _orbits(n)) if riemann else (0, ((0, ((0, 1),)),))
    rank = t.rank
    if isinstance(gamma, Values):
        src = {o: c[0] for o, c in t.num.items() if c[0]}
        gam, dg, neg = gamma.num, gamma.den, operator.neg
        first = [_tables(n, 1).deriv[i][0][0] for i in range(n)]

        def entry(c, pairs):
            out = []
            for j, ps in zip(first, pairs):
                a = c[j] * dg if c else 0
                for x, g in ps:
                    a += x * g
                out.append(a)
            return out
    else:
        low = min(order - 1, gamma.order)
        gam, dg, src = gamma.lists(low), gamma.den, t.lists(low)
        tab = _tables(n, low)
        zero = tab.zero[mode].c

        def neg(g):
            return [-x for x in g]

        def entry(c, pairs):
            out = []
            for i, ps in enumerate(pairs):
                a = mac(derivative_numerators(c, n, low, i, dg) if c else
                        zero.copy(), tab, ps)
                out.append(a if any(a) else None)
            return out
    out = {}
    con = [[(i, p, g) for i in range(n) for p in range(n)
            for g in (gam.get((v * n + i) * n + p),) if g] for v in range(n)]
    cov = [[(i, p, neg(g)) for i in range(n) for p in range(n)
            for g in (gam.get((p * n + i) * n + v),) if g] for v in range(n)]
    slots = [(w, [[(i, p * w, g) for i, p, g in tv]
                  for tv in (con if var == CON else cov)])
             for s, var in enumerate(t.variance)
             for w in (n ** (rank - 1 - s),)]
    stride = n ** rank
    for base in range(0, stride, n ** width):
        for rep, images in orbits:
            off = base + rep
            pairs = [[] for _ in range(n)]
            for w, terms in slots:
                v = off // w % n
                rest = off - v * w
                for i, step, g in terms[v]:
                    x = src.get(rest + step)
                    if x:
                        pairs[i].append((x, g))
            for i, a in enumerate(entry(t.num.get(off), pairs)):
                if a:
                    _dense_fill(out, i * stride + base, images, a, neg)
    if isinstance(gamma, Values):
        return Values(n, COV + t.variance, out, t.den * dg,
                      0 if mode == EXACT else 0.0)
    return Tensor(n, COV + t.variance, out, t.den * dg, low, mode).normal()


@pytest.fixture(scope="session")
def flagship_spec():
    zero = parse_polynomial("0", NC5)
    return build_galaev(3, [1, 1, -2], zero, parse_polynomial("u", NC5))


@pytest.fixture(scope="session")
def flagship_ctx(flagship_spec):
    pt = (F(1), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))
    return make_ctx(flagship_spec, pt)


@pytest.fixture(scope="session")
def flagship_ctx_u2(flagship_spec):
    pt = (F(2), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))
    return make_ctx(flagship_spec, pt)


@pytest.fixture(scope="session")
def perturbed_spec():
    return build_perturbed_minkowski(seed=7)


@pytest.fixture(scope="session")
def perturbed_ctx(perturbed_spec):
    pt = (F(1, 3), F(-1, 5), F(2, 7), F(1, 11))
    return make_ctx(perturbed_spec, pt)


@pytest.fixture(scope="session")
def vacuum_ctx():
    spec = build_ppwave(poly("x1^2 - x2^2"), d=2)
    return make_ctx(spec, (F(1, 2), F(1, 3), F(-1, 5), F(2, 7)))


@pytest.fixture(scope="session")
def quartic_ctx():
    spec = build_ppwave(poly("x1^4"), d=2)
    return make_ctx(spec, (F(1, 2), F(1, 3), F(-1, 5), F(2, 7)))
