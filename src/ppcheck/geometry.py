"""From metric jets at a point to the full curvature bundle.

Everything is evaluated pointwise: metric components become jets, the
Levi-Civita connection and curvature tensors are assembled from them, and
covariant derivatives consume one jet order each.  A conformal rescaling
factor * g is applied to the point's jets (`rescaled`), not to the metric's
polynomials: g's jets times the factor jet, g^{-1}'s times its reciprocal.

Jets are kept only where a derivative is taken: the metric, the
Christoffel symbols of both kinds, Riemann and nabla Riemann, each only to
the order that is read: for g's jets of order K, Gamma_{l,jk} is of order
K-1 and g^{-1}, Gamma^i_jk and Riemann of order K-2.  nabla nabla Riemann
is taken from these jets straight to point values (tensors.Values), and
all else is computed from point values; a check reads each of them, in
one normal form, from a `stage` of CurvatureBundle.  As nabla g = 0,
nabla^L Ricci is a -g^{-1} trace of nabla^L Riemann's values, R and
nabla R are g^{-1} traces of Ricci's values, and nabla commutes with the
Weyl decomposition: C, nabla C, nabla nabla C and Delta C are that
decomposition, in Schouten form, of the values of nabla^L (or Delta) of
Riemann, Ricci and R; only Riemann is differentiated.

A jet tensor (tensors.Tensor) is one block of coefficient lists over one
denominator, for its nonzero jets only.  Every kernel here reads the
lists as they are, puts its output block in normal form once, and visits
those jets and the orbits they reach, never the n^rank index space: a
pp-wave's curvature lives in R_{uiuj} alone.

Riemann and its covariant derivatives are computed once per orbit of
Riemann's pair symmetries on their last four slots, and the rest of the
orbit is filled with that entry or its negation (Martin-Garcia, xPerm,
Comput. Phys. Commun. 179:597, 2008).  Each such entry, like each
Christoffel symbol of the second kind, is one sum of jet products on
integer numerators (`jets.mac`); a second covariant
derivative is the same gather at order 0, on numbers, into sparse Values.
Each sums the same nonzero terms in the same order as a visit of every
index would, so exact results are identical and float ones bit-identical.
The pair symmetries hold by construction, as every entry of an orbit is
written from its representative, so they are not checked at run time;
the cyclic identity, which no orbit fill imposes, is what `bianchi` tests.

Sign convention: R_jklm is R_jkl^m = d_k Gamma^m_jl - d_j Gamma^m_kl +
Gamma^m_kq Gamma^q_jl - Gamma^m_jq Gamma^q_kl lowered by g, with the sign
chosen so that R_ij = -g^{km} R_kijm reproduces psi = -1/2 * sum_rho
d^2 H/dx_rho^2 on pp-wave potentials, as the convention-oracle test pins.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache

from . import linalg
from .jets import (EXACT, Jet, OrderBudgetError, _tables, as_mode,
                   derivative_numerators, jet_from_polynomial, jet_recip, mac)
from .tensors import COV, CON, Tensor, Values, contract, raise_lower


class DegeneratePointError(ValueError):
    """Metric determinant vanishes at the sample point."""


class UnsupportedDimensionError(ValueError):
    """The Weyl tensor needs dimension at least 4."""


class MetricAtPoint:
    """Symmetric metric jets g of order `order` (K) at one point, and the
    inverse metric jets g^{-1} of order max(K - 2, 0), the deepest any
    consumer reads (Gamma^i_jk, for nabla and Riemann)."""

    def __init__(self, g: Tensor, g_inv: Tensor, mode: str, order: int):
        self.g = g
        self.g_inv = g_inv
        self.mode = mode
        self.order = order
        self.dim = g.dim


def _inverse_order(order: int) -> int:
    """The order of g^{-1}'s jets for g's jets of `order`."""
    return max(order - 2, 0)


def metric_at_point(spec, point, order: int, mode: str = EXACT) -> MetricAtPoint:
    """Evaluate a MetricSpec's component jets at a chart point.

    g is symmetric, so each pair i <= j is expanded once and its list
    shared by (i, j) and (j, i), over the lcm of the jets' denominators.
    g^{-1} is the power series on the inverse at the point, X0 = g(p)^{-1}
    from `linalg.solve` on numbers: with H = g - g(p), which has no
    constant term, X = X0 - X0 H X, so X <- X0 - (X0 H) X gives X0 from
    X = 0 and then gains one order a step, and _inverse_order(order) more
    steps give the unique truncated inverse (Geddes, Czapor & Labahn,
    Algorithms for Computer Algebra, ch. 4).  Every iterate is symmetric,
    so entry (i, j) is formed for i <= j only, as one sum on integer
    numerators (`jets.mac`) over the nonzero entries of X0 H and X, and
    each iterate is put in normal form once (`Tensor.normal`); X0 is made
    symmetric too, by its upper triangle, so that float g^{-1}(p) does not
    depend on K.  Degeneracy is detected by the solve: a pivot column of
    g(p) with no nonzero entry (det g = 0 there) raises
    DegeneratePointError.
    """
    n = spec.n
    point = tuple(as_mode(x, mode) for x in point)
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, metric has {n}")
    jets = {}
    for i in range(n):
        for j in range(i, n):
            e = jet_from_polynomial(spec.components[i][j], point, order, mode)
            if e:
                jets[i * n + j] = jets[j * n + i] = e
    den = math.lcm(*(e.den for e in jets.values()))   # so in normal form
    lists = {id(e): [x * (den // e.den) for x in e.c] for e in jets.values()}
    g = Tensor(n, COV * 2, {o: lists[id(e)] for o, e in jets.items()}, den,
               order, mode)
    one, zero = as_mode(1, mode), as_mode(0, mode)
    try:
        x0 = linalg.solve([[g[i, j].value for j in range(n)]
                           for i in range(n)],
                          [[one if i == j else zero for j in range(n)]
                           for i in range(n)])
    except linalg.SingularMatrixError:
        raise DegeneratePointError(
            f"metric degenerate at point {point}") from None
    low = _inverse_order(order)
    t = _tables(n, low)
    blank = t.zero[mode].c
    # the upper triangle, mirrored: a float solve is symmetric only to rounding
    x0 = [x0[min(i, j)][max(i, j)] for i in range(n) for j in range(n)]
    if mode == EXACT:                       # X0 as integers over d0
        d0 = math.lcm(*(x.denominator for x in x0))
        x0 = [x.numerator * (d0 // x.denominator) for x in x0]
    else:
        d0 = 1
    # H = g - g(p) over g's den
    h = {o: [0] + c[1:t.size] for o, c in g.lists(low).items()
         if any(c[1:t.size])}
    # -P = -X0 H over d0 * g.den, with -X0's entries as order-0 coefficients
    neg_x0 = [[-v] for v in x0]
    neg_p = {}
    for i in range(n):
        for k in range(n):
            c = mac(blank.copy(), t, zip(neg_x0[i * n:(i + 1) * n],
                                         map(h.get, range(k, n * n, n))))
            if any(c):
                neg_p[i * n + k] = c
    x = Tensor(n, CON * 2, {}, 1, low, mode)
    for _ in range(low + 1):
        scale = g.den * x.den               # X0's place over d0 * scale
        num = {}
        for i in range(n):
            for j in range(i, n):
                acc = blank.copy()
                acc[0] = x0[i * n + j] * scale
                num[i * n + j] = num[j * n + i] = mac(
                    acc, t, zip(map(neg_p.get, range(i * n, (i + 1) * n)),
                                map(x.num.get, range(j, n * n, n))))
        x = Tensor(n, CON * 2, num, d0 * scale, low, mode).normal()
    return MetricAtPoint(g, x, mode, order)


def rescaled(m: MetricAtPoint, factor: Jet) -> MetricAtPoint:
    """The metric jets of factor * g, at the order of the `factor` jet
    (or of m, if that is lower).

    g's jets are multiplied by `factor`, and g^{-1}'s by the reciprocal of
    `factor`, two orders lower, as `metric_at_point` keeps them.  The
    truncated inverse is unique, so in exact mode these are literally the
    jets `metric_at_point` builds from the rescaled components.
    """
    order = min(m.order, factor.order)
    recip = jet_recip(factor.truncate(_inverse_order(order)),
                      "conformal factor")

    def times(t, f):        # one product per distinct list of t
        tab = _tables(t.dim, min(t.order, f.order))
        done = {id(c): mac(tab.zero[t.mode].c.copy(), tab, ((c, f.c),))
                for c in {id(c): c for c in t.num.values()}.values()}
        return Tensor(t.dim, t.variance,
                      {o: done[id(c)] for o, c in t.num.items()},
                      t.den * f.den, tab.order, t.mode).normal()
    return MetricAtPoint(times(m.g, factor), times(m.g_inv, recip),
                         m.mode, order)


# -- connection and curvature ------------------------------------------------


def christoffel(m: MetricAtPoint) -> tuple[Tensor, Tensor]:
    """Levi-Civita symbols of the first kind, Gamma_{l,jk} = (d_j g_lk +
    d_k g_lj - d_l g_jk)/2, jets of order K-1 (Riemann differentiates
    them), and of the second, Gamma^i_{jk} = g^{il} Gamma_{l,jk}, jets of
    g^{-1}'s order, K-2 (every reader takes them at or below it); slots
    (l, j, k) and (i, j, k).  In exact mode the first kind is formed over
    2 den(g) and the second from those lists, so neither is halved.  A
    symbol of the first kind whose three derivatives of g vanish is not
    formed, and one of the second kind sums over the nonzero ones only."""
    n, order, mode, g = m.dim, m.g_inv.order, m.mode, m.g
    if g.order == 0:
        raise OrderBudgetError("jet order exhausted taking a derivative "
                               "(requested by christoffel)")
    dg = {}                                 # (l*n + k)*n + j: d_j g_{lk}
    for lk, c in g.num.items():
        l, k = divmod(lk, n)
        if l <= k:                          # g_{kl} is the same list
            for j in range(n):
                d = derivative_numerators(c, n, g.order - 1, j)
                if any(d):
                    dg[lk * n + j] = dg[(k * n + l) * n + j] = d
    t = _tables(n, order)
    zero1 = _tables(n, g.order - 1).zero[mode].c
    half, den1 = (1, 2 * g.den) if mode == EXACT else (0.5, 1)
    first, second = {}, {}
    ginv = m.g_inv.lists(order)
    for j in range(n):
        for k in range(j, n):
            low = {}
            for l in range(n):
                a, b, c = (dg.get((l * n + k) * n + j),
                           dg.get((l * n + j) * n + k),
                           dg.get((j * n + k) * n + l))
                if a or b or c:
                    v = [(x + y - z) * half for x, y, z in
                         zip(a or zero1, b or zero1, c or zero1)]
                    if any(v):
                        low[l] = first[(l * n + j) * n + k] = \
                            first[(l * n + k) * n + j] = v
            for i in range(n):
                pairs = [(ginv[i * n + l], c) for l, c in low.items()
                         if i * n + l in ginv]
                if pairs:
                    second[(i * n + j) * n + k] = \
                        second[(i * n + k) * n + j] = mac(t.zero[mode].c.copy(),
                                                          t, pairs)
    return (Tensor(n, COV * 3, first, den1, g.order - 1, mode).normal(),
            Tensor(n, CON + COV * 2, second, m.g_inv.den * den1, order,
                   mode).normal())


# Riemann's symmetries on the last four slots of a tensor (antisymmetric in
# each pair, symmetric under the pair swap), as (slot permutation, sign)
# pairs: t[idx permuted] = sign * t[idx].
_RIEMANN_GROUP = (((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1),
                  ((1, 0, 3, 2), 1), ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1),
                  ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1))


@cache
def _orbits(n: int) -> tuple:
    """Orbits of Riemann's symmetries on the n^4 offsets of a block of four
    slots, as (rep, images): rep the smallest offset of the orbit, images
    its (offset, sign) pairs, rep first with sign 1, so that t[image] =
    sign * t[rep].  An offset the symmetries force to vanish (an entry equal
    to its own negative) is in no orbit.
    """
    seen, orbits = set(), []
    for rep, idx in enumerate(itertools.product(range(n), repeat=4)):
        if rep in seen:
            continue
        signs = {}
        for perm, sign in _RIEMANN_GROUP:
            img = 0
            for p in perm:
                img = img * n + idx[p]
            signs.setdefault(img, set()).add(sign)
        seen.update(signs)
        if all(len(s) == 1 for s in signs.values()):
            orbits.append((rep, tuple((img, s.pop())
                                      for img, s in signs.items())))
    return tuple(orbits)


@cache
def _orbit_index(n: int) -> list:
    """For each offset of a block of four slots, the number of its orbit in
    `_orbits`, or -1 where Riemann's symmetries force it to vanish."""
    index = [-1] * n ** 4
    for k, (_, images) in enumerate(_orbits(n)):
        for img, _ in images:
            index[img] = k
    return index


@cache
def _near_orbits(n: int) -> list:
    """For each orbit k of `_orbits`, the orbits of the block offsets one
    slot change away from its representative, k among them."""
    index, near = _orbit_index(n), []
    for k, (rep, _) in enumerate(_orbits(n)):
        ks = {k}
        for w in (1, n, n * n, n ** 3):
            r = rep - rep // w % n * w
            ks.update(index[r:r + n * w:w])
        ks.discard(-1)
        near.append(tuple(ks))
    return near


def covariant_derivative(t: Tensor, gamma: Tensor | Values,
                         context: str = "covariant derivative"
                         ) -> Tensor | Values:
    """Prepend a covariant slot to t, a fully covariant jet tensor whose
    last four slots have Riemann's symmetries: (nabla t)_{i ...}.

    Each output entry is gathered on numerators over den(t) den(gamma),
    and a jet output is put in normal form once: d_i t[idx], minus
    Gamma^p_{iv} t[.. p ..] for each slot of value v, skipping zero symbols
    and inputs.  nabla keeps the symmetries, so only the representative of
    each orbit (`_orbits`) is computed, and the others are filled with it
    or its negation; the symmetries are not checked, so t must hold them
    literally, as the orbit fills of Riemann and nabla Riemann do.  Only
    the orbits within one slot change of a nonzero orbit representative of
    t are visited, in the order of their leading slots and then of
    `_orbits`; no other entry can be nonzero.

    The output is of order min(order of t - 1, order of gamma), as it reads
    gamma at that order; raises OrderBudgetError naming `context` when t's
    entries are order-0 jets.  Given gamma's point values (Values), it
    returns nabla t's point values and forms no jet: d_i t is read from
    t's first-order coefficients and the products are summed on integers.
    """
    n, order, mode = t.dim, t.order, t.mode
    if order == 0:
        raise OrderBudgetError(
            f"jet order exhausted: {context} would need order >= 1")
    orbits, rank, lists = _orbits(n), t.rank, t.num
    if isinstance(gamma, Values):           # to point values, on numbers
        gam, dg = gamma.num, gamma.den
        src = {o: c[0] for o, c in lists.items() if c[0]}
        first = [_tables(n, 1).deriv[i][0][0] for i in range(n)]

        def entry(c, pairs):    # d_i t at the point is its x_i coefficient
            out = []
            for j, ps in zip(first, pairs):
                a = c[j] * dg if c else 0
                for x, g in ps:
                    a += x * g
                out.append(a)
            return out
    else:                                   # the output order
        low = min(order - 1, gamma.order)
        gam, dg = gamma.lists(low), gamma.den
        src = t.lists(low)
        tab = _tables(n, low)
        blank = tab.zero[mode].c

        def entry(c, pairs):    # None for a list that vanishes
            out = []
            for i, ps in enumerate(pairs):
                a = mac(derivative_numerators(c, n, low, i, dg) if c else
                        blank.copy(), tab, ps) if c or ps else blank
                out.append(a if any(a) else None)
            return out
    # cov[v]: (i, p, G) for each nonzero G = -Gamma^p_iv that feeds a
    # slot of value v in output entry (i; ..) from the input with that slot
    # at p; gam[(a*n + b)*n + c] is Gamma^a_{bc}.  For each (v, i) the p
    # run in ascending order.
    cov = [[] for _ in range(n)]
    for o, g in sorted(gam.items()):
        if g:
            a, b, c = o // (n * n), o // n % n, o % n
            cov[c].append((b, a, _negated(g)))
    weights = [n ** (rank - 1 - s) for s in range(rank)]
    slots = [(w, [[(i, p * w, g) for i, p, g in tv]    # p as an offset step
                  for tv in cov]) for w in weights]
    # the orbits, by leading offset, within one slot change of a nonzero
    # representative: an entry fed by an orbit's image is fed by its
    # representative in the image of that entry
    index, near, block = _orbit_index(n), _near_orbits(n), n ** 4
    lead = [w for w in weights if w >= block]
    visit = {}
    for o in lists:
        b = o % block
        k = index[b]
        if k < 0 or orbits[k][0] != b:
            continue
        base = o - b
        visit.setdefault(base, set()).update(near[k])
        for w in lead:
            r = base - base // w % n * w
            for q in range(r, r + n * w, w):
                visit.setdefault(q, set()).add(k)
    stride = n ** rank                          # weight of the new slot i
    out = {}
    for base, k in sorted((base, k) for base, ks in visit.items()
                          for k in ks):
        rep, images = orbits[k]
        off = base + rep
        pairs = [[] for _ in range(n)]          # (input, G) for entry (i; ..)
        for w, terms in slots:
            v = off // w % n
            rest = off - v * w
            for i, step, g in terms[v]:
                x = src.get(rest + step)
                if x:
                    pairs[i].append((x, g))
        for i, a in enumerate(entry(lists.get(off), pairs)):
            if a:
                _fill(out, i * stride + base, images, a)
    if isinstance(gamma, Values):
        return Values(n, COV + t.variance, out, t.den * dg,
                      0 if mode == EXACT else 0.0)
    return Tensor(n, COV + t.variance, out, t.den * dg, low, mode).normal()


def _fill(out: dict, base: int, images, a):
    """Write a, or its negation where the sign is negative, at base + each
    image offset of an orbit (`_orbits`)."""
    neg = _negated(a)
    for img, sign in images:
        out[base + img] = a if sign > 0 else neg


def _negated(a):
    """-a, for a number or a coefficient list."""
    return [-x for x in a] if isinstance(a, list) else -a


class stage:
    """`@stage(needs)`: a CurvatureBundle attribute computed on its first
    read, which raises OrderBudgetError naming it if g's jets are of an
    order K below `needs`, and then kept on the instance, so that later
    reads are plain attribute lookups.  Point values (Values) are put in
    normal form here (`Values.normal`), and nowhere else in this module, so
    the kernels that read them work on the smallest numbers and see a
    jet's zero.  Read from the class, it is itself."""

    def __init__(self, needs: int):
        self.needs = needs

    def __call__(self, method):
        self.method, self.__doc__ = method, method.__doc__
        return self

    def __get__(self, bundle, owner=None):
        if bundle is None:
            return self
        name, order = self.method.__name__, bundle.metric.order
        if order < self.needs:
            raise OrderBudgetError(
                f"{name} needs jet order {self.needs}, run has K={order}")
        value = self.method(bundle)
        if isinstance(value, Values):
            value = value.normal()
        bundle.__dict__[name] = value
        return value


class CurvatureBundle:
    """All curvature data of one metric at one point, computed lazily.

    Every attribute is a `stage`.  Those a check reads are point values
    (Values, see tensors): the metric's `g` and `g_inv`, `gamma` (Gamma^i_jk),
    `riemann`, `ricci`, `nabla_ricci` and `nabla2_ricci` (`_ricci`), the
    Weyl forms (`_weyl_part`, and `weyl_mixed`, `nabla_weyl_mixed` with the
    last slot raised), `scalar`, `nabla_scalar`, `nabla_riemann`,
    `nabla2_riemann`, the divergences and Laplacians.  The jet stages they
    are taken from are Tensors of jets, to the orders the module docstring
    gives: `christoffels` (both kinds), `riemann_jets` and
    `nabla_riemann_jets`.  Each stage states the least order K of g's jets
    (`metric.order`) it needs: 1 for the Christoffel symbols, 2 for
    curvature, and one more for each covariant derivative in it.
    """

    def __init__(self, metric: MetricAtPoint):
        self.metric = metric
        self.dim = metric.dim
        self.mode = metric.mode

    @stage(0)
    def g(self) -> Values:
        """The metric g_ij."""
        return self.metric.g.values()

    @stage(0)
    def g_inv(self) -> Values:
        """The inverse metric g^ij."""
        return self.metric.g_inv.values()

    def _raised(self, t: Values) -> Values:
        """t with the last slot raised."""
        return raise_lower(t, t.rank - 1, self.g_inv)

    # -- connection and curvature -----------------------------------------

    @stage(1)
    def christoffels(self) -> tuple[Tensor, Tensor]:
        """(Gamma_{l,jk}, Gamma^i_{jk}): the symbols of both kinds."""
        return christoffel(self.metric)

    @stage(1)
    def gamma(self) -> Values:
        """Gamma^i_{jk}, the symbols of the second kind."""
        return self.christoffels[1].values()

    @stage(2)
    def riemann_jets(self) -> Tensor:
        """Fully covariant R_{jklm}, jets of order K-2, one sum per orbit of
        its pair symmetries that a nonzero symbol enters: R_jkl^m
        lowered by g, with d_k g_pm = Gamma_{p,km} + Gamma_{m,kp}.  The
        global sign is fixed by the pp-wave Ricci oracle."""
        n, order, mode = self.dim, self.metric.order - 2, self.mode
        first, second = self.christoffels   # [q, a, b] at q*n^2 + a*n + b
        t = _tables(n, order)
        g1, g2 = first.lists(order + 1), second.lists(order)
        d2 = second.den
        neg2 = {o: _negated(c) for o, c in g2.items()}
        n2, n3 = n * n, n ** 3

        # the orbits of the (j, k, l, m) whose entry reads a nonzero symbol:
        # Gamma_{m,ab} in d_k Gamma_{m,jl} at (a, k, b, m) and in
        # d_j Gamma_{m,kl} at (j, a, b, m); then, unless every orbit is
        # reached, the products Gamma_{q,jm} Gamma^q_kl and Gamma_{q,km}
        # Gamma^q_jl of nonzero symbols
        index, orbits = _orbit_index(n), _orbits(n)
        reached = set()
        for o in g1:
            m, a, b = o // n2, o // n % n, o % n
            reached.update(index[a * n3 + b * n + m:(a + 1) * n3:n2])
            reached.update(index[a * n2 + b * n + m::n3])
        reached.discard(-1)
        if len(reached) < len(orbits):
            for lo in range(0, n3, n2):
                fs = [o - lo for o in g1 if lo <= o < lo + n2]
                ss = [o - lo for o in g2 if lo <= o < lo + n2]
                reached.update(index[(f // n * n2 + s) * n + f % n]
                               for f in fs for s in ss)
                reached.update(index[((s // n * n + f // n) * n + s % n) * n
                                     + f % n] for f in fs for s in ss)
        out = {}
        for rep, images in (orbits[r] for r in sorted(reached) if r >= 0):
            j, k, l, m = (rep // n ** p % n for p in (3, 2, 1, 0))
            # d_k Gamma_{m,jl} + Gamma_{q,jm} Gamma^q_kl
            #   - (d_j Gamma_{m,kl} + Gamma_{q,km} Gamma^q_jl), over d1 * d2
            acc = t.zero[mode].c.copy()
            for x, y, s, g2s in ((j, k, d2, g2), (k, j, -d2, neg2)):
                c = g1.get((m * n + x) * n + l)
                if c:
                    acc = [u + v for u, v in zip(acc, derivative_numerators(
                        c, n, order, y, s))]
                mac(acc, t, zip(map(g1.get, range(x * n + m, n3, n2)),
                                map(g2s.get, range(y * n + l, n3, n2))))
            if any(acc):
                _fill(out, 0, images, acc)
        return Tensor(n, COV * 4, out, first.den * d2, order, mode).normal()

    @stage(2)
    def riemann(self) -> Values:
        """Fully covariant R_{jklm}."""
        return self.riemann_jets.values()

    @stage(2)
    def ricci(self) -> Values:
        """R_ij = -g^{km} R_{kijm}."""
        return self._ricci(self.riemann)

    def _trace(self, t: Values, a: int = 0) -> Values:
        """t with slots a and a + 1 traced by g^{-1}: a Laplacian for a = 0
        on a second derivative."""
        return contract(t, a, a + 1, self.g_inv)

    def _ricci(self, t: Values, a: int = 0) -> Values:
        """nabla^a R_ij = -g^{km} nabla^a R_{kijm}: t, nabla^a Riemann, with
        slots a and a + 3 traced by -g^{-1}."""
        return contract(t, a, a + 3, self.g_inv).scale(-1)

    @stage(2)
    def scalar(self) -> Values:
        """Scalar curvature R = g^{ij} R_ij."""
        return self._trace(self.ricci)

    def _weyl_part(self, riem: Values, ric: Values, scal: Values) -> Values:
        """nabla^L C_{jklm}: the Weyl decomposition, in Schouten form, of
        the values riem, ric and scal of nabla^L R_{jklm}, nabla^L R_kl and
        nabla^L R, derivative slots first.  nabla g = 0, so the
        decomposition commutes with nabla:

            C_jklm = R_jklm + g_jm P_kl - g_km P_jl + g_kl P_jm - g_jl P_km,
            P_kl = (R_kl - R g_kl / (2(n-1))) / (n-2).

        P is Values algebra; one loop adds the g P terms over the nonzero
        entries of P and the metric to R_jklm, on numerators over one
        common denominator in exact mode.  Entries that sum to zero stay
        written, for the stage to drop.
        """
        n = self.dim
        if n < 4:
            raise UnsupportedDimensionError(
                f"Weyl tensor needs dimension >= 4, metric has n={n}")
        g = self.g
        # scaled before `outer`, so that it has no int zero to fill; in
        # normal form, as P's den is most of the common den below
        p = (ric - scal.scale(Fraction(1, 2 * (n - 1))).outer(g)).scale(
            Fraction(1, n - 2)).normal()
        den = math.lcm(riem.den, p.den * g.den)
        q, f = den // riem.den, den // (p.den * g.den)
        out = {o: x * q for o, x in riem.num.items()}
        gs = [(divmod(xy, n), gxy * f) for xy, gxy in g.num.items()]
        rows, get = {}, out.get
        for off, pab in p.num.items():
            pre, ab = divmod(off, n * n)
            row = rows.get(ab)
            if row is None:     # built for the P_ab that are written
                a, b = divmod(ab, n)
                # (g_xy, the offsets where +g_xy P_ab and -g_xy P_ab go);
                # x = a is left out: there the +/- terms cancel in pairs
                row = rows[ab] = [
                    (gxy, ((x * n + a) * n + b) * n + y,    # g_jm P_kl
                     ((a * n + x) * n + y) * n + b,         # g_kl P_jm
                     ((a * n + x) * n + b) * n + y,         # g_km P_jl
                     ((x * n + a) * n + y) * n + b)         # g_jl P_km
                    for (x, y), gxy in gs if x != a]
            base = pre * n ** 4
            for gxy, o1, o2, o3, o4 in row:
                t = gxy * pab
                o1, o2, o3, o4 = o1 + base, o2 + base, o3 + base, o4 + base
                out[o1] = get(o1, 0) + t
                out[o2] = get(o2, 0) + t
                out[o3] = get(o3, 0) - t
                out[o4] = get(o4, 0) - t
        return Values(n, riem.variance, out, den, riem.zero)

    @stage(2)
    def weyl(self) -> Values:
        """Fully covariant C_{jklm}."""
        return self._weyl_part(self.riemann, self.ricci, self.scalar)

    @stage(2)
    def weyl_mixed(self) -> Values:
        """C_{jkl}^m, the last slot of `weyl` raised; conformally invariant."""
        return self._raised(self.weyl)

    # -- first covariant derivatives ----------------------------------------

    @stage(3)
    def nabla_ricci(self) -> Values:
        return self._ricci(self.nabla_riemann, 1)

    @stage(3)
    def nabla_scalar(self) -> Values:
        """nabla_i R = g^{kl} nabla_i R_kl."""
        return self._trace(self.nabla_ricci, 1)

    @stage(3)
    def nabla_riemann_jets(self) -> Tensor:
        """nabla_i R_{jklm}, jets of order K-3."""
        return covariant_derivative(self.riemann_jets, self.christoffels[1],
                                    "nabla Riemann")

    @stage(3)
    def nabla_riemann(self) -> Values:
        return self.nabla_riemann_jets.values()

    @stage(3)
    def nabla_weyl(self) -> Values:
        return self._weyl_part(self.nabla_riemann, self.nabla_ricci,
                               self.nabla_scalar)

    @stage(3)
    def nabla_weyl_mixed(self) -> Values:
        """nabla_i C_{jkl}^m, the last slot of `nabla_weyl` raised."""
        return self._raised(self.nabla_weyl)

    @stage(3)
    def div_weyl(self) -> Values:
        """nabla_m C_{jkl}^m, slots (j,k,l)."""
        return contract(self.nabla_weyl_mixed, 0, 4)

    # -- second covariant derivatives and Laplacians --------------------------

    @stage(4)
    def nabla2_ricci(self) -> Values:
        return self._ricci(self.nabla2_riemann, 2)

    @stage(4)
    def nabla2_weyl(self) -> Values:
        return self._weyl_part(self.nabla2_riemann, self.nabla2_ricci,
                               self._trace(self.nabla2_ricci, 2))

    @stage(4)
    def nabla2_riemann(self) -> Values:
        return covariant_derivative(self.nabla_riemann_jets, self.gamma,
                                    "nabla nabla Riemann")

    @stage(4)
    def lap_ricci(self) -> Values:
        return self._trace(self.nabla2_ricci)

    @stage(4)
    def lap_weyl(self) -> Values:
        """Delta C, the decomposition of Delta Riemann, Delta Ricci and
        Delta R = g^{kl} Delta R_kl."""
        return self._weyl_part(self.lap_riemann, self.lap_ricci,
                               self._trace(self.lap_ricci))

    @stage(4)
    def lap_riemann(self) -> Values:
        return self._trace(self.nabla2_riemann)

    @stage(4)
    def double_div_weyl(self) -> Values:
        """nabla^j nabla^m C_{jklm}, slots (k,l)."""
        g_inv = self.g_inv
        t = self.nabla2_weyl            # slots (outer, inner, j, k, l, m)
        a = contract(t, 0, 2, g_inv)    # outer with j: (inner, k, l, m)
        return contract(a, 0, 3, g_inv)     # inner with m
