"""From metric jets at a point to the full curvature bundle.

Everything is evaluated pointwise: metric components become jets, the
Levi-Civita connection and curvature tensors are assembled from them, and
covariant derivatives consume one jet order each.  A conformal rescaling
factor * g is applied to the point's jets (`rescaled`), not to the metric's
polynomials: g's jets times the factor jet, g^{-1}'s times its reciprocal.

Jets are kept only where a derivative is taken: the metric, the
Christoffel symbols of both kinds, Riemann, Ricci and their first covariant
derivatives, each only to the order that is read: for g's jets of order
K, Gamma_{l,jk} is of order K-1 and g^{-1}, Gamma^i_jk, Riemann and Ricci
of order K-2.  The second ones are taken from these jets straight to point
values (tensors.Values), and all else is computed from point values.  As
nabla g = 0, R and nabla R are g^{-1} traces of Ricci's values, and nabla
commutes with the Weyl decomposition: C, nabla C, nabla nabla C and Delta C
are that decomposition, in Schouten form, of the values of nabla^L (or
Delta) of Riemann, Ricci and R; the Weyl tensor is never differentiated.

A jet tensor (tensors.Tensor) holds its nonzero jets only, and every
kernel here visits those and the orbits they reach, never the n^rank
index space: a pp-wave's curvature lives in R_{uiuj} alone.

Riemann, Ricci and each covariant derivative are computed once per orbit
of their (trailing) slots' symmetry -- Riemann's pair symmetries, a
symmetric pair, or none, as the caller of `covariant_derivative` declares
-- and the rest of the orbit is filled with that entry or its negation.
Each such entry, like each Christoffel symbol of the second kind, is one
sum of jet products on integer numerators, reduced once (`jets.mac`); a
second covariant derivative is the same gather at order 0, on numbers, into
sparse Values.  Each sums the same nonzero terms in the same order as a
visit of every index would, so exact results are identical and float ones
bit-identical.
In exact mode every input entry of a covariant derivative is first checked
literally against its orbit's representative (SymmetryError if not), at
each orbit that holds a nonzero entry, an all-zero orbit having the
symmetry trivially; float mode fills without the check, as its symmetries
hold to rounding.

Sign convention: R_jklm is R_jkl^m = d_k Gamma^m_jl - d_j Gamma^m_kl +
Gamma^m_kq Gamma^q_jl - Gamma^m_jq Gamma^q_kl lowered by g, with the sign
chosen so that R_ij = -g^{km} R_kijm reproduces psi = -1/2 * sum_rho
d^2 H/dx_rho^2 on pp-wave potentials, as the convention-oracle test pins.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cache

from . import linalg
from .jets import (EXACT, Jet, OrderBudgetError, _tables, as_mode,
                   derivative_numerators, from_numerators, jet_from_polynomial,
                   jet_recip, mac, numerators)
from .tensors import COV, CON, Tensor, Values, contract, raise_lower


class DegeneratePointError(ValueError):
    """Metric determinant vanishes at the sample point."""


class UnsupportedDimensionError(ValueError):
    """The Weyl tensor needs dimension at least 4."""


class MetricAtPoint:
    """Symmetric metric jets g of order `order` (K) at one point, and the
    inverse metric jets g^{-1} of order max(K - 2, 0), the deepest any
    consumer reads (Ricci, and Gamma^i_jk for nabla and Riemann)."""

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

    g is symmetric, so each pair i <= j is expanded once and its jet shared
    by (i, j) and (j, i).  g^{-1} is the power series on the inverse at the
    point, X0 = g(p)^{-1} from `linalg.solve` on numbers: with H = g - g(p),
    which has no constant term, X = X0 - X0 H X, so X <- X0 - (X0 H) X
    gains one order a step from X = X0, and _inverse_order(order) steps give
    the unique truncated inverse (Geddes, Czapor & Labahn, Algorithms for
    Computer Algebra, ch. 4).  Every iterate is symmetric, so entry (i, j)
    is formed for i <= j only, as one sum on integer numerators reduced
    once (`jets.mac`) over the nonzero entries of X0 H and X; X0 is made
    symmetric too, by its upper triangle, so that float g^{-1}(p) does not
    depend on K.  Degeneracy is detected by the solve: a pivot column of
    g(p) with no nonzero entry (det g = 0 there) raises
    DegeneratePointError.
    """
    n = spec.n
    point = tuple(as_mode(x, mode) for x in point)
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, metric has {n}")
    entries = {}
    for i in range(n):
        for j in range(i, n):
            e = jet_from_polynomial(spec.components[i][j], point, order, mode)
            if e:
                entries[i * n + j] = entries[j * n + i] = e
    g = Tensor(n, COV * 2, entries, Jet.zero(n, order, mode))
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
    h, dh = g.numerators(low)               # H = g - g(p) over dh
    h = {o: [0] + c[1:] for o, c in h.items() if any(c[1:])}
    # -P = -X0 H over d0 * dh, with -X0's entries as order-0 coefficients
    neg_x0 = [[-v] for v in x0]
    neg_p = {}
    for i in range(n):
        for k in range(n):
            c = mac(blank.copy(), t, zip(neg_x0[i * n:(i + 1) * n],
                                         map(h.get, range(k, n * n, n))))
            if any(c):
                neg_p[i * n + k] = c
    x = {o: from_numerators(t, mode, [v] + blank[1:], d0)
         for o, v in enumerate(x0) if v}
    for _ in range(low):
        xs, dx = numerators(x, low)
        scale = dh * dx                     # X0's place over d0 * dh * dx
        x = {}
        for i in range(n):
            for j in range(i, n):
                acc = blank.copy()
                acc[0] = x0[i * n + j] * scale
                mac(acc, t, zip(map(neg_p.get, range(i * n, (i + 1) * n)),
                                map(xs.get, range(j, n * n, n))))
                e = from_numerators(t, mode, acc, d0 * scale)
                if e:
                    x[i * n + j] = x[j * n + i] = e
    return MetricAtPoint(g, Tensor(n, CON * 2, x, t.zero[mode]),
                         mode, order)


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

    def times(t, f):        # a jet cut to a lower order may vanish
        return Tensor(t.dim, t.variance, {o: p for o, e in t.nonzero.items()
                                          for p in (e * f,) if p}, t.zero * f)
    return MetricAtPoint(times(m.g, factor), times(m.g_inv, recip),
                         m.mode, order)


# -- connection and curvature ------------------------------------------------


def christoffel(m: MetricAtPoint) -> tuple[Tensor, Tensor]:
    """Levi-Civita symbols of the first kind, Gamma_{l,jk} = (d_j g_lk +
    d_k g_lj - d_l g_jk)/2, jets of order K-1 (Riemann differentiates
    them), and of the second, Gamma^i_{jk} = g^{il} Gamma_{l,jk}, jets of
    g^{-1}'s order, K-2 (every reader takes them at or below it); slots
    (l, j, k) and (i, j, k).  A symbol of the first kind whose three
    derivatives of g vanish is not formed, and one of the second kind sums
    over the nonzero ones only."""
    n, order = m.dim, m.g_inv.zero.order          # Gamma^i_jk's
    half = as_mode(Fraction(1, 2), m.mode)
    zero1 = m.g.zero.derivative(0, "christoffel")  # order K-1
    dg = {}                                 # (l*n + k)*n + j: d_j g_{lk}
    for lk, e in m.g.nonzero.items():
        l, k = divmod(lk, n)
        if l <= k:                          # g_{kl} is the same jet
            for j in range(n):
                d = e.derivative(j, "christoffel")
                if d:
                    dg[lk * n + j] = dg[(k * n + l) * n + j] = d
    t = _tables(n, order)
    zero = t.zero[m.mode]
    first, second = {}, {}
    ginv, di = m.g_inv.numerators(order)
    for j in range(n):
        for k in range(j, n):
            low = {}
            for l in range(n):
                a, b, c = (dg.get((l * n + k) * n + j),
                           dg.get((l * n + j) * n + k),
                           dg.get((j * n + k) * n + l))
                if a or b or c:
                    v = ((a or zero1) + (b or zero1) - (c or zero1)) * half
                    if v:
                        low[l] = first[(l * n + j) * n + k] = \
                            first[(l * n + k) * n + j] = v
            if not low:
                continue
            lows, dl = numerators(low, order)
            for i in range(n):
                pairs = [(ginv[i * n + l], c) for l, c in lows.items()
                         if i * n + l in ginv]
                if pairs:
                    e = from_numerators(t, m.mode, mac(zero.c.copy(), t, pairs),
                                        di * dl)
                    if e:
                        second[(i * n + j) * n + k] = \
                            second[(i * n + k) * n + j] = e
    return (Tensor(n, COV * 3, first, zero1),
            Tensor(n, CON + COV * 2, second, zero))


# Slot symmetries of a tensor's trailing slots that the orbit fills exploit:
# no symmetry, a symmetric pair (Ricci), or Riemann's (antisymmetric in each
# pair, symmetric under the pair swap).  Each maps to the block's width and
# its group as (slot permutation, sign) pairs: t[idx permuted] = sign * t[idx].
NO_SYMMETRY = "none"
SYMMETRIC_PAIR = "symmetric pair"
RIEMANN = "riemann"
_SYMMETRY_GROUPS = {
    NO_SYMMETRY: (0, (((), 1),)),
    SYMMETRIC_PAIR: (2, (((0, 1), 1), ((1, 0), 1))),
    RIEMANN: (4, (((0, 1, 2, 3), 1), ((1, 0, 2, 3), -1), ((0, 1, 3, 2), -1),
                  ((1, 0, 3, 2), 1), ((2, 3, 0, 1), 1), ((3, 2, 0, 1), -1),
                  ((2, 3, 1, 0), -1), ((3, 2, 1, 0), 1))),
}


class SymmetryError(ValueError):
    """A tensor lacks the slot symmetry its caller declared."""


@cache
def _orbits(n: int, symmetry: str):
    """Orbits of the symmetry group on the offsets of its trailing block.

    Returns (width, orbits, zeros): `orbits` lists (rep, images) with rep
    the smallest offset of the orbit and images its (offset, sign) pairs,
    rep first with sign 1, so that t[image] = sign * t[rep]; `zeros` are
    the offsets the symmetry forces to vanish (an entry equal to its own
    negative).
    """
    width, group = _SYMMETRY_GROUPS[symmetry]
    seen = set()
    orbits, zeros = [], []
    for rep, idx in enumerate(itertools.product(range(n), repeat=width)):
        if rep in seen:
            continue
        signs = {}
        for perm, sign in group:
            img = 0
            for p in perm:
                img = img * n + idx[p]
            signs.setdefault(img, set()).add(sign)
        seen.update(signs)
        if any(len(s) > 1 for s in signs.values()):
            zeros.extend(sorted(signs))
        else:
            orbits.append((rep, tuple((img, s.pop())
                                      for img, s in signs.items())))
    return width, tuple(orbits), tuple(sorted(zeros))


@cache
def _orbit_index(n: int, symmetry: str) -> list:
    """For each offset of the symmetry's trailing block, the number of its
    orbit in `_orbits`, or -1 where the symmetry forces it to vanish."""
    width, orbits, _ = _orbits(n, symmetry)
    index = [-1] * n ** width
    for k, (_, images) in enumerate(orbits):
        for img, _ in images:
            index[img] = k
    return index


@cache
def _near_orbits(n: int, symmetry: str) -> list:
    """For each orbit k of `_orbits`, the orbits of the block offsets one
    slot change away from its representative, k among them."""
    width, orbits, _ = _orbits(n, symmetry)
    index, near = _orbit_index(n, symmetry), []
    for k, (rep, _) in enumerate(orbits):
        ks = {k}
        for w in (n ** s for s in range(width)):
            r = rep - rep // w % n * w
            ks.update(index[r:r + n * w:w])
        ks.discard(-1)
        near.append(tuple(ks))
    return near


def covariant_derivative(t: Tensor, gamma: Tensor | Values,
                         context: str = "covariant derivative",
                         symmetry: str = NO_SYMMETRY) -> Tensor | Values:
    """Prepend a covariant slot: (nabla t)_{i ...} with the usual corrections.

    Each output entry is gathered on numerators over the common
    denominators of t and gamma, and reduced once: d_i t[idx], plus
    Gamma^v_{ip} t[.. p ..] for each contravariant slot of value v, minus
    Gamma^p_{iv} t[.. p ..] for each covariant one, skipping zero symbols
    and inputs.  `symmetry` declares the symmetry of t's trailing slots
    (NO_SYMMETRY, SYMMETRIC_PAIR or RIEMANN); nabla keeps it, so only one
    entry per orbit is computed and the others are filled with it or its
    negation.  Only the orbits within one slot change of a nonzero orbit
    representative of t are visited, in the order of their leading slots
    and then of `_orbits`; no other entry can be nonzero.  In exact mode
    every input entry is first checked literally against its orbit's
    representative, and a mismatch raises SymmetryError naming `context`;
    float mode fills without the check, since there the symmetry holds
    only to rounding.

    The output is of order min(order of t - 1, order of gamma), as it reads
    gamma at that order; raises OrderBudgetError naming `context` when t's
    entries are order-0 jets.  Given gamma's point values (Values), it
    returns nabla t's point values and forms no jet: d_i t is read from
    t's first-order coefficients and the products are summed on integers.
    """
    n, zero = t.dim, t.zero
    if not isinstance(zero, Jet):
        raise TypeError("covariant_derivative needs jet-valued tensors")
    order, mode = zero.order, zero.mode
    if order == 0:
        raise OrderBudgetError(
            f"jet order exhausted: {context} would need order >= 1")
    width, orbits, _ = _orbits(n, symmetry)
    rank = t.rank
    if width > rank:
        raise ValueError(f"{context}: a {symmetry} symmetry needs {width} "
                         f"slots, the tensor has {rank}")
    if mode == EXACT:
        _check_symmetry(t, symmetry, context)
    jets = t.nonzero
    if isinstance(gamma, Values):           # to point values, on numbers
        den, dg = math.lcm(*(e.den for e in jets.values())), gamma.den
        src = {o: e.c[0] * (den // e.den) for o, e in jets.items()
               if e.c[0]}
        gam, neg = gamma.num, operator.neg
        first = [_tables(n, 1).deriv[i][0][0] for i in range(n)]

        def entry(e, pairs):    # d_i t at the point is its x_i coefficient
            k = den // e.den * dg
            out = []
            for j, ps in zip(first, pairs):
                a = e.c[j] * k
                for x, g in ps:
                    a += x * g
                out.append(a)
            return out
    else:                                   # the output order
        low = min(order - 1, gamma.zero.order)
        gam, dg = gamma.numerators(low)
        src, den = t.numerators(low)
        tab = _tables(n, low)
        blank = tab.zero[mode]

        def neg(g):
            return [-x for x in g]

        def entry(e, pairs):
            k = den // e.den * dg
            return [from_numerators(tab, mode, mac(
                derivative_numerators(e.c, n, low, i, k) if e else
                blank.c.copy(), tab, ps), den * dg) if e or ps else blank
                for i, ps in enumerate(pairs)]
    # terms[v]: (i, p, G) for each nonzero G = +Gamma^v_ip or -Gamma^p_iv
    # that feeds a slot of value v in output entry (i; ..) from the input
    # with that slot at p; gam[(a*n + b)*n + c] is Gamma^a_{bc}.  For each
    # (v, i) the p run in ascending order.
    con, cov = [[] for _ in range(n)], [[] for _ in range(n)]
    for o, g in sorted(gam.items()):
        if g:
            a, b, c = o // (n * n), o // n % n, o % n
            con[a].append((b, c, g))
            cov[c].append((b, a, neg(g)))
    weights = [n ** (rank - 1 - s) for s in range(rank)]
    slots = [(w, [[(i, p * w, g) for i, p, g in tv]    # p as an offset step
                  for tv in (con if var == CON else cov)])
             for var, w in zip(t.variance, weights)]
    # the orbits, by leading offset, within one slot change of a nonzero
    # representative: an entry fed by an orbit's image is fed by its
    # representative in the image of that entry
    index, block = _orbit_index(n, symmetry), n ** width
    near = _near_orbits(n, symmetry)
    lead = [w for w in weights if w >= block]
    visit = {}
    for o in jets:
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
        for i, a in enumerate(entry(jets.get(off, zero), pairs)):
            if a:
                _fill(out, i * stride + base, images, a)
    if isinstance(gamma, Values):
        return Values(n, COV + t.variance, out, den * dg,
                      0 if mode == EXACT else 0.0)
    return Tensor(n, COV + t.variance, out, blank)


def _fill(out: dict, base: int, images, a):
    """Write a, or -a where the sign is negative, at base + each image
    offset of an orbit (`_orbits`)."""
    neg = -a
    for img, sign in images:
        out[base + img] = a if sign > 0 else neg


def _by_orbits(n: int, symmetry: str, zero: Jet, entry, reached) -> Tensor:
    """The covariant tensor with `symmetry` on all its slots that has
    entry(*index) at the representative of each orbit numbered in the set
    `reached` (-1, a forced zero, is passed over), filled into its orbit,
    and `zero` elsewhere, where the caller knows its entries vanish."""
    width, orbits, _ = _orbits(n, symmetry)
    out = {}
    for k in sorted(reached):
        if k < 0:
            continue
        rep, images = orbits[k]
        a = entry(*(rep // n ** p % n for p in range(width - 1, -1, -1)))
        if a:
            _fill(out, 0, images, a)
    return Tensor(n, COV * width, out, zero)


def _check_symmetry(t: Tensor, symmetry: str, context: str):
    """Raise SymmetryError unless every block of t's trailing slots
    literally has the declared symmetry.  Only the orbits that hold a
    nonzero entry can break it, and only a nonzero entry can break a
    forced zero; they are checked in the order of a check of every block,
    orbit and image, so the first error is the one that check meets."""
    n, rank, src, zero = t.dim, t.rank, t.nonzero, t.zero
    width, orbits, zeros = _orbits(n, symmetry)
    if not width:
        return
    index, block = _orbit_index(n, symmetry), n ** width

    def where(o):
        return tuple(o // n ** (rank - 1 - s) % n for s in range(rank))

    held = {}                   # leading offset -> orbits (-1: forced zero)
    for o in src:
        held.setdefault(o - o % block, set()).add(index[o % block])
    for base in sorted(held):
        for k in sorted(held[base]):
            if k < 0:
                continue
            rep, images = orbits[k]
            e = src.get(base + rep, zero)
            neg = None
            for img, sign in images[1:]:
                x = src.get(base + img, zero)
                if sign < 0:
                    if neg is None:
                        neg = -e
                    ok = x is neg or x == neg
                else:
                    ok = x is e or x == e
                if not ok:
                    raise SymmetryError(
                        f"{context}: entry {where(base + img)} is not "
                        f"{'+' if sign > 0 else '-'}entry "
                        f"{where(base + rep)} under the declared {symmetry} "
                        "symmetry")
        if -1 in held[base]:
            for z in zeros:
                if src.get(base + z, zero).nz:
                    raise SymmetryError(
                        f"{context}: entry {where(base + z)} is nonzero but "
                        f"the declared {symmetry} symmetry forces it to "
                        "vanish")


def _as_jet_values(t: Values) -> Values:
    """t with its zeros read as int 0, as the values of a jet tensor are
    (Jet.value reads an exact zero as int 0), so a point-value attribute
    leaves its kernels with the types its jet form's values had."""
    return Values(t.dim, t.variance, {o: x for o, x in t.num.items() if x},
                  t.den, 0 if t.exact else 0.0)


class stage:
    """`@stage(needs)`: a CurvatureBundle attribute computed on its first
    read, which raises OrderBudgetError naming it if g's jets are of an
    order K below `needs`, and then kept on the instance, so that later
    reads are plain attribute lookups.  Read from the class, it is itself."""

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
        value = bundle.__dict__[name] = self.method(bundle)
        return value


class CurvatureBundle:
    """All curvature data of one metric at one point, computed lazily.

    Jet attributes (Tensors of jets, to the orders the module docstring
    gives): `christoffels` (both kinds), `gamma` (the second kind),
    `riemann`, `ricci`, `nabla_ricci`, `nabla_riemann`.  All others are
    point values (Values, see tensors): the Weyl forms (`_weyl_part`, and
    `weyl_mixed`, `nabla_weyl_mixed` with the last slot raised), `scalar`,
    `nabla_scalar`, the second derivatives, divergences and Laplacians.
    `values(name)` gives the point values of any attribute, or of the
    metric's `g` and `g_inv`, once each.  Each attribute is a `stage` that
    states the least order K of g's jets (`metric.order`) it needs: 1 for
    the Christoffel symbols, 2 for curvature, and one more for each
    covariant derivative in it.
    """

    def __init__(self, metric: MetricAtPoint):
        self.metric = metric
        self.dim = metric.dim
        self.mode = metric.mode
        self._values = {}

    def values(self, name: str) -> Values:
        """Point values of the attribute `name` (or "g", "g_inv"); a
        point-value attribute is returned as it is."""
        v = self._values.get(name)
        if v is None:
            owner = self.metric if name in ("g", "g_inv") else self
            v = getattr(owner, name)
            v = self._values[name] = (v if isinstance(v, Values)
                                      else v.values())
        return v

    def _raised(self, name: str) -> Values:
        """Point values of `name` with the last slot raised."""
        t = self.values(name)
        return _as_jet_values(raise_lower(t, t.rank - 1, self.values("g_inv")))

    # -- connection and curvature -----------------------------------------

    @stage(1)
    def christoffels(self) -> tuple[Tensor, Tensor]:
        """(Gamma_{l,jk}, Gamma^i_{jk}): the symbols of both kinds."""
        return christoffel(self.metric)

    gamma = property(lambda self: self.christoffels[1])   # Gamma^i_{jk}

    @stage(2)
    def riemann(self) -> Tensor:
        """Fully covariant R_{jklm}, jets of order K-2, one `entry` per orbit
        of its pair symmetries that a nonzero symbol enters: R_jkl^m
        lowered by g, with d_k g_pm = Gamma_{p,km} + Gamma_{m,kp}.  The
        global sign is fixed by the pp-wave Ricci oracle."""
        n, order, mode = self.dim, self.metric.order - 2, self.mode
        first, second = self.christoffels   # [q, a, b] at q*n^2 + a*n + b
        t = _tables(n, order)
        g1, d1 = first.numerators(order + 1)
        g2, d2 = second.numerators(order)
        neg2 = {o: [-x for x in c] for o, c in g2.items()}
        n2, n3 = n * n, n ** 3

        def entry(j, k, l, m):
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
            return from_numerators(t, mode, acc, d1 * d2)

        # the orbits of the (j, k, l, m) whose entry reads a nonzero symbol:
        # Gamma_{m,ab} in d_k Gamma_{m,jl} at (a, k, b, m) and in
        # d_j Gamma_{m,kl} at (j, a, b, m); then, unless every orbit is
        # reached, the products Gamma_{q,jm} Gamma^q_kl and Gamma_{q,km}
        # Gamma^q_jl of nonzero symbols
        index = _orbit_index(n, RIEMANN)
        reached = set()
        for o in g1:
            m, a, b = o // n2, o // n % n, o % n
            reached.update(index[a * n3 + b * n + m:(a + 1) * n3:n2])
            reached.update(index[a * n2 + b * n + m::n3])
        reached.discard(-1)
        if len(reached) < len(_orbits(n, RIEMANN)[1]):
            for lo in range(0, n3, n2):
                fs = [o - lo for o in g1 if lo <= o < lo + n2]
                ss = [o - lo for o in g2 if lo <= o < lo + n2]
                reached.update(index[(f // n * n2 + s) * n + f % n]
                               for f in fs for s in ss)
                reached.update(index[((s // n * n + f // n) * n + s % n) * n
                                     + f % n] for f in fs for s in ss)
        return _by_orbits(n, RIEMANN, t.zero[mode], entry, reached)

    @stage(2)
    def ricci(self) -> Tensor:
        """R_ij = -g^{km} R_{kijm}, for i <= j in an orbit that a nonzero
        R_ikmj reaches, and filled by symmetry."""
        n, order, mode = self.dim, self.metric.order - 2, self.mode
        t = _tables(n, order)
        riem, dr = self.riemann.numerators(order)
        ginv, di = self.metric.g_inv.numerators(order)
        ginv = list(map(ginv.get, range(n * n)))
        n3 = n ** 3

        def entry(i, j):    # R_kijm = R_ikmj, at i*n^3 + (k*n + m)*n + j
            acc = mac(t.zero[mode].c.copy(), t,
                      zip(map(riem.get, range(i * n3 + j, (i + 1) * n3, n)),
                          ginv))
            return -from_numerators(t, mode, acc, dr * di)
        index = _orbit_index(n, SYMMETRIC_PAIR)
        return _by_orbits(n, SYMMETRIC_PAIR, t.zero[mode], entry,
                          {index[o // n3 * n + o % n] for o in riem})

    def _trace(self, name: str, a: int = 0) -> Values:
        """The values of `name` with slots a and a + 1 traced by g^{-1}: a
        Laplacian for a = 0 on a second derivative."""
        return _as_jet_values(contract(self.values(name), a, a + 1,
                                       self.values("g_inv")))

    @stage(2)
    def scalar(self) -> Values:
        """Scalar curvature R = g^{ij} R_ij."""
        return self._trace("ricci")

    def _weyl_part(self, riem: Values, ric: Values, scal: Values) -> Values:
        """nabla^L C_{jklm}: the Weyl decomposition, in Schouten form, of
        the values riem, ric and scal of nabla^L R_{jklm}, nabla^L R_kl and
        nabla^L R, derivative slots first.  nabla g = 0, so the
        decomposition commutes with nabla:

            C_jklm = R_jklm + g_jm P_kl - g_km P_jl + g_kl P_jm - g_jl P_km,
            P_kl = (R_kl - R g_kl / (2(n-1))) / (n-2).

        P is Values algebra; one loop adds the g P terms over the nonzero
        entries of P and the metric to R_jklm, on numerators over one
        common denominator in exact mode.  Entries that sum to zero are
        dropped: they leave as int 0, as a jet's zero.
        """
        n = self.dim
        if n < 4:
            raise UnsupportedDimensionError(
                f"Weyl tensor needs dimension >= 4, metric has n={n}")
        g = self.values("g")
        # scaled before `outer`, so that it has no int zero to fill
        p = (ric - scal.scale(Fraction(1, 2 * (n - 1))).outer(g)).scale(
            Fraction(1, n - 2))
        den = math.lcm(riem.den, p.den * g.den)
        q, f = den // riem.den, den // (p.den * g.den)
        out = {o: x * q for o, x in riem.num.items()}
        gs = [(divmod(xy, n), gxy * f) for xy, gxy in g.num.items() if gxy]
        rows, get = {}, out.get
        for off, pab in p.num.items():
            if pab:
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
        for o in [o for o, x in out.items() if not x]:
            del out[o]
        return Values(n, riem.variance, out,
                      den, 0 if riem.exact else 0.0)

    @stage(2)
    def weyl(self) -> Values:
        """Fully covariant C_{jklm}."""
        return self._weyl_part(self.values("riemann"), self.values("ricci"),
                               self.scalar)

    @stage(2)
    def weyl_mixed(self) -> Values:
        """C_{jkl}^m, the last slot of `weyl` raised; conformally invariant."""
        return self._raised("weyl")

    # -- first covariant derivatives ----------------------------------------

    @stage(3)
    def nabla_ricci(self) -> Tensor:
        return covariant_derivative(self.ricci, self.gamma, "nabla Ricci",
                                    SYMMETRIC_PAIR)

    @stage(3)
    def nabla_scalar(self) -> Values:
        """nabla_i R = g^{kl} nabla_i R_kl."""
        return self._trace("nabla_ricci", 1)

    @stage(3)
    def nabla_riemann(self) -> Tensor:
        return covariant_derivative(self.riemann, self.gamma, "nabla Riemann",
                                    RIEMANN)

    @stage(3)
    def nabla_weyl(self) -> Values:
        return self._weyl_part(self.values("nabla_riemann"),
                               self.values("nabla_ricci"), self.nabla_scalar)

    @stage(3)
    def nabla_weyl_mixed(self) -> Values:
        """nabla_i C_{jkl}^m, the last slot of `nabla_weyl` raised."""
        return self._raised("nabla_weyl")

    @stage(3)
    def div_weyl(self) -> Values:
        """nabla_m C_{jkl}^m, slots (j,k,l)."""
        return _as_jet_values(contract(self.nabla_weyl_mixed, 0, 4))

    # -- second covariant derivatives and Laplacians --------------------------

    @stage(4)
    def nabla2_ricci(self) -> Values:
        return covariant_derivative(self.nabla_ricci, self.values("gamma"),
                                    "nabla nabla Ricci", SYMMETRIC_PAIR)

    @stage(4)
    def nabla2_weyl(self) -> Values:
        return self._weyl_part(self.nabla2_riemann, self.nabla2_ricci,
                               self._trace("nabla2_ricci", 2))

    @stage(4)
    def nabla2_riemann(self) -> Values:
        return covariant_derivative(self.nabla_riemann, self.values("gamma"),
                                    "nabla nabla Riemann", RIEMANN)

    @stage(4)
    def lap_ricci(self) -> Values:
        return self._trace("nabla2_ricci")

    @stage(4)
    def lap_weyl(self) -> Values:
        """Delta C, the decomposition of Delta Riemann, Delta Ricci and
        Delta R = g^{kl} Delta R_kl."""
        return self._weyl_part(self.lap_riemann, self.lap_ricci,
                               self._trace("lap_ricci"))

    @stage(4)
    def lap_riemann(self) -> Values:
        return self._trace("nabla2_riemann")

    @stage(4)
    def double_div_weyl(self) -> Values:
        """nabla^j nabla^m C_{jklm}, slots (k,l)."""
        g_inv = self.values("g_inv")
        t = self.values("nabla2_weyl")  # slots (outer, inner, j, k, l, m)
        a = contract(t, 0, 2, g_inv)    # outer with j: (inner, k, l, m)
        return _as_jet_values(contract(a, 0, 3, g_inv))  # inner with m
