"""From metric jets at a point to the full curvature bundle.

Everything is evaluated pointwise: metric components become jets, the
Levi-Civita connection and curvature tensors are assembled from them, and
covariant derivatives consume one jet order each.

Sign convention: the Riemann assembly carries a global minus sign relative
to the naive dGamma + GammaGamma expression, chosen once so that the Ricci
contraction R_ij = -R_kij^k reproduces psi = -1/2 * sum_rho d^2 H/dx_rho^2
on pp-wave potentials.  The convention-oracle test pins this down.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .jets import (EXACT, FLOAT, Jet, OrderBudgetError, as_mode, jet_exp,
                   jet_from_polynomial, jet_recip)
from .tensors import (COV, CON, Tensor, contract, cyclic_sum, raise_lower,
                      sup_norm)


class DegeneratePointError(ValueError):
    """Metric determinant vanishes at the sample point."""


class UnsupportedDimensionError(ValueError):
    """The Weyl tensor needs dimension at least 4."""


class ModeError(ValueError):
    """Operation not representable in the requested arithmetic mode."""


class MetricAtPoint:
    """Symmetric metric jets, their exact inverse jets, and point metadata."""

    def __init__(self, g: Tensor, g_inv: Tensor, point, signature, mode: str,
                 order: int, coords=None):
        self.g = g
        self.g_inv = g_inv
        self.point = tuple(point)
        self.signature = signature
        self.mode = mode
        self.order = order
        self.coords = tuple(coords) if coords else None
        self.dim = g.dim


def metric_at_point(spec, point, order: int, mode: str = EXACT) -> MetricAtPoint:
    """Evaluate a MetricSpec's component jets at a chart point.

    Raises DegeneratePointError where det g = 0 and ModeError when an
    exponential conformal factor is requested in exact mode.
    """
    n = spec.n
    point = tuple(as_mode(x, mode) for x in point)
    if len(point) != n:
        raise ValueError(f"point has {len(point)} coordinates, metric has {n}")
    factor = None
    if getattr(spec, "conformal_sigma", None) is not None:
        if mode != FLOAT:
            raise ModeError(
                "exponential conformal factor requires float mode; "
                "use a positive-square factor in exact mode")
        sigma = jet_from_polynomial(spec.conformal_sigma, point, order, mode)
        factor = jet_exp(sigma * 2.0)
    entries = []
    for i in range(n):
        for j in range(n):
            jet = jet_from_polynomial(spec.components[i][j], point, order, mode)
            if factor is not None:
                jet = jet * factor
            entries.append(jet)
    g = Tensor(n, COV * 2, entries)
    g0 = [[g[i, j].value for j in range(n)] for i in range(n)]
    det = linalg.mat_det(g0)
    if not det:
        raise DegeneratePointError(f"metric degenerate at point {point}")
    signature = linalg.symmetric_inertia(g0)
    g_inv = _invert_metric_jets(g, g0, order, mode)
    return MetricAtPoint(g, g_inv, point, signature, mode, order,
                         coords=getattr(spec, "coords", None))


def _invert_metric_jets(g: Tensor, g0, order: int, mode: str) -> Tensor:
    """Jet inverse via the terminating Neumann series around the point value.

    E = g - g(point) has no constant term, so (g0^-1 E)^k dies past k = K and
    the series sum is the exact truncated inverse.
    """
    n = g.dim
    inv0 = linalg.mat_inverse(g0)
    const = lambda v: Jet.constant(n, order, v, mode)
    zero = Jet.zero(n, order, mode)
    # M = -g0inv * E as a jet matrix
    m = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                e = g[k, j] - const(g0[k][j])
                if e.is_zero() or not inv0[i][k]:
                    continue
                acc = acc + e * (-inv0[i][k])
            m[i][j] = acc
    # sum_{k<=K} M^k, then right-multiply by g0inv
    total = [[const(1 if i == j else 0) for j in range(n)] for i in range(n)]
    power = [row[:] for row in total]
    for _ in range(order):
        power = _jet_matmul(power, m, zero)
        if all(p.is_zero() for row in power for p in row):
            break
        for i in range(n):
            for j in range(n):
                total[i][j] = total[i][j] + power[i][j]
    entries = []
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                if not inv0[k][j] or total[i][k].is_zero():
                    continue
                acc = acc + total[i][k] * inv0[k][j]
            entries.append(acc)
    return Tensor(n, CON * 2, entries)


def _jet_matmul(a, b, zero):
    n = len(a)
    out = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


# -- connection and curvature ------------------------------------------------


def christoffel(m: MetricAtPoint) -> Tensor:
    """Levi-Civita symbols Gamma^i_{jk} as jets of order K-1, slots (i, j, k)."""
    if m.order < 1:
        raise OrderBudgetError("christoffel needs jet order >= 1")
    n = m.dim
    half = as_mode(Fraction(1, 2), m.mode)
    dg = [[[m.g[l, k].derivative(j, "christoffel") for k in range(n)]
           for j in range(n)] for l in range(n)]
    # dg[l][j][k] = d_j g_{lk}
    out = Tensor.zeros(n, CON + COV + COV, Jet.zero(n, m.order - 1, m.mode))
    ginv = m.g_inv.truncate(m.order - 1)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = Jet.zero(n, m.order - 1, m.mode)
                for l in range(n):
                    gil = ginv[i, l]
                    if gil.is_zero():
                        continue
                    s = dg[l][j][k] + dg[l][k][j] - dg[j][l][k]
                    if s.is_zero():
                        continue
                    acc = acc + gil * s
                acc = acc * half
                out[i, j, k] = acc
                out[i, k, j] = acc
    return out


def covariant_derivative(t: Tensor, gamma: Tensor, context: str = "covariant derivative") -> Tensor:
    """Prepend a covariant slot: (nabla t)_{i ...} with the usual corrections.

    Consumes one jet order; raises OrderBudgetError naming `context` when the
    entries are order-0 jets.
    """
    n = t.dim
    sample = t.entries[0]
    if not isinstance(sample, Jet):
        raise TypeError("covariant_derivative needs jet-valued tensors")
    order = sample.order
    if order == 0:
        raise OrderBudgetError(
            f"jet order exhausted: {context} would need order >= 1")
    gam = gamma.truncate(order - 1).entries   # Gamma^a_{bc} at (a*n + b)*n + c
    rank = t.rank
    stride = n ** rank                          # weight of the new slot i
    out = [Jet.zero(n, order - 1, sample.mode)] * (n * stride)
    for off, (idx, e) in enumerate(zip(t.indices(), t.entries)):
        if e.is_zero():
            continue
        for i in range(n):
            d = e.derivative(i, context)
            if not d.is_zero():
                o = i * stride + off
                out[o] = out[o] + d
        for s, var in enumerate(t.variance):
            w = n ** (rank - 1 - s)             # weight of slot s
            p = idx[s]
            rest = off - p * w                  # offset with slot s cleared
            if var == CON:
                # t^{p} feeds output slot value m via +Gamma^m_{i p}
                for mm in range(n):
                    for i in range(n):
                        gme = gam[(mm * n + i) * n + p]
                        if gme.is_zero():
                            continue
                        o = i * stride + rest + mm * w
                        out[o] = out[o] + gme * e
            else:
                # t_{p} feeds output slot value a via -Gamma^p_{i a}
                for aa in range(n):
                    for i in range(n):
                        gme = gam[(p * n + i) * n + aa]
                        if gme.is_zero():
                            continue
                        o = i * stride + rest + aa * w
                        out[o] = out[o] - gme * e
    return Tensor(n, COV + t.variance, out)


def laplacian(t: Tensor, m: MetricAtPoint, gamma: Tensor,
              context: str = "laplacian") -> Tensor:
    """Connection Laplacian g^{ab} nabla_a nabla_b t (same rank as t)."""
    first = covariant_derivative(t, gamma, context)
    second = covariant_derivative(first, gamma, context)
    return contract(second, 0, 1, m.g_inv.truncate(second.entries[0].order))


class CurvatureBundle:
    """All curvature data of one metric at one point, computed lazily.

    Jet order budgets: Weyl needs K>=2, first covariant derivatives K>=3,
    Laplacians and double derivatives K>=4.  Underbudgeted requests raise
    OrderBudgetError instead of silently truncating.
    """

    def __init__(self, metric: MetricAtPoint):
        self.metric = metric
        self.dim = metric.dim
        self.mode = metric.mode

    def require(self, needed: int, what: str):
        if self.metric.order < needed:
            raise OrderBudgetError(
                f"{what} needs jet order {needed}, run has K={self.metric.order}")

    # -- connection and curvature -----------------------------------------

    @cached_property
    def gamma(self) -> Tensor:
        self.require(1, "christoffel symbols")
        return christoffel(self.metric)

    @cached_property
    def riemann_mixed(self) -> Tensor:
        """R_{jkl}^m, slots (j,k,l,m), jets of order K-2."""
        self.require(2, "riemann tensor")
        n = self.dim
        gamma = self.gamma
        order = self.metric.order - 2
        dgam = [[[[gamma[mm, k, l].derivative(j, "riemann")
                   for mm in range(n)] for l in range(n)] for k in range(n)]
                for j in range(n)]
        gam = gamma.truncate(order)
        out = Tensor.zeros(n, COV * 3 + CON, Jet.zero(n, order, self.mode))
        for j in range(n):
            for k in range(j + 1, n):
                for l in range(n):
                    for mm in range(n):
                        # global sign fixed by the pp-wave Ricci oracle
                        acc = dgam[k][j][l][mm] - dgam[j][k][l][mm]
                        for p in range(n):
                            a1 = gam[mm, k, p]
                            b1 = gam[p, j, l]
                            if not (a1.is_zero() or b1.is_zero()):
                                acc = acc + a1 * b1
                            a2 = gam[mm, j, p]
                            b2 = gam[p, k, l]
                            if not (a2.is_zero() or b2.is_zero()):
                                acc = acc - a2 * b2
                        out[j, k, l, mm] = acc
                        out[k, j, l, mm] = -acc
        return out

    @cached_property
    def riemann(self) -> Tensor:
        """Fully covariant R_{jklm}."""
        return raise_lower(self.riemann_mixed, 3,
                           self.metric.g.truncate(self.metric.order - 2))

    @cached_property
    def ricci(self) -> Tensor:
        """R_ij = -R_{kij}^k."""
        return -contract(self.riemann_mixed, 0, 3)

    @cached_property
    def ricci_mixed(self) -> Tensor:
        """R_j^m (second slot raised)."""
        return raise_lower(self.ricci, 1,
                           self.metric.g_inv.truncate(self.metric.order - 2))

    @cached_property
    def scalar(self) -> Jet:
        """Scalar curvature R = g^{ij} R_ij."""
        return contract(self.ricci, 0, 1,
                        self.metric.g_inv.truncate(self.metric.order - 2)).entries[0]

    @cached_property
    def weyl_mixed(self) -> Tensor:
        """C_{jkl}^m per the (1,3) Weyl decomposition; conformally invariant."""
        n = self.dim
        if n < 4:
            raise UnsupportedDimensionError(
                f"Weyl tensor needs dimension >= 4, metric has n={n}")
        order = self.metric.order - 2
        riem = self.riemann_mixed
        ric = self.ricci
        ric_up = self.ricci_mixed
        g = self.metric.g.truncate(order)
        scal = self.scalar
        c1 = as_mode(Fraction(1, n - 2), self.mode)
        c2 = as_mode(Fraction(1, (n - 1) * (n - 2)), self.mode)
        out = Tensor.zeros(n, COV * 3 + CON, Jet.zero(n, order, self.mode))
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for mm in range(n):
                        acc = riem[j, k, l, mm]
                        corr = Jet.zero(n, order, self.mode)
                        if mm == j:
                            corr = corr + ric[k, l]
                        if mm == k:
                            corr = corr - ric[j, l]
                        if not g[k, l].is_zero() and not ric_up[j, mm].is_zero():
                            corr = corr + g[k, l] * ric_up[j, mm]
                        if not g[j, l].is_zero() and not ric_up[k, mm].is_zero():
                            corr = corr - g[j, l] * ric_up[k, mm]
                        if not corr.is_zero():
                            acc = acc + corr * c1
                        if not scal.is_zero():
                            tail = Jet.zero(n, order, self.mode)
                            if mm == j:
                                tail = tail + g[k, l]
                            if mm == k:
                                tail = tail - g[j, l]
                            if not tail.is_zero():
                                acc = acc - (scal.truncate(order) * tail) * c2
                        out[j, k, l, mm] = acc
        return out

    @cached_property
    def weyl(self) -> Tensor:
        """Fully covariant C_{jklm}."""
        return raise_lower(self.weyl_mixed, 3,
                           self.metric.g.truncate(self.metric.order - 2))

    # -- first covariant derivatives ----------------------------------------

    @cached_property
    def nabla_ricci(self) -> Tensor:
        self.require(3, "nabla Ricci")
        return covariant_derivative(self.ricci, self.gamma, "nabla Ricci")

    @cached_property
    def nabla_scalar(self) -> Tensor:
        self.require(3, "nabla R")
        n = self.dim
        return Tensor(n, COV,
                      [self.scalar.derivative(i, "nabla R") for i in range(n)])

    @cached_property
    def nabla_riemann(self) -> Tensor:
        self.require(3, "nabla Riemann")
        return covariant_derivative(self.riemann, self.gamma, "nabla Riemann")

    @cached_property
    def nabla_weyl(self) -> Tensor:
        self.require(3, "nabla Weyl")
        return covariant_derivative(self.weyl, self.gamma, "nabla Weyl")

    @cached_property
    def nabla_weyl_mixed(self) -> Tensor:
        self.require(3, "nabla Weyl (1,3)")
        return covariant_derivative(self.weyl_mixed, self.gamma, "nabla Weyl (1,3)")

    @cached_property
    def div_weyl(self) -> Tensor:
        """nabla_m C_{jkl}^m, slots (j,k,l)."""
        return contract(self.nabla_weyl_mixed, 0, 4)

    # -- second covariant derivatives and Laplacians --------------------------

    @cached_property
    def nabla2_ricci(self) -> Tensor:
        self.require(4, "nabla nabla Ricci")
        return covariant_derivative(self.nabla_ricci, self.gamma, "nabla nabla Ricci")

    @cached_property
    def nabla2_weyl(self) -> Tensor:
        self.require(4, "nabla nabla Weyl")
        return covariant_derivative(self.nabla_weyl, self.gamma, "nabla nabla Weyl")

    @cached_property
    def nabla2_riemann(self) -> Tensor:
        self.require(4, "nabla nabla Riemann")
        return covariant_derivative(self.nabla_riemann, self.gamma,
                                    "nabla nabla Riemann")

    def _trace_first_two(self, t: Tensor) -> Tensor:
        return contract(t, 0, 1, self.metric.g_inv.truncate(t.entries[0].order))

    @cached_property
    def lap_ricci(self) -> Tensor:
        return self._trace_first_two(self.nabla2_ricci)

    @cached_property
    def lap_weyl(self) -> Tensor:
        return self._trace_first_two(self.nabla2_weyl)

    @cached_property
    def lap_riemann(self) -> Tensor:
        return self._trace_first_two(self.nabla2_riemann)

    @cached_property
    def nabla2_weyl_mixed(self) -> Tensor:
        self.require(4, "nabla nabla Weyl (1,3)")
        return covariant_derivative(self.nabla_weyl_mixed, self.gamma,
                                    "nabla nabla Weyl (1,3)")

    @cached_property
    def double_div_weyl(self) -> Tensor:
        """nabla^j nabla^m C_{jklm}, slots (k,l)."""
        t = self.nabla2_weyl_mixed  # slots (outer, inner, j, k, l, m^)
        ginv = self.metric.g_inv.truncate(t.entries[0].order)
        # raise the outer derivative slot and contract with j
        a = contract(t, 0, 2, ginv)          # slots (inner, k, l, m^)
        return contract(a, 0, 3)             # contract inner derivative with m
