"""Condition checkers with witness extraction and residual reporting.

Every checker consumes a PointContext (one metric, one point, one curvature
bundle) and returns a CheckResult.  Residuals are relative sup-norm
quantities; in exact mode a check passes only when its residual is exactly
zero, in float mode when it is within the run tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .geometry import CurvatureBundle, covariant_derivative, metric_at_point
from .jets import EXACT, Jet, jet_recip
from .metrics import MetricSpec, conformal_rescale
from .polynomials import Polynomial
from .tensors import (COV, Tensor, contract, cyclic_sum, raise_lower,
                      scalar_value, sup_norm)

VACUITY_FLOOR = 1e-12

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
ERROR = "error"


@dataclass
class CheckResult:
    name: str
    status: str
    residual: object            # Fraction or float
    point: tuple
    witnesses: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    notes: str = ""


@dataclass
class PointContext:
    spec: MetricSpec
    point: tuple
    mode: str
    bundle: CurvatureBundle
    tolerance: float = 1e-9
    field_coeffs: tuple = (1, 1)
    cache: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    def zero(self):
        return Fraction(0) if self.exact else 0.0


# -- small helpers ------------------------------------------------------------


def relative_residual(num_norm, *ref_norms):
    """sup-norm residual relative to the largest reference scale.

    Zero numerator is zero regardless; a zero reference with nonzero
    numerator falls back to the absolute value.
    """
    if not num_norm:
        return num_norm
    ref = max(ref_norms) if ref_norms else 0
    if not ref:
        return num_norm
    return num_norm / ref


def _is_vacuous(norm, exact: bool) -> bool:
    return (not norm) if exact else (norm <= VACUITY_FLOOR)


def _passes(residual, ctx: PointContext) -> bool:
    return (residual == 0) if ctx.exact else (abs(residual) <= ctx.tolerance)


def _finish(name, ctx, residuals: dict, witnesses=None, notes="",
            status=None, primary=None):
    worst = ctx.zero()
    for r in residuals.values():
        if abs(r) > abs(worst):
            worst = r
    if primary is None:
        primary = worst
    if status is None:
        status = PASS if all(_passes(r, ctx) for r in residuals.values()) else FAIL
    return CheckResult(name=name, status=status, residual=primary,
                       point=ctx.point, witnesses=witnesses or {},
                       residuals=residuals, notes=notes)


def _null_chart(spec: MetricSpec) -> bool:
    return bool(spec.coords) and spec.coords[0] == "u"


def _ppwave_like(spec: MetricSpec) -> bool:
    return spec.family in ("ppwave", "brinkmann", "galaev", "two_symmetric") \
        and spec.potential is not None


def chart_covector_u(ctx: PointContext, jets: bool = False) -> Tensor:
    """X = du in chart components (1 in the u slot)."""
    n = ctx.bundle.dim
    one = Fraction(1) if ctx.exact else 1.0
    if jets:
        order = ctx.bundle.metric.order
        entries = [Jet.constant(n, order, one, ctx.mode) if i == 0
                   else Jet.zero(n, order, ctx.mode) for i in range(n)]
    else:
        entries = [one if i == 0 else ctx.zero() for i in range(n)]
    return Tensor(n, COV, entries)


# -- recurrence extraction -----------------------------------------------------


def extract_recurrence(t: Tensor, nabla_t: Tensor):
    """Least-squares recurrence covector for nabla T = alpha (x) T.

    Works on value tensors.  Returns (alpha_components, residual); alpha is
    None when T vanishes (vacuous).  The residual is sup|nabla T - alpha (x) T|
    relative to sup|nabla T| (0/0 -> 0).
    """
    n = t.dim
    denom = None
    for e in t.entries:
        term = e * e
        denom = term if denom is None else denom + term
    if not denom:
        return None, None
    alpha = []
    for i in range(n):
        num = None
        for idx in t.indices():
            term = nabla_t[(i,) + idx] * t[idx]
            num = term if num is None else num + term
        alpha.append(num / denom)
    worst = abs(denom * 0)
    ref = sup_norm(nabla_t)
    for i in range(n):
        for idx in t.indices():
            delta = abs(nabla_t[(i,) + idx] - alpha[i] * t[idx])
            if delta > worst:
                worst = delta
    residual = relative_residual(worst, ref)
    return alpha, residual


def extract_recurrence_jets(t: Tensor, nabla_t: Tensor):
    """Jet-valued recurrence covector (same projection carried through jets).

    Requires a nonzero constant term of <T,T>; the result's jets expose the
    derivatives of alpha, which closedness checks differentiate directly.
    """
    n = t.dim
    order = nabla_t.entries[0].order
    mode = nabla_t.entries[0].mode
    tt = t.truncate(order)
    denom = Jet.zero(n, order, mode)
    for e in tt.entries:
        if not e.is_zero():
            denom = denom + e * e
    if denom.is_zero() or not denom.value:
        return None
    inv = jet_recip(denom, "<T,T> in recurrence extraction")
    alpha = []
    for i in range(n):
        num = Jet.zero(n, order, mode)
        for idx in tt.indices():
            a = nabla_t[(i,) + idx]
            b = tt[idx]
            if a.is_zero() or b.is_zero():
                continue
            num = num + a * b
        alpha.append(num * inv)
    return Tensor(n, COV, alpha)


def _jet_alpha(ctx: PointContext):
    """Cached jet-valued Weyl recurrence covector alpha (or None)."""
    if "alpha_jets" not in ctx.cache:
        b = ctx.bundle
        ctx.cache["alpha_jets"] = extract_recurrence_jets(b.weyl, b.nabla_weyl)
    return ctx.cache["alpha_jets"]


# -- universal identity checks --------------------------------------------------


def check_bianchi(ctx: PointContext) -> CheckResult:
    b = ctx.bundle
    riem = b.riemann.values()
    first = cyclic_sum(riem, (0, 1, 2))
    res1 = relative_residual(sup_norm(first), sup_norm(riem))
    nr = b.nabla_riemann.values()
    second = cyclic_sum(nr, (0, 1, 2))
    res2 = relative_residual(sup_norm(second), sup_norm(nr))
    return _finish("bianchi", ctx, {"first": res1, "second": res2})


def check_weyl_trace(ctx: PointContext) -> CheckResult:
    b = ctx.bundle
    weyl = b.weyl.values()
    ginv = b.metric.g_inv.values()
    ref = sup_norm(weyl)
    residuals = {}
    for a in range(4):
        for c in range(a + 1, 4):
            tr = contract(weyl, a, c, ginv)
            residuals[f"trace_{a}{c}"] = relative_residual(sup_norm(tr), ref)
    return _finish("weyl_trace", ctx, residuals)


def check_weyl_cyclic_identity(ctx: PointContext) -> CheckResult:
    """General cyclic Weyl-derivative identity with the 1/(n-3) divergence side."""
    b = ctx.bundle
    n = b.dim
    ncm = b.nabla_weyl_mixed.values()          # (i, j, k, l, m^)
    lhs = cyclic_sum(ncm, (0, 1, 2))
    div1 = b.div_weyl.values()                 # nabla_p C_{jkl}^p, slots (j,k,l)
    # nabla_p C_{jk}^{mp} = g^{ma} g^{pb} nabla_p C_{jkab} (metricity lets the
    # inverse metric pass through nabla, so value-level contraction suffices)
    ginv = b.metric.g_inv.values()
    nw = b.nabla_weyl.values()                 # (p, j, k, a, b)
    div2 = raise_lower(contract(nw, 0, 4, ginv), 2, ginv)   # (j, k, m^)
    g = b.metric.g.values()
    inv_n3 = (Fraction(1, n - 3) if ctx.exact else 1.0 / (n - 3))
    delta = Tensor.zeros(n, "lllll", lhs.entries[0])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for m in range(n):
                        rhs = ctx.zero()
                        if m == j:
                            rhs = rhs + div1[k, i, l]
                        if m == k:
                            rhs = rhs + div1[i, j, l]
                        if m == i:
                            rhs = rhs + div1[j, k, l]
                        rhs = rhs + g[k, l] * div2[j, i, m] \
                            + g[i, l] * div2[k, j, m] \
                            + g[j, l] * div2[i, k, m]
                        delta[i, j, k, l, m] = lhs[i, j, k, l, m] - rhs * inv_n3
    res = relative_residual(sup_norm(delta), sup_norm(ncm))
    return _finish("weyl_cyclic_identity", ctx, {"identity": res})


def check_weyl_divergence_formula(ctx: PointContext) -> CheckResult:
    """div C against its Ricci/scalar-curvature expression."""
    b = ctx.bundle
    n = b.dim
    lhs = b.div_weyl.values()                   # (j, k, l)
    nr = b.nabla_ricci.values()                 # (i, k, l)
    ns = b.nabla_scalar.values()                # (i,)
    g = b.metric.g.values()
    if ctx.exact:
        c1 = Fraction(n - 3, n - 2)
        c2 = Fraction(n - 3, 2 * (n - 1) * (n - 2))
    else:
        c1 = (n - 3) / (n - 2)
        c2 = (n - 3) / (2.0 * (n - 1) * (n - 2))
    delta = Tensor.zeros(n, "lll", lhs.entries[0])
    for j in range(n):
        for k in range(n):
            for l in range(n):
                rhs = (nr[k, j, l] - nr[j, k, l]) * c1 \
                    + (g[k, l] * ns[j] - g[j, l] * ns[k]) * c2
                delta[j, k, l] = lhs[j, k, l] - rhs
    res = relative_residual(sup_norm(delta), sup_norm(lhs), sup_norm(nr))
    return _finish("weyl_divergence_formula", ctx, {"identity": res})


def check_conformal_invariance(ctx: PointContext) -> CheckResult:
    """(1,3)-Weyl equality under a conformal rescale of the metric.

    Exact mode uses the positive-square factor (1+s)^2; float mode uses the
    genuine e^{2 sigma} via exponential jets.
    """
    b = ctx.bundle
    s = Polynomial.variable(ctx.spec.coords, ctx.spec.coords[0]) * Fraction(1, 5)
    kind = "square" if ctx.exact else "exp"
    spec2 = conformal_rescale(ctx.spec, s, kind=kind)
    m2 = metric_at_point(spec2, ctx.point, b.metric.order, ctx.mode)
    b2 = CurvatureBundle(m2)
    c1 = b.weyl_mixed.values()
    c2 = b2.weyl_mixed.values()
    res = relative_residual(sup_norm(c1 - c2), sup_norm(c1))
    notes = f"conformal factor: {'(1+s)^2' if ctx.exact else 'exp(2s)'} with s = {s!r}"
    return _finish("conformal_invariance", ctx, {"weyl_13": res}, notes=notes)


# -- pp-wave structure checks ----------------------------------------------------


def check_brinkmann(ctx: PointContext) -> CheckResult:
    """X = du covariantly constant (and null): the Brinkmann property."""
    b = ctx.bundle
    chart_note = "" if _null_chart(ctx.spec) else \
        "no distinguished null coordinate; using the first chart covector"
    x = chart_covector_u(ctx, jets=True)
    nx = covariant_derivative(x, b.gamma, "brinkmann").values()
    xv = x.values()
    res = relative_residual(sup_norm(nx), sup_norm(xv))
    xup = raise_lower(xv, 0, b.metric.g_inv.values())
    null_norm = abs(scalar_value(contract(xup.outer(xv), 0, 1).entries[0]))
    witnesses = {}
    notes = chart_note
    if not _passes(res, ctx):
        p, rec_res = extract_recurrence(xv, nx)
        if p is not None:
            witnesses["p"] = p
            witnesses["recurrence_residual"] = rec_res
            if _passes(rec_res, ctx):
                notes = "X is recurrent but not constant (Walker, not Brinkmann)"
    return _finish("brinkmann", ctx, {"nabla_X": res, "null": null_norm},
                   witnesses=witnesses, notes=notes)


def check_olszak(ctx: PointContext, x: Tensor | None = None) -> CheckResult:
    """Cyclic Weyl condition for a covector, plus its contracted consequences."""
    b = ctx.bundle
    weyl = b.weyl.values()
    if _is_vacuous(sup_norm(weyl), ctx.exact):
        return CheckResult("olszak", VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    notes = ""
    if x is None:
        if _null_chart(ctx.spec):
            x = chart_covector_u(ctx)
            notes = "X = du"
        else:
            x, _ = _alpha_values(ctx)
            if x is None:
                return CheckResult("olszak", VACUOUS, ctx.zero(), ctx.point,
                                   notes="no candidate covector")
            notes = "X = extracted Weyl recurrence covector"
    xnorm = sup_norm(x)
    refc = sup_norm(weyl)
    cyc = cyclic_sum(x.outer(weyl), (0, 1, 2))
    res_cyc = relative_residual(sup_norm(cyc), xnorm * refc)
    ginv = b.metric.g_inv.values()
    xup = raise_lower(x, 0, ginv)
    trace = contract(xup.outer(weyl), 0, 4)
    res_trace = relative_residual(sup_norm(trace), xnorm * refc)
    norm2 = abs(scalar_value(contract(xup.outer(x), 0, 1).entries[0]))
    res_null = relative_residual(norm2, xnorm * xnorm)
    return _finish("olszak", ctx,
                   {"cyclic": res_cyc, "contraction": res_trace, "null": res_null},
                   witnesses={"X": list(x.entries)}, notes=notes)


def _alpha_values(ctx: PointContext):
    """Value-level Weyl recurrence covector (cached)."""
    if "alpha_values" not in ctx.cache:
        b = ctx.bundle
        alpha, res = extract_recurrence(b.weyl.values(), b.nabla_weyl.values())
        if alpha is None:
            ctx.cache["alpha_values"] = (None, None)
        else:
            ctx.cache["alpha_values"] = (
                Tensor(b.dim, COV, alpha), res)
    return ctx.cache["alpha_values"]


def check_conformal_recurrence(ctx: PointContext) -> CheckResult:
    b = ctx.bundle
    weyl = b.weyl.values()
    if _is_vacuous(sup_norm(weyl), ctx.exact):
        return CheckResult("conformal_recurrence", VACUOUS, ctx.zero(),
                           ctx.point, notes="Weyl tensor vanishes")
    alpha, res = _alpha_values(ctx)
    witnesses = {"alpha": list(alpha.entries)}
    residuals = {"recurrence": res}
    notes = ""
    if ctx.spec.family == "galaev":
        matches = _galaev_match_residuals(ctx, alpha, witnesses)
        residuals.update(matches)
        # the two trace conventions are reported; one agreeing suffices
        status = PASS if _passes(res, ctx) and any(
            _passes(v, ctx) for v in matches.values()) else FAIL
        notes = "closed-form match required for at least one trace variant"
        return _finish("conformal_recurrence", ctx, residuals,
                       witnesses=witnesses, status=status, primary=res,
                       notes=notes)
    return _finish("conformal_recurrence", ctx, residuals, witnesses=witnesses)


def _galaev_match_residuals(ctx, alpha, witnesses: dict) -> dict:
    closed = galaev_alpha_closed_forms(ctx.spec, ctx.point, ctx.mode)
    out = {}
    for key, vec in closed.items():
        witnesses[key] = vec
        worst = ctx.zero()
        for a, c in zip(alpha.entries, vec):
            if abs(a - c) > worst:
                worst = abs(a - c)
        out[f"match_{key}"] = relative_residual(worst, sup_norm(alpha))
    return out


def galaev_alpha_closed_forms(spec: MetricSpec, point, mode):
    """alpha = (1/2) d log Omega^2 from the potential's trace-adjusted Hessian.

    Computes both trace conventions (subtracting 1/n and 1/d of the
    transverse Laplacian) since the family is insensitive to the choice.
    """
    H = spec.potential
    coords = spec.coords
    d = spec.n - 2
    out = {}
    for key, denom in (("half_dlog_omega2_n", spec.n), ("half_dlog_omega2_d", d)):
        trace = Polynomial(coords, {})
        for rho in range(1, d + 1):
            xr = f"x{rho}"
            trace = trace + H.derivative(xr).derivative(xr)
        omega2 = Polynomial(coords, {})
        for mu in range(1, d + 1):
            for nu in range(1, d + 1):
                om = H.derivative(f"x{mu}").derivative(f"x{nu}")
                if mu == nu:
                    om = om - trace * Fraction(1, denom)
                omega2 = omega2 + om * om
        val = omega2.evaluate(point)
        vec = []
        for name in coords:
            if not val:
                vec.append(Fraction(0))
                continue
            dv = omega2.derivative(name).evaluate(point)
            vec.append(dv / (2 * val))
        if mode != EXACT:
            vec = [float(x) for x in vec]
        out[key] = vec
    return out


def check_galaev_alpha(ctx: PointContext) -> CheckResult:
    """Extracted recurrence covector against the closed-form gradient oracle."""
    if ctx.spec.family != "galaev":
        return CheckResult("galaev_alpha", VACUOUS, ctx.zero(), ctx.point,
                           notes="only defined for the galaev family")
    weyl = ctx.bundle.weyl.values()
    if _is_vacuous(sup_norm(weyl), ctx.exact):
        return CheckResult("galaev_alpha", VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    alpha, rec_res = _alpha_values(ctx)
    witnesses = {"alpha": list(alpha.entries)}
    matches = _galaev_match_residuals(ctx, alpha, witnesses)
    residuals = {"recurrence": rec_res}
    residuals.update(matches)
    status = PASS if _passes(rec_res, ctx) and any(
        _passes(v, ctx) for v in matches.values()) else FAIL
    return _finish("galaev_alpha", ctx, residuals, witnesses=witnesses,
                   status=status, primary=rec_res,
                   notes="closed-form match required for at least one "
                         "trace variant")


def check_collinearity(ctx: PointContext, alpha: Tensor | None = None,
                       x: Tensor | None = None) -> CheckResult:
    """alpha = mu X on the largest X component, residual on the rest."""
    if x is None:
        if not _null_chart(ctx.spec):
            return CheckResult("collinearity", ERROR, ctx.zero(), ctx.point,
                               notes="no null chart to supply X = du")
        x = chart_covector_u(ctx)
    if alpha is None:
        weyl = ctx.bundle.weyl.values()
        if _is_vacuous(sup_norm(weyl), ctx.exact):
            return CheckResult("collinearity", VACUOUS, ctx.zero(), ctx.point,
                               notes="Weyl tensor vanishes; no recurrence covector")
        alpha, _ = _alpha_values(ctx)
    if not sup_norm(x):
        return CheckResult("collinearity", ERROR, ctx.zero(), ctx.point,
                           notes="X covector is zero")
    if _is_vacuous(sup_norm(alpha), ctx.exact):
        return CheckResult("collinearity", VACUOUS, ctx.zero(), ctx.point,
                           notes="alpha is zero")
    jmax = max(range(x.dim), key=lambda i: abs(x.entries[i]))
    mu = alpha.entries[jmax] / x.entries[jmax]
    worst = ctx.zero()
    for a, xe in zip(alpha.entries, x.entries):
        if abs(a - mu * xe) > worst:
            worst = abs(a - mu * xe)
    res = relative_residual(worst, sup_norm(alpha))
    return _finish("collinearity", ctx, {"collinear": res},
                   witnesses={"mu": mu, "alpha": list(alpha.entries)})


def check_schimming(ctx: PointContext) -> CheckResult:
    """The pp-wave curvature conditions for a covariantly constant null X.

    Four sub-conditions: the cyclic Riemann condition, the rank-one-D
    decomposition, the chi-quartic contraction and the vanishing
    Riemann-square; preceded by the Brinkmann precondition nabla X = 0.
    """
    b = ctx.bundle
    chart_note = "" if _null_chart(ctx.spec) else \
        "no distinguished null coordinate; using the first chart covector"
    x = chart_covector_u(ctx)
    xj = chart_covector_u(ctx, jets=True)
    nx = covariant_derivative(xj, b.gamma, "schimming precondition").values()
    pre = relative_residual(sup_norm(nx), sup_norm(x))
    riem = b.riemann.values()
    refr = sup_norm(riem)
    ginv = b.metric.g_inv.values()
    residuals = {"brinkmann_precondition": pre}
    notes = chart_note
    if not _passes(pre, ctx):
        failure = "brinkmann precondition failed: nabla X != 0"
        notes = f"{notes}; {failure}" if notes else failure
    # (a) cyclic condition
    cyc = cyclic_sum(x.outer(riem), (0, 1, 2))
    residuals["cyclic"] = relative_residual(sup_norm(cyc), sup_norm(x) * refr)
    # (b) decomposition with a symmetric D, least squares over D
    dmat, dres = _extract_schimming_d(riem, x, ctx)
    residuals["decomposition"] = dres
    # (c) quartic chi condition: T_{jklm} = R^p_{jk}^q R_{plmq}
    n = riem.dim
    a_t = raise_lower(raise_lower(riem, 0, ginv), 3, ginv)  # (p^, j, k, q^)
    quart = _double_trace(a_t, riem, ctx,
                          lambda p, j, k, q, l, m: ((p, j, k, q), (p, l, m, q)))
    x4 = x.outer(x).outer(x).outer(x)
    chi_num = None
    chi_den = None
    for idx in quart.indices():
        xe = x4[idx]
        tq = quart[idx]
        num_term = tq * xe
        den_term = xe * xe
        chi_num = num_term if chi_num is None else chi_num + num_term
        chi_den = den_term if chi_den is None else chi_den + den_term
    chi = chi_num / chi_den if chi_den else ctx.zero()
    residuals["chi_quartic"] = relative_residual(
        sup_norm(quart - x4.scale(chi)), sup_norm(quart), refr * refr)
    # (d) R_{jk}^{pq} R_{pqlm} = 0
    r_up = raise_lower(raise_lower(riem, 2, ginv), 3, ginv)   # (j,k,p^,q^)
    square = _double_trace(r_up, riem, ctx,
                           lambda p, j, k, q, l, m: ((j, k, p, q), (p, q, l, m)))
    residuals["riemann_square"] = relative_residual(sup_norm(square), refr * refr)
    return _finish("schimming", ctx, residuals,
                   witnesses={"D": dmat, "chi": chi}, notes=notes)


def _double_trace(a: Tensor, b: Tensor, ctx: PointContext, index_map):
    """out[j,k,l,m] = sum_{p,q} a[..] b[..] with slots routed by index_map.

    Avoids materializing the rank-8 outer product; zero entries of `a`
    short-circuit the inner sum.
    """
    n = a.dim
    out = Tensor.zeros(n, "llll", ctx.zero())
    rng = range(n)
    for p in rng:
        for j in rng:
            for k in rng:
                for q in rng:
                    ia, _ = index_map(p, j, k, q, 0, 0)
                    av = a[ia]
                    if not av:
                        continue
                    for l in rng:
                        for m in rng:
                            _, ib = index_map(p, j, k, q, l, m)
                            bv = b[ib]
                            if bv:
                                out[j, k, l, m] = out[j, k, l, m] + av * bv
    return out


def _extract_schimming_d(riem: Tensor, x: Tensor, ctx: PointContext):
    """Least-squares symmetric D for the rank-one curvature decomposition."""
    n = riem.dim
    pairs = [(a, b) for a in range(n) for b in range(a, n)]

    def model(da, db):
        t = Tensor.zeros(n, "llll", riem.entries[0])
        for j in range(n):
            for k in range(n):
                xx_jk = (x.entries[j], x.entries[k])
                for l in range(n):
                    for m in range(n):
                        val = ctx.zero()
                        if (k, l) == (da, db) or (k, l) == (db, da):
                            val = val + x.entries[j] * x.entries[m]
                        if (m, k) == (da, db) or (m, k) == (db, da):
                            val = val - x.entries[j] * x.entries[l]
                        if (j, l) == (da, db) or (j, l) == (db, da):
                            val = val - x.entries[k] * x.entries[m]
                        if (j, m) == (da, db) or (j, m) == (db, da):
                            val = val + x.entries[k] * x.entries[l]
                        if val:
                            t[j, k, l, m] = val
        return t

    basis = [model(a, b) for a, b in pairs]
    k = len(pairs)
    gram = [[ctx.zero() for _ in range(k)] for _ in range(k)]
    rhs = [ctx.zero() for _ in range(k)]
    for e in range(k):
        be = basis[e]
        for f in range(e, k):
            bf = basis[f]
            acc = ctx.zero()
            for p, q in zip(be.entries, bf.entries):
                acc = acc + p * q
            gram[e][f] = gram[f][e] = acc
        acc = ctx.zero()
        for p, q in zip(be.entries, riem.entries):
            acc = acc + p * q
        rhs[e] = acc
    try:
        coeffs = linalg.solve(gram, rhs)
    except linalg.SingularMatrixError:
        # degenerate normal equations: drop unconstrained directions
        coeffs = [ctx.zero()] * k
        for e in range(k):
            if gram[e][e]:
                coeffs[e] = rhs[e] / gram[e][e]
    recon = Tensor.zeros(n, "llll", riem.entries[0])
    for c, bt in zip(coeffs, basis):
        if c:
            recon = recon + bt.scale(c)
    res = relative_residual(sup_norm(riem - recon), sup_norm(riem))
    dmat = [[ctx.zero()] * n for _ in range(n)]
    for (a, b), c in zip(pairs, coeffs):
        dmat[a][b] = dmat[b][a] = c
    return dmat, res


def check_pure_radiation(ctx: PointContext) -> CheckResult:
    """Ricci = psi X (x) X with psi from the potential; Lemma-style biconditional
    between divergence-free Weyl and the gradient of psi being along X."""
    if not _ppwave_like(ctx.spec):
        return CheckResult("pure_radiation", ERROR, ctx.zero(), ctx.point,
                           notes="unsupported: needs a built pp-wave family")
    b = ctx.bundle
    x = chart_covector_u(ctx)
    ric = b.ricci.values()
    psi = ric[0, 0]
    xx = x.outer(x)
    residuals = {
        "ricci_form": relative_residual(sup_norm(ric - xx.scale(psi)),
                                        sup_norm(ric)),
    }
    psi_poly = ctx.spec.expected_psi
    psi_expected = psi_poly.evaluate(ctx.point)
    if ctx.mode != EXACT:
        psi_expected = float(psi_expected)
    residuals["psi_matches_potential"] = relative_residual(
        abs(psi - psi_expected), abs(psi_expected), abs(psi))
    # gradient of psi against X
    grad = [psi_poly.derivative(name).evaluate(ctx.point)
            for name in ctx.spec.coords]
    if ctx.mode != EXACT:
        grad = [float(g) for g in grad]
    lam = grad[0]
    worst = ctx.zero()
    gnorm = ctx.zero()
    for gi, xe in zip(grad, x.entries):
        if abs(gi - lam * xe) > worst:
            worst = abs(gi - lam * xe)
        if abs(gi) > gnorm:
            gnorm = abs(gi)
    grad_parallel = relative_residual(worst, gnorm)
    divc = b.div_weyl.values()
    div_res = relative_residual(sup_norm(divc), sup_norm(b.nabla_weyl.values()))
    parallel_ok = _passes(grad_parallel, ctx)
    div_ok = _passes(div_res, ctx)
    biconditional = ctx.zero() if parallel_ok == div_ok else \
        (Fraction(1) if ctx.exact else 1.0)
    residuals["lemma_biconditional"] = biconditional
    witnesses = {"psi": psi, "psi_sign": (psi > 0) - (psi < 0),
                 "div_weyl_residual": div_res,
                 "grad_psi_parallel_residual": grad_parallel}
    if parallel_ok:
        witnesses["lambda"] = lam
    notes = ("grad psi parallel to X and div C = 0" if parallel_ok and div_ok
             else "grad psi not along X and div C != 0 (biconditional exercised)"
             if not parallel_ok and not div_ok else "biconditional violated")
    return _finish("pure_radiation", ctx, residuals, witnesses=witnesses,
                   notes=notes)


def check_roter_bundle(ctx: PointContext) -> CheckResult:
    """Roter's characterization: nonzero Weyl, recurrence with closed alpha,
    Codazzi Ricci; plus the scalar-curvature consequences R = 0, grad R = 0."""
    b = ctx.bundle
    weyl = b.weyl.values()
    wnorm = sup_norm(weyl)
    if _is_vacuous(wnorm, ctx.exact):
        return CheckResult("roter_bundle", VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    _, rec_res = _alpha_values(ctx)
    residuals = {"recurrence": rec_res}
    witnesses = {}
    alpha_jets = _jet_alpha(ctx)
    if alpha_jets is not None:
        n = b.dim
        worst = ctx.zero()
        for i in range(n):
            for j in range(i + 1, n):
                d = abs(alpha_jets[j].derivative(i, "alpha closedness").value
                        - alpha_jets[i].derivative(j, "alpha closedness").value)
                if d > worst:
                    worst = d
        avals = Tensor(n, COV, [a.value for a in alpha_jets.entries])
        residuals["alpha_closed"] = relative_residual(worst, sup_norm(avals),
                                                      Fraction(1) if ctx.exact else 1.0)
        witnesses["alpha"] = list(avals.entries)
    nr = b.nabla_ricci.values()
    n = b.dim
    codazzi = Tensor.zeros(n, "lll", nr.entries[0])
    for k in range(n):
        for j in range(k + 1, n):
            for l in range(n):
                codazzi[k, j, l] = nr[k, j, l] - nr[j, k, l]
    residuals["codazzi"] = relative_residual(sup_norm(codazzi), sup_norm(nr))
    rnorm = abs(scalar_value(b.scalar))
    residuals["scalar_zero"] = relative_residual(
        rnorm, sup_norm(b.ricci.values()), wnorm)
    residuals["grad_scalar_zero"] = relative_residual(
        sup_norm(b.nabla_scalar.values()), sup_norm(nr), wnorm)
    return _finish("roter_bundle", ctx, residuals, witnesses=witnesses)


def check_ricci_recurrence(ctx: PointContext) -> CheckResult:
    b = ctx.bundle
    ric = b.ricci.values()
    if _is_vacuous(sup_norm(ric), ctx.exact):
        return CheckResult("ricci_recurrence", VACUOUS, ctx.zero(), ctx.point,
                           notes="Ricci tensor vanishes (vacuum)")
    omega, res = extract_recurrence(ric, b.nabla_ricci.values())
    n = b.dim
    om = Tensor(n, COV, omega)
    ginv = b.metric.g_inv.values()
    om_up = raise_lower(om, 0, ginv)
    null_norm = abs(scalar_value(contract(om_up.outer(om), 0, 1).entries[0]))
    onorm = sup_norm(om)
    res_null = relative_residual(null_norm, onorm * onorm) if onorm else ctx.zero()
    tr = contract(om_up.outer(ric), 0, 1)
    res_tr = relative_residual(sup_norm(tr), onorm * sup_norm(ric)) if onorm \
        else ctx.zero()
    return _finish("ricci_recurrence", ctx,
                   {"recurrence": res, "omega_null": res_null,
                    "omega_ricci_trace": res_tr},
                   witnesses={"omega": omega})


def check_eqs_2_3_2_4(ctx: PointContext) -> CheckResult:
    """Cyclic Weyl/Riemann conditions for a rank-one Ricci tensor.

    The witness direction is extracted from Ricci itself; residuals are
    scale-free, so the choice of normalization for the witness covector
    does not affect them.
    """
    b = ctx.bundle
    ric = b.ricci.values()
    if _is_vacuous(sup_norm(ric), ctx.exact):
        return CheckResult("eqs_2_3_2_4", VACUOUS, ctx.zero(), ctx.point,
                           notes="Ricci tensor vanishes; d = 0")
    n = b.dim
    i0, j0 = max(((i, j) for i in range(n) for j in range(n)),
                 key=lambda p: abs(ric[p]))
    pivot = ric[i0, j0]
    worst = ctx.zero()
    for i in range(n):
        for j in range(n):
            d = abs(ric[i, j] * pivot - ric[i, j0] * ric[i0, j])
            if d > worst:
                worst = d
    rank_one = relative_residual(worst, sup_norm(ric) ** 2)
    if not _passes(rank_one, ctx):
        return CheckResult("eqs_2_3_2_4", VACUOUS, rank_one, ctx.point,
                           residuals={"rank_one": rank_one},
                           notes="Ricci is not rank-one")
    dvec = Tensor(n, COV, [ric[i, j0] for i in range(n)])
    weyl = b.weyl.values()
    riem = b.riemann.values()
    dn = sup_norm(dvec)
    res_c = relative_residual(
        sup_norm(cyclic_sum(dvec.outer(weyl), (0, 1, 2))), dn * sup_norm(weyl))
    res_r = relative_residual(
        sup_norm(cyclic_sum(dvec.outer(riem), (0, 1, 2))), dn * sup_norm(riem))
    eps = (pivot > 0) - (pivot < 0)
    return _finish("eqs_2_3_2_4", ctx,
                   {"cyclic_weyl": res_c, "cyclic_riemann": res_r},
                   witnesses={"d_direction": list(dvec.entries), "epsilon": eps})


def check_laplacians(ctx: PointContext) -> CheckResult:
    """Laplacians of Ricci/Weyl/Riemann and the double-divergence relation."""
    b = ctx.bundle
    b.require(4, "laplacians")
    n = b.dim
    residuals = {
        "lap_ricci": relative_residual(sup_norm(b.lap_ricci.values()),
                                       sup_norm(b.ricci.values()),
                                       sup_norm(b.riemann.values())),
        "lap_weyl": relative_residual(sup_norm(b.lap_weyl.values()),
                                      sup_norm(b.weyl.values())),
        "lap_riemann": relative_residual(sup_norm(b.lap_riemann.values()),
                                         sup_norm(b.riemann.values())),
    }
    lhs = b.double_div_weyl.values()
    coeff = -(Fraction(n - 3, n - 2) if ctx.exact else (n - 3) / (n - 2))
    rhs = b.lap_ricci.values().scale(coeff)
    residuals["double_divergence_relation"] = relative_residual(
        sup_norm(lhs - rhs), sup_norm(lhs), sup_norm(rhs),
        sup_norm(b.nabla_ricci.values()))
    # reported for the two-symmetric family; not part of the pass criterion
    two_sym = relative_residual(sup_norm(b.nabla2_riemann.values()),
                                sup_norm(b.riemann.values()))
    result = _finish("laplacians", ctx, residuals)
    result.witnesses["second_nabla_riemann_residual"] = two_sym
    return result


def check_semisymmetry(ctx: PointContext) -> CheckResult:
    """Commutators [nabla, nabla] annihilating Ricci, Weyl and Riemann."""
    b = ctx.bundle
    b.require(4, "semisymmetry")
    residuals = {}
    for key, second, ref in (
            ("ricci", b.nabla2_ricci, b.nabla_ricci),
            ("weyl", b.nabla2_weyl, b.nabla_weyl),
            ("riemann", b.nabla2_riemann, b.nabla_riemann)):
        vals = second.values()
        perm = list(range(vals.rank))
        perm[0], perm[1] = 1, 0
        comm = vals - vals.permute(perm)
        residuals[f"commutator_{key}"] = relative_residual(
            sup_norm(comm), sup_norm(vals), sup_norm(ref.values()))
    return _finish("semisymmetry", ctx, residuals)


def check_alpha_recurrent(ctx: PointContext) -> CheckResult:
    """The recurrence covector is itself recurrent, with the structure
    nabla_j alpha_i = rho alpha_i alpha_j, divergence-free and C-transversal."""
    b = ctx.bundle
    weyl = b.weyl.values()
    if _is_vacuous(sup_norm(weyl), ctx.exact):
        return CheckResult("alpha_recurrent", VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    alpha_jets = _jet_alpha(ctx)
    if alpha_jets is None:
        return CheckResult("alpha_recurrent", VACUOUS, ctx.zero(), ctx.point,
                           notes="no recurrence covector")
    n = b.dim
    avals = Tensor(n, COV, [a.value for a in alpha_jets.entries])
    if _is_vacuous(sup_norm(avals), ctx.exact):
        return CheckResult("alpha_recurrent", VACUOUS, ctx.zero(), ctx.point,
                           notes="alpha vanishes at the point")
    na = covariant_derivative(alpha_jets, b.gamma, "alpha_recurrent").values()
    q, rec_res = extract_recurrence(avals, na)
    residuals = {"recurrence": rec_res}
    # closedness: nabla alpha symmetric
    worst = ctx.zero()
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(na[i, j] - na[j, i])
            if d > worst:
                worst = d
    residuals["closed"] = relative_residual(worst, sup_norm(na), sup_norm(avals))
    # structure nabla_j alpha_i = rho alpha_j alpha_i
    aa = avals.outer(avals)
    num = den = ctx.zero()
    for idx in aa.indices():
        num = num + na[idx] * aa[idx]
        den = den + aa[idx] * aa[idx]
    rho = num / den if den else ctx.zero()
    residuals["rank_one_structure"] = relative_residual(
        sup_norm(na - aa.scale(rho)), sup_norm(na), sup_norm(avals) ** 2)
    ginv = b.metric.g_inv.values()
    div = ctx.zero()
    for i in range(n):
        for j in range(n):
            div = div + ginv[i, j] * na[i, j]
    residuals["divergence_free"] = relative_residual(abs(div), sup_norm(na),
                                                     sup_norm(avals))
    # alpha^i nabla_i C = 0
    a_up = raise_lower(avals, 0, ginv)
    transv = contract(a_up.outer(b.nabla_weyl.values()), 0, 1)
    residuals["transversal"] = relative_residual(
        sup_norm(transv), sup_norm(avals) * sup_norm(b.nabla_weyl.values()))
    q_witness = [rho * a for a in avals.entries]
    return _finish("alpha_recurrent", ctx, residuals,
                   witnesses={"q": q if q is not None else q_witness,
                              "rho": rho, "alpha": list(avals.entries)})


def check_field_equations(ctx: PointContext) -> CheckResult:
    """Higher-derivative field operator on Ricci, with the pure-radiation source."""
    if not _ppwave_like(ctx.spec):
        return CheckResult("field_equations", ERROR, ctx.zero(), ctx.point,
                           notes="unsupported: needs a built pp-wave family")
    b = ctx.bundle
    coeffs = [Fraction(c) if ctx.exact else float(c) for c in ctx.field_coeffs]
    ric = b.ricci.values()
    lap = b.lap_ricci.values()
    op = ric.scale(coeffs[0])
    if len(coeffs) > 1:
        op = op + lap.scale(coeffs[1])
    notes = ""
    higher_certified = False
    if len(coeffs) > 2:
        if sup_norm(lap) == 0 or (not ctx.exact and
                                  _is_vacuous(sup_norm(lap), False)):
            higher_certified = True
            notes = ("powers (nabla^2)^p, p >= 2 certified zero: "
                     "nabla^2 Ricci = 0 holds exactly")
        else:
            b.require(2 + 2 * (len(coeffs) - 1), "field_equations higher powers")
    residuals = {"operator_reduces": relative_residual(
        sup_norm(op - ric.scale(coeffs[0])), sup_norm(ric))}
    # Einstein limit: Ricci - R g / 2 against the radiation form psi X (x) X
    x = chart_covector_u(ctx)
    psi = ric[0, 0]
    g = b.metric.g.values()
    half = Fraction(1, 2) if ctx.exact else 0.5
    einstein = ric - g.scale(scalar_value(b.scalar) * half)
    residuals["einstein_pure_radiation"] = relative_residual(
        sup_norm(einstein - x.outer(x).scale(psi)), sup_norm(ric))
    t_uu = coeffs[0] * psi
    witnesses = {"psi": psi, "source_T_uu": t_uu,
                 "radiation_sign": (psi > 0) - (psi < 0)}
    psi_poly = ctx.spec.expected_psi
    if psi_poly is not None:
        expect = psi_poly.evaluate(ctx.point)
        if ctx.mode != EXACT:
            expect = float(expect)
        residuals["source_matches_family_psi"] = relative_residual(
            abs(psi - expect), abs(expect), abs(psi))
    if higher_certified:
        witnesses["higher_powers"] = "certified zero"
    return _finish("field_equations", ctx, residuals, witnesses=witnesses,
                   notes=notes)


# -- registry -------------------------------------------------------------------

CHECKS = {
    "bianchi": check_bianchi,
    "weyl_trace": check_weyl_trace,
    "weyl_cyclic_identity": check_weyl_cyclic_identity,
    "weyl_divergence_formula": check_weyl_divergence_formula,
    "brinkmann": check_brinkmann,
    "schimming": check_schimming,
    "olszak": check_olszak,
    "conformal_recurrence": check_conformal_recurrence,
    "galaev_alpha": check_galaev_alpha,
    "collinearity": check_collinearity,
    "roter_bundle": check_roter_bundle,
    "ricci_recurrence": check_ricci_recurrence,
    "eqs_2_3_2_4": check_eqs_2_3_2_4,
    "pure_radiation": check_pure_radiation,
    "laplacians": check_laplacians,
    "semisymmetry": check_semisymmetry,
    "alpha_recurrent": check_alpha_recurrent,
    "field_equations": check_field_equations,
    "conformal_invariance": check_conformal_invariance,
}

# minimum jet order each check needs; enforced before a run starts
ORDER_BUDGET = {
    "bianchi": 3,
    "weyl_trace": 2,
    "weyl_cyclic_identity": 3,
    "weyl_divergence_formula": 3,
    "brinkmann": 2,
    "schimming": 2,
    "olszak": 2,
    "conformal_recurrence": 3,
    "galaev_alpha": 3,
    "collinearity": 3,
    "roter_bundle": 4,
    "ricci_recurrence": 3,
    "eqs_2_3_2_4": 2,
    "pure_radiation": 3,
    "laplacians": 4,
    "semisymmetry": 4,
    "alpha_recurrent": 4,
    "field_equations": 4,
    "conformal_invariance": 2,
}
