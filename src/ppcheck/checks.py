"""Condition checkers with witness extraction and residual reporting.

Every checker consumes a PointContext (one metric, one point, one curvature
bundle) and returns a CheckResult.  Residuals are relative sup-norm
quantities; in exact mode a check passes only when its residual is exactly
zero, in float mode when it is within the run tolerance.

A check reads curvature only from the bundle's `stage`s (geometry.stage),
the Weyl recurrence covector's among them.  `@check(k)` registers
`check_<name>` in CHECKS and its order budget k in ORDER_BUDGET: the
largest `needs` of the stages it may read, and so the order a run of it
builds its points to.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .geometry import CurvatureBundle, rescaled
from .jets import EXACT, Jet, jet_exp, jet_from_polynomial
from .metrics import (MAX_FIELD_COEFFS, MetricSpec, _transverse_laplacian,
                      has_null_chart)
from .polynomials import Polynomial
from .tensors import (COV, Values, _pow2, contract, cyclic_sum, dot,
                      extract_recurrence, raise_lower, relative_residual,
                      sup_norm, tensordot)

VACUITY_FLOOR = 1e-12

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
ERROR = "error"

CHECKS, ORDER_BUDGET = {}, {}


def check(budget: int):
    """Register `check_<name>` as the check `name` with its order budget."""
    def register(fn):
        name = fn.__name__.removeprefix("check_")
        CHECKS[name], ORDER_BUDGET[name] = fn, budget
        return fn
    return register


class CheckResult:
    def __init__(self, name: str, status: str, residual, point: tuple,
                 witnesses: dict | None = None, residuals: dict | None = None,
                 notes: str = ""):
        self.name, self.status, self.point = name, status, point
        self.residual = residual            # Fraction or float
        self.witnesses = {} if witnesses is None else witnesses
        self.residuals = {} if residuals is None else residuals
        self.notes = notes


class PointContext:
    def __init__(self, spec: MetricSpec, point: tuple, mode: str,
                 bundle: CurvatureBundle, tolerance: float = 1e-9,
                 field_coeffs: tuple = (1, 1)):
        self.spec, self.point, self.mode, self.bundle = spec, point, mode, bundle
        self.tolerance, self.field_coeffs = tolerance, field_coeffs

    @property
    def exact(self) -> bool:
        return self.mode == EXACT

    def zero(self):
        return Fraction(0) if self.exact else 0.0


# -- small helpers ------------------------------------------------------------


def _cyclic_residual(x: Values, t: Values):
    """sup|x_i t_jk.. + x_j t_ki.. + x_k t_ij..| relative to sup|x| sup|t|;
    float mode first scales x and t by `_pow2` of their norms, which keeps
    the products in range and the residual as it is."""
    xn, tn = sup_norm(x), sup_norm(t)
    if not t.exact:
        a, b = _pow2(xn), _pow2(tn)
        x, t, xn, tn = x.scale(a), t.scale(b), xn * a, tn * b
    elif 0 in x.num or 0 in t.num:
        # `outer`'s int-zero fill would write offset 0, so a zero residual
        # leaves as Fraction(0); a Fraction(0) zero gives it without the fill
        x = x.scale(1)
    return relative_residual(sup_norm(cyclic_sum(x.outer(t), (0, 1, 2))),
                             xn * tn)


def _is_vacuous(norm, exact: bool) -> bool:
    return (not norm) if exact else (norm <= VACUITY_FLOOR)


def _passes(residual, ctx: PointContext) -> bool:
    return (residual == 0) if ctx.exact else (abs(residual) <= ctx.tolerance)


def _finish(name, ctx, residuals: dict, witnesses=None, notes="",
            status=None, primary=None):
    worst = ctx.zero()
    for r in residuals.values():
        if abs(r) > abs(worst) or r != r:   # a NaN is the worst there is
            worst = r
    if primary is None:
        primary = worst
    if status is None:
        status = PASS if all(_passes(r, ctx) for r in residuals.values()) else FAIL
    return CheckResult(name=name, status=status, residual=primary,
                       point=ctx.point, witnesses=witnesses,
                       residuals=residuals, notes=notes)


def _float(x) -> float:
    """A rational x as a float, or +-inf where its magnitude is past the
    float range, so that a residual against it is non-finite and fails."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _family_psi(ctx: PointContext):
    """The built pp-wave's psi at the point, and its chart gradient as
    Values; in float mode each through `_float`."""
    psi = ctx.spec.expected_psi
    vals = [psi.evaluate(ctx.point)]
    vals += (psi.derivative(x).evaluate(ctx.point) for x in ctx.spec.coords)
    if not ctx.exact:
        vals = [_float(x) for x in vals]
    return vals[0], Values.of(ctx.bundle.dim, COV, vals[1:])


def _ratio(num, den: int, exact: bool):
    """num/den as a reported number: a Fraction in exact mode (Fraction(0)
    for 0), a float otherwise."""
    return Fraction(num, den) if exact else num / den


def _antisymmetric_norm(t: Values):
    """max |t_ij.. - t_ji..| over the first two slots of t's values."""
    d = t - t.permute((1, 0) + tuple(range(2, t.rank)))
    return sup_norm(d) or _ratio(0, 1, t.exact)


def chart_covector_u(ctx: PointContext) -> Values:
    """X = du in chart components (1 in the u slot)."""
    n = ctx.bundle.dim
    one = Fraction(1) if ctx.exact else 1.0
    return Values.of(n, COV, [one if i == 0 else ctx.zero() for i in range(n)])


def nabla_chart_covector_u(ctx: PointContext) -> Values:
    """nabla_i X_j = -Gamma^0_{ij} for X = du, whose chart components are
    constant."""
    gam = ctx.bundle.gamma      # Gamma^0_{ij} at offset i*n + j
    n = gam.dim
    return Values(n, COV * 2,
                  {o: -x for o, x in gam.num.items() if o < n * n}, gam.den,
                  gam.zero)


# -- universal identity checks --------------------------------------------------


@check(3)
def check_bianchi(ctx: PointContext) -> CheckResult:
    # Riemann and nabla Riemann are tagged, one entry per orbit of their
    # pair symmetries, so those hold by construction; the cyclic sums, on
    # the expanded images, are what no orbit relation imposes.
    b = ctx.bundle
    residuals = {}
    for key, name in (("first", "riemann"), ("second", "nabla_riemann")):
        t = getattr(b, name)
        residuals[key] = relative_residual(
            sup_norm(cyclic_sum(t, (0, 1, 2))), sup_norm(t))
    return _finish("bianchi", ctx, residuals)


@check(2)
def check_weyl_trace(ctx: PointContext) -> CheckResult:
    b = ctx.bundle
    weyl = b.weyl
    ginv = b.g_inv
    ref = sup_norm(weyl)
    residuals = {}
    for a in range(4):
        for c in range(a + 1, 4):
            tr = contract(weyl, a, c, ginv)
            residuals[f"trace_{a}{c}"] = relative_residual(sup_norm(tr), ref)
    return _finish("weyl_trace", ctx, residuals)


@check(3)
def check_weyl_cyclic_identity(ctx: PointContext) -> CheckResult:
    """The cyclic identity of nabla C with its divergence side, covariant:
    sum_cyc(i,j,k) nabla_i C_jklm
        = 1/(n-3) sum_cyc(i,j,k) (g_im D_jkl + g_kl D_jim),
    D_jkl = nabla^m C_jklm."""
    b = ctx.bundle
    # D scaled before `outer`, so that it has no int zero to fill:
    # slots (a, b, p, q, r) = g_ab D_pqr / (n-3)
    gd = b.g.outer(b.div_weyl.scale(_ratio(1, b.dim - 3, ctx.exact)))
    # in slots (i, j, k, l, m): g_im D_jkl + g_kl D_jim
    rhs = cyclic_sum(gd.permute((0, 2, 3, 4, 1)) + gd.permute((3, 2, 0, 1, 4)),
                     (0, 1, 2))
    lhs = cyclic_sum(b.nabla_weyl, (0, 1, 2))
    res = relative_residual(sup_norm(lhs - rhs), sup_norm(b.nabla_weyl))
    return _finish("weyl_cyclic_identity", ctx, {"identity": res})


@check(3)
def check_weyl_divergence_formula(ctx: PointContext) -> CheckResult:
    """div C against its Ricci/scalar-curvature expression:
    div C_jkl = (n-3)/(n-2) (nabla_k R_jl - nabla_j R_kl)
                + (n-3)/(2(n-1)(n-2)) (g_kl nabla_j R - g_jl nabla_k R)."""
    b = ctx.bundle
    n = b.dim
    lhs = b.div_weyl                            # (j, k, l)
    nr = b.nabla_ricci                          # (i, k, l)
    ns = b.nabla_scalar                         # (i,)
    g = b.g
    c1 = _ratio(n - 3, n - 2, ctx.exact)
    c2 = _ratio(n - 3, 2 * (n - 1) * (n - 2), ctx.exact)
    gns = g.outer(ns)                           # g_ab nabla_c R
    rhs = ((nr.permute((1, 0, 2)) - nr).scale(c1)
           + (gns.permute((2, 0, 1)) - gns.permute((0, 2, 1))).scale(c2))
    res = relative_residual(sup_norm(lhs - rhs), sup_norm(lhs), sup_norm(nr))
    return _finish("weyl_divergence_formula", ctx, {"identity": res})


@check(2)
def check_conformal_invariance(ctx: PointContext) -> CheckResult:
    """(1,3)-Weyl equality under a conformal rescale of the metric.

    The rescaled metric jets are the point's own times a factor jet
    (geometry.rescaled).  Exact mode uses the positive-square factor
    (1+s)^2; float mode uses e^{2(s - s(p))}, a constant multiple of
    e^{2s}, via exponential jets.  Weyl values at a point depend only on
    the metric 2-jet, so the factor, and with it the rescaled bundle, is
    built at jet order 2 whatever the run's order.
    """
    b = ctx.bundle
    s = Polynomial.variable(ctx.spec.coords, ctx.spec.coords[0]) * Fraction(1, 5)
    sj = jet_from_polynomial(s, ctx.point, 2, ctx.mode)
    if ctx.exact:
        w = sj + Jet.constant(b.dim, 2, 1, ctx.mode)
        factor = w * w
    else:   # unlike exp(2s), finite at a huge s(p); the same (1,3) Weyl
        s0 = Jet.constant(b.dim, 2, sj.value, ctx.mode)
        factor = jet_exp((sj - s0) * 2.0)
    c1 = b.weyl_mixed
    c2 = CurvatureBundle(rescaled(b.metric, factor)).weyl_mixed
    res = relative_residual(sup_norm(c1 - c2), sup_norm(c1))
    notes = f"conformal factor: {'(1+s)^2' if ctx.exact else 'exp(2s)'} with s = {s!r}"
    return _finish("conformal_invariance", ctx, {"weyl_13": res}, notes=notes)


# -- pp-wave structure checks ----------------------------------------------------


@check(2)
def check_brinkmann(ctx: PointContext) -> CheckResult:
    """X = du covariantly constant (and null): the Brinkmann property."""
    b = ctx.bundle
    chart_note = "" if has_null_chart(ctx.spec) else \
        "no distinguished null coordinate; using the first chart covector"
    xv = chart_covector_u(ctx)
    nx = nabla_chart_covector_u(ctx)
    res = relative_residual(sup_norm(nx), sup_norm(xv))
    xup = raise_lower(xv, 0, b.g_inv)
    null_norm = abs(dot(xup, xv))
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


@check(3)
def check_olszak(ctx: PointContext, x: Values | None = None) -> CheckResult:
    """Cyclic Weyl condition for a covector, plus its contracted consequences."""
    b = ctx.bundle
    weyl = b.weyl
    if _is_vacuous(refc := sup_norm(weyl), ctx.exact):
        return CheckResult("olszak", VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    notes = ""
    if x is None:
        if has_null_chart(ctx.spec):
            x = chart_covector_u(ctx)
            notes = "X = du"
        else:
            x, _ = b.recurrence
            if x is None:
                return CheckResult("olszak", VACUOUS, ctx.zero(), ctx.point,
                                   notes="no candidate covector")
            notes = "X = extracted Weyl recurrence covector"
    xnorm = sup_norm(x)
    res_cyc = _cyclic_residual(x, weyl)
    xup = raise_lower(x, 0, b.g_inv)
    trace = tensordot(weyl, xup, 1)
    res_trace = relative_residual(sup_norm(trace), xnorm * refc)
    norm2 = abs(dot(xup, x))
    res_null = relative_residual(norm2, xnorm * xnorm)
    return _finish("olszak", ctx,
                   {"cyclic": res_cyc, "contraction": res_trace, "null": res_null},
                   witnesses={"X": x.entries}, notes=notes)


@check(3)
def check_conformal_recurrence(ctx: PointContext) -> CheckResult:
    return _weyl_recurrence("conformal_recurrence", ctx)


def _weyl_recurrence(name: str, ctx: PointContext) -> CheckResult:
    """Weyl recurrence residual; on the galaev family also the match of the
    extracted covector with its two closed forms, one of which must agree."""
    weyl = ctx.bundle.weyl
    if _is_vacuous(sup_norm(weyl), ctx.exact):
        return CheckResult(name, VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    alpha, res = ctx.bundle.recurrence
    witnesses = {"alpha": alpha.entries}
    residuals = {"recurrence": res}
    if ctx.spec.family != "galaev":
        return _finish(name, ctx, residuals, witnesses=witnesses)
    anorm = sup_norm(alpha)
    matches = {}
    for key, vec in galaev_alpha_closed_forms(ctx.spec, ctx.point,
                                              ctx.mode).items():
        witnesses[key] = vec
        matches[f"match_{key}"] = relative_residual(
            sup_norm(alpha - Values.of(alpha.dim, COV, vec)), anorm)
    residuals.update(matches)
    # the two trace conventions are reported; one agreeing suffices
    status = PASS if _passes(res, ctx) and any(
        _passes(v, ctx) for v in matches.values()) else FAIL
    return _finish(name, ctx, residuals, witnesses=witnesses, status=status,
                   primary=res, notes="closed-form match required for at "
                                      "least one trace variant")


def galaev_alpha_closed_forms(spec: MetricSpec, point, mode):
    """alpha = (1/2) d log Omega^2 from the potential's trace-adjusted Hessian.

    Computes both trace conventions (subtracting 1/n and 1/d of the
    transverse Laplacian) since the family is insensitive to the choice.
    """
    out = {}
    for key, (omega2, grad) in _omega2_gradients(spec.potential, spec.n):
        val = omega2.evaluate(point)
        vec = [dv.evaluate(point) / (2 * val) if val else Fraction(0)
               for dv in grad]
        if mode != EXACT:
            vec = [_float(x) for x in vec]
        out[key] = vec
    return out


@cache
def _omega2_gradients(H: Polynomial, n: int):
    """((key, (Omega^2, its gradient)), ...) for both trace conventions;
    they depend only on the potential, so each is built once per H."""
    coords = H.variables
    d = n - 2
    trace = _transverse_laplacian(H, coords)
    out = []
    for key, denom in (("half_dlog_omega2_n", n), ("half_dlog_omega2_d", d)):
        omega2 = Polynomial(coords, {})
        for mu in range(1, d + 1):
            for nu in range(1, d + 1):
                om = H.derivative(f"x{mu}").derivative(f"x{nu}")
                if mu == nu:
                    om = om - trace * Fraction(1, denom)
                omega2 = omega2 + om * om
        out.append((key, (omega2, tuple(map(omega2.derivative, coords)))))
    return tuple(out)


@check(3)
def check_galaev_alpha(ctx: PointContext) -> CheckResult:
    """Extracted recurrence covector against the closed-form gradient oracle."""
    if ctx.spec.family != "galaev":
        return CheckResult("galaev_alpha", VACUOUS, ctx.zero(), ctx.point,
                           notes="only defined for the galaev family")
    return _weyl_recurrence("galaev_alpha", ctx)


@check(3)
def check_collinearity(ctx: PointContext, alpha: Values | None = None,
                       x: Values | None = None) -> CheckResult:
    """alpha = mu X on the largest X component, residual on the rest."""
    if x is None:
        if not has_null_chart(ctx.spec):
            return CheckResult("collinearity", ERROR, ctx.zero(), ctx.point,
                               notes="no null chart to supply X = du")
        x = chart_covector_u(ctx)
    if alpha is None:
        weyl = ctx.bundle.weyl
        if _is_vacuous(sup_norm(weyl), ctx.exact):
            return CheckResult("collinearity", VACUOUS, ctx.zero(), ctx.point,
                               notes="Weyl tensor vanishes; no recurrence covector")
        alpha, _ = ctx.bundle.recurrence
    if not sup_norm(x):
        return CheckResult("collinearity", ERROR, ctx.zero(), ctx.point,
                           notes="X covector is zero")
    if _is_vacuous(sup_norm(alpha), ctx.exact):
        return CheckResult("collinearity", VACUOUS, ctx.zero(), ctx.point,
                           notes="alpha is zero")
    xs, als = x.entries, alpha.entries
    jmax = max(range(x.dim), key=lambda i: abs(xs[i]))
    mu = als[jmax] / xs[jmax]
    res = relative_residual(sup_norm(alpha - x.scale(mu)), sup_norm(alpha))
    return _finish("collinearity", ctx, {"collinear": res},
                   witnesses={"mu": mu, "alpha": als})


@check(2)
def check_schimming(ctx: PointContext) -> CheckResult:
    """The pp-wave curvature conditions for a covariantly constant null X.

    Four sub-conditions: the cyclic Riemann condition, the rank-one-D
    decomposition, the chi-quartic contraction and the vanishing
    Riemann-square; preceded by the Brinkmann precondition nabla X = 0.

    X is du, so the least-squares D and chi are read off the curvature.
    B(D)_jklm = X_j X_m D_kl - X_j X_l D_mk - X_k X_m D_jl + X_k X_l D_jm
    sends each D = X (.) Y to zero: the fit leaves those D_0a free, and
    they are reported as 0.  Each other D_ab is B(D) at the entries with
    one 0 in each slot pair, where Riemann, filled from its pair-symmetry
    orbits, is exactly +-R_0ab0; so D_ab = R_0ab0 fits them with no error,
    and the residual is R off them.  Likewise chi = T_0000, the one entry
    of X^4, and the residual is T at every other entry.
    """
    b = ctx.bundle
    chart_note = "" if has_null_chart(ctx.spec) else \
        "no distinguished null coordinate; using the first chart covector"
    x = chart_covector_u(ctx)
    pre = relative_residual(sup_norm(nabla_chart_covector_u(ctx)), sup_norm(x))
    riem = b.riemann
    refr = sup_norm(riem)
    ginv = b.g_inv
    residuals = {"brinkmann_precondition": pre}
    notes = chart_note
    if not _passes(pre, ctx):
        failure = "brinkmann precondition failed: nabla X != 0"
        notes = f"{notes}; {failure}" if notes else failure
    # (a) cyclic condition
    residuals["cyclic"] = _cyclic_residual(x, riem)
    # the rest reads every orbit image
    riem = riem.expanded()
    # (b) R = B(D), and B(D) is R where each slot pair has one 0; R - B(D),
    # not R's other entries alone, keeps the NaN of a non-finite entry
    n, zero = riem.dim, ctx.zero()
    fit = _entries(riem, lambda j, k, l, m: (not j) != (not k)
                   and (not l) != (not m), zero)
    residuals["decomposition"] = relative_residual(sup_norm(riem - fit), refr)
    dmat = [[zero + riem[0, a, c, 0] if a and c else zero for c in range(n)]
            for a in range(n)]
    # (c) and (d) are of degree 2 in R: float mode scales R by _pow2 first,
    # and chi back
    if not ctx.exact:
        s = _pow2(refr)
        riem, refr = riem.scale(s), refr * s
    # (c) quartic chi condition: T_{jklm} = R^p_{jk}^q R_{plmq} = chi X^4
    a_t = raise_lower(raise_lower(riem, 0, ginv), 3, ginv)  # (p^, j, k, q^)
    quart = tensordot(a_t.permute((1, 2, 0, 3)),         # (j, k, p^, q^)
                      riem.permute((0, 3, 1, 2)), 2)      # (p, q, l, m)
    chi = quart[0, 0, 0, 0]
    chi_fit = _entries(quart, lambda *idx: not any(idx), zero)
    residuals["chi_quartic"] = relative_residual(
        sup_norm(quart - chi_fit), sup_norm(quart), refr * refr)
    # (d) R_{jk}^{pq} R_{pqlm} = 0
    r_up = raise_lower(raise_lower(riem, 2, ginv), 3, ginv)   # (j,k,p^,q^)
    square = tensordot(r_up, riem, 2)
    residuals["riemann_square"] = relative_residual(sup_norm(square), refr * refr)
    return _finish("schimming", ctx, residuals, notes=notes, witnesses={
        "D": dmat, "chi": chi if ctx.exact else chi / s / s})


def _entries(t: Values, keep, zero) -> Values:
    """The rank-4 t at the entries (j, k, l, m) `keep` admits, else `zero`."""
    n = t.dim
    return Values(n, t.variance,
                  {o: x for o, x in t.num.items()
                   if keep(o // n ** 3, o // n ** 2 % n, o // n % n, o % n)},
                  t.den, zero)


@check(3)
def check_pure_radiation(ctx: PointContext) -> CheckResult:
    """Ricci = psi X (x) X with psi from the potential; Lemma-style biconditional
    between divergence-free Weyl and the gradient of psi being along X."""
    if ctx.spec.expected_psi is None:
        return CheckResult("pure_radiation", ERROR, ctx.zero(), ctx.point,
                           notes="unsupported: needs a built pp-wave family")
    b = ctx.bundle
    x = chart_covector_u(ctx)
    ric = b.ricci
    psi = ric[0, 0]
    residuals = {
        "ricci_form": relative_residual(
            sup_norm(ric - x.outer(x).scale(psi)), sup_norm(ric)),
    }
    psi_expected, grad = _family_psi(ctx)
    residuals["psi_matches_potential"] = relative_residual(
        abs(psi - psi_expected), abs(psi_expected), abs(psi))
    # gradient of psi against X
    lam = grad[0]
    grad_parallel = relative_residual(sup_norm(grad - x.scale(lam)),
                                      sup_norm(grad))
    div_res = relative_residual(sup_norm(b.div_weyl),
                                sup_norm(b.nabla_weyl))
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


@check(4)
def check_roter_bundle(ctx: PointContext) -> CheckResult:
    """Roter's characterization: nonzero Weyl, recurrence with closed alpha,
    Codazzi Ricci; plus the scalar-curvature consequences R = 0, grad R = 0."""
    b = ctx.bundle
    wnorm = sup_norm(b.weyl)
    if _is_vacuous(wnorm, ctx.exact):
        return CheckResult("roter_bundle", VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    alpha = b.recurrence[0].normal()
    residuals = {"recurrence": b.recurrence[1]}
    residuals["alpha_closed"] = relative_residual(
        _antisymmetric_norm(b.nabla_alpha), sup_norm(alpha),
        Fraction(1) if ctx.exact else 1.0)
    nr = b.nabla_ricci      # Codazzi: nabla_k R_jl = nabla_j R_kl
    residuals["codazzi"] = relative_residual(_antisymmetric_norm(nr),
                                             sup_norm(nr))
    residuals["scalar_zero"] = relative_residual(
        sup_norm(b.scalar), sup_norm(b.ricci), wnorm)
    residuals["grad_scalar_zero"] = relative_residual(
        sup_norm(b.nabla_scalar), sup_norm(nr), wnorm)
    return _finish("roter_bundle", ctx, residuals,
                   witnesses={"alpha": alpha.entries})


@check(3)
def check_ricci_recurrence(ctx: PointContext) -> CheckResult:
    b = ctx.bundle
    ric = b.ricci
    if _is_vacuous(sup_norm(ric), ctx.exact):
        return CheckResult("ricci_recurrence", VACUOUS, ctx.zero(), ctx.point,
                           notes="Ricci tensor vanishes (vacuum)")
    omega, res = extract_recurrence(ric, b.nabla_ricci)
    om = Values.of(b.dim, COV, omega)
    om_up = raise_lower(om, 0, b.g_inv)
    null_norm = abs(dot(om_up, om))
    onorm = sup_norm(om)
    res_null = relative_residual(null_norm, onorm * onorm) if onorm else ctx.zero()
    tr = tensordot(om_up, ric, 1)
    res_tr = relative_residual(sup_norm(tr), onorm * sup_norm(ric)) if onorm \
        else ctx.zero()
    return _finish("ricci_recurrence", ctx,
                   {"recurrence": res, "omega_null": res_null,
                    "omega_ricci_trace": res_tr},
                   witnesses={"omega": omega})


@check(2)
def check_eqs_2_3_2_4(ctx: PointContext) -> CheckResult:
    """Cyclic Weyl/Riemann conditions for a rank-one Ricci tensor.

    The witness direction is extracted from Ricci itself; residuals are
    scale-free, so the choice of normalization for the witness covector
    does not affect them.
    """
    b = ctx.bundle
    ric = b.ricci
    rnorm = sup_norm(ric)
    if _is_vacuous(rnorm, ctx.exact):
        return CheckResult("eqs_2_3_2_4", VACUOUS, ctx.zero(), ctx.point,
                           notes="Ricci tensor vanishes; d = 0")
    n = b.dim
    rv = [ric.num.get(o, 0) for o in range(n * n)]
    if not ctx.exact:       # minors of degree 2: a power of two keeps range
        s = _pow2(rnorm)
        rv, rnorm = [x * s for x in rv], rnorm * s
    i0, j0 = divmod(max(range(n * n), key=lambda o: abs(rv[o])), n)
    pv = rv[i0 * n + j0]
    worst = 0                               # 2x2 minors through the pivot
    for i in range(n):
        for j in range(n):
            d = abs(rv[i * n + j] * pv - rv[i * n + j0] * rv[i0 * n + j])
            if d > worst:
                worst = d
    rank_one = relative_residual(_ratio(worst, ric.den ** 2, ctx.exact),
                                 rnorm ** 2)
    if not _passes(rank_one, ctx):
        return CheckResult("eqs_2_3_2_4", VACUOUS, rank_one, ctx.point,
                           residuals={"rank_one": rank_one},
                           notes="Ricci is not rank-one")
    dvec = Values(n, COV, {i: ric.num[o] for i in range(n)    # column j0
                           for o in (i * n + j0,) if o in ric.num},
                  ric.den, ric.zero)
    residuals = {key: _cyclic_residual(dvec, getattr(b, name))
                 for key, name in (("cyclic_weyl", "weyl"),
                                   ("cyclic_riemann", "riemann"))}
    eps = (pv > 0) - (pv < 0)
    return _finish("eqs_2_3_2_4", ctx, residuals,
                   witnesses={"d_direction": dvec.entries, "epsilon": eps})


@check(4)
def check_laplacians(ctx: PointContext) -> CheckResult:
    """Laplacians of Ricci/Weyl/Riemann and the double-divergence relation."""
    b = ctx.bundle
    n = b.dim
    riem_norm = sup_norm(b.riemann)
    residuals = {
        "lap_ricci": relative_residual(sup_norm(b.lap_ricci),
                                       sup_norm(b.ricci), riem_norm),
        "lap_weyl": relative_residual(sup_norm(b.lap_weyl),
                                      sup_norm(b.weyl)),
        "lap_riemann": relative_residual(sup_norm(b.lap_riemann), riem_norm),
    }
    lhs = b.double_div_weyl
    rhs = b.lap_ricci.scale(-_ratio(n - 3, n - 2, ctx.exact))
    residuals["double_divergence_relation"] = relative_residual(
        sup_norm(lhs - rhs), sup_norm(lhs), sup_norm(rhs),
        sup_norm(b.nabla_ricci))
    # reported for the two-symmetric family; not part of the pass criterion
    two_sym = relative_residual(sup_norm(b.nabla2_riemann), riem_norm)
    result = _finish("laplacians", ctx, residuals)
    result.witnesses["second_nabla_riemann_residual"] = two_sym
    return result


@check(4)
def check_semisymmetry(ctx: PointContext) -> CheckResult:
    """Commutators [nabla, nabla] annihilating Ricci, Weyl and Riemann."""
    b = ctx.bundle
    residuals = {}
    for key in ("ricci", "weyl", "riemann"):
        vals = getattr(b, f"nabla2_{key}")
        perm = (1, 0) + tuple(range(2, vals.rank))
        residuals[f"commutator_{key}"] = relative_residual(
            sup_norm(vals - vals.permute(perm)), sup_norm(vals),
            sup_norm(getattr(b, f"nabla_{key}")))
    return _finish("semisymmetry", ctx, residuals)


@check(4)
def check_alpha_recurrent(ctx: PointContext) -> CheckResult:
    """The recurrence covector is itself recurrent, with the structure
    nabla_j alpha_i = rho alpha_i alpha_j, divergence-free and C-transversal."""
    b = ctx.bundle
    exact = ctx.exact
    if _is_vacuous(sup_norm(b.weyl), exact):
        return CheckResult("alpha_recurrent", VACUOUS, ctx.zero(), ctx.point,
                           notes="Weyl tensor vanishes")
    avals, na = b.recurrence[0].normal(), b.nabla_alpha
    anorm = sup_norm(avals)
    if _is_vacuous(anorm, exact):
        return CheckResult("alpha_recurrent", VACUOUS, ctx.zero(), ctx.point,
                           notes="alpha vanishes at the point")
    q, rec_res = extract_recurrence(avals, na)
    residuals = {"recurrence": rec_res}
    residuals["closed"] = relative_residual(    # nabla alpha symmetric
        _antisymmetric_norm(na), sup_norm(na), anorm)
    # structure nabla_j alpha_i = rho alpha_j alpha_i
    aa = avals.outer(avals)
    sq = dot(aa, aa)
    rho = dot(na, aa) / sq if sq else ctx.zero()
    residuals["rank_one_structure"] = relative_residual(
        sup_norm(na - aa.scale(rho)), sup_norm(na), anorm ** 2)
    ginv = b.g_inv
    residuals["divergence_free"] = relative_residual(
        abs(dot(na, ginv)), sup_norm(na), anorm)
    # alpha^i nabla_i C = 0
    nw = b.nabla_weyl
    transv = tensordot(raise_lower(avals, 0, ginv), nw, 1)
    residuals["transversal"] = relative_residual(
        sup_norm(transv), anorm * sup_norm(nw))
    alpha = avals.entries
    q_witness = [rho * a for a in alpha]
    return _finish("alpha_recurrent", ctx, residuals,
                   witnesses={"q": q if q is not None else q_witness,
                              "rho": rho, "alpha": alpha})


@check(4)
def check_field_equations(ctx: PointContext) -> CheckResult:
    """Field operator [a0 + a1 nabla^2] on Ricci, with the pure-radiation
    source; raises ValueError for more than the two coefficients a0, a1."""
    if len(ctx.field_coeffs) > MAX_FIELD_COEFFS:
        raise ValueError(
            f"{len(ctx.field_coeffs)} field equation coefficients; at most "
            f"{MAX_FIELD_COEFFS} (a0 Ricci + a1 nabla^2 Ricci) are supported")
    if ctx.spec.expected_psi is None:
        return CheckResult("field_equations", ERROR, ctx.zero(), ctx.point,
                           notes="unsupported: needs a built pp-wave family")
    b = ctx.bundle
    coeffs = [Fraction(c) if ctx.exact else float(c) for c in ctx.field_coeffs]
    ric = b.ricci
    lap = b.lap_ricci
    op = ric.scale(coeffs[0])
    if len(coeffs) > 1:
        op = op + lap.scale(coeffs[1])
    residuals = {"operator_reduces": relative_residual(
        sup_norm(op - ric.scale(coeffs[0])), sup_norm(ric))}
    # Einstein limit: Ricci - R g / 2 against the radiation form psi X (x) X
    x = chart_covector_u(ctx)
    psi = ric[0, 0]
    einstein = ric - b.g.scale(
        b.scalar[()] * _ratio(1, 2, ctx.exact))
    residuals["einstein_pure_radiation"] = relative_residual(
        sup_norm(einstein - x.outer(x).scale(psi)), sup_norm(ric))
    t_uu = coeffs[0] * psi
    witnesses = {"psi": psi, "source_T_uu": t_uu,
                 "radiation_sign": (psi > 0) - (psi < 0)}
    expect, _ = _family_psi(ctx)
    residuals["source_matches_family_psi"] = relative_residual(
        abs(psi - expect), abs(expect), abs(psi))
    return _finish("field_equations", ctx, residuals, witnesses=witnesses)
