"""Condition checkers: witnesses, residuals, vacuity, negative controls."""
import itertools
import math
import sys
from fractions import Fraction as F

import pytest

from conftest import (NC4, dense_covariant_derivative, du_jets, entries,
                      jet_tensor, make_ctx, naive_raise_lower, poly,
                      textbook_weyl_jets, truncated)
from ppcheck import (EXACT, FLOAT, ConfigError, RunConfig, build_galaev,
                     build_perturbed_minkowski, build_ppwave,
                     build_two_symmetric, build_walker, linalg)
from ppcheck.checks import (CHECKS, PointContext, _antisymmetric_norm,
                            _cyclic_residual, chart_covector_u,
                            check_collinearity, check_olszak,
                            nabla_chart_covector_u)
from ppcheck.geometry import CurvatureBundle, _orbits, _per_orbit, rescaled
from ppcheck.jets import Jet, jet_recip
from ppcheck.metrics import PointPlan, sample_points
from ppcheck.polynomials import parse_polynomial
from ppcheck.tensors import (COV, Values, _pow2, cyclic_sum,
                             extract_recurrence, relative_residual, sup_norm)

NC5 = ("u", "x1", "x2", "x3", "v")
PT4 = (F(1, 2), F(1, 3), F(-1, 5), F(2, 7))


def flat_ctx():
    return make_ctx(build_ppwave(poly("0"), d=2), PT4)


def two_sym_ctx(pt=PT4):
    spec = build_two_symmetric([F(1), F(2)], [[F(0), F(0)], [F(0), F(0)]])
    return make_ctx(spec, pt)


class TestExtractRecurrence:
    def test_constant_field_gives_zero_covector(self):
        t = Values.of(3, "l", [F(1), F(2), F(0)])
        alpha, res = extract_recurrence(t, Values.of(3, "ll", [F(0)] * 9))
        assert alpha == [0, 0, 0] and res == 0

    def test_exact_multiple_recovered(self):
        t = [F(3), F(5)]
        nt = Values.of(2, "ll", [a * x for a in (F(2), F(-7)) for x in t])
        alpha, res = extract_recurrence(Values.of(2, "l", t), nt)
        assert alpha == [F(2), F(-7)] and res == 0

    def test_vacuous_on_zero_tensor(self):
        alpha, res = extract_recurrence(Values.of(2, "l", [F(0), F(0)]),
                                        Values.of(2, "ll", [F(0)] * 4))
        assert alpha is None and res is None

    def test_nonrecurrent_has_residual(self):
        t = Values.of(2, "l", [F(1), F(0)])
        # derivative not proportional to t: only nt[0, 1] is nonzero
        nt = Values.of(2, "ll", [F(0), F(1), F(0), F(0)])
        _, res = extract_recurrence(t, nt)
        assert res > 0


class TestConformalRecurrence:
    def test_flagship_alpha_is_du_over_u(self, flagship_ctx):
        r = CHECKS["conformal_recurrence"](flagship_ctx)
        assert r.status == "pass" and r.residual == 0
        assert r.witnesses["alpha"] == [F(1), 0, 0, 0, 0]

    def test_alpha_halves_at_u_two(self, flagship_ctx_u2):
        r = CHECKS["conformal_recurrence"](flagship_ctx_u2)
        assert r.witnesses["alpha"][0] == F(1, 2)

    def test_generic_metric_fails_big(self, perturbed_ctx):
        r = CHECKS["conformal_recurrence"](perturbed_ctx)
        assert r.status == "fail" and r.residual > F(1, 10)

    def test_flat_is_vacuous(self):
        r = CHECKS["conformal_recurrence"](flat_ctx())
        assert r.status == "vacuous"

    def test_float_weyl_near_1e160(self, flagship_ctx):
        # g -> 1e160 g puts |C| past 1e154, where sum_K C_K^2 overflows a
        # float; alpha and the relative residual do not depend on that scale
        m = make_ctx(flagship_ctx.spec, flagship_ctx.point,
                     FLOAT).bundle.metric
        big = CurvatureBundle(rescaled(m, Jet.constant(m.dim, m.order, 1e160,
                                                       FLOAT)))
        ctx = PointContext(spec=flagship_ctx.spec, point=flagship_ctx.point,
                           mode=FLOAT, bundle=big)
        assert sup_norm(big.weyl) > 1e155
        r = CHECKS["conformal_recurrence"](ctx)
        assert r.status == "pass" and math.isfinite(r.residual)
        assert r.witnesses["alpha"] == pytest.approx([1, 0, 0, 0, 0],
                                                     abs=1e-12)
        for name in ("olszak", "collinearity"):
            r = CHECKS[name](ctx)
            numbers = [r.residual, *r.residuals.values()]
            for w in r.witnesses.values():
                numbers.extend(w if isinstance(w, list) else [w])
            assert r.status == "pass", name
            assert not any(math.isnan(x) for x in numbers), (name, numbers)


class TestGalaevAlpha:
    def test_both_trace_variants_match(self, flagship_ctx):
        r = CHECKS["galaev_alpha"](flagship_ctx)
        assert r.status == "pass"
        assert r.witnesses["half_dlog_omega2_n"][0] == 1
        assert r.witnesses["half_dlog_omega2_d"][0] == 1

    def test_constant_a_part_does_not_change_alpha(self):
        spec = build_galaev(3, [1, 1, -2],
                            parse_polynomial("1", NC5),
                            parse_polynomial("u", NC5))
        ctx = make_ctx(spec, (F(2), F(1, 3), F(-1, 5), F(2, 7), F(1, 2)))
        r = CHECKS["galaev_alpha"](ctx)
        assert r.status == "pass"
        assert r.witnesses["alpha"] == [F(1, 2), 0, 0, 0, 0]

    def test_other_family_vacuous(self, vacuum_ctx):
        assert CHECKS["galaev_alpha"](vacuum_ctx).status == "vacuous"


class TestCollinearity:
    def test_identical_covectors(self, flagship_ctx):
        x = chart_covector_u(flagship_ctx)
        r = check_collinearity(flagship_ctx, alpha=x, x=x)
        assert r.status == "pass" and r.witnesses["mu"] == 1

    def test_flagship_mu_at_u_two(self, flagship_ctx_u2):
        r = CHECKS["collinearity"](flagship_ctx_u2)
        assert r.status == "pass" and r.witnesses["mu"] == F(1, 2)

    def test_orthogonal_covectors_fail(self, flagship_ctx):
        alpha = Values.of(5, "l", [F(0), F(1), F(0), F(0), F(0)])
        r = check_collinearity(flagship_ctx, alpha=alpha)
        assert r.status == "fail" and r.residual == 1


class TestOlszak:
    def test_du_passes_on_wave(self, quartic_ctx):
        r = CHECKS["olszak"](quartic_ctx)
        assert r.status == "pass" and r.residual == 0

    def test_dv_fails_on_galaev(self, flagship_ctx):
        dv = Values.of(5, "l", [F(0)] * 4 + [F(1)])
        r = check_olszak(flagship_ctx, x=dv)
        assert r.status == "fail"

    def test_extracted_alpha_in_distribution(self, flagship_ctx):
        alpha = Values.of(5, "l", CHECKS["conformal_recurrence"](flagship_ctx)
                          .witnesses["alpha"])
        r = check_olszak(flagship_ctx, x=alpha)
        assert r.status == "pass"

    def test_flat_vacuous(self):
        assert CHECKS["olszak"](flat_ctx()).status == "vacuous"


class TestBrinkmannAndSchimming:
    def test_wave_families_pass(self, flagship_ctx, quartic_ctx):
        for ctx in (flagship_ctx, quartic_ctx, two_sym_ctx()):
            assert CHECKS["brinkmann"](ctx).status == "pass"
            assert CHECKS["schimming"](ctx).status == "pass"

    def test_flat_passes_with_trivial_witnesses(self):
        r = CHECKS["schimming"](flat_ctx())
        assert r.status == "pass"
        assert r.witnesses["chi"] == 0
        assert all(not c for row in r.witnesses["D"] for c in row)

    def test_v_dependent_walker_flagged(self):
        one, zero = poly("1"), poly("0")
        spec = build_walker(poly("v*u*x1"), [zero, zero],
                            [[one, zero], [zero, one]], d=2)
        ctx = make_ctx(spec, PT4)
        rb = CHECKS["brinkmann"](ctx)
        assert rb.status == "fail"
        assert rb.witnesses["recurrence_residual"] == 0   # recurrent, not constant
        rs = CHECKS["schimming"](ctx)
        assert rs.status == "fail"
        assert "precondition" in rs.notes

    def test_generic_metric_fails_every_part(self, perturbed_ctx):
        r = CHECKS["schimming"](perturbed_ctx)
        assert r.status == "fail"
        assert all(v > F(1, 10) for v in r.residuals.values())

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_nabla_du_from_gamma_matches_covariant_derivative(
            self, mode, flagship_spec, perturbed_spec):
        """nabla du read off Gamma^0 equals the covariant derivative of du's
        constant jets, entry types included, with nabla X != 0 on Walker."""
        one, zero = poly("1"), poly("0")
        walker = build_walker(poly("v*u*x1"), [zero, zero],
                              [[one, zero], [zero, one]], d=2)
        cases = [(flagship_spec, (F(1), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))),
                 (walker, PT4), (perturbed_spec, PT4)]
        for spec, pt in cases:
            ctx = make_ctx(spec, pt, mode=mode)
            want = dense_covariant_derivative(
                du_jets(ctx), ctx.bundle.christoffels[1], "test").values()
            got = nabla_chart_covector_u(ctx)
            assert got == want
            assert ([type(e) for e in got.entries]
                    == [type(e) for e in want.entries])
            if spec is walker:
                assert sup_norm(got) > 0


class TestRelativeResidual:
    def test_relative_to_the_largest_reference(self):
        assert relative_residual(F(1), F(2), F(4)) == F(1, 4)
        assert relative_residual(F(0), F(2)) == 0
        assert relative_residual(3.0, 0.0) == 3.0     # absolute fallback

    @pytest.mark.parametrize("num", [0.0, 1.5])
    def test_nan_reference_makes_it_nan(self, num):
        for refs in ((math.nan,), (1.0, math.nan), (math.nan, 1.0)):
            assert math.isnan(relative_residual(num, *refs)), refs


class TestPureRadiation:
    def test_radiation_wave(self):
        ctx = make_ctx(build_ppwave(poly("x1^2 + x2^2"), d=2), PT4)
        r = CHECKS["pure_radiation"](ctx)
        assert r.status == "pass"
        assert r.witnesses["psi"] == -2 and r.witnesses["lambda"] == 0
        assert r.witnesses["div_weyl_residual"] == 0

    def test_vacuum_wave_reports_zero_psi(self, vacuum_ctx):
        r = CHECKS["pure_radiation"](vacuum_ctx)
        assert r.status == "pass" and r.witnesses["psi"] == 0

    def test_x_dependent_psi_flips_both_sides(self, quartic_ctx):
        r = CHECKS["pure_radiation"](quartic_ctx)
        assert r.status == "pass"       # biconditional holds in the negative
        assert r.witnesses["div_weyl_residual"] > 0
        assert r.witnesses["grad_psi_parallel_residual"] > 0

    def test_two_symmetric_lambda(self):
        ctx = two_sym_ctx(pt=(F(1), F(1, 3), F(-1, 5), F(2, 7)))
        r = CHECKS["pure_radiation"](ctx)
        # psi = -3u, grad psi = -3 du, lambda = -3
        assert r.status == "pass" and r.witnesses["lambda"] == -3
        assert r.witnesses["psi"] == -3


class TestRoterBundle:
    def test_flagship_all_exact(self, flagship_ctx):
        r = CHECKS["roter_bundle"](flagship_ctx)
        assert r.status == "pass" and r.residual == 0

    def test_two_symmetric_codazzi_and_scalar(self):
        r = CHECKS["roter_bundle"](two_sym_ctx())
        assert r.residuals["codazzi"] == 0
        assert r.residuals["scalar_zero"] == 0

    def test_generic_codazzi_fails(self, perturbed_ctx):
        r = CHECKS["roter_bundle"](perturbed_ctx)
        assert r.status == "fail"
        assert r.residuals["codazzi"] > F(1, 10)

    def test_flat_vacuous(self):
        assert CHECKS["roter_bundle"](flat_ctx()).status == "vacuous"


class TestRicciRecurrence:
    def test_two_symmetric_omega(self):
        ctx = two_sym_ctx(pt=(F(1), F(1, 3), F(-1, 5), F(2, 7)))
        r = CHECKS["ricci_recurrence"](ctx)
        # psi = -3u so omega = (psi'/psi) du = (1/u) du = du at u = 1
        assert r.status == "pass"
        assert r.witnesses["omega"] == [F(1), 0, 0, 0]

    def test_vacuum_vacuous(self, vacuum_ctx):
        assert CHECKS["ricci_recurrence"](vacuum_ctx).status == "vacuous"


class TestEqs234:
    def test_two_symmetric(self):
        r = CHECKS["eqs_2_3_2_4"](two_sym_ctx())
        assert r.status == "pass"
        assert r.witnesses["epsilon"] == -1

    def test_galaev_with_constant_part(self):
        spec = build_galaev(3, [1, 1, -2],
                            parse_polynomial("1", NC5),
                            parse_polynomial("u", NC5))
        ctx = make_ctx(spec, (F(1), F(1, 3), F(-1, 5), F(2, 7), F(1, 2)))
        assert CHECKS["eqs_2_3_2_4"](ctx).status == "pass"

    def test_vacuum_vacuous(self, vacuum_ctx):
        assert CHECKS["eqs_2_3_2_4"](vacuum_ctx).status == "vacuous"


def _filled_cyclic_residual(x, t):
    """The exact cyclic residual through `outer`'s int-zero fill."""
    return relative_residual(sup_norm(cyclic_sum(x.outer(t), (0, 1, 2))),
                             sup_norm(x) * sup_norm(t))


class TestCyclicResidual:
    """With a written offset 0 in x or t, x is given a Fraction(0) zero
    before `outer`; otherwise the fill stays.  Either way the residual is
    the filled one, down to the type of a zero."""

    @pytest.mark.parametrize("xs, ts, zero", [
        ({0: 2}, {4: 3, 5: -1}, 0),         # x writes offset 0
        ({1: 2}, {0: 3, 7: 1}, 0),          # t writes offset 0
        ({1: 2, 2: -1}, {5: 3}, 0),         # neither does
        ({0: 1}, {}, 0),                    # zero residual, offset 0 written
        ({1: 1}, {}, 0),                    # zero residual, int 0
        ({0: 0}, {}, 0),                    # a written zero numerator
        ({2: 1}, {0: 0}, 0),
        ({1: 2}, {5: 3}, F(0)),
        ({0: 2}, {}, F(0)),
    ])
    def test_matches_the_filled_outer(self, xs, ts, zero):
        x = Values(3, "l", xs, 5, zero)
        t = Values(3, "ll", ts, 7, zero)
        got, want = _cyclic_residual(x, t), _filled_cyclic_residual(x, t)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("norm", [5e-324, 1e-320, 2.0 ** -1030, 1e-310,
                                      1.5 * 2.0 ** -1024, 2.0 ** -1022])
    def test_pow2_of_a_subnormal_norm_is_finite(self, norm):
        """The float scale stays finite below 2^-1022, and scales the norm
        to a normal float."""
        s = _pow2(norm)
        assert math.isfinite(s)
        assert sys.float_info.min <= norm * s < 2

    @pytest.mark.parametrize("ctx_name", ["flagship_ctx", "perturbed_ctx"])
    def test_on_the_ricci_column(self, ctx_name, request):
        b = request.getfixturevalue(ctx_name).bundle
        ric, n = b.ricci, b.dim
        for j in range(n):
            x = Values(n, COV, {i: ric.num[i * n + j] for i in range(n)
                                if i * n + j in ric.num}, ric.den, ric.zero)
            for name in ("weyl", "riemann"):
                t = getattr(b, name)
                got = _cyclic_residual(x, t)
                want = _filled_cyclic_residual(x, t)
                assert got == want and type(got) is type(want)


def _dense_per_orbit(t):
    """`_per_orbit` by a visit of every orbit of every block."""
    get, num = t.num.get, {}
    for base in range(0, t.size, t.dim ** 4):
        for rep, images in _orbits(t.dim):
            if x := get(base + rep):
                num[base + rep] = x * len(images)
    return Values(t.dim, t.variance, num, t.den, t.zero)


@pytest.mark.parametrize("ctx_name", ["flagship_ctx", "perturbed_ctx"])
@pytest.mark.parametrize("name", ["weyl", "nabla_weyl", "nabla2_weyl"])
def test_per_orbit_visits_written_entries(ctx_name, name, request):
    t = getattr(request.getfixturevalue(ctx_name).bundle, name)
    got, want = _per_orbit(t), _dense_per_orbit(t)
    assert list(got.num.items()) == list(want.num.items())
    assert got.den == want.den and type(got.zero) is type(want.zero)


class TestLaplaciansAndSemisymmetry:
    def test_flagship_all_zero(self, flagship_ctx):
        r = CHECKS["laplacians"](flagship_ctx)
        assert r.status == "pass" and r.residual == 0

    def test_two_symmetric_includes_second_riemann(self):
        r = CHECKS["laplacians"](two_sym_ctx())
        assert r.status == "pass"
        assert r.witnesses["second_nabla_riemann_residual"] == 0

    def test_quartic_laplacian_nonzero_but_relation_holds(self, quartic_ctx):
        r = CHECKS["laplacians"](quartic_ctx)
        assert r.status == "fail"
        assert r.residuals["lap_ricci"] > 0
        assert r.residuals["double_divergence_relation"] == 0

    def test_semisymmetry_on_waves(self, flagship_ctx, quartic_ctx):
        assert CHECKS["semisymmetry"](flagship_ctx).status == "pass"
        assert CHECKS["semisymmetry"](quartic_ctx).residuals[
            "commutator_ricci"] == 0


class TestAlphaRecurrent:
    def test_flagship_witnesses(self, flagship_ctx):
        r = CHECKS["alpha_recurrent"](flagship_ctx)
        assert r.status == "pass"
        # alpha = du at u=1, rho = -1, q = rho*alpha = -du
        assert r.witnesses["rho"] == -1
        assert r.witnesses["q"] == [F(-1), 0, 0, 0, 0]
        assert r.residuals["divergence_free"] == 0

    def test_flat_vacuous(self):
        assert CHECKS["alpha_recurrent"](flat_ctx()).status == "vacuous"


def reference_alpha(b):
    """(alpha, d_j alpha_i, nabla_j alpha_i) on jets, slots (j, i).

    alpha_i = N_i * jet_recip(D) with N_i = sum_K nabla_i C_K C_K and
    D = sum_K C_K^2 over chart components, C the textbook Weyl jets and
    nabla C their covariant derivative; alpha's jets are then
    differentiated directly."""
    n = b.dim
    c = textbook_weyl_jets(b)
    gamma = b.christoffels[1]
    nc = entries(dense_covariant_derivative(c, gamma, "reference"))
    order = nc[0].order
    ct = entries(truncated(c, order))
    size = len(ct)
    zero = Jet.zero(n, order, b.mode)
    inv = jet_recip(sum((e * e for e in ct if e), zero), "reference")
    alpha = jet_tensor(n, COV, [
        sum((x * e for x, e in zip(nc[i * size:(i + 1) * size], ct)
             if x and e), zero) * inv for i in range(n)], zero)
    d_alpha = Values.of(n, COV * 2, [alpha[i].derivative(j).value
                                     for j in range(n) for i in range(n)])
    return (alpha.values(), d_alpha,
            dense_covariant_derivative(alpha, gamma, "reference").values())


def alpha_stages(b):
    """(alpha, nabla_j alpha_i) as the checks read them."""
    return b.recurrence[0].normal(), b.nabla_alpha


def _closedness(t):
    n = t.dim
    return max(abs(t[i, j] - t[j, i]) for i in range(n) for j in range(n))


ALPHA_CTXS = ("flagship_ctx", "perturbed_ctx", "quartic_ctx")


class TestAlphaDerivatives:
    """The recurrence covector and its covariant derivative from the point
    values of C, nabla C, nabla nabla C and Gamma, against jets
    differentiated directly; alpha's chart derivative on those jets is the
    oracle for the closedness that roter_bundle reads off nabla alpha."""

    @pytest.mark.parametrize("ctx_name", ALPHA_CTXS)
    def test_exact_equals_jet_reference(self, ctx_name, request):
        ctx = request.getfixturevalue(ctx_name)
        alpha, d_alpha, nabla_alpha = reference_alpha(ctx.bundle)
        got = alpha_stages(ctx.bundle)
        assert got == (alpha, nabla_alpha)
        assert [type(e) for e in got[0].entries] == \
            [type(e) for e in alpha.entries]
        closed = _closedness(d_alpha)
        assert closed == _closedness(nabla_alpha)
        r = CHECKS["roter_bundle"](ctx)
        assert r.residuals["alpha_closed"] == relative_residual(
            closed, sup_norm(alpha), 1)
        assert r.witnesses["alpha"] == alpha.entries
        assert [type(e) for e in r.witnesses["alpha"]] == \
            [type(e) for e in alpha.entries]
        r = CHECKS["alpha_recurrent"](ctx)
        assert r.witnesses["alpha"] == alpha.entries
        assert r.residuals["closed"] == relative_residual(
            closed, sup_norm(nabla_alpha), sup_norm(alpha))

    @pytest.mark.parametrize("ctx_name", ALPHA_CTXS)
    def test_float_within_rounding(self, ctx_name, request):
        exact = request.getfixturevalue(ctx_name)
        ctx = make_ctx(exact.spec, exact.point, FLOAT)
        alpha, d_alpha, nabla_alpha = reference_alpha(ctx.bundle)
        got = alpha_stages(ctx.bundle)
        for g, w in zip(got, (alpha, nabla_alpha)):
            scale = max(map(abs, w.entries))
            gap = max(abs(x - y) for x, y in zip(g.entries, w.entries))
            assert scale > 0 and gap <= 1e-9 * scale, (gap, scale)
        r = CHECKS["roter_bundle"](ctx)
        gap = abs(r.residuals["alpha_closed"] - relative_residual(
            _closedness(d_alpha), sup_norm(alpha), 1.0))
        assert gap <= 1e-9 * max(map(abs, d_alpha.entries))

    @pytest.mark.parametrize("ctx_name", ALPHA_CTXS)
    def test_float_weyl_near_1e100(self, ctx_name, request):
        # g -> 1e100 g multiplies C, nabla C and nabla nabla C by 1e100 and
        # leaves alpha and its derivatives as they are; sums of degree 4 in
        # C would overflow
        exact = request.getfixturevalue(ctx_name)
        m = make_ctx(exact.spec, exact.point, FLOAT).bundle.metric
        big = CurvatureBundle(rescaled(m, Jet.constant(m.dim, m.order, 1e100,
                                                       FLOAT)))
        ctx = PointContext(spec=exact.spec, point=exact.point, mode=FLOAT,
                           bundle=big)
        assert 1e98 < sup_norm(big.weyl) < 1e103
        alpha, d_alpha, nabla_alpha = reference_alpha(big)
        for g, w in zip(alpha_stages(big), (alpha, nabla_alpha)):
            scale = max(map(abs, w.entries))
            gap = max(abs(x - y) for x, y in zip(g.entries, w.entries))
            assert scale > 0 and gap <= 1e-9 * scale, (gap, scale)
        r = CHECKS["roter_bundle"](ctx)
        gap = abs(r.residuals["alpha_closed"] - relative_residual(
            _closedness(d_alpha), sup_norm(alpha), 1.0))
        assert gap <= 1e-9 * max(map(abs, d_alpha.entries))
        r = CHECKS["alpha_recurrent"](ctx)
        gap = abs(r.residuals["closed"] - relative_residual(
            _closedness(nabla_alpha), sup_norm(nabla_alpha), sup_norm(alpha)))
        assert gap <= 1e-9


class TestAntisymmetricNorm:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_nan_entry_at_either_key_order(self, reverse):
        # symmetric but for a NaN on the diagonal, where t_ii - t_ii is NaN
        items = [(0, 1.0), (1, 2.0), (2, 2.0), (3, float("nan"))]
        items = items[::-1] if reverse else items
        norm = _antisymmetric_norm(Values(2, "ll", dict(items), 1, 0.0))
        assert norm != norm

    def test_symmetric_is_fraction_zero(self):
        got = _antisymmetric_norm(Values(2, "ll", {1: 3, 2: 3}, 2, 0))
        assert got == 0 and type(got) is F
        got = _antisymmetric_norm(Values(2, "ll", {1: 3.0, 2: 3.0}, 1, 0.0))
        assert got == 0 and type(got) is float


class TestFieldEquations:
    def test_more_than_two_coefficients_raise(self, flagship_spec):
        pt = (F(1), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))
        ctx = make_ctx(flagship_spec, pt, field_coeffs=(1, 3, 7))
        with pytest.raises(ValueError, match="at most 2"):
            CHECKS["field_equations"](ctx)

    def test_more_than_two_coefficients_refused_by_the_run_config(self):
        # so a run never reaches the check's own guard above
        config = RunConfig(mode=EXACT, points=PointPlan(count=1),
                           checks=("field_equations", "brinkmann"))
        for build in (
                lambda: config._replace(field_coeffs=(1, 3, -100)),
                lambda: RunConfig._make((*config[:5], (1, 3, -100))),
                lambda: RunConfig(EXACT, field_coeffs=(1, 3, -100))):
            with pytest.raises(ConfigError, match="1 to 2 rational numbers"):
                build()

    def test_vacuum_wave_source_vanishes(self, vacuum_ctx):
        r = CHECKS["field_equations"](vacuum_ctx)
        assert r.status == "pass" and r.witnesses["source_T_uu"] == 0

    def test_quartic_wave_fails(self, quartic_ctx):
        assert CHECKS["field_equations"](quartic_ctx).status == "fail"


@pytest.mark.parametrize("name", ["pure_radiation", "field_equations"])
def test_ppwave_spec_without_psi_is_unsupported(name):
    """A spec is a built pp-wave when it carries expected_psi; one that has
    a pp-wave's family and potential but no psi gets the unsupported row."""
    spec = build_ppwave(poly("x1^2 + x2^2"), d=2)._replace(expected_psi=None)
    r = CHECKS[name](make_ctx(spec, PT4))
    assert (r.status, r.notes) == (
        "error", "unsupported: needs a built pp-wave family")


class TestConformalInvariance:
    def test_exact_square_factor(self, flagship_ctx):
        r = CHECKS["conformal_invariance"](flagship_ctx)
        assert r.status == "pass" and r.residual == 0

    def test_float_exponential_factor(self, flagship_spec):
        pt = (F(1), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))
        ctx = make_ctx(flagship_spec, pt, mode="float")
        r = CHECKS["conformal_invariance"](ctx)
        assert r.status == "pass" and abs(r.residual) <= 1e-9


class TestUniversalIdentities:
    @pytest.mark.parametrize("name", [
        "bianchi", "weyl_trace", "weyl_cyclic_identity",
        "weyl_divergence_formula"])
    def test_hold_on_generic_metric(self, perturbed_ctx, name):
        r = CHECKS[name](perturbed_ctx)
        assert r.status == "pass" and r.residual == 0

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("name, names", [
        ("div_weyl", ("weyl_cyclic_identity", "weyl_divergence_formula")),
        ("nabla_weyl", ("weyl_cyclic_identity",))],
        ids=["div_weyl", "nabla_weyl"])
    def test_fail_on_a_corrupted_stage(self, perturbed_spec, name, names,
                                       mode):
        """A stage swapped into the bundle's cache with one written
        numerator doubled makes each identity that reads it fail; div_weyl
        is read first, so that it is not taken from a corrupted nabla C."""
        ctx = make_ctx(perturbed_spec, (F(1, 3), F(-1, 5), F(2, 7), F(1, 11)),
                       mode=mode)
        b = ctx.bundle
        assert sup_norm(b.div_weyl)
        t = getattr(b, name)
        off = min(t.num)
        b.__dict__[name] = Values(t.dim, t.variance,
                                  {**t.num, off: 2 * t.num[off]}, t.den,
                                  t.zero)
        for check in names:
            r = CHECKS[check](ctx)
            assert r.status == "fail" and r.residual > 0, (check, r.residual)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_closedness_fails_on_a_corrupted_nabla_alpha(self, flagship_spec,
                                                         mode):
        """nabla alpha swapped into the bundle's cache with entry (0, 1)
        raised by 1 is no longer symmetric: both closedness residuals are 1
        and both checks fail."""
        ctx = make_ctx(flagship_spec, (F(1), F(1, 3), F(-1, 5), F(2, 7),
                                       F(1, 2)), mode=mode)
        b = ctx.bundle
        assert CHECKS["roter_bundle"](ctx).status == "pass"
        assert CHECKS["alpha_recurrent"](ctx).status == "pass"
        na = b.nabla_alpha
        assert list(na.num) == [0]
        b.__dict__["nabla_alpha"] = Values(na.dim, na.variance,
                                           {**na.num, 1: na.den}, na.den,
                                           na.zero)
        for check, key in (("roter_bundle", "alpha_closed"),
                           ("alpha_recurrent", "closed")):
            r = CHECKS[check](ctx)
            assert r.status == "fail" and r.residuals[key] == 1, (
                check, r.residuals)


def _dense_schimming_d(riem, x, ctx):
    """Reference: the tuple-indexed dense least squares over all n^4 entries,
    on the numbers the Values riem and x stand for."""
    n, xs = riem.dim, x.entries
    pairs = [(a, b) for a in range(n) for b in range(a, n)]

    def model(da, db):
        t = [ctx.zero()] * n ** 4
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    for m in range(n):
                        val = ctx.zero()
                        if (k, l) == (da, db) or (k, l) == (db, da):
                            val = val + xs[j] * xs[m]
                        if (m, k) == (da, db) or (m, k) == (db, da):
                            val = val - xs[j] * xs[l]
                        if (j, l) == (da, db) or (j, l) == (db, da):
                            val = val - xs[k] * xs[m]
                        if (j, m) == (da, db) or (j, m) == (db, da):
                            val = val + xs[k] * xs[l]
                        if val:
                            t[((j * n + k) * n + l) * n + m] = val
        return t

    basis = [model(a, b) for a, b in pairs]
    k = len(pairs)
    gram = [[ctx.zero() for _ in range(k)] for _ in range(k)]
    rhs = [ctx.zero() for _ in range(k)]
    for e in range(k):
        for f in range(e, k):
            acc = ctx.zero()
            for p, q in zip(basis[e], basis[f]):
                acc = acc + p * q
            gram[e][f] = gram[f][e] = acc
        acc = ctx.zero()
        for p, q in zip(basis[e], riem.entries):
            acc = acc + p * q
        rhs[e] = acc
    try:
        coeffs = [x for x, in linalg.solve(gram, [[r] for r in rhs])]
    except linalg.SingularMatrixError:
        coeffs = [ctx.zero()] * k
        for e in range(k):
            if gram[e][e]:
                coeffs[e] = rhs[e] / gram[e][e]
    recon = [ctx.zero()] * n ** 4
    for c, bt in zip(coeffs, basis):
        if c:
            recon = [r + e * c for r, e in zip(recon, bt)]
    res = relative_residual(
        sup_norm(Values.of(n, "llll", [r - e for r, e in zip(riem.entries,
                                                             recon)])),
        sup_norm(riem))
    dmat = [[ctx.zero()] * n for _ in range(n)]
    for (a, b), c in zip(pairs, coeffs):
        dmat[a][b] = dmat[b][a] = c
    return dmat, res


def _schimming_points(case):
    """(spec, points) of a config the Schimming references cover: every
    grid point of the flagship, or two points of another family."""
    one, zero = poly("1"), poly("0")
    if case == "flagship":
        spec = build_galaev(3, [1, 1, -2], parse_polynomial("0", NC5),
                            parse_polynomial("u", NC5))
        return spec, sample_points(spec, PointPlan(count=5))
    spec = {
        "ppwave": lambda: build_ppwave(poly("x1^4 + u*x1*x2 - x2^2"), d=2),
        "two_symmetric": lambda: build_two_symmetric(
            [F(1), F(2)], [[F(0), F(1, 3)], [F(1, 3), F(1)]]),
        "walker": lambda: build_walker(poly("v*u*x1 + x2^2"),
                                       [poly("u*x1"), zero],
                                       [[one, zero], [zero, one]], d=2),
        "perturbed_minkowski": lambda: build_perturbed_minkowski(seed=7),
    }[case]()
    plan = (PointPlan("random", seed=3, count=2)
            if case == "perturbed_minkowski" else PointPlan(count=2))
    return spec, sample_points(spec, plan)


SCHIMMING_CASES = ("flagship", "ppwave", "two_symmetric", "walker",
                   "perturbed_minkowski")


def _schimming_rows(case, mode):
    """(ctx, check_schimming's row) at each point of the case."""
    spec, points = _schimming_points(case)
    for pt in points:
        ctx = make_ctx(spec, pt, mode=mode, order=2)
        yield ctx, CHECKS["schimming"](ctx)


class TestSchimmingDReference:
    """check_schimming's D, read off Riemann at X = du, against the dense
    least squares over all n^4 entries."""

    @staticmethod
    def _assert_identical(row, want):
        dmat_ref, res_ref = want
        res = row.residuals["decomposition"]
        assert type(res) is type(res_ref) and res == res_ref
        for got, ref in zip(row.witnesses["D"], dmat_ref):
            for a, b in zip(got, ref):
                assert type(a) is type(b) and a == b

    def test_flagship_points(self):
        for ctx, row in _schimming_rows("flagship", EXACT):
            self._assert_identical(row, _dense_schimming_d(
                ctx.bundle.riemann, chart_covector_u(ctx), ctx))

    @pytest.mark.parametrize("case", SCHIMMING_CASES[1:])
    def test_family_points(self, case):
        for ctx, row in _schimming_rows(case, EXACT):
            self._assert_identical(row, _dense_schimming_d(
                ctx.bundle.riemann, chart_covector_u(ctx), ctx))

    def test_float_mode_within_tolerance(self):
        for case in SCHIMMING_CASES:
            for ctx, row in _schimming_rows(case, FLOAT):
                dmat_ref, res_ref = _dense_schimming_d(
                    ctx.bundle.riemann, chart_covector_u(ctx), ctx)
                res = row.residuals["decomposition"]
                assert type(res) is float and abs(res - res_ref) <= 1e-12
                for got, ref in zip(row.witnesses["D"], dmat_ref):
                    for a, b in zip(got, ref):
                        assert type(a) is float
                        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _fraction_chi_quartic(quart, x, ctx):
    """Reference: chi and sup|T - chi x^4| with x^4 formed as the outer
    product x (x) x (x) x (x) x, all in Fractions (or floats)."""
    xs = x.entries
    x4 = [a * b * c * d for a in xs for b in xs for c in xs for d in xs]
    chi_num = chi_den = None
    for tq, xe in zip(quart.entries, x4):
        chi_num = tq * xe if chi_num is None else chi_num + tq * xe
        chi_den = xe * xe if chi_den is None else chi_den + xe * xe
    chi = chi_num / chi_den if chi_den else ctx.zero()
    worst = None
    for tq, xe in zip(quart.entries, x4):
        d = abs(tq - xe * chi)
        worst = d if worst is None or d > worst else worst
    return chi, worst


def _quartic(ctx):
    """T_jklm = R^p_jk^q R_plmq at the point, summed tuple by tuple."""
    b = ctx.bundle
    riem, ginv = b.riemann, b.g_inv
    up = naive_raise_lower(naive_raise_lower(riem, 0, ginv), 3, ginv)
    n = riem.dim
    out = []
    for j, k, l, m in itertools.product(range(n), repeat=4):
        acc = ctx.zero()
        for p in range(n):
            for q in range(n):
                acc = acc + up[p, j, k, q] * riem[p, l, m, q]
        out.append(acc)
    return Values.of(n, "llll", out)


class TestChiQuarticReference:
    """check_schimming's chi, read off T at X = du, against the fit over
    the dense x^4."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_every_point(self, mode):
        for case in SCHIMMING_CASES:
            for ctx, row in _schimming_rows(case, mode):
                quart = _quartic(ctx)
                chi_ref, worst = _fraction_chi_quartic(
                    quart, chart_covector_u(ctx), ctx)
                refr = sup_norm(ctx.bundle.riemann)
                res_ref = relative_residual(worst, sup_norm(quart),
                                            refr * refr)
                chi, res = row.witnesses["chi"], row.residuals["chi_quartic"]
                assert type(chi) is type(chi_ref)
                assert type(res) is type(res_ref)
                if mode == EXACT:
                    assert (chi, res) == (chi_ref, res_ref)
                else:
                    scale = max(1.0, sup_norm(quart))
                    assert abs(chi - chi_ref) <= 1e-12 * scale
                    assert abs(res - res_ref) <= 1e-12
