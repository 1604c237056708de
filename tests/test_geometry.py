"""Curvature pipeline oracles: Christoffel symbols through Laplacians.

The sign and index conventions are pinned by hand-derived components of
wave metrics in the null chart, most importantly R_uu for quadratic
potentials.
"""
import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NC4, dense_covariant_derivative, du_jets, entries,
                      jet, jet_block, jet_tensor, make_ctx, naive_raise_lower,
                      poly, reference_gamma, reference_inverse,
                      textbook_riemann_jets, textbook_weyl_jets, truncated)
from ppcheck import (EXACT, FLOAT, build_custom, build_galaev,
                     build_perturbed_minkowski, build_ppwave,
                     build_two_symmetric, build_walker, checks,
                     parse_metric_config, sample_points)
from ppcheck.geometry import (CurvatureBundle, DegeneratePointError,
                              OrderBudgetError, _orbits,
                              covariant_derivative, metric_at_point, rescaled,
                              stage)
from ppcheck.jets import (Jet, JetError, _tables, jet_exp,
                          jet_from_polynomial)
from ppcheck.metrics import PointPlan
from ppcheck.polynomials import Polynomial, parse_polynomial
from ppcheck.tensors import CON, COV, Tensor, Values, contract, sup_norm

PT = (F(1, 2), F(1, 3), F(-1, 5), F(2, 7))


def bundle_for(spec, pt=PT, order=4, mode=EXACT):
    return CurvatureBundle(metric_at_point(spec, pt, order, mode))


def same_jets(a, b):
    """Whether two jet Tensors have one shape and equal jets throughout."""
    return ((a.dim, a.variance, a.order, entries(a))
            == (b.dim, b.variance, b.order, entries(b)))


def flat_spec():
    return build_ppwave(poly("0"), d=2)


def exp_rescaled_bundle(spec, sigma, pt=PT, order=4):
    """Float bundle of e^{2 sigma} g, rescaled on the point's jets."""
    factor = jet_exp(jet_from_polynomial(sigma, pt, order, FLOAT) * 2.0)
    return CurvatureBundle(rescaled(metric_at_point(spec, pt, order, FLOAT),
                                    factor))


class TestChristoffel:
    def test_flat_chart_has_no_connection(self):
        g = bundle_for(flat_spec()).gamma
        assert not sup_norm(g)

    def test_wave_components_by_hand(self):
        # H = x1^2: the only nonzero symbols are
        # Gamma^{x1}_{uu} = -x1 and Gamma^{v}_{u x1} = Gamma^{v}_{x1 u} = x1
        b = bundle_for(build_ppwave(poly("x1^2"), d=2))
        gam = b.gamma
        x1 = PT[1]
        expect = {(1, 0, 0): -x1, (3, 0, 1): x1, (3, 1, 0): x1}
        assert gam == Values.of(4, "ull", [
            expect.get(idx, F(0))
            for idx in itertools.product(range(4), repeat=3)])

    def test_v_dependent_potential_changes_connection(self):
        one = poly("1")
        zero = poly("0")
        spec = build_walker(poly("v*x1^2"), [zero, zero],
                            [[one, zero], [zero, one]], d=2)
        gam = bundle_for(spec).gamma
        # Gamma^v_{uu} picks up a term proportional to dH/dv
        assert gam[3, 0, 0] != 0


class TestRiemannAndRicci:
    def test_flat_curvature_vanishes(self):
        assert not sup_norm(bundle_for(flat_spec()).riemann)

    def test_vacuum_wave(self):
        b = bundle_for(build_ppwave(poly("x1^2 - x2^2"), d=2))
        assert sup_norm(b.riemann) > 0
        assert not sup_norm(b.ricci)

    def test_radiation_wave_ricci_uu(self):
        b = bundle_for(build_ppwave(poly("x1^2 + x2^2"), d=2))
        ric = b.ricci
        assert ric[0, 0] == -2
        assert sum(1 for e in ric.entries if e) == 1

    def test_ricci_symmetric_generic(self, perturbed_ctx):
        ric = perturbed_ctx.bundle.ricci
        assert ric == ric.permute((1, 0))

    def test_scalar_is_ricci_trace(self, perturbed_ctx):
        b = perturbed_ctx.bundle
        ginv = b.metric.g_inv.values()
        tr = contract(b.ricci, 0, 1, ginv).entries[0]
        assert tr == b.scalar[()]

    def test_wave_scalar_curvature_zero(self, quartic_ctx):
        assert not quartic_ctx.bundle.scalar[()]

    @pytest.mark.parametrize("name", ["flagship_ctx", "perturbed_ctx",
                                      "quartic_ctx"])
    def test_jets_equal_textbook_route(self, name, request):
        """Riemann in every coefficient, not only the point value:
        nabla_riemann reads the higher ones; Ricci, a trace of Riemann's
        values, in its values and their types."""
        b = request.getfixturevalue(name).bundle
        riem, ric = textbook_riemann_jets(b)
        assert same_jets(b.riemann_jets, riem)
        assert b.ricci.entries == ric.values().entries
        assert _value_types(b.ricci) == _value_types(ric)

    def test_jets_match_textbook_route_in_float_mode(self, perturbed_spec):
        b = bundle_for(perturbed_spec, (F(1, 3), F(-1, 5), F(2, 7), F(1, 11)),
                       mode=FLOAT)
        riem, ric = textbook_riemann_jets(b)
        scale = max(abs(x) for e in entries(riem) for x in e.c)
        assert scale > 0
        assert all(abs(x - y) <= 1e-12 * scale
                   for e, f in zip(entries(b.riemann_jets), entries(riem))
                   for x, y in zip(e.c, f.c, strict=True))
        want = ric.values().entries
        scale = max(map(abs, want))
        assert scale > 0
        assert all(abs(x - y) <= 1e-12 * scale
                   for x, y in zip(b.ricci.entries, want, strict=True))

    def test_riemann_needs_jet_order_two(self):
        b = bundle_for(build_ppwave(poly("x1^4"), d=2), order=1)
        assert b.christoffels[1].order == 0
        with pytest.raises(OrderBudgetError, match="riemann"):
            b.riemann


class TestWeyl:
    def test_conformally_flat_metric_has_no_weyl(self):
        coords = ("x0", "x1", "x2", "x3")
        sigma = parse_polynomial("x0/5 + x1*x2/7", coords)
        eta = [[parse_polynomial("-1" if i == j == 0 else
                                 "1" if i == j else "0", coords)
                for j in range(4)] for i in range(4)]
        b = exp_rescaled_bundle(build_custom(eta, coords), sigma,
                                (F(1, 3), F(-1, 5), F(2, 7), F(1, 11)))
        assert sup_norm(b.weyl) < 1e-9

    def test_galaev_weyl_nonzero_and_tracefree(self, flagship_ctx):
        b = flagship_ctx.bundle
        weyl = b.weyl
        ginv = b.metric.g_inv.values()
        assert sup_norm(weyl) > 0
        for a in range(4):
            for c in range(a + 1, 4):
                assert not sup_norm(contract(weyl, a, c, ginv))

    def test_low_dimension_rejected(self):
        from ppcheck.geometry import UnsupportedDimensionError
        coords = ("x0", "x1", "x2")
        comp = [[parse_polynomial("1" if i == j else "0", coords)
                 for j in range(3)] for i in range(3)]
        b = bundle_for(build_custom(comp, coords), (F(1), F(2), F(3)))
        with pytest.raises(UnsupportedDimensionError):
            b.weyl


class TestDerivedWeylDerivatives:
    """C, nabla C and nabla nabla C come from the values of nabla^L of
    Riemann, Ricci and R, their (1,3) forms by raising, and the double
    divergence by contracting nabla nabla C with g_inv twice; the textbook
    Weyl jets differentiated directly are the reference."""

    ATTRS = ("nabla_weyl", "nabla_weyl_mixed", "nabla2_weyl",
             "double_div_weyl", "lap_weyl")

    @staticmethod
    def direct(b):
        """Jet references: C from the textbook two-term formula on jets,
        differentiated directly, and its (1,3) form raised on jets, then
        differentiated; the bundle's Weyl forms are point values, so they
        are compared with these references' values.
        The double divergence is the mixed trace of the raised form's second
        derivative: its outer derivative slot raised onto j, its inner one
        traced with m."""
        weyl = textbook_weyl_jets(b)
        weyl_mixed = naive_raise_lower(
            weyl, 3, truncated(b.metric.g_inv, weyl.order))
        gamma = b.christoffels[1]
        nw = dense_covariant_derivative(weyl, gamma, "oracle")
        nwm = dense_covariant_derivative(weyl_mixed, gamma, "oracle")
        nnwm = dense_covariant_derivative(nwm, gamma, "oracle").values()
        div = contract(contract(nnwm, 0, 2, b.g_inv), 0, 3).normal()
        return {"weyl": weyl.values(), "weyl_mixed": weyl_mixed.values(),
                "nabla_weyl": nw.values(), "nabla_weyl_mixed": nwm.values(),
                "nabla2_weyl": dense_covariant_derivative(
                    nw, gamma, "oracle").values(),
                "double_div_weyl": div}

    @pytest.mark.parametrize("ctx_name", ["flagship_ctx", "perturbed_ctx"])
    def test_exact_jets_equal_direct_derivatives(self, ctx_name, request):
        b = request.getfixturevalue(ctx_name).bundle
        for attr, want in self.direct(b).items():
            got = getattr(b, attr)
            assert got == want, attr
            # zeros read as a jet's value
            assert ([type(e) for e in got.entries]
                    == [type(e) for e in want.entries]), attr
        assert sup_norm(b.nabla_weyl) > 0

    @pytest.mark.parametrize("doc", [
        {"family": "galaev", "d": 3,
         "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"},
         "points": {"strategy": "grid", "count": 5}},
        {"family": "perturbed_minkowski", "n": 4,
         "params": {"seed": 7, "degree": 2},
         "points": {"strategy": "grid", "count": 1}}],
        ids=["flagship", "generic"])
    def test_lap_weyl_is_the_trace_of_nabla2_weyl(self, doc):
        """Delta C, the decomposition of Delta Riemann, Delta Ricci and
        Delta R, is literally the g^{-1} trace of nabla nabla C at the
        benchmark's exact points."""
        spec, config = parse_metric_config(json.dumps(doc))
        for pt in sample_points(spec, config.points):
            b = bundle_for(spec, pt)
            trace = contract(b.nabla2_weyl, 0, 1, b.g_inv).normal()
            assert b.lap_weyl == trace
            assert ([type(x) for x in b.lap_weyl.entries]
                    == [type(x) for x in trace.entries])

    def test_float_exponential_factor_within_tolerance(self):
        b = exp_rescaled_bundle(build_ppwave(poly("u*x1^2 + x2^3"), d=2),
                                poly("u/5 + x1*x2/7"))
        for attr, want in self.direct(b).items():
            got = getattr(b, attr)
            scale = max(map(abs, want.entries))
            gap = max(abs(g - w) for g, w in zip(got.entries, want.entries))
            assert scale > 0 and gap <= 1e-9 * scale, (attr, gap, scale)

    @pytest.mark.parametrize("attr", ATTRS)
    def test_low_dimension_rejected(self, attr):
        from ppcheck.geometry import UnsupportedDimensionError
        coords = ("x0", "x1", "x2")
        comp = [[parse_polynomial("1 + x0*x1" if i == j == 2 else
                                  "1" if i == j else "0", coords)
                 for j in range(3)] for i in range(3)]
        b = bundle_for(build_custom(comp, coords), (F(1), F(2), F(3)))
        with pytest.raises(UnsupportedDimensionError):
            getattr(b, attr)


class TestCovariantDerivative:
    @pytest.mark.parametrize("spec", [
        flat_spec(),
        build_ppwave(poly("u*(x1^2 + 2*x2^2)"), d=2),
        build_ppwave(poly("x1^4"), d=2),
        build_two_symmetric([F(1), F(2)], [[F(0), F(0)], [F(0), F(0)]]),
    ])
    def test_metricity_at_random_points(self, spec):
        for pt in sample_points(spec, PointPlan("random", seed=3, count=10)):
            b = bundle_for(spec, pt, order=3)   # g^{-1} at order 1
            for g in (b.metric.g, b.metric.g_inv):
                ng = dense_covariant_derivative(g, b.christoffels[1],
                                                "metricity test")
                assert not sup_norm(ng.values())

    def test_metricity_generic_metric(self, perturbed_ctx):
        b = perturbed_ctx.bundle
        for g in (b.metric.g, b.metric.g_inv):
            ng = dense_covariant_derivative(g, b.christoffels[1],
                                            "metricity test")
            assert not sup_norm(ng.values())

    def test_output_order_is_the_lower_of_t_and_gamma(self, perturbed_ctx):
        """nabla of order-K jets with Gamma at order K - 2 is the order-K-2
        truncation of nabla with Gamma at order K - 1."""
        b = perturbed_ctx.bundle
        x = du_jets(perturbed_ctx)                      # order 4
        gamma = reference_gamma(b.metric)
        full = dense_covariant_derivative(x, gamma)
        got = dense_covariant_derivative(x, truncated(gamma, 2))
        assert (full.order, got.order) == (3, 2)
        assert same_jets(got, truncated(full, 2))
        assert sup_norm(got.values()) > 0

    def test_du_covariantly_constant_on_wave(self, quartic_ctx):
        b = quartic_ctx.bundle
        x = du_jets(quartic_ctx)
        assert not sup_norm(dense_covariant_derivative(x, b.christoffels[1],
                                                       "test").values())

    def test_nabla_ricci_is_grad_psi_outer_xx(self):
        spec = build_ppwave(poly("u*(x1^2 + 2*x2^2)"), d=2)
        b = bundle_for(spec, PT)
        nr = b.nabla_ricci
        grad = [spec.expected_psi.derivative(nm).evaluate(PT) for nm in NC4]
        assert nr == Values.of(4, "lll", [grad[o // 16] if o % 16 == 0
                                          else F(0) for o in range(64)])


class TestSecondDerivatives:
    def test_galaev_second_ricci_vanishes(self, flagship_ctx):
        assert not sup_norm(flagship_ctx.bundle.lap_ricci)

    def test_x_dependent_psi_gives_nonzero_laplacian(self, quartic_ctx):
        assert sup_norm(quartic_ctx.bundle.lap_ricci) > 0


class TestModesAndErrors:
    @staticmethod
    def _rank_losing_spec():
        # custom metric that loses rank at x0 = 1
        coords = ("x0", "x1")
        zero = parse_polynomial("0", coords)
        comp = [[parse_polynomial("1 - x0", coords), zero],
                [zero, parse_polynomial("1", coords)]]
        return build_custom(comp, coords)

    def test_degenerate_point_rejected(self):
        with pytest.raises(DegeneratePointError):
            metric_at_point(self._rank_losing_spec(), (F(1), F(0)), 2, EXACT)

    def test_degenerate_point_rejected_in_float_mode(self):
        with pytest.raises(DegeneratePointError):
            metric_at_point(self._rank_losing_spec(), (F(1), F(0)), 2, FLOAT)

    def test_exponential_factor_requires_float_mode(self):
        sigma = jet_from_polynomial(poly("u/5"), PT, 2, EXACT)
        with pytest.raises(JetError):
            jet_exp(sigma * 2)

    def test_order_budget_enforced(self):
        b = bundle_for(build_ppwave(poly("x1^4"), d=2), order=2)
        with pytest.raises(OrderBudgetError, match="nabla2_ricci needs jet "
                                                   "order 4, run has K=2"):
            b.nabla2_ricci

    def test_stage_is_computed_once_and_read_from_the_class(self):
        b = bundle_for(build_ppwave(poly("x1^4"), d=2), order=2)
        assert "riemann" not in vars(b)
        assert b.riemann is b.riemann and "riemann" in vars(b)
        assert CurvatureBundle.nabla2_ricci.needs == 4


class TestMetricAtPoint:
    def test_symmetric_pairs_expanded_once(self, flagship_spec, monkeypatch):
        from ppcheck import geometry
        calls = []

        def counted(*args):
            calls.append(args)
            return jet_from_polynomial(*args)

        monkeypatch.setattr(geometry, "jet_from_polynomial", counted)
        pt = (F(1), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))
        m = metric_at_point(flagship_spec, pt, 3, EXACT)
        assert len(calls) == 15                 # n(n+1)/2 at n = 5
        assert m.g.values() == Values.of(5, COV * 2, [
            c.evaluate(pt) for row in flagship_spec.components
            for c in row])

    @pytest.mark.parametrize("spec_name", ["flagship_spec", "perturbed_spec"])
    def test_rescaled_equals_rescaled_components(self, spec_name, request):
        """rescaled(m, (1+s)^2) is, jet for jet, metric_at_point of the
        components multiplied by (1+s)^2."""
        spec = request.getfixturevalue(spec_name)
        pt = tuple(F(k, 7) for k in range(1, spec.n + 1))
        w = (poly("1", spec.coords)
             + Polynomial.variable(spec.coords, spec.coords[0]) * F(1, 5))
        w2 = w * w
        scaled = spec._replace(components=tuple(
            tuple(c * w2 for c in row) for row in spec.components))
        for order in (2, 4):    # g^{-1} at order - 2
            wj = jet_from_polynomial(w, pt, order, EXACT)
            got = rescaled(metric_at_point(spec, pt, 4, EXACT), wj * wj)
            want = metric_at_point(scaled, pt, order, EXACT)
            assert ((got.order, got.mode) == (want.order, want.mode)
                    == (order, EXACT))
            for attr, o in (("g", order), ("g_inv", order - 2)):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.variance == b.variance
                assert (a.order, a.den, a.num) == (o, b.den, b.num)

    @pytest.mark.parametrize("make_spec", [
        lambda: build_perturbed_minkowski(seed=7),
        lambda: build_walker(poly("u*x1^2 + v*x2 + x1*x2*v^2"),
                             [poly("u*x2"), poly("x1^2")],
                             [[poly("1 + x1^2"), poly("0")],
                              [poly("0"), poly("1")]], d=2),
    ], ids=["perturbed_minkowski", "walker"])
    def test_float_point_values_do_not_depend_on_the_order(self, make_spec):
        """Float g^{-1}(p) is exactly symmetric, and each stage's values at
        the point are the same doubles at every order K that defines it,
        so a run may build a point to the order its checks read."""
        spec = make_spec()
        pt = (F(1, 3), F(-1, 5), F(2, 7), F(1, 11))
        names = {2: ("g_inv", "weyl"), 3: ("nabla_ricci", "nabla_weyl"),
                 4: ("nabla2_riemann",)}
        got = {}
        for order in range(2, 6):
            b = bundle_for(spec, pt, order, FLOAT)
            g_inv = b.g_inv
            assert g_inv == g_inv.permute((1, 0)), order
            for needs, stages in names.items():
                if needs <= order:
                    for name in stages:
                        got.setdefault(name, []).append(getattr(b, name).num)
        for name, seen in got.items():
            assert all(v == seen[0] for v in seen), name


class TestBianchiOracles:
    def test_first_bianchi_generic(self, perturbed_ctx):
        from ppcheck.tensors import cyclic_sum
        r = perturbed_ctx.bundle.riemann
        assert not sup_norm(cyclic_sum(r, (0, 1, 2)))

    def test_second_bianchi_generic(self, perturbed_ctx):
        from ppcheck.tensors import cyclic_sum
        nr = perturbed_ctx.bundle.nabla_riemann
        assert not sup_norm(cyclic_sum(nr, (0, 1, 2)))


def scatter_covariant_derivative(t, gamma, context="reference"):
    """The reference: each nonzero input entry scattered into every output
    entry it feeds, with no symmetry assumed."""
    n = t.dim
    low = min(t.order - 1, gamma.order)     # output order
    gam = entries(truncated(gamma, low))
    rank = t.rank
    stride = n ** rank
    out = [Jet.zero(n, low, t.mode)] * (n * stride)
    indices = itertools.product(range(n), repeat=t.rank)
    for off, (idx, e) in enumerate(zip(indices, entries(t))):
        if not e:
            continue
        for i in range(n):
            d = e.derivative(i, context)
            if d:
                o = i * stride + off
                out[o] = out[o] + d
        for s, var in enumerate(t.variance):
            w = n ** (rank - 1 - s)
            p = idx[s]
            rest = off - p * w
            if var == CON:
                # t^{p} feeds output slot value m via +Gamma^m_{i p}
                for mm in range(n):
                    for i in range(n):
                        gme = gam[(mm * n + i) * n + p]
                        if not gme:
                            continue
                        o = i * stride + rest + mm * w
                        out[o] = out[o] + gme * e
            else:
                # t_{p} feeds output slot value a via -Gamma^p_{i a}
                for aa in range(n):
                    for i in range(n):
                        gme = gam[(p * n + i) * n + aa]
                        if not gme:
                            continue
                        o = i * stride + rest + aa * w
                        out[o] = out[o] - gme * e
    return jet_tensor(n, COV + t.variance, out, Jet.zero(n, low, t.mode))


GENERIC_PT = (F(1, 3), F(-1, 5), F(2, 7), F(1, 11))


def _flagship_spec():
    nc5 = ("u", "x1", "x2", "x3", "v")
    return build_galaev(3, [1, 1, -2], parse_polynomial("0", nc5),
                        parse_polynomial("u", nc5))


def _oracle_pairs(spec, pt, mode):
    """(name, gathered, scattered) for every covariant derivative the
    bundle takes, Riemann's, plus four by the general reference the tests
    take (conftest): two of the textbook Ricci jets, and of a mixed rank-3
    tensor and a covector.  The second derivatives are taken from Gamma's
    point values, so they are compared with the values of the scattered
    jets."""
    ctx = make_ctx(spec, pt, mode=mode)
    b = ctx.bundle
    gamma = b.christoffels[1]
    ric = textbook_riemann_jets(b)[1]
    nabla_ric = dense_covariant_derivative(ric, gamma, "nabla Ricci")
    ginv = truncated(b.metric.g_inv, nabla_ric.order)
    mixed = naive_raise_lower(naive_raise_lower(nabla_ric, 0, ginv), 2, ginv)
    assert mixed.variance == CON + COV + CON
    covector = du_jets(ctx)
    return [
        ("nabla_riemann", b.nabla_riemann_jets,
         scatter_covariant_derivative(b.riemann_jets, gamma)),
        ("nabla2_riemann", b.nabla2_riemann,
         scatter_covariant_derivative(b.nabla_riemann_jets, gamma).values()),
        ("nabla Ricci jets", nabla_ric,
         scatter_covariant_derivative(ric, gamma)),
        ("nabla nabla Ricci", dense_covariant_derivative(
            nabla_ric, b.gamma, "nabla nabla Ricci"),
         scatter_covariant_derivative(nabla_ric, gamma).values()),
        ("mixed rank 3", dense_covariant_derivative(mixed, gamma),
         scatter_covariant_derivative(mixed, gamma)),
        ("brinkmann covector", dense_covariant_derivative(covector, gamma),
         scatter_covariant_derivative(covector, gamma)),
    ]


ORACLE_CASES = (
    [pytest.param(_flagship_spec, pt, id=f"galaev-u{pt[0]}")
     for pt in sample_points(_flagship_spec(), PointPlan())]
    + [pytest.param(lambda s=s: build_perturbed_minkowski(seed=s), GENERIC_PT,
                    id=f"perturbed-seed{s}") for s in (7, 13)])


def _value_types(t):
    """The types of t's point values, jets or Values."""
    if isinstance(t, Values):
        return [type(x) for x in t.entries]
    return [type(e.value) for e in entries(t)]


class TestCovariantDerivativeOracle:
    """The orbit gather against the symmetry-blind scatter it replaced."""

    @pytest.mark.parametrize("make_spec,pt", ORACLE_CASES)
    def test_exact_jets_literally_equal(self, make_spec, pt):
        for name, got, want in _oracle_pairs(make_spec(), pt, EXACT):
            assert got.variance == want.variance, name
            assert entries(got) == entries(want), name
            assert _value_types(got) == _value_types(want), name

    @pytest.mark.parametrize("make_spec,pt", ORACLE_CASES[-2:])
    def test_float_within_rounding(self, make_spec, pt):
        for name, got, want in _oracle_pairs(make_spec(), pt, FLOAT):
            pairs = (zip(got.entries, want.entries) if isinstance(got, Values) else
                     [(g.coeffs.get(k, 0), w.coeffs.get(k, 0))
                      for g, w in zip(entries(got), entries(want))
                      for k in set(g.coeffs) | set(w.coeffs)])
            pairs = list(pairs)
            scale = max(abs(w) for _, w in pairs)
            gap = max(abs(g - w) for g, w in pairs)
            assert scale > 0 and gap <= 1e-12 * scale, (name, gap, scale)

    def test_orbit_counts(self):
        # independent entries of a tensor with Riemann's pair symmetries
        assert len(_orbits(4)) == 21
        assert len(_orbits(5)) == 55

    def test_order_zero_riemann_exhausts_the_budget(self, perturbed_ctx):
        b = bundle_for(perturbed_ctx.spec, perturbed_ctx.point, order=2)
        assert b.riemann_jets.order == 0
        with pytest.raises(OrderBudgetError, match="nabla Riemann"):
            covariant_derivative(b.riemann_jets, b.gamma,
                                 "nabla Riemann")


RICCI_STAGES = (("ricci", "riemann"), ("nabla_ricci", "nabla_riemann"),
                 ("nabla2_ricci", "nabla2_riemann"))


def _ricci_by_jets(b):
    """{stage: values} for the Ricci stages that b's order defines, by the
    route of jets: the textbook Ricci jets, then the general covariant
    derivative (conftest), once to jets and once to values."""
    ric = textbook_riemann_jets(b)[1]
    out = {"ricci": ric.values()}
    if b.metric.order >= 3:
        nabla_ric = dense_covariant_derivative(ric, b.christoffels[1],
                                               "nabla Ricci")
        out["nabla_ricci"] = nabla_ric.values()
    if b.metric.order >= 4:
        out["nabla2_ricci"] = dense_covariant_derivative(
            nabla_ric, b.gamma, "nabla nabla Ricci")
    return out


def _bundles(ctx, monkeypatch):
    """ctx's bundle, and the K = 2 bundle of the rescaled metric that
    conformal_invariance builds at ctx's point and reads Weyl from."""
    built = []

    class Recorded(CurvatureBundle):
        def __init__(self, metric):
            super().__init__(metric)
            built.append(self)
    monkeypatch.setattr(checks, "CurvatureBundle", Recorded)
    checks.check_conformal_invariance(ctx)
    (rescaled_bundle,) = built
    assert rescaled_bundle.metric.order == 2
    assert "ricci" in vars(rescaled_bundle)
    return [ctx.bundle, rescaled_bundle]


class TestRicciTraceRoute:
    """Ricci, nabla Ricci and nabla nabla Ricci, -g^{-1} traces of the
    values of Riemann and its derivatives, against the route of jets they
    replaced, at three points and on the rescaled bundle of
    conformal_invariance there (Ricci alone, at K = 2)."""

    @pytest.mark.parametrize("name", ["flagship_ctx", "perturbed_ctx",
                                      "quartic_ctx"])
    def test_exact_values_literally_equal(self, name, request, monkeypatch):
        for b in _bundles(request.getfixturevalue(name), monkeypatch):
            want = _ricci_by_jets(b)
            assert len(want) == b.metric.order - 1
            for stage, w in want.items():
                got = getattr(b, stage)
                assert got.variance == w.variance, stage
                assert got.entries == w.entries, stage
                assert _value_types(got) == _value_types(w), stage

    @pytest.mark.parametrize("name", ["flagship_ctx", "perturbed_ctx",
                                      "quartic_ctx"])
    def test_float_within_rounding(self, name, request, monkeypatch):
        exact = request.getfixturevalue(name)
        ctx = make_ctx(exact.spec, exact.point, mode=FLOAT)
        for b in _bundles(ctx, monkeypatch):
            want = _ricci_by_jets(b)
            g_inv = sup_norm(b.g_inv)
            for stage, source in RICCI_STAGES[:len(want)]:
                got, w = getattr(b, stage), want[stage]
                scale = sup_norm(getattr(b, source)) * g_inv
                gap = max(abs(x - y) for x, y in zip(got.entries, w.entries,
                                                     strict=True))
                assert gap <= 1e-12 * scale, (stage, gap, scale)


def _symmetry_orbits(t, width):
    """The orbits of t's offsets under the symmetries its kernel writes
    literally, as (rep, images) with rep first with sign 1: Riemann's on
    the last four slots (width 4), or the swap of the last two (width 2,
    g and g^{-1}, and the Christoffel symbols of both kinds)."""
    n = t.dim
    block = _orbits(n) if width == 4 else [
        (i * n + j, ((i * n + j, 1), (j * n + i, 1)))
        for i in range(n) for j in range(i, n)]
    return [(base + rep, [(base + img, sign) for img, sign in images])
            for base in range(0, n ** t.rank, n ** width)
            for rep, images in block]


def _assert_normal_block(t, width, name):
    """t is a jet block in normal form whose symmetry orbits share lists:
    no all-zero list, den and coefficients in lowest terms (den 1 in float
    mode), each orbit image holding its representative's list object or
    the orbit's one negated list, and no offset written that no orbit
    reaches (one the symmetries force to vanish)."""
    num = t.num
    assert all(map(any, num.values())), name
    assert (math.gcd(t.den, *itertools.chain.from_iterable(num.values()))
            if t.mode == EXACT else t.den) == 1, name
    reached = set()
    for rep, images in _symmetry_orbits(t, width):
        c = num.get(rep)
        reached.update(img for img, _ in images)
        if c is None:
            assert not [img for img, _ in images if img in num], (name, rep)
            continue
        neg = {id(num.get(img)) for img, sign in images if sign < 0}
        assert len(neg) <= 1, (name, rep)
        for img, sign in images:
            got = num.get(img)
            assert (got is c if sign > 0 else
                    got == [-x for x in c] and got is not c), (name, img)
    assert reached.issuperset(num), name


def _assert_orbit_filled(t, name):
    """t holds Riemann's pair symmetries on its last four slots literally,
    as covariant_derivative assumes without a check, and is not empty."""
    assert t.num, name
    _assert_normal_block(t, 4, name)


ORBIT_FILL_CASES = [
    pytest.param(_flagship_spec, (F(1), F(1, 3), F(-1, 5), F(2, 7), F(1, 2)),
                 id="flagship"),
    pytest.param(lambda: build_perturbed_minkowski(seed=7), GENERIC_PT,
                 id="perturbed-n4"),
    pytest.param(lambda: build_perturbed_minkowski(seed=7, n=5),
                 GENERIC_PT + (F(1, 13),), id="perturbed-n5")]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("make_spec,pt", ORBIT_FILL_CASES)
def test_riemann_and_nabla_riemann_are_orbit_filled(make_spec, pt, mode,
                                                    monkeypatch):
    """The precondition of covariant_derivative, on the bundle and on the
    K = 2 rescaled bundle of conformal_invariance (Riemann alone)."""
    b, rescaled_bundle = _bundles(make_ctx(make_spec(), pt, mode=mode),
                                  monkeypatch)
    for name in ("riemann_jets", "nabla_riemann_jets"):
        _assert_orbit_filled(getattr(b, name), name)
    _assert_orbit_filled(rescaled_bundle.riemann_jets, "rescaled riemann")


JET_STAGES = ("christoffels", "riemann_jets", "nabla_riemann_jets")


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("make_spec,pt", ORBIT_FILL_CASES[:2])
def test_every_stage_leaves_values_in_normal_form(make_spec, pt, mode,
                                                  monkeypatch):
    """Every public attribute of CurvatureBundle is a `stage`, found by
    walking the class.  Each is read on the bundle and on the K = 2
    rescaled bundle of conformal_invariance, to its order: the jet stages,
    and the metric's g and g^{-1}, are jet Tensors in block normal form
    whose orbits share lists (`_assert_normal_block`), and every other
    stage is Values in normal form, with no written zero, a jet's zero
    (int 0, or 0.0), exact numerators and den in lowest terms, and nothing
    for `normal` to change."""
    stages = {name: s for name, s in vars(CurvatureBundle).items()
              if isinstance(s, stage)}
    assert set(JET_STAGES) < set(stages)
    assert [name for name in vars(CurvatureBundle)
            if not name.startswith("_") and name not in stages] == []
    for b in _bundles(make_ctx(make_spec(), pt, mode=mode), monkeypatch):
        for name in ("g", "g_inv"):
            _assert_normal_block(getattr(b.metric, name), 2, name)
        for name, s in stages.items():
            if s.needs > b.metric.order:
                continue
            v = getattr(b, name)
            if name in JET_STAGES:
                for t in (v if name == "christoffels" else (v,)):
                    assert isinstance(t, Tensor), name
                    _assert_normal_block(t, 2 if t.rank == 3 else 4, name)
                continue
            assert isinstance(v, Values), name
            assert all(v.num.values()), name
            assert type(v.zero) is (int if mode == EXACT else float), name
            assert v.zero == 0, name
            assert (math.gcd(v.den, *v.num.values()) if v.exact
                    else v.den) == 1, name
            assert v.normal() is v, name


def _at_jets(p, xs, one):
    """The polynomial p evaluated at the jets xs."""
    total = one * 0
    for mi, c in p.terms.items():
        term = one * c
        for x, e in zip(xs, mi):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def _geodesic_chart(spec, pt, gamma, order):
    """spec's metric pulled back through x = pt + y - Gamma(pt) y y / 2,
    with `gamma` the values of Gamma^i_jk at pt:

        g'_ab(y) = J^i_a J^j_b g_ij(x(y)),  J^i_a = delta^i_a - Gamma^i_ab y^b,

    as a custom spec in y truncated at degree `order`, composed on jets at
    y = 0.  The map's Jacobian there is the identity, so every tensor has
    the same components at y = 0 as at pt, while Gamma' = 0 there
    (Misner, Thorne & Wheeler, Gravitation, sec. 11.6)."""
    n = spec.n
    one = jet(n, order, {(0,) * n: 1})
    zero = one * 0
    ys = [jet(n, order, {tuple(int(k == i) for k in range(n)): 1})
          for i in range(n)]
    xs = [one * p + y - sum((ys[j] * ys[k] * (gamma[i, j, k] * F(1, 2))
                             for j in range(n) for k in range(n)), zero)
          for i, (p, y) in enumerate(zip(pt, ys))]
    g = [[_at_jets(spec.components[i][j], xs, one) for j in range(n)]
         for i in range(n)]
    jac = [[one * int(i == a) - sum((ys[b] * gamma[i, a, b] for b in range(n)),
                                    zero) for a in range(n)]
           for i in range(n)]
    coords = tuple(f"y{k}" for k in range(n))
    return build_custom([[Polynomial(coords, sum(
        (jac[i][a] * jac[j][b] * g[i][j] for i in range(n) for j in range(n)),
        zero).coeffs) for b in range(n)] for a in range(n)], coords)


CHART_INVARIANT = ("g", "g_inv", "riemann", "ricci", "weyl", "nabla_riemann",
                   "nabla_weyl", "nabla2_riemann", "nabla2_weyl", "lap_ricci",
                   "lap_weyl", "double_div_weyl")


@pytest.mark.parametrize("make_spec,pt", [
    pytest.param(lambda s=s, d=d: build_perturbed_minkowski(seed=s,
                                                            max_degree=d),
                 sample_points(build_perturbed_minkowski(seed=s),
                               PointPlan("random", seed=s, count=1))[0],
                 id=f"perturbed-seed{s}-degree{d}")
    for s in (7, 13, 29) for d in (1, 2)] + [
    pytest.param(_flagship_spec, sample_points(_flagship_spec(),
                                               PointPlan())[0],
                 id="flagship")])
def test_values_are_chart_invariant(make_spec, pt):
    """Exact values at a point equal those at y = 0 of the geodesic chart
    there, zero types included: the pipeline with its Christoffel terms at
    work against the same pipeline with them zero at the point."""
    spec = make_spec()
    b = bundle_for(spec, pt)
    normal = bundle_for(_geodesic_chart(spec, pt, b.gamma, 4),
                        (F(0),) * spec.n)
    assert b.gamma.num and not normal.gamma.num
    for name in CHART_INVARIANT:
        got, want = getattr(normal, name), getattr(b, name)
        assert got == want, name
        assert _value_types(got) == _value_types(want), name


INVERSE_CASES = ORACLE_CASES + [pytest.param(
    lambda: build_perturbed_minkowski(seed=7, n=5), GENERIC_PT + (F(1, 13),),
    id="perturbed-n5")]


class TestInverseMetricOracle:
    """The inverse metric series against Gauss-Jordan elimination on the
    jet matrix (`jet_solve`), both at order K - 2."""

    @pytest.mark.parametrize("make_spec,pt", INVERSE_CASES)
    def test_exact_jets_literally_equal(self, make_spec, pt):
        m = metric_at_point(make_spec(), pt, 4, EXACT)
        want = truncated(reference_inverse(m), 2)
        assert m.g_inv.order == 2
        assert same_jets(m.g_inv, want)
        assert _value_types(m.g_inv) == _value_types(want)

    @pytest.mark.parametrize("make_spec,pt", INVERSE_CASES)
    def test_float_within_rounding(self, make_spec, pt):
        m = metric_at_point(make_spec(), pt, 4, FLOAT)
        want = truncated(reference_inverse(m), 2)
        scale = max(abs(c) for e in entries(want) for c in e.coeffs.values())
        gap = max(abs(g.coeffs.get(k, 0) - w.coeffs.get(k, 0))
                  for g, w in zip(entries(m.g_inv), entries(want))
                  for k in set(g.coeffs) | set(w.coeffs))
        assert (m.g_inv.mode, m.g_inv.order, m.g_inv.den) == (FLOAT, 2, 1)
        assert scale > 0 and gap <= 1e-12 * scale, (gap, scale)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("make_spec,pt", INVERSE_CASES)
    def test_defining_property(self, make_spec, pt, mode):
        """g g^{-1} is the identity up to terms of order K - 1."""
        m = metric_at_point(make_spec(), pt, 4, mode)
        n = m.dim
        for i, j in itertools.product(range(n), repeat=2):
            got = Jet.zero(n, 2, mode)
            for k in range(n):
                got = got + m.g[i, k] * m.g_inv[k, j]
            want = Jet.constant(n, 2, int(i == j), mode)
            if mode == EXACT:
                assert got == want, (i, j)
            else:
                assert all(abs(x - y) <= 1e-12 for x, y in
                           zip(got.c, want.c, strict=True)), (i, j)


# -- the sparse kernels against their dense references ------------------------

FILLS = {"empty": 0.0, "sparse": 0.1, "dense": 0.8}


def _random_jet(rng, n, order, mode):
    """A nonzero jet with random coefficients on some monomials."""
    while True:
        coeffs = {mi: (F(rng.randint(-6, 6), rng.randint(1, 5))
                       if mode == EXACT else rng.uniform(-2.0, 2.0))
                  for mi in _tables(n, order).monos if rng.random() < 0.5}
        e = jet(n, order, coeffs, mode)
        if e:
            return e


def _riemann_symmetric_tensor(rng, n, variance, fill, order, mode):
    """A jet tensor with Riemann's symmetries on its last four slots: each
    orbit of each block gets a random jet with probability `fill`."""
    out = {}
    for base in range(0, n ** len(variance), n ** 4):
        for _, images in _orbits(n):
            if rng.random() < fill:
                e = _random_jet(rng, n, order, mode)
                for img, sign in images:
                    out[base + img] = e if sign > 0 else -e
    return jet_block(n, variance, out, order, mode)


def _random_gamma(rng, n, fill, order, mode):
    """Symbols Gamma^a_bc, not symmetric, each nonzero with probability
    `fill`."""
    return jet_tensor(n, CON + COV * 2, [
        _random_jet(rng, n, order, mode) if rng.random() < fill
        else Jet.zero(n, order, mode) for _ in range(n ** 3)],
        Jet.zero(n, order, mode))


def _bits(x):
    """A kernel's result as a string that tells apart any two results that
    are not identical: jets' orders, denominators and coefficients, and
    Values' numerators in insertion order, with the sign of a float zero."""
    if isinstance(x, Values):
        return repr((x.variance, x.den, type(x.zero), list(x.num.items())))
    return repr((x.variance, x.order, x.mode, x.den, sorted(x.num.items())))


@st.composite
def _derivative_cases(draw):
    n = draw(st.sampled_from((2, 3)))
    variance = COV * draw(st.integers(4, 5))  # as Riemann and nabla Riemann
    return (n, variance, draw(st.sampled_from(sorted(FILLS))),
            draw(st.sampled_from(sorted(FILLS))),
            draw(st.sampled_from((EXACT, FLOAT))), draw(st.booleans()),
            draw(st.integers(0, 2 ** 32)))


class TestSparseKernelsAgainstDenseOracle:
    """covariant_derivative on sparse tensors against the dense loop it
    replaced (conftest), on random tensors with no, few or most orbits
    filled: equal results, bit-equal in float mode."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_derivative_cases())
    def test_covariant_derivative_equals_the_dense_gather(self, case):
        n, variance, fill_t, fill_g, mode, values, seed = case
        rng = random.Random(seed)
        order = rng.randint(1, 3)
        t = _riemann_symmetric_tensor(rng, n, variance, FILLS[fill_t], order,
                                      mode)
        gamma = _random_gamma(rng, n, FILLS[fill_g],
                              max(order - rng.randint(0, 1), 1), mode)
        if values:
            gamma = gamma.values()
        got = covariant_derivative(t, gamma, "oracle")
        want = dense_covariant_derivative(t, gamma, "oracle", riemann=True)
        assert _bits(got) == _bits(want)


def test_flat_five_dimensional_custom_metric_has_empty_jet_tensors():
    """A flat n=5 metric: every jet tensor and every Ricci stage of the
    bundle holds no entry, and every stage and check still gives its
    value."""
    spec = build_custom(
        [[parse_polynomial("1" if {i, j} == {0, 1} or i == j > 1 else "0",
                           tuple(f"x{k}" for k in range(5)))
          for j in range(5)] for i in range(5)],
        tuple(f"x{k}" for k in range(5)))
    b = bundle_for(spec, tuple(F(k, 7) for k in range(1, 6)))
    for name in ("riemann_jets", "nabla_riemann_jets"):
        assert getattr(b, name).num == {}, name
    for name in ("ricci", "nabla_ricci", "nabla2_ricci"):
        assert getattr(b, name).num == {}, name
    assert b.christoffels[0].num == b.christoffels[1].num == {}
    assert not b.nabla2_riemann.num and not b.lap_weyl.num
