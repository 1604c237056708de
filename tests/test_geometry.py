"""Curvature pipeline oracles: Christoffel symbols through Laplacians.

The sign and index conventions are pinned by hand-derived components of
wave metrics in the null chart, most importantly R_uu for quadratic
potentials.
"""
import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NC4, dense_check_symmetry, dense_covariant_derivative,
                      du_jets, jet, jet_tensor, make_ctx, naive_raise_lower,
                      poly, reference_gamma, reference_inverse, replaced,
                      textbook_riemann_jets, textbook_weyl_jets, truncated)
from ppcheck import (EXACT, FLOAT, build_custom, build_galaev,
                     build_perturbed_minkowski, build_ppwave,
                     build_two_symmetric, build_walker, parse_metric_config,
                     sample_points)
from ppcheck.geometry import (NO_SYMMETRY, RIEMANN, SYMMETRIC_PAIR,
                              CurvatureBundle, DegeneratePointError,
                              OrderBudgetError, SymmetryError, _as_jet_values,
                              _check_symmetry, _orbits,
                              covariant_derivative, metric_at_point, rescaled)
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
    return (a.dim, a.variance, a.entries) == (b.dim, b.variance, b.entries)


def flat_spec():
    return build_ppwave(poly("0"), d=2)


def exp_rescaled_bundle(spec, sigma, pt=PT, order=4):
    """Float bundle of e^{2 sigma} g, rescaled on the point's jets."""
    factor = jet_exp(jet_from_polynomial(sigma, pt, order, FLOAT) * 2.0)
    return CurvatureBundle(rescaled(metric_at_point(spec, pt, order, FLOAT),
                                    factor))


class TestChristoffel:
    def test_flat_chart_has_no_connection(self):
        g = bundle_for(flat_spec()).gamma.values()
        assert not sup_norm(g)

    def test_wave_components_by_hand(self):
        # H = x1^2: the only nonzero symbols are
        # Gamma^{x1}_{uu} = -x1 and Gamma^{v}_{u x1} = Gamma^{v}_{x1 u} = x1
        b = bundle_for(build_ppwave(poly("x1^2"), d=2))
        gam = b.gamma.values()
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
        gam = bundle_for(spec).gamma.values()
        # Gamma^v_{uu} picks up a term proportional to dH/dv
        assert gam[3, 0, 0] != 0


class TestRiemannAndRicci:
    def test_flat_curvature_vanishes(self):
        assert not sup_norm(bundle_for(flat_spec()).riemann.values())

    def test_vacuum_wave(self):
        b = bundle_for(build_ppwave(poly("x1^2 - x2^2"), d=2))
        assert sup_norm(b.riemann.values()) > 0
        assert not sup_norm(b.ricci.values())

    def test_radiation_wave_ricci_uu(self):
        b = bundle_for(build_ppwave(poly("x1^2 + x2^2"), d=2))
        ric = b.ricci.values()
        assert ric[0, 0] == -2
        assert sum(1 for e in ric.entries if e) == 1

    def test_ricci_symmetric_generic(self, perturbed_ctx):
        ric = perturbed_ctx.bundle.ricci.values()
        assert ric == ric.permute((1, 0))

    def test_scalar_is_ricci_trace(self, perturbed_ctx):
        b = perturbed_ctx.bundle
        ginv = b.metric.g_inv.values()
        tr = contract(b.ricci.values(), 0, 1, ginv).entries[0]
        assert tr == b.values("scalar")[()]

    def test_wave_scalar_curvature_zero(self, quartic_ctx):
        assert not quartic_ctx.bundle.values("scalar")[()]

    @pytest.mark.parametrize("name", ["flagship_ctx", "perturbed_ctx",
                                      "quartic_ctx"])
    def test_jets_equal_textbook_route(self, name, request):
        """Every coefficient, not only the point value: nabla_riemann and
        nabla_ricci read the higher ones."""
        b = request.getfixturevalue(name).bundle
        riem, ric = textbook_riemann_jets(b)
        assert same_jets(b.riemann, riem)
        assert same_jets(b.ricci, ric)

    def test_jets_match_textbook_route_in_float_mode(self, perturbed_spec):
        b = bundle_for(perturbed_spec, (F(1, 3), F(-1, 5), F(2, 7), F(1, 11)),
                       mode=FLOAT)
        for got, want in zip((b.riemann, b.ricci), textbook_riemann_jets(b)):
            scale = max(abs(x) for e in want.entries for x in e.c)
            assert scale > 0
            assert all(abs(x - y) <= 1e-12 * scale
                       for e, f in zip(got.entries, want.entries)
                       for x, y in zip(e.c, f.c, strict=True))

    def test_riemann_needs_jet_order_two(self):
        b = bundle_for(build_ppwave(poly("x1^4"), d=2), order=1)
        assert b.gamma.entries[0].order == 0
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
        assert sup_norm(b.values("weyl")) < 1e-9

    def test_galaev_weyl_nonzero_and_tracefree(self, flagship_ctx):
        b = flagship_ctx.bundle
        weyl = b.values("weyl")
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
            weyl, 3, truncated(b.metric.g_inv, weyl.entries[0].order))
        nw = covariant_derivative(weyl, b.gamma, "oracle")
        nwm = covariant_derivative(weyl_mixed, b.gamma, "oracle")
        nnwm = covariant_derivative(nwm, b.gamma, "oracle").values()
        div = _as_jet_values(
            contract(contract(nnwm, 0, 2, b.metric.g_inv.values()), 0, 3))
        return {"weyl": weyl.values(), "weyl_mixed": weyl_mixed.values(),
                "nabla_weyl": nw.values(), "nabla_weyl_mixed": nwm.values(),
                "nabla2_weyl": covariant_derivative(nw, b.gamma,
                                                    "oracle").values(),
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
            trace = _as_jet_values(contract(b.nabla2_weyl, 0, 1,
                                            b.values("g_inv")))
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
                ng = covariant_derivative(g, b.gamma, "metricity test")
                assert not sup_norm(ng.values())

    def test_metricity_generic_metric(self, perturbed_ctx):
        b = perturbed_ctx.bundle
        for g in (b.metric.g, b.metric.g_inv):
            ng = covariant_derivative(g, b.gamma, "metricity test")
            assert not sup_norm(ng.values())

    def test_output_order_is_the_lower_of_t_and_gamma(self, perturbed_ctx):
        """nabla of order-K jets with Gamma at order K - 2 is the order-K-2
        truncation of nabla with Gamma at order K - 1."""
        b = perturbed_ctx.bundle
        x = du_jets(perturbed_ctx)                      # order 4
        full = covariant_derivative(x, reference_gamma(b.metric))
        got = covariant_derivative(x, truncated(reference_gamma(b.metric), 2))
        assert {e.order for e in full.entries} == {3}
        assert {e.order for e in got.entries} == {2}
        assert same_jets(got, truncated(full, 2))
        assert sup_norm(got.values()) > 0

    def test_du_covariantly_constant_on_wave(self, quartic_ctx):
        b = quartic_ctx.bundle
        x = du_jets(quartic_ctx)
        assert not sup_norm(covariant_derivative(x, b.gamma, "test").values())

    def test_nabla_ricci_is_grad_psi_outer_xx(self):
        spec = build_ppwave(poly("u*(x1^2 + 2*x2^2)"), d=2)
        b = bundle_for(spec, PT)
        nr = b.nabla_ricci.values()
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
                assert all(x.order == o and x.den == y.den and x.c == y.c
                           for x, y in zip(a.entries, b.entries,
                                           strict=True))

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
            g_inv = b.values("g_inv")
            assert g_inv == g_inv.permute((1, 0)), order
            for needs, stages in names.items():
                if needs <= order:
                    for name in stages:
                        got.setdefault(name, []).append(b.values(name).num)
        for name, seen in got.items():
            assert all(v == seen[0] for v in seen), name


class TestBianchiOracles:
    def test_first_bianchi_generic(self, perturbed_ctx):
        from ppcheck.tensors import cyclic_sum
        r = perturbed_ctx.bundle.riemann.values()
        assert not sup_norm(cyclic_sum(r, (0, 1, 2)))

    def test_second_bianchi_generic(self, perturbed_ctx):
        from ppcheck.tensors import cyclic_sum
        nr = perturbed_ctx.bundle.nabla_riemann.values()
        assert not sup_norm(cyclic_sum(nr, (0, 1, 2)))


def scatter_covariant_derivative(t, gamma, context="reference"):
    """The reference: each nonzero input entry scattered into every output
    entry it feeds, with no symmetry assumed."""
    n = t.dim
    sample = t.entries[0]
    low = min(sample.order - 1, gamma.entries[0].order)   # output order
    gam = truncated(gamma, low).entries
    rank = t.rank
    stride = n ** rank
    out = [Jet.zero(n, low, sample.mode)] * (n * stride)
    indices = itertools.product(range(n), repeat=t.rank)
    for off, (idx, e) in enumerate(zip(indices, t.entries)):
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
    return jet_tensor(n, COV + t.variance, out, Jet.zero(n, low, sample.mode))


GENERIC_PT = (F(1, 3), F(-1, 5), F(2, 7), F(1, 11))


def _flagship_spec():
    nc5 = ("u", "x1", "x2", "x3", "v")
    return build_galaev(3, [1, 1, -2], parse_polynomial("0", nc5),
                        parse_polynomial("u", nc5))


def _oracle_pairs(spec, pt, mode):
    """(name, gathered, scattered) for every covariant derivative the
    bundle takes with a symmetry, plus two taken without one.  The second
    derivatives are taken from Gamma's point values, so they are compared
    with the values of the scattered jets."""
    ctx = make_ctx(spec, pt, mode=mode)
    b = ctx.bundle
    ginv = truncated(b.metric.g_inv, b.nabla_ricci.entries[0].order)
    mixed = naive_raise_lower(naive_raise_lower(b.nabla_ricci, 0, ginv), 2,
                              ginv)
    assert mixed.variance == CON + COV + CON
    covector = du_jets(ctx)
    return [
        ("nabla_riemann", b.nabla_riemann,
         scatter_covariant_derivative(b.riemann, b.gamma)),
        ("nabla2_riemann", b.nabla2_riemann,
         scatter_covariant_derivative(b.nabla_riemann, b.gamma).values()),
        ("nabla_ricci", b.nabla_ricci,
         scatter_covariant_derivative(b.ricci, b.gamma)),
        ("nabla2_ricci", b.nabla2_ricci,
         scatter_covariant_derivative(b.nabla_ricci, b.gamma).values()),
        ("mixed rank 3", covariant_derivative(mixed, b.gamma),
         scatter_covariant_derivative(mixed, b.gamma)),
        ("brinkmann covector", covariant_derivative(covector, b.gamma),
         scatter_covariant_derivative(covector, b.gamma)),
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
    return [type(e.value) for e in t.entries]


class TestCovariantDerivativeOracle:
    """The orbit gather against the symmetry-blind scatter it replaced."""

    @pytest.mark.parametrize("make_spec,pt", ORACLE_CASES)
    def test_exact_jets_literally_equal(self, make_spec, pt):
        for name, got, want in _oracle_pairs(make_spec(), pt, EXACT):
            assert got.variance == want.variance, name
            assert got.entries == want.entries, name
            assert _value_types(got) == _value_types(want), name

    @pytest.mark.parametrize("make_spec,pt", ORACLE_CASES[-2:])
    def test_float_within_rounding(self, make_spec, pt):
        for name, got, want in _oracle_pairs(make_spec(), pt, FLOAT):
            pairs = (zip(got.entries, want.entries) if isinstance(got, Values) else
                     [(g.coeffs.get(k, 0), w.coeffs.get(k, 0))
                      for g, w in zip(got.entries, want.entries)
                      for k in set(g.coeffs) | set(w.coeffs)])
            pairs = list(pairs)
            scale = max(abs(w) for _, w in pairs)
            gap = max(abs(g - w) for g, w in pairs)
            assert scale > 0 and gap <= 1e-12 * scale, (name, gap, scale)

    def test_orbit_counts(self):
        # independent entries of a tensor with Riemann's pair symmetries
        assert len(_orbits(4, RIEMANN)[1]) == 21
        assert len(_orbits(5, RIEMANN)[1]) == 55
        assert len(_orbits(4, SYMMETRIC_PAIR)[1]) == 10

    @pytest.mark.parametrize("idx", [(0, 1, 2, 3), (2, 3, 0, 1), (1, 1, 0, 2)])
    def test_broken_riemann_symmetry_raises_in_exact_mode(self, perturbed_ctx,
                                                          idx):
        b = perturbed_ctx.bundle
        t = b.riemann
        t = replaced(t, idx, t[idx] + Jet.constant(b.dim, t[idx].order,
                                                   F(1, 7)))
        with pytest.raises(SymmetryError, match="nabla Riemann"):
            covariant_derivative(t, b.gamma, "nabla Riemann", RIEMANN)

    def test_broken_pair_symmetry_raises_in_exact_mode(self, perturbed_ctx):
        b = perturbed_ctx.bundle
        t = b.ricci
        t = replaced(t, (2, 1), t[2, 1] + Jet.constant(b.dim, t[2, 1].order,
                                                       F(1, 7)))
        with pytest.raises(SymmetryError, match="nabla Ricci"):
            covariant_derivative(t, b.gamma, "nabla Ricci", SYMMETRIC_PAIR)

    def test_point_value_derivative_checks_as_the_jet_one(self, perturbed_ctx):
        b = perturbed_ctx.bundle
        t = b.nabla_ricci
        t = replaced(t, (0, 2, 1), t[0, 2, 1] + Jet.constant(
            b.dim, t[0, 2, 1].order, F(1, 7)))
        with pytest.raises(SymmetryError, match="nabla nabla Ricci"):
            covariant_derivative(t, b.values("gamma"), "nabla nabla Ricci",
                                 SYMMETRIC_PAIR)
        order0 = covariant_derivative(b.nabla_ricci, b.gamma)
        with pytest.raises(OrderBudgetError, match="nabla nabla nabla"):
            covariant_derivative(order0, b.values("gamma"),
                                 "nabla nabla nabla Ricci")


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
        assert all(e.order == 2 for e in m.g_inv.entries)
        assert same_jets(m.g_inv, want)
        assert [type(e.value) for e in m.g_inv.entries] == \
            [type(e.value) for e in want.entries]

    @pytest.mark.parametrize("make_spec,pt", INVERSE_CASES)
    def test_float_within_rounding(self, make_spec, pt):
        m = metric_at_point(make_spec(), pt, 4, FLOAT)
        want = truncated(reference_inverse(m), 2)
        scale = max(abs(c) for e in want.entries for c in e.coeffs.values())
        gap = max(abs(g.coeffs.get(k, 0) - w.coeffs.get(k, 0))
                  for g, w in zip(m.g_inv.entries, want.entries)
                  for k in set(g.coeffs) | set(w.coeffs))
        assert all(e.mode == FLOAT and e.order == 2 for e in m.g_inv.entries)
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
SYMMETRIES = (NO_SYMMETRY, SYMMETRIC_PAIR, RIEMANN)


def _random_jet(rng, n, order, mode):
    """A nonzero jet with random coefficients on some monomials."""
    while True:
        coeffs = {mi: (F(rng.randint(-6, 6), rng.randint(1, 5))
                       if mode == EXACT else rng.uniform(-2.0, 2.0))
                  for mi in _tables(n, order).monos if rng.random() < 0.5}
        e = jet(n, order, coeffs, mode)
        if e:
            return e


def _symmetric_tensor(rng, n, variance, symmetry, fill, order, mode):
    """A jet tensor with `symmetry` on its trailing slots: each orbit of
    each block gets a random jet with probability `fill`."""
    width, orbits, _ = _orbits(n, symmetry)
    out = {}
    for base in range(0, n ** len(variance), n ** width):
        for _, images in orbits:
            if rng.random() < fill:
                e = _random_jet(rng, n, order, mode)
                for img, sign in images:
                    out[base + img] = e if sign > 0 else -e
    return Tensor(n, variance, out, Jet.zero(n, order, mode))


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
    return repr((x.variance, [(e.order, e.mode, e.den, e.c)
                              for e in x.entries]))


def _symmetry_outcome(t, symmetry, check):
    """The SymmetryError message of check(t), or None if it passes."""
    try:
        check(t, symmetry, "oracle")
    except SymmetryError as exc:
        return str(exc)
    return None


@st.composite
def _derivative_cases(draw):
    symmetry = draw(st.sampled_from(SYMMETRIES))
    width = _orbits(2, symmetry)[0]
    n = draw(st.sampled_from((2, 3) if width == 4 else (2, 3, 4)))
    extra = draw(st.integers(0 if width else 1, 1 if width == 4 else 2))
    variance = draw(st.text("lu", min_size=width + extra,
                            max_size=width + extra))
    return (symmetry, n, variance, draw(st.sampled_from(sorted(FILLS))),
            draw(st.sampled_from(sorted(FILLS))),
            draw(st.sampled_from((EXACT, FLOAT))), draw(st.booleans()),
            draw(st.integers(0, 2 ** 32)))


class TestSparseKernelsAgainstDenseOracle:
    """covariant_derivative and _check_symmetry on sparse tensors against
    the dense loops they replaced (conftest), on random tensors with no,
    few or most orbits filled: equal results, bit-equal in float mode, and
    the same first SymmetryError."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_derivative_cases())
    def test_covariant_derivative_equals_the_dense_gather(self, case):
        symmetry, n, variance, fill_t, fill_g, mode, values, seed = case
        rng = random.Random(seed)
        order = rng.randint(1, 3)
        t = _symmetric_tensor(rng, n, variance, symmetry, FILLS[fill_t],
                              order, mode)
        gamma = _random_gamma(rng, n, FILLS[fill_g],
                              max(order - rng.randint(0, 1), 1), mode)
        if values:
            gamma = gamma.values()
        got = covariant_derivative(t, gamma, "oracle", symmetry)
        want = dense_covariant_derivative(t, gamma, "oracle", symmetry)
        assert _bits(got) == _bits(want)
        if not isinstance(got, Values):
            assert got.zero.order == want.entries[0].order

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_derivative_cases(), breaks=st.integers(1, 4),
           forced=st.booleans())
    def test_symmetry_check_meets_the_same_first_error(self, case, breaks,
                                                        forced):
        symmetry, n, variance, fill, _, _, _, seed = case
        rng = random.Random(seed)
        t = _symmetric_tensor(rng, n, variance, symmetry, FILLS[fill], 2,
                              EXACT)
        for _ in range(breaks):     # an entry set to some other jet
            e = _random_jet(rng, n, 2, EXACT)
            t = replaced(t, rng.randrange(n ** t.rank), e)
        width, _, zeros = _orbits(n, symmetry)
        if forced and zeros:        # a nonzero entry the symmetry forbids
            base = rng.randrange(n ** (t.rank - width)) * n ** width
            e = _random_jet(rng, n, 2, EXACT)
            t = replaced(t, base + rng.choice(zeros), e)
        assert (_symmetry_outcome(t, symmetry, _check_symmetry)
                == _symmetry_outcome(t, symmetry, dense_check_symmetry))

    def test_several_violations_give_the_dense_first_message(self):
        rng = random.Random(5)
        t = _symmetric_tensor(rng, 3, "lllll", RIEMANN, 0.8, 2, EXACT)
        for idx in ((2, 0, 1, 2, 1), (1, 0, 1, 0, 2),
                    (0, 2, 2, 0, 1)):                       # a forced zero
            t = replaced(t, idx, _random_jet(rng, 3, 2, EXACT))
        want = _symmetry_outcome(t, RIEMANN, dense_check_symmetry)
        assert want == ("oracle: entry (0, 2, 2, 0, 1) is nonzero but the "
                        "declared riemann symmetry forces it to vanish")
        assert _symmetry_outcome(t, RIEMANN, _check_symmetry) == want
        t = replaced(t, (0, 2, 2, 0, 1), Jet.zero(3, 2))
        want = _symmetry_outcome(t, RIEMANN, dense_check_symmetry)
        assert want.startswith("oracle: entry (1, ")
        assert _symmetry_outcome(t, RIEMANN, _check_symmetry) == want


def test_flat_five_dimensional_custom_metric_has_empty_jet_tensors():
    """A flat n=5 metric: every jet tensor of the bundle holds no entry,
    and every stage and check still gives its value."""
    spec = build_custom(
        [[parse_polynomial("1" if {i, j} == {0, 1} or i == j > 1 else "0",
                           tuple(f"x{k}" for k in range(5)))
          for j in range(5)] for i in range(5)],
        tuple(f"x{k}" for k in range(5)))
    b = bundle_for(spec, tuple(F(k, 7) for k in range(1, 6)))
    for name in ("riemann", "ricci", "nabla_riemann", "nabla_ricci"):
        assert getattr(b, name).nonzero == {}, name
    assert b.christoffels[0].nonzero == b.gamma.nonzero == {}
    assert not b.nabla2_riemann.num and not b.lap_weyl.num
