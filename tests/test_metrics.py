"""Metric-family constructors, invariants, and configuration ingestion."""
import hashlib
import re
from fractions import Fraction as F

import pytest

from conftest import NC4, NC5, poly
from ppcheck import (EXACT, build_custom, build_galaev,
                     build_perturbed_minkowski, build_ppwave,
                     build_two_symmetric, build_walker, metrics,
                     parse_metric_config, sample_points)
from ppcheck.metrics import ConfigError, FamilyError, PointPlan, RunConfig
from ppcheck.polynomials import parse_polynomial


def p5(text):
    return parse_polynomial(text, NC5)


class TestPpwave:
    def test_component_matrix_shape(self):
        spec = build_ppwave(poly("x1^2"), d=2)
        g = spec.components
        one, zero = poly("1"), poly("0")
        assert g[0][3] == one and g[3][0] == one     # g_uv = g_vu = 1
        assert g[0][0] == poly("x1^2")               # g_uu = H
        assert g[1][1] == one and g[2][2] == one
        assert g[3][3] == zero and g[1][2] == zero

    def test_v_dependence_rejected(self):
        with pytest.raises(FamilyError):
            build_ppwave(poly("v*x1^2"), d=2)

    def test_flat_when_potential_zero(self):
        spec = build_ppwave(poly("0"), d=2)
        assert spec.expected_psi == poly("0")

    def test_radiation_psi(self):
        spec = build_ppwave(poly("x1^2 + x2^2"), d=2)
        assert spec.expected_psi == poly("-2")

    def test_vacuum_psi(self):
        spec = build_ppwave(poly("x1^2 - x2^2"), d=2)
        assert spec.expected_psi == poly("0")


class TestGalaev:
    def test_lambda_sum_enforced(self):
        with pytest.raises(FamilyError, match="lambda sum must be zero"):
            build_galaev(3, [1, 1, -1], p5("0"), p5("u"))

    def test_flagship_potential(self, flagship_spec):
        assert flagship_spec.potential == p5("u*(x1^2 + x2^2 + 4*x3^2)")

    def test_flat_when_zero_inputs(self):
        spec = build_galaev(3, [1, 1, -2], p5("0"), p5("0"))
        assert spec.potential == p5("0")

    def test_recorded_psi_comes_from_potential(self, flagship_spec):
        # -1/2 * transverse Laplacian of u*(x1^2+x2^2+4x3^2) = -6u
        assert flagship_spec.expected_psi == p5("-6*u")

    def test_d2_weyl_warning(self):
        spec = build_galaev(2, [1, -1], poly("0"), poly("u"))
        assert spec.warnings


class TestTwoSymmetric:
    def test_potential_and_psi(self):
        spec = build_two_symmetric([F(1), F(2)],
                                   [[F(0), F(0)], [F(0), F(0)]])
        assert spec.potential == poly("u*x1^2 + 2*u*x2^2")
        assert spec.expected_psi == poly("-3*u")

    def test_ordering_enforced(self):
        with pytest.raises(FamilyError):
            build_two_symmetric([F(2), F(1)], [[F(0), F(0)], [F(0), F(0)]])

    def test_negative_leading_coefficient_rejected(self):
        with pytest.raises(FamilyError):
            build_two_symmetric([F(-1), F(1)], [[F(0), F(0)], [F(0), F(0)]])


class TestWalker:
    def test_degenerate_transverse_block_rejected(self):
        one, zero = poly("1"), poly("0")
        with pytest.raises(FamilyError):
            build_walker(poly("v*x1"), [zero, zero],
                         [[zero, zero], [zero, one]], d=2)

    def test_v_dependence_allowed(self):
        one, zero = poly("1"), poly("0")
        spec = build_walker(poly("v*x1"), [zero, zero],
                            [[one, zero], [zero, one]], d=2)
        assert spec.family == "walker"

    def test_components(self):
        H, a1, a2, g12 = poly("v*x1"), poly("u"), poly("x2"), poly("x1")
        one, two, zero = poly("1"), poly("2"), poly("0")
        spec = build_walker(H, [a1, a2], [[one, g12], [g12, two]], d=2)
        h1, h2 = a1 * F(1, 2), a2 * F(1, 2)
        assert spec.components == ((H, h1, h2, one), (h1, one, g12, zero),
                                   (h2, g12, two, zero),
                                   (one, zero, zero, zero))
        default = build_walker(H, None, None, d=2)
        assert default.components == ((H, zero, zero, one),
                                      (zero, one, zero, zero),
                                      (zero, zero, one, zero),
                                      (one, zero, zero, zero))

    def test_asymmetric_gstar_rejected(self):
        one, zero = poly("1"), poly("0")
        with pytest.raises(FamilyError, match=r"not symmetric at \(2,1\)"):
            build_walker(poly("x1^2"), None, [[one, poly("x1")], [zero, one]],
                         d=2)

    @pytest.mark.parametrize("a_rho, gstar", [
        (["0"], None), (["0", "0", "0"], None),
        (None, [["1", "0"]]), (None, [["1", "0"], ["0", "1"], ["1", "0"]]),
        (None, [["1", "0"], ["0", "1", "0"]]), (None, [["1"], ["0", "1"]]),
        (None, [])], ids=["a_rho_1", "a_rho_3", "gstar_1_row", "gstar_3_rows",
                          "gstar_long_row", "gstar_short_row", "gstar_empty"])
    def test_wrong_shape_rejected(self, a_rho, gstar):
        with pytest.raises(FamilyError, match="shape does not match"):
            build_walker(poly("x1^2"), a_rho, gstar, d=2)


class TestPerturbedMinkowski:
    def test_seed_determinism(self):
        a = build_perturbed_minkowski(seed=7)
        b = build_perturbed_minkowski(seed=7)
        assert a.components == b.components

    def test_different_seeds_differ(self):
        a = build_perturbed_minkowski(seed=7)
        b = build_perturbed_minkowski(seed=8)
        assert a.components != b.components

    def test_degree_four_pinned(self):
        """Every coefficient at n = 8 and degree 4, in the order of its
        terms, which float jet sums follow."""
        spec = build_perturbed_minkowski(seed=1, n=8, max_degree=4)
        text = repr([[list(p.terms.items()) for p in row]
                     for row in spec.components])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3b9783d8466d85e339aa6f584176599fc6c7c97bb7a1dc1b81f74863cc31addb")


class TestSamplePoints:
    def test_grid_count_and_determinism(self, flagship_spec):
        plan = PointPlan("grid", seed=0, count=5)
        pts = sample_points(flagship_spec, plan)
        assert len(pts) == 5
        assert pts == sample_points(flagship_spec, plan)
        assert all(len(p) == 5 for p in pts)

    def test_random_seeded(self, flagship_spec):
        a = sample_points(flagship_spec, PointPlan("random", seed=1, count=4))
        b = sample_points(flagship_spec, PointPlan("random", seed=1, count=4))
        c = sample_points(flagship_spec, PointPlan("random", seed=2, count=4))
        assert a == b and a != c


# Library calls that once got past the configuration document's bounds,
# with the message each is refused with now
REFUSED_FIELDS = {
    "count_zero": (PointPlan(), {"count": 0},
                   "points.count must be between 1 and 25"),
    "count_float": (PointPlan(), {"count": 1.5},
                    "'points.count' must be an integer"),
    "u_values_empty": (PointPlan(), {"u_values": ()},
                       "points.u_values must not be empty"),
    "u_value_text": (PointPlan(), {"u_values": ("abc",)},
                     "'points.u_values' must be a finite rational number"),
    "u_value_exponent": (PointPlan(), {"u_values": ("1e9999",)},
                         "decimal exponent of 1000 or more"),
    "strategy": (PointPlan(), {"strategy": "spiral"},
                 "points.strategy must be 'grid' or 'random'"),
    "mode": (RunConfig("exact"), {"mode": "bogus"},
             "'mode' must be 'exact' or 'float', got 'bogus'"),
    "jet_order": (RunConfig("exact"), {"jet_order": 99},
                  r"'jet_order' must be an integer in 2\.\.6"),
    "points": (RunConfig("exact"), {"points": {"count": 1}},
               "'points' must be a PointPlan"),
    "tolerance": (RunConfig("exact"), {"tolerance": -1},
                  r"must lie in \[0, 1\], got -1"),
    "checks_empty": (RunConfig("exact"), {"checks": ()},
                     "'checks' must be a non-empty list"),
    "checks_string": (RunConfig("exact"), {"checks": "weyl_trace"},
                      "'checks' must be a non-empty list"),
    "checks_repeated": (RunConfig("exact"), {"checks": ("bianchi",) * 2},
                        "'checks' must be a non-empty list"),
    "coeffs_three": (RunConfig("exact"), {"field_coeffs": (1, 1, 1)},
                     "list of 1 to 2 rational numbers"),
    "coeffs_text": (RunConfig("exact"), {"field_coeffs": ("a",)},
                    "'field_equation_coeffs' must be a finite rational"),
}


class TestRecordValidation:
    @pytest.mark.parametrize("case", sorted(REFUSED_FIELDS))
    def test_refused_on_every_construction_path(self, case):
        record, changes, match = REFUSED_FIELDS[case]
        cls, fields = type(record), {**record._asdict(), **changes}
        for build in (lambda: cls(**fields),
                      lambda: record._replace(**changes),
                      lambda: cls._make(fields.values())):
            with pytest.raises(ConfigError, match=match):
                build()

    def test_fields_kept_in_one_form(self):
        plan = PointPlan(seed="7", count="2", u_values=["1", F(3, 2)])
        assert tuple(plan) == ("grid", 7, 2, ("1", F(3, 2)))
        config = RunConfig("float", tolerance=F(1, 4), checks=["bianchi"],
                           field_coeffs=["1/2"])
        assert (config.tolerance, config.checks, config.field_coeffs) == (
            0.25, ("bianchi",), (F(1, 2),))
        assert type(config.tolerance) is float
        assert RunConfig._make(config) == config
        assert config._replace(jet_order=2).jet_order == 2

    @pytest.mark.parametrize("build", [
        lambda: build_perturbed_minkowski(1, n=12),
        lambda: build_ppwave("x1^2", 12),
        lambda: build_custom([["1"] * 9] * 9),
    ], ids=["perturbed_minkowski", "ppwave", "custom"])
    def test_metric_past_max_dimension_refused(self, build):
        with pytest.raises(FamilyError, match=r"dimension n = (9|12|14); "
                                              "1 to 8 are supported"):
            build()

    def test_perturbed_minkowski_checks_n_before_any_monomial(
            self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("drew monomials for an oversized metric")
        monkeypatch.setattr(metrics, "_monomials_of_degree", unreachable)
        with pytest.raises(FamilyError, match="dimension n = 1000"):
            build_perturbed_minkowski(1, n=1000)

    @pytest.mark.parametrize("n,degree,message", [
        (4, -3, "'params.degree' must not be negative, got -3"),
        (8, 6, "'params.degree' 6 gives components of 3003 terms at n = 8; "
               "at most 1000 are supported"),
    ], ids=["negative", "too_many_terms"])
    def test_perturbed_minkowski_checks_degree_before_any_monomial(
            self, n, degree, message, monkeypatch):
        def unreachable(*args):
            raise AssertionError("drew monomials for a refused degree")
        monkeypatch.setattr(metrics, "_monomials_of_degree", unreachable)
        with pytest.raises(FamilyError, match=re.escape(message)):
            build_perturbed_minkowski(1, n=n, max_degree=degree)


MINIMAL = """
{
  "family": "galaev",
  "d": 3,
  "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"},
  "mode": "exact"
}
"""


class TestConfigParsing:
    def test_minimal_galaev_round_trip(self, flagship_spec):
        spec, config = parse_metric_config(MINIMAL)
        assert spec.components == flagship_spec.components
        assert config.mode == EXACT and config.jet_order == 4

    def test_lambda_sum_error_surfaces(self):
        bad = MINIMAL.replace("[1, 1, -2]", "[1, 1, -1]")
        with pytest.raises(ConfigError, match="lambda sum must be zero"):
            parse_metric_config(bad)

    def test_custom_components_accepted(self):
        doc = """
        {
          "family": "custom",
          "params": {
            "coords": ["x0", "x1", "x2", "x3"],
            "components": {"0,0": "-1 - x1^2", "1,1": "1", "2,2": "1",
                           "3,3": "1 + x0^2", "0,1": "x2/3"}
          },
          "mode": "exact"
        }
        """
        spec, _ = parse_metric_config(doc)
        assert spec.family == "custom" and spec.n == 4
        assert spec.components[0][1] == spec.components[1][0]

    def test_invalid_json_diagnosed(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_metric_config("{not json}")

    def test_unknown_key_diagnosed(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_metric_config(MINIMAL.replace('"mode"', '"Mode"'))

    def test_unknown_family_diagnosed(self):
        with pytest.raises(ConfigError, match="family"):
            parse_metric_config(MINIMAL.replace("galaev", "galaxy"))

    def test_bad_jet_order_diagnosed(self):
        doc = MINIMAL.rstrip().rstrip("}") + ', "jet_order": 1}'
        with pytest.raises(ConfigError, match="jet_order"):
            parse_metric_config(doc)

    def test_point_count_capped(self):
        doc = MINIMAL.rstrip().rstrip("}") + \
            ', "points": {"strategy": "grid", "count": 26}}'
        with pytest.raises(ConfigError, match="count"):
            parse_metric_config(doc)
