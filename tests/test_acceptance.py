"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Exact mode demands residuals that are literally zero.
"""
import itertools
from fractions import Fraction as F

import pytest

from conftest import NC4, NC5, make_ctx, poly
from ppcheck import (EXACT, FLOAT, build_galaev, build_ppwave,
                     build_two_symmetric, build_walker, parse_metric_config,
                     report_to_json, sample_points)
from ppcheck.checks import CHECKS
from ppcheck.cli import run
from ppcheck.metrics import PointPlan
from ppcheck.polynomials import parse_polynomial


def announce(num, label, ok):
    print(f"\ncriterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


GRID_U = ("1/2", "1", "3/2", "2", "5/2")


def flagship():
    return build_galaev(3, [1, 1, -2],
                        parse_polynomial("0", NC5),
                        parse_polynomial("u", NC5))


def u_points(spec, count=5):
    return sample_points(spec, PointPlan("grid", seed=0, count=count,
                                         u_values=GRID_U))


def test_criterion_01_convention_oracle():
    ok = True
    for text in ("x1^2 + x2^2", "x1^2 - x2^2", "u*(x1^2 + 2*x2^2)"):
        spec = build_ppwave(poly(text), d=2)
        for pt in sample_points(spec, PointPlan("random", seed=11, count=10)):
            ctx = make_ctx(spec, pt, order=2)
            ric = ctx.bundle.ricci
            psi = spec.expected_psi.evaluate(pt)
            for idx in itertools.product(range(4), repeat=2):
                want = psi if idx == (0, 0) else 0
                ok = ok and ric[idx] == want
            ok = ok and not ctx.bundle.scalar[()]
    announce(1, "Ricci = psi X(x)X with psi = -(1/2) tr Hess H; R = 0", ok)


@pytest.fixture(scope="module")
def perturbed_ctxs(perturbed_spec):
    pts = sample_points(perturbed_spec, PointPlan("random", seed=5, count=5))
    return [make_ctx(perturbed_spec, pt) for pt in pts]


def test_criterion_02_universal_identities(perturbed_ctxs):
    ok = True
    for ctx in perturbed_ctxs:
        for name in ("bianchi", "weyl_trace", "weyl_cyclic_identity",
                     "weyl_divergence_formula"):
            r = CHECKS[name](ctx)
            ok = ok and r.status == "pass" and r.residual == 0
    announce(2, "Bianchi/trace/cyclic/divergence exact on generic metric", ok)


def test_criterion_03_conformal_invariance():
    spec = flagship()
    pt = u_points(spec)[1]
    r_exact = CHECKS["conformal_invariance"](make_ctx(spec, pt))
    r_float = CHECKS["conformal_invariance"](make_ctx(spec, pt, mode=FLOAT))
    ok = (r_exact.status == "pass" and r_exact.residual == 0
          and r_float.status == "pass" and abs(r_float.residual) <= 1e-9)
    announce(3, "(1,3)-Weyl invariant under conformal rescale", ok)


@pytest.fixture(scope="module")
def flagship_ctxs():
    spec = flagship()
    return [make_ctx(spec, pt) for pt in u_points(spec)]


def test_criterion_04_recurrence_bundle(flagship_ctxs):
    ok = True
    for ctx in flagship_ctxs:
        u = ctx.point[0]
        rec = CHECKS["conformal_recurrence"](ctx)
        ok = ok and rec.status == "pass" and rec.residual == 0
        ok = ok and rec.witnesses["alpha"] == [1 / u, 0, 0, 0, 0]
        ok = ok and rec.residuals["match_half_dlog_omega2_n"] == 0
        ok = ok and rec.residuals["match_half_dlog_omega2_d"] == 0
        rot = CHECKS["roter_bundle"](ctx)
        ok = ok and rot.status == "pass" and all(
            v == 0 for v in rot.residuals.values())
        col = CHECKS["collinearity"](ctx)
        ok = ok and col.status == "pass" and col.witnesses["mu"] == 1 / u
        ols = CHECKS["olszak"](ctx)
        ok = ok and ols.status == "pass"
    announce(4, "recurrence bundle on the null-grid family, alpha = du/u", ok)


def test_criterion_05_weyl_divergence_biconditional(flagship_ctxs):
    ok = all(CHECKS["pure_radiation"](c).witnesses["div_weyl_residual"] == 0
             for c in flagship_ctxs)
    two = build_two_symmetric([F(1), F(2)], [[F(0), F(0)], [F(0), F(0)]])
    for pt in u_points(two, count=3):
        r = CHECKS["pure_radiation"](make_ctx(two, pt))
        ok = ok and r.witnesses["div_weyl_residual"] == 0 and r.status == "pass"
    quart = build_ppwave(poly("x1^4"), d=2)
    r = CHECKS["pure_radiation"](make_ctx(quart, u_points(quart, count=1)[0]))
    ok = (ok and r.status == "pass"
          and r.witnesses["div_weyl_residual"] != 0
          and r.witnesses["grad_psi_parallel_residual"] != 0)
    announce(5, "div C = 0 iff grad psi along X, both directions", ok)


def test_criterion_06_laplacian_suite(flagship_ctxs):
    ok = True
    for ctx in flagship_ctxs[:2]:
        r = CHECKS["laplacians"](ctx)
        ok = ok and r.status == "pass" and r.residual == 0
        ok = ok and CHECKS["semisymmetry"](ctx).residuals[
            "commutator_ricci"] == 0
    two = build_two_symmetric([F(1), F(2)], [[F(1), F(0)], [F(0), F(2)]])
    for pt in u_points(two, count=2):
        ctx = make_ctx(two, pt)
        r = CHECKS["laplacians"](ctx)
        ok = ok and r.status == "pass"
        ok = ok and r.witnesses["second_nabla_riemann_residual"] == 0
        ok = ok and CHECKS["semisymmetry"](ctx).residual == 0
    quart = build_ppwave(poly("x1^4"), d=2)
    ctx = make_ctx(quart, u_points(quart, count=1)[0])
    r = CHECKS["laplacians"](ctx)
    ok = ok and r.residuals["double_divergence_relation"] == 0
    ok = ok and r.residuals["lap_ricci"] != 0          # not two-symmetric
    ok = ok and CHECKS["semisymmetry"](ctx).residual == 0
    announce(6, "Laplacians vanish on the rigid families; relation holds", ok)


def test_criterion_07_ppwave_conditions(flagship_ctxs):
    ok = all(CHECKS["schimming"](c).residual == 0 and
             CHECKS["schimming"](c).status == "pass" for c in flagship_ctxs[:2])
    for spec in (build_ppwave(poly("x1^4"), d=2),
                 build_two_symmetric([F(1), F(2)],
                                     [[F(0), F(0)], [F(0), F(0)]])):
        ctx = make_ctx(spec, u_points(spec, count=1)[0])
        r = CHECKS["schimming"](ctx)
        ok = ok and r.status == "pass" and r.residual == 0
    one, zero = poly("1"), poly("0")
    walker = build_walker(poly("v*u*x1"), [zero, zero],
                          [[one, zero], [zero, one]], d=2)
    r = CHECKS["schimming"](make_ctx(walker, u_points(walker, count=1)[0]))
    ok = (ok and r.status == "fail"
          and r.residuals["brinkmann_precondition"] != 0)
    announce(7, "cyclic/D/chi/Riemann-square exact; Walker precondition", ok)


def test_criterion_08_field_equations(flagship_ctxs):
    ok = True
    two = build_two_symmetric([F(1), F(2)], [[F(1), F(0)], [F(0), F(2)]])
    targets = [(flagship_ctxs[0].spec, flagship_ctxs[0].point),
               (two, u_points(two, count=1)[0])]
    for spec, pt in targets:
        for coeffs in ((1, 3), (1, -2)):
            ctx = make_ctx(spec, pt, field_coeffs=coeffs)
            r = CHECKS["field_equations"](ctx)
            ok = ok and r.status == "pass" and r.residual == 0
            psi = spec.expected_psi.evaluate(pt)
            ok = ok and r.witnesses["source_T_uu"] == coeffs[0] * psi
    announce(8, "[a0 + a1 lap]Ricci = a0 Ricci; source matches family psi", ok)


def test_criterion_09_negative_controls(perturbed_ctxs):
    ctx = perturbed_ctxs[0]
    tenth = F(1, 10)
    rec = CHECKS["conformal_recurrence"](ctx)
    rot = CHECKS["roter_bundle"](ctx)
    sch = CHECKS["schimming"](ctx)
    ok = (rec.status == "fail" and rec.residual >= tenth
          and rot.status == "fail" and rot.residuals["codazzi"] >= tenth
          and sch.status == "fail" and sch.residual >= tenth)
    announce(9, "generic metric rejected with residual >= 0.1", ok)


FLAGSHIP_CONFIG = """
{
  "family": "galaev",
  "d": 3,
  "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"},
  "mode": "exact",
  "points": {"strategy": "grid", "count": 5,
             "u_values": ["1/2", "1", "3/2", "2", "5/2"]}
}
"""


def test_criterion_10_determinism():
    spec, config = parse_metric_config(FLAGSHIP_CONFIG)
    first_report = run(spec, config)
    first = report_to_json(first_report)
    second = report_to_json(run(spec, config))
    clean = all(counts["fail"] == 0 and counts["error"] == 0
                for counts in first_report.summary.values())
    announce(10, "two runs byte-identical; flagship run clean",
             first == second and clean)
