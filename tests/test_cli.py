"""Front end: run orchestration, theorem bundles, report serialization."""
import gc
import inspect
import json
import math
import os
import re
import subprocess
import sys
import types
import weakref
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction as F
from io import StringIO
from pathlib import Path

import pytest

from ppcheck import (RunConfig, all_clear, build_perturbed_minkowski,
                     build_ppwave, build_report, emit_report,
                     parse_metric_config, report_to_json, report_to_text)
from ppcheck.checks import ORDER_BUDGET, CheckResult, PointContext
from ppcheck.geometry import CurvatureBundle
from ppcheck import cli
from ppcheck.cli import (RunError, list_families, main, run, theorem_suite)
from ppcheck.metrics import (DEFAULT_U_VALUES, FAMILY_SCHEMAS, MAX_DIMENSION,
                             ConfigError, FamilyError, MetricSpec, PointPlan)
from ppcheck.polynomials import Polynomial
from ppcheck.report import Report, encode_value
from ppcheck.tensors import Values

HERE = os.path.dirname(__file__)

FLAGSHIP = """
{
  "family": "galaev",
  "d": 3,
  "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"},
  "mode": "exact",
  "points": {"strategy": "grid", "count": 3,
             "u_values": ["1", "3/2", "2"]},
  "checks": ["conformal_recurrence", "collinearity", "pure_radiation",
             "brinkmann", "olszak"]
}
"""

VACUUM = """
{
  "family": "ppwave",
  "d": 2,
  "params": {"H": "x1^2 - x2^2"},
  "mode": "exact",
  "points": {"strategy": "grid", "count": 2, "u_values": ["1", "2"]},
  "checks": ["pure_radiation", "ricci_recurrence", "schimming"]
}
"""


@pytest.fixture(scope="module")
def flagship_report():
    spec, config = parse_metric_config(FLAGSHIP)
    return run(spec, config)


class TestRun:
    def test_all_pass(self, flagship_report):
        assert all_clear(flagship_report)
        assert all(counts["fail"] == 0 and counts["error"] == 0
                   for counts in flagship_report.summary.values())

    def test_every_check_at_every_point(self, flagship_report):
        assert len(flagship_report.rows) == 3 * 5

    def test_rows_ordered(self, flagship_report):
        names = [r.name for r in flagship_report.rows]
        per_point = len(set(names))
        for i in range(0, len(names), per_point):
            assert names[i:i + per_point] == sorted(names[i:i + per_point])

    def test_vacuum_wave_outcomes(self):
        spec, config = parse_metric_config(VACUUM)
        rep = run(spec, config)
        by_name = {}
        for r in rep.rows:
            by_name.setdefault(r.name, []).append(r)
        assert all(r.witnesses["psi"] == 0 for r in by_name["pure_radiation"])
        assert all(r.status == "vacuous" for r in by_name["ricci_recurrence"])
        assert all(r.status == "pass" for r in by_name["schimming"])

    def test_budget_violation_is_a_pre_run_error(self):
        bad = FLAGSHIP.replace('"mode": "exact"',
                               '"mode": "exact", "jet_order": 3')
        bad = bad.replace('"conformal_recurrence"', '"laplacians"')
        spec, config = parse_metric_config(bad)
        with pytest.raises(ConfigError, match="jet order 4 required"):
            run(spec, config)

    @pytest.mark.parametrize("call", [
        lambda spec, config: run(
            spec, config._replace(checks=("weyl_trace", "schimming"))),
        lambda spec, config: theorem_suite("prop_2_10", spec, config)],
        ids=["run", "theorem_suite"])
    def test_order_past_the_budget_builds_the_budget(self, call, monkeypatch):
        """n = 8 at jet order 5 builds the jets of the checks' budget, 2,
        and reports what jet order 4 does, but for header.jet_order."""
        build, orders = cli.metric_at_point, []

        def spy(spec, point, order, mode):
            orders.append(order)
            return build(spec, point, order, mode)

        monkeypatch.setattr(cli, "metric_at_point", spy)
        spec = build_perturbed_minkowski(seed=0, n=8)
        reports = []
        for k in (5, 4):
            config = RunConfig("float", jet_order=k, points=PointPlan(count=1))
            rep = json.loads(report_to_json(call(spec, config)))
            assert rep["header"].pop("jet_order") == k
            reports.append(rep)
        assert orders and set(orders) == {2}
        assert reports[0] == reports[1]

    def test_unknown_check_rejected(self):
        bad = FLAGSHIP.replace('"olszak"', '"olszak2"')
        spec, config = parse_metric_config(bad)
        with pytest.raises(ConfigError, match="unknown checks"):
            run(spec, config)

    def test_float_exp_factor_with_zero_sigma_constant(self):
        # x0 = 0 at every sample point leaves sigma's constant term zero;
        # jet_exp must go by the jet's mode, not by that term's type
        doc = {"family": "perturbed_minkowski", "n": 4, "params": {"seed": 1},
               "mode": "float", "checks": ["conformal_invariance"],
               "points": {"strategy": "random", "count": 3, "seed": 5}}
        spec, config = parse_metric_config(json.dumps(doc))
        rep = run(spec, config)
        assert [r.status for r in rep.rows] == ["pass"] * 3

    def test_each_bundle_released_before_the_next_point(self, monkeypatch):
        """A serial run keeps no bundle past its point's checks."""
        evaluate = cli._evaluate
        bundles, alive = [], []

        def spy(spec, point, bundle, config, names):
            gc.collect()
            alive.append([ref() is not None for ref in bundles])
            bundles.append(weakref.ref(bundle))
            return evaluate(spec, point, bundle, config, names)

        monkeypatch.setattr(cli, "_evaluate", spy)
        spec, config = parse_metric_config(
            FLAGSHIP.replace('"olszak"]', '"olszak"], "jet_order": 3'))
        run(spec, config)
        assert alive == [[], [False], [False, False]]

    def test_next_metric_built_after_the_point_before_is_checked(
            self, monkeypatch):
        """Point k+1's metric is built only after point k's checks have run
        and point k's bundle is gone."""
        build, evaluate = cli.metric_at_point, cli._evaluate
        events, bundles = [], []

        def spy_build(*args):
            gc.collect()
            events.append(("build", [ref() is not None for ref in bundles]))
            return build(*args)

        def spy_evaluate(spec, point, bundle, config, names):
            bundles.append(weakref.ref(bundle))
            results = evaluate(spec, point, bundle, config, names)
            events.append(("checked", len(results)))
            return results

        monkeypatch.setattr(cli, "metric_at_point", spy_build)
        monkeypatch.setattr(cli, "_evaluate", spy_evaluate)
        spec, config = parse_metric_config(
            FLAGSHIP.replace('"olszak"]', '"olszak"], "jet_order": 3'))
        run(spec, config)
        assert events == [("build", []), ("checked", 5),
                          ("build", [False]), ("checked", 5),
                          ("build", [False, False]), ("checked", 5)]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("doc", [
        {"family": "galaev", "d": 3,
         "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"},
         "points": {"strategy": "grid", "count": 2}},
        {"family": "perturbed_minkowski", "n": 4,
         "params": {"seed": 7, "degree": 2},
         "points": {"strategy": "grid", "count": 1}},
    ], ids=["galaev", "perturbed_minkowski"])
    def test_jet_order_past_four_changes_only_the_header(self, doc, mode,
                                                         monkeypatch):
        """No check reads a jet past order 4, so jets are built to order 4
        and K = 5 or 6 reports what K = 4 does, but for header.jet_order."""
        build, orders = cli.metric_at_point, []

        def spy(spec, point, order, mode):
            orders.append(order)
            return build(spec, point, order, mode)

        monkeypatch.setattr(cli, "metric_at_point", spy)
        reports = []
        for k in (4, 5, 6):
            spec, config = parse_metric_config(
                json.dumps({**doc, "mode": mode, "jet_order": k}))
            rep = json.loads(report_to_json(run(spec, config)))
            assert rep["header"].pop("jet_order") == k
            reports.append(json.dumps(rep, sort_keys=True))
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert set(orders) == {4}

    def test_parallel_serial_identical(self):
        spec, config = parse_metric_config(FLAGSHIP)
        a = report_to_json(run(spec, config))
        b = report_to_json(run(spec, config))
        assert a == b


class TestTheoremSuite:
    def test_bundle_passes_on_flagship(self):
        spec, config = parse_metric_config(FLAGSHIP)
        rep = theorem_suite("thm_3_8", spec, config)
        assert rep.verdict == "pass"
        assert {r.name for r in rep.rows} == {
            "conformal_recurrence", "roter_bundle", "olszak", "collinearity"}

    def test_hypotheses_not_met_on_generic_metric(self):
        doc = """
        {
          "family": "perturbed_minkowski",
          "n": 4,
          "params": {"seed": 7},
          "mode": "exact",
          "points": {"strategy": "grid", "count": 1}
        }
        """
        spec, config = parse_metric_config(doc)
        rep = theorem_suite("thm_3_8", spec, config)
        assert rep.verdict == "hypotheses not met"

    def test_fail_when_the_hypothesis_holds_and_a_conclusion_does_not(self):
        """A conformally recurrent pp-wave that is not simple: the Weyl
        tensor of H = x1^4 + u*x2^2 is proportional to f = 6 x1^2 - u (the
        traceless part of H's transverse Hessian), so nabla C = d ln|f| (x) C,
        and alpha = d ln|f| is not along du."""
        spec, config = parse_metric_config(json.dumps({
            "family": "ppwave", "d": 2, "params": {"H": "x1^4 + u*x2^2"},
            "mode": "exact", "points": {"strategy": "grid", "count": 1}}))
        rep = theorem_suite("thm_3_8", spec, config)
        rows = {r.name: r for r in rep.rows}
        hypothesis = rows["conformal_recurrence"]
        assert (hypothesis.status, hypothesis.residual) == ("pass", 0)
        assert hypothesis.witnesses["alpha"] == [-6, 24, 0, 0]
        assert rows["olszak"].status == "pass"
        assert (rows["collinearity"].status,
                rows["collinearity"].residual) == ("fail", 1)
        assert rows["roter_bundle"].status == "fail"
        assert rows["roter_bundle"].residuals["codazzi"] == 1
        assert rep.verdict == "fail"

    def test_unknown_name_rejected(self):
        spec, config = parse_metric_config(FLAGSHIP)
        with pytest.raises(ConfigError, match="unknown theorem"):
            theorem_suite("thm_9_9", spec, config)


# Small exact runs whose reports are pinned byte for byte in tests/data.
# Between them they reach every jet operation: seeding from polynomials,
# sums, differences, negation, scalar and jet products, reciprocals,
# truncation and derivatives, on sparse (galaev) and dense (perturbed) jets.
# The galaev d=2, ppwave and two_symmetric reports were written while the
# checks still did their value algebra in Fractions, so they also pin the
# integer value layer's residual and witness types to that algebra's.
PINNED_REPORTS = {
    "report_galaev_exact.json": {
        "family": "galaev", "d": 3,
        "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"},
        "mode": "exact", "jet_order": 4,
        "points": {"strategy": "grid", "count": 1}},
    "report_generic_exact.json": {
        "family": "perturbed_minkowski", "n": 4,
        "params": {"seed": 3, "degree": 1}, "mode": "exact", "jet_order": 3,
        "points": {"strategy": "grid", "count": 1},
        "checks": ["bianchi", "conformal_invariance",
                   "weyl_divergence_formula", "ricci_recurrence",
                   "conformal_recurrence"]},
    # n=5: an orbit table other than the n=4 one of report_generic_exact
    "report_generic_n5_exact.json": {
        "family": "perturbed_minkowski", "n": 5,
        "params": {"seed": 7, "degree": 2}, "mode": "exact", "jet_order": 4,
        "points": {"strategy": "grid", "count": 1}},
    # n=8, the largest accepted dimension: rank-6 second derivatives at 8^6
    # offsets, almost all of them zero on this pp-wave
    "report_galaev_d6_exact.json": {
        "family": "galaev", "d": 6,
        "params": {"lambda": [1, 1, 1, 1, 1, -5], "a": "0", "F": "u"},
        "mode": "exact", "jet_order": 4,
        "points": {"strategy": "grid", "count": 1}},
    "report_galaev_d2_exact.json": {
        "family": "galaev", "d": 2,
        "params": {"lambda": [1, -1], "a": "u^2", "F": "u"},
        "mode": "exact", "jet_order": 4,
        "points": {"strategy": "grid", "count": 2}},
    "report_ppwave_exact.json": {
        "family": "ppwave", "d": 2, "params": {"H": "x1^4 + u*x1*x2 - x2^2"},
        "mode": "exact", "jet_order": 4,
        "points": {"strategy": "grid", "count": 2}},
    "report_two_symmetric_exact.json": {
        "family": "two_symmetric", "d": 2,
        "params": {"a_vec": [0, 2], "b_mat": [[1, 2], [2, -1]]},
        "mode": "exact", "jet_order": 4,
        "points": {"strategy": "grid", "count": 2}},
    # the densest: where the point values shed the most common factor
    "report_generic_n6_exact.json": {
        "family": "perturbed_minkowski", "n": 6,
        "params": {"seed": 7, "degree": 2}, "mode": "exact", "jet_order": 4,
        "points": {"strategy": "grid", "count": 1}},
    # g_00 = -1 + 3*x0 vanishes at the first grid point, which is resampled
    "report_resample_exact.json": {
        "family": "custom",
        "params": {"components": {"0,0": "-1 + 3*x0", "1,1": "1",
                                  "2,2": "1 + x1*x2", "3,3": "1"}},
        "mode": "exact", "points": {"strategy": "grid", "count": 2}},
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_exact_report_byte_identical(name):
    spec, config = parse_metric_config(json.dumps(PINNED_REPORTS[name]))
    with open(os.path.join(HERE, "data", name), encoding="utf-8") as fh:
        assert report_to_json(run(spec, config)) == fh.read()


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_point_values_in_lowest_terms(name, monkeypatch):
    """Every exact point value a stage returned in the run, and the values
    of g, g^{-1} and each jet stage, rescaled bundles' too, have
    gcd(den, *num) = 1."""
    bundles, init = [], CurvatureBundle.__init__

    def record(self, metric):
        init(self, metric)
        bundles.append(self)
    monkeypatch.setattr(CurvatureBundle, "__init__", record)
    run(*parse_metric_config(json.dumps(PINNED_REPORTS[name])))
    assert bundles
    for b in bundles:
        names = ["g", "g_inv", "gamma"] + [
            s for s in ("riemann", "ricci", "nabla_ricci", "nabla_riemann")
            if vars(CurvatureBundle)[s].needs <= b.metric.order]
        values = [getattr(b, s) for s in names] + [
            v for v in vars(b).values() if isinstance(v, Values)]
        for v in values:
            assert v.exact and math.gcd(v.den, *v.num.values()) == 1


def test_pinned_resample_report_has_its_note():
    with open(os.path.join(HERE, "data", "report_resample_exact.json"),
              encoding="utf-8") as fh:
        header = json.load(fh)["header"]
    assert header["notes"] == [
        "degenerate metric at ['1/3', '-1/5', '2/7', '-1/11']; resampled"]


class TestSerialization:
    def test_fraction_encoding(self):
        assert encode_value(F(1)) == "1/1"
        assert encode_value(F(-3, 7)) == "-3/7"
        assert encode_value([F(1, 2), 0.5, None]) == ["1/2", 0.5, None]

    def test_values_past_the_int_to_str_limit_encode_exactly(self):
        big = F(10 ** 5000 + 1, 3)              # a 5001-digit numerator
        row = CheckResult("bianchi", "fail", big, (F(1),),
                          witnesses={"n": 7 ** 6000, "small": 12})
        rep = build_report({"version": "x", "mode": "exact"}, [(0, row)])
        doc = json.loads(report_to_json(rep))["rows"][0]
        num, den = doc["residual"].split("/")
        assert int(Decimal(num)) == big.numerator and den == "3"
        assert int(Decimal(doc["witnesses"]["n"])) == 7 ** 6000
        assert doc["witnesses"]["small"] == 12
        text = report_to_text(rep)
        assert f"{doc['residual']}  ['1/1']" in text

    def test_non_finite_floats_encode_as_strings(self):
        inf = float("inf")
        assert encode_value([float("nan"), inf, -inf, 1.5]) == [
            "nan", "inf", "-inf", 1.5]

    def test_empty_report(self):
        rep = build_report({"version": "x", "mode": "exact"}, [])
        doc = json.loads(report_to_json(rep))
        assert doc["rows"] == [] and doc["summary"] == {}

    def test_exact_report_has_no_floats_in_residuals(self, flagship_report):
        doc = json.loads(report_to_json(flagship_report))
        for row in doc["rows"]:
            vals = [row["residual"]] + list(row.get("residuals", {}).values())
            assert not any(isinstance(v, float) for v in vals)

    def test_alpha_witness_serialized_at_u_one(self, flagship_report):
        doc = json.loads(report_to_json(flagship_report))
        rows = [r for r in doc["rows"]
                if r["check"] == "conformal_recurrence"
                and r["point"][0] == "1/1"]
        assert rows and rows[0]["witnesses"]["alpha"][0] == "1/1"

    def test_text_golden_snapshot(self, tmp_path):
        spec, config = parse_metric_config(VACUUM)
        rep = run(spec, config)
        text = emit_report(rep, str(tmp_path / "r.txt"), "text")
        golden = os.path.join(HERE, "data", "vacuum_report.txt")
        with open(golden, encoding="utf-8") as fh:
            assert text == fh.read()

    def test_write_failure_surfaced(self, flagship_report):
        with pytest.raises(OSError, match="cannot write report"):
            emit_report(flagship_report, "/nonexistent-dir/r.json", "json")


# The package's public API, pinned: a name leaves it only on purpose.
PUBLIC_API = sorted([
    "CHECKS", "ORDER_BUDGET", "CheckResult", "PointContext",
    "extract_recurrence", "RunError", "list_families", "main", "run",
    "theorem_suite", "CurvatureBundle", "DegeneratePointError",
    "OrderBudgetError", "metric_at_point", "rescaled", "EXACT", "FLOAT", "Jet", "SingularJetError",
    "jet_from_polynomial", "ConfigError", "FamilyError", "MetricSpec",
    "PointPlan", "RunConfig", "build_custom", "build_galaev",
    "build_perturbed_minkowski", "build_ppwave", "build_two_symmetric",
    "build_walker", "parse_metric_config", "sample_points", "Polynomial",
    "PolynomialError", "parse_polynomial", "ENGINE_VERSION", "Report",
    "all_clear", "build_report", "emit_report", "report_to_json",
    "report_to_text", "Tensor", "contract", "cyclic_sum", "raise_lower",
    "sup_norm", "__version__"])


def test_public_names_resolve_and_nothing_else_is_exported():
    import ppcheck
    assert sorted(ppcheck.__all__) == PUBLIC_API
    for name in ppcheck.__all__:
        assert getattr(ppcheck, name, None) is not None, name
    extra = {name for name, value in vars(ppcheck).items()
             if not name.startswith("_") and name not in ppcheck.__all__
             and not isinstance(value, types.ModuleType)}
    assert not extra
    assert list(ppcheck.MetricSpec._fields) == [
        "family", "n", "coords", "components", "potential", "expected_psi",
        "warnings"]


def test_readme_library_use_runs():
    """The two `python` blocks under README "Library use", run in order in
    one namespace: the first prints the line its comment shows, and the
    second's rescaled `C2` equals the bundle's own `weyl_mixed`."""
    readme = Path(HERE).parent.joinpath("README.md").read_text("utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    shown = [line[2:] for line in blocks[0].splitlines()
             if line.startswith("# pass ")]
    assert shown and shown[0].startswith("pass [Fraction(1, 1), ")
    scope, out = {}, StringIO()
    with redirect_stdout(out):
        for block in blocks:
            exec(block, scope)
    assert out.getvalue().splitlines() == shown
    assert scope["C2"] == scope["ctx"].bundle.weyl_mixed


def test_import_leaves_out_modules_no_run_uses():
    """`import ppcheck` loads neither `dataclasses` (with `inspect`) nor
    the CLI's `argparse` and `traceback`; `main` imports what it needs."""
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import ppcheck\n"
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'traceback'}"
            " & set(sys.modules)))\n"
            "sys.exit(ppcheck.main(['families']))\n")
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, os.path.join(HERE, os.pardir, "src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert "built-in metric families:" in proc.stdout


def _python_m_ppcheck(*args, cwd):
    """`python -W error::RuntimeWarning -m ppcheck ARGS` on this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(
        os.path.join(HERE, os.pardir, "src")))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ppcheck",
         *args], capture_output=True, text=True, timeout=120, cwd=cwd,
        env=env)


def test_python_m_ppcheck_runs_the_cli(tmp_path):
    """The package runs as a module, with no runpy warning (made an
    error here), and keeps the CLI's exit statuses."""
    proc = _python_m_ppcheck("families", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "built-in metric families:" in proc.stdout
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "galaev", "d": 3, "mode": "exact"')
    proc = _python_m_ppcheck("run", "--config", str(bad), cwd=tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


class TestRecordTypes:
    """The six public record types keep their constructors: parameters,
    order and defaults; the three tuple types are immutable."""

    COORDS = ("x", "y")
    ONE = Polynomial.constant(COORDS, 1)
    X = Polynomial.variable(COORDS, "x")

    def spec(self, **changes):
        fields = {"family": "custom", "n": 2, "coords": self.COORDS,
                  "components": ((self.ONE, self.X), (self.X, self.ONE))}
        return MetricSpec(**{**fields, **changes})

    @pytest.mark.parametrize("cls, params", [
        (MetricSpec, ["family", "n", "coords", "components", "potential",
                      "expected_psi", "warnings"]),
        (PointPlan, ["strategy", "seed", "count", "u_values"]),
        (RunConfig, ["mode", "jet_order", "points", "tolerance", "checks",
                     "field_coeffs"]),
        (CheckResult, ["name", "status", "residual", "point", "witnesses",
                       "residuals", "notes"]),
        (PointContext, ["spec", "point", "mode", "bundle", "tolerance",
                        "field_coeffs"]),
        (Report, ["header", "rows", "summary", "verdict"]),
    ], ids=lambda x: getattr(x, "__name__", ""))
    def test_constructor_parameters_in_order(self, cls, params):
        assert list(inspect.signature(cls).parameters) == params

    def test_defaults(self):
        spec = self.spec()
        assert (spec.potential, spec.expected_psi, spec.warnings) == (
            None, None, ())
        plan = PointPlan("grid", seed=0, count=5)      # as the demos call it
        assert tuple(plan) == ("grid", 0, 5, DEFAULT_U_VALUES)
        assert tuple(PointPlan()) == tuple(plan)
        config = RunConfig("exact")
        assert (config.jet_order, tuple(config.points), config.tolerance,
                config.checks, config.field_coeffs) == (
                    4, tuple(plan), 1e-9, None, (1, 1))
        row = CheckResult("bianchi", "pass", 0, (1,))
        assert (row.witnesses, row.residuals, row.notes) == ({}, {}, "")
        ctx = PointContext(spec, (1, 2), "exact", None)
        assert (ctx.tolerance, ctx.field_coeffs) == (1e-9, (1, 1))
        report = Report({}, [])
        assert (report.summary, report.verdict) == ({}, None)
        report.verdict = "pass"                 # theorem_suite sets it
        assert report.verdict == "pass"

    def test_default_dicts_are_not_shared(self):
        r1, r2 = (CheckResult("bianchi", "pass", 0, ()) for _ in range(2))
        assert r1.witnesses is not r2.witnesses
        assert r1.residuals is not r2.residuals
        assert Report({}, []).summary is not Report({}, []).summary

    @pytest.mark.parametrize("make, attr", [
        (lambda self: self.spec(), "n"),
        (lambda self: PointPlan(), "count"),
        (lambda self: RunConfig("exact"), "mode"),
    ], ids=["MetricSpec", "PointPlan", "RunConfig"])
    def test_tuple_types_are_immutable(self, make, attr):
        record = make(self)
        with pytest.raises(AttributeError):
            setattr(record, attr, 3)
        with pytest.raises(AttributeError):
            record.extra = 3

    def test_metric_spec_validates_on_every_construction_path(self):
        zero = Polynomial.constant(self.COORDS, 0)
        skew = ((self.ONE, self.X), (zero, self.ONE))
        spec = self.spec()
        for build in (lambda: self.spec(components=skew),
                      lambda: spec._replace(components=skew),
                      lambda: MetricSpec._make(spec[:3] + (skew,))):
            with pytest.raises(FamilyError,
                               match=r"components not symmetric at \(1,0\)"):
                build()
        with pytest.raises(FamilyError, match="unknown family 'bogus'"):
            spec._replace(family="bogus")
        with pytest.raises(FamilyError, match="shape does not match"):
            spec._replace(n=3)
        assert spec._replace(warnings=("w",)).warnings == ("w",)

    @pytest.mark.parametrize("coords", [
        ("u", "x1", "x2"), ("u", "x1", "x1", "v"), ("u", "", "x2", "v"),
        ("u", "x1", "x2", 3), "ux1x2v"])
    def test_metric_spec_refuses_bad_coords(self, coords):
        # each n distinct non-empty names; three names once got a bare
        # ValueError out of run()
        spec = build_ppwave("x1^2", 2)
        with pytest.raises(FamilyError,
                           match="needs 4 distinct coordinate names"):
            spec._replace(coords=coords)
        with pytest.raises(FamilyError):
            self.spec(coords=("x", "x"))


class TestMainEntry:
    def write(self, tmp_path, text):
        p = tmp_path / "config.json"
        p.write_text(text)
        return str(p)

    def test_run_exit_zero_and_output(self, tmp_path, capsys):
        cfg = self.write(tmp_path, FLAGSHIP)
        out = str(tmp_path / "report.json")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["header"]["mode"] == "exact"

    def test_run_exit_one_on_failures(self, tmp_path):
        doc = """
        {
          "family": "perturbed_minkowski",
          "n": 4,
          "params": {"seed": 7},
          "mode": "exact",
          "points": {"strategy": "grid", "count": 1},
          "checks": ["conformal_recurrence"]
        }
        """
        cfg = self.write(tmp_path, doc)
        assert main(["run", "--config", cfg, "--out",
                     str(tmp_path / "r.json")]) == 1

    def test_flat_five_dimensional_metric_gives_a_report(self, tmp_path,
                                                         capsys):
        """The flat n=5 custom metric in exact mode, whose jet tensors hold
        no entry: a report of every check at both points, none of whose
        error rows is a raised exception, and no traceback."""
        cfg = self.write(tmp_path, json.dumps({
            "family": "custom",
            "params": {"components": {"0,1": "1", "2,2": "1", "3,3": "1",
                                      "4,4": "1"}},
            "mode": "exact", "points": {"strategy": "grid", "count": 2}}))
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) in (0, 1)
        text = out.read_text()
        rows = json.loads(text)["rows"]
        assert len(rows) == 2 * len(ORDER_BUDGET)
        assert not [r for r in rows if "raised" in r.get("notes", "")]
        captured = capsys.readouterr()
        assert "Traceback" not in text + captured.out + captured.err

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self.write(tmp_path, FLAGSHIP.replace("[1, 1, -2]", "[1, 1, 1]"))
        assert main(["run", "--config", cfg]) == 2
        assert "lambda sum" in capsys.readouterr().err

    def test_theorems_subcommand(self, tmp_path, capsys):
        cfg = self.write(tmp_path, FLAGSHIP)
        assert main(["theorems", "--name", "thm_3_8", "--config", cfg,
                     "--format", "text"]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, needle", [
        (["run", "--config", "CFG", "--threads", "2"], "--threads"),
        (["run"], "--config"),
        (["bogus"], "'bogus'"),
        (["families", "--list"], "--list"),
    ], ids=["removed_threads_flag", "missing_config", "unknown_subcommand",
            "removed_list_flag"])
    def test_usage_error_exits_two_with_one_line(self, argv, needle, tmp_path,
                                                 capsys):
        cfg = self.write(tmp_path, FLAGSHIP)
        assert main([cfg if a == "CFG" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("command", ["run", "theorems"])
    def test_help_exits_zero_without_threads(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--config" in out and "--threads" not in out

    def test_families_subcommand(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        for fam in ("ppwave", "galaev", "two_symmetric", "walker", "custom"):
            assert fam in out

    def test_list_families_helper(self):
        assert "galaev" in list_families()


# A config of each family whose params hold every key `ppcheck families`
# names for it
EVERY_PARAM = {
    "ppwave": {"d": 2, "params": {"H": "u*x1^2 - x2^2"}},
    "brinkmann": {"d": 2, "params": {"H": "x1*x2*u"}},
    "galaev": {"d": 3, "params": {"lambda": [1, "1/2", "-3/2"], "a": "u",
                                  "F": "u^2"}},
    "two_symmetric": {"d": 2, "params": {"a_vec": [1, 2],
                                         "b_mat": [[1, 0], [0, "1/3"]]}},
    "walker": {"d": 2, "params": {"H": "v*x1 + u*x2^2", "a_rho": ["u", "x1"],
                                  "gstar": [["1", "0"], ["0", "2"]]}},
    "custom": {"params": {"components": {"0,1": "1", "2,2": "1",
                                         "3,3": "1 + x^2"},
                          "coords": ["t", "r", "x", "y"]}},
    "perturbed_minkowski": {"n": 4, "params": {"seed": 3, "degree": 1}},
}


class TestFamilyParams:
    """The params keys a family reads are those `ppcheck families` lists;
    any other key exits 2, as a misspelt one would build another metric."""

    @staticmethod
    def run_main(tmp_path, family, params, doc):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            **doc, "family": family, "params": params, "mode": "exact",
            "points": {"strategy": "grid", "count": 1},
            "checks": ["bianchi", "brinkmann"]}))
        return main(["run", "--config", str(cfg)])

    @pytest.mark.parametrize("family", sorted(EVERY_PARAM))
    def test_every_listed_key_is_accepted(self, family, tmp_path, capsys):
        line = next(ln for ln in list_families().splitlines()
                    if ln.split()[0] == family)
        doc = EVERY_PARAM[family]
        assert set(doc["params"]) == set(FAMILY_SCHEMAS[family][0])
        assert all(f"{key}: " in line for key in doc["params"])
        assert self.run_main(tmp_path, family, doc["params"], doc) in (0, 1)
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("family, key", [
        *((family, "bogus") for family in sorted(EVERY_PARAM)),
        ("walker", "a"),            # a_rho misspelt
        ("galaev", "f"),            # F misspelt
    ])
    def test_unknown_key_exits_two(self, family, key, tmp_path, capsys):
        doc = EVERY_PARAM[family]
        params = {**doc["params"], key: "u"}
        assert self.run_main(tmp_path, family, params, doc) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err


BAD_FIELDS = {
    "seed_not_integer": ('"points": {"seed": "abc"}', "points.seed"),
    "coeffs_not_rational": ('"field_equation_coeffs": ["x", "y"]',
                            "field_equation_coeffs"),
    "coeffs_too_many": ('"field_equation_coeffs": [1, 3, 7]',
                        "field_equation_coeffs"),
    "tolerance_nan": ('"tolerance": "nan"', "tolerance"),
    "tolerance_inf": ('"tolerance": "inf"', "tolerance"),
    "tolerance_negative": ('"tolerance": -1e-9', "tolerance"),
    # an empty list used to run every check, a repeated name twice
    "checks_empty": ('"checks": []', "checks"),
    "checks_repeated": ('"checks": ["bianchi", "bianchi"]', "checks"),
}

_GALAEV = {"family": "galaev", "d": 3, "params": {"a": "0", "F": "u"}}
_TWO_SYM = {"family": "two_symmetric", "d": 2, "params": {"a_vec": [1, 2]}}
BAD_FAMILY_PARAMS = {
    "galaev_lambda_int": (
        {**_GALAEV, "params": {**_GALAEV["params"], "lambda": 3}},
        "params.lambda"),
    "two_symmetric_a_vec_int": (
        {**_TWO_SYM, "params": {"a_vec": 3}}, "params.a_vec"),
    "two_symmetric_b_mat_int": (
        {**_TWO_SYM, "params": {"a_vec": [1, 2], "b_mat": 5}}, "params.b_mat"),
    "two_symmetric_b_mat_row_int": (
        {**_TWO_SYM, "params": {"a_vec": [1, 2], "b_mat": [[1, 0], 5]}},
        "params.b_mat"),
}

_CUSTOM = {"family": "custom",
           "params": {"components": {"0,0": "1", "1,1": "1"}}}
_WALKER = {"family": "walker", "d": 2, "params": {"H": "x1^2"}}
_FLAGSHIP_DOC = {**_GALAEV, "params": {**_GALAEV["params"],
                                       "lambda": [1, 1, -2]}}
BAD_FIELD_TYPES = {
    "custom_components_int": (
        {**_CUSTOM, "params": {"components": 3}}, "params.components"),
    "custom_coords_int": (
        {**_CUSTOM, "params": {**_CUSTOM["params"], "coords": 5}},
        "params.coords"),
    "walker_a_rho_int": (
        {**_WALKER, "params": {"H": "x1^2", "a_rho": 3}}, "params.a_rho"),
    "walker_gstar_int": (
        {**_WALKER, "params": {"H": "x1^2", "gstar": 3}}, "params.gstar"),
    "galaev_a_list": (
        {**_FLAGSHIP_DOC, "params": {**_FLAGSHIP_DOC["params"], "a": [1]}},
        "params.a"),
    "ppwave_H_list": (
        {"family": "ppwave", "d": 2, "params": {"H": ["x"]}}, "params.H"),
    "u_values_int": (
        {**_FLAGSHIP_DOC, "points": {"u_values": 5}}, "points.u_values"),
}

_NINE = [f"y{i}" for i in range(9)]
# One config past each input-size bound; each is refused while parsing, so
# no test runs an oversized input.
OVERSIZED = {
    "exponent": (
        {**_FLAGSHIP_DOC, "params": {**_FLAGSHIP_DOC["params"],
                                     "F": "(u + x1)^33"}}, "exponent 33"),
    "exponent_tower": (
        {**_FLAGSHIP_DOC, "params": {**_FLAGSHIP_DOC["params"],
                                     "F": "9^9^9"}}, "exponent 387420489"),
    "perturbed_n": (
        {"family": "perturbed_minkowski", "n": 9}, "'n'"),
    "galaev_d": ({**_FLAGSHIP_DOC, "d": 7}, "'d'"),
    "ppwave_n": (
        {"family": "ppwave", "n": 9, "params": {"H": "x1^2"}}, "'n'"),
    "components_key": (
        {"family": "custom", "params": {"components": {"8,8": "1"}}},
        "'params.components'"),
    "components_rows": (
        {"family": "custom", "params": {"components": [["1"] * 9] * 9}},
        "'params.components'"),
    "components_coords": (
        {"family": "custom", "params": {"components": {"0,0": "1"},
                                        "coords": _NINE}},
        "'params.components'"),
    "jet_order": ({**_FLAGSHIP_DOC, "jet_order": 7}, "'jet_order'"),
    "polynomial_terms": (
        {"family": "custom", "params": {"components": {
            "0,0": "(x0+x1+x2+x3+x4+x5+x6+x7)^12", "7,7": "1"}}},
        "term count up to"),
    "polynomial_degree": (
        {**_FLAGSHIP_DOC, "params": {**_FLAGSHIP_DOC["params"],
                                     "F": "((x1 + u)^32)^8"}}, "degree 64"),
    "constant_bits": (
        {**_FLAGSHIP_DOC, "params": {**_FLAGSHIP_DOC["params"],
                                     "F": "(2^32)^32 * u"}},
        "constant size in bits 1026"),
    "perturbed_degree": ({"family": "perturbed_minkowski", "n": 8,
                          "params": {"degree": 5}}, "1287 terms"),
}
AT_BOUND = {
    "exponent": {**_FLAGSHIP_DOC, "params": {**_FLAGSHIP_DOC["params"],
                                             "F": "u^32"}},
    "perturbed_n": {"family": "perturbed_minkowski", "n": 8},
    "galaev_d": {**_FLAGSHIP_DOC, "d": 6, "params": {
        **_FLAGSHIP_DOC["params"], "lambda": [1, 1, 1, 1, 1, -5]}},
    "components_key": {"family": "custom",
                       "params": {"components": {"7,7": "1"}}},
    "jet_order": {**_FLAGSHIP_DOC, "jet_order": 6},
    "jet_size": {"family": "perturbed_minkowski", "n": 8, "jet_order": 5},
    "jet_size_n6": {"family": "perturbed_minkowski", "n": 6, "jet_order": 6},
    "jet_size_n7": {"family": "perturbed_minkowski", "n": 7, "jet_order": 5},
    # term pairs 10 * 10, then exactly 100 * 10
    "polynomial_terms": {"family": "custom", "params": {"components": {
        "0,0": "-1", "1,1": "1", "2,2": "1",
        "3,3": "(x0+x1)^9 * (x2+x3)^9 * (x0+x1+x2)^3"}}},
    "polynomial_degree": {**_FLAGSHIP_DOC, "params": {
        **_FLAGSHIP_DOC["params"], "F": "u^16 * (u + 1)^16"}},
    "constant_bits": {**_FLAGSHIP_DOC, "params": {
        **_FLAGSHIP_DOC["params"], "F": "(2^32)^31 * u"}},
    "perturbed_degree": {"family": "perturbed_minkowski", "n": 4,
                         "params": {"degree": 9}},
}

# Documents that once ended in a traceback, ran without bound, or ran
# another metric than the one asked for
MALFORMED_TEXTS = {
    "json_integer_digits": ("1" + "0" * 5000, "invalid JSON"),
    "json_nesting": ("[" * 100000, "invalid JSON"),
    "dimension_zero": (json.dumps({"family": "perturbed_minkowski", "n": 0}),
                       "'n'"),
    # ran flat Minkowski, with no perturbation at all
    "perturbed_degree_negative": (json.dumps({
        "family": "perturbed_minkowski", "n": 4, "params": {"degree": -3}}),
        "'params.degree'"),
    "rational_exponent": (json.dumps({**_FLAGSHIP_DOC,
                                      "tolerance": "1e99999999"}),
                          "decimal exponent"),
    "infinite_literal": (json.dumps({**_FLAGSHIP_DOC, "params": {
        **_FLAGSHIP_DOC["params"], "F": "1e999 * u"}}), "bad constant"),
    "check_name_newline": (json.dumps({**_FLAGSHIP_DOC,
                                       "checks": ["bianchi\nweyl"]}),
                           "unknown checks"),
}


class TestInputValidation:
    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXTS))
    def test_malformed_document_exits_two(self, case, tmp_path, capsys):
        text, needle = MALFORMED_TEXTS[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("case", sorted(BAD_FIELDS))
    def test_bad_field_exits_two_with_one_line(self, case, tmp_path, capsys):
        field_text, name = BAD_FIELDS[case]
        doc = ('{"family": "galaev", "d": 3, "params": {"lambda": [1, 1, -2],'
               ' "a": "0", "F": "u"}, ' + field_text + "}")
        cfg = tmp_path / "config.json"
        cfg.write_text(doc)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(name) in err

    @pytest.mark.parametrize("case", sorted(BAD_FAMILY_PARAMS))
    def test_non_list_family_param_exits_two(self, case, tmp_path, capsys):
        doc, name = BAD_FAMILY_PARAMS[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(name) in err and "must be a list" in err

    @pytest.mark.parametrize("case", sorted(BAD_FIELD_TYPES))
    def test_bad_field_type_exits_two(self, case, tmp_path, capsys):
        doc, name = BAD_FIELD_TYPES[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(name) in err

    @pytest.mark.parametrize("case", sorted(OVERSIZED))
    def test_oversized_input_exits_two(self, case, tmp_path, capsys):
        doc, needle = OVERSIZED[case]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("case", sorted(AT_BOUND))
    def test_input_at_bound_accepted(self, case):
        parse_metric_config(json.dumps(AT_BOUND[case]))

    def test_built_jets_bounded_by_the_largest_budget(self):
        """A run builds its jets to its checks' largest budget, whatever its
        `jet_order`, so the dimension bound alone bounds a jet's size."""
        assert max(ORDER_BUDGET.values()) == 4, (
            "a check of budget 5 needs a bound on the jet size again, "
            "applied at the order a run builds")
        assert math.comb(MAX_DIMENSION + 4, 4) == 495

    def test_empty_u_values_exits_two(self, tmp_path, capsys):
        doc = {**_FLAGSHIP_DOC, "points": {"strategy": "grid",
                                           "u_values": []}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (capsys.readouterr().err
                == "error: points.u_values must not be empty\n")

    # d sets the dimension; an a_vec of another length once overrode it
    # silently, past the dimension bound in the first case
    @pytest.mark.parametrize("d, a_vec", [(2, list(range(12))), (5, [1, 2])])
    def test_two_symmetric_a_vec_length_must_match_d(self, d, a_vec, tmp_path,
                                                     capsys):
        doc = {**_TWO_SYM, "d": d, "params": {"a_vec": a_vec},
               "jet_order": 2, "checks": ["weyl_trace"],
               "points": {"strategy": "grid", "count": 1}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (capsys.readouterr().err
                == f"error: need {d} a_vec values, got {len(a_vec)}\n")

    # the families of the null chart (u, x1..xd, v); two_symmetric's d = 0
    # with an empty a_vec must be refused before a_vec is indexed
    @pytest.mark.parametrize("d", [-1, 0, 1])
    @pytest.mark.parametrize("family, params", [
        ("ppwave", {"H": "x1^2"}), ("brinkmann", {"H": "x1^2"}),
        ("galaev", {"lambda": [], "F": "u"}), ("two_symmetric", {"a_vec": []}),
        ("walker", {"H": "x1^2"})])
    def test_null_chart_needs_two_transverse_coordinates(
            self, family, params, d, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"family": family, "d": d,
                                   "params": params}))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # only the upper triangle of g* was read, so g*_21 = 0 became x1
    def test_walker_gstar_must_be_symmetric(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**_WALKER, "params": {
            "H": "x1^2", "gstar": [["1", "x1"], ["0", "1"]]}}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (capsys.readouterr().err
                == "error: components not symmetric at (2,1)\n")

    def test_custom_coords_must_match_components(self, tmp_path, capsys):
        doc = {"family": "custom",
               "params": {"components": [["1", 0], [0, "1"]],
                          "coords": ["a"]}}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "coordinate names" in err

    def test_rational_coefficient_strings_accepted(self):
        doc = FLAGSHIP.replace('"mode": "exact"',
                               '"mode": "float", "tolerance": "1/1000000",'
                               ' "field_equation_coeffs": ["1/2", 3]')
        _, config = parse_metric_config(doc)
        assert config.field_coeffs == (F(1, 2), F(3))
        assert config.tolerance == 1e-6


class TestOrderBudgets:
    """A run is built to the largest budget among its checks, so each
    check's budget must cover every stage it may read."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("metric", [
        {"family": "galaev", "d": 3,
         "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"}},
        {"family": "perturbed_minkowski", "n": 4, "params": {"seed": 7}},
    ], ids=["galaev_d3", "perturbed_minkowski_n4"])
    def test_every_check_runs_at_its_budget(self, metric, mode):
        for order in sorted(set(ORDER_BUDGET.values())):
            names = sorted(n for n, k in ORDER_BUDGET.items() if k == order)
            spec, config = parse_metric_config(json.dumps(dict(
                metric, mode=mode, jet_order=order, checks=names,
                points={"strategy": "random", "count": 1, "seed": 3})))
            rows = run(spec, config).rows
            assert [r.name for r in rows] == names
            assert not [r.notes for r in rows
                        if "OrderBudgetError" in r.notes], order

    def test_olszak_off_the_null_chart_needs_nabla_weyl(self, tmp_path,
                                                         capsys):
        # without a null u, olszak's covector is the Weyl recurrence
        # covector, read from nabla C
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "family": "perturbed_minkowski", "n": 4, "params": {"seed": 7},
            "mode": "exact", "jet_order": 2,
            "points": {"strategy": "random", "count": 1, "seed": 3},
            "checks": ["olszak"]}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: jet order 3 required; insufficient for: olszak "
            "(needs K>=3)\n")


class TestCheckIsolation:
    def test_raising_check_becomes_error_row(self, tmp_path):
        doc = {"family": "custom",
               "params": {"coords": ["x0", "x1", "x2"],
                          "components": {"0,0": "1 + x1^2", "1,1": "1",
                                         "2,2": "1 + x0*x2"}},
               "mode": "exact", "points": {"count": 1},
               "checks": ["weyl_trace", "bianchi"]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rows = {r["check"]: r for r in json.loads(out.read_text())["rows"]}
        assert rows["bianchi"]["status"] == "pass"
        assert rows["weyl_trace"]["status"] == "error"
        notes = rows["weyl_trace"]["notes"]
        assert "'weyl_trace'" in notes
        assert "UnsupportedDimensionError" in notes
        assert "dimension >= 4" in notes
        assert "in _weyl_part" in notes     # the frame that raised


class TestOverflowingFloatPoints:
    """Float runs at a huge u, where the curvature values overflow."""

    @staticmethod
    def _run(doc):
        spec, config = parse_metric_config(json.dumps(doc))
        return run(spec, config)

    def test_conformal_invariance_at_huge_u(self):
        # exp(2s) overflows at s = u/5; the factor exp(2(s - s(p))) is a
        # constant multiple of it and stays finite
        rep = self._run({"family": "galaev", "d": 3,
                         "params": {"lambda": [1, 1, -2], "F": "u"},
                         "mode": "float", "jet_order": 2,
                         "points": {"count": 1, "u_values": ["1e200"]},
                         "checks": ["conformal_invariance"]})
        row, = rep.rows
        assert row.status == "pass" and row.residual == 0.0
        assert row.notes == "conformal factor: exp(2s) with s = 1/5*u"

    def test_nan_residuals_are_strict_json_and_the_headline(self):
        rep = self._run({"family": "galaev", "d": 2,
                         "params": {"lambda": [1, -1], "F": "u"},
                         "mode": "float", "jet_order": 4,
                         "points": {"count": 1, "u_values": ["1e308"]}})

        def refuse(constant):
            raise ValueError(f"bare {constant} in the report")

        doc = json.loads(report_to_json(rep), parse_constant=refuse)
        nan_rows = [r for r in doc["rows"]
                    if "nan" in r.get("residuals", {}).values()]
        assert len(nan_rows) >= 10
        for r in nan_rows:
            assert r["status"] == "fail" and r["residual"] == "nan", r
        assert any(line.split()[2] == "nan"
                   for line in report_to_text(rep).splitlines()[3:]
                   if line.strip())

    def test_expected_psi_past_the_float_range_fails(self):
        # psi of the potential is a Fraction past the double range here; it
        # reads as +-inf, so its rows fail on a non-finite residual
        rep = self._run({"family": "galaev", "d": 2,
                         "params": {"lambda": [1, -1], "F": "u"},
                         "mode": "float", "jet_order": 4,
                         "points": {"count": 1, "u_values": ["1e308"]}})
        rows = {r.name: r for r in rep.rows}
        for name in ("pure_radiation", "field_equations"):
            row = rows[name]
            assert row.status == "fail", (name, row.notes)
            assert not math.isfinite(row.residual), name
        assert not any("OverflowError" in (r.notes or "") for r in rep.rows)

    def test_rank_one_minors_of_a_huge_ricci(self):
        # Ricci is about 1e160 here: its 2x2 minors overflow unless scaled
        rep = self._run({"family": "ppwave", "d": 2,
                         "params": {"H": "u^2*x1^2 + x2^2"},
                         "mode": "float", "jet_order": 2,
                         "points": {"count": 1, "u_values": ["1e80"]},
                         "checks": ["eqs_2_3_2_4"]})
        row, = rep.rows
        assert row.status != "error", row.notes
        assert "rank_one" not in row.residuals     # found rank one

    def test_degree_two_products_of_a_huge_curvature(self):
        # Ricci and Riemann are about 1e160 here: the cyclic residuals, the
        # chi quartic and the Riemann square are of degree 2 in them
        doc = {"family": "ppwave", "d": 2, "params": {"H": "u^2*x1^2 + x2^2"},
               "jet_order": 4, "points": {"count": 1, "u_values": ["1e80"]},
               "checks": ["eqs_2_3_2_4", "schimming", "pure_radiation"]}
        exact, flt = (self._run(dict(doc, mode=m)).rows
                      for m in ("exact", "float"))
        assert [(r.name, r.status) for r in flt] == \
            [(r.name, r.status) for r in exact] == \
            [("eqs_2_3_2_4", "pass"), ("pure_radiation", "pass"),
             ("schimming", "pass")]
        # witnesses of the curvature, not of it scaled
        e, f = ({r.name: r.witnesses for r in rows} for rows in (exact, flt))
        assert f["eqs_2_3_2_4"]["d_direction"] == pytest.approx(
            [float(x) for x in e["eqs_2_3_2_4"]["d_direction"]], rel=1e-12)
        assert sum(f["schimming"]["D"], []) == pytest.approx(
            [float(x) for x in sum(e["schimming"]["D"], [])], rel=1e-12)
        assert e["schimming"]["chi"] > 2 ** 1024    # past the float range
        assert f["schimming"]["chi"] == math.inf

    def test_nan_reference_makes_a_nan_residual(self):
        # psi = -2u is past the float range here, so Ricci is -inf and C is
        # NaN; a residual relative to C reads NaN even where its numerator
        # vanishes
        rep = self._run({"family": "galaev", "d": 2,
                         "params": {"lambda": [1, -1], "F": "u"},
                         "mode": "float", "jet_order": 4,
                         "points": {"count": 1, "u_values": ["1e308"]}})
        rows = {r.name: r for r in rep.rows}
        assert math.isnan(rows["weyl_trace"].residuals["trace_23"])
        lap = rows["laplacians"]
        assert lap.status == "fail" and math.isnan(lap.residuals["lap_weyl"])
        # H = u (x1^2 + x2^2) is conformally flat: nabla C is exactly zero,
        # in float mode too, so this row's div C = 0 is a true finding
        row = rows["pure_radiation"]
        assert row.witnesses["div_weyl_residual"] == 0.0
        assert row.notes == "grad psi parallel to X and div C = 0"

    @pytest.mark.parametrize("u", ["1e-320", "1e-310"])
    def test_subnormal_curvature_raises_in_no_check(self, u):
        # sup|Riem| is about u, a subnormal double: the float scale of the
        # cyclic residuals stays finite, and schimming agrees with exact
        doc = {"family": "galaev", "d": 2,
               "params": {"lambda": [1, -1], "F": "u"}, "jet_order": 4,
               "points": {"count": 1, "u_values": [u]}}
        exact, flt = ({r.name: r for r in self._run(dict(doc, mode=m)).rows}
                      for m in ("exact", "float"))
        assert not [r.notes for r in flt.values() if " raised " in r.notes]
        assert flt["schimming"].status == exact["schimming"].status == "pass"

    @pytest.mark.parametrize("metric, u", [
        ({"family": "galaev", "d": 3,
          "params": {"lambda": [1, 1, -2], "a": "u", "F": "u^3"}}, "1e120"),
        ({"family": "ppwave", "d": 2,
          "params": {"H": "u^5*x1^2 - x2^2*u^3 + x1*x2"}}, "1e62"),
    ], ids=["galaev_1e120", "ppwave_1e62"])
    def test_overflowing_metric_exits_two(self, metric, u, tmp_path, capsys):
        # a power of u past the double range overflows the metric's jets
        doc = dict(metric, mode="float", jet_order=4,
                   points={"strategy": "grid", "count": 1, "u_values": [u]})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: float overflow in the metric at ")
        assert err.count("\n") == 1
        spec, config = parse_metric_config(json.dumps(
            dict(doc, mode="exact", checks=["bianchi"])))
        assert all_clear(run(spec, config))     # exact mode has no range
