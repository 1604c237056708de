"""Front end: run orchestration, theorem bundles, report serialization."""
import json
import os
from fractions import Fraction as F

import pytest

from ppcheck import (RunConfig, all_clear, build_report, emit_report,
                     parse_metric_config, report_to_json, report_to_text)
from ppcheck.checks import CheckResult
from ppcheck.cli import (RunError, list_families, main, run, theorem_suite)
from ppcheck.metrics import ConfigError, PointPlan
from ppcheck.report import encode_value

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
    return run(spec, config, threads=1)


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

    def test_parallel_serial_identical(self):
        spec, config = parse_metric_config(FLAGSHIP)
        a = report_to_json(run(spec, config, threads=1))
        b = report_to_json(run(spec, config, threads=4))
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

    def test_unknown_name_rejected(self):
        spec, config = parse_metric_config(FLAGSHIP)
        with pytest.raises(ConfigError, match="unknown theorem"):
            theorem_suite("thm_9_9", spec, config)


# Small exact runs whose reports are pinned byte for byte in tests/data.
# Between them they reach every jet operation: seeding from polynomials,
# sums, differences, negation, scalar and jet products, reciprocals,
# truncation and derivatives, on sparse (galaev) and dense (perturbed) jets.
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
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_exact_report_byte_identical(name):
    spec, config = parse_metric_config(json.dumps(PINNED_REPORTS[name]))
    with open(os.path.join(HERE, "data", name), encoding="utf-8") as fh:
        assert report_to_json(run(spec, config)) == fh.read()


class TestSerialization:
    def test_fraction_encoding(self):
        assert encode_value(F(1)) == "1/1"
        assert encode_value(F(-3, 7)) == "-3/7"
        assert encode_value([F(1, 2), 0.5, None]) == ["1/2", 0.5, None]

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


class TestMainEntry:
    def write(self, tmp_path, text):
        p = tmp_path / "config.json"
        p.write_text(text)
        return str(p)

    def test_run_exit_zero_and_output(self, tmp_path, capsys):
        cfg = self.write(tmp_path, FLAGSHIP)
        out = str(tmp_path / "report.json")
        assert main(["run", "--config", cfg, "--out", out,
                     "--threads", "2"]) == 0
        doc = json.loads(open(out).read())
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

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self.write(tmp_path, FLAGSHIP.replace("[1, 1, -2]", "[1, 1, 1]"))
        assert main(["run", "--config", cfg]) == 2
        assert "lambda sum" in capsys.readouterr().err

    def test_theorems_subcommand(self, tmp_path, capsys):
        cfg = self.write(tmp_path, FLAGSHIP)
        assert main(["theorems", "--name", "thm_3_8", "--config", cfg,
                     "--format", "text"]) == 0
        assert "verdict: pass" in capsys.readouterr().out

    def test_families_subcommand(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        for fam in ("ppwave", "galaev", "two_symmetric", "walker", "custom"):
            assert fam in out

    def test_list_families_helper(self):
        assert "galaev" in list_families()
