"""Fuzzed input: every polynomial string and configuration document either
parses or is refused with the parser's own error, never a traceback.

Documents that parse must be within the dimension bound MAX_DIMENSION.
Documents that are refused, and those that parse to jets of more than
MAX_JET_SIZE coefficients, also go through `ppcheck run`, which must exit
2 with one `error:` line.  A bounded subset of documents (n <= 4, jet
order <= 4, one sample point, either mode) is run through `ppcheck run`
whether it parses or not: each must end in a report or in that exit 2.
So must a float galaev or pp-wave point at a huge |u| (1e20 to 1e300),
where powers of u up to 8 leave the double range; a row that passes there
has finite residuals.  The examples are derandomized, so every run of the
suite tries the same ones.

The run records themselves are fuzzed too, with fields mostly in range and
sometimes out of range or of another type: each record is built or refused
with ConfigError, and a record that is built runs a small pp-wave to a
report or to the package's ConfigError or RunError.
"""
import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppcheck.checks import CHECKS
from ppcheck.cli import RunError, main, run
from ppcheck.metrics import (FAMILIES, MAX_DIMENSION, MAX_JET_SIZE,
                             ConfigError, PointPlan, RunConfig, build_ppwave,
                             parse_metric_config)
from ppcheck.polynomials import PolynomialError, parse_polynomial
from ppcheck.report import Report

CHART = ("u", "x1", "x2", "x3", "v")
NAMES = ("u", "v", "x0", "x1", "x2", "x3", "x7", "y")
RATIONALS = ("0", "1", "2", "9", "32", "33", "3/4", "-1/7", "1.5", "1e308",
             "1e999", "2^32")
OPERATORS = ("+", "-", "*", "^", "/")
JUNK = tuple("~!@#$%&[]{};:,.<>?|`'\"\\ \t\n\x00é_=") + (
    "**", "//", "lambda", "if", "not", "1j", "True", "abs(", "x.y")

RUN_EXAMPLES = 200
RECORD_EXAMPLES = 300
LARGE_U_EXAMPLES = 120
atoms = st.sampled_from(NAMES + RATIONALS)


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(OPERATORS), children).map(
            "".join),
        children.map(lambda c: f"({c})"),
        children.map(lambda c: f"-{c}"),
        st.tuples(children, st.sampled_from(("2", "8", "12", "32", "33")))
        .map(lambda t: f"({t[0]})^{t[1]}"),
    )


expressions = st.recursive(atoms, _grow, max_leaves=12)


def _insert(text, cuts):
    for at, junk in cuts:
        at %= len(text) + 1
        text = text[:at] + junk + text[at:]
    return text


polynomial_texts = st.one_of(
    expressions,
    st.tuples(expressions,
              st.lists(st.tuples(st.integers(0, 60), st.sampled_from(JUNK)),
                       min_size=1, max_size=3)).map(lambda t: _insert(*t)),
    st.lists(st.sampled_from(NAMES + RATIONALS + OPERATORS + ("(", ")")
                             + JUNK), max_size=12).map(" ".join),
    st.text(max_size=20),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(polynomial_texts)
def test_polynomial_parses_or_raises_polynomial_error(text):
    try:
        parse_polynomial(text, CHART)
    except PolynomialError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | polynomial_texts,
    lambda c: st.lists(c, max_size=4)
    | st.dictionaries(st.text(max_size=4), c, max_size=3),
    max_leaves=8)


def _or_any(strategy):
    """Mostly `strategy`, sometimes any JSON value."""
    return st.integers(0, 4).flatmap(
        lambda k: json_values if k == 4 else strategy)


rationals = st.one_of(st.integers(-3, 3), st.sampled_from(RATIONALS),
                      st.floats(), st.sampled_from(("1e1000", "1/0", "x")))
polynomials = st.one_of(expressions, rationals, polynomial_texts)
lambdas = st.one_of(
    st.lists(st.integers(-3, 3), max_size=6).map(lambda l: l + [-sum(l)]),
    st.lists(rationals, max_size=7))
components = st.one_of(
    st.dictionaries(
        st.tuples(st.integers(-1, 9), st.integers(-1, 9))
        .map(lambda ij: f"{ij[0]},{ij[1]}") | st.text(max_size=4),
        polynomials, max_size=5),
    st.lists(st.lists(polynomials, max_size=5), max_size=5))
matrices = st.lists(st.lists(polynomials, max_size=4), max_size=4)
# each family's own parameters: the ones it needs, then the ones it may take
FAMILY_PARAMS = {
    "ppwave": ({"H": polynomials}, {}),
    "brinkmann": ({"H": polynomials}, {}),
    "walker": ({"H": polynomials},
               {"a_rho": st.lists(polynomials, max_size=4),
                "gstar": matrices}),
    "galaev": ({"lambda": lambdas}, {"a": polynomials, "F": polynomials}),
    # a_vec lengths up to 14 whatever d is; sorted nonnegative ones pass the
    # family's ordering check, so that their length decides
    "two_symmetric": ({"a_vec": st.one_of(
                           st.lists(st.integers(0, 3), max_size=14).map(
                               sorted),
                           st.lists(rationals, max_size=14))},
                      {"b_mat": st.lists(st.lists(rationals, max_size=4),
                                         max_size=4)}),
    "custom": ({"components": components},
               {"coords": st.lists(st.sampled_from(NAMES), max_size=9)}),
    "perturbed_minkowski": ({}, {"seed": st.integers(),
                                 "degree": st.integers(-2, 12)}),
}
assert set(FAMILY_PARAMS) == set(FAMILIES)
points = st.fixed_dictionaries({}, optional={
    "strategy": _or_any(st.sampled_from(("grid", "random"))),
    "seed": _or_any(st.integers()),
    "count": _or_any(st.integers(-1, 30)),
    "u_values": _or_any(st.lists(rationals, max_size=6)),
})


def _document(family):
    needed, optional = FAMILY_PARAMS[family]
    return st.fixed_dictionaries({
        "family": _or_any(st.just(family)),
        "params": _or_any(st.fixed_dictionaries(
            {k: _or_any(v) for k, v in needed.items()},
            optional={k: _or_any(v) for k, v in optional.items()})),
        "d": _or_any(st.integers(2, 7)),
    }, optional={
        "n": _or_any(st.integers(-3, 10)),
        "mode": _or_any(st.sampled_from(("exact", "float"))),
        "jet_order": _or_any(st.integers(0, 8)),
        "points": _or_any(points),
        "tolerance": _or_any(rationals),
        "checks": _or_any(st.lists(st.sampled_from(sorted(CHECKS)),
                                   max_size=3)),
        "field_equation_coeffs": _or_any(st.lists(rationals, max_size=4)),
    })


documents = st.sampled_from(FAMILIES).flatmap(_document)
config_texts = st.one_of(documents.map(json.dumps), documents.map(json.dumps),
                         documents.map(json.dumps), json_values.map(json.dumps),
                         st.text(max_size=30))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=config_texts)
# an a_vec longer than d (n = 9): the derandomized examples never draw one
@example(text=json.dumps({"family": "two_symmetric",
                          "params": {"a_vec": [0, 0, 0, 0, 0, 0, 0]}, "d": 2}))
def test_config_parses_or_run_exits_two(tmp_path_factory, text):
    try:
        spec, config = parse_metric_config(text)
    except ConfigError:
        pass
    else:
        assert spec.n <= MAX_DIMENSION
        if math.comb(spec.n + config.jet_order,
                     config.jet_order) <= MAX_JET_SIZE:
            return
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(path)]) == 2
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1


def _chart_polynomials(names):
    return st.recursive(st.sampled_from(names + RATIONALS), _grow,
                        max_leaves=6)


wave_polynomials = _chart_polynomials(("u", "x1", "x2", "v"))
small_rationals = st.sampled_from(("0", "1", "-2", "3/4", "-1/7", "1e308"))
# parameters that mostly parse at d = 2 (n = 4); custom charts are x0..x3
SMALL_PARAMS = {
    "ppwave": ({"H": wave_polynomials}, {}),
    "brinkmann": ({"H": wave_polynomials}, {}),
    "walker": ({"H": wave_polynomials},
               {"a_rho": st.lists(wave_polynomials, min_size=2, max_size=2),
                "gstar": st.lists(st.lists(wave_polynomials, min_size=2,
                                           max_size=2), min_size=2,
                                  max_size=2)}),
    "galaev": ({"lambda": st.integers(-3, 3).map(lambda k: [k, -k])},
               {"a": wave_polynomials, "F": wave_polynomials}),
    "two_symmetric": ({"a_vec": st.lists(st.integers(0, 3), min_size=2,
                                         max_size=2).map(sorted)},
                      {"b_mat": st.tuples(small_rationals, small_rationals,
                                          small_rationals).map(
                          lambda t: [[t[0], t[1]], [t[1], t[2]]])}),
    "custom": ({"components": st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
            lambda ij: f"{ij[0]},{ij[1]}"),
        _chart_polynomials(("x0", "x1", "x2", "x3")),
        min_size=1, max_size=6)}, {}),
    "perturbed_minkowski": ({"seed": st.integers(),
                             "degree": st.integers(1, 2)}, {}),
}
assert set(SMALL_PARAMS) == set(FAMILIES)


def _small(family):
    """Documents that stay small if they parse: n <= 4, jet order <= 4,
    one sample point, up to three checks."""
    needed, optional = SMALL_PARAMS[family]
    return st.fixed_dictionaries({
        "family": st.just(family),
        "params": st.fixed_dictionaries(needed, optional=optional),
        "d": st.just(2),
        "n": st.integers(3, 4),
        "mode": st.sampled_from(("exact", "float")),
        "jet_order": st.sampled_from((4, 3, 2)),
        "points": st.fixed_dictionaries({"count": st.just(1)}, optional={
            "strategy": st.sampled_from(("grid", "random")),
            "seed": st.integers(),
            "u_values": st.lists(small_rationals, min_size=1,
                                 max_size=2)}),
        "checks": st.lists(st.sampled_from(sorted(CHECKS)), min_size=1,
                           max_size=3, unique=True),
    }, optional={"tolerance": st.sampled_from(("1e-9", "1/2", 0.001)),
                 "field_equation_coeffs": st.lists(
                     small_rationals, min_size=1, max_size=2)})


@settings(max_examples=RUN_EXAMPLES, deadline=None, derandomize=True)
@given(doc=st.sampled_from(FAMILIES).flatmap(_small))
def test_small_config_runs_to_report_or_exits_two(tmp_path_factory, doc):
    text = json.dumps(doc)
    try:
        spec, config = parse_metric_config(text)
    except ConfigError:
        pass
    else:
        assert spec.n <= 4 and config.jet_order <= 4
    path = tmp_path_factory.getbasetemp() / "fuzz-run.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(["run", "--config", str(path)])
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1) and not err.getvalue()
        assert json.loads(out.getvalue())["rows"]


huge_u = st.tuples(st.sampled_from(("", "-")), st.integers(20, 300)).map(
    lambda t: f"{t[0]}1e{t[1]}")
u_polynomials = st.lists(
    st.tuples(st.sampled_from(("1", "-2", "3/4")), st.integers(0, 8)),
    min_size=1, max_size=2).map(
        lambda terms: " + ".join(f"{c}*u^{k}" for c, k in terms))
LARGE_U_PARAMS = {
    "galaev": st.fixed_dictionaries({
        "lambda": st.sampled_from(([1, -1], [1, 1, -2])),
        "a": u_polynomials, "F": u_polynomials}),
    "ppwave": st.tuples(u_polynomials, u_polynomials).map(
        lambda t: {"H": f"({t[0]})*x1^2 - ({t[1]})*x2^2 + x1*x2"}),
}


def _large_u(family):
    return st.tuples(LARGE_U_PARAMS[family], huge_u).map(lambda t: {
        "family": family, "d": len(t[0].get("lambda", (0, 0))),
        "params": t[0], "mode": "float", "jet_order": 4,
        "points": {"strategy": "grid", "count": 1, "u_values": [t[1]]}})


def _refuse(constant):
    raise ValueError(f"bare {constant} in the report")


@settings(max_examples=LARGE_U_EXAMPLES, deadline=None, derandomize=True)
@given(doc=st.sampled_from(sorted(LARGE_U_PARAMS)).flatmap(_large_u))
def test_large_u_float_point_reports_or_exits_two(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-large-u.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(["run", "--config", str(path)])
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        return
    assert code in (0, 1) and not err.getvalue()
    rows = json.loads(out.getvalue(), parse_constant=_refuse)["rows"]
    assert rows
    for row in rows:
        if row["status"] == "pass":
            for r in (row["residual"], *row.get("residuals", {}).values()):
                assert isinstance(r, float) and math.isfinite(r), row


def _or_bad(good, bad):
    """Mostly a value in range, sometimes one that is out of range or of
    another type."""
    return st.integers(0, 9).flatmap(
        lambda k: st.sampled_from(bad) if k == 0 else good)


# Fields whose in-range values keep a run small: three points at most, one
# check, jet order 2.  Of the checks a record takes, an unknown name, one
# whose budget is above 2, and None (every check) are refused by run().
plan_fields = st.builds(
    dict,
    strategy=_or_bad(st.sampled_from(("grid", "random")),
                     ("spiral", "", None, 3, ["grid"])),
    seed=_or_bad(st.integers(-5, 5) | st.just("7"),
                 ("x", 1.5, None, True, [1], "1" * 5000)),
    count=_or_bad(st.sampled_from((1, 3, "2")),
                  (0, -1, 26, "x", 1.5, True, None)),
    u_values=_or_bad(st.lists(st.sampled_from(
        ("1/2", "-3", 1.5, Fraction(2, 3), 0)), min_size=1, max_size=3),
        ((), ("abc",), ("1e9999",), ("1/0",), "12", 5, None, (True,),
         (float("nan"),), (float("inf"),), ([1],))))
config_fields = st.builds(
    dict,
    mode=_or_bad(st.sampled_from(("exact", "float")),
                 ("bogus", "EXACT", 1, ["exact"])),
    jet_order=_or_bad(st.just(2), (0, 1, 7, 99, -1, "2", 2.0, True, None)),
    tolerance=_or_bad(st.sampled_from((1e-9, 0, 1, "1/2", Fraction(1, 3))),
                      (-1, 2, "nan", "inf", float("nan"), "1e99999", None,
                       True, "x", [0])),
    checks=_or_bad(st.sampled_from((
        ("weyl_trace",), ("brinkmann",), ("schimming",),
        ("conformal_invariance",), ("eqs_2_3_2_4",), ["weyl_trace"],
        ("bogus",), ("olszak",), None)),
        ((), "weyl_trace", ("weyl_trace", "weyl_trace"), (3,),
         [["weyl_trace"]])),
    field_coeffs=_or_bad(st.lists(st.sampled_from((1, "1/2", -2.5)),
                                  min_size=1, max_size=2),
                         ((), (1, 1, 1), ("a",), 5, None, (float("nan"),),
                          ("1e9999",), (True,))))
SMALL_WAVE = build_ppwave("u*x1^2 - x2^2 + x1*x2", 2)


@settings(max_examples=RECORD_EXAMPLES, deadline=None, derandomize=True)
@given(plan=plan_fields, fields=config_fields)
def test_record_is_refused_or_runs_to_report(plan, fields):
    try:
        config = RunConfig(points=PointPlan(**plan), **fields)
    except ConfigError:
        return
    assert isinstance(config, RunConfig)
    try:
        report = run(SMALL_WAVE, config)
    except (ConfigError, RunError):
        return
    assert isinstance(report, Report) and report.rows
