"""Fuzzed input: every polynomial string and configuration document either
parses or is refused with the parser's own error, never a traceback.

Documents that parse are never run, but must be within the size bounds:
dimension at most MAX_DIMENSION and jet size at most MAX_JET_SIZE.
Documents that are refused also go through `ppcheck run`, which must exit
2 with one `error:` line.  The examples are derandomized, so every run of
the suite tries the same ones.
"""
import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ppcheck.checks import CHECKS
from ppcheck.cli import main
from ppcheck.metrics import (FAMILIES, MAX_DIMENSION, MAX_JET_SIZE,
                             ConfigError, parse_metric_config)
from ppcheck.polynomials import PolynomialError, parse_polynomial

CHART = ("u", "x1", "x2", "x3", "v")
NAMES = ("u", "v", "x0", "x1", "x2", "x3", "x7", "y")
RATIONALS = ("0", "1", "2", "9", "32", "33", "3/4", "-1/7", "1.5", "1e308",
             "1e999", "2^32")
OPERATORS = ("+", "-", "*", "^", "/")
JUNK = tuple("~!@#$%&[]{};:,.<>?|`'\"\\ \t\n\x00é_=") + (
    "**", "//", "lambda", "if", "not", "1j", "True", "abs(", "x.y")

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
def test_config_parses_or_run_exits_two(tmp_path_factory, text):
    try:
        spec, config = parse_metric_config(text)
    except ConfigError:
        pass
    else:
        assert spec.n <= MAX_DIMENSION
        assert math.comb(spec.n + config.jet_order,
                         config.jet_order) <= MAX_JET_SIZE
        return
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(path)]) == 2
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1
