"""Exact and float mode give every check the same verdict.

Float mode sums the terms that exact mode sums on integer numerators, in
the same order, and passes a check on a relative residual below the
tolerance where exact mode asks for a residual of zero.  So at a moderate
u, away from the range of doubles, each float status must equal the exact
one.  The metrics are drawn from the paper's pp-wave families (galaev,
ppwave and two_symmetric) by hypothesis, derandomized, so every run of
the suite tries the same ones.  Schimming's D and chi, read off the
curvature, agree between the modes too.  The generic control
(perturbed_minkowski, n = 4) is drawn as well: there Ricci and its
derivatives are dense, where a pp-wave's are psi du du.
"""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ppcheck.cli import run
from ppcheck.metrics import parse_metric_config

EXAMPLES = 60
COEFFS = ("1", "-1", "2", "-3", "1/2", "-2/3")


def _sum(terms):
    return " + ".join(_product(f"({c})", m) for c, m in terms)


def _product(*factors):
    return "*".join(f for f in factors if f != "1") or "1"


def _power(name, k):
    return "1" if k == 0 else name if k == 1 else f"{name}^{k}"


# a(u), F(u): at most two terms of degree at most 3 in u
u_polynomials = st.lists(
    st.tuples(st.sampled_from(COEFFS), st.integers(0, 3).map(
        lambda k: _power("u", k))), min_size=1, max_size=2).map(_sum)


def _galaev(d):
    return st.tuples(
        st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1),
        u_polynomials, u_polynomials).map(lambda t: {
            "family": "galaev", "d": d,
            "params": {"lambda": t[0] + [-sum(t[0])], "a": t[1], "F": t[2]}})


def _ppwave(d):
    xs = [f"x{i + 1}" for i in range(d)]
    monomial = st.tuples(st.integers(0, 2), st.sampled_from(xs),
                         st.sampled_from(xs), st.integers(0, 2)).map(
        lambda t: _product(_power("u", t[0]), t[1], _power(t[2], t[3])))
    return st.lists(st.tuples(st.sampled_from(COEFFS), monomial),
                    min_size=1, max_size=3).map(lambda terms: {
                        "family": "ppwave", "d": d, "params": {"H": _sum(terms)}})


def _two_symmetric(d):
    return st.lists(st.integers(0, 3), min_size=d, max_size=d).map(
        lambda a: {"family": "two_symmetric", "d": d,
                   "params": {"a_vec": sorted(a)}})


metrics = st.tuples(st.sampled_from((_galaev, _ppwave, _two_symmetric)),
                    st.sampled_from((2, 3))).flatmap(lambda t: t[0](t[1]))


def _rows(doc, mode, u=None, strategy="grid"):
    points = {"strategy": strategy, "count": 1}
    if u is not None:
        points["u_values"] = [u]
    spec, config = parse_metric_config(json.dumps({
        **doc, "mode": mode, "jet_order": 4, "points": points}))
    return run(spec, config).rows


def _assert_close(got, want):
    """Float witnesses within 1e-9 of the largest exact entry."""
    tol = 1e-9 * max(map(abs, want))
    assert all(abs(g - w) <= tol for g, w in zip(got, want)), (got, want)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(doc=metrics, u=st.sampled_from(("1/2", "3/2", "2", "-5/3")))
def test_float_verdicts_equal_exact_verdicts(doc, u):
    """Equal statuses, and Schimming's D and chi witnesses agree."""
    exact, floats = _rows(doc, "exact", u), _rows(doc, "float", u)
    assert len(exact) == 19
    assert [(r.name, r.status) for r in floats] == [
        (r.name, r.status) for r in exact]
    e, f = (next(r for r in rows if r.name == "schimming")
            for rows in (exact, floats))
    _assert_close(sum(f.witnesses["D"], []), sum(e.witnesses["D"], []))
    _assert_close([f.witnesses["chi"]], [e.witnesses["chi"]])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(1, 12), degree=st.sampled_from((1, 2)),
       strategy=st.sampled_from(("grid", "random")))
def test_generic_control_verdicts_equal_exact_verdicts(seed, degree,
                                                       strategy):
    doc = {"family": "perturbed_minkowski", "n": 4,
           "params": {"seed": seed, "degree": degree}}
    exact = _rows(doc, "exact", strategy=strategy)
    floats = _rows(doc, "float", strategy=strategy)
    assert len(exact) == 19
    assert [(r.name, r.status) for r in floats] == [
        (r.name, r.status) for r in exact]
