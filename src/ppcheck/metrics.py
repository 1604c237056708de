"""Metric families and run configuration.

All built-in families live in null coordinates (u, x1..xd, v):

  ds^2 = 2 du dv + H du^2 + ...

with polynomial data, so exact-rational jets cover every construction.
A conformal rescaling is not a construction here: it multiplies a point's
metric jets by a factor jet (geometry.rescaled), so a MetricSpec is only
ever its polynomial components.
"""
from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from typing import NamedTuple

from .jets import _monomials_of_degree
from .polynomials import (MAX_TERMS, Polynomial, PolynomialError,
                          parse_polynomial)

# Each family's params keys, with what each holds, and the fields that size
# it: `ppcheck families` prints this table, and a config's params may hold
# no other key.
_PPWAVE_PARAMS = {"H": "polynomial in (u, x1..xd)"}
FAMILY_SCHEMAS = {
    "ppwave": (_PPWAVE_PARAMS, "d: transverse dimension"),
    "brinkmann": (_PPWAVE_PARAMS, "d; another name for ppwave"),
    "walker": ({"H": "polynomial in (u, x1..xd, v)",
                "a_rho": "[d polynomials]",
                "gstar": "[[d x d symmetric polynomials]]"},
               "d"),
    "galaev": ({"lambda": "[d rationals, sum 0]", "a": "polynomial in u",
                "F": "polynomial in u"}, "d"),
    "two_symmetric": ({"a_vec": "[d rationals, 0 <= a_1 <= ... <= a_d]",
                       "b_mat": "[[d x d symmetric rationals]]"}, "d"),
    "custom": ({"components": '{"i,j": polynomial} or [[polynomials]]',
                "coords": "[names]"}, "n from the components"),
    "perturbed_minkowski": ({"seed": "integer", "degree": "integer"},
                            "n (default 4)"),
}
FAMILIES = tuple(FAMILY_SCHEMAS)


class FamilyError(ValueError):
    """Violated family invariant (e.g. lambda sum nonzero, H depends on v)."""


class ConfigError(ValueError):
    """Malformed run configuration document."""


def null_chart(d: int):
    """The chart (u, x1..xd, v) of every built-in family but custom ones;
    FamilyError for d < 2."""
    if d < 2:
        raise FamilyError(f"a null chart needs d >= 2 transverse coordinates, "
                          f"got {d}")
    return ("u",) + tuple(f"x{i}" for i in range(1, d + 1)) + ("v",)


def has_null_chart(spec) -> bool:
    """Whether spec's chart starts with u, as a null chart does: X = du."""
    return bool(spec.coords) and spec.coords[0] == "u"


def _validated_make(cls, iterable):
    """A record's `_make`: NamedTuple's own skips the validating `__new__`."""
    return cls(*iterable)


class _MetricFields(NamedTuple):
    family: str
    n: int
    coords: tuple
    components: tuple            # n x n tuple-of-tuples of Polynomial
    potential: Polynomial | None = None        # pp-wave H, when applicable
    expected_psi: Polynomial | None = None     # recorded family prediction
    warnings: tuple = ()


class MetricSpec(_MetricFields):
    """A symmetric matrix of polynomial components over a coordinate chart.

    An immutable tuple, validated on construction; `_replace` copies with
    changes and validates the copy too.
    """
    __slots__ = ()

    def __new__(cls, family, n, coords, components, potential=None,
                expected_psi=None, warnings=()):
        if family not in FAMILIES:
            raise FamilyError(f"unknown family {family!r}")
        if len(components) != n or any(len(r) != n for r in components):
            raise FamilyError("component matrix shape does not match dimension")
        _check_dimension(n)
        _check_coords(coords, n)
        for i in range(n):
            for j in range(i):
                if components[i][j] != components[j][i]:
                    raise FamilyError(f"components not symmetric at ({i},{j})")
        return super().__new__(cls, family, n, coords, components,
                               potential, expected_psi, warnings)

    _make = classmethod(_validated_make)


def _check_dimension(n: int):
    """FamilyError unless 1 <= n <= MAX_DIMENSION."""
    if not 1 <= n <= MAX_DIMENSION:
        raise FamilyError(f"dimension n = {n}; 1 to {MAX_DIMENSION} are "
                          "supported")


def _check_coords(coords, n: int):
    """FamilyError unless coords holds n distinct non-empty strings."""
    if not (isinstance(coords, (tuple, list)) and len(coords) == n
            and all(isinstance(c, str) and c for c in coords)
            and len(set(coords)) == n):
        raise FamilyError(f"metric needs {n} distinct coordinate names, "
                          f"got {coords!r}")


def _zero(coords):
    return Polynomial(coords, {})


def _as_chart_poly(p, coords):
    if isinstance(p, str):
        return parse_polynomial(p, coords)
    if isinstance(p, Polynomial):
        return p if p.variables == tuple(coords) else p.rename(coords)
    return Polynomial.constant(coords, p)


def _ppwave_components(coords, H):
    n = len(coords)
    comp = [[_zero(coords) for _ in range(n)] for _ in range(n)]
    one = Polynomial.constant(coords, 1)
    comp[0][0] = H
    comp[0][n - 1] = comp[n - 1][0] = one
    for r in range(1, n - 1):
        comp[r][r] = one
    return tuple(tuple(row) for row in comp)


def _transverse_laplacian(H: Polynomial, coords) -> Polynomial:
    acc = _zero(coords)
    for x in coords[1:-1]:
        acc = acc + H.derivative(x).derivative(x)
    return acc


def build_ppwave(H, d: int, family: str = "ppwave") -> MetricSpec:
    """Metric 2dudv + H(x,u)du^2 + sum dx^2 in the chart (u, x1..xd, v)."""
    coords = null_chart(d)
    H = _as_chart_poly(H, coords)
    if H.depends_on("v"):
        raise FamilyError("pp-wave potential H must not depend on v")
    psi = _transverse_laplacian(H, coords) * Fraction(-1, 2)
    return MetricSpec(
        family=family, n=d + 2, coords=coords,
        components=_ppwave_components(coords, H),
        potential=H, expected_psi=psi)


def build_galaev(d: int, lambdas, a, F) -> MetricSpec:
    """Recurrent-Weyl potential H = sum_rho x_rho^2 (a(u) + F(u) lambda_rho^2).

    Requires sum(lambdas) = 0.  The recorded psi is derived from H itself,
    psi = -(d a(u) + F(u) sum lambda^2); it depends on u only, which is the
    property every downstream identity uses.
    """
    coords = null_chart(d)
    lambdas = [Fraction(x) for x in lambdas]
    if len(lambdas) != d:
        raise FamilyError(f"need {d} lambda values, got {len(lambdas)}")
    if sum(lambdas) != 0:
        raise FamilyError("lambda sum must be zero")
    a = _as_chart_poly(a, coords)
    F = _as_chart_poly(F, coords)
    for p, name in ((a, "a"), (F, "F")):
        for x in coords[1:]:
            if p.depends_on(x):
                raise FamilyError(f"{name}(u) must depend on u only")
    H = _zero(coords)
    for rho, lam in enumerate(lambdas, start=1):
        xr = Polynomial.variable(coords, f"x{rho}")
        H = H + xr * xr * (a + F * (lam * lam))
    warnings = ()
    if d == 2:
        warnings = ("galaev with d=2 has identically zero Weyl tensor "
                    "(lambda_1^2 = lambda_2^2 forced); conformal-recurrence "
                    "checks are vacuous",)
    return build_ppwave(H, d, family="galaev")._replace(warnings=warnings)


def build_two_symmetric(a_vec, b_mat) -> MetricSpec:
    """Two-symmetric potential H = sum (u a_mu delta + b_munu) x^mu x^nu."""
    a_vec = [Fraction(x) for x in a_vec]
    d = len(a_vec)
    coords = null_chart(d)
    if any(a_vec[i] > a_vec[i + 1] for i in range(d - 1)) or a_vec[0] < 0:
        raise FamilyError("need 0 <= a_1 <= ... <= a_d")
    b = [[Fraction(x) for x in row] for row in b_mat] if b_mat else \
        [[Fraction(0)] * d for _ in range(d)]
    if len(b) != d or any(len(r) != d for r in b):
        raise FamilyError("b matrix must be d x d")
    for i in range(d):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise FamilyError("b matrix must be symmetric")
    u = Polynomial.variable(coords, "u")
    H = _zero(coords)
    for mu in range(d):
        for nu in range(d):
            xm = Polynomial.variable(coords, f"x{mu + 1}")
            xn = Polynomial.variable(coords, f"x{nu + 1}")
            coeff = b[mu][nu] + (u * a_vec[mu] if mu == nu else 0)
            if isinstance(coeff, Polynomial) or coeff:
                H = H + xm * xn * coeff
    # the closed form, an oracle that does not go through H's Laplacian
    psi = -(u * sum(a_vec) + sum(b[m][m] for m in range(d)))
    return build_ppwave(H, d, family="two_symmetric")._replace(
        expected_psi=psi)


def build_walker(H, a_rho, gstar, d: int) -> MetricSpec:
    """General Walker-form metric; H may depend on v, g* and a_rho may not.

    The pp-wave's components with g_{u x_r} = a_rho/2 and, when given, the
    transverse block g*; MetricSpec refuses an a_rho or a g* of the wrong
    shape, and a g* that is not symmetric.
    """
    coords = null_chart(d)
    H = _as_chart_poly(H, coords)
    comp = [list(row) for row in _ppwave_components(coords, H)]
    if gstar is not None:
        zero = _zero(coords)
        comp[1:-1] = ([zero, *(_as_chart_poly(p, coords) for p in row), zero]
                      for row in gstar)
    gs = [row[1:-1] for row in comp[1:-1]]
    if not all(any(p.terms for p in row) for row in gs):
        raise FamilyError("g* has a zero row; transverse block degenerate")
    half = [_as_chart_poly(p, coords) * Fraction(1, 2)
            for p in a_rho or [0] * d]
    for name, polys in (("a_rho", half), ("g*", [p for r in gs for p in r])):
        if any(p.depends_on("v") for p in polys):
            raise FamilyError(f"{name} must not depend on v")
    comp[0][1:-1] = half
    for row, a in zip(comp[1:-1], half):
        row[0] = a
    return MetricSpec(family="walker", n=d + 2, coords=coords,
                      components=tuple(map(tuple, comp)), potential=H)


def build_custom(components, coords=None) -> MetricSpec:
    """User-supplied symmetric polynomial metric."""
    n = len(components)
    if coords is None:
        coords = tuple(f"x{i}" for i in range(n))
    coords = tuple(coords)
    _check_coords(coords, n)
    return MetricSpec(family="custom", n=n, coords=coords, components=tuple(
        tuple(_as_chart_poly(p, coords) for p in row) for row in components))


def build_perturbed_minkowski(seed: int, n: int = 4, max_degree: int = 2) -> MetricSpec:
    """Minkowski plus a seeded random symmetric polynomial perturbation.

    Perturbation coefficients are rationals k/16 with |k| <= 4 (so within
    [-1/4, 1/4]); used as the generic non-pp-wave control metric.  Before
    any monomial is drawn, FamilyError refuses n outside 1..MAX_DIMENSION,
    a negative max_degree, and components of more than MAX_TERMS terms,
    the last two with the configuration document's messages.
    """
    _check_dimension(n)
    if max_degree < 0:
        raise FamilyError(f"field 'params.degree' must not be negative, "
                          f"got {max_degree}")
    terms = math.comb(n + max_degree, n)
    if terms > MAX_TERMS:
        raise FamilyError(
            f"field 'params.degree' {max_degree} gives components of "
            f"{terms} terms at n = {n}; at most {MAX_TERMS} are supported")
    rng = random.Random(seed)
    coords = tuple(f"x{i}" for i in range(n))
    monos = sorted(m for k in range(1, max_degree + 1)
                   for m in _monomials_of_degree(n, k))
    comp = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            base = Fraction(-1 if (i == j == 0) else (1 if i == j else 0))
            terms = {(0,) * n: base}
            for m in monos:
                k = rng.randint(-4, 4)
                if k:
                    terms[m] = terms.get(m, Fraction(0)) + Fraction(k, 16)
            p = Polynomial(coords, terms)
            comp[i][j] = comp[j][i] = p
    return MetricSpec(family="custom", n=n, coords=coords,
                      components=tuple(tuple(row) for row in comp))


# -- run configuration -------------------------------------------------------

DEFAULT_U_VALUES = ("1/2", "1", "3/2", "2", "5/2")
# Input-size bounds, refused before any work: a rank-6 tensor has n^6
# entries.  A run builds its jets to at most order 4, so a jet has at most
# C(12, 4) = 495 coefficients.
MAX_DIMENSION = 8
MAX_JET_ORDER = 6
# field_equations checks [a0 + a1 nabla^2] Ricci: two coefficients at most
MAX_FIELD_COEFFS = 2
_TRANSVERSE = (Fraction(1, 3), Fraction(-1, 5), Fraction(2, 7), Fraction(-1, 11),
               Fraction(1, 13), Fraction(3, 17), Fraction(-2, 19), Fraction(1, 23))


# A decimal exponent of four or more significant digits, as Fraction reads it
_LONG_EXPONENT = re.compile(r"[eE][-+]?[0_]*[1-9](?:_?[0-9]){3}")


def _integer(value, name: str) -> int:
    """An integer field; a string holding an integer also counts."""
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"field {name!r} must be an integer, got {value!r}") from None


def _rational(value, name: str) -> Fraction:
    """A finite rational field: an integer, a float, a Fraction, or a
    string like "-3/7"."""
    if (not isinstance(value, (int, float, str, Fraction))
            or isinstance(value, bool)):
        raise ConfigError(f"field {name!r} must be a rational number, "
                          f"got {value!r}")
    if isinstance(value, str) and _LONG_EXPONENT.search(value):
        # Fraction("1e9999999") would compute 10**9999999
        raise ConfigError(f"field {name!r} has a decimal exponent of 1000 "
                          f"or more, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ConfigError(f"field {name!r} must be a finite rational number, "
                          f"got {value!r}") from None


def _list(value, name: str) -> list:
    """A list field, e.g. the per-coordinate numbers of a family."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"field {name!r} must be a list, got {value!r}")
    return value


class _PlanFields(NamedTuple):
    strategy: str                  # "grid" | "random"
    seed: int
    count: int
    u_values: tuple


class PointPlan(_PlanFields):
    """How a run samples its points; validated on construction, `_replace`
    and `_make` included, with the configuration document's bounds and
    messages (ConfigError).  seed and count may be integer strings."""
    __slots__ = ()

    def __new__(cls, strategy="grid", seed=0, count=5,
                u_values=DEFAULT_U_VALUES):
        seed = _integer(seed, "points.seed")
        count = _integer(count, "points.count")
        u_values = tuple(_list(u_values, "points.u_values"))
        if not u_values:
            raise ConfigError("points.u_values must not be empty")
        for u in u_values:
            _rational(u, "points.u_values")     # sample_points reads them
        if strategy not in ("grid", "random"):
            raise ConfigError("points.strategy must be 'grid' or 'random', "
                              f"got {strategy!r}")
        if not 1 <= count <= 25:
            raise ConfigError("points.count must be between 1 and 25")
        return super().__new__(cls, strategy, seed, count, u_values)

    _make = classmethod(_validated_make)


class _RunFields(NamedTuple):
    mode: str                      # "exact" | "float"
    jet_order: int
    points: PointPlan
    tolerance: float               # kept as a float
    checks: tuple | None           # None means every registered check
    field_coeffs: tuple            # kept as Fractions


class RunConfig(_RunFields):
    """How a run evaluates its checks, validated as PointPlan is."""
    __slots__ = ()

    def __new__(cls, mode, jet_order=4, points=PointPlan(), tolerance=1e-9,
                checks=None, field_coeffs=(1, 1)):
        if mode not in ("exact", "float"):
            raise ConfigError("field 'mode' must be 'exact' or 'float', "
                              f"got {mode!r}")
        if (not isinstance(jet_order, int)
                or not 2 <= jet_order <= MAX_JET_ORDER):
            raise ConfigError("field 'jet_order' must be an integer in "
                              f"2..{MAX_JET_ORDER}")
        if not isinstance(points, PointPlan):
            raise ConfigError("field 'points' must be a PointPlan")
        if checks is not None:
            if (not isinstance(checks, (list, tuple)) or not checks
                    or not all(isinstance(c, str) for c in checks)
                    or len(set(checks)) != len(checks)):
                raise ConfigError("field 'checks' must be a non-empty list "
                                  "of distinct check names (omit it for "
                                  "every check)")
            checks = tuple(checks)
        tol = _rational(tolerance, "tolerance")
        if not 0 <= tol <= 1:
            raise ConfigError("field 'tolerance' is a relative residual and "
                              f"must lie in [0, 1], got {tolerance!r}")
        if (not isinstance(field_coeffs, (list, tuple))
                or not 1 <= len(field_coeffs) <= MAX_FIELD_COEFFS):
            raise ConfigError("field 'field_equation_coeffs' must be a list "
                              f"of 1 to {MAX_FIELD_COEFFS} rational numbers")
        return super().__new__(
            cls, mode, jet_order, points, float(tol), checks,
            tuple(_rational(c, "field_equation_coeffs") for c in field_coeffs))

    _make = classmethod(_validated_make)


def sample_points(spec: MetricSpec, plan: PointPlan):
    """Deterministic chart points for a run; degenerate ones are replaced
    later.  The plan vetted its own fields, so this raises nothing."""
    n = spec.n
    pts = []
    if plan.strategy == "grid":
        if has_null_chart(spec):
            for k, u in enumerate(plan.u_values[: plan.count]):
                transverse = (_TRANSVERSE[(r + k) % len(_TRANSVERSE)]
                              for r in range(n - 2))
                pts.append((Fraction(u), *transverse,
                            Fraction(1, 7) + Fraction(k, 9)))
        else:
            for k in range(plan.count):
                pts.append(tuple(
                    _TRANSVERSE[(i + k) % len(_TRANSVERSE)] * (1 + Fraction(k, 7))
                    for i in range(n)))
    else:                          # "random"
        rng = random.Random(plan.seed)
        for _ in range(plan.count):
            pts.append(tuple(
                Fraction(rng.randint(1, 12), 4) if name == "u"
                else Fraction(rng.randint(-4, 4), rng.randint(5, 11))
                for name in spec.coords))
    return pts


def perturb_point(point, attempt: int):
    """Deterministic nudge used when a sampled point is degenerate."""
    shift = Fraction(attempt, 17)
    return tuple(x + shift * Fraction(1, k + 3) for k, x in enumerate(point))


# -- configuration document ---------------------------------------------------

def _dimension(n: int, name: str) -> int:
    """A chart dimension n read from field `name`, refused outside the bound."""
    if not 1 <= n <= MAX_DIMENSION:
        raise ConfigError(f"field {name!r} gives dimension n = {n}; 1 to "
                          f"{MAX_DIMENSION} are supported")
    return n


def _polynomial(value, name: str):
    """A polynomial field: a string like "u*x1^2 - 3/4", or a number."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _rational(value, name)
    raise ConfigError(f"field {name!r} must be a polynomial string or a "
                      f"number, got {value!r}")


def _polynomial_rows(value, name: str) -> list:
    """A matrix field: a list of lists of polynomials."""
    return [[_polynomial(p, name) for p in _list(row, name)]
            for row in _list(value, name)]


def parse_metric_config(text: str):
    """Parse a JSON configuration document into (MetricSpec, RunConfig); the
    records check their own fields' bounds."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError: malformed JSON, or an integer above Python's digit
        # limit; RecursionError: arrays or objects nested too deeply
        raise ConfigError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    known = {"family", "d", "n", "params", "mode", "jet_order", "points",
             "tolerance", "checks", "field_equation_coeffs"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")
    family = doc.get("family")
    if family not in FAMILIES:
        raise ConfigError(f"field 'family' must be one of {FAMILIES}, got {family!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'params' must be an object")
    reads = FAMILY_SCHEMAS[family][0]
    for key in params:
        if key not in reads:
            raise ConfigError(f"unknown params key {key!r} for family "
                              f"{family!r}; it reads {', '.join(reads)}")
    try:
        spec = _build_from_config(family, doc, params)
    except (FamilyError, PolynomialError) as e:
        raise ConfigError(str(e)) from None
    pts = doc.get("points", {})
    if not isinstance(pts, dict):
        raise ConfigError("field 'points' must be an object")
    plan = PointPlan(
        strategy=pts.get("strategy", "grid"), seed=pts.get("seed", 0),
        count=pts.get("count", 5),
        u_values=[str(x) for x in _list(pts.get("u_values", DEFAULT_U_VALUES),
                                        "points.u_values")])
    mode = doc.get("mode")
    config = RunConfig(
        mode=("exact" if spec.n <= 5 else "float") if mode is None else mode,
        jet_order=doc.get("jet_order", 4), points=plan,
        tolerance=doc.get("tolerance", 1e-9), checks=doc.get("checks"),
        field_coeffs=doc.get("field_equation_coeffs", [1, 1]))
    return spec, config


def _component_matrix(entries: dict, coords):
    """Expand {"i,j": polynomial} into a full symmetric matrix of strings."""
    pairs = {}
    top = -1
    for key, text in entries.items():
        text = _polynomial(text, "params.components")
        try:
            i, j = (int(part) for part in str(key).split(","))
        except ValueError:
            raise ConfigError(
                f"components key {key!r} must look like 'i,j'") from None
        if i < 0 or j < 0:
            raise ConfigError(f"components key {key!r} has a negative index")
        pairs[(i, j)] = text
        top = max(top, i, j)
    n = _dimension(len(coords) if coords else top + 1, "params.components")
    mat = [["0"] * n for _ in range(n)]
    for (i, j), text in pairs.items():
        if i >= n or j >= n:
            raise ConfigError(f"components index ({i},{j}) outside the chart")
        mat[i][j] = text
        mat[j][i] = text
    return mat


def _build_from_config(family, doc, params):
    if family == "custom":
        comp = params.get("components")
        if not comp:
            raise ConfigError("custom family needs params.components")
        coords = params.get("coords")
        if coords is not None:
            coords = _list(coords, "params.coords")
        if isinstance(comp, dict):
            comp = _component_matrix(comp, coords)
        else:
            _dimension(len(_list(comp, "params.components")),
                       "params.components")
            comp = _polynomial_rows(comp, "params.components")
        return build_custom(comp, coords=coords)
    if family == "perturbed_minkowski":
        n = _dimension(_integer(doc.get("n", 4), "n"), "n")
        degree = _integer(params.get("degree", 2), "params.degree")
        return build_perturbed_minkowski(
            seed=_integer(params.get("seed", 0), "params.seed"), n=n,
            max_degree=degree)
    if doc.get("d") is not None:
        d = _dimension(_integer(doc["d"], "d") + 2, "d") - 2
    elif doc.get("n") is not None:
        d = _dimension(_integer(doc["n"], "n"), "n") - 2
    else:
        raise ConfigError("field 'd' (or 'n') is required for built-in families")
    if family in ("ppwave", "brinkmann"):
        H = params.get("H")
        if H is None:
            raise ConfigError(f"{family} family needs params.H")
        return build_ppwave(_polynomial(H, "params.H"), d, family="ppwave")
    if family == "galaev":
        lam = params.get("lambda")
        if lam is None:
            raise ConfigError("galaev family needs params.lambda")
        return build_galaev(d, [_rational(str(x), "params.lambda")
                                for x in _list(lam, "params.lambda")],
                            _polynomial(params.get("a", "0"), "params.a"),
                            _polynomial(params.get("F", "0"), "params.F"))
    if family == "two_symmetric":
        if "a_vec" not in params:
            raise ConfigError("two_symmetric family needs params.a_vec")
        a_vec = _list(params["a_vec"], "params.a_vec")
        if len(a_vec) != d:
            raise ConfigError(f"need {d} a_vec values, got {len(a_vec)}")
        a_vec = [_rational(str(x), "params.a_vec") for x in a_vec]
        b_mat = params.get("b_mat")
        if b_mat is not None:
            b_mat = [[_rational(str(x), "params.b_mat")
                      for x in _list(row, "params.b_mat")]
                     for row in _list(b_mat, "params.b_mat")]
        return build_two_symmetric(a_vec, b_mat)
    # walker, the one family left
    if "H" not in params:
        raise ConfigError("walker family needs params.H")
    a_rho = params.get("a_rho")
    if a_rho is not None:
        a_rho = [_polynomial(p, "params.a_rho")
                 for p in _list(a_rho, "params.a_rho")]
    gstar = params.get("gstar")
    if gstar is not None:
        gstar = _polynomial_rows(gstar, "params.gstar")
    return build_walker(_polynomial(params["H"], "params.H"), a_rho, gstar, d)
