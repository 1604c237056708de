"""Command-line front end: batch runs, theorem bundles, family discovery."""
from __future__ import annotations

import sys

from .checks import CHECKS, ERROR, ORDER_BUDGET, CheckResult, PointContext
from .geometry import CurvatureBundle, DegeneratePointError, metric_at_point
from .metrics import (FAMILY_SCHEMAS, ConfigError, MetricSpec, RunConfig,
                      parse_metric_config, perturb_point, sample_points)
from .report import (ENGINE_VERSION, Report, all_clear, build_report,
                     emit_report, encode_value)


class RunError(RuntimeError):
    pass


MAX_RESAMPLES = 5


def _requested_checks(config: RunConfig):
    """The requested check names; ConfigError, before any jet is built, for
    an unknown name or for an order budget above the run's `jet_order`."""
    names = list(config.checks) if config.checks else list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ConfigError("unknown checks requested: "
                          + ", ".join(map(repr, unknown)))
    short = [n for n in names if ORDER_BUDGET[n] > config.jet_order]
    if short:
        detail = ", ".join(f"{n} (needs K>={ORDER_BUDGET[n]})" for n in short)
        raise ConfigError(f"jet order {max(map(ORDER_BUDGET.get, short))} "
                          f"required; insufficient for: {detail}")
    return names


def _checked_point(spec: MetricSpec, point, config: RunConfig, names,
                   notes: list) -> list:
    """Check results at the point, nudged away from metric degeneracy; empty
    when every nudge is degenerate too.

    The point's bundle lives only in this call, so it is released before
    the next point's metric is built.  Its jets are built to the largest
    order budget among the checks, as higher orders change no value.
    """
    order = max(ORDER_BUDGET[name] for name in names)
    candidate = point
    for attempt in range(MAX_RESAMPLES + 1):
        try:
            m = metric_at_point(spec, candidate, order, config.mode)
        except DegeneratePointError:
            notes.append(f"degenerate metric at {encode_value(list(candidate))};"
                         " resampled")
            candidate = perturb_point(point, attempt + 1)
            continue
        except OverflowError as exc:    # a float metric out of range
            raise RunError(f"float overflow in the metric at "
                           f"{encode_value(list(candidate))}: {exc}") from exc
        return _evaluate(spec, candidate, CurvatureBundle(m), config, names)
    return []


def _evaluate(spec, point, bundle, config, names):
    """Run each check at one point; a check that raises becomes an error row."""
    ctx = PointContext(spec=spec, point=point, mode=config.mode, bundle=bundle,
                       tolerance=config.tolerance,
                       field_coeffs=config.field_coeffs)
    results = []
    for name in names:
        try:
            results.append(CHECKS[name](ctx))
        except Exception as exc:    # one failing check must not end the run
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            where = tb.tb_frame.f_code.co_name
            results.append(CheckResult(
                name, ERROR, ctx.zero(), point,
                notes=f"check {name!r} raised {type(exc).__name__} "
                      f"in {where}: {exc}"))
    return results


def run(spec: MetricSpec, config: RunConfig, threads: int = 1) -> Report:
    """Evaluate all requested checks at every sampled point, one point at a
    time.  `threads` is accepted and ignored (bench/worker.py passes it)."""
    names = _requested_checks(config)
    notes: list = []
    indexed = []
    for idx, pt in enumerate(sample_points(spec, config.points)):
        indexed.extend((idx, r) for r in
                       _checked_point(spec, pt, config, names, notes))
    if not indexed:
        raise RunError("all sampled points are degenerate for this metric")
    header = {
        "version": ENGINE_VERSION,
        "mode": config.mode,
        "jet_order": config.jet_order,
        "seed": config.points.seed,
        "metric_echo": _metric_echo(spec),
    }
    if notes:
        header["notes"] = notes
    return build_report(header, indexed)


def _metric_echo(spec: MetricSpec) -> dict:
    echo = {"family": spec.family, "n": spec.n, "coords": list(spec.coords)}
    if spec.potential is not None:
        echo["H"] = repr(spec.potential)
    if spec.warnings:
        echo["warnings"] = list(spec.warnings)
    return echo


THEOREM_BUNDLES = {
    # hypothesis check first; the rest verify the conclusion on the same points
    "thm_3_8": ("conformal_recurrence",
                ["conformal_recurrence", "roter_bundle", "olszak",
                 "collinearity"]),
    "thm_3_13": ("roter_bundle",
                 ["roter_bundle", "schimming", "pure_radiation",
                  "alpha_recurrent"]),
    "prop_2_10": ("brinkmann",
                  ["brinkmann", "schimming"]),
}


def theorem_suite(name: str, spec: MetricSpec, config: RunConfig) -> Report:
    """Run one theorem's hypothesis-plus-conclusion bundle."""
    if name not in THEOREM_BUNDLES:
        raise ConfigError(f"unknown theorem id {name!r}; "
                          f"known: {', '.join(sorted(THEOREM_BUNDLES))}")
    hypothesis, bundle = THEOREM_BUNDLES[name]
    report = run(spec, config._replace(checks=tuple(bundle)))
    report.header["theorem"] = name
    hypo_rows = [r for r in report.rows if r.name == hypothesis]
    if any(r.status in ("fail", "error") for r in hypo_rows):
        report.verdict = "hypotheses not met"
    elif all(r.status in ("pass", "vacuous") for r in report.rows):
        report.verdict = "pass"
    else:
        report.verdict = "fail"
    return report


def list_families() -> str:
    lines = ["built-in metric families:"]
    for name, (params, size) in FAMILY_SCHEMAS.items():
        keys = ", ".join(f"{k}: {v}" for k, v in params.items())
        lines.append(f"  {name:20s} params: {{{keys}}}; {size}")
    return "\n".join(lines) + "\n"


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_metric_config(text)


def main(argv=None) -> int:
    import argparse     # here, so that `import ppcheck` does not load it

    class _Parser(argparse.ArgumentParser):
        """Raises usage errors, for main to report as one `error:` line."""

        def error(self, message):
            raise argparse.ArgumentError(None, message)

    parser = _Parser(
        prog="ppcheck",
        description="verify curvature identities of polynomial metrics "
                    "at sample points")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run requested checks from a config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "text"), default="json")

    p_thm = sub.add_parser("theorems", help="run a theorem bundle")
    p_thm.add_argument("--name", required=True)
    p_thm.add_argument("--config", required=True)
    p_thm.add_argument("--out", default=None)
    p_thm.add_argument("--format", choices=("json", "text"), default="json")

    sub.add_parser("families", help="list built-in metric families")

    try:
        args = parser.parse_args(argv)
        if args.command == "families":
            sys.stdout.write(list_families())
            return 0
        spec, config = _load_config(args.config)
        if args.command == "run":
            report = run(spec, config)
        else:
            report = theorem_suite(args.name, spec, config)
        text = emit_report(report, args.out, args.format)
        if args.out is None:
            sys.stdout.write(text)
        if report.verdict == "hypotheses not met":
            return 0
        return 0 if all_clear(report) else 1
    except (argparse.ArgumentError, ConfigError, RunError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
