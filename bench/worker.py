"""One repetition of the benchmark, run in a fresh interpreter.

Invoked by run.py as `python3 -I bench/worker.py MODE` with the run config
JSON document on stdin; prints one JSON object on stdout.

Modes:
  rep     the public calls `ppcheck run` makes, timed end to end
  setup   only the set-up part of `rep` (import, parse, sample points)
  traced  `rep` with spans and counters wrapped around each module's
          public functions
  stages  self time of each CurvatureBundle attribute, accessed in
          dependency order, then of each check on the warm bundle

The wrappers live here, outside the package, so `src/` is measured as is.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

# The 22 lazily computed CurvatureBundle attributes, in an order where each
# one's dependencies come before it, so timing an access gives its self time.
BUNDLE_ATTRS = (
    "gamma", "riemann_mixed", "riemann", "ricci", "ricci_mixed", "scalar",
    "weyl_mixed", "weyl", "nabla_ricci", "nabla_scalar", "nabla_riemann",
    "nabla_weyl", "nabla_weyl_mixed", "div_weyl", "nabla2_ricci",
    "nabla2_weyl", "nabla2_riemann", "lap_ricci", "lap_weyl", "lap_riemann",
    "nabla2_weyl_mixed", "double_div_weyl",
)


def _import_ppcheck():
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import ppcheck
    import_s = perf_counter() - t0
    if Path(ppcheck.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported ppcheck from {ppcheck.__file__}, not {SRC}")
    return ppcheck, import_s


def _setup(ppcheck, text):
    spec, config = ppcheck.metrics.parse_metric_config(text)
    return spec, config, ppcheck.metrics.sample_points(spec, config.points)


def _report_facts(report_json):
    doc = json.loads(report_json)
    return {
        "sha256": hashlib.sha256(report_json.encode()).hexdigest(),
        "bytes": len(report_json.encode()),
        "rows": [[r["point"], r["check"], r["status"], r["residual"]]
                 for r in doc["rows"]],
        "resamples": sum("resampled" in n
                         for n in doc["header"].get("notes", [])),
    }


def mode_setup(text):
    t0 = perf_counter()
    ppcheck, _ = _import_ppcheck()
    _setup(ppcheck, text)
    return {"setup_s": perf_counter() - t0}


def mode_rep(text):
    t0 = perf_counter()
    ppcheck, _ = _import_ppcheck()
    spec, config, _ = _setup(ppcheck, text)
    setup_s = perf_counter() - t0
    threads = os.cpu_count() or 1
    t1 = perf_counter()
    report = ppcheck.run(spec, config, threads=threads)
    report_json = ppcheck.report_to_json(report)
    run_s = perf_counter() - t1
    return dict(_report_facts(report_json), setup_s=setup_s, run_s=run_s,
                threads=threads,
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024)


class Tracer:
    """Inclusive time and call counts per span name, kept per thread.

    `run()` evaluates points on a thread pool, so each thread adds into its
    own record; the records are summed at the end and no update is lost.
    """

    def __init__(self):
        self._local = threading.local()
        self._records = []

    def _record(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = (defaultdict(float), Counter())
            self._records.append(rec)
        return rec

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            times, counts = self._record()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf_counter() - t0
                counts[name] += 1
        return wrapper

    def jet_mul(self, fn, jet_type):
        """Wrap Jet.__mul__: time it and count term pairs and their yield."""
        def wrapper(a, b):
            times, counts = self._record()
            t0 = perf_counter()
            try:
                return fn(a, b)
            finally:
                times["jets.mul"] += perf_counter() - t0
                if isinstance(b, jet_type):
                    counts["jets.mul"] += 1
                    counts["jets.mul_pairs"] += len(a.coeffs) * len(b.coeffs)
                    counts["jets.mul_pairs_within"] += _pairs_within(
                        a, b, min(a.order, b.order))
                else:
                    counts["jets.scalar_mul"] += 1
        return wrapper

    def totals(self):
        times, counts = defaultdict(float), Counter()
        for t, c in self._records:
            for k, v in t.items():
                times[k] += v
            counts.update(c)
        return dict(times), dict(counts)


def _pairs_within(a, b, order):
    """Term pairs of a*b whose total degree stays within the order."""
    da, db = Counter(map(sum, a.coeffs)), Counter(map(sum, b.coeffs))
    return sum(ca * cb for ka, ca in da.items() for kb, cb in db.items()
               if ka + kb <= order)


def _install(tracer):
    """Replace each traced function in every ppcheck module that holds it."""
    from ppcheck import geometry, jets, linalg, metrics, report, tensors
    spans = {
        metrics.parse_metric_config: "metrics.parse_metric_config",
        metrics.sample_points: "metrics.sample_points",
        geometry.metric_at_point: "geometry.metric_at_point",
        geometry.covariant_derivative: "geometry.covariant_derivative",
        jets.jet_from_polynomial: "jets.jet_from_polynomial",
        tensors.contract: "tensors.contract",
        tensors.raise_lower: "tensors.raise_lower",
        tensors.cyclic_sum: "tensors.cyclic_sum",
        report.report_to_json: "report.to_json",
    }
    for name, fn in vars(linalg).items():
        if (callable(fn) and not name.startswith("_")
                and getattr(fn, "__module__", None) == linalg.__name__
                and not isinstance(fn, type)):
            spans[fn] = "linalg"
    wrapped = {fn: tracer.span(label, fn) for fn, label in spans.items()}
    modules = [m for name, m in sys.modules.items()
               if name == "ppcheck" or name.startswith("ppcheck.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    mul = tracer.jet_mul(jets.Jet.__mul__, jets.Jet)
    jets.Jet.__mul__ = mul
    jets.Jet.__rmul__ = mul


def mode_traced(text):
    ppcheck, import_s = _import_ppcheck()
    tracer = Tracer()
    _install(tracer)
    spec, config, _ = _setup(ppcheck, text)
    threads = os.cpu_count() or 1
    t0 = perf_counter()
    report = ppcheck.cli.run(spec, config, threads=threads)
    report_json = ppcheck.report.report_to_json(report)
    run_s = perf_counter() - t0
    times, counts = tracer.totals()
    return dict(_report_facts(report_json), import_s=import_s, run_s=run_s,
                threads=threads, times=times, counts=counts)


def mode_stages(text):
    ppcheck, _ = _import_ppcheck()
    from ppcheck import (CHECKS, CurvatureBundle, DegeneratePointError,
                         PointContext, metric_at_point)
    spec, config, points = _setup(ppcheck, text)
    names = list(config.checks) if config.checks else list(CHECKS)
    stage_s = dict.fromkeys(BUNDLE_ATTRS, 0.0)
    check_s = dict.fromkeys(CHECKS, 0.0)
    statuses = []
    for idx, point in enumerate(points):
        try:
            m = metric_at_point(spec, point, config.jet_order, config.mode)
        except DegeneratePointError:
            continue
        bundle = CurvatureBundle(m)
        for attr in BUNDLE_ATTRS:
            if not hasattr(CurvatureBundle, attr):  # dropped: reads as 0
                continue
            t0 = perf_counter()
            getattr(bundle, attr)
            stage_s[attr] += perf_counter() - t0
        ctx = PointContext(spec=spec, point=point, mode=config.mode,
                           bundle=bundle, tolerance=config.tolerance,
                           field_coeffs=config.field_coeffs)
        for name in names:
            t0 = perf_counter()
            result = CHECKS[name](ctx)
            check_s[name] += perf_counter() - t0
            statuses.append([idx, name, result.status])
    statuses.sort()
    return {"stage_s": stage_s, "check_s": check_s,
            "statuses": [s for _, _, s in statuses]}


MODES = {"rep": mode_rep, "setup": mode_setup, "traced": mode_traced,
         "stages": mode_stages}


if __name__ == "__main__":
    result = MODES[sys.argv[1]](sys.stdin.read())
    sys.stdout.write(json.dumps(result) + "\n")
