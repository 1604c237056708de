"""End-to-end and per-layer benchmark of `ppcheck run`.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; only the standard library is used
and `src/` is put on the path of each child interpreter. The loop is closed,
with one caller: each repetition starts a fresh interpreter (bench/worker.py)
that makes the public calls `ppcheck run` makes, so module-level set-up costs
what a CLI user pays for it.

--trace 0 measures for about --seconds (at least MIN_REPS repetitions) and
prints the end-to-end metrics. --trace 1 runs one untraced repetition, two
traced ones and a stage pass, and prints the per-layer metrics. Both check
the reports (see `gate`) and exit 1 on any mismatch. `--workload all` runs
every workload in turn. bench/README.md says why each workload exists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
DEFAULT_SEED = 7
MIN_REPS = 2
SETUP_SAMPLES = 8
TIME_LIMIT_S = 170

CHECK_NAMES = (
    "alpha_recurrent", "bianchi", "brinkmann", "collinearity",
    "conformal_invariance", "conformal_recurrence", "eqs_2_3_2_4",
    "field_equations", "galaev_alpha", "laplacians", "olszak",
    "pure_radiation", "ricci_recurrence", "roter_bundle", "schimming",
    "semisymmetry", "weyl_cyclic_identity", "weyl_divergence_formula",
    "weyl_trace",
)
UNIVERSAL = ("bianchi", "weyl_trace", "weyl_cyclic_identity",
             "weyl_divergence_formula", "conformal_invariance")

sys.path.insert(0, str(BENCH))
from worker import BUNDLE_ATTRS  # noqa: E402


def flagship_doc(seed):
    """galaev d=3, lambda=(1,1,-2), a=0, F=u; the seed does not change it."""
    return {"family": "galaev", "d": 3,
            "params": {"lambda": [1, 1, -2], "a": "0", "F": "u"},
            "mode": "exact", "jet_order": 4,
            "points": {"strategy": "grid", "count": 5}}


def generic_doc(mode):
    def doc(seed):
        """perturbed_minkowski n=4 whose perturbation seed is the seed."""
        return {"family": "perturbed_minkowski", "n": 4,
                "params": {"seed": seed, "degree": 2},
                "mode": mode, "jet_order": 4,
                "points": {"strategy": "grid", "count": 1}}
    return doc


WORKLOADS = {
    "flagship_exact": flagship_doc,
    "generic_exact": generic_doc("exact"),
    "generic_float": generic_doc("float"),
}


def load_golden():
    return json.loads((BENCH / "golden.json").read_text())


class ChildError(RuntimeError):
    pass


class Harness:
    """Runs child repetitions against one overall deadline."""

    def __init__(self, deadline):
        self.deadline = deadline

    def child(self, mode, doc):
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise ChildError(f"time limit reached before a {mode} child")
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(BENCH / "worker.py"), mode],
                input=json.dumps(doc), capture_output=True, text=True,
                cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildError(f"{mode} child ran past the time limit") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise ChildError(f"{mode} child exited {proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# -- correctness gate ---------------------------------------------------------

def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def exact_statuses(harness, seed, rows=None):
    """Statuses of generic_exact at `seed`, cached per seed and source tree.

    A generic_exact repetition stores them (pass `rows`); a generic_float
    run reads them, or computes them once when no run has stored them yet.
    """
    path = CACHE / f"generic_exact-{seed}-{src_digest()[:16]}.json"
    if rows is None:
        if path.is_file():
            return json.loads(path.read_text())
        rows = harness.child("rep", WORKLOADS["generic_exact"](seed))["rows"]
    statuses = [r[2] for r in rows]
    CACHE.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(statuses))
    tmp.replace(path)
    return statuses


def gate(workload, seed, rep, golden, reference=None):
    """Check one repetition's report against the workload's expectations.

    `reference` is the generic_exact status list at the same seed, needed
    for generic_float. Returns the indices of the rows that break an
    expectation (all rows when the report as a whole does) and the reasons.
    """
    rows = rep["rows"]
    bad, problems = set(), []

    def flag(i, why):
        bad.add(i)
        problems.append(why)

    for i, (point, check, status, residual) in enumerate(rows):
        if workload == "flagship_exact" and status != "pass":
            flag(i, f"{check} at {point} is {status}")
        if (workload != "generic_float" and check in UNIVERSAL
                and (status != "pass" or Fraction(residual) != 0)):
            flag(i, f"universal {check} at {point}: {status} {residual}")
    gold = golden[workload]
    if workload == "generic_float":
        statuses = [r[2] for r in rows]
        if len(statuses) != len(reference):
            flag(-1, "float and exact reports differ in length")
        for i, (r, want) in enumerate(zip(rows, reference)):
            if r[2] != want:
                flag(i, f"float {r[1]} is {r[2]}, exact is {want}")
        if (seed == gold["seed"]
                and {r[1]: r[2] for r in rows} != gold["statuses"]):
            flag(-1, "statuses differ from the golden statuses")
    elif gold.get("seed", seed) == seed and rep["sha256"] != gold["sha256"]:
        flag(-1, f"report sha256 {rep['sha256']} differs from the golden "
                 f"{gold['sha256']}")
    return report_failures(rows, bad), problems


def report_failures(rows, bad):
    """Failed row count; index -1 stands for the whole report."""
    return len(rows) if -1 in bad else len(bad)


# -- runs ---------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(harness, workload, seed, seconds, golden):
    """Untraced repetitions for about `seconds`; end-to-end metrics."""
    doc = WORKLOADS[workload](seed)
    setups = [harness.child("setup", doc)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    reps, problems, start = [], [], perf_counter()
    attempted = failed = 0
    while len(reps) < MIN_REPS or perf_counter() - start < seconds:
        try:
            reps.append(harness.child("rep", doc))
        except ChildError as exc:
            lost = expected_rows(workload)
            attempted, failed = attempted + lost, failed + lost
            problems.append(f"repetition lost: {exc}")
            break
    if not reps:
        raise ChildError(problems[0])
    reference = None
    if workload == "generic_exact":
        exact_statuses(harness, seed, reps[0]["rows"])
    if workload == "generic_float":
        reference = exact_statuses(harness, seed)
    for rep in reps:
        bad, why = gate(workload, seed, rep, golden, reference)
        attempted, failed = attempted + len(rep["rows"]), failed + bad
        problems += why
    run_s = [r["run_s"] for r in reps]
    setups += [r["setup_s"] for r in reps]
    q1, q3 = quartiles(run_s)
    summary = {"run_s_median": statistics.median(run_s), "run_s_q1": q1,
               "run_s_q3": q3, "run_s_samples": len(reps),
               "setup_s_samples": len(setups)}
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "match_frac": (1 - failed / attempted, "ratio"),
    }
    return (summary, metrics, attempted, failed, problems,
            reps[0]["threads"])


def traced(harness, workload, seed, golden):
    """One untraced repetition, two traced ones and a stage pass."""
    doc = WORKLOADS[workload](seed)
    plain = harness.child("rep", doc)
    runs = [harness.child("traced", doc) for _ in range(2)]
    stages = harness.child("stages", doc)
    reference = None
    if workload == "generic_exact":
        exact_statuses(harness, seed, plain["rows"])
    if workload == "generic_float":
        reference = exact_statuses(harness, seed)
    attempted = failed = 0
    problems = []
    for rep in [plain] + runs:
        bad, why = gate(workload, seed, rep, golden, reference)
        attempted, failed = attempted + len(rep["rows"]), failed + bad
        problems += why
    whole = []
    for rep in runs:
        if rep["sha256"] != plain["sha256"]:
            whole.append("traced report differs from the untraced one")
    if runs[0]["counts"] != runs[1]["counts"]:
        whole.append("counts differ between the two traced runs")
    if stages["statuses"] != [r[2] for r in plain["rows"]]:
        whole.append("stage pass statuses differ from the report")
    failed = min(attempted, failed + len(plain["rows"]) * len(whole))
    problems += whole

    def time_of(label):
        return statistics.median(r["times"].get(label, 0.0) for r in runs)

    counts = runs[0]["counts"]
    pairs = counts.get("jets.mul_pairs", 0)
    statuses = [r[2] for r in plain["rows"]]
    metrics = {
        "ppcheck.import_s": (statistics.median(
            r["import_s"] for r in runs), "s"),
        "metrics.parse_metric_config_s": (
            time_of("metrics.parse_metric_config"), "s"),
        "metrics.sample_points_s": (time_of("metrics.sample_points"), "s"),
        "geometry.metric_at_point_s": (
            time_of("geometry.metric_at_point"), "s"),
        "jets.jet_from_polynomial_s": (
            time_of("jets.jet_from_polynomial"), "s"),
        "linalg.s": (time_of("linalg"), "s"),
    }
    for attr in BUNDLE_ATTRS:
        metrics[f"geometry.{attr}_s"] = (stages["stage_s"][attr], "s")
    metrics.update({
        "geometry.covariant_derivative_count": (
            counts.get("geometry.covariant_derivative", 0), "count"),
        "geometry.covariant_derivative_s": (
            time_of("geometry.covariant_derivative"), "s"),
    })
    for name in CHECK_NAMES:
        metrics[f"checks.{name}_s"] = (stages["check_s"].get(name, 0.0), "s")
    metrics.update({
        "checks.error_rows": (statuses.count("error"), "count"),
        "checks.fail_frac": (failed / max(attempted, 1), "ratio"),
        "jets.mul_count": (counts.get("jets.mul", 0), "count"),
        "jets.mul_pairs": (pairs, "count"),
        "jets.mul_pair_yield": (
            counts.get("jets.mul_pairs_within", 0) / max(pairs, 1), "ratio"),
        "jets.scalar_mul_count": (counts.get("jets.scalar_mul", 0), "count"),
        "jets.mul_s": (time_of("jets.mul"), "s"),
        "tensors.contract_s": (time_of("tensors.contract"), "s"),
        "tensors.raise_lower_s": (time_of("tensors.raise_lower"), "s"),
        "tensors.cyclic_sum_s": (time_of("tensors.cyclic_sum"), "s"),
        "cli.points": (len({json.dumps(r[0]) for r in plain["rows"]}),
                       "count"),
        "cli.resamples": (plain["resamples"], "count"),
        "cli.threads": (plain["threads"], "count"),
        "report.to_json_s": (time_of("report.to_json"), "s"),
        "report.bytes": (plain["bytes"], "bytes"),
        "repo.src_lines": (src_lines(), "lines"),
        "trace.overhead_s": (statistics.median(r["run_s"] for r in runs)
                             - plain["run_s"], "s"),
    })
    summary = {"untraced_run_s": plain["run_s"],
               "traced_run_s": [r["run_s"] for r in runs]}
    return summary, metrics, attempted, failed, problems, plain["threads"]


def expected_rows(workload):
    points = WORKLOADS[workload](DEFAULT_SEED)["points"]["count"]
    return points * len(CHECK_NAMES)


# -- environment and output ---------------------------------------------------

def src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(workload, seed, seconds, trace, golden):
    """Print the environment and a summary; return the result, or None
    when a child interpreter failed."""
    load_before = os.getloadavg()
    harness = Harness(perf_counter() + TIME_LIMIT_S)
    try:
        if trace:
            out = traced(harness, workload, seed, golden)
        else:
            out = measure(harness, workload, seed, seconds, golden)
    except ChildError as exc:
        print(f"{workload}: {exc}", file=sys.stderr)
        return None
    summary, metrics, attempted, failed, problems, threads = out
    env = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "nproc": os.cpu_count(), "threads": threads,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "git_commit": git_commit(), "src_lines": src_lines(),
    }
    print("env " + json.dumps(env))
    print("summary " + json.dumps(summary))
    for p in problems:
        print(f"MISMATCH {workload}: {p}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="perturbation seed of generic_exact and "
                             "generic_float; flagship_exact ignores it")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ppcheck" / "__init__.py").is_file():
        print(f"error: no ppcheck sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace,
                              golden)
        if result is None:
            return 1
        results[name] = result
        if len(names) > 1:
            print(f"result {name} " + json.dumps(result))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
