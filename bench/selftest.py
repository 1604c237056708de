"""Seconds-long self-test of the benchmark harness.

    python3 bench/selftest.py

Runs a reduced flagship config (one grid point) through the untraced and
the traced path of run.py. Asserts that each prints every metric that
BENCHMARK.json names, with its unit and nothing else, and that a corrupted
golden digest is reported as a failure with a non-zero exit.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def reduced_flagship(seed):
    doc = run.flagship_doc(seed)
    doc["points"]["count"] = 1
    return doc


def main_output(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "flagship_exact", "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().splitlines()[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORKLOADS["flagship_exact"] = reduced_flagship
    harness = run.Harness(perf_counter() + run.TIME_LIMIT_S)
    digest = harness.child("rep", reduced_flagship(0))["sha256"]
    golden = run.load_golden()
    run.load_golden = lambda: dict(golden, flagship_exact={"sha256": digest})

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = main_output(trace)
        assert code == 0 and result["correct"], result
        # 19 rows from each of MIN_REPS repetitions, or from the untraced
        # and the two traced repetitions
        reports = 3 if trace else run.MIN_REPS
        assert result["failed"] == 0, result
        assert result["attempted"] == 19 * reports, result
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (sorted(set(got) ^ set(want)), got, want)
        print(f"trace {trace}: {len(got)} metrics printed with their units")

    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    run.load_golden = lambda: dict(golden,
                                   flagship_exact={"sha256": corrupted})
    code, result = main_output(0)
    assert code != 0 and not result["correct"], result
    assert result["failed"] == result["attempted"] > 0, result
    assert result["metrics"]["match_frac"]["value"] == 0, result
    print("corrupted golden digest: reported as a failure")
    print("selftest ok")


if __name__ == "__main__":
    main()
