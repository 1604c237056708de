"""The demos run as scripts and print the output pinned in tests/data.

Exact-mode lines are compared byte for byte.  The float residual line of
`conformal_rescaling.py` goes through `math.exp`, so only its status is
compared: a residual within the tolerance the line prints.
"""
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FLOAT_RESIDUAL = re.compile(r"  relative residual = (\S+)  \(tolerance 1e-9\)")


@pytest.mark.parametrize("name", ["conformal_rescaling",
                                  "flagship_wave_family",
                                  "vacuum_plane_wave"])
def test_demo_prints_its_pinned_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(
        os.path.join(ROOT, "src")))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{name}.py")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(ROOT, "tests", "data", f"demo_{name}.txt"),
              encoding="utf-8") as fh:
        want = fh.read().splitlines(keepends=True)
    got = proc.stdout.splitlines(keepends=True)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if FLOAT_RESIDUAL.fullmatch(w.rstrip("\n")):
            m = FLOAT_RESIDUAL.fullmatch(g.rstrip("\n"))
            assert m and float(m[1]) <= 1e-9 and g.endswith("\n"), g
        else:
            assert g == w
