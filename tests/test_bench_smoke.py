"""Smoke test of the traced benchmark: one pass of each workload must run.

``bench/run.py --trace 1`` reads per-call timings of the probe predictors
and checks every output against its float64 reference, so a change that
stops calling a traced function, or moves an output, fails here first.
Each pass runs from a copy of ``bench/`` under ``tmp_path``, with ``src/``
linked in, so its results record and work dir stay out of the checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["train", "build-table", "probe"])
def test_traced_pass_exits_0_and_is_correct(workload, tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    out = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload",
                          workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True, out.stdout
    assert len(os.listdir(tmp_path / "bench" / "results")) == 1
