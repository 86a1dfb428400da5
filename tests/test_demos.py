"""Every demo script runs to completion against the current package, with
warnings turned into errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudo_dce

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    # Run from tmp_path with TMPDIR there too, so whatever a demo writes
    # (demo 05 writes under tempfile.mkdtemp) lands in the test's temp dir.
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(Path(pseudo_dce.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
