"""Each demo prints exactly its recorded stdout.

The demos run in a fresh interpreter under the RuntimeWarning policy of the
tier-1 tests, and their stdout is compared byte for byte with the files
under data/demos. A change that alters what a demo prints must record the
new output there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lhckit

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).parent / "data" / "demos"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_prints_its_recorded_stdout(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(lhckit.__file__).parents[1]),
               PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (RECORDED / f"{demo.stem}.stdout").read_bytes()
