"""Start-up cost: importing lhckit and running a command load no scipy.

The package needs numpy alone; scipy is a test and benchmark oracle. The
checks run in a fresh interpreter where importing scipy fails, since this
test process has scipy loaded already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import lhckit
from lhckit import bsc_id, jsonio

BSC = Path(__file__).parent / "data" / "bsc"
ID_SIM = ["id-sim", "--n", "200", "--gamma", "0.03", "--delta", "0.1", "--eps", "0.3",
          "--M", "20", "--trials", "12000", "--seed", "7"]

SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
def scipy_modules():
    return sorted(m for m in sys.modules
                  if (m == "scipy" or m.startswith("scipy.")) and sys.modules[m])
import lhckit, lhckit.cli
seen = {"import": scipy_modules()}
out, id_sim = sys.argv[1], json.loads(sys.argv[2])
codes = [lhckit.cli.main(["falsify", "--trials", "20", "--out", out + "/falsify.json"])]
seen["falsify"] = scipy_modules()
codes.append(lhckit.cli.main([*id_sim, "--out", out + "/golden.id-sim.csv"]))
seen["id-sim"] = scipy_modules()
book = lhckit.jsonio.read_codebook(sys.argv[3])
rates = lhckit.exact_error_rates(book, 0.03, 0.3)
seen["exact_error_rates"] = scipy_modules()
miss = lhckit.bsc_id.exact_window_miss(1000, 100, 0.03, 0.3, 0.1)
seen["exact_window_miss"] = scipy_modules()
print(json.dumps({"seen": seen, "codes": codes,
                  "rates": [float(r).hex() for r in (*rates, miss)]}))
"""


def test_commands_run_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(lhckit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(ID_SIM),
         str(BSC / "golden.codebook.txt")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["seen"] == {"import": [], "falsify": [], "id-sim": [],
                              "exact_error_rates": [], "exact_window_miss": []}
    assert report["codes"] == [0, 0]
    assert (tmp_path / "golden.id-sim.csv").read_bytes() == \
        (BSC / "golden.id-sim.csv").read_bytes()
    # the laws built without scipy keep the bits of this process's
    book = jsonio.read_codebook(BSC / "golden.codebook.txt")
    want = (*bsc_id.exact_error_rates(book, 0.03, 0.3),
            bsc_id.exact_window_miss(1000, 100, 0.03, 0.3, 0.1))
    assert report["rates"] == [float(r).hex() for r in want]
