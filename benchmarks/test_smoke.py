"""Smoke check for the benchmark: every workload's smallest job, with its oracle.

Not a timing gate. Run from the repository root:

    python -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

# index of the job with the smallest size in each workload's cycle
SMALLEST = {"certify": 0, "bsc-id": 0, "falsify": 0}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_jobs_pass_their_oracles(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=5, workdir=tmp_path)
    wl.setup()
    jobs = range(wl.pass_jobs) if name == "cli" else [SMALLEST[name]]
    loop = run.run_jobs(wl, jobs)
    assert loop["failed"] == 0, loop["errors"]
    assert loop["attempted"] == len(jobs)


def test_oracle_rejects_a_wrong_result(tmp_path):
    wl = workloads.BscId(seed=5, workdir=tmp_path)
    words, fr, fa, est = wl.job(0)
    assert wl.check(0, (words, fr, fa, est))
    assert not wl.check(0, (words, fr + 1e-9, fa, est))


def test_tracer_sees_cross_layer_calls_and_restores_originals(tmp_path):
    import lhckit
    from lhckit import decomposition

    original = decomposition.verify_lhc
    wl = workloads.Certify(seed=5, workdir=tmp_path)
    tr = Tracer()
    tr.install()
    try:
        loop = run.run_jobs(wl, [0], tracer=tr)
    finally:
        tr.uninstall()
    assert loop["failed"] == 0, loop["errors"]
    assert decomposition.verify_lhc is original and lhckit.verify_lhc is original
    names = {s[0] for s in tr.spans}
    assert {"verify.verify_lhc", "decomposition.decompose", "hypergraph.Hypergraph",
            "channel.Channel", "hypergraph.Hypergraph.edges_containing"} <= names
    # decompose -> verify_lhc is recorded with the decompose span as parent
    by_index = dict(enumerate(tr.spans))
    assert any(s[0] == "verify.verify_lhc" and s[4] >= 0
               and by_index[s[4]][0] == "decomposition.decompose" for s in tr.spans)
    share = self_times(tr.spans)
    wall = sum(s[3] - s[2] for s in tr.spans if s[4] < 0)
    assert abs(sum(share.values()) - wall) <= 1e-6 * max(wall, 1.0)
    assert tr.counts["verify.rows_bytes"] > 0
