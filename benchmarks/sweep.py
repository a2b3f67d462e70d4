"""Un-gated size curves for single layers (the ROADMAP baselines table).

Each case times one library call on seeded inputs, ``REPEATS`` times, and
reports the median with every sample. Inputs are built before the clock
starts. The curves are printed one JSON object per line and written with
provenance to ``.bench_build/results/sweep-seed<seed>.json``. No bound is
applied: the sweep shows how each layer grows with its size.
"""

from __future__ import annotations

import json
import statistics
import time

import lhckit
from lhckit import bipartite, bsc_id

import workloads as wk

REPEATS = 5
BSC_N = 200


def _verify(seed: int, v: int):
    p = wk.plant_verify(wk.job_rng(seed, v), v)
    ch, src, tgt = wk.verify_objects(p)
    f_e = lhckit.EdgeMap(wk.EDGES, wk.EDGES, tuple(p["perm"]))
    lam = wk.verify_profile(p)
    return lambda: lhckit.verify_lhc(ch, src, tgt, f_e, lam)


def _infer(seed: int, v: int):
    ch, src, tgt = wk.verify_objects(wk.plant_verify(wk.job_rng(seed, v), v))
    return lambda: lhckit.infer_edge_map(ch, src, tgt)


def _book(seed: int, m: int):
    return lhckit.gen_codebook(BSC_N, wk.BSC_DELTA, m, seed=seed, strategy="random-greedy")


def _exact(seed: int, m: int):
    book = _book(seed, m)
    return lambda: lhckit.exact_error_rates(book, wk.BSC_GAMMA, wk.BSC_EPS)


def _pair_distances(seed: int, m: int):
    return _book(seed, m).pair_distances


def _monte_carlo(seed: int, m: int, trials: int, workers: int):
    book = _book(seed, m)
    return lambda: lhckit.monte_carlo_id(book, wk.BSC_GAMMA, wk.BSC_EPS, trials,
                                         seed=seed, workers=workers)


def _threshold_split(seed: int, n: int):
    return lambda: bsc_id.threshold_split_hypergraph(n, 2.0)


def _harness(seed: int, trials: int):
    return lambda: bipartite.run_branch_swap_harness(trials, seed)


# (case, size label, factory of the timed call, factory arguments after the seed)
CASES = (
    *(("verify_lhc", {"V": v, "edges": wk.EDGES}, _verify, (v,)) for v in (256, 1024, 4096)),
    ("infer_edge_map", {"V": 4096, "edges": wk.EDGES}, _infer, (4096,)),
    *(("exact_error_rates", {"n": BSC_N, "M": m}, _exact, (m,)) for m in (64, 256)),
    ("Codebook.pair_distances", {"n": BSC_N, "M": 256}, _pair_distances, (256,)),
    *(("monte_carlo_id", {"n": BSC_N, "M": 64, "trials": 400_000, "workers": w},
       _monte_carlo, (64, 400_000, w)) for w in (1, 2)),
    ("threshold_split_hypergraph", {"n": 9}, _threshold_split, (9,)),
    ("run_branch_swap_harness", {"trials": 500}, _harness, (500,)),
)


def main(seed: int, provenance: dict, out_dir) -> int:
    rows = []
    for name, size, build, args in CASES:
        thunk = build(seed, *args)
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            thunk()
            samples.append(time.perf_counter() - start)
        row = {"case": name, "size": size, "median_s": statistics.median(samples),
               "samples_s": samples}
        rows.append(row)
        print(json.dumps(row), flush=True)
    out_dir.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = out_dir / "results" / f"sweep-seed{seed}.json"
    path.write_text(json.dumps({"provenance": provenance, "repeats": REPEATS,
                                "curves": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit("run through run.py --sweep, which sets up the import path")
