"""Time one certify benchmark job, whole and by stage.

Prints the median over REPEATS of the microseconds per job of the
benchmark's ``certify`` job, and of its stages on the same seeded
instances (jobs 0 .. JOBS-1 at SEED, cycling through its sizes):

- objects: the channels, hypergraphs, edge map and code built from the
  planted arrays;
- infer_edge_map, verify_lhc: the planted verify instance, matched and
  then certified at its profile;
- decompose: the planted two-stage channel;
- derandomize: the planted code.

Each repeat builds fresh objects and runs the stages in the job's order,
so every hypergraph cache is built where the job builds it. The rest of a
job (planting the arrays) is the job's time less the stages.

    python tools/certify_timing.py [--jobs JOBS] [--seed SEED]
                                   [--repeats REPEATS]

The package is imported from ``src/`` and the workload from
``benchmarks/`` next to this file. Nothing is asserted about time. Pin the
process to one CPU (``taskset -c 1``) for steadier medians.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import lhckit  # noqa: E402
import workloads  # noqa: E402


def planted(seed: int, i: int) -> tuple[dict, dict, dict]:
    """Job i's planted verify, two-stage and code instances, drawn as the
    certify job draws them."""
    v = workloads.CERTIFY_SIZES[i % len(workloads.CERTIFY_SIZES)]
    rng = workloads.job_rng(seed, i)
    pv = workloads.plant_verify(rng, v)
    p2 = workloads.plant_two_stage(rng, v)
    return pv, p2, workloads.plant_code(rng, v, v // 2)


def objects(pv: dict, p2: dict, pc: dict):
    return workloads.verify_objects(pv), workloads.two_stage_objects(p2), \
        workloads.code_object(pc)


def stage_us(jobs: int, seed: int) -> dict[str, float]:
    """Microseconds per job of the certify job and of each of its stages."""
    job = workloads.Certify(seed, ROOT).job  # writes no file
    start = time.perf_counter()
    for i in range(jobs):
        job(i)
    seconds = {"job": time.perf_counter() - start}
    inputs = [planted(seed, i) for i in range(jobs)]

    def timed(name, fn, items):
        start = time.perf_counter()
        out = [fn(*item) for item in items]
        seconds[name] = time.perf_counter() - start
        return out

    built = timed("objects", objects, inputs)
    verify_in = [vobj for vobj, _, _ in built]
    matched = timed("infer_edge_map", lhckit.infer_edge_map, verify_in)
    timed("verify_lhc", lhckit.verify_lhc,
          [(*vobj, f_e, profile) for vobj, (f_e, profile) in zip(verify_in, matched)])
    timed("decompose", lambda kw: lhckit.decompose(**kw), [(kw,) for _, kw, _ in built])
    timed("derandomize", lhckit.derandomize, [(code,) for _, _, code in built])
    return {name: 1e6 * s / jobs for name, s in seconds.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    runs = [stage_us(args.jobs, args.seed) for _ in range(args.repeats)]
    print(f"{'stage':<15} {'us_per_job':>10}")
    for name in runs[0]:
        print(f"{name:<15} {statistics.median(r[name] for r in runs):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
