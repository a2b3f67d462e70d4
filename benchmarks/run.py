"""lhc-kit benchmark: four seeded closed-loop workloads through the public API.

Gated runs, one workload each, from the root of a checkout:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 14 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced); ``--trace 1``
prints the per-layer metrics of a traced run. The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a readable
report with provenance goes to stderr and a JSON record (plus the spans of
a traced run) to ``.bench_build/results/``. The package is imported from
``src/`` of the checkout and nowhere else; without it the run exits 2.

End-to-end times are in reference seconds. The speed of a shared host
drifts by up to 1.8x within a minute, so a gated run pins itself to one
CPU and brackets every timed piece of work with a fixed reference task
that uses no lhckit code, and scales the work's time by how much slower
than its reference time that task ran:

- a job or a set-up, in process: a calibration kernel, ``CAL_REF_MS``;
- a cold start (a fresh interpreter running the CLI), and the import time
  reported from inside it: a fresh interpreter that imports a fixed set of
  standard-library modules, ``PROC_REF_MS``. Start-up cost follows the
  host differently from compute, so it needs a reference of its own kind.

A change to lhckit moves the work and not the reference, so it shows in
full. The raw wall-clock figures and the host speed are in the stderr
report and the JSON record.

Un-gated size curves (the ROADMAP baselines):

    python3 benchmarks/run.py --sweep [--seed 1]
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"

SETUP_REPEATS = 3  # set-ups per run; setup_s reports their median
CAL_REF_MS = 1.5  # calibration-kernel time that defines the reference speed
CAL_AROUND = 10  # calibrations on each side of a set-up
PROC_REF_MS = 100.0  # reference start-up time that defines the reference speed
PROC_AROUND = 2  # reference start-ups on each side of a cold start
COLD_REPEATS = 7  # fresh-interpreter CLI runs per run; cold_start_ms is their median
COLD_TIMEOUT_S = 20
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_cpus(pin: bool) -> dict:
    """Choose CPUs and BLAS threads; must run before numpy loads.

    A gated run pins itself (and the CLI runs it starts) to one CPU with
    one BLAS thread, so jobs, cold starts and the calibration kernel all
    run on the same core and the kernel sees the host speed the work saw.
    The sweep keeps every usable CPU, for its two-worker case.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if pin:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    for var in BLAS_VARS:
        os.environ[var] = str(len(cpus))
    return {"cpus_used": cpus, "blas_threads": len(cpus)}


def import_library() -> float:
    """Import lhckit (and numpy/scipy under it) from the checkout; seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lhckit
    import lhckit.cli  # noqa: F401  (the CLI layer is part of every set-up)
    took = time.perf_counter() - start
    if Path(lhckit.__file__).resolve().parent != SRC / "lhckit":
        raise SystemExit(f"error: lhckit loaded from {lhckit.__file__}, not {SRC}")
    return took


def calibrate(_x=[]) -> float:
    """Seconds taken by a fixed kernel that mixes what the jobs do.

    Interpreter work (dict updates, string building), many small numpy
    calls and one pass over a 4096-float vector; no lhckit code, so no
    change to the library can move it.
    """
    import numpy as np

    if not _x:
        _x.append(np.linspace(0.0, 1.0, 4096))
    a = _x[0]
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i
    ",".join(str(i) for i in range(2000))
    for _ in range(150):
        float(np.exp(a[:64]).sum())
    float(np.sin(a) @ np.cos(a))
    return time.perf_counter() - start


def to_reference(timed, repeats: int = CAL_AROUND) -> tuple:
    """Run ``timed()`` between calibrations.

    Returns its result and the factor that turns its seconds into
    reference seconds.
    """
    cal = [calibrate() for _ in range(repeats)]
    out = timed()
    cal += [calibrate() for _ in range(repeats)]
    return out, CAL_REF_MS * 1e-3 / statistics.median(cal)


def git_commit() -> str:
    """Commit of the checkout, read from .git without searching parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(cpus: dict, seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **cpus, "git_commit": git_commit(),
            "seed": seed, "sizes": sizes}


def run_jobs(wl, jobs, deadline=None, tracer=None, calibrated=False) -> dict:
    """Closed loop, one client: each job starts when the previous returned.

    Job latency covers the library work only; the oracle runs after the
    clock stops and its time is taken out of the loop's wall time. With
    ``calibrated``, the calibration kernel runs before the first job and
    after each job (outside the wall time), and ``ref`` holds each job's
    latency scaled by the mean of the calibrations on either side of it.
    """
    lat, failed, completed, check_s, errors = [], 0, 0, 0.0, []
    cal = [calibrate()] if calibrated else []
    start = time.perf_counter()
    for i in jobs:
        if tracer is not None:
            tracer.job, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            out, ok = wl.job(i), True
        except Exception as exc:  # a raising job is a failed job, not a crash
            out, ok = None, False
            errors.append(f"job {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        lat.append(t1 - t0)
        completed += ok
        if ok:
            try:
                ok, reason = bool(wl.check(i, out)), "result failed its oracle"
            except Exception as exc:
                ok, reason = False, f"oracle raised {type(exc).__name__}: {exc}"
            if not ok:
                errors.append(f"job {i}: {reason}")
        failed += not ok
        if calibrated:
            cal.append(calibrate())
        check_s += time.perf_counter() - t1
        if deadline is not None and time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start - check_s
    ref = [t * CAL_REF_MS * 2e-3 / (c0 + c1) for t, c0, c1 in zip(lat, cal, cal[1:])]
    return {"lat": lat, "ref": ref, "cal": cal, "attempted": len(lat),
            "completed": completed, "failed": failed, "wall": wall, "errors": errors[:5]}


# ``python -m lhckit.cli ARGS`` that also reports how long the import took
COLD_MAIN = ("import sys, time; t = time.perf_counter(); import lhckit.cli; "
             "print('import_s', time.perf_counter() - t, file=sys.stderr); "
             "sys.exit(lhckit.cli.main(sys.argv[1:]))")
# the reference start-up: a fresh interpreter importing only standard modules
PROC_REF = "import argparse, csv, decimal, email.parser, fractions, json"


def interpreter(args, cwd, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=COLD_TIMEOUT_S)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-400:]!r}")
    return took, proc


def cold_start(wl) -> tuple[float, float, float]:
    """One CLI run in a fresh interpreter, between reference start-ups.

    Returns its wall seconds, the seconds it spent importing lhckit.cli,
    and the factor that turns both into reference seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ref = [interpreter(["-c", PROC_REF], wl.workdir, env)[0] for _ in range(PROC_AROUND)]
    took, proc = interpreter(["-c", COLD_MAIN, *wl.cold_args()], wl.workdir, env)
    ref += [interpreter(["-c", PROC_REF], wl.workdir, env)[0] for _ in range(PROC_AROUND)]
    import_s = float(proc.stderr.split("import_s ", 1)[1].split()[0])
    return took, import_s, PROC_REF_MS * 1e-3 / statistics.median(ref)


def timed_setup(wl) -> float:
    start = time.perf_counter()
    wl.setup()
    return time.perf_counter() - start


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(wl, seconds: float, import_s: float) -> tuple[dict, dict, list]:
    """End-to-end metrics; every time is in reference seconds (module docstring).

    The import part of setup_s is measured in the cold-start interpreters,
    so that it too is a median of several.
    """
    setups = [to_reference(lambda: timed_setup(wl)) for _ in range(SETUP_REPEATS)]
    # The timed loop runs in slices with one cold start after each, so both
    # sample the whole run rather than one stretch of a noisy host.
    jobs, parts, cold, errors = itertools.count(), [], [], []
    for _ in range(COLD_REPEATS):
        parts.append(run_jobs(wl, jobs, time.perf_counter() + seconds / COLD_REPEATS,
                              calibrated=True))
        errors += parts[-1]["errors"]
        try:
            cold.append(cold_start(wl))
        except (RuntimeError, subprocess.SubprocessError, IndexError, ValueError) as exc:
            cold.append((float("nan"),) * 3)
            errors.append(f"cold start: {exc}")
    loop = {k: sum((p[k] for p in parts), [] if k in ("lat", "ref", "cal") else 0)
            for k in ("lat", "ref", "cal", "attempted", "completed", "failed", "wall")}
    ref_ms = [x * 1e3 for x in loop["ref"]]
    metrics = {
        "setup_s": (statistics.median(i * k for _, i, k in cold)
                    + statistics.median(t * k for t, k in setups), "s"),
        "jobs_per_s": (loop["completed"] / sum(loop["ref"]), "1/s"),
        "job_p50_ms": (statistics.median(ref_ms), "ms"),
        "job_p90_ms": (percentile(ref_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cold_start_ms": (statistics.median(t * k for t, _, k in cold) * 1e3, "ms"),
    }
    lat_ms = [x * 1e3 for x in loop["lat"]]
    detail = {"failed_frac": loop["failed"] / loop["attempted"],
              "latency_samples": loop["attempted"],
              "samples_beyond_p90": sum(x > metrics["job_p90_ms"][0] for x in ref_ms),
              "host_speed": CAL_REF_MS * 1e-3 / statistics.median(loop["cal"]),
              "wall_setup_s": (statistics.median(i for _, i, _ in cold)
                               + statistics.median(t for t, _ in setups)),
              "wall_jobs_per_s": loop["completed"] / loop["wall"],
              "wall_job_p50_ms": statistics.median(lat_ms),
              "wall_job_p90_ms": percentile(lat_ms, 90),
              "wall_cold_start_ms": statistics.median(t for t, _, _ in cold) * 1e3,
              "parent_import_s": import_s, "setup_repeats_s": setups,
              "cold_starts_s_import_s_scale": cold,
              "loop_wall_s": loop["wall"], "calibration_s": loop["cal"],
              "latencies_ms": lat_ms, "reference_latencies_ms": ref_ms}
    return metrics, {**loop, "detail": detail}, errors


def traced(wl, seconds: float) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes over one fixed job cycle.

    Every pass runs jobs 0 .. pass_jobs-1, so counts per pass repeat
    exactly for a seed. Per-layer numbers are per traced pass; the untraced
    passes give the in-process CLI latencies and the overhead baseline.
    """
    from tracer import LAYERS, Tracer, calls, self_times

    wl.setup()
    tr = Tracer()
    deadline = time.perf_counter() + seconds
    plain, spanned, by_cmd = [], [], {}
    self_s, n_calls, n_spans, kept = Counter(), Counter(), 0, None
    attempted = failed = 0
    errors = []
    while not plain or not spanned or time.perf_counter() < deadline:
        for tracing in (False, True):
            if tracing:
                tr.install()
            try:
                loop = run_jobs(wl, range(wl.pass_jobs), tracer=tr if tracing else None)
            finally:
                tr.uninstall()
            attempted, failed = attempted + loop["attempted"], failed + loop["failed"]
            errors += loop["errors"]
            if tracing:
                spanned.append(loop["wall"])
                self_s.update(self_times(tr.spans))
                n_calls.update(calls(tr.spans))
                n_spans += len(tr.spans)
                kept = kept or tr.spans  # spans of the first traced pass are written
                tr.spans = []
            else:
                plain.append(loop["wall"])
                for i, t in enumerate(loop["lat"]):
                    by_cmd.setdefault(i, []).append(t * 1e3)
    passes, traced_wall, c = len(spanned), sum(spanned), tr.counts

    def rate(count: str, seconds_key: str) -> float:
        return c[count] / c[seconds_key] if c[seconds_key] else 0.0

    m: dict[str, tuple] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (n_calls[layer] / passes, "count")
        m[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
        m[f"{layer}.self_share"] = (self_s[layer] / traced_wall, "ratio")
    for layer in ("verify", "decomposition"):
        m[f"{layer}.rows_bytes"] = (c[f"{layer}.rows_bytes"] / passes, "B")
        m[f"{layer}.rows_bytes_per_s"] = (rate(f"{layer}.rows_bytes", f"{layer}.entry_s"), "B/s")
    m["hypergraph.incidences"] = (c["hypergraph.incidences"] / passes, "count")
    m["channel.entries_built"] = (c["channel.entries_built"] / passes, "count")
    m["bsc_id.pairs"] = (c["bsc_id.pairs"] / passes, "count")
    m["bsc_id.pairs_per_s"] = (rate("bsc_id.pairs", "bsc_id.pairs_s"), "1/s")
    m["bsc_id.mc_trials"] = (c["bsc_id.mc_trials"] / passes, "count")
    m["bsc_id.mc_trials_per_s"] = (rate("bsc_id.mc_trials", "bsc_id.mc_s"), "1/s")
    m["bipartite.instances"] = (c["bipartite.instances"] / passes, "count")
    m["bipartite.instances_per_s"] = (rate("bipartite.instances", "bipartite.instances_s"), "1/s")
    m["jsonio.bytes_read"] = (c["jsonio.bytes_read"] / passes, "B")
    m["jsonio.bytes_written"] = (c["jsonio.bytes_written"] / passes, "B")
    m["jsonio.read_bytes_per_s"] = (rate("jsonio.bytes_read", "jsonio.read_s"), "B/s")
    m["jsonio.write_bytes_per_s"] = (rate("jsonio.bytes_written", "jsonio.write_s"), "B/s")
    from workloads import Cli
    for i, cmd in enumerate(Cli.COMMANDS):
        samples = by_cmd[i] if isinstance(wl, Cli) else [0.0]
        m[f"cli.{cmd}_ms"] = (statistics.median(samples), "ms")
    m["cli.nonzero_exits"] = (getattr(wl, "nonzero_exits", 0), "count")
    m["trace.spans"] = (n_spans / passes, "count")
    overhead = statistics.median(spanned) / statistics.median(plain) - 1.0
    m["trace.overhead_frac"] = (overhead, "ratio")
    detail = {"passes": passes, "pass_jobs": wl.pass_jobs,
              "untraced_pass_s": plain, "traced_pass_s": spanned}
    return m, {"attempted": attempted, "failed": failed, "detail": detail,
               "spans": kept}, errors


def write_record(name: str, record: dict, spans=None) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans is not None:
        with gzip.open(results / f"{name}.spans.tsv.gz", "wt", encoding="utf-8") as fh:
            fh.write("name\tmodule\tstart\tend\tparent\tjob\n")
            for s in spans:
                fh.write("%s\t%s\t%.9f\t%.9f\t%d\t%d\n" % s)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="print the un-gated size curves instead of a gated run")
    args = parser.parse_args(argv)
    if not (SRC / "lhckit" / "__init__.py").is_file():
        print(f"error: no lhckit sources under {SRC}", file=sys.stderr)
        return 2
    cpus = set_cpus(pin=not args.sweep)
    import_s = import_library()
    sys.path.insert(0, str(HERE))
    if args.sweep:
        import sweep
        return sweep.main(args.seed, provenance(cpus, args.seed, {}), OUT)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            metrics, loop, errors = traced(wl, args.seconds)
        else:
            metrics, loop, errors = untraced(wl, args.seconds, import_s)
    finally:
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not errors and loop["failed"] == 0 and all(
        v == v for v, _ in metrics.values())  # NaN marks a failed measurement
    result = {"correct": correct, "attempted": loop["attempted"], "failed": loop["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    prov = provenance(cpus, args.seed, wl.sizes())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = write_record(name, {**result, "workload": args.workload,
                                 "provenance": prov, "detail": loop["detail"],
                                 "errors": errors}, loop.get("spans"))
    report = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"correct {correct}  attempted {loop['attempted']}  failed {loop['failed']}"]
    report += [f"  {k:32s} {v:14.6g} {u}" for k, (v, u) in metrics.items()]
    report += [f"  {k:32s} {v}" for k, v in loop["detail"].items()
               if not isinstance(v, list)]
    report += [f"  provenance {json.dumps(prov, sort_keys=True)}", f"  record {record}"]
    report += [f"  error: {e}" for e in errors[:10]]
    print("\n".join(report), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
