"""Time the certify job, the falsify trial and the file I/O, stage by stage.

Each of ROUNDS rounds builds fresh objects and runs every stage below once,
in order, each between the calibrations of ``benchmarks/run.py``'s
``to_reference``; an io stage runs k calls there, k chosen from one
untimed call before them so that the k calls last about 1 ms. One table
follows: per stage, the median over the rounds of its raw microseconds and
of its reference microseconds (the raw time scaled by how much slower than
its reference time the calibration kernel ran, as the benchmark scales its
jobs), per job, trial or call.

- certify, per job: jobs 0 .. 9 of the benchmark's ``certify`` job at SEED.
  ``job`` is the whole job; ``objects`` builds the channels, hypergraphs
  and code from the planted arrays (planted outside the timer);
  ``infer_edge_map`` and ``verify_lhc`` match and certify the planted
  verify instance; ``decompose`` splits the planted two-stage channel;
  ``derandomize`` runs on the planted code.
- falsify, per trial: ``run_branch_swap_harness(200, SEED)`` (``trial``),
  and on its instances: ``draw``, the 200 ``random_branch_swap_instance``
  calls; ``rng``, the numpy Generator calls those draws made, recorded on
  a stream of their own and replayed on a fresh one, the floor a draw
  cannot go below; ``batch``, ``one_sided_costs`` over both checked sides
  of every instance in one call; ``match``, ``_match`` on each side's
  costs.
- io, per call: ``write:NAME`` and ``read:NAME`` (``write_channel`` and
  ``channel_from_dict(read_json)``, or ``write_json`` and ``read_json``
  for the dump) of five files in a temporary directory: ``sharp``, a
  256 x 256 deterministic map with uniform leakage 0.05; ``bsc-pair``,
  ``restricted_pair_channel`` of 3 codewords of length 6 at gamma 0.03;
  ``dense``, 256 x 256 Dirichlet rows; ``3x3``, Dirichlet rows; ``dump``,
  the CLI's ``falsify`` output of 60 trials. Its ``memo`` column says
  whether ``read_json`` parses the file's numbers through its memo. The
  files do not depend on SEED.

    python tools/stage_timing.py [--seed SEED] [--rounds ROUNDS]

The package is imported from ``src/`` and the workloads and ``run`` from
``benchmarks/`` next to this file. Nothing is asserted about time. Pin the
process to one CPU (``taskset -c 1``) for steadier medians.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import lhckit  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lhckit import Alphabet, Channel, bipartite, bsc_id, cli, jsonio, named_rng  # noqa: E402
from lhckit.verify import _match, one_sided_costs  # noqa: E402

JOBS, TRIALS, SIDE, N, DUMP_TRIALS = 10, 200, 256, 6, 60
STREAM = 0x51AB  # the stream part of run_branch_swap_harness's Generator
IO_SECONDS = 1e-3  # about how long an io stage's k calls last


def planted(seed: int, i: int) -> tuple[dict, dict, dict]:
    """Job i's planted verify, two-stage and code instances, drawn as the
    certify job draws them."""
    v = workloads.CERTIFY_SIZES[i % len(workloads.CERTIFY_SIZES)]
    rng = workloads.job_rng(seed, i)
    return (workloads.plant_verify(rng, v), workloads.plant_two_stage(rng, v),
            workloads.plant_code(rng, v, v // 2))


def certify(seed: int, stage) -> None:
    job = workloads.Certify(seed, ROOT).job  # writes no file
    stage("job", lambda: [job(i) for i in range(JOBS)])
    inputs = [planted(seed, i) for i in range(JOBS)]
    built = stage("objects", lambda: [
        (workloads.verify_objects(pv), workloads.two_stage_objects(p2),
         workloads.code_object(pc)) for pv, p2, pc in inputs])
    matched = stage("infer_edge_map", lambda: [lhckit.infer_edge_map(*v) for v, _, _ in built])
    stage("verify_lhc", lambda: [lhckit.verify_lhc(*v, f_e, profile)
                                 for (v, _, _), (f_e, profile) in zip(built, matched)])
    stage("decompose", lambda: [lhckit.decompose(**kw) for _, kw, _ in built])
    stage("derandomize", lambda: [lhckit.derandomize(code) for _, _, code in built])


class Recorder:
    """Passes each call on to a Generator and logs its method and arguments."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.calls = rng, []

    def __getattr__(self, name: str):
        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return getattr(self.rng, name)(*args, **kwargs)
        return call


def replay(calls: list, rng: np.random.Generator) -> np.random.Generator:
    for name, args, kwargs in calls:
        getattr(rng, name)(*args, **kwargs)
    return rng


def falsify(seed: int, stage) -> None:
    stage("trial", lambda: bipartite.run_branch_swap_harness(TRIALS, seed))
    # the harness's own stream, so the stages see its instances
    rng = named_rng(seed, STREAM)
    drawn = stage("draw", lambda: [bipartite.random_branch_swap_instance(rng)
                                   for _ in range(TRIALS)])
    recorder = Recorder(named_rng(seed, STREAM))
    for _ in range(TRIALS):
        bipartite.random_branch_swap_instance(recorder)
    fresh = named_rng(seed, STREAM)
    stage("rng", lambda: replay(recorder.calls, fresh))
    sides = [side for instance in drawn
             for side in bipartite._branch_swap_sides(*instance)[1]]
    costs = stage("batch", lambda: one_sided_costs(sides))
    stage("match", lambda: [_match(cost) for cost in costs])


def channels() -> dict[str, Channel]:
    rng = np.random.default_rng(16)
    square = Alphabet.of_size(SIDE, "x"), Alphabet.of_size(SIDE, "y")
    sharp = np.full((SIDE, SIDE), 0.05 / SIDE)
    sharp[np.arange(SIDE), rng.permutation(SIDE)] += 0.95
    three = Alphabet.of_size(3, "x"), Alphabet.of_size(3, "y")
    return {
        "sharp": Channel(*square, sharp),
        "bsc-pair": bsc_id.restricted_pair_channel(bsc_id.gen_codebook(N, 0.5, 3), 0.03),
        "dense": Channel(*square, rng.dirichlet(np.ones(SIDE), size=SIDE)),
        "3x3": Channel(*three, rng.dirichlet(np.ones(3), size=3)),
    }


def memo(path: Path) -> str:
    """Whether ``read_json`` parses the file's numbers through its memo."""
    return "yes" if jsonio._parse_float(path.read_text(encoding="utf-8")) else "no"


def files(seed: int, stage) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, c in channels().items():
            path = d / f"{name}.json"
            stage(f"write:{name}", lambda: jsonio.write_channel(path, c))
            stage(f"read:{name}", lambda: jsonio.channel_from_dict(jsonio.read_json(path)),
                  memo(path))
        dump = d / "dump.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["falsify", "--trials", str(DUMP_TRIALS), "--seed", "4",
                      "--out", str(dump)])
        payload = jsonio.read_json(dump)
        stage("write:dump", lambda: jsonio.write_json(dump, payload))
        stage("read:dump", lambda: jsonio.read_json(dump), memo(dump))


# each group, the count its stage times are divided by (None: the k calls
# of an io stage), and its stages
GROUPS = (("certify", JOBS, certify), ("falsify", TRIALS, falsify), ("io", None, files))


def seconds_of(action, calls: int) -> tuple:
    """Run action calls times: its last output, and the seconds all calls took."""
    start = time.perf_counter()
    for _ in range(calls):
        out = action()
    return out, time.perf_counter() - start


def one_round(seed: int) -> dict[str, tuple]:
    """Each stage's group, raw and reference microseconds and memo column."""
    rows: dict[str, tuple] = {}
    for group, per, stages in GROUPS:
        def stage(name, action, memo_text="-"):
            calls = 1
            if per is None:
                calls = max(1, round(IO_SECONDS / seconds_of(action, 1)[1]))
            (out, seconds), factor = run.to_reference(lambda: seconds_of(action, calls))
            us = 1e6 * seconds / (per or calls)
            rows[name] = (group, us, us * factor, memo_text)
            return out
        stages(seed, stage)
    return rows


def at_least(low: int):
    """An argparse type: an integer of at least LOW, or a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    return integer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=at_least(0), default=1)
    parser.add_argument("--rounds", type=at_least(1), default=5)
    args = parser.parse_args(argv)
    runs = [one_round(args.seed) for _ in range(args.rounds)]
    print(f"{'group':<8} {'stage':<15} {'raw_us':>10} {'ref_us':>10} {'memo':>5}")
    for name, (group, _, _, memo_text) in runs[0].items():
        raw, ref = (statistics.median(r[name][k] for r in runs) for k in (1, 2))
        print(f"{group:<8} {name:<15} {raw:>10.1f} {ref:>10.1f} {memo_text:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
