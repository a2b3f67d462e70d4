"""Time one branch-swap harness trial, whole and by stage.

Prints the median over REPEATS of the microseconds per trial of
``run_branch_swap_harness(TRIALS, SEED)``, and of these stages on the same
seeded instances:

- draw: ``random_branch_swap_instance``, the seeded instance;
- rng: the draw's numpy Generator calls alone, replayed in the draw's order
  with its arguments on the same stream (``replay_rng``): the floor a draw
  cannot go below;
- batch: ``one_sided_costs`` over both checked sides of every drawn
  instance, 2 x TRIALS sides in one call, as the harness costs a chunk;
- match: ``_match`` on each of those sides' costs, as the harness matches
  them.

A trial is the draw, the checks, its share of the batch, its two matches
and the verdicts.

    python tools/trial_timing.py [--trials TRIALS] [--seed SEED]
                                 [--repeats REPEATS]

The package is imported from ``src/`` next to this file. Standard library
and numpy only; nothing is asserted about time. Pin the process to one CPU
(``taskset -c 1``) for steadier medians.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lhckit import bipartite, named_rng  # noqa: E402
from lhckit.verify import _match, one_sided_costs  # noqa: E402


def replay_rng(rng, trials: int) -> None:
    """Make the Generator calls of TRIALS ``random_branch_swap_instance``
    draws at its defaults (3 edges, 3 symbols), in the draw's order and with
    its arguments, and build nothing else."""
    for _ in range(trials):
        a1, a2, x1, x2 = rng.integers(1, 4, size=4).tolist()
        sizes = (a1 * a2, a1 * x2, x1 * a2, x1 * x2)
        edges = int(rng.integers(1, min(3, *sizes) + 1))
        for n in sizes:  # random_partition on each vertex set
            rng.permutation(n)
            if edges > 1:
                rng.choice(n - 1, size=edges - 1, replace=False)
        sharp = rng.integers(2)
        rng.uniform(0.0, 0.3)  # the noise, drawn before random_channel runs
        if sharp:
            rng.integers(x2, size=a2)
        else:
            rng.dirichlet(np.ones(x2), size=a2)
        rng.uniform(0.1, 0.45)  # lam


def checked_sides(drawn) -> list:
    """Both checked sides of each drawn instance, as the harness checks them."""
    return [side for instance in drawn for side in bipartite._branch_swap_sides(*instance)[1]]


def stage_us(trials: int, seed: int) -> dict[str, float]:
    """Microseconds per trial of the harness and of each of its stages."""
    start = time.perf_counter()
    bipartite.run_branch_swap_harness(trials, seed)
    trial = time.perf_counter() - start
    # the harness's own stream, so the stages see its instances
    rng = named_rng(seed, 0x51AB)
    start = time.perf_counter()
    drawn = [bipartite.random_branch_swap_instance(rng) for _ in range(trials)]
    draw = time.perf_counter() - start
    rng = named_rng(seed, 0x51AB)
    start = time.perf_counter()
    replay_rng(rng, trials)
    floor = time.perf_counter() - start
    sides = checked_sides(drawn)
    start = time.perf_counter()
    costs = one_sided_costs(sides)
    batch = time.perf_counter() - start
    start = time.perf_counter()
    for cost in costs:
        _match(cost)
    match = time.perf_counter() - start
    seconds = {"trial": trial, "draw": draw, "rng": floor, "batch": batch, "match": match}
    return {name: 1e6 * s / trials for name, s in seconds.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    runs = [stage_us(args.trials, args.seed) for _ in range(args.repeats)]
    print(f"{'stage':<11} {'us_per_trial':>12}")
    for name in runs[0]:
        print(f"{name:<11} {statistics.median(r[name] for r in runs):>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
