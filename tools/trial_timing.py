"""Time one branch-swap harness trial, whole and by stage.

Prints the median over REPEATS of the microseconds per trial of
``run_branch_swap_harness(TRIALS, SEED)``, and of these stages on the same
seeded instances:

- draw: ``random_branch_swap_instance``, the seeded instance;
- hypothesis: id x phi from hyper_h to hyper_g, checked, costed from phi's
  rows and matched by ``infer_one_sided_edge_map``, one side at a time;
- conclusion: id x phi from hyper_i to hyper_f, likewise;
- batch: ``one_sided_costs`` over both checked sides of every drawn
  instance, 2 x TRIALS sides in one call, as the harness costs a chunk;
- match: ``_bottleneck_assignment`` on each of those sides' costs, as the
  harness matches them.

hypothesis and conclusion each cost their sides one kernel call apiece, so
with batch they show what one call per side costs against one per chunk.
The harness does not pay them: a trial is the draw, the checks, its share
of the batch, its two matches and the verdicts.

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

from lhckit import bipartite, named_rng, split_product_alphabet  # noqa: E402
from lhckit.verify import (_bottleneck_assignment, infer_one_sided_edge_map,  # noqa: E402
                           one_sided_costs)


def side(phi, source, target):
    """One side of the swap: id x phi from source to target, matched."""
    first = split_product_alphabet(source.vertices, phi.input)
    return infer_one_sided_edge_map(phi, first, source, target)


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
    start = time.perf_counter()
    for phi, h, g, _, _, _ in drawn:
        side(phi, h, g)
    hypothesis = time.perf_counter() - start
    start = time.perf_counter()
    for phi, _, _, i, f, _ in drawn:
        side(phi, i, f)
    conclusion = time.perf_counter() - start
    sides = checked_sides(drawn)
    start = time.perf_counter()
    costs = one_sided_costs(sides)
    batch = time.perf_counter() - start
    start = time.perf_counter()
    for cost in costs:
        _bottleneck_assignment(cost)
    match = time.perf_counter() - start
    seconds = {"trial": trial, "draw": draw, "hypothesis": hypothesis,
               "conclusion": conclusion, "batch": batch, "match": match}
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
