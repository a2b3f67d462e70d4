"""The trial timing tool in tools/ prints a row per stage."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "trial_timing.py"
spec = importlib.util.spec_from_file_location("trial_timing", TOOL)
trial_timing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trial_timing)


def test_prints_a_row_per_stage_at_tiny_sizes(capsys):
    assert trial_timing.main(["--trials", "3", "--seed", "2", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["stage", "us_per_trial"]
    assert [line.split()[0] for line in lines[1:]] == ["trial", "draw", "batch", "match"]
    assert all(float(line.split()[1]) > 0 for line in lines[1:])


def test_stages_see_the_harness_instances():
    """Each drawn instance's two sides give the harness's verdict inputs."""
    from lhckit import bipartite, check_branch_swap, named_rng
    from lhckit.verify import _match, one_sided_costs

    rng = named_rng(2, 0x51AB)
    drawn = [bipartite.random_branch_swap_instance(rng) for _ in range(5)]
    costs = one_sided_costs(trial_timing.checked_sides(drawn))
    for j, (phi, h, g, i, f, lam) in enumerate(drawn):
        report = check_branch_swap(phi, h, g, i, f, lam)
        for cost, mapping, profile in ((costs[2 * j], report.hypothesis_map,
                                        report.hypothesis_profile),
                                       (costs[2 * j + 1], report.conclusion_map,
                                        report.conclusion_profile)):
            got_mapping, picked = _match(cost)
            assert got_mapping == mapping.mapping
            assert np.array(picked).tobytes() == profile.tobytes()
