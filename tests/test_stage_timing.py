"""The stage timing tool in tools/ prints a row per stage of the instances
the benchmark's jobs and the harness see."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_timing.py"
spec = importlib.util.spec_from_file_location("stage_timing", TOOL)
stage_timing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stage_timing)


def outputs(group, seed: int) -> dict:
    """What each stage of a group returns, run once and untimed."""
    out = {}

    def stage(name, action, memo_text="-"):
        out[name] = action()
        return out[name]

    group(seed, stage)
    return out


def test_prints_a_row_per_stage_in_order(capsys):
    """The sharp and pair channels repeat a few number texts; the dense and
    3x3 channels and the dump do not, or are too short to be sampled."""
    assert stage_timing.main(["--seed", "2", "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["group", "stage", "raw_us", "ref_us", "memo"]
    rows = [line.split() for line in lines[1:]]
    files = ["sharp", "bsc-pair", "dense", "3x3", "dump"]
    assert [row[1] for row in rows] == [
        "job", "objects", "infer_edge_map", "verify_lhc", "decompose", "derandomize",
        "trial", "draw", "rng", "batch", "match",
        *[f"{op}:{name}" for name in files for op in ("write", "read")]]
    assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows)
    assert {row[1]: row[4] for row in rows if row[1].startswith("read:")} == {
        "read:sharp": "yes", "read:bsc-pair": "yes", "read:dense": "no",
        "read:3x3": "no", "read:dump": "no"}


@pytest.mark.parametrize("flag, value, low", [("--rounds", "0", 1), ("--rounds", "-1", 1),
                                              ("--seed", "-1", 0)])
def test_a_value_below_the_floor_is_a_usage_error(flag, value, low, capsys):
    with pytest.raises(SystemExit) as exit_info:
        stage_timing.main([flag, value])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"{flag}: must be at least {low}, not {value}" in errors[0]


def test_certify_stages_see_the_job_instances():
    """The stages' planted instances give the certify job's outputs."""
    out = outputs(stage_timing.certify, 3)
    for i in range(2):
        job = out["job"][i]
        f_e, profile = out["infer_edge_map"][i]
        assert f_e.mapping == job[1] and profile.tobytes() == job[2].tobytes()
        assert out["decompose"][i].intermediate.edges == job[5]
        enc, dec = out["derandomize"][i]
        assert np.array_equal(enc.rows, job[9]) and np.array_equal(dec.rows, job[10])


def test_falsify_stages_see_the_harness_instances():
    """The draws are the harness's trials, and each drawn instance's two
    sides give the harness's verdict inputs."""
    from lhckit import check_branch_swap

    out = outputs(stage_timing.falsify, 2)
    reports = [check_branch_swap(*instance) for instance in out["draw"]]
    assert sum(r.hypothesis_holds for r in reports) == out["trial"].hypothesis_held
    assert sum(r.conclusion_holds for r in reports) == out["trial"].conclusion_held
    for j, report in enumerate(reports[:5]):
        for (mapping, picked), want_map, want_profile in (
                (out["match"][2 * j], report.hypothesis_map, report.hypothesis_profile),
                (out["match"][2 * j + 1], report.conclusion_map, report.conclusion_profile)):
            assert mapping == want_map.mapping
            assert np.array(picked).tobytes() == want_profile.tobytes()


def test_replay_leaves_the_stream_where_the_draws_do():
    """The replayed calls of 200 draws use a fresh stream as the draws do,
    draw by draw: two copies of a stream a few calls apart can fall back
    into step, so the state after the last draw alone would miss a call
    lost early."""
    from lhckit import bipartite, named_rng

    for seed in (0, 1, 2):
        recorder = stage_timing.Recorder(named_rng(seed, stage_timing.STREAM))
        replayed = named_rng(seed, stage_timing.STREAM)
        for _ in range(200):
            bipartite.random_branch_swap_instance(recorder)
            stage_timing.replay(recorder.calls, replayed)
            recorder.calls.clear()
            assert replayed.bit_generator.state == recorder.rng.bit_generator.state
        assert outputs(stage_timing.falsify, seed)["rng"].bit_generator.state == \
            replayed.bit_generator.state
