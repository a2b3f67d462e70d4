"""The certify timing tool in tools/ prints a row per stage."""

import importlib.util
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parents[1] / "tools" / "certify_timing.py"
spec = importlib.util.spec_from_file_location("certify_timing", TOOL)
certify_timing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(certify_timing)


def test_prints_a_row_per_stage_at_tiny_sizes(capsys):
    assert certify_timing.main(["--jobs", "1", "--seed", "2", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["stage", "us_per_job"]
    assert [line.split()[0] for line in lines[1:]] == [
        "job", "objects", "infer_edge_map", "verify_lhc", "decompose", "derandomize"]
    assert all(float(line.split()[1]) > 0 for line in lines[1:])


def test_stages_see_the_job_instances():
    """The stages' planted instances give the certify job's outputs."""
    import lhckit

    for i in range(2):
        out = certify_timing.workloads.Certify(3, TOOL.parent).job(i)
        (ch, src, tgt), two_stage, code = certify_timing.objects(
            *certify_timing.planted(3, i))
        f_e, profile = lhckit.infer_edge_map(ch, src, tgt)
        assert f_e.mapping == out[1] and profile.tobytes() == out[2].tobytes()
        assert lhckit.decompose(**two_stage).intermediate.edges == out[5]
        enc, dec = lhckit.derandomize(code)
        assert np.array_equal(enc.rows, out[9]) and np.array_equal(dec.rows, out[10])
