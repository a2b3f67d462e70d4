"""The I/O timing tool in tools/ writes and reads each of its files."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "io_timing.py"
spec = importlib.util.spec_from_file_location("io_timing", TOOL)
io_timing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(io_timing)


def test_prints_a_row_per_file_at_tiny_sizes(capsys):
    assert io_timing.main(["--side", "4", "--n", "2", "--trials", "8",
                           "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["file", "bytes", "memo", "read_ms", "write_ms"]
    assert [line.split()[0] for line in lines[1:]] == ["sharp", "bsc-pair", "dense",
                                                       "3x3", "dump"]
    assert all(int(line.split()[1]) > 0 for line in lines[1:])


def test_memo_column_names_the_files_read_through_the_memo(capsys):
    """The sharp and pair channels repeat a few number texts; the dense and
    3x3 channels and the dump do not, or are too short to be sampled."""
    assert io_timing.main(["--side", "128", "--n", "5", "--trials", "8",
                           "--repeats", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert {row[0]: row[2] for row in rows} == {
        "sharp": "yes", "bsc-pair": "yes", "dense": "no", "3x3": "no", "dump": "no"}
