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
    assert lines[0].split() == ["file", "bytes", "read_ms", "write_ms"]
    assert [line.split()[0] for line in lines[1:]] == ["sharp", "bsc-pair", "dense",
                                                       "3x3", "dump"]
    assert all(int(line.split()[1]) > 0 for line in lines[1:])
