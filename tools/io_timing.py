"""Time reading and writing the channel files and a falsify dump.

Writes five files to a temporary directory and prints, for each, whether
``read_json`` parses it through its number memo and the median over REPEATS
of reading it (``read_json``, plus ``channel_from_dict`` for a channel) and
of writing it (``write_channel`` for a channel, ``write_json`` for the
dump), in milliseconds:

- sharp: a SIDE x SIDE deterministic map with uniform leakage 0.05, the
  kind of channel the ``verify`` and ``decompose`` inputs hold;
- bsc-pair: ``restricted_pair_channel`` of 3 codewords of length N at
  gamma 0.03, (3 * 3) x 4^N entries, the ``assemble-id`` channel;
- dense: SIDE x SIDE Dirichlet rows, every value distinct;
- 3x3: Dirichlet rows;
- dump: the ``falsify`` output of the CLI with TRIALS trials.

    python tools/io_timing.py [--side SIDE] [--n N] [--trials TRIALS]
                              [--repeats REPEATS]

The package is imported from ``src/`` next to this file. Standard library
and numpy only; nothing is asserted about time.
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from lhckit import Alphabet, Channel, bsc_id, cli, jsonio  # noqa: E402


def channels(side: int, n: int) -> dict[str, Channel]:
    rng = np.random.default_rng(16)
    square = Alphabet.of_size(side, "x"), Alphabet.of_size(side, "y")
    sharp = np.full((side, side), 0.05 / side)
    sharp[np.arange(side), rng.permutation(side)] += 0.95
    three = Alphabet.of_size(3, "x"), Alphabet.of_size(3, "y")
    return {
        "sharp": Channel(*square, sharp),
        "bsc-pair": bsc_id.restricted_pair_channel(bsc_id.gen_codebook(n, 0.5, 3), 0.03),
        "dense": Channel(*square, rng.dirichlet(np.ones(side), size=side)),
        "3x3": Channel(*three, rng.dirichlet(np.ones(3), size=3)),
    }


def memo(path: Path) -> str:
    """Whether ``read_json`` parses the file's numbers through its memo."""
    return "yes" if jsonio._parse_float(path.read_text(encoding="utf-8")) else "no"


def median_ms(action, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", type=int, default=256)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--trials", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        dump = d / "dump.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["falsify", "--trials", str(args.trials), "--seed", "4",
                      "--out", str(dump)])
        payload = jsonio.read_json(dump)
        print(f"{'file':<10} {'bytes':>9} {'memo':>5} {'read_ms':>9} {'write_ms':>9}")
        for name, c in channels(args.side, args.n).items():
            path = d / f"{name}.json"
            write_ms = median_ms(lambda: jsonio.write_channel(path, c), args.repeats)
            read_ms = median_ms(
                lambda: jsonio.channel_from_dict(jsonio.read_json(path)), args.repeats)
            print(f"{name:<10} {path.stat().st_size:>9} {memo(path):>5} {read_ms:>9.3f} "
                  f"{write_ms:>9.3f}")
        write_ms = median_ms(lambda: jsonio.write_json(dump, payload), args.repeats)
        read_ms = median_ms(lambda: jsonio.read_json(dump), args.repeats)
        print(f"{'dump':<10} {dump.stat().st_size:>9} {memo(dump):>5} {read_ms:>9.3f} "
              f"{write_ms:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
