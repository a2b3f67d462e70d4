"""Error profiles at certify sizes keep their bits.

Tier-1's other profile tests run on a handful of vertices, where every
masked max and column sum has only a few terms. At V = 96 and V = 224 the
summation order of ``edge_mass``, ``per_vertex_success`` and the composite
product matters, so the profiles here are pinned bit for bit, as float
hex, against ``tests/data/certify/golden.profiles.json``.

To rewrite the golden from a given checkout of the package:

    PYTHONPATH=src python tests/test_profiles_at_size.py > tests/data/certify/golden.profiles.json
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from lhckit import (
    Alphabet,
    Channel,
    EdgeMap,
    FunctionCode,
    FunctionTable,
    Hypergraph,
    code_error_profile,
    infer_edge_map,
    lambda_profile,
)
from lhckit.verify import edge_cost_matrix

GOLDEN = Path(__file__).parent / "data" / "certify" / "golden.profiles.json"
SIZES = (96, 224)
EDGES = 8
LEAK = 0.05


def _partition(rng, n: int, k: int) -> tuple[tuple[int, ...], ...]:
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return tuple(tuple(sorted(int(v) for v in b)) for b in np.split(order, cuts))


def _sharp_rows(rng, n_out: int, targets) -> np.ndarray:
    """One hot target per row plus a random leakage of total mass LEAK."""
    targets = np.asarray(targets)
    rows = rng.random((targets.size, n_out))
    rows *= LEAK / rows.sum(axis=1, keepdims=True)
    rows[np.arange(targets.size), targets] += 1.0 - LEAK
    return rows


def _instance(v: int):
    """A planted partition channel and a code for a -> a mod 8 on V/2 messages."""
    rng = np.random.default_rng([v, 12])
    a, b = Alphabet.of_size(v, "a"), Alphabet.of_size(v, "b")
    src, tgt = _partition(rng, v, EDGES), _partition(rng, v, EDGES)
    perm = rng.permutation(EDGES)
    targets = np.empty(v, dtype=np.int64)
    for i, block in enumerate(src):
        dst = np.asarray(tgt[perm[i]])
        targets[list(block)] = dst[rng.integers(dst.size, size=len(block))]
    phi = Channel(a, b, _sharp_rows(rng, v, targets))

    m = v // 2
    msgs, vals = Alphabet.of_size(m, "m"), Alphabet.of_size(EDGES, "f")
    x, y = Alphabet.of_size(v, "x"), Alphabet.of_size(v, "y")
    xs = rng.permutation(v)[:m]
    chan_perm = rng.permutation(v)
    dec_t = rng.integers(EDGES, size=v)
    dec_t[chan_perm[xs]] = np.arange(m) % EDGES
    code = FunctionCode(
        encoder=Channel(msgs, x, _sharp_rows(rng, v, xs)),
        decoder=Channel(y, vals, _sharp_rows(rng, EDGES, dec_t)),
        f=FunctionTable(msgs, vals, tuple(int(i) % EDGES for i in range(m))),
        channel=Channel(x, y, _sharp_rows(rng, v, chan_perm)),
    )
    return phi, Hypergraph(a, src), Hypergraph(b, tgt), code


def _hex(values) -> list:
    return np.vectorize(float.hex, otypes=[object])(np.asarray(values)).tolist()


def profiles_at(v: int) -> dict:
    """Every pinned quantity at size v, floats as hex strings."""
    phi, source, target, code = _instance(v)
    f_e, profile = infer_edge_map(phi, source, target)
    shifted = EdgeMap(EDGES, EDGES, tuple((j + 1) % EDGES for j in f_e.mapping))
    return {
        "edge_cost_matrix": _hex(edge_cost_matrix(phi, source, target)),
        "edge_map": list(f_e.mapping),
        "edge_map_profile": _hex(profile),
        "lambda_profile": _hex(lambda_profile(phi, source, target, f_e)),
        "lambda_profile_shifted": _hex(lambda_profile(phi, source, target, shifted)),
        "code_error_profile": _hex(code_error_profile(code)),
    }


@pytest.mark.parametrize("v", SIZES)
def test_profiles_keep_their_bits(v):
    assert profiles_at(v) == json.loads(GOLDEN.read_text())[str(v)]


if __name__ == "__main__":
    print(json.dumps({str(v): profiles_at(v) for v in SIZES}, indent=1,
                     sort_keys=True))
