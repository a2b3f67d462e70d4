"""Shared instance generators for the test suite.

Kept deliberately simple and separate from the package's own generators so
tests do not verify the library against itself where an oracle is needed.
"""

from __future__ import annotations

import numpy as np

from lhckit import Alphabet, Channel, FunctionTable, Hypergraph, deterministic_channel

import oracles


def rand_partition(rng: np.random.Generator, alphabet: Alphabet,
                   blocks: int) -> Hypergraph:
    order = list(rng.permutation(alphabet.size))
    cuts = sorted(rng.choice(range(1, alphabet.size), size=blocks - 1,
                             replace=False)) if blocks > 1 else []
    edges = []
    prev = 0
    for cut in [*cuts, alphabet.size]:
        edges.append(tuple(sorted(order[prev:cut])))
        prev = cut
    return Hypergraph(alphabet, tuple(edges))


def rand_channel(rng: np.random.Generator, inp: Alphabet, out: Alphabet) -> Channel:
    rows = rng.dirichlet(np.ones(out.size), size=inp.size)
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(inp, out, rows)


def identity_channel_between(a: Alphabet, b: Alphabet) -> Channel:
    """The deterministic channel sending a's i-th symbol to b's i-th."""
    assert a.size == b.size
    return deterministic_channel(FunctionTable(a, b, tuple(range(a.size))))


def sharp_channel(rng: np.random.Generator, inp: Alphabet, out: Alphabet,
                  targets, noise: float) -> Channel:
    """Deterministic map plus uniform leakage of the given total mass."""
    rows = np.full((inp.size, out.size), noise / out.size)
    for i, t in enumerate(targets):
        rows[i, t] += 1.0 - noise
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(inp, out, rows)


def reliable_code(rng: np.random.Generator, max_lam: float = 0.125,
                  min_mid: int = 2, max_mid: int = 4):
    """Random structured code with error profile strictly below max_lam,
    whose channel has as many inputs as outputs: at most max_mid, and at
    least min_mid and the codomain size."""
    from lhckit import FunctionCode, FunctionTable, code_error_profile

    while True:
        dom_size = int(rng.integers(2, 5))
        cod_size = int(rng.integers(2, min(dom_size, 4) + 1))
        mid = int(rng.integers(max(cod_size, min_mid), max_mid + 1))
        dom = Alphabet.of_size(dom_size, "a")
        cod = Alphabet.of_size(cod_size, "b")
        x = Alphabet.of_size(mid, "x")
        y = Alphabet.of_size(mid, "y")
        mapping = tuple(int(v) for v in rng.integers(cod_size, size=dom_size))
        f = FunctionTable(dom, cod, mapping)
        noise = rng.uniform(0.0, 0.04, size=3)
        enc = sharp_channel(rng, dom, x,
                            [int(v) for v in rng.integers(mid, size=dom_size)],
                            noise[0])
        perm = [int(v) for v in rng.permutation(mid)]
        ch = sharp_channel(rng, x, y, perm, noise[1])
        dec_targets = [0] * mid
        enc_hot = np.argmax(enc.rows, axis=1)
        for a in range(dom_size):
            dec_targets[perm[enc_hot[a]]] = mapping[a]
        dec = sharp_channel(rng, y, cod, dec_targets, noise[2])
        code = FunctionCode(enc, dec, f, ch)
        if np.all(code_error_profile(code) < max_lam):
            return code


def blow_up(rng: np.random.Generator, base: Hypergraph, extra: int, prefix: str):
    """Bigger hypergraph with a vertex-surjective edge-bijective map onto base."""
    n = base.vertices.size + extra
    surj = list(range(base.vertices.size)) + [
        int(v) for v in rng.integers(base.vertices.size, size=extra)
    ]
    rng.shuffle(surj)
    edges = []
    for e in base.edges:
        edges.append(tuple(i for i, tgt in enumerate(surj) if tgt in e))
    big = Hypergraph(Alphabet.of_size(n, prefix), tuple(edges))
    return big, tuple(surj)


def sandwich_instance(rng: np.random.Generator) -> dict:
    """Random deterministic-sandwich setup with a vertex-surjective prefix.

    The certificate-transfer equivalence quantifies per vertex, so the
    prefix homomorphism must reach every vertex of the channel's source for
    both sides to see the same constraints.
    """
    from lhckit import EdgeMap, hom_from_edge_map

    k = int(rng.integers(1, 5))
    n_g = int(rng.integers(k, 5))
    n_h = int(rng.integers(k, 5))
    hyper_g = rand_partition(rng, Alphabet.of_size(n_g, "g"), k)
    hyper_h = rand_partition(rng, Alphabet.of_size(n_h, "h"), k)
    hyper_f, f_map = blow_up(rng, hyper_g, int(rng.integers(0, 3)), "f")
    hyper_i = rand_partition(rng, Alphabet.of_size(int(rng.integers(k, 6)), "i"), k)
    h_edge = EdgeMap(k, k, tuple(int(v) for v in rng.permutation(k)))
    h_map = hom_from_edge_map(h_edge, hyper_h, hyper_i)
    return {
        "f_vertex": f_map, "f_edge": EdgeMap.identity(k),
        "h_vertex": h_map, "h_edge": h_edge,
        "gamma": rand_channel(rng, hyper_g.vertices, hyper_h.vertices),
        "e_edge": EdgeMap(k, k, tuple(int(v) for v in rng.integers(k, size=k))),
        "hyper_f": hyper_f, "hyper_g": hyper_g,
        "hyper_h": hyper_h, "hyper_i": hyper_i,
        "lam": np.full(k, float(rng.uniform(0.05, 0.6))),
    }


def two_stage_instance(rng: np.random.Generator, max_symbols: int = 5) -> dict:
    """Random two-stage channel satisfying the decomposition hypotheses.

    Builds a noisy refinement: each source edge aims at a designated block of
    the middle alphabet, which aims at the matching target edge. The error
    vector is the exact profile of the composite, and mu, kappa are sampled
    inside the admissible region (kappa strictly positive, at most one half).
    """
    from lhckit import EdgeMap, compose, lambda_profile

    while True:
        n_a = int(rng.integers(2, max_symbols + 1))
        n_b = int(rng.integers(2, max_symbols + 1))
        n_c = int(rng.integers(2, max_symbols + 1))
        k = int(rng.integers(1, min(n_a, n_b, n_c) + 1))
        a = Alphabet.of_size(n_a, "a")
        b = Alphabet.of_size(n_b, "b")
        c = Alphabet.of_size(n_c, "c")
        source = rand_partition(rng, a, k)
        target = rand_partition(rng, c, k)
        e_perm = tuple(int(v) for v in rng.permutation(k))
        e_edge = EdgeMap(k, k, e_perm)
        mid_blocks = rand_partition(rng, b, k)

        noise1, noise2 = rng.uniform(0.0, 0.15, size=2)
        phi_targets = []
        for v in range(n_a):
            block = mid_blocks.edges[oracles.unique_edge_of(source, v)]
            phi_targets.append(block[int(rng.integers(len(block)))])
        gamma_targets = []
        for w in range(n_b):
            edge = target.edges[e_edge(oracles.unique_edge_of(mid_blocks, w))]
            gamma_targets.append(edge[int(rng.integers(len(edge)))])
        phi = sharp_channel(rng, a, b, phi_targets, noise1)
        gamma = sharp_channel(rng, b, c, gamma_targets, noise2)

        lam = lambda_profile(compose(phi, gamma), source, target, e_edge)
        if np.any(lam >= 0.45):
            continue
        mu = np.minimum(1.0, 2.0 * lam + rng.uniform(0.02, 0.3, size=k))
        low = np.where(mu > 0, lam / mu, 0.0)
        u = rng.uniform(0.05, 1.0, size=k)
        kappa = low + u * (0.5 - low)
        return {
            "phi": phi, "gamma": gamma, "source": source, "target": target,
            "e_edge": e_edge, "kappa": kappa, "mu": mu, "lam": lam,
        }
