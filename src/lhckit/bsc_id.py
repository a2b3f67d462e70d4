"""Deterministic identification over two parallel binary symmetric channels.

Two words sent through independent copies of a crossover-gamma channel keep
their Hamming distance in expectation up to the affine law theta: a pair at
relative distance d maps to expected output distance beta + d*(1 - 2*beta),
with beta = 2*gamma*(1-gamma) the per-letter probability that exactly one
copy flips. Equal inputs concentrate near n*beta, far inputs concentrate
near n*theta_delta, so a distance test at the output identifies equality.

The receiver decides by output distance alone. `accepts` is the one decision
rule (with `in_window` the one open-window test) and the single-shot
decoder, the Monte Carlo simulator and the exact oracle all call it;
Hamming distances of bit matrices come from one integer routine. Because
acceptance depends on a codeword pair only through its distance, the exact
oracle weighs one convolution law per distinct pair distance. Distance laws
are exact binomial convolutions and never materialize a 4^n matrix. Monte
Carlo simulation draws raw channel flips so it stays independent of the
convolution oracle.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .channel import Channel
from .errors import (
    CapacityError,
    EmptyBlock,
    EpsilonTooLarge,
    Infeasible,
    RangeError,
    ShapeError,
)
from .hypergraph import Alphabet, Hypergraph

MC_CHUNK = 2048


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def beta(gamma: float) -> float:
    """Probability that exactly one of two independent copies flips a letter."""
    if not 0.0 <= gamma <= 1.0:
        raise RangeError(f"gamma {gamma} outside [0, 1]")
    return 2.0 * gamma * (1.0 - gamma)


def theta(delta: float, gamma: float) -> float:
    """Expected relative output distance of a pair at relative distance delta."""
    if not 0.0 <= delta <= 1.0:
        raise RangeError(f"delta {delta} outside [0, 1]")
    b = beta(gamma)
    return b + delta * (1.0 - 2.0 * b)


def epsilon_max(delta: float, gamma: float) -> float:
    """Largest window width keeping the equal and far windows disjoint."""
    t0 = theta(0.0, gamma)
    td = theta(delta, gamma)
    if t0 + td == 0.0:
        raise RangeError("windows undefined: both expected distances are zero")
    return (td - t0) / (td + t0)


def binary_entropy(p: float) -> float:
    """Base-2 entropy of a coin, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"probability {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def chernoff_bound(n: int, epsilon: float, delta: float, gamma: float) -> float:
    """Concentration bound for the output distance window at nominal delta."""
    if n <= 0:
        raise RangeError(f"block length n must be positive, got {n}")
    if epsilon <= 0.0:
        raise RangeError("epsilon must be positive")
    return min(1.0, 2.0 * math.exp(-n * epsilon**2 * theta(delta, gamma) / 2.0))


# ---------------------------------------------------------------------------
# Exact distance law
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairDistanceLaw:
    """Distribution of the output distance for a pair at input distance k."""

    n: int
    k: int
    gamma: float
    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != (self.n + 1,):
            raise ShapeError(f"pmf must have length n + 1 = {self.n + 1}")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise ShapeError(f"pmf sums to {pmf.sum()!r}, not 1")
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)

    @property
    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.pmf)

    def cdf(self, d: float) -> float:
        """Probability of output distance at most d."""
        top = int(math.floor(d))
        if top < 0:
            return 0.0
        return float(self.pmf[: min(top, self.n) + 1].sum())


def pair_distance_distribution(n: int, k: int, gamma: float) -> PairDistanceLaw:
    """Exact law of the output distance: matching letters differ exactly when
    one copy flips, differing letters stay apart when both or neither flips,
    so the distance is a sum of two independent binomials."""
    if not 0 <= k <= n:
        raise RangeError(f"input distance {k} outside [0, {n}]")
    b = beta(gamma)
    same = binom.pmf(np.arange(n - k + 1), n - k, b)
    diff = binom.pmf(np.arange(k + 1), k, 1.0 - b)
    return PairDistanceLaw(n, k, gamma, np.convolve(same, diff))


def window_interval(n: int, gamma: float, epsilon: float,
                    delta_nominal: float) -> tuple[float, float]:
    """Open interval of accepted distances around the nominal expectation."""
    center = n * theta(delta_nominal, gamma)
    return center - epsilon * center, center + epsilon * center


def in_window(d, n: int, gamma: float, epsilon: float,
              delta_nominal: float) -> np.ndarray:
    """Whether each distance in d lies inside the open window_interval."""
    lo, hi = window_interval(n, gamma, epsilon, delta_nominal)
    d = np.asarray(d)
    return (lo < d) & (d < hi)


def acceptance_threshold(n: int, gamma: float, epsilon: float) -> float:
    """One-sided accept boundary: the upper edge of the equal window."""
    return n * (1.0 + epsilon) * theta(0.0, gamma)


def accepts(d, n: int, gamma: float, epsilon: float, mode: str) -> np.ndarray:
    """The decoder's decision rule: whether each output distance in d is
    declared a pair of equal messages.

    "one-sided-threshold" accepts up to the acceptance threshold, boundary
    inclusive; "paper-windows" accepts inside the open equal window.
    """
    if mode == "one-sided-threshold":
        return np.asarray(d) <= acceptance_threshold(n, gamma, epsilon)
    if mode == "paper-windows":
        return in_window(d, n, gamma, epsilon, 0.0)
    raise RangeError(f"unknown decoder mode {mode!r}")


def exact_window_miss(n: int, k: int, gamma: float, epsilon: float,
                      delta_nominal: float) -> float:
    """Exact probability that a pair at distance k falls outside the window
    centered at the nominal-delta expectation."""
    law = pair_distance_distribution(n, k, gamma)
    inside = in_window(np.arange(n + 1), n, gamma, epsilon, delta_nominal)
    return float(1.0 - law.pmf[inside].sum())


# ---------------------------------------------------------------------------
# Words as bit matrices
# ---------------------------------------------------------------------------


def _word_bits(words, n: int) -> np.ndarray:
    """uint8 bit matrix of n-letter '0'/'1' words, one row per word."""
    flat = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    return (flat - ord("0")).reshape(len(words), n)


def _all_word_bits(n: int) -> np.ndarray:
    """Bit matrix of every n-bit word, in the numeric order of word_alphabet."""
    return (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(np.uint8)


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer Hamming distances between the rows of two broadcastable
    bit arrays, letters on the last axis."""
    return (a != b).sum(axis=-1)


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Codebook:
    """Distinct n-bit words with guaranteed minimum pairwise distance."""

    n: int
    words: tuple[str, ...]
    delta: float
    dmin: int

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ShapeError("codewords must be distinct")
        for w in self.words:
            if len(w) != self.n or set(w) - {"0", "1"}:
                raise ShapeError(f"word {w!r} is not an {self.n}-bit string")
        dist = self.pair_distances()
        close = np.argwhere(np.triu(dist < self.dmin, 1))  # row-major order
        if close.size:
            i, j = close[0]
            raise ShapeError(
                f"words {self.words[i]!r} and {self.words[j]!r} "
                f"at distance {dist[i, j]} < {self.dmin}"
            )

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def bits(self) -> np.ndarray:
        return _word_bits(self.words, self.n)

    def pair_distances(self) -> np.ndarray:
        """Hamming distance for every ordered pair of codewords."""
        b = self.bits
        return _hamming(b[:, None], b[None, :])


def gilbert_varshamov_bound(n: int, dmin: int) -> int:
    """Guaranteed achievable codebook size for the greedy construction."""
    ball = sum(math.comb(n, j) for j in range(dmin))
    return (1 << n) // ball


def gen_codebook(
    n: int,
    delta: float,
    m: int,
    seed: int = 0,
    strategy: str = "lexicographic-greedy",
) -> Codebook:
    """Greedy codebook with minimum distance ceil(n * delta).

    The lexicographic strategy scans words in numeric order and is fully
    deterministic; the random strategy draws candidate words from the seed.
    """
    dmin = math.ceil(n * delta)
    if dmin < 1:
        raise RangeError("minimum distance must be at least 1 bit")
    if dmin > n:
        raise RangeError(f"minimum distance {dmin} exceeds block length {n}")

    kept: list[int] = []

    def far_enough(cand: int) -> bool:
        return all((cand ^ w).bit_count() >= dmin for w in kept)

    if strategy == "lexicographic-greedy":
        if n > 24:
            raise CapacityError(
                f"lexicographic scan over 2**{n} words is not materializable; "
                "use the random-greedy strategy"
            )
        for cand in range(1 << n):
            if far_enough(cand):
                kept.append(cand)
                if len(kept) == m:
                    break
    elif strategy == "random-greedy":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0DE]))
        budget = max(10_000, 500 * m)
        for _ in range(budget):
            cand = 0
            for bit in rng.integers(0, 2, size=n):
                cand = (cand << 1) | int(bit)
            if far_enough(cand):
                kept.append(cand)
                if len(kept) == m:
                    break
    else:
        raise RangeError(f"unknown strategy {strategy!r}")

    if len(kept) < m:
        raise Infeasible(
            f"greedy found only {len(kept)} of {m} words at distance {dmin} "
            f"(the sphere-packing greedy guarantee is {gilbert_varshamov_bound(n, dmin)})"
        )
    words = tuple(format(w, f"0{n}b") for w in kept)
    return Codebook(n=n, words=words, delta=delta, dmin=dmin)


# ---------------------------------------------------------------------------
# The example's hypergraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExampleHypergraphs:
    """Materialized message-pair structures plus predicate-backed windows.

    The equality-test partition on message pairs, its two one-sided-encoded
    forms, and the codeword-pair restriction are materialized (indexed by
    messages and codewords only). The full input-pair and output-pair
    structures exist only as distance predicates, so no 4^n vertex set is
    ever enumerated. Edge index 0 is the far/mismatch edge, index 1 the
    equal/match edge, matching the preimage order of the equality test.
    """

    codebook: Codebook
    epsilon: float
    hyper_h: Hypergraph
    hyper_g1: Hypergraph
    hyper_g2: Hypergraph
    hyper_c: Hypergraph

    @property
    def n(self) -> int:
        return self.codebook.n

    @property
    def delta(self) -> float:
        return self.codebook.delta

    def input_edge_of_pair(self, w1: str, w2: str) -> int | None:
        """Edge of the input-pair structure: 1 on equality, 0 at distance
        at least the codebook minimum, None in the gap."""
        d = _distance(w1, w2, self.n)
        if d == 0:
            return 1
        if d >= self.codebook.dmin:
            return 0
        return None

    def check_windows_disjoint(self, gamma: float) -> None:
        e_max = epsilon_max(self.delta, gamma)
        if not self.epsilon < e_max:
            raise EpsilonTooLarge(
                f"epsilon {self.epsilon} must be below {e_max} "
                f"for delta {self.delta}, gamma {gamma}"
            )


def build_example_hypergraphs(
    codebook: Codebook, epsilon: float, gamma: float | None = None
) -> ExampleHypergraphs:
    """Materialize the example's small hypergraphs for a codebook.

    When gamma is supplied the window-disjointness constraint is checked
    immediately.
    """
    if codebook.size < 2:
        raise ShapeError("need at least two codewords for mismatch edges")
    if epsilon <= 0.0:
        raise RangeError("epsilon must be positive")
    m = codebook.size
    msgs = Alphabet.of_size(m)
    cw = Alphabet(codebook.words)
    equal = np.eye(m, dtype=bool).reshape(-1)  # row-major pair index i*m + j
    split = (tuple(np.flatnonzero(~equal).tolist()),
             tuple(np.flatnonzero(equal).tolist()))
    hyper = ExampleHypergraphs(
        codebook=codebook,
        epsilon=epsilon,
        hyper_h=Hypergraph(msgs.product(msgs), split),
        hyper_g1=Hypergraph(cw.product(msgs), split),
        hyper_g2=Hypergraph(msgs.product(cw), split),
        hyper_c=Hypergraph(cw.product(cw), split),
    )
    assert hyper.hyper_c.is_partition
    if gamma is not None:
        hyper.check_windows_disjoint(gamma)
    return hyper


# ---------------------------------------------------------------------------
# Small-n materialization helpers (for feeding the generic machinery)
# ---------------------------------------------------------------------------


def word_alphabet(n: int, cap: int = 1 << 20) -> Alphabet:
    """All n-bit words as labels, in numeric order."""
    if (1 << n) > cap:
        raise CapacityError(f"2**{n} words exceed the cap {cap}")
    return Alphabet(tuple(format(w, f"0{n}b") for w in range(1 << n)))


def word_channel_rows(words: tuple[str, ...], n: int, gamma: float) -> np.ndarray:
    """Row per word: exact flip probabilities onto every n-bit word."""
    law = np.array([gamma**d * (1.0 - gamma) ** (n - d) for d in range(n + 1)])
    return law[_hamming(_word_bits(words, n)[:, None], _all_word_bits(n)[None, :])]


def restricted_pair_channel(codebook: Codebook, gamma: float,
                            cap: int = 1 << 20) -> Channel:
    """Two independent noisy copies, restricted to codeword-pair inputs.

    Input alphabet: ordered codeword pairs. Output alphabet: all ordered
    n-bit word pairs (4^n of them, so only small n materialize).
    """
    n = codebook.n
    if (1 << (2 * n)) > cap:
        raise CapacityError(f"4**{n} output pairs exceed the cap {cap}")
    single = word_channel_rows(codebook.words, n, gamma)
    m = codebook.size
    # row i*m + j is the Kronecker product of word rows i and j
    rows = (single[:, None, :, None] * single[None, :, None, :]).reshape(m * m, -1)
    full = word_alphabet(n, cap)
    cw = Alphabet(codebook.words)
    return Channel(cw.product(cw), full.product(full), rows)


def pair_distance_table(n: int) -> np.ndarray:
    """Hamming distance of every ordered pair of n-bit words, row-major."""
    bits = _all_word_bits(n)
    return _hamming(bits[:, None], bits[None, :])


def threshold_split_hypergraph(n: int, t: float, cap: int = 1 << 20) -> Hypergraph:
    """Partition of all word pairs into far (distance above t) and near.

    Edge 0 holds the far pairs, edge 1 the near ones, matching the
    mismatch/match edge order used everywhere else.
    """
    if (1 << (2 * n)) > cap:
        raise CapacityError(f"4**{n} pairs exceed the cap {cap}")
    full = word_alphabet(n, cap)
    dist = pair_distance_table(n).reshape(-1)
    far = tuple(int(i) for i in np.nonzero(dist > t)[0])
    near = tuple(int(i) for i in np.nonzero(dist <= t)[0])
    return Hypergraph(full.product(full), (far, near))


def window_split_hypergraph(
    n: int, gamma: float, delta: float, epsilon: float, cap: int = 1 << 20
) -> Hypergraph:
    """Word pairs split into the two concentration windows.

    Pairs outside both windows are isolated vertices. Fails with EmptyBlock
    when a window contains no integer distance (unavoidable at small n) and
    with EpsilonTooLarge when the windows collide.
    """
    if not epsilon < epsilon_max(delta, gamma):
        raise EpsilonTooLarge(
            f"epsilon {epsilon} is not below {epsilon_max(delta, gamma)}"
        )
    full = word_alphabet(n, cap)
    dist = pair_distance_table(n).reshape(-1)
    edges = []
    for name, delta_nominal in (("far", delta), ("equal", 0.0)):
        inside = np.flatnonzero(in_window(dist, n, gamma, epsilon, delta_nominal))
        if not inside.size:
            lo, hi = window_interval(n, gamma, epsilon, delta_nominal)
            raise EmptyBlock(
                f"{name} window ({lo:.6g}, {hi:.6g}) holds no integer distance at n={n}"
            )
        edges.append(tuple(inside.tolist()))
    return Hypergraph(full.product(full), tuple(edges))


# ---------------------------------------------------------------------------
# Decoding and simulation
# ---------------------------------------------------------------------------


def id_decoder(
    y1,
    y2,
    n: int,
    gamma: float,
    epsilon: float,
    delta: float,
    mode: str = "one-sided-threshold",
) -> int:
    """Decide equality of the originating messages from two noisy words.

    The default accepts exactly when the output distance is at most the
    upper edge of the equal window (boundary inclusive); this is monotone in
    the true distance, so pairs far beyond the codebook minimum only get
    safer. The window mode reproduces the two-sided membership test and
    returns 0 both in the far window and outside both windows.
    """
    return int(accepts(_distance(y1, y2, n), n, gamma, epsilon, mode))


def window_region(d: float, n: int, gamma: float, epsilon: float,
                  delta: float) -> str:
    """'match-window', 'mismatch-window', or 'outside'."""
    if in_window(d, n, gamma, epsilon, 0.0):
        return "match-window"
    if in_window(d, n, gamma, epsilon, delta):
        return "mismatch-window"
    return "outside"


def _distance(y1, y2, n: int) -> int:
    return int(_hamming(_bits(y1, n), _bits(y2, n)))


def _bits(y, n: int) -> np.ndarray:
    if isinstance(y, str):
        if len(y) != n or set(y) - {"0", "1"}:
            raise ShapeError(f"word {y!r} is not an {n}-bit string")
        return _word_bits([y], n)[0]
    arr = np.asarray(y, dtype=np.uint8)
    if arr.shape != (n,):
        raise ShapeError(f"word shape {arr.shape} is not ({n},)")
    return arr


@dataclass(frozen=True, eq=False)
class ErrorEstimate:
    """Monte Carlo tallies with normal-approximation 95% intervals."""

    trials: int
    equal_trials: int
    distinct_trials: int
    false_rejects: int
    false_accepts: int
    seed: int
    mode: str

    @property
    def false_reject_rate(self) -> float:
        return self.false_rejects / self.equal_trials if self.equal_trials else 0.0

    @property
    def false_accept_rate(self) -> float:
        return self.false_accepts / self.distinct_trials if self.distinct_trials else 0.0

    @property
    def false_reject_halfwidth(self) -> float:
        return _halfwidth(self.false_rejects, self.equal_trials)

    @property
    def false_accept_halfwidth(self) -> float:
        return _halfwidth(self.false_accepts, self.distinct_trials)


def _halfwidth(count: int, n: int) -> float:
    if n == 0:
        return 0.0
    if count == 0:
        return 3.0 / n  # rule-of-three guard where the normal width collapses
    p = count / n
    return 1.96 * math.sqrt(p * (1.0 - p) / n)


def monte_carlo_id(
    codebook: Codebook,
    gamma: float,
    epsilon: float,
    trials: int,
    seed: int = 0,
    mode: str = "one-sided-threshold",
    workers: int = 1,
) -> ErrorEstimate:
    """Simulate the identification code by drawing raw channel flips.

    The first half of the trials uses equal message pairs, the second half
    distinct ones. Randomness is derived per fixed-size chunk of trial
    indices from (seed, chunk), so results are bit-identical for any worker
    count.
    """
    if trials < 1:
        raise RangeError("need at least one trial")
    if codebook.size < 2:
        raise ShapeError("distinct-message trials need at least two codewords")
    n = codebook.n
    bits = codebook.bits
    m = codebook.size
    n_equal = (trials + 1) // 2
    accepts(np.zeros(0), n, gamma, epsilon, mode)  # reject a bad mode before any chunk

    def run_chunk(ci: int) -> tuple[int, int]:
        start = ci * MC_CHUNK
        count = min(MC_CHUNK, trials - start)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), ci]))
        idx = np.arange(start, start + count)
        equal = idx < n_equal
        first = rng.integers(m, size=count)
        jitter = rng.integers(m - 1, size=count)
        second = np.where(equal, first, jitter + (jitter >= first))
        flips1 = rng.random((count, n)) < gamma
        flips2 = rng.random((count, n)) < gamma
        d = _hamming(bits[first] ^ flips1, bits[second] ^ flips2)
        accept = accepts(d, n, gamma, epsilon, mode)
        fr = int(np.sum(equal & ~accept))
        fa = int(np.sum(~equal & accept))
        return fr, fa

    chunk_ids = range((trials + MC_CHUNK - 1) // MC_CHUNK)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, chunk_ids))
    else:
        results = [run_chunk(ci) for ci in chunk_ids]
    false_rejects = sum(r[0] for r in results)
    false_accepts = sum(r[1] for r in results)
    return ErrorEstimate(
        trials=trials,
        equal_trials=n_equal,
        distinct_trials=trials - n_equal,
        false_rejects=false_rejects,
        false_accepts=false_accepts,
        seed=seed,
        mode=mode,
    )


def exact_error_rates(
    codebook: Codebook, gamma: float, epsilon: float,
    mode: str = "one-sided-threshold",
) -> tuple[float, float]:
    """Oracle for the simulation: exact expected false reject and accept.

    Averages over the ordered distinct pairs that the simulation samples
    uniformly. Acceptance depends on a pair only through its distance, so
    each distinct distance gets one convolution law, weighted by its count.
    """
    if codebook.size < 2:
        raise ShapeError("distinct-message trials need at least two codewords")
    n = codebook.n
    accepted = accepts(np.arange(n + 1), n, gamma, epsilon, mode)

    def accept_prob(k: int) -> float:
        return float(pair_distance_distribution(n, k, gamma).pmf[accepted].sum())

    off = codebook.pair_distances()[~np.eye(codebook.size, dtype=bool)]
    counts = np.bincount(off)
    ks = np.flatnonzero(counts)
    false_accept = float(counts[ks] @ [accept_prob(k) for k in ks] / off.size)
    return 1.0 - accept_prob(0), false_accept


def rate_table(gamma: float, delta_grid) -> list[tuple[float, float, float]]:
    """Rows (delta, greedy codebook rate 1-h(delta), transmission rate 1-h(gamma))."""
    if not 0.0 <= gamma <= 0.5:
        raise RangeError(f"gamma {gamma} outside [0, 1/2]")
    tx = 1.0 - binary_entropy(gamma)
    rows = []
    for d in delta_grid:
        rows.append((float(d), 1.0 - binary_entropy(float(d)), tx))
    return rows
