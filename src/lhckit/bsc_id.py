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
Hamming distances of bit matrices come from one exact matrix product. Because
acceptance depends on a codeword pair only through its distance, the exact
oracle weighs one convolution law per distinct pair distance. Its binomial
rows come from one recurrence in numpy, with a stated error bound, and its
error rates sum the failing mass rather than subtract the rest from 1. The
laws never materialize a 4^n matrix. Monte Carlo simulation draws raw
channel flips so it stays independent of the convolution oracle, and counts
output distances as the XOR parity of flips and codeword letters.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import channel
from .channel import Channel, _adopt, _check_entries, named_rng, tensor
from .errors import (
    CapacityError,
    EpsilonTooLarge,
    Infeasible,
    RangeError,
    ShapeError,
    _require_count,
    _require_real,
    _require_unit,
)
from .hypergraph import (Alphabet, Hypergraph, characteristic_hypergraph,
                         identification_table)

MC_CHUNK = 2048
# The decoder's decision rules and the codebook searches by name, each
# tuple's default first.
MODES = ("one-sided-threshold", "paper-windows")
STRATEGIES = ("lexicographic-greedy", "random-greedy")


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def beta(gamma: float) -> float:
    """Probability that exactly one of two independent copies flips a letter."""
    _require_unit(gamma, "gamma")
    return 2.0 * gamma * (1.0 - gamma)


def theta(delta: float, gamma: float) -> float:
    """Expected relative output distance of a pair at relative distance delta."""
    _require_unit(delta, "delta")
    b = beta(gamma)
    return b + delta * (1.0 - 2.0 * b)


def epsilon_max(delta: float, gamma: float) -> float:
    """Largest window width keeping the equal and far windows disjoint."""
    t0 = theta(0.0, gamma)
    td = theta(delta, gamma)
    if t0 + td == 0.0:
        raise RangeError(f"windows undefined at delta {delta}, gamma {gamma}: "
                         "both expected distances are zero")
    return (td - t0) / (td + t0)


def require_windows(delta: float, gamma: float, epsilon: float) -> None:
    """The one window-width check: raise unless 0 < epsilon < epsilon_max.

    RangeError for a width that is not positive, EpsilonTooLarge when the
    equal and far windows of relative distance delta and crossover gamma
    collide.
    """
    _require_positive(epsilon)
    e_max = epsilon_max(delta, gamma)
    if not epsilon < e_max:
        raise EpsilonTooLarge(f"epsilon {epsilon} must be below (theta_delta - theta_0)"
                              f"/(theta_delta + theta_0) = {e_max} for delta {delta}, "
                              f"gamma {gamma}")


def _require_positive(epsilon: float) -> None:
    _require_real(epsilon, "epsilon")
    if not epsilon > 0.0:
        raise RangeError(f"epsilon {epsilon} must be positive")


def binary_entropy(p: float) -> float:
    """Base-2 entropy of a coin, with h(0) = h(1) = 0."""
    _require_unit(p, "probability")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def chernoff_bound(n: int, epsilon: float, delta: float, gamma: float) -> float:
    """Concentration bound for the output distance window at nominal delta."""
    _require_count(n, "block length n")
    _require_positive(epsilon)
    return min(1.0, 2.0 * math.exp(-n * epsilon**2 * theta(delta, gamma) / 2.0))


# ---------------------------------------------------------------------------
# Exact distance law
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairDistanceLaw:
    """Distribution of the output distance for a pair at input distance k."""

    n: int
    k: int
    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != (self.n + 1,):
            raise ShapeError(f"pmf must have length n + 1 = {self.n + 1}")
        if abs(pmf.sum() - 1.0) > channel.ROW_SUM_TOL:
            raise ShapeError(f"pmf sums to {pmf.sum()!r}, not 1")
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)

    @property
    def mean(self) -> float:
        return float(np.arange(self.n + 1) @ self.pmf)


def pair_distance_distribution(n: int, k: int, gamma: float) -> PairDistanceLaw:
    """Exact law of the output distance: matching letters differ exactly when
    one copy flips, differing letters stay apart when both or neither flips,
    so the distance is a sum of two independent binomials."""
    _require_count(n, "block length n")
    return _distance_laws(n, [k], gamma)[0]


def _distance_laws(n: int, ks, gamma: float) -> list[PairDistanceLaw]:
    """pair_distance_distribution for each input distance in ks.

    One ``_binom_rows`` call at p = beta gives the rows of n - k trials, for
    the matching letters, and of k trials: the differing letters stay apart
    with Bin(k, 1 - beta)(j) = Bin(k, beta)(k - j), that row read backwards,
    so 1 - beta is never rounded on its own. A law is the convolution of its
    two rows, sums of nonnegative products of at most min(k, n - k) + 1
    terms, so to first order every entry is within (4n + min(k, n - k) + 1)
    ulp, at most 5n ulp, of the exact law at the float beta. The pmf is
    elementwise, so each law has the bits of a single-k call.
    """
    ks = np.asarray(ks)
    bad = ks[(ks < 0) | (ks > n) | (ks % 1 != 0)]
    if bad.size:
        raise RangeError(f"input distance {bad[0]} is not an integer in [0, {n}]")
    ks = ks.astype(np.int64)
    rows = _binom_rows(np.concatenate((n - ks, ks)), beta(gamma), n)
    return [PairDistanceLaw(n, int(k), np.convolve(same[:n - k + 1], diff[k::-1]))
            for k, same, diff in zip(ks, rows, rows[ks.size:])]


def _binom_rows(trials, p: float, n: int) -> np.ndarray:
    """Bin(t, p) over 0..n, zero past t, in one row per t in trials.

    Row t + 1 is row t convolved with (1 - p, p), so every entry is a sum of
    nonnegative products: nothing cancels, nothing exceeds 1 and nothing
    overflows. To first order an entry of row t is within 4t ulp of the
    binomial at the float p: one rounding of 1 - p, and each step rounds two
    products and their sum.
    """
    rows = np.zeros((len(trials), n + 1))
    row, step = np.ones(1), np.array([1.0 - p, p])
    for t in range(trials.max(initial=0) + 1):
        rows[trials == t, :t + 1] = row
        row = np.convolve(row, step)
    return rows


def window_interval(n: int, gamma: float, epsilon: float,
                    delta_nominal: float) -> tuple[float, float]:
    """Open interval of accepted distances around the nominal expectation."""
    _require_positive(epsilon)
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
    _require_positive(epsilon)
    return n * (1.0 + epsilon) * theta(0.0, gamma)


def accepts(d, n: int, gamma: float, epsilon: float, mode: str) -> np.ndarray:
    """The decoder's decision rule: whether each output distance in d is
    declared a pair of equal messages.

    "one-sided-threshold" accepts up to the acceptance threshold, boundary
    inclusive; "paper-windows" accepts inside the open equal window.
    """
    require_mode(mode)
    if mode == "paper-windows":
        return in_window(d, n, gamma, epsilon, 0.0)
    return np.asarray(d) <= acceptance_threshold(n, gamma, epsilon)


def _require_name(name: str, names: tuple[str, ...], what: str) -> None:
    """The one known-name check: raise RangeError "unknown WHAT NAME" unless
    name is one of names."""
    if name not in names:
        raise RangeError(f"unknown {what} {name!r}")


require_mode = partial(_require_name, names=MODES, what="decoder mode")
require_strategy = partial(_require_name, names=STRATEGIES, what="strategy")


def exact_window_miss(n: int, k: int, gamma: float, epsilon: float,
                      delta_nominal: float) -> float:
    """Exact probability that a pair at distance k falls outside the window
    centered at the nominal-delta expectation: the law summed outside it."""
    law = pair_distance_distribution(n, k, gamma)
    inside = in_window(np.arange(n + 1), n, gamma, epsilon, delta_nominal)
    return float(law.pmf[~inside].sum())


# ---------------------------------------------------------------------------
# Words as bit matrices
# ---------------------------------------------------------------------------


def _word_bits(words, n: int) -> np.ndarray:
    """uint8 bit matrix of n-letter '0'/'1' words, one row per word.

    The one check that a word is an n-bit string: anything else, a
    non-string included, raises ShapeError naming the first such word.
    """
    for w in words:
        if not isinstance(w, str) or len(w) != n or set(w) - {"0", "1"}:
            raise ShapeError(f"word {w!r} is not an {n}-bit string")
    flat = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    return (flat - ord("0")).reshape(len(words), n)


def _all_word_bits(n: int) -> np.ndarray:
    """Bit matrix of every n-bit word, in the numeric order of word_alphabet:
    the last n of the 32 big-endian bits of each index, unpacked in uint8."""
    index = np.arange(1 << n, dtype=">u4")
    return np.unpackbits(index.view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - n:]


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer Hamming distances between the rows of two bit matrices:
    the len(a) x len(b) matrix, letters on the last axis.

    |a| + |b|^T - 2 a b^T over 0/1 values in float64: every term is a sum of
    at most n ones, exact for any n below 2**53 in any summation order.
    """
    a, b = a.astype(np.float64), b.astype(np.float64)
    dist = a @ b.T
    dist *= -2.0
    dist += a.sum(axis=1)[:, None]
    dist += b.sum(axis=1)
    return dist.astype(np.int_)


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Codebook:
    """Distinct n-bit words with guaranteed minimum pairwise distance."""

    n: int
    words: tuple[str, ...]
    dmin: int
    # built once from words by the constructor, read-only
    bits: np.ndarray = field(init=False, repr=False, compare=False)
    _distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.words)) != len(self.words):
            raise ShapeError("codewords must be distinct")
        bits = _word_bits(self.words, self.n)
        dist = _hamming(bits, bits)
        close = np.argwhere(np.triu(dist < self.dmin, 1))  # row-major order
        if close.size:
            i, j = close[0]
            raise ShapeError(
                f"words {self.words[i]!r} and {self.words[j]!r} "
                f"at distance {dist[i, j]} < {self.dmin}"
            )
        for name, value in (("bits", bits), ("_distances", dist)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def delta(self) -> float:
        """The guaranteed relative distance dmin / n."""
        return self.dmin / self.n

    def pair_distances(self) -> np.ndarray:
        """Read-only Hamming distance for every ordered pair of codewords."""
        return self._distances


def gilbert_varshamov_bound(n: int, dmin: int) -> int:
    """Guaranteed achievable codebook size for the greedy construction."""
    ball = sum(math.comb(n, j) for j in range(dmin))
    return (1 << n) // ball


def min_distance(n: int, delta: float) -> int:
    """ceil(n * delta), the minimum distance of a codebook at relative
    distance delta: the one check that n is an integer >= 1 and that this
    distance is finite and lies in [1, n].

    The rule is the ceiling of the float product, as Python computes
    ``n * delta``: min_distance(100, 0.07) is 8, as 100 * 0.07 rounds to
    7.000000000000001, and min_distance(200, 0.1) is 20, although float 0.1
    lies above 1/10. Every seeded codebook follows this rule.
    """
    _require_count(n, "block length n")
    try:
        dmin = math.ceil(n * delta)
    except (OverflowError, ValueError):  # n * delta past the float range, or NaN
        raise RangeError(f"minimum distance ceil(n * delta) at n {n}, delta {delta} "
                         "is not finite") from None
    if not 1 <= dmin <= n:
        raise RangeError(f"minimum distance ceil(n * delta) = {dmin} at n {n}, "
                         f"delta {delta} is outside [1, {n}]")
    return dmin


def require_pairs(size: int) -> None:
    """The one check that a codebook of size words has distinct-message pairs."""
    if size < 2:
        raise ShapeError(f"distinct-message pairs need at least two codewords, got {size}")


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
    _require_count(m, "codebook size")
    dmin = min_distance(n, delta)
    require_strategy(strategy)

    if strategy == "lexicographic-greedy":
        if n > 24:
            raise CapacityError(
                f"lexicographic scan over 2**{n} words is not materializable; "
                "use the random-greedy strategy"
            )
        candidates = range(1 << n)
    else:
        _check_entries(n, "random-greedy word")
        rng = named_rng(seed, 0xC0DE)
        # drawn lazily: the scan stops drawing once it has m words
        candidates = (int.from_bytes(np.packbits(rng.integers(0, 2, size=n)), "big")
                      >> (-n % 8)  # first bit highest
                      for _ in range(max(10_000, 500 * m)))

    kept: list[int] = []
    for cand in candidates:
        if all((cand ^ w).bit_count() >= dmin for w in kept):
            kept.append(cand)
            if len(kept) == m:
                break
    if len(kept) < m:
        raise Infeasible(
            f"greedy found only {len(kept)} of {m} words at distance {dmin} "
            f"(the sphere-packing greedy guarantee is {gilbert_varshamov_bound(n, dmin)})"
        )
    words = tuple(format(w, f"0{n}b") for w in kept)
    return Codebook(n=n, words=words, dmin=dmin)


# ---------------------------------------------------------------------------
# The example's hypergraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExampleHypergraphs:
    """The equality split on the example's four pair alphabets.

    hyper_h is the equality-test partition on message pairs; hyper_g1 and
    hyper_g2 carry the same split on (codeword, message) and (message,
    codeword) pairs, and hyper_c on codeword pairs. All four are indexed by
    messages and codewords only, so no 4^n vertex set is enumerated; a split
    of all n-bit word pairs comes from threshold_split_hypergraph, for small
    n. Edge index 0 is the far/mismatch edge, index 1 the equal/match edge,
    matching the preimage order of the equality test.
    """

    hyper_h: Hypergraph
    hyper_g1: Hypergraph
    hyper_g2: Hypergraph
    hyper_c: Hypergraph


def build_example_hypergraphs(
    codebook: Codebook, epsilon: float, gamma: float
) -> ExampleHypergraphs:
    """Materialize the example's small hypergraphs for a codebook.

    The decision windows of crossover gamma must be disjoint at epsilon for
    the codebook's guaranteed relative distance ``codebook.delta``.
    """
    require_pairs(codebook.size)
    require_windows(codebook.delta, gamma, epsilon)
    hyper_h = characteristic_hypergraph(identification_table(codebook.size))
    msgs = Alphabet.of_size(codebook.size)
    cw = Alphabet(codebook.words)
    hyper = ExampleHypergraphs(
        hyper_h=hyper_h,
        hyper_g1=Hypergraph(cw.product(msgs), hyper_h.edges),
        hyper_g2=Hypergraph(msgs.product(cw), hyper_h.edges),
        hyper_c=Hypergraph(cw.product(cw), hyper_h.edges),
    )
    assert hyper.hyper_c.is_partition
    return hyper


# ---------------------------------------------------------------------------
# Small-n materialization helpers (for feeding the generic machinery)
# ---------------------------------------------------------------------------


def word_alphabet(n: int) -> Alphabet:
    """All n-bit words as labels, in numeric order."""
    _check_entries(1 << n, "alphabet of all {}-bit words", n)
    return Alphabet(tuple(format(w, f"0{n}b") for w in range(1 << n)))


def _flip_rows(bits: np.ndarray, n: int, gamma: float) -> np.ndarray:
    """Row per word of the n-column bit matrix bits: exact flip
    probabilities onto every n-bit word."""
    law = np.array([gamma**d * (1.0 - gamma) ** (n - d) for d in range(n + 1)])
    return law[_hamming(bits, _all_word_bits(n))]


def restricted_pair_channel(codebook: Codebook, gamma: float) -> Channel:
    """Two independent noisy copies, restricted to codeword-pair inputs.

    Input alphabet: ordered codeword pairs. Output alphabet: all ordered
    n-bit word pairs (4^n of them, so only small n materialize). The
    M^2 x 4^n dense entries are checked against the cap before any
    allocation; the rows are the ``tensor`` of one word channel with itself.
    """
    n, m = codebook.n, codebook.size
    _check_entries(m * m << 2 * n, "channel of {} x {}", m * m, 1 << 2 * n)
    word = _adopt(Alphabet(codebook.words), word_alphabet(n),
                  _flip_rows(codebook.bits, n, gamma))
    return tensor(word, word)


def pair_distance_table(n: int) -> np.ndarray:
    """Hamming distance of every ordered pair of n-bit words, row-major.
    The 4^n pairs are checked against the cap before the table is built."""
    _check_entries(1 << 2 * n, "alphabet of all {}-bit word pairs", n)
    bits = _all_word_bits(n)
    return _hamming(bits, bits)


def threshold_split_hypergraph(n: int, t: float) -> Hypergraph:
    """Partition of all word pairs into far (distance above t) and near.

    Edge 0 holds the far pairs, edge 1 the near ones, matching the
    mismatch/match edge order used everywhere else.
    """
    dist = pair_distance_table(n).reshape(-1)
    full = word_alphabet(n)
    return Hypergraph(full.product(full), (tuple(np.flatnonzero(dist > t).tolist()),
                                           tuple(np.flatnonzero(dist <= t).tolist())))


# ---------------------------------------------------------------------------
# Decoding and simulation
# ---------------------------------------------------------------------------


def id_decoder(
    y1,
    y2,
    n: int,
    gamma: float,
    epsilon: float,
    mode: str = "one-sided-threshold",
) -> int:
    """Decide equality of the originating messages from two noisy words,
    each an n-letter '0'/'1' string.

    The default accepts exactly when the output distance is at most the
    upper edge of the equal window (boundary inclusive); this is monotone in
    the true distance, so pairs far beyond the codebook minimum only get
    safer. The window mode reproduces the two-sided membership test and
    returns 0 both in the far window and outside both windows.
    """
    bits = _word_bits([y1, y2], n)
    d = _hamming(bits[:1], bits[1:])[0, 0]
    return int(accepts(d, n, gamma, epsilon, mode))


@dataclass(frozen=True, eq=False)
class ErrorEstimate:
    """Monte Carlo tallies of false rejects and false accepts, with their rates."""

    equal_trials: int
    distinct_trials: int
    false_rejects: int
    false_accepts: int

    @property
    def trials(self) -> int:
        return self.equal_trials + self.distinct_trials

    @property
    def false_reject_rate(self) -> float:
        return self.false_rejects / self.equal_trials if self.equal_trials else 0.0

    @property
    def false_accept_rate(self) -> float:
        return self.false_accepts / self.distinct_trials if self.distinct_trials else 0.0


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
    _require_count(trials, "trial count")
    _require_count(workers, "worker count")
    require_pairs(codebook.size)
    n = codebook.n
    m = codebook.size
    n_equal = (trials + 1) // 2
    tally = np.min_scalar_type(n)  # narrowest unsigned type holding a distance
    require_mode(mode)  # refuse a bad mode, gamma or epsilon before any chunk
    acceptance_threshold(n, gamma, epsilon)

    def run_chunk(ci: int) -> tuple[int, int]:
        start = ci * MC_CHUNK
        count = min(MC_CHUNK, trials - start)
        rng = named_rng(seed, ci)
        equal = np.arange(start, start + count) < n_equal
        first = rng.integers(m, size=count)
        jitter = rng.integers(m - 1, size=count)
        second = np.where(equal, first, jitter + (jitter >= first))
        # two output letters differ exactly when an odd number of the two
        # flips and the two codeword letters is set: XOR them in one buffer
        u = rng.random((count, n))
        parity = (u < gamma).view(np.uint8)
        rng.random(out=u)
        parity ^= u < gamma
        parity ^= codebook.bits.take(first, axis=0)
        parity ^= codebook.bits.take(second, axis=0)
        # intp: numpy 1.x would compare a uint8 with the float threshold in float16
        d = parity.sum(axis=1, dtype=tally).astype(np.intp)
        accept = accepts(d, n, gamma, epsilon, mode)
        fr = int(np.sum(equal & ~accept))
        fa = int(np.sum(~equal & accept))
        return fr, fa

    chunk_ids = range((trials + MC_CHUNK - 1) // MC_CHUNK)
    if min(workers, len(chunk_ids)) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, chunk_ids))
    else:
        results = [run_chunk(ci) for ci in chunk_ids]
    false_rejects = sum(r[0] for r in results)
    false_accepts = sum(r[1] for r in results)
    return ErrorEstimate(
        equal_trials=n_equal,
        distinct_trials=trials - n_equal,
        false_rejects=false_rejects,
        false_accepts=false_accepts,
    )


def exact_error_rates(
    codebook: Codebook, gamma: float, epsilon: float,
    mode: str = "one-sided-threshold",
) -> tuple[float, float]:
    """Oracle for the simulation: exact expected false reject and accept.

    Averages over the ordered distinct pairs that the simulation samples
    uniformly. Acceptance depends on a pair only through its distance, so
    each distinct distance gets one convolution law, weighted by its count.
    The false reject sums the equal pair's law over the rejected distances,
    so no rate is 1 minus a sum near 1.
    """
    require_pairs(codebook.size)
    n = codebook.n
    accepted = accepts(np.arange(n + 1), n, gamma, epsilon, mode)
    off = codebook.pair_distances()[~np.eye(codebook.size, dtype=bool)]
    counts = np.bincount(off)
    ks = np.flatnonzero(counts)  # distinct codewords: never distance 0
    laws = _distance_laws(n, np.concatenate(([0], ks)), gamma)
    false_reject = float(laws[0].pmf[~accepted].sum())
    far = [law.pmf[accepted].sum() for law in laws[1:]]
    return false_reject, float(counts[ks] @ np.array(far) / off.size)


def rate_table(gamma: float, delta_grid) -> list[tuple[float, float, float]]:
    """Rows (delta, greedy codebook rate 1-h(delta), transmission rate 1-h(gamma))."""
    _require_unit(gamma, "gamma")
    if gamma > 0.5:
        raise RangeError(f"gamma {gamma} outside [0, 1/2]")
    tx = 1.0 - binary_entropy(gamma)
    rows = []
    for d in delta_grid:
        rows.append((float(d), 1.0 - binary_entropy(float(d)), tx))
    return rows
