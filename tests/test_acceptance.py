"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values come from independent oracles: brute-force
probability sums, exhaustive enumeration, binomial tail arithmetic, and
closed-form evaluation, never from the code paths under test.
"""

import itertools
import math
import time

import numpy as np
from scipy.stats import binom

from lhckit import (
    Alphabet,
    FunctionCode,
    FunctionTable,
    assemble_id_code,
    code_error_profile,
    code_to_lhc,
    decompose,
    derandomize,
    deterministic_channel,
    lhc_to_code,
    sandwich_transfer,
)
from lhckit import bsc_id, jsonio
from lhckit.bipartite import run_branch_swap_harness, check_branch_swap
from lhckit.cli import main

import oracles
from conftest import (
    rand_channel,
    reliable_code,
    sandwich_instance,
    two_stage_instance,
)


def announce(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS — {text}")


def test_criterion_1_code_certificate_equivalence():
    """Both conversion directions agree with brute force, for every small
    function and 50 random stochastic codes each."""
    start = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for dom_size in (1, 2, 3):
        dom = Alphabet.of_size(dom_size, "a")
        cod = Alphabet.of_size(2, "b")
        for mapping in itertools.product(range(2), repeat=dom_size):
            f = FunctionTable(dom, cod, mapping)
            for _ in range(50):
                mid_x = int(rng.integers(1, 4))
                mid_y = int(rng.integers(1, 4))
                code = FunctionCode(
                    rand_channel(rng, dom, Alphabet.of_size(mid_x, "x")),
                    rand_channel(rng, Alphabet.of_size(mid_y, "y"), cod),
                    f,
                    rand_channel(rng, Alphabet.of_size(mid_x, "x"),
                                 Alphabet.of_size(mid_y, "y")),
                )
                cert = code_to_lhc(code)
                oracle = oracles.brute_force_profile(code)
                assert np.all(np.abs(cert.lam - oracle) <= 1e-12)
                restored = lhc_to_code(cert, code)
                assert np.all(code_error_profile(restored) <= cert.lam + 1e-12)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(1, f"{checked} codes, certificate == brute force to 1e-12, "
                f"round trip bounded ({elapsed:.1f}s)")


def test_criterion_2_decomposition_certifies_200_of_200():
    rng = np.random.default_rng(2002)
    for i in range(200):
        inst = two_stage_instance(rng)
        result = decompose(**inst)  # raises with an instance dump on failure
        assert result.cert_phi.passed and result.cert_gamma.passed, (
            f"instance {i} failed despite verified hypotheses"
        )
    announce(2, "200/200 random two-stage splits certified both stages")


def test_criterion_3_derandomization_factor_four():
    rng = np.random.default_rng(3003)
    for i in range(200):
        code = reliable_code(rng)
        lam = code_error_profile(code)
        assert np.all(lam < 0.125)
        enc, dec = derandomize(code)
        new = FunctionCode(enc, dec, code.f, code.channel)
        new_lam = code_error_profile(new)
        assert np.all(new_lam <= 4.0 * lam + 1e-12), f"instance {i}: {new_lam} vs 4*{lam}"
    announce(3, "200/200 deterministic codes within 4x the stochastic error")


def test_criterion_4_sandwich_verdicts_agree():
    rng = np.random.default_rng(4004)
    for i in range(100):
        inst = sandwich_instance(rng)
        _, (outer, inner) = sandwich_transfer(**inst)
        assert outer == inner, f"instance {i}: {outer} vs {inner}"
    announce(4, "100/100 sandwich transfers: outer and inner verdicts agree")


def test_criterion_5_derived_example_numbers():
    assert abs(bsc_id.beta(0.03) - 0.0582) <= 1e-12
    assert abs(bsc_id.theta(0.1, 0.03) - 0.14656) <= 1e-9
    assert abs(bsc_id.epsilon_max(0.1, 0.03) - 0.43153) <= 1e-5
    assert abs((1.0 - bsc_id.binary_entropy(0.03)) - 0.8056) <= 1e-4
    got = bsc_id.chernoff_bound(1000, 0.3, 0.1, 0.03)
    assert abs(got - 2.73e-3) <= 0.02 * 2.73e-3
    announce(5, "beta, theta, epsilon_max, rate, and concentration bound "
                "match closed-form arithmetic")


def test_criterion_6_bound_validity_and_monte_carlo():
    start = time.time()
    gamma, delta, eps = 0.03, 0.1, 0.3
    for n in (100, 500, 1000):
        k = n // 10
        miss = bsc_id.exact_window_miss(n, k, gamma, eps, delta)
        far_bound = bsc_id.chernoff_bound(n, eps, delta, gamma)
        near_bound = bsc_id.chernoff_bound(n, eps, 0.0, gamma)
        assert miss <= far_bound

        book = bsc_id.gen_codebook(n, delta, 16, seed=60_000 + n,
                                   strategy="random-greedy")
        est = bsc_id.monte_carlo_id(book, gamma, eps, 100_000, seed=n)
        assert est.false_accept_rate <= far_bound
        assert est.false_reject_rate <= near_bound

        fr_exact, fa_exact = bsc_id.exact_error_rates(book, gamma, eps)
        for rate, exact, n_side in (
            (est.false_reject_rate, fr_exact, est.equal_trials),
            (est.false_accept_rate, fa_exact, est.distinct_trials),
        ):
            sd = math.sqrt(max(exact * (1.0 - exact), 1e-12) / n_side)
            assert abs(rate - exact) <= 3.0 * sd + 1e-9
    elapsed = time.time() - start
    assert elapsed < 60.0
    announce(6, f"window misses below the bound and 3 runs of 1e5 trials "
                f"inside 3 sigma of exact rates ({elapsed:.1f}s)")


def test_criterion_7_mean_distance_law():
    worst = 0.0
    for gamma in (0.01, 0.03, 0.1, 0.25):
        for n in range(1, 65):
            for k in range(n + 1):
                law = bsc_id.pair_distance_distribution(n, k, gamma)
                worst = max(worst, abs(law.mean - n * bsc_id.theta(k / n, gamma)))
    assert worst <= 1e-9
    announce(7, f"exact convolution mean matches the affine law, worst gap {worst:.2e}")


def test_criterion_8_assembled_code_respects_certificate_sum():
    n, gamma, t = 6, 0.03, 2
    book = bsc_id.gen_codebook(n, 1.0, 2)
    ex = bsc_id.build_example_hypergraphs(book, epsilon=0.3, gamma=gamma)
    msgs = Alphabet.of_size(2)
    enc = deterministic_channel(FunctionTable(msgs, Alphabet(book.words), (0, 1)))
    phi = bsc_id.restricted_pair_channel(book, gamma)
    hyper_d = bsc_id.threshold_split_hypergraph(n, t)
    b = bsc_id.beta(gamma)
    false_reject = float(binom.sf(t, n, b))
    false_accept = float(binom.cdf(t, n, 1.0 - b))
    mu = np.array([false_accept, false_reject]) + 1e-9
    code, bound = assemble_id_code(
        enc, enc, phi, ex.hyper_h, ex.hyper_g1, ex.hyper_g2, ex.hyper_c,
        hyper_d, alpha=np.zeros(2), beta=np.zeros(2), mu=mu,
    )
    oracle = np.array([false_accept, false_reject])  # binomial tails
    assert np.all(oracle <= bound + 1e-12)
    assert np.all(np.abs(code_error_profile(code) - oracle) <= 1e-12)
    announce(8, "repetition identification code error equals binomial tails "
                "and stays under alpha+beta+mu")


def test_criterion_9_bit_reproducibility(tmp_path):
    book = bsc_id.gen_codebook(200, 0.1, 8, seed=9, strategy="random-greedy")
    runs = [bsc_id.monte_carlo_id(book, 0.03, 0.3, 30_000, seed=99, workers=w)
            for w in (1, 4, 16)]
    tallies = {(r.false_rejects, r.false_accepts) for r in runs}
    assert len(tallies) == 1

    args = ["id-sim", "--n", "100", "--gamma", "0.03", "--delta", "0.1",
            "--eps", "0.3", "--M", "8", "--trials", "5000", "--seed", "12"]
    assert main([*args, "--out", str(tmp_path / "a.csv")]) == 0
    assert main([*args, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    announce(9, "Monte Carlo identical across 1/4/16 workers; CLI artifacts "
                "byte-identical across runs")


def test_criterion_10_branch_swap_harness(tmp_path):
    summary = run_branch_swap_harness(500, seed=10_010)
    assert summary.trials == 500
    bad = 0
    for report in summary.counterexamples:
        dump = jsonio.counterexample_to_dict(report)
        inst = jsonio.instance_from_dict(dump["instance"])
        again = check_branch_swap(inst.phi, inst.hyper_h, inst.hyper_g,
                                  inst.hyper_i, inst.hyper_f, inst.lam)
        if not (again.hypothesis_holds and not again.conclusion_holds):
            bad += 1
    assert bad == 0  # every dump is well formed and reproduces its verdicts
    announce(10, f"500 instances checked; hypothesis held {summary.hypothesis_held} "
                 f"times; {len(summary.counterexamples)} well-formed "
                 "counterexample dumps")
