"""The four benchmark workloads: seeded inputs, one job, and its oracle.

Library calls go through module attributes (``lhckit.verify_lhc``,
``jsonio.write_json``) so that the tracer's rebinding sees them.

Each workload is a closed loop with one client: the runner starts job i+1
only after job i returned. Job i draws its inputs from
``numpy.random.default_rng([seed, 0, i])`` (set-up from ``[seed, 1]``), so a
job can be replayed and the
same seed always gives the same inputs; the library only ever sees the
generated inputs. ``job`` is the timed part. ``check`` is the oracle: it
recomputes the expected answer with numpy/scipy arithmetic of its own and
never asks the library to grade itself.

Mixed-size workloads cycle through a staircase of sizes, and the cli
sizes put the three slowest subcommands close together, so the latency
distribution has no wide gap at the median or the 90th percentile. A
quantile that falls between two well-separated modes jumps from one to
the other when the host runs slower for part of a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np
from scipy.stats import binom

import lhckit
from lhckit import bipartite, bsc_id, cli, jsonio

LEAK = 0.05  # uniform leakage of the "sharp" channels
EDGES = 8  # edges of every certify partition
EXACT = 1e-12  # slack between a library probability and its oracle

# certify: alphabet sizes per job, cycled
CERTIFY_SIZES = (96, 128, 160, 192, 224)
# bsc-id: parameters of the parallel-BSC identification example
BSC_N, BSC_DELTA, BSC_GAMMA, BSC_EPS = 200, 0.1, 0.03, 0.3
BSC_SIZES = (8, 11, 14, 17, 20)  # codebook size M per job, cycled
BSC_TRIALS = 12_000
# falsify: branch-swap harness size per job
FALSIFY_TRIALS, FALSIFY_EDGES, FALSIFY_SYMBOLS = 25, 3, 3
# cli: sizes of the file inputs
CLI_V = 256  # verify / decompose alphabets; derandomize channel symbols
CLI_MESSAGES = 128  # derandomize messages
CLI_ASSEMBLE_N, CLI_ASSEMBLE_M, CLI_ASSEMBLE_T = 6, 3, 1
CLI_IDSIM_M, CLI_IDSIM_TRIALS = 16, 20_000
CLI_CODEBOOK_N, CLI_CODEBOOK_DELTA, CLI_CODEBOOK_M = 12, 0.25, 32
RATES_ARGS = ["rates", "--gamma", "0.03", "--grid", "0:0.5:0.01"]


def job_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), 0, int(i)])


def setup_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), 1])


def job_seed(seed: int, i: int) -> int:
    """Per-job integer seed for library calls that take one."""
    return int(job_rng(seed, i).integers(1 << 31))


# ---------------------------------------------------------------------------
# Instance generators (numpy only, independent of the library's own)
# ---------------------------------------------------------------------------


def partition(rng, n: int, k: int) -> list[tuple[int, ...]]:
    """Random split of range(n) into k nonempty sorted blocks."""
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    return [tuple(sorted(int(v) for v in b)) for b in np.split(order, cuts)]


def aim(rng, src_blocks, dst_blocks, perm, n: int) -> np.ndarray:
    """Target per source symbol: a random member of the block it is aimed at."""
    targets = np.empty(n, dtype=np.int64)
    for i, block in enumerate(src_blocks):
        dst = np.asarray(dst_blocks[perm[i]])
        targets[list(block)] = dst[rng.integers(dst.size, size=len(block))]
    return targets


def sharp_rows(n_out: int, targets, leak: float) -> np.ndarray:
    """Deterministic map plus uniform leakage of total mass ``leak``."""
    targets = np.asarray(targets)
    rows = np.full((targets.size, n_out), leak / n_out)
    rows[np.arange(targets.size), targets] += 1.0 - leak
    return rows


def plant_verify(rng, v: int) -> dict:
    """Sharp V x V channel between two 8-block partitions, planted bijection."""
    src, tgt = partition(rng, v, EDGES), partition(rng, v, EDGES)
    perm = [int(x) for x in rng.permutation(EDGES)]
    rows = sharp_rows(v, aim(rng, src, tgt, perm, v), LEAK)
    return {"v": v, "src": src, "tgt": tgt, "perm": perm, "rows": rows}


def verify_profile(p: dict) -> np.ndarray:
    """Closed form: every vertex of edge e fails with leak * (1 - |B|/V)."""
    return np.array([LEAK * (1.0 - len(p["tgt"][j]) / p["v"]) for j in p["perm"]])


def plant_two_stage(rng, v: int) -> dict:
    """V -> V -> V channel refining through planted middle blocks."""
    src, mid, tgt = (partition(rng, v, EDGES) for _ in range(3))
    e_perm = [int(x) for x in rng.permutation(EDGES)]
    phi = sharp_rows(v, aim(rng, src, mid, list(range(EDGES)), v), LEAK)
    gamma = sharp_rows(v, aim(rng, mid, tgt, e_perm, v), LEAK)
    comp = phi @ gamma
    lam = np.array([max(1.0 - comp[a, list(tgt[e_perm[i]])].sum() for a in blk)
                    for i, blk in enumerate(src)])
    return {"v": v, "src": src, "mid": mid, "tgt": tgt, "e_perm": e_perm,
            "phi": phi, "gamma": gamma, "lam": lam, "kappa": 0.5,
            "mu": np.minimum(1.0, 2.0 * lam + 0.05)}


def plant_code(rng, v: int, m: int) -> dict:
    """Code for ``a -> a mod 8`` on m messages over a sharp v-symbol channel."""
    values = EDGES
    xs = rng.permutation(v)[:m]
    chan_perm = rng.permutation(v)
    dec_t = rng.integers(values, size=v)
    dec_t[chan_perm[xs]] = np.arange(m) % values
    return {"m": m, "v": v, "values": values,
            "mapping": tuple(a % values for a in range(m)),
            "enc": sharp_rows(v, xs, 0.01),
            "chan": sharp_rows(v, chan_perm, LEAK),
            "dec": sharp_rows(values, dec_t, 0.01)}


def code_profile(mapping, enc, chan, dec) -> np.ndarray:
    """Worst failure per value of the composite enc @ chan @ dec."""
    psi = enc @ chan @ dec
    mapping = np.asarray(mapping)
    return np.array([(1.0 - psi[mapping == b, b]).max()
                     for b in range(dec.shape[1])])


# -- library objects from planted arrays --------------------------------------


def _alphabets(v: int, *prefixes: str):
    return [lhckit.Alphabet.of_size(v, p) for p in prefixes]


def verify_objects(p: dict):
    a, b = _alphabets(p["v"], "a", "b")
    return (lhckit.Channel(a, b, p["rows"]),
            lhckit.Hypergraph(a, tuple(p["src"])),
            lhckit.Hypergraph(b, tuple(p["tgt"])))


def two_stage_objects(p: dict) -> dict:
    a, b, c = _alphabets(p["v"], "a", "b", "c")
    return {"phi": lhckit.Channel(a, b, p["phi"]),
            "gamma": lhckit.Channel(b, c, p["gamma"]),
            "source": lhckit.Hypergraph(a, tuple(p["src"])),
            "target": lhckit.Hypergraph(c, tuple(p["tgt"])),
            "e_edge": lhckit.EdgeMap(EDGES, EDGES, tuple(p["e_perm"])),
            "kappa": p["kappa"], "mu": p["mu"], "lam": p["lam"]}


def code_object(p: dict) -> lhckit.FunctionCode:
    (msgs,) = _alphabets(p["m"], "m")
    x, y = _alphabets(p["v"], "x", "y")
    (vals,) = _alphabets(p["values"], "f")
    return lhckit.FunctionCode(
        encoder=lhckit.Channel(msgs, x, p["enc"]),
        decoder=lhckit.Channel(y, vals, p["dec"]),
        f=lhckit.FunctionTable(msgs, vals, p["mapping"]),
        channel=lhckit.Channel(x, y, p["chan"]),
    )


def check_derandomized(p: dict, enc_rows, dec_rows) -> bool:
    """Deterministic 0/1 rows, and profile at most 4x the stochastic one."""
    det = all(np.array_equal(r, r.astype(bool)) and np.all(r.sum(1) == 1.0)
              for r in (enc_rows, dec_rows))
    lam = code_profile(p["mapping"], p["enc"], p["chan"], p["dec"])
    new = code_profile(p["mapping"], enc_rows, p["chan"], dec_rows)
    return det and bool(np.all(new <= 4.0 * lam + EXACT))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Closed-loop job source. ``setup`` writes inputs, ``job`` is timed,
    ``check`` is the untimed oracle, ``cold_args`` is one job run through
    the command line in a fresh interpreter."""

    name = ""
    pass_jobs = 1  # jobs in one traced pass: one full size cycle

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def sizes(self) -> dict:
        raise NotImplementedError

    def job(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def cold_args(self) -> list[str]:
        raise NotImplementedError


def write_verify_inputs(p: dict, d: Path) -> list[str]:
    """verify-command input files for a planted instance; returns the argv."""
    ch, src, tgt = verify_objects(p)
    files = {
        "channel": jsonio.channel_to_dict(ch),
        "source": jsonio.hypergraph_to_dict(src),
        "target": jsonio.hypergraph_to_dict(tgt),
        "edge-map": jsonio.edge_map_to_dict(lhckit.EdgeMap(EDGES, EDGES, tuple(p["perm"]))),
    }
    argv = ["verify"]
    for flag, payload in files.items():
        jsonio.write_json(d / f"verify.{flag}.json", payload)
        argv += [f"--{flag}", str(d / f"verify.{flag}.json")]
    return argv + ["--lambda", repr(LEAK), "--out", str(d / "verify.cert.json")]


class Certify(Workload):
    """infer_edge_map -> verify_lhc -> decompose -> derandomize on large alphabets.

    The paper's certificate pipeline; per-vertex work in hypergraph and
    verify dominates, while bsc_id, jsonio and cli stay idle.
    """

    name = "certify"
    pass_jobs = len(CERTIFY_SIZES)

    def setup(self) -> None:
        super().setup()
        p = plant_verify(setup_rng(self.seed), CERTIFY_SIZES[0])
        self._cold = write_verify_inputs(p, self.workdir)

    def sizes(self) -> dict:
        return {"V_cycle": list(CERTIFY_SIZES), "edges": EDGES, "leak": LEAK,
                "derandomize_messages": "V/2", "function_values": EDGES}

    def job(self, i: int):
        v = CERTIFY_SIZES[i % len(CERTIFY_SIZES)]
        rng = job_rng(self.seed, i)
        pv = plant_verify(rng, v)
        ch, src, tgt = verify_objects(pv)
        f_e, profile = lhckit.infer_edge_map(ch, src, tgt)
        cert = lhckit.verify_lhc(ch, src, tgt, f_e, profile)
        p2 = plant_two_stage(rng, v)
        split = lhckit.decompose(**two_stage_objects(p2))
        pc = plant_code(rng, v, v // 2)
        enc, dec = lhckit.derandomize(code_object(pc))
        return (pv, f_e.mapping, profile, cert.passed,
                p2, split.intermediate.edges, split.cert_phi.passed, split.cert_gamma.passed,
                pc, enc.rows, dec.rows)

    def check(self, i: int, out) -> bool:
        pv, mapping, profile, passed, p2, blocks, ok_phi, ok_gamma, pc, enc, dec = out
        return (list(mapping) == pv["perm"]
                and bool(np.all(np.abs(profile - verify_profile(pv)) <= EXACT))
                and passed and ok_phi and ok_gamma
                and list(blocks) == list(p2["mid"])
                and check_derandomized(pc, enc, dec))

    def cold_args(self) -> list[str]:
        return self._cold


def _flip(gamma: float) -> float:
    """Probability that exactly one of two noisy copies flips a letter."""
    return 2.0 * gamma * (1.0 - gamma)


def _pair_accept(k: int, n: int, b: float, top: int) -> float:
    """P(Bin(k, 1-b) + Bin(n-k, b) <= top): a pair at distance k is accepted."""
    law = np.convolve(binom.pmf(np.arange(k + 1), k, 1.0 - b),
                      binom.pmf(np.arange(n - k + 1), n - k, b))
    return float(law[: top + 1].sum())


def _distances(words) -> np.ndarray:
    bits = np.array([[c == "1" for c in w] for w in words])
    return (bits[:, None, :] != bits[None, :, :]).sum(-1)


def bsc_false_reject(n: int, gamma: float, eps: float) -> float:
    """Equal messages are rejected when Bin(n, beta) exceeds the threshold."""
    b = _flip(gamma)
    return float(binom.sf(math.floor(n * (1.0 + eps) * b), n, b))


def bsc_false_accept(words, n: int, gamma: float, eps: float) -> float:
    """Mean acceptance over ordered distinct codeword pairs."""
    b = _flip(gamma)
    top = math.floor(n * (1.0 + eps) * b)
    off = _distances(words)[~np.eye(len(words), dtype=bool)]
    ks, counts = np.unique(off, return_counts=True)
    return float(np.dot([_pair_accept(k, n, b, top) for k in ks], counts) / off.size)


class BscId(Workload):
    """gen_codebook -> exact_error_rates -> monte_carlo_id over two BSCs.

    Nearly all time is in bsc_id: the M(M-1) pairwise laws of the exact
    oracle (largest for the M=20 jobs) and the raw-flip simulator. Hypergraph,
    verify and decomposition are never called, so a change there should not
    move it.
    """

    name = "bsc-id"
    pass_jobs = len(BSC_SIZES)

    def sizes(self) -> dict:
        return {"n": BSC_N, "delta": BSC_DELTA, "gamma": BSC_GAMMA, "eps": BSC_EPS,
                "M_cycle": list(BSC_SIZES), "mc_trials": BSC_TRIALS, "workers": 1}

    def job(self, i: int):
        m = BSC_SIZES[i % len(BSC_SIZES)]
        s = job_seed(self.seed, i)
        book = lhckit.gen_codebook(BSC_N, BSC_DELTA, m, seed=s, strategy="random-greedy")
        fr, fa = lhckit.exact_error_rates(book, BSC_GAMMA, BSC_EPS)
        est = lhckit.monte_carlo_id(book, BSC_GAMMA, BSC_EPS, BSC_TRIALS, seed=s, workers=1)
        return book.words, fr, fa, est

    def check(self, i: int, out) -> bool:
        words, fr, fa, est = out
        m = BSC_SIZES[i % len(BSC_SIZES)]
        if len(words) != m or abs(fr - bsc_false_reject(BSC_N, BSC_GAMMA, BSC_EPS)) > EXACT:
            return False
        if abs(fa - bsc_false_accept(words, BSC_N, BSC_GAMMA, BSC_EPS)) > EXACT:
            return False
        for rate, exact, trials in ((est.false_rejects, fr, est.equal_trials),
                                    (est.false_accepts, fa, est.distinct_trials)):
            sd = math.sqrt(max(exact * (1.0 - exact), 1e-12) / trials)
            if abs(rate / trials - exact) > 6.0 * sd:
                return False
        return est.trials == BSC_TRIALS

    def cold_args(self) -> list[str]:
        return ["id-sim", "--n", str(BSC_N), "--gamma", str(BSC_GAMMA),
                "--delta", str(BSC_DELTA), "--eps", str(BSC_EPS),
                "--M", str(BSC_SIZES[-1]), "--trials", str(BSC_TRIALS),
                "--seed", str(self.seed), "--out", str(self.workdir / "cold.csv")]


def reproduces(dump: dict) -> bool:
    """Criterion-10 oracle: a reloaded dump re-checks to its recorded verdicts."""
    inst = jsonio.instance_from_dict(dump["instance"])
    again = bipartite.check_branch_swap(inst.phi, inst.hyper_h, inst.hyper_g,
                                        inst.hyper_i, inst.hyper_f, inst.lam)
    return (dump["hypothesis_holds"] and not dump["conclusion_holds"]
            and again.hypothesis_holds and not again.conclusion_holds)


class Falsify(Workload):
    """Branch-swap harness on tiny instances; dumps round-trip through jsonio.

    The certify layers on instances of at most 9 vertices, so fixed
    per-call cost dominates: per-object set-up added to speed up certify
    shows here as a loss.
    """

    name = "falsify"
    pass_jobs = 20

    def sizes(self) -> dict:
        return {"trials": FALSIFY_TRIALS, "max_edges": FALSIFY_EDGES,
                "max_symbols": FALSIFY_SYMBOLS}

    def job(self, i: int):
        summary = bipartite.run_branch_swap_harness(
            FALSIFY_TRIALS, job_seed(self.seed, i),
            max_edges=FALSIFY_EDGES, max_symbols=FALSIFY_SYMBOLS)
        path = self.workdir / "dump.json"
        dumps = []
        for report in summary.counterexamples:
            jsonio.write_json(path, jsonio.counterexample_to_dict(report))
            dumps.append(jsonio.read_json(path))
        return summary.trials, dumps

    def check(self, i: int, out) -> bool:
        trials, dumps = out
        return trials == FALSIFY_TRIALS and all(reproduces(d) for d in dumps)

    def cold_args(self) -> list[str]:
        return ["falsify", "--trials", str(FALSIFY_TRIALS), "--seed", str(self.seed),
                "--out", str(self.workdir / "cold.json")]


def _assemble_oracle(words, n: int, gamma: float, t: int) -> list[float]:
    """Exact profile (false accept, false reject) of the threshold decoder."""
    b = _flip(gamma)
    dist = _distances(words)[~np.eye(len(words), dtype=bool)]
    return [max(_pair_accept(int(k), n, b, t) for k in dist), float(binom.sf(t, n, b))]


def _rate(delta: float, gamma: float) -> tuple[float, float]:
    def h(p):
        return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    return 1.0 - h(delta), 1.0 - h(gamma)


class Cli(Workload):
    """All eight subcommands through ``lhckit.cli.main``, files in and out.

    The only workload where jsonio reads and writes MB-sized JSON and cli
    parsing and validation carry the cost.
    """

    name = "cli"
    COMMANDS = ("verify", "decompose", "derandomize", "assemble-id",
                "id-sim", "rates", "codebook", "falsify")
    pass_jobs = len(COMMANDS)

    def sizes(self) -> dict:
        return {"verify_V": CLI_V, "decompose_V": CLI_V,
                "derandomize": {"messages": CLI_MESSAGES, "symbols": CLI_V},
                "assemble-id": {"n": CLI_ASSEMBLE_N, "M": CLI_ASSEMBLE_M},
                "id-sim": {"n": BSC_N, "M": CLI_IDSIM_M, "trials": CLI_IDSIM_TRIALS},
                "codebook": {"n": CLI_CODEBOOK_N, "M": CLI_CODEBOOK_M},
                "falsify": {"trials": FALSIFY_TRIALS}}

    def setup(self) -> None:
        super().setup()
        d, rng = self.workdir, setup_rng(self.seed)
        self._pv = plant_verify(rng, CLI_V)
        argv = {"verify": write_verify_inputs(self._pv, d)}

        p2 = plant_two_stage(rng, CLI_V)
        objs = two_stage_objects(p2)
        argv["decompose"] = ["decompose"]
        for flag, key, to_dict in (
                ("phi", "phi", jsonio.channel_to_dict),
                ("gamma-channel", "gamma", jsonio.channel_to_dict),
                ("source", "source", jsonio.hypergraph_to_dict),
                ("target", "target", jsonio.hypergraph_to_dict),
                ("edge-map", "e_edge", jsonio.edge_map_to_dict)):
            jsonio.write_json(d / f"dec.{flag}.json", to_dict(objs[key]))
            argv["decompose"] += [f"--{flag}", str(d / f"dec.{flag}.json")]
        for flag, key in (("lambda", "lam"), ("mu", "mu")):
            argv["decompose"] += [f"--{flag}", ",".join(repr(float(x)) for x in p2[key])]
        argv["decompose"] += ["--kappa", repr(p2["kappa"]), "--out-prefix", str(d / "split")]
        self._p2 = p2

        self._pc = plant_code(rng, CLI_V, CLI_MESSAGES)
        jsonio.write_code_bundle(d / "code.json", code_object(self._pc))
        argv["derandomize"] = ["derandomize", "--code", str(d / "code.json"),
                               "--out-prefix", str(d / "det")]

        argv["assemble-id"] = self._write_assemble(d)
        argv["rates"] = RATES_ARGS + ["--out", str(d / "rates.csv")]
        self._argv = argv

    def _write_assemble(self, d: Path) -> list[str]:
        n, m = CLI_ASSEMBLE_N, CLI_ASSEMBLE_M
        book = bsc_id.gen_codebook(n, 0.5, m)
        ex = bsc_id.build_example_hypergraphs(book, epsilon=0.3, gamma=BSC_GAMMA)
        msgs = lhckit.Alphabet.of_size(m)
        enc = lhckit.deterministic_channel(
            lhckit.FunctionTable(msgs, lhckit.Alphabet(book.words), tuple(range(m))))
        files = {
            "enc1": jsonio.channel_to_dict(enc),
            "enc2": jsonio.channel_to_dict(enc),
            "phi": jsonio.channel_to_dict(bsc_id.restricted_pair_channel(book, BSC_GAMMA)),
            "hyper-h": jsonio.hypergraph_to_dict(ex.hyper_h),
            "hyper-g1": jsonio.hypergraph_to_dict(ex.hyper_g1),
            "hyper-g2": jsonio.hypergraph_to_dict(ex.hyper_g2),
            "hyper-f": jsonio.hypergraph_to_dict(ex.hyper_c),
            "hyper-d": jsonio.hypergraph_to_dict(
                bsc_id.threshold_split_hypergraph(n, CLI_ASSEMBLE_T)),
        }
        argv = ["assemble-id"]
        for flag, payload in files.items():
            jsonio.write_json(d / f"id.{flag}.json", payload)
            argv += [f"--{flag}", str(d / f"id.{flag}.json")]
        self._assemble = _assemble_oracle(book.words, n, BSC_GAMMA, CLI_ASSEMBLE_T)
        mu = ",".join(repr(x + 1e-9) for x in self._assemble)
        return argv + ["--alpha", "0,0", "--beta", "0,0", "--mu", mu,
                       "--out-prefix", str(d / "id")]

    def argv(self, i: int) -> list[str]:
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        d, s = self.workdir, str(job_seed(self.seed, i))
        if cmd == "id-sim":
            return ["id-sim", "--n", str(BSC_N), "--gamma", str(BSC_GAMMA),
                    "--delta", str(BSC_DELTA), "--eps", str(BSC_EPS),
                    "--M", str(CLI_IDSIM_M), "--trials", str(CLI_IDSIM_TRIALS),
                    "--seed", s, "--out", str(d / "id-sim.csv")]
        if cmd == "codebook":
            return ["codebook", "--n", str(CLI_CODEBOOK_N),
                    "--delta", str(CLI_CODEBOOK_DELTA), "--M", str(CLI_CODEBOOK_M),
                    "--seed", s, "--out", str(d / "codebook.txt")]
        if cmd == "falsify":
            return ["falsify", "--trials", str(FALSIFY_TRIALS), "--seed", s,
                    "--out", str(d / "falsify.json")]
        return self._argv[cmd]

    nonzero_exits = 0

    def job(self, i: int):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(self.argv(i))
        self.nonzero_exits += rc != 0
        return rc

    def check(self, i: int, rc) -> bool:
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        return rc == 0 and getattr(self, "_check_" + cmd.replace("-", "_"))()

    def _check_verify(self) -> bool:
        cert = jsonio.certificate_from_dict(jsonio.read_json(self.workdir / "verify.cert.json"))
        return cert.passed and list(cert.edge_map.mapping) == self._pv["perm"]

    def _check_decompose(self) -> bool:
        d = self.workdir
        inter = jsonio.hypergraph_from_dict(jsonio.read_json(d / "split.intermediate.json"))
        certs = [jsonio.certificate_from_dict(jsonio.read_json(d / f"split.cert_{s}.json"))
                 for s in ("phi", "gamma")]
        return list(inter.edges) == list(self._p2["mid"]) and all(c.passed for c in certs)

    def _check_derandomize(self) -> bool:
        d = self.workdir
        enc, dec = (jsonio.channel_from_dict(jsonio.read_json(d / f"det.{s}.json"))
                    for s in ("encoder", "decoder"))
        return (jsonio.read_json(d / "det.report.json")["within_bound"]
                and check_derandomized(self._pc, enc.rows, dec.rows))

    def _check_assemble_id(self) -> bool:
        jsonio.read_code_bundle(self.workdir / "id.code.json")
        got = jsonio.read_json(self.workdir / "id.report.json")["exact_profile"]
        return bool(np.all(np.abs(np.array(got) - self._assemble) <= EXACT))

    def _check_id_sim(self) -> bool:
        with open(self.workdir / "id-sim.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        trials, fa, fr, _ = (float(x) for x in rows[1])
        # 6 sigma around the exact false-reject rate of the equal-message half
        exact = bsc_false_reject(BSC_N, BSC_GAMMA, BSC_EPS)
        half = (CLI_IDSIM_TRIALS + 1) // 2
        return (rows[0] == ["trials", "false_accept", "false_reject", "bound"]
                and trials == CLI_IDSIM_TRIALS and 0.0 <= fa <= 1.0
                and abs(fr - exact) <= 6.0 * math.sqrt(exact * (1 - exact) / half))

    def _check_rates(self) -> bool:
        with open(self.workdir / "rates.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return len(rows) == 51 and all(
            max(abs(float(gv) - _rate(float(dl), BSC_GAMMA)[0]),
                abs(float(tx) - _rate(float(dl), BSC_GAMMA)[1])) <= EXACT
            for dl, gv, tx in rows)

    def _check_codebook(self) -> bool:
        book = jsonio.read_codebook(self.workdir / "codebook.txt")  # validates distances
        return (book.size == CLI_CODEBOOK_M and book.n == CLI_CODEBOOK_N
                and book.dmin == math.ceil(CLI_CODEBOOK_N * CLI_CODEBOOK_DELTA))

    def _check_falsify(self) -> bool:
        out = jsonio.read_json(self.workdir / "falsify.json")
        return out["trials"] == FALSIFY_TRIALS and all(
            reproduces(d) for d in out["counterexamples"])

    def cold_args(self) -> list[str]:
        return RATES_ARGS + ["--out", str(self.workdir / "cold.csv")]


WORKLOADS = {w.name: w for w in (Certify, BscId, Falsify, Cli)}
