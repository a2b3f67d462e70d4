"""Command-line front end: one binary, subcommand per task.

Exit codes: 0 on success or a passing certificate, 1 when a verification or
construction fails on well-formed inputs, 2 on usage or parse errors. All
randomness flows from the --seed flag (a fixed printed constant by
default); the worker count for simulation comes from the LHC_KIT_WORKERS
environment variable only.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bsc_id, jsonio
from .bipartite import assemble_id_code, run_branch_swap_harness
from .codes import code_error_profile, FunctionCode
from .decomposition import decompose, derandomize
from .errors import LhcKitError
from .verify import VERIFY_SLACK, edge_vector, verify_lhc

DEFAULT_SEED = 20240


@dataclass
class ExperimentConfig:
    """One task with its file inputs, scalar parameters, and output paths."""

    task: str
    inputs: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


_LOADERS = {
    "channel": jsonio.channel_from_dict,
    "phi": jsonio.channel_from_dict,
    "gamma_channel": jsonio.channel_from_dict,
    "enc1": jsonio.channel_from_dict,
    "enc2": jsonio.channel_from_dict,
    "source": jsonio.hypergraph_from_dict,
    "target": jsonio.hypergraph_from_dict,
    "hyper_h": jsonio.hypergraph_from_dict,
    "hyper_g1": jsonio.hypergraph_from_dict,
    "hyper_g2": jsonio.hypergraph_from_dict,
    "hyper_f": jsonio.hypergraph_from_dict,
    "hyper_d": jsonio.hypergraph_from_dict,
    "edge_map": jsonio.edge_map_from_dict,
}

_TASKS = (
    "verify", "decompose", "derandomize", "assemble-id",
    "id-sim", "rates", "codebook", "falsify",
)


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and range diagnostics without running the task."""
    notes: list[str] = []
    if config.task not in _TASKS:
        notes.append(f"error: unknown task {config.task!r}")
        return notes
    for role, path in config.inputs.items():
        p = Path(path)
        if not p.is_file():
            notes.append(f"error: input {role}: no file at {path}")
            continue
        if role == "code":
            try:
                jsonio.read_code_bundle(p)
            except Exception as exc:  # malformed bundles must not crash
                notes.append(f"error: input {role}: {exc}")
            continue
        if role == "codebook":
            try:
                jsonio.read_codebook(p)
            except Exception as exc:
                notes.append(f"error: input {role}: {exc}")
            continue
        loader = _LOADERS.get(role)
        if loader is None:
            continue
        try:
            loader(jsonio.read_json(p))
        except Exception as exc:
            notes.append(f"error: input {role}: {exc}")

    p = config.params
    gamma = p.get("gamma")
    if gamma is not None and not 0.0 <= gamma <= 1.0:
        notes.append(f"error: gamma {gamma} outside [0, 1]")
    if config.task == "rates" and gamma is not None and not 0.0 <= gamma <= 0.5:
        notes.append(f"error: transmission rate needs gamma in [0, 1/2], got {gamma}")
    delta = p.get("delta")
    if delta is not None and not 0.0 <= delta <= 1.0:
        notes.append(f"error: delta {delta} outside [0, 1]")
    eps = p.get("epsilon")
    if eps is not None and eps <= 0.0:
        notes.append(f"error: epsilon {eps} must be positive")
    if None not in (gamma, delta, eps) and 0 < gamma < 1 and 0 < delta <= 1:
        e_max = bsc_id.epsilon_max(delta, gamma)
        if eps >= e_max:
            notes.append(
                "error: epsilon must be below "
                "(theta_delta - theta_0)/(theta_delta + theta_0) "
                f"= {e_max}; got {eps}"
            )
    trials = p.get("trials")
    if trials is not None and trials < 1:
        notes.append(f"error: trials {trials} must be at least 1")
    m = p.get("m")
    if m is not None and m < 2:
        notes.append(f"error: message count {m} must be at least 2")
    if not notes:
        notes.append("ok: configuration is well formed")
    return notes


def run(config: ExperimentConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    handler = {
        "verify": _run_verify,
        "decompose": _run_decompose,
        "derandomize": _run_derandomize,
        "assemble-id": _run_assemble,
        "id-sim": _run_id_sim,
        "rates": _run_rates,
        "codebook": _run_codebook,
        "falsify": _run_falsify,
    }[config.task]
    return handler(config)


def _load(config: ExperimentConfig, role: str):
    return _LOADERS[role](jsonio.read_json(config.inputs[role]))


def _run_verify(config: ExperimentConfig) -> int:
    channel = _load(config, "channel")
    source = _load(config, "source")
    target = _load(config, "target")
    edge_map = _load(config, "edge_map")
    lam = edge_vector(config.params["lambda"], source.edge_count, "lambda")
    cert = verify_lhc(channel, source, target, edge_map, lam)
    jsonio.write_json(config.outputs["certificate"],
                      jsonio.certificate_to_dict(cert))
    if cert.passed:
        print(f"pass: certificate written to {config.outputs['certificate']}")
        return 0
    print(f"fail: edges {list(cert.failing_edges)} exceed lambda")
    return 1


def _run_decompose(config: ExperimentConfig) -> int:
    phi = _load(config, "phi")
    gamma = _load(config, "gamma_channel")
    source = _load(config, "source")
    target = _load(config, "target")
    e_edge = _load(config, "edge_map")
    result = decompose(
        phi, gamma, source, target, e_edge,
        kappa=config.params["kappa"],
        mu=config.params["mu"],
        lam=config.params["lambda"],
    )
    prefix = config.outputs["prefix"]
    jsonio.write_json(f"{prefix}.intermediate.json",
                      jsonio.hypergraph_to_dict(result.intermediate))
    jsonio.write_json(f"{prefix}.cert_phi.json",
                      jsonio.certificate_to_dict(result.cert_phi))
    jsonio.write_json(f"{prefix}.cert_gamma.json",
                      jsonio.certificate_to_dict(result.cert_gamma))
    print(f"pass: both stage certificates written with prefix {prefix}")
    return 0


def _run_derandomize(config: ExperimentConfig) -> int:
    code = jsonio.read_code_bundle(config.inputs["code"])
    lam = code_error_profile(code)
    enc, dec = derandomize(code)
    new_code = FunctionCode(enc, dec, code.f, code.channel)
    new_profile = code_error_profile(new_code)
    prefix = config.outputs["prefix"]
    jsonio.write_json(f"{prefix}.encoder.json", jsonio.channel_to_dict(enc))
    jsonio.write_json(f"{prefix}.decoder.json", jsonio.channel_to_dict(dec))
    ok = bool(np.all(new_profile <= 4.0 * lam + VERIFY_SLACK))
    jsonio.write_json(f"{prefix}.report.json", {
        "input_profile": [float(x) for x in lam],
        "bound": [float(4.0 * x) for x in lam],
        "output_profile": [float(x) for x in new_profile],
        "within_bound": ok,
    })
    print(f"{'pass' if ok else 'fail'}: deterministic code written with prefix {prefix}")
    return 0 if ok else 1


def _run_assemble(config: ExperimentConfig) -> int:
    code, bound = assemble_id_code(
        enc1=_load(config, "enc1"),
        enc2=_load(config, "enc2"),
        phi=_load(config, "phi"),
        hyper_h=_load(config, "hyper_h"),
        hyper_g1=_load(config, "hyper_g1"),
        hyper_g2=_load(config, "hyper_g2"),
        hyper_f=_load(config, "hyper_f"),
        hyper_d=_load(config, "hyper_d"),
        alpha=config.params["alpha"],
        beta=config.params["beta"],
        mu=config.params["mu"],
    )
    prefix = config.outputs["prefix"]
    jsonio.write_code_bundle(f"{prefix}.code.json", code,
                             prefix=Path(prefix).name)
    profile = code_error_profile(code)
    jsonio.write_json(f"{prefix}.report.json", {
        "bound": [float(x) for x in bound],
        "exact_profile": [float(x) for x in profile],
    })
    print(f"pass: identification code written with prefix {prefix}")
    return 0


def _run_id_sim(config: ExperimentConfig) -> int:
    p = config.params
    if "codebook" in config.inputs:
        book = jsonio.read_codebook(config.inputs["codebook"], delta=p.get("delta"))
    else:
        book = bsc_id.gen_codebook(p["n"], p["delta"], p["m"], seed=p["seed"],
                                   strategy="random-greedy")
    workers = int(os.environ.get("LHC_KIT_WORKERS", "1"))
    estimate = bsc_id.monte_carlo_id(
        book, p["gamma"], p["epsilon"], p["trials"],
        seed=p["seed"], mode=p["mode"], workers=workers,
    )
    bound = bsc_id.chernoff_bound(book.n, p["epsilon"], p["delta"], p["gamma"])
    jsonio.write_csv(
        config.outputs["csv"],
        ["trials", "false_accept", "false_reject", "bound"],
        [[estimate.trials, estimate.false_accept_rate,
          estimate.false_reject_rate, bound]],
    )
    print(
        f"trials={estimate.trials} false_accept={estimate.false_accept_rate!r} "
        f"false_reject={estimate.false_reject_rate!r} bound={bound!r}"
    )
    return 0


def _run_rates(config: ExperimentConfig) -> int:
    start, stop, step = config.params["grid"]
    grid = np.arange(start, stop + step / 2, step)
    rows = bsc_id.rate_table(config.params["gamma"], grid)
    jsonio.write_csv(config.outputs["csv"], ["delta", "gv_rate", "tx_rate"], rows)
    print(f"{len(rows)} rows written to {config.outputs['csv']}")
    return 0


def _run_codebook(config: ExperimentConfig) -> int:
    p = config.params
    book = bsc_id.gen_codebook(p["n"], p["delta"], p["m"], seed=p["seed"],
                               strategy=p["strategy"])
    jsonio.write_codebook(config.outputs["file"], book)
    print(f"{book.size} words of length {book.n} at distance >= {book.dmin}")
    return 0


def _run_falsify(config: ExperimentConfig) -> int:
    p = config.params
    summary = run_branch_swap_harness(
        p["trials"], p["seed"], max_edges=p["max_edges"],
        max_symbols=p["max_symbols"],
    )
    dumps = [jsonio.counterexample_to_dict(r) for r in summary.counterexamples]
    jsonio.write_json(config.outputs["dumps"], {
        "trials": summary.trials,
        "seed": summary.seed,
        "hypothesis_held": summary.hypothesis_held,
        "conclusion_held": summary.conclusion_held,
        "counterexamples": dumps,
    })
    print(
        f"trials={summary.trials} hypothesis_held={summary.hypothesis_held} "
        f"counterexamples={len(dumps)} -> {config.outputs['dumps']}"
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> object:
    parts = [float(x) for x in text.split(",")]
    return parts[0] if len(parts) == 1 else parts


def _grid(text: str) -> tuple[float, float, float]:
    start, stop, step = (float(x) for x in text.split(":"))
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhc-kit",
        description="Locally homomorphic channel toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a channel certificate")
    p.add_argument("--channel", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--edge-map", required=True)
    p.add_argument("--lambda", dest="lam", type=_float_list, required=True)
    p.add_argument("--out", default="certificate.json")

    p = sub.add_parser("decompose", help="split a certified two-stage channel")
    p.add_argument("--phi", required=True)
    p.add_argument("--gamma-channel", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--edge-map", required=True)
    p.add_argument("--lambda", dest="lam", type=_float_list, required=True)
    p.add_argument("--mu", type=_float_list, required=True)
    p.add_argument("--kappa", type=_float_list, required=True)
    p.add_argument("--out-prefix", default="decomposition")

    p = sub.add_parser("derandomize", help="deterministic code at 4x error")
    p.add_argument("--code", required=True)
    p.add_argument("--out-prefix", default="deterministic")

    p = sub.add_parser("assemble-id", help="identification code from two encoders")
    for flag in ("--enc1", "--enc2", "--phi", "--hyper-h", "--hyper-g1",
                 "--hyper-g2", "--hyper-f", "--hyper-d"):
        p.add_argument(flag, required=True)
    p.add_argument("--alpha", type=_float_list, required=True)
    p.add_argument("--beta", type=_float_list, required=True)
    p.add_argument("--mu", type=_float_list, required=True)
    p.add_argument("--out-prefix", default="id-code")

    p = sub.add_parser("id-sim", help="Monte Carlo identification over noise")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--M", type=int, dest="m", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", default="one-sided-threshold",
                   choices=["one-sided-threshold", "paper-windows"])
    p.add_argument("--codebook")
    p.add_argument("--out", default="id-sim.csv")

    p = sub.add_parser("rates", help="codebook-rate table")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", type=_grid, required=True,
                   help="start:stop:step for delta")
    p.add_argument("--out", default="rates.csv")

    p = sub.add_parser("codebook", help="greedy minimum-distance codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--M", type=int, dest="m", required=True)
    p.add_argument("--strategy", default="lexicographic-greedy",
                   choices=["lexicographic-greedy", "random-greedy"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="codebook.txt")

    p = sub.add_parser("falsify", help="random search for branch-swap counterexamples")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-edges", type=int, default=3)
    p.add_argument("--max-symbols", type=int, default=3)
    p.add_argument("--out", default="counterexamples.json")

    p = sub.add_parser("validate", help="diagnose a config file without running")
    p.add_argument("--config", required=True)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cmd = args.command
    if cmd == "verify":
        return ExperimentConfig(
            task="verify",
            inputs={"channel": args.channel, "source": args.source,
                    "target": args.target, "edge_map": args.edge_map},
            params={"lambda": args.lam},
            outputs={"certificate": args.out},
        )
    if cmd == "decompose":
        return ExperimentConfig(
            task="decompose",
            inputs={"phi": args.phi, "gamma_channel": args.gamma_channel,
                    "source": args.source, "target": args.target,
                    "edge_map": args.edge_map},
            params={"lambda": args.lam, "mu": args.mu, "kappa": args.kappa},
            outputs={"prefix": args.out_prefix},
        )
    if cmd == "derandomize":
        return ExperimentConfig(
            task="derandomize",
            inputs={"code": args.code},
            outputs={"prefix": args.out_prefix},
        )
    if cmd == "assemble-id":
        return ExperimentConfig(
            task="assemble-id",
            inputs={"enc1": args.enc1, "enc2": args.enc2, "phi": args.phi,
                    "hyper_h": args.hyper_h, "hyper_g1": args.hyper_g1,
                    "hyper_g2": args.hyper_g2, "hyper_f": args.hyper_f,
                    "hyper_d": args.hyper_d},
            params={"alpha": args.alpha, "beta": args.beta, "mu": args.mu},
            outputs={"prefix": args.out_prefix},
        )
    if cmd == "id-sim":
        inputs = {}
        if args.codebook:
            inputs["codebook"] = args.codebook
        return ExperimentConfig(
            task="id-sim",
            inputs=inputs,
            params={"n": args.n, "gamma": args.gamma, "delta": args.delta,
                    "epsilon": args.eps, "m": args.m, "trials": args.trials,
                    "seed": args.seed, "mode": args.mode},
            outputs={"csv": args.out},
        )
    if cmd == "rates":
        return ExperimentConfig(
            task="rates",
            params={"gamma": args.gamma, "grid": args.grid},
            outputs={"csv": args.out},
        )
    if cmd == "codebook":
        return ExperimentConfig(
            task="codebook",
            params={"n": args.n, "delta": args.delta, "m": args.m,
                    "strategy": args.strategy, "seed": args.seed},
            outputs={"file": args.out},
        )
    if cmd == "falsify":
        return ExperimentConfig(
            task="falsify",
            params={"trials": args.trials, "seed": args.seed,
                    "max_edges": args.max_edges, "max_symbols": args.max_symbols},
            outputs={"dumps": args.out},
        )
    raise AssertionError(f"unhandled command {cmd}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            raw = jsonio.read_json(args.config)
            config = ExperimentConfig(
                task=raw.get("task", ""),
                inputs=dict(raw.get("inputs", {})),
                params=dict(raw.get("params", {})),
                outputs=dict(raw.get("outputs", {})),
            )
        except Exception as exc:
            print(f"error: cannot read config: {exc}")
            return 0
        for note in validate(config):
            print(note)
        return 0

    config = config_from_args(args)
    if "seed" in config.params:
        print(f"seed: {config.params['seed']}")
    notes = [n for n in validate(config) if n.startswith("error:")]
    if notes:
        for note in notes:
            print(note, file=sys.stderr)
        return 2
    try:
        return run(config)
    except LhcKitError as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
