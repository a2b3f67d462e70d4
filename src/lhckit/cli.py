"""Command-line front end: one binary, subcommand per task.

Exit codes: 0 on success or a passing certificate, 1 when a verification or
construction fails on well-formed inputs, 2 on usage or parse errors or
an output that cannot be written. All randomness flows from the --seed
flag (a fixed printed constant by default). Each input is parsed once, by
``validate``, and the task runs on the parsed objects; every output path
is checked before the run.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bsc_id, channel, jsonio
from .bipartite import assemble_id_code, check_harness_symbols, run_branch_swap_harness
from .codes import code_error_profile, FunctionCode
from .decomposition import decompose, derandomize
from .errors import LhcKitError, RangeError, ShapeError, _require_count, _require_unit
from .verify import edge_vector, exceeds, verify_lhc

DEFAULT_SEED = 20240


@dataclass
class ExperimentConfig:
    """One task with its file inputs, scalar parameters, and output paths."""

    task: str
    inputs: dict[str, str] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


def _channel(path):
    return jsonio.channel_from_dict(jsonio.read_json(path))


def _hypergraph(path):
    return jsonio.hypergraph_from_dict(jsonio.read_json(path))


def _edge_map(path):
    return jsonio.edge_map_from_dict(jsonio.read_json(path))


# Input role -> loader from a path. A flag whose dest is a role here is a
# file input.
_LOADERS = {
    **dict.fromkeys(("channel", "phi", "gamma_channel", "enc1", "enc2"), _channel),
    **dict.fromkeys(("source", "target", "hyper_h", "hyper_g1", "hyper_g2",
                     "hyper_f", "hyper_d"), _hypergraph),
    "edge_map": _edge_map,
    "code": jsonio.read_code_bundle,
    "codebook": jsonio.read_codebook,
}


# Per-edge error vectors: a number or a list of numbers.
_VECTORS = ("lambda", "mu", "kappa", "alpha", "beta")


# Param keys -> the library's own check of their range, in the order
# validate runs them. A check runs once its params are set and none of them
# was refused by an earlier one, so each fault gives one note.
_RANGES = [
    *(((key,), functools.partial(_require_count, what=key))
      for key in ("trials", "max_edges", "max_symbols", "m")),
    (("max_symbols",), check_harness_symbols),
    (("gamma",), bsc_id.beta),
    (("delta",), lambda delta: bsc_id.theta(delta, 0.0)),
    (("n", "delta"), bsc_id.min_distance),
    (("epsilon",), bsc_id._require_positive),
    (("delta", "gamma", "epsilon"), bsc_id.require_windows),
    (("seed",), channel.named_rng),
    (("mode",), bsc_id.require_mode),
    (("strategy",), bsc_id.require_strategy),
]
# The ranges that one task adds: rates needs gamma <= 1/2, id-sim two words.
_TASK_RANGES = {
    "rates": [(("gamma",), lambda gamma: bsc_id.rate_table(gamma, ()))],
    "id-sim": [(("m",), bsc_id.require_pairs)],
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _grid_points(grid) -> np.ndarray:
    """The deltas of a start:stop:step grid, stop included.

    Raises RangeError for a malformed grid or a non-finite bound and
    CapacityError for more points than the cap, all before any array is
    built, and RangeError for a grid reaching outside [0, 1].
    """
    text = ":".join(map(str, grid)) if isinstance(grid, (list, tuple)) else repr(grid)
    if not (isinstance(grid, (list, tuple)) and len(grid) == 3
            and all(map(_is_number, grid)) and grid[2] > 0 and grid[1] >= grid[0]):
        raise RangeError(f"grid {text} needs "
                         "start:stop:step with step > 0 and stop >= start")
    if not all(abs(x) <= sys.float_info.max for x in grid):  # inf, NaN, huge int
        raise RangeError(f"grid {text} needs finite start, stop and step")
    start, stop, step = grid
    # np.arange makes ceil of this many points; inf when the quotient overflows
    count = (stop + step / 2 - start) / step
    channel._check_entries(math.ceil(count) if count < math.inf else count,
                           "grid {}", text)
    points = np.arange(start, stop + step / 2, step)
    what = f"grid {text} reaches delta"
    for d in points.tolist():
        _require_unit(d, what)
    return points


def validate(config: ExperimentConfig) -> tuple[list[str], dict]:
    """Schema and range diagnostics without running the task.

    Returns the notes and the parsed inputs: every well-formed file input by
    role and the points of a well-formed grid under "grid". A run uses these
    objects, so each input is parsed once. An output must be a path, not a
    directory, in a directory that exists.
    """
    notes: list[str] = []
    objects: dict = {}
    if config.task not in _HANDLERS:
        notes.append(f"error: unknown task {config.task!r}")
        return notes, objects
    # the task's keys are its subcommand's flag dests, split as
    # config_from_args splits them; any other key is one note and not read
    command = next(a for a in _parser()._actions if a.dest == "command").choices[config.task]
    part_of = {a.dest: "output" if a.dest in command.get_default("outputs") else "input"
               if a.dest in _LOADERS else "param" for a in command._actions if a.dest != "help"}
    parts = {"input": config.inputs, "param": config.params, "output": config.outputs}
    for part, given in parts.items():
        notes += [f"error: unknown {part} {key!r} for {config.task}"
                  for key in given if part_of.get(key) != part]
        parts[part] = {key: value for key, value in given.items() if part_of.get(key) == part}
    for role, path in parts["input"].items():
        if not isinstance(path, (str, os.PathLike)):
            notes.append(f"error: input {role}: path must be a string, got {path!r}")
        else:
            try:  # a path the OS cannot stat raises OSError in is_file
                if Path(path).is_file():
                    objects[role] = _LOADERS[role](path)
                else:
                    notes.append(f"error: input {role}: no file at {path}")
            except Exception as exc:  # malformed input must not crash
                notes.append(f"error: input {role}: {exc}")
    if config.task == "assemble-id" and "enc1" in objects:
        msgs = objects["enc1"].input  # hyper_h lives on the message pairs
        try:
            msgs.product(msgs)
        except LhcKitError as exc:
            notes.append(f"error: input enc1: message pairs: {exc}")
    for role, path in parts["output"].items():
        if not isinstance(path, (str, os.PathLike)):
            notes.append(f"error: output {role}: path must be a string, got {path!r}")
            continue
        path = os.fspath(path)
        folder = os.path.dirname(path)  # "nodir" of "nodir/", which Path drops
        try:
            if Path(path).is_dir():  # "" too: Path("") is "."
                notes.append(f"error: output {role}: {path!r} is a directory")
            elif not Path(folder or ".").is_dir():
                notes.append(f"error: output {role}: no directory {folder!r} for {path!r}")
        except OSError as exc:  # a name too long, among others
            notes.append(f"error: output {role}: {exc}")

    p = parts["param"]
    refused: set = set()
    for keys, check in _RANGES + _TASK_RANGES.get(config.task, []):
        if any(p.get(key) is None or key in refused for key in keys):
            continue
        try:
            check(*(p[key] for key in keys))
        except LhcKitError as exc:
            notes.append(f"error: {exc}")
            refused.update(keys)
    if p.get("grid") is not None:
        try:
            objects["grid"] = _grid_points(p["grid"])
        except LhcKitError as exc:
            notes.append(f"error: {exc}")
    # the hypergraph whose edges the error vectors are indexed by; without
    # it, a vector's entries are checked at its own length
    hyper = objects.get("hyper_h" if config.task == "assemble-id" else "source")
    for key in _VECTORS:
        value = p.get(key)
        if value is not None:
            count = hyper.edge_count if hyper else len(value) if isinstance(value, list) else 1
            try:
                edge_vector(value, count, key)
            except LhcKitError as exc:
                notes.append(f"error: {exc}")
    if config.task == "id-sim":
        notes += _codebook_misfit(objects.get("codebook"), p, refused)
    if not notes:
        notes.append("ok: configuration is well formed")
    return notes, objects


def _codebook_misfit(book, p: dict, refused: set) -> list[str]:
    """One note if an id-sim codebook file is not the code its flags describe.

    The run simulates the file's words and states the bound at the flags'
    n and delta, so the file must have length n, M words and a minimum
    distance of at least ``bsc_id.min_distance(n, delta)``. A delta already
    refused gets no second note here.
    """
    if book is None:
        return []
    n, m, delta = p.get("n"), p.get("m"), p.get("delta")
    misfits = []
    if _is_number(n) and n != book.n:
        misfits.append(f"word length {book.n}, not n = {n}")
    if _is_number(m) and m != book.size:
        misfits.append(f"{book.size} words, not M = {m}")
    # delta is unset, 0 (no distance to miss) or in (0, 1] unless refused
    if delta and not refused & {"n", "delta"}:
        need = bsc_id.min_distance(book.n, delta)
        if book.dmin < need:
            misfits.append(f"minimum distance {book.dmin}, "
                           f"below ceil(n * delta) = {need}")
    return ["error: input codebook: has " + "; ".join(misfits)] if misfits else []


def _run_verify(p: dict, inp: dict, out: dict) -> int:
    cert = verify_lhc(inp["channel"], inp["source"], inp["target"],
                      inp["edge_map"], p["lambda"])
    jsonio.write_json(out["certificate"], jsonio.certificate_to_dict(cert))
    if cert.passed:
        print(f"pass: certificate written to {out['certificate']}")
        return 0
    print(f"fail: edges {list(cert.failing_edges)} exceed lambda")
    return 1


def _run_decompose(p: dict, inp: dict, out: dict) -> int:
    result = decompose(
        inp["phi"], inp["gamma_channel"], inp["source"], inp["target"],
        inp["edge_map"], kappa=p["kappa"], mu=p["mu"], lam=p["lambda"],
    )
    prefix = out["prefix"]
    jsonio.write_json(f"{prefix}.intermediate.json",
                      jsonio.hypergraph_to_dict(result.intermediate))
    jsonio.write_json(f"{prefix}.cert_phi.json",
                      jsonio.certificate_to_dict(result.cert_phi))
    jsonio.write_json(f"{prefix}.cert_gamma.json",
                      jsonio.certificate_to_dict(result.cert_gamma))
    print(f"pass: both stage certificates written with prefix {prefix}")
    return 0


def _run_derandomize(p: dict, inp: dict, out: dict) -> int:
    code = inp["code"]
    lam = code_error_profile(code)
    enc, dec = derandomize(code)
    new_code = FunctionCode(enc, dec, code.f, code.channel)
    new_profile = code_error_profile(new_code)
    prefix = out["prefix"]
    jsonio.write_channel(f"{prefix}.encoder.json", enc)
    jsonio.write_channel(f"{prefix}.decoder.json", dec)
    ok = not exceeds(new_profile, 4.0 * lam).any()
    jsonio.write_json(f"{prefix}.report.json", {
        "input_profile": [float(x) for x in lam],
        "bound": [float(4.0 * x) for x in lam],
        "output_profile": [float(x) for x in new_profile],
        "within_bound": ok,
    })
    print(f"{'pass' if ok else 'fail'}: deterministic code written with prefix {prefix}")
    return 0 if ok else 1


def _run_assemble(p: dict, inp: dict, out: dict) -> int:
    # the input roles are the keyword names of assemble_id_code
    code, bound = assemble_id_code(**inp, alpha=p["alpha"], beta=p["beta"],
                                   mu=p["mu"])
    prefix = out["prefix"]
    jsonio.write_code_bundle(f"{prefix}.code.json", code,
                             prefix=Path(prefix).name)
    profile = code_error_profile(code)
    jsonio.write_json(f"{prefix}.report.json", {
        "bound": [float(x) for x in bound],
        "exact_profile": [float(x) for x in profile],
    })
    print(f"pass: identification code written with prefix {prefix}")
    return 0


def _run_id_sim(p: dict, inp: dict, out: dict) -> int:
    if "codebook" in inp:
        book = inp["codebook"]
    else:
        book = bsc_id.gen_codebook(p["n"], p["delta"], p["m"], seed=p["seed"],
                                   strategy="random-greedy")
    # one thread per CPU the process may run on; the tallies do not depend on it
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    estimate = bsc_id.monte_carlo_id(
        book, p["gamma"], p["epsilon"], p["trials"],
        seed=p["seed"], mode=p["mode"], workers=cpus,
    )
    bound = bsc_id.chernoff_bound(book.n, p["epsilon"], p["delta"], p["gamma"])
    jsonio.write_csv(
        out["csv"],
        ["trials", "false_accept", "false_reject", "bound"],
        [[estimate.trials, estimate.false_accept_rate,
          estimate.false_reject_rate, bound]],
    )
    print(
        f"trials={estimate.trials} false_accept={estimate.false_accept_rate!r} "
        f"false_reject={estimate.false_reject_rate!r} bound={bound!r}"
    )
    return 0


def _run_rates(p: dict, inp: dict, out: dict) -> int:
    rows = bsc_id.rate_table(p["gamma"], inp["grid"])
    jsonio.write_csv(out["csv"], ["delta", "gv_rate", "tx_rate"], rows)
    print(f"{len(rows)} rows written to {out['csv']}")
    return 0


def _run_codebook(p: dict, inp: dict, out: dict) -> int:
    book = bsc_id.gen_codebook(p["n"], p["delta"], p["m"], seed=p["seed"],
                               strategy=p["strategy"])
    jsonio.write_codebook(out["file"], book)
    print(f"{book.size} words of length {book.n} at distance >= {book.dmin}")
    return 0


def _run_falsify(p: dict, inp: dict, out: dict) -> int:
    summary = run_branch_swap_harness(
        p["trials"], p["seed"], max_edges=p["max_edges"],
        max_symbols=p["max_symbols"],
    )
    dumps = [jsonio.counterexample_to_dict(r) for r in summary.counterexamples]
    jsonio.write_json(out["dumps"], {
        "trials": summary.trials,
        "seed": p["seed"],
        "hypothesis_held": summary.hypothesis_held,
        "conclusion_held": summary.conclusion_held,
        "counterexamples": dumps,
    })
    print(
        f"trials={summary.trials} hypothesis_held={summary.hypothesis_held} "
        f"counterexamples={len(dumps)} -> {out['dumps']}"
    )
    return 0


# Task -> handler(params, parsed inputs, outputs) returning the exit code.
_HANDLERS = {
    "verify": _run_verify,
    "decompose": _run_decompose,
    "derandomize": _run_derandomize,
    "assemble-id": _run_assemble,
    "id-sim": _run_id_sim,
    "rates": _run_rates,
    "codebook": _run_codebook,
    "falsify": _run_falsify,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _float_list(text: str) -> object:
    parts = [float(x) for x in text.split(",")]
    return parts[0] if len(parts) == 1 else parts


def _grid(text: str) -> tuple[float, float, float]:
    start, stop, step = (float(x) for x in text.split(":"))
    return start, stop, step


def _output(p: argparse.ArgumentParser, flag: str, dest: str, default: str) -> None:
    """The subcommand's one output path, stored under its config key."""
    p.add_argument(flag, dest=dest, default=default)
    p.set_defaults(outputs=(dest,))


def build_parser() -> argparse.ArgumentParser:
    """Subcommands whose flag dests are the config keys of their task."""
    parser = argparse.ArgumentParser(
        prog="lhc-kit",
        description="Locally homomorphic channel toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a channel certificate")
    for flag in ("--channel", "--source", "--target", "--edge-map"):
        p.add_argument(flag, required=True)
    p.add_argument("--lambda", type=_float_list, required=True)
    _output(p, "--out", "certificate", "certificate.json")

    p = sub.add_parser("decompose", help="split a certified two-stage channel")
    for flag in ("--phi", "--gamma-channel", "--source", "--target", "--edge-map"):
        p.add_argument(flag, required=True)
    for flag in ("--lambda", "--mu", "--kappa"):
        p.add_argument(flag, type=_float_list, required=True)
    _output(p, "--out-prefix", "prefix", "decomposition")

    p = sub.add_parser("derandomize", help="deterministic code at 4x error")
    p.add_argument("--code", required=True)
    _output(p, "--out-prefix", "prefix", "deterministic")

    p = sub.add_parser("assemble-id", help="identification code from two encoders")
    for flag in ("--enc1", "--enc2", "--phi", "--hyper-h", "--hyper-g1",
                 "--hyper-g2", "--hyper-f", "--hyper-d"):
        p.add_argument(flag, required=True)
    for flag in ("--alpha", "--beta", "--mu"):
        p.add_argument(flag, type=_float_list, required=True)
    _output(p, "--out-prefix", "prefix", "id-code")

    p = sub.add_parser("id-sim", help="Monte Carlo identification over noise")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, dest="epsilon", required=True)
    p.add_argument("--M", type=int, dest="m", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mode", default=bsc_id.MODES[0], help=", ".join(bsc_id.MODES))
    p.add_argument("--codebook")
    _output(p, "--out", "csv", "id-sim.csv")

    p = sub.add_parser("rates", help="codebook-rate table")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--grid", type=_grid, required=True,
                   help="start:stop:step for delta")
    _output(p, "--out", "csv", "rates.csv")

    p = sub.add_parser("codebook", help="greedy minimum-distance codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--M", type=int, dest="m", required=True)
    p.add_argument("--strategy", default=bsc_id.STRATEGIES[0], help=", ".join(bsc_id.STRATEGIES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _output(p, "--out", "file", "codebook.txt")

    p = sub.add_parser("falsify", help="random search for branch-swap counterexamples")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-edges", type=int, default=3)
    p.add_argument("--max-symbols", type=int, default=3)
    _output(p, "--out", "dumps", "counterexamples.json")

    p = sub.add_parser("validate", help="diagnose a config file without running")
    p.add_argument("--config", required=True)

    return parser


# main parses with one parser per process; nothing in it changes between
# parses, and building it costs milliseconds per call
_parser = functools.cache(build_parser)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Outputs and file inputs by their dests; every other flag is a param."""
    params = dict(vars(args))
    task = params.pop("command")
    outputs = {dest: params.pop(dest) for dest in params.pop("outputs")}
    roles = [dest for dest in params if dest in _LOADERS]
    inputs = {role: path for role in roles
              if (path := params.pop(role)) is not None}
    return ExperimentConfig(task, inputs, params, outputs)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "validate":
        try:
            raw = jsonio.read_json(args.config)
            jsonio._require(raw, "config")
            task = raw.get("task", "")
            if not isinstance(task, str):
                raise ShapeError(f"task must be a string, got {jsonio._text(task)}")
            parts = {key: raw.get(key, {}) for key in ("inputs", "params", "outputs")}
            for key, part in parts.items():
                jsonio._require(part, key)
            config = ExperimentConfig(task, **parts)
        except Exception as exc:
            print(f"error: cannot read config: {exc}")
            return 0
        for note in validate(config)[0]:
            print(note)
        return 0

    config = config_from_args(args)
    if "seed" in config.params:
        print(f"seed: {config.params['seed']}")
    notes, objects = validate(config)
    errors = [n for n in notes if n.startswith("error:")]
    if errors:
        for note in errors:
            print(note, file=sys.stderr)
        return 2
    try:
        return _HANDLERS[config.task](config.params, objects, config.outputs)
    except LhcKitError as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the inputs are parsed, so a write failed
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
