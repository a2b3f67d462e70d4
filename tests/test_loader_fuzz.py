"""Malformed input through ``cli.main``: an exit code, never a traceback.

Files: each case copies a golden input set from ``tests/data/`` and changes
one JSON node of one of its files: the node is replaced by another scalar,
list or object, or, inside an object, its key is dropped. The subcommand
must return 0, 1 or 2, and on 2 write nothing to stderr but ``error:``
lines. The index checks live in the library's constructors, not in the
loaders, so this is where a loader that lets a malformed node through to
a bare Python error would show.

Codebook text: each case copies the golden codebook of
``tests/data/bsc/`` and changes one line of it, replaced by other text or
dropped, and runs ``id-sim --codebook`` on it with the flags the golden
file fits. The run must end as above.

Flags and config params: one flag of a small run takes a value from a
fixed pool of tokens. argparse may refuse it (exit 2); otherwise the run
ends as above, and ``validate --config`` with the same value in its params
notes an error exactly when the run refused it.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import cli
from lhckit.cli import main

DATA = Path(__file__).parent / "data"

# subcommand -> (golden directory, flag -> input file, the other flags)
CASES = {
    "verify": ("certify", {f"--{flag}": f"verify.{flag}.json"
                           for flag in ("channel", "source", "target", "edge-map")},
               ["--lambda", "0.1", "--out", "out.json"]),
    "decompose": ("certify", {f"--{flag}": f"decompose.{flag}.json"
                              for flag in ("phi", "gamma-channel", "source", "target",
                                           "edge-map")},
                  ["--lambda", "0.02", "--mu", "0.1", "--kappa", "0.25",
                   "--out-prefix", "out"]),
    "derandomize": ("derandomize", {"--code": "code.json"}, ["--out-prefix", "out"]),
    "assemble-id": ("assemble", {f"--{flag}": f"{flag}.json"
                                 for flag in ("enc1", "enc2", "phi", "hyper-h",
                                              "hyper-g1", "hyper-g2", "hyper-f",
                                              "hyper-d")},
                    ["--alpha", "0.1,0.2", "--beta", "0.1,0.15", "--mu", "0.024,0.007",
                     "--out-prefix", "out"]),
}


def input_files(command: str) -> list[str]:
    """The files a run reads: the flags' files and, for a code bundle, the
    four component files it names."""
    folder, flags, _ = CASES[command]
    names = list(flags.values())
    if command == "derandomize":
        names += json.loads((DATA / folder / "code.json").read_text()).values()
    return names


def node_paths(node, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(
        node if isinstance(node, list) else ())
    for key, child in items:
        yield from node_paths(child, (*path, key))


scalars = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
           | st.sampled_from([10**400, -1, 0, 1, 2]) | st.floats()
           | st.text(max_size=4))
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                      max_leaves=6)


def mutate(doc, path, value, drop: bool):
    """doc with the node at path replaced by value, or its key dropped; a
    list entry to drop becomes null instead."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("command", list(CASES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_one_changed_node_ends_in_an_exit_code(command, data):
    folder, flags, rest = CASES[command]
    name = data.draw(st.sampled_from(input_files(command)), label="file")
    doc = json.loads((DATA / folder / name).read_text())
    path = data.draw(st.sampled_from(list(node_paths(doc))), label="path")
    drop = data.draw(st.booleans(), label="drop") and len(path) > 0
    value = None if drop else data.draw(values, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for original in input_files(command):
            shutil.copy(DATA / folder / original, work / original)
        (work / name).write_text(json.dumps(mutate(doc, path, value, drop)))
        argv = [command, *(x for flag, file in flags.items()
                           for x in (flag, str(work / file)))]
        argv += [str(work / x) if x.startswith("out") else x for x in rest]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert lines and all(line.startswith("error:") for line in lines), lines


CODEBOOK = (DATA / "bsc" / "golden.codebook.txt").read_text().splitlines()
# the flags the golden codebook fits: n = 200, dmin 20 = ceil(n * delta), M = 20
ID_SIM = ["id-sim", "--n", "200", "--gamma", "0.03", "--delta", "0.1", "--eps", "0.3",
          "--M", "20", "--trials", "50", "--seed", "7"]


def line_values(line: str):
    """Replacements for one codebook line: free text, a header or a word
    from a fixed pool, or the line with one character changed."""
    pool = ["", " ", "#", "# n=200 d=20", "# n=200 d=21", "# n=0 d=20",
            "# n=200 d=-1", "# n=200 d=201", "# n=1 d=0", f"# n={10**400} d=20",
            "0" * 200, "1" * 200, "2" * 200, "0" * 199, "0" * 201, CODEBOOK[1],
            line[::-1], line + " x"]
    changed = st.tuples(st.integers(0, max(len(line) - 1, 0)),
                        st.sampled_from("01 #=nd2x\t")).map(
        lambda change: line[:change[0]] + change[1] + line[change[0] + 1:])
    return st.sampled_from(pool) | st.text(max_size=6) | changed


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_changed_codebook_line_ends_in_an_exit_code(data):
    index = data.draw(st.integers(0, len(CODEBOOK) - 1), label="line")
    drop = data.draw(st.booleans(), label="drop")
    lines = list(CODEBOOK)
    if drop:
        del lines[index]
    else:
        lines[index] = data.draw(line_values(lines[index]), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        book = Path(tmp) / "book.txt"
        book.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, _, err = run([*ID_SIM, "--codebook", str(book),
                            "--out", str(Path(tmp) / "out.csv")])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.splitlines()
        assert lines and all(line.startswith("error:") for line in lines), lines


# One flag's value at a time comes from this pool; no count in it exceeds
# 50, so each run stays short.
TOKENS = ["-7", "-1", "0", "3", "2.5", "nan", "inf", "1e-300", "bogus", ""]


def base_argv(command: str) -> list[str]:
    """A small well-formed run of the subcommand, without its output flag."""
    if command in CASES:
        folder, flags, rest = CASES[command]
        files = [x for flag, name in flags.items()
                 for x in (flag, str(DATA / folder / name))]
        return [command, *files, *rest[:-2]]  # rest ends in the output flag
    return {
        "id-sim": ["id-sim", "--n", "16", "--gamma", "0.03", "--delta", "0.25",
                   "--eps", "0.3", "--M", "4", "--trials", "50", "--seed", "7",
                   "--mode", "paper-windows"],
        "rates": ["rates", "--gamma", "0.03", "--grid", "0:0.5:0.1"],
        "codebook": ["codebook", "--n", "16", "--delta", "0.25", "--M", "4",
                     "--strategy", "random-greedy", "--seed", "7"],
        "falsify": ["falsify", "--trials", "3", "--seed", "1", "--max-edges", "2",
                    "--max-symbols", "2"],
    }[command]


# the subcommands whose runs take no input file
FLAG_ONLY = ("id-sim", "rates", "codebook", "falsify")
FLAGS = [(command, flag) for command in [*CASES, *FLAG_ONLY]
         for flag in base_argv(command)[1::2]]


def json_value(token: str):
    """The token as a JSON scalar: a number where it reads as one."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return token


def run(argv) -> tuple[int | None, str, str]:
    """main's exit code, stdout and stderr; the code is None where argparse
    exits, which it must do with 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, exc.code
            code = None
    return code, out.getvalue(), err.getvalue()


def dest(command: str, flag: str) -> str:
    """The config key of a subcommand's flag."""
    (sub,) = [action for action in cli._parser()._actions if action.dest == "command"]
    return sub.choices[command]._option_string_actions[flag].dest


@pytest.mark.parametrize("command, flag", FLAGS)
@pytest.mark.parametrize("token", TOKENS)
def test_one_changed_flag_or_param_ends_in_an_exit_code(tmp_path, monkeypatch, command,
                                                        flag, token):
    monkeypatch.chdir(tmp_path)  # a token read as a path names nothing here
    argv = base_argv(command)
    argv[argv.index(flag) + 1] = token
    out = CASES[command][2][-2] if command in CASES else "--out"
    code, _, err = run([*argv, out, str(tmp_path / "out")])
    assert code in (None, 0, 1, 2)  # None: argparse refused the token
    if code == 2:
        lines = err.splitlines()
        assert lines and all(line.startswith("error:") for line in lines), lines

    config = cli.config_from_args(cli._parser().parse_args(base_argv(command)))
    key = dest(command, flag)
    if key in config.params:
        config.params[key] = json_value(token)
    else:
        config.inputs[key] = token
    (tmp_path / "cfg.json").write_text(json.dumps(vars(config)))
    code_validate, stdout, _ = run(["validate", "--config", str(tmp_path / "cfg.json")])
    notes = stdout.splitlines()
    assert code_validate == 0
    assert notes and all(note.startswith(("error:", "ok:")) for note in notes), notes
    if code is not None:  # argparse took the token: both routes refuse it or neither
        assert (code == 2) == notes[0].startswith("error:"), (code, notes)
