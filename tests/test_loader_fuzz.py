"""Malformed input files through ``cli.main``: an exit code, never a traceback.

Each case copies a golden input set from ``tests/data/`` and changes one
JSON node of one of its files: the node is replaced by another scalar,
list or object, or, inside an object, its key is dropped. The subcommand
must return 0, 1 or 2, and on 2 write nothing to stderr but ``error:``
lines. The index checks live in the library's constructors, not in the
loaders, so this is where a loader that lets a malformed node through to
a bare Python error would show.
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
