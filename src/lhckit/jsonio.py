"""File formats: JSON for the core objects, text for codebooks, CSV for tables.

Every writer is deterministic (sorted keys, LF endings, '.' decimals) so
artifacts are byte-identical across runs, and every format round-trips
losslessly through its reader.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import os
import re
import stat
from pathlib import Path

import numpy as np

from .bipartite import BipartiteInstance, BranchSwapReport
from .bsc_id import Codebook
from .channel import Channel, _adopt
from .codes import FunctionCode
from .errors import ShapeError, _indices
from .hypergraph import Alphabet, EdgeMap, FunctionTable, Hypergraph
from .verify import LhcCertificate, edge_vector


def write_json(path, payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True)`` plus LF.

    The bytes are exactly those of ``json.dumps``, but any ``indent`` makes
    ``json`` use its pure-Python encoder, so the containers are walked here
    and each innermost one goes to the C encoder. An ndarray in the payload
    is written as its ``tolist()`` would be.
    """
    out: list[str] = []
    _encode(payload, 0, out)
    out.append("\n")
    _write_text(path, "".join(out))


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF endings, as a new file
    where the old one can simply go.

    On ext4, truncating a file that was rewritten before waits for the
    flush its last close started (tens of ms); a new file under the name
    takes microseconds. So a regular file with one link, owned by this user
    and writable by its owner, is unlinked and created again with its
    permission bits. Anything else is written in place, with the result and
    the error an in-place write gives: a symlink (written through, the link
    kept), a hard-linked file, another user's or a read-only file, a
    missing path, and a file its directory will not let go. Nothing is
    synced to disk.
    """
    path = Path(path)
    try:
        old = path.lstat()
        fresh = bool(stat.S_ISREG(old.st_mode) and old.st_nlink == 1
                     and old.st_uid == os.geteuid() and old.st_mode & stat.S_IWUSR)
        if fresh:
            path.unlink()
    except OSError:  # no file, or one its directory keeps
        fresh = False
    if not fresh:
        path.write_text(text, encoding="utf-8", newline="\n")
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "w",
              encoding="utf-8", newline="\n") as fh:
        os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
        fh.write(text)


_CONTAINERS = (list, tuple, dict, np.ndarray)
# Below this many entries numpy's fixed cost exceeds what formatting each
# distinct value once saves; such matrices take the per-row C path.
_MIN_MATRIX_ENTRIES = 64


@functools.cache
def _item_encoder(depth: int):
    """C-path ``encode`` whose item separator opens a line at ``depth``.

    ``json`` uses its C encoder whenever ``indent`` is None, but builds it
    anew on every call; here it is built once per depth. Strings escape
    their control characters, so the separator only appears between items.
    Only innermost containers and scalars are encoded, which cannot hold a
    cycle, so no circular-reference markers are kept.
    """
    encoder = json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "))
    if json.encoder.c_make_encoder is None:
        return encoder.encode
    # the arguments JSONEncoder.iterencode passes, without markers
    iterencode = json.encoder.c_make_encoder(
        None, encoder.default, json.encoder.encode_basestring_ascii, None,
        encoder.key_separator, encoder.item_separator, True, False, True)
    return lambda o: "".join(iterencode(o, 0))


def _encode(o, depth: int, out: list[str]) -> None:
    """Append the ``indent=2`` text of ``o``, which opens at ``depth``."""
    if isinstance(o, np.ndarray):
        if _is_float_matrix(o):
            out.append(_matrix_text(o, depth))
            return
        o = o.tolist()
    if not isinstance(o, _CONTAINERS) or not o:
        out.append(_item_encoder(depth)(o))  # scalars, [] and {}
        return
    is_dict = isinstance(o, dict)
    inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    values = o.values() if is_dict else o
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        text = _item_encoder(depth + 1)(o)
        out += (text[0], inner, text[1:-1], close, text[-1])
        return
    if (not is_dict and _is_float_rows(o)
            and _is_float_matrix(matrix := np.array(o, dtype=np.float64))):
        out.append(_matrix_text(matrix, depth))
        return
    out.append("{" if is_dict else "[")
    sep = inner
    for item in sorted(o.items()) if is_dict else o:
        out.append(sep)
        if is_dict:
            key, item = item
            out += (_key_text(key), ": ")
        _encode(item, depth + 1, out)
        sep = "," + inner
    out += (close, "}" if is_dict else "]")


def _key_text(key) -> str:
    """A dict key as ``json`` writes it, converted or refused by ``json`` itself."""
    if isinstance(key, str):
        return json.encoder.encode_basestring_ascii(key)
    return _item_encoder(0)({key: None})[1:-len(": null}")]


def _is_float_rows(rows) -> bool:
    """Whether ``rows`` is a list of equal-length lists of plain floats with
    at least ``_MIN_MATRIX_ENTRIES`` entries."""
    return not (set(map(type, rows)) - {list, tuple} or len(set(map(len, rows))) != 1
                or len(rows) * len(rows[0]) < _MIN_MATRIX_ENTRIES
                or set(map(type, itertools.chain.from_iterable(rows))) != {float})


def _is_float_matrix(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` is a finite 2-D float64 array of at least
    ``_MIN_MATRIX_ENTRIES`` entries, which ``_matrix_text`` writes."""
    return (matrix.ndim == 2 and matrix.dtype == np.float64
            and matrix.size >= _MIN_MATRIX_ENTRIES and bool(np.isfinite(matrix).all()))


def _matrix_text(matrix: np.ndarray, depth: int) -> str:
    """The text of a finite float matrix that opens at ``depth``, each
    distinct value formatted once.

    ``float.__repr__`` is what ``json`` writes for a finite float; an int64
    view of the values keeps -0.0 apart from 0.0.
    """
    bits, index = np.unique(matrix.view(np.int64).ravel(), return_inverse=True)
    texts = np.array([float.__repr__(x) for x in bits.view(np.float64).tolist()],
                     dtype=object)
    cells = texts[index.reshape(matrix.shape)].tolist()
    close, row_close, inner = ("\n" + "  " * (depth + k) for k in range(3))
    row_sep = "," + inner
    return "".join(("[", row_close, ("," + row_close).join(
        "[" + inner + row_sep.join(row) + row_close + "]" for row in cells
    ), close, "]"))


# The memo rule's thresholds, measured on one pinned CPU of a 2-vCPU host.
# Sampling a file's last _MEMO_SAMPLE_CHARS characters takes 0.01-0.04 ms.
# A channel file of _MEMO_MIN_CHARS characters parses in 1.5 ms or more, so
# the sample costs at most ~2% where no memo pays; smaller files (a falsify
# dump parses in well under 0.1 ms) are not sampled.
_MEMO_MIN_CHARS = 1 << 17
_MEMO_SAMPLE_CHARS = 4096
# A sample holds 140 items of 16-17 digit rows (up to ~200 of shorter
# ones). Of 140, a file whose D distinct texts are spread evenly shows about
# D (1 - exp(-140 / D)) distinct ones: 34 at D = 35, 91 at D = 150, 131 at
# D = 1000. At most a quarter distinct thus means about 35 distinct texts
# or fewer. Through a memo, 40k numbers of 8 distinct texts parse in 0.45
# of the time at 17 digits and in 0.88-0.94 at 1 to 15 digits, and a sharp
# 256 x 256 channel (2 distinct texts) in 0.88; with 1000 distinct 17-digit
# texts, 40k numbers still parse in half the time.
_MEMO_MAX_DISTINCT_SHARE = 1 / 4


class _FloatMemo(dict):
    """The float of each number text, parsed the first time it is seen."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def _parse_float(text: str):
    """A ``parse_float`` for ``json.loads(text)``: a memo's lookup where the
    file is long and its texts repeat, else None.

    The comma-separated items of the last ``_MEMO_SAMPLE_CHARS`` characters
    stand for the file; a channel's ``rows`` sort last. The memo is used
    where at most ``_MEMO_MAX_DISTINCT_SHARE`` of the sampled items are
    distinct: a 9 x 4096 BSC pair channel (23 distinct texts) then parses
    nearly 3x faster and a sharp 256 x 256 channel 12% faster, while a dense
    channel (every text distinct) would parse 2x slower. ``float`` is what
    ``json`` calls by default, so every value keeps its bits.
    """
    if len(text) < _MEMO_MIN_CHARS:
        return None
    sample = text[-_MEMO_SAMPLE_CHARS:].split(",")[1:]  # the first may be cut
    distinct = set(sample)
    return (_FloatMemo().__getitem__
            if 0 < len(distinct) <= _MEMO_MAX_DISTINCT_SHARE * len(sample) else None)


def read_json(path) -> dict:
    """The value ``json.loads`` reads from the file at ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    parse_float = _parse_float(text)
    return json.loads(text) if parse_float is None else json.loads(
        text, parse_float=parse_float)


def _text(value) -> str:
    return json.dumps(value, default=repr)


# the JSON kind of each value ``json.loads`` gives, with its article
_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
          int: "a number", float: "a number", type(None): "null"}


def _kind(value, kind: type, what: str):
    """``value`` if it is of kind, dict for a JSON object or list for an
    array; anything else raises ShapeError naming its JSON kind, never its
    value. The loaders' one JSON-kind check, behind ``_require`` and
    ``_list``."""
    if not isinstance(value, kind):
        got = _KINDS.get(type(value), "no JSON value")
        raise ShapeError(f"{what} must be a JSON {_KINDS[kind].split()[1]}, got {got}")
    return value


def _require(d, what: str, *keys: str) -> None:
    """Raise ShapeError unless d is a JSON object holding every key."""
    _kind(d, dict, what)
    missing = [key for key in keys if key not in d]
    if missing:
        raise ShapeError(f"{what} misses component {missing[0]!r}")


def _alphabet(labels, what: str) -> Alphabet:
    """An alphabet read from a JSON list of strings; ``Alphabet`` refuses a
    label that is no string, and its refusal here is prefixed with what.

    The string "ab" would read as the labels "a" and "b", so anything but a
    list raises ShapeError, through ``_list``.
    """
    labels = tuple(_list(labels, what))
    try:
        return Alphabet(labels)
    except ShapeError as exc:
        raise ShapeError(f"{what}: {exc}") from None


def _list(value, what: str) -> list:
    """``value`` if it is a JSON array (see ``_kind``)."""
    return _kind(value, list, what)


def _numbers(values, what: str, null: bool = False) -> np.ndarray:
    """A float array read from a JSON list of numbers, or a list of such lists.

    ``np.array(values, dtype=float)`` would turn true into 1.0 and "0.25"
    into 0.25, so every entry must be a JSON int or float (or null, read as
    NaN, where ``null`` is set); anything else raises ShapeError naming the
    first offending entry, and so do rows of unequal length.

    numpy finds the dtype: a 1-D or 2-D float64 or int64 array holds only
    numbers, up to a true or false read as 1 or 0. Only a list that gives
    another array, or an exact 0 or 1, has its entries' types checked.
    """
    _list(values, what)
    try:
        array = np.array(values)
    except (ValueError, TypeError, OverflowError):  # ragged rows, among others
        array = None
    numeric = (array is not None and array.ndim in (1, 2)
               and array.dtype in (np.float64, np.int64))
    if numeric and not np.count_nonzero((array == 0) | (array == 1)):
        return array.astype(np.float64, copy=False)
    nested = set(map(type, values)) == {list}
    entries = list(itertools.chain.from_iterable(values)) if nested else values
    allowed = {int, float, type(None)} if null else {int, float}
    if not set(map(type, entries)) <= allowed:
        bad = next(x for x in entries if type(x) not in allowed)
        raise ShapeError(f"{what} must be a number, got {_text(bad)}")
    if numeric:
        return array.astype(np.float64, copy=False)
    if nested and len(lengths := sorted(set(map(len, values)))) > 1:
        raise ShapeError(f"{what}: expected rows of equal length, got lengths "
                         f"{lengths[0]} and {lengths[-1]}")
    return np.array([np.nan if x is None else x for x in values] if null else values,
                    dtype=np.float64)


# -- hypergraphs ------------------------------------------------------------


def hypergraph_to_dict(h: Hypergraph) -> dict:
    return {
        "vertices": list(h.vertices.labels),
        "edges": [list(e) for e in h.edges],
    }


def hypergraph_from_dict(d: dict) -> Hypergraph:
    _require(d, "hypergraph", "vertices", "edges")
    return Hypergraph(
        _alphabet(d["vertices"], "vertices"),
        tuple(_list(e, "edge") for e in _list(d["edges"], "edges")),
    )


# -- function tables ----------------------------------------------------------


def function_table_to_dict(f: FunctionTable) -> dict:
    return {
        "domain": list(f.domain.labels),
        "codomain": list(f.codomain.labels),
        "map": list(f.mapping),
    }


def function_table_from_dict(d: dict) -> FunctionTable:
    _require(d, "function table", "domain", "codomain", "map")
    return FunctionTable(
        _alphabet(d["domain"], "domain"),
        _alphabet(d["codomain"], "codomain"),
        _list(d["map"], "map"),
    )


# -- channels -----------------------------------------------------------------


def channel_to_dict(c: Channel) -> dict:
    return {
        "input": list(c.input.labels),
        "output": list(c.output.labels),
        "rows": c.rows.tolist(),
    }


def write_channel(path, c: Channel) -> None:
    """Write ``channel_to_dict(c)`` as ``write_json`` does, the rows straight
    from the array."""
    write_json(path, {"input": list(c.input.labels), "output": list(c.output.labels),
                      "rows": c.rows})


def channel_from_dict(d: dict) -> Channel:
    _require(d, "channel", "input", "output", "rows")
    return _adopt(
        _alphabet(d["input"], "input"),
        _alphabet(d["output"], "output"),
        _numbers(d["rows"], "channel entry"),
    )


# -- edge maps ----------------------------------------------------------------


def edge_map_to_dict(m: EdgeMap) -> dict:
    return {
        "source_edges": m.source_count,
        "target_edges": m.target_count,
        "map": list(m.mapping),
    }


def edge_map_from_dict(d: dict) -> EdgeMap:
    _require(d, "edge map", "source_edges", "target_edges", "map")
    return EdgeMap(d["source_edges"], d["target_edges"], _list(d["map"], "map"))


# -- certificates -------------------------------------------------------------


def certificate_to_dict(cert: LhcCertificate) -> dict:
    return {
        "edge_map": edge_map_to_dict(cert.edge_map),
        "lambda": [float(x) for x in cert.lam],
        "per_vertex_success": [
            None if np.isnan(p) else float(p) for p in cert.per_vertex_success
        ],
        "verdict": cert.verdict,
        "edge_bijective": cert.edge_bijective,
        "failing_edges": list(cert.failing_edges),
    }


def certificate_from_dict(d: dict) -> LhcCertificate:
    """The certificate a file describes; its verdict and edge_bijective flag
    are derived from the failing edges and the edge map, so both must agree."""
    _require(d, "certificate", "edge_map", "lambda", "per_vertex_success",
             "verdict", "edge_bijective", "failing_edges")
    bijective = d["edge_bijective"]
    if not isinstance(bijective, bool):
        raise ShapeError(f"edge_bijective must be true or false, got {_text(bijective)}")
    verdict = d["verdict"]
    if verdict not in ("pass", "fail"):
        raise ShapeError(f'verdict must be "pass" or "fail", got {_text(verdict)}')
    edge_map = edge_map_from_dict(d["edge_map"])
    failing = _indices(_list(d["failing_edges"], "failing_edges"), "failing edge",
                       edge_map.source_count)
    if (verdict == "pass") == bool(failing):  # verify_lhc passes exactly when none fail
        raise ShapeError(f"verdict {_text(verdict)} disagrees with failing edges "
                         f"{_text(list(failing))}")
    if bijective != edge_map.bijective:
        raise ShapeError(f"edge_bijective {_text(bijective)} disagrees with edge map "
                         f"{_text(list(edge_map.mapping))}")
    return LhcCertificate(
        edge_map=edge_map,
        lam=edge_vector(d["lambda"], edge_map.source_count, "lambda"),
        per_vertex_success=_numbers(d["per_vertex_success"], "per-vertex success",
                                    null=True),
        failing_edges=failing,
    )


# -- code bundles (components by reference) -----------------------------------


def write_code_bundle(path, code: FunctionCode, prefix: str | None = None) -> None:
    """Write the four components next to the bundle file, referenced by name."""
    path = Path(path)
    stem = prefix if prefix is not None else path.stem
    names = {key: f"{stem}.{key}.json"
             for key in ("encoder", "decoder", "function", "channel")}
    for key in ("encoder", "decoder", "channel"):
        write_channel(path.parent / names[key], getattr(code, key))
    write_json(path.parent / names["function"], function_table_to_dict(code.f))
    write_json(path, names)


def read_code_bundle(path) -> FunctionCode:
    path = Path(path)
    refs = read_json(path)
    _require(refs, "code bundle", "encoder", "decoder", "function", "channel")
    return FunctionCode(
        encoder=channel_from_dict(read_json(path.parent / refs["encoder"])),
        decoder=channel_from_dict(read_json(path.parent / refs["decoder"])),
        f=function_table_from_dict(read_json(path.parent / refs["function"])),
        channel=channel_from_dict(read_json(path.parent / refs["channel"])),
    )


# -- codebooks ----------------------------------------------------------------


def write_codebook(path, book: Codebook) -> None:
    lines = [f"# n={book.n} d={book.dmin}"] + list(book.words)
    _write_text(path, "\n".join(lines) + "\n")


def read_codebook(path) -> Codebook:
    lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]
    head = re.fullmatch(r"# n=([1-9][0-9]*) d=([0-9]+)", lines[0])
    if head is None:
        raise ShapeError("codebook file must start with a '# n=<n> d=<dmin>' "
                         f"header with n >= 1, got {lines[0]!r}")
    n, dmin = map(int, head.groups())
    words = tuple(line.strip() for line in lines[1:] if line.strip())
    return Codebook(n=n, words=words, dmin=dmin)


# -- branch-swap instances and counterexample dumps ---------------------------


def instance_to_dict(inst: BipartiteInstance) -> dict:
    return {
        "a1": list(inst.a1.labels),
        "a2": list(inst.a2.labels),
        "x1": list(inst.x1.labels),
        "x2": list(inst.x2.labels),
        "hyper_h": hypergraph_to_dict(inst.hyper_h),
        "hyper_g": hypergraph_to_dict(inst.hyper_g),
        "hyper_i": hypergraph_to_dict(inst.hyper_i),
        "hyper_f": hypergraph_to_dict(inst.hyper_f),
        "phi": channel_to_dict(inst.phi),
        "lambda": [float(x) for x in inst.lam],
    }


def instance_from_dict(d: dict) -> BipartiteInstance:
    """The instance a file describes. Its a1, a2, x1 and x2 restate the
    alphabets the instance derives from hyper_h, phi and hyper_i, so each
    must agree with them, and hyper_h and hyper_i must be products with
    phi's input."""
    _require(d, "branch-swap instance", "a1", "a2", "x1", "x2", "hyper_h",
             "hyper_g", "hyper_i", "hyper_f", "phi", "lambda")
    hypers = [hypergraph_from_dict(d[f"hyper_{side}"]) for side in "hgif"]
    inst = BipartiteInstance(*hypers, channel_from_dict(d["phi"]),
                             edge_vector(d["lambda"], hypers[0].edge_count, "lambda"))
    for key, source, part in (("a1", "hyper_h", "first factor"), ("a2", "phi", "input"),
                              ("x1", "hyper_i", "first factor"), ("x2", "phi", "output")):
        try:
            alphabet = getattr(inst, key)
        except ShapeError:  # split_product_alphabet, for a1 or x1
            labels = getattr(inst, source).vertices.labels
            raise ShapeError(f"{source} vertices {_text(list(labels))} are no product "
                             f"with phi input {_text(list(inst.a2.labels))}") from None
        if _alphabet(d[key], key) != alphabet:
            raise ShapeError(f"{key} {_text(d[key])} disagrees with {source} {part} "
                             f"{_text(list(alphabet.labels))}")
    return inst


def counterexample_to_dict(report: BranchSwapReport) -> dict:
    return {
        "instance": instance_to_dict(report.instance),
        "hypothesis_holds": report.hypothesis_holds,
        "conclusion_holds": report.conclusion_holds,
        "hypothesis_map": edge_map_to_dict(report.hypothesis_map),
        "conclusion_map": edge_map_to_dict(report.conclusion_map),
        "hypothesis_profile": [float(x) for x in report.hypothesis_profile],
        "conclusion_profile": [float(x) for x in report.conclusion_profile],
    }


# -- CSV ----------------------------------------------------------------------


def write_csv(path, header: list[str], rows) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([float.__repr__(x) if isinstance(x, float) else x for x in row])
    _write_text(path, text.getvalue())
