import errno
import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhckit import (
    Alphabet,
    EdgeMap,
    FunctionCode,
    FunctionTable,
    code_to_lhc,
    bsc_id,
    gen_codebook,
    identity_channel,
    jsonio,
)
from lhckit.bipartite import random_branch_swap_instance
from lhckit.cli import main
from lhckit.errors import RangeError, ShapeError

from conftest import identity_channel_between, rand_channel, rand_partition

GOLDEN = Path(__file__).parent / "data" / "derandomize"


class TestRoundTrips:
    def test_hypergraph(self, tmp_path):
        rng = np.random.default_rng(0)
        h = rand_partition(rng, Alphabet.of_size(5, "v"), 3)
        path = tmp_path / "h.json"
        jsonio.write_json(path, jsonio.hypergraph_to_dict(h))
        back = jsonio.hypergraph_from_dict(jsonio.read_json(path))
        assert back.vertices.labels == h.vertices.labels
        assert back.edges == h.edges

    def test_function_table(self, tmp_path):
        f = FunctionTable(Alphabet.of_size(3, "a"), Alphabet.of_size(2, "b"),
                          (0, 1, 0))
        path = tmp_path / "f.json"
        jsonio.write_json(path, jsonio.function_table_to_dict(f))
        back = jsonio.function_table_from_dict(jsonio.read_json(path))
        assert back.mapping == f.mapping and back.domain.labels == f.domain.labels

    def test_channel_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        ch = rand_channel(rng, Alphabet.of_size(3, "x"), Alphabet.of_size(4, "y"))
        path = tmp_path / "c.json"
        jsonio.write_json(path, jsonio.channel_to_dict(ch))
        back = jsonio.channel_from_dict(jsonio.read_json(path))
        assert np.array_equal(back.rows, ch.rows)  # bitwise, via repr round trip

    def test_edge_map(self):
        m = EdgeMap(3, 2, (1, 0, 1))
        assert jsonio.edge_map_from_dict(jsonio.edge_map_to_dict(m)) == m

    def test_certificate(self, tmp_path):
        f = FunctionTable(Alphabet.of_size(2, "a"), Alphabet.of_size(2, "b"), (0, 1))
        ident = identity_channel(Alphabet.of_size(2, "a"))
        code = FunctionCode(
            ident,
            identity_channel_between(Alphabet.of_size(2, "a"), Alphabet.of_size(2, "b")),
            f,
            ident,
        )
        cert = code_to_lhc(code)
        d = jsonio.certificate_to_dict(cert)
        back = jsonio.certificate_from_dict(d)
        assert back.passed == cert.passed
        assert np.array_equal(back.lam, cert.lam)
        assert back.edge_map == cert.edge_map

    def test_code_bundle(self, tmp_path):
        rng = np.random.default_rng(2)
        dom = Alphabet.of_size(2, "a")
        cod = Alphabet.of_size(2, "b")
        f = FunctionTable(dom, cod, (0, 1))
        code = FunctionCode(
            rand_channel(rng, dom, Alphabet.of_size(3, "x")),
            rand_channel(rng, Alphabet.of_size(3, "y"), cod),
            f,
            rand_channel(rng, Alphabet.of_size(3, "x"), Alphabet.of_size(3, "y")),
        )
        bundle = tmp_path / "code.json"
        jsonio.write_code_bundle(bundle, code)
        back = jsonio.read_code_bundle(bundle)
        assert np.array_equal(back.encoder.rows, code.encoder.rows)
        assert np.array_equal(back.channel.rows, code.channel.rows)
        assert back.f.mapping == code.f.mapping

    def test_codebook_file(self, tmp_path):
        for delta in (3 / 7, 0.42):  # 0.42 asks for less than dmin / n = 3 / 7
            book = gen_codebook(7, delta, 16)
            path = tmp_path / "book.txt"
            jsonio.write_codebook(path, book)
            text = path.read_text()
            assert text.startswith("# n=7 d=3\n")
            back = jsonio.read_codebook(path)
            assert back.words == book.words and back.dmin == book.dmin
            assert back == book

    def test_codebook_header_required(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0101010\n")
        with pytest.raises(ShapeError):
            jsonio.read_codebook(path)

    # each of these raised ValueError, ZeroDivisionError or KeyError
    @pytest.mark.parametrize("header", ["# n=5 d", "# n=x d=1", "# n=0 d=0",
                                        "# n=5", "", "# n=5 d=1 x=2"])
    def test_malformed_codebook_header_is_a_shape_error(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n00000\n11111\n")
        with pytest.raises(ShapeError, match=f"header with n >= 1, got {header!r}$"):
            jsonio.read_codebook(path)

    def test_branch_swap_instance(self):
        from lhckit import check_branch_swap

        rng = np.random.default_rng(3)
        phi, h, g, i, f, lam = random_branch_swap_instance(rng)
        report = check_branch_swap(phi, h, g, i, f, lam)
        d = jsonio.instance_to_dict(report.instance)
        back = jsonio.instance_from_dict(d)
        assert back.hyper_h.edges == h.edges
        assert np.array_equal(back.phi.rows, phi.rows)
        again = check_branch_swap(back.phi, back.hyper_h, back.hyper_g,
                                  back.hyper_i, back.hyper_f, back.lam)
        assert again.hypothesis_holds == report.hypothesis_holds
        assert again.conclusion_holds == report.conclusion_holds


# -- writers ------------------------------------------------------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, 0.1, 1 / 3, 1.0,
                  float("nan"), float("inf"), float("-inf")]
finite_floats = st.one_of(
    st.sampled_from([x for x in SPECIAL_FLOATS if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
cells = st.one_of(finite_floats, st.sampled_from(SPECIAL_FLOATS), st.floats(),
                  st.floats().map(np.float64), st.integers(-3, 3), st.booleans())


def matrices(items):
    """Equal-length rows, the shape of a channel's rows, drawn from a few
    values; up to 144 entries, so both sides of the writer's size switch."""
    return st.tuples(st.integers(1, 12), st.integers(1, 12),
                     st.lists(items, min_size=1, max_size=4),
                     st.randoms(use_true_random=False)).map(
        lambda t: [[t[3].choice(t[2]) for _ in range(t[1])] for _ in range(t[0])])


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=8), st.sampled_from([", ", ",\n  ", ": ", "a\nb", "ü €😀", '"\\']),
)
payloads = st.recursive(
    st.one_of(scalars, matrices(finite_floats), matrices(cells)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4) | st.sampled_from([", ", "k\n", "é"]),
                        inner, max_size=4),
    ),
    max_leaves=16,
)


@pytest.mark.parametrize("load, payload, text", [
    (jsonio.hypergraph_from_dict, {"vertices": ["a", "b"], "edges": [[0], [1.0]]},
     "vertex index 1.0 is not an integer"),
    (jsonio.function_table_from_dict,
     {"domain": ["a", "b"], "codomain": ["0", "1"], "map": [0, True]},
     "image index True is not an integer"),
    (jsonio.edge_map_from_dict, {"source_edges": 2.0, "target_edges": 2, "map": [0, 1]},
     "edge count 2.0 is not an integer"),
    (jsonio.edge_map_from_dict, {"source_edges": 2, "target_edges": 2, "map": [0, "1"]},
     "edge map entry '1' is not an integer"),
])
def test_loaders_accept_only_integer_indices(load, payload, text):
    # the constructors refuse them; the loaders keep no index check of their own
    with pytest.raises(ShapeError, match=text):
        load(payload)
    assert not hasattr(jsonio, "_index")


CHANNEL = {"input": ["0", "1"], "output": ["0", "1"], "rows": [[0.75, 0.25], [0, 1]]}
CERTIFICATE = {"edge_map": {"source_edges": 1, "target_edges": 1, "map": [0]},
               "lambda": [0.1], "per_vertex_success": [None, 0.95, 1],
               "verdict": "pass", "edge_bijective": True, "failing_edges": []}


def branch_swap_instance_dict() -> dict:
    phi, h, g, i, f, lam = random_branch_swap_instance(np.random.default_rng(3))
    from lhckit import check_branch_swap

    return jsonio.instance_to_dict(check_branch_swap(phi, h, g, i, f, lam).instance)


HYPERGRAPH = {"vertices": ["a", "b"], "edges": [[0], [1]]}
FUNCTION_TABLE = {"domain": ["a", "b"], "codomain": ["0", "1"], "map": [0, 1]}
EDGE_MAP = {"source_edges": 2, "target_edges": 2, "map": [1, 0]}


@pytest.mark.parametrize("load, base, key, value, text", [
    (jsonio.channel_from_dict, lambda: CHANNEL, "rows",
     [[True, False], ["0.25", "0.75"]], "channel entry must be a number, got true"),
    (jsonio.channel_from_dict, lambda: CHANNEL, "rows",
     [[1, 0], ["0.25", "0.75"]], 'channel entry must be a number, got "0.25"'),
    (jsonio.channel_from_dict, lambda: CHANNEL, "rows", [[1, 0], 0.5],
     r"channel entry must be a number, got \[1, 0\]"),
    (jsonio.channel_from_dict, lambda: CHANNEL, "rows", "1",
     "channel entry must be a JSON array, got a string"),
    # lambda is read at the edge count; a longer one loaded
    (jsonio.certificate_from_dict, lambda: CERTIFICATE, "lambda", [0.1, 0.2],
     r"^lambda must have one entry per edge \(1\)$"),
    (jsonio.certificate_from_dict, lambda: CERTIFICATE, "per_vertex_success", [True],
     "per-vertex success must be a number, got true"),
    (jsonio.certificate_from_dict, lambda: CERTIFICATE, "edge_bijective", "no",
     'edge_bijective must be true or false, got "no"'),
    # the flag is the edge map's, so a file may not claim otherwise
    (jsonio.certificate_from_dict, lambda: CERTIFICATE, "edge_bijective", False,
     r"edge_bijective false disagrees with edge map \[0\]"),
    (jsonio.certificate_from_dict, lambda: CERTIFICATE, "edge_map",
     {"source_edges": 2, "target_edges": 2, "map": [0, 0]},
     r"edge_bijective true disagrees with edge map \[0, 0\]"),
    (jsonio.instance_from_dict, branch_swap_instance_dict, "lambda", [0.1, 0.2, 0.3, 0.4],
     r"^lambda must have one entry per edge \(1\)$"),
    # a2 and x2 are phi's alphabets, so a file may not name others
    (jsonio.instance_from_dict, branch_swap_instance_dict, "a2", ["zz0"],
     r'^a2 \["zz0"\] disagrees with phi input \["b0"\]$'),
    (jsonio.instance_from_dict, branch_swap_instance_dict, "x2", ["v0", "v1"],
     r'^x2 \["v0", "v1"\] disagrees with phi output \["v0"\]$'),
    # each raised a bare TypeError or numpy's ValueError
    (jsonio.hypergraph_from_dict, lambda: HYPERGRAPH, "edges", 5,
     "^edges must be a JSON array, got a number$"),
    (jsonio.hypergraph_from_dict, lambda: HYPERGRAPH, "edges", [[0], 1],
     "^edge must be a JSON array, got a number$"),
    (jsonio.function_table_from_dict, lambda: FUNCTION_TABLE, "map", "01",
     "^map must be a JSON array, got a string$"),
    (jsonio.edge_map_from_dict, lambda: EDGE_MAP, "map", {"0": 1},
     "^map must be a JSON array, got an object$"),
    (jsonio.certificate_from_dict, lambda: CERTIFICATE, "failing_edges", 0,
     "^failing_edges must be a JSON array, got a number$"),
    (jsonio.channel_from_dict, lambda: CHANNEL, "rows", [[0.75, 0.25], [1]],
     "^channel entry: expected rows of equal length, got lengths 1 and 2$"),
    (jsonio.channel_from_dict, lambda: CHANNEL, "rows", [[0.75, 0.25, 0.0], [0, 1]],
     "^channel entry: expected rows of equal length, got lengths 2 and 3$"),
    # a1 and x1 are the first factors of hyper_h's and hyper_i's vertices,
    # which must be products with phi's input; each of these used to load
    (jsonio.instance_from_dict, branch_swap_instance_dict, "a1", ["zz0", "zz1", "zz2"],
     r'^a1 \["zz0", "zz1", "zz2"\] disagrees with hyper_h first factor '
     r'\["a0", "a1", "a2"\]$'),
    (jsonio.instance_from_dict, branch_swap_instance_dict, "x1", ["u1"],
     r'^x1 \["u1"\] disagrees with hyper_i first factor \["u0"\]$'),
    (jsonio.instance_from_dict, branch_swap_instance_dict, "hyper_h",
     {"vertices": ["a0|c0", "a1|c0", "a2|c0"], "edges": [[0, 1, 2]]},
     r'^hyper_h vertices \["a0\|c0", "a1\|c0", "a2\|c0"\] are no product '
     r'with phi input \["b0"\]$'),
    (jsonio.instance_from_dict, branch_swap_instance_dict, "hyper_i",
     {"vertices": ["u0", "u1"], "edges": [[0, 1]]},
     r'^hyper_i vertices \["u0", "u1"\] are no product with phi input \["b0"\]$'),
])
def test_loaders_accept_only_numbers(load, base, key, value, text):
    """np.array(..., dtype=float) would read true as 1.0 and "0.25" as 0.25."""
    assert load(base()) is not None
    with pytest.raises(ShapeError, match=text):
        load({**base(), key: value})


TWO_EDGES = {**CERTIFICATE, "edge_map": {"source_edges": 2, "target_edges": 2,
                                         "map": [0, 1]}, "lambda": [0.1, 0.2]}


# each of these loaded: lambda went through the number reader alone, which
# knew neither the edge count nor NaN
@pytest.mark.parametrize("load, base, value, error, text", [
    (jsonio.certificate_from_dict, lambda: TWO_EDGES, [0.1, 0.2, 0.3], ShapeError,
     r"^lambda must have one entry per edge \(2\)$"),
    (jsonio.certificate_from_dict, lambda: TWO_EDGES, [float("nan"), 0.1], RangeError,
     "^lambda is NaN at edge 0$"),
    # a string or a bool was a ShapeError of the number reader
    (jsonio.certificate_from_dict, lambda: TWO_EDGES, ["0.1", 0.2], RangeError,
     "^lambda '0.1' is not a real number$"),
    (jsonio.certificate_from_dict, lambda: TWO_EDGES, [0.1, True], RangeError,
     "^lambda True is not a real number$"),
    (jsonio.instance_from_dict, branch_swap_instance_dict, ["0.3"], RangeError,
     "^lambda '0.3' is not a real number$"),
])
def test_loaders_read_lambda_through_the_per_edge_rule(load, base, value, error, text):
    assert load(base()) is not None
    with pytest.raises(error, match=text):
        load({**base(), "lambda": value})


def test_number_reader_takes_ints_and_null():
    assert jsonio.channel_from_dict(CHANNEL).rows.tolist() == [[0.75, 0.25], [0.0, 1.0]]
    cert = jsonio.certificate_from_dict(CERTIFICATE)
    assert np.isnan(cert.per_vertex_success[0])
    assert cert.per_vertex_success[1:].tolist() == [0.95, 1.0]


@pytest.mark.parametrize("verdict, failing, text", [
    ("garbage", [], 'verdict must be "pass" or "fail", got "garbage"'),
    (None, [], 'verdict must be "pass" or "fail", got null'),
    (True, [], 'verdict must be "pass" or "fail", got true'),
    ("pass", [0], r'verdict "pass" disagrees with failing edges \[0\]'),
    ("fail", [], r'verdict "fail" disagrees with failing edges \[\]'),
])
def test_certificate_verdict_must_match_failing_edges(verdict, failing, text):
    """Any verdict but "pass" used to load as a failing certificate, and none
    was compared with the failing edges that decide it."""
    with pytest.raises(ShapeError, match=f"^{text}$"):
        jsonio.certificate_from_dict(
            {**CERTIFICATE, "verdict": verdict, "failing_edges": failing})


def test_failing_edges_must_be_source_edges():
    # read against the edge map's 2 source edges; -3 and 7 loaded before
    two = {"source_edges": 2, "target_edges": 2, "map": [0, 1]}
    with pytest.raises(ShapeError, match=r"^failing edge -3 is outside \[0, 2\)$"):
        jsonio.certificate_from_dict({**CERTIFICATE, "edge_map": two, "verdict": "fail",
                                      "lambda": [0.1, 0.1], "failing_edges": [-3, 7]})


def test_failing_certificate_reads_back():
    cert = jsonio.certificate_from_dict(
        {**CERTIFICATE, "verdict": "fail", "failing_edges": [0]})
    assert not cert.passed and cert.failing_edges == (0,)


class TestWriters:
    @given(st.dictionaries(st.text(max_size=4), payloads, max_size=5))
    @example({"rows": [[0.0, -0.0], [5e-324, 1.0]] * 16})
    @example({"rows": [[0.5, float("nan")], [float("inf"), -float("inf")]] * 16})
    @example({"rows": [[1, 0.5], [True, 0.25]], "empty": [[], {}, [[]]]})
    @example({"a": {"b": [[0.25, 0.75]], "c": []}, "d": [1, [2.5, {}]]})
    @settings(max_examples=200, deadline=None)
    def test_write_json_matches_json_dumps(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "write_json.json"
        jsonio.write_json(path, payload)
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("ascii")

    def test_derandomize_outputs_match_golden_files(self, tmp_path):
        """Outputs byte-equal to files of the ``json.dumps(indent=2)`` writer."""
        prefix = tmp_path / "golden"
        assert main(["derandomize", "--code", str(GOLDEN / "code.json"),
                     "--out-prefix", str(prefix)]) == 0
        for part in ("encoder", "decoder", "report"):
            name = f"golden.{part}.json"
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_csv_writes_numpy_floats_as_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        jsonio.write_csv(path, ["a", "b", "c"], [[np.float64(0.5), 0.1, 3]])
        assert path.read_text() == "a,b,c\n0.5,0.1,3\n"


class TestRewrites:
    """An existing output is replaced by a new file where it can simply go;
    anything else is written in place, through any symlink.

    A handle held open on the old file tells the two apart: it reads the
    new bytes only if the file was written in place. Holding it also keeps
    the old inode, so the new file cannot reuse its number.
    """

    PAYLOAD = {"rows": [[0.25, 0.75]], "seed": 3}

    @pytest.fixture
    def first(self, tmp_path) -> bytes:
        """The bytes of PAYLOAD written to a new path."""
        jsonio.write_json(tmp_path / "first.json", self.PAYLOAD)
        return (tmp_path / "first.json").read_bytes()

    def rewrite(self, path: Path) -> tuple[bytes, bool]:
        """Write PAYLOAD over the file at ``path``: what a handle on the old
        file then reads, and whether ``path`` still names that file."""
        with open(path, "rb") as held:
            jsonio.write_json(path, self.PAYLOAD)
            return held.read(), os.fstat(held.fileno()).st_ino == path.stat().st_ino

    def old_file(self, path: Path, mode: int = 0o644) -> Path:
        path.write_text("old")
        path.chmod(mode)
        return path

    def test_a_plain_file_becomes_a_new_file_with_its_permissions(self, tmp_path, first):
        path = self.old_file(tmp_path / "out.json", 0o640)
        assert self.rewrite(path) == (b"old", False)
        assert path.read_bytes() == first
        assert path.stat().st_mode & 0o7777 == 0o640

    def test_a_symlink_is_written_through(self, tmp_path, first):
        target = self.old_file(tmp_path / "target.json")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert self.rewrite(link) == (first, True)
        assert link.is_symlink() and target.read_bytes() == first

    def test_a_hard_linked_file_is_written_in_place(self, tmp_path, first):
        path = self.old_file(tmp_path / "a.json")
        os.link(path, tmp_path / "b.json")
        assert self.rewrite(path) == (first, True)
        assert (tmp_path / "b.json").read_bytes() == first

    def test_another_users_file_is_written_in_place(self, tmp_path, monkeypatch, first):
        path = self.old_file(tmp_path / "theirs.json")
        monkeypatch.setattr(os, "geteuid", lambda: path.stat().st_uid + 1)
        assert self.rewrite(path) == (first, True)

    def test_a_file_its_directory_keeps_is_written_in_place(self, tmp_path, monkeypatch,
                                                            first):
        path = self.old_file(tmp_path / "kept.json")

        def refuse(name, missing_ok=False):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(name))

        monkeypatch.setattr(Path, "unlink", refuse)
        assert self.rewrite(path) == (first, True)

    def test_a_read_only_file_is_not_replaced(self, tmp_path, first):
        path = self.old_file(tmp_path / "ro.json", 0o444)
        if os.geteuid() == 0:  # root writes it in place
            assert self.rewrite(path) == (first, True)
        else:
            with pytest.raises(PermissionError):
                self.rewrite(path)
            assert path.read_bytes() == b"old"

    def test_csv_and_codebook_bytes(self, tmp_path):
        """The bytes these writers gave when each wrote its own file."""
        csv_path, book_path = tmp_path / "t.csv", tmp_path / "t.txt"
        book = bsc_id.Codebook(n=4, words=("0000", "0111", "1110"), dmin=2)
        for _ in range(2):  # a first write, then a rewrite
            jsonio.write_csv(csv_path, ["delta", "name", "n"],
                             [[0.1, "a,b", 3], [np.float64(1 / 3), 'say "hi"', -0.0]])
            jsonio.write_codebook(book_path, book)
            assert csv_path.read_bytes() == (b'delta,name,n\n0.1,"a,b",3\n'
                                             b'0.3333333333333333,"say ""hi""",-0.0\n')
            assert book_path.read_bytes() == b"# n=4 d=2\n0000\n0111\n1110\n"


# -- channel files --------------------------------------------------------------

# texts of 16-17 significant digits, which CPython parses on its slow path
LONG_TEXTS = [0.1 + 0.2, 2.052623858367325e-05, 5.555920409999998e-16, 1 / 3]
# one pool of entry values per kind of channel file
value_pools = st.one_of(
    st.lists(st.floats(0, 1), min_size=1, max_size=200),  # dense, mostly distinct
    st.just([0.05 / 256, 0.95 + 0.05 / 256]),  # sharp
    st.lists(st.sampled_from(LONG_TEXTS), min_size=1, max_size=4),  # few long texts
    st.lists(st.sampled_from([*LONG_TEXTS, 0.0, -0.0, 5e-324, 1.0, 0, 1, 3]),
             min_size=1, max_size=6),  # ints and signed zeros mixed in
)
# 63, 64 and 65 entries sit around the writer's _MIN_MATRIX_ENTRIES
shapes = st.one_of(st.sampled_from([(1, 63), (63, 1), (7, 9), (1, 64), (8, 8), (1, 65),
                                    (5, 13)]),
                   st.tuples(st.integers(1, 12), st.integers(1, 12)))
channel_rows = st.tuples(shapes, value_pools, st.randoms(use_true_random=False)).map(
    lambda t: [[t[2].choice(t[1]) for _ in range(t[0][1])] for _ in range(t[0][0])])


def typed_hex(rows):
    """Each entry with its type, a float by its exact bits."""
    return [[(type(x), float.hex(x) if isinstance(x, float) else x) for x in row]
            for row in rows]


class TestChannelFiles:
    @given(channel_rows)
    @example([[0.0, -0.0, 5e-324, 1, 0.1 + 0.2] * 13])
    @settings(max_examples=150, deadline=None)
    def test_read_json_gives_the_values_of_json_loads(self, tmp_path_factory, rows):
        """Parsing each distinct number text once keeps every type and bit."""
        path = tmp_path_factory.getbasetemp() / "rows.json"
        jsonio.write_json(path, {"rows": rows})
        expected = typed_hex(json.loads(path.read_text())["rows"])
        for parse_float in (lambda text: None,
                            lambda text: jsonio._FloatMemo().__getitem__):
            with mock.patch.object(jsonio, "_parse_float", parse_float):
                assert typed_hex(jsonio.read_json(path)["rows"]) == expected

    @given(channel_rows, st.sampled_from([float("nan"), float("inf"), None]))
    @example([[0.5, -0.0]] * 40, None)
    @example([[0.0, -0.0] * 4] * 8, None)
    @example([[1.0]], float("nan"))
    @settings(max_examples=150, deadline=None)
    def test_array_rows_write_the_bytes_of_their_list(self, tmp_path_factory, rows,
                                                      special):
        """``write_json`` writes an ndarray as ``json.dumps`` writes its tolist()."""
        matrix = np.array(rows, dtype=np.float64)
        if special is not None:
            matrix[-1, -1] = special
        path = tmp_path_factory.getbasetemp() / "array.json"
        for array in (matrix, matrix.T, matrix[None],
                      matrix.astype(np.int64) if special is None else matrix[0]):
            for wrap in (lambda x: {"input": ["a"], "rows": x}, lambda x: {"rows": x},
                         lambda x: {"a": [x, 0.5]}):
                jsonio.write_json(path, wrap(array))
                expected = json.dumps(wrap(array.tolist()), indent=2, sort_keys=True)
                assert path.read_bytes() == (expected + "\n").encode("ascii")

    @given(st.lists(st.lists(st.sampled_from([0, 1, 0.0, 1.0]), min_size=4, max_size=4),
                    min_size=1, max_size=20),
           st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_a_bool_among_zeros_and_ones_is_refused(self, rows, flag, rnd):
        """numpy reads true as 1, so an array of 0s and 1s has its types checked."""
        rows[rnd.randrange(len(rows))][rnd.randrange(4)] = flag
        labels = [str(i) for i in range(len(rows))]
        with pytest.raises(ShapeError, match=f"^channel entry must be a number, "
                                             f"got {json.dumps(flag)}$"):
            jsonio.channel_from_dict({"input": labels, "output": ["0", "1", "2", "3"],
                                      "rows": rows})

    def test_memo_only_for_long_files_whose_tail_repeats(self, tmp_path):
        """The rule decides from the file: a file of 2^17 or more characters
        whose sampled items are at most a quarter distinct is parsed through
        the memo, whatever its digits; dense texts and small files are parsed
        as ``json`` does."""
        rng = np.random.default_rng(5)
        sharp = np.full((128, 128), 0.05 / 128)
        sharp[np.arange(128), rng.permutation(128)] += 0.95
        few = rng.integers(4, size=(128, 128))
        for rows, memo in (
                (bsc_id.restricted_pair_channel(gen_codebook(5, 0.5, 3), 0.03).rows, True),
                (sharp, True),
                (np.array([0.1 + 0.2, 1 / 3, 2 / 3, 0.7 / 3])[few], True),
                (np.array([0.123456789012345, 0.5, 0.25, 2e-05])[few], True),
                (bsc_id.restricted_pair_channel(gen_codebook(3, 0.5, 3), 0.03).rows, False),
                (rng.dirichlet(np.ones(128), size=128), False),
                (np.linspace(0, 1, 64)[rng.integers(64, size=(128, 128))], False)):
            path = tmp_path / "rows.json"
            jsonio.write_json(path, {"rows": rows})
            assert (jsonio._parse_float(path.read_text()) is not None) == memo

    @pytest.mark.parametrize("chars, distinct, memo", [
        (1 << 17, 128, True), ((1 << 17) - 1, 128, False), (1 << 17, 129, False)])
    def test_memo_thresholds(self, chars, distinct, memo):
        """The 512 sampled items of a 7-character texts list: the memo at
        2^17 characters with a quarter of them distinct, not below either."""
        items = [f"{i % distinct:07d}" for i in range(chars // 8 + 1)]
        text = ",".join(items)[-chars:]
        assert (jsonio._parse_float(text) is not None) == memo
