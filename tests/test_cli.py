import builtins
import collections
import errno
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import BITS, EdgeMap, bsc, bsc_id, cli, complete_1_uniform, jsonio
from lhckit.cli import main


def write_singleton_instance(tmp_path, gamma=0.03):
    bits1 = complete_1_uniform(BITS)
    jsonio.write_json(tmp_path / "ch.json", jsonio.channel_to_dict(bsc(gamma)))
    jsonio.write_json(tmp_path / "G.json", jsonio.hypergraph_to_dict(bits1))
    jsonio.write_json(tmp_path / "H.json", jsonio.hypergraph_to_dict(bits1))
    jsonio.write_json(tmp_path / "m.json", jsonio.edge_map_to_dict(EdgeMap.identity(2)))


class TestVerifyCommand:
    def test_pass_writes_certificate(self, tmp_path, capsys):
        write_singleton_instance(tmp_path)
        out = tmp_path / "cert.json"
        rc = main(["verify", "--channel", str(tmp_path / "ch.json"),
                   "--source", str(tmp_path / "G.json"),
                   "--target", str(tmp_path / "H.json"),
                   "--edge-map", str(tmp_path / "m.json"),
                   "--lambda", "0.05", "--out", str(out)])
        assert rc == 0 and out.is_file()
        cert = jsonio.certificate_from_dict(jsonio.read_json(out))
        assert cert.passed and np.allclose(cert.lam, [0.05, 0.05])

    def test_fail_exits_one(self, tmp_path):
        write_singleton_instance(tmp_path, gamma=0.2)
        rc = main(["verify", "--channel", str(tmp_path / "ch.json"),
                   "--source", str(tmp_path / "G.json"),
                   "--target", str(tmp_path / "H.json"),
                   "--edge-map", str(tmp_path / "m.json"),
                   "--lambda", "0.05", "--out", str(tmp_path / "c.json")])
        assert rc == 1

    def test_malformed_input_exits_two(self, tmp_path):
        write_singleton_instance(tmp_path)
        (tmp_path / "ch.json").write_text("{not json")
        rc = main(["verify", "--channel", str(tmp_path / "ch.json"),
                   "--source", str(tmp_path / "G.json"),
                   "--target", str(tmp_path / "H.json"),
                   "--edge-map", str(tmp_path / "m.json"),
                   "--lambda", "0.05", "--out", str(tmp_path / "c.json")])
        assert rc == 2

    def test_missing_file_exits_two(self, tmp_path):
        write_singleton_instance(tmp_path)
        rc = main(["verify", "--channel", str(tmp_path / "nope.json"),
                   "--source", str(tmp_path / "G.json"),
                   "--target", str(tmp_path / "H.json"),
                   "--edge-map", str(tmp_path / "m.json"),
                   "--lambda", "0.05", "--out", str(tmp_path / "c.json")])
        assert rc == 2


class TestRatesCommand:
    def test_zero_delta_row(self, tmp_path):
        out = tmp_path / "rates.csv"
        rc = main(["rates", "--gamma", "0.03", "--grid", "0:0.5:0.01",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,gv_rate,tx_rate"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(0.8056, abs=1e-4)
        assert len(lines) == 2 + 50  # header + deltas 0..0.5 inclusive

    def test_validate_passes_the_same_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "rates",
                                   "params": {"gamma": 0.03, "grid": [0, 0.5, 0.01]}}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "ok: configuration is well formed\n"


class TestIdSimCommand:
    def test_csv_columns_and_bound(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(["id-sim", "--n", "100", "--gamma", "0.03", "--delta", "0.1",
                   "--eps", "0.3", "--M", "4", "--trials", "2000",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        header, row = out.read_text().splitlines()
        assert header == "trials,false_accept,false_reject,bound"
        cells = row.split(",")
        assert cells[0] == "2000"
        from lhckit.bsc_id import chernoff_bound

        assert float(cells[3]) == pytest.approx(chernoff_bound(100, 0.3, 0.1, 0.03))

    def test_epsilon_out_of_range_exits_two(self, tmp_path):
        rc = main(["id-sim", "--n", "100", "--gamma", "0.03", "--delta", "0.1",
                   "--eps", "0.9", "--M", "4", "--trials", "100",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestCodebookCommand:
    def test_lexicode(self, tmp_path):
        out = tmp_path / "book.txt"
        rc = main(["codebook", "--n", "7", "--delta", "0.42", "--M", "16",
                   "--out", str(out)])
        assert rc == 0
        book = jsonio.read_codebook(out)
        assert book.size == 16 and book.dmin == 3

    def test_infeasible_exits_one(self, tmp_path):
        rc = main(["codebook", "--n", "4", "--delta", "1.0", "--M", "3",
                   "--out", str(tmp_path / "b.txt")])
        assert rc == 1


class TestFalsifyCommand:
    def test_dump_file_written(self, tmp_path):
        out = tmp_path / "dumps.json"
        rc = main(["falsify", "--trials", "40", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        payload = jsonio.read_json(out)
        assert payload["trials"] == 40
        for dump in payload["counterexamples"]:
            inst = jsonio.instance_from_dict(dump["instance"])
            assert inst.hyper_h.edge_count == inst.hyper_f.edge_count


class TestDecomposeCommand:
    def test_writes_intermediate_and_certificates(self, tmp_path):
        write_singleton_instance(tmp_path, gamma=0.05)
        prefix = tmp_path / "split"
        rc = main(["decompose", "--phi", str(tmp_path / "ch.json"),
                   "--gamma-channel", str(tmp_path / "ch.json"),
                   "--source", str(tmp_path / "G.json"),
                   "--target", str(tmp_path / "H.json"),
                   "--edge-map", str(tmp_path / "m.json"),
                   "--lambda", "0.095", "--mu", "0.38", "--kappa", "0.25",
                   "--out-prefix", str(prefix)])
        assert rc == 0
        inter = jsonio.hypergraph_from_dict(
            jsonio.read_json(f"{prefix}.intermediate.json"))
        assert inter.edges == ((0,), (1,))
        for role in ("cert_phi", "cert_gamma"):
            cert = jsonio.certificate_from_dict(
                jsonio.read_json(f"{prefix}.{role}.json"))
            assert cert.passed

    def test_hypothesis_violation_exits_one(self, tmp_path):
        write_singleton_instance(tmp_path, gamma=0.05)
        rc = main(["decompose", "--phi", str(tmp_path / "ch.json"),
                   "--gamma-channel", str(tmp_path / "ch.json"),
                   "--source", str(tmp_path / "G.json"),
                   "--target", str(tmp_path / "H.json"),
                   "--edge-map", str(tmp_path / "m.json"),
                   "--lambda", "0.095", "--mu", "0.38", "--kappa", "0.6",
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 1


def write_identity_code(path) -> None:
    """Bundle of the identity code over BSC(0.02) and its four components."""
    from lhckit import FunctionCode, FunctionTable, identity_channel

    f = FunctionTable(BITS, BITS, (0, 1))
    ident = identity_channel(BITS)
    jsonio.write_code_bundle(path, FunctionCode(ident, ident, f, bsc(0.02)))


class TestDerandomizeCommand:
    def test_bundle_round_trip(self, tmp_path):
        write_identity_code(tmp_path / "code.json")
        prefix = tmp_path / "det"
        rc = main(["derandomize", "--code", str(tmp_path / "code.json"),
                   "--out-prefix", str(prefix)])
        assert rc == 0
        report = jsonio.read_json(f"{prefix}.report.json")
        assert report["within_bound"]
        enc = jsonio.channel_from_dict(jsonio.read_json(f"{prefix}.encoder.json"))
        assert enc.deterministic


def write_assemble_instance(tmp_path, prefix) -> list[str]:
    """Noiseless two-message assembly inputs, one file per role; the argv."""
    from lhckit import Alphabet, FunctionTable, deterministic_channel, \
        identity_channel
    from lhckit.hypergraph import Hypergraph

    msgs = Alphabet.of_size(2)
    x = Alphabet(("u", "v"))
    pairs = x.product(x)
    enc = jsonio.channel_to_dict(
        deterministic_channel(FunctionTable(msgs, x, (0, 1))))

    def square(alpha):
        match = tuple(i * 2 + i for i in range(2))
        mismatch = tuple(i * 2 + j for i in range(2) for j in range(2)
                         if i != j)
        return jsonio.hypergraph_to_dict(Hypergraph(alpha, (mismatch, match)))

    files = {
        "enc1": enc,
        "enc2": enc,
        "phi": jsonio.channel_to_dict(identity_channel(pairs)),
        "hyper-h": square(msgs.product(msgs)),
        "hyper-g1": square(x.product(msgs)),
        "hyper-g2": square(msgs.product(x)),
        "hyper-f": square(pairs),
        "hyper-d": square(pairs),
    }
    argv = ["assemble-id"]
    for flag, payload in files.items():
        jsonio.write_json(tmp_path / f"{flag}.json", payload)
        argv += [f"--{flag}", str(tmp_path / f"{flag}.json")]
    return argv + ["--alpha", "0,0", "--beta", "0,0", "--mu", "0,0",
                   "--out-prefix", str(prefix)]


class TestAssembleCommand:
    def test_noiseless_assembly(self, tmp_path):
        prefix = tmp_path / "id"
        rc = main(write_assemble_instance(tmp_path, prefix))
        assert rc == 0
        report = jsonio.read_json(f"{prefix}.report.json")
        assert report["exact_profile"] == [0.0, 0.0]
        code = jsonio.read_code_bundle(f"{prefix}.code.json")
        assert code.encoder.input.size == 4


class TestValidateCommand:
    def test_epsilon_diagnostic_names_constraint(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "id-sim",
            "params": {"gamma": 0.03, "delta": 0.1, "epsilon": 0.9,
                       "trials": 100, "m": 4, "n": 100, "seed": 1},
            "outputs": {"csv": str(tmp_path / "o.csv")},
        }))
        rc = main(["validate", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "theta_delta - theta_0" in captured

    def test_stochasticity_diagnostic(self, tmp_path, capsys):
        bad = {"input": ["0", "1"], "output": ["0", "1"],
               "rows": [[0.5, 0.5 + 1e-6], [0.5, 0.5]]}
        jsonio.write_json(tmp_path / "ch.json", bad)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "verify",
            "inputs": {"channel": str(tmp_path / "ch.json")},
            "params": {"lambda": 0.05},
        }))
        rc = main(["validate", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert rc == 0 and "sums to" in captured

    def test_missing_file_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "task": "verify",
            "inputs": {"channel": str(tmp_path / "nope.json")},
            "params": {"lambda": 0.05},
        }))
        rc = main(["validate", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert rc == 0 and "no file at" in captured


    def test_non_string_input_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "verify", "inputs": {"channel": 5},
                                   "params": {"lambda": 0.05}}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == (
            "error: input channel: path must be a string, got 5\n")

    def test_run_with_non_string_input_path_exits_two(self, tmp_path, capsys,
                                                      monkeypatch):
        from lhckit import cli

        parsed = cli.config_from_args

        def non_string_path(args):
            config = parsed(args)
            config.inputs["channel"] = 5
            return config

        monkeypatch.setattr(cli, "config_from_args", non_string_path)
        argv, _ = verify_inputs(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: input channel: path must be a string, got 5\n")
        assert not (tmp_path / "c.json").exists()


WRONG_TYPES = [
    ("rates", "gamma", "x", "error: gamma 'x' is not a real number"),
    ("falsify", "trials", "5", "error: trials '5' is not an integer >= 1"),
    ("falsify", "max_edges", True, "error: max_edges True is not an integer >= 1"),
    ("rates", "grid", ["a", 0.5, 0.1],
     "error: grid a:0.5:0.1 needs start:stop:step with step > 0 and stop >= start"),
    ("falsify", "seed", "x", "error: seed 'x' is not an integer >= 0"),
    ("falsify", "seed", 1.5, "error: seed 1.5 is not an integer >= 0"),
    ("falsify", "seed", True, "error: seed True is not an integer >= 0"),
]


class TestWronglyTypedParams:
    """A param of the wrong type is one note, never a traceback."""

    @pytest.mark.parametrize("task,key,value,note", WRONG_TYPES)
    def test_validate_notes(self, tmp_path, capsys, task, key, value, note):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": task, "params": {key: value}}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == note + "\n"

    @pytest.mark.parametrize("task,key,value,note", WRONG_TYPES)
    def test_run_exits_two(self, tmp_path, capsys, monkeypatch, task, key, value,
                           note):
        from lhckit import cli

        parsed = cli.config_from_args

        def wrongly_typed(args):
            config = parsed(args)
            config.params[key] = value
            return config

        monkeypatch.setattr(cli, "config_from_args", wrongly_typed)
        out = tmp_path / "out"
        argv = {"rates": ["rates", "--gamma", "0.03", "--grid", "0:0.5:0.1"],
                "falsify": ["falsify", "--trials", "5"]}[task]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == note + "\n"
        assert not out.exists()


class TestReproducibility:
    def test_artifacts_byte_identical_across_runs(self, tmp_path):
        args_a = ["id-sim", "--n", "64", "--gamma", "0.05", "--delta", "0.2",
                  "--eps", "0.2", "--M", "4", "--trials", "3000", "--seed", "3",
                  "--out", str(tmp_path / "a.csv")]
        args_b = [*args_a[:-1], str(tmp_path / "b.csv")]
        assert main(args_a) == 0 and main(args_b) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

        assert main(["rates", "--gamma", "0.03", "--grid", "0:0.3:0.05",
                     "--out", str(tmp_path / "r1.csv")]) == 0
        assert main(["rates", "--gamma", "0.03", "--grid", "0:0.3:0.05",
                     "--out", str(tmp_path / "r2.csv")]) == 0
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


ID_SIM = ["id-sim", "--n", "16", "--gamma", "0.03", "--delta", "0.25",
          "--eps", "0.3", "--M", "6", "--trials", "3000", "--seed", "11"]


def write_id_sim_codebook(path) -> None:
    """The random-greedy words that ID_SIM generates for itself."""
    assert main(["codebook", "--n", "16", "--delta", "0.25", "--M", "6",
                 "--seed", "11", "--strategy", "random-greedy",
                 "--out", str(path)]) == 0


class TestMalformedInputExitsTwo:
    """Exit 2 with one stderr line and no traceback, before any output."""

    def check(self, argv, out, capsys, text):
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and text in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:0.5:0", "0:0.5:-0.01", "0.5:0:0.01",
                                      "0:2:0.5", "0.5:1.2:0.25", "0:inf:0.1",
                                      "0:1:1e-9"])
    def test_rates_grid(self, tmp_path, capsys, grid):
        self.check(["rates", "--gamma", "0.03", "--grid", grid],
                   tmp_path / "rates.csv", capsys, "grid")

    @pytest.mark.parametrize("flag", ["--max-edges", "--max-symbols"])
    def test_falsify_sizes(self, tmp_path, capsys, flag):
        self.check(["falsify", "--trials", "5", flag, "0"],
                   tmp_path / "dumps.json", capsys, flag[2:].replace("-", "_"))

    def test_falsify_symbols_over_cap(self, tmp_path, capsys):
        # 33 symbols give a 1089 x 1089 channel, over the 2**20-entry cap
        self.check(["falsify", "--trials", "1", "--max-symbols", "33"],
                   tmp_path / "dumps.json", capsys, "max_symbols 33")

    @pytest.mark.parametrize("role, edit, text", [
        ("edge-map", lambda d: d.update(map=[i + 0.4 for i in d["map"]]),
         "error: input edge_map: edge map entry 0.4 is not an integer"),
        ("source", lambda d: d["edges"][0].__setitem__(0, True),
         "error: input source: vertex index True is not an integer"),
    ])
    def test_non_integer_index(self, tmp_path, capsys, role, edit, text):
        # int() would read 0.4 as 0 and true as 1, and the certificate pass
        files = {flag: CERTIFY / f"verify.{flag}.json"
                 for flag in ("channel", "source", "target", "edge-map")}
        payload = json.loads(files[role].read_text())
        edit(payload)
        files[role] = tmp_path / f"{role}.json"
        files[role].write_text(json.dumps(payload))
        argv = ["verify", *(x for flag, path in files.items()
                            for x in (f"--{flag}", str(path))), "--lambda", "0.1"]
        self.check(argv, tmp_path / "c.json", capsys, text)

    def test_nan_channel(self, tmp_path, capsys):
        argv, _ = verify_inputs(tmp_path)
        (tmp_path / "ch.json").write_text(json.dumps(
            {"input": ["0", "1"], "output": ["0", "1"],
             "rows": [[float("nan"), float("nan")], [0.5, 0.5]]}))
        self.check(argv[:-2], tmp_path / "c.json", capsys,
                   "error: input channel: row 0 holds nan")

    @pytest.mark.parametrize("rows, text", [
        ([[True, False], ["0.25", "0.75"]], "must be a number, got true"),
        ([[1, 0], ["0.25", "0.75"]], 'must be a number, got "0.25"'),
    ])
    def test_non_number_channel_entry(self, tmp_path, capsys, rows, text):
        argv, _ = verify_inputs(tmp_path)
        (tmp_path / "ch.json").write_text(json.dumps(
            {"input": ["0", "1"], "output": ["0", "1"], "rows": rows}))
        self.check(argv[:-2], tmp_path / "c.json", capsys,
                   f"error: input channel: channel entry {text}")

    @pytest.mark.parametrize("header", ["# n=5 d", "# n=x d=1", "# n=0 d=0", "# n=5"])
    def test_codebook_header(self, tmp_path, capsys, header):
        book = tmp_path / "book.txt"
        book.write_text(f"{header}\n00000\n11111\n")
        self.check([*ID_SIM, "--codebook", str(book)], tmp_path / "sim.csv", capsys,
                   f"error: input codebook: codebook file must start with a "
                   f"'# n=<n> d=<dmin>' header with n >= 1, got {header!r}\n")

    def test_valid_worker_count_is_used(self, tmp_path, monkeypatch):
        """The worker count is the number of CPUs the process may run on: one
        CPU runs serially, four take the thread pool, an LHC_KIT_WORKERS left
        in the environment is not read, and each writes the recorded CSV."""
        pools = []

        class Recording(bsc_id.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(bsc_id, "ThreadPoolExecutor", Recording)
        # a worker count of 0 would be refused, and one of 1 would run serially
        for name, cpus, env in (("one", {0}, None), ("four", {0, 1, 2, 3}, None),
                                ("env0", {0, 1, 2, 3}, "0"), ("env1", {0, 1, 2, 3}, "1")):
            if env is not None:
                monkeypatch.setenv("LHC_KIT_WORKERS", env)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            pools.clear()
            out = tmp_path / f"{name}.csv"
            assert main([*GOLDEN_ID_SIM, "--out", str(out)]) == 0
            assert pools == ([] if name == "one" else [4])
            assert out.read_bytes() == (BSC / "golden.id-sim.csv").read_bytes()


class TestOutputPaths:
    """An output that is a directory, or whose directory does not exist, is
    refused with one note before the run; each ended in IsADirectoryError or
    FileNotFoundError after the whole run."""

    @pytest.mark.parametrize("out, note", [
        ("", "error: output dumps: '' is a directory"),
        (".", "error: output dumps: '.' is a directory"),
        ("nodir/x.json", "error: output dumps: no directory 'nodir' for 'nodir/x.json'"),
        ("nodir/", "error: output dumps: no directory 'nodir' for 'nodir/'"),
    ])
    def test_falsify_refuses_before_the_run(self, tmp_path, capsys, monkeypatch,
                                            out, note):
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("ran before the output was checked")

        monkeypatch.setattr(cli, "run_branch_swap_harness", refuse)
        assert main(["falsify", "--trials", "3", "--out", out]) == 2
        assert capsys.readouterr().err == note + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_name_the_os_cannot_stat_is_one_note(self, tmp_path, capsys, monkeypatch):
        """stat raises OSError for a name past the OS's limit; that is a note
        and exit 2, not a traceback and exit 1."""
        monkeypatch.chdir(tmp_path)
        out = "x" * 300 + ".csv"
        assert main(["rates", "--gamma", "0.03", "--grid", "0:0.5:3", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: output csv: {too_long(out)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_prefix_in_no_directory(self, tmp_path, capsys):
        argv, names = derandomize_inputs(tmp_path)
        argv[-1] = str(tmp_path / "nodir" / "det")
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: output prefix: no directory "
                                           f"{str(tmp_path / 'nodir')!r} for {argv[-1]!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.parametrize("out, note", [
        ("nodir/o.csv", "error: output csv: no directory 'nodir' for 'nodir/o.csv'"),
        ("", "error: output csv: '' is a directory"),
        (3, "error: output csv: path must be a string, got 3"),
    ])
    def test_validate_gives_the_same_note(self, tmp_path, capsys, monkeypatch, out, note):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": "rates", "params": {"gamma": 0.03},
                                   "outputs": {"csv": out}}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == note + "\n"


def too_long(name: str) -> OSError:
    return OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), name)


def test_an_input_name_the_os_cannot_stat_is_one_note(tmp_path, capsys):
    argv, names = verify_inputs(tmp_path)
    channel = str(tmp_path / ("x" * 300 + ".json"))
    argv[argv.index("--channel") + 1] = channel
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: input channel: {too_long(channel)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


@pytest.mark.parametrize("argv", [
    ["rates", "--gamma", "0.03", "--grid", "0:0.5:3"],
    ["codebook", "--n", "6", "--delta", "0.3", "--M", "3"],
    ["falsify", "--trials", "5"],
])
def test_a_write_that_fails_is_one_error_line(tmp_path, capsys, monkeypatch, argv):
    """A full disk or a read-only mount ends the run with one line and exit 2.
    A chmod cannot refuse root, so the writer itself is made to fail."""
    out = str(tmp_path / "out")
    denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)

    def refuse(path, text):
        raise denied

    monkeypatch.setattr(jsonio, "_write_text", refuse)
    assert main([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write output: {denied}\n"
    assert all(line.startswith("seed: ") for line in captured.out.splitlines())


class TestLoaderPaths:
    def test_id_sim_codebook_file_matches_generated_words(self, tmp_path, capsys):
        write_id_sim_codebook(tmp_path / "book.txt")
        capsys.readouterr()
        assert main([*ID_SIM, "--out", str(tmp_path / "gen.csv")]) == 0
        generated = capsys.readouterr().out
        assert main([*ID_SIM, "--codebook", str(tmp_path / "book.txt"),
                     "--out", str(tmp_path / "file.csv")]) == 0
        assert capsys.readouterr().out == generated
        assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()

    @pytest.mark.parametrize("flags, misfit", [
        (["--n", "999", "--delta", "0.3", "--M", "3"],
         "word length 200, not n = 999; 5 words, not M = 3; "
         "minimum distance 4, below ceil(n * delta) = 60"),
        (["--n", "200", "--delta", "0.3", "--M", "5"],
         "minimum distance 4, below ceil(n * delta) = 60"),
    ])
    def test_id_sim_codebook_must_be_the_flagged_code(self, tmp_path, capsys,
                                                      flags, misfit):
        """The bound is stated at the flags' n and delta, so a file with other
        words would get a bound for a different code."""
        book, out = tmp_path / "cb.txt", tmp_path / "sim.csv"
        assert main(["codebook", "--n", "200", "--delta", "0.02", "--M", "5",
                     "--strategy", "random-greedy", "--out", str(book)]) == 0
        capsys.readouterr()
        assert main(["id-sim", "--codebook", str(book), *flags, "--gamma", "0.03",
                     "--eps", "0.3", "--trials", "100", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: input codebook: has {misfit}\n"
        assert not out.exists()

    @pytest.mark.parametrize("role, content, message", [
        ("code", '{"encoder": "e.json"}',
         "error: input code: code bundle misses component 'decoder'"),
        ("codebook", "0000\n1111\n",
         "error: input codebook: codebook file must start with"),
        # each loaded as something else, or failed with a bare KeyError or
        # TypeError message
        ("source", '{"vertices": "01", "edges": [[0], [1]]}',
         "error: input source: vertices must be a JSON array, got a string"),
        ("source", '{"vertices": ["0", ["1"]], "edges": [[0], [1]]}',
         "error: input source: vertices: label ['1'] is not a string"),
        ("source", '{"vertices": [null, "1"], "edges": [[0], [1]]}',
         "error: input source: vertices: label None is not a string"),
        ("channel", '{"input": ["0", "1"], "output": ["0", 1], '
         '"rows": [[0.97, 0.03], [0.03, 0.97]]}',
         "error: input channel: output: label 1 is not a string"),
        ("channel", '{"input": ["0", "1"], "output": ["0", "1"]}',
         "error: input channel: channel misses component 'rows'"),
        ("channel", "[[0.97, 0.03], [0.03, 0.97]]",
         "error: input channel: channel must be a JSON object, got an array"),
        ("source", '{"vertices": ["0", "1"], "edges": 5}',
         "error: input source: edges must be a JSON array, got a number"),
        ("channel", '{"input": ["0", "1"], "output": ["0", "1"], '
                    '"rows": [[0.97, 0.03], [1.0]]}',
         "error: input channel: channel entry: expected rows of equal length, "
         "got lengths 1 and 2"),
    ])
    def test_malformed_file_is_diagnosed(self, tmp_path, capsys, role, content,
                                         message):
        bad = tmp_path / "bad"
        bad.write_text(content)
        if role in ("source", "channel"):  # the other verify inputs are well formed
            task, (argv, _) = "verify", verify_inputs(tmp_path)
            argv[argv.index(f"--{role}") + 1] = str(bad)
        else:
            task, argv = {
                "code": ("derandomize", ["derandomize", "--code", str(bad),
                                         "--out-prefix", str(tmp_path / "det")]),
                "codebook": ("id-sim", [*ID_SIM, "--codebook", str(bad),
                                        "--out", str(tmp_path / "sim.csv")]),
            }[role]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": task, "inputs": {role: str(bad)}}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith(message)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


def verify_inputs(tmp_path):
    write_singleton_instance(tmp_path)
    names = ("ch.json", "G.json", "H.json", "m.json")
    argv = ["verify"]
    for flag, name in zip(("--channel", "--source", "--target", "--edge-map"), names):
        argv += [flag, str(tmp_path / name)]
    return argv + ["--lambda", "0.05", "--out", str(tmp_path / "c.json")], names


def decompose_inputs(tmp_path):
    write_singleton_instance(tmp_path, gamma=0.05)
    (tmp_path / "ch2.json").write_bytes((tmp_path / "ch.json").read_bytes())
    names = ("ch.json", "ch2.json", "G.json", "H.json", "m.json")
    argv = ["decompose"]
    for flag, name in zip(("--phi", "--gamma-channel", "--source", "--target",
                           "--edge-map"), names):
        argv += [flag, str(tmp_path / name)]
    return argv + ["--lambda", "0.095", "--mu", "0.38", "--kappa", "0.25",
                   "--out-prefix", str(tmp_path / "split")], names


def derandomize_inputs(tmp_path):
    write_identity_code(tmp_path / "code.json")
    names = ("code.json", "code.encoder.json", "code.decoder.json",
             "code.function.json", "code.channel.json")
    return ["derandomize", "--code", str(tmp_path / "code.json"),
            "--out-prefix", str(tmp_path / "det")], names


def assemble_inputs(tmp_path):
    argv = write_assemble_instance(tmp_path, tmp_path / "id")
    return argv, tuple(Path(a).name for a in argv if a.endswith(".json"))


def id_sim_codebook_inputs(tmp_path):
    write_id_sim_codebook(tmp_path / "book.txt")
    return [*ID_SIM, "--codebook", str(tmp_path / "book.txt"),
            "--out", str(tmp_path / "sim.csv")], ("book.txt",)


@pytest.fixture
def reads(monkeypatch):
    """Opens for reading, counted by resolved path."""
    counts = collections.Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and not isinstance(file, int):
            counts[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return counts


@pytest.mark.parametrize("write_inputs", [
    verify_inputs, decompose_inputs, derandomize_inputs, assemble_inputs,
    id_sim_codebook_inputs,
])
def test_each_input_file_is_read_once(tmp_path, reads, write_inputs):
    argv, names = write_inputs(tmp_path)
    reads.clear()
    assert main(argv) == 0
    assert {n: reads[(tmp_path / n).resolve()] for n in names} == dict.fromkeys(names, 1)


@pytest.mark.parametrize("write_inputs, flag", [
    (verify_inputs, "--lambda"), (decompose_inputs, "--mu"),
    (decompose_inputs, "--kappa"), (assemble_inputs, "--alpha"),
    (assemble_inputs, "--beta"),
])
def test_nan_error_vector_exits_two(tmp_path, capsys, write_inputs, flag):
    """NaN fails every comparison, so unrefused it lets a certificate pass."""
    argv, _ = write_inputs(tmp_path)
    argv[argv.index(flag) + 1] = "0.1,nan"
    before = set(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag[2:]} is NaN at edge 1\n")
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("write_inputs, flag", [
    (verify_inputs, "--lambda"), (decompose_inputs, "--mu"),
    (assemble_inputs, "--beta"),
])
def test_wrong_length_error_vector_exits_two(tmp_path, capsys, write_inputs, flag):
    """A vector not fitting the source edges is malformed input, not a failure."""
    argv, _ = write_inputs(tmp_path)
    argv[argv.index(flag) + 1] = "0.1,0.1,0.1"
    before = set(tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag[2:]} must have one entry per edge (2)\n")
    assert set(tmp_path.iterdir()) == before


def test_validate_notes_malformed_error_vector(tmp_path, capsys):
    write_singleton_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "verify",
                               "inputs": {"source": str(tmp_path / "G.json")},
                               "params": {"lambda": "abc"}}))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "error: lambda 'abc' is not a real number\n")


def test_validate_notes_ints_beyond_float_range(tmp_path, capsys):
    write_singleton_instance(tmp_path)
    cfg = tmp_path / "cfg.json"
    notes = []
    for config in ({"task": "rates", "params": {"grid": [0, 10**400, 1]}},
                   {"task": "verify", "inputs": {"source": str(tmp_path / "G.json")},
                    "params": {"lambda": 10**400}}):
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg)]) == 0
        notes += capsys.readouterr().out.splitlines()
    assert [n.split()[:2] for n in notes] == [["error:", "grid"], ["error:", "lambda"]]
    assert notes[0].endswith("needs finite start, stop and step")


def test_validate_notes_nan_error_vector(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "verify", "params": {"lambda": float("nan")}}))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "error: lambda is NaN at edge 0\n"


CERTIFY = Path(__file__).parent / "data" / "certify"


class TestCertificateGoldens:
    """Certificates byte-equal to files written before vertex grouping was cached.

    The verify instance has overlapping edges, isolated vertices and several
    vertices per edge signature; the decompose instance leaves source and
    intermediate symbols uncovered.
    """

    @staticmethod
    def argv(cmd, *flags):
        return [cmd, *(x for flag in flags
                       for x in (f"--{flag}", str(CERTIFY / f"{cmd}.{flag}.json")))]

    def test_verify(self, tmp_path):
        out = tmp_path / "golden.verify.certificate.json"
        assert main([*self.argv("verify", "channel", "source", "target", "edge-map"),
                     "--lambda", "0.1", "--out", str(out)]) == 0
        assert out.read_bytes() == (CERTIFY / out.name).read_bytes()

    def test_decompose(self, tmp_path):
        argv = self.argv("decompose", "phi", "gamma-channel", "source", "target",
                         "edge-map")
        assert main([*argv, "--lambda", "0.02", "--mu", "0.1", "--kappa", "0.25",
                     "--out-prefix", str(tmp_path / "golden.decompose")]) == 0
        for part in ("intermediate", "cert_phi", "cert_gamma"):
            name = f"golden.decompose.{part}.json"
            assert (tmp_path / name).read_bytes() == (CERTIFY / name).read_bytes()


ASSEMBLE = Path(__file__).parent / "data" / "assemble"


def test_assemble_outputs_match_golden_files(tmp_path):
    """Noisy encoders, and hyper_g1, hyper_f and hyper_d each listing their
    edges in the opposite order from the hop before, so every edge map is a
    swap and the asymmetric alpha, beta and mu must follow them."""
    argv = ["assemble-id"]
    for flag in ("enc1", "enc2", "phi", "hyper-h", "hyper-g1", "hyper-g2",
                 "hyper-f", "hyper-d"):
        argv += [f"--{flag}", str(ASSEMBLE / f"{flag}.json")]
    assert main([*argv, "--alpha", "0.1,0.2", "--beta", "0.1,0.15",
                 "--mu", "0.024,0.007", "--out-prefix", str(tmp_path / "golden")]) == 0
    for part in ("code", "encoder", "decoder", "function", "channel", "report"):
        name = f"golden.{part}.json"
        assert (tmp_path / name).read_bytes() == (ASSEMBLE / name).read_bytes()


FALSIFY = Path(__file__).parent / "data" / "falsify"


def test_falsify_dumps_match_golden_file(tmp_path):
    """Tallies and the six counterexample dumps of 200 trials at seed 1, which
    pin the verdicts, edge maps and profiles of ``check_branch_swap`` and the
    layout of ``counterexample_to_dict``."""
    out = tmp_path / "golden.json"
    assert main(["falsify", "--trials", "200", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (FALSIFY / "golden.json").read_bytes()


def test_falsify_across_chunks_matches_golden_file(tmp_path):
    """600 trials at seed 3 with up to 9 symbols and 5 edges, recorded when
    the harness checked one trial at a time: the run spans several kernel
    chunks, and it draws one-vertex sources whose target edge has 8 or more
    vertices, whose one row numpy would sum pairwise and the kernel adds
    left to right like every other row; the file keeps its bytes."""
    from lhckit import bipartite, named_rng

    assert bipartite._chunk_trials(5, 9) * 2 <= 600
    rng = named_rng(3, 0x51AB)
    one_vertex = 0
    for _ in range(600):
        phi, h, g, i, f, _ = bipartite.random_branch_swap_instance(rng, 5, 9)
        one_vertex += sum(source.vertices.size == 1 and max(map(len, target.edges)) >= 8
                          for source, target in ((h, g), (i, f)))
    assert one_vertex >= 1
    out = tmp_path / "golden_s9_e5.json"
    assert main(["falsify", "--trials", "600", "--seed", "3", "--max-symbols", "9",
                 "--max-edges", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == (FALSIFY / "golden_s9_e5.json").read_bytes()


BSC = Path(__file__).parent / "data" / "bsc"
GOLDEN_ID_SIM = ["id-sim", "--n", "200", "--gamma", "0.03", "--delta", "0.1",
                 "--eps", "0.3", "--M", "20", "--trials", "12000", "--seed", "7"]


@pytest.mark.parametrize("argv, name", [
    (["codebook", "--n", "200", "--delta", "0.1", "--M", "20",
      "--strategy", "random-greedy", "--seed", "7"], "golden.codebook.txt"),
    (GOLDEN_ID_SIM, "golden.id-sim.csv"),
])
def test_seeded_bsc_outputs_match_golden_files(tmp_path, argv, name):
    """The random-greedy candidate stream and the Monte Carlo flips at a seed:
    the codebook words, and the simulated rates of the code drawn from them."""
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (BSC / name).read_bytes()


def _relabel_vertices(d):
    d["vertices"] = [f"z{i}" for i in range(len(d["vertices"]))]


def _relabel_input(d):
    d["input"] = [f"z{i}" for i in range(len(d["input"]))]


def _relabel_output(d):
    d["output"] = [f"z{i}" for i in range(len(d["output"]))]


@pytest.mark.parametrize("flag, edit", [
    ("enc2", _relabel_input), ("hyper-g1", _relabel_vertices),
    ("hyper-g2", _relabel_vertices), ("hyper-f", _relabel_vertices),
    ("phi", _relabel_input), ("phi", _relabel_output),
])
def test_assemble_alphabet_mismatch_exits_one(tmp_path, capsys, flag, edit):
    """Each hop checks the alphabets it meets; a mismatch fails the run."""
    argv = ["assemble-id"]
    for name in ("enc1", "enc2", "phi", "hyper-h", "hyper-g1", "hyper-g2",
                 "hyper-f", "hyper-d"):
        path = ASSEMBLE / f"{name}.json"
        if name == flag:
            payload = json.loads(path.read_text())
            edit(payload)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
        argv += [f"--{name}", str(path)]
    capsys.readouterr()
    assert main([*argv, "--alpha", "0.1,0.2", "--beta", "0.1,0.15",
                 "--mu", "0.024,0.007", "--out-prefix", str(tmp_path / "id")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fail:") and err.count("\n") == 1
    assert not list(tmp_path.glob("id.*"))


def test_assemble_message_separator_collision_exits_two(tmp_path, capsys):
    """enc1's messages ("x", "x|x") have no pair alphabet: x|x|x is both
    x|(x|x) and (x|x)|x. Refused before the run, with no file written."""
    payload = json.loads((ASSEMBLE / "enc1.json").read_text())
    payload["input"] = ["x", "x|x"]
    (tmp_path / "enc1.json").write_text(json.dumps(payload))
    argv = ["assemble-id", "--enc1", str(tmp_path / "enc1.json")]
    for name in ("enc2", "phi", "hyper-h", "hyper-g1", "hyper-g2", "hyper-f", "hyper-d"):
        argv += [f"--{name}", str(ASSEMBLE / f"{name}.json")]
    capsys.readouterr()
    assert main([*argv, "--alpha", "0.1,0.2", "--beta", "0.1,0.15",
                 "--mu", "0.024,0.007", "--out-prefix", str(tmp_path / "id")]) == 2
    assert capsys.readouterr().err == ("error: input enc1: message pairs: "
                                       "alphabet labels must be pairwise distinct\n")
    assert not list(tmp_path.glob("id.*"))


def test_decompose_stage_mismatch_exits_one(tmp_path, capsys):
    payload = json.loads((CERTIFY / "decompose.gamma-channel.json").read_text())
    _relabel_input(payload)
    (tmp_path / "gamma.json").write_text(json.dumps(payload))
    argv = TestCertificateGoldens.argv("decompose", "phi", "source", "target",
                                       "edge-map")
    capsys.readouterr()
    assert main([*argv, "--gamma-channel", str(tmp_path / "gamma.json"),
                 "--lambda", "0.02", "--mu", "0.1", "--kappa", "0.25",
                 "--out-prefix", str(tmp_path / "split")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fail:") and err.count("\n") == 1


# a random-greedy word past the cap ended in numpy's "Maximum allowed
# dimension exceeded" traceback
def test_random_word_length_past_the_cap_exits_one(tmp_path, capsys):
    out = tmp_path / "book.txt"
    assert main(["codebook", "--n", str(10**300), "--delta", "0.5", "--M", "2",
                 "--strategy", "random-greedy", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"fail: random-greedy word: {10**300} entries exceed the cap 1048576\n"
    assert not out.exists()


def write_edited(src: Path, dst: Path, edit) -> str:
    """Write the JSON file src to dst after ``edit`` changed it in place."""
    payload = json.loads(src.read_text())
    edit(payload)
    dst.write_text(json.dumps(payload))
    return str(dst)


def _drop_last_row(d):
    d["rows"].pop()


def _drop_last_source_edge(d):
    d["source_edges"] -= 1
    d["map"].pop()


def _add_target_edge(d):
    d["target_edges"] += 1


def _rename_decoder_output(d):
    d["output"] = ["g" + label[1:] for label in d["output"]]


class TestRefusalsOnMutatedGoldens:
    """Each refusal reachable from a file or a flag, on a mutated copy of
    tests/data: its exit code, its one stderr line and no output file."""

    def run(self, argv, capsys, rc, err):
        capsys.readouterr()
        assert main(argv) == rc
        assert capsys.readouterr().err == err + "\n"

    @pytest.mark.parametrize("flag, edit, rc, err", [
        ("channel", _drop_last_row, 2, "error: input channel: rows shape (11, 8) "
                                       "does not match alphabets (12, 8)"),
        ("edge-map", _drop_last_source_edge, 1,
         "fail: edge map not total on source edges"),
        ("edge-map", _add_target_edge, 1,
         "fail: edge map target count differs from target hypergraph"),
    ])
    def test_verify(self, tmp_path, capsys, flag, edit, rc, err):
        flags = {name: str(CERTIFY / f"verify.{name}.json")
                 for name in ("channel", "source", "target", "edge-map")}
        flags[flag] = write_edited(Path(flags[flag]), tmp_path / f"{flag}.json", edit)
        out = tmp_path / "c.json"
        self.run(["verify", *(x for name, path in flags.items()
                              for x in (f"--{name}", path)),
                  "--lambda", "0.1", "--out", str(out)], capsys, rc, err)
        assert not out.exists()

    @pytest.mark.parametrize("part, edit, err", [
        ("function", lambda d: d["map"].pop(),
         "function table must be total on its domain"),
        ("decoder", _rename_decoder_output, "decoder output misses attained value 'f0'"),
    ])
    def test_derandomize(self, tmp_path, capsys, part, edit, err):
        golden = Path(__file__).parent / "data" / "derandomize"
        for path in golden.glob("code*.json"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        write_edited(golden / f"code.{part}.json", tmp_path / f"code.{part}.json", edit)
        self.run(["derandomize", "--code", str(tmp_path / "code.json"),
                  "--out-prefix", str(tmp_path / "d")], capsys, 2, f"error: input code: {err}")
        assert not list(tmp_path.glob("d.*"))

    def test_decompose_non_bijective_edge_map(self, tmp_path, capsys):
        argv = TestCertificateGoldens.argv("decompose", "phi", "gamma-channel", "source",
                                           "target")
        edge_map = write_edited(CERTIFY / "decompose.edge-map.json", tmp_path / "m.json",
                                lambda d: d.update(map=[0, 0]))
        self.run([*argv, "--edge-map", edge_map, "--lambda", "0.02", "--mu", "0.1",
                  "--kappa", "0.25", "--out-prefix", str(tmp_path / "split")],
                 capsys, 1, "fail: composite edge map must be bijective")
        assert not list(tmp_path.glob("split.*"))

    def test_assemble_hyper_h_not_the_equality_partition(self, tmp_path, capsys):
        argv = ["assemble-id"]
        for name in ("enc1", "enc2", "phi", "hyper-g1", "hyper-g2", "hyper-f", "hyper-d"):
            argv += [f"--{name}", str(ASSEMBLE / f"{name}.json")]
        hyper_h = write_edited(ASSEMBLE / "hyper-h.json", tmp_path / "h.json",
                               lambda d: d.update(edges=[[0, 1], [2, 3]]))
        self.run([*argv, "--hyper-h", hyper_h, "--alpha", "0.1,0.2", "--beta", "0.1,0.15",
                  "--mu", "0.024,0.007", "--out-prefix", str(tmp_path / "id")],
                 capsys, 1, "fail: hyper_h must be the equality-test partition")
        assert not list(tmp_path.glob("id.*"))

    def test_id_sim_codebook_with_a_repeated_word(self, tmp_path, capsys):
        book = tmp_path / "book.txt"
        write_id_sim_codebook(book)
        lines = book.read_text().splitlines()
        book.write_text("\n".join([*lines, lines[-1]]) + "\n")
        out = tmp_path / "sim.csv"
        self.run([*ID_SIM, "--codebook", str(book), "--out", str(out)], capsys, 2,
                 "error: input codebook: codewords must be distinct")
        assert not out.exists()

    def test_lexicode_past_the_scan_cap(self, tmp_path, capsys):
        out = tmp_path / "book.txt"
        self.run(["codebook", "--n", "25", "--delta", "0.1", "--M", "4", "--out", str(out)],
                 capsys, 1, "fail: lexicographic scan over 2**25 words is not "
                            "materializable; use the random-greedy strategy")
        assert not out.exists()


@pytest.mark.parametrize("config, note", [
    ({"task": "bogus"}, "unknown task 'bogus'"),
    # each ended in a traceback or a message about Python internals
    ({"task": []}, "cannot read config: task must be a string, got []"),
    ({"task": {}}, "cannot read config: task must be a string, got {}"),
    ([{"task": "rates"}], "cannot read config: config must be a JSON object, got an array"),
    ({"task": "rates", "inputs": "x"},
     "cannot read config: inputs must be a JSON object, got a string"),
    ({"task": "rates", "params": [0.03]},
     "cannot read config: params must be a JSON object, got an array"),
    ({"task": "rates", "outputs": 5},
     "cannot read config: outputs must be a JSON object, got a number"),
    # the JSON kind is named, never the Python type or the value
    ({"task": "rates", "params": True},
     "cannot read config: params must be a JSON object, got a boolean"),
    ({"task": "rates", "outputs": None},
     "cannot read config: outputs must be a JSON object, got null"),
])
def test_validate_config_of_the_wrong_shape_is_one_note(tmp_path, capsys, config, note):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == f"error: {note}\n"


# each printed "ok: configuration is well formed": the key was dropped unread
@pytest.mark.parametrize("config, notes", [
    ({"task": "verify", "inputs": {"chanel": "x.json"}},
     ["unknown input 'chanel' for verify"]),
    ({"task": "id-sim", "params": {"M": 4, "gamma": 0.03}},
     ["unknown param 'M' for id-sim"]),
    ({"task": "id-sim", "outputs": {"out": "nodir/x.csv", "csv": "x.csv"}},
     ["unknown output 'out' for id-sim"]),
    # an unknown key is not read: no range note for gamma, no file note for
    # the phi path, no directory note for the output
    ({"task": "codebook", "inputs": {"phi": "x.json"}, "params": {"gamma": -1},
      "outputs": {"csv": "nodir/x.csv"}},
     ["unknown input 'phi' for codebook", "unknown param 'gamma' for codebook",
      "unknown output 'csv' for codebook"]),
])
def test_validate_notes_each_key_the_task_does_not_have(tmp_path, capsys, config, notes):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"error: {n}" for n in notes]


SUBCOMMAND_ARGV = [
    ["verify", "--channel", "c", "--source", "s", "--target", "t", "--edge-map", "m",
     "--lambda", "0.1", "--out", "o"],
    ["decompose", "--phi", "p", "--gamma-channel", "g", "--source", "s", "--target", "t",
     "--edge-map", "m", "--lambda", "0.1", "--mu", "0.1", "--kappa", "0.4",
     "--out-prefix", "o"],
    ["derandomize", "--code", "c", "--out-prefix", "o"],
    ["assemble-id", "--enc1", "a", "--enc2", "b", "--phi", "p", "--hyper-h", "h",
     "--hyper-g1", "g", "--hyper-g2", "g", "--hyper-f", "f", "--hyper-d", "d",
     "--alpha", "0.1", "--beta", "0.1", "--mu", "0.1", "--out-prefix", "o"],
    ["id-sim", "--n", "16", "--gamma", "0.03", "--delta", "0.25", "--eps", "0.3",
     "--M", "4", "--trials", "5", "--seed", "1", "--mode", "paper-windows",
     "--codebook", "b", "--out", "o"],
    ["rates", "--gamma", "0.03", "--grid", "0:0.5:0.1", "--out", "o"],
    ["codebook", "--n", "8", "--delta", "0.25", "--M", "4", "--strategy",
     "random-greedy", "--seed", "1", "--out", "o"],
    ["falsify", "--trials", "5", "--seed", "1", "--max-edges", "3",
     "--max-symbols", "3", "--out", "o"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
def test_every_flag_is_a_known_config_key(argv):
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    assert not [n for n in cli.validate(config)[0] if "unknown" in n]


def test_every_subcommand_is_covered():
    assert [argv[0] for argv in SUBCOMMAND_ARGV] == list(cli._HANDLERS)


class TestParserOncePerProcess:
    def test_build_parser_is_fresh_and_main_reuses_one(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_cached_parser_carries_no_state(self, tmp_path, monkeypatch):
        """A run sequence through the one parser gives each run the config
        and exit code a fresh parser gives it."""
        write_id_sim_codebook(tmp_path / "book.txt")
        sequence = [
            [*ID_SIM, "--codebook", str(tmp_path / "book.txt"),
             "--out", str(tmp_path / "sim.csv")],
            [*ID_SIM, "--out", str(tmp_path / "sim.csv")],
            ["id-sim", "--codebook", str(tmp_path / "book.txt"), "--n", "x"],
            verify_inputs(tmp_path)[0],
            ["rates", "--gamma", "0.03", "--grid", "0:0.5:0.01",
             "--out", str(tmp_path / "rates.csv")],
        ]
        configs = []
        real_config_from_args = cli.config_from_args

        def recording(args):
            configs.append(real_config_from_args(args))
            return configs[-1]

        monkeypatch.setattr(cli, "config_from_args", recording)

        def run(parser) -> list:
            monkeypatch.setattr(cli, "_parser", parser)
            results = []
            for argv in sequence:
                configs.clear()
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                results.append((code, configs[:]))
            return results

        cached = run(cli._parser)
        assert [code for code, _ in cached] == [0, 0, 2, 0, 0]
        assert cached == run(cli.build_parser)
        assert cached[0][1][0].inputs == {"codebook": str(tmp_path / "book.txt")}
        assert cached[1][1][0].inputs == {}


# Each range is the library's own check: the run refuses these with exit 2
# and one note, and validate on the same params prints that note.
LIBRARY_RANGES = [
    (["codebook", "--n", "0", "--delta", "0.25", "--M", "4"],
     "error: block length n 0 is not an integer >= 1"),
    (["codebook", "--n", "-3", "--delta", "0.25", "--M", "4"],
     "error: block length n -3 is not an integer >= 1"),
    (["codebook", "--n", "8", "--delta", "0", "--M", "4"],
     "error: minimum distance ceil(n * delta) = 0 at n 8, delta 0.0 is outside [1, 8]"),
    # n * delta past the float range ended in an OverflowError traceback
    (["codebook", "--n", "1" + "0" * 400, "--delta", "0.5", "--M", "2"],
     f"error: minimum distance ceil(n * delta) at n {10**400}, delta 0.5 is not finite"),
    (["id-sim", "--n", "0", "--gamma", "0.03", "--delta", "0.25", "--eps", "0.3",
      "--M", "4", "--trials", "100"],
     "error: block length n 0 is not an integer >= 1"),
    (["id-sim", "--n", "16", "--gamma", "0.03", "--delta", "0.25", "--eps", "0.3",
      "--M", "1", "--trials", "100"],
     "error: distinct-message pairs need at least two codewords, got 1"),
    # a negative seed ended in numpy's "expected non-negative integer"
    # traceback; the lexicographic search ignores the seed and refuses it too
    (["codebook", "--n", "16", "--delta", "0.25", "--M", "4", "--strategy",
      "random-greedy", "--seed", "-1"], "error: seed -1 is not an integer >= 0"),
    (["codebook", "--n", "16", "--delta", "0.25", "--M", "4", "--seed", "-1"],
     "error: seed -1 is not an integer >= 0"),
    (["id-sim", "--n", "16", "--gamma", "0.03", "--delta", "0.25", "--eps", "0.3",
      "--M", "4", "--trials", "100", "--seed", "-1"],
     "error: seed -1 is not an integer >= 0"),
    (["falsify", "--trials", "3", "--seed", "-1"], "error: seed -1 is not an integer >= 0"),
    (["id-sim", "--n", "16", "--gamma", "0.03", "--delta", "0.25", "--eps", "0.3",
      "--M", "4", "--trials", "100", "--mode", "bogus"],
     "error: unknown decoder mode 'bogus'"),
    (["codebook", "--n", "16", "--delta", "0.25", "--M", "4", "--strategy", "bogus"],
     "error: unknown strategy 'bogus'"),
]


class TestRangesAreTheLibrarys:
    @pytest.mark.parametrize("argv, note", LIBRARY_RANGES,
                             ids=["codebook-n0", "codebook-n-3", "codebook-delta0",
                                  "codebook-n-huge", "id-sim-n0", "id-sim-M1",
                                  "codebook-random-seed-1", "codebook-seed-1",
                                  "id-sim-seed-1", "falsify-seed-1", "id-sim-mode",
                                  "codebook-strategy"])
    def test_run_and_validate_refuse_with_one_note(self, tmp_path, capsys, argv, note):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == note + "\n"
        assert not out.exists()
        params = cli.config_from_args(cli.build_parser().parse_args(argv)).params
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": argv[0], "params": params}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == note + "\n"

    def test_codebook_of_one_word(self, tmp_path):
        out = tmp_path / "book.txt"
        assert main(["codebook", "--n", "8", "--delta", "0.25", "--M", "1",
                     "--out", str(out)]) == 0
        assert jsonio.read_codebook(out).words == ("00000000",)

    @pytest.mark.parametrize("task, key", [("falsify", "trials"),
                                           ("falsify", "max_edges"),
                                           ("codebook", "m"), ("codebook", "n")])
    def test_count_that_is_not_an_integer_is_one_note(self, tmp_path, capsys, task,
                                                      key):
        params = {"falsify": {"trials": 5, "max_edges": 3, "max_symbols": 3},
                  "codebook": {"n": 8, "delta": 0.25, "m": 4}}[task]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": task, "params": {**params, key: 2.5}}))
        assert main(["validate", "--config", str(cfg)]) == 0
        what = "block length n" if key == "n" else key
        assert capsys.readouterr().out == f"error: {what} 2.5 is not an integer >= 1\n"

    @given(st.integers(-3, 10), st.floats(0.0, 1.0), st.integers(-2, 4))
    @settings(max_examples=200, deadline=None)
    def test_validate_refuses_what_gen_codebook_refuses(self, n, delta, m):
        from lhckit.bsc_id import gen_codebook
        from lhckit.errors import Infeasible, RangeError

        notes, _ = cli.validate(cli.ExperimentConfig(
            "codebook", params={"n": n, "delta": delta, "m": m,
                                "strategy": "lexicographic-greedy"}))
        refused = False
        try:
            gen_codebook(n, delta, m, strategy="lexicographic-greedy")
        except Infeasible:
            pass
        except RangeError:
            refused = True
        assert (notes != ["ok: configuration is well formed"]) == refused


def test_rates_parses_its_grid_once(tmp_path, monkeypatch):
    calls = []
    parse = cli._grid_points
    monkeypatch.setattr(cli, "_grid_points", lambda grid: calls.append(grid) or parse(grid))
    out = tmp_path / "rates.csv"
    assert main(["rates", "--gamma", "0.03", "--grid", "0:0.5:0.1", "--out", str(out)]) == 0
    assert calls == [(0.0, 0.5, 0.1)]
    assert len(out.read_text().splitlines()) == 7


# a lone epsilon was checked for its type only, by a list of the CLI's own
@pytest.mark.parametrize("value, note", [
    ("x", "error: epsilon 'x' is not a real number"),
    (-0.1, "error: epsilon -0.1 must be positive"),
])
def test_validate_checks_a_lone_epsilon(tmp_path, capsys, value, note):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "id-sim", "params": {"epsilon": value}}))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == note + "\n"
