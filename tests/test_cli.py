"""CLI subcommands: file contracts, exit codes, manifests, determinism."""

import base64
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import additive_model, write_attribution_rows
from tnshap import TensorNetworkModel, explain, explain_batch, load_model, save_model
from tnshap.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(*argv):
    return main([str(a) for a in argv])


def write_instances(path, rows):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    header = ",".join(f"f{i}" for i in range(1, rows.shape[1] + 1))
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def teacher_path(tmp_path):
    path = tmp_path / "teacher.json"
    assert run("gen", "--kind", "tree", "--n", 4, "--rank", 3, "--seed", 7,
               "--out", path) == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("gen", "--kind", "cp", "--n", 10, "--rank", 5, "--seed", 1,
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_model_loads_and_evaluates(self, teacher_path):
        model, lifts = load_model(teacher_path)
        value = model.forward(lifts.lift_instance([0.1, 0.2, 0.3, 0.4]))
        assert np.isfinite(value)

    def test_n50_teacher_loads_and_evaluates(self, tmp_path):
        path = tmp_path / "big.json"
        assert run("gen", "--kind", "cp", "--n", 50, "--rank", 16, "--seed", 2,
                   "--out", path) == 0
        model, lifts = load_model(path)
        assert model.n == 50
        assert np.isfinite(model.forward(lifts.lift_instance(np.zeros(50))))

    def test_manifest_emitted(self, teacher_path):
        manifest = json.loads((teacher_path.parent / "teacher.json.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(teacher_path)]

    def test_requires_out(self):
        assert run("gen", "--kind", "tree", "--n", 4, "--rank", 2) == 2

    def test_manifest_records_arguments_main_parsed(self, tmp_path, monkeypatch):
        """An in-process call records its own argument list, not the host
        program's ``sys.argv``."""
        monkeypatch.setattr(sys, "argv", ["host-program", "--host-flag"])
        out = str(tmp_path / "m.json")
        argv = ["gen", "--n", "4", "--out", out]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["argv"] == argv


class TestExplain:
    def test_csv_matches_library_values(self, tmp_path, teacher_path):
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[1.0, 1.0, 1.0, 1.0], [0.5, -0.5, 0.25, 0.75]])
        out = tmp_path / "attr.csv"
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", 1, "--out", out) == 0
        model, lifts = load_model(teacher_path)
        expected = explain(model, lifts, [1.0, 1.0, 1.0, 1.0], 1)
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,order,subset,value,flag"
        first = lines[1].split(",")
        assert first[:3] == ["0", "1", "1"]
        assert float(first[3]) == expected.values[0]

    def test_additive_model_zero_pairs(self, tmp_path):
        model, lifts = additive_model()
        model_path = tmp_path / "add.json"
        save_model(model_path, model, lifts)
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[1.0, 1.0]])
        out = tmp_path / "attr.csv"
        assert run("explain", "--model", model_path, "--instances", inst,
                   "--order", 2, "--out", out) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == "1;2"
        assert abs(float(row[3])) < 1e-12

    def test_manifest_forward_counts_formula(self, tmp_path, teacher_path):
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.1, 0.2, 0.3, 0.4]])
        out = tmp_path / "attr.csv"
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", 2, "--mode", "inclusion-exclusion", "--out", out) == 0
        manifest = json.loads((tmp_path / "attr.csv.manifest.json").read_text())
        subsets = 6  # C(4, 2)
        assert manifest["forward_counts"]["per_instance"] == subsets * 4 * 3  # 2^k (n-k+1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_manifest_counts_match_model_counter(self, tmp_path, teacher_path, monkeypatch,
                                                 order):
        """Manifest counts equal the model counter over a 24-row batch, which
        stacks instances at k = 1 and k = 2."""
        from tnshap import model_io

        loaded = []
        original = model_io.load_model

        def load_and_keep(path):
            pair = original(path)
            loaded.append(pair[0])
            return pair

        monkeypatch.setattr(model_io, "load_model", load_and_keep)
        inst = tmp_path / "inst.csv"
        write_instances(inst, np.random.default_rng(3).uniform(-1, 1, (24, 4)))
        out = tmp_path / "attr.csv"
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", order, "--out", out) == 0
        manifest = json.loads((tmp_path / "attr.csv.manifest.json").read_text())
        (model,) = loaded
        per_instance = 2 * 4 * 4 if order == 1 else 6 * 3
        assert manifest["forward_counts"]["attribution"] == model.forward_count == 24 * per_instance
        assert manifest["forward_counts"]["per_instance"] == per_instance

    def test_deterministic_output(self, tmp_path, teacher_path):
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.3, 0.1, -0.2, 0.9]])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("explain", "--model", teacher_path, "--instances", inst,
                       "--order", 1, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_multi_chunk_output_byte_identical(self, tmp_path, teacher_path, monkeypatch):
        from tnshap import attribute, chebyshev_nodes, tensor_net

        model, _ = load_model(teacher_path)
        per = tensor_net.probe_entries(model.topology, chebyshev_nodes(4), 1, tuple(range(4)))
        monkeypatch.setattr(attribute, "STACK_ENTRY_BUDGET", 2 * per)  # 2 instances per chunk
        inst = tmp_path / "inst.csv"
        write_instances(inst, np.random.default_rng(5).uniform(-1, 1, (7, 4)))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("explain", "--model", teacher_path, "--instances", inst,
                       "--order", 1, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1 + 7 * 4

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, teacher_path, capsys, order, bad):
        inst = tmp_path / "inst.csv"
        inst.write_text(f"f1,f2,f3,f4\n0.0,0.0,0.0,0.0\n0.1,0.2,{bad},0.3\n")
        out = tmp_path / "x.csv"
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", order, "--out", out) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "f3" in err and str(inst) in err
        assert not out.exists()

    @pytest.mark.parametrize("body,message", [
        ("0.0,0.0,0.0,0.0\n\n0.1, nan ,0.2,0.3\n", "line 4: non-finite value 'nan' in column f2"),
        ("0.0,0.0,0.0,inf\n0.1,0.2\n", "line 2: non-finite value 'inf' in column f4"),
        ("0.0,0.0,0.0,0.0\n0.1,0.2\n0.1,nan,0.2,0.3\n", "line 3: expected 4 values, got 2"),
        ("0.0,0.0,0.0,-inf\n0.1,oops,0.2,0.3\n", "line 2: non-finite value '-inf' in column f4"),
        ("0.0,0.0,0.0,0.0\nnan,oops,0.2,0.3\n", "line 3: could not convert string to float: 'oops'"),
    ], ids=["blank-line", "before-short-row", "short-row-first", "before-bad-value", "same-row"])
    def test_reader_names_the_first_bad_line(self, tmp_path, body, message):
        """The file's finiteness is checked in one pass after parsing, and
        the first bad line is still the one named, with its text as written:
        a non-finite value before a malformed line is reported first."""
        from tnshap import cli

        inst = tmp_path / "inst.csv"
        inst.write_text("f1,f2,f3,f4\n" + body)
        with pytest.raises(cli.InputError) as info:
            cli._read_instances_csv(inst, 4)
        assert str(info.value) == f"{inst} {message}"

    def test_reader_rejects_a_file_without_rows(self, tmp_path):
        from tnshap import cli

        inst = tmp_path / "inst.csv"
        inst.write_text("f1,f2,f3,f4\n\n")
        with pytest.raises(cli.InputError, match="no instance rows"):
            cli._read_instances_csv(inst, 4)

    def test_manifest_numerical_health_and_debug_summaries(self, tmp_path, teacher_path,
                                                             monkeypatch, capsys):
        from tnshap.cli import _setup_logging

        monkeypatch.setenv("TNSHAP_LOG", "debug")
        inst = tmp_path / "inst.csv"
        rows = np.random.default_rng(4).uniform(-1, 1, (3, 4))
        write_instances(inst, rows)
        out = tmp_path / "attr.csv"
        try:
            assert run("explain", "--model", teacher_path, "--instances", inst,
                       "--order", 1, "--out", out) == 0
        finally:
            monkeypatch.delenv("TNSHAP_LOG")
            _setup_logging()
        model, lifts = load_model(teacher_path)
        expected = explain_batch(model, lifts, rows, 1)
        health = json.loads((tmp_path / "attr.csv.manifest.json").read_text())["numerical_health"]
        assert health == {"nonfinite_values": 0}
        assert all(np.all(np.isfinite(a.values)) for a in expected)
        summaries = [line for line in capsys.readouterr().err.splitlines()
                     if "non-finite values" in line]
        assert len(summaries) == 3
        for idx, (line, aset) in enumerate(zip(summaries, expected)):
            assert line.endswith(f"instance {idx}: {aset.forwards_used} forwards, 0 non-finite values")

    def test_order_out_of_range(self, tmp_path, teacher_path):
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.0, 0.0, 0.0, 0.0]])
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", 5, "--out", tmp_path / "x.csv") == 2

    def test_parse_error_names_line(self, tmp_path, teacher_path, capsys):
        inst = tmp_path / "inst.csv"
        inst.write_text("f1,f2,f3,f4\n0.0,0.0,0.0,0.0\n0.1,oops,0.2,0.3\n")
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", 1, "--out", tmp_path / "x.csv") == 2
        assert "line 3" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, tmp_path, teacher_path):
        """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark;
        it gives the same attribution file as the plain copy."""
        plain = tmp_path / "plain.csv"
        write_instances(plain, [[1.0, 1.0, 1.0, 1.0], [0.5, -0.5, 0.25, 0.75]])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for inst in (plain, marked):
            assert run("explain", "--model", teacher_path, "--instances", inst,
                       "--order", 1, "--out", tmp_path / f"{inst.stem}.out.csv") == 0
        assert ((tmp_path / "marked.out.csv").read_bytes()
                == (tmp_path / "plain.out.csv").read_bytes())

    def test_blank_rows_skipped(self, tmp_path, teacher_path):
        """Blank lines between and after the rows are not instances: the
        attribution file is the one of the file without them."""
        plain = tmp_path / "plain.csv"
        write_instances(plain, [[1.0, 1.0, 1.0, 1.0], [0.5, -0.5, 0.25, 0.75]])
        header, *rows = plain.read_text().splitlines()
        blank = tmp_path / "blank.csv"
        blank.write_text(header + "\n\n" + "\n\n".join(rows) + "\n\n")
        for inst in (plain, blank):
            assert run("explain", "--model", teacher_path, "--instances", inst,
                       "--order", 1, "--out", tmp_path / f"{inst.stem}.out.csv") == 0
        assert ((tmp_path / "blank.out.csv").read_bytes()
                == (tmp_path / "plain.out.csv").read_bytes())

    def test_bad_header_rejected(self, tmp_path, teacher_path, capsys):
        inst = tmp_path / "inst.csv"
        inst.write_text("a,b,c,d\n0.0,0.0,0.0,0.0\n")
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", 1, "--out", tmp_path / "x.csv") == 2
        assert "header" in capsys.readouterr().err

    def test_extra_core_rejected(self, tmp_path, teacher_path, capsys):
        obj = json.loads(teacher_path.read_text())
        obj["cores"].append(obj["cores"][-1])
        model = tmp_path / "extra.json"
        model.write_text(json.dumps(obj))
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.1, 0.2, 0.3, 0.4]])
        out = tmp_path / "x.csv"
        assert run("explain", "--model", model, "--instances", inst,
                   "--order", 1, "--out", out) == 2
        assert f"cores, got {len(obj['cores'])}" in capsys.readouterr().err
        assert not out.exists()


MAXRSS_CHILD = """
import resource, sys
from tnshap.cli import main
rc = main(sys.argv[1:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


class TestExplainStreaming:
    """``explain`` attributes and writes one block of instances at a time,
    into a temporary file that replaces ``--out`` only on success."""

    def test_instance_reader_peak_under_twice_the_array(self, tmp_path):
        """The reader holds parsed values at 8 bytes each, not as lists of
        Python floats: a 4000 x 40 file peaks under twice the array's bytes."""
        import tracemalloc

        from tnshap import cli

        xs = np.random.default_rng(0).uniform(-1, 1, (4000, 40))
        inst = tmp_path / "inst.csv"
        write_instances(inst, xs)
        tracemalloc.start()
        try:
            got = cli._read_instances_csv(inst, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, xs)
        assert got.dtype == np.float64 and got.flags.writeable
        assert peak < 2 * got.nbytes

    @pytest.mark.parametrize("kind,n", [("cp", 6), ("tree", 5)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_blocks_byte_identical_to_row_writer(self, tmp_path, monkeypatch, kind, n, order,
                                                  rows):
        """Two-row blocks give the bytes of one block and of the row-at-a-time
        reference writer, on a train and on a tree with pad leaves."""
        from tnshap import cli

        model_path = tmp_path / "model.json"
        assert run("gen", "--kind", kind, "--n", n, "--rank", 3, "--seed", 2,
                   "--out", model_path) == 0
        xs = np.random.default_rng(order).uniform(-1, 1, (rows, n))
        inst = tmp_path / "inst.csv"
        write_instances(inst, xs)
        one, blocks = tmp_path / "one.csv", tmp_path / "blocks.csv"
        assert run("explain", "--model", model_path, "--instances", inst,
                   "--order", order, "--out", one) == 0
        monkeypatch.setattr(cli, "EXPLAIN_BLOCK_VALUES", 2 * math.comb(n, order))
        assert run("explain", "--model", model_path, "--instances", inst,
                   "--order", order, "--out", blocks) == 0
        manifest = json.loads((tmp_path / "blocks.csv.manifest.json").read_text())
        assert manifest["blocks"] == -(-rows // 2)
        model, lifts = load_model(model_path)
        reference = io.StringIO()
        write_attribution_rows(reference, [
            (iid, order, subset, value, "")
            for iid, aset in enumerate(explain_batch(model, lifts, xs, order))
            for subset, value in aset.entries()])
        assert one.read_text() == blocks.read_text() == reference.getvalue()

    def test_failed_block_keeps_existing_out(self, tmp_path, teacher_path, monkeypatch, capsys):
        from tnshap import attribute, cli

        monkeypatch.setattr(cli, "EXPLAIN_BLOCK_VALUES", 8)  # 2 rows per block at n = 4
        batch = attribute.explain_batch
        calls = []

        def fail_second_block(model, lifts, instances, k, **kw):
            calls.append(len(instances))
            if len(calls) == 2:
                return [ValueError("injected block failure")] * len(instances)
            return batch(model, lifts, instances, k, **kw)

        monkeypatch.setattr(attribute, "explain_batch", fail_second_block)
        inst = tmp_path / "inst.csv"
        write_instances(inst, np.random.default_rng(6).uniform(-1, 1, (5, 4)))
        out = tmp_path / "attr.csv"
        out.write_bytes(b"previous run\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        assert run("explain", "--model", teacher_path, "--instances", inst,
                   "--order", 1, "--out", out) == 2
        assert calls == [2, 2]
        assert "instance 2: injected block failure" in capsys.readouterr().err
        assert out.read_bytes() == b"previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_manifest_blocks_phases_and_block_debug_lines(self, tmp_path, teacher_path,
                                                          monkeypatch, capsys):
        from tnshap import cli
        from tnshap.cli import _setup_logging

        monkeypatch.setattr(cli, "EXPLAIN_BLOCK_VALUES", 12)  # 3 rows per block at n = 4
        monkeypatch.setenv("TNSHAP_LOG", "debug")
        inst = tmp_path / "inst.csv"
        write_instances(inst, np.random.default_rng(8).uniform(-1, 1, (7, 4)))
        out = tmp_path / "attr.csv"
        try:
            assert run("explain", "--model", teacher_path, "--instances", inst,
                       "--order", 1, "--out", out) == 0
        finally:
            monkeypatch.delenv("TNSHAP_LOG")
            _setup_logging()
        manifest = json.loads((tmp_path / "attr.csv.manifest.json").read_text())
        assert manifest["blocks"] == 3
        assert set(manifest["phase_wall_times_s"]) == {"load", "attribution", "emit"}
        assert manifest["forward_counts"] == {"attribution": 7 * 32, "per_instance": 32}
        err = capsys.readouterr().err.splitlines()
        block_lines = [line.split("tnshap.cli: ")[1] for line in err if "block" in line]
        assert [line.rsplit(",", 1)[0] for line in block_lines] == [
            "block 0: 3 rows, 96 forwards", "block 1: 3 rows, 96 forwards",
            "block 2: 1 rows, 32 forwards"]
        assert all(line.endswith(" ms") for line in block_lines)
        assert sum("non-finite values" in line for line in err) == 7

    def test_peak_rss_flat_in_instance_count(self, tmp_path):
        """k = 2 on a btree with n = 40 and bond 8: 4000 rows peak within
        16 MB of 250 rows. The input rows, held for validation before any
        attribution, take about 6 MB of that at 4000 rows; keeping every
        instance's results, as the unstreamed command did, took about
        360 MB more."""
        model = tmp_path / "model.json"
        assert run("gen", "--kind", "tree", "--n", 40, "--rank", 8, "--seed", 1,
                   "--out", model) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        peaks = {}
        for rows in (250, 4000):
            inst = tmp_path / f"inst{rows}.csv"
            write_instances(inst, np.random.default_rng(rows).uniform(-1, 1, (rows, 40)))
            proc = subprocess.run(
                [sys.executable, "-c", MAXRSS_CHILD, "explain", "--model", str(model),
                 "--instances", str(inst), "--order", "2", "--out", str(tmp_path / "out.csv")],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr[-2000:]
            rc, peak = proc.stdout.split()
            assert rc == "0"
            peaks[rows] = float(peak)
        assert peaks[4000] <= peaks[250] + 16.0, peaks


class TestVerify:
    def test_generated_teacher_passes(self, tmp_path, teacher_path):
        inst = tmp_path / "inst.csv"
        write_instances(inst, np.random.default_rng(3).uniform(-1, 1, (3, 4)))
        out = tmp_path / "verify.json"
        assert run("verify", "--model", teacher_path, "--instances", inst,
                   "--max-order", 3, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert set(report["orders"]) == {"1", "2", "3"}

    def test_small_perturbation_keeps_exactness(self, tmp_path, teacher_path):
        """A perturbed core is still a multilinear network, so interpolation
        stays exact on it and verify keeps passing."""
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.5, 0.5, 0.5, 0.5]])
        model, lifts = load_model(teacher_path)
        cores = [core.copy() for core in model.cores]
        cores[0].flat[0] += 0.25
        bad = tmp_path / "perturbed.json"
        save_model(bad, TensorNetworkModel(model.topology, cores), lifts)
        assert run("verify", "--model", bad, "--instances", inst,
                   "--max-order", 2, "--out", tmp_path / "v.json") == 0

    def test_corrupted_core_magnitude_fails_with_per_order_diffs(self, tmp_path):
        """Self-test of the verifier's failure path: blowing one core up to
        1e12 drowns the interpolation in conditioning error, so the reported
        per-order diffs breach the tolerance and the exit code is 1."""
        path = tmp_path / "teacher12.json"
        assert run("gen", "--kind", "tree", "--n", 12, "--rank", 4, "--seed", 0,
                   "--out", path) == 0
        model, lifts = load_model(path)
        cores = list(model.cores)
        cores[0] = cores[0] * 1e12
        bad = tmp_path / "corrupted.json"
        save_model(bad, TensorNetworkModel(model.topology, cores), lifts)
        inst = tmp_path / "inst.csv"
        write_instances(inst, [np.random.default_rng(1).uniform(-1, 1, 12)])
        out = tmp_path / "v.json"
        assert run("verify", "--model", bad, "--instances", inst,
                   "--max-order", 2, "--out", out) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert any(not o["pass"] for o in report["orders"].values())
        assert all("max_abs_diff" in o for o in report["orders"].values())

    def test_single_feature_model_passes_with_zero_diff(self, tmp_path):
        path = tmp_path / "m1.json"
        assert run("gen", "--kind", "cp", "--n", 1, "--rank", 1, "--seed", 0,
                   "--out", path) == 0
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.7]])
        out = tmp_path / "v.json"
        assert run("verify", "--model", path, "--instances", inst,
                   "--max-order", 1, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["orders"]["1"]["max_abs_diff"] <= 1e-12

    def test_report_to_stdout_without_out(self, tmp_path, teacher_path, capsys):
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.1, 0.1, 0.1, 0.1]])
        assert run("verify", "--model", teacher_path, "--instances", inst,
                   "--max-order", 1, "--manifest", tmp_path / "m.json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    def test_oversized_model_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        assert run("gen", "--kind", "cp", "--n", 17, "--rank", 2, "--seed", 0,
                   "--out", path) == 0
        inst = tmp_path / "inst.csv"
        write_instances(inst, [np.zeros(17)])
        assert run("verify", "--model", path, "--instances", inst) == 2
        assert "n <= 16" in capsys.readouterr().err


class TestBench:
    def test_counts_and_stats(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run("bench", "--dims", "10,20", "--rank", 16, "--repeats", 3,
                   "--seed", 0, "--out", out) == 0
        payload = json.loads(out.read_text())
        rows = payload["rows"]
        assert [r["forwards_per_instance"] for r in rows] == [200, 800]
        assert [r["cut_rank"] for r in rows] == [16, 16]
        assert [r["calls_per_repeat"] for r in rows] == [26, 13]  # ceil(256 / n)
        assert all(len(r["times_ms"]) == 3 for r in rows)
        assert all(r["std_ms"] >= 0 for r in rows)

    def test_rejects_unsorted_dims(self, tmp_path, capsys):
        assert run("bench", "--dims", "20,10", "--out", tmp_path / "b.json") == 2
        assert "ascending" in capsys.readouterr().err


class TestFit:
    def test_manifest_numerical_health_phases_and_sweep_log(self, tmp_path, teacher_path,
                                                            monkeypatch, capsys):
        from tnshap.cli import _setup_logging

        monkeypatch.setenv("TNSHAP_LOG", "debug")
        out = tmp_path / "student.json"
        try:
            assert run("fit", "--teacher", teacher_path, "--bond-dim", 2,
                       "--neighborhood", 64, "--max-sweeps", 3, "--tol", "-1",
                       "--out", out) == 0
        finally:
            monkeypatch.delenv("TNSHAP_LOG")
            _setup_logging()
        manifest = json.loads((tmp_path / "student.json.manifest.json").read_text())
        health = manifest["numerical_health"]
        assert set(health) == {"fast_solves", "lstsq_fallbacks", "rank_deficient_solves",
                               "tikhonov_fallbacks", "max_gram_cond"}
        # n=4 btree: 7 cores, 3 sweeps
        assert health["fast_solves"] + health["lstsq_fallbacks"] == 21
        assert health["max_gram_cond"] >= 1.0
        phases = manifest["phase_wall_times_s"]
        assert {"load", "fit", "build", "als", "emit"} <= set(phases)
        assert phases["build"] + phases["als"] == pytest.approx(phases["fit"])
        report = json.loads((tmp_path / "student.json.report.json").read_text())
        assert "fast_solves" not in report and report["version"] == 1
        lines = [line for line in capsys.readouterr().err.splitlines() if "train MSE" in line]
        assert len(lines) == 3
        for k, (line, mse) in enumerate(zip(lines, report["sweep_train_mse"]), start=1):
            assert line.startswith(f"DEBUG tnshap.fit: sweep {k}: train MSE {mse:.6e}, R^2 ")
            assert "lstsq fallbacks" in line and line.endswith(" s")

    def test_center_recorded_in_manifest(self, tmp_path, teacher_path):
        """A valid ``--center`` is the fit's center: the manifest records
        it, and the student differs from the one fitted at the origin."""
        students = []
        for center in ("0.5,-0.25,0,1", None):
            out = tmp_path / f"student{len(students)}.json"
            flags = [] if center is None else ["--center", center]
            assert run("fit", "--teacher", teacher_path, "--bond-dim", 2, "--neighborhood", 16,
                       "--max-sweeps", 2, "--out", out, *flags) == 0
            students.append(out.read_bytes())
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            assert manifest["config"]["center"] == ([0.5, -0.25, 0.0, 1.0] if center
                                                    else [0.0] * 4)
        assert students[0] != students[1]

    @pytest.mark.parametrize("command,center", [
        ("fit", "nan,0,0,0"),
        ("fit", "0,inf,0,0"),
        ("fit", "a,b,c,d"),
        ("fit", "0,0,0"),
        ("rank-sweep", "a,b,c,d"),
        ("rank-sweep", "nan,0,0,0"),
        ("rank-sweep", "0,0,0,0,0"),
    ])
    def test_bad_center_is_input_error(self, tmp_path, teacher_path, capsys, command, center):
        out = tmp_path / "out.json"
        assert run(command, "--teacher", teacher_path, "--center", center,
                   "--max-sweeps", 2, "--neighborhood", 16, "--out", out) == 2
        assert "--center" in capsys.readouterr().err
        assert not out.exists()


class TestHashSeedDeterminism:
    def test_outputs_identical_across_hash_seeds(self, tmp_path):
        """``gen``, ``explain --order 1``, ``explain --order 2`` and ``fit``
        write the same bytes in two processes with different string-hash
        seeds (the fit report up to its wall time), so no output depends on
        the iteration order of hashed sets or keys."""
        child = """
import sys
from tnshap.cli import main
out, inst = sys.argv[1:]
teacher = out + "/teacher.json"
for argv in (
    ["gen", "--kind", "tree", "--n", "6", "--rank", "3", "--seed", "7", "--out", teacher],
    ["explain", "--model", teacher, "--instances", inst, "--order", "1", "--out", out + "/k1.csv"],
    ["explain", "--model", teacher, "--instances", inst, "--order", "2", "--out", out + "/k2.csv"],
    ["fit", "--teacher", teacher, "--bond-dim", "2", "--neighborhood", "96",
     "--max-sweeps", "4", "--seed", "4", "--out", out + "/student.json"],
):
    assert main(argv) == 0, argv
"""
        inst = tmp_path / "inst.csv"
        write_instances(inst, np.random.default_rng(5).uniform(-1, 1, (3, 6)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        outs = []
        for seed in ("0", "1"):
            out = tmp_path / f"hash{seed}"
            out.mkdir()
            proc = subprocess.run([sys.executable, "-c", child, str(out), str(inst)],
                                  env=dict(env, PYTHONHASHSEED=seed),
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            fit_report = json.loads((out / "student.json.report.json").read_text())
            del fit_report["wall_time_s"]
            files = ("teacher.json", "k1.csv", "k2.csv", "student.json")
            outs.append({name: (out / name).read_bytes() for name in files}
                        | {"fit report": fit_report})
        bad = [name for name in outs[0] if outs[0][name] != outs[1][name]]
        assert not bad, f"differ across PYTHONHASHSEED 0 and 1: {bad}"


class TestRankSweep:
    def test_single_cell_runs(self, tmp_path, teacher_path):
        out = tmp_path / "sweep.json"
        assert run("rank-sweep", "--teacher", teacher_path, "--ranks", "3",
                   "--seeds", "1", "--eval-points", 4, "--max-sweeps", 10,
                   "--neighborhood", 128, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload["ranks"] == [3]
        cell = payload["cells"][0]
        assert cell["error"] is None
        assert cell["report"]["train_r2"] > 0.99
        agg = payload["aggregate"][0]
        assert agg["rank"] == 3
        assert "train_r2_mean" in agg


class TestProductGame:
    def test_explain_product_model_gives_half_each(self, tmp_path):
        """The two-feature product game splits its value evenly."""
        from conftest import product_model

        model, lifts = product_model()
        model_path = tmp_path / "prod.json"
        save_model(model_path, model, lifts)
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[1.0, 1.0]])
        out = tmp_path / "attr.csv"
        assert run("explain", "--model", model_path, "--instances", inst,
                   "--order", 1, "--out", out) == 0
        rows = out.read_text().splitlines()[1:]
        values = [float(r.split(",")[3]) for r in rows]
        np.testing.assert_allclose(values, [0.5, 0.5], atol=1e-12)


class TestLogging:
    def test_log_level_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TNSHAP_LOG", "info")
        out = tmp_path / "m.json"
        assert run("gen", "--kind", "cp", "--n", 3, "--rank", 2, "--seed", 0,
                   "--out", out) == 0

    def test_invalid_log_level_warns_and_continues(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TNSHAP_LOG", "shouty")
        out = tmp_path / "m.json"
        assert run("gen", "--kind", "cp", "--n", 3, "--rank", 2, "--seed", 0,
                   "--out", out) == 0
        assert "TNSHAP_LOG" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": "cp", "n": 3, "rank": 2, "seed": 5}))
        out = tmp_path / "m.json"
        assert run("gen", "--config", config, "--n", 4, "--out", out) == 0
        model, _ = load_model(out)
        assert model.n == 4  # flag wins
        assert model.topology.kind == "tt"  # config supplies kind=cp

    def test_malformed_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run("gen", "--config", config, "--out", tmp_path / "m.json") == 2
        assert "config" in capsys.readouterr().err


FIT_DEFAULTS = {"topology": "btree", "bond_dim": 8, "neighborhood": 200, "sigma_frac": 0.1,
                "max_sweeps": 30, "tol": 1e-9, "seed": 0}


class TestManifestConfig:
    """Each command's manifest records every option it resolved, with the
    defaults of the flags left unset. ``bench`` sets its costly ``--dims``
    and ``--repeats``; every other command gets only its required flags."""

    @pytest.mark.parametrize("command", ["gen", "fit", "explain", "verify", "bench",
                                         "rank-sweep"])
    def test_defaults(self, tmp_path, teacher_path, monkeypatch, command):
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.1, 0.2, 0.3, 0.4]])
        teacher, model = str(teacher_path), ["--model", teacher_path, "--instances", inst]
        out = ["--out", tmp_path / "out"]
        argv, expected = {
            "gen": (out, {"kind": "tree", "n": 8, "rank": 3, "seed": 0}),
            "fit": (["--teacher", teacher, *out], {
                "teacher": teacher, "center": [0.0] * 4, **FIT_DEFAULTS, "report": None,
                "fit_config": {"version": 1, **FIT_DEFAULTS}}),
            "explain": ([*model, *out], {"model": teacher, "instances": str(inst), "order": 1,
                                         "mode": "auto", "seed": 0}),
            "verify": (model, {"model": teacher, "instances": str(inst), "max_order": 3,
                               "seed": 0}),
            "bench": (["--dims", "4,8", "--repeats", 1, *out],
                      {"dims": "4,8", "rank": 16, "repeats": 1, "seed": 0}),
            "rank-sweep": (["--teacher", teacher, *out], {
                "teacher": teacher, "ranks": "2,4,8", "seeds": "0", "eval_points": 12,
                "max_order": 3, "center": None, "neighborhood": 2048, "sigma_frac": 1.0,
                "max_sweeps": 40, "tol": 1e-12, "topology": "btree", "seed": 0}),
        }[command]
        monkeypatch.chdir(tmp_path)  # verify without --out writes tnshap-manifest.json here
        assert run(command, *argv) == 0
        name = "tnshap-manifest.json" if command == "verify" else "out.manifest.json"
        manifest = json.loads((tmp_path / name).read_text())
        assert manifest["command"] == command
        assert manifest["config"] == expected

    def test_config_file_supplies_model_and_instances(self, tmp_path, teacher_path):
        inst = tmp_path / "inst.csv"
        write_instances(inst, [[0.1, 0.2, 0.3, 0.4]])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": str(teacher_path), "instances": str(inst),
                                      "order": 2}))
        out = tmp_path / "attr.csv"
        assert run("explain", "--config", config, "--out", out) == 0
        manifest = json.loads((tmp_path / "attr.csv.manifest.json").read_text())
        assert manifest["config"] == {"model": str(teacher_path), "instances": str(inst),
                                      "order": 2, "mode": "auto", "seed": 0}
        assert manifest["inputs"] == [str(teacher_path), str(inst)]
        assert len(out.read_text().splitlines()) == 1 + 6  # C(4, 2) pairs

    def test_config_number_for_list_option(self, tmp_path):
        """A JSON number runs as the one-entry list it spells: ``{"dims": 8}``
        is ``--dims 8``, and the manifest keeps the value as the file gave it."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dims": 8, "repeats": 1}))
        out = tmp_path / "bench.json"
        assert run("bench", "--config", config, "--out", out) == 0
        assert [r["n"] for r in json.loads(out.read_text())["rows"]] == [8]
        manifest = json.loads((tmp_path / "bench.json.manifest.json").read_text())
        assert manifest["config"] == {"dims": 8, "rank": 16, "repeats": 1, "seed": 0}


def _edit_core(obj, idx, **fields):
    """The model JSON object with core ``idx``'s ``fields`` replaced."""
    cores = list(obj["cores"])
    cores[idx] = {**cores[idx], **fields}
    return {**obj, "cores": cores}


def _set_entry(obj, idx, pos, value, version=2):
    """The version 2 model JSON object with entry ``pos`` of core ``idx`` set
    to ``value``, written as format ``version``; a version 1 entry may be any
    JSON value."""
    cores = []
    for i, core in enumerate(obj["cores"]):
        data = np.frombuffer(base64.b64decode(core["data"]), dtype="<f8").copy()
        if version == 1:
            data = data.tolist()
        if i == idx:
            data[pos] = value
        text = data if version == 1 else base64.b64encode(data.tobytes()).decode()
        cores.append({**core, "data": text})
    return {**obj, "version": version, "cores": cores}


class TestBadInput:
    """Out-of-range flags, mistyped config-file values and missing required
    options exit 2 before any work, whether the values come from the command
    line or a config file."""

    @pytest.mark.parametrize("command,flags,config,needle", [
        pytest.param("gen", ["--n", 0], None, "--n must be >= 1",
                     id="gen-n-0"),
        pytest.param("gen", ["--seed", -1], None, "--seed must be >= 0",
                     id="gen-seed-neg"),
        pytest.param("gen", [], {"n": "x"}, "bad n",
                     id="gen-config-n-str"),
        pytest.param("bench", ["--rank", 0], None, "--rank must be >= 1",
                     id="bench-rank-0"),
        pytest.param("bench", ["--dims", "0,4"], None, "dims must be >= 1",
                     id="bench-dims-0"),
        pytest.param("explain", [], {"order": "two"}, "bad order",
                     id="explain-config-order-str"),
        pytest.param("fit", ["--sigma-frac", "nan"], None, "--sigma-frac must be a finite",
                     id="fit-sigma-frac-nan"),
        pytest.param("fit", ["--sigma-frac", "inf"], None, "--sigma-frac must be a finite",
                     id="fit-sigma-frac-inf"),
        pytest.param("fit", ["--tol", "nan"], None, "--tol must be a number",
                     id="fit-tol-nan"),
        pytest.param("fit", [], {"sigma_frac": "nan"}, "--sigma-frac must be a finite",
                     id="fit-config-sigma-frac-nan"),
        pytest.param("rank-sweep", ["--sigma-frac", "nan"], None,
                     "--sigma-frac must be a finite", id="rank-sweep-sigma-frac-nan"),
        pytest.param("rank-sweep", ["--tol", "nan"], None, "--tol must be a number",
                     id="rank-sweep-tol-nan"),
        pytest.param("rank-sweep", ["--eval-points", -1], None, "--eval-points must be >= 1",
                     id="rank-sweep-eval-points-neg"),
        pytest.param("rank-sweep", ["--eval-points", 0], None, "--eval-points must be >= 1",
                     id="rank-sweep-eval-points-0"),
        pytest.param("rank-sweep", ["--max-order", 9], None, "max order 9 out of range 1..6",
                     id="rank-sweep-max-order-9"),
        pytest.param("explain", ["--order", 0], None, "--order must be >= 1",
                     id="explain-order-0"),
        pytest.param("verify", [], {"max_order": 0}, "--max-order must be >= 1",
                     id="verify-config-max-order-0"),
        pytest.param("rank-sweep", ["--max-order", 0], None, "--max-order must be >= 1",
                     id="rank-sweep-max-order-0"),
        pytest.param("fit", [], {"bond_dim": 0}, "--bond-dim must be >= 1",
                     id="fit-config-bond-dim-0"),
        pytest.param("fit", ["--max-sweeps", 0], None, "--max-sweeps must be >= 1",
                     id="fit-max-sweeps-0"),
        pytest.param("fit", [], {"neighborhood": -1}, "--neighborhood must be >= 0",
                     id="fit-config-neighborhood-neg"),
        pytest.param("bench", ["--repeats", 0], None, "--repeats must be >= 1",
                     id="bench-repeats-0"),
        pytest.param("gen", [], {"rank": 0}, "--rank must be >= 1",
                     id="gen-config-rank-0"),
        # a flag given as None is left off the command line
        pytest.param("explain", ["--model", None], None, "explain requires --model",
                     id="explain-no-model"),
        pytest.param("explain", ["--instances", None], None, "explain requires --instances",
                     id="explain-no-instances"),
        pytest.param("fit", ["--teacher", None], None, "fit requires --teacher",
                     id="fit-no-teacher"),
        pytest.param("verify", ["--model", None], None, "verify requires --model",
                     id="verify-no-model"),
        pytest.param("bench", ["--out", None], None, "bench requires --out",
                     id="bench-no-out"),
        pytest.param("rank-sweep", ["--out", None], None, "rank-sweep requires --out",
                     id="rank-sweep-no-out"),
        pytest.param("gen", ["--out", None], {"out": "out"}, "gen requires --out",
                     id="gen-config-out-ignored"),
        # a path option takes only a JSON string from a config file
        pytest.param("explain", ["--model", None], {"model": 0}, "model must be a string, got 0",
                     id="explain-config-model-int"),
        pytest.param("explain", ["--instances", None], {"instances": ["inst.csv"]},
                     "instances must be a string, got ['inst.csv']",
                     id="explain-config-instances-list"),
        pytest.param("fit", ["--teacher", None], {"teacher": 1},
                     "teacher must be a string, got 1", id="fit-config-teacher-int"),
        pytest.param("fit", [], {"report": 2.5}, "report must be a string, got 2.5",
                     id="fit-config-report-float"),
        pytest.param("verify", ["--model", None], {"model": True},
                     "model must be a string, got True", id="verify-config-model-bool"),
        pytest.param("rank-sweep", ["--teacher", None], {"teacher": {"path": "model.json"}},
                     "teacher must be a string", id="rank-sweep-config-teacher-object"),
    ])
    def test_exit_2(self, tmp_path, capsys, monkeypatch, command, flags, config, needle):
        model = tmp_path / "model.json"
        assert run("gen", "--kind", "tree", "--n", 6, "--rank", 2, "--out", model) == 0

        def no_forwards(self, legs):
            raise AssertionError("a model forward ran before the input was checked")

        monkeypatch.setattr(TensorNetworkModel, "forward_batch", no_forwards)
        monkeypatch.chdir(tmp_path)  # so a config file's relative "out" would land here
        inst = tmp_path / "inst.csv"
        write_instances(inst, [np.zeros(6)])
        inputs = {
            "gen": [], "bench": ["--dims", "4,8"], "fit": ["--teacher", model],
            "explain": ["--model", model, "--instances", inst],
            "verify": ["--model", model, "--instances", inst],
            "rank-sweep": ["--teacher", model, "--neighborhood", 16, "--max-sweeps", 2],
        }[command]
        given = {**dict(zip(inputs[::2], inputs[1::2])), "--out": tmp_path / "out",
                 **dict(zip(flags[::2], flags[1::2]))}
        argv = [command, *(a for pair in given.items() if pair[1] is not None for a in pair)]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", tmp_path / "config.json"]
        capsys.readouterr()
        assert run(*argv) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,needle", [
        pytest.param(lambda obj: [], "must be a JSON object", id="top-level-list"),
        pytest.param(lambda obj: {**obj, "cores": 5}, "cores must be a list",
                     id="cores-int"),
        pytest.param(lambda obj: {**obj, "cores": [5] * len(obj["cores"])},
                     "core 0: expected an object", id="core-int"),
        pytest.param(lambda obj: _edit_core(obj, 1, shape=4), "core 1: shape must be a list",
                     id="shape-int"),
        pytest.param(lambda obj: _edit_core(obj, 2, data={}), "core 2: data must be a base64",
                     id="data-object"),
        pytest.param(lambda obj: _edit_core(obj, 1, data="@@@="),
                     "core 1: data is not valid base64", id="data-bad-base64"),
        pytest.param(lambda obj: _edit_core(obj, 0, data=obj["cores"][0]["data"][12:]),
                     "core 0: data holds", id="data-short"),
        pytest.param(lambda obj: {**_edit_core(obj, 0, data={}), "version": 1},
                     "core 0: data must be a list", id="v1-data-object"),
        pytest.param(lambda obj: {**obj, "n": []}, "n must be an integer, got []",
                     id="n-list"),
        pytest.param(lambda obj: {**obj, "feature_maps": 5}, "not iterable",
                     id="feature-maps-int"),
        pytest.param(lambda obj: {**obj, "n": 6.9}, "n must be an integer, got 6.9",
                     id="n-float"),
        pytest.param(lambda obj: {**obj, "phys_dims": [2.0] * 6}, "phys_dims entry must be",
                     id="phys-dims-float"),
        pytest.param(lambda obj: {**obj, "bond_dims": [b + 0.5 for b in obj["bond_dims"]]},
                     "bond_dims entry must be", id="bond-dims-float"),
        pytest.param(lambda obj: _edit_core(obj, 1, shape=[2, 2.5, 2]),
                     "core 1: shape entry must be", id="shape-float"),
        pytest.param(lambda obj: {**obj, "feature_maps": [{"kind": "poly", "k": 1.9}] * 6},
                     "k must be an integer, got 1.9", id="poly-k-float"),
        pytest.param(lambda obj: {**obj, "feature_maps": [{"kind": "fourier", "k": 1,
                                                           "omega": math.inf}] * 6},
                     "omega must be finite", id="fourier-omega-inf"),
        pytest.param(lambda obj: {**obj, "feature_maps": [{"kind": "fourier", "k": 1,
                                                           "omega": math.nan}] * 6},
                     "omega must be finite", id="fourier-omega-nan"),
        pytest.param(lambda obj: _set_entry(obj, 2, 3, math.nan),
                     "core 2: data holds a non-finite value", id="data-nan"),
        pytest.param(lambda obj: _set_entry(obj, 0, 0, -math.inf),
                     "core 0: data holds a non-finite value", id="data-inf"),
        pytest.param(lambda obj: _set_entry(obj, 3, 1, math.nan, version=1),
                     "core 3: data holds a non-finite value", id="v1-data-nan"),
        pytest.param(lambda obj: {**obj, "n": True}, "n must be an integer, got True",
                     id="n-bool"),
        pytest.param(lambda obj: {**obj, "version": True},
                     "unsupported model format version True", id="version-bool"),
        pytest.param(lambda obj: {**obj, "feature_maps": [{"kind": "poly", "k": True}] * 6},
                     "k must be an integer, got True", id="poly-k-bool"),
        pytest.param(lambda obj: {**obj, "feature_maps": [{"kind": "fourier", "k": 1,
                                                           "omega": True}] * 6},
                     "omega must be a number, got True", id="fourier-omega-bool"),
        pytest.param(lambda obj: {**obj, "feature_maps": [{"kind": "fourier", "k": 1,
                                                           "omega": "1.5"}] * 6},
                     "omega must be a number, got '1.5'", id="fourier-omega-string"),
        pytest.param(lambda obj: _set_entry(obj, 2, 3, "0.123", version=1),
                     "core 2: data entry must be a number, got '0.123'", id="v1-data-string"),
        pytest.param(lambda obj: _set_entry(obj, 1, 0, True, version=1),
                     "core 1: data entry must be a number, got True", id="v1-data-bool"),
    ])
    def test_malformed_model_exit_2(self, tmp_path, capsys, monkeypatch, edit, needle):
        model = tmp_path / "model.json"
        assert run("gen", "--kind", "tree", "--n", 6, "--rank", 2, "--out", model) == 0
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))

        def no_forwards(self, legs):
            raise AssertionError("a model forward ran before the input was checked")

        monkeypatch.setattr(TensorNetworkModel, "forward_batch", no_forwards)
        inst = tmp_path / "inst.csv"
        write_instances(inst, [np.zeros(6)])
        capsys.readouterr()
        assert run("explain", "--model", model, "--instances", inst,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "malformed model" in err and needle in err
        assert not (tmp_path / "out").exists()

    def test_config_value_outside_choices(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text(json.dumps({"kind": "ring"}))
        assert run("gen", "--config", tmp_path / "config.json", "--out", tmp_path / "m.json") == 2
        assert "kind 'ring' not in ['cp', 'tree']" in capsys.readouterr().err

    def test_config_seed_applies(self, tmp_path):
        """A config-file seed is used when --seed is not given."""
        (tmp_path / "config.json").write_text(json.dumps({"seed": 5}))
        assert run("gen", "--config", tmp_path / "config.json", "--out", tmp_path / "a.json") == 0
        assert run("gen", "--seed", 5, "--out", tmp_path / "b.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestParser:
    """``main`` builds the arguments of the invoked subcommand only; every
    text the parser prints stays as it was when every subcommand's arguments
    were built. ``cli_texts.json`` holds those texts, captured from that
    parser at 80 columns."""

    CASES = json.loads((Path(__file__).parent / "cli_texts.json").read_text())

    @pytest.mark.parametrize("case", CASES["cases"], ids=lambda c: " ".join(c["argv"]) or "none")
    def test_help_and_error_texts_unchanged(self, tmp_path, monkeypatch, capsys, case):
        if list(sys.version_info[:2]) != self.CASES["python"]:
            pytest.skip("argparse lays out help differently on other Python versions")
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
        assert list(tmp_path.iterdir()) == []

    def test_only_the_invoked_command_gets_arguments(self):
        from tnshap import cli

        parser = cli.build_parser("explain")
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        flags = {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}
        assert list(flags) == ["gen", "fit", "explain", "verify", "bench", "rank-sweep"]
        assert flags["explain"] == ["help", "model", "instances", "order", "mode", "seed", "out",
                                    "config", "manifest"]
        assert all(dests == ["help"] for name, dests in flags.items() if name != "explain")
