"""Command-line behavior: argument handling, files, and exit codes."""

import csv
import json

import numpy as np
import pytest

from strassennet import oracles
from strassennet.cli import (FLAGS, KINDS, _build_parser,
                             build_network_and_report, main)
from strassennet.io import load_matrix, load_network, save_matrix
from strassennet.verification import CriterionResult


def _fake_results(*passed):
    return [
        CriterionResult(name=f"check-{pos}", passed=ok, measured=0.5,
                        threshold="<= 1", cases=3)
        for pos, ok in enumerate(passed)
    ]


#: a valid value for every value flag
_VALUES = {"k": "1", "m": "2", "n": "2", "p": "2", "eps": "0.1", "K": "1",
           "alpha": "1", "delta": "0.5"}
#: (kind, value flag) pairs whose flag the kind does not read
_UNREAD = [(kind, flag) for kind, (flags, *_) in KINDS.items()
           for flag in FLAGS if flag not in flags]


class TestBuild:
    def test_gadget_report_on_stdout(self, tmp_path, capsys):
        net_path = tmp_path / "g.json"
        rc = main(["build", "gadget", "--activation", "relu2",
                   "--out", str(net_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"measured_M": 12, "measured_L": 2, "formula_M": 12,
                       "formula_L": 2, "satisfied": True,
                       "leaves": [[0.5, 1.0]]}
        net = load_network(net_path)
        assert (net.num_weights, net.num_layers) == (12, 2)

    def test_pow2_depth_one_size(self, tmp_path, capsys):
        rc = main(["build", "strassen-pow2", "--k", "1", "--eps", "1",
                   "--K", "1", "--activation", "relu2",
                   "--out", str(tmp_path / "n.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["measured_M"] == 120
        assert doc["measured_L"] == 4
        assert doc["satisfied"] is True

    def test_report_goes_to_file(self, tmp_path, capsys):
        rep = tmp_path / "rep.json"
        rc = main(["build", "strassen-square", "--n", "3",
                   "--activation", "relu", "--out", str(tmp_path / "n.json"),
                   "--report", str(rep)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(rep.read_text())
        assert doc["satisfied"] is True
        assert doc["measured_M"] <= doc["bound_M"]
        assert doc["measured_L"] <= doc["bound_L"]

    def test_inverse_reports_stage_count(self, tmp_path, capsys):
        rc = main(["build", "inverse", "--n", "2", "--alpha", "1",
                   "--eps", "1.2", "--delta", "0.5", "--activation", "relu2",
                   "--out", str(tmp_path / "inv.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["measured_M"], doc["measured_L"]) == (12, 2)
        assert doc["satisfied"] is True
        assert doc["N"] == 1
        assert doc["Sigma"] > 0.0
        assert doc["series_length_estimate"] == pytest.approx(1.7370, abs=1e-3)

    def test_inverse_reports_the_bound_depth(self, tmp_path, capsys):
        # N = 4 stages; Sigma is the N = 4 leaf budget 2^-16 (eps/2) / (8 n^3)
        rc = main(["build", "inverse", "--n", "4", "--eps", "0.01",
                   "--delta", "0.5", "--activation", "relu2",
                   "--out", str(tmp_path / "inv.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["N"] == 4
        assert doc["Sigma"] == pytest.approx(2.0 ** -16 * 0.005 / 512,
                                             rel=1e-12)
        assert doc["satisfied"] is True

    def test_missing_parameter(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["build", "strassen-pow2", "--out", str(tmp_path / "n.json")])
        assert err.value.code == 1
        assert ("snn build strassen-pow2: error: the following arguments are "
                "required: --k\n" in capsys.readouterr().err)

    @pytest.mark.parametrize("kind, flag", _UNREAD)
    def test_flag_the_kind_does_not_read_exits_one(self, kind, flag, tmp_path,
                                                   capsys):
        # each was accepted and ignored: strassen-pow2 --k 1 --n 9 built a
        # 2x2 multiplier with a satisfied report
        own = [arg for name in KINDS[kind][0]
               for arg in (f"--{name}", _VALUES[name])]
        value = _VALUES[flag]
        out = tmp_path / "n.json"
        with pytest.raises(SystemExit) as err:
            main(["build", kind, *own, f"--{flag}", value, "--out", str(out)])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"\nsnn: error: unrecognized arguments: --{flag} {value}\n")
        assert not out.exists()

    def test_flags_follow_the_kind(self, tmp_path):
        out = tmp_path / "n.json"
        with pytest.raises(SystemExit) as err:
            main(["build", "--k", "1", "strassen-pow2", "--out", str(out)])
        assert err.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["build", "--k", "1", "strassen-pow2"], "--k"),
        (["report", "--eps", "0.3", "bounds"], "--eps")])
    def test_a_flag_before_the_kind_is_named(self, argv, flag, tmp_path,
                                             capsys):
        # argparse read the flag's value as the kind: "argument kind:
        # invalid choice: '1'"
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"\nsnn: error: argument {flag}: flags follow the kind, as in: "
            f"snn {argv[0]} <kind> {flag} ...\n")
        assert not out.exists()

    @pytest.mark.parametrize("n, eps, leaves", [
        ("4", "0.01", [[5.960464477539063e-10, 4.0]]),  # N = 4: one leaf
        ("1", "1.2", [])])  # N = 1: exact, no gadget
    def test_inverse_reports_the_leaves_it_built(self, n, eps, leaves,
                                                 tmp_path, capsys):
        rc = main(["build", "inverse", "--n", n, "--eps", eps,
                   "--activation", "relu2", "--out", str(tmp_path / "i.json")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["leaves"] == leaves

    def test_square_bound_leaf_underflow_names_its_derivation(self, tmp_path,
                                                              capsys):
        # the builder's one leaf is (5e-324, 1), the bound's 5e-324 / 4; this
        # was refused as "epsilon must be positive and finite, got 0.0"
        out = tmp_path / "s.json"
        rc = main(["build", "strassen-square", "--n", "1", "--eps", "5e-324",
                   "--activation", "relu2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "snn: error: the bound's leaf budget 5e-324 / (4 * 1^2) underflows "
            "to 0 in float64; use a larger eps or a smaller size\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["inverse", "--n", "1", "--eps", "1e-3", "--delta", "0.98"],
        ["gadget", "--eps", "1e-320"],
    ])
    def test_overflowing_gadget_budget_exits_one(self, tmp_path, capsys, argv):
        # the inverse needs N = 10 stages and a subnormal leaf gadget budget
        rc = main(["build", *argv, "--out", str(tmp_path / "n.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("snn: error: a relu product gadget at eps = ")
        assert "overflows float64" in err

    def test_overflowing_relu_coefficient_names_K(self, tmp_path, capsys):
        # 4 K^2 overflows in the gadget's last layer; this was refused as
        # "entry 1 [1, 1, 1, 2, inf] has a non-finite value", naming no flag
        out = tmp_path / "g.json"
        rc = main(["build", "gadget", "--eps", "1", "--K", "9e153",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "snn: error: the last-layer coefficient 4 K^2 of a relu product "
            "gadget at eps = 1.0, K = 9e+153 overflows float64; use a "
            "smaller K\n")
        assert not out.exists()

    def test_bad_delta(self, tmp_path, capsys):
        rc = main(["build", "inverse", "--n", "2", "--delta", "1.5",
                   "--out", str(tmp_path / "n.json")])
        assert rc == 1
        assert "delta" in capsys.readouterr().err

    def test_infinite_eps_exits_one(self, tmp_path, capsys):
        # argparse reads 1e309 as inf; the report's series length estimate
        # was -Infinity, which is not JSON
        out = tmp_path / "n.json"
        rc = main(["build", "inverse", "--n", "2", "--eps", "1e309",
                   "--out", str(out)])
        assert rc == 1
        assert ("snn: error: epsilon must be positive and finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_eps_over_alpha_past_the_largest_float_builds(self, tmp_path,
                                                          capsys):
        # 1e300 / 1e-10 overflows: one stage, as build_inv reads it; the
        # report's series length estimate was -Infinity, which is not JSON
        rc = main(["build", "inverse", "--n", "2", "--eps", "1e300",
                   "--alpha", "1e-10", "--out", str(tmp_path / "n.json")])
        assert rc == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["N"] == 1 and report["satisfied"]


class TestEval:
    def _build(self, tmp_path, argv):
        path = tmp_path / "net.json"
        assert main(argv + ["--out", str(path)]) == 0
        return path

    def test_square_product(self, tmp_path, capsys, rng):
        net = self._build(tmp_path, ["build", "strassen-square", "--n", "2",
                                     "--activation", "relu2"])
        capsys.readouterr()
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        save_matrix(A, tmp_path / "A.csv")
        save_matrix(B, tmp_path / "B.csv")
        out = tmp_path / "C.csv"
        rc = main(["eval", "--net", str(net), "--a", str(tmp_path / "A.csv"),
                   "--b", str(tmp_path / "B.csv"), "--layout", "ab",
                   "--out", str(out)])
        assert rc == 0
        assert np.max(np.abs(load_matrix(out) - A @ B)) <= 1e-12

    def test_rect_transposed_layout(self, tmp_path, capsys, rng):
        net = self._build(tmp_path, ["build", "strassen-rect", "--m", "2",
                                     "--n", "3", "--p", "2",
                                     "--activation", "relu2"])
        capsys.readouterr()
        A = rng.uniform(-1, 1, (2, 3))
        B = rng.uniform(-1, 1, (3, 2))
        save_matrix(A, tmp_path / "A.csv")
        save_matrix(B, tmp_path / "B.csv")
        out = tmp_path / "C.csv"
        rc = main(["eval", "--net", str(net), "--a", str(tmp_path / "A.csv"),
                   "--b", str(tmp_path / "B.csv"), "--layout", "atb",
                   "--out", str(out)])
        assert rc == 0
        assert np.max(np.abs(load_matrix(out)
                             - oracles.matmul_naive(A, B))) <= 1e-12

    def test_premade_input(self, tmp_path, capsys, rng):
        net = self._build(tmp_path, ["build", "strassen-square", "--n", "2",
                                     "--activation", "relu2"])
        capsys.readouterr()
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2))
        save_matrix(np.hstack([A, B]), tmp_path / "X.csv")
        out = tmp_path / "C.csv"
        rc = main(["eval", "--net", str(net), "--input",
                   str(tmp_path / "X.csv"), "--out", str(out)])
        assert rc == 0
        assert np.max(np.abs(load_matrix(out) - A @ B)) <= 1e-12

    def test_shape_mismatch(self, tmp_path, capsys):
        net = self._build(tmp_path, ["build", "strassen-square", "--n", "2",
                                     "--activation", "relu2"])
        capsys.readouterr()
        save_matrix(np.eye(3), tmp_path / "X.csv")
        rc = main(["eval", "--net", str(net), "--input",
                   str(tmp_path / "X.csv"), "--out", str(tmp_path / "C.csv")])
        assert rc == 1
        assert "input is 3x3 but the network expects 2x4" in \
            capsys.readouterr().err

    def test_operands_that_do_not_stack(self, tmp_path, capsys):
        net = self._build(tmp_path, ["build", "strassen-square", "--n", "2",
                                     "--activation", "relu2"])
        capsys.readouterr()
        save_matrix(np.zeros((2, 3)), tmp_path / "A.csv")
        save_matrix(np.zeros((3, 2)), tmp_path / "B.csv")
        rc = main(["eval", "--net", str(net), "--a", str(tmp_path / "A.csv"),
                   "--b", str(tmp_path / "B.csv"),
                   "--out", str(tmp_path / "C.csv")])
        assert rc == 1
        assert ("do not stack: left block is 2 rows, right block is 3 "
                "(layout ab)" in capsys.readouterr().err)

    def test_missing_network_file(self, tmp_path, capsys):
        save_matrix(np.eye(2), tmp_path / "X.csv")
        rc = main(["eval", "--net", str(tmp_path / "nope.json"), "--input",
                   str(tmp_path / "X.csv"), "--out", str(tmp_path / "C.csv")])
        assert rc == 1

    def test_mask_entry_out_of_range(self, tmp_path, capsys):
        net = self._build(tmp_path, ["build", "gadget", "--eps", "0.01"])
        capsys.readouterr()
        doc = json.loads(net.read_text())
        doc["layers"][0]["mask_rho"][0] = [5, 1]
        net.write_text(json.dumps(doc))
        save_matrix(np.zeros((1, 2)), tmp_path / "X.csv")
        rc = main(["eval", "--net", str(net), "--input",
                   str(tmp_path / "X.csv"), "--out", str(tmp_path / "C.csv")])
        assert rc == 1
        assert ("snn: error: bad network file: layer 0 mask entry 0"
                in capsys.readouterr().err)

    def test_network_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        # the bare "'utf-8' codec can't decode byte 0x89" used to be all
        net = tmp_path / "net.png"
        net.write_bytes(b"\x89PNG\r\n\x1a\n")
        save_matrix(np.zeros((1, 2)), tmp_path / "X.csv")
        rc = main(["eval", "--net", str(net), "--input",
                   str(tmp_path / "X.csv"), "--out", str(tmp_path / "C.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "snn: error: bad network file: not UTF-8 text ('utf-8' codec "
            "can't decode byte 0x89 in position 0")

    def test_deeply_nested_network_file_exits_one(self, tmp_path, capsys):
        # it used to end in a RecursionError traceback
        net = tmp_path / "net.json"
        net.write_text('{"activation":null,"layers":%s}'
                       % ("[" * 100000 + "]" * 100000))
        save_matrix(np.zeros((1, 2)), tmp_path / "X.csv")
        rc = main(["eval", "--net", str(net), "--input",
                   str(tmp_path / "X.csv"), "--out", str(tmp_path / "C.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("snn: error: bad network file: not valid JSON (")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_empty_input_file_exits_one(self, tmp_path, capsys):
        # it used to warn "input contained no data" and report a 0x1 input
        net = self._build(tmp_path, ["build", "gadget", "--eps", "0.01"])
        capsys.readouterr()
        empty = tmp_path / "X.csv"
        empty.write_text("")
        out = tmp_path / "C.csv"
        rc = main(["eval", "--net", str(net), "--input", str(empty),
                   "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            1, f"snn: error: matrix file {empty} holds no numbers\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1,2\n3\n", "1,abc\n"],
                             ids=["ragged", "not-a-number"])
    def test_matrix_file_that_is_not_a_table_exits_one(self, tmp_path,
                                                       capsys, text):
        # numpy's text used to reach the user naming no file
        net = self._build(tmp_path, ["build", "strassen-square", "--n", "2",
                                     "--activation", "relu2"])
        capsys.readouterr()
        bad = tmp_path / "A.csv"
        bad.write_text(text)
        save_matrix(np.eye(2), tmp_path / "B.csv")
        out = tmp_path / "C.csv"
        rc = main(["eval", "--net", str(net), "--a", str(bad),
                   "--b", str(tmp_path / "B.csv"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"snn: error: matrix file {bad} is not rows of "
                              "numbers of one length: ")
        assert "usecols" not in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text, fault", [
        ("1,2\n\n3\n", "is not rows of numbers of one length: the number "
         "of columns changed from 2 to 1 at line 3"),
        ("1,2\n3,abc\n", "is not rows of numbers of one length: could not "
         "convert string 'abc' to a number at line 2, column 2"),
        ("nan,1\n0,1\n", "holds 'nan' at line 1, column 1: matrix cells "
         "must be finite numbers"),
        ("1,0\n0,inf\n", "holds 'inf' at line 2, column 2: matrix cells "
         "must be finite numbers")],
        ids=["ragged", "not-a-number", "nan", "inf"])
    def test_matrix_file_faults_name_their_line(self, tmp_path, capsys,
                                                 text, fault):
        # a nan or inf operand used to be multiplied, writing nan with
        # status 0
        net = self._build(tmp_path, ["build", "strassen-square", "--n", "2",
                                     "--activation", "relu2"])
        capsys.readouterr()
        bad = tmp_path / "A.csv"
        bad.write_text(text)
        save_matrix(np.eye(2), tmp_path / "B.csv")
        out = tmp_path / "C.csv"
        rc = main(["eval", "--net", str(net), "--a", str(bad),
                   "--b", str(tmp_path / "B.csv"), "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            1, f"snn: error: matrix file {bad} {fault}\n")
        assert not out.exists()

    def test_output_that_overflows_exits_one(self, tmp_path, capsys):
        # the relu2 gadget squares 1e200, which overflows: inf was written
        # with status 0, a file that load_matrix then refused
        net = self._build(tmp_path, ["build", "gadget", "--activation",
                                     "relu2"])
        capsys.readouterr()
        big = tmp_path / "X.csv"
        big.write_text("1e+200,1e+200\n")
        out = tmp_path / "C.csv"
        with pytest.warns(RuntimeWarning, match="overflow"):
            rc = main(["eval", "--net", str(net), "--input", str(big),
                       "--out", str(out)])
        assert (rc, capsys.readouterr().err) == (
            1, "snn: error: matrix holds inf at row 1, column 1: matrix "
            "cells must be finite numbers\n")
        assert not out.exists()

    def test_fractional_dimension_exits_one(self, tmp_path, capsys):
        net = self._build(tmp_path, ["build", "gadget", "--eps", "0.01"])
        capsys.readouterr()
        doc = json.loads(net.read_text())
        doc["layers"][0]["out_cols"] = 2.9
        net.write_text(json.dumps(doc))
        save_matrix(np.zeros((1, 2)), tmp_path / "X.csv")
        rc = main(["eval", "--net", str(net), "--input",
                   str(tmp_path / "X.csv"), "--out", str(tmp_path / "C.csv")])
        assert rc == 1
        assert ("snn: error: bad network file: layer 0 out_cols must be an "
                "integer, got 2.9" in capsys.readouterr().err)

    def test_operand_flags_are_exclusive(self, tmp_path):
        net = str(tmp_path / "net.json")
        x = str(tmp_path / "X.csv")
        out = str(tmp_path / "C.csv")
        for argv in (
            ["eval", "--net", net, "--out", out],
            ["eval", "--net", net, "--input", x, "--a", x, "--b", x,
             "--out", out],
            ["eval", "--net", net, "--a", x, "--out", out],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 1

    def test_layout_with_premade_input_exits_one(self, tmp_path, capsys):
        # the layout used to be ignored next to --input
        out = tmp_path / "C.csv"
        with pytest.raises(SystemExit) as err:
            main(["eval", "--net", str(tmp_path / "net.json"), "--input",
                  str(tmp_path / "X.csv"), "--layout", "atb",
                  "--out", str(out)])
        assert err.value.code == 1
        assert ("snn: error: eval reads --layout only with --a and --b"
                in capsys.readouterr().err)
        assert not out.exists()


class TestVerify:
    @pytest.fixture
    def record(self, monkeypatch):
        calls = []

        def fake(name, seed):
            calls.append((name, seed))
            return _fake_results(True)

        monkeypatch.setattr("strassennet.cli.run_suite", fake)
        return calls

    def test_explicit_seed_wins(self, record, capsys):
        assert main(["verify", "--suite", "strassen", "--seed", "7"]) == 0
        assert record == [("strassen", 7)]
        assert "PASS check-0" in capsys.readouterr().out

    def test_default_seed(self, record, capsys):
        assert main(["verify", "--suite", "inversion"]) == 0
        assert record == [("inversion", 42)]

    def test_negative_seed_exits_one(self, capsys):
        # refused by name before any check runs (numpy's own message did
        # not name the seed)
        assert main(["verify", "--suite", "identities", "--seed", "-1"]) == 1
        assert ("snn: error: seed must be >= 0, got -1"
                in capsys.readouterr().err)

    def test_failure_exits_two(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr("strassennet.cli.run_suite",
                            lambda name, seed: _fake_results(True, False))
        out = tmp_path / "report.json"
        rc = main(["verify", "--suite", "identities", "--out", str(out)])
        assert rc == 2
        printed = capsys.readouterr().out
        assert "PASS check-0" in printed and "FAIL check-1" in printed
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is False
        assert doc["seed"] == 42
        assert [r["passed"] for r in doc["results"]] == [True, False]

    def test_real_suite_passes(self, capsys):
        assert main(["verify", "--suite", "gadgets"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_is_a_parse_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "everything"])
        assert err.value.code == 1


class TestReport:
    def test_growth_table(self, capsys):
        assert main(["report", "growth", "--activation", "relu2"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["series", "x", "measured_M", "reference",
                           "satisfied"]
        body = {series: [] for series in
                ("pow2", "pow2-recursion", "gadget", "gadget-fit-r2")}
        for row in rows[1:]:
            body[row[0]].append(row)
        assert len(body["pow2"]) == 5
        assert len(body["pow2-recursion"]) == 4
        assert len(body["gadget"]) == 15
        assert all(r[-1] == "True" for r in body["pow2"])
        assert all(r[-1] == "True" for r in body["pow2-recursion"])
        assert body["gadget-fit-r2"][0][-1] == "True"

    def test_bounds_table(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["report", "bounds", "--eps", "0.1", "--alpha", "1",
                     "--delta", "0.5", "--activation", "relu",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "n"
        assert [r[0] for r in rows[1:]] == ["2", "4", "8"]
        for row in rows[1:]:
            assert row[-1] == "True"
            assert float(row[6]) <= float(row[7])    # M within bound
            assert float(row[8]) <= float(row[9])    # L within bound

    @pytest.mark.parametrize("activation, alpha, eps", [
        ("relu", "1.5", "0.1"), ("relu2", "1.5", "0.1"),
        ("relu2", "1", "1.2"),      # one stage: exact formula counts
    ])
    def test_bounds_rows_are_the_build_inverse_reports(self, activation, alpha,
                                                       eps, capsys):
        flags = ["--alpha", alpha, "--eps", eps, "--delta", "0.5",
                 "--activation", activation]
        assert main(["report", "bounds", *flags]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert [r[0] for r in rows] == ["2", "4", "8"]
        for row in rows:
            args = _build_parser().parse_args(
                ["build", "inverse", "--n", row[0], *flags, "--out", "unused"])
            doc = build_network_and_report(args)[1]
            kind = "formula" if "formula_M" in doc else "bound"
            assert row[1:4] == [str(float(v)) for v in flags[1:6:2]]
            assert row[4:] == [str(v) for v in (
                doc["N"], round(doc["series_length_estimate"], 3),
                doc["measured_M"], round(float(doc[f"{kind}_M"]), 1),
                doc["measured_L"], round(float(doc[f"{kind}_L"]), 1),
                doc["satisfied"])]

    @pytest.mark.parametrize("flag, value", [("alpha", "1.5"), ("eps", "0.3"),
                                             ("delta", "0.9")])
    def test_growth_refuses_the_inverse_flags(self, flag, value, tmp_path,
                                              capsys):
        # growth tables never read them, and used to print unchanged
        out = tmp_path / "growth.csv"
        with pytest.raises(SystemExit) as err:
            main(["report", "growth", f"--{flag}", value, "--out", str(out)])
        assert err.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"\nsnn: error: unrecognized arguments: --{flag} {value}\n")
        assert not out.exists()

    def test_bad_kind_is_a_parse_error(self):
        with pytest.raises(SystemExit) as err:
            main(["report", "sizes"])
        assert err.value.code == 1


def test_no_command_exits_one():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_unknown_build_kind_exits_one(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["build", "hadamard", "--out", str(tmp_path / "n.json")])
    assert err.value.code == 1
