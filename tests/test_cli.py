"""Command-line behavior: argument handling, files, and exit codes."""

import csv
import json

import numpy as np
import pytest

from strassennet import oracles
from strassennet.cli import main
from strassennet.io import load_matrix, load_network, save_matrix
from strassennet.verification import CriterionResult


def _fake_results(*passed):
    return [
        CriterionResult(name=f"check-{pos}", passed=ok, measured=0.5,
                        threshold="<= 1", cases=3)
        for pos, ok in enumerate(passed)
    ]


class TestBuild:
    def test_gadget_report_on_stdout(self, tmp_path, capsys):
        net_path = tmp_path / "g.json"
        rc = main(["build", "gadget", "--activation", "relu2",
                   "--out", str(net_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"measured_M": 12, "measured_L": 2, "formula_M": 12,
                       "formula_L": 2, "satisfied": True}
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
        rc = main(["build", "strassen-pow2", "--out", str(tmp_path / "n.json")])
        assert rc == 1
        assert "strassen-pow2 requires --k" in capsys.readouterr().err

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

    def test_bad_delta(self, tmp_path, capsys):
        rc = main(["build", "inverse", "--n", "2", "--delta", "1.5",
                   "--out", str(tmp_path / "n.json")])
        assert rc == 1
        assert "delta" in capsys.readouterr().err


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
        assert "do not stack" in capsys.readouterr().err

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


class TestVerify:
    @pytest.fixture
    def record(self, monkeypatch):
        calls = []

        def fake(name, seed):
            calls.append((name, seed))
            return _fake_results(True)

        monkeypatch.setattr("strassennet.cli.run_suite", fake)
        monkeypatch.delenv("SNN_SEED", raising=False)
        return calls

    def test_explicit_seed_wins(self, record, monkeypatch, capsys):
        monkeypatch.setenv("SNN_SEED", "123")
        assert main(["verify", "--suite", "strassen", "--seed", "7"]) == 0
        assert record == [("strassen", 7)]
        assert "PASS check-0" in capsys.readouterr().out

    def test_environment_seed(self, record, monkeypatch, capsys):
        monkeypatch.setenv("SNN_SEED", "123")
        assert main(["verify", "--suite", "gadgets"]) == 0
        assert record == [("gadgets", 123)]

    def test_default_seed(self, record, capsys):
        assert main(["verify", "--suite", "inversion"]) == 0
        assert record == [("inversion", 42)]

    def test_bad_environment_seed(self, record, monkeypatch, capsys):
        monkeypatch.setenv("SNN_SEED", "many")
        assert main(["verify", "--suite", "gadgets"]) == 1
        assert "SNN_SEED must be an integer" in capsys.readouterr().err
        assert record == []

    def test_failure_exits_two(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr("strassennet.cli.run_suite",
                            lambda name, seed: _fake_results(True, False))
        monkeypatch.delenv("SNN_SEED", raising=False)
        out = tmp_path / "report.json"
        rc = main(["verify", "--suite", "identities", "--out", str(out)])
        assert rc == 2
        printed = capsys.readouterr().out
        assert "PASS check-0" in printed and "FAIL check-1" in printed
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is False
        assert doc["seed"] == 42
        assert [r["passed"] for r in doc["results"]] == [True, False]

    def test_real_suite_passes(self, monkeypatch, capsys):
        monkeypatch.delenv("SNN_SEED", raising=False)
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
