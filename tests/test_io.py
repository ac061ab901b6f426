"""Serialization: JSON network files and CSV matrix files."""

import copy
import json

import numpy as np
import pytest

from strassennet.core import mnn_equal, realize
from strassennet.gadgets import GadgetSpec, relu2_factory, relu_factory
from strassennet.inversion import InversionSpec, build_inv
from strassennet.io import (load_matrix, load_network, network_from_dict,
                            network_to_dict, save_matrix, save_network)
from strassennet.strassen import build_split, build_str_pow2


def _sample_networks():
    # one with activation masks and biases, one bias-only, one full Strassen
    return [
        relu_factory.build(GadgetSpec(0.01, 1.0)),
        build_inv(InversionSpec(2, 1.0, 1.2, 0.5), relu2_factory),
        build_str_pow2(1, 0.5, 1.0, relu2_factory),
    ]


class TestNetworkRoundTrip:
    def test_dict_round_trip_preserves_everything(self, rng):
        for net in _sample_networks():
            back = network_from_dict(network_to_dict(net))
            assert mnn_equal(net, back)
            assert back.num_weights == net.num_weights
            assert back.num_layers == net.num_layers
            X = rng.uniform(-1, 1, tuple(net.input_shape))
            assert np.array_equal(realize(net, None, X),
                                  realize(back, None, X))

    def test_file_round_trip(self, tmp_path, rng):
        for pos, net in enumerate(_sample_networks()):
            path = tmp_path / f"net{pos}.json"
            save_network(net, path)
            back = load_network(path)
            assert mnn_equal(net, back)
            X = rng.uniform(-1, 1, tuple(net.input_shape))
            assert np.array_equal(realize(net, None, X),
                                  realize(back, None, X))

    def test_resave_is_byte_identical(self, tmp_path):
        net = relu_factory.build(GadgetSpec(0.05, 2.0))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_network(net, first)
        save_network(load_network(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unlabelled_glue_round_trips(self, tmp_path):
        net = build_split(2)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_network(net, first)
        assert json.loads(first.read_text())["activation"] is None
        back = load_network(first)
        assert back.activation_name is None
        assert mnn_equal(net, back)
        save_network(back, second)
        assert first.read_bytes() == second.read_bytes()

    def test_document_is_plain_json(self, tmp_path):
        path = tmp_path / "net.json"
        save_network(build_str_pow2(0, 0.5, 1.0, relu2_factory), path)
        doc = json.loads(path.read_text())
        assert doc["activation"] == "relu2"
        assert isinstance(doc["layers"], list)
        layer = doc["layers"][0]
        assert set(layer) == {"out_rows", "out_cols", "in_rows", "in_cols",
                              "entries", "bias", "mask_rho"}
        # entries are sorted and 1-based
        assert layer["entries"] == sorted(layer["entries"])
        assert all(min(e[:4]) >= 1 for e in layer["entries"])


def _valid_doc():
    return network_to_dict(relu_factory.build(GadgetSpec(0.3, 1.0)))


class TestMalformedDocuments:
    def test_top_level_must_be_object(self):
        with pytest.raises(ValueError, match="bad network file"):
            network_from_dict([1, 2, 3])

    def test_missing_keys(self):
        for key in ("activation", "layers"):
            doc = _valid_doc()
            del doc[key]
            with pytest.raises(ValueError, match=f"missing key '{key}'"):
                network_from_dict(doc)

    def test_empty_layer_list(self):
        doc = _valid_doc()
        doc["layers"] = []
        with pytest.raises(ValueError, match="nonempty"):
            network_from_dict(doc)

    def test_missing_layer_key(self):
        doc = _valid_doc()
        del doc["layers"][0]["entries"]
        with pytest.raises(ValueError, match="layer 0 missing key 'entries'"):
            network_from_dict(doc)

    def test_bad_entry_arity(self):
        doc = _valid_doc()
        doc["layers"][0]["entries"][0] = [1, 1, 1]
        with pytest.raises(ValueError, match=r"\[i, j, k, l, value\]"):
            network_from_dict(doc)

    def test_entry_indices_validated(self):
        doc = _valid_doc()
        doc["layers"][0]["entries"][0][0] = 10 ** 6
        with pytest.raises(ValueError, match="out of range"):
            network_from_dict(doc)

    def test_zero_coefficient_rejected(self):
        doc = _valid_doc()
        doc["layers"][0]["entries"][0][4] = 0.0
        with pytest.raises(ValueError, match="zero coefficients"):
            network_from_dict(doc)

    def test_duplicate_entries_rejected(self):
        doc = _valid_doc()
        doc["layers"][0]["entries"].append(
            copy.deepcopy(doc["layers"][0]["entries"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            network_from_dict(doc)

    def test_zero_bias_entry_rejected(self):
        doc = _valid_doc()
        for layer in doc["layers"]:
            if layer["bias"]:
                layer["bias"][0][2] = 0.0
                break
        else:
            pytest.fail("sample network should have a bias entry")
        with pytest.raises(ValueError, match="stores a zero"):
            network_from_dict(doc)

    def test_bias_out_of_range(self):
        doc = _valid_doc()
        for layer in doc["layers"]:
            if layer["bias"]:
                layer["bias"][0][0] = layer["out_rows"] + 1
                break
        with pytest.raises(ValueError, match="out of range"):
            network_from_dict(doc)

    def test_bad_mask_entry(self):
        doc = _valid_doc()
        for layer in doc["layers"]:
            if layer["mask_rho"]:
                layer["mask_rho"][0] = [1]
                break
        else:
            pytest.fail("sample network should have a mask entry")
        with pytest.raises(ValueError, match=r"must be \[i, j\]"):
            network_from_dict(doc)

    @pytest.mark.parametrize("entry", [[0, 1], [5, 1]])
    def test_mask_entry_out_of_range(self, entry):
        # [0, 1] used to wrap to the last row; [5, 1] to raise IndexError
        doc = _valid_doc()
        pos = next(p for p, layer in enumerate(doc["layers"])
                   if layer["mask_rho"] and layer["out_rows"] == 1)
        doc["layers"][pos]["mask_rho"][0] = entry
        with pytest.raises(ValueError,
                           match=f"bad network file: layer {pos} mask entry 0"):
            network_from_dict(doc)

    def test_mask_on_final_layer_rejected(self):
        doc = _valid_doc()
        doc["layers"][-1]["mask_rho"] = [[1, 1]]
        with pytest.raises(ValueError, match="final layer"):
            network_from_dict(doc)

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_network(path)

    def test_non_positive_dimensions(self):
        doc = _valid_doc()
        doc["layers"][0]["in_rows"] = 0
        with pytest.raises(ValueError, match="non-positive"):
            network_from_dict(doc)

    @pytest.mark.parametrize("key", ["out_rows", "out_cols", "in_rows",
                                     "in_cols"])
    @pytest.mark.parametrize("value", [2.9, True, "x", None, 2.0])
    def test_dimensions_must_be_integers(self, key, value):
        # 2.9 used to load as 2, true as 1, and "x" raised an unprefixed error
        doc = _valid_doc()
        doc["layers"][0][key] = value
        with pytest.raises(ValueError, match=f"bad network file: layer 0 "
                                             f"{key} must be an integer"):
            network_from_dict(doc)

    @pytest.mark.parametrize("label", [5, 1.5, True, ["relu"]])
    def test_label_must_be_a_string_or_null(self, label):
        # 5 used to load as the label "5"
        doc = _valid_doc()
        doc["activation"] = label
        with pytest.raises(ValueError, match="bad network file: activation "
                                             "must be a string or null"):
            network_from_dict(doc)

    @pytest.mark.parametrize("table, row, cell, value, reason", [
        ("entries", 1, 0, 1.7, "non-integer index"),
        ("entries", 2, 4, float("nan"), "non-finite value"),
        ("entries", 0, 4, "2.5", r"must be \[i, j, k, l, value\]"),
        ("entries", 1, 3, float("inf"), "out of range"),
        ("bias", 0, 2, float("inf"), "non-finite value"),
        ("bias", 0, 1, "1", r"must be \[i, j, value\]"),
        ("mask_rho", 0, 1, 1.5, "non-integer index"),
        ("mask_rho", 0, 0, None, r"must be \[i, j\]"),
    ])
    def test_bad_table_cells_name_layer_and_entry(self, table, row, cell,
                                                  value, reason):
        # each of these used to load: 1.7 as 1, "2.5" as 2.5, nan/inf as
        # weights
        doc = _valid_doc()
        pos = next(p for p, layer in enumerate(doc["layers"])
                   if len(layer[table]) > row)
        doc["layers"][pos][table][row][cell] = value
        what = {"entries": "entry", "bias": "bias entry",
                "mask_rho": "mask entry"}[table]
        with pytest.raises(ValueError, match=f"bad network file: layer {pos} "
                                             f"{what} {row} .*{reason}"):
            network_from_dict(doc)

    def test_short_entry_is_named_by_position(self):
        doc = _valid_doc()
        pos = next(p for p, layer in enumerate(doc["layers"])
                   if len(layer["entries"]) > 7)
        doc["layers"][pos]["entries"][7] = [1, 1, 1, 1]
        with pytest.raises(ValueError, match=f"bad network file: layer {pos} "
                                             r"entry 7 must be \[i, j, k, l"):
            network_from_dict(doc)

    def test_tables_must_be_lists(self):
        for table in ("entries", "bias", "mask_rho"):
            doc = _valid_doc()
            doc["layers"][0][table] = {}
            with pytest.raises(ValueError, match=f"bad network file: layer 0 "
                                                 f"{table} must be a list"):
                network_from_dict(doc)

    def test_entries_load_in_any_order_and_save_row_major(self):
        doc = _valid_doc()
        scrambled = copy.deepcopy(doc)
        for layer in scrambled["layers"]:
            layer["entries"].reverse()
        assert scrambled != doc
        net = network_from_dict(scrambled)
        assert mnn_equal(net, network_from_dict(doc))
        assert network_to_dict(net) == doc


class TestMatrixFiles:
    def test_round_trip_is_exact(self, tmp_path, rng):
        for shape in ((1, 1), (3, 3), (2, 5)):
            A = rng.standard_normal(shape)
            path = tmp_path / "m.csv"
            save_matrix(A, path)
            assert np.array_equal(load_matrix(path), A)

    def test_plain_text_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix(np.array([[1.5, -2.0], [0.0, 3.25]]), path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["1.5,-2", "0,3.25"]

    def test_single_row_keeps_two_dims(self, tmp_path):
        path = tmp_path / "row.csv"
        path.write_text("1,2,3\n")
        assert load_matrix(path).shape == (1, 3)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            save_matrix(np.zeros((2, 2, 2)), tmp_path / "x.csv")
