"""Serialization: JSON network files and CSV matrix files."""

import copy
import json
import os
import re
import subprocess
import sys
import tracemalloc
from functools import lru_cache, partial
from operator import setitem
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import compact_text, expanded_document, program_digest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strassennet import core as core_module
from strassennet import io as io_module
from strassennet.combinators import parallelize
from strassennet.core import (MNN, ActivationMask, Layer, SparseLinearMap,
                              identity_mnn, mnn_equal, realize, realize_flat,
                              scale_output)
from strassennet.gadgets import GadgetSpec, relu2_factory, relu_factory
from strassennet.inversion import InversionSpec, build_inv
from strassennet.io import (TABLES, load_matrix, load_network,
                            network_from_dict, network_to_dict, save_matrix,
                            save_network)
from strassennet.strassen import (RectShape, build_split, build_str_pow2,
                                  build_str_rect)

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
            assert np.array_equal(realize(net, X),
                                  realize(back, X))

    def test_file_round_trip(self, tmp_path, rng):
        for pos, net in enumerate(_sample_networks()):
            path = tmp_path / f"net{pos}.json"
            save_network(net, path)
            back = load_network(path)
            assert mnn_equal(net, back)
            X = rng.uniform(-1, 1, tuple(net.input_shape))
            assert np.array_equal(realize(net, X),
                                  realize(back, X))

    def test_resave_is_byte_identical(self, tmp_path):
        for pos, net in enumerate(_sample_networks()):
            first = tmp_path / f"a{pos}.json"
            second = tmp_path / f"b{pos}.json"
            save_network(net, first)
            save_network(load_network(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_indented_files_still_load(self, tmp_path):
        # earlier versions wrote json.dump(..., indent=1); the document is
        # the same, so they load and re-save in the compact layout
        for pos, net in enumerate(_sample_networks()):
            old = tmp_path / f"old{pos}.json"
            new = tmp_path / f"new{pos}.json"
            compact = tmp_path / f"compact{pos}.json"
            with open(old, "w") as fh:
                json.dump(network_to_dict(net), fh, indent=1)
            back = load_network(old)
            assert mnn_equal(net, back)
            save_network(back, new)
            save_network(net, compact)
            assert new.read_bytes() == compact.read_bytes()
            assert json.loads(new.read_text()) == network_to_dict(net)

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


#: whole files in the compact layout: a header line, one line per layer,
#: each after the first led by a comma, and a closing line
SPLIT_1_FILE = (
    '{"activation":null,"layers":[\n'
    '{"out_rows":7,"out_cols":2,"in_rows":2,"in_cols":4,"entries":['
    '[1,1,1,1,1.0],[1,1,2,2,1.0],[1,2,1,3,1.0],[1,2,2,4,1.0],'
    '[2,1,2,1,1.0],[2,1,2,2,1.0],[2,2,1,3,1.0],[3,1,1,1,1.0],'
    '[3,2,1,4,1.0],[3,2,2,4,-1.0],[4,1,2,2,1.0],[4,2,1,3,-1.0],'
    '[4,2,2,3,1.0],[5,1,1,1,1.0],[5,1,1,2,1.0],[5,2,2,4,1.0],'
    '[6,1,1,1,-1.0],[6,1,2,1,1.0],[6,2,1,3,1.0],[6,2,1,4,1.0],'
    '[7,1,1,2,1.0],[7,1,2,2,-1.0],[7,2,2,3,1.0],[7,2,2,4,1.0]],'
    '"bias":[],"mask_rho":[]}\n'
    ']}\n')
RELU2_GADGET_FILE = (
    '{"activation":"relu2","layers":[\n'
    '{"out_rows":1,"out_cols":4,"in_rows":1,"in_cols":2,"entries":['
    '[1,1,1,1,1.0],[1,1,1,2,1.0],[1,2,1,1,-1.0],[1,2,1,2,-1.0],'
    '[1,3,1,1,1.0],[1,3,1,2,-1.0],[1,4,1,1,-1.0],[1,4,1,2,1.0]],'
    '"bias":[],"mask_rho":[[1,1],[1,2],[1,3],[1,4]]}\n'
    ',{"out_rows":1,"out_cols":1,"in_rows":1,"in_cols":4,"entries":['
    '[1,1,1,1,0.25],[1,1,1,2,0.25],[1,1,1,3,-0.25],[1,1,1,4,-0.25]],'
    '"bias":[],"mask_rho":[]}\n'
    ']}\n')

#: ``identity_mnn((2, 3), 2)``, one layer object held twice, whose layer
#: is two copies of the 1 x 3 identity
IDENTITY_COPIES_FILE = (
    '{"activation":null,"layers":[\n'
    '{"out_rows":2,"out_cols":3,"in_rows":2,"in_cols":3,"copies":2,'
    '"block":{"entries":[[1,1,1,1,1.0],[1,2,1,2,1.0],[1,3,1,3,1.0]],'
    '"bias":[],"mask_rho":[]}}\n'
    ',{"out_rows":2,"out_cols":3,"in_rows":2,"in_cols":3,"copies":2,'
    '"block":{"entries":[[1,1,1,1,1.0],[1,2,1,2,1.0],[1,3,1,3,1.0]],'
    '"bias":[],"mask_rho":[]}}\n'
    ']}\n')


#: two copies of the 1 x 2 identity beside a one-row swap with a bias
#: entry: its one layer is a run line of two runs, whose block holds the
#: identity once and the swap
RUNS_FILE = (
    '{"activation":null,"layers":[\n'
    '{"out_rows":3,"out_cols":2,"in_rows":3,"in_cols":2,'
    '"copies":[[2,1,1],[1,1,1]],"block":{"entries":[[1,1,1,1,1.0],'
    '[1,2,1,2,1.0],[2,1,2,2,1.0],[2,2,2,1,-1.0]],"bias":[[2,2,0.5]],'
    '"mask_rho":[]}}\n'
    ']}\n')


def _runs_network() -> MNN:
    """The network of ``RUNS_FILE``."""
    swap = MNN([Layer(SparseLinearMap((1, 2), (1, 2), [[1, 1, 1, 2],
                                                       [1, 2, 1, 1]],
                                      [1.0, -1.0]), [[0.0, 0.5]])])
    two = identity_mnn((1, 2), 1)
    return parallelize([two, two, swap])


class TestFileLayout:
    @pytest.mark.parametrize("net, text", [
        (build_split(1), SPLIT_1_FILE),
        (relu2_factory.build(GadgetSpec(0.1, 1.0)), RELU2_GADGET_FILE)],
        ids=["split-1", "relu2-gadget"])
    def test_golden_bytes(self, tmp_path, net, text):
        path = tmp_path / "net.json"
        save_network(net, path)
        assert path.read_text() == text

    def test_one_line_per_layer(self, tmp_path):
        for pos, net in enumerate(_sample_networks()):
            path = tmp_path / f"net{pos}.json"
            save_network(net, path)
            assert len(path.read_text().splitlines()) == net.num_layers + 2

    def test_golden_copies_bytes(self, tmp_path):
        # each layer is kron(I_2, B), B the 1 x 3 identity: a copies line
        # with B's tables, and no list-valued "entries" key, which a reader
        # that predates copies lines would read as the whole layer's
        path = tmp_path / "net.json"
        save_network(identity_mnn((2, 3), 2), path)
        assert path.read_text() == IDENTITY_COPIES_FILE
        back = load_network(path)
        assert mnn_equal(back, identity_mnn((2, 3), 2))
        assert back.layers[0] is back.layers[1]

    def test_golden_runs_bytes(self, tmp_path):
        # the layer is no kron(I_r, B), but a row stack of two runs: its
        # block holds each distinct block once, and "copies" lists the
        # runs, which a reader that predates run lines refuses
        path = tmp_path / "net.json"
        save_network(_runs_network(), path)
        assert path.read_text() == RUNS_FILE
        with mock.patch.object(json, "load", _no_json_load):
            back = load_network(path)
        _assert_same_outcome(back, _runs_network())


#: networks whose files held every copy of each block before copies lines
EXPANDED = {
    **{f"relu-pow2-k{k}": lambda k=k: build_str_pow2(k, 1e-3, 1.0,
                                                    relu_factory)
       for k in range(5)},
    "relu-rect-5x6x4": lambda: build_str_rect(RectShape(5, 6, 4), 1e-3, 1.0,
                                              relu_factory),
    **{f"relu-inverse-n{n}": lambda n=n: build_inv(
        InversionSpec(n, 1.0, 1e-3, 0.5), relu_factory) for n in (2, 3, 8)},
}


class TestExpandedFiles:
    @pytest.mark.parametrize("build", EXPANDED.values(), ids=EXPANDED.keys())
    def test_load_and_resave_as_copies_lines(self, tmp_path, build):
        # the spelling every earlier version wrote still takes the text
        # parser, and re-saves in the copies form
        net = build()
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(compact_text(expanded_document(net)))
        with mock.patch.object(json, "load", _no_json_load):
            back = load_network(old)
        assert mnn_equal(back, net)
        save_network(back, new)
        assert new.read_text() == compact_text(network_to_dict(net))
        assert mnn_equal(network_from_dict(expanded_document(net)), net)

    @pytest.mark.parametrize("build, copies, most", [
        (lambda: build_str_pow2(4, 1e-3, 1.0, relu_factory),
         [1, 7, 49, 343, *[2401] * 15, 343, 49, 7, 1], 100_000),
        (lambda: build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory),
         [1, 1, [[8, 1, 1], [8, 1, 1]], [[1, 28, 8], [8, 1, 1]],
          [[7, 14, 4], [8, 1, 1]], [[49, 7, 2], [8, 1, 1]],
          *[[[343, 1, 1], [8, 1, 1]]] * 23, [[49, 2, 7], [8, 1, 1]],
          [[7, 4, 14], [8, 1, 1]], [[1, 8, 28], [8, 1, 1]],
          [[8, 1, 1], *[[1, 1, 1]] * 8], 1, 16, 2], 150_000)],
        ids=["relu-pow2-k4", "relu-inverse-n8"])
    def test_benchmark_networks_are_written_as_blocks(self, tmp_path, build,
                                                      copies, most):
        # layer 34 of the inverter is 256 copies of one block on 16 rows:
        # its line takes r = 16, the gcd of the copy count and the rows.
        # Its layers 2-32 are run lines: the square's 343 one-row leaf
        # blocks (or 7 or 49 split or mix blocks) over the 8-row carry of
        # A.  Spelling every copy took 11,732,895 and 15,203,073 bytes;
        # copies lines alone wrote the inverter in 2,614,155
        net = build()
        doc = network_to_dict(net)
        got = [layer.get("copies", 1) for layer in doc["layers"]]
        assert got[:len(copies)] == copies
        for layer in doc["layers"]:
            if "copies" in layer:
                assert "entries" not in layer
                runs = layer["copies"]
                if not isinstance(runs, list):
                    r = runs
                    runs = [[r, layer["out_rows"] // r, layer["in_rows"] // r]]
                assert sum(r * o for r, o, _ in runs) == layer["out_rows"]
                assert sum(r * i for r, _, i in runs) == layer["in_rows"]
        path = tmp_path / "net.json"
        save_network(net, path)
        assert path.stat().st_size < most


def _awkward_network():
    # values whose repr is shortest-round-trip, exponent or long; indices
    # of two digits
    values = [5e-324, 1e16, 1e-05, 0.1 + 0.2, -1.7976931348623157e308, 2.0]
    idx = [[10, 1, 1, 12], [10, 2, 3, 4], [11, 1, 12, 1], [1, 1, 1, 1],
           [11, 2, 10, 2], [2, 1, 1, 2]]
    bias = np.zeros((11, 2))
    bias[9, 1], bias[10, 0], bias[0, 0] = 1e16, -5e-324, 0.1 + 0.2
    first = Layer(SparseLinearMap((11, 2), (12, 12), idx, values), bias,
                  ActivationMask.from_positions((11, 2), [[10, 1], [11, 2]]))
    last = Layer(SparseLinearMap((1, 1), (11, 2), [[1, 1, 10, 1]], [1e-05]))
    return MNN([first, last], "relu")


#: ``_awkward_network``'s file: each value as ``repr`` spells it, an
#: exponent, a subnormal, the largest double or a shortest round trip
AWKWARD_FILE = (
    '{"activation":"relu","layers":[\n'
    '{"out_rows":11,"out_cols":2,"in_rows":12,"in_cols":12,"entries":['
    '[1,1,1,1,0.30000000000000004],[2,1,1,2,2.0],[10,1,1,12,5e-324],'
    '[10,2,3,4,1e+16],[11,1,12,1,1e-05],'
    '[11,2,10,2,-1.7976931348623157e+308]],'
    '"bias":[[1,1,0.30000000000000004],[10,2,1e+16],[11,1,-5e-324]],'
    '"mask_rho":[[10,1],[11,2]]}\n'
    ',{"out_rows":1,"out_cols":1,"in_rows":11,"in_cols":2,'
    '"entries":[[1,1,10,1,1e-05]],"bias":[],"mask_rho":[]}\n'
    ']}\n')


class TestWriterReference:
    @pytest.mark.parametrize("net", [
        *_sample_networks(),
        build_str_pow2(2, 1e-2, 1.0, relu_factory),
        _awkward_network()],
        ids=["relu-gadget", "relu2-inverter", "relu2-pow2-k1",
             "relu-pow2-k2", "awkward-values"])
    def test_bytes_match_dumping_the_document(self, tmp_path, net):
        path = tmp_path / "net.json"
        save_network(net, path)
        assert path.read_text() == compact_text(network_to_dict(net))
        assert mnn_equal(load_network(path), net)

    def test_golden_awkward_bytes(self, tmp_path):
        # the file and network_to_dict come from one layer builder, so the
        # spelling of awkward numbers is pinned by a literal as well
        path = tmp_path / "net.json"
        save_network(_awkward_network(), path)
        assert path.read_text() == AWKWARD_FILE
        assert mnn_equal(load_network(path), _awkward_network())


#: ``_awkward_network``'s values and more whose repr is an exponent, a
#: subnormal, the largest double, a shortest round trip or long; each is
#: repeated across the cells of a table
AWKWARD = (5e-324, -5e-324, 1e16, 1e-05, 0.1 + 0.2, -1.7976931348623157e308,
           2.0, -1.0, 123456789.125)
#: shape dimensions whose indices cross the 9/10 and 99/100 digit boundaries
SIZES = (1, 2, 9, 10, 11, 99, 100, 101)


def _stored_values(rng, n):
    """``n`` nonzero finite values: random magnitudes, about a third of
    them drawn from ``AWKWARD``."""
    values = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 300, n)
    pick = rng.random(n) < 0.35
    values[pick] = rng.choice(AWKWARD, int(pick.sum()))
    values[values == 0.0] = 2.0
    return values


@st.composite
def _networks(draw):
    """A chain of 1-3 random layers: entry, bias and mask tables that are
    empty, hold one row or hold up to 400 rows, over shapes whose indices
    cross digit boundaries; the last layer has no mask."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 3))
    shapes = [(draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES)))
              for _ in range(depth + 1)]
    label = draw(st.sampled_from(["relu", None]))
    layers = []
    for pos, (out_shape, in_shape) in enumerate(zip(shapes[1:], shapes)):
        count = st.sampled_from([0, 1, 2, 30, 400])
        flat = np.unique(rng.integers(0, np.prod(out_shape + in_shape),
                                      draw(count)))
        idx = np.stack(np.unravel_index(flat, out_shape + in_shape), 1) + 1
        bias = np.zeros(out_shape)
        at = np.unique(rng.integers(0, bias.size, draw(count)))
        bias.reshape(-1)[at] = _stored_values(rng, len(at))
        rho = np.zeros(out_shape, dtype=bool)
        if label is not None and pos < depth - 1:
            rho.reshape(-1)[rng.integers(0, rho.size, draw(count))] = True
        layers.append(Layer(
            SparseLinearMap(out_shape, in_shape, idx,
                            _stored_values(rng, len(idx))),
            bias, ActivationMask(out_shape, rho)))
    return MNN(layers, label)


def _wide_sparse_network():
    # two entries on a 1 x 5000 input: the last index column's largest
    # number, 4999, is far above its two cells
    return MNN([Layer(SparseLinearMap((2, 1), (1, 5000),
                                      [[1, 1, 1, 4999], [2, 1, 1, 100]],
                                      [1e-05, 0.1 + 0.2]),
                      np.array([[0.0], [5e-324]]))], None)


class TestWriterOnRandomNetworks:
    @given(net=_networks())
    @example(net=_wide_sparse_network())
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_dumping_the_document(self, tmp_path_factory, net):
        path = tmp_path_factory.mktemp("writer") / "net.json"
        save_network(net, path)
        assert path.read_text() == compact_text(network_to_dict(net))
        assert mnn_equal(load_network(path), net)

    def test_wide_layer_is_written_in_bounded_memory(self, tmp_path):
        # one entry at input index 2^22: spelling every index up to it
        # would take one string per index, hundreds of MB
        net = MNN([Layer(SparseLinearMap((1, 1), (1, 2**22),
                                         [[1, 1, 1, 2**22]], [0.5]))])
        path = tmp_path / "net.json"
        tracemalloc.start()
        try:
            save_network(net, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert path.read_text() == compact_text(network_to_dict(net))

    @pytest.mark.parametrize("net, distinct", [
        (identity_mnn((2, 3), 4), 1),
        (build_inv(InversionSpec(3, 1.0, 1e-3, 0.5), relu_factory), 86)],
        ids=["identity", "relu-inverse-n3"])
    def test_each_distinct_layer_is_spelled_once(self, tmp_path, net,
                                                 distinct):
        # a layer object the network holds at several positions is written
        # at each of them from the one line encoded for it
        path = tmp_path / "net.json"
        with mock.patch.object(io_module, "_layer_doc",
                               wraps=io_module._layer_doc) as spy:
            save_network(net, path)
        assert path.read_text() == compact_text(network_to_dict(net))
        assert len(set(net.layers)) == distinct < net.num_layers
        assert spy.call_count == distinct


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

    @pytest.mark.parametrize("table, what", [("entries", "entry"),
                                             ("bias", "bias entry"),
                                             ("mask_rho", "mask entry")])
    def test_repeated_row_is_refused(self, table, what):
        # a repeated bias row used to load as one weight, a repeated mask
        # position as one position, so re-saving dropped rows
        doc = _valid_doc()
        pos = next(p for p, layer in enumerate(doc["layers"])
                   if len(layer[table]) >= 2)
        rows = doc["layers"][pos][table]
        rows.insert(2, copy.deepcopy(rows[0]))
        with pytest.raises(ValueError, match=f"bad network file: layer {pos} "
                                             f"{what} 2 .*duplicate"):
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
        # the size rule of core, by the field's name; it read "has
        # non-positive dimensions (in_rows = 0)"
        with pytest.raises(ValueError, match="bad network file: layer 0 "
                                             "in_rows must be >= 1, got 0"):
            network_from_dict(doc)

    @pytest.mark.parametrize("key", ["out_rows", "out_cols", "in_rows",
                                     "in_cols"])
    def test_zero_dimension_named_by_field(self, tmp_path, key):
        doc = _valid_doc()
        doc["layers"][1][key] = 0
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc))
        reason = f"bad network file: layer 1 {key} must be >= 1, got 0"
        assert _refusal(load_network, path) == reason
        assert _refusal(network_from_dict, doc) == reason

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

    @pytest.mark.parametrize("label", [5, ["relu"]])
    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    def test_label_refused_before_any_layer(self, tmp_path, label, indent):
        doc = _valid_doc()
        doc["activation"] = label
        doc["layers"][0]["entries"][0][4] = 0.0  # a later fault
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc) if indent is None
                        else json.dumps(doc, indent=indent))
        reason = (f"bad network file: activation must be a string or null, "
                  f"got {label!r}")
        assert _refusal(load_network, path) == reason
        assert _refusal(network_from_dict, doc) == reason

    @pytest.mark.parametrize("label", [5, ["relu"], b"relu"])
    def test_bad_label_leaves_an_existing_file(self, tmp_path, label):
        # MNN used to take b"relu", and save_network then truncated the file
        # before failing with TypeError
        path = tmp_path / "net.json"
        save_network(relu_factory.build(GadgetSpec(0.3, 1.0)), path)
        before = path.read_bytes()
        layers = load_network(path).layers
        with pytest.raises(ValueError, match="activation must be a string or "
                                             "null"):
            save_network(MNN(layers, label), path)
        assert path.read_bytes() == before

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


def _rows_of(doc, table, least=1):
    """Table ``table`` of the first layer holding at least ``least`` rows."""
    return next(layer[table] for layer in doc["layers"]
                if len(layer[table]) >= least)


def _cell(table, row, cell, value):
    return lambda doc: setitem(_rows_of(doc, table, row + 1)[row], cell, value)


def _repeat_first_row(doc, table):
    rows = _rows_of(doc, table, 2)
    rows.insert(1, copy.deepcopy(rows[0]))


def _two_copies(doc):
    """Make ``doc`` the document of two copies of its network side by
    side, as ``save_network`` writes it: each layer a copies line of r = 2
    whose block holds the layer's own tables."""
    for layer in doc["layers"]:
        tables = {key: layer.pop(key) for key in io_module.TABLES}
        layer["out_rows"] *= 2
        layer["in_rows"] *= 2
        layer.update(copies=2, block=tables)


def _in_copies(pos, edit):
    """A mutation: ``_two_copies``, then ``edit`` of layer ``pos``."""
    def mutate(doc):
        _two_copies(doc)
        edit(doc["layers"][pos])
    return mutate


#: faults of copies lines in two copies of the relu gadget (layer 0: B of
#: shape (1, 4) from (1, 2) with four mask entries; layer 1: B of (1, 5)
#: from (1, 4) with two bias entries), each with its refusal
COPIES_FAULTS = {
    **{f"copies-{value!r}": (
        _in_copies(0, lambda layer, value=value: setitem(layer, "copies",
                                                         value)),
        f"layer 0 copies must be an integer, got {value!r}")
       for value in (2.0, True, "2", None)},
    **{f"copies-{value}": (
        _in_copies(0, lambda layer, value=value: setitem(layer, "copies",
                                                         value)),
        f"layer 0 copies must be >= 2, got {value}")
       for value in (1, 0, -2)},
    "copies-not-dividing-out-rows": (
        _in_copies(0, lambda layer: setitem(layer, "copies", 3)),
        "layer 0 out_rows 2 is not a multiple of copies 3"),
    "copies-not-dividing-in-rows": (
        _in_copies(1, lambda layer: layer.update(in_rows=3)),
        "layer 1 in_rows 3 is not a multiple of copies 2"),
    "entry-outside-the-block": (
        _in_copies(0, lambda layer: setitem(layer["block"]["entries"][0], 2,
                                            2)),
        "layer 0 block entry 0 [1, 1, 2, 1, 0.5] has an index out of range "
        "(upper bounds [1, 4, 1, 2])"),
    "bias-outside-the-block": (
        _in_copies(1, lambda layer: setitem(layer["block"]["bias"][1], 0, 2)),
        "layer 1 block bias entry 1 [2, 4, -0.5] has an index out of range "
        "(upper bounds [1, 5])"),
    "mask-outside-the-block": (
        _in_copies(0, lambda layer: setitem(layer["block"]["mask_rho"][2], 0,
                                            2)),
        "layer 0 block mask entry 2 [2, 3] has an index out of range "
        "(upper bounds [1, 4])"),
    "block-zero-coefficient": (
        _in_copies(0, lambda layer: setitem(layer["block"]["entries"][0], 4,
                                            0.0)),
        "layer 0 block entry 0 [1, 1, 1, 1, 0.0] stores a zero (zero "
        "coefficients are not storable)"),
    "block-short-entry": (
        _in_copies(1, lambda layer: setitem(layer["block"]["entries"], 3,
                                            [1, 1, 1])),
        "layer 1 block entry 3 must be [i, j, k, l, value], got [1, 1, 1]"),
    "block-table-not-a-list": (
        _in_copies(0, lambda layer: setitem(layer["block"], "bias", {})),
        "layer 0 block bias must be a list"),
    "block-missing-a-table": (
        _in_copies(1, lambda layer: layer["block"].pop("mask_rho")),
        "layer 1 block missing key 'mask_rho'"),
    "block-unknown-key": (
        _in_copies(0, lambda layer: setitem(layer["block"], "copies", 2)),
        "layer 0 block unknown key 'copies'"),
    "block-not-an-object": (
        _in_copies(2, lambda layer: setitem(layer, "block", [])),
        "layer 2 block must be an object"),
    "no-block": (_in_copies(0, lambda layer: layer.pop("block")),
                 "layer 0 missing key 'block'"),
    "entries-beside-copies": (
        _in_copies(0, lambda layer: setitem(layer, "entries", [])),
        "layer 0 unknown key 'entries'"),
    "chain-after-copies": (
        _in_copies(1, lambda layer: setitem(layer, "in_cols", 5)),
        "layer 1 input shape (2, 5) does not match layer 0 output shape "
        "(2, 4)"),
}



def _beside(doc):
    """Make ``doc`` the document of its network twice beside a copy of it
    whose entries are doubled, as ``save_network`` writes it: each layer
    a run line of runs ``[2, 1, 1]`` and ``[1, 1, 1]`` whose block holds
    the layer's tables on row 1 and the copy's on row 2."""
    for layer in doc["layers"]:
        tables = {key: layer.pop(key) for key in io_module.TABLES}
        tables["entries"] += [[2, j, 2, l, 2 * v]
                              for _, j, _, l, v in tables["entries"]]
        tables["bias"] += [[2, j, v] for _, j, v in tables["bias"]]
        tables["mask_rho"] += [[2, j] for _, j in tables["mask_rho"]]
        layer["out_rows"] *= 3
        layer["in_rows"] *= 3
        layer.update(copies=[[2, 1, 1], [1, 1, 1]], block=tables)


def _in_runs(pos, edit):
    """A mutation: ``_beside``, then ``edit`` of layer ``pos``."""
    def mutate(doc):
        _beside(doc)
        edit(doc["layers"][pos])
    return mutate


def _run_field(run, field, value):
    return _in_runs(0, lambda layer: setitem(layer["copies"][run], field,
                                             value))


#: faults of run lines in ``_beside`` the relu gadget (layer 0: a block of
#: shape (2, 4) from (2, 2), eight entries a row, four mask entries a row;
#: layer 1: (2, 5) from (2, 4) with two bias entries a row), each with its
#: refusal
RUNS_FAULTS = {
    "run-not-a-list": (
        _in_runs(0, lambda layer: setitem(layer["copies"], 1, 1)),
        "layer 0 copies 1 must be [r, out_rows, in_rows], got 1"),
    "run-of-two": (
        _in_runs(1, lambda layer: setitem(layer["copies"], 0, [2, 1])),
        "layer 1 copies 0 must be [r, out_rows, in_rows], got [2, 1]"),
    "run-of-four": (
        _in_runs(0, lambda layer: layer["copies"][1].append(1)),
        "layer 0 copies 1 must be [r, out_rows, in_rows], got [1, 1, 1, 1]"),
    "no-runs": (_in_runs(0, lambda layer: setitem(layer, "copies", [])),
                "layer 0 copies must not be an empty list"),
    **{f"run-{name}-{value!r}": (
        _run_field(1, field, value),
        f"layer 0 copies 1 {name} must be an integer, got {value!r}")
       for field, name in enumerate(("r", "out_rows", "in_rows"))
       for value in (1.0, True, "1", None)},
    **{f"run-{name}-{value}": (
        _run_field(0, field, value),
        f"layer 0 copies 0 {name} must be >= 1, got {value}")
       for field, name in enumerate(("r", "out_rows", "in_rows"))
       for value in (0, -1)},
    "runs-miss-out-rows": (
        _run_field(0, 0, 3),
        "layer 0 out_rows 3 is not the 4 rows the copies hold"),
    "runs-miss-in-rows": (
        _run_field(1, 2, 2),
        "layer 0 in_rows 3 is not the 4 rows the copies hold"),
    "runs-miss-both": (
        _in_runs(1, lambda layer: layer["copies"].append([1, 1, 1])),
        "layer 1 out_rows 3 is not the 4 rows the copies hold"),
    "entry-outside-its-run": (
        _in_runs(0, lambda layer: setitem(layer["block"]["entries"][8], 2,
                                          1)),
        "layer 0 block entry 8 [2, 1, 1, 1, 1.0] reads outside run 1's "
        "input rows 2 to 2"),
    "entry-outside-the-first-run": (
        _in_runs(1, lambda layer: setitem(layer["block"]["entries"][11], 2,
                                          2)),
        "layer 1 block entry 11 [1, 5, 2, 4, -1.0] reads outside run 0's "
        "input rows 1 to 1"),
    "entry-outside-the-stacked-block": (
        _in_runs(0, lambda layer: setitem(layer["block"]["entries"][8], 2,
                                          3)),
        "layer 0 block entry 8 [2, 1, 3, 1, 1.0] has an index out of range "
        "(upper bounds [2, 4, 2, 2])"),
    "bias-outside-the-stacked-block": (
        _in_runs(1, lambda layer: setitem(layer["block"]["bias"][3], 0, 3)),
        "layer 1 block bias entry 3 [3, 4, -0.5] has an index out of range "
        "(upper bounds [2, 5])"),
    "unknown-key-in-the-block": (
        _in_runs(0, lambda layer: setitem(layer["block"], "runs", [])),
        "layer 0 block unknown key 'runs'"),
    "unknown-key-beside-the-runs": (
        _in_runs(1, lambda layer: setitem(layer, "runs", [])),
        "layer 1 unknown key 'runs'"),
    "entries-beside-the-runs": (
        _in_runs(2, lambda layer: setitem(layer, "entries", [])),
        "layer 2 unknown key 'entries'"),
    "chain-after-runs": (
        _in_runs(1, lambda layer: setitem(layer, "in_cols", 5)),
        "layer 1 input shape (3, 5) does not match layer 0 output shape "
        "(3, 4)"),
}

#: every malformed document of ``TestMalformedDocuments`` that the compact
#: layout can hold, plus booleans in tables, a layer that is no object or
#: holds an unknown key, and every fault of ``COPIES_FAULTS`` and
#: ``RUNS_FAULTS``
COMPACT_FAULTS = {
    "unknown-layer-key": lambda doc: setitem(doc["layers"][1], "meta", 1),
    **{f"copies-line-{name}": mutate
       for name, (mutate, _) in COPIES_FAULTS.items()},
    **{f"run-line-{name}": mutate
       for name, (mutate, _) in RUNS_FAULTS.items()},
    "empty-layer-list": lambda doc: setitem(doc, "layers", []),
    "layer-not-an-object": lambda doc: setitem(doc["layers"], 1, 5),
    "missing-layer-key": lambda doc: doc["layers"][0].pop("entries"),
    **{f"label-{label!r}":
       lambda doc, label=label: setitem(doc, "activation", label)
       for label in (5, 1.5, True, ["relu"])},
    "mask-on-final-layer":
        lambda doc: setitem(doc["layers"][-1], "mask_rho", [[1, 1]]),
    "entry-arity":
        lambda doc: setitem(_rows_of(doc, "entries"), 0, [1, 1, 1]),
    "short-entry":
        lambda doc: setitem(_rows_of(doc, "entries", 8), 7, [1, 1, 1, 1]),
    "mask-entry-arity": lambda doc: setitem(_rows_of(doc, "mask_rho"), 0, [1]),
    "entry-index-out-of-range": _cell("entries", 0, 0, 10 ** 6),
    "entry-fractional-index": _cell("entries", 1, 0, 1.7),
    "entry-infinite-index": _cell("entries", 1, 3, float("inf")),
    "zero-coefficient": _cell("entries", 0, 4, 0.0),
    "entry-nan": _cell("entries", 2, 4, float("nan")),
    "entry-string": _cell("entries", 0, 4, "2.5"),
    "entry-boolean-value": _cell("entries", 3, 4, True),
    "zero-bias": _cell("bias", 0, 2, 0.0),
    "bias-out-of-range": _cell("bias", 0, 0, 10 ** 3),
    "bias-infinite": _cell("bias", 0, 2, float("inf")),
    "bias-string-index": _cell("bias", 0, 1, "1"),
    "bias-boolean-index": _cell("bias", 0, 1, False),
    "mask-entry-zero": _cell("mask_rho", 0, 0, 0),
    "mask-entry-past-the-end": _cell("mask_rho", 0, 0, 10 ** 3),
    "mask-fractional-index": _cell("mask_rho", 0, 1, 1.5),
    "mask-null": _cell("mask_rho", 0, 0, None),
    **{f"repeated-{table}": partial(_repeat_first_row, table=table)
       for table in ("entries", "bias", "mask_rho")},
    **{f"{table}-not-a-list":
       lambda doc, table=table: setitem(doc["layers"][0], table, {})
       for table in ("entries", "bias", "mask_rho")},
    **{f"{key}-{value!r}":
       lambda doc, key=key, value=value: setitem(doc["layers"][0], key, value)
       for key in ("out_rows", "out_cols", "in_rows", "in_cols")
       for value in (0, 2.9, True, "x", None, 2.0)},
}


#: what the edits of the line reader's mutation test write: the number
#: alphabet, and a space, a form feed, a quote and a letter that no table
#: holds
EDIT_CHARS = "0123456789,[]-+.eE \f\"x"


@lru_cache(maxsize=None)
def _inverter_text() -> str:
    """A small relu inverter's compact file: 37 layers, 505 weights, with
    bias and mask rows and powers of two among its values."""
    return compact_text(network_to_dict(
        build_inv(InversionSpec(1, 1.0, 0.1, 0.5), relu_factory)))


@st.composite
def _table_edits(draw):
    """``_inverter_text`` with 1-4 characters inserted, deleted or replaced
    in one of its tables."""
    text = _inverter_text()
    start, end = draw(st.sampled_from(
        [m.span(1) for m in re.finditer(r":(\[[-+.eE0-9,\[\]]*\])", text)]))
    table = list(text[start:end])
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert" or not table:
            table.insert(draw(st.integers(0, len(table))),
                         draw(st.sampled_from(EDIT_CHARS)))
            continue
        at = draw(st.integers(0, len(table) - 1))
        if op == "delete":
            del table[at]
        else:
            table[at] = draw(st.sampled_from(EDIT_CHARS))
    return text[:start] + "".join(table) + text[end:]


def _no_json_load(*args, **kwargs):
    raise AssertionError("the line reader declined a written file")


def _refusal(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


class TestCompactReader:
    @pytest.mark.parametrize("mutate", COMPACT_FAULTS.values(),
                             ids=COMPACT_FAULTS.keys())
    def test_refuses_like_network_from_dict(self, tmp_path, mutate):
        doc = _valid_doc()
        mutate(doc)
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc))
        assert _refusal(load_network, path) == _refusal(network_from_dict,
                                                        doc)

    @pytest.mark.parametrize("table, what, row", [
        ("mask_rho", "mask entry 0 must be [i, j]", [True, True]),
        ("bias", "bias entry 0 must be [i, j, value]", [1, True, 0.5])])
    def test_booleans_among_numbers_are_refused(self, tmp_path, table, what,
                                                row):
        # numpy reads a boolean among numbers as 0 or 1: [true, true] used
        # to load as the mask position (1, 1)
        doc = _valid_doc()
        pos = next(p for p, layer in enumerate(doc["layers"]) if layer[table])
        doc["layers"][pos][table][0] = row
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc))
        message = f"bad network file: layer {pos} {what}, got {row!r}"
        assert _refusal(network_from_dict, doc) == message
        assert _refusal(load_network, path) == message

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:2] + [lines[2].replace("]],", "]]", 1)]
        + lines[3:],
        lambda lines: lines[:-2] + [lines[-2].replace('"bias"', '"bias', 1),
                                    lines[-1]],
        lambda lines: lines + ["[]\n"],
        lambda lines: lines[:-1],
        lambda lines: lines[:2] + [lines[2][1:]] + lines[3:],
        lambda lines: lines[:2] + [" " + lines[2][1:]] + lines[3:],
        lambda lines: lines[:1] + ["," + lines[1]] + lines[2:],
        lambda lines: [lines[0].replace(":", ":5", 1)] + lines[1:],
    ], ids=["broken-later-line", "open-string", "text-after-close",
            "no-close", "no-comma", "space-for-comma", "comma-on-first-layer",
            "label-not-json"])
    def test_invalid_json_is_named_as_json_load_names_it(self, tmp_path,
                                                          edit):
        lines = compact_text(_valid_doc()).splitlines(keepends=True)
        broken = "".join(edit(lines))
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(broken)
        path = tmp_path / "net.json"
        path.write_text(broken)
        assert _refusal(load_network, path) == (
            f"bad network file: not valid JSON ({info.value})")

    def test_zero_layers_are_refused(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"activation":null,"layers":[\n]}\n')
        with pytest.raises(ValueError, match="nonempty"):
            load_network(path)

    @pytest.mark.parametrize("layout", [
        lambda text: text.replace('"entries":', '\n"entries":', 1),
        lambda text: text.replace("]}\n", "]}\n\n"),
        lambda text: text.replace('{"activation":', '{ "activation":', 1),
        lambda text: text.rstrip("\n"),
    ], ids=["layer-over-two-lines", "blank-line-after", "spaced-header",
            "no-final-newline"])
    def test_other_layouts_load_the_same_network(self, tmp_path, layout):
        net = relu_factory.build(GadgetSpec(0.3, 1.0))
        path = tmp_path / "net.json"
        save_network(net, path)
        text = path.read_text()
        path.write_text(layout(text))
        assert path.read_text() != text
        assert mnn_equal(load_network(path), net)

    def test_compact_files_are_read_without_json_load(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "net.json"
        net = _sample_networks()[1]
        save_network(net, path)

        def refuse(*args, **kwargs):
            raise AssertionError("json.load read a compact file")
        monkeypatch.setattr(json, "load", refuse)
        assert mnn_equal(load_network(path), net)


class TestCopiesLines:
    def test_two_copies_are_the_writers_document(self, tmp_path):
        net = relu_factory.build(GadgetSpec(0.3, 1.0))
        doc = _valid_doc()
        _two_copies(doc)
        assert doc == network_to_dict(parallelize([net, net]))
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc))
        with mock.patch.object(json, "load", _no_json_load):
            assert mnn_equal(load_network(path), parallelize([net, net]))

    @pytest.mark.parametrize("mutate, reason", COPIES_FAULTS.values(),
                             ids=COPIES_FAULTS.keys())
    def test_faults_are_named(self, mutate, reason):
        # each is also refused alike by the line reader and in every
        # layout (COMPACT_FAULTS, LAYOUT_FAULTS)
        doc = _valid_doc()
        mutate(doc)
        assert _refusal(network_from_dict, doc) == (
            f"bad network file: {reason}")

    @pytest.mark.parametrize("mutate, reason", [
        (lambda doc: setitem(doc, "meta", 1), "unknown key 'meta'"),
        (lambda doc: setitem(doc["layers"][1], "meta", 1),
         "layer 1 unknown key 'meta'")],
        ids=["top-level", "layer"])
    @pytest.mark.parametrize("indent", [None, 1], ids=["one-line", "indented"])
    def test_unknown_keys_are_refused_by_name(self, tmp_path, mutate, reason,
                                              indent):
        # a field that a later version adds is refused, not ignored: a
        # reader that ignored "copies" would load a copies line's block as
        # its whole layer
        doc = _valid_doc()
        mutate(doc)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc, indent=indent))
        assert _refusal(load_network, path) == f"bad network file: {reason}"
        assert _refusal(network_from_dict, doc) == (
            f"bad network file: {reason}")


#: coefficients of generated layers: few, so that blocks drawn apart can
#: still be equal
COEFFS = (1.0, -1.0, 0.5, 2.0, -0.25)


def _random_chain(rng, rows, cols, label) -> MNN:
    """A chain of random layers, layer t of shape ``(rows[t + 1], cols[t +
    1]) <- (rows[t], cols[t])``: a sparse map whose density may leave
    rows empty or fill them, bias entries at random positions and, under
    a label and before the last layer, rho at random positions."""
    layers = []
    for t in range(len(rows) - 1):
        out_shape, in_shape = (rows[t + 1], cols[t + 1]), (rows[t], cols[t])
        density = rng.choice([0.0, 0.15, 0.5, 1.0])
        flat = np.flatnonzero(rng.random(np.prod(out_shape + in_shape))
                              < density)
        idx = np.stack(np.unravel_index(flat, out_shape + in_shape), 1) + 1
        bias = np.where(rng.random(out_shape) < 0.3,
                        rng.choice(COEFFS, out_shape), 0.0)
        rho = (rng.random(out_shape) < 0.4 if label and t < len(rows) - 2
               else np.zeros(out_shape, dtype=bool))
        layers.append(Layer(SparseLinearMap(out_shape, in_shape, idx,
                                            rng.choice(COEFFS, len(idx))),
                            bias, ActivationMask(out_shape, rho)))
    return MNN(layers, label)


def _twin(net: MNN) -> MNN:
    """A network of new ``Layer`` objects on arrays equal to ``net``'s."""
    return MNN([Layer(layer.map, layer.bias, layer.mask)
                for layer in net.layers], net.activation_name)


@st.composite
def _stacked_networks(draw):
    """``parallelize`` of 1-3 unequal children, each repeated 1-4 times:
    chains of 1-3 random layers (``_random_chain``) of 1-3 rows, that
    share the input and output column counts but not the ones between,
    so narrower children are padded.  A child is in turn such a chain,
    ``parallelize`` of 2 or 3 copies of one, ``parallelize`` of two
    unequal ones, so that a stack holds a stack, or such a chain followed
    by its twin, equal arrays in new layer objects (``_twin``)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.integers(1, 3))
    label = draw(st.sampled_from(["relu", None]))
    ends = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def chain():
        cols = [ends[0], *(draw(st.integers(1, 4))
                           for _ in range(depth - 1)), ends[1]]
        rows = [draw(st.integers(1, 3)) for _ in range(depth + 1)]
        return _random_chain(rng, rows, cols, label)

    children = []
    for _ in range(draw(st.integers(1, 3))):
        child = chain()
        kind = draw(st.sampled_from(["chain", "chain", "copies", "copies",
                                     "stack", "twin"]))
        if kind == "copies":
            child = parallelize([child] * draw(st.sampled_from([2, 3])))
        elif kind == "stack":
            child = parallelize([child, chain()])
        elif kind == "twin":
            children.append(child)
            child = _twin(child)
        children += [child] * draw(st.integers(1, 4))
    return parallelize(children)


#: one empty layer whose arrays no memory holds, declared in a few bytes,
#: as a plain line, a run line whose block is too large and a copies
#: line whose tiling is, each with its refusal
HUGE_LAYERS = {
    "plain": ({"out_rows": 2**50, "out_cols": 1, "in_rows": 1,
               "in_cols": 1, "entries": [], "bias": [], "mask_rho": []},
              "layer 0 of shape (1125899906842624, 1) <- (1, 1) does not "
              "fit in memory"),
    "block": ({"out_rows": 2**50 + 1, "out_cols": 1, "in_rows": 2,
               "in_cols": 1, "copies": [[1, 2**50, 1], [1, 1, 1]],
               "block": {"entries": [], "bias": [], "mask_rho": []}},
              "layer 0 block of shape (1125899906842625, 1) <- (2, 1) does "
              "not fit in memory"),
    "copies": ({"out_rows": 2**50, "out_cols": 1, "in_rows": 2**50,
                "in_cols": 1, "copies": 2**50,
                "block": {"entries": [], "bias": [], "mask_rho": []}},
               "layer 0 of shape (1125899906842624, 1) <- "
               "(1125899906842624, 1) does not fit in memory"),
    # 2^62 rows pass the largest array numpy allows, and 2^63 or 2^70
    # rows or input columns pass int64: each used to be refused in numpy's
    # words ("array is too big; ...", "Maximum allowed dimension exceeded")
    **{f"plain-2^{p}": ({"out_rows": 2**p, "out_cols": 1, "in_rows": 1,
                         "in_cols": 1, "entries": [], "bias": [],
                         "mask_rho": []},
                        f"layer 0 of shape ({2**p}, 1) <- (1, 1) does not "
                        f"fit in memory")
       for p in (62, 63, 70)},
    "input-2^63": ({"out_rows": 1, "out_cols": 1, "in_rows": 1,
                    "in_cols": 2**63, "entries": [], "bias": [],
                    "mask_rho": []},
                   f"layer 0 of shape (1, 1) <- (1, {2**63}) does not fit in "
                   f"memory"),
}


class TestRunLines:
    def test_beside_is_the_writers_document(self, tmp_path):
        net = relu_factory.build(GadgetSpec(0.3, 1.0))
        doubled = _valid_doc()
        for layer in doubled["layers"]:
            for entry in layer["entries"]:
                entry[4] *= 2
        built = parallelize([net, net, network_from_dict(doubled)])
        doc = _valid_doc()
        _beside(doc)
        assert doc == network_to_dict(built)
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc))
        with mock.patch.object(json, "load", _no_json_load):
            _assert_same_outcome(load_network(path), built)

    @pytest.mark.parametrize("mutate, reason", RUNS_FAULTS.values(),
                             ids=RUNS_FAULTS.keys())
    def test_faults_are_named(self, mutate, reason):
        # each is also refused alike by the line reader and in every
        # layout (COMPACT_FAULTS, LAYOUT_FAULTS)
        doc = _valid_doc()
        mutate(doc)
        assert _refusal(network_from_dict, doc) == (
            f"bad network file: {reason}")

    @pytest.mark.parametrize("layer, reason", HUGE_LAYERS.values(),
                             ids=HUGE_LAYERS.keys())
    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    def test_shapes_no_memory_holds_are_refused(self, tmp_path, layer,
                                                reason, indent):
        # the plain file, 137 bytes, used to raise numpy's MemoryError
        # ("Unable to allocate 8.00 PiB"); each request fails at once, so
        # no memory is touched
        doc = {"activation": None, "layers": [layer]}
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc) if indent is None
                        else json.dumps(doc, indent=indent))
        assert _refusal(load_network, path) == f"bad network file: {reason}"

    @given(net=_stacked_networks())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_of_unequal_children(self, tmp_path_factory, net):
        # the file holds what the writer's document says, loads through
        # the line reader to the built arrays, shares every layer the
        # built network shares, re-saves byte for byte, reads alike by
        # json.load and compiles to the built network's program
        path = tmp_path_factory.mktemp("runs") / "net.json"
        save_network(net, path)
        assert path.read_text() == compact_text(network_to_dict(net))
        with mock.patch.object(json, "load", _no_json_load):
            back = load_network(path)
        _assert_same_outcome(back, net)
        _assert_shared_where_equal(back, path)
        for built, loaded in zip(net.layers, back.layers):
            assert back.layers[net.layers.index(built)] is loaded
        again = path.with_name("again.json")
        save_network(back, again)
        assert again.read_bytes() == path.read_bytes()
        with open(path, encoding="utf-8") as fh:
            _assert_same_outcome(network_from_dict(json.load(fh)), back)
        assert program_digest(back) == program_digest(net)

    def test_stack_of_copies_of_a_stack_keeps_its_period(self, tmp_path):
        # a stack of 100 copies of the stack of a and b, then c, is the run
        # line [[100, 2, 2], [1, 1, 1]]: its block holds a, b and c, 5
        # table rows.  A scan of its arrays sees a, b, a, b, ... and writes
        # all 401 table rows, as it still does for the plain twin
        def one_row(entries, bias=None):
            return MNN([Layer(SparseLinearMap((1, 2), (1, 2),
                                              [e[:4] for e in entries],
                                              [e[4] for e in entries]),
                              bias)])

        a = one_row([[1, 1, 1, 1, 1.0], [1, 2, 1, 2, 1.0]])
        b = one_row([[1, 1, 1, 2, 2.0]], [[0.0, 0.5]])
        c = one_row([[1, 2, 1, 1, -1.0]])
        net = parallelize([parallelize([a, b])] * 100 + [c])
        line = network_to_dict(net)["layers"][0]
        assert line["copies"] == [[100, 2, 2], [1, 1, 1]]
        assert sum(map(len, line["block"].values())) == 5
        plain = network_to_dict(_twin(net))["layers"][0]
        assert "copies" not in plain
        assert sum(len(plain[key]) for key in TABLES) == 401
        path = tmp_path / "net.json"
        save_network(net, path)
        with mock.patch.object(json, "load", _no_json_load):
            back = load_network(path)
        _assert_same_outcome(back, net)
        save_network(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @given(net=_stacked_networks())
    @settings(max_examples=80, deadline=None)
    def test_copies_of_a_stack_are_those_of_its_arrays(self, net):
        # the count read off a stack's record, before any array of it is
        # gathered, is the scan's on a plain layer of its arrays
        for layer in net.layers:
            copies = core_module._copies(layer)
            plain = Layer(layer.map, layer.bias, layer.mask)
            assert copies == core_module._scanned_copies(plain)


def _stacked(net: MNN) -> list:
    """The layers of ``net`` that record a stack of unequal children,
    more than one run."""
    return [layer for layer in net.layers
            if layer._parts is not None and len(layer._parts) > 1]


class TestRecordedStacks:
    def test_inverter_is_saved_and_loaded_without_its_stacks_arrays(
            self, tmp_path, monkeypatch):
        # the square beside its carry of A at each stage is recorded, not
        # assembled; its line is written from the record, with no cut of
        # its arrays (io._cut), and a loaded run line is recorded too.  The
        # plain layers of the networks and of their records are cut, and
        # nothing else: no record's arrays are gathered afresh to be cut
        net = build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory)
        built = _stacked(net)
        assert len(built) == 31
        assert all(layer._map is layer._bias is layer._mask is None
                   for layer in built)
        read, scanned = [], []
        get_map, cut = Layer.map.fget, io_module._cut
        monkeypatch.setattr(Layer, "map", property(
            lambda layer: read.append(layer) or get_map(layer)))
        monkeypatch.setattr(io_module, "_cut",
                            lambda layer: scanned.append(layer)
                            or cut(layer))
        save_network(net, tmp_path / "net.json")
        back = load_network(tmp_path / "net.json")
        save_network(back, tmp_path / "again.json")
        loaded = _stacked(back)
        assert len(loaded) == 31
        stacks = {id(layer) for layer in built + loaded}
        assert not stacks & {id(layer) for layer in read}
        assert not stacks & {id(layer) for layer in scanned}
        assert scanned  # the plain layers still take the cut
        held, plain = [*net.layers, *back.layers], set()
        while held:
            layer = held.pop()
            if layer._parts is None:
                plain.add(id(layer))
            else:
                held += [child for child, _ in layer._parts]
        assert {id(layer) for layer in scanned} <= plain
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "net.json").read_bytes())


    @pytest.mark.parametrize("factory", [relu_factory, relu2_factory])
    def test_inverter_stacks_count_their_copies_without_a_scan(
            self, factory, monkeypatch):
        # each stack's count is read off its record: the probes' bias and
        # rho refuse the last stage's output beside the carry too, which
        # one scan of gathered arrays per power-of-two inverter refused
        scans = []
        scan = core_module._scanned_copies
        monkeypatch.setattr(core_module, "_scanned_copies",
                            lambda layer: scans.append(layer) or scan(layer))
        for n in (*range(2, 9), 16, 32):
            net = build_inv(InversionSpec(n, 1.0, 1e-2, 0.5), factory)
            stacks = _stacked(net)
            assert stacks
            for layer in stacks:
                core_module._copies(layer)
            assert not scans, n

    @pytest.mark.parametrize("make", [
        lambda: build_str_pow2(3, 1e-2, 1.0, relu_factory),
        lambda: build_inv(InversionSpec(8, 1.0, 1e-2, 0.5), relu_factory)],
        ids=["pow2-relu-k3", "inv-relu-n8"])
    def test_records_hold_no_arrays_after_every_reader(self, make, tmp_path):
        # evaluating, saving, loading, comparing and scaling read the
        # records' arrays, each gathered where it is needed: none is kept
        # on a record, built or loaded, at any depth
        built = make()
        columns = np.random.default_rng(7).uniform(
            -0.1, 0.1, (built.input_shape.size, 3))
        out = realize_flat(built, None, columns)
        save_network(built, tmp_path / "net.json")
        loaded = load_network(tmp_path / "net.json")
        assert realize_flat(loaded, None, columns).tobytes() == out.tobytes()
        assert mnn_equal(built, loaded)
        scale_output(built, 2.0)
        records, held = [], [*built.layers, *loaded.layers]
        while held:
            layer = held.pop()
            if layer._parts is not None:
                records.append(layer)
                held += [child for child, _ in layer._parts]
        assert records
        assert all(layer._map is layer._bias is layer._mask is None
                   for layer in records)


#: layer-chain faults of the relu gadget's document (out/in shapes (1, 4)
#: from (1, 2), (1, 5) from (1, 4), (1, 1) from (1, 5); rho on layers 0 and
#: 1), each with the refusal both readers give it
CHAIN_FAULTS = {
    "input-shape": (lambda doc: setitem(doc["layers"][1], "in_cols", 5),
                    "layer 1 input shape (1, 5) does not match layer 0 "
                    "output shape (1, 4)"),
    "output-shape": (lambda doc: setitem(doc["layers"][1], "out_cols", 6),
                     "layer 2 input shape (1, 5) does not match layer 1 "
                     "output shape (1, 6)"),
    "rho-on-the-last-layer":
        (lambda doc: setitem(doc["layers"][2], "mask_rho", [[1, 1]]),
         "layer 2 has rho entries, but the final layer must be "
         "identity-activated"),
    "rho-under-null": (lambda doc: setitem(doc, "activation", None),
                       "layer 0 has rho entries but the activation is null"),
    "before-a-later-bad-entry":
        (lambda doc: (setitem(doc["layers"][1], "in_cols", 5),
                      setitem(doc["layers"][2]["entries"][0], 4, 0.0)),
         "layer 1 input shape (1, 5) does not match layer 0 output shape "
         "(1, 4)"),
    "rho-under-null-before-a-later-shape":
        (lambda doc: (setitem(doc, "activation", None),
                      setitem(doc["layers"][1], "in_cols", 5)),
         "layer 0 has rho entries but the activation is null"),
}


class TestLayerChain:
    @pytest.mark.parametrize("mutate, reason", CHAIN_FAULTS.values(),
                             ids=CHAIN_FAULTS.keys())
    @pytest.mark.parametrize("indent", [None, 1], ids=["compact", "indented"])
    def test_refused_by_layer_from_0(self, tmp_path, mutate, reason, indent):
        # these used to come from MNN unprefixed and numbered from 1, e.g.
        # "layer 2 input shape (1, 5) does not match layer 1 output shape"
        doc = _valid_doc()
        mutate(doc)
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc) if indent is None
                        else json.dumps(doc, indent=indent))
        assert _refusal(load_network, path) == f"bad network file: {reason}"
        assert _refusal(network_from_dict, doc) == (
            f"bad network file: {reason}")

    @pytest.mark.parametrize("mutate, reason", CHAIN_FAULTS.values(),
                             ids=CHAIN_FAULTS.keys())
    def test_built_in_memory_refused_alike(self, mutate, reason):
        # the layers a file holds, up to the first one its tables refuse,
        # given to MNN: the one rule gives the readers' text, unprefixed
        doc = _valid_doc()
        mutate(doc)
        layers = []
        for pos, spec in enumerate(doc["layers"]):
            try:
                layers.append(io_module._layer(pos, spec))
            except ValueError:
                break
        assert _refusal(MNN, layers, doc["activation"]) == reason


def _assert_shared_where_equal(net: MNN, path) -> None:
    """Assert that ``net``, loaded from ``path``, holds one layer object
    at two positions exactly where their lines are equal."""
    lines = path.read_text().split("\n")[1:-2]
    first = {}
    for line, layer in zip(lines, net.layers, strict=True):
        assert first.setdefault(line.removeprefix(","), layer) is layer
    assert len(first) == len(set(net.layers))


def _equal_length_lines() -> MNN:
    """Three distinct layers whose lines have one length, held at six
    positions: A B A C B A."""
    a, b, c = (Layer(SparseLinearMap((1, 2), (1, 2),
                                     [[1, 1, 1, 1], [1, 2, 1, 2]],
                                     [value, -value]))
               for value in (1.5, 2.5, 3.5))
    return MNN([a, b, a, c, b, a])


#: a compact layer line of shape (1, 2) from (1, 2), with rho at (1, 1)
#: or none, and one of shape (1, 1) from (1, 2)
_SQUARE = {"out_rows": 1, "out_cols": 2, "in_rows": 1, "in_cols": 2,
           "entries": [[1, 1, 1, 1, 1.0], [1, 2, 1, 2, 1.0]], "bias": [],
           "mask_rho": []}
_RHO_SQUARE = {**_SQUARE, "mask_rho": [[1, 1]]}
_NARROW = {**_SQUARE, "out_cols": 1, "entries": [[1, 1, 1, 1, 1.0]]}
#: layer-chain faults on the second occurrence of a repeated line, each
#: with the refusal both readers give it
REPEATED_LINE_FAULTS = {
    "input-shape": ([_SQUARE, _NARROW, _SQUARE, _NARROW],
                    "layer 2 input shape (1, 2) does not match layer 1 "
                    "output shape (1, 1)"),
    "rho-on-the-last-layer": ([_RHO_SQUARE, _SQUARE, _RHO_SQUARE],
                              "layer 2 has rho entries, but the final layer "
                              "must be identity-activated"),
}


class TestSharedLines:
    @pytest.mark.parametrize("build, distinct", [
        (lambda: build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory),
         98),
        (lambda: build_str_pow2(4, 1e-3, 1.0, relu_factory), 23),
        (lambda: identity_mnn((2, 3), 4), 1)],
        ids=["relu-inverse-n8", "relu-pow2-k4", "identity"])
    def test_layers_are_shared_where_lines_are_equal(self, tmp_path, build,
                                                     distinct):
        net = build()
        path = tmp_path / "net.json"
        save_network(net, path)
        with mock.patch.object(json, "load", _no_json_load):
            loaded = load_network(path)
        assert mnn_equal(loaded, net)
        assert len(set(loaded.layers)) == len(set(net.layers)) == distinct
        _assert_shared_where_equal(loaded, path)

    @pytest.mark.parametrize("build, distinct", [
        (_equal_length_lines, 3),
        (lambda: build_inv(InversionSpec(3, 1.0, 1e-3, 0.5), relu_factory),
         86)],
        ids=["equal-length-lines", "relu-inverse-n3"])
    def test_hash_collisions_are_read_apart(self, tmp_path, monkeypatch,
                                            build, distinct):
        # with one hash for every text, each line's key is its length
        # alone: a line is confirmed by its text, and parsed on a mismatch
        net = build()
        path = tmp_path / "net.json"
        save_network(net, path)
        monkeypatch.setattr(io_module, "hash", lambda text: 0, raising=False)
        with mock.patch.object(io_module, "_layer",
                               wraps=io_module._layer) as spy, \
                mock.patch.object(json, "load", _no_json_load):
            loaded = load_network(path)
        assert mnn_equal(loaded, net)
        assert spy.call_count == len(set(loaded.layers)) == distinct
        _assert_shared_where_equal(loaded, path)

    @pytest.mark.parametrize("layers, reason", REPEATED_LINE_FAULTS.values(),
                             ids=REPEATED_LINE_FAULTS.keys())
    def test_chain_fault_on_a_repeated_line(self, tmp_path, layers, reason):
        # layer 2 repeats layer 0's line, so the line reader takes it from
        # the first; the chain rules still refuse it at its own position
        doc = {"activation": "relu", "layers": layers}
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc))
        lines = path.read_text().split("\n")
        assert "," + lines[1] == lines[3]
        with open(path, encoding="utf-8") as fh, \
                mock.patch.object(io_module, "_layer",
                                  wraps=io_module._layer) as spy, \
                pytest.raises(ValueError):
            io_module._read_compact(fh)
        assert spy.call_count == 2
        assert _refusal(load_network, path) == f"bad network file: {reason}"
        assert _refusal(network_from_dict, doc) == (
            f"bad network file: {reason}")

    def test_lines_are_read_in_bounded_memory(self, tmp_path):
        # 16 distinct lines of about 200 KB: no line's text is kept or
        # copied, so the peak above the loaded network is that of loading
        # one of them, within half a line (a reader copying each line's
        # body peaks a line above it, one keeping every line the text)
        rng = np.random.default_rng(3)
        at = np.arange(1, 5001)
        rows = np.stack([np.ones_like(at), at, np.ones_like(at), at], 1)
        layers = [Layer(SparseLinearMap((1, 5000), (1, 5000), rows,
                                        rng.uniform(1, 2, 5000) * 1e-200))
                  for _ in range(16)]

        def above(net):  # the traced peak above the loaded network
            path = tmp_path / f"{net.num_layers}.json"
            save_network(net, path)
            tracemalloc.start()
            try:
                loaded = load_network(path)
                now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert mnn_equal(loaded, net)
            return peak - now, path.stat().st_size

        one, _ = above(MNN(layers[:1]))
        peak, size = above(MNN(layers))
        line = size / 16
        assert line > 150_000
        assert peak < one + line / 2 < size


#: every fault of ``COMPACT_FAULTS`` and ``CHAIN_FAULTS``, each with no
#: text after the document, and a chain fault followed by a stray byte
LAYOUT_FAULTS = {
    **{name: (mutate, "") for name, mutate in COMPACT_FAULTS.items()},
    **{f"chain-{name}": (mutate, "")
       for name, (mutate, _) in CHAIN_FAULTS.items()},
    "chain-fault-then-stray-text": (CHAIN_FAULTS["input-shape"][0], "x"),
}
#: where ``json`` names a fault in the text, which differs between layouts
JSON_POSITION = re.compile(r": line \d+ column \d+ \(char \d+\)")


class TestEveryLayout:
    @pytest.mark.parametrize("mutate, tail", LAYOUT_FAULTS.values(),
                             ids=LAYOUT_FAULTS.keys())
    def test_compact_and_indented_twins_are_refused_alike(self, tmp_path,
                                                          mutate, tail):
        # with stray text, the compact file used to be refused for its
        # layer 1 and the indented one as invalid JSON
        doc = _valid_doc()
        mutate(doc)
        compact, indented = tmp_path / "compact.json", tmp_path / "ind.json"
        compact.write_text(compact_text(doc) + tail)
        indented.write_text(json.dumps(doc, indent=1) + tail)
        want = ("bad network file: not valid JSON (Extra data)" if tail
                else _refusal(network_from_dict, doc))
        for path in (compact, indented):
            assert JSON_POSITION.sub("", _refusal(load_network, path)) == want

    @pytest.mark.parametrize("depth", [1000, 100000])
    @pytest.mark.parametrize("text", [
        '{"activation":null,"layers":%s}',
        '{"activation":%s,"layers":[\n' + RELU2_GADGET_FILE.split("\n", 1)[1]],
        ids=["layers", "compact-label"])
    def test_deep_nesting_is_refused(self, tmp_path, depth, text):
        # it used to raise RecursionError
        path = tmp_path / "net.json"
        path.write_text(text % ("[" * depth + "]" * depth))
        got = _refusal(load_network, path)
        assert got == _json_reference(path)
        if depth > 10000:  # past json's recursion limit on Python <= 3.13
            assert got.startswith("bad network file: not valid JSON (")


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the message of its ``ValueError``."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def _json_reference(path):
    """The network or the message that ``json.load`` and
    ``network_from_dict`` give for the file ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        return f"bad network file: not valid JSON ({exc})"
    return _outcome(network_from_dict, doc)


def _assert_same_outcome(got, want):
    """Equal messages, or networks with equal stored arrays and dtypes."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert got.activation_name == want.activation_name
    assert len(got.layers) == len(want.layers)
    for a, b in zip(got.layers, want.layers):
        assert (a.out_shape, a.in_shape) == (b.out_shape, b.in_shape)
        for x, y in [(a.map.indptr, b.map.indptr),
                     (a.map.indices, b.map.indices), (a.map.val, b.map.val),
                     (a.bias, b.bias), (a.mask.rho, b.mask.rho)]:
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)


#: number spellings put into one cell of a compact file: JSON's own, ones
#: that ``float`` or numpy reads but JSON does not (numpy skips a form
#: feed), integers at and past int64, and words; each is read as
#: ``json.load`` and ``network_from_dict`` read it
SPELLINGS = ["1.0", "-0.5", "1e5", "1E+05", "0.5e+3", "+1.0", ".5", "1.",
             "01", "-01.5", "0e1", "1234567890123456789",
             "12345678901234567890", "1e400", "1.5e", "- 1", "true", "NaN",
             "Infinity", " 1.0", "\x0c1.0", "2.0", "1e0", "-0",
             "123456789012345678", "9223372036854775807",
             "9223372036854775808"]
#: (table, row, cell) of the relu gadget's layer 1 that a spelling goes into
SPELLING_CELLS = {"entry-value": ("entries", 0, 4),
                  "entry-index": ("entries", 0, 3),
                  "bias-value": ("bias", 0, 2),
                  "mask-index": ("mask_rho", 0, 1)}
#: a number that the relu gadget's file spells nowhere else
SENTINEL = 987654321


class TestLineReader:
    @pytest.mark.parametrize("cell", SPELLING_CELLS.values(),
                             ids=SPELLING_CELLS.keys())
    @pytest.mark.parametrize("spelling", SPELLINGS)
    def test_spellings_read_as_json_reads_them(self, tmp_path, spelling,
                                               cell):
        doc = _valid_doc()
        table, row, pos = cell
        doc["layers"][1][table][row][pos] = SENTINEL
        text = compact_text(doc)
        assert text.count(str(SENTINEL)) == 1
        path = tmp_path / "net.json"
        path.write_text(text.replace(str(SENTINEL), spelling))
        _assert_same_outcome(_outcome(load_network, path),
                             _json_reference(path))

    @pytest.mark.parametrize("table", [
        "[[]]", "[[1,1],[]]", "[[],[1,1]]", "[[1,1]],[[1,2]]", "[1,1]",
        "[[1,1],[1,2]", "[[1,1],[1,2,]]", "[[1,1],,[1,2]]", "[[1,[1]]]",
        "[[1,1,1],[2,1,3]]", "[[1,1],[1,2]][]"])
    def test_table_layouts_read_as_json_reads_them(self, tmp_path, table):
        # layer 0's mask table, [[1,1],[1,2],[1,3],[1,4]], laid out otherwise
        doc = _valid_doc()
        doc["layers"][0]["mask_rho"] = [[SENTINEL]]
        path = tmp_path / "net.json"
        path.write_text(compact_text(doc).replace(f"[[{SENTINEL}]]", table))
        _assert_same_outcome(_outcome(load_network, path),
                             _json_reference(path))

    def test_indices_past_2_to_the_53_are_read_exactly(self, tmp_path):
        # json reads an all-integer table as int64; a float would round
        # 2^53 + 1 to 2^53
        path = tmp_path / "net.json"
        path.write_text(
            '{"activation":null,"layers":[\n{"out_rows":1,"out_cols":1,'
            f'"in_rows":1,"in_cols":{2 ** 60},"entries":'
            f'[[1,1,1,{2 ** 53 + 1},2]],"bias":[],"mask_rho":[]}}\n]}}\n')
        net = load_network(path)
        assert net.layers[0].map.indices.tolist() == [2 ** 53]
        _assert_same_outcome(net, _json_reference(path))

    def test_indices_past_2_to_the_53_beside_a_float_read_as_json(
            self, tmp_path):
        # json reads a table that holds a float value as float64, rounding
        # 2^53 + 1 to 2^53; the line reader reads each table as json does,
        # so it rounds alike
        path = tmp_path / "net.json"
        path.write_text(
            '{"activation":null,"layers":[\n{"out_rows":1,"out_cols":1,'
            f'"in_rows":1,"in_cols":{2 ** 60},"entries":'
            f'[[1,1,1,{2 ** 53 + 1},2.5]],"bias":[],"mask_rho":[]}}\n]}}\n')
        net = load_network(path)
        assert net.layers[0].map.indices.tolist() == [2 ** 53 - 1]
        _assert_same_outcome(net, _json_reference(path))

    @pytest.mark.parametrize("cell", [
        7, 2.5, 2 ** 53 + 1, 2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1,
        2 ** 70, 1e300, -1e300, float("nan"), float("inf"), True, None,
        "1"], ids=repr)
    @pytest.mark.parametrize("column", [0, 4], ids=["index", "value"])
    def test_tables_read_as_np_array_reads_them(self, cell, column):
        # the C-level passes take a table only where the row-by-row check
        # would, in the dtype and with the numbers np.array gives its rows
        rows = [[1, 1, 1, 2, 0.5], [1, 2, 1, 1, 3]]
        rows[1][column] = cell
        for table in (rows, [row[:4] + [7] for row in rows]):
            valid = all(map(io_module._is_number, table[1]))
            want = np.array(table) if valid else None
            try:
                positions, values = io_module._read_table(
                    {"entries": table}, "entries")
            except ValueError as exc:
                assert want is None
                assert str(exc).startswith("entry 1 must be")
                continue
            got = np.column_stack([positions, values])
            assert want is not None and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @given(edit=_table_edits())
    @settings(max_examples=150, deadline=None)
    def test_edited_tables_read_as_the_json_path_reads_them(
            self, tmp_path_factory, edit):
        path = tmp_path_factory.mktemp("edited") / "net.json"
        path.write_text(edit)
        _assert_same_outcome(_outcome(load_network, path),
                             _json_reference(path))

    @pytest.mark.parametrize("build", [
        lambda: build_str_pow2(2, 1e-2, 1.0, relu_factory),
        lambda: build_inv(InversionSpec(3, 1.0, 1e-2, 0.5), relu_factory),
        _awkward_network,
        # the two benchmark networks
        lambda: build_str_pow2(4, 1e-3, 1.0, relu_factory),
        lambda: build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory)],
        ids=["relu-pow2-k2", "relu-inverse-n3", "awkward", "relu-pow2-k4",
             "relu-inverse-n8"])
    def test_every_written_line_takes_the_line_reader(self, tmp_path, build):
        net = build()
        path = tmp_path / "net.json"
        save_network(net, path)
        with mock.patch.object(json, "load", _no_json_load):
            assert mnn_equal(load_network(path), net)

    @pytest.mark.parametrize("build, lines", [
        (lambda: build_str_pow2(4, 1e-3, 1.0, relu_factory), 23),
        (lambda: build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory),
         98)],
        ids=["relu-pow2-k4", "relu-inverse-n8"])
    def test_each_distinct_line_reaches_the_storage_rule_once(
            self, tmp_path, build, lines):
        # each of the file's distinct lines is parsed once: three tables a
        # line, and no table of a repeated line
        net = build()
        path = tmp_path / "net.json"
        save_network(net, path)
        calls = []

        def spy(what, index, bounds, value=None):
            calls.append(what)
            return stored_rows(what, index, bounds, value)

        stored_rows = core_module._stored_rows
        with mock.patch.object(core_module, "_stored_rows", spy), \
                mock.patch.object(io_module, "_stored_rows", spy), \
                mock.patch.object(json, "load", _no_json_load):
            assert mnn_equal(load_network(path), net)
        assert len(calls) == len(io_module.TABLES) * lines

    @given(net=_networks())
    @settings(max_examples=30, deadline=None)
    def test_random_networks_take_the_line_reader(self, tmp_path_factory,
                                                  net):
        path = tmp_path_factory.mktemp("parsed") / "net.json"
        save_network(net, path)
        with mock.patch.object(json, "load", _no_json_load):
            assert mnn_equal(load_network(path), net)


class TestEncoding:
    def test_network_files_are_opened_as_utf8(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(path, mode="r", **kwargs):
            opened.append((mode, kwargs.get("encoding")))
            return open(path, mode, **kwargs)

        monkeypatch.setattr(io_module, "open", recording_open, raising=False)
        path = tmp_path / "net.json"
        save_network(relu2_factory.build(GadgetSpec(0.1, 1.0)), path)
        load_network(path)
        assert opened == [("w", "utf-8"), ("r", "utf-8")]

    def test_utf8_label_loads(self, tmp_path):
        doc = _valid_doc()
        doc["activation"] = "\u03c1"
        path = tmp_path / "net.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        assert load_network(path).activation_name == "\u03c1"

    @pytest.mark.parametrize("data", [
        b"\x89PNG\r\n\x1a\n\x00\x00",
        compact_text(_valid_doc()).replace("relu", "\xe9").encode("latin-1"),
    ], ids=["png", "latin-1-label"])
    def test_other_bytes_are_refused(self, tmp_path, data):
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        path = tmp_path / "net.json"
        path.write_bytes(data)
        assert _refusal(load_network, path) == (
            f"bad network file: not UTF-8 text ({info.value})")


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

    @pytest.mark.parametrize("bad", [np.eye(2) + 1j, np.eye(2, dtype=bool),
                                     np.full((2, 2), "1")],
                             ids=["complex", "bool", "string"])
    def test_only_real_matrices_are_written(self, tmp_path, bad):
        # a complex matrix used to lose its imaginary part behind a warning
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match="^matrix must hold integers or "
                           f"real floats, got dtype {bad.dtype}$"):
            save_matrix(bad, path)
        assert not path.exists()

    @pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n"],
                             ids=["empty", "blank-lines", "comment"])
    def test_file_without_numbers_is_refused(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        message = f"^matrix file {re.escape(str(path))} holds no numbers$"
        with pytest.raises(ValueError, match=message):
            load_matrix(path)

    @pytest.mark.parametrize("text, cause", [
        ("1,2\n3\n", "the number of columns changed from 2 to 1"),
        ("1,2\n3,abc\n", "could not convert string 'abc'")],
        ids=["ragged", "not-a-number"])
    def test_file_that_is_not_a_table_of_numbers_is_refused(self, tmp_path,
                                                            text, cause):
        # numpy's own text named no file, and advised usecols, an argument
        # no caller has
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_matrix(path)
        message = str(caught.value)
        assert message.startswith(f"matrix file {path} is not rows of "
                                  f"numbers of one length: {cause}")
        assert "usecols" not in message

    @pytest.mark.parametrize("text, fault", [
        ("1,2\n\n3\n", "is not rows of numbers of one length: the number "
         "of columns changed from 2 to 1 at line 3"),
        ("# a comment\n1,abc\n", "is not rows of numbers of one length: "
         "could not convert string 'abc' to a number at line 2, column 2"),
        ("1, 2,\n", "is not rows of numbers of one length: could not "
         "convert string '' to a number at line 1, column 3"),
        ("nan,1\n", "holds 'nan' at line 1, column 1: matrix cells must be "
         "finite numbers"),
        ("1,2\n\n# x\n3, -inf # y\n", "holds '-inf' at line 4, column 2: "
         "matrix cells must be finite numbers"),
        ("0,1e400\n", "holds '1e400' at line 1, column 2: matrix cells "
         "must be finite numbers")],
        ids=["ragged", "not-a-number", "empty-cell", "nan", "inf",
             "overflow"])
    def test_faults_are_named_by_line_and_column(self, tmp_path, text,
                                                 fault):
        # numpy's row numbers were 1-based for a ragged row and 0-based for
        # a bad cell, and counted no skipped line; nan and inf were read
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_matrix(path)
        assert str(caught.value) == f"matrix file {path} {fault}"

    @pytest.mark.parametrize("cell, value", [
        (" 1.5", 1.5), ("+.5", 0.5), ("1.", 1.0), (".5", 0.5),
        ("1E-3", 1e-3), ("\t3", 3.0), ("-2", -2.0), ("\xa04\u2003", 4.0),
        ("\x1c5", 5.0), ("1_0", None), ("\u0661", None), ("0x10", None),
        ("1d3", None), ("1.5e", None), ("1 2", None)],
        ids=repr)
    def test_cells_are_read_as_numpy_spells_numbers(self, tmp_path, cell,
                                                    value):
        # float alone also reads 1_0 and digits such as \u0661, and refuses
        # the \x1c that numpy's reader strips as white space
        path = tmp_path / "x.csv"
        path.write_text(f"0,0\n0,{cell}\n", encoding="utf-8")
        if value is not None:
            assert load_matrix(path).tolist() == [[0, 0], [0, value]]
            return
        with pytest.raises(ValueError) as caught:
            load_matrix(path)
        assert str(caught.value) == (
            f"matrix file {path} is not rows of numbers of one length: could "
            f"not convert string {cell.strip()!r} to a number at line 2, "
            "column 2")

    def test_the_first_fault_in_the_file_is_named(self, tmp_path):
        # the file is read once, so a non-finite cell is named where it
        # comes before a cell that is not a number
        path = tmp_path / "x.csv"
        path.write_text("nan,1\n1,abc\n")
        with pytest.raises(ValueError, match="holds 'nan' at line 1, "):
            load_matrix(path)

    @staticmethod
    def _load_in_c_locale(path) -> str:
        """``load_matrix(path)`` in a process under the C locale, without
        Python's UTF-8 mode, which the C locale turns on: the matrix as a
        list, or the refusal."""
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "from strassennet.io import load_matrix\n"
                "try:\n"
                "    print(load_matrix(sys.argv[1]).tolist())\n"
                "except ValueError as exc:\n"
                "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return proc.stdout.rstrip("\n")

    def test_utf8_files_load_alike_in_every_locale(self, tmp_path):
        # under the C locale numpy decoded the file as ASCII, refusing
        # "# caf\xe9" as a cell it could not convert
        path = tmp_path / "x.csv"
        path.write_bytes("1,2 # caf\xe9\n3,4\n".encode("utf-8"))
        A = load_matrix(path)
        assert A.tolist() == [[1, 2], [3, 4]]
        assert self._load_in_c_locale(path) == str(A.tolist())

    def test_bytes_that_are_not_utf8_are_refused_in_every_locale(
            self, tmp_path):
        # numpy's own codec fault was relayed as a table fault
        data = b"1,2 # caf\xe9\n3,4\n"
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        path = tmp_path / "x.csv"
        path.write_bytes(data)
        message = f"matrix file {path} is not UTF-8 text ({info.value})"
        with pytest.raises(ValueError) as caught:
            load_matrix(path)
        assert str(caught.value) == message
        assert self._load_in_c_locale(path) == message

    @pytest.mark.parametrize("A, fault", [
        (np.zeros((0, 3)), "holds no numbers"),
        (np.zeros((2, 0)), "holds no numbers"),
        (np.array([[np.inf]]), "holds inf at row 1, column 1: matrix "
         "cells must be finite numbers"),
        (np.array([[1.0, 2.0], [3.0, np.nan]]), "holds nan at row 2, "
         "column 2: matrix cells must be finite numbers"),
        (np.array([[0.0, -np.inf, np.nan]]), "holds -inf at row 1, "
         "column 2: matrix cells must be finite numbers")],
        ids=["no-rows", "no-columns", "inf", "nan", "first-of-two"])
    def test_save_refuses_what_load_refuses(self, tmp_path, A, fault):
        # each was written, and the file then refused by load_matrix
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError) as caught:
            save_matrix(A, path)
        assert str(caught.value) == f"matrix {fault}"
        assert not path.exists()
