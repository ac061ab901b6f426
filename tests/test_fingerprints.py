"""Golden digests: the same builders must keep building the same networks.

Each case pins ``(num_weights, num_layers)`` and the sha256 of the bytes
that ``save_network`` writes.  A file holds every shape, index, coefficient
(by its ``repr``), bias entry and mask position of its network, so a
refactor that keeps these digests builds the same networks and writes the
same files.  Evaluated floats are left out: they can depend on the
platform's kernels.  To add a case, take its digest from the code before
the change that should keep it.
"""

import hashlib

import numpy as np
import pytest

from strassennet.core import identity_mnn, scale_output
from strassennet.gadgets import relu2_factory, relu_factory
from strassennet.inversion import InversionSpec, build_fill, build_inv, build_neu
from strassennet.io import save_network
from strassennet.strassen import (RectShape, build_str_pow2, build_str_rect,
                                  build_str_square)

FACTORIES = {"relu": relu_factory, "relu2": relu2_factory}


def _cases() -> dict:
    """Case name -> a function building its network."""
    cases = {"fill-3-1": lambda: build_fill(3, 1),
             "fill-3-4": lambda: build_fill(3, 4),
             "identity-2x3-3": lambda: identity_mnn((2, 3), 3)}
    for g, f in FACTORIES.items():
        for k in range(4):
            cases[f"pow2-{g}-k{k}"] = (
                lambda k=k, f=f: build_str_pow2(k, 1e-3, 1.0, f))
        cases[f"rect-{g}-5x6x4"] = (
            lambda f=f: build_str_rect(RectShape(5, 6, 4), 1e-3, 1.0, f))
        for n in (3, 5):
            cases[f"square-{g}-n{n}"] = (
                lambda n=n, f=f: build_str_square(n, 1e-3, 1.0, f))
        for n in range(1, 5):
            for delta in (0.5, 0.9):
                cases[f"inv-{g}-n{n}-d{delta}"] = (
                    lambda n=n, delta=delta, f=f: build_inv(
                        InversionSpec(n, 1.0, 1e-2, delta), f))
        cases[f"neu-{g}-2-2"] = lambda f=f: build_neu(2, 2, 0.05, f)
    return cases


CASES = _cases()

#: case -> (num_weights, num_layers, sha256 of the saved file)
DIGESTS = {
    "fill-3-1": (12, 1,
        "92d54221a71fff1f310f30fb76e7e93f3ce26e92580bd6b86c5cce6282203a4d"),
    "fill-3-4": (39, 4,
        "5684410ac7c3549836034f3ed0c02258c9328fdac57793c9d020a798f9f6e4b3"),
    "identity-2x3-3": (18, 3,
        "9ce5d0bdcf41526d6b950862449aa441cb5445fd6efb2180033ea30d2733e64c"),
    "inv-relu-n1-d0.5": (1205, 69,
        "b35757b3089a8d44b7a0d5c3ea760f948f2294a7f254a9c0a71641ad818248c4"),
    "inv-relu-n1-d0.9": (12526, 512,
        "2c333c14bf7fc4934e96ac4783cfed4690a9f65f353743c46896c9d204b4e706"),
    "inv-relu-n2-d0.5": (10392, 89,
        "5d5c55ef2c5d997d5c875291b4c99234848c2ab67ff0fccac90bff54ce46ade4"),
    "inv-relu-n2-d0.9": (91472, 547,
        "6de6a9bf641c12809b8612be03e4b2a0c7665d9e45e64a59e89cfd2914820563"),
    "inv-relu-n3-d0.5": (81402, 105,
        "0ba960932437390330fe5288d370c5921886efbd556ed44d0fbad803dd49488e"),
    "inv-relu-n3-d0.9": (656979, 575,
        "5dd127dde49a4ea126f8e125fbe4b6c79d3a1960c1c45a78730a30874b95e8dd"),
    "inv-relu-n4-d0.5": (81806, 105,
        "2972392e5a97cbcdc6076c039c3090c4da35fb887b9f98c97b429c781ba0618f"),
    "inv-relu-n4-d0.9": (657988, 575,
        "6d996c63b5cb43330df17c3d49ad4ec99c3e254d9bdbbc01d9b21e0c3576bda4"),
    "inv-relu2-n1-d0.5": (113, 21,
        "cc36508f8c3c2e8355e55d49aa5b3bb372ba803f98f96c40a4434d6427507889"),
    "inv-relu2-n1-d0.9": (218, 36,
        "6e084d7ad5d707ef5a4374d83250b84544a0646c7fe68c4c6de1feca8d8b53b5"),
    "inv-relu2-n2-d0.5": (882, 29,
        "b32504c4f36bc6932ff8944a62bb00afd9b0ab6b49292b7e55d0036428c5dcbb"),
    "inv-relu2-n2-d0.9": (1728, 50,
        "d0432c395e4b2b60c9076cf463dfc808028b06f8f51f69ff3fb6fe9ce3654de6"),
    "inv-relu2-n3-d0.5": (6279, 37,
        "bd905e337c8bc287f79e2c8401ef633a022672af0649d3555902f829785104f6"),
    "inv-relu2-n3-d0.9": (12462, 64,
        "f64ebb405c6a1a3f7cba13c5d136311e55b7e7838c18abfcec19a8f12ff9a741"),
    "inv-relu2-n4-d0.5": (6564, 37,
        "5fd2caf4de20499104d2498e51f1b803dda43830ea19fc6da30e91e2606eaaa5"),
    "inv-relu2-n4-d0.9": (12960, 64,
        "a9bf613f58152e7b63724b51aeee2c13ef10e66b81f743ffc7aa1cc5aad362b6"),
    "neu-relu-2-2": (1810, 28,
        "33240b4b2aca7d48379290aef1338426d7e69d6d215808a5e0159d65ea1497bd"),
    "neu-relu2-2-2": (312, 14,
        "2c7290e3393c3a9c54c817b0e5f12d5afff4abe527b62b529dabd2ed2157b526"),
    "pow2-relu-k0": (87, 7,
        "1e65a39549f0a401e67e9149cc973fe2aa5b7882a80372571d1b858c5fe1a696"),
    "pow2-relu-k1": (855, 11,
        "ddddbfb5882bf9865881af52d88a2af0ccfe681bfc38bfaad907daf18e90e954"),
    "pow2-relu-k2": (7599, 15,
        "a92415112a21aeb490d6636ebe6a477feac877c2bd6faa13afbb7c21bcd58b74"),
    "pow2-relu-k3": (64059, 19,
        "36436457a4d05faca8c1804d1f510d8de8c6932177f618f165e2f5a5b68d8512"),
    "pow2-relu2-k0": (12, 2,
        "9c4804d3a5557995eb2c30a9ae14a0be5aac407c833e13817e51006544603421"),
    "pow2-relu2-k1": (120, 4,
        "a9c9118834b5467a43b4a8c3ac13b6ee65ceb5cb2d069af8f5033abc0da1eb5d"),
    "pow2-relu2-k2": (984, 6,
        "cea1b91f8d1aede7eaca2aa21a5ba56e56d40984bcf408df8b17ec756b952827"),
    "pow2-relu2-k3": (7464, 8,
        "920d5089d74124484ad820b2bc7b699700666f1d6c153f1ddf7d17d7e1bd9d30"),
    "rect-relu-5x6x4": (64133, 21,
        "6e29384218c90de64ea4c512b12289addd7c8417e4a78232cc707561af93d4a9"),
    "rect-relu2-5x6x4": (7538, 10,
        "0596a6ae5261b82bcc9f228bdb0c2dca39e760c5ec6e5da85ecba9d26627b295"),
    "square-relu-n3": (7626, 17,
        "06dc3cf3ea76db10282ef5656c3545e51ebb267af2cae1950ff8c0f3a2d0221a"),
    "square-relu-n5": (64134, 21,
        "b579f45c85a2e5620be68b3cbfdfab5d249dbf4d1335840fc72b1a531d6cfc1e"),
    "square-relu2-n3": (1011, 8,
        "39f853ca127aeb2fceda99f0e88c5f339ab8ae70a5285545318a4620051a670d"),
    "square-relu2-n5": (7539, 10,
        "2f5432b0d9e50cbae03e66aa78aa7ee8a53c63234e712c6dbd9e92422c9fbed8"),
}


def _fingerprint(net, path):
    save_network(net, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    path.unlink()
    return net.num_weights, net.num_layers, digest


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_network_same_file(name, tmp_path):
    net = CASES[name]()
    assert _fingerprint(net, tmp_path / "net.json") == DIGESTS[name]


@pytest.mark.parametrize("c", [1.0, -2.5])
def test_scale_output_keeps_the_last_maps_csr_arrays(c):
    net = build_inv(InversionSpec(2, 1.0, 1e-2, 0.5), relu_factory)
    last, scaled = net.layers[-1].map, scale_output(net, c).layers[-1].map
    assert scaled.indptr is last.indptr and scaled.indices is last.indices
    assert scaled.val.dtype == last.val.dtype
    assert scaled.val.tobytes() == (last.val * c).tobytes()
