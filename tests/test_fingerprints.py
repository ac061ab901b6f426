"""Golden digests: the same builders must keep building the same networks.

Each case pins ``(num_weights, num_layers)``, the sha256 of its expanded
spelling (``conftest.expanded_document``, every layer with its own tables,
as files were written before copies lines) and the sha256 of the bytes
that ``save_network`` writes.  Either spelling holds every shape, index,
coefficient (by its ``repr``), bias entry and mask position of its
network, so a refactor that keeps these digests builds the same networks
and writes the same files.  A few networks, built and reloaded, also pin the sha256 of
the program ``core._compile`` makes of them, which holds only stored
numbers, so a refactor that keeps these digests runs the same program.
Evaluated floats are left out: they can depend on the platform's kernels.
To add a case, take its digest from the code before the change that
should keep it.
"""

import hashlib

import numpy as np
import pytest
from conftest import (compact_text, copies_by_blocks, expanded_document,
                      program_digest)
from scipy import sparse

from strassennet import core

from strassennet.core import identity_mnn, scale_output
from strassennet.gadgets import relu2_factory, relu_factory
from strassennet.inversion import InversionSpec, build_fill, build_inv, build_neu
from strassennet.io import (load_network, network_from_dict,
                            save_network)
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

#: case -> (num_weights, num_layers, sha256 of the expanded spelling)
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


#: case -> sha256 of the file ``save_network`` writes, in which a layer of
#: r > 1 copies of one block is a copies line, and a row stack of runs of
#: copied blocks, where that is shorter, a run line
FILES = {
    "fill-3-1":
        "92d54221a71fff1f310f30fb76e7e93f3ce26e92580bd6b86c5cce6282203a4d",
    "fill-3-4":
        "552fc17dd5b4b4ddf91a39d1d95b7a6ee905c9343546ef0f04be9306f53563b6",
    "identity-2x3-3":
        "1b59290c68b1bf99ea5815bd93e60b736b4f414e2bf3439ab61425ee5b9a3b0c",
    "inv-relu-n1-d0.5":
        "f2cb6ad02a876cd860d1798e162c2111c75b143bff5fc419c15f161e5a3ef269",
    "inv-relu-n1-d0.9":
        "a1b1a38772d8153adfacde24641f47d71b4524bc02d2b8951ff5ea92e0557d82",
    "inv-relu-n2-d0.5":
        "3412e6368ee2422b584e1bd1df1a9a83e6de321adcb9af40929787ec73f9cd4e",
    "inv-relu-n2-d0.9":
        "eac2f5b74b8e881180c5c780dbfc49d6d0ed47a73fe7a467839ad69f49174199",
    "inv-relu-n3-d0.5":
        "e06d8d4f77d2ed94ca0f7774fb3082af899a15bb040d2b894da6ebf68b8ac593",
    "inv-relu-n3-d0.9":
        "6574f1b0a8ae08236ebfdee4e76823376c6ec2b072937fc29cd78915127f3c6a",
    "inv-relu-n4-d0.5":
        "0e094e14ac4c94760aee3391d848c4a6d2df9816b9c0bb850cdfc4acb2d119f2",
    "inv-relu-n4-d0.9":
        "5cef06a667753d26b5261e990549fd61f4fc40ef7b44697b4cba71ef106d57dc",
    "inv-relu2-n1-d0.5":
        "22dd5d7c4e1d797976bb18be58e025e21611b228c9d6fa86243e506a0a8e1492",
    "inv-relu2-n1-d0.9":
        "84e7c5fd2078fafbeed8a10923042a3621ca216550b89bf16e993d58f45b53b1",
    "inv-relu2-n2-d0.5":
        "0c79c1c8bd37fb7dce783cf744e422056fc4ffb91ea74232101d5c39bc931132",
    "inv-relu2-n2-d0.9":
        "0a5f710af1128f76f88f58c6f9cfc49ac37bf8df82fcebd8511705f0c6b18bf5",
    "inv-relu2-n3-d0.5":
        "e5bc54b5db0dd3117beff1cbb509f59fa23a5525fe9cfb30510bd828a12dbc03",
    "inv-relu2-n3-d0.9":
        "b77830cdb773a6fbb024aa59e9b52789efbdcc3c73e02af0ec6502652d65fb02",
    "inv-relu2-n4-d0.5":
        "7537b55a383d4f52bf99fe2284bb58de203ba44cb5f14f0f5e31862d736beca2",
    "inv-relu2-n4-d0.9":
        "3b5871fcac7b2b273d15e92eb1a61bbc51e6c7434f9f7d10e7cb36e8bd409002",
    "neu-relu-2-2":
        "0b2d56645a59d9b32d1aa1c6e888baf41c2607ebfed9c77e1280e7d4cb0032ee",
    "neu-relu2-2-2":
        "c7650e7b4c51599b9e99e01b19aafbbc920fb52a8bf50337a978479a78163a21",
    "pow2-relu-k0":
        "1e65a39549f0a401e67e9149cc973fe2aa5b7882a80372571d1b858c5fe1a696",
    "pow2-relu-k1":
        "b8c424f0a2d696c4a5c112224962dadfc43ef78af1c2e76a8567236bd3bea317",
    "pow2-relu-k2":
        "55edd86d07ecec94ef1bd0b83809231305b01ff5c9bc4b6151a2726167b45c04",
    "pow2-relu-k3":
        "ffc9f3e7ad4b9e6734d255d6c02cfebb035bd99aaf966fe4d19d92fce1f961e7",
    "pow2-relu2-k0":
        "9c4804d3a5557995eb2c30a9ae14a0be5aac407c833e13817e51006544603421",
    "pow2-relu2-k1":
        "5651638cfe761a4041830c7aac8b53591a054bbe8e942219f6ed443b146106e2",
    "pow2-relu2-k2":
        "7c7abc62bdbe356df5d58261bd432a688feb28022c6c7f84ce794cae15f68522",
    "pow2-relu2-k3":
        "aec00171c57d7b960232294551f7a33fc38bcc23b030e53acd50762ba6dec1b8",
    "rect-relu-5x6x4":
        "046786b30e08a176823075c1ad423606573b9d5706d2898e8db5228ac74ac45c",
    "rect-relu2-5x6x4":
        "55c3454c95395ef2552f84ce3c9339c5315341c7db5461536b16f9cd15fdeb76",
    "square-relu-n3":
        "5eb49bd1390f4ad7319db63df23ca99f6704a0d4b98c01efc080207d702fc2af",
    "square-relu-n5":
        "3c458f66386fc35a9554fd683cf27bd43ad45510b58109ce1f8e0367fe0b5441",
    "square-relu2-n3":
        "6c8487a324ac4596cf10a8654aed8b610d1038b38a240200281486bcd689b144",
    "square-relu2-n5":
        "3a10d2e49ad5b2f5130260f5262050701f1f443d8eb5737e2e0ed26e867e25d3",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(FILES) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_network_same_file(name, tmp_path):
    net = CASES[name]()
    expanded = compact_text(expanded_document(net)).encode("utf-8")
    assert (net.num_weights, net.num_layers, _sha256(expanded)) == (
        DIGESTS[name])
    path = tmp_path / "net.json"
    save_network(net, path)
    assert _sha256(path.read_bytes()) == FILES[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_expanded_spelling_resaves_to_the_same_file(name, tmp_path):
    # loaded from its expanded spelling, every layer plain, a network
    # re-saves to its built twin's file: plain layers and records share
    # one run finder (io._units), so they write the same lines
    net = network_from_dict(expanded_document(CASES[name]()))
    assert all(layer._parts is None for layer in net.layers)
    path = tmp_path / "net.json"
    save_network(net, path)
    assert _sha256(path.read_bytes()) == FILES[name]


def _kron_reference(child, r):
    """``kron(I_r, child)``'s CSR arrays, bias and mask, by scipy's
    ``kron`` and numpy's ``vstack``."""
    op = sparse.kron(sparse.identity(r, format="csr"), child.map.matrix(),
                     format="csr")
    return {"indptr": op.indptr, "indices": op.indices, "val": op.data,
            "bias": np.vstack([child.bias] * r),
            "rho": np.vstack([child.mask.rho] * r)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_agree_with_their_arrays(name, tmp_path):
    # built and reloaded, a layer recorded as one run of r copies of a
    # child has the copy count of a block-by-block scan, found before any
    # array is tiled, and its arrays, tiled on their first read, are
    # kron(I_r, child)'s, in the child's dtypes, frozen.  Its child is not
    # itself a one-run record (a copy of a stack of several runs is)
    built = CASES[name]()
    save_network(built, tmp_path / "net.json")
    for net in (built, load_network(tmp_path / "net.json")):
        for layer in net.layers:
            copies = core._copies(layer)
            if layer._parts is not None and len(layer._parts) == 1:
                (child, r), = layer._parts
                assert child._parts is None or len(child._parts) > 1
                assert r > 1
                got = {"indptr": layer.map.indptr,
                       "indices": layer.map.indices, "val": layer.map.val,
                       "bias": layer.bias, "rho": layer.mask.rho}
                dtypes = {"indptr": child.map.indptr.dtype,
                          "indices": child.map.indices.dtype,
                          "val": child.map.val.dtype,
                          "bias": child.bias.dtype,
                          "rho": child.mask.rho.dtype}
                for key, want in _kron_reference(child, r).items():
                    assert got[key].dtype == dtypes[key], key
                    assert np.array_equal(got[key], want), key
                    assert not got[key].flags.writeable, key
                assert layer.weight_count == (
                    layer.map.nnz + np.count_nonzero(layer.bias))
            assert copies == copies_by_blocks(layer)


#: case -> sha256 of its compiled program (see ``conftest.program_digest``)
PROGRAMS = {
    "pow2-relu-k4": (
        lambda: build_str_pow2(4, 1e-3, 1.0, relu_factory),
        "515efead2f50c26ee5ffbe41b866f424c0ded204bac4e3dbc1fd06c8871ea09c"),
    "inv-relu-n8": (
        lambda: build_inv(InversionSpec(8, 1.0, 1e-3, 0.5), relu_factory),
        "0bc3980e45bcb9d6e278bbef18e45e3abd1cc6d3f89dff23995eecd15d4d0356"),
    "pow2-relu2-k2": (
        lambda: build_str_pow2(2, 1e-3, 1.0, relu2_factory),
        "e6d27ce33fa94204c0f615619506a33a00fd03b37f04e267a6a085fe351fcfa7"),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_same_network_same_program(name, tmp_path):
    make, digest = PROGRAMS[name]
    built = make()
    save_network(built, tmp_path / "net.json")
    loaded = load_network(tmp_path / "net.json")
    assert program_digest(built) == program_digest(loaded) == digest


@pytest.mark.parametrize("c", [1.0, -2.5])
def test_scale_output_keeps_the_last_maps_csr_arrays(c):
    net = build_inv(InversionSpec(2, 1.0, 1e-2, 0.5), relu_factory)
    last, scaled = net.layers[-1].map, scale_output(net, c).layers[-1].map
    assert scaled.indptr is last.indptr and scaled.indices is last.indices
    assert scaled.val.dtype == last.val.dtype
    assert scaled.val.tobytes() == (last.val * c).tobytes()
