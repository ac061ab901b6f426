import hashlib
import json
import math

import numpy as np
import pytest

from strassennet import core


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def gauss_with_norm(rng, n, bound):
    """Random n x n matrix scaled to spectral norm exactly `bound`."""
    A = rng.standard_normal((n, n))
    if n == 1:
        return A * (bound / abs(float(A[0, 0])))
    return A * (bound / np.linalg.norm(A, 2))


def compact_text(doc) -> str:
    """A document in the compact layout, one separator-only ``json.dumps``
    per layer: the reference that ``save_network``'s bytes must match."""
    lines = [json.dumps(layer, separators=(",", ":"))
             for layer in doc["layers"]]
    return (f'{{"activation":{json.dumps(doc["activation"])},"layers":[\n'
            + "\n,".join(lines) + ("\n" if lines else "") + "]}\n")


def expanded_document(net) -> dict:
    """The document of ``net`` with every layer's own tables, and no
    copies line: the form every file took before copies lines, whose
    ``compact_text`` is the file those versions wrote."""
    layers = []
    for layer in net.layers:
        lm = layer.map
        at = np.argwhere(layer.bias)
        bias = zip((at + 1).tolist(), layer.bias[tuple(at.T)].tolist())
        layers.append({
            "out_rows": lm.out_shape.rows, "out_cols": lm.out_shape.cols,
            "in_rows": lm.in_shape.rows, "in_cols": lm.in_shape.cols,
            "entries": [[*p, v] for p, v in zip(lm.idx.tolist(),
                                                 lm.val.tolist())],
            "bias": [[*p, v] for p, v in bias],
            "mask_rho": (np.argwhere(layer.mask.rho) + 1).tolist(),
        })
    return {"activation": net.activation_name, "layers": layers}


def program_digest(net) -> str:
    """The sha256 of ``core._compile(net)``: every field of every step, an
    array by its dtype, shape and bytes and anything else by its ``repr``,
    then the tile and the height."""
    steps, tile, height = core._compile(net)
    h = hashlib.sha256()
    for field in [*(field for step in steps for field in step), tile, height]:
        if isinstance(field, np.ndarray):
            h.update(f"{field.dtype}{field.shape}".encode())
            h.update(field.tobytes())
        else:
            h.update(repr(field).encode())
    return h.hexdigest()


def copies_by_blocks(layer):
    """The largest r, over every divisor of the gcd of the sizes and the
    entry count, for which every block of the layer's rows, entries, bias
    and mask equals the first block, its input positions moved by whole
    input blocks, and the first block reads only its own input block."""
    m = layer.map
    arrays = (np.diff(m.indptr), m.val, layer.bias.reshape(-1),
              layer.mask.rho.reshape(-1))
    best = 1
    for r in range(2, math.gcd(m.out_shape.size, m.in_shape.size, m.nnz) + 1):
        bi = m.in_shape.size // r
        if m.out_shape.size % r or m.in_shape.size % r or m.nnz % r:
            continue
        cols = m.indices.reshape(r, -1) - bi * np.arange(r)[:, None]
        if (all((a.reshape(r, -1) == a.reshape(r, -1)[0]).all()
                for a in (*arrays, cols))
                and (cols[0] < bi).all()):
            best = r
    return best
