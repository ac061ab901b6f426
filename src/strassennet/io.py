"""On-disk formats: JSON for networks, CSV for matrices.

A network file is a JSON object with an ``activation`` label (``null`` for a
network without rho entries) and a list of layers.  Each layer records its
output/input shapes, the nonzero linear-map entries as ``[i, j, k, l, value]``
with 1-based indices, the nonzero bias entries as ``[i, j, value]``, and the
mask positions where the activation is applied as ``[i, j]``.  Entries are
written sorted for reproducible files; loading validates shapes and indices
and rejects anything malformed.

Matrices travel as plain CSV, one row per line, full float precision.
"""

import json

import numpy as np

from .core import MNN, ActivationMask, Layer, SparseLinearMap

FORMAT_KEYS = ("activation", "layers")
LAYER_KEYS = ("out_rows", "out_cols", "in_rows", "in_cols",
              "entries", "bias", "mask_rho")


def network_to_dict(net: MNN) -> dict:
    """Plain-dict form of a network (the JSON document structure)."""
    layers = []
    for layer in net.layers:
        lm = layer.map
        entries = sorted(map(list, lm.entries))
        bias = []
        if layer.bias is not None:
            for (r, c) in np.argwhere(layer.bias != 0.0):
                bias.append([int(r) + 1, int(c) + 1, float(layer.bias[r, c])])
        bias.sort()
        mask_rho = sorted([int(i), int(j)] for i, j in layer.mask.rho_positions)
        layers.append({
            "out_rows": lm.out_shape.rows, "out_cols": lm.out_shape.cols,
            "in_rows": lm.in_shape.rows, "in_cols": lm.in_shape.cols,
            "entries": entries, "bias": bias, "mask_rho": mask_rho,
        })
    return {"activation": net.activation_name, "layers": layers}


def save_network(net: MNN, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=1)
        fh.write("\n")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(f"bad network file: {msg}")


def network_from_dict(doc: dict) -> MNN:
    """Rebuild a network from its JSON document structure."""
    _require(isinstance(doc, dict), "top level must be an object")
    for key in FORMAT_KEYS:
        _require(key in doc, f"missing key {key!r}")
    _require(isinstance(doc["layers"], list) and doc["layers"],
             "layers must be a nonempty list")
    layers = []
    for pos, spec in enumerate(doc["layers"]):
        _require(isinstance(spec, dict), f"layer {pos} must be an object")
        for key in LAYER_KEYS:
            _require(key in spec, f"layer {pos} missing key {key!r}")
        out_shape = (int(spec["out_rows"]), int(spec["out_cols"]))
        in_shape = (int(spec["in_rows"]), int(spec["in_cols"]))
        _require(min(out_shape) >= 1 and min(in_shape) >= 1,
                 f"layer {pos} has non-positive dimensions")
        raw = spec["entries"]
        _require(isinstance(raw, list), f"layer {pos} entries must be a list")
        idx = np.zeros((len(raw), 4), dtype=np.int64)
        val = np.zeros(len(raw))
        for e, item in enumerate(raw):
            _require(isinstance(item, list) and len(item) == 5,
                     f"layer {pos} entry {e} must be [i, j, k, l, value]")
            idx[e] = item[:4]
            val[e] = item[4]
        bias = None
        if spec["bias"]:
            bias = np.zeros(out_shape)
            for e, item in enumerate(spec["bias"]):
                _require(isinstance(item, list) and len(item) == 3,
                         f"layer {pos} bias entry {e} must be [i, j, value]")
                i, j, v = int(item[0]), int(item[1]), float(item[2])
                _require(1 <= i <= out_shape[0] and 1 <= j <= out_shape[1],
                         f"layer {pos} bias entry {e} out of range")
                _require(v != 0.0, f"layer {pos} bias entry {e} stores a zero")
                bias[i - 1, j - 1] = v
        mask = None
        if spec["mask_rho"]:
            pairs = []
            for e, item in enumerate(spec["mask_rho"]):
                _require(isinstance(item, list) and len(item) == 2,
                         f"layer {pos} mask entry {e} must be [i, j]")
                pairs.append((int(item[0]), int(item[1])))
            try:
                mask = ActivationMask.from_positions(out_shape, pairs)
            except ValueError as exc:
                raise ValueError(
                    f"bad network file: layer {pos} mask {exc}") from None
        try:
            linmap = SparseLinearMap(out_shape, in_shape, idx, val)
        except ValueError as exc:
            raise ValueError(f"bad network file: layer {pos}: {exc}") from None
        layers.append(Layer(linmap, bias, mask))
    label = doc["activation"]
    return MNN(layers, None if label is None else str(label))


def load_network(path) -> MNN:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad network file: not valid JSON ({exc})") from None
    return network_from_dict(doc)


def save_matrix(A: np.ndarray, path) -> None:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix files hold 2-d arrays")
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def load_matrix(path) -> np.ndarray:
    A = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return A
