"""On-disk formats: JSON for networks, CSV for matrices.

A network file is a JSON object with an ``activation`` label (a string, or
``null`` for a network without rho entries) and a list of layers.  Each
layer records its output/input shapes, the nonzero linear-map entries as
``[i, j, k, l, value]`` with 1-based indices, the nonzero bias entries as
``[i, j, value]``, and the mask positions where the activation is applied
as ``[i, j]``, each table in the row-major order ``SparseLinearMap`` keeps.
Files are written compactly, one line per layer: a header line
``{"activation":<label>,"layers":[``, then each layer as one JSON object
without whitespace, every one after the first led by a comma, then ``]}``.
The loader parses any JSON layout, so indented files written by earlier
versions still load, and re-save in the compact layout.
Loading refuses, naming the layer and the first offending entry, shapes
that are not integers >= 1, rows of the wrong length or holding
non-numbers, and whatever the one storage rule of built networks refuses:
non-integer or out-of-range indices, positions repeated in the entries,
bias or mask table, and zero or non-finite values.

Matrices travel as plain CSV, one row per line, full float precision.
"""

import json

import numpy as np

from .core import (MNN, ActivationMask, Layer, SparseLinearMap, _as_shape,
                   _stored_rows)

FORMAT_KEYS = ("activation", "layers")
LAYER_KEYS = ("out_rows", "out_cols", "in_rows", "in_cols",
              "entries", "bias", "mask_rho")
#: what a row of each layer table is called in messages, and its layout
TABLES = {"entries": ("entry", "[i, j, k, l, value]"),
          "bias": ("bias entry", "[i, j, value]"),
          "mask_rho": ("mask entry", "[i, j]")}


def _rows(positions: np.ndarray, values: np.ndarray) -> list:
    # one object table gives rows of exactly their length; appending to
    # ``positions.tolist()`` rows would over-allocate every one of them
    table = np.empty((len(values), positions.shape[1] + 1), dtype=object)
    table[:, :-1] = positions
    table[:, -1] = values
    return table.tolist()


def network_to_dict(net: MNN) -> dict:
    """Plain-dict form of a network (the JSON document structure)."""
    layers = []
    for layer in net.layers:
        lm = layer.map
        at = np.argwhere(layer.bias)
        layers.append({
            "out_rows": lm.out_shape.rows, "out_cols": lm.out_shape.cols,
            "in_rows": lm.in_shape.rows, "in_cols": lm.in_shape.cols,
            "entries": _rows(lm.idx, lm.val),
            "bias": _rows(at + 1, layer.bias[tuple(at.T)]),
            "mask_rho": (np.argwhere(layer.mask.rho) + 1).tolist(),
        })
    return {"activation": net.activation_name, "layers": layers}


def save_network(net: MNN, path) -> None:
    """Write ``network_to_dict(net)`` compactly, one line per layer.

    Each layer is one separator-only ``json.dumps``, which CPython runs in
    its C encoder (any ``indent`` falls back to the pure-Python one)."""
    doc = network_to_dict(net)
    with open(path, "w") as fh:
        fh.write(f'{{"activation":{json.dumps(doc["activation"])},"layers":[')
        lead = "\n"
        for layer in doc["layers"]:
            fh.write(lead)
            fh.write(json.dumps(layer, separators=(",", ":")))
            lead = "\n,"
        fh.write("\n]}\n")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(f"bad network file: {msg}")


def _is_number(x) -> bool:
    """Whether numpy reads ``x`` as an int64 or a float64."""
    return type(x) is float or type(x) is int and -2**63 <= x < 2**63


def _read_table(spec: dict, key: str) -> np.ndarray:
    """Table ``key`` of a layer converted in one numpy call; the first row
    of the wrong length or holding a non-number is refused by position."""
    rows, (what, fields) = spec[key], TABLES[key]
    if not isinstance(rows, list):
        raise ValueError(f"{key} must be a list")
    width = fields.count(",") + 1
    try:
        table = np.array(rows) if rows else np.empty((0, width))
    except ValueError:  # ragged rows
        table = np.empty(0)
    if table.shape != (len(rows), width) or table.dtype.kind not in "iuf":
        e = next(e for e, row in enumerate(rows)
                 if not (isinstance(row, list) and len(row) == width
                         and all(map(_is_number, row))))
        raise ValueError(f"{what} {e} must be {fields}, got {rows[e]!r:.60}")
    return table


def _layer(spec: dict) -> Layer:
    """One layer from its JSON object, refused like a built one."""
    out_keys, in_keys = LAYER_KEYS[:2], LAYER_KEYS[2:4]
    out_shape = _as_shape([spec[key] for key in out_keys], out_keys)
    in_shape = _as_shape([spec[key] for key in in_keys], in_keys)
    entries, bias_rows, mask_rows = (_read_table(spec, key) for key in TABLES)
    linmap = SparseLinearMap(out_shape, in_shape, entries[:, :4], entries[:, 4])
    at, values = _stored_rows(TABLES["bias"][0], bias_rows[:, :2], out_shape,
                              bias_rows[:, 2])
    bias = np.zeros(out_shape)
    bias[tuple(at.T - 1)] = values
    return Layer(linmap, bias, ActivationMask.from_positions(out_shape,
                                                             mask_rows))


def network_from_dict(doc: dict) -> MNN:
    """Rebuild a network from its JSON document structure."""
    _require(isinstance(doc, dict), "top level must be an object")
    for key in FORMAT_KEYS:
        _require(key in doc, f"missing key {key!r}")
    label = doc["activation"]
    _require(label is None or isinstance(label, str),
             f"activation must be a string or null, got {label!r}")
    _require(isinstance(doc["layers"], list) and doc["layers"],
             "layers must be a nonempty list")
    layers = []
    for pos, spec in enumerate(doc["layers"]):
        _require(isinstance(spec, dict), f"layer {pos} must be an object")
        for key in LAYER_KEYS:
            _require(key in spec, f"layer {pos} missing key {key!r}")
        try:
            layers.append(_layer(spec))
        except ValueError as exc:
            raise ValueError(f"bad network file: layer {pos} {exc}") from None
    return MNN(layers, label)


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
