"""On-disk formats: JSON for networks, CSV for matrices.

A network file is a JSON object with an ``activation`` label (a string, or
``null`` for a network without rho entries) and a list of layers.  Each
layer records its output/input shapes, the nonzero linear-map entries as
``[i, j, k, l, value]`` with 1-based indices, the nonzero bias entries as
``[i, j, value]``, and the mask positions where the activation is applied
as ``[i, j]``, each table in the row-major order ``SparseLinearMap`` keeps.
Loading refuses, naming the layer and the first offending entry, shapes
that are not integers >= 1, rows of the wrong length or holding
non-numbers, non-integer or out-of-range indices, and zero or non-finite
values.

Matrices travel as plain CSV, one row per line, full float precision.
"""

import json

import numpy as np

from .core import MNN, ActivationMask, Layer, SparseLinearMap

FORMAT_KEYS = ("activation", "layers")
LAYER_KEYS = ("out_rows", "out_cols", "in_rows", "in_cols",
              "entries", "bias", "mask_rho")
#: what a row of each layer table is called in messages, and its layout
TABLES = {"entries": ("entry", "[i, j, k, l, value]"),
          "bias": ("bias entry", "[i, j, value]"),
          "mask_rho": ("mask entry", "[i, j]")}


def _rows(positions: np.ndarray, values: np.ndarray) -> list:
    return [p + [v] for p, v in zip(positions.tolist(), values.tolist())]


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
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=1)
        fh.write("\n")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(f"bad network file: {msg}")


def _is_number(x) -> bool:
    """Whether numpy reads ``x`` as an int64 or a float64."""
    return type(x) is float or type(x) is int and -2**63 <= x < 2**63


def _read_table(spec: dict, pos: int, key: str, bounds) -> tuple:
    """Table ``key`` of layer ``pos`` as int64 1-based indices, each at most
    its bound, and the nonzero finite values of a value column (else empty),
    converted in one numpy call; the first bad row is refused by position."""
    rows, (what, fields) = spec[key], TABLES[key]
    _require(isinstance(rows, list), f"layer {pos} {key} must be a list")
    width = fields.count(",") + 1
    try:
        table = np.array(rows) if rows else np.empty((0, width))
    except ValueError:  # ragged rows
        table = np.empty(0)
    if table.shape != (len(rows), width) or table.dtype.kind not in "iuf":
        e = next(e for e, row in enumerate(rows)
                 if not (isinstance(row, list) and len(row) == width
                         and all(map(_is_number, row))))
        _require(False, f"layer {pos} {what} {e} must be {fields}, "
                        f"got {rows[e]!r:.60}")
    table = table.astype(float, copy=False)
    index, value = table[:, :len(bounds)], table[:, len(bounds):]
    checks = [(index == np.trunc(index), "has a non-integer index"),
              ((index >= 1) & (index <= bounds),
               f"has an index out of range (upper bounds {list(bounds)})"),
              (np.isfinite(value), "has a non-finite value"),
              (value != 0.0,
               "stores a zero (zero coefficients are not storable)")]
    good = np.all([ok.all(axis=1) for ok, _ in checks], axis=0)
    if not good.all():
        e = int(np.argmin(good))
        reason = next(text for ok, text in checks if not ok[e].all())
        _require(False, f"layer {pos} {what} {e} {rows[e]} {reason}")
    return index.astype(np.int64), value.reshape(-1)


def _dimension(spec: dict, pos: int, key: str) -> int:
    n = spec[key]
    _require(type(n) is int, f"layer {pos} {key} must be an integer, "
                             f"got {n!r}")
    _require(n >= 1, f"layer {pos} has non-positive dimensions "
                     f"({key} = {n})")
    return n


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
        out_shape = (_dimension(spec, pos, "out_rows"),
                     _dimension(spec, pos, "out_cols"))
        in_shape = (_dimension(spec, pos, "in_rows"),
                    _dimension(spec, pos, "in_cols"))
        idx, val = _read_table(spec, pos, "entries", out_shape + in_shape)
        at, values = _read_table(spec, pos, "bias", out_shape)
        bias = np.zeros(out_shape)
        bias[tuple(at.T - 1)] = values
        at, _ = _read_table(spec, pos, "mask_rho", out_shape)
        rho = np.zeros(out_shape, dtype=bool)
        rho[tuple(at.T - 1)] = True
        try:
            linmap = SparseLinearMap(out_shape, in_shape, idx, val)
        except ValueError as exc:
            raise ValueError(f"bad network file: layer {pos}: {exc}") from None
        layers.append(Layer(linmap, bias, ActivationMask(out_shape, rho)))
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
