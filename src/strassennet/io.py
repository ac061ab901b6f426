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
The writer formats each line straight from the layer's arrays, writing
every distinct number once with the text ``json.dumps`` gives it, so the
bytes are those of ``network_to_dict`` dumped layer by layer.
The reader streams a compact file: it parses and converts one layer line
at a time, so it never holds more than one layer's document.  Any other
JSON layout (indented files written by earlier versions, a layer split
over lines, text after ``]}``) goes through ``json.load`` and
``network_from_dict`` with the same messages, and re-saves compactly.
A compact file is judged in file order, so of several faults the first
one is named: a bad layer before invalid JSON on a later line.
Loading refuses, naming the layer and the first offending entry, shapes
that are not integers >= 1, rows of the wrong length or holding
non-numbers (booleans included), and whatever the one storage rule of
built networks refuses: non-integer or out-of-range indices, positions
repeated in the entries, bias or mask table, and zero or non-finite
values.  It refuses, naming the layer, what a network refuses of its
layer chain: an input shape other than the previous layer's output shape,
mask entries on the last layer, and mask entries under a null label.
Layers are numbered from 0 in every message.

Matrices travel as plain CSV, one row per line, full float precision.
"""

import gc
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


def network_to_dict(net: MNN) -> dict:
    """Plain-dict form of a network (the JSON document structure)."""
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


#: the compact layout's first line around the JSON label, and its last line
HEAD, HEAD_END, FOOT = '{"activation":', ',"layers":[\n', "]}\n"
LAYER_LINE = ('{"out_rows":%d,"out_cols":%d,"in_rows":%d,"in_cols":%d,'
              '"entries":[%s],"bias":[%s],"mask_rho":[%s]}')


def _spelled(numbers: np.ndarray, spell) -> np.ndarray:
    """``spell(x)`` for every number, as an object array of the same shape;
    each distinct number is spelled once."""
    distinct, at = np.unique(numbers, return_inverse=True)
    names = np.array([spell(x) for x in distinct.tolist()], dtype=object)
    return names[at.reshape(numbers.shape)]


def _table(positions: np.ndarray, values=None) -> str:
    """The text ``json.dumps`` gives a table's rows without spaces: ``str``
    writes an int and ``repr`` a float as its encoder does.  Stored values
    are nonzero and finite, so equal floats have one spelling."""
    cells = _spelled(positions, str)
    if values is not None:
        cells = np.hstack([cells, _spelled(values[:, None], repr)])
    row = "[" + ",".join(["%s"] * cells.shape[1]) + "]"
    return ",".join([row] * len(cells)) % tuple(cells.ravel().tolist())


def save_network(net: MNN, path) -> None:
    """Write ``network_to_dict(net)`` compactly, one line per layer.

    Each line is formatted from the layer's arrays, byte for byte what a
    separator-only ``json.dumps`` of its document gives, without building
    the document."""
    with open(path, "w") as fh:
        fh.write(HEAD + json.dumps(net.activation_name) + HEAD_END)
        lead = ""
        for layer in net.layers:
            lm, at = layer.map, np.argwhere(layer.bias)
            fh.write(lead)
            fh.write(LAYER_LINE % (
                *lm.out_shape, *lm.in_shape, _table(lm.idx, lm.val),
                _table(at + 1, layer.bias[tuple(at.T)]),
                _table(np.argwhere(layer.mask.rho) + 1)))
            lead = "\n,"
        fh.write("\n" + FOOT)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(f"bad network file: {msg}")


def _is_number(x) -> bool:
    """Whether numpy reads ``x`` as an int64 or a float64."""
    return type(x) is float or type(x) is int and -2**63 <= x < 2**63


def _read_table(spec: dict, key: str, scan: bool) -> np.ndarray:
    """Table ``key`` of a layer converted in one numpy call; the first row
    of the wrong length or holding a non-number is refused by position.
    numpy reads a boolean among numbers as 0 or 1, so a table that may hold
    one is ``scan``ned row by row."""
    rows, (what, fields) = spec[key], TABLES[key]
    if not isinstance(rows, list):
        raise ValueError(f"{key} must be a list")
    width = fields.count(",") + 1

    def fits(row) -> bool:
        return (isinstance(row, list) and len(row) == width
                and all(map(_is_number, row)))

    try:
        table = np.array(rows) if rows else np.empty((0, width))
    except ValueError:  # ragged rows
        table = np.empty(0)
    if (table.shape != (len(rows), width) or table.dtype.kind not in "iuf"
            or scan and not all(map(fits, rows))):
        e = next(e for e, row in enumerate(rows) if not fits(row))
        raise ValueError(f"{what} {e} must be {fields}, got {rows[e]!r:.60}")
    return table


def _layer(pos: int, spec, scan: bool = True) -> Layer:
    """Layer ``pos`` from its JSON object, refused like a built one;
    ``scan=False`` when its text holds no ``true`` or ``false``."""
    _require(isinstance(spec, dict), f"layer {pos} must be an object")
    for key in LAYER_KEYS:
        _require(key in spec, f"layer {pos} missing key {key!r}")
    out_keys, in_keys = LAYER_KEYS[:2], LAYER_KEYS[2:4]
    try:
        out_shape = _as_shape([spec[key] for key in out_keys], out_keys)
        in_shape = _as_shape([spec[key] for key in in_keys], in_keys)
        entries, bias_rows, mask_rows = (_read_table(spec, key, scan)
                                         for key in TABLES)
        linmap = SparseLinearMap(out_shape, in_shape, entries[:, :4],
                                 entries[:, 4])
        key, values = _stored_rows(TABLES["bias"][0], bias_rows[:, :2],
                                   out_shape, bias_rows[:, 2])
        bias = np.zeros(out_shape)
        bias.reshape(-1)[key] = values
        return Layer(linmap, bias,
                     ActivationMask.from_positions(out_shape, mask_rows))
    except ValueError as exc:
        raise ValueError(f"bad network file: layer {pos} {exc}") from None


def _append(layers: list, layer: Layer, label) -> None:
    """Append ``layer`` to ``layers`` unless it does not read the previous
    layer's output or has rho entries under a null label."""
    pos = len(layers)
    if layers and layer.in_shape != layers[-1].out_shape:
        raise ValueError(
            f"bad network file: layer {pos} input shape "
            f"{tuple(layer.in_shape)} does not match layer {pos - 1} output "
            f"shape {tuple(layers[-1].out_shape)}")
    _require(label is not None or not layer.mask.any_rho,
             f"layer {pos} has rho entries but the activation is null")
    layers.append(layer)


def _last(layers: list) -> None:
    """Refuse rho entries on the last of the complete ``layers``."""
    _require(not layers[-1].mask.any_rho,
             f"layer {len(layers) - 1} has rho entries, but the final layer "
             "must be identity-activated")


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
        _append(layers, _layer(pos, spec), label)
    _last(layers)
    return MNN(layers, label)


def _read_compact(fh):
    """The network in a compact file, parsed and converted one layer line
    at a time, or None when the file is laid out otherwise: then only
    ``json.load`` can tell a valid document from invalid JSON."""
    head = fh.readline()
    if not (head.startswith(HEAD) and head.endswith(HEAD_END)):
        return None
    try:
        label = json.loads(head[len(HEAD):-len(HEAD_END)])
    except json.JSONDecodeError:
        return None
    if not (label is None or isinstance(label, str)):
        return None
    layers = []
    for line in iter(fh.readline, ""):
        if line == FOOT:
            break
        if layers and not line.startswith(","):
            return None
        try:
            spec = json.loads(line[1:] if layers else line)
        except json.JSONDecodeError:
            return None
        scan = "true" in line or "false" in line
        _append(layers, _layer(len(layers), spec, scan), label)
    else:  # no closing line
        return None
    if not layers:
        return None
    _last(layers)  # the closing line ends the layers, before any more text
    if fh.read(1):
        return None
    return MNN(layers, label)


def load_network(path) -> MNN:
    """The network in file ``path``, refused with ``bad network file: ...``.

    The cyclic garbage collector is paused meanwhile: parsed tables are
    lists of numbers, which form no cycles, and its passes over them took
    about half of the parse time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            net = _read_compact(fh)
            if net is not None:
                return net
            fh.seek(0)
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"bad network file: not valid JSON ({exc})") from None
        return network_from_dict(doc)
    finally:
        if enabled:
            gc.enable()


def save_matrix(A: np.ndarray, path) -> None:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix files hold 2-d arrays")
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def load_matrix(path) -> np.ndarray:
    A = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return A
