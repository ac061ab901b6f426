"""On-disk formats: JSON for networks, CSV for matrices.

A network file is a JSON object with an ``activation`` label (a string, or
``null`` for a network without rho entries) and a list of layers.  Each
layer records its output/input shapes, the nonzero linear-map entries as
``[i, j, k, l, value]`` with 1-based indices, the nonzero bias entries as
``[i, j, value]``, and the mask positions where the activation is applied
as ``[i, j]``, each table in the row-major order ``SparseLinearMap`` keeps.
A layer that is ``kron(I_r, B)``, r > 1 copies of one block B along the
diagonal of its flattened operator, as most layers of a Strassen
multiplier are, is a copies line: its own four shape fields, ``"copies":
r`` and, under ``"block"``, B's three tables.  The writer takes r as the
gcd of ``core._copies``' count and both row counts, so B has the shape
``(out_rows / r, out_cols) <- (in_rows / r, in_cols)``.  Both readers
check r by the size rule (an integer >= 2) and its division of both row
counts, read B at its own shape by the one storage rule, so that an entry
outside B's block is refused by name, and rebuild the layer by
``combinators._stack_layers([B] * r)``'s tiling, whose arrays are those
of the built layer.  A copies line holds no ``entries`` key of its own,
so a reader that predates it refuses it (``missing key 'entries'``);
unknown keys are refused too, at every level, so a later field cannot be
ignored.  A file without copies lines, as earlier versions wrote every
file, loads as before.
Files are written compactly, one line per layer: a header line
``{"activation":<label>,"layers":[``, then each layer as one JSON object
without whitespace, every one after the first led by a comma, then ``]}``.
The writer formats each line straight from the layer's arrays, so the
bytes are those of ``network_to_dict`` dumped layer by layer.  Each table
is one join over its cells, every cell spelled with the text
``json.dumps`` gives its number and carrying its separators (``,[``
before a row's first cell, ``,`` before the others, ``]`` after the last).
An index column whose largest index ``top`` is no larger than the column
reads its cells from a table of ``str(0..top)``, one per lead and tail,
made once per file and grown as the layers need it, so that table never
outgrows the cells of a column that used it; any other column spells its
distinct numbers once, through ``np.unique``.  Each distinct layer
object is spelled once, and its line written again at each later position
of a network that holds it more than once, as built networks do.
A compact file is read by numpy's text parser (``np.loadtxt``), one
layer line at a time, without building its document: each table in one
call, its positions as int64 and its values as float64.  Each distinct
line is parsed once, and every later equal line gets the same ``Layer``
object, so a loaded network shares layers exactly where its lines are
equal; a repeat is confirmed by reading the first line again, so no
line's text is kept.  That reader only accepts: a file laid out as
``save_network`` writes it, whose tables hold only numbers spelled as JSON spells them (no whitespace, words or quotes,
no ``+1``, ``.5``, ``1.`` or ``01``, no integer of 19 digits or more),
whose positions are integers within int64 (no ``2.0`` or ``1e0``),
whose shapes are below 2^53 and whose network every rule below takes.
Positions are read exactly, as ``json`` reads an integer; values are
rounded from their text by ``PyOS_string_to_double`` in both parsers, so
the floats are the same.  Every other file (indented ones written by
earlier versions, a layer split over lines, text after ``]}``, any
fault) is read whole by ``json.load`` and ``network_from_dict``, whose
refusal is the same for every layout:
invalid JSON (nesting too deep included) first, then the first fault in
document order.  Network files are UTF-8 text, whatever the locale;
other bytes are refused.
Loading only parses: it refuses, naming the layer and the first offending
entry, a missing or unknown key, shape fields that are not integers >= 1
(the size rule ``core._count``), a copies count that is not an integer
>= 2 or does not divide both row counts, and rows of the wrong length or
holding non-numbers (booleans included).  Everything else is refused by
the rules of ``core``, which built networks follow too, with core's text
after ``bad network file: ``: the storage rule of a layer's tables (after
``layer L ``, or ``layer L block `` in a copies line), and the label,
layer-chain and final-layer rules of a network, the chain checked as each
layer arrives.

Matrices travel as plain CSV, one row per line, full float precision.
Only real matrices are written, and a file with no numbers is refused.
"""

import json
import math
import re
import warnings
from collections import Counter

import numpy as np

from .combinators import _stack_layers
from .core import (MNN, ActivationMask, Layer, MatrixShape, SparseLinearMap,
                   _chain, _copies, _count, _label, _real, _stored_rows)

FORMAT_KEYS = ("activation", "layers")
SHAPE_KEYS = ("out_rows", "out_cols", "in_rows", "in_cols")
#: what a row of each layer table is called in messages, and its layout
TABLES = {"entries": ("entry", "[i, j, k, l, value]"),
          "bias": ("bias entry", "[i, j, value]"),
          "mask_rho": ("mask entry", "[i, j]")}
LAYER_KEYS = (*SHAPE_KEYS, *TABLES)
#: a copies line: the layer's shape, its copy count r and, under
#: ``block``, the tables of its block B
COPIES_KEYS = (*SHAPE_KEYS, "copies", "block")
TABLE_WIDTH = {key: fields.count(",") + 1
               for key, (_, fields) in TABLES.items()}
#: the tables whose last column is a value; the mask holds positions only
VALUED = {key for key, (_, fields) in TABLES.items() if "value" in fields}
#: the record numpy's text parser reads a row of each table into: the
#: 1-based positions as int64 and the value, if any, as float64
ROW_DTYPE = {key: np.dtype([("at", np.int64, (width - 1,)),
                            ("value", np.float64)] if key in VALUED
                           else [("at", np.int64, (width,))])
             for key, width in TABLE_WIDTH.items()}


def _blocked(layer: Layer):
    """``(r, B)``: the layer as ``kron(I_r, B)``, r the largest copy count
    ``core._copies`` finds, cut to divide both row counts (its gcd with
    them), and B its first block, of shape ``(out_rows / r, out_cols) <-
    (in_rows / r, in_cols)``, built on views of the layer's arrays; B is
    the layer itself where r is 1."""
    m = layer.map
    r = math.gcd(_copies(layer), m.out_shape.rows, m.in_shape.rows)
    if r == 1:
        return 1, layer
    out_shape = MatrixShape(m.out_shape.rows // r, m.out_shape.cols)
    in_shape = MatrixShape(m.in_shape.rows // r, m.in_shape.cols)
    bo = out_shape.size
    bn = m.indptr[bo]
    linmap = SparseLinearMap._from_valid(out_shape, in_shape,
                                         m.indptr[:bo + 1], m.indices[:bn],
                                         m.val[:bn])
    mask = ActivationMask._from_valid(out_shape,
                                      layer.mask.rho[:out_shape.rows])
    return r, Layer._from_valid(linmap, layer.bias[:out_shape.rows], mask)


def _rows(layer: Layer):
    """The ``(positions, values)`` pair of each of the layer's tables, in
    the order of ``TABLES`` (the mask's values None): 1-based positions in
    row-major order, as the readers' pairs are."""
    lm, at = layer.map, np.argwhere(layer.bias)
    return ((lm.idx, lm.val), (at + 1, layer.bias[tuple(at.T)]),
            (np.argwhere(layer.mask.rho) + 1, None))


def network_to_dict(net: MNN) -> dict:
    """Plain-dict form of a network (the JSON document structure).

    A layer that is r > 1 copies of one block B (``_blocked``) is a
    copies line: its four shape fields, ``"copies": r`` and, under
    ``"block"``, B's three tables at B's shape.  Every other layer holds
    its own tables."""
    layers = []
    for layer in net.layers:
        r, block = _blocked(layer)
        tables = {key: positions.tolist() if values is None
                  else [[*p, v] for p, v in zip(positions.tolist(),
                                                values.tolist())]
                  for key, (positions, values) in zip(TABLES, _rows(block))}
        spec = dict(zip(SHAPE_KEYS, (*layer.out_shape, *layer.in_shape)))
        if r > 1:
            spec.update(copies=r, block=tables)
        else:
            spec.update(tables)
        layers.append(spec)
    return {"activation": net.activation_name, "layers": layers}


#: the compact layout's first line around the JSON label, and its last line
HEAD, HEAD_END, FOOT = '{"activation":', ',"layers":[\n', "]}\n"
#: a compact layer line: its shape fields, then its tables or a copies
#: line's count and block
LAYER_LINE = '{"out_rows":%d,"out_cols":%d,"in_rows":%d,"in_cols":%d,%s}'
TABLES_TEXT = '"entries":[%s],"bias":[%s],"mask_rho":[%s]'
COPIES_TEXT = '"copies":%d,"block":{%s}'


def _spelled(column: np.ndarray, spell, lead: str, tail: str,
             spellings: dict) -> np.ndarray:
    """``lead + spell(x) + tail`` for every number of a table column, as an
    object array.  An integer column whose largest number ``top`` is at
    most its cell count indexes ``spellings[lead, tail]``, the spellings of
    ``0..top`` that every such column of one file shares, grown to ``top``
    when a column needs it; any other column, or one whose ``top`` is
    larger (a wide, nearly empty layer), is spelled over ``np.unique``, so
    a table of spellings never outgrows a column that used it."""
    top = column.max()
    if column.dtype.kind in "iu" and top <= len(column):
        names = spellings.get((lead, tail), np.empty(0, dtype=object))
        if top >= len(names):
            grown = [lead + spell(x) + tail
                     for x in range(len(names), top + 1)]
            names = spellings[lead, tail] = np.concatenate(
                [names, np.array(grown, dtype=object)])
        return names[column]
    distinct, at = np.unique(column, return_inverse=True)
    names = np.array([lead + spell(x) + tail for x in distinct.tolist()],
                     dtype=object)
    return names[at]


def _table(spellings: dict, positions: np.ndarray, values=None) -> str:
    """The text ``json.dumps`` gives a table's rows without spaces: ``str``
    writes an int and ``repr`` a float as its encoder does.  Stored values
    are nonzero and finite, so equal floats have one spelling.

    Each cell carries its separators: ``,[`` before the first column, ``,``
    before the others and ``]`` after the last.  So the rows are one join
    over the cells in row-major order, less the leading comma.  An index
    column's cells come from the file's ``spellings`` (``_spelled``)."""
    if not len(positions):
        return ""
    columns = [(column, str) for column in positions.T]
    if values is not None:
        columns.append((values, repr))
    last = len(columns) - 1
    cells = np.empty((len(positions), len(columns)), dtype=object)
    for pos, (column, spell) in enumerate(columns):
        cells[:, pos] = _spelled(column, spell, ",[" if pos == 0 else ",",
                                 "]" if pos == last else "", spellings)
    return "".join(cells.ravel().tolist())[1:]


def _line(spellings: dict, layer: Layer) -> str:
    """Layer ``layer``'s compact line, without its lead or newline: a
    copies line where it is r > 1 copies of one block (``_blocked``)."""
    r, block = _blocked(layer)
    tables = TABLES_TEXT % tuple(_table(spellings, *pair)
                                 for pair in _rows(block))
    if r > 1:
        tables = COPIES_TEXT % (r, tables)
    return LAYER_LINE % (*layer.out_shape, *layer.in_shape, tables)


def save_network(net: MNN, path) -> None:
    """Write ``network_to_dict(net)`` compactly, one line per layer.

    Each line is formatted from the layer's arrays, byte for byte what a
    separator-only ``json.dumps`` of its document gives, without building
    the document: each table is one join over its pre-decorated cells
    (``_table``).  The spellings of indices, with their separators, are
    made once for the whole file and shared by every layer's tables; they
    live only as long as this call.  Each distinct layer object is spelled
    once: the line of one that the network holds more than once, as built
    networks do, is kept until its last position is written.  A layer of
    r > 1 copies of one block B is a copies line, which spells only B's
    tables (``_blocked``); there is no option to spell every copy."""
    spellings, lines = {}, {}
    left = Counter(net.layers)  # positions still to write, by layer object
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEAD + json.dumps(net.activation_name) + HEAD_END)
        lead = ""
        for layer in net.layers:
            line = lines.pop(layer, None) or _line(spellings, layer)
            left[layer] -= 1
            if left[layer]:
                lines[layer] = line
            fh.write(lead)
            fh.write(line)
            lead = "\n,"
        fh.write("\n" + FOOT)


def _is_number(x) -> bool:
    """Whether numpy reads ``x`` as an int64 or a float64."""
    return type(x) is float or type(x) is int and -2**63 <= x < 2**63


def _read_table(spec: dict, key: str):
    """The ``(positions, values)`` pair of table ``key`` of a layer (values
    None for the mask), converted in one numpy call, after its first row
    of the wrong length or holding a non-number (a boolean, or an integer
    beyond int64, which numpy would read as 0 or 1 or as a float) is
    refused by position."""
    rows, (what, fields) = spec[key], TABLES[key]
    if not isinstance(rows, list):
        raise ValueError(f"{key} must be a list")
    width = TABLE_WIDTH[key]
    for e, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == width
                and all(map(_is_number, row))):
            raise ValueError(f"{what} {e} must be {fields}, got {row!r:.60}")
    table = np.array(rows) if rows else np.empty((0, width))
    if key not in VALUED:
        return table, None
    return table[:, :-1], table[:, -1]


def _keys(spec: dict, keys) -> None:
    """Refuse an object that lacks one of ``keys`` or holds any other key,
    naming the first such key, so that a field a later version adds is
    refused, not ignored."""
    for key in keys:
        if key not in spec:
            raise ValueError(f"missing key {key!r}")
    for key in spec:
        if key not in keys:
            raise ValueError(f"unknown key {key!r}")


def _block_shape(dims, copies):
    """``(B's shape fields, r)`` of a copies line with shape fields
    ``dims``: r by the size rule, at least 2, and B's row counts the
    layer's divided by r, each refused where r does not divide it."""
    r = _count("copies", copies, 2)
    for key, rows in zip(("out_rows", "in_rows"), dims[::2]):
        if rows % r:
            raise ValueError(f"{key} {rows} is not a multiple of copies {r}")
    return [dims[0] // r, dims[1], dims[2] // r, dims[3]], r


def _layer(pos: int, spec) -> Layer:
    """Layer ``pos`` from its JSON object, refused like a built one after
    ``layer L ``; a fault in a copies line's block after ``layer L block
    ``.  A copies line's layer is its block's, tiled r times."""
    try:
        if not isinstance(spec, dict):
            raise ValueError("must be an object")
        copied = "copies" in spec
        _keys(spec, COPIES_KEYS if copied else LAYER_KEYS)
        dims = [_count(key, spec[key]) for key in SHAPE_KEYS]
        if not copied:
            return _built(dims, *(_read_table(spec, key) for key in TABLES))
        dims, r = _block_shape(dims, spec["copies"])
        try:
            block = spec["block"]
            if not isinstance(block, dict):
                raise ValueError("must be an object")
            _keys(block, TABLES)
            block = _built(dims, *(_read_table(block, key) for key in TABLES))
        except ValueError as exc:
            raise ValueError(f"block {exc}") from None
        return _stack_layers([block] * r)
    except ValueError as exc:
        raise ValueError(f"layer {pos} {exc}") from None


def _built(dims, entries, bias, mask) -> Layer:
    """The layer of a file's four shape fields, each an integer >= 1, and
    three tables, each a ``(positions, values)`` pair (the mask's values
    None), refused by the one storage rule of built networks; both readers
    of a layer end here.  The new bias is set only at positions and to
    values that rule took, and the mask is ``from_positions``'s, so the
    layer is stored as it is (``Layer._from_valid``), not checked again."""
    out_shape, in_shape = MatrixShape(*dims[:2]), MatrixShape(*dims[2:])
    linmap = SparseLinearMap(out_shape, in_shape, *entries)
    key, values = _stored_rows(TABLES["bias"][0], bias[0], out_shape,
                               bias[1])
    dense = np.zeros(out_shape)
    dense.reshape(-1)[key] = values
    return Layer._from_valid(linmap, dense,
                             ActivationMask.from_positions(out_shape, mask[0]))


#: a compact layer line after its lead: each shape spelled as
#: ``json.dumps`` spells an integer >= 1, then the three tables' texts, or
#: a copies line's count, spelled alike, and its block's three tables
LAYER_TEXT = re.compile(r'\{"out_rows":([1-9][0-9]*),"out_cols":([1-9][0-9]*),'
                        r'"in_rows":([1-9][0-9]*),"in_cols":([1-9][0-9]*),'
                        r'(?:"copies":([1-9][0-9]*),"block":\{)?'
                        r'"entries":([^"]*),"bias":([^"]*),"mask_rho":([^"]*)'
                        r'\}(?(5)\})\n')
#: the bytes a table of JSON numbers is written with
TABLE_BYTES = b"0123456789,[]-+.eE"
#: what stands right before and right after a run of digits that is a
#: whole integer ("-" after "e" is taken too: a run then only declines)
_INTEGER_LEAD, _INTEGER_TAIL = list(b",[-"), list(b",]")


def _plain_numbers(a: np.ndarray) -> bool:
    """Whether the bytes ``a`` of a table, ``[`` first and ``]`` last and
    all in ``TABLE_BYTES``, spell its numbers only as JSON does, where
    ``float`` would read them loosely: ``+`` only right after ``e`` or
    ``E``, ``.`` only between digits and no leading zero before a digit;
    and hold no integer of 19 digits or more, which ``json`` reads exactly
    and ``_read_table`` refuses beyond int64."""
    digit = a - ord("0") < 10  # uint8 wraps below "0"
    at = np.flatnonzero(a == ord("+"))
    if (a[at - 1] | 0x20 != ord("e")).any():  # "E" | 0x20 is "e"
        return False
    at = np.flatnonzero(a == ord("."))
    if not (digit[at - 1] & digit[at + 1]).all():
        return False
    at = np.flatnonzero((a[:-1] == ord("0")) & digit[1:])  # "0" then a digit
    sign = a[at - 1] == ord("-")
    before = np.where(sign, a[at - 2], a[at - 1])
    if ((before == ord(",")) | (before == ord("["))).any():
        return False
    run = digit  # run[i]: a run of 1, 2, 4, 8, 16, then 19 digits from i
    for step in (1, 2, 4, 8, 3):
        run = run[:-step] & run[step:]
    at = np.flatnonzero(run)  # the first and last window of each long run
    if not len(at):
        return True
    first, last = at[~digit[at - 1]], at[~digit[at + 19]]
    return not (np.isin(a[first - 1], _INTEGER_LEAD)
                & np.isin(a[last + 19], _INTEGER_TAIL)).any()


def _plain(cond: bool) -> None:
    """Decline, by a ``ValueError``, what the text parser does not take."""
    if not cond:
        raise ValueError("not a plain compact file")


def _parsed_table(text: str, key: str):
    """The ``(positions, values)`` pair of table ``key`` (values None for
    the mask) read from ``text`` by numpy's text parser in one call, into
    ``ROW_DTYPE``: positions as exact int64, values rounded as ``json``
    rounds them.  It declines unless the text is plainly rows of JSON
    numbers (``_plain_numbers``) and every position cell an integer within
    int64, as ``json`` reads it; ``2.0`` or ``1e0`` in a position declines
    too, so ``json.load`` reads and names it."""
    dtype = ROW_DTYPE[key]
    if text == "[]":  # numpy warns on no data
        table = np.empty(0, dtype)
    else:
        _plain(text.startswith("[[") and text.endswith("]]")
               and text.isascii() and "[]" not in text)  # no empty row
        raw = text.encode("ascii")
        _plain(not raw.translate(None, TABLE_BYTES)
               and _plain_numbers(np.frombuffer(raw, np.uint8)))
        rows = text[2:-2].split("],[")  # a bracket left in a row fails
        with warnings.catch_warnings():
            # older releases of numpy's C reader (1.23 on) read ``2.5``
            # into an int64 through a float, truncated, behind this
            # warning; made an error, it is a ValueError: a decline
            warnings.filterwarnings("error", ".*integer via a float",
                                    DeprecationWarning)
            table = np.loadtxt(rows, dtype, delimiter=",", comments=None,
                               ndmin=1)
        _plain(len(table) == len(rows))
    return table["at"], table["value"] if key in VALUED else None


def _parsed_layer(line: str, start: int) -> Layer:
    """The layer on a compact line after its lead, ``start`` characters
    long, read by numpy's text parser without the JSON document, each
    table cut once from the line; a copies line's layer is its block's,
    tiled r times.  Only a line laid out as ``LAYER_LINE`` writes it,
    whose tables pass ``_parsed_table`` and whose layer the storage rule
    takes, is read here; any other raises ``ValueError``.  Shapes must be
    below 2^53: ``json`` reads a table that holds a float value as
    float64, which rounds an index past 2^53, so only below it does every
    index the rule takes read alike on both paths."""
    parts = LAYER_TEXT.fullmatch(line, start)
    _plain(parts is not None)
    *dims, copies, entries, bias, mask = parts.groups()
    dims, r = [int(n) for n in dims], 1
    _plain(max(dims) < 2 ** 53)
    if copies is not None:
        dims, r = _block_shape(dims, int(copies))
    block = _built(dims, *(_parsed_table(text, key) for text, key
                           in zip((entries, bias, mask), TABLES)))
    return _stack_layers([block] * r) if r > 1 else block


def network_from_dict(doc: dict) -> MNN:
    """Rebuild a network from its JSON document structure, refused after
    ``bad network file: ``."""
    try:
        if not isinstance(doc, dict):
            raise ValueError("top level must be an object")
        _keys(doc, FORMAT_KEYS)
        label = doc["activation"]
        _label(label)
        if not (isinstance(doc["layers"], list) and doc["layers"]):
            raise ValueError("layers must be a nonempty list")
        layers = []
        for pos, spec in enumerate(doc["layers"]):
            _chain(layers, _layer(pos, spec), label)
        return MNN(layers, label)
    except ValueError as exc:
        raise ValueError(f"bad network file: {exc}") from None


def _read_compact(fh) -> MNN:
    """The network in a compact file, read one layer line at a time by
    numpy's text parser.  It only accepts: any other layout, and any
    fault, raises ``ValueError`` (a decline), naming nothing.

    Each distinct line is parsed once, and every later equal line gets
    the same ``Layer`` object, so the network shares layers exactly where
    its lines are equal.  No line's text is kept, nor copied but the
    first, once: each first line is indexed by ``(len, hash)`` of its body
    led by a comma, as a later line is, and a later line with that key is
    confirmed if it ends with the first, read again (their bodies are
    equally long); where none does, as on a hash collision, it is parsed
    as usual.  A copies line ``"copies": r`` is parsed as its block B,
    at B's shape, and its layer tiled from B r times (``_parsed_layer``),
    after r is checked as ``network_from_dict`` checks it."""
    head = fh.readline()
    _plain(head.startswith(HEAD) and head.endswith(HEAD_END))
    label = json.loads(head[len(HEAD):-len(HEAD_END)])
    layers, lead, firsts, start = [], "", {}, fh.tell()
    for line in iter(fh.readline, FOOT):
        _plain(line != "" and line.startswith(lead))  # "" is the end
        end = fh.tell()
        key = len(line) - len(lead), hash(line if lead else "," + line)
        candidates = firsts.setdefault(key, [])  # (layer, its line's start)
        for layer, at in candidates:
            fh.seek(at)
            if line.endswith(fh.readline()):
                break
        else:
            layer = _parsed_layer(line, len(lead))
            candidates.append((layer, start))
        fh.seek(end)
        layers.append(layer)
        lead, start = ",", end
    _plain(not fh.read(1))  # the closing line ends the file
    return MNN(layers, label)


def load_network(path) -> MNN:
    """The network in file ``path``, refused with ``bad network file: ...``:
    read by the text parser, which parses each distinct layer line once and
    shares its layer among the equal lines, or, wherever it declines, by
    ``json.load`` and ``network_from_dict``, which name every refusal alike
    for any layout and share no layers."""
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                return _read_compact(fh)
            except UnicodeDecodeError:
                raise
            except (ValueError, RecursionError):
                fh.seek(0)
            try:
                doc = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(
                    f"bad network file: not valid JSON ({exc})") from None
        return network_from_dict(doc)
    except UnicodeDecodeError as exc:
        raise ValueError(f"bad network file: not UTF-8 text ({exc})") from None


def save_matrix(A: np.ndarray, path) -> None:
    A = np.asarray(_real("matrix", A), dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix files hold 2-d arrays")
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def load_matrix(path) -> np.ndarray:
    with warnings.catch_warnings():  # an empty file is refused below
        warnings.filterwarnings("ignore", ".*input contained no data")
        A = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if not A.size:
        raise ValueError(f"matrix file {path} holds no numbers")
    return A
