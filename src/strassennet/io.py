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
r`` and, under ``"block"``, B's three tables, B of shape ``(out_rows / r,
out_cols) <- (in_rows / r, in_cols)``; the writer takes r as the gcd of
``core._copies``' count and both row counts.  A layer that is a row stack
of runs, run p being r_p copies of a block B_p of o_p matrix rows that
reads only its own band of i_p input rows, as an inverter's square beside
its carry of A is, is a run line where that holds fewer table rows
(``_run_line``): ``"copies"`` lists the runs' ``[r_p, o_p, i_p]`` and
``"block"`` holds the tables of the row stack of the distinct B_p, each
keeping the layer's column counts.  Every layer's runs come from one
run finder (``_units``).  A layer that records its runs of one child
(``core.Layer._stack``) takes them from that record: each distinct child
is cut once and its cut kept on it, and equal neighbouring blocks join
one run across children, so no array of the stack is read, and a stack
of copies of a stack keeps its period.  A layer without a record, as
the plain lines of older files load, is cut by a scan of its arrays
(``_cut``), as a record's plain children are, so it is written as the
same run line.  A copies line of count r is the run line ``[[r,
out_rows / r, in_rows / r]]``, and both are read by one rule
(``_block_shape``, ``_stacked``, ``_tiled``): the fields by the size rule,
the block at its own shape by the storage rule, an entry outside its
run's input band refused by name, and the layer built from the block as
``combinators._stack_layers`` builds it, recording its runs, each run's
block one unit, as a built one records its children, and its arrays,
gathered afresh on each read, are those of the built layer.
A copies line holds no ``entries`` key of its own, so a reader that
predates it refuses it (``missing key 'entries'``), and a reader that
predates run lines refuses a list of runs (``copies must be an integer,
got [[...``); unknown keys are refused too, at every level, so a later
field cannot be ignored.  A file without copies lines, as earlier
versions wrote every file, loads as before.
Files are written compactly, one line per layer: a header line
``{"activation":<label>,"layers":[``, then each layer as one JSON object
without whitespace, every one after the first led by a comma, then ``]}``.
Each line is one layer's object (``_layer_doc``, from which
``network_to_dict`` is made too) encoded by json, so the bytes are those of
``network_to_dict`` dumped layer by layer; each distinct layer object is
encoded once.
Every file is parsed by ``json`` and each layer read from its object by
one reader, ``_layer``.  A file laid out as ``save_network`` writes it is
read a line at a time (``_read_compact``): each distinct layer line is
parsed once by ``json.loads``, and every later equal line gets the same
``Layer`` object, so a loaded network shares layers exactly where its
lines are equal; a repeat is confirmed by reading the first line again,
so no line's text is kept.  Any other layout (indented files written by
earlier versions, a layer split over lines, text after ``]}``) and any
fault send the file to ``json.load`` and ``network_from_dict``, which
read it whole, so that a file's refusal is the same for every layout:
invalid JSON (nesting too deep included) first, then the first fault in
document order.  Network files are UTF-8 text, whatever the locale;
other bytes are refused.
Loading only parses: it refuses, naming the layer and the first offending
entry, a missing or unknown key, shape fields that are not integers >= 1
(the size rule ``core._count``), a copies count that is not an integer
>= 2 or does not divide both row counts, a run that is not three integers
>= 1, runs that do not hold the layer's rows, an entry of a run line's
block outside its run's input band, rows of the wrong length or holding
non-numbers (booleans included), and shapes whose arrays do not fit in
memory or pass what numpy can index (``layer L of shape (o, c) <- (i, d)
does not fit in memory``, or ``layer L block ...``), which a file of a
few bytes can declare.
Everything else is refused by the rules of ``core``, which built networks
follow too, with core's text after ``bad network file: ``: the storage
rule of a layer's tables (after ``layer L ``, or ``layer L block `` in a
copies line), and the label, layer-chain and final-layer rules of a
network, the chain checked as each layer arrives.

Matrices travel as plain CSV, one row per line, full float precision.
Only real matrices with entries, all finite, are written, a non-finite
cell refused by its 1-based row and column, so every file written loads.
Matrix files are UTF-8 text, whatever the locale, read in one pass
(``load_matrix``): text from ``#`` on is a comment, a blank line holds no
row, and a cell is a number as numpy's CSV reader spells one.  Other
bytes are refused, and so are a file with no numbers and the file's first
line whose cell count differs from the first row's or that holds a cell
that is not a number or not finite, by its 1-based line and column.
"""

import json
import math
from collections import Counter
from contextlib import suppress
from itertools import chain

import numpy as np

from .core import (MNN, ActivationMask, Layer, MatrixShape, SparseLinearMap,
                   _chain, _copies, _count, _gathered, _label, _real,
                   _recorded, _segments, _set, _stored_rows, _unrecorded)

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

def _blocked(layer: Layer):
    """``(copies, B)``: how the layer's line holds it.  Where it is
    ``kron(I_r, B)``, copies is r, the largest copy count ``core._copies``
    finds, cut to divide both row counts (its gcd with them), and B its
    first block, of shape ``(out_rows / r, out_cols) <- (in_rows / r,
    in_cols)``, built on views of the arrays of a one-run record's child
    where the run's count divides r (``core._recorded``), so a recorded
    layer is written without tiling it, else of the layer's.
    Otherwise, where it is a row stack of runs that its block holds in
    fewer table rows (``_run_line``), copies is the list of runs' ``[r_p,
    o_p, i_p]`` and B the row stack of their blocks; else copies is None
    and B the layer, gathered once where it is a record
    (``core._unrecorded``)."""
    r = math.gcd(_copies(layer), layer.out_shape.rows, layer.in_shape.rows)
    if r == 1:
        return _run_line(layer) or (None, _unrecorded(layer))
    holder, part = _recorded(layer, r)
    return r, _band(holder, 0, holder.out_shape.rows // part, 0,
                    holder.in_shape.rows // part)


def _band(layer: Layer, top: int, bottom: int, start: int,
          end: int) -> Layer:
    """Matrix rows ``top:bottom`` of a layer, which read only its input
    rows ``start:end``, as a layer of those rows: its arrays are views of
    the layer's, its input positions moved to the band's first row."""
    m = layer.map
    oc, ic = m.out_shape.cols, m.in_shape.cols
    at = np.s_[top * oc:bottom * oc + 1]
    first, last = m.indptr[at][[0, -1]]
    out_shape = MatrixShape(int(bottom - top), oc)
    linmap = SparseLinearMap._from_valid(
        out_shape, MatrixShape(int(end - start), ic), m.indptr[at] - first,
        m.indices[first:last] - start * ic, m.val[first:last])
    return Layer._from_valid(linmap, layer.bias[top:bottom],
                             ActivationMask._from_valid(
                                 out_shape, layer.mask.rho[top:bottom]))


def _cut(layer: Layer):
    """``(out_edges, in_edges, first)`` of a layer without a record, cut
    into units, where it has a cut; else None.  Unit u is its matrix rows
    ``out_edges[u]:out_edges[u + 1]``, which read only its input rows
    ``in_edges[u]:in_edges[u + 1]``, and ``first[u]`` says whether it
    starts a run, a unit that differs from the one before.

    The layer is cut after each matrix row t where every row up to t reads
    only input rows below ``cut``, the one after the last they read, and
    every later row reads only rows from ``cut`` on (prefix max < suffix
    min).  Where rows that read nothing leave several cuts with one input
    cut, the last is taken, so each such row joins the unit before it.
    Consecutive equal units form a run: each unit is compared with the
    next by arrays shifted by its own size, as ``core._copies`` compares
    blocks, so no Python loop runs per unit.  Every unit keeps the
    layer's column counts: a narrower child's padding columns are empty
    positions."""
    m = layer.map
    (rows, oc), (in_rows, ic) = m.out_shape, m.in_shape
    if rows == 1:  # no row to cut after
        return None
    starts = m.indptr[::oc]  # each matrix row's first entry, then the end
    k = m.indices // ic  # the input row each entry reads
    lo, hi = np.full(rows, in_rows), np.full(rows, -1)
    read = np.flatnonzero(starts[1:] > starts[:-1])
    if len(read):
        lo[read] = np.minimum.reduceat(k, starts[read])
        hi[read] = np.maximum.reduceat(k, starts[read])
    cut = np.maximum.accumulate(hi)[:-1] + 1
    after = np.minimum.accumulate(lo[::-1])[::-1][1:]
    t = np.flatnonzero((cut <= after) & (cut >= 1) & (cut < in_rows))
    if not len(t):
        return None
    t = t[np.append(cut[t][1:] != cut[t][:-1], True)]
    out_edges = np.concatenate([[0], t + 1, [rows]])
    in_edges = np.concatenate([[0], cut[t], [in_rows]])
    o, i = np.diff(out_edges), np.diff(in_edges)
    # positions: entry count, bias and rho; entries: input position from
    # the unit's first input row, and value.  ``bad`` counts, per unit,
    # the places where it differs from the same place one unit on
    size, at = o * oc, m.indptr[out_edges * oc]
    n_unit = np.diff(at)
    unit = np.repeat(np.arange(len(o)), n_unit)  # each entry's unit
    rel = m.indices - (in_edges[:-1] * ic)[unit]
    bad = np.zeros(len(o), dtype=np.int64)
    for arrays, width, edges in (
            ((np.diff(m.indptr), layer.bias.reshape(-1),
              layer.mask.rho.reshape(-1)), size, out_edges * oc),
            ((rel, m.val), n_unit, at)):
        n = len(arrays[0])
        there = np.arange(n) + np.repeat(width, width)
        inside = there < n
        there = np.where(inside, there, 0)
        differ = np.zeros(n, dtype=bool)
        for a in arrays:
            differ |= a != a[there]
        seen = np.concatenate([[0], np.cumsum(differ & inside)])
        bad += seen[edges[1:]] - seen[edges[:-1]]
    first = np.ones(len(o), dtype=bool)
    first[1:] = (o[1:] != o[:-1]) | (i[1:] != i[:-1]) | (bad[:-1] > 0)
    return out_edges, in_edges, first


def _units(layer: Layer) -> list:
    """``[(block, count), ...]``: the layer as a row stack of runs, each
    ``count`` copies of ``block``, no block equal to the one before it,
    found once per ``Layer`` object and kept there (``()`` where the
    layer is one unit).  This is the writer's one run finder, for plain
    layers and records alike.  A layer without a record is cut by
    ``_cut``, its blocks views of its arrays (``_band``), or is one
    unit.

    A record's units come from its children's, where each child meets the
    next cleanly (``_ends``): the rows before read the last input row
    before, and the rows after start by reading one, so ``_cut`` would cut
    there and nowhere else than inside each child.  A child of one unit
    gives that block, its count times the child's; a child of several
    gives them in turn where it appears once, and is one block itself
    where it is repeated, so a stack of copies of a stack keeps its
    period.  A block that equals the last one before it by its table rows
    (``_same``) joins its run, as ``_cut`` merges equal units, so no child
    is cut twice.  Where two children do not meet cleanly, the unit that
    ``_cut`` makes there spans both: the record's arrays are then
    gathered afresh and cut."""
    found = layer._units_found
    if found is None:
        record = layer._parts
        if record is not None and _clean(record):
            found = []
            for child, r in record:
                units = _units(child)
                if len(units) == 1:
                    units = [(units[0][0], units[0][1] * r)]
                elif r > 1:
                    units = [(child, r)]
                if found and _same(found[-1][0], units[0][0]):
                    found[-1] = (found[-1][0], found[-1][1] + units[0][1])
                    units = units[1:]
                found += units
        else:
            plain = _unrecorded(layer)
            cut = _cut(plain)
            found = [(layer, 1)]
            if cut is not None:
                out_edges, in_edges, first = cut
                starts = np.flatnonzero(first)
                found = [(_band(plain, out_edges[u], out_edges[u + 1],
                                in_edges[u], in_edges[u + 1]), int(n))
                         for u, n in zip(starts, np.diff(
                             np.append(starts, len(first))))]
        # one unit is kept as (), not as a cycle through the layer
        _set(layer, "_units_found", () if found == [(layer, 1)] else found)
    return found or [(layer, 1)]


def _ends(layer: Layer):
    """``(head, tail)``: whether the layer's first matrix row reads any
    input, and whether its last input row is read, off a record's first
    and last child where it has one."""
    record = layer._parts
    if record is not None:
        return _ends(record[0][0])[0], _ends(record[-1][0])[1]
    m = layer.map
    return (bool(m.indptr[m.out_shape.cols]),
            bool(m.nnz) and m.indices.max() // m.in_shape.cols
            == m.in_shape.rows - 1)


def _clean(record) -> bool:
    """Whether each child of a record, copies included, meets the next
    cleanly: the one before reads its last input row and the one after
    starts with a row that reads input (``_ends``)."""
    ends = [_ends(child) for child, _ in record]
    return all(tail and head for (_, tail), (head, _) in zip(ends, ends[1:])) \
        and all(tail and head for (head, tail), (_, r) in zip(ends, record)
                if r > 1)


def _same(a: Layer, b: Layer) -> bool:
    """Whether two blocks hold the same table rows, so that padded to one
    column count their arrays are equal, as ``_cut`` compares units."""
    if a is b:
        return True
    if ((a.out_shape.rows, a.in_shape.rows, a.weight_count)
            != (b.out_shape.rows, b.in_shape.rows, b.weight_count)):
        return False
    tables = zip(chain.from_iterable(_rows(_unrecorded(a))),
                 chain.from_iterable(_rows(_unrecorded(b))))
    return all(x is None or np.array_equal(x, y) for x, y in tables)


def _run_line(layer: Layer):
    """``(runs, B)`` where the layer's runs (``_units``) hold fewer table
    rows in B, the row stack of their blocks at the layer's column
    counts, than in the layer; else None.  ``runs`` lists each run's
    ``[r_p, o_p, i_p]``.  A recorded layer's runs come from its record,
    and its line is written without reading its arrays; a layer without
    one is cut (``_cut``), its blocks views of its arrays."""
    units = _units(layer)
    # table rows: entries, bias entries and mask entries
    held = [block.weight_count + block._rho_count for block, _ in units]
    if sum(held) >= sum(h * n for h, (_, n) in zip(held, units)):
        return None
    runs = [[n, block.out_shape.rows, block.in_shape.rows]
            for block, n in units]
    segments = [s for block, _ in units for s in _segments(block)]
    block = Layer._from_valid(*_gathered(
        segments,
        MatrixShape(sum(run[1] for run in runs), layer.out_shape.cols),
        MatrixShape(sum(run[2] for run in runs), layer.in_shape.cols)))
    return runs, block


def _rows(layer: Layer):
    """The ``(positions, values)`` pair of each of the layer's tables, in
    the order of ``TABLES`` (the mask's values None): 1-based positions in
    row-major order, as ``_read_table``'s pairs are."""
    lm, at = layer.map, np.argwhere(layer.bias)
    return ((lm.idx, lm.val), (at + 1, layer.bias[tuple(at.T)]),
            (np.argwhere(layer.mask.rho) + 1, None))


def _layer_doc(layer: Layer) -> dict:
    """Layer ``layer``'s JSON object: its four shape fields, then its own
    tables or, where it is r > 1 copies of one block B or a row stack of
    runs of copied blocks (``_blocked``), ``"copies"`` (r, or the runs'
    ``[r_p, o_p, i_p]``) and, under ``"block"``, the tables of B or of the
    runs' stacked blocks.  Every cell is a Python int or float, from
    numpy's ``tolist``, so json writes an index by ``str`` and a value by
    ``repr``."""
    copies, block = _blocked(layer)
    tables = {}
    for key, (positions, values) in zip(TABLES, _rows(block)):
        rows = tables[key] = positions.tolist()
        if values is not None:  # each row ends in its value
            list(map(list.append, rows, values.tolist()))
    spec = dict(zip(SHAPE_KEYS, (*layer.out_shape, *layer.in_shape)))
    if copies is None:
        spec.update(tables)
    else:
        spec.update(copies=copies, block=tables)
    return spec


def network_to_dict(net: MNN) -> dict:
    """Plain-dict form of a network (the JSON document structure): its
    activation label and each layer's object (``_layer_doc``), a copies
    line where the layer is r > 1 copies of one block or a row stack of
    runs of copied blocks.  ``save_network`` writes these same objects."""
    return {"activation": net.activation_name,
            "layers": [_layer_doc(layer) for layer in net.layers]}


#: the compact layout's first line around the JSON label, and its last line
HEAD, HEAD_END, FOOT = '{"activation":', ',"layers":[\n', "]}\n"
#: the encoder of a layer line: ``json.dumps`` without spaces.  A layer's
#: object is a fresh tree of dicts and lists, so no cycle is looked for
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def save_network(net: MNN, path) -> None:
    """Write ``network_to_dict(net)`` compactly, one line per layer.

    Each line is a layer's object (``_layer_doc``) encoded by json without
    spaces, so the file is ``network_to_dict(net)`` dumped layer by layer.
    Each distinct layer object is encoded once: the line of one that the
    network holds more than once, as built networks do, is kept until its
    last position is written.  A layer of r > 1 copies of one block B is
    a copies line, which holds only B's tables, and a row stack of runs of
    copied blocks a run line, which holds one table set for the stacked
    distinct blocks, where that holds fewer table rows (``_blocked``);
    there is no option to write every copy."""
    lines = {}
    left = Counter(net.layers)  # positions still to write, by layer object
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEAD + json.dumps(net.activation_name) + HEAD_END)
        lead = ""
        for layer in net.layers:
            line = (lines.pop(layer, None)
                    or _ENCODER.encode(_layer_doc(layer)))
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
    None for the mask), in the dtype ``np.array`` gives its rows: int64
    where every cell is an int, else float64.  C-level passes take rows
    that are lists of the right length holding ints and floats below 2^63
    in magnitude; only where one fails are the rows judged one by one, so
    that the first of the wrong length or holding a non-number (a boolean,
    or an integer beyond int64, which numpy would read as 0 or 1 or as a
    float) is refused by position."""
    rows, (what, fields) = spec[key], TABLES[key]
    if not isinstance(rows, list):
        raise ValueError(f"{key} must be a list")
    width, table = TABLE_WIDTH[key], None
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {width}:
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds <= {int, float}:
            with suppress(OverflowError):  # an int past int64
                table = np.fromiter(
                    chain.from_iterable(rows),
                    np.int64 if kinds == {int} else np.float64,
                    count=len(rows) * width).reshape(-1, width)
    if table is None or not np.abs(table).max() < 2**63:
        for e, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == width
                    and all(map(_is_number, row))):
                raise ValueError(
                    f"{what} {e} must be {fields}, got {row!r:.60}")
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
    """``(B's shape fields, runs)`` of a copies line with shape fields
    ``dims``, runs listing each run's ``[r_p, o_p, i_p]``.  A count r is
    taken by the size rule, at least 2, as one run of r blocks of the
    layer's row counts divided by r, each refused where r does not divide
    it; a list holds the runs, each three integers >= 1, whose rows must
    sum to the layer's.  B, the row stack of the runs' blocks, has shape
    ``(sum of o_p, out_cols) <- (sum of i_p, in_cols)``."""
    if not isinstance(copies, list):
        r = _count("copies", copies, 2)
        for key, rows in zip(("out_rows", "in_rows"), dims[::2]):
            if rows % r:
                raise ValueError(
                    f"{key} {rows} is not a multiple of copies {r}")
        block = [dims[0] // r, dims[1], dims[2] // r, dims[3]]
        return block, [[r, block[0], block[2]]]
    if not copies:
        raise ValueError("copies must not be an empty list")
    runs = []
    for p, run in enumerate(copies):
        if not (isinstance(run, list) and len(run) == 3):
            raise ValueError(f"copies {p} must be [r, out_rows, in_rows], "
                             f"got {run!r:.60}")
        runs.append([_count(f"copies {p} {name}", n)
                     for name, n in zip(("r", "out_rows", "in_rows"), run)])
    for key, rows, at in zip(("out_rows", "in_rows"), dims[::2], (1, 2)):
        held = sum(run[0] * run[at] for run in runs)
        if held != rows:
            raise ValueError(
                f"{key} {rows} is not the {held} rows the copies hold")
    return [sum(run[1] for run in runs), dims[1],
            sum(run[2] for run in runs), dims[3]], runs


def _layer(pos: int, spec) -> Layer:
    """Layer ``pos`` from its JSON object, refused like a built one after
    ``layer L ``; a fault in a copies line's block after ``layer L block
    ``.  A copies line's layer is built from its block (``_tiled``)."""
    try:
        if not isinstance(spec, dict):
            raise ValueError("must be an object")
        copied = "copies" in spec
        _keys(spec, COPIES_KEYS if copied else LAYER_KEYS)
        dims = [_count(key, spec[key]) for key in SHAPE_KEYS]
        if not copied:
            return _built(dims, *(_read_table(spec, key) for key in TABLES))
        block_dims, runs = _block_shape(dims, spec["copies"])
        try:
            block = spec["block"]
            if not isinstance(block, dict):
                raise ValueError("must be an object")
            _keys(block, TABLES)
            block = _stacked(block_dims, runs,
                             *(_read_table(block, key) for key in TABLES))
        except ValueError as exc:
            raise ValueError(f"block {exc}") from None
        return _tiled(dims, block, runs)
    except ValueError as exc:
        raise ValueError(f"layer {pos} {exc}") from None


def _too_large(dims) -> ValueError:
    """The refusal of a ``MemoryError`` (or an ``OverflowError``, for a
    count past what an index holds) raised while building shape ``dims``:
    a file of a few bytes can declare shapes whose arrays no memory
    holds."""
    return ValueError(f"of shape ({dims[0]}, {dims[1]}) <- ({dims[2]}, "
                      f"{dims[3]}) does not fit in memory")


def _fits(dims) -> None:
    """Refuse, as ``_too_large``, shape fields that numpy could not even
    describe, before anything is allocated: an output whose per-position
    arrays (``indptr``'s one int64 more) pass the largest array numpy
    allows, or an input whose positions pass int64."""
    most = np.iinfo(np.intp).max
    if (dims[0] * dims[1] + 1) * 8 > most or dims[2] * dims[3] > most:
        raise _too_large(dims)


def _built(dims, entries, bias, mask) -> Layer:
    """The layer of a file's four shape fields, each an integer >= 1, and
    three tables, each a ``(positions, values)`` pair (the mask's values
    None), refused by the one storage rule of built networks; every table
    set a file holds ends here.  The new bias is set only at positions and
    to values that rule took, and the mask is ``from_positions``'s, so the
    layer is stored as it is (``Layer._from_valid``), not checked again."""
    _fits(dims)
    out_shape, in_shape = MatrixShape(*dims[:2]), MatrixShape(*dims[2:])
    try:
        linmap = SparseLinearMap(out_shape, in_shape, *entries)
        key, values = _stored_rows(TABLES["bias"][0], bias[0], out_shape,
                                   bias[1])
        dense = np.zeros(out_shape)
        dense.reshape(-1)[key] = values
        mask = ActivationMask.from_positions(out_shape, mask[0])
    except (MemoryError, OverflowError):
        raise _too_large(dims) from None
    return Layer._from_valid(linmap, dense, mask)


def _stacked(dims, runs, entries, bias, mask) -> Layer:
    """B, the row stack of a copies line's blocks, of shape fields
    ``dims``, from its three tables (``_built``).  Where there are several
    runs, the first entry, in table order, that reads an input row
    outside its own run's band of input rows is refused by position."""
    block = _built(dims, entries, bias, mask)
    if len(runs) > 1:
        o, i = np.array([run[1:] for run in runs], dtype=np.int64).T
        out_end, in_end = np.cumsum(o), np.cumsum(i)
        # whole and in range: the storage rule took them
        at = np.asarray(entries[0]).astype(np.int64)
        run = np.searchsorted(out_end, at[:, 0], side="left")
        ok = (at[:, 2] <= in_end[run]) & (at[:, 2] > (in_end - i)[run])
        if not ok.all():
            e = int(np.argmin(ok))
            p = int(run[e])
            raise ValueError(
                f"entry {e} {at[e].tolist() + [float(entries[1][e])]} "
                f"reads outside run {p}'s input rows "
                f"{in_end[p] - i[p] + 1} to {in_end[p]}")
    return block


def _tiled(dims, block: Layer, runs) -> Layer:
    """The layer of shape fields ``dims`` whose copies line holds ``runs``
    and block ``block``: each run's B_p, cut from the block (``_band``),
    is one unit of the line (``_units``), and the runs ``((B_p, r_p),
    ...)`` are recorded by ``Layer._stack``, as built stacks are, so the
    arrays, gathered afresh on each read, are those of the built layer.
    No array is tiled here: the bytes the line's arrays will take are
    asked of the allocator once and given back, so a line whose arrays no
    memory holds is refused here."""
    _fits(dims)
    parts = [block]
    if len(runs) > 1:
        edges = np.cumsum([[0, 0]] + [run[1:] for run in runs], axis=0)
        parts = [_band(block, top, bottom, start, end)
                 for (top, start), (bottom, end) in zip(edges, edges[1:])]
    for part in parts:
        _set(part, "_units_found", ())  # one unit: see _units
    try:
        layer = Layer._stack((part, r) for part, (r, _, _) in zip(parts, runs))
        # indptr, bias and mask per position; indices and val per entry
        need = (17 * dims[0] * dims[1] + 8 + 16 * sum(
            r * part.map.nnz for part, (r, _, _) in zip(parts, runs)))
        if need > np.iinfo(np.intp).max:
            raise MemoryError
        np.empty(need, dtype=np.uint8)
        return layer
    except (MemoryError, OverflowError):
        raise _too_large(dims) from None


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


def _plain(cond: bool) -> None:
    """Decline, by a ``ValueError``, what the compact reader does not
    take."""
    if not cond:
        raise ValueError("not a plain compact file")


def _read_compact(fh) -> MNN:
    """The network in a file laid out as ``save_network`` writes it, read
    one layer line at a time: each distinct line by ``json.loads`` and
    ``_layer``, as ``network_from_dict`` reads a layer.  It only accepts:
    any other layout, and any fault, raises ``ValueError`` (a decline),
    naming nothing, so that ``load_network`` reads the file whole.

    Each distinct line is parsed once, and every later equal line gets
    the same ``Layer`` object, so the network shares layers exactly where
    its lines are equal.  No line's text is kept, nor copied but the
    first, once: each first line is indexed by ``(len, hash)`` of its body
    led by a comma, as a later line is, and a later line with that key is
    confirmed if it ends with the first, read again (their bodies are
    equally long); where none does, as on a hash collision, it is parsed
    as usual."""
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
            layer = _layer(len(layers), json.loads(line[len(lead):]))
            candidates.append((layer, start))
        fh.seek(end)
        layers.append(layer)
        lead, start = ",", end
    _plain(not fh.read(1))  # the closing line ends the file
    return MNN(layers, label)


def load_network(path) -> MNN:
    """The network in file ``path``, refused with ``bad network file: ...``:
    read line by line (``_read_compact``), which parses each distinct layer
    line once and shares its layer among the equal lines, or, wherever
    that declines, whole by ``json.load`` and ``network_from_dict``, which
    name every refusal alike for any layout and share no layers."""
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
    """Write the real 2-d matrix ``A`` to CSV file ``path``, refusing first
    what ``load_matrix`` refuses: no entries, or a cell that is not finite,
    named by its 1-based row and column."""
    A = np.asarray(_real("matrix", A), dtype=float)
    if A.ndim != 2:
        raise ValueError("matrix files hold 2-d arrays")
    if not A.size:
        raise ValueError("matrix holds no numbers")
    if not np.isfinite(A).all():
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"matrix holds {A[i, j]} at row {i + 1}, column "
                         f"{j + 1}: matrix cells must be finite numbers")
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def _cell(cell: str, at: str) -> float:
    r"""The cell as a float, refused, naming where it is ``at``, unless it is
    a finite number as numpy spells one: ASCII without ``_`` once white
    space (``\xa0``, ``\x1c`` too) is stripped; ``float`` alone would also
    read ``1_0`` and digits such as ``\u0661``."""
    text, value = cell.strip(), None
    if text.isascii() and "_" not in text:
        with suppress(ValueError):
            value = float(text)
    if value is None:
        raise ValueError("is not rows of numbers of one length: could not "
                         f"convert string {text!r} to a number {at}")
    if not math.isfinite(value):
        raise ValueError(f"holds {text!r} {at}: matrix cells must be finite "
                         "numbers")
    return value


def load_matrix(path) -> np.ndarray:
    """The matrix in CSV file ``path``, read as UTF-8 text in one pass: a
    line's cells, split at commas, are converted by ``float`` at once where
    the line is ASCII without ``_``, and read cell by cell (``_cell``) to
    name the fault where that gives no finite numbers.  Refused after
    ``matrix file <path>`` as the module's docstring says."""
    rows, width = [], None
    try:
        with open(path, encoding="utf-8") as fh:
            for line, text in enumerate(fh, 1):
                text = text.partition("#")[0]
                if not text.strip():
                    continue
                cells = text.split(",")
                width = width or len(cells)
                if len(cells) != width:
                    raise ValueError("is not rows of numbers of one length: "
                                     "the number of columns changed from "
                                     f"{width} to {len(cells)} at line {line}")
                row = None
                if text.isascii() and "_" not in text:
                    with suppress(ValueError):
                        row = list(map(float, cells))
                if row is None or not math.isfinite(sum(row)):
                    row = [_cell(cell, f"at line {line}, column {column}")
                           for column, cell in enumerate(cells, 1)]
                rows.append(row)
    except ValueError as exc:  # a UnicodeDecodeError is one
        fault = (f"is not UTF-8 text ({exc})"
                 if isinstance(exc, UnicodeDecodeError) else exc)
        raise ValueError(f"matrix file {path} {fault}") from None
    if not rows:
        raise ValueError(f"matrix file {path} holds no numbers")
    return np.array(rows)
