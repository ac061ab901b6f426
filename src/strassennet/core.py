"""Matrix neural networks as data: layers of sparse 4-index linear maps.

A network (:class:`MNN`) is a finite sequence of layers.  Each layer applies a
sparse linear map ``L`` to a matrix, adds a bias matrix ``C``, and applies a
per-entry activation drawn from ``{identity, rho}``:

    X  ->  alpha(L X + C),      (L X)_{ij} = sum_{kl} L_{ijkl} X_{kl}.

This module alone decides what a valid network is, for built and loaded
networks alike (``io`` only parses).  A label is a string, or None for a
network without rho entries (``_label``).  Layers chain (``_chain``): each
is a ``Layer`` that reads its predecessor's output shape, and none has rho
entries under a None label.  The final layer is always identity-activated.
Every message numbers layers from 0.  Weight counts are exact by
construction: zero coefficients are never stored, so ``num_weights`` equals
the number of stored tensor entries plus the number of nonzero bias entries.
Networks, layers, maps and masks are read-only once built, so a network's
counts and its compiled evaluation always describe the same layers.
A map stores its entries only as the CSR arrays of its flattened operator
(row pointers, flat input positions, coefficients), in row-major
``(i, j, k, l)`` order; its 1-based quadruples ``idx`` are derived from
them on demand.  That order is the one in which evaluation sums each row,
so it must stay row-major: another order would change the floats.
Evaluation flattens matrices row-major and stacks a batch of inputs as
columns.  It compiles the network, on the first call that needs it, into
one CSR operator per layer that holds only that layer's map entries, and
runs each layer as one call of scipy's CSR kernel (see ``_compile``).  The
floats are those of ``L X + C`` and then rho, layer by layer, whatever the
batch; rho must act entrywise.  A network's error guarantee holds only on
the domain its builder states (multipliers: operand entries in
``[-K, K]``; inverters: ``||I - alpha A||_2 <= delta``), and evaluation
does not check it.
"""

import bisect
import itertools
import math
import numbers
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools


class MatrixShape(NamedTuple):
    rows: int
    cols: int

    @property
    def size(self) -> int:
        return self.rows * self.cols


def _whole(n) -> bool:
    """The one integer rule: Python and numpy integers pass, bools do not."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _count(name: str, n, least: int = 1) -> int:
    """The one size rule: ``n`` as an int, if it is an integer (see
    ``_whole``) no smaller than ``least``; otherwise refused by ``name``."""
    if not _whole(n):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return int(n)


def _positive(name: str, x, below: float = math.inf) -> float:
    """The one real rule: ``x`` as a float64, if it is a real number by
    type (not a bool), finite as a float and in ``(0, below)``; otherwise
    refused by ``name``.  Callers derive budgets from the float64 it
    returns, never from ``x``: a numpy float32 would derive them in
    float32."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        ok = 0 < x < below and math.isfinite(x)
    except OverflowError:  # an integer beyond the largest float
        ok = False
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {x}"
                         if below == math.inf else
                         f"{name} must lie in (0, {below:g}), got {x}")
    return float(x)


def _derived(derive, spelled: str, advice: str) -> float:
    """The one derived-value rule: ``derive()``, a value computed in float64
    from the caller's parameters, unless it rounds to 0 or inf, or a term in
    it has no float; then refused as ``spelled`` in the caller's terms, with
    the caller's ``advice``."""
    try:
        value = derive()
    except OverflowError:  # as in 4.0 * 10**309 or 4.0 ** 512
        raise ValueError(f"{spelled} has a term beyond float64; {advice}"
                         ) from None
    if value in (0.0, math.inf):
        how = "underflows to 0 in" if value == 0.0 else "overflows"
        raise ValueError(f"{spelled} {how} float64; {advice}")
    return value


def _real(what: str, a) -> np.ndarray:
    """``a`` as an array of integers or real floats, else refused by its
    dtype: complex parts and strings are never read as numbers."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold integers or real floats, got "
                         f"dtype {a.dtype}")
    return a


def _as_shape(shape) -> MatrixShape:
    """``shape`` as two dimensions, each an integer >= 1 (see ``_whole``),
    or refused quoting it."""
    if len(shape) != 2 or not all(map(_whole, shape)):
        raise ValueError(f"shape must be two integers, got {tuple(shape)}")
    s = MatrixShape(int(shape[0]), int(shape[1]))
    if s.rows < 1 or s.cols < 1:
        raise ValueError(f"shape must be positive, got {tuple(shape)}")
    return s


def relu(x, out=None):
    return np.maximum(x, 0.0, out=out)


def relu_squared(x, out=None):
    r = np.maximum(x, 0.0, out=out)
    return np.multiply(r, r, out=out)  # not out=r: r is a scalar for 0-d x


#: named activations usable as the rho of a network; like numpy's ufuncs,
#: each takes ``out=`` and returns it (see :func:`realize_flat`)
ACTIVATIONS: dict = {"relu": relu, "relu2": relu_squared}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


#: sets an attribute of a read-only object: only its ``_store`` (for its
#: constructor or ``_from_valid``), ``Layer._stack`` (for a recorded
#: layer), ``_copies`` (for the count it keeps on a layer),
#: ``io._units`` and ``io._tiled`` (for the units kept on a layer),
#: ``_compile`` (for ``MNN._program``) or a frozen spec's
#: ``__post_init__``, to store a parameter as its float64
_set = object.__setattr__


class _ReadOnly:
    """Attributes set once, while the object is built: assigning or
    deleting one later raises ``AttributeError`` naming it, so that what
    a network computes cannot drift from what it stores and counts."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    @classmethod
    def _from_valid(cls, *parts):
        """The object on ``parts`` as its ``_store`` takes them, without
        the constructor's checks and copies: only for parts valid by
        construction, as ``_gathered`` (a record's map and mask, gathered
        from its children's),
        ``combinators.parallelize`` (the stacked layers),
        ``scale_output``, ``combinators.concat`` (two valid networks,
        joined where it checked them), ``ActivationMask.from_positions``,
        ``io._built`` (a mask and a bias set from positions and values
        the storage rule took) and ``io._band`` and ``io._run_line``
        (blocks cut or gathered from a valid layer's arrays) pass them.
        Arrays are frozen, not copied."""
        obj = cls.__new__(cls)
        obj._store(*parts)
        return obj


def _stored_rows(what: str, index, bounds, value=None):
    """The storage rule of map entries, bias entries and mask positions:
    rows of 1-based positions within ``bounds`` (with their values, or None)
    come back as sorted int64 row-major flat keys (and floats), and the first
    row with a non-integer or out-of-range index, a repeated position, or a
    non-finite or zero value is refused as ``<what> <e> <row> <reason>``.
    Values must be real numbers by dtype (see ``_real``)."""
    index = np.asarray(index)
    if index.dtype.kind == "b":  # numpy would read True/False as 1/0
        raise ValueError(f"{what} indices must be integers, not booleans")
    if index.dtype.kind not in "iu":  # cast only whole numbers that fit
        index = np.asarray(index, dtype=float)
        if (np.array_equal(index, np.trunc(index))
                and np.abs(index).max(initial=0) < 2 ** 62):
            index = index.astype(np.int64)
    index = index.reshape(-1, len(bounds))
    if value is not None:
        value = np.array(_real("values", value),  # a copy, to be frozen
                         dtype=float).reshape(len(index))
    if index.dtype.kind in "iu" and (
            value is None or np.isfinite(value).all() and value.all()):
        try:
            key = np.ravel_multi_index(tuple(index.T - 1), bounds)
        except ValueError:  # an index out of range, named below
            pass
        else:
            if np.any(np.diff(key) <= 0):  # not yet in row-major order
                perm = np.argsort(key, kind="stable")
                key, value = key[perm], None if value is None else value[perm]
            if not np.any(np.diff(key) == 0):
                return key, value
    # refused: judge every row to name the first offending one.  Rows with
    # a bad index sit at position 1, so a row they make look repeated comes
    # after them and is never the one named.
    whole = (index == np.trunc(index)).all(axis=1)
    inside = whole & ((index >= 1) & (index <= bounds)).all(axis=1)
    key = np.ravel_multi_index(
        tuple(np.where(inside, index.T, 1).astype(np.int64) - 1), bounds)
    fresh = np.zeros(len(index), dtype=bool)
    fresh[np.unique(key, return_index=True)[1]] = True
    checks = [(whole, "has a non-integer index"),
              (inside, f"has an index out of range "
                       f"(upper bounds {list(bounds)})"),
              (fresh, "repeats an earlier position (duplicate)")]
    if value is not None:
        checks += [(np.isfinite(value), "has a non-finite value "
                    "(coefficients must be finite)"),
                   (value != 0.0,
                    "stores a zero (zero coefficients are not storable)")]
    e = int(np.argmin(np.logical_and.reduce([ok for ok, _ in checks])))
    row = index[e].tolist() + ([] if value is None else [float(value[e])])
    raise ValueError(f"{what} {e} {row} "
                     + next(text for ok, text in checks if not ok[e]))


class SparseLinearMap(_ReadOnly):
    """A 4-index linear map stored as the CSR arrays of its flattened
    ``(out.size x in.size)`` operator.

    It is given as ``idx``, ``(nnz, 4)`` 1-based quadruples ``(i, j, k, l)``,
    and ``val``, the matching coefficients: entry ``(i, j, k, l, v)`` sends
    input position ``(k, l)`` to output position ``(i, j)`` with weight
    ``v``.  The storage rule, which every table given to the constructor
    follows, built or loaded, refuses non-integer or out-of-range indices,
    repeated quadruples, explicit zeros, and coefficients that are
    non-finite or not real numbers, so that the entry count is the weight
    count.  The entries are kept only as
    ``indptr`` (row-major output row ``r`` holds entries
    ``indptr[r]:indptr[r + 1]``), ``indices`` (their row-major input
    positions) and ``val``, in row-major ``(i, j, k, l)`` order whatever
    order they arrive in.  That order is the order in which evaluation sums
    each output row, so it fixes the floats: changing it changes the
    outputs.  ``idx`` is derived from these arrays on each call.  The maps
    that ``parallelize`` stacks and that ``scale_output`` scales reuse the
    arrays of maps that passed the rule, with ``__init__``'s dtypes, so
    they are in range and in order by construction and are not checked a
    second time (``_from_valid``).  The arrays are frozen and the
    attributes read-only.
    """

    __slots__ = ("out_shape", "in_shape", "indptr", "indices", "val")

    def __init__(self, out_shape, in_shape, idx, val):
        out_shape, in_shape = _as_shape(out_shape), _as_shape(in_shape)
        key, val = _stored_rows("entry", idx, out_shape + in_shape, val)
        rows, indices = np.divmod(key, in_shape.size)
        starts = np.bincount(rows + 1, minlength=out_shape.size + 1)
        self._store(out_shape, in_shape, starts.cumsum(), indices, val)

    def _store(self, out_shape, in_shape, indptr, indices, val):
        _set(self, "out_shape", out_shape)
        _set(self, "in_shape", in_shape)
        _set(self, "indptr", _freeze(indptr))
        _set(self, "indices", _freeze(indices))
        _set(self, "val", _freeze(val))

    @classmethod
    def from_blocks(cls, out_shape, in_shape, blocks) -> "SparseLinearMap":
        """The map copying whole blocks, each scaled by one coefficient.

        A block ``(out_row, out_col, in_row, in_col, rows, cols, coeff)``
        sends the ``rows x cols`` input block at 0-based offset
        ``(in_row, in_col)`` to the output block at ``(out_row, out_col)``.
        Overlapping blocks and zero coefficients are refused like any
        repeated or zero entry, and a coefficient that is not a real number
        by its dtype.  Block sizes follow the size rule (``_count``, an
        integer >= 0), refused by block and field, as in ``block 0 rows
        must be an integer, got 1.5``; an offset is an index like any
        other, so ``0.5`` is refused as a non-integer index.  The table is
        read in one pass; the quadruples of all blocks then come from array
        arithmetic in table order, each block row-major.
        """
        offsets, sizes, coeffs = [], [], []
        for b, (out_row, out_col, in_row, in_col, rows, cols,
                coeff) in enumerate(blocks):
            offsets.append((out_row, out_col, in_row, in_col))
            rows = _count(f"block {b} rows", rows, 0)
            cols = _count(f"block {b} cols", cols, 0)
            # the entry count as a Python int: one beyond int64 is then
            # refused by numpy below, not wrapped
            sizes.append((rows * cols, cols))
            coeffs.append(_real("block coefficients", coeff))
        count, cols = np.array(sizes, dtype=np.int64).reshape(-1, 2).T
        # each entry's block, and its row and column there, row-major
        block = np.repeat(np.arange(count.size), count)
        first = (count.cumsum() - count)[block]  # its block's first entry
        r, c = np.divmod(np.arange(block.size) - first, cols[block])
        idx = (np.reshape(offsets, (-1, 4))[block]
               + (np.stack([r, c, r, c], axis=1) + 1))
        return cls(out_shape, in_shape, idx,
                   np.array(coeffs, dtype=float)[block])

    @property
    def idx(self) -> np.ndarray:
        """The ``(nnz, 4)`` int64 1-based quadruples, new on each call."""
        idx = np.empty((self.nnz, 4), dtype=np.int64)
        rows = np.arange(self.out_shape.size, dtype=np.int64).repeat(
            self.indptr[1:] - self.indptr[:-1])
        np.divmod(rows, self.out_shape.cols, out=(idx[:, 0], idx[:, 1]))
        np.divmod(self.indices, self.in_shape.cols, out=(idx[:, 2], idx[:, 3]))
        idx += 1
        return idx

    @property
    def nnz(self) -> int:
        return int(self.val.size)

    def matrix(self) -> sparse.csr_matrix:
        """The (out.size x in.size) CSR operator on the frozen ``val``."""
        return sparse.csr_matrix((self.val, self.indices, self.indptr),
                                 shape=(self.out_shape.size, self.in_shape.size))


class ActivationMask(_ReadOnly):
    """Per-entry choice between the identity and the rho activation; a
    given ``rho`` must hold booleans."""

    __slots__ = ("shape", "rho")

    def __init__(self, shape, rho=None):
        shape = _as_shape(shape)
        if rho is None:
            rho = np.zeros(tuple(shape), dtype=bool)
        else:
            rho = np.array(rho)
            if rho.dtype.kind != "b":  # 0.5 and "False" would read as True
                raise ValueError(f"mask must hold booleans, got dtype "
                                 f"{rho.dtype}")
            if rho.shape != tuple(shape):
                raise ValueError("mask array does not match shape")
        self._store(shape, rho)

    def _store(self, shape, rho):
        _set(self, "shape", shape)
        _set(self, "rho", _freeze(rho))

    @classmethod
    def all_rho(cls, shape) -> "ActivationMask":
        return cls(shape, np.ones(tuple(_as_shape(shape)), dtype=bool))

    @classmethod
    def from_positions(cls, shape, positions) -> "ActivationMask":
        """Mask with rho exactly at the given 1-based (i, j) positions; built
        or loaded, they follow the rule of map entries, each listed once.
        The new mask is set only at positions that rule took, so it is
        stored as it is (``_from_valid``), not copied and checked again."""
        shape = _as_shape(shape)
        rho = np.zeros(tuple(shape), dtype=bool)
        key, _ = _stored_rows("mask entry", positions, shape)
        rho.reshape(-1)[key] = True
        return cls._from_valid(shape, rho)

    @property
    def any_rho(self) -> bool:
        return bool(self.rho.any())


class Layer(_ReadOnly):
    """One network layer: sparse map, bias matrix, activation mask.  The
    map must be a ``SparseLinearMap``, the bias must hold integers or real
    floats, all finite, and a given mask must be an ``ActivationMask``.

    A row stack that ``combinators._stack_layers`` or a copies or run line
    builds is made by ``_stack``: it records its runs of one child,
    ``((child_p, r_p), ...)``, and holds no arrays.  r copies of one
    child, ``kron(I_r, child)``, are the one run ``((child, r),)``.  The
    shapes, the weight count and ``any_rho`` come from the record.  Each
    read of a record's ``map``, ``bias`` or ``mask`` gathers all three
    afresh (``_unrecorded``), in the frozen arrays and dtypes the
    constructor would store for the stacked quadruples (copy ``c``'s input
    positions moved by ``c`` input blocks), and keeps none of them: code
    that reads several of a layer's arrays reads ``_unrecorded(layer)``
    once."""

    __slots__ = ("out_shape", "in_shape", "weight_count", "_rho_count",
                 "_parts", "_map", "_bias", "_mask", "_copies_found",
                 "_units_found")

    def __init__(self, linmap: SparseLinearMap, bias=None, mask=None):
        if not isinstance(linmap, SparseLinearMap):
            raise ValueError(f"linmap must be a SparseLinearMap, got "
                             f"{type(linmap).__name__}")
        shape = linmap.out_shape
        if bias is None:
            bias = np.zeros(tuple(shape))
        bias = np.array(_real("bias", bias), dtype=float)
        if bias.shape != tuple(shape):
            raise ValueError(f"bias shape {bias.shape} != {tuple(shape)}")
        if not np.all(np.isfinite(bias)):
            raise ValueError("bias entries must be finite")
        if mask is None:
            mask = ActivationMask(shape)
        if not isinstance(mask, ActivationMask):
            raise ValueError(f"mask must be an ActivationMask, got "
                             f"{type(mask).__name__}")
        if mask.shape != shape:
            raise ValueError("mask shape does not match the layer output")
        self._store(linmap, bias, mask)

    def _store(self, linmap, bias, mask):
        _set(self, "out_shape", linmap.out_shape)
        _set(self, "in_shape", linmap.in_shape)
        _set(self, "weight_count", linmap.nnz + int(np.count_nonzero(bias)))
        _set(self, "_rho_count", int(np.count_nonzero(mask.rho)))
        _set(self, "_parts", None)
        _set(self, "_map", linmap)
        _set(self, "_bias", _freeze(bias))
        _set(self, "_mask", mask)
        _set(self, "_copies_found", None)  # see _copies
        _set(self, "_units_found", None)  # see io._units

    @classmethod
    def _stack(cls, parts) -> "Layer":
        """The row stack of ``parts``, runs ``((child_p, r_p), ...)`` of r_p
        copies of child_p, at the widest child's column counts, recorded
        as those runs; it holds no arrays.  One copy of a child is the
        child, and r copies of a child recorded as one run of q copies of
        a layer are r q copies of that layer, so a one-run record never
        holds another."""
        parts = tuple(parts)
        if len(parts) == 1:
            child, r = parts[0]
            if r == 1:
                return child
            if child._parts is not None and len(child._parts) == 1:
                (child, q), = child._parts
                parts = ((child, r * q),)
        out_rows = out_cols = in_rows = in_cols = weight_count = rho_count = 0
        for child, r in parts:
            out_rows += r * child.out_shape.rows
            out_cols = max(out_cols, child.out_shape.cols)
            in_rows += r * child.in_shape.rows
            in_cols = max(in_cols, child.in_shape.cols)
            weight_count += r * child.weight_count
            rho_count += r * child._rho_count
        layer = cls.__new__(cls)
        _set(layer, "out_shape", MatrixShape(out_rows, out_cols))
        _set(layer, "in_shape", MatrixShape(in_rows, in_cols))
        _set(layer, "weight_count", weight_count)
        _set(layer, "_rho_count", rho_count)
        _set(layer, "_parts", parts)
        for name in ("_map", "_bias", "_mask", "_copies_found",
                     "_units_found"):
            _set(layer, name, None)  # no arrays; counts found when asked
        return layer

    @property
    def map(self) -> SparseLinearMap:
        return _unrecorded(self)._map

    @property
    def bias(self) -> np.ndarray:
        return _unrecorded(self)._bias

    @property
    def mask(self) -> ActivationMask:
        return _unrecorded(self)._mask

    @property
    def any_rho(self) -> bool:
        """Whether rho acts on any entry, counted when the layer was made."""
        return self._rho_count > 0


def _segments(layer: Layer) -> list:
    """The layer as ``[(plain, q), ...]``: q copies of each plain layer (one
    without a record), stacked by rows in this order, each at its own
    column counts.  A layer without a record is ``[(layer, 1)]``."""
    if layer._parts is None:
        return [(layer, 1)]
    segments = []
    for child, r in layer._parts:
        inner = _segments(child)
        segments += ([(inner[0][0], inner[0][1] * r)] if len(inner) == 1
                     else inner * r)
    return segments


def _unrecorded(layer: Layer) -> Layer:
    """The layer where it has no record, else a plain layer on its record's
    arrays, gathered afresh on each call (``_gathered``) and kept nowhere:
    the one gather of a record's map, bias and mask, which a reader of
    several of them calls once."""
    if layer._parts is None:
        return layer
    return Layer._from_valid(*_gathered(_segments(layer), layer.out_shape,
                                        layer.in_shape))


def _gathered(segments, out_shape: MatrixShape, in_shape: MatrixShape):
    """``(map, bias, mask)`` of ``segments`` (see ``_segments``) stacked by
    rows in the given shapes, narrower segments padded with zero columns.
    Each plain layer is a valid map in row-major order and the segments'
    rows follow one another, so the stacked entries are in range and in
    row-major order by construction: they are wrapped as they are
    (``_from_valid``), and so are the bias and mask.  The arrays, dtypes
    included, are those the constructor stores for the stacked
    quadruples."""
    counts = np.zeros(out_shape, dtype=np.int64)  # entries per position
    bias = np.zeros(out_shape)
    rho = np.zeros(out_shape, dtype=bool)
    nnz = sum(q * layer.map.nnz for layer, q in segments)
    indices, vals = np.empty(nnz, dtype=np.int64), np.empty(nnz)
    out_off = in_off = at = 0
    for layer, q in segments:
        m = layer.map
        (r, c), (i, d) = m.out_shape, m.in_shape
        # the q copies' rows, each copy's arrays broadcast into its block
        rows = np.s_[out_off:out_off + q * r]
        for whole, part in ((counts, m.indptr[1:] - m.indptr[:-1]),
                            (bias, layer.bias), (rho, layer.mask.rho)):
            whole[rows].reshape(q, r, out_shape.cols)[:, :, :c] = (
                part.reshape(r, c))
        flat = m.indices + in_off * d
        if d != in_shape.cols:  # padded: the row-major positions move
            k, l = np.divmod(flat, d)
            flat = k * in_shape.cols + l
        # copy c is moved by c input blocks
        end = at + q * m.nnz
        np.add(flat, np.arange(0, q * i * in_shape.cols,
                               i * in_shape.cols)[:, None],
               out=indices[at:end].reshape(q, m.nnz))
        vals[at:end].reshape(q, m.nnz)[:] = m.val
        out_off += q * r
        in_off += q * i
        at = end
    indptr = np.zeros(out_shape.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    linmap = SparseLinearMap._from_valid(out_shape, in_shape, indptr,
                                         indices, vals)
    return linmap, _freeze(bias), ActivationMask._from_valid(out_shape, rho)


def _label(label) -> None:
    """The label rule: a network's rho label is a string, or None."""
    if label is not None and not isinstance(label, str):
        raise ValueError(f"activation must be a string or null, got {label!r}")


def _chain(layers: list, layer, label) -> None:
    """The layer-chain rule: append ``layer`` to ``layers``, a chain under
    ``label``, unless it is not a ``Layer``, does not read the last layer's
    output shape, or has rho entries under a None label; a refusal names
    it by its position from 0.  ``MNN`` and ``io.network_from_dict`` append
    here."""
    pos = len(layers)
    if not isinstance(layer, Layer):
        raise ValueError(f"layer {pos} must be a Layer, got "
                         f"{type(layer).__name__}")
    if layers and layer.in_shape != layers[-1].out_shape:
        raise ValueError(
            f"layer {pos} input shape {tuple(layer.in_shape)} does not match "
            f"layer {pos - 1} output shape {tuple(layers[-1].out_shape)}")
    if label is None and layer.any_rho:
        raise ValueError(f"layer {pos} has rho entries but the activation "
                         "is null")
    layers.append(layer)


class MNN(_ReadOnly):
    """A matrix neural network: a nonempty chain of layers (see ``_chain``)
    whose last layer has no rho entries, plus a rho label (see ``_label``)."""

    __slots__ = ("layers", "activation_name", "_program")

    def __init__(self, layers: Sequence[Layer],
                 activation_name: Optional[str] = None):
        _label(activation_name)
        chain = []
        for layer in layers:
            _chain(chain, layer, activation_name)
        if not chain:
            raise ValueError("a network needs at least one layer")
        if chain[-1].any_rho:
            raise ValueError(f"layer {len(chain) - 1} has rho entries, but "
                             "the final layer must be identity-activated")
        self._store(tuple(chain), activation_name)

    def _store(self, layers: tuple, activation_name):
        _set(self, "layers", layers)
        _set(self, "activation_name", activation_name)
        _set(self, "_program", None)  # the compiled program, see _compile

    @property
    def input_shape(self) -> MatrixShape:
        return self.layers[0].in_shape

    @property
    def output_shape(self) -> MatrixShape:
        return self.layers[-1].out_shape

    @property
    def num_weights(self) -> int:
        return sum(layer.weight_count for layer in self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def counts_satisfied(net: MNN, reference) -> bool:
    """Whether the net's (M, L) meet a reference ``(M_ref, L_ref, exact)``.

    An exact reference must be matched; a bound must not be exceeded.
    """
    M_ref, L_ref, exact = reference
    if exact:
        return (net.num_weights, net.num_layers) == (M_ref, L_ref)
    return net.num_weights <= M_ref and net.num_layers <= L_ref


# bytes of state one column tile should keep: the widest layer's state of a
# tile then stays in cache from one layer's product to the next one's.  The
# cache alone sizes the tile, down to one column: a folded layer runs r
# vectors per column, so a tile past the cache streams r times the state.
_TILE_BYTES = 2 ** 20

_IN_PLACE = ("rho must act in place: called as rho(block, out=block), it "
             "must write into block and return it")


def _divisors(n: int) -> list:
    """The divisors of ``n`` above 1, largest first."""
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*low, *(n // d for d in low)} - {1}, reverse=True)


def _copies(layer: Layer) -> int:
    """The largest r for which the layer is ``kron(I_r, B)``, else 1: its
    flattened operator is r copies of one block B along the diagonal, in
    row-major order, each with B's entries in B's stored order, B's bias
    and B's mask.  It is found once per ``Layer`` object and kept there.
    A layer recorded as one run of q copies of a child has q times the
    child's count, the count a scan of its arrays finds: arrays that
    repeat with the child's period and with a shorter one repeat with the
    gcd of the two (Fine and Wilf), a period of the child's.  Any other
    layer has the count a scan of its arrays finds, so loaded networks
    fold as built ones do: each divisor is first checked in O(1)
    (``_candidates``), a record of several runs off its record
    (``_stacked_copies``), and only one that passes is checked on the
    whole arrays."""
    found = layer._copies_found
    if found is None:
        parts = layer._parts
        if parts is None:
            found = _scanned_copies(layer)
        elif len(parts) == 1:
            child, q = parts[0]
            found = q * _copies(child)
        else:
            found = _stacked_copies(layer)
        _set(layer, "_copies_found", found)
    return found


def _candidates(out_size: int, in_size: int, nnz: int, entries_before,
                entry, position, probes=((0, 0),)):
    """The divisors r of a layer's sizes and entry count, largest first,
    that pass cheap necessary conditions, which reject most divisors
    before any whole array is read: from each probe ``(p, e)``, a flat
    output position and an entry, and from the probe one block back, the
    next block holds as many entries as a block does, position p's bias
    and rho are those of the same position one block on, and the next
    block's first entry is entry e moved by one input block.
    ``entries_before(p)`` is the number of entries before flat output
    position p, ``position(p)`` position p's bias and rho, and
    ``entry(e)`` entry e's flat input position and value."""
    for r in _divisors(math.gcd(out_size, in_size, nnz)):
        bo, bi, bn = out_size // r, in_size // r, nnz // r

        def agrees(p, e):
            if 0 <= p and p + bo <= out_size and (
                    entries_before(p + bo) - entries_before(p) != bn
                    or p + bo < out_size and position(p) != position(p + bo)):
                return False
            if 0 <= e and e + bn < nnz and bn:
                (first, v), (second, w) = entry(e), entry(e + bn)
                return second == first + bi and w == v
            return True

        if all(agrees(p, e) and agrees(p - bo, e - bn) for p, e in probes):
            yield r


def _scanned_copies(layer: Layer) -> int:
    """``_copies`` read off the layer's arrays."""
    m = layer.map
    rows = np.diff(m.indptr)
    bias, rho = layer.bias.reshape(-1), layer.mask.rho.reshape(-1)
    for r in _candidates(m.out_shape.size, m.in_shape.size, m.nnz,
                         m.indptr.__getitem__,
                         lambda e: (m.indices[e], m.val[e]),
                         lambda p: (bias[p], rho[p])):
        bo, bi, bn = m.out_shape.size // r, m.in_shape.size // r, m.nnz // r
        # each array equals itself shifted by one block, so every block
        # equals the first, its columns moved by one input block; since
        # the last block's columns are in range, the first reads only its
        # own input block
        if (np.array_equal(rows[bo:], rows[:-bo])
                and np.array_equal(rho[bo:], rho[:-bo])
                and np.array_equal(bias[bo:], bias[:-bo])
                and np.array_equal(m.val[bn:], m.val[:m.nnz - bn])
                and np.array_equal(m.indices[bn:],
                                   m.indices[:m.nnz - bn] + bi)):
            return r
    return 1


def _stacked_copies(layer: Layer) -> int:
    """``_copies`` of a record of several runs: 1 where no divisor
    passes ``_candidates``' checks, probed where each of the record's
    segments (``_segments``) starts and answered off the segments without
    gathering them, else the scan of its arrays (``_unrecorded``)."""
    oc, ic = layer.out_shape.cols, layer.in_shape.cols
    segments = _segments(layer)
    # per segment: its first flat output position, entry and input row
    firsts = np.cumsum([(0, 0, 0)] + [
        (q * part.out_shape.rows * oc, q * part.map.nnz,
         q * part.in_shape.rows) for part, q in segments], axis=0).tolist()
    positions, entries, _ = zip(*firsts)

    def place(p):
        # the segment holding flat output position p, and p's copy, matrix
        # row and column there
        s = bisect.bisect_right(positions, p) - 1
        copy, rest = divmod(p - positions[s],
                            segments[s][0].out_shape.rows * oc)
        return (s, copy, *divmod(rest, oc))

    def entries_before(p):
        if p == positions[-1]:  # the end
            return entries[-1]
        s, copy, row, col = place(p)
        m = segments[s][0].map
        c = m.out_shape.cols
        return entries[s] + copy * m.nnz + int(m.indptr[row * c + min(col, c)])

    def position(p):
        s, _, row, col = place(p)
        part = segments[s][0]
        if col >= part.out_shape.cols:  # a padding column
            return 0.0, False
        return part.bias[row, col], part.mask.rho[row, col]

    def entry(e):
        s = bisect.bisect_right(entries, e) - 1
        part, (_, e0, in0) = segments[s][0], firsts[s]
        m = part.map
        copy, rest = divmod(e - e0, m.nnz)
        k, l = divmod(int(m.indices[rest]), m.in_shape.cols)
        return (in0 + copy * m.in_shape.rows + k) * ic + l, m.val[rest]

    if next(_candidates(layer.out_shape.size, layer.in_shape.size,
                        entries[-1], entries_before, entry, position,
                        list(zip(positions, entries))[:-1]),
            None) is None:
        return 1
    return _scanned_copies(_unrecorded(layer))


def _recorded(layer: Layer, r: int):
    """``(holder, r / q)``: where the layer is recorded as one run of q
    copies of a child and q divides r, that child, whose first of r / q
    blocks is the layer's first of r; otherwise ``(layer, r)``.  The
    holder is plain, gathered once where it is a record (``_unrecorded``),
    so a layer that is ``kron(I_r, B)`` reads B off its child's arrays,
    and its copies are never tiled.  A one-run record never holds another
    (``Layer._stack``)."""
    parts = layer._parts
    if parts is not None and len(parts) == 1 and r % parts[0][1] == 0:
        child, q = parts[0]
        return _unrecorded(child), r // q
    return _unrecorded(layer), r


def _roles(m: SparseLinearMap, per_row, bias, rho) -> np.ndarray:
    """Each of the first ``rho.size`` rows of ``m``, holding ``per_row``
    entries each, by its int8 role: 0 identity, 1 source, 2 rho, 3 repeat.
    A repeat is a rho row whose stored entries, indices and values in
    stored order, equal those of its source, the row just before it, an
    identity row with zero bias and at least one entry: the relu gadget's
    ``(T, rho(T - 1/2))`` pair.  Every state holds B's rows sorted stably
    by role, over a copy-minor base before a run (see :func:`_compile`).
    Read off the arrays alone, so loaded networks compile as built ones
    do."""
    role = rho.astype(np.int8) * 2
    if not role.any():  # no rho rows, so no repeats
        return role
    n = rho.size
    rep = np.zeros(n, dtype=bool)
    rep[1:] = rho[1:] > rho[:-1]
    rep[1:] &= bias[:n - 1] == 0
    rep[1:] &= per_row[1:n] == per_row[:n - 1]
    rep &= per_row[:n] > 0
    cand = rep.nonzero()[0]
    lens = per_row[cand]
    # each candidate's entries, compared with those one row back
    owner = np.repeat(np.arange(cand.size), lens)
    e = np.repeat(m.indptr[cand] - np.cumsum(lens) + lens, lens)
    e += np.arange(e.size)
    back = e - lens[owner]
    differs = (m.indices[e] != m.indices[back]) | (m.val[e] != m.val[back])
    rep[cand[owner[differs]]] = False
    role[rep] += 1
    role[:-1] += rep[1:]
    return role


def _fold_plan(net: MNN) -> list:
    """The number of copies each layer runs as in the compiled program.

    A run of at least two consecutive layers with the same ``_copies``
    r > 1 folds: each runs as its block, on r vectors.  The run ends
    before the last layer, whose output is row-major, and its predecessor
    is a layer that does not fold and has no rho rows, since it writes
    the run's input copy-minor (see :func:`_compile`).  Every other layer
    runs whole, as 1 copy.  ``_copies`` is found once per layer object,
    and a recorded layer's from its record, with no scan."""
    last = net.num_layers - 1
    plan = [1] * net.num_layers
    start = 1
    for r, run in itertools.groupby(_copies(layer)
                                    for layer in net.layers[1:last]):
        end = start + len(list(run))
        if (r > 1 and end - start >= 2 and plan[start - 1] == 1
                and not net.layers[start - 1].any_rho):
            plan[start:end] = [r] * (end - start)
        start = end
    return plan


def _compile(net: MNN):
    """The network as ``(steps, tile, height)``: one step per layer, the
    column tile width and the height of the state buffers, built on the
    first call that needs it and cached on the network.  Every batch runs
    this one program: :func:`realize_flat` runs one tile of columns at a
    time through two state buffers, and each step is one call of scipy's
    CSR kernel, the one ``@`` runs, from one buffer into the other, zeroed;
    then the bias add, the adds of its repeats, and rho in place.

    A step is ``(rows, cols, vecs, indptr, indices, data, bias, adds,
    rho_from, rho_to)``: the CSR arrays of a ``(rows x cols)`` operator, as
    scipy's CSR kernels take them; the number of vectors it runs on for
    each column of the batch; its kernel rows' bias as a column, or None
    where they have none; the repeats it fills by adds; and the state rows
    ``rho_from:rho_to`` that rho acts on, ``rho_to`` being the rows of the
    state it writes.  The program's ``height`` is the largest state,
    counting the input.  A kernel row holds its map row's entries in stored
    order and nothing else; the relabelled columns are unsorted, and must
    stay so.  The kernel sums each row from the +0.0 of the zeroed state,
    so never to -0.0, and the bias is then added to every kernel row by one
    ``np.add``: +0.0 leaves a row without bias as it is, and the other rows
    get the floats of ``L @ V + bias``.

    A repeat (see :func:`_roles`) is a rho row whose entries are those of
    its identity neighbour, the source, as in the relu gadget's
    ``(T, rho(T - 1/2))`` pair.  The kernel leaves it out, and each run of
    repeats with one bias b is one add ``(source, repeat, count, b)``:
    ``count`` state rows from ``repeat`` on are as many rows from
    ``source`` on plus b.  A source has no bias, and the kernel sums it
    from +0.0 over the terms the repeat would sum, in the same order, so
    the add gives the repeat's float exactly, whatever rho is.  The roles
    of a layer object that the network holds more than once are found
    once for each number of copies it runs as, and the state order of
    equal roles over an equal base is found once: most of the inverter's
    layers have the roles of the layer before them.

    A layer that is r copies of one block B (``kron(I_r, B)``, see
    :func:`_copies`), in the runs of layers :func:`_fold_plan` picks, runs
    as B alone on r vectors per column, one per copy; every other layer
    is its own B, on one vector.  Every state follows one rule: B's rows
    sorted stably by role (see :func:`_roles`), over a row-major base, or
    before a run a copy-minor one (row b of every copy, then row b + 1).
    The kernel writes the first ``rows`` rows (the identity rows, the
    sources as one contiguous run, the other rho rows), the adds write
    the repeats after them in their sources' order, and rho acts on the
    last ``rho_to - rho_from`` rows, one contiguous block; the next step's
    columns are relabelled to match.  A state without rho rows is in base
    order: inputs and outputs stay row-major, and a run reads its input
    copy-minor.  A folded state holds each of B's rows r times, one per
    copy, so that a run of rows is still one block, r times as long, for
    the kernel, the adds and rho.  Each copy's row sums the same terms in
    the same order from zero as the whole layer's row would, so folding
    keeps the floats, and a layer of 2401 leaf copies is one product over
    B's few rows instead of 2401 short dot products.  The tile is sized by
    the cache alone (see ``_TILE_BYTES``), as a folded row spans r times
    the tile.
    """
    program = net._program
    if program is not None:
        return program
    plan = _fold_plan(net)
    # roles: (layer, r) -> its block's, found once; orders: (the roles'
    # bytes, the copies of a copy-minor base or 1) -> the state order
    steps, roles, orders = [], {}, {}
    size = widest = net.input_shape.size
    moved = np.arange(size)  # the input in row-major order
    for layer, r, after in zip(net.layers, plan, plan[1:] + [1]):
        # B, the first of the layer's r blocks, is the first of ``part``
        # blocks of ``holder``: of a recorded layer's child where its count
        # divides r, so a folded layer's copies are never tiled
        holder, part = _recorded(layer, r)
        m = holder.map
        bo = m.out_shape.size // part
        bi, bn = m.in_shape.size // part, m.nnz // part
        bias = holder.bias.reshape(-1)[:bo]
        per_map = m.indptr[1:bo + 1] - m.indptr[:bo]
        where = moved[:bi] // r  # the state rows of copy 0 of B's inputs
        role = roles.get((layer, r))
        if role is None:
            role = roles[layer, r] = _roles(m, per_map, bias,
                                            holder.mask.rho.reshape(-1)[:bo])
        # ``order`` lists B's rows in state order and ``row`` gives each its
        # state row; the sources, the rho rows and the repeats start at
        # ``src``, ``rho_from`` and ``rows``, the first ``rows`` the kernel's.
        # Layers with equal roles and base share them, found once
        key = role.tobytes(), after if after > r else 1
        state = orders.get(key)
        if state is None:
            base = np.arange(bo)
            if after > r:  # copy-minor, for the run that follows
                base = base.reshape(after, -1).T.ravel()
            order = base[np.argsort(role[base], kind="stable")]
            row = np.empty(bo, dtype=np.intp)
            row[order] = np.arange(bo)
            state = orders[key] = (
                order, row, *role[order].searchsorted((1, 2, 3)).tolist())
        order, row, src, rho_from, rows = state
        cols = size // r
        # int32 when it fits: the kernel then reads half the index bytes
        index = np.int32 if bn + cols <= 2 ** 31 else np.int64
        kept = order[:rows]
        lens = per_map[kept]
        indptr = np.zeros(rows + 1, dtype=index)
        np.cumsum(lens, out=indptr[1:])
        # kernel row k holds B's row kept[k]'s entries, in stored order; a
        # repeat's are left out.  Its bias is added after the product
        take = np.repeat(m.indptr[kept] - indptr[:-1], lens)
        take += np.arange(indptr[-1])
        indices = where[m.indices[take]].astype(index)
        kernel_bias = bias[kept][:, None] if bias[kept].any() else None
        # each run of repeats with one bias is its sources plus that bias
        adds = ()
        if rows < bo:
            b = bias[order[rows:]]
            cut = [0, *((b[1:] != b[:-1]).nonzero()[0] + 1), bo - rows]
            adds = tuple((src + lo, rows + lo, hi - lo, float(b[lo]))
                         for lo, hi in zip(cut, cut[1:]))
        steps.append((rows, cols, r, indptr, indices, m.val[take],
                      kernel_bias, adds, rho_from, bo))
        # copy q of B's row b sits at vector q of its state row
        moved = (row * r + np.arange(r)[:, None]).ravel()
        size = bo * r
        widest = max(widest, size)
    program = (steps, max(1, _TILE_BYTES // (8 * widest)), widest)
    _set(net, "_program", program)
    return program


def realize_flat(net: MNN, rho, columns: np.ndarray) -> np.ndarray:
    """Evaluate the network on flattened inputs stacked as columns.

    ``columns`` has shape ``(input_shape.size, batch)`` and holds integers
    or real floats; the result is a fresh ``(output_shape.size, batch)``
    array.  This is the batched workhorse behind :func:`realize`.  Every
    batch runs the one program that :func:`_compile` builds on the
    network's first evaluation, one cache-sized tile of columns at a
    time: each layer is one call of scipy's CSR kernel (``csr_matvec``
    for one vector, ``csr_matvecs`` for more, the kernels that ``@``
    runs) and a few adds.  The floats are those of ``L X + C`` and then
    rho, layer by layer, whatever the batch and the tile.  A None ``rho``
    is the one ``ACTIVATIONS`` registers for the network's label.
    ``rho`` must act entrywise and in place, as numpy's ufuncs do: it is
    called as ``rho(block, out=block)`` on a contiguous 1-D block of one
    tile's rows and must return that block; a rho that takes no ``out=``
    or returns anything else is refused.
    """
    columns = _real("columns", columns)
    if columns.ndim != 2 or len(columns) != net.input_shape.size:
        raise ValueError(
            f"columns shape {columns.shape} does not match network input "
            f"{tuple(net.input_shape)} (layer 0): expected "
            f"({net.input_shape.size}, batch)"
        )
    if rho is None:
        rho = ACTIVATIONS.get(net.activation_name)
        if rho is None and any(layer.any_rho for layer in net.layers):
            raise ValueError(f"no callable registered for activation "
                             f"{net.activation_name!r}")
    size, batch = columns.shape
    # compile before the first state: operators built between states stay
    # above the freed states and keep the heap from shrinking
    steps, tile, height = _compile(net)
    out = np.empty((net.output_shape.size, batch))
    V, Y = np.empty((2, height * min(tile, batch)))  # reused by every tile
    for first in range(0, batch, tile):
        cut = columns[:, first:first + tile]
        c = cut.shape[1]
        V[:size * c].reshape(size, c)[:] = cut
        for (rows, cols, vecs, indptr, indices, data, bias, adds, rho_from,
             rho_to) in steps:
            n = vecs * c
            Y[:rows * n] = 0.0
            if n == 1:
                _sparsetools.csr_matvec(rows, cols, indptr, indices, data, V,
                                        Y)
            else:
                _sparsetools.csr_matvecs(rows, cols, n, indptr, indices, data,
                                         V, Y)
            if bias is not None:
                kernel = Y[:rows * n].reshape(rows, n)
                np.add(kernel, bias, out=kernel)
            for src, rep, count, b in adds:
                np.add(Y[src * n:(src + count) * n], b,
                       out=Y[rep * n:(rep + count) * n])
            if rho_from < rho_to:
                block = Y[rho_from * n:rho_to * n]
                try:
                    done = rho(block, out=block)
                except TypeError as err:  # as for a rho without out=
                    raise ValueError(_IN_PLACE) from err
                if done is not block:
                    raise ValueError(_IN_PLACE)
            V, Y = Y, V
        out[:, first:first + c] = V[:len(out) * c].reshape(-1, c)
    return out


def realize(net: MNN, input: np.ndarray) -> np.ndarray:
    """The function computed by the network, applied to one input matrix.

    Each layer costs one call of scipy's CSR kernel on the network compiled
    on its first evaluation, then rho in place, with rho the callable that
    ``ACTIVATIONS`` registers for the network's label (see
    :func:`realize_flat`), and the output is bit-identical to computing
    ``L X + C`` and then rho layer by layer.
    The input must hold integers or real floats, and only its shape is
    checked: the error guarantee covers the domain the builder states (for
    multipliers, entries of both operands in ``[-K, K]``; for inverters,
    ``||I - alpha A||_2 <= delta``), and an input outside it is evaluated
    all the same.
    """
    X = _real("input", input)
    if X.shape != tuple(net.input_shape):
        raise ValueError(
            f"input shape {X.shape} does not match network input "
            f"{tuple(net.input_shape)} (layer 0)"
        )
    out = realize_flat(net, None, X.reshape(-1, 1))
    return out.reshape(tuple(net.output_shape))


def realize_many(net: MNN, inputs) -> np.ndarray:
    """:func:`realize` on a batch; ``inputs`` is (batch, rows, cols)."""
    X = _real("inputs", inputs)
    if X.ndim != 3 or X.shape[1:] != tuple(net.input_shape):
        raise ValueError(
            f"batch shape {X.shape} does not match network input "
            f"{tuple(net.input_shape)}"
        )
    cols = X.reshape(X.shape[0], net.input_shape.size).T
    out = realize_flat(net, None, cols)
    return out.T.reshape(X.shape[0], *net.output_shape)


def _glue(out_shape, in_shape, blocks, bias=None) -> MNN:
    """A one-layer unlabelled network copying the given blocks (see
    :meth:`SparseLinearMap.from_blocks`), plus an optional bias."""
    linmap = SparseLinearMap.from_blocks(out_shape, in_shape, blocks)
    return MNN([Layer(linmap, bias)])


def identity_mnn(shape, depth: int) -> MNN:
    """The identity on ``shape`` realized with ``depth`` unlabelled layers.

    Useful as depth padding when parallelizing networks of unequal length;
    costs rows*cols weights per layer.
    """
    depth = _count("depth", depth)
    shape = _as_shape(shape)
    glue = _glue(shape, shape, [(0, 0, 0, 0, shape.rows, shape.cols, 1.0)])
    return MNN(glue.layers * depth)  # one read-only layer, repeated


def scale_output(net: MNN, c: float) -> MNN:
    """Scale the network's realization by c via its final layer.

    The last layer's coefficients and bias are multiplied by c, its map
    keeping its CSR ``indptr`` and ``indices``, so layer and weight counts
    are unchanged.  A non-finite ``c`` is refused, and so is ``c = 0``: it
    would collapse the weight count and the zero network should be built
    explicitly instead.  So is any ``c`` that would scale a last-layer
    coefficient or nonzero bias entry to zero (underflow) or to infinity
    (overflow), which would change the counts or store a non-finite weight.
    """
    c = float(_real("c", c))
    if not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c == 0.0:
        raise ValueError("scaling the output by zero collapses the network")
    last = _unrecorded(net.layers[-1])
    with np.errstate(over="ignore", under="ignore"):
        val, bias = last.map.val * c, last.bias * c
    weights = np.concatenate([val, bias[last.bias != 0]])
    if not (np.isfinite(weights).all() and weights.all()):
        raise ValueError(f"c = {c} scales a last-layer coefficient or bias "
                         "entry to zero or infinity")
    scaled_map = SparseLinearMap._from_valid(
        last.out_shape, last.in_shape, last.map.indptr, last.map.indices, val)
    scaled = Layer._from_valid(scaled_map, bias, last.mask)
    return MNN._from_valid(net.layers[:-1] + (scaled,), net.activation_name)


def mnn_equal(a: MNN, b: MNN) -> bool:
    """Structural equality: shapes, entries, biases, masks, label.  Each
    pair of layers is read once (``_unrecorded``)."""
    if a.activation_name != b.activation_name or a.num_layers != b.num_layers:
        return False
    return all(
        la.out_shape == lb.out_shape and la.in_shape == lb.in_shape
        and np.array_equal(la.map.indptr, lb.map.indptr)
        and np.array_equal(la.map.indices, lb.map.indices)
        and np.array_equal(la.map.val, lb.map.val)
        and np.array_equal(la.bias, lb.bias)
        and np.array_equal(la.mask.rho, lb.mask.rho)
        for la, lb in zip(map(_unrecorded, a.layers),
                          map(_unrecorded, b.layers)))
