"""Matrix neural networks as data: layers of sparse 4-index linear maps.

A network (:class:`MNN`) is a finite sequence of layers.  Each layer applies a
sparse linear map ``L`` to a matrix, adds a bias matrix ``C``, and applies a
per-entry activation drawn from ``{identity, rho}``:

    X  ->  alpha(L X + C),      (L X)_{ij} = sum_{kl} L_{ijkl} X_{kl}.

The final layer is always identity-activated.  Weight counts are exact by
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
columns, with one extra row of ones.  A network is compiled once, on its
first evaluation, into one CSR product per layer: its operator holds the map
entries, the nonzero biases as a last column fed by that row, and a 1 that
carries the row to the next layer.  Hidden states keep their rho rows first,
so rho acts on one contiguous block; that order is internal, and inputs and
outputs stay row-major.  A batch runs through all layers one cache-sized
tile of columns at a time.  The floats are those of ``L X + C`` and then
rho, layer by layer, whatever the batch; rho must act entrywise.  A
network's error guarantee holds only on the domain its builder states
(multipliers: operand entries in ``[-K, K]``; inverters:
``||I - alpha A||_2 <= delta``), and evaluation does not check it.
"""

from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import sparse


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


def _real(what: str, a) -> np.ndarray:
    """``a`` as an array of integers or real floats, else refused by its
    dtype: complex parts and strings are never read as numbers."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must hold integers or real floats, got "
                         f"dtype {a.dtype}")
    return a


def _as_shape(shape, keys=()) -> MatrixShape:
    """``shape`` as two dimensions, each an integer >= 1 (see ``_whole``).
    A refusal quotes the shape or, given the two dimensions' ``keys`` (the
    loader's field names), names the first offending one."""
    for key, n in zip(keys, shape):
        if not _whole(n):
            raise ValueError(f"{key} must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"has non-positive dimensions ({key} = {n})")
    if len(shape) != 2 or not all(map(_whole, shape)):
        raise ValueError(f"shape must be two integers, got {tuple(shape)}")
    s = MatrixShape(int(shape[0]), int(shape[1]))
    if s.rows < 1 or s.cols < 1:
        raise ValueError(f"shape must be positive, got {tuple(shape)}")
    return s


def relu(x):
    return np.maximum(x, 0.0)


def relu_squared(x):
    r = np.maximum(x, 0.0)
    return r * r


#: named activations usable as the rho of a network
ACTIVATIONS: dict = {"relu": relu, "relu2": relu_squared}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


#: sets an attribute of a read-only object: only its constructor (and
#: ``_compile``, for ``MNN._steps``) may call it
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
    arrays of maps that passed the rule, so they are in range and in order
    by construction and are not checked a second time (``_from_csr``).
    The arrays are frozen and the attributes read-only.
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
    def _from_csr(cls, out_shape: MatrixShape, in_shape: MatrixShape,
                  indptr, indices, val) -> "SparseLinearMap":
        """The map on CSR arrays taken as they are, without the storage
        rule: only for arrays assembled from valid maps so that they are
        in range, once per position, nonzero, finite and in row-major
        order by construction (the int64 ``indptr`` and ``indices`` and
        the float ``val`` of ``__init__``), as its two callers,
        ``combinators._stack_layers`` and ``scale_output``, pass them.
        The arrays are frozen, not copied."""
        linmap = cls.__new__(cls)
        linmap._store(out_shape, in_shape, indptr, indices, val)
        return linmap

    @classmethod
    def from_blocks(cls, out_shape, in_shape, blocks) -> "SparseLinearMap":
        """The map copying whole blocks, each scaled by one coefficient.

        A block ``(out_row, out_col, in_row, in_col, rows, cols, coeff)``
        sends the ``rows x cols`` input block at 0-based offset
        ``(in_row, in_col)`` to the output block at ``(out_row, out_col)``.
        Overlapping blocks and zero coefficients are refused like any
        repeated or zero entry, and a coefficient that is not a real number
        by its dtype.
        """
        idx, val = [np.empty((0, 4), dtype=np.int64)], [np.empty(0)]
        for out_row, out_col, in_row, in_col, rows, cols, coeff in blocks:
            r, c = np.indices((rows, cols)).reshape(2, -1) + 1
            idx.append(np.stack([out_row + r, out_col + c,
                                 in_row + r, in_col + c], axis=1))
            val.append(np.full(r.size, _real("block coefficients", coeff),
                                dtype=float))
        return cls(out_shape, in_shape, np.concatenate(idx),
                   np.concatenate(val))

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
        _set(self, "shape", shape)
        _set(self, "rho", _freeze(rho))

    @classmethod
    def all_rho(cls, shape) -> "ActivationMask":
        return cls(shape, np.ones(tuple(_as_shape(shape)), dtype=bool))

    @classmethod
    def from_positions(cls, shape, positions) -> "ActivationMask":
        """Mask with rho exactly at the given 1-based (i, j) positions; built
        or loaded, they follow the rule of map entries, each listed once."""
        shape = _as_shape(shape)
        rho = np.zeros(tuple(shape), dtype=bool)
        key, _ = _stored_rows("mask entry", positions, shape)
        rho.reshape(-1)[key] = True
        return cls(shape, rho)

    @property
    def any_rho(self) -> bool:
        return bool(self.rho.any())


class Layer(_ReadOnly):
    """One network layer: sparse map, bias matrix, activation mask.  The
    bias must hold integers or real floats, all finite."""

    __slots__ = ("map", "bias", "mask", "weight_count")

    def __init__(self, linmap: SparseLinearMap, bias=None, mask=None):
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
        if mask.shape != shape:
            raise ValueError("mask shape does not match the layer output")
        _set(self, "map", linmap)
        _set(self, "bias", _freeze(bias))
        _set(self, "mask", mask)
        _set(self, "weight_count", linmap.nnz + int(np.count_nonzero(bias)))

    @property
    def out_shape(self) -> MatrixShape:
        return self.map.out_shape

    @property
    def in_shape(self) -> MatrixShape:
        return self.map.in_shape


class MNN(_ReadOnly):
    """A matrix neural network: shape-compatible layers plus a rho label,
    which only a network without rho entries may leave ``None``."""

    __slots__ = ("layers", "activation_name", "_steps")

    def __init__(self, layers: Sequence[Layer],
                 activation_name: Optional[str] = None):
        layers = tuple(layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        for pos in range(1, len(layers)):
            if layers[pos].in_shape != layers[pos - 1].out_shape:
                raise ValueError(
                    f"layer {pos + 1} input shape {tuple(layers[pos].in_shape)} "
                    f"does not match layer {pos} output shape "
                    f"{tuple(layers[pos - 1].out_shape)}"
                )
        if layers[-1].mask.any_rho:
            raise ValueError("the final layer must be identity-activated")
        if activation_name is None and any(
                layer.mask.any_rho for layer in layers):
            raise ValueError("a network with rho entries needs an "
                             "activation label")
        _set(self, "layers", layers)
        _set(self, "activation_name", activation_name)
        _set(self, "_steps", None)  # the compiled evaluation, see _compile

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


def _resolve_rho(net: MNN, rho):
    if rho is not None:
        return rho
    rho = ACTIVATIONS.get(net.activation_name)
    if rho is None and any(layer.mask.any_rho for layer in net.layers):
        raise ValueError(
            f"no callable registered for activation {net.activation_name!r}"
        )
    return rho


# bytes of state one column tile should keep: the widest layer's state of a
# tile then stays in cache from one layer's product to the next one's.  A
# tile keeps at least 32 columns, over which each product's fixed cost is
# spread.
_TILE_BYTES = 2 ** 20


def _compile(net: MNN):
    """The network as ``(steps, tile)``: one ``(csr, n_rho)`` step per layer
    and the column tile width, built on the first evaluation and cached.

    Every state is held in its layer's rho-first order: the rho rows, then
    the identity rows, each in row-major order, then the row of ones.  A
    step's rho then acts on the contiguous ``V[:n_rho]``, and the next
    step's columns are relabelled to match.  Without rho, as for the input
    and the last layer, this is the identity order; the last layer's is cut
    before the ones row.  Each row holds its map entries in stored order
    with its nonzero bias after them, in the column of the ones row: the
    product sums the same terms in the same order as ``L @ V + bias``, so
    the floats are the same.  The relabelled columns are unsorted, and must
    stay so.
    """
    if net._steps is not None:
        return net._steps
    steps, widest, mask = [], net.input_shape.size + 1, None
    where = np.arange(net.input_shape.size)  # the input in row-major order
    for depth, layer in enumerate(net.layers, 1):
        m = layer.map
        bias = layer.bias.reshape(-1)
        if depth < net.num_layers:  # a last row with the 1 for the ones row
            bias = np.concatenate([bias, [1.0]])
        # int32 when it fits, which scipy would otherwise cast to in a pass
        index = np.int32 if m.nnz + bias.size + m.in_shape.size < 2 ** 31 \
            else np.int64
        per_map = np.diff(m.indptr, append=m.nnz)[:bias.size]  # ones row: 0
        biased = bias != 0
        indptr = np.zeros(bias.size + 1, dtype=index)
        rho = layer.mask.rho.reshape(-1)
        if not np.array_equal(rho, mask):
            # rho rows, identity rows, then the ones row: ``order`` lists
            # the row-major rows so, ``moved`` gives each its new position;
            # a run of layers with one mask shares them
            mask = rho
            order = np.concatenate([np.flatnonzero(rho), np.flatnonzero(~rho),
                                    [rho.size]])
            moved = np.empty_like(order, dtype=index)
            moved[order] = np.arange(order.size)
        np.cumsum((per_map + biased)[order[:bias.size]], out=indptr[1:])
        start = indptr[moved[:bias.size]]  # where each row-major row starts
        # entry e of row r goes to start[r] + e - m.indptr[r], and the
        # bias of row r right after its entries
        after = start + per_map
        put = np.repeat(start - m.indptr[:bias.size], per_map)
        put += np.arange(m.nnz)
        at = np.flatnonzero(biased)
        put_bias = after[at]
        data = np.empty(indptr[-1])
        data[put], data[put_bias] = m.val, bias[at]
        indices = np.empty(indptr[-1], dtype=index)
        indices[put] = where[m.indices]
        indices[put_bias] = m.in_shape.size  # the ones row stays last
        op = sparse.csr_matrix((data, indices, indptr),
                               shape=(bias.size, m.in_shape.size + 1))
        steps.append((op, int(np.count_nonzero(rho))))
        where = moved
        widest = max(widest, bias.size)
    _set(net, "_steps", (steps, max(32, _TILE_BYTES // (8 * widest))))
    return net._steps


def realize_flat(net: MNN, rho, columns: np.ndarray) -> np.ndarray:
    """Evaluate the network on flattened inputs stacked as columns.

    ``columns`` has shape ``(input_shape.size, batch)`` and holds integers
    or real floats; the result is a fresh ``(output_shape.size, batch)``
    array.  This is the batched workhorse behind :func:`realize`.  The
    network is compiled once, on its first evaluation, into one CSR
    product per layer on states carrying a last row of ones, with the bias
    as a last column; hidden states keep their rho rows first (see
    :func:`_compile`).  The batch runs through every layer one tile of
    columns at a time, sized so that a tile's state stays in cache.  The
    floats are those of ``L X + C`` and then rho, layer by layer, whatever
    the batch.  ``rho`` must act entrywise: it is called on a contiguous
    block of rows of one tile.
    """
    columns = _real("columns", columns)
    if columns.ndim != 2 or len(columns) != net.input_shape.size:
        raise ValueError(
            f"columns shape {columns.shape} does not match network input "
            f"{tuple(net.input_shape)} (layer 1): expected "
            f"({net.input_shape.size}, batch)"
        )
    rho = _resolve_rho(net, rho)
    # compile before the first state: operators built between states stay
    # above the freed states and keep the heap from shrinking
    steps, tile = _compile(net)
    batch = columns.shape[1]
    out = np.empty((net.output_shape.size, batch))
    for first in range(0, batch, tile):
        cut = columns[:, first:first + tile]
        V = np.empty((len(cut) + 1, cut.shape[1]))
        V[:-1] = cut
        V[-1] = 1.0
        for op, n_rho in steps:
            V = op @ V
            if n_rho:
                V[:n_rho] = rho(V[:n_rho])
        out[:, first:first + tile] = V
    return out


def realize(net: MNN, rho, input: np.ndarray) -> np.ndarray:
    """The function computed by the network, applied to one input matrix.

    ``rho`` may be None, in which case the activation is looked up from the
    network's ``activation_name``; it must act entrywise.  Each layer costs
    one sparse product of the network compiled on its first evaluation (see
    :func:`realize_flat`), and the output is bit-identical to computing
    ``L X + C`` and then rho layer by layer.  The input must hold integers
    or real floats, and only its shape is checked: the error guarantee
    covers the domain the builder states (for multipliers, entries of both
    operands in ``[-K, K]``; for inverters, ``||I - alpha A||_2 <= delta``),
    and an input outside it is evaluated all the same.
    """
    X = _real("input", input)
    if X.shape != tuple(net.input_shape):
        raise ValueError(
            f"input shape {X.shape} does not match network input "
            f"{tuple(net.input_shape)} (layer 1)"
        )
    out = realize_flat(net, rho, X.reshape(-1, 1))
    return out.reshape(tuple(net.output_shape))


def realize_many(net: MNN, rho, inputs) -> np.ndarray:
    """Evaluate a batch of input matrices; ``inputs`` is (batch, rows, cols)."""
    X = _real("inputs", inputs)
    if X.ndim != 3 or X.shape[1:] != tuple(net.input_shape):
        raise ValueError(
            f"batch shape {X.shape} does not match network input "
            f"{tuple(net.input_shape)}"
        )
    cols = X.reshape(X.shape[0], net.input_shape.size).T
    out = realize_flat(net, rho, cols)
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
    last = net.layers[-1]
    with np.errstate(over="ignore", under="ignore"):
        val, bias = last.map.val * c, last.bias * c
    weights = np.concatenate([val, bias[last.bias != 0]])
    if not (np.isfinite(weights).all() and weights.all()):
        raise ValueError(f"c = {c} scales a last-layer coefficient or bias "
                         "entry to zero or infinity")
    scaled_map = SparseLinearMap._from_csr(
        last.out_shape, last.in_shape, last.map.indptr, last.map.indices, val)
    scaled = Layer(scaled_map, bias, last.mask)
    return MNN(net.layers[:-1] + (scaled,), net.activation_name)


def mnn_equal(a: MNN, b: MNN) -> bool:
    """Structural equality: shapes, entries, biases, masks, label."""
    if a.activation_name != b.activation_name or a.num_layers != b.num_layers:
        return False
    return all(
        la.out_shape == lb.out_shape and la.in_shape == lb.in_shape
        and np.array_equal(la.map.indptr, lb.map.indptr)
        and np.array_equal(la.map.indices, lb.map.indices)
        and np.array_equal(la.map.val, lb.map.val)
        and np.array_equal(la.bias, lb.bias)
        and np.array_equal(la.mask.rho, lb.mask.rho)
        for la, lb in zip(a.layers, b.layers))
