"""Matrix neural networks as data: layers of sparse 4-index linear maps.

A network (:class:`MNN`) is a finite sequence of layers.  Each layer applies a
sparse linear map ``L`` to a matrix, adds a bias matrix ``C``, and applies a
per-entry activation drawn from ``{identity, rho}``:

    X  ->  alpha(L X + C),      (L X)_{ij} = sum_{kl} L_{ijkl} X_{kl}.

The final layer is always identity-activated.  Weight counts are exact by
construction: zero coefficients are never stored, so ``num_weights`` equals
the number of stored tensor entries plus the number of nonzero bias entries.
Evaluation flattens matrices row-major and runs each layer as a CSR
matrix-vector product, which also gives batched evaluation for free.
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


def _as_shape(shape) -> MatrixShape:
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


class SparseLinearMap:
    """A 4-index linear map stored as nonzero coordinate entries.

    ``idx`` is an ``(nnz, 4)`` int64 array of 1-based quadruples
    ``(i, j, k, l)`` and ``val`` the matching coefficients; entry
    ``(i, j, k, l, v)`` sends input position ``(k, l)`` to output position
    ``(i, j)`` with weight ``v``, stored in row-major ``(i, j, k, l)`` order
    whatever order they arrive in.  Duplicated quadruples, explicitly
    stored zeros and non-finite coefficients are rejected so that the entry
    count is the weight count.
    """

    __slots__ = ("out_shape", "in_shape", "idx", "val", "_csr")

    def __init__(self, out_shape, in_shape, idx, val):
        self.out_shape = _as_shape(out_shape)
        self.in_shape = _as_shape(in_shape)
        idx = np.asarray(idx, dtype=np.int64).reshape(-1, 4)
        val = np.asarray(val, dtype=float).reshape(-1)
        if idx.shape[0] != val.shape[0]:
            raise ValueError("idx and val lengths disagree")
        if not np.all(val != 0.0):
            raise ValueError("explicit zero coefficients are not storable")
        if not np.all(np.isfinite(val)):
            raise ValueError("coefficients must be finite")
        bounds = (self.out_shape.rows, self.out_shape.cols,
                  self.in_shape.rows, self.in_shape.cols)
        try:
            key = np.ravel_multi_index(tuple(idx.T - 1), bounds)
        except ValueError:
            raise ValueError(
                f"entry indices out of range for shapes {self.out_shape}"
                f" <- {self.in_shape}"
            ) from None
        order = np.argsort(key, kind="stable")
        if np.any(np.diff(key[order]) == 0):
            raise ValueError("duplicate (i, j, k, l) quadruple")
        self.idx = _freeze(idx[order])
        self.val = _freeze(val[order])
        self._csr = None

    @property
    def nnz(self) -> int:
        return int(self.val.size)

    def matrix(self) -> sparse.csr_matrix:
        """The flattened (out.size x in.size) CSR operator, built lazily."""
        if self._csr is None:
            i, j, k, l = (self.idx - 1).T
            rows, cols = i * self.out_shape.cols + j, k * self.in_shape.cols + l
            self._csr = sparse.csr_matrix(
                (self.val, (rows, cols)),
                shape=(self.out_shape.size, self.in_shape.size),
            )
        return self._csr

    def apply(self, A: np.ndarray) -> np.ndarray:
        A = np.asarray(A, dtype=float)
        if A.shape != tuple(self.in_shape):
            raise ValueError(f"input shape {A.shape} != {tuple(self.in_shape)}")
        out = self.matrix() @ A.reshape(-1)
        return out.reshape(tuple(self.out_shape))


class ActivationMask:
    """Per-entry choice between the identity and the rho activation."""

    __slots__ = ("shape", "rho")

    def __init__(self, shape, rho=None):
        self.shape = _as_shape(shape)
        if rho is None:
            rho = np.zeros(tuple(self.shape), dtype=bool)
        else:
            rho = np.array(rho, dtype=bool)
            if rho.shape != tuple(self.shape):
                raise ValueError("mask array does not match shape")
        self.rho = _freeze(rho)

    @classmethod
    def all_identity(cls, shape) -> "ActivationMask":
        return cls(shape)

    @classmethod
    def all_rho(cls, shape) -> "ActivationMask":
        return cls(shape, np.ones(tuple(_as_shape(shape)), dtype=bool))

    @classmethod
    def from_positions(cls, shape, positions) -> "ActivationMask":
        """Mask with rho exactly at the given 1-based (i, j) positions."""
        shape = _as_shape(shape)
        rho = np.zeros(tuple(shape), dtype=bool)
        for e, (i, j) in enumerate(positions):
            if not (1 <= i <= shape.rows and 1 <= j <= shape.cols):
                raise ValueError(f"entry {e} ({i}, {j}) lies outside the "
                                 f"{shape.rows}x{shape.cols} mask")
            rho[i - 1, j - 1] = True
        return cls(shape, rho)

    @property
    def any_rho(self) -> bool:
        return bool(self.rho.any())


class Layer:
    """One network layer: sparse map, bias matrix, activation mask."""

    __slots__ = ("map", "bias", "mask", "weight_count", "_bias_flat", "_rho_flat")

    def __init__(self, linmap: SparseLinearMap, bias=None, mask=None):
        self.map = linmap
        shape = linmap.out_shape
        if bias is None:
            bias = np.zeros(tuple(shape))
        bias = np.array(bias, dtype=float)
        if bias.shape != tuple(shape):
            raise ValueError(f"bias shape {bias.shape} != {tuple(shape)}")
        if not np.all(np.isfinite(bias)):
            raise ValueError("bias entries must be finite")
        if mask is None:
            mask = ActivationMask.all_identity(shape)
        if mask.shape != shape:
            raise ValueError("mask shape does not match the layer output")
        self.bias = _freeze(bias)
        self.mask = mask
        self.weight_count = linmap.nnz + int(np.count_nonzero(bias))
        # read-only views of the frozen arrays, flattened for realize_flat
        self._bias_flat = self.bias.reshape(-1)
        self._rho_flat = mask.rho.reshape(-1)

    @property
    def out_shape(self) -> MatrixShape:
        return self.map.out_shape

    @property
    def in_shape(self) -> MatrixShape:
        return self.map.in_shape


class MNN:
    """A matrix neural network: shape-compatible layers plus a rho label,
    which only a network without rho entries may leave ``None``."""

    __slots__ = ("layers", "activation_name")

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
        self.layers = layers
        self.activation_name = activation_name

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


def realize_flat(net: MNN, rho, columns: np.ndarray) -> np.ndarray:
    """Evaluate the network on flattened inputs stacked as columns.

    ``columns`` has shape ``(input_shape.size, batch)``; the result has shape
    ``(output_shape.size, batch)``.  This is the batched workhorse behind
    :func:`realize`.
    """
    rho = _resolve_rho(net, rho)
    V = np.asarray(columns, dtype=float)
    for layer in net.layers:
        V = layer.map.matrix() @ V
        V = V + layer._bias_flat[:, None]
        sel = layer._rho_flat
        if sel.any():
            V[sel, :] = rho(V[sel, :])
    return V


def realize(net: MNN, rho, input: np.ndarray) -> np.ndarray:
    """The function computed by the network, applied to one input matrix.

    ``rho`` may be None, in which case the activation is looked up from the
    network's ``activation_name``.
    """
    X = np.asarray(input, dtype=float)
    if X.shape != tuple(net.input_shape):
        raise ValueError(
            f"input shape {X.shape} does not match network input "
            f"{tuple(net.input_shape)} (layer 1)"
        )
    out = realize_flat(net, rho, X.reshape(-1, 1))
    return out.reshape(tuple(net.output_shape))


def realize_many(net: MNN, rho, inputs) -> np.ndarray:
    """Evaluate a batch of input matrices; ``inputs`` is (batch, rows, cols)."""
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 3 or X.shape[1:] != tuple(net.input_shape):
        raise ValueError(
            f"batch shape {X.shape} does not match network input "
            f"{tuple(net.input_shape)}"
        )
    cols = X.reshape(X.shape[0], -1).T
    out = realize_flat(net, rho, cols)
    return out.T.reshape(X.shape[0], *net.output_shape)


class EntryBuilder:
    """Accumulates sparse entries for a layer; block helpers are 0-based."""

    def __init__(self):
        self._idx = []
        self._val = []

    def add(self, i, j, k, l, value):
        """Add one entry with 1-based indices."""
        if value == 0.0:
            raise ValueError("refusing to store an explicit zero")
        self._idx.append(np.array([[i, j, k, l]], dtype=np.int64))
        self._val.append(np.array([value], dtype=float))
        return self

    def add_block(self, out_row, out_col, in_row, in_col, rows, cols, coeff=1.0):
        """Map an input block to an output block entrywise, scaled by coeff.

        Offsets are 0-based; the block spans ``rows x cols`` positions.
        """
        if coeff == 0.0:
            raise ValueError("refusing to store an explicit zero block")
        r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        r, c = r.reshape(-1), c.reshape(-1)
        quad = np.stack(
            [out_row + r + 1, out_col + c + 1, in_row + r + 1, in_col + c + 1],
            axis=1,
        )
        self._idx.append(quad.astype(np.int64))
        self._val.append(np.full(r.size, float(coeff)))
        return self

    def add_transposed_block(self, out_row, out_col, in_row, in_col,
                             rows, cols, coeff=1.0):
        """Like add_block, but reads the input block transposed."""
        if coeff == 0.0:
            raise ValueError("refusing to store an explicit zero block")
        r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        r, c = r.reshape(-1), c.reshape(-1)
        quad = np.stack(
            [out_row + r + 1, out_col + c + 1, in_row + c + 1, in_col + r + 1],
            axis=1,
        )
        self._idx.append(quad.astype(np.int64))
        self._val.append(np.full(r.size, float(coeff)))
        return self

    def build(self, out_shape, in_shape) -> SparseLinearMap:
        if self._idx:
            idx = np.concatenate(self._idx, axis=0)
            val = np.concatenate(self._val)
        else:
            idx = np.empty((0, 4), dtype=np.int64)
            val = np.empty(0)
        return SparseLinearMap(out_shape, in_shape, idx, val)


def identity_mnn(shape, depth: int) -> MNN:
    """The identity on ``shape`` realized with ``depth`` unlabelled layers.

    Useful as depth padding when parallelizing networks of unequal length;
    costs rows*cols weights per layer.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    shape = _as_shape(shape)
    linmap = EntryBuilder().add_block(0, 0, 0, 0, shape.rows,
                                      shape.cols).build(shape, shape)
    return MNN([Layer(linmap) for _ in range(depth)])


def scale_output(net: MNN, c: float) -> MNN:
    """Scale the network's realization by c via its final layer.

    The last layer's tensor and bias are multiplied by c, so layer and weight
    counts are unchanged.  ``c = 0`` is rejected: it would collapse the
    weight count and the zero network should be built explicitly instead.
    """
    c = float(c)
    if c == 0.0:
        raise ValueError("scaling the output by zero collapses the network")
    if c == 1.0:
        return MNN(net.layers, net.activation_name)
    last = net.layers[-1]
    scaled_map = SparseLinearMap(last.out_shape, last.in_shape,
                                 last.map.idx, last.map.val * c)
    scaled = Layer(scaled_map, last.bias * c, last.mask)
    return MNN(net.layers[:-1] + (scaled,), net.activation_name)


def mnn_equal(a: MNN, b: MNN) -> bool:
    """Structural equality: shapes, entries, biases, masks, label."""
    if a.activation_name != b.activation_name or a.num_layers != b.num_layers:
        return False
    return all(
        la.out_shape == lb.out_shape and la.in_shape == lb.in_shape
        and np.array_equal(la.map.idx, lb.map.idx)
        and np.array_equal(la.map.val, lb.map.val)
        and np.array_equal(la.bias, lb.bias)
        and np.array_equal(la.mask.rho, lb.mask.rho)
        for la, lb in zip(a.layers, b.layers))
