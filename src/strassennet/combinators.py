"""Network composition with exactly additive weight and layer counts.

``concat`` composes two networks by layer stacking; nothing is merged, so
``M`` and ``L`` add exactly and the realization equals the function
composition bit for bit.  ``parallelize`` runs equal-depth networks
side-by-side on row-stacked inputs; when intermediate widths differ, the
narrower blocks are padded with implicit zero columns, which costs no
weights (no entries, zero bias, identity mask).

Both label the result with the one activation label set among the operands
(``None`` if all are unlabelled glue) and refuse two different labels.
"""

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import MNN, ActivationMask, Layer, SparseLinearMap


def _shared_label(nets: Sequence[MNN],
                  mismatch: Callable[[list], str]) -> Optional[str]:
    """The one activation label set among ``nets``, or None; two different
    set labels are refused with the message ``mismatch(sorted labels)``."""
    names = sorted({net.activation_name for net in nets} - {None})
    if len(names) > 1:
        raise ValueError(mismatch(names))
    return names[0] if names else None


def concat(first: MNN, second: MNN) -> MNN:
    """Sparse concatenation: the network computing ``R(first) o R(second)``.

    ``second`` runs first, mirroring function composition.  Layer and weight
    counts are the sums of the operands' counts.
    """
    label = _shared_label(
        (first, second),
        lambda _: (f"activation mismatch: {first.activation_name!r} vs "
                   f"{second.activation_name!r}"))
    if second.output_shape != first.input_shape:
        raise ValueError(
            f"cannot compose: second network outputs {tuple(second.output_shape)} "
            f"but first network expects {tuple(first.input_shape)}"
        )
    return MNN(second.layers + first.layers, label)


def _stack_layers(children: Sequence[Layer]) -> Layer:
    out_rows = sum(layer.out_shape.rows for layer in children)
    in_rows = sum(layer.in_shape.rows for layer in children)
    out_cols = max(layer.out_shape.cols for layer in children)
    in_cols = max(layer.in_shape.cols for layer in children)
    idx_parts = []
    val_parts = []
    bias = np.zeros((out_rows, out_cols))
    rho = np.zeros((out_rows, out_cols), dtype=bool)
    out_off = 0
    in_off = 0
    for layer in children:
        if layer.map.nnz:
            shifted = layer.map.idx
            shifted[:, 0] += out_off
            shifted[:, 2] += in_off
            idx_parts.append(shifted)
            val_parts.append(layer.map.val)
        r, c = layer.out_shape
        bias[out_off:out_off + r, :c] = layer.bias
        rho[out_off:out_off + r, :c] = layer.mask.rho
        out_off += r
        in_off += layer.in_shape.rows
    if idx_parts:
        idx = np.concatenate(idx_parts, axis=0)
        val = np.concatenate(val_parts)
    else:
        idx = np.empty((0, 4), dtype=np.int64)
        val = np.empty(0)
    linmap = SparseLinearMap((out_rows, out_cols), (in_rows, in_cols), idx, val)
    return Layer(linmap, bias, ActivationMask((out_rows, out_cols), rho))


def parallelize(nets: Iterable[MNN]) -> MNN:
    """Stack networks so they act independently on row-stacked inputs.

    All networks must share the layer count and any activation label they
    set, and agree on input and output column counts.  The result maps
    ``(A_1; ...; A_k)`` to ``(R(net_1)(A_1); ...)``, has the common depth,
    and exactly the summed weight count.
    """
    nets = tuple(nets)
    if not nets:
        raise ValueError("parallelize needs at least one network")
    label = _shared_label(nets,
                          lambda names: f"activation labels differ: {names}")
    depths = {net.num_layers for net in nets}
    if len(depths) > 1:
        raise ValueError(
            f"layer counts differ ({sorted(depths)}); pad the shallower "
            "networks to a common depth first (identity_mnn and build_fill "
            "produce padding layers)"
        )
    if len({net.input_shape.cols for net in nets}) > 1:
        raise ValueError("input column counts differ; cannot row-stack")
    if len({net.output_shape.cols for net in nets}) > 1:
        raise ValueError("output column counts differ; cannot row-stack")
    stacked = [
        _stack_layers([net.layers[level] for net in nets])
        for level in range(nets[0].num_layers)
    ]
    return MNN(stacked, label)
