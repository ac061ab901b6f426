"""Network composition with exactly additive weight and layer counts.

``concat`` composes two networks by layer stacking; nothing is merged, so
``M`` and ``L`` add exactly and the realization equals the function
composition bit for bit.  ``parallelize`` runs equal-depth networks
side-by-side on row-stacked inputs; when intermediate widths differ, the
narrower blocks are padded with implicit zero columns, which costs no
weights (no entries, zero bias, identity mask).  Copies of one network,
as a Strassen level's seven, are not written out: each stacked layer
records its one child and the copy count (``Layer._repeat``), so building
memory grows with the number of distinct layers, not with the copies.
Each other stacked map is assembled from its children's CSR arrays, which
are valid and in row-major order already, so it is not checked against
the storage rule a second time, and neither are the stacked layer and its
mask.  Nor is the stacked network: the stacked layers of equal-depth valid
networks chain by construction, so ``parallelize`` wraps them without
walking the chain.  ``concat`` checks only where its two valid operands
meet.

Both label the result with the one activation label set among the operands
(``None`` if all are unlabelled glue) and refuse two different labels.
"""

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import MNN, ActivationMask, Layer, MatrixShape, SparseLinearMap


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
    counts are the sums of the operands' counts.  Each operand is a valid
    chain already, so only the junction and the labels are checked: the
    result is not walked layer by layer a second time.
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
    return MNN._from_valid(second.layers + first.layers, label)


def _stack_layers(children: Sequence[Layer]) -> Layer:
    """The children's layers stacked by rows: child ``c`` reads the input
    rows and writes the output rows below those of the children before it,
    and narrower children are padded with zero columns.

    When every child is one ``Layer`` object, as Strassen's seven copies
    are, the stack is ``kron(I_r, child)``: it is recorded as ``(child,
    r)`` (``Layer._repeat``), with no array tiled until one is read, and a
    stack of copies of a recorded layer records the innermost child; one
    child is itself.  Otherwise the map is assembled from the children's
    CSR arrays, not from their quadruples.  Each child is a valid map in
    row-major order, and the children's rows follow one another, so the
    stacked entries are in range and in row-major order by construction:
    they are wrapped as they are (``SparseLinearMap._from_valid``),
    without a second pass of the storage rule, and so are the stacked bias
    and mask, which are neither checked nor copied again
    (``Layer._from_valid``).  Either way, the arrays equal those the
    constructor would store for the stacked quadruples, dtypes included.
    """
    first, r = children[0], len(children)
    # a Layer equals only itself, so this counts copies of that one object
    if children.count(first) == r:
        return first if r == 1 else Layer._repeat(first, r)
    out_shape = MatrixShape(sum(layer.out_shape.rows for layer in children),
                            max(layer.out_shape.cols for layer in children))
    in_shape = MatrixShape(sum(layer.in_shape.rows for layer in children),
                           max(layer.in_shape.cols for layer in children))
    # entries per output position; the padding columns hold none
    counts = np.zeros(out_shape, dtype=np.int64)
    bias = np.zeros(out_shape)
    rho = np.zeros(out_shape, dtype=bool)
    indices = []
    out_off = in_off = 0
    for layer in children:
        m = layer.map
        r, c = m.out_shape
        at = np.s_[out_off:out_off + r, :c]
        counts[at] = np.diff(m.indptr).reshape(r, c)
        bias[at] = layer.bias
        rho[at] = layer.mask.rho
        k, l = np.divmod(m.indices, m.in_shape.cols)
        indices.append((k + in_off) * in_shape.cols + l)
        out_off += r
        in_off += m.in_shape.rows
    indptr = np.zeros(out_shape.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    linmap = SparseLinearMap._from_valid(
        out_shape, in_shape, indptr, np.concatenate(indices),
        np.concatenate([layer.map.val for layer in children]))
    return Layer._from_valid(linmap, bias,
                             ActivationMask._from_valid(out_shape, rho))


def parallelize(nets: Iterable[MNN]) -> MNN:
    """Stack networks so they act independently on row-stacked inputs.

    All networks must share the layer count and any activation label they
    set, and agree on input and output column counts.  The result maps
    ``(A_1; ...; A_k)`` to ``(R(net_1)(A_1); ...)``, has the common depth,
    and exactly the summed weight count.  Copies of one network, as in
    ``parallelize([net] * 7)``, give layers that record their child and
    count instead of tiling its arrays (see ``_stack_layers``), so nested
    levels cost what their distinct layers do.  Only the operands are
    checked: stacked levels of valid chains chain by construction, so the
    result is wrapped as it is (``MNN._from_valid``), its chain not walked
    a second time.
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
    return MNN._from_valid(tuple(stacked), label)
