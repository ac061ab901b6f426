"""Network composition with exactly additive weight and layer counts.

``concat`` composes two networks by layer stacking; nothing is merged, so
``M`` and ``L`` add exactly and the realization equals the function
composition bit for bit.  ``parallelize`` runs equal-depth networks
side-by-side on row-stacked inputs; when intermediate widths differ, the
narrower blocks are padded with implicit zero columns, which costs no
weights (no entries, zero bias, identity mask).  No stacked layer is
written out: it records its runs of one child (``Layer._stack``), one
run for copies of one network, as a Strassen level's seven, and several
for unequal children, as the inverter's square beside its carry of A, so
building memory grows with the number of distinct layers, not with the
copies.  A stacked layer's arrays are gathered from its children's CSR
arrays on their first read; those are valid and in row-major order
already, so they are not checked against the storage rule a second
time.  Nor is the stacked network: the
stacked layers of equal-depth valid networks chain by construction, so
``parallelize`` wraps them without walking the chain.  ``concat`` checks
only where its two valid operands meet.

Both label the result with the one activation label set among the operands
(``None`` if all are unlabelled glue) and refuse two different labels.
"""

import itertools
from typing import Callable, Iterable, Optional, Sequence

from .core import MNN, Layer


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

    No array is assembled: the stack records its runs of one child
    object, ``((child_p, r_p), ...)`` (``Layer._stack``), copies of one
    child, as Strassen's seven are, being the one run ``((child, r),)``.
    A copy of a one-run record records its innermost child, so a one-run
    record never holds another, and one child is itself; a child may be
    a stack of unequal children, so a stack of copies of a stack keeps
    its period.  The shapes, weight count, ``any_rho`` and copy count come
    from the record, and the arrays, gathered on their first read
    (``core._gathered``), equal those the constructor would store for the
    stacked quadruples, dtypes included.
    """
    # a Layer equals only itself, so each run holds one object
    return Layer._stack((child, len(list(run)))
                        for child, run in itertools.groupby(children))


def parallelize(nets: Iterable[MNN]) -> MNN:
    """Stack networks so they act independently on row-stacked inputs.

    All networks must share the layer count and any activation label they
    set, and agree on input and output column counts.  The result maps
    ``(A_1; ...; A_k)`` to ``(R(net_1)(A_1); ...)``, has the common depth,
    and exactly the summed weight count.  Copies of one network, as in
    ``parallelize([net] * 7)``, give layers that record their child and
    count, one run, instead of tiling its arrays, and unequal networks
    layers that record their runs (see ``_stack_layers``), so nested
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
