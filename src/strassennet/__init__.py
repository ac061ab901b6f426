"""Networks built from sparse matrix layers that multiply and invert matrices.

The package constructs explicit feedforward networks whose layers are
sparse linear maps on matrices: Strassen-recursion networks for matrix
multiplication (with ReLU or squared-ReLU product gadgets at the leaves)
and truncated-Neumann-series networks for matrix inversion.  Every
construction comes with exact or closed-form weight/layer counts and an
approximation guarantee, and `verification` checks both against slow,
independent oracles.
"""

from .combinators import concat, parallelize
from .core import (ACTIVATIONS, MNN, ActivationMask, Layer, MatrixShape,
                   SparseLinearMap, counts_satisfied, identity_mnn, mnn_equal,
                   realize, realize_flat, realize_many, scale_output)
from .gadgets import (FACTORIES, GadgetFactory, GadgetSpec,
                      build_product_relu, build_product_relu2,
                      gadget_count_reference, relu2_factory, relu_factory,
                      relu_gadget_bounds, verify_gadget)
from .inversion import (InversionSpec, NeumannDepth, build_fill, build_in,
                        build_inv, build_neu, build_sqr, compute_N,
                        inv_count_reference, neu_bound_counts, neumann_depth,
                        series_length_estimate)
from .io import (load_matrix, load_network, network_from_dict,
                 network_to_dict, save_matrix, save_network)
from .strassen import (RectShape, bound_counts_rect, bound_gadget_spec_rect,
                       build_mix, build_split, build_str_pow2, build_str_rect,
                       build_str_square, formula_counts_pow2,
                       pow2_count_reference, rect_count_reference)
from .verification import SUITES, CriterionResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "ACTIVATIONS", "ActivationMask", "CriterionResult", "FACTORIES",
    "GadgetFactory", "GadgetSpec", "InversionSpec", "Layer", "MNN",
    "MatrixShape", "NeumannDepth", "RectShape", "SUITES", "SparseLinearMap",
    "bound_counts_rect", "bound_gadget_spec_rect", "build_fill", "build_in",
    "build_inv", "build_mix", "build_neu", "build_product_relu",
    "build_product_relu2", "build_split", "build_sqr", "build_str_pow2",
    "build_str_rect", "build_str_square", "compute_N", "concat",
    "counts_satisfied", "formula_counts_pow2", "gadget_count_reference",
    "identity_mnn", "inv_count_reference", "load_matrix", "load_network",
    "mnn_equal", "network_from_dict", "network_to_dict", "neu_bound_counts",
    "neumann_depth", "parallelize", "pow2_count_reference", "realize",
    "realize_flat", "realize_many", "rect_count_reference", "relu2_factory",
    "relu_factory", "relu_gadget_bounds", "run_suite", "save_matrix",
    "save_network", "scale_output", "series_length_estimate", "verify_gadget",
]
