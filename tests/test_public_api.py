"""The package's public surface: a new or dropped export shows up here."""

import inspect

import strassennet

PUBLIC = [
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


def test_all_is_pinned():
    names = strassennet.__all__
    assert len(names) == len(set(names)) == 57
    assert all(hasattr(strassennet, name) for name in names)
    assert not any(name.startswith("_") for name in names)
    assert names == PUBLIC


def test_internal_builders_are_not_exported():
    # glue layers only the library composes, and the removed entry builder
    for name in ("EntryBuilder", "build_aux", "build_dup_simple",
                 "build_dup_half", "build_flip", "build_mix_aux", "build_ext",
                 "build_ext_star", "build_shr"):
        assert name not in strassennet.__all__
        assert not hasattr(strassennet, name)


def test_evaluation_takes_rho_only_through_realize_flat():
    # rho comes from the network's label; realize_flat alone takes a
    # callable, for a label with none registered in ACTIVATIONS
    def params(name):
        return list(inspect.signature(getattr(strassennet, name)).parameters)
    assert params("realize") == ["net", "input"]
    assert params("realize_many") == ["net", "inputs"]
    assert params("verify_gadget") == ["net", "spec"]
    assert params("realize_flat") == ["net", "rho", "columns"]
