"""The public surface: a name added to or removed from ``tnshap.__all__``
shows up here as a one-line diff."""

import tnshap

PUBLIC_NAMES = [
    "AttributionSet",
    "BINARY",
    "BTREE",
    "CoalitionTable",
    "FOURIER",
    "FeatureMap",
    "FitConfig",
    "FitReport",
    "INCLUSION_EXCLUSION",
    "LiftSpec",
    "POLY",
    "SIGNED_TOGGLE",
    "TT",
    "TensorNetworkModel",
    "TnTopology",
    "build_training_set",
    "capped_uniform_bonds",
    "chebyshev_nodes",
    "cut_rank",
    "diagonal_coefficient_probe",
    "enumerate_game",
    "eval_quality",
    "exact_sii",
    "explain",
    "explain_batch",
    "fit_student",
    "gen_cp_teacher",
    "gen_tree_teacher",
    "load_model",
    "materialize_full",
    "mobius_coefficients",
    "model_from_json_dict",
    "model_to_json_dict",
    "off_state",
    "probe_value",
    "quadrature_weights",
    "rank_sweep",
    "read_attribution_csv",
    "save_model",
    "signed_toggle",
    "sii_weights",
    "size_grouped_sums",
    "write_attribution_csv",
]


def test_all_is_pinned():
    assert sorted(tnshap.__all__) == PUBLIC_NAMES


def test_no_duplicates():
    assert len(set(tnshap.__all__)) == len(tnshap.__all__)


def test_every_name_resolves():
    missing = [name for name in tnshap.__all__ if not hasattr(tnshap, name)]
    assert missing == []
