"""Exact Shapley values and interaction indices on tensor-network surrogates.

The library factors a multilinear model into a tensor train or balanced
binary tree, probes it with diagonal selector scalings at Chebyshev-Gauss
nodes, and recovers exact order-k interaction indices as one Fejer
quadrature (a cached weight vector) of each feature subset's probe values --
linearly many forward contractions instead of the 2^n coalition sweep, which
is also provided as the enumeration oracle for verification.
"""

from .attribute import (
    INCLUSION_EXCLUSION,
    SIGNED_TOGGLE,
    AttributionSet,
    chebyshev_nodes,
    explain,
    explain_batch,
    probe_value,
    quadrature_weights,
    read_attribution_csv,
    write_attribution_csv,
)
from .fit import (
    FitConfig,
    FitReport,
    build_training_set,
    eval_quality,
    fit_student,
    gen_cp_teacher,
    gen_tree_teacher,
    rank_sweep,
)
from .lift import BINARY, FOURIER, POLY, FeatureMap, LiftSpec, off_state, signed_toggle
from .model_io import load_model, model_from_json_dict, model_to_json_dict, save_model
from .oracle import (
    CoalitionTable,
    diagonal_coefficient_probe,
    enumerate_game,
    exact_sii,
    mobius_coefficients,
    size_grouped_sums,
    sii_weights,
)
from .tensor_net import (
    BTREE,
    TT,
    TensorNetworkModel,
    TnTopology,
    capped_uniform_bonds,
    cut_rank,
    materialize_full,
)

__version__ = "0.1.0"

__all__ = [
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
