"""Exact totally positive matrices: construction, evaluation, witnesses."""

from .grassmann import (
    GrassmannRep,
    eval_ratio,
    grassmann_embed,
    plucker_eval,
    reverse_matrix,
    shift_matrix,
    sign_block,
)
from .lgv import lgv_minors
from .matrices import (
    TPMatrix,
    det,
    minor,
    network_matrix,
    random_network,
    random_tp,
    verify_tp,
)
from .network import NetworkParams, all_ones_params, staircase_word, variable_names
from .witnesses import (
    THRESHOLD,
    T_LADDER,
    Evidence,
    Inconclusive,
    counterexample_matrix,
    falsify,
    witness_family,
    witness_matrix,
)

__all__ = [
    "THRESHOLD",
    "T_LADDER",
    "Evidence",
    "GrassmannRep",
    "Inconclusive",
    "NetworkParams",
    "TPMatrix",
    "all_ones_params",
    "counterexample_matrix",
    "det",
    "eval_ratio",
    "falsify",
    "grassmann_embed",
    "lgv_minors",
    "minor",
    "network_matrix",
    "plucker_eval",
    "random_network",
    "random_tp",
    "reverse_matrix",
    "shift_matrix",
    "sign_block",
    "staircase_word",
    "variable_names",
    "verify_tp",
    "witness_family",
    "witness_matrix",
]
