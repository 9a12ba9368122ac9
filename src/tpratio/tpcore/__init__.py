"""Exact totally positive matrices: construction from planar networks,
brackets read as the minors they name, the rotation and mirror as bracket
relabellings, and the falsifier's witnesses."""

from .grassmann import (
    eval_ratio,
    plucker_eval,
    reverse_matrix,
    shift_matrix,
)
from .matrices import (
    TPMatrix,
    det,
    network_matrix,
    random_network,
    random_tp,
    verify_tp,
)
from .network import NetworkParams, staircase_word, variable_names
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
    "Inconclusive",
    "NetworkParams",
    "TPMatrix",
    "counterexample_matrix",
    "det",
    "eval_ratio",
    "falsify",
    "network_matrix",
    "plucker_eval",
    "random_network",
    "random_tp",
    "reverse_matrix",
    "shift_matrix",
    "staircase_word",
    "variable_names",
    "verify_tp",
    "witness_family",
    "witness_matrix",
]
