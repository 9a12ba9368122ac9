"""Bounded ratios of products of minors of totally positive matrices.

The library decides whether a ratio of products of minors (equivalently, of
Plücker coordinates of the positive Grassmannian) is bounded over all
totally positive matrices, and backs each verdict with something checkable:

* bounded two-over-two ratios get a factorization into basic ratios whose
  exponent vectors cancel exactly against the input;
* arbitrary ratios get polyhedral-cone membership certificates over the
  basic generators, with exact separating functionals on the outside;
* screened-out ratios get one-parameter totally positive families on which
  the exact value climbs past a threshold: numerical evidence of
  unboundedness, not a proof, and the search may end `Inconclusive`.

All arithmetic is exact rational.  Floats appear only in displayed
approximations (the CLI's ``value_float`` and ``(~...)`` renderings), never
in a computation.
"""

from .combinatorics import (
    Arc,
    ExponentVector,
    IndexSet,
    RatioExpr,
    arcs_up_to_half,
    check_condition_m,
    check_st0,
    cyclic_shift,
    cyclic_shift_ratio,
    degree_gap,
    minor_address,
    minor_to_plucker,
    m_vector,
    reversal,
    reversal_ratio,
)
from .conelab import (
    ConeVerdict,
    InCone,
    Outside,
    cone_membership,
    ratio_to_vector,
    verify_certificate,
)
from .factorizer import (
    BasicRatio,
    Decomposition,
    ElementaryRatio,
    FactorizationResult,
    basic_ratios_all,
    classify_elementary,
    decompose,
    delta_size,
    elementary_to_basics,
    factor_to_basics,
    interlaces,
    is_trivial,
    mu,
    split_once,
)
from .polycheck import (
    Polynomial,
    is_subtraction_free,
    ratio_difference_poly,
    symbolic_network_matrix,
)
from .tpcore.grassmann import eval_ratio, plucker_eval, reverse_matrix, shift_matrix
from .tpcore.matrices import (
    TPMatrix,
    det,
    network_matrix,
    random_network,
    random_tp,
    verify_tp,
)
from .tpcore.network import NetworkParams, staircase_word, variable_names
from .tpcore.witnesses import (
    THRESHOLD,
    T_LADDER,
    Evidence,
    Inconclusive,
    counterexample_matrix,
    falsify,
    witness_family,
    witness_matrix,
)

__version__ = "0.1.0"
