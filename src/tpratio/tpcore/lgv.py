"""Minor evaluation by non-intersecting path families.

A minor ``(rows | cols)`` of a planar-network matrix equals the sum, over
all families of vertex-disjoint left-to-right paths joining the source
wires ``rows`` to the sink wires ``cols``, of the product of the edge
weights used.  Because each network layer carries at most one slant, two
paths of a family can never cross without sharing a vertex, so a family is
exactly a sequence of strictly increasing wire tuples, matched in order,
moving through the layers.  This module sums those families directly,
giving an oracle for minors that never touches a determinant.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from ..budgets import MAX_RANK
from ..combinatorics import MinorSpec
from ..errors import BudgetExceeded, SizeMismatch
from .network import NetworkParams, chip_entries, chips, flat_weights


def _transitions(chip, rank: int):
    """Outgoing options per wire: {incoming: [(outgoing, weight), ...]}."""
    options: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)
    for (r, c), w in chip_entries(chip, rank):
        options[r].append((c, w))
    return options


def lgv_minors(params: NetworkParams, spec: MinorSpec) -> Fraction:
    """Sum of weights of vertex-disjoint path families from ``spec.rows``
    to ``spec.cols``; equals the corresponding minor of the network matrix."""
    n = params.rank
    if n > MAX_RANK:
        raise BudgetExceeded(f"path-family enumeration is budgeted to rank {MAX_RANK}")
    if spec.rank != n:
        raise SizeMismatch(f"minor rank {spec.rank} vs network rank {n}")
    if spec.size == 0:
        return Fraction(1)

    states: dict[tuple[int, ...], Fraction] = {spec.rows: Fraction(1)}
    for chip in chips(n, flat_weights(params)):
        options = _transitions(chip, n)
        nxt: dict[tuple[int, ...], Fraction] = defaultdict(Fraction)

        def extend(idx: int, wires: tuple[int, ...], built: tuple[int, ...], weight):
            if idx == len(wires):
                nxt[built] += weight
                return
            for target, w in options[wires[idx]]:
                # Strictly increasing targets keep the paths vertex-disjoint
                # (and order-preserving, which is the only way disjoint paths
                # can run in a planar layered network).
                if built and target <= built[-1]:
                    continue
                extend(idx + 1, wires, built + (target,), weight * w)

        for wires, weight in states.items():
            extend(0, wires, (), weight)
        states = dict(nxt)
    return states.get(spec.cols, Fraction(0))
