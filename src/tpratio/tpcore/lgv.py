"""Bracket evaluation by non-intersecting path families.

The bracket of an index set is the minor ``(rows | cols)`` that
`minor_address` reads off it.  On a planar-network matrix that minor is
the sum, over all families of vertex-disjoint left-to-right paths joining
the source wires ``rows`` to the sink wires ``cols``, of the product of the
edge weights used.  Because each network layer carries at most one slant, two
paths of a family can never cross without sharing a vertex, so a family is
exactly a sequence of strictly increasing wire tuples, matched in order,
moving through the layers.  This module sums those families directly,
giving an oracle for brackets that never touches a determinant.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from ..budgets import MAX_RANK
from ..combinatorics import IndexSet, minor_address
from ..errors import BudgetExceeded, InvalidInput
from .network import NetworkParams, chip_entries, chips, flat_weights


def _transitions(chip, rank: int):
    """Outgoing options per wire: {incoming: [(outgoing, weight), ...]}."""
    options: dict[int, list[tuple[int, Fraction]]] = defaultdict(list)
    for (r, c), w in chip_entries(chip, rank):
        options[r].append((c, w))
    return options


def lgv_minors(params: NetworkParams, alpha: IndexSet) -> Fraction:
    """Sum of weights of vertex-disjoint path families from the rows to the
    kept columns `minor_address` reads off ``alpha``; equals the bracket of
    ``alpha`` on the network matrix."""
    n = params.rank
    if n > MAX_RANK:
        raise BudgetExceeded(f"path-family enumeration is budgeted to rank {MAX_RANK}")
    if alpha.rank != n:
        raise InvalidInput(f"bracket rank {alpha.rank} vs network rank {n}")
    rows, cols = minor_address(alpha)
    states: dict[tuple[int, ...], Fraction] = {rows: Fraction(1)}
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
    return states.get(cols, Fraction(0))
