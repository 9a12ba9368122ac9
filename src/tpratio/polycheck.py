"""Sparse integer polynomials in the network weights; subtraction-freeness.

Over the planar network, every matrix entry (hence every minor, bracket,
and ratio) is a polynomial in the weights ``L1..Lk, D1..Dn, U1..Uk``.  For
a ratio ``p/q`` the difference ``q - p`` having no negative coefficient
("subtraction free") certifies boundedness by 1 for free, since any
positive weights then give ``p <= q``.

Polynomials are dicts from dense exponent tuples to nonzero integer
coefficients.  The monomial order is graded lexicographic over the fixed
variable order above; it only matters for reporting deterministic
witnesses.  The symbolic network matrix is
`tpratio.tpcore.network.network_product` taken over polynomials, with
variable ``i`` standing for weight ``i`` of the flat order (`flat_weights`,
`variable_names`), so ``symbolic_minor(...).evaluate(flat_weights(p))`` is
the exact minor of ``network_matrix(p)``.  Brackets are computed as
symbolic minors through the index-set bridge, with sub-minors memoized by
(row set, column set).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import IndexSet, RatioExpr, plucker_to_minor
from .budgets import MAX_RANK
from .errors import BudgetExceeded, InvalidInput
from .tpcore.network import network_product, variable_names

TERM_LIMIT = 10**7

Exponents = tuple[int, ...]


@dataclass(frozen=True, order=False)
class Monomial:
    """A dense exponent tuple over the fixed variable order."""

    exponents: Exponents

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def grlex_key(self) -> tuple[int, Exponents]:
        return (self.degree, self.exponents)

    def as_map(self, rank: int) -> dict[str, int]:
        names = variable_names(rank)
        return {n: e for n, e in zip(names, self.exponents) if e}

    def format(self, rank: int) -> str:
        parts = [
            name if e == 1 else f"{name}^{e}"
            for name, e in self.as_map(rank).items()
        ]
        return "*".join(parts) if parts else "1"


class Polynomial:
    """Sparse polynomial with exact integer coefficients.

    Canonical: no zero coefficients are stored, so equality is dict
    equality.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, int] | None = None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if len(self.terms) * len(other.terms) > 4 * TERM_LIMIT:
            raise BudgetExceeded("polynomial product exceeds the term budget")
        out: dict[Exponents, int] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, 0) + v1 * v2
        if len(out) > TERM_LIMIT:
            raise BudgetExceeded("polynomial exceeds the term budget")
        return Polynomial(self.nvars, out)

    def evaluate(self, values: tuple[Fraction, ...]) -> Fraction:
        assert len(values) == self.nvars
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, exps):
                if e:
                    term *= v**e
            total += term
        return total

    def __repr__(self) -> str:
        return f"Polynomial({len(self.terms)} terms over {self.nvars} vars)"


def _nvars(rank: int) -> int:
    return rank * rank


@lru_cache(maxsize=None)
def symbolic_network_matrix(rank: int) -> tuple[tuple[Polynomial, ...], ...]:
    """The network matrix with each weight replaced by its own variable, in
    the flat order of `variable_names`."""
    if rank > MAX_RANK:
        raise BudgetExceeded(f"symbolic networks are budgeted to rank {MAX_RANK}")
    nv = _nvars(rank)
    weights = [Polynomial.variable(nv, i) for i in range(nv)]
    return network_product(
        rank, weights, Polynomial.zero(nv), Polynomial.constant(nv, 1)
    )


@lru_cache(maxsize=None)
def symbolic_minor(rank: int, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
    """Minor of the symbolic matrix, by cofactor expansion with memoized
    sub-minors keyed by (row set, column set)."""
    nv = _nvars(rank)
    if not rows:
        return Polynomial.constant(nv, 1)
    grid = symbolic_network_matrix(rank)
    if len(rows) == 1:
        return grid[rows[0] - 1][cols[0] - 1]
    result = Polynomial.zero(nv)
    rest = rows[1:]
    for pos, c in enumerate(cols):
        sub_cols = cols[:pos] + cols[pos + 1 :]
        term = grid[rows[0] - 1][c - 1] * symbolic_minor(rank, rest, sub_cols)
        result = result + term if pos % 2 == 0 else result - term
    return result


def symbolic_bracket(rank: int, alpha: IndexSet) -> Polynomial:
    spec = plucker_to_minor(alpha)
    return symbolic_minor(rank, spec.rows, spec.cols)


def ratio_difference_poly(ratio: RatioExpr, rank: int | None = None) -> Polynomial:
    """``q - p`` where the ratio is ``p/q`` in the network weights."""
    n = rank if rank is not None else ratio.rank
    if n != ratio.rank:
        raise InvalidInput(f"rank {n} does not match the ratio's rank {ratio.rank}")
    if n > MAX_RANK:
        raise BudgetExceeded(f"symbolic ratios are budgeted to rank {MAX_RANK}")
    nv = _nvars(n)
    p = Polynomial.constant(nv, 1)
    for s in ratio.numerator:
        p = p * symbolic_bracket(n, s)
    q = Polynomial.constant(nv, 1)
    for s in ratio.denominator:
        q = q * symbolic_bracket(n, s)
    return q - p


@dataclass(frozen=True)
class SubtractionFreeVerdict:
    subtraction_free: bool
    witness: Monomial | None = None
    witness_coefficient: int | None = None


def is_subtraction_free(poly: Polynomial) -> SubtractionFreeVerdict:
    """No negative coefficients?  The zero polynomial counts as free; on
    failure the graded-lex-least negative monomial is the witness."""
    worst = None
    for exps, coeff in poly.terms.items():
        if coeff < 0:
            m = Monomial(exps)
            if worst is None or m.grlex_key() < worst[0].grlex_key():
                worst = (m, coeff)
    if worst is None:
        return SubtractionFreeVerdict(True)
    return SubtractionFreeVerdict(False, worst[0], worst[1])
