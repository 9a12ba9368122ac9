"""Sparse integer polynomials in the network weights; subtraction-freeness.

Over the planar network, every matrix entry (hence every minor, bracket,
and ratio) is a polynomial in the weights ``L1..Lk, D1..Dn, U1..Uk``.  For
a ratio ``p/q`` the difference ``q - p`` having no negative coefficient
("subtraction free") certifies boundedness by 1 for free, since any
positive weights then give ``p <= q``.

Polynomials are dicts from packed monomials to nonzero integer
coefficients: one int per monomial, each exponent in its own fixed-width
bit field and the total degree in the field above them, so a monomial
product is one int addition (`Polynomial`).  The first variable sits in
the most significant field under the degree, so the int order of the keys
is the graded lexicographic order over the fixed variable order above;
it only matters for reporting deterministic witnesses.  `Monomial`, the
exponent tuple, is the reporting type, decoded only where a term is read:
by `Polynomial.evaluate` and for the witness of `is_subtraction_free`.

The symbolic network matrix is
`tpratio.tpcore.network.network_product` taken over polynomials, with
variable ``i`` standing for weight ``i`` of the flat order (`flat_weights`,
`variable_names`); `network_matrix` takes the same product over `Fraction`.
Its brackets come from `_symbolic_brackets`, the one Laplace expansion of
all minors, built once per rank; numeric brackets never run it, they are
`det` of integer rows (`tpratio.tpcore.grassmann.plucker_eval`).  So
``symbolic_bracket(n, alpha).evaluate(flat_weights(p))`` is the exact
bracket of ``network_matrix(p)``, by another algorithm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .combinatorics import IndexSet, RatioExpr, check_rank
from .budgets import MAX_DEGREE, MAX_RANK, TERM_LIMIT
from .errors import BudgetExceeded, InvalidInput
from .tpcore.network import chips, network_product, variable_names

Exponents = tuple[int, ...]

_WIDTH = MAX_DEGREE.bit_length()
"""Bits per exponent field of a packed monomial: the least that hold
`MAX_DEGREE`, the most any one exponent can reach."""


def _pack(nvars: int, exponents: Exponents) -> int:
    """The packed key of one exponent tuple; see `Polynomial`."""
    if len(exponents) != nvars or any(e < 0 for e in exponents):
        raise InvalidInput(f"need {nvars} nonnegative exponents, got {exponents!r}")
    degree = sum(exponents)
    if degree > MAX_DEGREE:
        raise BudgetExceeded(f"monomial degree {degree} exceeds {MAX_DEGREE}")
    key = degree
    for e in exponents:
        key = key << _WIDTH | e
    return key


def _unpack(nvars: int, key: int) -> Exponents:
    """The exponent tuple of a packed key."""
    field = (1 << _WIDTH) - 1
    # from a list: tuple() of a generator shrinks its result by realloc, and
    # CPython's tuple free lists then grow by one a call
    return tuple([key >> _WIDTH * i & field for i in range(nvars - 1, -1, -1)])


@dataclass(frozen=True, order=False)
class Monomial:
    """A dense exponent tuple over the fixed variable order."""

    exponents: Exponents

    def format(self, rank: int) -> str:
        parts = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(variable_names(rank), self.exponents)
            if e
        ]
        return "*".join(parts) if parts else "1"


class Polynomial:
    """Sparse polynomial with exact integer coefficients.

    ``terms`` maps a packed monomial to its nonzero coefficient: exponent
    ``i`` sits in the `_WIDTH`-bit field ``nvars - 1 - i`` of an int, and
    field ``nvars`` holds the total degree, so multiplying two monomials is
    one int addition and keys compare in graded lexicographic order.  No
    total degree passes `MAX_DEGREE`, so no field carries into the next.
    Canonical: no zero coefficients are stored, so equality is dict
    equality.  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, int] | None = None):
        self.nvars = nvars
        self.terms = {_pack(nvars, k): v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def _of(cls, nvars: int, terms: dict[int, int]) -> "Polynomial":
        """The polynomial of packed ``terms``, dropping zero coefficients."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = {k: v for k, v in terms.items() if v}
        return poly

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "Polynomial":
        return cls._of(nvars, {0: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(self.terms, default=0) >> _WIDTH * self.nvars

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _plus(self, terms) -> "Polynomial":
        out = dict(self.terms)
        get = out.get
        for k, v in terms:
            out[k] = get(k, 0) + v
        return Polynomial._of(self.nvars, out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other.terms.items())

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus((k, -v) for k, v in other.terms.items())

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if len(self.terms) * len(other.terms) > 4 * TERM_LIMIT:
            raise BudgetExceeded("polynomial product exceeds the term budget")
        if self.degree + other.degree > MAX_DEGREE:
            raise BudgetExceeded(f"polynomial product exceeds degree {MAX_DEGREE}")
        out: dict[int, int] = {}
        get = out.get
        right = other.terms.items()
        for k1, v1 in self.terms.items():
            for k2, v2 in right:
                key = k1 + k2
                out[key] = get(key, 0) + v1 * v2
        if len(out) > TERM_LIMIT:
            raise BudgetExceeded("polynomial exceeds the term budget")
        return Polynomial._of(self.nvars, out)

    def evaluate(self, values: tuple[Fraction, ...]) -> Fraction:
        if len(values) != self.nvars:
            raise InvalidInput(f"need {self.nvars} values, got {len(values)}")
        total = Fraction(0)
        for key, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, _unpack(self.nvars, key)):
                if e:
                    term *= v**e
            total += term
        return total

    def __repr__(self) -> str:
        return f"Polynomial({len(self.terms)} terms over {self.nvars} vars)"


def _nvars(rank: int) -> int:
    return rank * rank


def symbolic_network_matrix(rank: int) -> tuple[tuple[Polynomial, ...], ...]:
    """The network matrix with each weight replaced by its own variable, in
    the flat order of `variable_names`."""
    check_rank(rank)
    if rank > MAX_RANK:
        raise BudgetExceeded(f"symbolic networks are budgeted to rank {MAX_RANK}")
    nv = _nvars(rank)
    layers = chips(rank, [Polynomial.variable(nv, i) for i in range(nv)])
    return network_product(
        rank, layers, Polynomial.zero(nv), Polynomial.constant(nv, 1)
    )


@cache
def _symbolic_brackets(rank: int) -> dict[int, Polynomial]:
    """Every bracket of the symbolic network matrix, keyed by `IndexSet.mask`
    (rows are the low ``n`` bits, and a dropped column ``c`` is bit
    ``2n - c``), built once per rank.

    The minors are built in increasing size by Laplace expansion along
    their first row, each from the minors one size smaller, which the table
    already holds; the base set is the empty minor, 1."""
    grid, n, nv = symbolic_network_matrix(rank), rank, _nvars(rank)
    base = (1 << 2 * n) - (1 << n)  # every column dropped
    bit = [1 << (2 * n - 1 - c) for c in range(n)]  # column c's dropped label
    table = {base: Polynomial.constant(nv, 1)}
    for k in range(1, n + 1):
        col_sets = [(cols, base - sum(bit[c] for c in cols))
                    for cols in itertools.combinations(range(n), k)]
        for rows in itertools.combinations(range(n), k):
            first = grid[rows[0]]
            rest = sum(1 << r for r in rows[1:])
            for cols, dropped in col_sets:
                value = Polynomial.zero(nv)
                for j, c in enumerate(cols):
                    term = first[c] * table[rest | dropped | bit[c]]
                    value = value - term if j & 1 else value + term
                table[rest | 1 << rows[0] | dropped] = value
    return table


def symbolic_bracket(rank: int, alpha: IndexSet) -> Polynomial:
    """The bracket of ``alpha`` as a polynomial in the network weights."""
    return _symbolic_brackets(rank)[alpha.mask]


def ratio_difference_poly(ratio: RatioExpr) -> Polynomial:
    """``q - p`` where the ratio is ``p/q`` in the network weights."""
    n = ratio.rank
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
    failure the graded-lex-least negative monomial, the least negative
    key, is the witness."""
    key = min((k for k, c in poly.terms.items() if c < 0), default=None)
    if key is None:
        return SubtractionFreeVerdict(True)
    return SubtractionFreeVerdict(False, Monomial(_unpack(poly.nvars, key)), poly.terms[key])
