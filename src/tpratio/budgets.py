"""Size budgets.  Past one, a function raises `BudgetExceeded` at once
instead of starting work that would outgrow memory or patience.  No flag
or parameter lifts a budget."""

MAX_RANK = 4
"""Largest rank for the exact cone simplex, the symbolic polynomials and the
path-family oracle.  At rank 5 the simplex tableau grows from 70 x 190 to
252 x 952; the sparse simplex took 0.9, 1.0 and 13.5 s on three seeded
rank-5 two-over-two ST0 queries (2-CPU machine, CPython 3.11), against at
most 0.7 s on each of 232 rank-4 queries."""

MAX_RATIO_RANK = 8
"""Largest rank of a ratio `parse_ratio` reads, checked before any index set
is built, and of a matrix file the command line reads, checked before any
entry is parsed.  The slowest legal query at rank 8 is `basics --n 8`,
0.8 s as a fresh process (2-CPU machine, CPython 3.11); of the ratio
queries, `falsify` on a screen-passing two-over-two ratio, which ends
after its 20 random trials, takes 0.3 s, and `factor`, `eval --magnitude
64` and `check` 0.2 s or less.  One random trial costs 5.8 ms at rank 8
and 7.1 ms at rank 9.  Unbudgeted, `check` at rank 100,000 was still
running after 10 s."""

MAX_LISTED_BASICS = 100_000
"""Most basic ratios `basic_ratios_all` will list: rank 8 has 96,096 and
lists in about half a second; rank 9 has 463,320 and takes 2 s and over
100 MiB, and each further rank costs about five times the one before."""

MAX_COUNTED_RANK = 1000
"""Largest rank `basic_ratio_count` will count.  Rank 1000's count has 606
digits, fewer than 640, the least int-to-str digit limit CPython accepts,
so it prints under any setting.  From rank 7,135 on the count passes the
default limit of 4,300 digits, and at rank 10^6 `comb` alone takes 40 s."""

TERM_LIMIT = 10**7
"""Most terms of a symbolic polynomial; a product is refused before it
starts when its operands' term counts multiply past four times this."""

MAX_MAGNITUDE = 64
"""Largest weight spread ``2^[-m, m]`` of `random_network`.  At 64, `eval`
values have up to 255 digits at rank 4 and 773 at rank 8 (seeds 0-2)."""

MAX_NUMBER_DIGITS = 100
"""Most digits of a number the command line reads (a ratio label or a
rational; an exponent counts as the digits it stands for).  A value past
CPython's 4,300-digit int-to-str limit, which a `falsify` report reaches
once the degree gap passes about 550, is refused with `BudgetExceeded`
when the report renders it."""
