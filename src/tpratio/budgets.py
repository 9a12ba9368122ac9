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
entry is parsed.  The slowest legal queries at rank 8 are `falsify` runs with
every other cap at its maximum: 1,000 random trials, 32 ladder extensions
and a 100-digit threshold.  On a screen-passing and on a screen-failing
two-over-two ratio they took 4.5-5.7 s as fresh processes (2-CPU machine,
CPython 3.11); at rank 9 they took 7.4-7.5 s.  One random trial costs
4.6 ms at rank 8 and 7.6 ms at rank 9.  Unbudgeted, `check` at rank 100,000
was still running after 10 s."""

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

MAX_LADDER_EXTENSIONS = 32
"""Most factor-of-10 extensions of each `falsify` ladder.  The slowest of 40
rank-4 pool ratios took 0.5 s with 32 from a ladder and threshold of
10^100, and 1.6 s with 64 (2-CPU machine, CPython 3.11)."""

MAX_RANDOM_TRIALS = 1000
"""Most random matrices `falsify` tries: 0.2 ms each at rank 2, 1.1 ms at
rank 4 and 5.5 ms at rank 8."""

MAX_MAGNITUDE = 64
"""Largest weight spread ``2^[-m, m]`` of `random_network`.  At 64, `eval`
values have up to 255 digits at rank 4 and 773 at rank 8 (seeds 0-2)."""

MAX_NUMBER_DIGITS = 100
"""Most digits of a number the command line reads (a ratio label or a
rational; an exponent counts as the digits it stands for).  A ladder rung
then stays below 10^132.  A value past CPython's 4,300-digit int-to-str
limit, which a `falsify` report reaches once the degree gap passes about 30,
is refused with `BudgetExceeded` when the report renders it."""
