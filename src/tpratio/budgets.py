"""Size budgets.  Past one, a function raises `BudgetExceeded` at once
instead of starting work that would outgrow memory or patience.  No flag
or parameter lifts a budget."""

MAX_RANK = 4
"""Largest rank for the exact cone simplex and the symbolic polynomials.
With it patched to 5 (2-CPU machine, CPython 3.11): the warm-started cone
simplex builds its per-rank basis in 0.04 s and then solves 100 seeded
two-over-two ST0 queries in a median of 1.4 ms, the slowest in 0.024 s (72
pivots), all 100 in 0.26 s; the symbolic bracket table, built once per
rank, takes 0.11-0.14 s (252 brackets of at most 195 terms), against
4.4-4.7 ms at rank 4 (three fresh processes each; 0.84-0.87 s and 15 ms
with exponent-tuple keys)."""

MAX_RATIO_RANK = 8
"""Largest rank of a ratio `parse_ratio` reads, checked before any index set
is built, and of a matrix file `eval --matrix` reads, checked before any
entry is parsed.  The slowest legal query at rank 8 is `basics --n 8`,
0.5 s as a fresh process (median of 5; 2-CPU machine, CPython 3.11); of
the ratio queries, `falsify` on a screen-passing two-over-two ratio, which
ends after its 20 random trials, takes 0.16 s, `factor`, `eval
--magnitude 64` and `check` 0.19 s or less, and `eval --matrix` on a
rank-8 matrix file 0.09 s.  One random trial costs 1.3-1.9 ms at rank 8
and 1.7-2.5 ms at rank 9.  Unbudgeted, `check` at rank 100,000 was still
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

MAX_DEGREE = 255
"""Largest total degree of a monomial of a symbolic polynomial, so each
exponent fits an 8-bit field of the packed key (`tpratio.polycheck`); a
product past it is refused before it starts.  The symbolic brackets reach
degree 10 at rank 4 and 15 at rank 5, so any ratio of up to 25 brackets a
side fits at rank 4 (17 at rank 5).  With 16-bit fields the rank-5 bracket
table and bracket products took 10-25% longer (2-CPU machine, CPython
3.11)."""

MAX_MAGNITUDE = 64
"""Largest weight spread ``2^[-m, m]`` of `random_network`.  At 64, `eval`
values have up to 255 digits at rank 4 and 773 at rank 8 (seeds 0-2)."""

MAX_NUMBER_DIGITS = 100
"""Most digits of a number the command line reads (a ratio label or a
rational; an exponent counts as the digits it stands for).  A value past
CPython's 4,300-digit int-to-str limit, which a `falsify` report reaches
once the degree gap passes about 550, is refused with `BudgetExceeded`
when the report renders it."""

MAX_INPUT_BYTES = 2**17
"""Most bytes the command line reads from an input file (`--file`,
`--matrix`), counted before any is decoded: 128 KiB, the least power of
two over the largest file the tests write (100,000 bytes).  Unbudgeted,
`check --file /dev/zero` read until memory ran out.  At the budget, a
rank-8 ratio file of 3,360 terms takes 0.7 s for `check` and 12-13 s for
`falsify` as a fresh process, in 20 MiB (2-CPU machine, CPython 3.11); at
256 KiB, 1.1 s and 44 s."""
