"""Size budgets.  Past one, a function raises `BudgetExceeded` at once
instead of starting work that would outgrow memory or patience."""

MAX_RANK = 4
"""Largest rank for the exact cone simplex (`cone_membership` lifts it with
``allow_large``), the symbolic polynomials and the path-family oracle.  At
rank 5 the simplex tableau grows from 70 x 190 to 252 x 952."""

MAX_LISTED_BASICS = 100_000
"""Most basic ratios `basic_ratios_all` will list: rank 8 has 96,096 and
lists in about half a second; rank 9 has 463,320 and takes 2 s and over
100 MiB, and each further rank costs about five times the one before."""
