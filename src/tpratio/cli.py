"""Command-line front end.

Ratios are written in bracket notation, ``[1,4][2,3]/[1,3][2,4]``, or minor
notation, ``(1|1)(2|2)/(1|2)(2|1)`` (rows|columns; requires ``--n``).  Minor
terms are converted to brackets on input, so one pipeline serves both.

Every report has one envelope, written by `main` alone.  A subcommand
returns its verdict fields and its text lines; `main` adds ``schema``,
``command`` and, for every subcommand but ``basics``, ``input`` (the
ratio's canonical form) and ``n``, and prints either the text, led by a
``ratio:`` line, or, with ``--json``, one `tpratio.report/2` object.
Exact values become text only through `_exact`, as "num/den" strings, so
nothing is ever rounded.

Exit codes: 0 for any decided verdict (including "unbounded" and screen
failures), 2 for an inconclusive falsification, 1 for bad input, usage
errors and exceeded budgets, reported as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from fractions import Fraction

from . import combinatorics as comb
from .budgets import MAX_INPUT_BYTES, MAX_NUMBER_DIGITS, MAX_RATIO_RANK
from .combinatorics import ExponentVector, IndexSet, RatioExpr
from .conelab import InCone, cone_membership, verify_certificate
from .errors import (
    BudgetExceeded,
    ConditionMViolation,
    InvalidInput,
    RatioSyntaxError,
    St0Violation,
    TpratioError,
)
from .factorizer import basic_ratio_count, basic_ratios_all, factor_to_basics
from .polycheck import is_subtraction_free, ratio_difference_poly
from .tpcore.grassmann import eval_ratio
from .tpcore.matrices import TPMatrix, random_tp
from .tpcore.witnesses import Evidence, falsify

SCHEMA = "tpratio.report/2"


# ---------------------------------------------------------------------------
# ratio grammar


def parse_ratio(text: str, rank: int | None = None) -> RatioExpr:
    """Parse ``term+ "/" term+`` where a term is ``[i,j,...]`` or ``(rows|cols)``.

    In bracket notation the rank is the (common) term size; minor notation
    needs an explicit rank to perform the conversion.  Whitespace may sit
    between tokens but ends a label, so ``[1 0]`` is an error, not 10.
    Syntax errors carry the 0-based offset of the offending character.
    """
    if rank is not None:
        comb.check_rank(rank)
    num_terms, den_terms, minor_seen = _scan_terms(text)
    if minor_seen and rank is None:
        raise InvalidInput("minor notation needs an explicit rank (--n)")

    sizes = {len(t) for kind, t in num_terms + den_terms if kind == "bracket"}
    if len(sizes) > 1:
        raise InvalidInput(f"bracket terms of different sizes: {sorted(sizes)}")
    inferred = sizes.pop() if sizes else None
    if rank is not None and inferred is not None and rank != inferred:
        raise InvalidInput(f"--n {rank} but bracket terms have size {inferred}")
    n = rank if rank is not None else inferred
    if n > MAX_RATIO_RANK:
        raise BudgetExceeded(f"rank {n}: ratios are budgeted to rank {MAX_RATIO_RANK}")

    def to_set(kind, payload) -> IndexSet:
        if kind == "bracket":
            if max(payload) > 2 * n:
                raise InvalidInput(
                    f"element {max(payload)} exceeds 2n = {2 * n} in {payload}"
                )
            return IndexSet.of(n, payload)
        rows, cols = payload
        return comb.minor_to_plucker(n, rows, cols)

    return RatioExpr.of(
        n,
        [to_set(k, p) for k, p in num_terms],
        [to_set(k, p) for k, p in den_terms],
    )


def _scan_terms(text: str):
    num_terms: list = []
    den_terms: list = []
    current = num_terms
    seen_slash = False
    minor_seen = False
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
        elif ch == "/":
            if seen_slash:
                raise RatioSyntaxError("unexpected second '/'", pos)
            seen_slash = True
            current = den_terms
            pos += 1
        elif ch == "[":
            elems, pos = _parse_ints(text, pos + 1, "]")
            if not elems:
                raise RatioSyntaxError("empty bracket term", pos)
            _check_duplicates(elems, pos)
            current.append(("bracket", tuple(elems)))
        elif ch == "(":
            rows, pos = _parse_ints(text, pos + 1, "|")
            cols, pos = _parse_ints(text, pos, ")")
            _check_duplicates(rows, pos)
            _check_duplicates(cols, pos)
            current.append(("minor", (tuple(rows), tuple(cols))))
            minor_seen = True
        else:
            raise RatioSyntaxError(f"expected '[' or '(', found {ch!r}", pos)
    if not seen_slash:
        raise RatioSyntaxError("missing '/' between numerator and denominator", len(text))
    if not num_terms or not den_terms:
        raise RatioSyntaxError("each side of the ratio needs at least one term", len(text))
    return num_terms, den_terms, minor_seen


def _parse_ints(text: str, pos: int, closer: str) -> tuple[list[int], int]:
    elems: list[int] = []
    current = ""
    while pos < len(text):
        ch = text[pos]
        if ch.isdecimal():
            if current and text[pos - 1].isspace():  # whitespace ended the label
                raise RatioSyntaxError(f"expected ',' or {closer!r} after a label", pos)
            current += ch
            if len(current) > MAX_NUMBER_DIGITS:
                raise BudgetExceeded(f"a label over {MAX_NUMBER_DIGITS} digits")
            pos += 1
        elif ch == ",":
            if not current:
                raise RatioSyntaxError("expected a number before ','", pos)
            elems.append(int(current))
            current = ""
            pos += 1
        elif ch == closer:
            if current:
                elems.append(int(current))
            elif elems:
                raise RatioSyntaxError(f"expected a number before {closer!r}", pos)
            return elems, pos + 1
        elif ch.isspace():
            pos += 1
        else:
            raise RatioSyntaxError(f"unexpected character {ch!r}", pos)
    raise RatioSyntaxError(f"unterminated term, expected {closer!r}", pos)


def _check_duplicates(elems, pos):
    if len(set(elems)) != len(elems):
        raise InvalidInput(f"repeated index in {elems!r} (near offset {pos})")


# ---------------------------------------------------------------------------
# helpers


def _rational(text, what: str) -> Fraction:
    """The one parser for matrix entries: a string of `MAX_NUMBER_DIGITS`
    digits at most, where ``1e50`` counts as 51.  JSON numbers arrive as
    their source text, so ``0.1`` is exactly 1/10."""
    try:
        if not isinstance(text, str):
            raise TypeError
        mantissa, _, exponent = text.lower().partition("e")
        if len(mantissa) + abs(int(exponent or 0)) > MAX_NUMBER_DIGITS:
            raise BudgetExceeded(f"{what}: more than {MAX_NUMBER_DIGITS} digits")
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidInput(f"{what}: {text!r} is not a rational number") from None


def _exact(value: Fraction) -> str:
    """The one rendering of an exact value, as "num/den" or an integer."""
    try:
        return str(value)
    except ValueError:  # CPython's limit on int-to-str conversion
        raise BudgetExceeded(
            f"a value has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's int-to-str limit"
        ) from None


def _float(value: Fraction) -> float:
    """``value`` rounded to a float for display; infinite past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _entries(matrix: TPMatrix) -> list[list[str]]:
    return [[_exact(x) for x in row] for row in matrix.entries]


def _read_file(path: str) -> str:
    """The one reader for input files: UTF-8, whatever the locale, and at
    most `MAX_INPUT_BYTES` bytes, counted before any is decoded."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise BudgetExceeded(f"{path}: input files are budgeted to {MAX_INPUT_BYTES} bytes")
    try:  # text-mode decoding, universal newlines included
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text ({exc})") from None


def _load_matrix(path: str) -> TPMatrix:
    try:  # numbers go through `_rational`
        rows = json.loads(_read_file(path), parse_int=str, parse_float=str)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInput(f"{path}: not JSON ({exc})") from None
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidInput(f"{path}: expected a JSON list of rows")
    if len(rows) > MAX_RATIO_RANK or any(len(r) > MAX_RATIO_RANK for r in rows):
        raise BudgetExceeded(f"{path}: matrices are budgeted to rank {MAX_RATIO_RANK}")
    return TPMatrix.of([[_rational(x, f"{path} entry") for x in row] for row in rows])


def _ratio_argument(args) -> RatioExpr | None:
    """The ratio of every subcommand but ``basics``, which takes none."""
    if args.command == "basics":
        return None
    if args.file:
        text = _read_file(args.file).strip()
    elif args.ratio:
        text = args.ratio
    else:
        raise InvalidInput("no ratio given (argument or --file)")
    return parse_ratio(text, args.n)


# ---------------------------------------------------------------------------
# subcommands: each returns its verdict fields and its text lines


def _cmd_check(args, ratio):
    st0 = comb.check_st0(ratio)
    cm = comb.check_condition_m(ratio)
    fields: dict = {"st0": {"holds": st0.holds}, "condition_m": {"holds": cm.holds}}
    if st0.holds:
        lines = ["ST0: holds"]
    else:
        lines = [
            f"ST0: fails at index {st0.witness} "
            f"({st0.numerator_count} vs {st0.denominator_count})"
        ]
        fields["st0"].update(
            witness=st0.witness,
            numerator_count=st0.numerator_count,
            denominator_count=st0.denominator_count,
        )
    if cm.holds:
        lines.append("(M): holds")
    else:
        lines.append(
            f"(M): fails, witness L={cm.witness} "
            f"with m(num)={list(cm.m_numerator)}, m(den)={list(cm.m_denominator)}"
        )
        fields["condition_m"].update(
            witness=list(cm.witness.members),
            m_numerator=list(cm.m_numerator),
            m_denominator=list(cm.m_denominator),
        )
    return fields, lines


def _cmd_factor(args, ratio):
    try:
        result = factor_to_basics(ratio)
    except (St0Violation, ConditionMViolation) as exc:
        return {"verdict": "not-factorable", "reason": str(exc)}, [f"not factorable: {exc}"]
    lines = [f"basics ({len(result.basics)}):"]
    lines += [f"  {b}" for b in result.basics]
    lines.append(f"trace: {len(result.trace)} steps")
    for step in result.trace:
        lines.append(
            f"  {step.rule}: {step.ratio} "
            + " ".join(f"{k}={v}" for k, v in step.measures)
        )
    fields = {
        "verdict": "factored",
        "basics": [str(b) for b in result.basics],
        "trace": [
            {
                "rule": step.rule,
                "ratio": str(step.ratio),
                "measures": dict(step.measures),
                "factors": [str(f) for f in step.factors],
            }
            for step in result.trace
        ],
    }
    return fields, lines


def _cmd_eval(args, ratio):
    if args.matrix:
        matrix = _load_matrix(args.matrix)
        source = args.matrix
    else:
        matrix = random_tp(ratio.rank, args.seed, args.magnitude)
        source = f"random_tp(n={ratio.rank}, seed={args.seed}, magnitude={args.magnitude})"
    if matrix.rank != ratio.rank:
        raise InvalidInput(
            f"matrix rank {matrix.rank} does not match ratio rank {ratio.rank}"
        )
    value = eval_ratio(matrix, ratio)
    approx = _float(value)
    fields = {
        "matrix": source,
        "matrix_entries": _entries(matrix),
        "value": _exact(value),
        "value_float": approx if math.isfinite(approx) else None,
    }
    return fields, [f"matrix: {source}", f"value: {fields['value']} (~{approx:.6g})"]


def _cmd_cone(args, ratio):
    vector = ExponentVector.of_ratio(ratio)
    verdict = cone_membership(vector, ratio.rank)
    checked = verify_certificate(vector, verdict, ratio.rank)
    fields: dict = {"certificate_verified": checked}
    if isinstance(verdict, InCone):
        pairs = [[str(b), _exact(c)] for b, c in verdict.coefficients]
        fields.update(verdict="in-cone", coefficients=pairs)
        lines = ["in cone; coefficients:", *(f"  {c} * {b}" for b, c in pairs)]
    else:
        pairs = [[str(s), _exact(c)] for s, c in verdict.certificate]
        fields.update(verdict="outside-cone", certificate=pairs)
        lines = ["outside cone; separating functional:", *(f"  y[{s}] = {c}" for s, c in pairs)]
    lines.append(f"certificate re-check: {'ok' if checked else 'FAILED'}")
    return fields, lines


def _cmd_subfree(args, ratio):
    poly = ratio_difference_poly(ratio)
    verdict = is_subtraction_free(poly)
    fields: dict = {"terms": len(poly.terms), "subtraction_free": verdict.subtraction_free}
    lines = [f"difference polynomial: {len(poly.terms)} terms"]
    if verdict.subtraction_free:
        lines.append("subtraction free: yes")
    else:
        witness = verdict.witness.format(ratio.rank)
        lines.append(
            f"subtraction free: no; witness {witness} "
            f"with coefficient {verdict.witness_coefficient}"
        )
        fields.update(witness=witness, witness_coefficient=verdict.witness_coefficient)
    return fields, lines


def _cmd_falsify(args, ratio):
    outcome = falsify(ratio)
    if not isinstance(outcome, Evidence):
        fields = {"verdict": "inconclusive", "attempts": list(outcome.attempts)}
        return fields, ["inconclusive:", *(f"  {a}" for a in outcome.attempts)]
    trace = [(_exact(t), _exact(v), _float(v)) for t, v in outcome.trace]
    fields = {
        "verdict": "unbounded-evidence",
        "family": outcome.family,
        "detail": dict(outcome.detail),
        "threshold": _exact(outcome.threshold),
        "trace": [[t, v] for t, v, _ in trace],
    }
    lines = [
        f"numerical witness via {outcome.family} "
        + " ".join(f"{k}={v}" for k, v in outcome.detail),
        f"threshold: {fields['threshold']}",
    ]
    lines += [f"  t={t}: value {v} (~{approx:.6g})" for t, v, approx in trace]
    return fields, lines


def _cmd_basics(args, ratio):
    count = basic_ratio_count(args.n)
    basics = None if args.count else [str(b) for b in basic_ratios_all(args.n)]
    fields = {"n": args.n, "count": count, "basics": basics}
    return fields, [str(count)] if basics is None else basics


def _cmd_transform(args, ratio):
    moved = str(args.ratio_op(ratio))
    return {"ratio": moved}, [f"{args.moved}: {moved}"]


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into `InvalidInput`, so it gets the one ``error:``
    line and exit code 1 of every bad input; ``--help`` still exits 0."""

    def error(self, message):
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tpratio",
        description=(
            "Decide, certify, and falsify boundedness of ratios of products "
            "of minors over totally positive matrices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("ratio", nargs="?", help="ratio text; see --file")
        p.add_argument("--file", help="read the ratio text from FILE")
        p.add_argument(
            "--n", type=int, help="rank (required for minor notation, inferred for brackets)"
        )
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.set_defaults(func=func)
        return p

    add("check", _cmd_check, "run the counting and majorization screens")
    add("factor", _cmd_factor, "factor a two-over-two ratio into basic ratios")

    p = add("eval", _cmd_eval, "evaluate the ratio exactly on a matrix")
    p.add_argument("--matrix", help="JSON file: rows of 'num/den' strings")
    p.add_argument("--seed", type=int, default=0, help="seed for a random TP matrix")
    p.add_argument("--magnitude", type=int, default=3, help="weight spread 2^[-m, m]")

    add("cone", _cmd_cone, "membership in the cone of basic ratios")
    add("subfree", _cmd_subfree, "test the weight polynomial q - p for negative coefficients")

    add("falsify", _cmd_falsify, "search for numerical unboundedness evidence")

    p = sub.add_parser("basics", help="list the basic-ratio generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_basics)

    for name, moved, op in (
        ("shift", "shifted", comb.cyclic_shift_ratio),
        ("reverse", "reversed", comb.reversal_ratio),
    ):
        p = add(name, _cmd_transform, f"apply the {name} operator to a ratio")
        p.set_defaults(ratio_op=op, moved=moved)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        ratio = _ratio_argument(args)
        fields, lines = args.func(args, ratio)
        report = {"schema": SCHEMA, "command": args.command}
        if ratio is not None:
            report.update(input=str(ratio.canonical()), n=ratio.rank)
            lines.insert(0, f"ratio: {ratio.canonical()}")
        print(json.dumps({**report, **fields}, indent=2) if args.json else "\n".join(lines))
    except (TpratioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if fields.get("verdict") == "inconclusive" else 0


if __name__ == "__main__":
    sys.exit(main())
