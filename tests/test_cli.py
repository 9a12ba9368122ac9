"""The ratio grammar, subcommand behavior, exit codes, and JSON reports."""

import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpratio import random_tp
from tpratio.budgets import MAX_DEGREE, MAX_INPUT_BYTES, MAX_MAGNITUDE, MAX_RATIO_RANK
from tpratio.cli import _entries, main, parse_ratio
from tpratio.combinatorics import IndexSet, RatioExpr
from tpratio.errors import InvalidInput, RatioSyntaxError


def iset(n, *elems):
    return IndexSet.of(n, elems)


class TestParse:
    def test_bracket_notation(self):
        r = parse_ratio("[1,4][2,3]/[1,3][2,4]")
        assert r.rank == 2
        assert r.numerator == (iset(2, 1, 4), iset(2, 2, 3))
        assert r.denominator == (iset(2, 1, 3), iset(2, 2, 4))

    def test_minor_notation(self):
        r = parse_ratio("(1|1)(2|2)/(1|2)(2|1)", 2)
        assert r.numerator == (iset(2, 1, 3), iset(2, 2, 4))
        assert r.denominator == (iset(2, 1, 4), iset(2, 2, 3))

    def test_empty_minor_term(self):
        r = parse_ratio("(|)/(1|1)", 2)
        assert r.numerator[0] == iset(2, 3, 4)

    def test_syntax_error_position(self):
        with pytest.raises(RatioSyntaxError) as err:
            parse_ratio("[1,4][2,3/")
        assert err.value.position == 9

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("[1,2]/[1,3]/[2,4]", "unexpected second '/'", 11),
            ("[1,2]x/[1,3]", "expected '[' or '(', found 'x'", 5),
            ("[1,a]/[1,2]", "unexpected character 'a'", 3),
            ("[1,,2]/[1,2]", "expected a number before ','", 3),
            ("[1,]/[1,2]", "expected a number before ']'", 3),
            ("[1,2]/[1,3", "unterminated term, expected ']'", 10),
        ],
        ids=[
            "second-slash",
            "character-between-terms",
            "character-in-term",
            "empty-label-before-comma",
            "empty-label-before-closer",
            "unterminated-term",
        ],
    )
    def test_syntax_error_message(self, text, message, position):
        with pytest.raises(RatioSyntaxError) as err:
            parse_ratio(text)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at offset {position})"

    def test_missing_slash(self):
        with pytest.raises(RatioSyntaxError):
            parse_ratio("[1,2][3,4]")

    def test_duplicate_index(self):
        with pytest.raises(InvalidInput, match="repeated index"):
            parse_ratio("[1,1]/[1,2]")

    def test_rank_mismatches(self):
        with pytest.raises(InvalidInput, match="bracket terms of different sizes"):
            parse_ratio("[1,2][1,2,3]/[1,2][1,2,3]")
        with pytest.raises(InvalidInput, match="--n 3 but bracket terms have size 2"):
            parse_ratio("[1,2]/[1,2]", 3)
        with pytest.raises(InvalidInput, match="minor notation needs an explicit rank"):
            parse_ratio("(1|1)/(1|1)")  # minor mode needs --n
        with pytest.raises(InvalidInput, match="element 5 exceeds 2n = 4"):
            parse_ratio("[1,5]/[1,5]")  # element above 2n

    def test_padding_uneven_sides(self):
        r = parse_ratio("[1,2][3,4]/[1,3]")
        assert r.denominator == (iset(2, 1, 3), iset(2, 3, 4))

    def test_round_trip_fixed(self):
        text = "[1,4][2,3]/[1,3][2,4]"
        assert str(parse_ratio(text)) == text

    @pytest.mark.parametrize(
        "text, position",
        [
            ("[1 0,2]/[1,2]", 3),
            ("[1 2][3,4]/[1,3][2,4]", 3),
            ("[1 0,2,3,4,5][1,2,3,4,6]/[2,3,4,5,6][1,2,3,4,10]", 3),
            ("[1,2 3]/[1,2]", 5),
            ("[1,2]/[1,2\n\t3]", 12),
            ("(1 2|1,2)/(|)", 3),
            ("(1,2|1 2)/(|)", 7),
        ],
    )
    def test_whitespace_ends_a_label(self, text, position):
        with pytest.raises(RatioSyntaxError) as err:
            parse_ratio(text)
        assert err.value.position == position

    @given(st.data())
    def test_round_trip_fuzzed(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        labels = st.lists(st.integers(1, 2 * n), min_size=n, max_size=n, unique=True)
        sets = labels.map(lambda elems: IndexSet.of(n, elems))
        num = data.draw(st.lists(sets, min_size=1, max_size=3))
        den = data.draw(st.lists(sets, min_size=1, max_size=3))
        r = RatioExpr.of(n, num, den)
        tokens = re.findall(r"\d+|\S", str(r))
        gaps = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
        spaced = "".join(data.draw(gaps) + token for token in tokens) + data.draw(gaps)
        assert parse_ratio(spaced) == r

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rejects_only_with_invalid_input(self, data):
        labels = st.lists(st.integers(min_value=0, max_value=12), max_size=4)
        joined = labels.map(lambda xs: ",".join(map(str, xs)))
        term = st.one_of(
            joined.map(lambda body: f"[{body}]"),
            st.tuples(joined, joined).map(lambda rc: f"({rc[0]}|{rc[1]})"),
        )
        side = st.lists(term, max_size=3).map("".join)
        text = data.draw(side) + "/" + data.draw(side)
        rank = data.draw(st.none() | st.integers(min_value=-2, max_value=6))
        try:
            parse_ratio(text, rank)
        except InvalidInput:
            pass


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def moved(capsys, command, ratio):
    """``ratio`` as the ``shift`` or ``reverse`` subcommand moves it."""
    code, out, err = run(capsys, command, ratio, "--json")
    assert (code, err) == (0, "")
    return json.loads(out)["ratio"]


class TestCommands:
    def test_check_decided(self, capsys):
        code, out, _ = run(capsys, "check", "[1,3][2,4]/[1,4][2,3]")
        assert code == 0
        assert "(M): fails" in out and "L={2,3}" in out

    def test_check_json_schema(self, capsys):
        code, out, _ = run(capsys, "check", "[1,3][2,4]/[1,4][2,3]", "--json")
        report = json.loads(out)
        assert report["schema"] == "tpratio.report/2"
        assert report["input"] == "[1,3][2,4]/[1,4][2,3]"
        assert report["st0"]["holds"] is True
        assert report["condition_m"]["witness"] == [2, 3]

    def test_check_counting_screen_fails(self, capsys):
        code, out, _ = run(capsys, "check", "[1,2]/[3,4]")
        assert code == 0
        assert out.splitlines() == [
            "ratio: [1,2]/[3,4]",
            "ST0: fails at index 1 (1 vs 0)",
            "(M): fails, witness L={1} with m(num)=[1], m(den)=[0]",
        ]
        code, out, _ = run(capsys, "check", "[1,2]/[3,4]", "--json")
        assert code == 0
        assert json.loads(out)["st0"] == {
            "holds": False,
            "witness": 1,
            "numerator_count": 1,
            "denominator_count": 0,
        }

    def test_factor_reports_basics(self, capsys):
        code, out, _ = run(capsys, "factor", "[1,4,6][2,3,5]/[1,3,5][2,4,6]", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "factored"
        assert report["basics"] == [
            "basic(i=1, j=3, core={5})",
            "basic(i=1, j=5, core={4})",
        ]
        assert report["trace"][0]["rule"] == "head-chain"

    def test_factor_screen_failure_still_decided(self, capsys):
        code, out, _ = run(capsys, "factor", "[1,3][2,4]/[1,4][2,3]", "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == "not-factorable"

    def test_eval_seeded(self, capsys):
        code, out, _ = run(capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--seed", "3", "--json")
        report = json.loads(out)
        assert report["value"] == "1/17"

    def test_eval_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(_entries(random_tp(2, 3))))
        code, out, _ = run(
            capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--matrix", str(path), "--json"
        )
        assert json.loads(out)["value"] == "1/17"

    def test_matrix_file_numbers_are_exact(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        # read as a float, 0.1 gave 18014398509481985/9007199254740992
        path.write_text("[[0.1, 1], [1, 20]]")
        code, out, _ = run(
            capsys, "eval", "[1,3][2,4]/[1,4][2,3]", "--matrix", str(path), "--json"
        )
        assert (code, json.loads(out)["value"]) == (0, "2")

    def test_basics_count(self, capsys):
        code, out, _ = run(capsys, "basics", "--n", "3", "--count")
        assert code == 0 and out.strip() == "18"

    def test_cone_json(self, capsys):
        code, out, _ = run(capsys, "cone", "[1,4][2,3]/[1,3][2,4]", "--json")
        report = json.loads(out)
        assert report["verdict"] == "in-cone"
        assert report["certificate_verified"] is True

    def test_cone_json_outside(self, capsys):
        # the paper's screen-passing unbounded ratio: its functional has 17
        # terms, the warm start having fixed its balance part where the fewest
        # generators hold a coordinate (20 when fixed by coordinate order)
        text = "[1,2,3,8][2,3,4,5][4,6,7,8]/[1,4,6,8][2,3,4,8][2,3,5,7]"
        code, out, _ = run(capsys, "cone", text, "--json")
        report = json.loads(out)
        assert (code, report["verdict"], report["certificate_verified"]) == (0, "outside-cone", True)
        assert len(report["certificate"]) == 17

    def test_cone_at_rank_one(self, capsys):
        # rank 1 has no basic ratios: the cone is {0}
        code, out, _ = run(capsys, "cone", "[1]/[1]", "--json")
        assert (code, json.loads(out)["verdict"]) == (0, "in-cone")
        code, out, _ = run(capsys, "cone", "[1]/[2]", "--json")
        report = json.loads(out)
        assert (code, report["verdict"], report["certificate_verified"]) == (0, "outside-cone", True)
        assert report["certificate"] == [["[1]", "1"]]

    def test_subfree(self, capsys):
        code, out, _ = run(capsys, "subfree", "[1,4][2,3]/[1,3][2,4]", "--json")
        report = json.loads(out)
        assert report["subtraction_free"] is True

    def test_falsify_evidence_exit_zero(self, capsys):
        code, out, _ = run(capsys, "falsify", "[1,3][2,4]/[1,4][2,3]", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "unbounded-evidence"
        assert report["family"] == "degree-gap"

    def test_falsify_inconclusive_exit_two(self, capsys):
        code, out, _ = run(capsys, "falsify", "[1,4][2,3]/[1,3][2,4]", "--json")
        assert code == 2
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_shift_ratio(self, capsys):
        code, out, _ = run(capsys, "shift", "[1,4][2,3]/[1,3][2,4]")
        assert code == 0
        assert "[1,2][3,4]/[2,4][1,3]" in out

    # the symmetries act on ratios; `eval --matrix` is the one matrix reader
    def test_reverse_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_entries(random_tp(2, 1))))
        code, out, err = run(capsys, "reverse", "--matrix", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_shift_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_entries(random_tp(3, 2))))
        code, out, err = run(capsys, "shift", "--matrix", str(path), "[1,4][2,3]/[1,3][2,4]")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ratio_from_file(self, capsys, tmp_path):
        path = tmp_path / "ratio.txt"
        path.write_text("[1,4][2,3]/[1,3][2,4]\n")
        code, out, _ = run(capsys, "check", "--file", str(path))
        assert code == 0 and "(M): holds" in out

    def test_bad_input_exit_one(self, capsys):
        code, out, err = run(capsys, "check", "[1,4][2,3/")
        assert code == 1
        assert "error" in err

    def test_rank_flag_mismatch_exit_one(self, capsys):
        code, _, err = run(capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--n", "3")
        assert code == 1


README_EXAMPLES = [
    (
        ("check", "[1,3][2,4]/[1,4][2,3]"),
        "ratio: [1,3][2,4]/[1,4][2,3]\n"
        "ST0: holds\n"
        "(M): fails, witness L={2,3} with m(num)=[1, 1], m(den)=[2, 0]\n",
    ),
    (
        ("factor", "[1,4,6][2,3,5]/[1,3,5][2,4,6]"),
        "ratio: [1,4,6][2,3,5]/[1,3,5][2,4,6]\n"
        "basics (2):\n"
        "  basic(i=1, j=3, core={5})\n"
        "  basic(i=1, j=5, core={4})\n"
        "trace: 5 steps\n"
        "  head-chain: [1,4,6][2,3,5]/[1,3,5][2,4,6] nu=3\n"
        "  elementary: [1,4,6][2,4,5]/[2,4,6][1,4,5] nu=2\n"
        "  basic: [1,4,6][2,4,5]/[1,4,5][2,4,6] mu=0 delta=4\n"
        "  elementary: [1,4,5][2,3,5]/[2,4,5][1,3,5] nu=2\n"
        "  basic: [1,4,5][2,3,5]/[1,3,5][2,4,5] mu=0 delta=4\n",
    ),
    (
        ("eval", "[1,4][2,3]/[1,3][2,4]", "--seed", "3"),
        "ratio: [1,4][2,3]/[1,3][2,4]\n"
        "matrix: random_tp(n=2, seed=3, magnitude=3)\n"
        "value: 1/17 (~0.0588235)\n",
    ),
    (
        ("eval", "[1,4][2,3]/[1,3][2,4]", "--matrix", "{matrix}"),
        "ratio: [1,4][2,3]/[1,3][2,4]\n"
        "matrix: {matrix}\n"
        "value: 1/17 (~0.0588235)\n",
    ),
    (
        ("cone", "[1,4,6][2,3,5]/[1,3,5][2,4,6]"),
        "ratio: [1,4,6][2,3,5]/[1,3,5][2,4,6]\n"
        "in cone; coefficients:\n"
        "  1 * basic(i=1, j=3, core={6})\n"
        "  1 * basic(i=1, j=5, core={3})\n"
        "certificate re-check: ok\n",
    ),
    (
        ("subfree", "[1,2,3,8][2,3,4,5][4,6,7,8]/[1,4,6,8][2,3,4,8][2,3,5,7]"),
        "ratio: [1,2,3,8][2,3,4,5][4,6,7,8]/[1,4,6,8][2,3,4,8][2,3,5,7]\n"
        "difference polynomial: 614 terms\n"
        "subtraction free: no; witness L1*L2*L4^2*D1^2*D2^2*D3^3*U1*U2*U4^2 "
        "with coefficient -1\n",
    ),
    (
        ("falsify", "[1,3][2,4]/[1,4][2,3]"),
        "ratio: [1,3][2,4]/[1,4][2,3]\n"
        "numerical witness via degree-gap s=2 k=1 start=2\n"
        "threshold: 1000\n"
        "  t=10: value 92 (~92)\n"
        "  t=100: value 6293/10 (~629.3)\n"
        "  t=1000: value 602903/100 (~6029.03)\n"
        "  t=10000: value 60029003/1000 (~60029)\n",
    ),
    (("basics", "--n", "3", "--count"), "18\n"),
    (
        ("shift", "[1,4][2,3]/[1,3][2,4]"),
        "ratio: [1,4][2,3]/[1,3][2,4]\nshifted: [1,2][3,4]/[2,4][1,3]\n",
    ),
    (
        ("reverse", "[1,4,6][2,3,5]/[1,3,5][2,4,6]"),
        "ratio: [1,4,6][2,3,5]/[1,3,5][2,4,6]\nreversed: [1,3,6][2,4,5]/[2,4,6][1,3,5]\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    README_EXAMPLES,
    ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(README_EXAMPLES)],
)
def test_readme_example_text(capsys, tmp_path, argv, expected):
    """The exact text of each README command example.  The README shows two
    of them with ``--json``; the text of the same query is pinned here."""
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(_entries(random_tp(2, 3))))
    code, out, err = run(capsys, *(a.replace("{matrix}", str(path)) for a in argv))
    assert (code, out, err) == (0, expected.replace("{matrix}", str(path)), "")


def test_readme_examples_are_pinned():
    """Every ``tpratio`` line in the README's fenced blocks, read as a shell
    would and without ``--json``, is one of `README_EXAMPLES`."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    fenced = False
    commands = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("tpratio "):
            argv = shlex.split(line)[1:]
            commands.append(tuple("{matrix}" if a == "matrix.json" else a
                                  for a in argv if a != "--json"))
    pinned = {argv for argv, _ in README_EXAMPLES}
    assert commands and [argv for argv in commands if argv not in pinned] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "[1,4][2,3]/[1,3][2,4]"),
        ("factor", "[1,4][2,3]/[1,3][2,4]"),
        ("eval", "[1,4][2,3]/[1,3][2,4]"),
        ("cone", "[1,4][2,3]/[1,3][2,4]"),
        ("subfree", "[1,4][2,3]/[1,3][2,4]"),
        ("falsify", "[1,4][2,3]/[1,3][2,4]"),
        ("shift", "[1,4][2,3]/[1,3][2,4]"),
        ("reverse", "[1,4][2,3]/[1,3][2,4]"),
        ("basics", "--n", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_json_envelope(capsys, argv):
    """One envelope for every report; the text lines stay out of the JSON."""
    code, out, err = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert report["schema"] == "tpratio.report/2"
    assert report["command"] == argv[0]
    assert report["n"] == 2
    if argv[0] != "basics":
        assert report["input"] == str(parse_ratio(argv[1]).canonical())
    assert "lines" not in report


WIDE_TERM = "[" + ",".join(map(str, range(1, MAX_RATIO_RANK + 2))) + "]"


class TestBadInput:
    """Bad input gives one `error:` line on stderr and exit code 1, never a
    traceback."""

    # The ids are list indices: a case keeps its place, so its id stays stable.
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "[0,3][2,4]/[1,4][2,3]"),  # zero label
            ("check", "[1,3][2,2]/[1,4][2,3]"),  # duplicate label
            ("check", "(3|1)/(1|1)", "--n", "2"),  # row outside [1, n]
            # falsify has no knobs: each of its former flags is refused
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--t-ladder", "10"),
            ("check", "[1,3][2,4]"),  # no '/'
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--threshold", "1e6"),
            ("eval", "[1,4][2,3]/[1,3][2,4]", "--magnitude", "0"),
            ("basics", "--n", "12"),  # 46,558,512 generators: over the listing budget
            ("basics", "--n", "8000", "--count"),  # over 4,300 digits: over the counting budget
            ("basics", "--n", "100000000", "--count"),  # unbudgeted, still running after 120 s
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--budget", "4"),
            ("check", "[1,3][2,4]/[1,4][2,3]", "--n", "3"),  # terms of size 2
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--trials", "0"),
            ("eval", "[1,3][2,4]/[1,4][2,3]", "--magnitude", "100000"),  # over 4,300 digits
            ("eval", "[1,4][2,3]/[1,3][2,4]", "--magnitude", "-1"),
            ("check", "[1," + "1" * 5000 + "]/[1,2]"),  # over 4,300 digits
            ("check", "[1,\u00b2]/[1,2]"),  # a digit that int() refuses
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--seed", "0"),
            ("check",),  # no ratio and no --file
            ("basics", "--n", "0"),
            ("frobnicate",),  # no such command
            ("cone", "[1,2,3,4,5]/[1,2,3,4,6]"),  # rank 5: over the rank budget
            ("check", "(1|2)/[1,2]"),  # minor notation without --n
            # usage errors printed a usage block and exited 2, the code for Inconclusive
            ("check", "[1,3][2,4]/[1,4][2,3]", "--n", "x"),
            (),
            # over the ratio rank budget; at rank 100,000 `check` ran for more than 10 s
            ("check", "(|)/(1|1)", "--n", str(MAX_RATIO_RANK + 1)),
            ("check", f"{WIDE_TERM}/{WIDE_TERM}"),
            # values past CPython's 4,300-digit int-to-str limit printed a traceback
            ("falsify", "[1,3]" * 1200 + "[2,4]" * 1200 + "/" + "[1,4]" * 1200 + "[2,3]" * 1200),
            ("basics", "--n", "-1"),
            # whitespace joined a label's digits: this read [2,3,4,5,10] and exited 0
            ("check", "[1 0,2,3,4,5][1,2,3,4,6]/[2,3,4,5,6][1,2,3,4,10]"),
        ],
    )
    def test_error_line_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("check",), "error: no ratio given (argument or --file)\n"),
            (("reverse",), "error: no ratio given (argument or --file)\n"),
        ],
        ids=["check", "reverse"],
    )
    def test_missing_input_names_no_offset(self, capsys, argv, line):
        # no text was read, so there is no offset to point at
        assert run(capsys, *argv) == (1, "", line)

    @pytest.mark.parametrize("argv", [("--help",), ("falsify", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main(list(argv))
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tpratio")

    @pytest.mark.parametrize(
        "rows",
        [
            [["1", "x"], ["1", "2"]],
            [["1", "1"], ["1"]],
            [["1", "1", "1"]],
            {"a": 1},
            [[float("inf"), 1], [1, 1]],
            [["1e5000", "1"], ["1", "1"]],
            [[True, 1], [1, 2]],  # was read as 1
            _entries(random_tp(3, 3)),  # totally positive, but of rank 3
        ],
    )
    def test_bad_matrix_file(self, capsys, tmp_path, rows):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(rows))
        code, out, err = run(capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--matrix", str(path))
        assert code == 1
        assert err.startswith("error: ")

    # a moved ratio reaches a matrix through `eval --matrix`
    @pytest.mark.parametrize("command", ["reverse", "shift"])
    @pytest.mark.parametrize(
        "rows, cols", [(MAX_RATIO_RANK + 1,) * 2, (30, 30), (2, MAX_RATIO_RANK + 1)]
    )
    def test_matrix_file_over_rank_budget(self, capsys, tmp_path, command, rows, cols):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps([["1"] * cols] * rows))
        ratio = moved(capsys, command, "[1,4][2,3]/[1,3][2,4]")
        code, out, err = run(capsys, "eval", ratio, "--matrix", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: matrices are budgeted to rank {MAX_RATIO_RANK}\n"

    @pytest.mark.parametrize("command", ["reverse", "shift"])
    def test_empty_matrix_file(self, capsys, tmp_path, command):
        path = tmp_path / "matrix.json"
        path.write_text("[]")  # raised IndexError
        ratio = moved(capsys, command, "[1,4][2,3]/[1,3][2,4]")
        code, out, err = run(capsys, "eval", ratio, "--matrix", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--file"),
            ("eval", "[1,4][2,3]/[1,3][2,4]", "--matrix"),
            ("reverse", "--file"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_file_not_utf8(self, capsys, tmp_path, argv):
        path = tmp_path / "input"
        path.write_bytes(b"\xff[[1, 1], [1, 2]]")  # raised UnicodeDecodeError
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [("check", "--file"), ("eval", "[1,4][2,3]/[1,3][2,4]", "--matrix")],
        ids=lambda argv: argv[0],
    )
    def test_input_file_over_size_budget(self, capsys, tmp_path, argv):
        path = tmp_path / "input"
        path.write_text(" " * MAX_INPUT_BYTES + "x")  # one byte over; was read whole
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: input files are budgeted to {MAX_INPUT_BYTES} bytes\n"

    @pytest.mark.parametrize(
        "text", ["nope", "[" * 100_000], ids=["not-json", "nested-past-recursion-limit"]
    )
    def test_matrix_file_not_json(self, capsys, tmp_path, text):
        path = tmp_path / "matrix.json"
        path.write_text(text)
        code, out, err = run(capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--matrix", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not JSON") and err.count("\n") == 1

    def test_long_integer_in_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("[[" + "1" * 5000 + ", 1], [1, 2]]")
        code, out, err = run(capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--matrix", str(path))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_basics_count_closed_form(self, capsys):
        code, out, _ = run(capsys, "basics", "--n", "12", "--count")
        assert code == 0 and out.strip() == "46558512"


class TestLargestReports:
    """Every work argument at its budget: the reports still print in full."""

    def test_subfree_at_degree_budget(self, capsys):
        # `[1,2,3,8]` is a one-term symbolic bracket of degree 6 at rank 4:
        # a side of 42 reaches degree 252, a side of 43 passes the budget
        count = MAX_DEGREE // 6
        code, out, err = run(capsys, "subfree", "[1,2,3,8]" * count + "/" + "[1,2,5,6]" * count)
        assert (code, err) == (0, "")
        assert f"D1^{count}*" in out
        code, out, err = run(capsys, "subfree", "[1,2,3,8]" * (count + 1) + "/" + "[1,2,5,6]")
        assert (code, out) == (1, "")
        assert err == f"error: polynomial product exceeds degree {MAX_DEGREE}\n"

    def test_eval_at_magnitude_budget(self, capsys):
        ratio = "[1,2,3,8][2,3,4,5][4,6,7,8]/[1,4,6,8][2,3,4,8][2,3,5,7]"
        code, out, err = run(capsys, "eval", ratio, "--magnitude", str(MAX_MAGNITUDE), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["matrix"].endswith(f"magnitude={MAX_MAGNITUDE})")

    @pytest.mark.parametrize("command", ["reverse", "shift"])
    def test_matrix_file_at_rank_budget(self, capsys, tmp_path, command):
        n = MAX_RATIO_RANK
        entries = _entries(random_tp(n, 0))
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(entries))
        determinant = RatioExpr.of(n, [IndexSet.of(n, range(1, n + 1))], [])
        ratio = moved(capsys, command, str(determinant))
        assert ratio != str(determinant)
        code, out, err = run(capsys, "eval", ratio, "--matrix", str(path), "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["input"], report["matrix_entries"]) == (ratio, entries)

    def test_input_file_at_size_budget(self, capsys, tmp_path):
        path = tmp_path / "ratio.txt"
        text = "[1,4][2,3]/[1,3][2,4]\r\n"
        path.write_bytes(text.encode().ljust(MAX_INPUT_BYTES))
        code, out, err = run(capsys, "check", "--file", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("ratio: [1,4][2,3]/[1,3][2,4]\n")

    def test_values_past_the_float_range(self, capsys):
        ratio = "[1,3]" * 80 + "[2,4]" * 80 + "/" + "[1,4]" * 80 + "[2,3]" * 80
        code, out, err = run(capsys, "falsify", ratio)
        assert (code, err) == (0, "")
        assert out.rstrip().endswith("(~inf)")  # the value at t = 10^4 passes 10^320
        code, out, _ = run(capsys, "eval", ratio, "--seed", "1", "--magnitude", "64", "--json")
        assert code == 0 and json.loads(out)["value_float"] is None  # about 10^2700
