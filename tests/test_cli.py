"""The ratio grammar, subcommand behavior, exit codes, and JSON reports."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpratio.cli import main, parse_ratio
from tpratio.combinatorics import IndexSet, RatioExpr, all_index_sets
from tpratio.errors import DuplicateIndex, RankMismatch, RatioSyntaxError
from tpratio.tpcore import random_tp


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

    def test_missing_slash(self):
        with pytest.raises(RatioSyntaxError):
            parse_ratio("[1,2][3,4]")

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndex):
            parse_ratio("[1,1]/[1,2]")

    def test_rank_mismatches(self):
        with pytest.raises(RankMismatch):
            parse_ratio("[1,2][1,2,3]/[1,2][1,2,3]")
        with pytest.raises(RankMismatch):
            parse_ratio("[1,2]/[1,2]", 3)
        with pytest.raises(RankMismatch):
            parse_ratio("(1|1)/(1|1)")  # minor mode needs --n
        with pytest.raises(RankMismatch):
            parse_ratio("[1,5]/[1,5]")  # element above 2n

    def test_padding_uneven_sides(self):
        r = parse_ratio("[1,2][3,4]/[1,3]")
        assert r.denominator == (iset(2, 1, 3), iset(2, 3, 4))

    def test_round_trip_fixed(self):
        text = "[1,4][2,3]/[1,3][2,4]"
        assert str(parse_ratio(text)) == text

    @given(st.data())
    def test_round_trip_fuzzed(self, data):
        n = data.draw(st.integers(min_value=2, max_value=4))
        sets = all_index_sets(n)
        num = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=3))
        den = data.draw(st.lists(st.sampled_from(sets), min_size=1, max_size=3))
        r = RatioExpr.of(n, num, den)
        assert parse_ratio(str(r)) == r


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_check_decided(self, capsys):
        code, out, _ = run(capsys, "check", "[1,3][2,4]/[1,4][2,3]")
        assert code == 0
        assert "(M): fails" in out and "L={2,3}" in out

    def test_check_json_schema(self, capsys):
        code, out, _ = run(capsys, "check", "[1,3][2,4]/[1,4][2,3]", "--json")
        report = json.loads(out)
        assert report["schema"] == "tpratio.report/1"
        assert report["input"] == "[1,3][2,4]/[1,4][2,3]"
        assert report["st0"]["holds"] is True
        assert report["condition_m"]["witness"] == [2, 3]

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
        path.write_text(json.dumps(random_tp(2, 3).to_strings()))
        code, out, _ = run(
            capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--matrix", str(path), "--json"
        )
        assert json.loads(out)["value"] == "1/17"

    def test_basics_count(self, capsys):
        code, out, _ = run(capsys, "basics", "--n", "3", "--count")
        assert code == 0 and out.strip() == "18"

    def test_cone_json(self, capsys):
        code, out, _ = run(capsys, "cone", "[1,4][2,3]/[1,3][2,4]", "--json")
        report = json.loads(out)
        assert report["verdict"] == "in-cone"
        assert report["certificate_verified"] is True

    def test_subfree(self, capsys):
        code, out, _ = run(capsys, "subfree", "[1,4][2,3]/[1,3][2,4]", "--json")
        report = json.loads(out)
        assert report["subtraction_free"] is True

    def test_falsify_evidence_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "falsify", "[1,3][2,4]/[1,4][2,3]", "--trials", "0", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "unbounded-evidence"
        assert report["family"] == "degree-gap"

    def test_falsify_inconclusive_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "falsify", "[1,4][2,3]/[1,3][2,4]", "--trials", "2", "--json"
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_falsify_flag_overrides(self, capsys):
        code, out, _ = run(
            capsys,
            "falsify",
            "[1,3][2,4]/[1,4][2,3]",
            "--t-ladder",
            "10,100",
            "--threshold",
            "50",
            "--trials",
            "0",
            "--json",
        )
        report = json.loads(out)
        assert report["verdict"] == "unbounded-evidence"
        assert [t for t, _ in report["trace"]] == ["10", "100"]

    def test_shift_ratio(self, capsys):
        code, out, _ = run(capsys, "shift", "[1,4][2,3]/[1,3][2,4]")
        assert code == 0
        assert "[1,2][3,4]/[2,4][1,3]" in out

    def test_reverse_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(random_tp(2, 1).to_strings()))
        code, out, _ = run(capsys, "reverse", "--matrix", str(path), "--json")
        report = json.loads(out)
        assert report["matrix_tp"] is True

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


class TestBadInput:
    """Bad input gives one `error:` line on stderr and exit code 1, never a
    traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "[0,3][2,4]/[1,4][2,3]"),  # zero label
            ("check", "[1,3][2,2]/[1,4][2,3]"),  # duplicate label
            ("check", "(3|1)/(1|1)", "--n", "2"),  # row outside [1, n]
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--t-ladder", "10,abc"),
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--t-ladder", "10,1/0"),
            ("falsify", "[1,3][2,4]/[1,4][2,3]", "--threshold", "x"),
            ("eval", "[1,4][2,3]/[1,3][2,4]", "--magnitude", "0"),
            ("basics", "--n", "12"),  # 46,558,512 generators: over the listing budget
            ("basics", "--n", "8000", "--count"),  # over 4,300 digits: over the counting budget
            ("basics", "--n", "100000000", "--count"),  # unbudgeted, still running after 120 s
        ],
    )
    def test_error_line_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "rows", [[["1", "x"], ["1", "2"]], [["1", "1"], ["1"]], [["1", "1", "1"]], {"a": 1}]
    )
    def test_bad_matrix_file(self, capsys, tmp_path, rows):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(rows))
        code, out, err = run(capsys, "eval", "[1,4][2,3]/[1,3][2,4]", "--matrix", str(path))
        assert code == 1
        assert err.startswith("error: ")

    def test_basics_count_closed_form(self, capsys):
        code, out, _ = run(capsys, "basics", "--n", "12", "--count")
        assert code == 0 and out.strip() == "46558512"
