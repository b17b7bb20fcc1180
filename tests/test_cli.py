"""CLI integration: exit codes, report shapes, determinism, and the
verify-examples harness (including a mutation sanity check)."""

import argparse
import ast
import contextlib
import inspect
import io
import json
import random
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import shaped_code
from z4dc import cli, code, dual, f2poly, gray, polytext, search, z4poly
from z4dc.code import spec_dict
from z4dc.errors import InternalCheckFailed
import numpy as np


@contextlib.contextmanager
def exact_ints():
    """Lift the int-to-string digit limit, as cli.main does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def kerdock_spec(tmp_path):
    path = tmp_path / "kerdock.json"
    path.write_text(json.dumps({"r": 1, "s": 7, "l": "1",
                                "f2": "x^3+2x^2+x+3",
                                "g2": "x^3+2x^2+x+3"}))
    return str(path)


@pytest.fixture
def pair_spec(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"r": 3, "s": 9, "f1": "x^2+x+1",
                                "g1": "x^2+x+1", "l": "x+1",
                                "f2": "x^6+x^3+1", "g2": "x^6+x^3+1"}))
    return str(path)


class TestAnalyze:
    def test_reference_report(self, kerdock_spec, capsys):
        rc = cli.main(["analyze", kerdock_spec, "--no-timing"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == 256
        assert report["case"] == "ii"
        assert report["min_lee_distance"] == 6
        assert report["lee_enumerator"] == {"0": 1, "6": 112, "8": 30,
                                            "10": 112, "16": 1}
        assert report["gray"]["M"] == 256 and report["gray"]["n"] == 16
        assert report["gray"]["linear_image"] is False
        assert "timing" not in report

    def test_enumerates_the_code_once(self, kerdock_spec, monkeypatch,
                                      capsys):
        from z4dc import code

        built = []
        init = code.BlockEnumerator.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(code.BlockEnumerator, "__init__", counting_init)
        assert cli.main(["analyze", kerdock_spec, "--no-timing"]) == 0
        assert len(built) == 1

    def test_byte_identical_without_timing(self, kerdock_spec, capsys):
        cli.main(["analyze", kerdock_spec, "--no-timing"])
        first = capsys.readouterr().out
        cli.main(["analyze", kerdock_spec, "--no-timing"])
        assert capsys.readouterr().out == first

    def test_zero_code_reports_null_distance(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"r": 1, "s": 3}))
        rc = cli.main(["analyze", str(path), "--no-timing"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == 1
        assert report["min_lee_distance"] is None
        assert "ZeroCode" in report["note"]

    def test_malformed_polynomial_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"r": 1, "s": 7, "l": "1",
                                    "f2": "x^3+5x+1", "g2": "1"}))
        rc = cli.main(["analyze", str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "PolyParseError"
        assert err["error"]["rule"]

    def test_validation_error_names_invariant(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"r": 2, "s": 7, "f2": "1", "g2": "1"}))
        rc = cli.main(["analyze", str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "EvenLength"
        assert "odd" in err["error"]["invariant"]

    def test_missing_file_exits_1(self, capsys):
        rc = cli.main(["analyze", "/nonexistent/spec.json"])
        assert rc == 1

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nj.json"
        path.write_text("{not json")
        assert cli.main(["analyze", str(path)]) == 2

    def test_cap_exceeded_exits_3_and_force(self, kerdock_spec, capsys):
        rc = cli.main(["analyze", kerdock_spec, "--max-enum", "10"])
        assert rc == 3
        capsys.readouterr()
        rc = cli.main(["analyze", kerdock_spec, "--max-enum", "10", "--force",
                       "--no-timing"])
        assert rc == 0

    @pytest.mark.parametrize("value", ["10", "abc", "0", "-5"])
    def test_ignores_the_cap_variable(self, kerdock_spec, capsys, monkeypatch,
                                      value):
        # only --max-enum sets the cap: $Z4DC_MAX_ENUM is neither read
        # nor checked
        assert cli.main(["analyze", kerdock_spec, "--no-timing"]) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("Z4DC_MAX_ENUM", value)
        assert cli.main(["analyze", kerdock_spec, "--no-timing"]) == 0
        assert capsys.readouterr() == plain

    def test_csv_format_emits_enumerator(self, kerdock_spec, capsys):
        rc = cli.main(["analyze", kerdock_spec, "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "lee_weight,count"
        assert "6,112" in lines

    def test_out_file(self, kerdock_spec, tmp_path):
        out = tmp_path / "report.json"
        rc = cli.main(["analyze", kerdock_spec, "--no-timing",
                       "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["size"] == 256


class TestEmit:
    """A JSON report is streamed by json.dump; a text report is written
    as it is.  Only stdout gets a final newline, and only when missing."""

    def test_streamed_json_equals_dumps(self, tmp_path, capsys):
        obj = {"rows": [[0, 1, 2, 3]] * 40, "size": 4 ** 300,
               "text": "\u00fc \"q\"\n", "empty": [[], {}],
               "flags": {"a": None, "b": True, "c": 1.5}}
        out = tmp_path / "report.json"
        cli._emit(obj, str(out))
        cli._emit(obj, None)
        text = json.dumps(obj, indent=2)
        assert out.read_bytes() == text.encode()
        assert capsys.readouterr().out == text + "\n"

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", "a,b", ""])
    def test_text_is_written_as_it_is(self, text, tmp_path, capsys):
        out = tmp_path / "report.csv"
        cli._emit(text, str(out))
        cli._emit(text, None)
        assert out.read_text() == text
        assert capsys.readouterr().out == (text if text.endswith("\n") else text + "\n")

    def test_dual_out_file_equals_stdout(self, pair_spec, tmp_path, capsys):
        out = tmp_path / "dual.json"
        assert cli.main(["dual", pair_spec, "--out", str(out)]) == 0
        assert cli.main(["dual", pair_spec]) == 0
        assert out.read_text() + "\n" == capsys.readouterr().out


class TestDual:
    def test_free_method(self, pair_spec, capsys):
        rc = cli.main(["dual", pair_spec])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "free-closed-form"
        assert report["l_hat"] == "3x^2+1"
        assert report["F2_hat_star"] == "x+3"
        assert report["nu"] == "x+1"
        assert report["dual_size"] == 4 ** 8
        assert report["residue_check"]["all_ok"] is True

    def test_brute_agrees(self, pair_spec, capsys):
        cli.main(["dual", pair_spec])
        free = json.loads(capsys.readouterr().out)
        with open(pair_spec) as fh:
            c = code.from_spec_dict(json.load(fh))
        K, brute = dual.dual_brute_force(c, cap=c.r + c.s)
        assert free["dual"] == spec_dict(brute.dual)
        assert free["dual_size"] == code.code_size(brute.dual)
        assert free["kernel_rows"] == [list(row) for row in K.rows]

    def test_full_space_dual_is_zero_code(self, tmp_path, capsys):
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"r": 1, "s": 3, "f1": "1", "g1": "1",
                                    "f2": "1", "g2": "1"}))
        rc = cli.main(["dual", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dual_size"] == 1

    def test_report_prints_only_computed_witnesses(self, tmp_path, capsys):
        # the residue check's lambda is computed; the report carries no
        # constant top-level lambda or mu beside it
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"r": 3, "s": 3, "f1": "1", "g1": "1",
                                    "f2": "1", "g2": "1"}))
        assert cli.main(["dual", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "lambda" not in report and "mu" not in report
        assert report["residue_check"]["lambda"] == "3"

    def test_ignores_the_cap_variable(self, pair_spec, capsys, monkeypatch):
        monkeypatch.setenv("Z4DC_MAX_ENUM", "abc")
        assert cli.main(["dual", pair_spec]) == 0

    def test_not_free_exit(self, tmp_path, capsys):
        # a non-free code exits 0 with its dual by theorem; --method free
        # refused it with NotFree, and the flag is gone
        path = tmp_path / "nf.json"
        path.write_text(json.dumps({"r": 3, "s": 3, "f1": "x^3+3",
                                    "g1": "1", "f2": "1", "g2": "1"}))
        assert cli.main(["dual", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        c = code.from_spec_dict(json.loads(path.read_text()))
        _, brute = dual.dual_brute_force(c, cap=c.r + c.s)
        assert report["method"] == "residue-factors"
        assert report["dual"] == spec_dict(brute.dual)
        assert cli.main(["dual", str(path), "--method", "free"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "InvalidInput"

    def test_residue_check_only_for_free_codes(self, pair_spec, tmp_path, capsys):
        # the residue relations are built from Res(C), and Res(C-perp) =
        # Tor(C)-perp equals Res(C)-perp only for a free code
        path = tmp_path / "nf.json"
        path.write_text(json.dumps({"r": 1, "s": 3, "f1": "1", "g1": "1",
                                    "f2": "x+3", "g2": "1"}))
        assert cli.main(["dual", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "residue-factors"
        assert "residue_check" not in report and report["kernel_rows"]
        assert cli.main(["dual", pair_spec]) == 0
        assert json.loads(capsys.readouterr().out)["residue_check"]["all_ok"] is True
        # past the kernel-row bound the report has no rows, and the check,
        # which reads only the dual, still runs
        path.write_text(json.dumps({"r": 1025, "s": 1}))
        assert cli.main(["dual", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "kernel_rows" not in report
        assert report["residue_check"]["all_ok"] is True

    def test_non_free_code_past_the_kernel_cap(self, tmp_path, capsys):
        # r+s = 66 > 64 and f1 != g1: no closed form; the code once
        # needed --force and the kernel, and now takes the residue factors
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"r": 3, "s": 63, "f1": "x+3", "g1": "1"}))
        assert cli.main(["dual", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "residue-factors"
        assert report["dual_size"] * 4 ** 2 * 2 == 4 ** 66
        c = code.from_spec_dict(json.loads(path.read_text()))
        K, brute = dual.dual_brute_force(c, cap=c.r + c.s)
        assert report["dual"] == spec_dict(brute.dual)
        assert report["kernel_rows"] == [list(row) for row in K.rows]


    @pytest.mark.parametrize("f1, l, method", [
        ("x+3", "2", "free-residue-factors"),  # 2-torsion l
        ("x^3+3", "x+1", "free-residue-factors"),  # gcd(F1, l) does not divide l
        ("x^2+x+1", "x", "free-closed-form"),  # no unit made the old nu pair
    ])
    def test_free_code_past_the_kernel_cap_needs_no_force(self, tmp_path, capsys,
                                                           f1, l, method):
        # r+s = 66 > 64: these free codes once fell back to the kernel and
        # exited 3 without --force; now the theorem gives their dual, and
        # the report carries its kernel rows and residue check at any r+s
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"r": 33, "s": 33, "f1": f1, "g1": f1,
                                    "l": l, "f2": "1", "g2": "1"}))
        assert cli.main(["dual", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == method
        c = code.from_spec_dict(json.loads(path.read_text()))
        assert report["dual_size"] * code.code_size(c) == 4 ** 66
        K, brute = dual.dual_brute_force(c, cap=c.r + c.s)
        assert report["dual"] == spec_dict(brute.dual)
        assert report["kernel_rows"] == [list(row) for row in K.rows]
        assert report["residue_check"]["all_ok"] is True


class TestVerifyExamples:
    def test_case5_passes(self, capsys):
        rc = cli.main(["verify-examples", "--only", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS" in out

    def test_case1_passes_with_reading_note(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        rc = cli.main(["verify-examples", "--only", "1", "--out", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())["rows"]
        enum_rows = [r for r in rows if r["claim"] == "lee_enumerator"]
        assert enum_rows and enum_rows[0]["enumerator_reading"] == "counts-only"

    @pytest.mark.parametrize("only", ["0", "9"])
    def test_unknown_case_exits_2(self, capsys, only):
        rc = cli.main(["verify-examples", "--only", only])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "InvalidInput"
        assert "[1, 2, 3, 4, 5]" in err["message"]

    def test_mutated_lee_table_fails(self, capsys, monkeypatch):
        # mutation sanity: an off-by-one Lee kernel (symbol 3 weighing 2,
        # one lane (1, 1) counted once more) must flip case 1 to FAIL
        kernel = gray._lee_weights

        def off_by_one(words, buf):
            threes = np.bitwise_count(words & (words >> 1) & code.LO)
            return kernel(words, buf) + threes.sum(axis=1, dtype=np.intp)

        monkeypatch.setattr(gray, "_lee_weights", off_by_one)
        rc = cli.main(["verify-examples", "--only", "1"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestInternalCheckExit:
    def test_failed_post_check_exits_4(self, tmp_path, capsys, monkeypatch):
        # 2^18 words with r+s = 16: the enumerator goes through the dual,
        # and a Krawtchouk table shifted by one row fails its post-check
        c = shaped_code(random.Random(7), 1, 15, max_bits=18, min_bits=18)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_dict(c)))
        table = gray._krawtchouk(32)
        monkeypatch.setattr(gray, "_krawtchouk",
                            lambda N: table[1:] + ((0,) * 33,))
        rc = cli.main(["analyze", str(path), "--no-timing"])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "InternalCheckFailed"
        assert "MacWilliams" in err["message"]


    def test_failed_check_in_search_validate_exits_4(self, capsys, monkeypatch):
        def broken(**spec):
            raise InternalCheckFailed("planted")

        monkeypatch.setattr(search, "validate", broken)
        rc = cli.main(["search", "1", "3"])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["message"]) == ("InternalCheckFailed", "planted")


class TestInputContract:
    """Malformed specs and options exit 2 with the error object."""

    @staticmethod
    def run_spec(tmp_path, capsys, spec, *flags):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = cli.main(["analyze", str(path), *flags])
        return rc, json.loads(capsys.readouterr().err)["error"]

    def test_empty_spec(self, tmp_path, capsys):
        rc, err = self.run_spec(tmp_path, capsys, {})
        assert (rc, err["type"]) == (2, "InvalidInput")

    def test_spec_that_is_not_an_object(self, tmp_path, capsys):
        rc, err = self.run_spec(tmp_path, capsys, [1, 2])
        assert (rc, err["type"]) == (2, "InvalidInput")

    def test_f2_without_g2(self, tmp_path, capsys):
        rc, err = self.run_spec(tmp_path, capsys, {"r": 3, "s": 3, "f2": "x+3"})
        assert (rc, err["type"]) == (2, "DegenerateGenerators")
        assert err["message"] == "f2 and g2 must be supplied together"

    def test_boolean_length(self, tmp_path, capsys):
        rc, err = self.run_spec(tmp_path, capsys, {"r": True, "s": 7})
        assert (rc, err["type"]) == (2, "InvalidInput")
        assert "r must be an integer" in err["message"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, tmp_path, capsys, jobs):
        rc, err = self.run_spec(tmp_path, capsys, {"r": 1, "s": 7}, "--jobs", jobs)
        assert (rc, err["type"]) == (2, "InvalidInput")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one(self, tmp_path, capsys, cap):
        rc, err = self.run_spec(tmp_path, capsys, {"r": 1, "s": 7}, "--max-enum", cap)
        assert (rc, err["type"]) == (2, "InvalidInput")
        assert "--max-enum must be at least 1" in err["message"]

    @pytest.mark.parametrize("command", ["analyze", "dual"])
    @pytest.mark.parametrize("raw, message", [
        (b'\xff\xfe{"r":1}', "not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
    ], ids=["not-utf8", "deep-nesting"])
    def test_unreadable_spec_exits_2(self, tmp_path, capsys, command, raw, message):
        path = tmp_path / "spec.json"
        path.write_bytes(raw)
        rc = cli.main([command, str(path)])
        captured = capsys.readouterr()
        err = json.loads(captured.err)["error"]
        assert (rc, captured.out, err["type"]) == (2, "", "InvalidInput")
        assert message in err["message"]

    def test_dual_prints_a_size_past_the_digit_limit(self, tmp_path, capsys):
        # the zero code of length 7152: its dual, the whole space, has
        # 4^7152 words, 4307 digits, past Python's default of 4300
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"r": 7151, "s": 1}))
        limit = sys.get_int_max_str_digits()
        assert cli.main(["dual", str(path)]) == 0
        assert sys.get_int_max_str_digits() == limit  # restored on return
        out = capsys.readouterr().out
        with exact_ints():
            assert json.loads(out)["dual_size"] == 4 ** 7152

    def test_cap_error_names_a_size_past_the_digit_limit(self, tmp_path, capsys):
        rc, err = self.run_spec(tmp_path, capsys,
                                {"r": 7151, "s": 1, "f1": "1", "g1": "1"})
        assert (rc, err["type"]) == (3, "EnumerationCapExceeded")
        assert err["message"].startswith("code size 2^14302 exceeds cap ")

    def test_spec_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"r": 1' + "0" * 5000 + ', "s": 1}')
        rc = cli.main(["dual", str(path)])
        err = json.loads(capsys.readouterr().err)["error"]
        assert (rc, err["type"]) == (2, "InvalidInput")

    @pytest.mark.parametrize("exponent", ["9" * 5000, "100000000000"])
    def test_exponent_past_the_length_bound(self, tmp_path, capsys, exponent):
        rc, err = self.run_spec(tmp_path, capsys, {
            "r": 1, "s": 7, "f1": "x+1", "g1": "x+1", "l": "x^" + exponent,
            "f2": "x+1", "g2": "x+1"})
        assert (rc, err["type"]) == (2, "PolyParseError")

    @pytest.mark.parametrize("key", ["r", "s"])
    def test_length_past_the_bound(self, tmp_path, capsys, key):
        spec = {"r": 1, "s": 1, key: polytext.MAX_LENGTH + 1}
        rc, err = self.run_spec(tmp_path, capsys, spec)
        assert (rc, err["type"]) == (2, "InvalidInput")

    def test_coefficient_list_spec_with_empty_mixing(self, tmp_path, capsys):
        # the array form of the dual population, l = [] the zero polynomial
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"r": 3, "s": 3, "f1": [3, 1], "g1": [3, 1],
                                    "l": [], "f2": [1], "g2": [1]}))
        assert cli.main(["dual", str(path)]) == 0


class TestCommandLine:
    """A malformed command line exits 2 with the error object; each
    command takes only the flags its handler reads."""

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def assert_error_object(self, argv):
        rc, out, err = self.run(argv)
        error = json.loads(err)["error"]
        assert (rc, out, error["type"]) == (2, "", "InvalidInput")
        return error["message"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "s.json", "--bogus"], ["search", "1", "x"], [],
        ["analyze", "s.json", "--max-enum", "x"], ["dual", "s.json", "--method", "x"],
        ["frobnicate"], ["dual", "s.json", "--method", "free"],
        ["dual", "s.json", "--method", "brute"], ["dual", "s.json", "--force"],
    ], ids=["unknown-flag", "non-integer-length", "no-command", "non-integer-cap",
            "bad-choice", "unknown-command", "removed-method-free",
            "removed-method-brute", "removed-force"])
    def test_usage_error_prints_the_error_object(self, argv):
        self.assert_error_object(argv)

    @pytest.mark.parametrize("command, flag", [
        ("dual", "--format=json"), ("dual", "--max-enum=5"), ("dual", "--jobs=2"),
        ("dual", "--no-timing"), ("gray-export", "--format=json"),
        ("gray-export", "--jobs=2"), ("gray-export", "--no-timing"),
        ("verify-examples", "--format=json"), ("verify-examples", "--no-timing"),
        ("search", "--no-timing"),
    ])
    def test_a_flag_the_command_ignores_is_refused(self, kerdock_spec, command, flag):
        operands = {"dual": [kerdock_spec], "gray-export": [kerdock_spec],
                    "verify-examples": ["--only", "5"], "search": ["1", "3"]}
        message = self.assert_error_object([command, *operands[command], flag])
        assert "unrecognized arguments" in message

    @pytest.mark.parametrize("argv", [["--help"], ["dual", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: z4dc" in capsys.readouterr().out


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of a parser, by name."""
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def args_reads(source: str) -> dict[str, set[str]]:
    """The args.<name> attributes each top-level function of a module reads."""
    return {node.name: {n.attr for n in ast.walk(node)
                        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                        and n.value.id == "args"}
            for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def unread_or_missing_options(source: str, parser) -> dict[str, set[str]]:
    """Per subcommand, the dests its parser sets (options, positionals
    and defaults) that neither its handler nor main reads, and the
    attributes they read that it does not set."""
    reads = args_reads(source)
    out = {}
    for name, sub in subparsers(parser).items():
        dests = {a.dest for a in sub._actions if a.dest != "help"} | set(sub._defaults)
        wrong = dests ^ (reads[sub.get_default("fn").__name__] | reads["main"])
        if wrong:
            out[name] = wrong
    return out


def test_option_check_flags_planted_ones():
    source = ("def cmd_a(args):\n    return args.x + args.z\n"
              "def cmd_b(args):\n    return args.x\n"
              "def main(argv):\n    return args.fn(args)\n")
    namespace = {}
    exec(source, namespace)
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers()
    p = sub.add_parser("a")
    p.add_argument("--x")
    p.add_argument("--y")  # accepted and ignored
    p.set_defaults(fn=namespace["cmd_a"])
    p = sub.add_parser("b")
    p.add_argument("x")
    p.set_defaults(fn=namespace["cmd_b"])
    assert unread_or_missing_options(source, ap) == {"a": {"y", "z"}}


def test_every_option_has_a_reader():
    assert unread_or_missing_options(inspect.getsource(cli), cli._build_parser()) == {}


class TestSearchCli:
    def test_search_json(self, capsys):
        rc = cli.main(["search", "1", "3", "--forms", "ii"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]
        assert all(res["n"] == 8 for res in report["results"])

    def test_search_csv_deterministic(self, capsys):
        cli.main(["search", "1", "3", "--format", "csv"])
        first = capsys.readouterr().out
        cli.main(["search", "1", "3", "--format", "csv"])
        assert capsys.readouterr().out == first
        assert first.startswith("r,s,f1,g1,l,f2,g2,n,log2M,d")

    @pytest.mark.parametrize("forms", ["iv", ",", "ii,iv"])
    def test_unknown_forms_exit_2(self, capsys, forms):
        rc = cli.main(["search", "1", "3", "--forms", forms])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "InvalidInput"
        assert "i, ii, iii" in err["message"]

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_exits_2(self, capsys, cap):
        rc = cli.main(["search", "1", "3", "--max-enum", cap])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "InvalidInput"

    def test_negative_max_l_degree_exits_2(self, capsys):
        rc = cli.main(["search", "1", "3", "--max-l-degree", "-1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["type"] == "InvalidInput"
        assert "max_l_degree" in err["message"]

    def test_lattice_bound_is_checked_before_factoring(self, capsys, monkeypatch):
        # x^65535-1 has 4115 residue factors, one per cyclotomic coset
        lengths = []
        factor = f2poly.factor_cyclic
        monkeypatch.setattr(f2poly, "factor_cyclic",
                            lambda n: lengths.append(n) or factor(n))
        rc = cli.main(["search", "1", "65535"])
        err = json.loads(capsys.readouterr().err)["error"]
        assert (rc, err["type"]) == (2, "LatticeTooLarge")
        assert "4115 residue factors" in err["message"]
        assert 65535 not in lengths

    def test_length_past_the_bound_exits_2(self, capsys):
        rc = cli.main(["search", "1", str(polytext.MAX_LENGTH + 1)])
        err = json.loads(capsys.readouterr().err)["error"]
        assert (rc, err["type"]) == (2, "InvalidInput")
        assert f"at most {polytext.MAX_LENGTH}" in err["message"]

    @pytest.mark.parametrize("r, s", [("1", "-1"), ("-3", "1")])
    def test_nonpositive_length_exits_2(self, capsys, r, s):
        rc = cli.main(["search", r, s])
        err = json.loads(capsys.readouterr().err)["error"]
        assert (rc, err["type"]) == (2, "EvenLength")
        assert "positive odd integer" in err["message"]
        assert err["invariant"] == "block lengths must be odd"


class TestGrayExport:
    def test_export_lines(self, kerdock_spec, tmp_path):
        out = tmp_path / "words.txt"
        rc = cli.main(["gray-export", kerdock_spec, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 256
        assert lines[0] == "0" * 16
        assert len(set(lines)) == 256

    def test_cap_exit(self, kerdock_spec):
        assert cli.main(["gray-export", kerdock_spec,
                         "--max-enum", "10"]) == 3

    def test_cap_exit_leaves_the_out_file_alone(self, kerdock_spec, tmp_path):
        out = tmp_path / "words.txt"
        out.write_text("earlier\n")
        assert cli.main(["gray-export", kerdock_spec, "--out", str(out),
                         "--max-enum", "16"]) == 3
        assert out.read_text() == "earlier\n"


# -- input fuzzer ------------------------------------------------------------
#
# Every input must end in exit 0, 1, 2 or 3, with the JSON error object
# on stderr and nothing on stdout for a nonzero exit; exit 4 (a failed
# internal check) and an exception escaping main are bugs.  Lengths are
# either small (r, s <= 15) or past a bound, and enumeration is capped,
# so that no example costs more than a few milliseconds or megabytes.

SMALL_LENGTHS = (1, 3, 5, 7, 9, 15)
PAST_BOUND = (polytext.MAX_LENGTH + 1, 10 ** 9)


def poly_json(p):
    return st.sampled_from([polytext.render(p), list(p)])


@st.composite
def valid_specs(draw):
    """Generators drawn from the divisor lattices with g | f; the mixing
    polynomial is arbitrary, so some of these still fail validation."""
    r, s = draw(st.sampled_from(SMALL_LENGTHS)), draw(st.sampled_from(SMALL_LENGTHS))
    spec = {"r": r, "s": s}
    for f_key, g_key, n in (("f1", "g1", r), ("f2", "g2", s)):
        if draw(st.booleans()):
            lattice = search.divisor_lattice(n)
            f = draw(st.sampled_from(lattice))
            g = draw(st.sampled_from([d for d in lattice if z4poly.divides(d, f)]))
            spec[f_key], spec[g_key] = draw(poly_json(f)), draw(poly_json(g))
    if "f2" in spec and draw(st.booleans()):
        l = draw(st.lists(st.integers(0, 3), max_size=r).map(z4poly.canon))
        spec["l"] = draw(poly_json(l))
    return json.dumps(spec).encode()


JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False),
    st.sampled_from([-3, 0, 2, 4, *SMALL_LENGTHS, *PAST_BOUND]),
    st.text(alphabet="0123x^+ 49-", max_size=10),
    st.lists(st.integers(-5, 5), max_size=4),
    st.dictionaries(st.sampled_from(["r", "a"]), st.integers(0, 3), max_size=2))

wrong_specs = st.one_of(
    st.dictionaries(st.sampled_from(["r", "s", "f1", "g1", "l", "f2", "g2", "R", ""]),
                    JUNK, max_size=7),
    st.lists(JUNK, max_size=3), JUNK).map(lambda v: json.dumps(v).encode())

past_bound_specs = st.sampled_from([
    {"r": polytext.MAX_LENGTH + 1, "s": 1},
    {"r": 1, "s": 3, "f2": f"x^{polytext.MAX_LENGTH + 1}+3", "g2": "x+3"},
    {"r": 1, "s": 3, "l": "x^" + "9" * 50, "f2": "x+3", "g2": "x+3"},
    {"r": 1, "s": 3, "f2": [1] * (polytext.MAX_LENGTH + 2), "g2": [1]},
]).map(lambda v: json.dumps(v).encode())

raw_bytes = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=40).map(lambda b: b'{"r": 1, "s": \xff' + b),
    st.sampled_from([1, 50, 5000, 100_000]).map(lambda k: b"[" * k + b"]" * k),
    st.sampled_from([50, 5000]).map(
        lambda k: b'{"r": ' + b"[" * k + b"]" * k + b', "s": 1}'),
    st.just(b'{"r": 1' + b"0" * 5000 + b', "s": 1}'))

spec_commands = st.tuples(
    st.sampled_from([["analyze"], ["analyze", "--format", "csv"], ["dual"],
                     ["dual", "--method", "free"], ["dual", "--method", "brute"],
                     ["gray-export"],
                     # malformed or ignored flags
                     ["analyze", "--bogus"], ["analyze", "--jobs", "x"],
                     ["dual", "--format", "csv"], ["dual", "--jobs", "2"],
                     ["gray-export", "--format", "csv"]]),
    # flatmap over sampled_from draws each kind about equally often
    st.sampled_from([valid_specs(), wrong_specs, past_bound_specs, raw_bytes])
    .flatmap(lambda kind: kind))

search_lengths = st.one_of(
    st.sampled_from([1, 3]),
    st.sampled_from([-3, 0, 4, 4095, 32767, 65535, *PAST_BOUND, "x", "1.5", ""])).map(str)
search_commands = st.tuples(
    search_lengths, search_lengths,
    st.sampled_from(["i", "ii", "iii", "i,ii", "ii,iii", "iv"]),
    st.sampled_from(["0", "1"]), st.sampled_from(["json", "csv"]),
    st.one_of(st.just([]),
              st.sampled_from([["--no-timing"], ["--bogus"], ["--jobs", "0"]]))).map(
    lambda t: ["search", t[0], t[1], "--forms", t[2],
               "--max-l-degree", t[3], "--format", t[4], *t[5]])

OPTIONS = {name: {o for a in sub._actions for o in a.option_strings}
           for name, sub in subparsers(cli._build_parser()).items()}


def check_exit(argv):
    """Run argv, with --max-enum 4096 and --no-timing when its command
    takes them, and check the exit code and error object."""
    takes = OPTIONS[argv[0]]
    extra = [*(["--max-enum", "4096"] if "--max-enum" in takes else []),
             *(["--no-timing"] if "--no-timing" in takes else [])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([*argv, *extra])
    assert rc in (0, 1, 2, 3), err.getvalue()
    event(f"exit {rc}")
    if rc:
        error = json.loads(err.getvalue())["error"]
        assert isinstance(error["type"], str) and isinstance(error["message"], str)
        assert out.getvalue() == ""
        event(f"exit {rc}: {error['type']}")


@settings(max_examples=200)
@given(command=spec_commands)
def test_fuzzed_spec_file_exits_with_an_error_object(tmp_path_factory, command):
    argv, raw = command
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(raw)
    check_exit([argv[0], str(path), *argv[1:]])


@settings(max_examples=60)
@given(argv=search_commands)
def test_fuzzed_search_exits_with_an_error_object(argv):
    check_exit(argv)
