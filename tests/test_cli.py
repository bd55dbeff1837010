import argparse
import json
import re
import time
from pathlib import Path

import pytest

from radicalroots import VerificationFailed, pipeline, precision
from radicalroots.cli import _build_parser, main

README = Path(__file__).parent.parent / "README.md"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sqrt2(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2",
                                  "--generators", "(1,2)", "--verify"])
    assert code == 0
    assert "(1/2)*(root(2,0; 8))" in out
    assert "verification" in out


def test_solve_quintic_stats(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--stats"])
    assert code == 0
    assert "stats: multiplications 62 / budget 190" in out
    assert "35000000" in out


def test_solve_stats_count_repeated_lines_once(capsys):
    # S4's tensor repeats lines and holds lines that are affine reindexings
    # of others, whose transforms the forward pass skips, and at p = 2 a
    # twiddle is 1 or -1, which takes no product
    code, out, err = run(capsys, ["solve", "--poly", "x^4+x+1",
                                  "--generators", "(1,2,3,4);(1,2)",
                                  "--stats"])
    assert code == 0
    assert "stats: multiplications 100 / budget 552" in out


def test_solve_deterministic_output(capsys):
    argv = ["solve", "--poly", "x^5+20x+32",
            "--generators", "(1,2,3,4,5);(1,4)(2,3)", "--stats", "--verify"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


DATA = Path(__file__).parent / "data"
GOLDEN = [
    ("d5_verify_stats.txt", ["--poly", "x^5+20x+32",
                             "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                             "--verify", "--stats"]),
    ("x3m2.json", ["--poly", "x^3-2", "--generators", "(1,2,3);(1,2)",
                   "--format", "json", "--verify"]),
    ("x3m2.tex", ["--poly", "x^3-2", "--generators", "(1,2,3);(1,2)",
                  "--format", "latex"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_solve_output_matches_golden_bytes(capsys, name, argv):
    # the files pin the default output byte for byte; regenerate them only
    # for a change to the output that is meant
    code, out, err = run(capsys, ["solve", *argv])
    assert code == 0
    assert out.encode() == (DATA / name).read_bytes()


def test_text_roots_carry_the_json_digits(capsys):
    # each text root line prints the same digits as the JSON roots, the
    # imaginary part included (it is not re-rounded before printing)
    argv = ["solve", "--poly", "x^5+20x+32",
            "--generators", "(1,2,3,4,5);(1,4)(2,3)"]
    _, text, _ = run(capsys, argv)
    _, out, _ = run(capsys, argv + ["--format", "json"])
    lines = text.split("labeled roots:\n")[1].splitlines()
    roots = json.loads(out)["roots"]
    assert sum(root["im"] != "0.0" for root in roots) == 4
    for i, (line, root) in enumerate(zip(lines, roots), start=1):
        assert line.startswith(f"  x_{i} = {root['re']}")
        if root["im"] == "0.0":
            assert line == f"  x_{i} = {root['re']}"
        else:
            assert line.endswith(f" {root['im'].lstrip('-')}i")


def test_solve_json_schema(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2",
                                  "--generators", "(1,2)",
                                  "--format", "json", "--verify", "--stats"])
    assert code == 0
    payload = json.loads(out)
    assert payload["theta"]["values"] == ["4", "-4"]
    assert payload["stats"] == {"multiplications": 2, "budget": 10}
    ast = payload["expressions"][0]["ast"]
    assert ast == {"scale": "1/2",
                   "sum": [{"root": {"p": 2, "branch": 0,
                                     "radicand": {"int": "8"}}}]}
    assert "verification" in payload


def test_solve_given_labeling(capsys, reference_label_order):
    order = ",".join(map(str, reference_label_order))
    code, out, err = run(capsys, ["solve", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--root-order", order])
    assert code == 0
    assert "0, 0, -10000000, 35000000, 10000000, 15000000, 10000000, " \
           "15000000, -10000000, 35000000" in out


def test_solve_latex_format(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2",
                                  "--generators", "(1,2)",
                                  "--format", "latex"])
    assert code == 0
    assert r"\frac{1}{2}\left(\sqrt{8}\right)" in out


def test_input_file(tmp_path, capsys):
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps({
        "poly": [32, 20, 0, 0, 0, 1],
        "generators": ["(1,2,3,4,5)", "(1,4)(2,3)"],
    }))
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 0
    assert "35000000" in out


def test_input_file_with_labeling(tmp_path, capsys, reference_label_order):
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps({
        "poly": [32, 20, 0, 0, 0, 1],
        "generators": ["(1,2,3,4,5)", "(1,4)(2,3)"],
        "labeling": {"root_order": reference_label_order},
    }))
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 0
    assert "0, 0, -10000000, 35000000" in out


def test_exit_code_parse_error(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^^2",
                                  "--generators", "(1,2)"])
    assert code == 2
    assert "InputSyntaxError" in err


def test_exit_code_not_solvable(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^5-x+1",
                                  "--generators", "(1,2,3,4,5);(1,2)"])
    assert code == 3
    assert "NotSolvable" in err


def test_exit_code_residual_too_large(capsys, reference_label_order):
    order = ",".join(map(str, reference_label_order))
    code, out, err = run(capsys, ["solve", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--digits", "6", "--root-order", order])
    assert code == 4
    assert "ResidualTooLarge" in err


def test_exit_code_labeling_failed_at_low_digits(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--digits", "6"])
    assert code == 6


def test_exit_code_labeling_failed_for_an_intransitive_group(capsys):
    # (1,2) never moves label 3, so no tensor position holds root 3; the
    # given labeling fails with the same exit code as the automatic one
    argv = ["solve", "--poly", "x^3-2", "--generators", "(1,2)"]
    for labeling in (["--root-order", "1,2,3"], []):
        code, out, err = run(capsys, argv + labeling)
        assert code == 6
        assert out == ""
        assert err.startswith("error[LabelingFailed]: ")


def test_exit_code_precision_infeasible(capsys, monkeypatch):
    # x^2-2 plans 8 digits; a planned budget above the cap exits 7
    monkeypatch.setattr(precision, "DIGITS_HARD_CAP", 7)
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2",
                                  "--generators", "(1,2)"])
    assert code == 7
    assert out == ""
    assert "error[PrecisionInfeasible]" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--poly", "x^2-2", "--generators", "(1,2)"],
    ["roots", "--poly", "x^2-2"],
    ["check", "--poly", "x^2-2", "--generators", "(1,2)"],
], ids=["solve", "roots", "check"])
def test_explicit_digits_over_the_cap_exit_7_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, argv + ["--digits", "100001"])
    assert time.perf_counter() - start < 1
    assert code == 7
    assert out == ""
    assert err.startswith("error[PrecisionInfeasible]: digit budget 100001 "
                          "exceeds cap 100000")


def test_exit_code_verification_failed(capsys, monkeypatch):
    # VerificationFailed has no exit code of its own: a SolverError exits 1
    def failing_verify(*args):
        raise VerificationFailed("root 1 deviates")

    monkeypatch.setattr(pipeline, "verify", failing_verify)
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2",
                                  "--generators", "(1,2)", "--verify"])
    assert code == 1
    assert out == ""
    assert err == "error[VerificationFailed]: root 1 deviates\n"


def test_exit_code_nonconvergence(capsys):
    code, out, err = run(capsys, ["roots", "--poly", "x^2+2x+1"])
    assert code == 8
    assert "NonConvergence" in err


@pytest.mark.parametrize("poly", ["x^2-1" + "0" * 700, "x^2-3" + "0" * 616])
def test_exit_code_root_beyond_float_range(capsys, poly):
    # roots near 1e350, or near 1.73e308, whose two-figure bound 1.8e308 is
    # beyond the float range the precision plan holds
    code, out, err = run(capsys, ["solve", "--poly", poly,
                                  "--generators", "(1,2)"])
    assert code == 2
    assert out == ""
    assert "UnsupportedInput" in err and "float range" in err


def test_series_command(capsys):
    code, out, err = run(capsys, ["series", "--degree", "5",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)"])
    assert code == 0
    assert "p-chain: 5, 2" in out


def test_series_not_solvable(capsys):
    code, out, err = run(capsys, ["series", "--degree", "5",
                                  "--generators", "(1,2,3,4,5);(1,2)"])
    assert code == 3


def test_roots_command(capsys):
    code, out, err = run(capsys, ["roots", "--poly", "x^5+20x+32",
                                  "--digits", "14"])
    assert code == 0
    assert "-1.3639621650899" in out


def test_check_command(capsys):
    code, out, err = run(capsys, ["check", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--digits", "20"])
    assert code == 0
    assert "certificate degree: 12" in out
    assert "1600000000" in out


@pytest.mark.parametrize("argv", [
    ["roots", "--poly", "x^2-2", "--digits", "0"],
    ["solve", "--poly", "x^2-2", "--generators", "(1,2)", "--digits", "0"],
    ["check", "--poly", "x^2-2", "--generators", "(1,2)", "--digits", "0"],
    ["series", "--generators", "()", "--degree", "0"],
    ["series", "--generators", "()", "--degree", "-3"],
], ids=["roots-digits", "solve-digits", "check-digits", "series-degree-0",
        "series-degree-negative"])
def test_numeric_flags_out_of_range_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "InputSyntaxError" in err and argv[-2] in err


def test_missing_generators(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2"])
    assert code == 2


def test_check_with_given_root_order(capsys):
    code, out, err = run(capsys, ["check", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--root-order", "5,1,3,2,4"])
    assert code == 0
    assert out.startswith("labeling: 5,1,3,2,4\n"
                          "orbit sum of x_1*x_2^2: 20 (residual ")
    assert "orbit sum of x_1*x_2*x_3^2: -80 (residual " in out
    assert "certificate degree: 12" in out


def test_check_skips_the_certificate_above_its_degree_cap(capsys):
    code, out, err = run(capsys, ["check", "--poly", "x^7-2", "--generators",
                                  "(1,2,3,4,5,6,7);(2,4,3,7,5,6)"])
    assert code == 0
    assert out.endswith("certificate skipped: degree above cap 6\n")
    assert "certificate degree" not in out


def test_roots_warns_on_a_reducible_polynomial(capsys):
    code, out, err = run(capsys, ["roots", "--poly", "x^2-1"])
    assert code == 0
    assert out.startswith("warning: integer roots found: polynomial is "
                          "reducible\n")


def test_roots_warns_on_a_truncated_divisor_search(capsys):
    # a constant term above 10^12 is searched for small divisors only: that
    # finds the root 1 of (x - 1)(x - 2000000000003), and no root of
    # (x - 1000003)(x - 2000003), whose search is still reported
    truncated = "warning: constant term too large; divisor search truncated\n"
    for poly, warnings in [
            ("x^2-2000000000004x+2000000000003",
             truncated
             + "warning: integer roots found: polynomial is reducible\n"),
            ("x^2-3000006x+2000009000009", truncated)]:
        code, out, err = run(capsys, ["roots", "--poly", poly])
        assert code == 0
        assert out.startswith(warnings + "  x_1 = ")


# input-file content (None: no file is written) and the error message; a
# malformed entry must exit 2, not be truncated to an integer or end in a
# traceback
INPUT_FILE_ERRORS = {
    "unreadable": (None, "cannot read input file"),
    "no-poly": ({"generators": ["(1,2)"]},
                'input file must contain a "poly" entry'),
    "float-coefficient": ({"poly": [2.5, 0, 1], "generators": ["(1,2)"]},
                          "polynomial coefficient 0 must be an integer, "
                          "got 2.5"),
    "number-poly": ({"poly": 5, "generators": ["(1,2)"]},
                    "a polynomial is text or a list of coefficients, got 5"),
    "text-coefficient": ({"poly": [1, "a", 1], "generators": ["(1,2)"]},
                         "polynomial coefficient 1 must be an integer, "
                         "got 'a'"),
    "overflowing-coefficient": ('{"poly": [1, 0, 1e400], '
                                '"generators": ["(1,2)"]}',
                                "polynomial coefficient 2 must be an "
                                "integer, got inf"),
    "nested-generators": ({"poly": [-2, 0, 1], "generators": [["(1,2)"]]},
                          'input file entry "generators" must be a list of '
                          "strings"),
    "text-root-order": ({"poly": [-2, 0, 1], "generators": ["(1,2)"],
                         "labeling": {"root_order": "2,1"}},
                        'input file entry "root_order" must be a list of '
                        "integers"),
    "text-labeling": ({"poly": [-2, 0, 1], "generators": ["(1,2)"],
                       "labeling": "root_order"},
                      'input file entry "labeling" must be an object'),
}


@pytest.mark.parametrize("case", [*INPUT_FILE_ERRORS, "no-input"])
def test_missing_polynomial_exits_2(tmp_path, capsys, case):
    if case == "no-input":
        argv = ["solve", "--generators", "(1,2)"]
        message = "a polynomial is required (--poly or --input)"
    else:
        content, message = INPUT_FILE_ERRORS[case]
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content if isinstance(content, str)
                            else json.dumps(content))
        argv = ["solve", "--input", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error[InputSyntaxError]: " + message)


@pytest.mark.parametrize("root_order", ["a,b", ","])
def test_root_order_that_is_not_integers_exits_2(capsys, root_order):
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2", "--generators",
                                  "(1,2)", "--root-order", root_order])
    assert (code, out) == (2, "")
    assert err == ("error[InputSyntaxError]: root order must list integers, "
                   f"got {root_order!r}\n")


@pytest.mark.parametrize("command,with_file", [
    ("solve", False), ("check", False), ("solve", True)],
    ids=["solve", "check", "solve-input-file"])
def test_empty_root_order_exits_2(tmp_path, capsys, command, with_file):
    # an empty --root-order is a malformed labeling, not "search for one",
    # and it does not fall back to the input file's labeling either
    argv = [command, "--poly", "x^2-2", "--generators", "(1,2)"]
    if with_file:
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"poly": [-2, 0, 1],
                                    "generators": ["(1,2)"],
                                    "labeling": {"root_order": [2, 1]}}))
        argv = [command, "--input", str(path)]
    code, out, err = run(capsys, argv + ["--root-order", ""])
    assert (code, out) == (2, "")
    assert err == ("error[InputSyntaxError]: root order must list integers, "
                   "got ''\n")


@pytest.mark.parametrize("command,flag,message", [
    ("solve", "--poly", "empty polynomial"),
    ("solve", "--generators", "generators are required (--generators)"),
    ("check", "--poly", "empty polynomial"),
    ("check", "--generators", "generators are required (--generators)"),
    ("series", "--generators", "generators are required (--generators)")],
    ids=["solve-poly", "solve-generators", "check-poly", "check-generators",
         "series-generators"])
def test_empty_flag_does_not_fall_back_to_the_input_file(
        tmp_path, capsys, command, flag, message):
    # series takes no input file: its empty --generators is not the trivial
    # group either
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"poly": [-2, 0, 1], "generators": ["(1,2)"]}))
    argv = ([command, "--degree", "3"] if command == "series"
            else [command, "--input", str(path)])
    code, out, err = run(capsys, argv + [flag, ""])
    assert (code, out) == (2, "")
    assert err == f"error[InputSyntaxError]: {message}\n"


@pytest.mark.parametrize("command,flag", [
    ("solve", ["--tolerance", "0.1"]), ("check", ["--tolerance", "0.1"]),
    ("solve", ["--labeling", "given"]), ("solve", ["--margin", "6"])],
    ids=["solve-tolerance", "check-tolerance", "solve-labeling",
         "solve-margin"])
def test_removed_flags_are_rejected_by_the_parser(capsys, command, flag):
    # the rounding tolerance and the plan's margin are fixed, and
    # --root-order alone sets a labeling
    with pytest.raises(SystemExit) as exc:
        main([command, "--poly", "x^2-2", "--generators", "(1,2)", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_check_without_generators_exits_2(capsys):
    code, out, err = run(capsys, ["check", "--poly", "x^2-2"])
    assert (code, out) == (2, "")
    assert err == ("error[InputSyntaxError]: generators are required "
                   "(--generators)\n")


# at 1 or 2 digits the noise floor of polish_roots reaches |z|; the roots must
# not all snap to 0 and then pass as verified

def test_two_digit_plan_does_not_zero_the_roots(capsys):
    # x^2-2 requires 2 digits; the doubling on PhaseAmbiguous ends at 8
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2", "--generators",
                                  "(1,2)", "--digits", "2", "--verify"])
    assert code == 0
    assert "digits: 8 (required 2, margin 6)" in out
    assert "  x_1 = (1/2)*(root(2,0; 8))\n" in out
    assert "  x_2 = (1/2)*(root(2,1; 8))\n" in out


def test_two_digit_budget_fails_loudly_on_the_quintic(capsys):
    argv = ["solve", "--poly", "x^5+20x+32",
            "--generators", "(1,2,3,4,5);(1,4)(2,3)", "--digits", "2"]
    code, out, err = run(capsys, argv + ["--root-order", "5,1,3,2,4"])
    assert (code, out) == (4, "")
    assert err.startswith("error[ResidualTooLarge]: ")
    code, out, err = run(capsys, argv)
    assert (code, out) == (6, "")
    assert err.startswith("error[LabelingFailed]: ")


def test_roots_at_two_digits_are_not_zero(capsys):
    code, out, err = run(capsys, ["roots", "--poly", "x^5+20x+32",
                                  "--digits", "2"])
    assert code == 0
    assert out == ("  x_1 = -1.1 - 1.7i\n"
                   "  x_2 = 1.8 - 1.6i\n"
                   "  x_3 = 1.8 + 1.6i\n"
                   "  x_4 = -1.1 + 1.7i\n"
                   "  x_5 = -1.4\n"
                   "max residual |f(x)|: 0.1415\n")


def test_check_at_two_digits_fails_loudly(capsys):
    code, out, err = run(capsys, ["check", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--digits", "2", "--root-order", "5,1,3,2,4"])
    assert code == 4
    assert "certificate" not in out
    assert "orbit sum of x_1*x_2^2: 0 " not in out
    assert err.startswith("error[ResidualTooLarge]: ")


def readme_command_line_flags(text: str) -> set[str]:
    """The ``--flags`` named in the README's ``## Command line`` section."""
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"--[a-z][a-z-]*", section))


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The long options of the parser and its subcommands, apart from
    ``--help`` and ``--version``."""
    flags = set()
    parsers = [parser]
    while parsers:
        for action in parsers.pop()._actions:
            flags.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    return {f for f in flags if f.startswith("--")} - {"--help", "--version"}


def test_readme_names_every_command_line_flag_and_no_other():
    assert readme_command_line_flags(README.read_text()) \
        == parser_flags(_build_parser())


def test_readme_flag_drift_is_detected():
    text = ("## Install\n`--no-build-isolation`\n"
            "## Command line\n`solve --poly P --old-flag`\n"
            "## Library\n`--ignored`\n")
    assert readme_command_line_flags(text) == {"--poly", "--old-flag"}
    parser = argparse.ArgumentParser()
    parser.add_argument("--version", action="version", version="1")
    sub = parser.add_subparsers().add_parser("solve")
    sub.add_argument("--poly")
    sub.add_argument("-d", "--digits")
    assert parser_flags(parser) == {"--poly", "--digits"}
