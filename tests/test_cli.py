import json
from pathlib import Path

import pytest

from radicalroots import VerificationFailed, pipeline
from radicalroots.cli import main


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
    assert "stats: multiplications 190 / budget 190" in out
    assert "35000000" in out


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
    assert payload["stats"] == {"multiplications": 10, "budget": 10}
    ast = payload["expressions"][0]["ast"]
    assert ast == {"scale": "1/2",
                   "sum": [{"root": {"p": 2, "branch": 0,
                                     "radicand": {"int": "8"}}}]}
    assert "verification" in payload


def test_solve_given_labeling(capsys, reference_label_order):
    order = ",".join(map(str, reference_label_order))
    code, out, err = run(capsys, ["solve", "--poly", "x^5+20x+32",
                                  "--generators", "(1,2,3,4,5);(1,4)(2,3)",
                                  "--labeling", "given", "--root-order", order])
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
                                  "--digits", "6", "--labeling", "given",
                                  "--root-order", order])
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
    for labeling in (["--labeling", "given", "--root-order", "1,2,3"], []):
        code, out, err = run(capsys, argv + labeling)
        assert code == 6
        assert out == ""
        assert err.startswith("error[LabelingFailed]: ")


def test_exit_code_precision_infeasible(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2",
                                  "--generators", "(1,2)", "--margin", "100000"])
    assert code == 7
    assert out == ""
    assert "error[PrecisionInfeasible]" in err


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
    ["solve", "--poly", "x^2-2", "--generators", "(1,2)", "--margin", "-1"],
    ["solve", "--poly", "x^2-2", "--generators", "(1,2)", "--tolerance", "0"],
    ["check", "--poly", "x^2-2", "--generators", "(1,2)",
     "--tolerance", "nan"],
], ids=["roots-digits", "solve-digits", "check-digits", "margin", "tolerance",
        "tolerance-nan"])
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


@pytest.mark.parametrize("case", ["unreadable", "no-poly", "no-input"])
def test_missing_polynomial_exits_2(tmp_path, capsys, case):
    path = tmp_path / "input.json"
    if case == "no-poly":
        path.write_text(json.dumps({"generators": ["(1,2)"]}))
    argv = ["solve", "--generators", "(1,2)"]
    if case != "no-input":
        argv += ["--input", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    message = {"unreadable": "cannot read input file",
               "no-poly": 'input file must contain a "poly" entry',
               "no-input": "a polynomial is required (--poly or --input)"}
    assert err.startswith("error[InputSyntaxError]: " + message[case])


# at 1 or 2 digits the noise floor of polish_roots reaches |z|; the roots must
# not all snap to 0 and then pass as verified

def test_two_digit_plan_does_not_zero_the_roots(capsys):
    code, out, err = run(capsys, ["solve", "--poly", "x^2-2", "--generators",
                                  "(1,2)", "--margin", "0", "--verify"])
    assert code == 0
    assert "digits: 8 (required 2, margin 0)" in out
    assert "  x_1 = (1/2)*(root(2,0; 8))\n" in out
    assert "  x_2 = (1/2)*(root(2,1; 8))\n" in out


def test_two_digit_budget_fails_loudly_on_the_quintic(capsys):
    argv = ["solve", "--poly", "x^5+20x+32",
            "--generators", "(1,2,3,4,5);(1,4)(2,3)", "--digits", "2"]
    code, out, err = run(capsys, argv + ["--labeling", "given",
                                         "--root-order", "5,1,3,2,4"])
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
