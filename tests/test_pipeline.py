"""Work done once per solve: one Aberth run, one labeling, one evaluation
of the DAG, each at a budget the solve sets itself."""

import mpmath
import pytest
from mpmath import mp, mpf

from radicalroots import (InputSyntaxError, Permutation, PhaseAmbiguous,
                          PrecisionInfeasible, ResidualTooLarge, pipeline,
                          precision, radical, solve)
from radicalroots.cli import main
from radicalroots.resolvent import zeta_tables
from tests.conftest import QUINTIC_GENERATORS, QUINTIC_TEXT


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def _reconstruct_failing(monkeypatch, times):
    """Make the pipeline's reconstruct raise PhaseAmbiguous ``times`` times;
    the list returned records the working precision of each call."""
    original = pipeline.reconstruct
    digits_seen = []

    def flaky(*args, **kwargs):
        digits_seen.append(mp.dps)
        if len(digits_seen) <= times:
            raise PhaseAmbiguous("forced for the test")
        return original(*args, **kwargs)
    monkeypatch.setattr(pipeline, "reconstruct", flaky)
    return digits_seen


def test_plain_solve_runs_aberth_once_and_polishes_once(monkeypatch):
    aberth = _count_calls(monkeypatch, pipeline, "aberth_stage")
    polish = _count_calls(monkeypatch, pipeline, "polish_roots")
    report = solve(QUINTIC_TEXT, QUINTIC_GENERATORS)
    assert len(aberth) == 1
    assert [args[2] for args in polish] == [report.digits]


def test_phase_retry_doubles_budget_and_runs_aberth_once(monkeypatch):
    aberth = _count_calls(monkeypatch, pipeline, "aberth_stage")
    polish = _count_calls(monkeypatch, pipeline, "polish_roots")
    labelings = _count_calls(monkeypatch, pipeline, "label_roots")
    digits_seen = _reconstruct_failing(monkeypatch, times=1)
    report = solve("x^3-2", "(1,2,3);(1,2)")
    assert len(aberth) == 1
    assert [args[2] for args in polish] == digits_seen
    assert len(labelings) == 1
    assert digits_seen == [report.plan.digits, 2 * report.plan.digits]
    assert report.digits == 2 * report.plan.digits
    assert report.roots.digits == report.digits
    assert f"branch selection ambiguous; digits doubled to {report.digits}" \
        in report.notes
    assert max(report.verification) < mpf(10) ** (-mpf(report.digits) / 2)


def test_phase_retries_exhausted_propagate(monkeypatch):
    aberth = _count_calls(monkeypatch, pipeline, "aberth_stage")
    polish = _count_calls(monkeypatch, pipeline, "polish_roots")
    digits_seen = _reconstruct_failing(monkeypatch, times=10)
    with pytest.raises(PhaseAmbiguous):
        solve("x^3-2", "(1,2,3);(1,2)")
    assert len(aberth) == 1
    assert len(digits_seen) == 4
    assert [args[2] for args in polish] == digits_seen


def test_phase_retries_exhausted_exit_code(monkeypatch, capsys):
    _reconstruct_failing(monkeypatch, times=10)
    code = main(["solve", "--poly", "x^3-2", "--generators", "(1,2,3);(1,2)"])
    assert code == 5
    assert "PhaseAmbiguous" in capsys.readouterr().err


def test_phase_retry_stops_at_the_digit_cap(monkeypatch):
    planned = solve("x^3-2", "(1,2,3);(1,2)").plan.digits
    monkeypatch.setattr(precision, "DIGITS_HARD_CAP", 2 * planned + 1)
    polish = _count_calls(monkeypatch, pipeline, "polish_roots")
    digits_seen = _reconstruct_failing(monkeypatch, times=10)
    with pytest.raises(PrecisionInfeasible, match=f"{4 * planned} exceeds cap"):
        solve("x^3-2", "(1,2,3);(1,2)")
    assert digits_seen == [planned, 2 * planned]
    assert [args[2] for args in polish] == [planned, 2 * planned, 4 * planned]


def test_roots_of_unity_come_from_the_zeta_tables(monkeypatch):
    def forbidden(*args):
        raise AssertionError("root_of_unity called outside zeta_tables")
    monkeypatch.setattr(radical, "root_of_unity", forbidden)
    report = solve(QUINTIC_TEXT, QUINTIC_GENERATORS)
    assert report.verification is not None


def test_principal_roots_taken_once_per_radicand(monkeypatch):
    # reconstruct takes one principal root per radicand; the report's
    # evaluations and verification take none
    calls = _count_calls(monkeypatch, radical, "principal_root")
    report = solve("x^4+x+1", "(1,2,3,4);(1,2)")
    assert 0 < len(calls) <= len(report.branch_log) + len(report.zero_notes)


@pytest.mark.parametrize("poly,generators,labeling", [
    pytest.param(QUINTIC_TEXT, QUINTIC_GENERATORS, "5,1,3,2,4",
                 id=f"{QUINTIC_TEXT}-{QUINTIC_GENERATORS}"),
    pytest.param("x^3-2", "(1,2,3);(1,2)", "auto", id="x^3-2-(1,2,3);(1,2)")])
def test_results_do_not_depend_on_the_ambient_precision(poly, generators,
                                                         labeling, monkeypatch):
    # a solve sets its own working precision, whatever precision the caller
    # runs at, and gives the caller's back, also when an attempt raises; a
    # 3-digit budget is too small to round the final tensor
    reports = []
    for ambient in (5, 300):
        with mp.workdps(ambient):
            reports.append(solve(poly, generators))
            assert mp.dps == ambient
            with pytest.raises(ResidualTooLarge):
                solve(poly, generators, labeling=labeling, digits=3)
            assert mp.dps == ambient
    low, high = reports
    assert low.theta.values == high.theta.values
    assert low.root_exprs == high.root_exprs
    assert low.evaluations == high.evaluations
    assert low.verification == high.verification
    digits_seen = _reconstruct_failing(monkeypatch, times=10)
    for ambient in (5, 300):
        with mp.workdps(ambient):
            with pytest.raises(PhaseAmbiguous):
                solve(poly, generators)
            assert mp.dps == ambient
    planned = low.plan.digits
    assert digits_seen == 2 * [planned, 2 * planned, 4 * planned, 8 * planned]


@pytest.mark.parametrize("budget,message", [
    ({"digits": 20.5}, "digits must be an integer, got 20.5"),
    ({"digits": 0}, "digits must be at least 1, got 0")])
def test_a_digit_budget_that_is_not_a_whole_number_is_refused(budget,
                                                              message):
    with pytest.raises(InputSyntaxError, match=f"^{message}$"):
        solve("x^3-2", "(1,2,3);(1,2)", **budget)


def test_the_planned_margin_is_not_an_option():
    # a budget is planned (requirement + DEFAULT_MARGIN) or given as digits
    with pytest.raises(TypeError, match="margin"):
        solve("x^2-2", "(1,2)", margin=6)


@pytest.mark.parametrize("generators,labeling,message", [
    (["(1,2,3)", 5], "auto", "a generator is cycle text or a Permutation"),
    (None, "auto", "generators are text or a list"),
    ([Permutation((2, 1))], "auto", "generator \\(1,2\\) moves 2 points"),
    ("(1,2,3);(1,2)", 3.5, "a labeling is"),
], ids=["non-text-generator", "no-generators", "generator-of-wrong-degree",
        "number-labeling"])
def test_malformed_library_input_is_refused(generators, labeling, message):
    with pytest.raises(InputSyntaxError, match=message):
        solve("x^3-2", generators, labeling=labeling)


@pytest.mark.parametrize("coeffs", [[2.9, 0, 1], [-2, 0, 1.0], [-2, "0", 1]])
def test_a_coefficient_list_of_non_integers_is_refused(coeffs):
    # int() would truncate 2.9 to 2 and solve x^2+2
    with pytest.raises(InputSyntaxError, match="must be an integer"):
        solve(coeffs, "(1,2)")


def test_values_are_mpmath_mpc():
    # one complex type from root finding to verification
    report = solve("x^3-2", "(1,2,3);(1,2)")
    with mp.workdps(report.digits):
        zetas = zeta_tables(report.series)
    values = [*report.roots.roots, *report.evaluations,
              *(z for table in zetas.values() for z in table)]
    assert all(type(v) is mpmath.mpc for v in values)


@pytest.mark.parametrize("poly,generators,digits,planned", [
    ("x^3-2000000000000000000000000", "(1,2,3);(1,2)", None, 52),
    ("x^2-1000000000000001", "(1,2)", 30, 15)])
def test_roots_far_from_the_unit_circle_solve(poly, generators, digits,
                                               planned):
    # roots near 10^8 cannot take Aberth steps below 10^-26 at 32 digits;
    # the stop test is relative to the root's modulus
    report = solve(poly, generators, digits=digits)
    assert report.plan.digits == planned
    assert max(report.verification) < mpf(10) ** (-mpf(report.digits) / 2)
