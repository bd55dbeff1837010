"""Which default-seed benchmark solves an independent evaluator refuses.

``perfbench/check.py`` re-evaluates every emitted radical with plain mpmath
(principal branches, no snapping) and asks whether the values are distinct
roots of the input polynomial.  ``verify`` compares the solver's evaluator
with itself, so these are the only tier-1 tests that ask whether an answer
is right.  The failure set is pinned exactly, by instance and reason: a change
may shrink it, with the entry removed here, and must never grow it.  The
large pure powers and the auto-labeled polynomials below must all pass.
"""

import pytest

from radicalroots import SolverError, solve
from tests.conftest import load_perfbench

# name -> reason: an exception type, "branch_mismatch" (the values are not
# distinct roots) or "scale" (they are the monic reduction's roots); every
# default-seed instance passes
FAILURES = {}


def instances():
    """The 35 instances of the four workloads at the default seed."""
    workloads = load_perfbench("workloads")
    return [inst for make in workloads.WORKLOADS.values()
            for inst in make(workloads.DEFAULT_SEED)]


INSTANCES = instances()


def test_the_pinned_failures_name_default_seed_instances():
    names = [inst.name for inst in INSTANCES]
    assert len(names) == len(set(names)) == 35
    assert set(FAILURES) <= set(names)


@pytest.mark.parametrize("instance", INSTANCES, ids=[i.name for i in INSTANCES])
def test_independent_check_failure_set_is_pinned(instance):
    check = load_perfbench("check")
    try:
        report = solve(instance.poly, instance.generators,
                       labeling=instance.labeling, run_verification=True)
    except SolverError as exc:
        reason = type(exc).__name__
    else:
        reason = check.check_report(report)
    assert reason == FAILURES.get(instance.name)


D4 = "(1,2,3,4);(2,4)"
D6 = "(1,2,3,4,5,6);(2,6)(3,5)"
# x^4-a and x^6-a at the a that the label-search workload draws, and the two
# cyclic sextics: several labelings pass the integrality tests for each, and
# the first one solves
AUTO_LABELED = [(f"x^{n}-{a}", gens) for n, gens in ((4, D4), (6, D6))
                for a in (2, 3, 5, 6, 7)] + [
    ("x^6+x^3+1", "(1,2,3,4,5,6)"), ("x^6-x^3+1", "(1,2,3,4,5,6)")]


@pytest.mark.parametrize("text,generators", AUTO_LABELED)
def test_auto_labeled_dihedral_and_cyclic_sextics_pass_the_check(text,
                                                                 generators):
    check = load_perfbench("check")
    report = solve(text, generators, labeling="auto", run_verification=True)
    assert report.verification is not None
    assert check.check_report(report) is None


@pytest.mark.parametrize("n,unit", [(17, 3), (19, 2), (23, 5)])
def test_large_pure_powers_pass_the_check(n, unit):
    # F272, F342 and F506: x^17-2, x^19-2 and x^23-2 with explicit labels
    check = load_perfbench("check")
    instance = load_perfbench("workloads").pure_power(f"F{n * (n - 1)}", n,
                                                      2, unit)
    report = solve(instance.poly, instance.generators,
                   labeling=instance.labeling, run_verification=True)
    assert check.check_report(report) is None


S4 = "(1,2,3,4);(1,2)"
S3 = "(1,2,3);(1,2)"
# irreducible quartics and cubics with full symmetric groups (sympy's
# galois_group), drawn at seed 5: each has compound radicands on the negative
# real axis, whose standard principal roots would read the sign of rounding
# noise
RANDOM_SYMMETRIC = [(text, S4) for text in (
    "x^4-7x^3+x^2-9x+9", "x^4+x^3+6x^2+2", "x^4+2x^3+4x^2+8x-9",
    "x^4-8x^3+5x^2-9x+9", "x^4+7x^3+2x^2+7x+2", "x^4+2x^3+9x^2-6x+5",
    "x^4+x^3-7x+8", "x^4-5x^2-7x-4", "x^4-x^3+6x^2+x+6",
    "x^4-6x^3-5x^2+3x+6", "x^4+x^3+6x^2-4x+8", "x^4+6x^3-x^2+8x+2",
    "x^4+x^3+2x^2+5x-4")] + [(text, S3) for text in (
        "x^3+3x-3", "x^3-4x^2+4x+2", "x^3-x^2+6x-7")]


@pytest.mark.parametrize("text,generators", RANDOM_SYMMETRIC)
def test_auto_labeled_random_symmetric_polynomials_pass_the_check(
        text, generators):
    check = load_perfbench("check")
    report = solve(text, generators, labeling="auto", run_verification=True)
    assert check.check_report(report) is None
