"""Which default-seed benchmark solves an independent evaluator refuses.

``perfbench/check.py`` re-evaluates every emitted radical with plain mpmath
(principal branches, no snapping) and asks whether the values are distinct
roots of the input polynomial.  ``verify`` compares the solver's evaluator
with itself, so this is the only tier-1 test that asks whether an answer is
right.  The failure set is pinned exactly, by instance and reason: a change
may shrink it, with the entry removed here, and must never grow it.
"""

import pytest

from radicalroots import SolverError, solve
from tests.conftest import load_perfbench

# name -> reason: an exception type, "branch_mismatch" (the values are not
# distinct roots) or "scale" (they are the monic reduction's roots)
FAILURES = {
    "D5 quintic": "branch_mismatch",
    "S4 x^4+x+1": "branch_mismatch",
    "S3 2x^3-3": "scale",
    "F42 x^7-2": "branch_mismatch",
    "C18 Phi19 g=2": "branch_mismatch",
    "F110 x^11-2": "branch_mismatch",
    "F156 x^13-2": "branch_mismatch",
}


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
