"""Self-test of the benchmark's own inputs and checker.

    python3 perfbench/selftest.py

Checks that the default seed reproduces the property-suite instances of
``tests/test_properties.py``, that every explicit labeling puts each
closed-form root at the canonical position ``find_roots`` gives it, and that
the independent evaluator follows the principal-branch convention.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mpmath  # noqa: E402
from mpmath import mp  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from radicalroots import find_roots, parse_polynomial, solve  # noqa: E402
from radicalroots.radical import (IntegerLiteral, Root,  # noqa: E402
                                  RootOfUnitySymbol, Sum)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def test_default_seed_is_the_property_suite():
    spec = importlib.util.spec_from_file_location(
        "test_properties", ROOT / "tests" / "test_properties.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    ours = workloads.property_suite(workloads.DEFAULT_SEED)
    expect(len(ours) == len(suite.INSTANCES) == 25, "25 property instances")
    for inst, (name, poly, gens, labeling) in zip(ours, suite.INSTANCES):
        expect((inst.name, inst.poly, inst.generators) == (name, poly, gens),
               f"{inst.name} != {name}")
        if labeling == "auto":
            expect(inst.labeling == "auto", f"{name} should be auto-labeled")
        else:
            _, q, g, n = labeling
            roots = find_roots(parse_polynomial(poly), 30)
            expect(tuple(suite._period_label_order(roots, q, g, n))
                   == inst.labeling, f"{name} labeling")


def test_explicit_labelings_follow_find_roots_order():
    for seed in (workloads.DEFAULT_SEED, 1, 2, 3):
        for make in workloads.WORKLOADS.values():
            for inst in make(seed):
                if inst.labeling == "auto":
                    continue
                roots = find_roots(parse_polynomial(inst.poly), 30).roots
                for label, z in zip(inst.labeling, inst.closed_form):
                    got = roots[label - 1]
                    with mp.workdps(30):
                        gap = abs(mp.mpc(got.re, got.im) - z)
                    expect(gap < mpmath.mpf(10) ** -20,
                           f"{inst.name}: label {label} is off by {gap}")


def test_evaluator_uses_principal_branches():
    with mp.workdps(30):
        sqrt_minus_4 = check._value(Root(2, IntegerLiteral(-4), 0), {})
        expect(abs(sqrt_minus_4 - 2j) < 1e-25, "sqrt(-4) = 2i")
        cube = check._value(Root(3, IntegerLiteral(-8), 1), {})
        expect(abs(cube - 2 * mpmath.expjpi(mpmath.mpf(1) / 3)
                   * mpmath.expjpi(mpmath.mpf(2) / 3)) < 1e-25,
               "zeta_3 * principal cube root of -8")
        zeta = check._value(RootOfUnitySymbol(5, 2), {})
        expect(abs(zeta - mpmath.expjpi(mpmath.mpf(4) / 5)) < 1e-25,
               "zeta_5^2")


def test_check_accepts_roots_and_rejects_a_wrong_branch():
    report = solve("x^2-2", "(1,2)")
    expect(check.check_report(report) is None, "x^2-2 passes the check")
    same = SimpleNamespace(polynomial=report.polynomial, digits=report.digits,
                           root_exprs=(report.root_exprs[0],) * 2)
    expect(check.check_report(same) == "branch_mismatch",
           "two radicals on one root fail the check")
    shifted = SimpleNamespace(
        polynomial=report.polynomial, digits=report.digits,
        root_exprs=tuple(Sum((e, IntegerLiteral(1)))
                         for e in report.root_exprs))
    expect(check.check_report(shifted) == "branch_mismatch",
           "radicals off the roots fail the check")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
