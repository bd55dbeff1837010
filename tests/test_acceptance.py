"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import functools
import time

import mpmath
import pytest
from mpmath import mp, mpf

from radicalroots import (NotSolvable, Permutation, closure,
                          composition_series, coset_product_certificate,
                          evaluate, find_roots,
                          orbit_sum_invariant, parse_cycles, parse_expr_json,
                          parse_polynomial, plan_precision, solve, to_monic,
                          emit)
from radicalroots.resolvent import DEFAULT_MARGIN
from radicalroots.rootfinder import relabel
from tests.conftest import (QUINTIC_GENERATORS, QUINTIC_ROOT_STRINGS,
                            QUINTIC_TEXT, QUINTIC_THETA, match_root_order,
                            reindex_axis)
from tests.test_groups import dihedral, symmetric, validate_series
from tests.test_oracle import (QUINTIC_EDGE_CERTIFICATE,
                               assert_certificate_holds_the_invariant)
from tests.test_properties import INSTANCES, run_instance


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
        return wrapper
    return decorate


@criterion(1, "quintic integer tensor matches the reference values exactly")
def test_criterion_1_quintic_regression(reference_label_order):
    start = time.monotonic()
    report = solve(QUINTIC_TEXT, QUINTIC_GENERATORS,
                   labeling=reference_label_order)
    elapsed = time.monotonic() - start
    assert report.theta.values == QUINTIC_THETA
    assert max(report.theta.residuals) < mpf("1e-4")
    assert elapsed < 5.0
    # auto labeling lands in an equivalent coset: same multiset, still solved
    auto = solve(QUINTIC_TEXT, QUINTIC_GENERATORS, labeling="auto")
    assert sorted(auto.theta.values) == sorted(QUINTIC_THETA)
    assert max(auto.theta.residuals) < mpf("1e-4")


@criterion(2, "find_roots reproduces the five reference roots to 13 decimals")
def test_criterion_2_roots_regression(quintic):
    rs = find_roots(quintic, 14)  # output is canonically ordered by angle

    def angle_key(re_s, im_s):
        with mp.workdps(30):
            return float(mpmath.atan2(mpf(im_s), mpf(re_s)))

    expected = sorted(QUINTIC_ROOT_STRINGS, key=lambda t: angle_key(*t))
    for z, (re_s, im_s) in zip(rs.roots, expected):
        with mp.workdps(20):
            target = mp.mpc(re_s, im_s)
        assert abs(z - target) < mpf("1e-13")


@criterion(3, "precision plan requires 13 digits plus the margin")
def test_criterion_3_precision_plan(d5):
    series = composition_series(d5)
    plan = plan_precision(series, 2.4)
    assert plan.required_digits == 13
    assert plan.digits == 13 + DEFAULT_MARGIN


@criterion(4, "small-case end-to-end: emitted radicals re-evaluate onto roots")
def test_criterion_4_end_to_end_small():
    for poly_text, gens in (("x^2-2", "(1,2)"), ("x^3-2", "(1,2,3);(1,2)")):
        report = solve(poly_text, gens)
        threshold = mpf(10) ** (-mpf(report.digits) / 2)
        for expr, root in zip(report.root_exprs, report.roots.roots):
            emitted = parse_expr_json(emit(expr, "json"))
            with mp.workdps(report.digits):
                value = evaluate(emitted)
            assert abs(value - root) < threshold
        if poly_text == "x^3-2":
            assert report.theta.radices == (3, 2)
            assert report.theta.values == (648, 648, -324, 648, -324, 648)


@criterion(5, "multiplication count never exceeds |G| * sum(3p - 1)")
def test_criterion_5_multiplication_budget():
    cases = ((QUINTIC_TEXT, QUINTIC_GENERATORS, 190),
             ("x^2-2", "(1,2)", 10),
             ("x^3-2", "(1,2,3);(1,2)", 78))
    for poly_text, gens, budget in cases:
        report = solve(poly_text, gens)
        assert report.budget == budget
        assert report.multiplications <= report.budget


@criterion(6, "property suite: transforms, branches, series invariants")
def test_criterion_6_property_suite():
    # (a) Fourier inversion at every level, 25 instances
    from radicalroots.resolvent import axis_lines
    assert len(INSTANCES) == 25
    for name, poly_text, gens_text, labeling in INSTANCES:
        series, zetas, theta0, fwd, ints, recon, labeled, digits = \
            run_instance(poly_text, gens_text, labeling)
        for level in range(1, series.length + 1):
            p = series.primes[level - 1]
            prev, L = fwd.thetas[level - 1], fwd.resolvents[level - 1]
            scale = max(mpf(1), max(abs(e) for e in prev.data))
            tol = mpf(10) ** (3 - digits) * scale
            with mp.workdps(digits):
                for line in axis_lines(prev.radices, level - 1):
                    for j in range(p):
                        acc = mp.mpc(0)
                        for k in range(p):
                            acc = acc + zetas[p][(-j * k) % p] * L.data[line[k]]
                        assert abs(acc / p - prev.data[line[j]]) < tol
        # (d) branch-separation soundness on every accepted root node, in
        # sector units: delta or more inside its sector, or on the cut
        for choice in recon.branch_log:
            best, second = choice.best_distance, choice.second_distance
            if abs(best - mpf(1) / 2) >= choice.delta ** 2:
                assert best <= mpf(1) / 2 - choice.delta
                assert second >= mpf(1) / 2 + choice.delta

    # (b) modular-inverse reindexing under primitive-root exchange
    # (c) cyclic-shift invariance of the powered resolvents
    from radicalroots.resolvent import MultiplicationCounter, forward_level
    for poly_text, gens_text in (("x^5+20x+32", QUINTIC_GENERATORS),
                                 ("x^3-2", "(1,2,3);(1,2)")):
        series, zetas, theta0, fwd, ints, recon, labeled, digits = \
            run_instance(poly_text, gens_text, "auto")
        for level in range(1, series.length + 1):
            p = series.primes[level - 1]
            prev, ref = fwd.thetas[level - 1], fwd.thetas[level]
            scale = max(mpf(1), max(abs(e) for e in ref.data))
            tol = mpf(10) ** (3 - digits) * scale
            for k in range(2, p):
                t = pow(k, -1, p)
                # sum_j zeta^(kjm) theta_j = sum_i zeta^(im) theta_(t*i)
                with mp.workdps(digits):
                    _, exchanged = forward_level(
                        reindex_axis(prev, level, t, 0), level, zetas,
                        MultiplicationCounter())
                for line in axis_lines(prev.radices, level - 1):
                    for j in range(p):
                        assert abs(exchanged.data[line[j]]
                                   - ref.data[line[(t * j) % p]]) < tol
            with mp.workdps(digits):
                _, shifted_theta = forward_level(
                    reindex_axis(prev, level, 1, 1), level, zetas,
                    MultiplicationCounter())
            for a, b in zip(shifted_theta.data, ref.data):
                assert abs(a - b) < tol

    # (e) composition-series invariants; NotSolvable exactly where expected
    for G in [dihedral(k) for k in (3, 4, 5, 6)] + \
             [symmetric(n) for n in (2, 3, 4)]:
        validate_series(G, composition_series(G))
    a5 = closure([parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)])
    for G in (symmetric(5), a5, symmetric(6)):
        with pytest.raises(NotSolvable):
            composition_series(G)


@criterion(7, "coset-product certificates have integer coefficients")
def test_criterion_7_oracle_certificates(d5):
    G2 = closure([parse_cycles("(1,2)", 2)])
    rs2 = find_roots(parse_polynomial("x^2-2"), 20)
    orbit2 = orbit_sum_invariant(G2, (2, 0))
    cert = coset_product_certificate(G2, orbit2, rs2)
    assert cert.coefficients == (-4, 1)
    assert max(cert.residuals) < mpf("1e-4")
    assert_certificate_holds_the_invariant(cert, orbit2, rs2, mpf("1e-4"))

    rs5 = find_roots(parse_polynomial(QUINTIC_TEXT), 20)
    order = match_root_order(rs5, QUINTIC_ROOT_STRINGS)
    labeled = relabel(rs5, Permutation(tuple(order)))
    orbit5 = orbit_sum_invariant(d5, (1, 1, 0, 0, 0))
    cert = coset_product_certificate(d5, orbit5, labeled)
    assert cert.degree == 12
    assert cert.coefficients == QUINTIC_EDGE_CERTIFICATE
    assert max(cert.residuals) < mpf("1e-4")
    assert_certificate_holds_the_invariant(cert, orbit5, labeled, mpf("1e-4"))


@criterion(8, "monic rescaling maps the reduced roots back onto the original")
def test_criterion_8_scaling_spot_check():
    original = parse_polynomial("2x^2-1")
    reduction = to_monic(original)
    assert reduction.monic.coeffs == (-2, 0, 1)
    digits = 30
    reduced_roots = find_roots(reduction.monic, digits)
    with mp.workdps(digits + 10):
        expected = sorted([mpmath.sqrt(mpf(1) / 2), -mpmath.sqrt(mpf(1) / 2)])
        recovered = sorted(mpf(z.real) / reduction.scale
                           for z in reduced_roots.roots)
        for got, want in zip(recovered, expected):
            assert abs(got - want) < mpf(10) ** (2 - digits)
