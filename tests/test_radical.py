import copy
import dataclasses
import gc
import math
import pickle
import re
import weakref
from types import SimpleNamespace

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from radicalroots import pipeline, radical
from radicalroots import (Permutation, PhaseAmbiguous, VerificationFailed,
                          closure, composition_series, emit, evaluate,
                          find_roots, label_roots, parse_cycles,
                          parse_expr_json, parse_polynomial, reconstruct,
                          solve, verify)
from radicalroots.cli import main
from radicalroots.radical import (IntegerLiteral, Product, RationalScale, Root,
                                  RootOfUnitySymbol, Sum, json_ast,
                                  make_product, make_root, make_scale,
                                  make_sum)
from radicalroots.resolvent import (axis_lines, build_theta0, forward_pass,
                                    position_root_indices, round_theta_m,
                                    zeta_tables)
from radicalroots.rootfinder import relabel
from tests.conftest import QUINTIC_ROOT_STRINGS, load_perfbench
from tests.test_properties import INSTANCES, run_instance


def run_backward(poly_text, gens_text, digits=None):
    p = parse_polynomial(poly_text)
    gens = [parse_cycles(t, p.degree) for t in gens_text.split(";")]
    G = closure(gens)
    series = composition_series(G)
    if digits is None:
        from radicalroots import plan_precision, root_magnitude_bound
        coarse = find_roots(p, 32)
        digits = plan_precision(series, root_magnitude_bound(coarse.roots)).digits
    roots = find_roots(p, digits)
    labeled = relabel(roots, label_roots(G, roots).permutation)
    with mp.workdps(digits):
        zetas = zeta_tables(series)
        theta0 = build_theta0(labeled, series)
        fwd = forward_pass(theta0, series, zetas)
        ints = round_theta_m(fwd.thetas[-1])
        recon = reconstruct(series, ints, fwd)
    return series, zetas, theta0, fwd, ints, recon, labeled, digits


def test_sqrt2_reconstruction():
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^2-2", "(1,2)")
    assert ints.values == (4, -4)
    # E_0 = 4 + (-4) = 0 drops out; E_1 = 8 survives as a square root
    positive = recon.root_exprs[0]
    assert positive == RationalScale(2, Root(2, IntegerLiteral(8), 0))
    assert emit(positive) == "(1/2)*(root(2,0; 8))"
    with mp.workdps(14):
        val = evaluate(positive)
    assert mpmath.nstr(val.real, 14) == "1.4142135623731"
    assert recon.zero_notes  # the vanished resolvent is recorded


def test_x3_minus_2_reconstruction():
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    assert ints.radices == (3, 2)
    assert ints.values == (648, 648, -324, 648, -324, 648)
    # level-2 line j1=1: radicands 324 and -972, branch of sqrt(324) is 1
    choices = {(b.level, b.flat_index): b for b in recon.branch_log}
    assert choices[(2, 2)].degree == 2 and choices[(2, 2)].branch == 1
    # every root re-evaluates onto its numeric value
    with mp.workdps(digits):
        values = [evaluate(expr) for expr in recon.root_exprs]
    for value, root in zip(values, labeled.roots):
        assert abs(value - root) < mpf(10) ** (-digits // 2)
    # Lagrange's formula on the first level-1 line: L_0 and L_1 vanish, so
    # each root is a third of one cube root, x_j = (1/3) zeta^(-2j) R_2,
    # and the three share its radicand
    radicands = set()
    for expr, branch in zip(recon.root_exprs, (2, 0, 1)):
        assert isinstance(expr, RationalScale) and expr.denominator == 3
        assert isinstance(expr.child, Root) and expr.child.degree == 3
        assert expr.child.branch == branch
        radicands.add(expr.child.radicand)
    assert len(radicands) == 1
    assert {(z.level, z.flat_index) for z in recon.zero_notes} == \
        {(2, 1), (1, 0), (1, 2)}


def test_quintic_reconstruction_matches_13_decimals(reference_label_order):
    report = solve("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)",
                   labeling=reference_label_order)
    for (re_s, im_s), expr in zip(QUINTIC_ROOT_STRINGS, report.root_exprs):
        with mp.workdps(20):
            target = mp.mpc(re_s, im_s)
        with mp.workdps(report.digits):
            value = evaluate(expr)
        assert abs(value - target) < mpf("1e-13")


def _corrupting(monkeypatch, level, turn):
    """Make every solve's forward pass return its stored level-``level``
    resolvents multiplied by ``turn(p)``, computed at the attempt's working
    precision."""
    honest = pipeline.forward_pass

    def corrupted(theta0, series, zetas):
        forward = honest(theta0, series, zetas)
        stored = forward.resolvents[level - 1]
        factor = turn(series.primes[level - 1])
        data = tuple(v * factor for v in stored.data)
        resolvents = list(forward.resolvents)
        resolvents[level - 1] = dataclasses.replace(stored, data=data)
        return dataclasses.replace(forward, resolvents=tuple(resolvents))

    monkeypatch.setattr(pipeline, "forward_pass", corrupted)


def test_reconstruct_phase_ambiguous_on_corrupted_resolvents(monkeypatch):
    # x^3-2: level 2 holds real entries on sector centres (L = +-18) and
    # imaginary ones on the cut (L^2 = -972)
    def half_sector(p):
        # half a sector, less 10^(-3d/8): the centred entries land between
        # delta^2 and delta from a boundary, every attempt
        edge = mpf(10) ** (-3 * mpf(mp.dps) / 8)
        return mpmath.expjpi(2 * (mpf(1) / 2 - edge) / p)

    _corrupting(monkeypatch, 2, half_sector)
    with pytest.raises(PhaseAmbiguous, match="cannot fix the branch of a "
                       "2-th root at level 2, index 0: .* sectors from a "
                       "boundary"):
        solve("x^3-2", "(1,2,3);(1,2)")


def test_a_flipped_sector_fails_verification_without_run_verification(
        monkeypatch):
    # one whole sector: every branch decision is clean, and wrong; verify
    # refuses the radicals at every budget, whether or not the solve reports
    # the deviations
    accepted = []
    original = pipeline.reconstruct

    def recording(*args):
        accepted.append(original(*args))
        return accepted[-1]

    monkeypatch.setattr(pipeline, "reconstruct", recording)
    _corrupting(monkeypatch, 1, lambda p: mpmath.expjpi(mpf(2) / p))
    with pytest.raises(VerificationFailed, match=r"x_\d evaluates .* from "
                       r"its labeled root, over 10\^\(-digits/2\)"):
        solve("x^3-2", "(1,2,3);(1,2)", run_verification=False)
    assert len(accepted) == 4
    assert all(recon.branch_log for recon in accepted)


def test_a_flipped_sector_exits_1_from_the_cli(monkeypatch, capsys):
    _corrupting(monkeypatch, 1, lambda p: mpmath.expjpi(mpf(2) / p))
    assert main(["solve", "--poly", "x^3-2",
                 "--generators", "(1,2,3);(1,2)"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[VerificationFailed]: x_")


def test_evaluate_examples():
    with mp.workdps(14):
        root8 = evaluate(Root(2, IntegerLiteral(8), 0))
        half_sum = evaluate(RationalScale(2, Root(2, IntegerLiteral(8), 0)))
    assert mpmath.nstr(root8.real, 14) == "2.8284271247462"
    assert mpmath.nstr(half_sum.real, 14) == "1.4142135623731"
    with mp.workdps(12):
        one = evaluate(RootOfUnitySymbol(5, 0))
    assert one.real == 1 and one.imag == 0


def test_evaluate_deterministic():
    expr = Root(5, Sum((IntegerLiteral(7),
                        Product((RootOfUnitySymbol(5, 2),
                                 Root(2, IntegerLiteral(-45000000), 1))))), 3)
    with mp.workdps(25):
        a = evaluate(expr)
        b = evaluate(expr)
    assert a.real == b.real and a.imag == b.imag


def test_simplification_rules():
    assert make_sum([IntegerLiteral(4), IntegerLiteral(4)]) == IntegerLiteral(8)
    assert make_sum([IntegerLiteral(0)]) == IntegerLiteral(0)
    assert make_product([IntegerLiteral(-1), IntegerLiteral(648)]) == \
        IntegerLiteral(-648)
    assert make_product([RootOfUnitySymbol(3, 1), RootOfUnitySymbol(3, 2)]) == \
        IntegerLiteral(1)
    assert make_root(2, IntegerLiteral(0), 1) == IntegerLiteral(0)
    assert make_scale(2, IntegerLiteral(8)) == IntegerLiteral(4)
    r = Root(2, IntegerLiteral(8), 0)
    assert make_scale(2, r) == RationalScale(2, r)
    # a scaled child's denominator multiplies in, 1 drops out, and a
    # negative denominator becomes a -1 factor among the child's factors
    assert make_scale(3, RationalScale(2, r)) == RationalScale(6, r)
    assert make_scale(1, r) == r
    r3 = Root(3, IntegerLiteral(2), 0)
    assert make_scale(-3, Product((IntegerLiteral(-1), r3))) == \
        RationalScale(3, r3)
    assert make_scale(-2, r) == RationalScale(2, Root(2, IntegerLiteral(8), 1))
    assert make_product([IntegerLiteral(1), r]) == r
    assert make_product([IntegerLiteral(0), r]) == IntegerLiteral(0)
    # sign and zeta weights merge into branch tags of matching roots
    assert make_product([IntegerLiteral(-1), r]) == Root(2, IntegerLiteral(8), 1)
    r5 = Root(5, IntegerLiteral(3), 4)
    assert make_product([RootOfUnitySymbol(5, 2), r5]) == \
        Root(5, IntegerLiteral(3), 1)
    # -1 is zeta_2: it cancels a zeta_2 factor, and without a square root to
    # merge into it stays the first factor
    assert make_product([IntegerLiteral(-1), RootOfUnitySymbol(2, 1)]) == \
        IntegerLiteral(1)
    zeta3 = RootOfUnitySymbol(3, 1)
    assert emit(make_product([IntegerLiteral(-1), zeta3,
                              Root(5, IntegerLiteral(2), 0)])) == \
        "(-1)*zeta_3^1*root(5,0; 2)"
    assert emit(make_product([IntegerLiteral(-1), zeta3,
                              Root(2, IntegerLiteral(2), 0)])) == \
        "zeta_3^1*root(2,1; 2)"


def test_emit_formats_reference_strings():
    expr = RationalScale(2, Root(2, IntegerLiteral(8), 0))
    assert emit(expr, "text") == "(1/2)*(root(2,0; 8))"
    assert emit(expr, "latex") == r"\frac{1}{2}\left(\sqrt{8}\right)"
    assert emit(expr, "json") == \
        '{"scale":"1/2","sum":[{"root":{"p":2,"branch":0,"radicand":{"int":"8"}}}]}'


def test_emit_zeta_and_branch():
    expr = Product((RootOfUnitySymbol(5, 2), Root(5, IntegerLiteral(3), 4)))
    assert emit(expr, "text") == "zeta_5^2*root(5,4; 3)"
    assert emit(expr, "latex") == \
        r"\zeta_{5}^{2} \cdot \zeta_{5}^{4}\sqrt[5]{3}"


@pytest.mark.parametrize("consumer", [
    evaluate, lambda e: emit(e, "text"),
    lambda e: emit(e, "latex"), lambda e: emit(e, "json"), json_ast],
    ids=["evaluate", "text", "latex", "json", "json_ast"])
def test_a_non_node_raises_the_walks_type_error(consumer):
    for bad in (3, Sum((IntegerLiteral(1), "2"))):
        with pytest.raises(TypeError, match="not a radical expression node"):
            consumer(bad)


def test_json_round_trip_handmade():
    exprs = [
        IntegerLiteral(-45000000),
        RationalScale(2, Root(2, IntegerLiteral(8), 0)),
        RationalScale(5, Sum((IntegerLiteral(3),
                              Product((RootOfUnitySymbol(5, 1),
                                       Root(5, IntegerLiteral(7), 2)))))),
        Sum((IntegerLiteral(1), RootOfUnitySymbol(3, 2))),
    ]
    for expr in exprs:
        assert parse_expr_json(emit(expr, "json")) == expr


def test_json_round_trip_pipeline(reference_label_order):
    report = solve("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)",
                   labeling=reference_label_order)
    for expr in report.root_exprs:
        assert parse_expr_json(emit(expr, "json")) == expr


def test_verify_accepts_and_rejects():
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^2-2", "(1,2)")
    deviations = verify(recon.root_exprs, labeled)
    assert max(deviations) < mpf(10) ** -7
    with pytest.raises(VerificationFailed):
        verify(tuple(reversed(recon.root_exprs)), labeled)


def test_reconstruct_rejects_a_stored_nonzero_over_a_vanishing_radicand():
    # x^2-2 at 8 digits: delta 10^-2, and the noise floor for L_0^2 is
    # 10^-4 * (|4| + |-4|); the stored L_0 = x_1 + x_2 vanishes
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^2-2", "(1,2)", digits=8)
    assert recon.zero_notes == (radical.ZeroRadicandNote(1, 0),)

    def with_l0(value):
        level_1 = fwd.resolvents[0]
        data = (mp.mpc(value), *level_1.data[1:])
        return dataclasses.replace(
            fwd, resolvents=(dataclasses.replace(level_1, data=data),))

    with mp.workdps(digits):
        # below delta L_0 is a zero; at or above it, |L_0|^2 must clear the
        # noise floor, measured on the stored tensors alone
        again = reconstruct(series, ints, with_l0("0.009"))
        with pytest.raises(PhaseAmbiguous) as info:
            reconstruct(series, ints, with_l0("0.02"))
    assert again.zero_notes == recon.zero_notes
    assert again.root_exprs == recon.root_exprs
    match = re.fullmatch(
        r"resolvent entry at level 1, index 0 is on the noise floor: "
        r"\|L\|\^2 = (.+) vs (.+), \|L\| = (.+) vs delta (.+)",
        str(info.value))
    assert match, str(info.value)
    powered, floor, magnitude, delta = map(mpf, match.groups())
    assert magnitude >= delta and powered <= floor
    assert abs(floor / mpf("8e-4") - 1) < mpf("1e-3")


def test_reconstruct_rejects_a_stored_zero_over_a_nonzero_radicand():
    # x^3-2 with a stored L_2 of magnitude above 1 set to zero, on the
    # level-1 line the roots are built from: the stored data alone says
    # zero, so reconstruct drops the term, and the roots' evaluations, off
    # their labeled roots, are refused by verify
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    level_1 = fwd.resolvents[0]
    data = list(level_1.data)
    original, data[4] = data[4], mp.mpc(0)
    assert abs(original) > 1
    assert radical.ZeroRadicandNote(1, 4) not in recon.zero_notes
    stored = dataclasses.replace(
        fwd, resolvents=(dataclasses.replace(level_1, data=tuple(data)),
                         *fwd.resolvents[1:]))
    with mp.workdps(digits):
        zeroed = reconstruct(series, ints, stored)
        values = radical.ValueCache(zetas)
        with pytest.raises(VerificationFailed, match="evaluates .* from its "
                           "labeled root"):
            verify(zeroed.root_exprs, labeled, values)
    assert radical.ZeroRadicandNote(1, 4) in zeroed.zero_notes


def demanded_lines(series):
    """Per level 1..m, the lines of its axis that the roots read: Theta_0
    is read at the first level-1 line when that line holds every label, and
    at the first position of each label otherwise; each level reads the
    lines holding an entry of a line read below."""
    radices = series.primes
    labels = position_root_indices(series)
    first = list(axis_lines(radices, 0))[0]
    if len({labels[flat] for flat in first}) == series.degree:
        needed = set(first)
    else:
        needed = {labels.index(label)
                  for label in range(1, series.degree + 1)}
    demand = []
    for axis in range(series.length):
        lines = [line for line in axis_lines(radices, axis)
                 if needed & set(line)]
        demand.append(lines)
        needed = set().union(*lines)
    return demand


def unscreened_decide(level, p, line, stored, theta, delta):
    """``radical._decide`` without its screens: |L_k| for every entry, the
    noise floor and |L_k|^p for every nonzero one, and the sector from the
    exact arg at the working precision."""
    floor = mpf(10) ** (4 - mp.dps) * sum(abs(theta.data[i]) for i in line)
    half = mpf(1) / 2
    picks = []
    for flat in line:
        target = stored.data[flat]
        magnitude = abs(target)
        if magnitude < delta:
            picks.append(None)
            continue
        if magnitude ** p <= floor:
            raise PhaseAmbiguous(
                f"resolvent entry at level {level}, index {flat} is on the "
                f"noise floor: |L|^{p} = {mpmath.nstr(magnitude ** p, 4)} vs "
                f"{mpmath.nstr(floor, 4)}, |L| = {mpmath.nstr(magnitude, 4)} "
                f"vs delta {mpmath.nstr(delta, 4)}")
        x = p * mpmath.arg(target) / (2 * mp.pi)
        centre = mpmath.nint(x)
        edge = half - abs(x - centre)
        if edge < delta * delta:
            centre = mpmath.nint(x - half)
        elif edge < delta:
            raise PhaseAmbiguous(
                f"cannot fix the branch of a {p}-th root at level {level}, "
                f"index {flat}: {mpmath.nstr(edge, 4)} sectors from a "
                f"boundary, delta {mpmath.nstr(delta, 4)}")
        best = abs(x - centre)
        picks.append((int(centre) % p, best, 1 - best, edge < delta * delta))
    return picks


def decisions(decide, *args):
    """The picks of ``decide``, or the message of the PhaseAmbiguous it
    raises."""
    try:
        return decide(*args)
    except PhaseAmbiguous as exc:
        return str(exc)


def decide_alike(*args):
    """The outcome of ``unscreened_decide`` on one line, after checking that
    ``radical._decide`` gives the same zeros, branches, on-cut flags or
    error text, and each distance within 2^-40 of the reference's.  The
    reference rounds x to the working precision, so where that is coarser
    the bound is p * 2^(2 - prec) instead."""
    reference = decisions(unscreened_decide, *args)
    screened = decisions(radical._decide, *args)
    if isinstance(reference, str) or isinstance(screened, str):
        assert screened == reference
        return reference
    assert [pick and (pick[0], pick[3]) for pick in screened] == \
        [pick and (pick[0], pick[3]) for pick in reference]
    p = args[1]
    bound = max(mpf(2) ** -40, p * mpf(2) ** (2 - mp.prec))
    for got, want in zip(screened, reference):
        if want:
            assert abs(got[1] - want[1]) <= bound
            assert abs(got[2] - want[2]) <= bound
    return reference


def test_the_screened_noise_floor_decides_as_the_unscreened_test():
    # every line of every level of the property instances, and x^2-2 and
    # x^3-2 at 8 digits with level-1 entries scaled across their floor
    outcomes = []
    for _, *instance in INSTANCES:
        series, zetas, theta0, fwd, ints, recon, labeled, digits = \
            run_instance(*instance)
        with mp.workdps(digits):
            delta = mpf(10) ** (-mpf(digits) / 4)
            for level in range(1, series.length + 1):
                for line in axis_lines(ints.radices, level - 1):
                    args = (level, series.primes[level - 1], line,
                            fwd.resolvents[level - 1], fwd.thetas[level],
                            delta)
                    outcomes.append(decide_alike(*args))
    for poly_text, gens_text in (("x^2-2", "(1,2)"),
                                 ("x^3-2", "(1,2,3);(1,2)")):
        series, zetas, theta0, fwd, ints, recon, labeled, digits = \
            run_backward(poly_text, gens_text, digits=8)
        level_1 = fwd.resolvents[0]
        p = series.primes[0]
        with mp.workdps(digits):
            delta = mpf(10) ** (-mpf(digits) / 4)
            n = len(level_1.data)
            # |L| from 10^-4 to 10^1, each entry at its own phase, then from
            # delta/2 to 2 delta at phase pi/4, both parts |L|/sqrt(2): an
            # entry is zero below delta = 10^-2, by the screen when both
            # parts are below 2^-8
            sweeps = [[mpmath.expjpi(mpf(flat) / 7)
                       * mpf(10) ** (mpf(step) / 40 - mpf(1) / 2)
                       for flat in range(n)] for step in range(-140, 61)]
            sweeps += [[mpmath.expjpi(mpf(1) / 4) * delta
                        * mpf(2) ** (mpf(step) / 64)] * n
                       for step in range(-64, 65)]
            for data in sweeps:
                stored = dataclasses.replace(level_1, data=tuple(data))
                for line in axis_lines(ints.radices, 0):
                    args = (1, p, line, stored, fwd.thetas[1], delta)
                    outcomes.append(decide_alike(*args))
    floors = [o for o in outcomes if isinstance(o, str) and "noise" in o]
    assert floors and len(floors) < len(outcomes)


def sector_line(p, values):
    """The arguments of ``radical._decide`` for one level-1 line of p stored
    entries, over a Theta line of ones, whose noise floor binds no entry
    here, at the working precision's delta = 10^(-digits/4)."""
    stored = SimpleNamespace(data=tuple(mpc(v) for v in values))
    theta = SimpleNamespace(data=(mpc(1),) * p)
    return 1, p, range(p), stored, theta, mpf(10) ** (-mpf(mp.dps) / 4)


def test_the_sector_screen_decides_as_the_exact_arg(monkeypatch):
    # the float screen decides where x is more than delta + 2^-30 +
    # p * 2^(3 - prec) from a sector boundary, and the exact arg elsewhere:
    # the same branches, on-cut flags and errors, and distances within 2^-40
    # (or the exact path's own rounding at 8 digits)
    exact_calls = []
    exact_sector = radical._exact_sector
    monkeypatch.setattr(radical, "_exact_sector", lambda *args: (
        exact_calls.append(args) or exact_sector(*args)))
    outcomes, screened = [], 0
    # delta 10^-2 and 10^-4 above 2^-30, 10^-10 below it; at 8 digits the
    # exact path rounds x to 2^-27, beyond the screen's own 2^-30
    for digits in (8, 16, 40):
        with mp.workdps(digits):
            delta = mpf(10) ** (-mpf(digits) / 4)
            for p in (2, 3, 5, 7, 13):
                # x at k + 1/2 -+ eps for every sector k: on the cut (eps
                # below delta^2), refused (below delta), inside the screen's
                # margin (delta to delta + margin, in steps of margin/32,
                # where the exact path's rounding puts x on either side of
                # delta) and beyond it
                margin = mpf(2) ** -30 + p * mpf(2) ** (3 - mp.prec)
                eps = [0, delta ** 2 / 2, 2 * delta ** 2, delta / 2,
                       delta - mpf(2) ** -56, delta + mpf(2) ** -56,
                       delta * 1.01, mpf(10) ** -3, mpf(1) / 4, mpf(1) / 2]
                eps += [delta + margin * step / 32 for step in range(66)]
                for e in eps:
                    for side in (1, -1):
                        calls = len(exact_calls)
                        outcomes.append(decide_alike(*sector_line(p, [
                            3 * mpmath.expjpi(
                                2 * (k + mpf(1) / 2 - side * e) / p)
                            for k in range(p)])))
                        screened += len(exact_calls) == calls
    with mp.workdps(40):
        # parts 2^1100 apart, on and off the axes, at both signs
        big, small = mpf(2) ** 600, mpf(2) ** -500
        for p in (2, 3, 5):
            for re, im in ((big, small), (-big, small), (small, big),
                           (small, -big), (-big, -small), (big, -small)):
                outcomes.append(decide_alike(*sector_line(
                    p, [mpc(re, im)] * p)))
    with mp.workdps(400):
        # mantissas of 1330 bits on entries near 10^679, beyond a float
        for p in (3, 11):
            values = [mpf(10) ** 679 * mpmath.expjpi(mpf(2 * k + 1) / (7 * p))
                      for k in range(p)]
            assert min(v.real._mpf_[3] for v in values) > 1024
            outcomes.append(decide_alike(*sector_line(p, values)))
    picks = [pick for o in outcomes if not isinstance(o, str) for pick in o]
    assert any(pick[3] for pick in picks)               # on the cut
    assert any("sectors from a boundary" in o for o in outcomes
               if isinstance(o, str))
    assert screened and exact_calls                     # both arms ran


def value_based_selection(series, ints, fwd, zetas):
    """The branch and zero decisions of the value-based backward pass that
    ``reconstruct`` replaced, kept as a reference, on the lines of
    ``demanded_lines``: each radicand is
    evaluated from its nodes; one at or below max(10^(4-d) * the line's sum
    of magnitudes, 10^(-p*d)) is a zero, and otherwise its principal root
    times the zeta_p^s nearest the stored entry gives the branch, the
    nearest within delta and the next beyond 2*delta.  A compound radicand
    E within delta^2 of the negative real axis is rewritten: the principal
    root of -E times the zeta_p^s nearest -L_k at odd p, or -i*L_k at p = 2,
    gives the branch of -root(p, s; -E) or root(2,0; -1)*root(2, s; -E).
    Stored magnitudes must agree with the radicands'.  Returns the (level,
    flat, branch) triples, the (level, flat) zeros, in the order
    ``reconstruct`` logs them, and the number of rewritten roots."""
    digits = mp.dps
    delta = mpf(10) ** (-mpf(digits) / 4)
    cache = radical.ValueCache(zetas)
    exact = [IntegerLiteral(v) for v in ints.values]
    branches, zeros, rewritten = [], [], 0
    demand = demanded_lines(series)
    for level in range(series.length, 0, -1):
        p = ints.radices[level - 1]
        stored = fwd.resolvents[level - 1].data
        new_exact = [None] * len(exact)
        for line in demand[level - 1]:
            nodes = [exact[i] for i in line]
            floor = max(mpf(10) ** (4 - digits)
                        * sum(abs(evaluate(e, cache)) for e in nodes),
                        mpf(10) ** (-p * digits))
            chosen = []
            for k, flat in enumerate(line):
                radicand = make_sum(make_product([radical._zeta(p, j * k),
                                                  nodes[j]])
                                    for j in range(p))
                value, target = evaluate(radicand, cache), stored[flat]
                if abs(value) <= floor:
                    assert abs(target) < delta
                    zeros.append((level, flat))
                    chosen.append(IntegerLiteral(0))
                    continue
                assert abs(target) >= delta
                minus = IntegerLiteral(-1)
                if (not isinstance(radicand, IntegerLiteral) and value.real < 0
                        and abs(value.imag) < delta ** 2 * abs(value)):
                    rewritten += 1
                    radicand = make_product([minus, radicand])
                    value = -value
                    target = -target if p % 2 else -1j * target
                    outside = minus if p % 2 else Root(2, minus, 0)
                else:
                    outside = IntegerLiteral(1)
                w = radical.principal_root(value, p)
                (best, s), (second, _) = sorted(
                    (abs(w * zetas[p][s] - target), s) for s in range(p))[:2]
                assert best < delta and second > 2 * delta
                branches.append((level, flat, s))
                chosen.append(make_product([outside,
                                            make_root(p, radicand, s)]))
            for j, flat in enumerate(line):
                new_exact[flat] = make_scale(p, make_sum(
                    make_product([radical._zeta(p, -j * k), chosen[k]])
                    for k in range(p)))
        exact = new_exact
    return branches, zeros, rewritten


def test_branches_from_the_stored_resolvents_match_the_value_based_ones():
    cases = [instance[1:] for instance in INSTANCES] + [
        (f"x^{n}-2", affine_generators(n, unit),
         Permutation(pure_power_labels(n, 2))) for n, unit in ((7, 3), (11, 2))]
    assert len(cases) == 27
    rewritten = 0
    for poly_text, gens_text, labeling in cases:
        series, zetas, theta0, fwd, ints, recon, labeled, digits = \
            run_instance(poly_text, gens_text, labeling)
        with mp.workdps(digits):
            branches, zeros, count = value_based_selection(series, ints, fwd,
                                                           zetas)
        rewritten += count
        assert [(c.level, c.flat_index, c.branch)
                for c in recon.branch_log] == branches, poly_text
        assert [(z.level, z.flat_index) for z in recon.zero_notes] == zeros
    # some compound radicands lie on the cut, where the standard principal
    # root of E would read the sign of rounding noise; they are rewritten
    assert rewritten > 0


def test_verify_zero_expression():
    roots = find_roots(parse_polynomial("x"), 10)
    deviations = verify((IntegerLiteral(0),), roots)
    assert deviations[0] == 0


def test_round_trip_theta0_every_position(reference_label_order):
    # x^3-2: the roots are built at the first level-1 line, positions 0, 2
    # and 4 of Theta_0 with labels 1, 2 and 3, and only that line is built
    # at level 1; level 2 builds the three lines that it reads
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    positions = radical._representatives(series)
    assert positions == [0, 2, 4]
    for level, flats in ((1, {0, 2, 4}), (2, set(range(6)))):
        assert {entry.flat_index
                for entry in (*recon.branch_log, *recon.zero_notes)
                if entry.level == level} == flats
    tol = mpf(10) ** (-mpf(digits) / 2)
    with mp.workdps(digits):
        values = [evaluate(expr) for expr in recon.root_exprs]
    for value, flat in zip(values, positions):
        assert abs(value - theta0.data[flat]) < tol


# --- hash-consing -----------------------------------------------------------

def node_objects(exprs):
    """The distinct node objects reachable from the expressions."""
    seen, stack = {}, list(exprs)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, "terms", ()))
            stack.extend(getattr(node, "factors", ()))
            stack.extend(getattr(node, a) for a in ("child", "radicand")
                         if hasattr(node, a))
    return list(seen.values())


def structure(node):
    """The node's class and fields, each child by its id.  The lowest two
    distinct nodes of equal structure would have the same children and so
    the same key: keys that differ pairwise over a DAG mean that no
    structure occurs twice in it."""
    return (type(node), *[
        tuple(map(id, value)) if isinstance(value, tuple)
        else value if isinstance(value, int) else id(value)
        for value in (getattr(node, f.name)
                      for f in dataclasses.fields(node))])


def pure_power_labels(n, a):
    """Canonical root positions of x^n-a (a > 0) with label k+1 on
    a^(1/n)*zeta_n^k."""
    roots = find_roots(parse_polynomial(f"x^{n}-{a}"), 30)
    with mp.workdps(30):
        targets = [mpmath.root(a, n) * mpmath.expjpi(mpf(2 * k) / n)
                   for k in range(n)]
        return tuple(min(range(n), key=lambda i: abs(roots.roots[i] - t)) + 1
                     for t in targets)


def affine_generators(n, unit):
    """k -> k+1 and k -> unit*k (mod n) on labels k+1, in cycle notation."""
    cycles, seen = [], {0}
    for k in range(1, n):
        cycle = []
        while k not in seen:
            seen.add(k)
            cycle.append(str(k + 1))
            k = unit * k % n
        if len(cycle) > 1:
            cycles.append("(" + ",".join(cycle) + ")")
    return "(" + ",".join(map(str, range(1, n + 1))) + ");" + "".join(cycles)


def top_radicands(expr):
    """The radicands of the Root nodes of ``expr`` that lie inside no other
    Root, with their degrees."""
    found, stack = set(), [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Root):
            found.add((node.degree, node.radicand))
        else:
            stack.extend(radical._children(node))
    return found


@pytest.mark.parametrize("poly_text,gens_text,labels", [
    ("x^3-5", "(1,2,3);(1,2)", None),
    ("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)", None),
    ("x^7-2", affine_generators(7, 3), (7, 2)),
    ("x^11-2", affine_generators(11, 2), (11, 2))],
    ids=["S3", "D5", "F42", "F110"])
def test_prime_degree_roots_share_the_level_1_radicands(poly_text, gens_text,
                                                       labels):
    # Lagrange's formula: x_j = (1/p) sum_k zeta^(-jk) R_k over one level-1
    # line, so every root reads the same radicals R_k, one per resolvent
    # entry of that line that did not vanish
    report = solve(poly_text, gens_text, labeling="auto" if labels is None
                   else pure_power_labels(*labels))
    p = report.series.degree
    assert report.series.primes[0] == p
    shared = top_radicands(report.root_exprs[0])
    zeros = sum(note.level == 1 for note in report.zero_notes)
    assert {degree for degree, _ in shared} == {p}
    assert len(shared) == p - zeros >= 1
    assert all(top_radicands(expr) == shared for expr in report.root_exprs)


@pytest.fixture(scope="module")
def deep_solves():
    """x^13-2 (F156) and x^11-2 (F110) with explicit labels, each with the
    number of principal roots its solve computed."""
    calls = [0]
    counted = radical.principal_root

    def counting(*args):
        calls[0] += 1
        return counted(*args)

    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radical, "principal_root", counting)
        for n in (13, 11):
            calls[0] = 0
            report = solve(f"x^{n}-2", affine_generators(n, 2),
                           labeling=pure_power_labels(n, 2))
            out[n] = report, calls[0]
    return out


@pytest.mark.parametrize("n,distinct", [(13, 213), (11, 173)])
def test_deep_solves_share_every_equal_subtree(deep_solves, n, distinct):
    report, principal_roots = deep_solves[n]
    nodes = node_objects(report.root_exprs)
    assert len(nodes) == distinct
    # no two node objects have the same structure
    assert len({structure(node) for node in nodes}) == distinct
    # one principal root per distinct (p, radicand) pair of the answer: none
    # for a radicand that vanished
    assert principal_roots == len({(node.degree, node.radicand)
                                   for node in nodes if isinstance(node, Root)})


@pytest.mark.parametrize("n,keys,lines", [(13, 34, 220), (11, 19, 87)])
def test_reconstruct_decides_each_distinct_key_once(monkeypatch, n, keys,
                                                    lines):
    decided = []
    counted = radical._decide

    def counting(level, p, line, stored, theta, delta):
        decided.append((level, tuple(stored.data[i]._mpc_ for i in line)))
        return counted(level, p, line, stored, theta, delta)

    monkeypatch.setattr(radical, "_decide", counting)
    report = solve(f"x^{n}-2", affine_generators(n, 2),
                   labeling=pure_power_labels(n, 2))
    radices = report.theta.radices
    assert sum(math.prod(radices) // p for p in radices) == lines
    # one zero and branch decision per distinct (line nodes, stored
    # targets) key of the built lines; here no two keys share their targets
    assert len(decided) == len(set(decided)) == keys
    # the lines built: the first level-1 line, and at level i the lines
    # through it, one per entry of the levels below
    built = len(report.branch_log) + len(report.zero_notes)
    assert built == sum(math.prod(radices[:i + 1]) for i in range(len(radices)))


def test_equal_nodes_are_one_object():
    a = make_root(2, make_sum([IntegerLiteral(5), IntegerLiteral(3)]), 1)
    b = make_product([RootOfUnitySymbol(3, 1),
                      make_scale(3, make_sum([IntegerLiteral(1), a]))])
    assert make_sum([a, b]) is make_sum([a, b])
    assert make_root(2, make_sum([IntegerLiteral(8)]), 3) is a
    assert make_product([IntegerLiteral(-1), make_root(2, a.radicand, 0)]) is a
    # parsing interns without folding
    assert parse_expr_json(emit(b, "json")) is b
    assert parse_expr_json('{"sum":[{"int":"1"},{"int":"2"}]}') is \
        parse_expr_json('{"sum":[{"int":"1"},{"int":"2"}]}')


def test_a_class_call_returns_the_interned_node():
    assert IntegerLiteral(8) is IntegerLiteral(8)
    assert IntegerLiteral(value=8) is IntegerLiteral(8)
    radicand = make_sum([IntegerLiteral(2), RootOfUnitySymbol(3, 1)])
    root = make_root(3, radicand, 2)
    assert Root(3, Sum((IntegerLiteral(2), RootOfUnitySymbol(3, 1))), 2) is root
    assert Root(branch=2, degree=3, radicand=radicand) is root
    assert Root(3, radicand, branch=2) is root
    assert dataclasses.replace(root, branch=0) is make_root(3, radicand, 0)
    assert copy.deepcopy(root) is root
    assert pickle.loads(pickle.dumps(root)) is root
    for args, kwargs in [((3, radicand), {}), ((3, radicand, 2, 1), {}),
                         ((3, radicand), {"degree": 3}),
                         ((3, radicand, 2), {"branch": 2}),
                         ((3, radicand), {"sign": 2})]:
        with pytest.raises(TypeError,
                           match="^Root takes degree, radicand, branch$"):
            Root(*args, **kwargs)


def test_a_deep_chain_is_a_dict_key():
    # equality and hash are identity, so neither recurses into the children
    chain = IntegerLiteral(2)
    for _ in range(5000):
        chain = make_root(2, chain, 0)
    assert {chain: 1}[chain] == 1
    assert chain == chain and chain != chain.radicand


def test_a_deep_chain_emits_and_evaluates():
    # the walk keeps its own stack, so a chain 5000 levels deep stays below
    # the recursion limit; x = sqrt(1 + x) converges to the golden ratio
    chain = IntegerLiteral(2)
    for _ in range(5000):
        chain = make_root(2, make_sum([chain, IntegerLiteral(1)]), 0)
    text = emit(chain, "text")
    assert len(text) == 74997 and text.count("root(2,0; ") == 5000
    assert emit(chain, "latex").count(r"\sqrt{") == 5000
    with mp.workdps(30):
        assert abs(evaluate(chain) - (1 + mpmath.sqrt(5)) / 2) < mpf(10) ** -28


def test_intern_table_drops_the_nodes_of_a_dropped_solve():
    gc.collect()
    before = list(radical._interned.values())     # kept alive on purpose
    kept = {id(node) for node in before}
    # an input no other test solves, so that its nodes are new
    report = solve("x^3-53", "(1,2,3);(1,2)")
    built = [weakref.ref(node) for node in radical._interned.values()
             if id(node) not in kept]
    assert built
    del report
    gc.collect()
    assert [ref() for ref in built if ref() is not None] == []
    assert {id(node) for node in radical._interned.values()} <= kept


def fresh_render(expr, format):
    """``emit`` of text or LaTeX with a fresh memo, as it stood before it
    kept the memo of its last call."""
    visit = {"text": radical._text, "latex": radical._latex}[format]
    return radical._walk(visit, expr, {})


def pure_power_roots(*args):
    """The root expressions of ``workloads.pure_power(*args)``."""
    instance = load_perfbench("workloads").pure_power(*args)
    return solve(instance.poly, instance.generators,
                 labeling=instance.labeling).root_exprs


def test_emit_renders_every_root_as_a_fresh_walk():
    f20, f42 = pure_power_roots("F20", 5, 2, 2), pure_power_roots(
        "F42", 7, 3, 3)
    orders = [
        [(e, "text") for e in f20],                     # forward
        [(e, "text") for e in reversed(f20)],           # reverse
        [(e, format) for e in f42 for format in ("text", "latex")],
        # two solves interleaved, in both formats
        [(e, format) for pair in zip(f20, reversed(f42)) for e in pair
         for format in ("latex", "text")],
    ]
    for order in orders:
        for expr, format in order:
            assert emit(expr, format) == fresh_render(expr, format)


def test_emit_keeps_no_earlier_expression_alive():
    # an input no other test solves, so that its nodes are new
    report = solve("x^3-61", "(1,2,3);(1,2)")
    for expr in report.root_exprs:
        emit(expr, "text"), emit(expr, "latex")
    radicals = [node for node in radical._renders["text"][1]
                if isinstance(node, Root)]
    assert radicals
    ref = weakref.ref(radicals[0])
    del report, expr, radicals
    unrelated = make_root(2, IntegerLiteral(3), 0)
    emit(unrelated, "text"), emit(unrelated, "latex")
    gc.collect()
    assert ref() is None


def test_emit_slot_holds_at_most_the_last_expression():
    exprs = pure_power_roots("F20", 5, 2, 2) + (
        make_root(3, IntegerLiteral(7), 1), IntegerLiteral(5))
    for k in range(50):
        expr = exprs[k * 3 % len(exprs)]
        emit(expr, "text")
        nodes = {}
        fresh = radical._walk(radical._text, expr, nodes)
        slot = radical._renders["text"][1]
        assert set(slot) <= set(nodes) and slot[expr] == fresh
    # a root emitted after another of its solve, even one emitted twice,
    # reads their shared subtrees from the slot, not walking below them
    for expr in (exprs[-1], exprs[0], exprs[0], exprs[1]):
        emit(expr, "text")
    nodes = {}
    radical._walk(radical._text, exprs[1], nodes)
    assert len(radical._renders["text"][1]) < len(nodes)
