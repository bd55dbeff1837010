import dataclasses
import gc
import math
import weakref

import mpmath
import pytest
from mpmath import mp, mpf

from radicalroots import radical
from radicalroots import (PhaseAmbiguous, VerificationFailed, closure,
                          composition_series, emit, evaluate, find_roots,
                          label_roots, parse_cycles, parse_expr_json,
                          parse_polynomial, reconstruct, solve, verify)
from radicalroots.radical import (IntegerLiteral, Product, RationalScale, Root,
                                  RootOfUnitySymbol, Sum, json_ast,
                                  make_product, make_root, make_scale,
                                  make_sum)
from radicalroots.resolvent import (build_theta0, forward_pass,
                                    round_theta_m, zeta_tables)
from radicalroots.rootfinder import relabel
from tests.conftest import QUINTIC_ROOT_STRINGS


def run_backward(poly_text, gens_text, digits=None):
    p = parse_polynomial(poly_text)
    gens = [parse_cycles(t, p.degree) for t in gens_text.split(";")]
    G = closure(gens)
    series = composition_series(G)
    if digits is None:
        from radicalroots import plan_precision, root_magnitude_bound
        coarse = find_roots(p, 32)
        digits = plan_precision(series, root_magnitude_bound(coarse.roots), 6).digits
    roots = find_roots(p, digits)
    labeled = relabel(roots, label_roots(G, roots).permutation)
    zetas = zeta_tables(series, digits)
    theta0 = build_theta0(labeled, series)
    fwd = forward_pass(theta0, series, zetas)
    ints = round_theta_m(fwd.thetas[-1])
    recon = reconstruct(series, ints, fwd.resolvents, zetas, digits=digits)
    return series, zetas, theta0, fwd, ints, recon, labeled, digits


def test_sqrt2_reconstruction():
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^2-2", "(1,2)")
    assert ints.values == (4, -4)
    # E_0 = 4 + (-4) = 0 drops out; E_1 = 8 survives as a square root
    positive = recon.root_exprs[0]
    assert positive == RationalScale(2, Root(2, IntegerLiteral(8), 0))
    assert emit(positive) == "(1/2)*(root(2,0; 8))"
    val = evaluate(positive, 14)
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
    for expr, root in zip(recon.root_exprs, labeled.roots):
        assert abs(evaluate(expr, digits) - root) < mpf(10) ** (-digits // 2)


def test_quintic_reconstruction_matches_13_decimals(reference_label_order):
    report = solve("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)",
                   labeling=reference_label_order)
    for (re_s, im_s), expr in zip(QUINTIC_ROOT_STRINGS, report.root_exprs):
        with mp.workdps(20):
            target = mp.mpc(re_s, im_s)
        assert abs(evaluate(expr, report.digits) - target) < mpf("1e-13")


def test_reconstruct_phase_ambiguous_on_corrupted_resolvents():
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    # rotate the stored level-2 resolvents so no branch matches
    from radicalroots.resolvent import ResolventTensor
    with mp.workdps(digits):
        bad_value = mp.mpc(1, 1)
        corrupted = ResolventTensor(
            fwd.resolvents[1].radices,
            tuple(v * bad_value for v in fwd.resolvents[1].data), digits)
    with pytest.raises(PhaseAmbiguous):
        reconstruct(series, ints, (fwd.resolvents[0], corrupted), zetas,
                    digits=digits)


def test_evaluate_examples():
    assert mpmath.nstr(evaluate(Root(2, IntegerLiteral(8), 0), 14).real, 14) \
        == "2.8284271247462"
    one = evaluate(RootOfUnitySymbol(5, 0), 12)
    assert one.real == 1 and one.imag == 0
    half_sum = RationalScale(2, Root(2, IntegerLiteral(8), 0))
    assert mpmath.nstr(evaluate(half_sum, 14).real, 14) == "1.4142135623731"


def test_evaluate_deterministic():
    expr = Root(5, Sum((IntegerLiteral(7),
                        Product((RootOfUnitySymbol(5, 2),
                                 Root(2, IntegerLiteral(-45000000), 1))))), 3)
    a = evaluate(expr, 25)
    b = evaluate(expr, 25)
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
    assert make_product([IntegerLiteral(1), r]) == r
    assert make_product([IntegerLiteral(0), r]) == IntegerLiteral(0)
    # sign and zeta weights merge into branch tags of matching roots
    assert make_product([IntegerLiteral(-1), r]) == Root(2, IntegerLiteral(8), 1)
    r5 = Root(5, IntegerLiteral(3), 4)
    assert make_product([RootOfUnitySymbol(5, 2), r5]) == \
        Root(5, IntegerLiteral(3), 1)


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
    lambda e: evaluate(e, 10), lambda e: emit(e, "text"),
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


def test_reconstruct_rejects_a_stored_zero_over_a_nonzero_radicand():
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    level_1 = fwd.resolvents[0]
    assert abs(level_1.data[3]) > 1
    data = list(level_1.data)
    data[3] = mp.mpc(0)
    stored = (dataclasses.replace(level_1, data=tuple(data)),
              *fwd.resolvents[1:])
    with pytest.raises(PhaseAmbiguous, match="^resolvent magnitude "
                       "inconsistent at level 1, index 3: "):
        reconstruct(series, ints, stored, zetas, digits=digits)


def test_verify_zero_expression():
    roots = find_roots(parse_polynomial("x"), 10)
    deviations = verify((IntegerLiteral(0),), roots)
    assert deviations[0] == 0


def test_round_trip_theta0_every_position(reference_label_order):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    tol = mpf(10) ** (-mpf(digits) / 2)
    for expr, fwd_value in zip(recon.theta0_exprs, theta0.data):
        assert abs(evaluate(expr, digits) - fwd_value) < tol


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


def raw_twin(expr):
    """The same tree built by the node classes themselves: no interning, and
    one new object for every occurrence of a subtree."""
    fields = []
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, tuple):
            value = tuple(raw_twin(v) for v in value)
        elif not isinstance(value, int):
            value = raw_twin(value)
        fields.append(value)
    return type(expr)(*fields)


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


@pytest.mark.parametrize("n,distinct,roots", [(13, 205, 187), (11, 166, 132)])
def test_deep_solves_share_every_equal_subtree(deep_solves, n, distinct, roots):
    report, principal_roots = deep_solves[n]
    nodes = node_objects(report.root_exprs)
    assert len(nodes) == distinct
    assert len(set(nodes)) == distinct     # structural hash and equality
    # one principal root per distinct (radicand, p) pair
    assert principal_roots == roots


@pytest.mark.parametrize("n,distinct,lines", [(13, 26, 220), (11, 18, 87)])
def test_reconstruct_derives_each_distinct_line_once(monkeypatch, n, distinct,
                                                    lines):
    calls = [0]
    counted = radical._line_radicands

    def counting(*args):
        calls[0] += 1
        return counted(*args)

    monkeypatch.setattr(radical, "_line_radicands", counting)
    report = solve(f"x^{n}-2", affine_generators(n, 2),
                   labeling=pure_power_labels(n, 2))
    radices = report.theta.radices
    assert sum(math.prod(radices) // p for p in radices) == lines
    # one set of radicands, root values and noise floor per distinct line
    assert calls[0] == distinct


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


def test_raw_trees_evaluate_verify_and_emit_as_their_interned_twins(
        reference_label_order):
    report = solve("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)",
                   labeling=reference_label_order)
    twins = tuple(raw_twin(expr) for expr in report.root_exprs)
    assert twins == report.root_exprs
    assert len(node_objects(twins)) > len(node_objects(report.root_exprs))
    for expr, twin in zip(report.root_exprs, twins):
        assert twin is not expr
        for fmt in ("text", "latex", "json"):
            assert emit(twin, fmt) == emit(expr, fmt)
        assert evaluate(twin, report.digits) == evaluate(expr, report.digits)
    assert verify(twins, report.roots) == \
        verify(report.root_exprs, report.roots)
