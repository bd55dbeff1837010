import copy
import dataclasses
import gc
import math
import pickle
import re
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
        digits = plan_precision(series, root_magnitude_bound(coarse.roots)).digits
    roots = find_roots(p, digits)
    labeled = relabel(roots, label_roots(G, roots).permutation)
    with mp.workdps(digits):
        zetas = zeta_tables(series)
        theta0 = build_theta0(labeled, series)
        fwd = forward_pass(theta0, series, zetas)
        ints = round_theta_m(fwd.thetas[-1])
        recon = reconstruct(series, ints, fwd.resolvents, zetas)
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


def test_quintic_reconstruction_matches_13_decimals(reference_label_order):
    report = solve("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)",
                   labeling=reference_label_order)
    for (re_s, im_s), expr in zip(QUINTIC_ROOT_STRINGS, report.root_exprs):
        with mp.workdps(20):
            target = mp.mpc(re_s, im_s)
        with mp.workdps(report.digits):
            value = evaluate(expr)
        assert abs(value - target) < mpf("1e-13")


def test_reconstruct_phase_ambiguous_on_corrupted_resolvents():
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    # rotate the stored level-2 resolvents so no branch matches
    from radicalroots.resolvent import ResolventTensor
    with mp.workdps(digits):
        bad_value = mp.mpc(1, 1)
        corrupted = ResolventTensor(
            fwd.resolvents[1].radices,
            tuple(v * bad_value for v in fwd.resolvents[1].data))
        with pytest.raises(PhaseAmbiguous):
            reconstruct(series, ints, (fwd.resolvents[0], corrupted), zetas)


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


def _inconsistent_magnitudes(index, value):
    """Reconstruct x^3-2 with stored L_0[index] set to ``value``: the
    PhaseAmbiguous message's radicand magnitude, zero floor, stored
    magnitude and delta, and the unperturbed entry."""
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    level_1 = fwd.resolvents[0]
    data = list(level_1.data)
    original, data[index] = data[index], mp.mpc(value)
    stored = (dataclasses.replace(level_1, data=tuple(data)),
              *fwd.resolvents[1:])
    with mp.workdps(digits), pytest.raises(PhaseAmbiguous) as info:
        reconstruct(series, ints, stored, zetas)
    match = re.fullmatch(
        f"resolvent magnitude inconsistent at level 1, index {index}: "
        "radicand magnitude (.+) vs zero floor (.+), stored (.+) vs delta "
        "(.+)", str(info.value))
    assert match, str(info.value)
    return [mpf(g) for g in match.groups()], original


def test_reconstruct_rejects_a_stored_zero_over_a_nonzero_radicand():
    (radicand, floor, stored, delta), original = _inconsistent_magnitudes(3, 0)
    assert abs(original) > 1
    assert radicand > floor and stored < delta
    # the message gives the radicand |E_k| = |L|^3, not its cube root |L|
    assert abs(radicand / abs(original) ** 3 - 1) < mpf("1e-3")


def test_reconstruct_rejects_a_stored_nonzero_over_a_vanishing_radicand():
    (radicand, floor, stored, delta), original = _inconsistent_magnitudes(0, 1)
    assert abs(original) < delta
    assert radicand <= floor and stored >= delta


def test_verify_zero_expression():
    roots = find_roots(parse_polynomial("x"), 10)
    deviations = verify((IntegerLiteral(0),), roots)
    assert deviations[0] == 0


def test_round_trip_theta0_every_position(reference_label_order):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_backward("x^3-2", "(1,2,3);(1,2)")
    tol = mpf(10) ** (-mpf(digits) / 2)
    with mp.workdps(digits):
        values = [evaluate(expr) for expr in recon.theta0_exprs]
    for value, fwd_value in zip(values, theta0.data):
        assert abs(value - fwd_value) < tol


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


@pytest.mark.parametrize("n,distinct", [(13, 205), (11, 166)])
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
