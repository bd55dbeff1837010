"""Transform-law properties over a spread of solvable instances.

Instances: quadratics and pure cubics with seeded coefficients, cyclic cubics,
the degree-5 and degree-6 cyclic fields cut out of the 11th and 13th roots of
unity (explicit labelings), and the dihedral quintic.
"""

import math
import random

import mpmath
import pytest
from mpmath import mp, mpf

from radicalroots import (Permutation, closure, composition_series, evaluate,
                          find_roots, label_roots, parse_cycles,
                          parse_polynomial, plan_precision, reconstruct,
                          root_magnitude_bound, solve, verify)
from radicalroots import radical, resolvent
from radicalroots.groups import smallest_prime_factor
from radicalroots.radical import ValueCache
from radicalroots.resolvent import (MultiplicationCounter, axis_lines,
                                    build_theta0, forward_level,
                                    forward_pass, multiplication_budget,
                                    round_theta_m, zeta_tables)
from radicalroots.rootfinder import relabel
from tests.conftest import reindex_axis


def _period_label_order(roots, q, g, n):
    """Match canonical roots to 2cos(2*pi*g^j/q), the cyclic-field labeling."""
    order = []
    with mp.workdps(30):
        targets = [2 * mpmath.cos(2 * mpmath.pi * pow(g, j, q) / q)
                   for j in range(n)]
    for t in targets:
        order.append(min(range(n),
                         key=lambda i: abs(float(roots.roots[i].real - t))) + 1)
    return order


def _instances():
    rng = random.Random(414213)
    out = []
    squares = {k * k for k in range(1, 9)}
    ds = [d for d in range(2, 60) if d not in squares]
    for d in rng.sample(ds, 11):
        out.append((f"C2 x^2-{d}", f"x^2-{d}", "(1,2)", "auto"))
    cubes = {k ** 3 for k in range(1, 4)}
    as_ = [a for a in range(2, 40) if a not in cubes]
    for a in rng.sample(as_, 8):
        out.append((f"S3 x^3-{a}", f"x^3-{a}", "(1,2,3);(1,2)", "auto"))
    for text in ("x^3-3x-1", "x^3+x^2-2x-1", "x^3-21x-35"):
        out.append((f"C3 {text}", text, "(1,2,3)", "auto"))
    out.append(("C5 deg-5 cyclic", "x^5+x^4-4x^3-3x^2+3x+1", "(1,2,3,4,5)",
                ("period", 11, 2, 5)))
    out.append(("C6 deg-6 cyclic", "x^6+x^5-5x^4-4x^3+6x^2+3x-1",
                "(1,2,3,4,5,6)", ("period", 13, 2, 6)))
    out.append(("D5 quintic", "x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)", "auto"))
    assert len(out) == 25
    return out


INSTANCES = _instances()


def run_instance(poly_text, gens_text, labeling):
    poly = parse_polynomial(poly_text)
    gens = [parse_cycles(t, poly.degree) for t in gens_text.split(";")]
    group = closure(gens)
    series = composition_series(group)
    coarse = find_roots(poly, 32)
    digits = plan_precision(series, root_magnitude_bound(coarse.roots)).digits
    roots = find_roots(poly, digits)
    if labeling == "auto":
        labeled = relabel(roots, label_roots(group, roots).permutation)
    elif isinstance(labeling, Permutation):
        labeled = relabel(roots, labeling)
    else:
        _, q, g, n = labeling
        order = _period_label_order(roots, q, g, n)
        labeled = relabel(roots, Permutation(tuple(order)))
    with mp.workdps(digits):
        zetas = zeta_tables(series)
        theta0 = build_theta0(labeled, series)
        fwd = forward_pass(theta0, series, zetas)
        ints = round_theta_m(fwd.thetas[-1])
        recon = reconstruct(series, ints, fwd)
    return series, zetas, theta0, fwd, ints, recon, labeled, digits


BUNDLES = {}


@pytest.fixture(params=INSTANCES, ids=[i[0] for i in INSTANCES])
def bundle(request):
    name, poly_text, gens_text, labeling = request.param
    if name not in BUNDLES:
        BUNDLES[name] = run_instance(poly_text, gens_text, labeling)
    return BUNDLES[name]


def test_fourier_inversion_every_level(bundle):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    for level in range(1, series.length + 1):
        p = series.primes[level - 1]
        prev = fwd.thetas[level - 1]
        L = fwd.resolvents[level - 1]
        table = zetas[p]
        scale = max(mpf(1), max(abs(e) for e in prev.data))
        tol = mpf(10) ** (3 - digits) * scale
        with mp.workdps(digits):
            for line in axis_lines(prev.radices, level - 1):
                for j in range(p):
                    acc = mp.mpc(0)
                    for k in range(p):
                        acc = acc + table[(-j * k) % p] * L.data[line[k]]
                    acc = acc / p
                    assert abs(acc - prev.data[line[j]]) < tol


def test_cyclic_shift_leaves_theta_invariant(bundle):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    for level in range(1, series.length + 1):
        p = series.primes[level - 1]
        prev = fwd.thetas[level - 1]
        ref_L, ref_theta = fwd.resolvents[level - 1], fwd.thetas[level]
        with mp.workdps(digits):
            shifted_L, shifted_theta = forward_level(
                reindex_axis(prev, level, 1, 1), level, zetas,
                MultiplicationCounter())
        power_scale = max(mpf(1),
                          max(abs(e) for e in ref_theta.data)) * p
        tol = mpf(10) ** (3 - digits) * power_scale
        with mp.workdps(digits):
            for line in axis_lines(prev.radices, level - 1):
                for k in range(p):
                    a = shifted_L.data[line[k]] ** p
                    b = ref_L.data[line[k]] ** p
                    assert abs(a - b) < tol
        theta_scale = max(mpf(1), max(abs(e) for e in ref_theta.data))
        tol = mpf(10) ** (3 - digits) * theta_scale
        for a, b in zip(shifted_theta.data, ref_theta.data):
            assert abs(a - b) < tol


def test_multiplication_count_within_budget(bundle):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    assert fwd.counter.count <= multiplication_budget(series)
    assert multiplication_budget(series) == series.order * sum(
        3 * p - 1 for p in series.primes)
    assert multiplication_budget(series) < 3 * series.order ** 2


def test_forward_pass_counts_its_real_multiplications(bundle, monkeypatch):
    """The counter adds fixed amounts per line; count the complex products
    actually performed instead, by the integer kernel where ``resolvent``
    looks it up and by ``mpc``: the counter equals the kernel's count, which
    stays within the budget."""
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    kernel, mpc_products = [0], [0]

    def counting_gmul(x, y, s, _original=resolvent.gmul):
        kernel[0] += 1
        return _original(x, y, s)
    monkeypatch.setattr(resolvent, "gmul", counting_gmul)
    for name in ("__mul__", "__rmul__"):
        def counting(self, other, _original=getattr(mpmath.mpc, name)):
            mpc_products[0] += 1
            return _original(self, other)
        monkeypatch.setattr(mpmath.mpc, name, counting)
    forward = forward_pass(theta0, series, zetas)
    monkeypatch.undo()
    assert mpc_products[0] == 0
    assert kernel[0] == forward.counter.count <= multiplication_budget(series)


def _root_nodes(expr, seen):
    from radicalroots.radical import (Product, RationalScale, Root, Sum)
    if id(expr) in seen:
        return
    seen[id(expr)] = expr
    if isinstance(expr, Root):
        yield expr
        yield from _root_nodes(expr.radicand, seen)
    elif isinstance(expr, RationalScale):
        yield from _root_nodes(expr.child, seen)
    elif isinstance(expr, Sum):
        for t in expr.terms:
            yield from _root_nodes(t, seen)
    elif isinstance(expr, Product):
        for f in expr.factors:
            yield from _root_nodes(f, seen)


def test_root_nodes_power_back_to_radicand(bundle):
    # every accepted p-th root re-powers onto its own radicand
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    cache, seen = ValueCache(), {}
    for expr in recon.root_exprs:
        for node in _root_nodes(expr, seen):
            with mp.workdps(digits):
                val = evaluate(node, cache)
                radicand = evaluate(node.radicand, cache)
                tol = mpf(10) ** (3 - digits) * max(mpf(1), abs(radicand))
                assert abs(val ** node.degree - radicand) < tol


def test_branch_separation_soundness(bundle):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    if series.length and len(ints.values) > 1:
        assert recon.branch_log  # nontrivial instances select branches
    # in sector units: each stored resolvent lies delta or more inside the
    # chosen sector, whose centre is the nearer one, or on the cut, within
    # delta^2 of the boundary, where both centres are 1/2 away
    half = mpf(1) / 2
    with mp.workdps(digits):
        for choice in recon.branch_log:
            best, second = choice.best_distance, choice.second_distance
            assert abs(best + second - 1) < choice.delta ** 2
            if abs(best - half) >= choice.delta ** 2:
                assert best <= half - choice.delta


def built_lines(recon, level):
    """The flat indices that ``reconstruct`` logged at ``level``: the
    entries of the lines it built there."""
    return {entry.flat_index for entry in (*recon.branch_log, *recon.zero_notes)
            if entry.level == level}


def test_round_trip_theta0_positions(bundle):
    # each root's expression is built at one representative position of
    # Theta_0, which holds that root's label and evaluates to its entry
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    tol = mpf(10) ** (-mpf(digits) / 2)
    positions = radical._representatives(series)
    labels = resolvent.position_root_indices(series)
    assert [labels[flat] for flat in positions] == \
        list(range(1, series.degree + 1))
    cache = ValueCache()
    with mp.workdps(digits):
        values = [evaluate(expr, cache) for expr in recon.root_exprs]
    for value, flat in zip(values, positions):
        assert abs(value - theta0.data[flat]) < tol
    if smallest_prime_factor(series.degree) == series.degree:
        # prime degree: one level-1 line, the only one built
        lines = [set(line) for line in axis_lines(series.primes, 0)]
        assert set(positions) in lines
        assert built_lines(recon, 1) == set(positions)


def test_expressions_verify_against_roots(bundle):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = bundle
    deviations = verify(recon.root_exprs, labeled)
    assert max(deviations) < mpf(10) ** (-mpf(digits) / 2)


@pytest.mark.parametrize("instance", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_solve_values_equal_a_fresh_evaluation(instance):
    # the values the backward pass leaves behind are exactly what a separate
    # evaluation of each expression gives, and verification compares those
    name, poly_text, gens_text, labeling = instance
    if labeling != "auto":
        _, q, g, n = labeling
        roots = find_roots(parse_polynomial(poly_text), 30)
        labeling = _period_label_order(roots, q, g, n)
    report = solve(poly_text, gens_text, labeling=labeling)
    for expr, value, deviation, root in zip(
            report.root_exprs, report.evaluations, report.verification,
            report.roots.roots):
        with mp.workdps(report.digits):
            assert value == evaluate(expr)
            assert deviation == abs(value - root)


@pytest.mark.parametrize("poly_text,gens_text,level", [
    ("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)", 1),
    ("x^3-2", "(1,2,3);(1,2)", 1),
])
def test_primitive_root_exchange_modular_inverse(poly_text, gens_text, level):
    series, zetas, theta0, fwd, ints, recon, labeled, digits = \
        run_instance(poly_text, gens_text, "auto")
    p = series.primes[level - 1]
    prev, ref = fwd.thetas[level - 1], fwd.thetas[level]
    scale = max(mpf(1), max(abs(e) for e in ref.data))
    tol = mpf(10) ** (3 - digits) * scale
    for k in range(2, p):
        t = pow(k, -1, p)
        # sum_j zeta^(kjm) theta_j = sum_i zeta^(im) theta_(t*i), t = 1/k mod p
        with mp.workdps(digits):
            _, exchanged = forward_level(reindex_axis(prev, level, t, 0),
                                         level, zetas, MultiplicationCounter())
        for line in axis_lines(prev.radices, level - 1):
            for j in range(p):
                assert abs(exchanged.data[line[j]]
                           - ref.data[line[(t * j) % p]]) < tol
