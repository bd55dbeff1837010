import pytest
from mpmath import mp, mpf

import math

from radicalroots import (LabelingFailed, Permutation, PrecisionInfeasible,
                          ResidualTooLarge, closure, composition_series, find_roots, label_roots,
                          parse_cycles, parse_polynomial, plan_precision,
                          build_theta0, forward_pass, forward_level,
                          round_theta_m)
from radicalroots.resolvent import (DEFAULT_MARGIN, MultiplicationCounter,
                                    ResolventTensor, axis_lines, multiplication_budget,
                                    position_root_indices, zeta_tables)
from radicalroots.rootfinder import relabel
from tests.conftest import QUINTIC_THETA, reindex_axis
from tests.test_properties import INSTANCES


def c2_series():
    G = closure([parse_cycles("(1,2)", 2)])
    return composition_series(G)


# the digit budget of quintic_forward
QUINTIC_DIGITS = 19


def quintic_forward(reference_label_order):
    p = parse_polynomial("x^5+20x+32")
    G = closure([parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,4)(2,3)", 5)])
    series = composition_series(G)
    roots = find_roots(p, QUINTIC_DIGITS)
    labeled = relabel(roots, Permutation(tuple(reference_label_order)))
    with mp.workdps(QUINTIC_DIGITS):
        zetas = zeta_tables(series)
        theta0 = build_theta0(labeled, series)
        fwd = forward_pass(theta0, series, zetas)
    return series, zetas, theta0, fwd


def sqrt2_forward(digits=14):
    series = c2_series()
    roots = find_roots(parse_polynomial("x^2-2"), digits)
    labeled = relabel(roots, label_roots(series.group, roots).permutation)
    with mp.workdps(digits):
        zetas = zeta_tables(series)
        theta0 = build_theta0(labeled, series)
        fwd = forward_pass(theta0, series, zetas)
    return series, zetas, theta0, fwd


def test_plan_precision_quintic(d5):
    series = composition_series(d5)
    plan = plan_precision(series, 2.4)
    assert plan.n_bound == 5**10 * 2**2
    assert plan.required_digits == 13
    assert plan.digits == 13 + DEFAULT_MARGIN


def test_plan_precision_c2_examples():
    series = c2_series()
    plan = plan_precision(series, 1.5)
    assert plan.n_bound == 4
    assert plan.required_digits == 2
    assert plan.digits == 2 + DEFAULT_MARGIN
    plan = plan_precision(series, 1)
    assert plan.required_digits == 2
    assert plan.digits == 2 + DEFAULT_MARGIN


def test_plan_precision_cap():
    series = c2_series()
    with pytest.raises(PrecisionInfeasible):
        plan_precision(series, "1e200000")


def test_build_theta0_quintic_position_map(d5):
    # column j2=0 walks the 5-cycle; column j2=1 applies the reflection
    series = composition_series(d5)
    indices = position_root_indices(series)
    assert indices == [1, 4, 2, 3, 3, 2, 4, 1, 5, 5]


def product_position_indices(series):
    """(sigma_m^{j_m}...sigma_1^{j_1})(1) at each flat position, built as a
    product of permutations."""
    radices = series.primes
    out = []
    for flat in range(math.prod(radices)):
        rem, multi = flat, []
        for p in reversed(radices):
            multi.append(rem % p)
            rem //= p
        perm = Permutation.identity(series.degree)
        for (sigma, _), j in zip(series.steps, reversed(multi)):
            perm = sigma.power(j) * perm
        out.append(perm(1))
    return out


def affine_group(n, unit):
    """k -> k+1 and k -> unit*k (mod n) on labels k+1."""
    shift = Permutation(tuple((k + 1) % n + 1 for k in range(n)))
    scale = Permutation(tuple((unit * k) % n + 1 for k in range(n)))
    return closure([shift, scale])


POSITION_GROUPS = [
    *((name, closure([parse_cycles(t, parse_polynomial(text).degree)
                      for t in gens.split(";")]))
      for name, text, gens, _ in INSTANCES),
    ("F42", affine_group(7, 3)),
    ("F110", affine_group(11, 2)),
    ("F156", affine_group(13, 2)),
]


@pytest.mark.parametrize("group", [g for _, g in POSITION_GROUPS],
                         ids=[name for name, _ in POSITION_GROUPS])
def test_position_root_indices_match_permutation_products(group):
    series = composition_series(group)
    assert position_root_indices(series) == product_position_indices(series)


def test_build_theta0_sqrt2():
    _, _, theta0, _ = sqrt2_forward()
    a, b = theta0.data
    assert abs(a - mpf("1.4142135623731")) < mpf("1e-12")
    assert abs(b - mpf("-1.4142135623731")) < mpf("1e-12")


def test_build_theta0_trivial_group():
    from radicalroots import Permutation
    G = closure([Permutation.identity(1)])
    series = composition_series(G)
    roots = find_roots(parse_polynomial("x+3"), 12)
    theta0 = build_theta0(roots, series)
    assert len(theta0.data) == 1
    assert theta0.data[0].real == -3


def test_build_theta0_rejects_intransitive():
    # C2 acting on only 2 of 3 labels cannot cover a cubic's roots
    G = closure([parse_cycles("(1,2)", 3)])
    series = composition_series(G)
    roots = find_roots(parse_polynomial("x^3-2"), 12)
    with pytest.raises(LabelingFailed, match="not transitive"):
        build_theta0(roots, series)


def test_forward_level_sqrt2():
    series, zetas, theta0, fwd = sqrt2_forward()
    L0, theta1 = fwd.resolvents[0], fwd.thetas[1]
    # L0 = [x1 + x2, x1 - x2] = [0, 2*sqrt(2)]
    assert abs(L0.data[0]) < mpf("1e-12")
    assert abs(L0.data[1] - mpf("2.8284271247462")) < mpf("1e-11")
    with mp.workdps(14):
        ints = round_theta_m(theta1)
    assert ints.values == (4, -4)


def test_forward_constant_axis_kills_nonzero_modes():
    # constant data along the axis: geometric sums of zeta vanish off k=0
    series = c2_series()
    digits = 16
    with mp.workdps(digits):
        zetas = zeta_tables(series)
        val = mp.mpc("1.25", "0.5")
        tensor = ResolventTensor((2,), (val, val))
        L, _ = forward_level(tensor, 1, zetas, MultiplicationCounter())
        assert abs(L.data[0] - (val + val)) < mpf(10) ** (3 - digits)
        assert abs(L.data[1]) < mpf(10) ** (3 - digits)


def test_quintic_theta2_values(reference_label_order):
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    theta2 = fwd.thetas[2]
    # displayed value: Theta_2[1,1] = 34999999.999995  (14 significant digits)
    entry = theta2.data[1 * 2 + 1]
    assert abs(entry.real - 35000000) < mpf("1e-4")
    assert abs(entry.imag) < mpf("1e-4")
    with mp.workdps(QUINTIC_DIGITS):
        ints = round_theta_m(theta2)
    assert ints.values == QUINTIC_THETA
    assert max(ints.residuals) < mpf("1e-4")


def test_multiplication_counter_budget_exact(reference_label_order):
    series, _, _, fwd = quintic_forward(reference_label_order)
    assert multiplication_budget(series) == 190  # 10 * (14 + 5)
    assert fwd.counter.count == 190
    assert fwd.counter.count <= multiplication_budget(series)


def test_round_theta_m_rejects_offset():
    with mp.workdps(12):
        bad = ResolventTensor((2,), (mp.mpc("0.4"), mp.mpc(1)))
        with pytest.raises(ResidualTooLarge):
            round_theta_m(bad)


def test_fourier_inversion_identity(reference_label_order):
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    digits = QUINTIC_DIGITS
    for level in range(1, series.length + 1):
        p = series.primes[level - 1]
        prev = fwd.thetas[level - 1]
        L = fwd.resolvents[level - 1]
        table = zetas[p]
        scale = max(abs(e) for e in prev.data)
        tol = mpf(10) ** (3 - digits) * max(mpf(1), scale)
        with mp.workdps(digits):
            for line in axis_lines(prev.radices, level - 1):
                for j in range(p):
                    acc = mp.mpc(0)
                    for k in range(p):
                        acc = acc + table[(-j * k) % p] * L.data[line[k]]
                    acc = acc / p
                    assert abs(acc - prev.data[line[j]]) < tol


def test_cyclic_shift_invariance(reference_label_order):
    # shifting axis i of Theta_{i-1} rephases L but leaves L^p and Theta_i alone
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    digits = QUINTIC_DIGITS
    for level in range(1, series.length + 1):
        p = series.primes[level - 1]
        prev = fwd.thetas[level - 1]
        shifted = reindex_axis(prev, level, 1, 1)
        with mp.workdps(digits):
            _, theta_shifted = forward_level(shifted, level, zetas,
                                             MultiplicationCounter())
        ref = fwd.thetas[level]
        scale = max(mpf(1), max(abs(e) for e in ref.data))
        tol = mpf(10) ** (3 - digits) * scale
        for a, b in zip(theta_shifted.data, ref.data):
            assert abs(a - b) < tol


def test_primitive_root_exchange_law(reference_label_order):
    # resolvents formed with zeta^k: Theta entries reindex by the inverse of k
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    digits = QUINTIC_DIGITS
    level, p = 1, 5
    prev = fwd.thetas[0]
    ref = fwd.thetas[1]
    for k in range(2, p):
        t = pow(k, -1, p)
        # sum_j zeta^(kjm) theta_j = sum_i zeta^(im) theta_(t*i), t = 1/k mod p
        with mp.workdps(digits):
            _, exchanged = forward_level(reindex_axis(prev, level, t, 0),
                                         level, zetas, MultiplicationCounter())
        scale = max(mpf(1), max(abs(e) for e in ref.data))
        tol = mpf(10) ** (3 - digits) * scale
        for line in axis_lines(prev.radices, level - 1):
            for j in range(p):
                got = exchanged.data[line[j]]
                expected = ref.data[line[(t * j) % p]]
                assert abs(got - expected) < tol
